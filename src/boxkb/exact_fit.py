"""Exact truth-table fitting: a constructive expressiveness oracle.

Given a total truth assignment over a small universe (every relation applied
to every entity tuple), this module builds a model configuration that
classifies every fact exactly: a fact is true iff the final embedding of
every argument position lies inside that position's box.  Classification is
purely geometric; scores and bounding play no role, so the model is built
with bounding disabled.

Construction: start from the all-true model (all vectors zero, all boxes
[-0.5, 0.5]^d with d = |R| * |E|^(n-1), n the maximal arity) and flip false
facts one at a time.  Every flip changes exactly one classification bit.

For all-binary vocabularies the flip is closed-form: at dimension
D = dim_index(i, k) for fact r_i(e_j, e_k), increment the bump of e_j by C,
decrement every entity base except e_k by C, grow relation i's head box by
+-C and its tail box downward only, and grow every other relation's boxes by
+-C, with C one more than the largest coordinate magnitude at D.  The fact
then exits its tail box from above while every other final moves by an
amount the grown boxes absorb, and later flips never disturb the exit
because bumps only grow and the tail upper bound at D never moves.

With any non-binary relation (relations padded to the maximal arity n_max
with entity 0) bumps are shared across facts, so each flip of a fact F
appends one dimension instead.  At position p, a final there is its entity's
base plus w . c, with w the new bumps and c the count vector of the entities
at the other positions.  One LP over |E| variables finds integer w with
w . c_F >= w . c_G + 1 for every true fact G of F's relation sharing F's
entity at p.  F's entity gets base 0, every other entity base
-far = -(n_max * sum|w| + 1), box (relation, p) the upper bound
max_G w . c_G + 1/2, and every other bound lies beyond any final, so F alone
leaves a box; all values are integers or halves, exact in float64.  Exit
positions are tried in the order 1, ..., n_max - 1, 0, each verified on the
whole universe.  If none separates, c_F is in the hull of the c_G at every
p, so F's finals are convex combinations of true facts' finals and no model
keeping those facts true can make F false.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .geometry import inside
from .kb import Fact, Vocabulary
from .model import _TABLES, ModelParams, final_embedding, fresh_slots

PAD_ENTITY = 0  # fills the positions past a relation's arity


class ExactFitError(RuntimeError):
    """No flip candidate could realize the requested classification change."""


class TableFormatError(ValueError):
    pass


@dataclass(frozen=True)
class TruthTable:
    """Total truth assignment: every (relation, entity tuple) has a label."""
    vocab: Vocabulary
    truth: dict[tuple, bool]

    def __post_init__(self) -> None:
        expected = set(enumerate_universe(self.vocab))
        got = set(self.truth)
        if got != expected:
            missing = len(expected - got)
            extra = len(got - expected)
            raise TableFormatError(
                f"truth table is not total over its universe "
                f"({missing} missing, {extra} unknown entries)")

    @property
    def n_facts(self) -> int:
        return len(self.truth)


def enumerate_universe(vocab: Vocabulary) -> list[tuple]:
    """All (relation, *entities) keys over the vocabulary, in canonical order."""
    keys = []
    for rel in range(vocab.n_relations):
        for ents in itertools.product(range(vocab.n_entities),
                                      repeat=vocab.arity(rel)):
            keys.append((rel, *ents))
    return keys


def parse_table(path) -> TruthTable:
    """Read a truth table file.

    Format: an ``entities`` line, one ``relation <name> <arity>`` line per
    relation, then one ``<relation> <e1> ... <en> <0|1|true|false>`` line per
    fact, covering the whole universe.  ``#`` starts a comment.
    """
    vocab = Vocabulary()
    truth: dict[tuple, bool] = {}
    saw_entities = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            tokens = text.split()
            if tokens[0] == "entities":
                if saw_entities:
                    raise TableFormatError(f"{path}:{lineno}: duplicate entities line")
                if len(tokens) < 2:
                    raise TableFormatError(f"{path}:{lineno}: no entities listed")
                for name in tokens[1:]:
                    if name in vocab.entity_names:
                        raise TableFormatError(
                            f"{path}:{lineno}: duplicate entity {name!r}")
                    vocab.entity_id(name, create=True)
                saw_entities = True
            elif tokens[0] == "relation":
                if len(tokens) != 3:
                    raise TableFormatError(
                        f"{path}:{lineno}: expected 'relation <name> <arity>'")
                try:
                    arity = int(tokens[2])
                except ValueError:
                    raise TableFormatError(f"{path}:{lineno}: arity must be an integer")
                if arity < 1:
                    raise TableFormatError(f"{path}:{lineno}: arity must be at least 1")
                if tokens[1] in vocab.relation_names:
                    raise TableFormatError(f"{path}:{lineno}: duplicate relation line")
                vocab.relation_id(tokens[1], arity=arity, create=True)
            else:
                if not saw_entities:
                    raise TableFormatError(
                        f"{path}:{lineno}: entities line must come first")
                try:
                    rel = vocab.relation_id(tokens[0])
                except KeyError:
                    raise TableFormatError(
                        f"{path}:{lineno}: unknown relation {tokens[0]!r}")
                arity = vocab.arity(rel)
                if len(tokens) != arity + 2:
                    raise TableFormatError(
                        f"{path}:{lineno}: expected {arity} entities and a label")
                try:
                    ents = tuple(vocab.entity_id(n) for n in tokens[1:-1])
                except KeyError as exc:  # str() of a KeyError quotes its message
                    raise TableFormatError(f"{path}:{lineno}: {exc.args[0]}")
                label = tokens[-1].lower()
                if label not in ("0", "1", "true", "false"):
                    raise TableFormatError(
                        f"{path}:{lineno}: label must be 0/1/true/false")
                key = (rel, *ents)
                if key in truth:
                    raise TableFormatError(f"{path}:{lineno}: duplicate fact entry")
                truth[key] = label in ("1", "true")
    try:
        return TruthTable(vocab, truth)
    except TableFormatError as exc:
        raise TableFormatError(f"{path}: {exc}") from exc


def write_table(table: TruthTable, path) -> None:
    vocab = table.vocab
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("entities " + " ".join(vocab.entity_names) + "\n")
        for rel, name in enumerate(vocab.relation_names):
            fh.write(f"relation {name} {vocab.arity(rel)}\n")
        for key in sorted(table.truth):
            rel, ents = key[0], key[1:]
            names = " ".join(vocab.entity_names[e] for e in ents)
            fh.write(f"{vocab.relation_names[rel]} {names} "
                     f"{1 if table.truth[key] else 0}\n")


def dim_index(relation: int, tail: tuple[int, ...], n_entities: int) -> int:
    """Dimension assigned to (relation, tail entity tuple).

    relation * |E|^(n-1) + sum_a tail[a] * |E|^(n-2-a): a mixed-radix layout
    giving each relation a contiguous block of |E|^(n-1) dimensions,
    bijective over the index ranges.
    """
    if relation < 0:
        raise ValueError("relation index out of range")
    idx = relation
    for t in tail:
        if not 0 <= t < n_entities:
            raise ValueError("entity index out of range")
        idx = idx * n_entities + t
    return idx


@dataclass
class ExactFitModel:
    params: ModelParams        # over the padded internal vocabulary
    vocab: Vocabulary          # the original universe
    n_max: int
    flips: int = 0
    exact: bool | None = None
    # the classification of every universe key: all True when built, and
    # False once a flip succeeds (a flip changes no other key)
    labels: dict[tuple, bool] = field(default_factory=dict)

    @property
    def all_binary(self) -> bool:
        return all(a == 2 for a in self.vocab.relation_arities)

    def pad(self, key: tuple) -> tuple:
        rel, ents = key[0], key[1:]
        return (rel, *ents, *([PAD_ENTITY] * (self.n_max - len(ents))))


def build_all_true(vocab: Vocabulary) -> ExactFitModel:
    """All vectors zero, all boxes [-0.5, 0.5]^d: every fact classifies true."""
    n_max = max(vocab.relation_arities, default=0)
    if vocab.n_relations == 0 or vocab.n_entities == 0:
        raise ValueError("universe must have at least one relation and entity")
    n_e = vocab.n_entities
    d = vocab.n_relations * n_e ** (n_max - 1)
    internal = Vocabulary(list(vocab.entity_names), list(vocab.relation_names),
                          [n_max] * vocab.n_relations)
    slot_of, n_slots = fresh_slots(internal.relation_arities)
    params = ModelParams(
        vocab=internal,
        entity_base=np.zeros((n_e, d)),
        entity_bump=np.zeros((n_e, d)),
        box_a=np.full((n_slots, d), -0.5),
        box_b=np.full((n_slots, d), 0.5),
        slot_of=slot_of,
        norm_order=2,
        bounded=False,
    )
    return ExactFitModel(params=params, vocab=vocab, n_max=n_max,
                         labels=dict.fromkeys(enumerate_universe(vocab), True))


def _classify_padded(model: ExactFitModel, padded: tuple) -> bool:
    """Every final point inside its box, boundary inclusive: one array test
    on the (n, d) points against the relation's ``effective_bounds``."""
    params = model.params
    rel, ents = padded[0], padded[1:]
    pts = final_embedding(params, Fact(rel, ents))
    return bool(inside(*params.effective_bounds(params.slot_of[rel]), pts).all())


def classify(model: ExactFitModel, fact: Fact) -> bool:
    """True iff every argument position's final embedding is inside its box."""
    if fact.arity != model.vocab.arity(fact.relation):
        raise ValueError("fact arity does not match relation arity")
    return _classify_padded(model, model.pad((fact.relation, *fact.entities)))


def _flip_binary(model: ExactFitModel, fact: Fact) -> None:
    """Closed-form flip for all-binary vocabularies (see module docstring)."""
    params = model.params
    j, k = fact.entities
    rel = fact.relation
    D = dim_index(rel, (k,), model.vocab.n_entities)
    lo, hi = params.raw_bounds((slice(None), D))
    column = np.concatenate([params.entity_base[:, D], params.entity_bump[:, D], lo, hi])
    C = float(np.max(np.abs(column))) + 1.0
    params.entity_bump[j, D] += C
    params.entity_base[np.arange(model.vocab.n_entities) != k, D] -= C
    # every box grows by C at D, but for the exit: the fact's tail upper bound
    is_exit = np.arange(params.n_slots) == params.slot_of[rel][1]
    params.set_raw_bounds((slice(None), D), lo - C, np.where(is_exit, hi, hi + C))


def _counts(ents: tuple, p: int, n_entities: int) -> np.ndarray:
    """How often each entity fills a position of ``ents`` other than p."""
    return np.bincount(np.array(ents[:p] + ents[p + 1:], dtype=np.int64),
                       minlength=n_entities)


def _separator(model: ExactFitModel, padded: tuple,
               p: int) -> tuple[np.ndarray, float] | None:
    """Integer bumps w and an upper bound putting the padded fact F alone
    above the true facts of its relation that share F's entity at p.

    Solves w . (c_F - c_G) >= 1 over those facts G (c the ``_counts`` at p)
    with one LP, scales by n_max and rounds: each difference has L1 norm at
    most 2(n_max - 1), so the rounded integer products stay >= 1, and they
    are re-checked exactly.  None when no w exists: c_F is in the hull of
    the c_G.
    """
    n_e = model.vocab.n_entities
    rel, ents = padded[0], padded[1:]
    c_f = _counts(ents, p, n_e)
    diffs = [c_f - _counts(g[1:], p, n_e)
             for g in map(model.pad, (k for k, true in model.labels.items() if true))
             if g[0] == rel and g[p + 1] == ents[p] and g != padded]
    if not diffs:
        return np.zeros(n_e, dtype=np.int64), -0.5
    diffs = np.array(diffs)
    res = linprog(np.zeros(n_e), A_ub=-diffs, b_ub=-np.ones(len(diffs)),
                  bounds=(None, None), method="highs")
    if res.status != 0:
        return None
    w = np.round(model.n_max * res.x).astype(np.int64)
    gaps = diffs @ w
    if gaps.min() < 1:
        return None
    return w, float(w @ c_f - gaps.min()) + 0.5


def _flip_general(model: ExactFitModel, fact: Fact) -> None:
    """Append one dimension in which only ``fact`` leaves a box (see module
    docstring), trying exit positions 1, ..., n_max - 1, then 0."""
    params = model.params
    key = (fact.relation, *fact.entities)
    padded = model.pad(key)
    rel, ents = padded[0], padded[1:]
    expected = {**model.labels, key: False}
    for p in [*range(1, model.n_max), 0]:
        found = _separator(model, padded, p)
        if found is None:
            continue
        w, exit_bound = found
        far = model.n_max * int(np.abs(w).sum()) + 1
        wide = 2 * far + 1
        base = np.full(model.vocab.n_entities, -far)
        base[ents[p]] = 0
        upper = np.full(params.n_slots, wide, dtype=np.float64)
        upper[params.slot_of[rel][p]] = exit_bound
        # one new column per table, in _TABLES order (any two corners are a box)
        column = base, w, np.full(params.n_slots, -wide), upper
        saved = [getattr(params, name) for name in _TABLES]
        for name, table, extra in zip(_TABLES, saved, column):
            setattr(params, name, np.column_stack((table, extra)))
        if all(_classify_padded(model, model.pad(k)) == want
               for k, want in expected.items()):
            return
        for name, table in zip(_TABLES, saved):
            setattr(params, name, table)
    raise ExactFitError(f"no exit placement found for fact {key}")


def flip_fact(model: ExactFitModel, fact: Fact) -> bool:
    """Make a currently-true fact classify false, changing no other fact.

    Returns True if a flip happened; flipping an already-false fact is a
    no-op returning False.
    """
    if not classify(model, fact):
        return False
    key = (fact.relation, *fact.entities)
    if model.all_binary:
        _flip_binary(model, fact)
    else:
        _flip_general(model, fact)
    model.labels[key] = False
    model.flips += 1
    return True


def fit(table: TruthTable) -> ExactFitModel:
    """Build a model classifying ``table`` exactly (flip each false entry)."""
    n_max = max(table.vocab.relation_arities, default=0)
    if n_max < 2:
        raise ValueError(
            "exact fitting requires at least one relation of arity > 1")
    model = build_all_true(table.vocab)
    for key in sorted(table.truth):
        if not table.truth[key]:
            flip_fact(model, Fact(key[0], key[1:]))
    model.exact = all(classify(model, Fact(key[0], key[1:])) == want
                      for key, want in table.truth.items())
    return model
