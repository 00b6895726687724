"""Logical rules over relations: parsing, closure, capture, and injection.

Supported rule forms (one per line in rule files, ``#`` comments allowed):

    symmetry r          r(x,y) => r(y,x)
    antisymmetry r      r(x,y) => not r(y,x)
    inversion r1 r2     r1(x,y) <=> r2(y,x)
    hierarchy r1 r2     r1(x,y) => r2(x,y)
    intersection r1 r2 r3   r1(x,y) and r2(x,y) => r3(x,y)
    exclusion r1 r2     r1(x,y) and r2(x,y) => false
    composition r1 r2 r3    r1(x,y) and r2(y,z) => r3(x,z)

A rule is *captured* by a parameter configuration when a geometric condition
guarantees the rule holds for every entity assignment: box equality for
symmetry/inversion, containment for hierarchy/intersection, empty
head-tail overlap for antisymmetry, and per-position disjointness for
exclusion.  Composition has no such condition and is check-rejected.

*Injection* makes the sufficient condition hold and keeps it holding:
symmetry/inversion collapse box slots to shared parameters (identity cannot
be broken by any gradient step), while each input hierarchy/intersection
rule becomes one containment constraint per position, re-established after
every optimizer step by growing head boxes minimally (projection).  Only
those four forms are injectable.  The closure needs no constraints of its
own: containment is transitive and monotone under intersection, so once the
input containments hold, every rule of the deductive closure is captured.

The deductive closure treats hierarchy and intersection rules as a
propositional Horn theory over relations (r1 => r2 and r1 and r2 => r3) and
returns every non-tautological hierarchy/intersection rule entailed by it,
computed by forward chaining from each candidate body.  Other forms pass
through untouched.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .geometry import cover, gap, meet, mismatch, overhang, within
from .kb import Vocabulary, iter_tokens
from .model import ModelParams

SYMMETRY = "symmetry"
ANTISYMMETRY = "antisymmetry"
INVERSION = "inversion"
HIERARCHY = "hierarchy"
INTERSECTION = "intersection"
EXCLUSION = "exclusion"
COMPOSITION = "composition"

FORM_ARITY = {SYMMETRY: 1, ANTISYMMETRY: 1, INVERSION: 2, HIERARCHY: 2,
              INTERSECTION: 3, EXCLUSION: 2, COMPOSITION: 3}

# forms whose relation list is unordered (normalized ascending on construction)
_COMMUTATIVE_PREFIX = {INVERSION: 2, EXCLUSION: 2, INTERSECTION: 2}

INJECTABLE_FORMS = frozenset({SYMMETRY, INVERSION, HIERARCHY, INTERSECTION})


class RuleError(ValueError):
    pass


class RuleParseError(RuleError):
    pass


class UnsupportedRuleError(RuleError):
    pass


class InconsistentRulesError(RuleError):
    def __init__(self, report: "ConflictReport", vocab: Vocabulary | None = None):
        super().__init__(report.format(vocab))
        self.report = report


class ProjectionError(RuntimeError):
    """Internal invariant breach: projection exceeded its growth bound."""


@dataclass(frozen=True)
class Rule:
    form: str
    relations: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.form not in FORM_ARITY:
            raise RuleError(f"unknown rule form {self.form!r}")
        rels = tuple(int(r) for r in self.relations)
        want = FORM_ARITY[self.form]
        if len(rels) != want:
            raise RuleError(
                f"{self.form} takes {want} relation(s), got {len(rels)}")
        k = _COMMUTATIVE_PREFIX.get(self.form)
        if k is not None:
            rels = tuple(sorted(rels[:k])) + rels[k:]
        object.__setattr__(self, "relations", rels)
        if self.form in (INVERSION, HIERARCHY, EXCLUSION) and rels[0] == rels[1]:
            raise RuleError(f"{self.form} requires two distinct relations")
        if self.form == INTERSECTION and (
                rels[0] == rels[1] or rels[2] in rels[:2]):
            raise RuleError("intersection requires three distinct relations")

    def format(self, vocab: Vocabulary | None = None) -> str:
        if vocab is None:
            names = [str(r) for r in self.relations]
        else:
            names = [vocab.relation_names[r] for r in self.relations]
        return " ".join([self.form, *names])

    def __str__(self) -> str:
        return self.format()


def parse_rules(path, vocab: Vocabulary, create_binary: bool = False
                ) -> list[Rule]:
    """One rule per line; relations given by name.  Errors carry line numbers.
    With ``create_binary``, a name ``vocab`` lacks is added to it as a binary
    relation, as the standalone rule tools have no dataset to name them."""
    rules = []
    arity = 2 if create_binary else None
    for lineno, (form, *names) in iter_tokens(path):
        try:
            rel_ids = tuple(vocab.relation_id(n, arity, create_binary)
                            for n in names)
            rule = Rule(form, rel_ids)
        except (KeyError, RuleError) as exc:  # str() of a KeyError quotes it
            raise RuleParseError(f"{path}:{lineno}: {exc.args[0]}") from exc
        arities = {vocab.arity(r) for r in rule.relations}
        if len(arities) > 1:
            raise RuleParseError(
                f"{path}:{lineno}: relations of mixed arity in one rule")
        if arities != {2} and form not in (HIERARCHY, INTERSECTION, EXCLUSION):
            raise RuleParseError(
                f"{path}:{lineno}: {form} is only defined for binary relations")
        rules.append(rule)
    return rules


def _horn_theory(rules: Iterable[Rule]) -> list[tuple[frozenset[int], int]]:
    """Hierarchy/intersection rules as (body relation set, head relation)."""
    clauses = []
    for r in rules:
        if r.form == HIERARCHY:
            clauses.append((frozenset([r.relations[0]]), r.relations[1]))
        elif r.form == INTERSECTION:
            clauses.append((frozenset(r.relations[:2]), r.relations[2]))
    return clauses


def _forward_chain(seeds: Iterable[int], clauses: list[tuple[frozenset[int], int]]
                   ) -> dict[int, tuple[frozenset[int], int] | None]:
    """Unit propagation: every relation that follows from ``seeds``, mapped to
    the clause that first derived it (None for a seed)."""
    derived: dict = dict.fromkeys(seeds)
    known = set(derived)
    changed = True
    while changed:
        changed = False
        for body, head in clauses:
            if head not in known and body <= known:
                known.add(head)
                derived[head] = (body, head)
                changed = True
    return derived


def deductive_closure(rules: list[Rule],
                      universe: Iterable[int] | None = None) -> list[Rule]:
    """All hierarchy/intersection rules semantically entailed by the input.

    A candidate h(a,b) is entailed iff b follows from {a} by forward
    chaining; i(a,b,c) iff c follows from {a,b}.  Tautologies (head inside
    the body) are excluded.  Rules of other forms pass through unchanged.

    ``universe`` is the relation vocabulary candidates are drawn from; the
    default is the relations mentioned in the input, which yields the full
    entailment set restricted to rules over mentioned relations.  (A wider
    universe adds entailed rules that involve unconstrained relations, e.g.
    h(a,c) entails i(a,b,c) for every other relation b.)
    """
    clauses = _horn_theory(rules)
    passthrough = sorted({r for r in rules
                          if r.form not in (HIERARCHY, INTERSECTION)},
                         key=lambda r: (r.form, r.relations))
    if universe is None:
        universe = {rel for body, head in clauses for rel in body | {head}}
    universe = sorted(universe)
    out: set[Rule] = set()
    for a in universe:
        for b in _forward_chain([a], clauses):
            if b != a:
                out.add(Rule(HIERARCHY, (a, b)))
    for i, a in enumerate(universe):
        for b in universe[i + 1:]:
            for c in _forward_chain([a, b], clauses):
                if c != a and c != b:
                    out.add(Rule(INTERSECTION, (a, b, c)))
    derived = sorted(out, key=lambda r: (r.form, r.relations))
    return passthrough + derived


def _sharing_edges(rules: Iterable[Rule]) -> list[tuple[tuple[int, int], tuple[int, int], Rule]]:
    """Box-slot identifications implied by symmetry/inversion rules."""
    edges = []
    for r in rules:
        if r.form == SYMMETRY:
            rel = r.relations[0]
            edges.append(((rel, 0), (rel, 1), r))
        elif r.form == INVERSION:
            r1, r2 = r.relations
            edges.append(((r1, 0), (r2, 1), r))
            edges.append(((r1, 1), (r2, 0), r))
    return edges


@dataclass
class ConflictReport:
    kind: str
    message: str
    chain: list[Rule] = field(default_factory=list)

    def format(self, vocab: Vocabulary | None = None) -> str:
        """One line, as the CLI reports it; ``vocab`` names the chain's
        relations, as in ``Rule.format``."""
        via = "".join(f"; via {r.format(vocab)}" for r in self.chain)
        return f"inconsistent rules ({self.kind}): {self.message}{via}"

    def __str__(self) -> str:
        return self.format()


def _merge_path(adj: dict, start, goal) -> list[Rule]:
    """Rules along one shortest path from ``start`` to ``goal`` (distinct box
    positions) in the sharing graph ``adj``; empty iff they are not tied."""
    prev = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            break
        for nxt, rule in adj.get(node, []):
            if nxt not in prev:
                prev[nxt] = (node, rule)
                queue.append(nxt)
    if goal not in prev:
        return []
    chain = []
    node = goal
    while prev[node] is not None:
        node, rule = prev[node]
        if not chain or chain[-1] is not rule:
            chain.append(rule)
    return list(reversed(chain))


def _derivation_chain(target: int, derived: dict) -> list[Rule]:
    """The rules deriving ``target`` in ``derived``, a ``_forward_chain``
    result, premises first."""
    chain: list[Rule] = []
    seen = set()

    def emit(rel: int) -> None:
        clause = derived.get(rel)
        if clause is None or rel in seen:
            return
        seen.add(rel)
        body, head = clause
        for b in body:
            emit(b)
        body_t = tuple(sorted(body))
        rule = Rule(HIERARCHY, (body_t[0], head)) if len(body_t) == 1 \
            else Rule(INTERSECTION, (*body_t, head))
        chain.append(rule)

    emit(target)
    return chain


def check_consistency(rules: list[Rule],
                      vocab: Vocabulary | None = None) -> ConflictReport | None:
    """First conflict making the rule set jointly uncapturable, else None.

    Detects: (a) a relation that is antisymmetric yet forced symmetric by
    the symmetry/inversion sharing graph; (b) an exclusion pair jointly
    implied by some single relation through hierarchy/intersection chains;
    (c) an exclusion pair whose boxes are forced identical by sharing.
    Messages use relation names when a vocabulary is supplied.

    The sharing graph is built once, and a path in it both decides and
    explains a tie.  With an exclusion rule present, forward chaining runs
    once per seed of the Horn theory; each exclusion reads every seed's
    derivations, and the same map explains a conflict.
    """
    def name(rel: int) -> str:
        if vocab is not None:
            return vocab.relation_names[rel]
        return f"relation#{rel}"

    adj: dict = {}
    for a, b, rule in _sharing_edges(rules):
        adj.setdefault(a, []).append((b, rule))
        adj.setdefault(b, []).append((a, rule))

    for r in sorted((r for r in rules if r.form == ANTISYMMETRY),
                    key=lambda r: r.relations):
        rel = r.relations[0]
        chain = _merge_path(adj, (rel, 0), (rel, 1))
        if chain:
            return ConflictReport(
                "symmetry-vs-antisymmetry",
                f"{name(rel)} is antisymmetric but its head and tail "
                f"boxes are forced equal",
                chain=chain + [r])

    exclusions = sorted((r for r in rules if r.form == EXCLUSION),
                        key=lambda r: r.relations)
    clauses = _horn_theory(rules) if exclusions else []
    universe = sorted({rel for body, head in clauses for rel in body | {head}})
    reach = [(seed, _forward_chain([seed], clauses)) for seed in universe]
    for r in exclusions:
        e1, e2 = r.relations
        for seed, derived in reach:
            if e1 in derived and e2 in derived:
                return ConflictReport(
                    "implied-overlap",
                    f"any fact of {name(seed)} would satisfy both "
                    f"excluded relations {name(e1)} and {name(e2)}",
                    chain=(_derivation_chain(e1, derived)
                           + _derivation_chain(e2, derived) + [r]))
        # sharing is flip-compatible, so one matched position means both
        chain = _merge_path(adj, (e1, 0), (e2, 0)) or _merge_path(adj, (e1, 1), (e2, 1))
        if chain:
            return ConflictReport(
                "sharing-vs-exclusion",
                f"excluded relations {name(e1)} and {name(e2)} share box "
                f"parameters at every position",
                chain=chain + [r])
    return None


class CaptureResult(NamedTuple):
    captured: bool
    witness: dict | None


def _first_excess(lower: np.ndarray, upper: np.ndarray, tol: float) -> dict | None:
    """Witness of the first side whose largest excess is over ``tol``, or None."""
    for side, excess in (("lower", lower), ("upper", upper)):
        j = int(np.argmax(excess))
        if excess[j] > tol:
            return {"dimension": j, "side": side, "delta": float(excess[j])}
    return None


def _disjoint_dim(gap: np.ndarray, tol: float) -> int | None:
    # tol = 0 demands a strict gap (a degenerate shared face still overlaps);
    # tol > 0 additionally accepts overlaps of depth at most tol
    j = int(np.argmax(gap))
    threshold = -tol if tol > 0 else 0.0
    return j if gap[j] > threshold else None


def check_tolerance(tolerance: float) -> None:
    """RuleError unless ``tolerance`` is a finite number >= 0: a nan would
    pass every excess test, a negative one fail exact containment."""
    if not 0 <= tolerance < np.inf:
        raise RuleError(f"tolerance is {tolerance!r}, not a finite number >= 0")


def check_capture(params: ModelParams, rule: Rule, tolerance: float = 0.0
                  ) -> CaptureResult:
    """Does the geometric sufficient condition for ``rule`` hold in ``params``?

    Positions and dimensions in witnesses are 0-based.  For exclusion the
    witness reports the position/dimension establishing disjointness on
    success; for all other forms the witness describes the first violation
    on failure.  ``tolerance`` must pass ``check_tolerance``.
    """
    check_tolerance(tolerance)
    form, rels = rule.form, rule.relations
    if form == COMPOSITION:
        raise UnsupportedRuleError(
            "composition has no geometric capture condition")
    arity = params.vocab.arity(rels[0])

    def box(rel: int, p: int) -> tuple[np.ndarray, np.ndarray]:
        return params.effective_bounds(int(params.slot_of[rel][p]))

    if form == SYMMETRY:
        w = _first_excess(*mismatch(box(rels[0], 0), box(rels[0], 1)), tolerance)
        return CaptureResult(w is None, w)
    if form == ANTISYMMETRY:
        j = _disjoint_dim(gap(box(rels[0], 0), box(rels[0], 1)), tolerance)
        if j is None:
            return CaptureResult(False, {"reason": "head and tail boxes overlap"})
        return CaptureResult(True, {"dimension": j})
    if form == EXCLUSION:
        for p in range(arity):
            j = _disjoint_dim(gap(box(rels[0], p), box(rels[1], p)), tolerance)
            if j is not None:
                return CaptureResult(True, {"position": p, "dimension": j})
        return CaptureResult(False, {"reason": "no position with disjoint boxes"})
    for p in range(2 if form == INVERSION else arity):
        if form == INVERSION:
            excess = mismatch(box(rels[0], p), box(rels[1], 1 - p))
        elif form == HIERARCHY:
            excess = overhang(box(rels[1], p), box(rels[0], p))
        else:  # intersection: the head box must hold the body boxes' overlap
            region, empty = meet(*zip(box(rels[0], p), box(rels[1], p)))
            if empty:
                continue  # empty body region, vacuously satisfied
            excess = overhang(box(rels[2], p), region)
        w = _first_excess(*excess, tolerance)
        if w is not None:
            w["position"] = p
            return CaptureResult(False, w)
    return CaptureResult(True, None)


@dataclass
class InjectionPlan:
    sharing: dict[int, int]                      # model slot -> canonical slot
    containments: list[tuple[np.ndarray, int]]   # body model slots, head slot
    initial_growth: int = 0


def inject(rules: list[Rule], params: ModelParams) -> InjectionPlan:
    """Constrain ``params`` so every rule provably holds now and forever.

    Symmetry and inversion become shared box slots; each input hierarchy
    and intersection rule becomes one containment constraint per position,
    enforced by an initial projection and re-enforced by apply_projection
    after every optimizer step.  Only the input rules are enforced: their
    containments imply those of every deductive-closure rule by
    transitivity, and the least enlargement satisfying either set is the
    same.  Raises for inconsistent sets and for forms outside
    {symmetry, inversion, hierarchy, intersection}.
    """
    report = check_consistency(rules, params.vocab)
    if report is not None:
        raise InconsistentRulesError(report, params.vocab)
    bad = sorted({r.form for r in rules if r.form not in INJECTABLE_FORMS})
    if bad:
        raise UnsupportedRuleError(
            f"rule forms not supported for injection: {', '.join(bad)} "
            f"(capture checking is still available)")
    arities = {params.vocab.arity(rel) for r in rules for rel in r.relations}
    n_positions = max(arities, default=2)
    if len(arities) > 1:
        raise RuleError("rules mix relations of different arities")
    pairs = [(int(params.slot_of[a[0]][a[1]]), int(params.slot_of[b[0]][b[1]]))
             for a, b, _ in _sharing_edges(rules)]
    sharing = params.merge_slots(pairs)
    # (sorted body slots, head slot) keys, each once, in first-seen order
    keys = dict.fromkeys(
        (tuple(sorted(int(params.slot_of[r][p]) for r in body)), int(params.slot_of[head][p]))
        for body, head in _horn_theory(rules) for p in range(n_positions))
    # a head slot shared with its body makes the constraint trivially true
    containments = [(np.array(body, dtype=np.int64), head)
                    for body, head in keys if head not in body]
    plan = InjectionPlan(sharing, containments)
    plan.initial_growth = apply_projection(params, plan)
    return plan


def apply_projection(params: ModelParams, plan: InjectionPlan) -> int:
    """Grow head boxes minimally until every containment constraint holds.

    Works in raw corner space (tanh is monotone, so raw containment and
    effective containment coincide).  Computes the least fixpoint of all
    constraints first, then writes each changed bound once, so the returned
    number of bound moves never exceeds 2 * d * n_slots.  Constraints whose
    body intersection is empty are vacuously satisfied and skipped.
    """
    if not plan.containments:
        return 0
    lo, hi = params.raw_bounds(slice(None))
    orig_lo, orig_hi = lo.copy(), hi.copy()
    sweep_limit = 4 * params.d * params.n_slots ** 2 + 2
    sweeps = 0
    while True:
        changed = False
        for body, head in plan.containments:
            region, empty = meet(lo[body], hi[body])
            if not (empty or within(overhang((lo[head], hi[head]), region))):
                lo[head], hi[head] = cover((lo[head], hi[head]), region)
                changed = True
        sweeps += 1
        if not changed:
            break
        if sweeps > sweep_limit:
            raise ProjectionError(
                "projection failed to reach a fixpoint within its growth bound")
    # a bound moved where the projected box sticks out of the original one
    moved_bounds = np.greater(overhang((orig_lo, orig_hi), (lo, hi)), 0)
    moves = int(moved_bounds.sum())
    moved = np.flatnonzero(moved_bounds.any(axis=(0, 2)))
    params.set_raw_bounds(moved, lo[moved], hi[moved])
    return moves


def box_stats(params: ModelParams) -> dict:
    """Per relation/position box-shape report.

    Geometric mean side length uses effective (post-bounding) bounds and is
    exactly 0 when any side is degenerate.  Pairwise containment/overlap is
    reported per matching position for same-arity relation pairs: each
    relation's boxes are compared with those of every later relation of its
    arity in one array step.
    """
    vocab = params.vocab
    bounds = [params.effective_bounds(slots) for slots in params.slot_of]
    relations = []
    for rel, (lo, hi) in enumerate(bounds):
        positions = []
        for p in range(vocab.arity(rel)):
            sides = hi[p] - lo[p]
            gmean = 0.0 if (sides == 0).any() else float(np.exp(np.mean(np.log(sides))))
            positions.append({"position": p, "gmean_side": gmean})
        entry = {"relation": vocab.relation_names[rel], "positions": positions}
        if vocab.arity(rel) == 2:
            entry["symmetry_shaped"] = bool(within(mismatch((lo[0], hi[0]), (lo[1], hi[1]))))
        relations.append(entry)
    pairs = []
    for r1, a in enumerate(bounds):
        later = [r2 for r2 in range(r1 + 1, vocab.n_relations)
                 if vocab.arity(r2) == vocab.arity(r1)]
        if not later:
            continue
        b = tuple(np.stack(side) for side in zip(*(bounds[r2] for r2 in later)))
        kinds = np.select([within(mismatch(a, b)), within(overhang(a, b)),
                           within(overhang(b, a)), (gap(a, b) > 0).any(axis=-1)],
                          ["equal", "contains", "inside", "disjoint"], "overlap")
        for r2, row in zip(later, kinds.tolist()):
            for p, relation in enumerate(row):
                pairs.append({"a": vocab.relation_names[r1],
                              "b": vocab.relation_names[r2],
                              "position": p, "relation": relation})
    return {"relations": relations, "pairs": pairs}
