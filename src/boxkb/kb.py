"""Vocabulary, facts, and knowledge-base containers.

Entities and relations are interned to dense integer ids in first-appearance
order (train split first, then valid, then test) so that runs over the same
files always agree on the id layout.  Facts are immutable tuples, and a
knowledge base's known facts are the frozen union of its three splits,
which it forms itself.

"Is this entity row a known fact?" is answered here and only here:
``fact_index`` turns a set of facts into per-relation sorted row keys, and
``known_rows`` tests a whole array of candidate rows against it at once.
Training filters negatives through a knowledge base's ``train_index``, and
ranking evaluation drops known candidates through its ``known_index``; each
is a ``fact_index`` the knowledge base builds on first use and keeps.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

FORMAT_TRIPLE = "tsv-triple"
FORMAT_NARY = "tsv-nary"
FORMATS = (FORMAT_TRIPLE, FORMAT_NARY)

SPLITS = ("train", "valid", "test")


class KBFormatError(ValueError):
    """Raised for malformed input files or inconsistent fact data."""


class Fact(NamedTuple):
    relation: int
    entities: tuple[int, ...]

    @property
    def arity(self) -> int:
        return len(self.entities)


def _name_ids(names: list[str], what: str) -> dict[str, int]:
    """Each name's position in ``names``; KBFormatError for a repeated name."""
    ids: dict[str, int] = {}
    for i, name in enumerate(names):
        if ids.setdefault(name, i) != i:
            raise KBFormatError(f"repeated {what} name {name!r}")
    return ids


@dataclass
class Vocabulary:
    """Entity and relation names interned to dense ids in list order.  The
    id maps are built from the name lists on construction; ``entity_id`` and
    ``relation_id`` with ``create`` append a new name."""
    entity_names: list[str] = field(default_factory=list)
    relation_names: list[str] = field(default_factory=list)
    relation_arities: list[int] = field(default_factory=list)
    _entity_ids: dict[str, int] = field(init=False, compare=False, repr=False)
    _relation_ids: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.relation_arities) != len(self.relation_names):
            raise KBFormatError(f"{len(self.relation_names)} relation names but "
                                f"{len(self.relation_arities)} arities")
        self._entity_ids = _name_ids(self.entity_names, "entity")
        self._relation_ids = _name_ids(self.relation_names, "relation")

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    @property
    def n_relations(self) -> int:
        return len(self.relation_names)

    def arity(self, relation: int) -> int:
        return self.relation_arities[relation]

    def entity_id(self, name: str, create: bool = False) -> int:
        eid = self._entity_ids.get(name)
        if eid is None:
            if not create:
                raise KeyError(f"unknown entity {name!r}")
            eid = len(self.entity_names)
            self.entity_names.append(name)
            self._entity_ids[name] = eid
        return eid

    def relation_id(self, name: str, arity: int | None = None, create: bool = False) -> int:
        rid = self._relation_ids.get(name)
        if rid is None:
            if not create:
                raise KeyError(f"unknown relation {name!r}")
            if arity is None:
                raise ValueError("arity required when creating a relation")
            rid = len(self.relation_names)
            self.relation_names.append(name)
            self.relation_arities.append(arity)
            self._relation_ids[name] = rid
        elif arity is not None and self.relation_arities[rid] != arity:
            raise KBFormatError(
                f"relation {name!r} used with arity {arity}, "
                f"previously seen with arity {self.relation_arities[rid]}"
            )
        return rid

    def copy(self) -> "Vocabulary":
        return Vocabulary(list(self.entity_names), list(self.relation_names),
                          list(self.relation_arities))


@dataclass(frozen=True)
class KnowledgeBase:
    """Three splits of facts over one vocabulary.  ``known``, the facts that
    filtered ranking drops, is left out on construction, which forms it as
    the union of the three splits.  ``dataclasses.replace`` passes it on, so
    a copy that keeps one slice of a split (the benchmark ranks one test
    fact, and trains on one slice, at a time) still knows every fact."""
    vocab: Vocabulary
    train: tuple[Fact, ...]
    valid: tuple[Fact, ...]
    test: tuple[Fact, ...]
    # Relations with id >= n_scored_relations are auxiliary (added by inverse
    # augmentation) and are skipped by ranking evaluation.
    n_scored_relations: int
    known: frozenset[Fact] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.known is None:
            object.__setattr__(self, "known", frozenset(self.train + self.valid + self.test))

    @cached_property
    def known_index(self) -> dict[int, np.ndarray]:
        return fact_index(self.known)

    @cached_property
    def train_index(self) -> dict[int, np.ndarray]:
        return fact_index(self.train)

    def split(self, name: str) -> tuple[Fact, ...]:
        if name not in SPLITS:
            raise KeyError(f"unknown split {name!r}")
        return getattr(self, name)


def _parse_fact_line(line: str, fmt: str, lineno: int, path: str) -> tuple[str, list[str]]:
    cols = line.split("\t")
    for k, col in enumerate(cols, 1):
        if not col.strip():  # empty or only whitespace
            raise KBFormatError(f"{path}:{lineno}: empty column {k}")
    if fmt == FORMAT_TRIPLE:
        if len(cols) != 3:
            raise KBFormatError(f"{path}:{lineno}: expected 3 tab-separated columns, got {len(cols)}")
        head, rel, tail = cols
        return rel, [head, tail]
    if len(cols) < 2:
        raise KBFormatError(f"{path}:{lineno}: expected relation plus at least one entity")
    return cols[0], cols[1:]


def _iter_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield lineno, line


def iter_tokens(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """The whitespace tokens of each line of a rule or table file, numbered
    from 1; ``#`` starts a comment, and lines left empty are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split("#", 1)[0].split()
            if tokens:
                yield lineno, tokens


def _load_split(path: str | Path | None, fmt: str, vocab: Vocabulary, seen: set[Fact],
                split_name: str) -> tuple[Fact, ...]:
    if path is None:
        return ()
    facts: list[Fact] = []
    for lineno, line in _iter_lines(path):
        rel_name, ent_names = _parse_fact_line(line, fmt, lineno, str(path))
        try:
            rid = vocab.relation_id(rel_name, arity=len(ent_names), create=True)
        except KBFormatError as exc:
            raise KBFormatError(f"{path}:{lineno}: {exc}") from exc
        fact = Fact(rid, tuple(vocab.entity_id(n, create=True) for n in ent_names))
        if fact in seen:
            raise KBFormatError(f"{path}:{lineno}: duplicate fact in {split_name} split")
        seen.add(fact)
        facts.append(fact)
    return tuple(facts)


def parse_kb(train_path: str | Path, valid_path: str | Path | None = None,
             test_path: str | Path | None = None, fmt: str = FORMAT_TRIPLE) -> KnowledgeBase:
    """Parse up to three split files into a knowledge base.

    Duplicates within a split are an error; a fact may legitimately appear in
    more than one split only if the files say so -- we treat cross-split
    duplicates as errors too, since they silently leak evaluation data.
    """
    if fmt not in FORMATS:
        raise KBFormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    vocab = Vocabulary()
    seen: set[Fact] = set()
    train = _load_split(train_path, fmt, vocab, seen, "train")
    valid = _load_split(valid_path, fmt, vocab, seen, "valid")
    test = _load_split(test_path, fmt, vocab, seen, "test")
    return KnowledgeBase(vocab, train, valid, test, vocab.n_relations)


def write_split(kb: KnowledgeBase, split: str, path: str | Path, fmt: str = FORMAT_TRIPLE) -> None:
    """Serialize one split back to disk in the given format."""
    if fmt not in FORMATS:
        raise KBFormatError(f"unknown format {fmt!r}")
    vocab = kb.vocab
    with open(path, "w", encoding="utf-8") as fh:
        for fact in kb.split(split):
            rel = vocab.relation_names[fact.relation]
            ents = [vocab.entity_names[e] for e in fact.entities]
            if fmt == FORMAT_TRIPLE:
                if len(ents) != 2:
                    raise KBFormatError("tsv-triple can only serialize binary facts")
                fh.write(f"{ents[0]}\t{rel}\t{ents[1]}\n")
            else:
                fh.write("\t".join([rel] + ents) + "\n")


def group_by_relation(facts: Iterable[Fact]) -> dict[int, np.ndarray]:
    """Per relation, in relation order, the (k, arity) int64 rows of its facts."""
    groups: dict[int, list[tuple]] = {}
    for f in facts:
        groups.setdefault(f.relation, []).append(f.entities)
    return {r: np.array(rows, dtype=np.int64) for r, rows in sorted(groups.items())}


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """(k, n) entity rows -> (k,) opaque keys, equal exactly when rows are."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel()


def fact_index(facts: Iterable[Fact]) -> dict[int, np.ndarray]:
    """Per relation, the sorted unique keys of its facts' entity rows."""
    return {rel: np.unique(_row_keys(rows))
            for rel, rows in group_by_relation(facts).items()}


def known_rows(index: dict[int, np.ndarray], relation: int,
               rows: np.ndarray) -> np.ndarray:
    """(k, n) entity rows -> (k,) mask of the rows that are facts of
    ``relation`` in ``index``, a ``fact_index``; all False for a relation
    the index does not hold."""
    known = index.get(relation)
    if known is None:
        return np.zeros(len(rows), dtype=bool)
    keys = _row_keys(rows)
    at = np.minimum(np.searchsorted(known, keys), known.size - 1)
    return known[at] == keys


def corrupt(fact: Fact, position: int, replacement: int) -> Fact:
    """Return a copy of the fact with one argument slot replaced."""
    if not 0 <= position < len(fact.entities):
        raise IndexError(f"position {position} out of range for arity {len(fact.entities)}")
    ents = list(fact.entities)
    ents[position] = replacement
    return Fact(fact.relation, tuple(ents))


INVERSE_SUFFIX = "_inv"


def augment_inverses(kb: KnowledgeBase) -> KnowledgeBase:
    """Pair every binary fact r(a, b) with a fact of a fresh inverse relation.

    The inverse of relation id r is id r + R where R is the original relation
    count.  Each split gains its own facts' inverses, so the known facts
    hold them too; ranking skips the helper relations (``n_scored_relations``
    is R), and a query of r is filtered only by facts of r, so the helper
    facts change no rank.
    """
    vocab = kb.vocab
    r_orig = vocab.n_relations
    if any(a != 2 for a in vocab.relation_arities[:r_orig]):
        raise KBFormatError("inverse augmentation requires all relations binary")
    inv_names = [name + INVERSE_SUFFIX for name in vocab.relation_names]
    for inv_name in inv_names:
        if inv_name in vocab._relation_ids:
            raise KBFormatError(f"inverse relation name collision: {inv_name!r}")
    new_vocab = Vocabulary(list(vocab.entity_names), vocab.relation_names + inv_names,
                           vocab.relation_arities + [2] * r_orig)

    def augmented(facts: tuple[Fact, ...]) -> tuple[Fact, ...]:
        out: list[Fact] = []
        for f in facts:
            out.append(f)
            out.append(Fact(f.relation + r_orig, (f.entities[1], f.entities[0])))
        return tuple(out)

    return KnowledgeBase(new_vocab, augmented(kb.train), augmented(kb.valid),
                         augmented(kb.test), r_orig)
