"""Benchmark workloads: seeded input generators and fixed hyperparameters.

Why each workload exists is recorded in BENCHMARK.json and record.json.

Each workload writes its splits as TSV files (and, for rules-hierarchy, a
rule file) into a work directory; the benchmark then parses them back with
``boxkb.kb.parse_kb`` so that set-up time covers the user-visible path.
The same seed always writes the same bytes.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str                 # boxkb.kb format name
    d: int
    batch_size: int
    negatives: int
    learning_rate: float
    filter_train_negatives: bool
    gate_epochs: int         # fixed epochs whose result the gates check
    train_slice: int         # facts per timed train_epoch() call; 0 = all
    reference_sample: int    # query facts checked against the reference ranker


WORKLOADS = {
    w.name: w for w in (
        Workload("kg-binary", "tsv-triple", d=100, batch_size=512, negatives=10,
                 learning_rate=0.05, filter_train_negatives=False,
                 gate_epochs=1, train_slice=1024, reference_sample=40),
        Workload("nary4", "tsv-nary", d=100, batch_size=512, negatives=10,
                 learning_rate=0.05, filter_train_negatives=False,
                 gate_epochs=1, train_slice=1024, reference_sample=20),
        Workload("rules-hierarchy", "tsv-triple", d=50, batch_size=256, negatives=10,
                 learning_rate=0.05, filter_train_negatives=True,
                 gate_epochs=40, train_slice=0, reference_sample=32),
    )
}

# Query splits of 80 rankings each: one evaluate() over the whole split takes
# about a second at the seed, so that a run holds ten or more such calls.
KG_BINARY = dict(n_entities=2000, n_relations=20, n_train=20000, n_query=40)
NARY4 = dict(n_entities=1000, n_relations=10, n_train=10000, n_query=20, arity=4)

# The workloads whose query split is random held-out facts.  Training tells
# the model nothing about them, so each filtered rank is uniform over the
# candidates and filtered MRR is a chance figure; calibrate.py bounds it
# from these sizes rather than from a few seeds.
RANDOM_KBS = {"kg-binary": (101, "tsv-triple", KG_BINARY),
              "nary4": (104, "tsv-nary", NARY4)}


@dataclass(frozen=True)
class Files:
    train: Path
    valid: Path | None
    test: Path
    rules: Path | None = None


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % (1 << 64), salt]))


def _distinct_rows(rng: np.random.Generator, n_rows: int, n_relations: int,
                   n_entities: int, arity: int) -> np.ndarray:
    """n_rows distinct (relation, e_1..e_arity) rows; entities in a row distinct."""
    chosen: dict[tuple, None] = {}
    while len(chosen) < n_rows:
        k = 2 * (n_rows - len(chosen))
        rows = np.column_stack([rng.integers(0, n_relations, k),
                                rng.integers(0, n_entities, (k, arity))])
        ents = np.sort(rows[:, 1:], axis=1)
        ok = (ents[:, 1:] != ents[:, :-1]).all(axis=1)
        for row in rows[ok]:
            chosen.setdefault(tuple(int(x) for x in row), None)
            if len(chosen) == n_rows:
                break
    return np.array(list(chosen), dtype=np.int64)


def _write_rows(path: Path, rows: np.ndarray, fmt: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rel, *ents in rows.tolist():
            if fmt == "tsv-triple":
                fh.write(f"e{ents[0]}\tr{rel}\te{ents[1]}\n")
            else:
                fh.write("\t".join([f"r{rel}"] + [f"e{e}" for e in ents]) + "\n")


def _random_kb(workdir: Path, seed: int, salt: int, fmt: str, n_entities: int,
               n_relations: int, n_train: int, n_query: int, arity: int = 2) -> Files:
    rows = _distinct_rows(_rng(seed, salt), n_train + n_query, n_relations,
                          n_entities, arity)
    files = Files(workdir / "train.tsv", None, workdir / "test.tsv")
    _write_rows(files.train, rows[:n_train], fmt)
    _write_rows(files.test, rows[n_train:], fmt)
    return files


def rules_hierarchy(workdir: Path, seed: int, **sizes) -> Files:
    """Hierarchy ontology KB plus its rule file; ``sizes`` go to the generator."""
    from boxkb.kb import write_split
    from boxkb.synth import hierarchy_ontology_kb

    kb, rules = hierarchy_ontology_kb(seed=seed, **sizes)
    files = Files(workdir / "train.tsv", workdir / "valid.tsv",
                  workdir / "test.tsv", workdir / "rules.txt")
    for split in ("train", "valid", "test"):
        write_split(kb, split, getattr(files, split))
    files.rules.write_text("".join(r.format(kb.vocab) + "\n" for r in rules),
                           encoding="utf-8")
    return files


def write_inputs(name: str, workdir: Path, seed: int) -> Files:
    """Write the named workload's input files for ``seed`` into ``workdir``."""
    if name in RANDOM_KBS:
        salt, fmt, sizes = RANDOM_KBS[name]
        return _random_kb(workdir, seed, salt, fmt, **sizes)
    if name == "rules-hierarchy":
        return rules_hierarchy(workdir, seed)
    raise KeyError(f"unknown workload {name!r}")
