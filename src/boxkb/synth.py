"""Synthetic knowledge bases for experiments and capability tests.

Two generators: a flat random binary KB (memorization benchmark) and a
three-level relation hierarchy whose implied facts are held out entirely,
so only a model that generalizes through the hierarchy can rank them well.
"""
from __future__ import annotations

import numpy as np

from .kb import Fact, KnowledgeBase, Vocabulary
from .rules import HIERARCHY, Rule, deductive_closure

# Three-level ontology over eight binary relations: leaves r0..r3, mid-level
# r4 (over r0, r1) and r5 (over r2, r3), tops r6 (over r4, r5) and r7 (over r4).
HIERARCHY_EDGES = ((0, 4), (1, 4), (2, 5), (3, 5), (4, 6), (5, 6), (4, 7))
N_HIERARCHY_RELATIONS = 8
LEAF_RELATIONS = (0, 1, 2, 3)


def _make_vocab(n_entities: int, n_relations: int) -> Vocabulary:
    return Vocabulary([f"e{i}" for i in range(n_entities)],
                      [f"r{r}" for r in range(n_relations)], [2] * n_relations)


def random_binary_kb(n_entities: int = 20, n_relations: int = 3,
                     n_facts: int = 100, seed: int = 0) -> KnowledgeBase:
    """n_facts distinct random binary facts, all in the training split."""
    rng = np.random.default_rng(np.random.SeedSequence([seed % (1 << 64), 7]))
    vocab = _make_vocab(n_entities, n_relations)
    facts: set[Fact] = set()
    while len(facts) < n_facts:
        rel = int(rng.integers(0, n_relations))
        a = int(rng.integers(0, n_entities))
        b = int(rng.integers(0, n_entities))
        facts.add(Fact(rel, (a, b)))
    train = tuple(sorted(facts))
    return KnowledgeBase(vocab=vocab, train=train, valid=(), test=(),
                         n_scored_relations=n_relations)


def hierarchy_rules() -> list[Rule]:
    return [Rule(HIERARCHY, edge) for edge in HIERARCHY_EDGES]


def hierarchy_ontology_kb(n_entities: int = 300,
                          leaf_facts: int = 120,
                          ancestor_facts: int = 25,
                          seed: int = 0,
                          train_fraction: float = 0.9
                          ) -> tuple[KnowledgeBase, list[Rule]]:
    """Base facts split train/valid; hierarchy-implied facts as test split.

    Every relation receives random base facts; the deductive closure of the
    hierarchy implies ancestor copies of each base fact.  Implied facts that
    are not themselves base facts form the test split, so they are only
    reachable through the hierarchy structure.  Ancestor relations get fewer
    direct assertions than leaves, as in a real ontology where general
    relations are mostly populated by inference.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed % (1 << 64), 11]))
    vocab = _make_vocab(n_entities, N_HIERARCHY_RELATIONS)
    anc: dict[int, set[int]] = {r: set() for r in range(N_HIERARCHY_RELATIONS)}
    for rule in deductive_closure(hierarchy_rules()):
        if rule.form == HIERARCHY:
            anc[rule.relations[0]].add(rule.relations[1])
    base: set[Fact] = set()
    for rel in range(N_HIERARCHY_RELATIONS):
        quota = leaf_facts if rel in LEAF_RELATIONS else ancestor_facts
        added = 0
        while added < quota:
            a = int(rng.integers(0, n_entities))
            b = int(rng.integers(0, n_entities))
            if a == b:
                continue
            fact = Fact(rel, (a, b))
            if fact not in base:
                base.add(fact)
                added += 1
    implied = {Fact(up, f.entities) for f in base for up in anc[f.relation]}
    closure_only = sorted(implied - base)
    base_order = sorted(base)
    perm = rng.permutation(len(base_order))
    n_train = int(round(train_fraction * len(base_order)))
    train = tuple(base_order[i] for i in perm[:n_train])
    valid = tuple(base_order[i] for i in perm[n_train:])
    test = tuple(closure_only)
    kb = KnowledgeBase(vocab=vocab, train=train, valid=valid, test=test,
                       n_scored_relations=N_HIERARCHY_RELATIONS)
    return kb, hierarchy_rules()
