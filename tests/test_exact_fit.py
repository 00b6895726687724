"""Constructive exact fitting of arbitrary truth tables."""
import itertools

import numpy as np
import pytest

from boxkb.geometry import contains
from boxkb.kb import Fact, Vocabulary
from boxkb.exact_fit import (ExactFitError, TableFormatError, TruthTable,
                             build_all_true, classify, dim_index,
                             enumerate_universe, fit, flip_fact, parse_table,
                             write_table)
from boxkb.model import final_embedding


def make_vocab(n_entities=2, arities=(2,)):
    v = Vocabulary()
    for i in range(n_entities):
        v.entity_id(f"e{i}", create=True)
    for i, a in enumerate(arities):
        v.relation_id(f"r{i}", arity=a, create=True)
    return v


def table_from_bits(vocab, bits):
    keys = enumerate_universe(vocab)
    assert len(bits) == len(keys)
    return TruthTable(vocab, dict(zip(keys, map(bool, bits))))


def snapshot(model, vocab):
    return {key: classify(model, Fact(key[0], key[1:]))
            for key in enumerate_universe(vocab)}


# -- table plumbing -----------------------------------------------------------

def test_truth_table_requires_totality():
    v = make_vocab()
    keys = enumerate_universe(v)
    with pytest.raises(TableFormatError, match="missing"):
        TruthTable(v, {keys[0]: True})
    with pytest.raises(TableFormatError, match="unknown"):
        TruthTable(v, {**dict.fromkeys(keys, True), (9, 9, 9): False})


def test_enumerate_universe_order_and_size():
    v = make_vocab(n_entities=3, arities=(2, 1))
    keys = enumerate_universe(v)
    assert len(keys) == 9 + 3
    assert keys[0] == (0, 0, 0) and keys[1] == (0, 0, 1)
    assert keys[-1] == (1, 2)


def test_parse_table_round_trip(tmp_path):
    v = make_vocab(n_entities=2, arities=(2,))
    bits = [1, 0, 0, 1]
    table = table_from_bits(v, bits)
    path = tmp_path / "table.txt"
    write_table(table, path)
    back = parse_table(path)
    assert back.truth == table.truth
    assert back.vocab.entity_names == v.entity_names


@pytest.mark.parametrize("content,message", [
    ("relation r 2\nr a a 1\n", "entities line"),
    ("entities a\nentities b\n", "duplicate entities"),
    ("entities a\nrelation r\n", "relation <name> <arity>"),
    ("entities a\nrelation r x\n", "integer"),
    ("entities a\nrelation r 0\n", "at least 1"),
    ("entities a\nrelation r 1\nrelation r 2\n", "bad.txt:3: duplicate relation line"),
    ("entities a\nrelation r 1\nrelation r 1\n", "bad.txt:3: duplicate relation line"),
    ("entities a\nrelation r 1\ns a 1\n", "unknown relation"),
    ("entities a\nrelation r 1\nr a maybe\n", "label"),
    ("entities a\nrelation r 1\nr a 1\nr a 0\n", "duplicate fact"),
    ("entities a\nrelation r 1\nr a a 1\n", "expected 1 entities"),
    ("entities a b\nrelation r 1\nr a 1\n", "not total"),
])
def test_parse_table_errors(tmp_path, content, message):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(TableFormatError, match=message):
        parse_table(path)


@pytest.mark.parametrize("content,message", [
    ("entities a b a\nrelation r 1\nr a 1\nr b 1\n", "bad.txt:1: duplicate entity 'a'"),
    ("entities\nrelation r 1\n", "bad.txt:1: no entities listed"),
    ("entities a\nrelation r 2\nr a b 1\n", "bad.txt:3: unknown entity 'b'"),
])
def test_parse_table_rejects_bad_entity_names(tmp_path, content, message):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(TableFormatError, match=message):
        parse_table(path)


# -- dimension layout -----------------------------------------------------------

def test_dim_index_examples():
    # binary relations over 4 entities: block size 4, tail is the offset
    assert dim_index(0, (0,), 4) == 0
    assert dim_index(1, (2,), 4) == 6
    assert dim_index(2, (3,), 4) == 11
    # ternary: block size 16, mixed radix over the tail pair
    assert dim_index(1, (1, 2), 4) == 16 + 1 * 4 + 2


def test_dim_index_is_bijective():
    seen = set()
    for rel in range(3):
        for tail in itertools.product(range(4), repeat=2):
            seen.add(dim_index(rel, tail, 4))
    assert seen == set(range(3 * 16))


def test_dim_index_validates_range():
    with pytest.raises(ValueError):
        dim_index(-1, (0,), 4)
    with pytest.raises(ValueError):
        dim_index(0, (4,), 4)


# -- builder ----------------------------------------------------------------------

def test_build_all_true_classifies_everything_true():
    v = make_vocab(n_entities=3, arities=(2, 2))
    model = build_all_true(v)
    assert model.params.d == 2 * 3  # |R| * |E|^(n_max - 1)
    assert all(classify(model, Fact(k[0], k[1:]))
               for k in enumerate_universe(v))
    assert model.flips == 0


def test_build_all_true_pads_mixed_arities():
    v = make_vocab(n_entities=2, arities=(1, 3))
    model = build_all_true(v)
    # every relation is padded to arity 3 internally, reusing entity 0 as
    # the filler, so d stays |R| * |E|^(n_max - 1)
    assert model.n_max == 3
    assert model.params.d == 2 * 4
    assert model.pad((0, 1)) == (0, 1, 0, 0)
    assert all(classify(model, Fact(k[0], k[1:]))
               for k in enumerate_universe(v))


def test_flip_changes_exactly_one_classification():
    v = make_vocab(n_entities=2, arities=(2,))
    model = build_all_true(v)
    before = snapshot(model, v)
    assert flip_fact(model, Fact(0, (0, 1))) is True
    after = snapshot(model, v)
    changed = [k for k in before if before[k] != after[k]]
    assert changed == [(0, 0, 1)]
    assert after[(0, 0, 1)] is False


def test_flip_false_fact_is_a_counted_noop():
    v = make_vocab(n_entities=2, arities=(2,))
    model = build_all_true(v)
    assert flip_fact(model, Fact(0, (0, 0)))
    flips = model.flips
    assert flip_fact(model, Fact(0, (0, 0))) is False
    assert model.flips == flips


def test_fit_exhaustive_single_binary_relation():
    v = make_vocab(n_entities=2, arities=(2,))
    keys = enumerate_universe(v)
    for bits in itertools.product((0, 1), repeat=4):
        model = fit(table_from_bits(v, bits))
        assert model.exact
        got = tuple(int(classify(model, Fact(k[0], k[1:]))) for k in keys)
        assert got == bits


def test_fit_ternary_spot_checks():
    v = make_vocab(n_entities=2, arities=(3,))
    keys = enumerate_universe(v)
    rng = np.random.default_rng(0)
    for _ in range(6):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=8))
        model = fit(table_from_bits(v, bits))
        assert model.exact
        got = tuple(int(classify(model, Fact(k[0], k[1:]))) for k in keys)
        assert got == bits


def test_fit_mixed_arity_table():
    v = make_vocab(n_entities=2, arities=(1, 2))
    keys = enumerate_universe(v)
    bits = (1, 0, 0, 1, 1, 0)
    model = fit(table_from_bits(v, bits))
    assert model.exact
    got = tuple(int(classify(model, Fact(k[0], k[1:]))) for k in keys)
    assert got == bits


def test_fit_rejects_unary_only_tables():
    v = make_vocab(n_entities=2, arities=(1,))
    with pytest.raises(ValueError, match="arity"):
        fit(table_from_bits(v, (1, 0)))


def test_fit_counts_flips():
    v = make_vocab(n_entities=2, arities=(2,))
    model = fit(table_from_bits(v, (0, 1, 1, 0)))
    assert model.flips == 2  # exactly the number of false entries


def test_flip_locality_on_random_walk():
    # flips applied to an already-reconfigured model stay local too
    v = make_vocab(n_entities=3, arities=(2, 2))
    model = build_all_true(v)
    keys = enumerate_universe(v)
    rng = np.random.default_rng(3)
    for key in rng.permutation(len(keys))[:8]:
        target = keys[int(key)]
        before = snapshot(model, v)
        if not flip_fact(model, Fact(target[0], target[1:])):
            continue
        after = snapshot(model, v)
        changed = [k for k in before if before[k] != after[k]]
        assert changed == [target]


def test_unrepresentable_ternary_flip_raises():
    # at every position (0, 1, 2) shares its final point with a true fact --
    # (0, 2, 1), (2, 1, 0) and (1, 0, 2) -- so no model makes it false alone
    v = make_vocab(n_entities=3, arities=(3,))
    bits = [key != (0, 0, 1, 2) for key in enumerate_universe(v)]
    with pytest.raises(ExactFitError, match="no exit placement"):
        fit(table_from_bits(v, bits))
    model = build_all_true(v)
    with pytest.raises(ExactFitError, match="no exit placement"):
        flip_fact(model, Fact(0, (0, 1, 2)))
    assert model.params.d == 9 and model.flips == 0


def test_non_binary_flip_appends_one_column():
    v = make_vocab(n_entities=2, arities=(2, 3))
    model = build_all_true(v)
    assert flip_fact(model, Fact(1, (0, 1, 1)))
    params = model.params
    d = params.d
    tables = ("entity_base", "entity_bump", "box_a", "box_b")
    before = [getattr(params, name).copy() for name in tables]
    assert flip_fact(model, Fact(0, (1, 0)))
    assert params.d == d + 1
    for name, old in zip(tables, before):
        new = getattr(params, name)
        assert new.shape == (old.shape[0], d + 1)
        assert new[:, :d].tobytes() == old.tobytes(), name


@pytest.mark.parametrize("arities", [(1, 3), (2, 3)])
def test_mixed_non_binary_tables_fit_with_local_flips(arities):
    v = make_vocab(n_entities=2, arities=arities)
    keys = enumerate_universe(v)
    rng = np.random.default_rng(5)
    for _ in range(4):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=len(keys)))
        model = build_all_true(v)
        for key in (k for k, bit in zip(keys, bits) if not bit):
            before = snapshot(model, v)
            assert flip_fact(model, Fact(key[0], key[1:]))
            after = snapshot(model, v)
            assert [k for k in keys if before[k] != after[k]] == [key]
        assert tuple(int(snapshot(model, v)[k]) for k in keys) == bits
        assert fit(table_from_bits(v, bits)).exact


# -- classification -----------------------------------------------------------

def classify_reference(model, fact):
    """The former classification: a validated ``Box`` per position and a
    ``contains`` test on each final point."""
    padded = model.pad((fact.relation, *fact.entities))
    rel, ents = padded[0], padded[1:]
    pts = final_embedding(model.params, Fact(rel, ents))
    for p in range(model.n_max):
        if not contains(model.params.effective_box(rel, p), pts[p]):
            return False
    return True


def fit_test_models():
    """The models the fit tests above build, in their order."""
    v = make_vocab(n_entities=2, arities=(2,))
    for bits in itertools.product((0, 1), repeat=4):
        yield v, fit(table_from_bits(v, bits))
    v = make_vocab(n_entities=2, arities=(3,))
    rng = np.random.default_rng(0)
    for _ in range(6):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=8))
        yield v, fit(table_from_bits(v, bits))
    v = make_vocab(n_entities=2, arities=(1, 2))
    yield v, fit(table_from_bits(v, (1, 0, 0, 1, 1, 0)))
    v = make_vocab(n_entities=3, arities=(2, 2))
    model = build_all_true(v)
    keys = enumerate_universe(v)
    for key in np.random.default_rng(3).permutation(len(keys))[:8]:
        flip_fact(model, Fact(keys[int(key)][0], keys[int(key)][1:]))
        yield v, model


@pytest.mark.parametrize("bounded", [False, True])
def test_classify_matches_the_per_box_reference(bounded):
    checked = 0
    for v, model in fit_test_models():
        model.params.bounded = bounded
        for key in enumerate_universe(v):
            fact = Fact(key[0], key[1:])
            assert classify(model, fact) == classify_reference(model, fact), key
            checked += 1
    assert checked == 16 * 4 + 6 * 8 + 6 + 8 * 18


@pytest.mark.parametrize("bounded", [False, True])
def test_classify_counts_the_box_boundary_as_inside(bounded):
    v = make_vocab(n_entities=2, arities=(2,))
    model = build_all_true(v)
    model.params.bounded = bounded
    fact = Fact(0, (0, 1))
    pts = final_embedding(model.params, fact)
    slot = int(model.params.slot_of[0][1])
    model.params.box_a[slot] = pts[1]  # the lower corner through the point
    assert classify(model, fact) and classify_reference(model, fact)
    model.params.box_a[slot, 0] = np.nextafter(pts[1, 0], 1.0)
    assert not classify(model, fact) and not classify_reference(model, fact)
