"""Fact parsing, vocabulary interning, and split containers."""
import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxkb.kb import (FORMAT_NARY, FORMAT_TRIPLE, Fact, KBFormatError,
                      KnowledgeBase, Vocabulary, augment_inverses, corrupt,
                      fact_index, iter_tokens, known_answers, parse_kb,
                      write_split)
from boxkb.synth import random_binary_kb

names = st.text(alphabet="abcdefgh", min_size=1, max_size=4)


def write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def test_parse_triple_basic(tmp_path):
    train = tmp_path / "train.tsv"
    write(train, ["alice\tknows\tbob", "bob\tknows\tcarol", "# comment", ""])
    kb = parse_kb(train)
    assert kb.vocab.n_entities == 3
    assert kb.vocab.n_relations == 1
    assert kb.train == (Fact(0, (0, 1)), Fact(0, (1, 2)))
    assert kb.valid == () and kb.test == ()
    assert kb.known == frozenset(kb.train)
    assert kb.n_scored_relations == 1


@pytest.mark.parametrize("fmt,fact,hashed", [
    (FORMAT_TRIPLE, "a\tr\tb", "#c\tr\tb"),
    (FORMAT_NARY, "r\ta\tb", "#r\tc\tb"),
])
def test_a_fact_whose_first_column_starts_with_hash_is_a_comment(tmp_path, fmt,
                                                                  fact, hashed):
    # a '#' past the first column is part of a name
    path = tmp_path / "train.tsv"
    later = fact.replace("\tb", "\tb#2")
    write(path, [fact, hashed, "  " + hashed, "\t", later])
    kb = parse_kb(path, fmt=fmt)
    assert kb.vocab.entity_names == ["a", "b", "b#2"]
    assert len(kb.train) == 2


def test_interning_is_first_appearance_order(tmp_path):
    train = tmp_path / "train.tsv"
    valid = tmp_path / "valid.tsv"
    write(train, ["b\tr\ta"])
    write(valid, ["a\ts\tc"])
    kb = parse_kb(train, valid)
    assert kb.vocab.entity_names == ["b", "a", "c"]
    assert kb.vocab.relation_names == ["r", "s"]


def test_parse_nary(tmp_path):
    train = tmp_path / "train.tsv"
    write(train, ["bought\tann\tcar\tdealer", "likes\tann\tcar"])
    kb = parse_kb(train, fmt=FORMAT_NARY)
    assert kb.vocab.relation_arities == [3, 2]
    assert kb.train[0].arity == 3


def test_parse_rejects_bad_columns(tmp_path):
    train = tmp_path / "train.tsv"
    write(train, ["only two\tcolumns"])
    with pytest.raises(KBFormatError, match="train.tsv:1"):
        parse_kb(train)


def test_parse_nary_rejects_a_line_with_only_a_relation(tmp_path):
    train = tmp_path / "train.tsv"
    write(train, ["likes\tann\tcar", "likes"])
    with pytest.raises(KBFormatError,
                       match="train.tsv:2: expected relation plus at least one entity"):
        parse_kb(train, fmt=FORMAT_NARY)


def test_parse_rejects_arity_mismatch(tmp_path):
    train = tmp_path / "train.tsv"
    write(train, ["r\ta\tb", "r\ta\tb\tc"])
    with pytest.raises(KBFormatError, match="arity"):
        parse_kb(train, fmt=FORMAT_NARY)
    with pytest.raises(KBFormatError, match="train.tsv:2"):
        parse_kb(train, fmt=FORMAT_NARY)


def test_parse_rejects_duplicates_within_and_across_splits(tmp_path):
    train = tmp_path / "train.tsv"
    valid = tmp_path / "valid.tsv"
    write(train, ["a\tr\tb", "a\tr\tb"])
    with pytest.raises(KBFormatError, match="duplicate"):
        parse_kb(train)
    write(train, ["a\tr\tb"])
    write(valid, ["a\tr\tb"])
    with pytest.raises(KBFormatError, match="duplicate"):
        parse_kb(train, valid)


def test_parse_rejects_unknown_format(tmp_path):
    train = tmp_path / "train.tsv"
    write(train, ["a\tr\tb"])
    with pytest.raises(KBFormatError, match="format"):
        parse_kb(train, fmt="csv")


def test_iter_tokens_drops_comments_and_blank_lines(tmp_path):
    path = tmp_path / "rules.txt"
    write(path, ["# header", "symmetry r", "", "  hierarchy  r\ts # tail",
                 "   # indented comment", "entities a#b"])
    assert list(iter_tokens(path)) == [(2, ["symmetry", "r"]),
                                       (4, ["hierarchy", "r", "s"]),
                                       (6, ["entities", "a"])]


def test_write_split_round_trip(tmp_path):
    train = tmp_path / "train.tsv"
    write(train, ["alice\tknows\tbob", "bob\tknows\tcarol"])
    kb = parse_kb(train)
    out = tmp_path / "out.tsv"
    write_split(kb, "train", out)
    kb2 = parse_kb(out)
    assert kb2.train == kb.train
    assert kb2.vocab.entity_names == kb.vocab.entity_names


def test_write_split_triple_rejects_nary(tmp_path):
    train = tmp_path / "train.tsv"
    write(train, ["r\ta\tb\tc"])
    kb = parse_kb(train, fmt=FORMAT_NARY)
    with pytest.raises(KBFormatError):
        write_split(kb, "train", tmp_path / "out.tsv", FORMAT_TRIPLE)
    write_split(kb, "train", tmp_path / "out.tsv", FORMAT_NARY)
    assert parse_kb(tmp_path / "out.tsv", fmt=FORMAT_NARY).train == kb.train


def test_vocab_lookup_and_arity_guard():
    v = Vocabulary()
    rid = v.relation_id("r", arity=2, create=True)
    assert v.relation_id("r") == rid
    with pytest.raises(KBFormatError):
        v.relation_id("r", arity=3)
    with pytest.raises(KeyError):
        v.entity_id("ghost")
    with pytest.raises(ValueError):
        v.relation_id("new", create=True)  # arity required


def test_vocab_from_name_lists_knows_its_ids():
    v = Vocabulary(["a", "b"], ["r", "s"], [2, 3])
    assert (v.entity_id("a"), v.entity_id("b")) == (0, 1)
    assert v.relation_id("s", arity=3) == 1
    assert v.relation_id("r", arity=2, create=True) == 0
    assert v.relation_names == ["r", "s"] and v.n_relations == 2
    with pytest.raises(KBFormatError):
        v.relation_id("r", arity=3)
    assert v.copy().entity_id("b") == 1
    assert v.copy() == v


@pytest.mark.parametrize("names,message", [
    ((["a", "b", "a"], ["r"], [2]), "repeated entity name 'a'"),
    ((["a"], ["r", "s", "r"], [2, 2, 2]), "repeated relation name 'r'"),
    ((["a"], ["r", "s"], [2]), "2 relation names but 1 arities"),
])
def test_vocab_rejects_repeated_names_and_unpaired_arities(names, message):
    with pytest.raises(KBFormatError, match=message):
        Vocabulary(*names)


def test_augment_inverses_rejects_an_inverse_name_collision():
    fact = Fact(0, (0, 1))
    kb = KnowledgeBase(Vocabulary(["a", "b"], ["r", "r_inv"], [2, 2]),
                       (fact,), (), (), 2)
    with pytest.raises(KBFormatError, match="inverse relation name collision: 'r_inv'"):
        augment_inverses(kb)


def test_augment_inverses_rejects_a_non_binary_relation():
    fact = Fact(0, (0, 1, 2))
    kb = KnowledgeBase(Vocabulary(["a", "b", "c"], ["r"], [3]),
                       (fact,), (), (), 1)
    with pytest.raises(KBFormatError, match="requires all relations binary"):
        augment_inverses(kb)


def test_fact_indexes_are_built_on_first_use_and_kept(tmp_path):
    train, valid = tmp_path / "train.tsv", tmp_path / "valid.tsv"
    write(train, ["a\tr\tb", "b\ts\tc"])
    write(valid, ["c\tr\ta"])
    kb = parse_kb(train, valid)
    assert "known_index" not in vars(kb) and "train_index" not in vars(kb)
    for index, facts in ((kb.known_index, kb.known), (kb.train_index, kb.train)):
        want = fact_index(facts)
        assert index.keys() == want.keys()
        assert all(np.array_equal(index[r], want[r]) for r in want)
    assert kb.known_index is kb.known_index and kb.train_index is kb.train_index


def test_known_facts_are_the_splits_and_a_replaced_copy_keeps_them():
    a, b, c = Fact(0, (0, 1)), Fact(0, (1, 2)), Fact(0, (2, 0))
    kb = KnowledgeBase(Vocabulary(["x", "y", "z"], ["r"], [2]), (a,), (b,), (c,), 1)
    assert kb.known == {a, b, c}
    # ranking one test fact of a copy still filters by every fact of the KB
    one = dataclasses.replace(kb, train=(), test=())
    assert one.known == {a, b, c}
    assert np.array_equal(one.known_index[0], kb.known_index[0])


def test_the_known_set_is_no_larger_than_a_copied_one():
    # a frozenset filled while it grows keeps up to twice the table it needs
    kb = random_binary_kb(n_entities=2000, n_relations=20, n_facts=20_040)
    assert len(kb.known) == 20_040
    assert sys.getsizeof(kb.known) <= sys.getsizeof(frozenset(set(kb.known)))


def test_known_answers_match_a_loop_over_the_known_facts():
    rng = np.random.default_rng(3)
    n_e = 6
    arities = [1, 2, 3, 4, 2]  # the last relation has no facts
    facts = {Fact(2, (1, 1, 1))}  # a row that repeats an entity
    for rel, arity in enumerate(arities[:-1]):
        for _ in range(40):
            facts.add(Fact(rel, tuple(int(e) for e in rng.integers(0, n_e, arity))))
    kb = KnowledgeBase(Vocabulary([f"e{i}" for i in range(n_e)],
                                  [f"r{r}" for r in range(len(arities))], arities),
                       tuple(sorted(facts)), (), (), len(arities))
    index = kb.known_index
    assert len(arities) - 1 not in index
    for rel, arity in enumerate(arities):
        # every known row, and as many random rows, mostly unknown
        rows = [f.entities for f in kb.known if f.relation == rel]
        rows += [tuple(int(e) for e in rng.integers(0, n_e, arity)) for _ in range(40)]
        for ents in rows:
            for pos in range(arity):
                got = known_answers(index, rel, ents, pos)
                assert got.dtype == np.int64
                want = [f.entities[pos] for f in kb.known if f.relation == rel
                        and all(f.entities[p] == e for p, e in enumerate(ents) if p != pos)]
                assert sorted(got.tolist()) == sorted(want), (rel, ents, pos)
    empty = known_answers(index, len(arities) - 1, (0, 1), 0)
    assert empty.dtype == np.int64 and empty.size == 0
    assert known_answers(index, 99, (0,), 0).size == 0


def test_vocab_copy_is_independent():
    v = Vocabulary()
    v.entity_id("a", create=True)
    c = v.copy()
    c.entity_id("b", create=True)
    assert v.n_entities == 1 and c.n_entities == 2


def test_split_accessor():
    kb = KnowledgeBase(Vocabulary(), (), (), (), 0)
    assert kb.split("train") == ()
    with pytest.raises(KeyError):
        kb.split("dev")


def test_corrupt_replaces_one_position():
    f = Fact(3, (7, 8, 9))
    assert corrupt(f, 1, 5) == Fact(3, (7, 5, 9))
    assert corrupt(f, 0, 5).entities == (5, 8, 9)
    with pytest.raises(IndexError):
        corrupt(f, 3, 5)


@settings(max_examples=100)
@given(st.integers(0, 5), st.lists(st.integers(0, 9), min_size=1, max_size=4),
       st.data())
def test_corrupt_restores_under_involution(rel, ents, data):
    f = Fact(rel, tuple(ents))
    pos = data.draw(st.integers(0, len(ents) - 1))
    repl = data.draw(st.integers(0, 9))
    once = corrupt(f, pos, repl)
    assert corrupt(once, pos, f.entities[pos]) == f
    assert all(once.entities[i] == f.entities[i] for i in range(len(ents)) if i != pos)


def test_augment_inverses_adds_flipped_facts(tmp_path):
    train = tmp_path / "train.tsv"
    write(train, ["a\tr\tb", "b\ts\tc"])
    kb = parse_kb(train)
    aug = augment_inverses(kb)
    assert aug.vocab.relation_names == ["r", "s", "r_inv", "s_inv"]
    assert aug.n_scored_relations == 2
    assert len(aug.train) == 4
    r_inv = aug.vocab.relation_id("r_inv")
    assert Fact(r_inv, (aug.vocab.entity_id("b"), aug.vocab.entity_id("a"))) in aug.train
    # originals still present, known covers both
    assert set(kb.train) <= set(aug.train)
    assert frozenset(aug.train) <= aug.known


@settings(max_examples=50)
@given(st.lists(st.tuples(names, names, names), min_size=1, max_size=12, unique=True))
def test_parse_write_round_trip_property(tmp_path_factory, triples):
    tmp = tmp_path_factory.mktemp("rt")
    train = tmp / "train.tsv"
    lines = sorted({f"{h}\t{r}\t{t}" for h, r, t in triples})
    write(train, lines)
    kb = parse_kb(train)
    out = tmp / "out.tsv"
    write_split(kb, "train", out)
    assert parse_kb(out).train == kb.train


@pytest.mark.parametrize("fmt,line,column", [
    (FORMAT_TRIPLE, "a\tr\t", 3),
    (FORMAT_TRIPLE, "a\t\tb", 2),
    (FORMAT_NARY, "r\ta\tb\t", 4),
    (FORMAT_NARY, "r\ta\t\tb", 3),
    (FORMAT_TRIPLE, "a\t \tb", 2),
    (FORMAT_NARY, "r\ta\t ", 3),
], ids=["triple-trailing-tab", "triple-doubled-tab", "nary-trailing-tab",
        "nary-doubled-tab", "triple-space-relation", "nary-space-entity"])
def test_an_empty_column_is_an_error(tmp_path, fmt, line, column):
    first = "a\tr\tb" if fmt == FORMAT_TRIPLE else "r\ta\tb"
    path = tmp_path / "train.tsv"
    path.write_text(f"{first}\n{line}\n", encoding="utf-8")
    with pytest.raises(KBFormatError) as exc:
        parse_kb(path, fmt=fmt)
    assert str(exc.value) == f"{path}:2: empty column {column}"
