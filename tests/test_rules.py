"""Rule parsing, deductive closure, consistency, capture, and projection."""
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxkb.rules as rules_module
from boxkb.geometry import Box, intersect
from boxkb.kb import Vocabulary
from boxkb.model import ModelParams, init_params, load_checkpoint, save_checkpoint
from boxkb.rules import (ANTISYMMETRY, COMPOSITION, EXCLUSION, FORM_ARITY,
                         HIERARCHY, INJECTABLE_FORMS, INTERSECTION, INVERSION,
                         SYMMETRY, CaptureResult, ConflictReport,
                         InconsistentRulesError, InjectionPlan,
                         ProjectionError, Rule, RuleError, RuleParseError,
                         UnsupportedRuleError, _horn_theory,
                         _sharing_edges, apply_projection, box_stats,
                         check_capture, check_consistency, deductive_closure,
                         inject, parse_rules)
from boxkb.synth import hierarchy_ontology_kb, random_binary_kb
from boxkb.training import OptimizerState, TrainConfig, train_epoch

# ---------------------------------------------------------------------------
# Independent semantic oracle: a rule set entails a rule iff every
# interpretation over a 2-entity universe satisfying the set satisfies the
# rule.  Binary relations have 4 ground atoms; interpretations are rows of a
# boolean matrix, one column per atom.
# ---------------------------------------------------------------------------


def all_interpretations(n_rel):
    n_bits = 4 * n_rel
    codes = np.arange(1 << n_bits, dtype=np.int64)
    return ((codes[:, None] >> np.arange(n_bits)[None, :]) & 1).astype(bool)


def oracle_sat(rule, interp):
    def atom(rel, a, b):
        return interp[:, rel * 4 + a * 2 + b]

    ok = np.ones(len(interp), dtype=bool)
    for a, b in itertools.product((0, 1), repeat=2):
        if rule.form == HIERARCHY:
            r1, r2 = rule.relations
            ok &= ~atom(r1, a, b) | atom(r2, a, b)
        elif rule.form == INTERSECTION:
            r1, r2, r3 = rule.relations
            ok &= ~(atom(r1, a, b) & atom(r2, a, b)) | atom(r3, a, b)
        else:
            raise AssertionError("oracle only covers hierarchy/intersection")
    return ok


def candidate_rules(n_rel):
    out = []
    for a, b in itertools.permutations(range(n_rel), 2):
        out.append(Rule(HIERARCHY, (a, b)))
    for a, b in itertools.combinations(range(n_rel), 2):
        for c in range(n_rel):
            if c not in (a, b):
                out.append(Rule(INTERSECTION, (a, b, c)))
    return out


def oracle_entailed(rules, n_rel):
    interp = all_interpretations(n_rel)
    models = np.ones(len(interp), dtype=bool)
    for r in rules:
        models &= oracle_sat(r, interp)
    return {c for c in candidate_rules(n_rel)
            if oracle_sat(c, interp)[models].all()}


def closure_set(rules, n_rel):
    return {r for r in deductive_closure(rules, universe=range(n_rel))
            if r.form in (HIERARCHY, INTERSECTION)}


# -- Rule construction ---------------------------------------------------------

def test_rule_form_arity_validation():
    Rule(SYMMETRY, (0,))
    Rule(HIERARCHY, (0, 1))
    Rule(INTERSECTION, (0, 1, 2))
    with pytest.raises(RuleError):
        Rule("implication", (0, 1))
    with pytest.raises(RuleError):
        Rule(SYMMETRY, (0, 1))
    with pytest.raises(RuleError):
        Rule(HIERARCHY, (0,))


def test_rule_distinctness():
    with pytest.raises(RuleError):
        Rule(HIERARCHY, (1, 1))
    with pytest.raises(RuleError):
        Rule(INVERSION, (2, 2))
    with pytest.raises(RuleError):
        Rule(INTERSECTION, (0, 0, 1))
    with pytest.raises(RuleError):
        Rule(INTERSECTION, (0, 1, 1))
    with pytest.raises(RuleError):
        Rule(EXCLUSION, (3, 3))


def test_rule_normalizes_commutative_relation_lists():
    assert Rule(INVERSION, (2, 1)) == Rule(INVERSION, (1, 2))
    assert Rule(EXCLUSION, (5, 0)).relations == (0, 5)
    assert Rule(INTERSECTION, (3, 1, 2)).relations == (1, 3, 2)
    # composition and hierarchy are order-sensitive
    assert Rule(HIERARCHY, (1, 0)).relations == (1, 0)
    assert Rule(COMPOSITION, (2, 1, 0)).relations == (2, 1, 0)


# -- parsing ---------------------------------------------------------------------

def rule_vocab(n=4, arity=2):
    v = Vocabulary()
    for i in range(6):
        v.entity_id(f"e{i}", create=True)
    for i in range(n):
        v.relation_id(f"r{i}", arity=arity, create=True)
    return v


def test_parse_rules_happy_path(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text(
        "# ontology\n"
        "symmetry r0\n"
        "hierarchy r1 r2\n"
        "intersection r0 r1 r3\n"
        "\n"
        "exclusion r2 r3\n")
    rules = parse_rules(path, rule_vocab())
    assert rules == [Rule(SYMMETRY, (0,)), Rule(HIERARCHY, (1, 2)),
                     Rule(INTERSECTION, (0, 1, 3)), Rule(EXCLUSION, (2, 3))]


@pytest.mark.parametrize("line,message", [
    ("symmetry r0 r1", "symmetry"),
    ("hierarchy r0", "hierarchy"),
    ("osmosis r0 r1", "form"),
    ("hierarchy r0 r0", "distinct"),
    ("hierarchy r0 missing", "unknown relation"),
])
def test_parse_rules_errors_carry_line_numbers(tmp_path, line, message):
    path = tmp_path / "rules.txt"
    path.write_text("symmetry r0\n" + line + "\n")
    with pytest.raises(RuleParseError, match=r":2"):
        parse_rules(path, rule_vocab())


def test_parse_rules_rejects_nonbinary_symmetry(tmp_path):
    v = rule_vocab(n=2, arity=3)
    path = tmp_path / "rules.txt"
    path.write_text("symmetry r0\n")
    with pytest.raises(RuleParseError, match="binary"):
        parse_rules(path, v)
    # hierarchy over ternary relations is allowed
    path.write_text("hierarchy r0 r1\n")
    assert parse_rules(path, v) == [Rule(HIERARCHY, (0, 1))]


def test_parse_rules_rejects_mixed_arity(tmp_path):
    v = Vocabulary()
    v.relation_id("bin", arity=2, create=True)
    v.relation_id("tern", arity=3, create=True)
    path = tmp_path / "rules.txt"
    path.write_text("hierarchy bin tern\n")
    with pytest.raises(RuleParseError, match="arity"):
        parse_rules(path, v)


def test_parse_rules_can_add_unknown_names_as_binary_relations(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("hierarchy s r  # s first\n\nsymmetry t\nhierarchy r t\n")
    with pytest.raises(RuleParseError, match="unknown relation"):
        parse_rules(path, Vocabulary())
    v = Vocabulary()
    rules = parse_rules(path, v, create_binary=True)
    assert v.relation_names == ["s", "r", "t"]
    assert v.relation_arities == [2, 2, 2]
    assert rules == [Rule(HIERARCHY, (0, 1)), Rule(SYMMETRY, (2,)),
                     Rule(HIERARCHY, (1, 2))]


# -- deductive closure --------------------------------------------------------------

def test_closure_empty_and_passthrough():
    assert deductive_closure([]) == []
    rules = [Rule(SYMMETRY, (0,)), Rule(EXCLUSION, (1, 2))]
    assert deductive_closure(rules) == sorted(rules, key=lambda r: (r.form, r.relations))


def test_closure_hierarchy_transitivity():
    rules = [Rule(HIERARCHY, (0, 1)), Rule(HIERARCHY, (1, 2))]
    assert Rule(HIERARCHY, (0, 2)) in deductive_closure(rules)


def test_closure_intersection_head_weakening():
    rules = [Rule(INTERSECTION, (0, 1, 2)), Rule(HIERARCHY, (2, 3))]
    assert Rule(INTERSECTION, (0, 1, 3)) in deductive_closure(rules)


def test_closure_body_strengthening_to_hierarchy():
    # if r0 implies both body atoms of an intersection, it implies the head
    rules = [Rule(HIERARCHY, (0, 1)), Rule(HIERARCHY, (0, 2)),
             Rule(INTERSECTION, (1, 2, 3))]
    assert Rule(HIERARCHY, (0, 3)) in deductive_closure(rules)


def test_closure_substitutes_subrelations_into_bodies():
    # a sub-relation of one body atom still triggers the intersection
    rules = [Rule(HIERARCHY, (3, 0)), Rule(INTERSECTION, (0, 1, 2))]
    assert Rule(INTERSECTION, (1, 3, 2)) in deductive_closure(rules)


def test_closure_hierarchy_entails_padded_intersections():
    # r0 => r2 makes r0 AND r1 => r2 vacuously true for any r1 in scope
    rules = [Rule(HIERARCHY, (0, 2))]
    closed = deductive_closure(rules, universe=range(3))
    assert Rule(INTERSECTION, (0, 1, 2)) in closed
    # without an explicit universe only mentioned relations participate
    assert Rule(INTERSECTION, (0, 1, 2)) not in deductive_closure(rules)


def test_closure_excludes_tautologies():
    closed = deductive_closure([Rule(HIERARCHY, (0, 1)), Rule(HIERARCHY, (1, 0))])
    for r in closed:
        if r.form == HIERARCHY:
            assert r.relations[0] != r.relations[1]
        if r.form == INTERSECTION:
            assert r.relations[2] not in r.relations[:2]


def test_closure_is_idempotent_small():
    rules = [Rule(HIERARCHY, (0, 1)), Rule(HIERARCHY, (1, 2)),
             Rule(INTERSECTION, (0, 2, 3))]
    once = deductive_closure(rules)
    twice = deductive_closure(once)
    assert set(once) == set(twice)


def test_closure_matches_oracle_two_relations_exhaustively():
    # |R| = 2 has 2 candidate rules, so 4 rule sets
    for subset in itertools.chain.from_iterable(
            itertools.combinations(candidate_rules(2), k) for k in range(3)):
        rules = list(subset)
        assert closure_set(rules, 2) == oracle_entailed(rules, 2), rules


def test_closure_matches_oracle_three_relation_spot_checks():
    cands = candidate_rules(3)
    rng = np.random.default_rng(0)
    for _ in range(25):
        take = rng.random(len(cands)) < 0.35
        rules = [c for c, t in zip(cands, take) if t]
        assert closure_set(rules, 3) == oracle_entailed(rules, 3), rules


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(candidate_rules(3)), max_size=5, unique=True))
def test_closure_idempotent_property(rules):
    once = deductive_closure(rules, universe=range(3))
    assert set(deductive_closure(once, universe=range(3))) == set(once)


# -- consistency ------------------------------------------------------------------

def test_conflict_symmetry_vs_antisymmetry_direct():
    report = check_consistency([Rule(SYMMETRY, (0,)), Rule(ANTISYMMETRY, (0,))])
    assert report is not None and report.kind == "symmetry-vs-antisymmetry"
    assert report.chain


def test_conflict_symmetry_vs_antisymmetry_through_inversion():
    rules = [Rule(SYMMETRY, (0,)), Rule(INVERSION, (0, 1)),
             Rule(ANTISYMMETRY, (1,))]
    report = check_consistency(rules)
    assert report is not None and report.kind == "symmetry-vs-antisymmetry"
    assert Rule(ANTISYMMETRY, (1,)) in report.chain


def test_conflict_implied_overlap():
    rules = [Rule(HIERARCHY, (0, 1)), Rule(HIERARCHY, (0, 2)),
             Rule(EXCLUSION, (1, 2))]
    report = check_consistency(rules)
    assert report is not None and report.kind == "implied-overlap"
    # the derivation chain explains both implications
    assert Rule(HIERARCHY, (0, 1)) in report.chain
    assert Rule(HIERARCHY, (0, 2)) in report.chain


def test_conflict_implied_overlap_via_intersection_chain():
    rules = [Rule(HIERARCHY, (0, 1)), Rule(HIERARCHY, (0, 2)),
             Rule(INTERSECTION, (1, 2, 3)), Rule(EXCLUSION, (0, 3))]
    report = check_consistency(rules)
    assert report is not None and report.kind == "implied-overlap"


def test_conflict_sharing_vs_exclusion():
    rules = [Rule(INVERSION, (0, 1)), Rule(SYMMETRY, (0,)),
             Rule(EXCLUSION, (0, 1))]
    report = check_consistency(rules)
    assert report is not None and report.kind == "sharing-vs-exclusion"


def test_inversion_three_cycle_is_consistent():
    rules = [Rule(INVERSION, (0, 1)), Rule(INVERSION, (1, 2)),
             Rule(INVERSION, (0, 2))]
    assert check_consistency(rules) is None


def test_consistent_sets_pass():
    assert check_consistency([]) is None
    assert check_consistency([Rule(ANTISYMMETRY, (0,)), Rule(SYMMETRY, (1,)),
                              Rule(HIERARCHY, (0, 1)),
                              Rule(EXCLUSION, (2, 3))]) is None


def test_conflict_message_uses_vocab_names():
    v = rule_vocab()
    report = check_consistency([Rule(SYMMETRY, (0,)), Rule(ANTISYMMETRY, (0,))], v)
    assert "r0" in report.message
    assert "r0" in str(report)


# -- capture ---------------------------------------------------------------------

def make_params(n_rel=4, d=3, seed=0, arity=2, n_entities=6, bounded=True):
    return init_params(rule_vocab(n_rel, arity), d,
                       np.random.default_rng(seed), bounded=bounded)


def set_box(params, rel, pos, lo, hi):
    slot = int(params.slot_of[rel][pos])
    params.box_a[slot] = np.asarray(lo, dtype=np.float64)
    params.box_b[slot] = np.asarray(hi, dtype=np.float64)


def test_capture_symmetry_iff_boxes_equal():
    p = make_params(bounded=False)
    set_box(p, 0, 0, [0, 0, 0], [1, 1, 1])
    set_box(p, 0, 1, [0, 0, 0], [1, 1, 1])
    assert check_capture(p, Rule(SYMMETRY, (0,))).captured
    set_box(p, 0, 1, [0, 0, 0], [1, 1, 1.5])
    res = check_capture(p, Rule(SYMMETRY, (0,)))
    assert not res.captured
    assert res.witness == {"dimension": 2, "side": "upper", "delta": 0.5}
    assert check_capture(p, Rule(SYMMETRY, (0,)), tolerance=0.6).captured


def test_capture_antisymmetry_requires_disjoint_head_tail():
    p = make_params(bounded=False)
    set_box(p, 0, 0, [0, 0, 0], [1, 1, 1])
    set_box(p, 0, 1, [2, 0, 0], [3, 1, 1])
    res = check_capture(p, Rule(ANTISYMMETRY, (0,)))
    assert res.captured and res.witness == {"dimension": 0}
    set_box(p, 0, 1, [1, 0, 0], [3, 1, 1])  # touching is not a strict gap
    assert not check_capture(p, Rule(ANTISYMMETRY, (0,))).captured


def test_capture_inversion_cross_position_equality():
    p = make_params(bounded=False)
    set_box(p, 0, 0, [0, 0, 0], [1, 1, 1])
    set_box(p, 0, 1, [-1, 0, 0], [0, 2, 1])
    set_box(p, 1, 0, [-1, 0, 0], [0, 2, 1])
    set_box(p, 1, 1, [0, 0, 0], [1, 1, 1])
    assert check_capture(p, Rule(INVERSION, (0, 1))).captured
    set_box(p, 1, 1, [0, 0, 0], [1, 1, 2])
    res = check_capture(p, Rule(INVERSION, (0, 1)))
    assert not res.captured and res.witness["position"] == 0


def test_capture_hierarchy_containment_per_position():
    p = make_params(bounded=False)
    set_box(p, 0, 0, [0, 0, 0], [1, 1, 1])
    set_box(p, 0, 1, [0, 0, 0], [1, 1, 1])
    set_box(p, 1, 0, [-1, -1, -1], [2, 2, 2])
    set_box(p, 1, 1, [-1, -1, -1], [2, 2, 2])
    assert check_capture(p, Rule(HIERARCHY, (0, 1))).captured
    set_box(p, 1, 1, [0.5, -1, -1], [2, 2, 2])
    res = check_capture(p, Rule(HIERARCHY, (0, 1)))
    assert not res.captured
    assert res.witness["position"] == 1 and res.witness["side"] == "lower"


def test_capture_intersection_contains_region_or_vacuous():
    p = make_params(bounded=False)
    set_box(p, 0, 0, [0, 0, 0], [2, 2, 2])
    set_box(p, 1, 0, [1, 1, 1], [3, 3, 3])
    set_box(p, 2, 0, [1, 1, 1], [2, 2, 2])   # exactly the intersection
    # tails disjoint: the tail-position constraint is vacuously satisfied
    set_box(p, 0, 1, [0, 0, 0], [1, 1, 1])
    set_box(p, 1, 1, [5, 5, 5], [6, 6, 6])
    set_box(p, 2, 1, [9, 9, 9], [9, 9, 9])
    assert check_capture(p, Rule(INTERSECTION, (0, 1, 2))).captured
    set_box(p, 2, 0, [1, 1, 1], [2, 2, 1.5])
    assert not check_capture(p, Rule(INTERSECTION, (0, 1, 2))).captured


def test_capture_exclusion_any_position():
    p = make_params(bounded=False)
    set_box(p, 0, 0, [0, 0, 0], [1, 1, 1])
    set_box(p, 1, 0, [0, 0, 0], [1, 1, 1])   # heads overlap
    set_box(p, 0, 1, [0, 0, 0], [1, 1, 1])
    set_box(p, 1, 1, [0, 5, 0], [1, 6, 1])   # tails disjoint on dim 1
    res = check_capture(p, Rule(EXCLUSION, (0, 1)))
    assert res.captured and res.witness == {"position": 1, "dimension": 1}
    set_box(p, 1, 1, [0, 0.5, 0], [1, 6, 1])
    assert not check_capture(p, Rule(EXCLUSION, (0, 1))).captured


def test_capture_composition_unsupported():
    p = make_params()
    with pytest.raises(UnsupportedRuleError):
        check_capture(p, Rule(COMPOSITION, (0, 1, 2)))


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1e-9])
def test_capture_rejects_a_tolerance_outside_zero_to_infinity(tolerance):
    # nan passes every excess test, so a random hierarchy would read as
    # captured; a negative tolerance fails a contained hierarchy
    p = make_params(bounded=False)
    set_box(p, 0, 0, [0, 0, 0], [1, 1, 1])
    set_box(p, 1, 0, [0, 0, 0], [1, 1, 1])
    for form, rels in ((HIERARCHY, (0, 1)), (COMPOSITION, (0, 1, 2)),
                       (EXCLUSION, (0, 1))):
        with pytest.raises(RuleError, match="tolerance") as caught:
            check_capture(p, Rule(form, rels), tolerance=tolerance)
        assert type(caught.value) is RuleError


def test_capture_uses_effective_boxes_when_bounded():
    # raw equality implies effective equality, but raw containment checks
    # would be wrong: verify capture agrees with tanh-mapped boxes
    p = make_params(bounded=True)
    set_box(p, 0, 0, [0.0, 0.0, 0.0], [0.5, 0.5, 0.5])
    set_box(p, 0, 1, [9, 9, 9], [9, 9, 9])
    set_box(p, 1, 0, [-0.1, -0.1, -0.1], [0.6, 0.6, 0.6])
    set_box(p, 1, 1, [8, 8, 8], [10, 10, 10])
    assert check_capture(p, Rule(HIERARCHY, (0, 1))).captured
    # tanh compresses the gap at 9 vs [8, 10] but containment still holds
    assert check_capture(p, Rule(HIERARCHY, (0, 1)), tolerance=0.0).captured


# -- injection and projection ------------------------------------------------------

def test_inject_symmetry_shares_slots_forever():
    p = make_params(seed=3)
    plan = inject([Rule(SYMMETRY, (0,))], p)
    assert p.slot_of[0][0] == p.slot_of[0][1]
    assert check_capture(p, Rule(SYMMETRY, (0,))).captured
    # shared parameters survive arbitrary perturbation
    p.box_a[:] += np.random.default_rng(0).normal(size=p.box_a.shape)
    assert check_capture(p, Rule(SYMMETRY, (0,))).captured
    assert plan.containments == []


def test_inject_inversion_three_cycle_collapses_to_one_box():
    # an odd inversion cycle flips head/tail an odd number of times, so all
    # six slots share one box (= one lower and one upper corner vector) and
    # every relation in the cycle comes out symmetric by parameter identity
    p = make_params(seed=4)
    inject([Rule(INVERSION, (0, 1)), Rule(INVERSION, (1, 2)),
            Rule(INVERSION, (0, 2))], p)
    slots = {int(p.slot_of[r][pos]) for r in range(3) for pos in range(2)}
    assert len(slots) == 1
    for r in range(3):
        assert check_capture(p, Rule(SYMMETRY, (r,))).captured


def test_inject_inversion_chain_keeps_two_classes():
    # without the closing edge the sharing graph is bipartite: two classes
    p = make_params(seed=4)
    inject([Rule(INVERSION, (0, 1)), Rule(INVERSION, (1, 2))], p)
    slots = {int(p.slot_of[r][pos]) for r in range(3) for pos in range(2)}
    assert len(slots) == 2
    assert not check_capture(p, Rule(SYMMETRY, (0,))).captured


def test_injected_sharing_survives_a_checkpoint_round_trip(tmp_path):
    kb = random_binary_kb(n_entities=12, n_relations=3, n_facts=60, seed=2)
    params = init_params(kb.vocab, 4, np.random.default_rng(7))
    rules = [Rule(SYMMETRY, (0,)), Rule(INVERSION, (1, 2))]
    inject(rules, params)
    path = tmp_path / "ck.json"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert [s.tolist() for s in loaded.slot_of] == [s.tolist() for s in params.slot_of]
    for rule in rules:
        assert check_capture(loaded, rule).captured
    # training moves tied positions along different gradients, so only
    # shared parameters keep their boxes bitwise equal
    train_epoch(loaded, OptimizerState(), kb,
                TrainConfig(learning_rate=0.05, batch_size=16, seed=3))
    for (r, p), (s, q) in [((0, 0), (0, 1)), ((1, 0), (2, 1)), ((1, 1), (2, 0))]:
        a, b = loaded.effective_box(r, p), loaded.effective_box(s, q)
        assert a.lower.tobytes() == b.lower.tobytes()
        assert a.upper.tobytes() == b.upper.tobytes()


def test_inject_hierarchy_makes_containment_hold():
    p = make_params(seed=5)
    rule = Rule(HIERARCHY, (0, 1))
    assert not check_capture(p, rule).captured  # random boxes never nest
    plan = inject([rule], p)
    assert plan.initial_growth > 0
    assert check_capture(p, rule).captured


def test_inject_rejects_inconsistent_sets():
    p = make_params()
    with pytest.raises(InconsistentRulesError) as exc:
        inject([Rule(SYMMETRY, (0,)), Rule(ANTISYMMETRY, (0,)),
                Rule(HIERARCHY, (1, 2))], p)
    assert exc.value.report.kind == "symmetry-vs-antisymmetry"


def test_inject_rejects_noninjectable_forms():
    p = make_params()
    with pytest.raises(UnsupportedRuleError, match="antisymmetry"):
        inject([Rule(ANTISYMMETRY, (0,))], p)
    with pytest.raises(UnsupportedRuleError, match="composition"):
        inject([Rule(COMPOSITION, (0, 1, 2))], p)
    with pytest.raises(UnsupportedRuleError, match="exclusion"):
        inject([Rule(EXCLUSION, (0, 1))], p)


def test_inject_rejects_rules_mixing_arities():
    vocab = Vocabulary([f"e{i}" for i in range(4)], ["b0", "b1", "t0", "t1"],
                       [2, 2, 3, 3])
    p = init_params(vocab, 3, np.random.default_rng(0))
    rules = [Rule(HIERARCHY, (0, 1)), Rule(HIERARCHY, (2, 3))]
    with pytest.raises(RuleError, match="rules mix relations of different arities"):
        inject(rules, p)


def test_inject_higher_arity_hierarchy():
    p = make_params(arity=3, seed=6)
    rule = Rule(HIERARCHY, (0, 1))
    inject([rule], p)
    assert check_capture(p, rule).captured  # all three positions nested


def test_projection_idempotent_and_bounded():
    p = make_params(seed=7)
    rules = [Rule(HIERARCHY, (0, 1)), Rule(HIERARCHY, (1, 2)),
             Rule(INTERSECTION, (0, 2, 3))]
    plan = inject(rules, p)
    assert apply_projection(p, plan) == 0  # already a fixpoint
    rng = np.random.default_rng(1)
    for _ in range(50):
        p.box_a[:] += rng.normal(scale=0.1, size=p.box_a.shape)
        p.box_b[:] += rng.normal(scale=0.1, size=p.box_b.shape)
        growth = apply_projection(p, plan)
        assert growth <= 2 * p.d * p.n_slots
        assert apply_projection(p, plan) == 0
        for rule in rules:
            assert check_capture(p, rule).captured


def test_projection_growth_counts_bound_moves():
    # one violated dimension on one hierarchy edge: 1 or 2 bound moves
    p = make_params(bounded=False, seed=8)
    rule = Rule(HIERARCHY, (0, 1))
    plan = inject([rule], p)
    slot_inner = int(p.slot_of[0][0])
    lo, hi = p.raw_bounds(slot_inner)
    head_slot = int(p.slot_of[1][0])
    p.set_raw_bounds((slot_inner, 0), p.raw_bounds(head_slot)[0][0] - 1.0, hi[0])
    growth = apply_projection(p, plan)
    assert growth in (1, 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_projection_of_a_nan_corner_raises_rather_than_loops():
    # a NaN body corner never lies within its head, so every sweep grows the
    # head again: the sweep limit ends the loop
    p = make_params(n_rel=3, d=2, seed=10, bounded=False)
    plan = inject([Rule(HIERARCHY, (0, 1)), Rule(HIERARCHY, (1, 2))], p)
    p.box_a[int(p.slot_of[0][0]), 1] = np.nan
    with pytest.raises(ProjectionError, match="failed to reach a fixpoint"):
        apply_projection(p, plan)


def test_containment_transfers_to_sampled_points():
    # semantic soundness: points inside every body box land inside head boxes
    p = make_params(seed=9)
    rule = Rule(HIERARCHY, (0, 1))
    inject([rule], p)
    rng = np.random.default_rng(2)
    for pos in range(2):
        inner = p.effective_box(0, pos)
        outer = p.effective_box(1, pos)
        pts = rng.uniform(inner.lower, inner.upper, size=(1000, p.d))
        assert np.all(pts >= outer.lower) and np.all(pts <= outer.upper)


# Reference: the closure-based injection plan, in which every hierarchy and
# intersection rule of deductive_closure(rules) becomes one containment per
# position, with the same slot mapping, shared-slot skip and dedup as inject.

def reference_closure_inject(rules, params):
    n_positions = max({params.vocab.arity(rel) for r in rules
                       for rel in r.relations}, default=2)
    pairs = [(int(params.slot_of[a[0]][a[1]]), int(params.slot_of[b[0]][b[1]]))
             for a, b, _ in _sharing_edges(rules)]
    sharing = params.merge_slots(pairs)
    closure_containments = []
    for r in deductive_closure(rules):
        if r.form == HIERARCHY:
            body, head = r.relations[:1], r.relations[1]
        elif r.form == INTERSECTION:
            body, head = r.relations[:2], r.relations[2]
        else:
            continue
        for p in range(n_positions):
            closure_containments.append((tuple((b, p) for b in body), (head, p)))
    containments = []
    seen = set()
    for body, head in closure_containments:
        body_slots = tuple(sorted(int(params.slot_of[r][p]) for r, p in body))
        head_slot = int(params.slot_of[head[0]][head[1]])
        if head_slot in body_slots:
            continue
        key = (body_slots, head_slot)
        if key not in seen:
            seen.add(key)
            containments.append((np.array(body_slots, dtype=np.int64), head_slot))
    plan = InjectionPlan(sharing, containments)
    plan.initial_growth = apply_projection(params, plan)
    return plan


def random_injectable_rules(rng, n_rel, n_rules):
    # symmetry/inversion make shared slots, intersections share body and head
    # relations with hierarchies; duplicates and hierarchy cycles may occur
    rules = []
    while len(rules) < n_rules:
        form = str(rng.choice([SYMMETRY, INVERSION, HIERARCHY, HIERARCHY,
                               INTERSECTION, INTERSECTION]))
        rels = rng.choice(n_rel, size=FORM_ARITY[form], replace=False)
        rules.append(Rule(form, tuple(int(r) for r in rels)))
    return rules


def assert_same_boxes(p, q):
    assert p.box_a.tobytes() == q.box_a.tobytes()
    assert p.box_b.tobytes() == q.box_b.tobytes()
    assert all(np.array_equal(a, b) for a, b in zip(p.slot_of, q.slot_of))


def assert_closure_captured(p, rules):
    for rule in deductive_closure(rules):
        assert check_capture(p, rule).captured, rule


@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("bounded", [True, False])
def test_input_containments_project_like_the_closure(arity, bounded):
    n_rel, cycles = 6, 6
    fewer = grew = 0
    for seed in range(60):
        rng = np.random.default_rng([seed, arity, bounded])
        rules = random_injectable_rules(rng, n_rel, int(rng.integers(1, 9)))
        p = init_params(rule_vocab(n_rel, arity), 4, rng, bounded=bounded)
        ref = p.copy()
        plan = inject(rules, p)
        ref_plan = reference_closure_inject(rules, ref)
        assert plan.sharing == ref_plan.sharing
        assert plan.initial_growth == ref_plan.initial_growth
        assert_same_boxes(p, ref)
        assert_closure_captured(p, rules)
        fewer += len(plan.containments) < len(ref_plan.containments)
        for _ in range(cycles):
            noise_a = rng.normal(scale=0.3, size=p.box_a.shape)
            noise_b = rng.normal(scale=0.3, size=p.box_b.shape)
            for params in (p, ref):
                params.box_a += noise_a
                params.box_b += noise_b
            growth = apply_projection(p, plan)
            assert growth == apply_projection(ref, ref_plan)
            assert_same_boxes(p, ref)
            assert_closure_captured(p, rules)
            grew += growth > 0
    # the sets exercise derived constraints and real projection work
    assert fewer > 20 and grew > 100


def seen_set_containments(rules, params):
    """Containments as ``inject`` built them with a ``seen`` set beside the
    list, from ``params`` after its slots are merged; also the number of
    trivial and of repeated keys it skipped."""
    n_positions = max({params.vocab.arity(rel) for r in rules
                       for rel in r.relations}, default=2)
    containments = []
    seen = set()
    trivial = repeated = 0
    for body, head in _horn_theory(rules):
        for p in range(n_positions):
            body_slots = tuple(sorted(int(params.slot_of[r][p]) for r in body))
            head_slot = int(params.slot_of[head][p])
            if head_slot in body_slots:
                trivial += 1
                continue  # shared slots make this constraint trivially true
            key = (body_slots, head_slot)
            if key not in seen:
                seen.add(key)
                containments.append((np.array(body_slots, dtype=np.int64), head_slot))
            else:
                repeated += 1
    return containments, trivial, repeated


def test_inject_containments_equal_the_seen_set_loop():
    trivial = repeated = 0
    for seed in range(240):
        rng = np.random.default_rng([seed, 17])
        n_rel = int(rng.integers(3, 7))
        rules = random_injectable_rules(rng, n_rel, int(rng.integers(1, 11)))
        p = init_params(rule_vocab(n_rel, 2 + seed % 2), 2, rng)
        got = inject(rules, p).containments
        want, t, r = seen_set_containments(rules, p)
        trivial, repeated = trivial + t, repeated + r
        assert len(got) == len(want), rules
        for (body, head), (want_body, want_head) in zip(got, want):
            assert body.dtype == want_body.dtype and body.tolist() == want_body.tolist()
            assert type(head) is type(want_head) and head == want_head
    # the sets exercise both skips
    assert trivial > 50 and repeated > 50, (trivial, repeated)


def test_hierarchy_ontology_injects_one_containment_per_rule_position():
    kb, rules = hierarchy_ontology_kb(n_entities=20, leaf_facts=4,
                                      ancestor_facts=2, seed=0)
    p = init_params(kb.vocab, 4, np.random.default_rng(0))
    ref = p.copy()
    assert len(inject(rules, p).containments) == 2 * len(rules) == 14
    assert len(reference_closure_inject(rules, ref).containments) == 142
    assert_same_boxes(p, ref)


# -- box stats -----------------------------------------------------------------------

def test_box_stats_gmean_and_symmetry_flag():
    p = make_params(n_rel=2, bounded=False)
    set_box(p, 0, 0, [0, 0, 0], [2, 2, 2])
    set_box(p, 0, 1, [0, 0, 0], [2, 2, 2])
    set_box(p, 1, 0, [0, 0, 0], [1, 2, 4])
    set_box(p, 1, 1, [0, 0, 0], [1, 1, 0])  # degenerate side
    stats = box_stats(p)
    r0, r1 = stats["relations"][:2]
    assert r0["symmetry_shaped"] is True
    assert r0["positions"][0]["gmean_side"] == pytest.approx(2.0)
    assert r1["symmetry_shaped"] is False
    assert r1["positions"][0]["gmean_side"] == pytest.approx(2.0)
    assert r1["positions"][1]["gmean_side"] == 0.0


def test_box_stats_pairwise_relations():
    p = make_params(n_rel=3, bounded=False)
    set_box(p, 0, 0, [0, 0, 0], [1, 1, 1])
    set_box(p, 1, 0, [-1, -1, -1], [2, 2, 2])
    set_box(p, 2, 0, [5, 5, 5], [6, 6, 6])
    stats = box_stats(p)
    rel = {(e["a"], e["b"], e["position"]): e["relation"]
           for e in stats["pairs"]}
    assert rel[("r0", "r1", 0)] == "inside"
    assert rel[("r0", "r2", 0)] == "disjoint"


# -- one pass per question: the previous rule engine as the reference ------------
#
# Copied from the engine before each question became one computation: forward
# chaining re-run per (exclusion, seed) pair and again to explain a conflict,
# tied box positions found by a union-find beside the path search that
# explains them, one capture loop per form, and slot merging through a
# general-purpose union-find.

class RefUnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            lo, hi = sorted((rx, ry))
            self.parent[hi] = lo


def ref_forward_chain(seeds, clauses, parents=None):
    known = set(seeds)
    changed = True
    while changed:
        changed = False
        for body, head in clauses:
            if head not in known and body <= known:
                known.add(head)
                if parents is not None:
                    parents[head] = (body, head)
                changed = True
    return frozenset(known)


def ref_deductive_closure(rules, universe=None):
    clauses = _horn_theory(rules)
    passthrough = sorted({r for r in rules
                          if r.form not in (HIERARCHY, INTERSECTION)},
                         key=lambda r: (r.form, r.relations))
    if universe is None:
        universe = {rel for body, head in clauses for rel in body | {head}}
    universe = sorted(universe)
    out = set()
    for a in universe:
        for b in ref_forward_chain(frozenset([a]), clauses):
            if b != a:
                out.add(Rule(HIERARCHY, (a, b)))
    for i, a in enumerate(universe):
        for b in universe[i + 1:]:
            for c in ref_forward_chain(frozenset([a, b]), clauses):
                if c != a and c != b:
                    out.add(Rule(INTERSECTION, (a, b, c)))
    return passthrough + sorted(out, key=lambda r: (r.form, r.relations))


def ref_merge_path(edges, start, goal):
    adj = {}
    for a, b, rule in edges:
        adj.setdefault(a, []).append((b, rule))
        adj.setdefault(b, []).append((a, rule))
    prev = {start: None}
    queue = [start]
    while queue:
        node = queue.pop(0)
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


def ref_derivation_chain(target, seeds, clauses):
    parents = {}
    ref_forward_chain(seeds, clauses, parents)
    chain = []
    seen = set()

    def emit(rel):
        if rel in seeds or rel in seen or rel not in parents:
            return
        seen.add(rel)
        body, head = parents[rel]
        for b in body:
            emit(b)
        body_t = tuple(sorted(body))
        rule = Rule(HIERARCHY, (body_t[0], head)) if len(body_t) == 1 \
            else Rule(INTERSECTION, (*body_t, head))
        chain.append(rule)

    emit(target)
    return chain


def ref_check_consistency(rules, vocab=None):
    def name(rel):
        if vocab is not None:
            return vocab.relation_names[rel]
        return f"relation#{rel}"

    edges = _sharing_edges(rules)
    uf = RefUnionFind()
    for a, b, _ in edges:
        uf.union(a, b)
    clauses = _horn_theory(rules)
    universe = sorted({rel for body, head in clauses for rel in body | {head}})

    for r in sorted((r for r in rules if r.form == ANTISYMMETRY),
                    key=lambda r: r.relations):
        rel = r.relations[0]
        if uf.find((rel, 0)) == uf.find((rel, 1)):
            chain = ref_merge_path(edges, (rel, 0), (rel, 1))
            return ConflictReport(
                "symmetry-vs-antisymmetry",
                f"{name(rel)} is antisymmetric but its head and tail "
                f"boxes are forced equal",
                chain=chain + [r])

    for r in sorted((r for r in rules if r.form == EXCLUSION),
                    key=lambda r: r.relations):
        e1, e2 = r.relations
        for seed in universe:
            reach = ref_forward_chain(frozenset([seed]), clauses)
            if e1 in reach and e2 in reach:
                chain = (ref_derivation_chain(e1, frozenset([seed]), clauses)
                         + ref_derivation_chain(e2, frozenset([seed]), clauses))
                return ConflictReport(
                    "implied-overlap",
                    f"any fact of {name(seed)} would satisfy both "
                    f"excluded relations {name(e1)} and {name(e2)}",
                    chain=chain + [r])
        if uf.find((e1, 0)) == uf.find((e2, 0)) or uf.find((e1, 1)) == uf.find((e2, 1)):
            start, goal = ((e1, 0), (e2, 0)) if uf.find((e1, 0)) == uf.find((e2, 0)) \
                else ((e1, 1), (e2, 1))
            return ConflictReport(
                "sharing-vs-exclusion",
                f"excluded relations {name(e1)} and {name(e2)} share box "
                f"parameters at every position",
                chain=ref_merge_path(edges, start, goal) + [r])
    return None


# The capture predicates of the previous engine, over Box objects.

def _boxes_equal(a: Box, b: Box, tol: float) -> tuple[bool, dict | None]:
    for side, va, vb in (("lower", a.lower, b.lower), ("upper", a.upper, b.upper)):
        delta = np.abs(va - vb)
        j = int(np.argmax(delta))
        if delta[j] > tol:
            return False, {"dimension": j, "side": side, "delta": float(delta[j])}
    return True, None


def _contains_with_tol(outer: Box, inner: Box, tol: float) -> tuple[bool, dict | None]:
    low_gap = outer.lower - inner.lower
    j = int(np.argmax(low_gap))
    if low_gap[j] > tol:
        return False, {"dimension": j, "side": "lower", "delta": float(low_gap[j])}
    high_gap = inner.upper - outer.upper
    j = int(np.argmax(high_gap))
    if high_gap[j] > tol:
        return False, {"dimension": j, "side": "upper", "delta": float(high_gap[j])}
    return True, None


def _disjoint_dim(a: Box, b: Box, tol: float) -> int | None:
    # tol = 0 demands a strict gap (agrees with intersect() emptiness);
    # tol > 0 additionally accepts overlaps of depth at most tol
    gap = np.maximum(a.lower - b.upper, b.lower - a.upper)
    j = int(np.argmax(gap))
    threshold = -tol if tol > 0 else 0.0
    return j if gap[j] > threshold else None


def ref_check_capture(params, rule, tolerance=0.0):
    form, rels = rule.form, rule.relations
    if form == COMPOSITION:
        raise UnsupportedRuleError(
            "composition has no geometric capture condition")
    arity = params.vocab.arity(rels[0])
    if form == SYMMETRY:
        ok, w = _boxes_equal(params.effective_box(rels[0], 0),
                             params.effective_box(rels[0], 1), tolerance)
        return CaptureResult(ok, w)
    if form == INVERSION:
        for p, q in ((0, 1), (1, 0)):
            ok, w = _boxes_equal(params.effective_box(rels[0], p),
                                 params.effective_box(rels[1], q), tolerance)
            if not ok:
                w["position"] = p
                return CaptureResult(False, w)
        return CaptureResult(True, None)
    if form == ANTISYMMETRY:
        head = params.effective_box(rels[0], 0)
        tail = params.effective_box(rels[0], 1)
        j = _disjoint_dim(head, tail, tolerance)
        if j is None:
            return CaptureResult(False, {"reason": "head and tail boxes overlap"})
        return CaptureResult(True, {"dimension": j})
    if form == HIERARCHY:
        for p in range(arity):
            ok, w = _contains_with_tol(params.effective_box(rels[1], p),
                                       params.effective_box(rels[0], p),
                                       tolerance)
            if not ok:
                w["position"] = p
                return CaptureResult(False, w)
        return CaptureResult(True, None)
    if form == INTERSECTION:
        for p in range(arity):
            region = intersect(params.effective_box(rels[0], p),
                               params.effective_box(rels[1], p))
            if region is None:
                continue
            ok, w = _contains_with_tol(params.effective_box(rels[2], p),
                                       region, tolerance)
            if not ok:
                w["position"] = p
                return CaptureResult(False, w)
        return CaptureResult(True, None)
    if form == EXCLUSION:
        for p in range(arity):
            j = _disjoint_dim(params.effective_box(rels[0], p),
                              params.effective_box(rels[1], p), tolerance)
            if j is not None:
                return CaptureResult(True, {"position": p, "dimension": j})
        return CaptureResult(False, {"reason": "no position with disjoint boxes"})
    raise RuleError(f"unknown rule form {form!r}")


def ref_merge_slots(params, pairs):
    uf = RefUnionFind()
    for s, t in pairs:
        uf.union(s, t)
    mapping = {s: uf.find(s) for s in range(params.n_slots)}
    for rel in range(len(params.slot_of)):
        params.slot_of[rel] = np.array([mapping[int(s)] for s in params.slot_of[rel]],
                                       dtype=np.int64)
    return mapping


def outcome(fn, *args):
    """``fn(*args)``, or the type and text of the RuleError it raises."""
    try:
        return fn(*args)
    except RuleError as exc:
        return type(exc), str(exc)


def ref_inject(rules, params, monkeypatch):
    """``inject`` with the previous consistency check and slot merging; the
    rest of injection is not part of the comparison."""
    with monkeypatch.context() as m:
        m.setattr(rules_module, "check_consistency", ref_check_consistency)
        m.setattr(ModelParams, "merge_slots", ref_merge_slots)
        return outcome(inject, rules, params)


def random_rule_set(rng, n_rel):
    # every form, small relation counts so that conflicts of each kind occur
    forms = sorted(FORM_ARITY)
    rules = []
    for _ in range(int(rng.integers(1, 11))):
        form = forms[int(rng.integers(len(forms)))]
        rels = rng.choice(n_rel, size=FORM_ARITY[form], replace=False)
        rules.append(Rule(form, tuple(int(r) for r in rels)))
    return rules


def test_rule_engine_matches_the_previous_engine(monkeypatch):
    kinds = {}
    captured = []
    for seed in range(400):
        rng = np.random.default_rng([seed, 10])
        n_rel = int(rng.integers(3, 7))
        rules = random_rule_set(rng, n_rel)
        vocab = rule_vocab(n_rel)
        for v in (None, vocab):
            report = check_consistency(rules, v)
            expect = ref_check_consistency(rules, v)
            assert str(report) == str(expect), rules
            assert (report and report.chain) == (expect and expect.chain), rules
        if report is not None:
            assert report.kind == expect.kind
            kinds[report.kind] = kinds.get(report.kind, 0) + 1
        assert deductive_closure(rules) == ref_deductive_closure(rules)
        assert (deductive_closure(rules, range(n_rel))
                == ref_deductive_closure(rules, range(n_rel)))
        injectable = [r for r in rules if r.form in INJECTABLE_FORMS]
        p = init_params(vocab, 3, rng, bounded=bool(seed % 2))
        ref, fresh = p.copy(), p.copy()
        for subset in (rules, injectable):
            got = outcome(inject, subset, p)
            want = ref_inject(subset, ref, monkeypatch)
            if isinstance(want, InjectionPlan):
                assert got.sharing == want.sharing
                assert got.initial_growth == want.initial_growth
                assert [(b.tolist(), h) for b, h in got.containments] == \
                    [(b.tolist(), h) for b, h in want.containments]
            else:
                assert got == want
            assert_same_boxes(p, ref)
        for rule, params, tol in itertools.product(rules, (fresh, p), (0.0, 1e-6, 0.3)):
            got = outcome(check_capture, params, rule, tol)
            assert got == outcome(ref_check_capture, params, rule, tol), (rule, tol)
            captured.append(got[0])
    # every conflict kind occurred, and both capture outcomes
    assert set(kinds) == {"symmetry-vs-antisymmetry", "implied-overlap",
                          "sharing-vs-exclusion"}, kinds
    assert captured.count(True) > 1000 and captured.count(False) > 1000


# -- box stats: the report before it compared boxes in array steps -------------
#
# Copied from the engine before box_stats read bound arrays: two Box objects
# and up to four predicates per relation pair and position.

def ref_box_stats(params: ModelParams) -> dict:
    """Per relation/position box-shape report.

    Geometric mean side length uses effective (post-bounding) bounds and is
    exactly 0 when any side is degenerate.  Pairwise containment/overlap is
    reported per matching position for same-arity relation pairs.
    """
    vocab = params.vocab
    relations = []
    for rel in range(vocab.n_relations):
        positions = []
        for p in range(vocab.arity(rel)):
            box = params.effective_box(rel, p)
            sides = box.upper - box.lower
            if (sides == 0).any():
                gmean = 0.0
            else:
                gmean = float(np.exp(np.mean(np.log(sides))))
            positions.append({"position": p, "gmean_side": gmean})
        entry = {"relation": vocab.relation_names[rel], "positions": positions}
        if vocab.arity(rel) == 2:
            eq, _ = _boxes_equal(params.effective_box(rel, 0),
                                 params.effective_box(rel, 1), 0.0)
            entry["symmetry_shaped"] = eq
        relations.append(entry)
    pairs = []
    for r1 in range(vocab.n_relations):
        for r2 in range(r1 + 1, vocab.n_relations):
            if vocab.arity(r1) != vocab.arity(r2):
                continue
            for p in range(vocab.arity(r1)):
                a = params.effective_box(r1, p)
                b = params.effective_box(r2, p)
                eq, _ = _boxes_equal(a, b, 0.0)
                if eq:
                    relation = "equal"
                elif _contains_with_tol(a, b, 0.0)[0]:
                    relation = "contains"
                elif _contains_with_tol(b, a, 0.0)[0]:
                    relation = "inside"
                elif _disjoint_dim(a, b, 0.0) is not None:
                    relation = "disjoint"
                else:
                    relation = "overlap"
                pairs.append({"a": vocab.relation_names[r1],
                              "b": vocab.relation_names[r2],
                              "position": p, "relation": relation})
    return {"relations": relations, "pairs": pairs}


def random_box_params(rng):
    """1-8 relations of arity 1-3 in d 1-3, bounded or not, slots merged in
    about 30% of cases; half-integer corners, so equal, nested, touching and
    degenerate boxes occur."""
    n_rel = int(rng.integers(1, 9))
    vocab = Vocabulary(["e"], [f"r{i}" for i in range(n_rel)],
                       [int(a) for a in rng.integers(1, 4, size=n_rel)])
    p = init_params(vocab, int(rng.integers(1, 4)), rng,
                    bounded=bool(rng.integers(2)))
    p.box_a[:] = rng.integers(-3, 4, size=p.box_a.shape) / 2
    p.box_b[:] = rng.integers(-3, 4, size=p.box_b.shape) / 2
    if rng.random() < 0.3:
        p.merge_slots([(int(s), int(t)) for s, t in
                       rng.integers(p.n_slots, size=(int(rng.integers(1, 4)), 2))])
    return p


def test_box_stats_matches_the_previous_report():
    kinds = set()
    for seed in range(300):
        p = random_box_params(np.random.default_rng([seed, 3]))
        got = box_stats(p)
        assert json.dumps(got) == json.dumps(ref_box_stats(p)), seed
        kinds |= {e["relation"] for e in got["pairs"]}
    assert kinds == {"equal", "contains", "inside", "disjoint", "overlap"}
