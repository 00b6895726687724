"""Capability gate: one test per externally guaranteed behavior.

Each test enforces its stated tolerance and runtime budget and prints a
single PASS/FAIL summary line (visible under plain pytest runs).
"""
import itertools
import json
import statistics
import time

import numpy as np

from boxkb.cli import main
from boxkb.evaluation import (evaluate, metrics_from_ranks, rank_fact,
                              rank_from_scores)
from boxkb.exact_fit import (TruthTable, build_all_true, classify,
                             enumerate_universe, fit, flip_fact)
from boxkb.geometry import Box
from boxkb.kb import Fact, KnowledgeBase, Vocabulary
from boxkb.model import (dist, final_embedding, init_params, score,
                         score_batch, score_gradient)
from boxkb.rules import (ANTISYMMETRY, EXCLUSION, HIERARCHY, INTERSECTION,
                         INVERSION, SYMMETRY, Rule, apply_projection,
                         check_capture, check_consistency, deductive_closure,
                         inject)
from boxkb.synth import hierarchy_ontology_kb, random_binary_kb
from boxkb.training import (STREAM_INIT, TrainConfig, stream_rng, train_model)


def report(capsys, ok: bool, label: str, failures=()):
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, (label, list(failures)[:5])


def make_vocab(n_entities, arities):
    v = Vocabulary()
    for i in range(n_entities):
        v.entity_id(f"e{i}", create=True)
    for i, a in enumerate(arities):
        v.relation_id(f"r{i}", arity=a, create=True)
    return v


# -- 1. distance function ------------------------------------------------------


def test_distance_function_correctness(capsys):
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(11)
    n = 10_000
    lo = rng.uniform(-5, 5, n)
    hi = lo + rng.uniform(0.0, 6.0, n)
    box = Box(lo, hi)
    c, bnd = (lo + hi) / 2.0, (hi - lo) / 2.0

    # continuity: straddle the inside/outside boundary of every box by 1e-11
    sgn = rng.choice([-1.0, 1.0], n)
    delta = 1e-11
    d_in = dist(c + sgn * (bnd - delta), box, per_dim=True)
    d_out = dist(c + sgn * (bnd + delta), box, per_dim=True)
    gap = float(np.max(np.abs(d_in - d_out)))
    if gap > 1e-9:
        failures.append(f"boundary gap {gap:.3e}")

    # the vectorized per-dim values equal one-dimensional whole-point calls
    p = rng.uniform(-8, 8, n)
    vec = dist(p, box, per_dim=True)
    for i in rng.integers(0, n, 200):
        one = dist(p[i:i + 1], Box(lo[i:i + 1], hi[i:i + 1]))
        if one[0] != vec[i]:
            failures.append(f"case {i}: scalar {one[0]} != batch {vec[i]}")

    # width-1 boxes (degenerate corners) reduce to absolute deviation exactly
    same = rng.uniform(-5, 5, n)
    degenerate = Box(same, same)
    if not np.array_equal(dist(p, degenerate, per_dim=True), np.abs(p - same)):
        failures.append("w=1 reduction not exact")

    # hand-computed anchors on the box [-1, 1]
    anchor = Box(np.array([-1.0]), np.array([1.0]))
    inside = dist(np.array([0.5]), anchor)[0]
    outside = dist(np.array([2.0]), anchor)[0]
    kappa = 2.0 * 3.0 - outside  # |p - c| * w - dist
    for got, want, name in ((inside, 1 / 6, "inside"), (outside, 10 / 3,
                            "outside"), (kappa, 8 / 3, "kappa")):
        if abs(got - want) > 1e-12:
            failures.append(f"{name} anchor {got!r} != {want!r}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"too slow: {elapsed:.2f}s")
    report(capsys, not failures,
           f"distance function: {n} cases, boundary gap {gap:.1e} <= 1e-9, "
           f"w=1 and anchors exact ({elapsed:.2f}s)", failures)


# -- 2. analytic gradients -----------------------------------------------------


KINK_MARGIN = 1e-3


def far_from_kinks(params, fact):
    """Reject configurations within 1e-3 of any non-differentiable point."""
    rel = fact.relation
    pts = final_embedding(params, fact)
    for pos in range(len(fact.entities)):
        box = params.effective_box(rel, pos)
        c = (box.lower + box.upper) / 2.0
        bnd = (box.upper - box.lower) / 2.0
        t = np.abs(pts[pos] - c)
        if np.any(np.abs(t - bnd) <= KINK_MARGIN):  # containment boundary
            return False
        if np.any(t <= KINK_MARGIN):  # |p - c| kink at the center
            return False
        dvec = dist(pts[pos], box)
        if params.norm_order == 1:
            if np.any(np.abs(dvec) <= KINK_MARGIN):  # |.| inside the sum
                return False
        elif float(np.linalg.norm(dvec)) <= KINK_MARGIN:  # sqrt at zero
            return False
    for slot in set(int(s) for s in params.slot_of[rel]):
        ties = np.abs(params.box_a[slot] - params.box_b[slot])
        if np.any(ties <= KINK_MARGIN):  # min/max corner routing
            return False
    return True


def fd_gradient(params, fact, kind, idx, h=1e-5):
    arr = {"base": params.entity_base, "bump": params.entity_bump,
           "boxa": params.box_a, "boxb": params.box_b}[kind]
    out = np.zeros(params.d)
    for j in range(params.d):
        old = arr[idx, j]
        arr[idx, j] = old + h
        up = score(params, fact)
        arr[idx, j] = old - h
        down = score(params, fact)
        arr[idx, j] = old
        out[j] = (up - down) / (2 * h)
    return out


def test_score_gradient_matches_finite_differences(capsys):
    t0 = time.perf_counter()
    failures = []
    checked = 0
    worst = 0.0
    seed = itertools.count()
    for norm_order in (1, 2):
        for bounded in (True, False):
            accepted = 0
            while accepted < 250:
                s = next(seed)
                arities = (2, 3) if s % 5 == 0 else (2,)
                vocab = make_vocab(3, arities)
                params = init_params(vocab, 3, stream_rng(s, STREAM_INIT),
                                     norm_order=norm_order, bounded=bounded)
                rng = np.random.default_rng(s)
                rel = rng.integers(len(arities))
                ents = tuple(int(e) for e in
                             rng.integers(3, size=vocab.arity(int(rel))))
                fact = Fact(int(rel), ents)
                if not far_from_kinks(params, fact):
                    continue
                accepted += 1
                grads = score_gradient(params, fact)
                for (kind, idx), vec in grads.items():
                    fd = fd_gradient(params, fact, kind, idx)
                    scale = np.maximum(np.maximum(np.abs(vec), np.abs(fd)),
                                       1e-8)
                    rel_err = float(np.max(np.abs(vec - fd) / scale))
                    worst = max(worst, rel_err)
                    if rel_err >= 1e-4:
                        failures.append(
                            f"config {s} {kind}[{idx}] rel err {rel_err:.2e} "
                            f"(norm {norm_order}, bounded {bounded})")
            checked += accepted
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"too slow: {elapsed:.1f}s")
    report(capsys, not failures,
           f"score gradients: {checked} configurations vs central "
           f"differences, worst rel err {worst:.1e} < 1e-4 ({elapsed:.1f}s)",
           failures)


# -- 3. exact fit of arbitrary truth tables -------------------------------------


def table_from_bits(vocab, bits):
    keys = enumerate_universe(vocab)
    assert len(bits) == len(keys)
    return TruthTable(vocab, dict(zip(keys, map(bool, bits))))


def classification(model, vocab):
    return {key: classify(model, Fact(key[0], key[1:]))
            for key in enumerate_universe(vocab)}


def fit_with_locality_check(table, failures):
    """Flip false facts one by one; each flip must change exactly that bit."""
    model = build_all_true(table.vocab)
    prev = classification(model, table.vocab)
    for key in enumerate_universe(table.vocab):
        if table.truth[key]:
            continue
        flip_fact(model, Fact(key[0], key[1:]))
        cur = classification(model, table.vocab)
        diff = sorted(k for k in prev if prev[k] != cur[k])
        if diff != [key]:
            failures.append(f"flip of {key} changed {diff}")
            return None
        prev = cur
    if prev != table.truth:
        wrong = [k for k in prev if prev[k] != table.truth[k]]
        failures.append(f"classification off at {wrong[:3]}")
    return model


def test_exact_fit_covers_all_truth_tables(capsys):
    t0 = time.perf_counter()
    failures = []
    n_tables = 0

    vocab2 = make_vocab(2, (2,))
    for bits in itertools.product((0, 1), repeat=4):
        fit_with_locality_check(table_from_bits(vocab2, bits), failures)
        n_tables += 1

    vocab3 = make_vocab(2, (3,))
    for bits in itertools.product((0, 1), repeat=8):
        fit_with_locality_check(table_from_bits(vocab3, bits), failures)
        n_tables += 1

    rng = np.random.default_rng(31)
    vocab_r = make_vocab(3, (2, 2))
    for _ in range(100):
        bits = rng.integers(0, 2, 18)
        table = table_from_bits(vocab_r, bits)
        fit_with_locality_check(table, failures)
        # the public one-shot fit agrees bit for bit
        model = fit(table)
        if not model.exact or classification(model, vocab_r) != table.truth:
            failures.append(f"fit() missed table {bits.tolist()}")
        n_tables += 1

    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"too slow: {elapsed:.1f}s")
    report(capsys, not failures,
           f"exact fit: {n_tables} truth tables (16 binary + 256 ternary + "
           f"100 random 3-entity) bit-exact with local flips ({elapsed:.1f}s)",
           failures)


# -- 4. parameter sharing forces exact score identities --------------------------


def test_shared_boxes_give_exact_score_identities(capsys):
    t0 = time.perf_counter()
    failures = []
    trials = 0
    for draw in range(100):
        vocab = make_vocab(12, (2, 2, 2))
        params = init_params(vocab, 8, stream_rng(draw, STREAM_INIT))
        inject([Rule(SYMMETRY, (0,)), Rule(INVERSION, (1, 2))], params)
        rng = np.random.default_rng(1000 + draw)
        for _ in range(50):
            a, b = (int(x) for x in rng.integers(12, size=2))
            s_ab = score(params, Fact(0, (a, b)))
            s_ba = score(params, Fact(0, (b, a)))
            if s_ab != s_ba:
                failures.append(f"symmetric score {s_ab!r} != {s_ba!r}")
            r1 = score(params, Fact(1, (a, b)))
            r2 = score(params, Fact(2, (b, a)))
            if r1 != r2:
                failures.append(f"inverse score {r1!r} != {r2!r}")
            trials += 2
    elapsed = time.perf_counter() - t0
    report(capsys, not failures and trials == 10_000,
           f"shared boxes: {trials} symmetry/inversion score identities, "
           f"bit-exact equality ({elapsed:.1f}s)", failures)


# -- 5. rule engine: closure, consistency, projection ----------------------------
#
# Independent semantic oracle: over a 2-entity universe a binary relation has
# 4 ground atoms; a rule set entails a candidate iff every interpretation
# satisfying the set satisfies the candidate.


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
        else:
            r1, r2, r3 = rule.relations
            ok &= ~(atom(r1, a, b) & atom(r2, a, b)) | atom(r3, a, b)
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


def closure_set(rules, n_rel):
    return {r for r in deductive_closure(rules, universe=range(n_rel))
            if r.form in (HIERARCHY, INTERSECTION)}


def check_closure_against_oracle(rule_sets, n_rel, failures):
    candidates = candidate_rules(n_rel)
    interp = all_interpretations(n_rel)
    sats = {c: oracle_sat(c, interp) for c in candidates}
    for rules in rule_sets:
        models = np.ones(len(interp), dtype=bool)
        for r in rules:
            models &= sats[r]
        entailed = {c for c in candidates if (sats[c] | ~models).all()}
        if closure_set(rules, n_rel) != entailed:
            failures.append(f"closure != entailment for {sorted(rules)}")


def test_rule_engine_closure_consistency_projection(capsys):
    t0 = time.perf_counter()
    failures = []

    # closure calculus == semantic entailment, exhaustively up to 3 relations
    n_sets = 0
    for n_rel in (1, 2, 3):
        candidates = candidate_rules(n_rel)
        subsets = [[candidates[i] for i in range(len(candidates))
                    if mask >> i & 1]
                   for mask in range(1 << len(candidates))]
        check_closure_against_oracle(subsets, n_rel, failures)
        n_sets += len(subsets)
    rng = np.random.default_rng(41)
    candidates4 = candidate_rules(4)
    random_sets = []
    for _ in range(200):
        p = rng.uniform(0.1, 0.6)
        picked = [c for c in candidates4 if rng.random() < p]
        random_sets.append(picked)
    check_closure_against_oracle(random_sets, 4, failures)
    n_sets += len(random_sets)

    # both conflict patterns, direct and derived
    direct_sym = [Rule(SYMMETRY, (0,)), Rule(ANTISYMMETRY, (0,))]
    odd_cycle = [Rule(INVERSION, (0, 1)), Rule(INVERSION, (1, 2)),
                 Rule(INVERSION, (0, 2)), Rule(ANTISYMMETRY, (0,))]
    for rules in (direct_sym, odd_cycle):
        rep = check_consistency(rules)
        if rep is None or rep.kind != "symmetry-vs-antisymmetry":
            failures.append(f"missed symmetry conflict in {rules}")
    overlap = [Rule(HIERARCHY, (0, 1)), Rule(HIERARCHY, (0, 2)),
               Rule(EXCLUSION, (1, 2))]
    chained = [Rule(HIERARCHY, (0, 1)), Rule(HIERARCHY, (1, 2)),
               Rule(EXCLUSION, (0, 2))]
    for rules in (overlap, chained):
        rep = check_consistency(rules)
        if rep is None or rep.kind != "implied-overlap":
            failures.append(f"missed overlap conflict in {rules}")

    # projection: idempotent, and capture survives perturb-project cycles
    vocab = make_vocab(6, (2, 2, 2, 2))
    params = init_params(vocab, 8, stream_rng(5, STREAM_INIT))
    rules = [Rule(SYMMETRY, (0,)), Rule(HIERARCHY, (0, 1)),
             Rule(INVERSION, (1, 2)), Rule(INTERSECTION, (0, 1, 3))]
    plan = inject(rules, params)
    prng = np.random.default_rng(6)
    for cycle in range(500):
        params.box_a[:] += prng.normal(scale=0.08, size=params.box_a.shape)
        params.box_b[:] += prng.normal(scale=0.08, size=params.box_b.shape)
        apply_projection(params, plan)
        if apply_projection(params, plan) != 0:
            failures.append(f"projection not idempotent at cycle {cycle}")
            break
        bad = [r for r in rules if not check_capture(params, r).captured]
        if bad:
            failures.append(f"capture lost at cycle {cycle}: {bad}")
            break

    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"too slow: {elapsed:.1f}s")
    report(capsys, not failures,
           f"rule engine: closure == entailment on {n_sets} rule sets, "
           f"conflicts flagged, projection idempotent through 500 cycles "
           f"({elapsed:.1f}s)", failures)


# -- 6. training memorizes a random KB -------------------------------------------


def test_training_memorizes_random_kb(capsys):
    t0 = time.perf_counter()
    kb = random_binary_kb(n_entities=20, n_relations=3, n_facts=100, seed=0)
    params = init_params(kb.vocab, 60, stream_rng(0, STREAM_INIT))
    cfg = TrainConfig(learning_rate=0.05, margin=3.0, negatives=10,
                      adversarial_temperature=1.0, batch_size=128,
                      epochs=600, seed=0, checkpoint_every=10 ** 9,
                      filter_train_negatives=True)
    history = train_model(params, kb, cfg)
    mrr = evaluate(params, kb, "train", workers=1)["mrr"]
    elapsed = time.perf_counter() - t0
    failures = []
    if len(history) > 2000:
        failures.append(f"{len(history)} epochs > 2000")
    if mrr < 0.95:
        failures.append(f"train MRR {mrr:.4f} < 0.95")
    if elapsed >= 300.0:
        failures.append(f"too slow: {elapsed:.1f}s")
    report(capsys, not failures,
           f"memorization: 20 entities / 3 relations / 100 facts, d=60, "
           f"{len(history)} epochs, filtered train MRR {mrr:.4f} >= 0.95 "
           f"({elapsed:.1f}s)", failures)


# -- 7. rule injection improves held-out ranking ----------------------------------


def _hierarchy_run(seed, injected):
    kb, rules = hierarchy_ontology_kb(n_entities=300, seed=seed)
    params = init_params(kb.vocab, 50, stream_rng(seed, STREAM_INIT))
    plan = inject(rules, params) if injected else None
    cfg = TrainConfig(learning_rate=0.05, margin=3.0, negatives=10,
                      adversarial_temperature=1.0, batch_size=256,
                      epochs=150, seed=seed, checkpoint_every=10 ** 9,
                      filter_train_negatives=True)
    train_model(params, kb, cfg, projection_plan=plan)
    return evaluate(params, kb, "test", workers=1)["mrr"]


def test_rule_injection_improves_heldout_ranking(capsys):
    t0 = time.perf_counter()
    deltas = []
    for seed in (0, 1, 2):
        baseline = _hierarchy_run(seed, injected=False)
        injected = _hierarchy_run(seed, injected=True)
        deltas.append(injected - baseline)
    median = statistics.median(deltas)
    elapsed = time.perf_counter() - t0
    failures = []
    if median < 0.10:
        failures.append(f"median MRR delta {median:.4f} < 0.10 ({deltas})")
    if elapsed >= 900.0:
        failures.append(f"too slow: {elapsed:.1f}s")
    report(capsys, not failures,
           f"rule injection: hierarchy ontology, held-out closure facts, "
           f"median MRR gain {median:+.3f} >= +0.10 over 3 seeds "
           f"({elapsed:.0f}s)", failures)


# -- 8. scoring cost scales linearly in d and arity -------------------------------


def per_fact_seconds(params, relation, ents, repeats=9):
    score_batch(params, relation, ents)  # warm-up
    best = min(_timed(params, relation, ents) for _ in range(repeats))
    return best / len(ents)


def _timed(params, relation, ents):
    t0 = time.perf_counter()
    score_batch(params, relation, ents)
    return time.perf_counter() - t0


def test_scoring_time_scales_gently_with_dim_and_arity(capsys):
    vocab = make_vocab(64, (2, 4))
    p200 = init_params(vocab, 200, stream_rng(0, STREAM_INIT))
    p400 = init_params(vocab, 400, stream_rng(0, STREAM_INIT))
    rng = np.random.default_rng(8)
    ents2 = rng.integers(0, 64, size=(4096, 2))
    ents4 = rng.integers(0, 64, size=(4096, 4))

    dim_ratio = arity_ratio = np.inf
    for _ in range(3):  # timing noise: keep the best of three measurements
        base = per_fact_seconds(p200, 0, ents2)
        dim_ratio = min(dim_ratio, per_fact_seconds(p400, 0, ents2) / base)
        arity_ratio = min(arity_ratio, per_fact_seconds(p200, 1, ents4) / base)
        if dim_ratio <= 2.5 and arity_ratio <= 2.5:
            break
    failures = []
    if dim_ratio > 2.5:
        failures.append(f"d 200->400 slowed scoring {dim_ratio:.2f}x")
    if arity_ratio > 2.5:
        failures.append(f"arity 2->4 slowed scoring {arity_ratio:.2f}x")
    report(capsys, not failures,
           f"scoring cost: d 200->400 ratio {dim_ratio:.2f}x, arity 2->4 "
           f"ratio {arity_ratio:.2f}x, both <= 2.5x", failures)


# -- 9. ranking metric protocol ---------------------------------------------------


def test_ranking_metric_protocol(capsys):
    failures = []

    m = metrics_from_ranks([1, 2, 4], ks=(1, 3, 10))
    if m["mr"] != (1 + 2 + 4) / 3:
        failures.append(f"MR {m['mr']!r} != 7/3")
    if m["mrr"] != (1 + 1 / 2 + 1 / 4) / 3:
        failures.append(f"MRR {m['mrr']!r} != 7/12")
    if abs(m["hits"]["1"] - 1 / 3) > 1e-12 or abs(m["hits"]["3"] - 2 / 3) \
            > 1e-12 or m["hits"]["10"] != 1.0:
        failures.append(f"hits {m['hits']}")

    # filtering can only improve a rank: 4-candidate scenarios with ties and
    # with known-true competitors excluded from the ranking
    rng = np.random.default_rng(17)
    for trial in range(500):
        scores = rng.integers(0, 3, size=4).astype(float)  # many ties
        target = int(rng.integers(4))
        include = rng.random(4) < 0.5
        raw = rank_from_scores(scores, target)
        filtered = rank_from_scores(scores, target, include)
        if filtered > raw:
            failures.append(f"trial {trial}: filtered {filtered} > raw {raw}")
    # the canonical case: both better-scoring corruptions are known facts
    scores = np.array([3.0, 1.0, 2.0, 4.0])
    include = np.array([True, False, False, True])
    if rank_from_scores(scores, 0) != 3 or \
            rank_from_scores(scores, 0, include) != 1:
        failures.append("constructed filtering scenario off")

    # end to end on a tiny KB: filtered metrics never worse than raw
    vocab = make_vocab(4, (2,))
    all_pairs = [Fact(0, (a, b)) for a in range(4) for b in range(4) if a != b]
    rng.shuffle(all_pairs)
    kb = KnowledgeBase(vocab=vocab, train=tuple(all_pairs[:6]), valid=(),
                       test=tuple(all_pairs[6:9]), n_scored_relations=1)
    params = init_params(vocab, 5, stream_rng(3, STREAM_INIT))
    for fact in kb.test:
        for pos in (0, 1):
            if rank_fact(params, kb, fact, pos, True) > \
                    rank_fact(params, kb, fact, pos, False):
                failures.append(f"filtered rank worse for {fact} pos {pos}")
    m = evaluate(params, kb, "test")
    if m["mr"] > m["raw"]["mr"] or m["mrr"] < m["raw"]["mrr"]:
        failures.append("aggregate filtered metrics worse than raw")

    # monotone transforms leave every rank (hence metric) unchanged
    for trial in range(200):
        scores = rng.standard_normal(7)
        target = int(rng.integers(7))
        include = rng.random(7) < 0.7
        base = rank_from_scores(scores, target, include)
        for transformed in (scores * 4.0, scores / 8.0):
            if rank_from_scores(transformed, target, include) != base:
                failures.append(f"transform changed rank on trial {trial}")

    report(capsys, not failures,
           "ranking protocol: anchors exact, filtered <= raw on 500 "
           "scenarios, metrics invariant under monotone transforms", failures)


# -- 10. bit-reproducible training ------------------------------------------------


def test_training_runs_are_reproducible(capsys, tmp_path):
    train = tmp_path / "train.tsv"
    valid = tmp_path / "valid.tsv"
    kb = random_binary_kb(n_entities=10, n_relations=2, n_facts=40, seed=1)
    names = kb.vocab
    lines = [f"{names.entity_names[f.entities[0]]}\t"
             f"{names.relation_names[f.relation]}\t"
             f"{names.entity_names[f.entities[1]]}" for f in kb.train]
    train.write_text("\n".join(lines[:32]) + "\n", encoding="utf-8")
    valid.write_text("\n".join(lines[32:]) + "\n", encoding="utf-8")

    outputs = []
    for name in ("first", "second"):
        outdir = tmp_path / name
        code = main(["train", "--train", str(train), "--valid", str(valid),
                     "--outdir", str(outdir), "--d", "8", "--epochs", "20",
                     "--checkpoint-every", "5", "--batch-size", "16",
                     "--negatives", "4", "--seed", "9", "--workers", "1"])
        assert code == 0
        outputs.append(outdir)
    same_best = (outputs[0] / "best.json").read_bytes() == \
        (outputs[1] / "best.json").read_bytes()
    same_last = (outputs[0] / "checkpoint.json").read_bytes() == \
        (outputs[1] / "checkpoint.json").read_bytes()
    report(capsys, same_best and same_last,
           "determinism: two identical train runs, byte-identical best and "
           "final checkpoints at --workers 1",
           [] if same_best and same_last else ["checkpoint bytes differ"])
