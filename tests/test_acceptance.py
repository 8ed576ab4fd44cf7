"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Criteria 1-5, 7, 8 pin exact values or oracle
tolerances; criterion 6 runs the protocol property checks on the frozen
regression fixture (the reference study's corpus is private, so published
headline numbers are not reproducible at desk scale by design).
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate

from aia import attacks, stats
from aia.attacks import BUILTIN_TARGETS
from aia.cli import _write_json
from aia.features import (
    FeatureContext,
    build_distilled,
    build_match_matrix,
    build_player_matrix,
)
from aia.resampling import enn_undersample, smote_oversample
from aia.synth import FIXTURE_CONFIG, NumericEffect, SynthConfig, generate_population
from aia.validation import hypothesis_table


FIXTURE_BUDGET_S = 600.0
_fixture_clock = {"start": None}


def _stamp(criterion: str, detail: str = "") -> None:
    suffix = f" - {detail}" if detail else ""
    print(f"\nACCEPTANCE {criterion}: PASS{suffix}")


@pytest.fixture(scope="module")
def fixture_assets():
    if _fixture_clock["start"] is None:
        _fixture_clock["start"] = time.monotonic()
    pop = generate_population(FIXTURE_CONFIG)
    ctx = FeatureContext.default()
    P = build_player_matrix(pop.players, pop.matches, ctx)
    M, aug = build_match_matrix(pop.players, pop.matches, ctx)
    variants = build_distilled(M, aug, n_variants=4, seed=7)
    return pop, P, M, aug, variants


# ---------------------------------------------------------------------------
# 1. Table 8 reproduction (paper-exact)
# ---------------------------------------------------------------------------


def test_criterion_1_hypothesis_ledger_reproduction():
    start = time.perf_counter()
    ledger = hypothesis_table(alpha=0.05)
    elapsed = time.perf_counter() - start
    counts = ledger.counts()
    assert counts["dummy_vs_best_model"] == (5, 9)
    assert counts["dummy_vs_naive"] == (4, 9)
    assert counts["dummy_vs_expert"] == (9, 9)
    assert counts["sophisticated_vs_indiscriminate"] == (7, 7)
    expert = next(f for f in ledger.families if f.name == "dummy_vs_expert")
    assert all(r.p_value < 0.00001 for r in expert.results)
    assert elapsed < 1.0
    _stamp("1 (ledger reproduction)",
           f"5/9, 4/9, 9/9 (p<1e-5), 7/7 in {elapsed * 1000:.0f} ms")


# ---------------------------------------------------------------------------
# 2. Sample size (paper-exact)
# ---------------------------------------------------------------------------


def test_criterion_2_sample_size():
    stats.required_sample_size(0.95, 0.05, 0.5, 7_000_000)  # warm path
    start = time.perf_counter()
    n = stats.required_sample_size(0.95, 0.05, 0.5, 7_000_000)
    elapsed = time.perf_counter() - start
    assert abs(n - 384) <= 1
    assert elapsed < 0.001
    _stamp("2 (sample size)", f"n={n} in {elapsed * 1e6:.0f} us")


# ---------------------------------------------------------------------------
# 3. Probability-averaging reference example (paper-exact)
# ---------------------------------------------------------------------------


def test_criterion_3_probability_averaging():
    vectors = [[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.8, 0.2]]
    avg = attacks.average_probabilities(vectors)
    assert abs(avg[1] - 0.325) < 1e-12
    assert int(np.argmax(avg)) == 0  # the below-threshold class wins
    _stamp("3 (probability averaging)", "avg=0.325, below-threshold class")


# ---------------------------------------------------------------------------
# 4. Statistical oracles over 1000 random vectors
# ---------------------------------------------------------------------------


def _rank_oracle(values):
    out = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        out.append(less + (equal + 1) / 2.0)
    return out


def _pearson_oracle(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def _t_p_quadrature(t, df):
    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(
        df * math.pi)
    tail, _ = integrate.quad(
        lambda u: c * (1 + u * u / df) ** (-(df + 1) / 2), abs(t), np.inf)
    return 2 * tail


def _chi2_p_quadrature(x, df):
    c = 1.0 / (2 ** (df / 2) * math.exp(math.lgamma(df / 2)))
    tail, _ = integrate.quad(
        lambda u: c * u ** (df / 2 - 1) * math.exp(-u / 2), x, np.inf)
    return tail


def test_criterion_4_statistical_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked_s = 0
    while checked_s < 500:
        n = int(rng.integers(5, 25))
        x = rng.integers(0, 8, n).astype(float).tolist()
        y = rng.normal(size=n).tolist()
        if len(set(x)) < 2:
            continue
        rho, p = stats.spearman(x, y)
        rho_oracle = _pearson_oracle(_rank_oracle(x), _rank_oracle(y))
        assert abs(rho - rho_oracle) < 1e-12
        if abs(rho) < 1.0:
            t = rho * math.sqrt((n - 2) / (1 - rho * rho))
            assert abs(p - _t_p_quadrature(t, n - 2)) < 1e-8
        checked_s += 1

    checked_c = 0
    while checked_c < 500:
        n = int(rng.integers(9, 40))
        x = [str(v) for v in rng.integers(0, 3, n)]
        y = [str(v) for v in rng.integers(0, 3, n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        v, p = stats.cramers_v(x, y)
        # brute-force contingency oracle
        xs, ys = sorted(set(x)), sorted(set(y))
        table = [[0] * len(ys) for _ in xs]
        for a, b in zip(x, y):
            table[xs.index(a)][ys.index(b)] += 1
        chi2 = 0.0
        for i in range(len(xs)):
            for j in range(len(ys)):
                expected = sum(table[i]) * sum(r[j] for r in table) / n
                chi2 += (table[i][j] - expected) ** 2 / expected
        v_oracle = math.sqrt(chi2 / (n * (min(len(xs), len(ys)) - 1)))
        assert abs(v - v_oracle) < 1e-12
        df = (len(xs) - 1) * (len(ys) - 1)
        assert abs(p - _chi2_p_quadrature(chi2, df)) < 1e-8
        checked_c += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _stamp("4 (statistical oracles)",
           f"{checked_s + checked_c} vectors in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 5. Planted-correlation recovery over 20 seeds
# ---------------------------------------------------------------------------


def test_criterion_5_correlation_recovery():
    start = time.perf_counter()
    ctx = FeatureContext.default()
    target_attr = "purchase_habits"
    planted_family = {"mean_cosmetics_price", "total_cosmetics_price"}
    measured = []
    top_hits = 0
    for seed in range(20):
        config = SynthConfig(
            n_players=500, matches_range=(5, 8),
            numeric_effects=(NumericEffect("cosmetics_price", target_attr, 0.4),),
            seed=3000 + seed)
        pop = generate_population(config)
        matrix = build_player_matrix(pop.players, pop.matches, ctx)
        report = stats.correlation_report(
            stats.correlation_scan(matrix, pop.labels), alpha=0.01, top_k=3)
        codes = [("never", "rarely", "regularly").index(
            pop.labels[o].purchase_habits) for o in matrix.row_owner]
        values = [float(v) for v in
                  matrix.column_values("mean_cosmetics_price")]
        rho, p = stats.spearman(values, codes)
        assert p < 0.01
        measured.append(rho)
        ranked = report.get(target_attr, [])
        if ranked and ranked[0].feature_name in planted_family:
            top_hits += 1
    mean_rho = float(np.mean(measured))
    elapsed = time.perf_counter() - start
    assert abs(mean_rho - 0.40) <= 0.05
    assert top_hits >= 18
    assert elapsed < 120.0
    _stamp("5 (correlation recovery)",
           f"mean rho={mean_rho:.3f}, top-1 in {top_hits}/20 seeds, "
           f"{elapsed:.0f} s")


# ---------------------------------------------------------------------------
# 6. Protocol properties on the regression fixture
# ---------------------------------------------------------------------------


def test_criterion_6a_player_disjoint_splits(fixture_assets):
    pop, P, M, aug, variants = fixture_assets
    _, runs = attacks.one_match_aia(
        variants[:2], pop.labels, algorithms=("decision_tree",), seed=4,
        grids=attacks.DESK_GRIDS, keep_models="decision_tree",
        attributes=("occupation", "age_bin"))
    for run in runs:
        for attribute, (train, val, test) in run.splits.items():
            assert not (set(train) & set(test))
            assert not (set(train) & set(val))
            assert not (set(val) & set(test))
    with pytest.raises(Exception):
        attacks._check_disjoint([1], [1], "must fail")
    _stamp("6a (player-disjoint splits)")


def test_criterion_6b_top2_never_below_top1(fixture_assets):
    pop, P, M, aug, variants = fixture_assets
    _, runs = attacks.one_match_aia(
        variants, pop.labels, algorithms=("random_forest",), seed=5,
        grids=attacks.DESK_GRIDS, keep_models="random_forest",
        attributes=("age_bin", "purchase_habits", "conscientiousness"))
    report = attacks.indiscriminate_aia(runs, pop.labels, n=30, draws=40,
                                        seed=11)
    for attribute, table in report.metric_tables.items():
        assert table["top2"]["mean"] >= table["top1"]["mean"]
    _stamp("6b (top-2 >= top-1)",
           ", ".join(f"{a}: {t['top1']['mean']:.2f}->{t['top2']['mean']:.2f}"
                     for a, t in report.metric_tables.items()))


def test_criterion_6c_planted_signal_beats_dummy(fixture_assets):
    pop, P, M, aug, variants = fixture_assets
    planted = ("age_bin", "occupation", "purchase_habits")
    simple = attacks.simple_aia(
        P, pop.labels,
        algorithms=("logistic_regression", "decision_tree", "random_forest",
                    "dummy_stratified"),
        seed=5, grids=attacks.DESK_GRIDS, attributes=planted)
    margins = {}
    for attribute in planted:
        table = simple.metric_tables[attribute]
        best = max(v["mean"] for k, v in table.items()
                   if k != "dummy_stratified")
        margins[attribute] = best - table["dummy_stratified"]["mean"]
        assert margins[attribute] >= 0.10

    naive, _ = attacks.one_match_aia(
        [M] * 4, pop.labels, algorithms=("random_forest",), seed=5,
        grids=attacks.DESK_GRIDS, attributes=("occupation",))
    expert, _ = attacks.one_match_aia(
        variants, pop.labels, algorithms=("random_forest",), seed=5,
        grids=attacks.DESK_GRIDS, attributes=("occupation",))
    naive_f1 = naive.metric_tables["occupation"]["random_forest"]["mean"]
    expert_f1 = expert.metric_tables["occupation"]["random_forest"]["mean"]
    assert expert_f1 > naive_f1
    _stamp("6c (planted signal beats dummy; distilled beats naive)",
           f"margins={{{', '.join(f'{a}: +{m:.2f}' for a, m in margins.items())}}}, "
           f"one-match occupation {naive_f1:.2f} -> {expert_f1:.2f}")


def test_criterion_6d_averaging_helps(fixture_assets):
    pop, P, M, aug, variants = fixture_assets
    _, runs = attacks.one_match_aia(
        variants, pop.labels, algorithms=("random_forest",), seed=5,
        grids=attacks.DESK_GRIDS, keep_models="random_forest",
        attributes=("occupation", "age_bin"))
    report = attacks.sophisticated_aia(runs, pop.labels, n_sweep=(1, 30),
                                       draws=40, seed=9)
    details = []
    for attribute, curve in report.curves.items():
        first, last = curve[0], curve[-1]
        assert last["mean"] >= first["mean"] - first["std"]
        details.append(f"{attribute}: {first['mean']:.2f}->{last['mean']:.2f}")
    _stamp("6d (averaging helps)", ", ".join(details))


def test_criterion_6e_targeted_precision(fixture_assets):
    pop, P, M, aug, variants = fixture_assets
    report = attacks.targeted_aia(
        BUILTIN_TARGETS["very_young"], variants, pop.labels,
        n_sweep=(1, 10, 30), repeats=5, draws=10, seed=13,
        grids=attacks.DESK_GRIDS)
    precision = {c["n"]: c["mean"] for c in report.curves["precision"]}
    recall = {c["n"]: c["mean"] for c in report.curves["recall"]}
    assert precision[10] >= 0.9
    elapsed = time.monotonic() - _fixture_clock["start"]
    assert elapsed < FIXTURE_BUDGET_S
    _stamp("6e (targeted precision)",
           f"precision@10={precision[10]:.2f}, recall@10={recall[10]:.2f} "
           f"(reported); fixture suite {elapsed:.0f} s")


# ---------------------------------------------------------------------------
# 7. Resampler invariants
# ---------------------------------------------------------------------------


def test_criterion_7_resampler_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(0)

    # SMOTE: balance plus segment membership for every synthetic point.
    minority = rng.normal(size=(12, 3))
    majority = rng.normal(loc=5.0, size=(48, 3))
    X = np.vstack([majority, minority])
    y = ["maj"] * 48 + ["min"] * 12
    X_out, y_out = smote_oversample(X, y, k=5, seed=4, classes=["maj", "min"])
    assert sum(1 for v in y_out if v == "min") == 48
    assert sum(1 for v in y_out if v == "maj") == 48
    synth = X_out[60:]
    for point in synth:
        on_some_segment = False
        for i in range(len(minority)):
            for j in range(len(minority)):
                if i == j:
                    continue
                a, b = minority[i], minority[j]
                direction = b - a
                denom = float(direction @ direction)
                u = float((point - a) @ direction) / denom
                if -1e-9 <= u <= 1.0 + 1e-9 and np.allclose(
                        point, a + u * direction, atol=1e-9):
                    on_some_segment = True
                    break
            if on_some_segment:
                break
        assert on_some_segment

    # ENN: removals equal the O(n^2) oracle on 200-row sets.
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(200, 2))
        y = ["a" if x0 + rng.normal(0, 0.8) > 0 else "b" for x0 in X[:, 0]]
        X_out, y_out = enn_undersample(X, y, k=3, classes=["a", "b"])
        removed = []
        for i in range(200):
            dists = sorted((float(((X[i] - X[j]) ** 2).sum()), j)
                           for j in range(200) if j != i)
            votes = {"a": 0, "b": 0}
            for _, j in dists[:3]:
                votes[y[j]] += 1
            majority = "a" if votes["a"] >= votes["b"] else "b"
            if majority != y[i]:
                removed.append(i)
        kept = [i for i in range(200) if i not in set(removed)]
        assert np.array_equal(X_out, X[kept])
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _stamp("7 (resampler invariants)", f"{elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 8. Determinism across reruns
# ---------------------------------------------------------------------------


def test_criterion_8_byte_identical_reports(fixture_assets, tmp_path):
    pop, P, M, aug, variants = fixture_assets
    kwargs = dict(algorithms=("decision_tree", "dummy_stratified"), seed=17,
                  outer_folds=3, grids=attacks.DESK_GRIDS,
                  attributes=("age_bin", "occupation"))
    blobs = []
    for run_id in ("a", "b", "c"):
        report = attacks.simple_aia(P, pop.labels, **kwargs)
        path = tmp_path / f"{run_id}.json"
        _write_json(path, report.to_json_dict())
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]

    tgt = []
    for _ in range(2):
        report = attacks.targeted_aia(
            BUILTIN_TARGETS["very_young"], variants[:2], pop.labels,
            n_sweep=(5,), repeats=2, draws=5, seed=23,
            grids=attacks.DESK_GRIDS)
        tgt.append(json.dumps(report.to_json_dict(), sort_keys=True))
    assert tgt[0] == tgt[1]
    _stamp("8 (determinism)", "byte-identical across reruns")
