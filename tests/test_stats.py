import math

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import rankdata

from aia import stats
from aia.errors import AiaError, DegenerateInput, DomainError, LengthMismatch


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def rank_oracle(values):
    """Average ranks by brute force (no numpy argsort tricks)."""
    n = len(values)
    ranks = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        # positions less+1 .. less+equal share the mean rank
        ranks.append(less + (equal + 1) / 2.0)
    return ranks


def pearson_oracle(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def spearman_oracle(x, y):
    return pearson_oracle(rank_oracle(x), rank_oracle(y))


def t_two_sided_p_oracle(t, df):
    """Two-sided t-tail by quadrature over the density formula."""
    c = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)) / math.sqrt(df * math.pi)

    def pdf(u):
        return c * (1.0 + u * u / df) ** (-(df + 1) / 2.0)

    tail, _ = integrate.quad(pdf, abs(t), np.inf)
    return 2.0 * tail


def chi2_sf_oracle(x, df):
    c = 1.0 / (2.0 ** (df / 2.0) * math.exp(math.lgamma(df / 2.0)))

    def pdf(u):
        return c * u ** (df / 2.0 - 1.0) * math.exp(-u / 2.0)

    tail, _ = integrate.quad(pdf, x, np.inf)
    return tail


def cramers_v_oracle(x, y):
    xs = sorted(set(x), key=str)
    ys = sorted(set(y), key=str)
    n = len(x)
    table = [[0] * len(ys) for _ in xs]
    for a, b in zip(x, y):
        table[xs.index(a)][ys.index(b)] += 1
    chi2 = 0.0
    for i in range(len(xs)):
        for j in range(len(ys)):
            row = sum(table[i])
            col = sum(table[r][j] for r in range(len(xs)))
            expected = row * col / n
            chi2 += (table[i][j] - expected) ** 2 / expected
    return math.sqrt(chi2 / (n * (min(len(xs), len(ys)) - 1))), chi2


# ---------------------------------------------------------------------------
# Distribution primitives
# ---------------------------------------------------------------------------


def test_normal_quantile_matches_tabulated_values():
    assert stats.normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-10)
    assert stats.normal_quantile(0.95) == pytest.approx(1.6448536269514722, abs=1e-10)
    assert stats.normal_quantile(0.995) == pytest.approx(2.5758293035489004, abs=1e-10)
    assert stats.normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert stats.normal_quantile(0.025) == pytest.approx(-1.959963984540054, abs=1e-10)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def test_normal_quantile_round_trips_through_cdf():
    for p in np.linspace(1e-6, 1 - 1e-6, 41):
        assert normal_cdf(stats.normal_quantile(float(p))) == pytest.approx(p, abs=1e-12)


def test_chi2_sf_against_quadrature():
    for x, df in [(0.5, 1), (3.84, 1), (5.99, 2), (10.0, 4), (25.0, 9), (1.2, 7)]:
        assert stats.chi2_sf(x, df) == pytest.approx(chi2_sf_oracle(x, df), abs=1e-10)


def test_t_two_sided_against_quadrature():
    for t, df in [(0.0, 5), (1.0, 3), (2.1009, 18), (2.5, 30), (7.44, 38), (0.3, 100)]:
        assert stats.t_sf_two_sided(t, df) == pytest.approx(
            t_two_sided_p_oracle(t, df), abs=1e-10)


def test_distribution_functions_dense_sweep_below_1e10():
    # The implementation promise is |abs error| < 1e-10; scipy is the
    # independent reference over a dense grid including both tails.
    from scipy import stats as sps

    for p in np.linspace(1e-9, 1 - 1e-9, 301):
        assert abs(stats.normal_quantile(float(p)) - sps.norm.ppf(p)) < 1e-10
    for x in np.linspace(0.01, 150, 120):
        for df in (1, 2, 9, 38, 100):
            assert abs(stats.chi2_sf(float(x), df) - sps.chi2.sf(x, df)) < 1e-10
    for t in np.linspace(0.0, 30, 100):
        for df in (1, 8, 38, 200):
            assert abs(stats.t_sf_two_sided(float(t), df)
                       - 2 * sps.t.sf(t, df)) < 1e-10


# ---------------------------------------------------------------------------
# Spearman
# ---------------------------------------------------------------------------


def test_spearman_identity_and_reversal():
    x = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3]
    rho, p = stats.spearman(x, x)
    assert rho == 1.0
    assert p == 0.0
    rho, p = stats.spearman(x, [-v for v in x])
    assert rho == -1.0
    assert p == 0.0


def test_spearman_matches_brute_force_oracle_with_ties():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(5, 30))
        x = rng.integers(0, 6, n).astype(float).tolist()  # heavy ties
        y = rng.normal(size=n).tolist()
        if len(set(x)) < 2:
            continue
        rho, _ = stats.spearman(x, y)
        assert rho == pytest.approx(spearman_oracle(x, y), abs=1e-12)


def test_spearman_p_matches_quadrature():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(5, 40))
        x = rng.normal(size=n).tolist()
        y = rng.normal(size=n).tolist()
        rho, p = stats.spearman(x, y)
        if abs(rho) == 1.0:
            continue
        t = rho * math.sqrt((n - 2) / (1 - rho * rho))
        assert p == pytest.approx(t_two_sided_p_oracle(t, n - 2), abs=1e-8)


def test_spearman_invariant_under_monotone_transforms():
    rng = np.random.default_rng(17)
    x = rng.normal(size=25).tolist()
    y = rng.normal(size=25).tolist()
    rho, _ = stats.spearman(x, y)
    rho_exp, _ = stats.spearman([math.exp(v) for v in x], y)
    rho_cube, _ = stats.spearman(x, [v ** 3 for v in y])
    assert rho_exp == pytest.approx(rho, abs=1e-12)
    assert rho_cube == pytest.approx(rho, abs=1e-12)


def test_spearman_antisymmetry():
    rng = np.random.default_rng(23)
    x = rng.normal(size=20).tolist()
    y = rng.normal(size=20).tolist()
    rho, p = stats.spearman(x, y)
    rho_neg, p_neg = stats.spearman(x, [-v for v in y])
    assert rho_neg == pytest.approx(-rho, abs=1e-12)
    assert p_neg == pytest.approx(p, abs=1e-12)


def test_spearman_degenerate_and_domain_errors():
    with pytest.raises(DegenerateInput):
        stats.spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        stats.spearman([1.0, 2.0], [1.0, 2.0])


def test_smaller_rho_means_larger_p_at_fixed_n():
    # |rho| ranking and p ranking must be inverse at fixed n.
    n = 20
    df = n - 2
    rhos = [0.1, 0.3, 0.5, 0.7, 0.9]
    ps = [stats.t_sf_two_sided(r * math.sqrt(df / (1 - r * r)), df) for r in rhos]
    assert ps == sorted(ps, reverse=True)


# ---------------------------------------------------------------------------
# The rank kernel against the per-vector loop it replaced
# ---------------------------------------------------------------------------


def loop_average_ranks(values):
    """Average ranks one vector at a time, by the loop the kernel replaced."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v), dtype=float)
    i = 0
    n = len(v)
    while i < n:
        j = i
        while j + 1 < n and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def reference_spearman(x, y):
    """`stats.spearman` as it was before the rank kernel, on loop ranks."""
    if len(x) != len(y):
        raise LengthMismatch("paired vectors differ in length")
    n = len(x)
    if n < 3:
        raise DomainError("spearman needs at least 3 pairs")
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
        raise DomainError("spearman requires finite values")
    rx = loop_average_ranks(xv)
    ry = loop_average_ranks(yv)
    rx_c = rx - rx.mean()
    ry_c = ry - ry.mean()
    sx = math.sqrt(float(rx_c @ rx_c))
    sy = math.sqrt(float(ry_c @ ry_c))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInput("zero rank variance")
    rho = float(rx_c @ ry_c) / (sx * sy)
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) >= 1.0 - 1e-12:
        return math.copysign(1.0, rho), 0.0
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return rho, stats.t_sf_two_sided(t, n - 2)


def assert_ranks_equal_references(values):
    ranks = stats.average_ranks(values)
    assert ranks.tobytes() == loop_average_ranks(values).tobytes()
    assert ranks.tobytes() == rankdata(values, method="average").astype(float).tobytes()


RANK_CASES = [
    [], [2.5], [1.0, 1.0], [3.0, -1.0], [2.0, 1.0, 3.0], [4.0, 4.0, 4.0],
    [7.0] * 11, [-0.0, 0.0, 1.0, -0.0, 0.0, -1.0], [0.0, -0.0],
    [round(v, 1) for v in (0.14, 0.1, 0.06, 0.2, 0.12, 0.3, 0.25, 0.1)],
    [0.1 * k for k in (3, 1, 2, 3, 1, 1)] + [0.3, 0.30000000000000004],
]


@pytest.mark.parametrize("values", RANK_CASES)
def test_average_ranks_fixed_cases_equal_loop_and_scipy(values):
    assert_ranks_equal_references(values)


_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                    st.integers(-20, 20).map(lambda k: round(k * 0.1, 1)))


@settings(max_examples=400, deadline=None)
@given(st.lists(_FLOATS, max_size=40))
def test_average_ranks_equal_loop_bit_for_bit(values):
    assert_ranks_equal_references(values)
    assert_ranks_equal_references([round(v, 1) for v in values])


def test_block_rows_rank_like_lone_vectors():
    rng = np.random.default_rng(8)
    for _ in range(100):
        k, n = int(rng.integers(1, 12)), int(rng.integers(1, 80))
        block = np.round(rng.normal(size=(k, n)) * 3, int(rng.integers(0, 2)))
        block[rng.random((k, n)) < 0.1] = -0.0
        ranks = stats.average_ranks(block)
        assert ranks.shape == (k, n)
        for row, ranked in zip(block, ranks):
            assert ranked.tobytes() == loop_average_ranks(row).tobytes()


def _outcome(fn, *args):
    """The value of fn(*args), or the AiaError type it raised."""
    try:
        return fn(*args)
    except AiaError as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_FLOATS, st.integers(0, 2)), max_size=30))
def test_spearman_bit_equal_to_reference(pairs):
    x = [a for a, _ in pairs]
    y = [float(b) for _, b in pairs]
    assert repr(_outcome(stats.spearman, x, y)) == \
        repr(_outcome(reference_spearman, x, y))


def test_spearman_errors_equal_reference():
    for x, y in (([1.0, 2.0], [1.0, 2.0]), ([1.0, 2.0, 3.0], [1.0, 2.0]),
                 ([1.0, math.inf, 3.0], [1.0, 2.0, 3.0]),
                 ([1.0, 2.0, 3.0], [1.0, math.nan, 3.0]),
                 ([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])):
        expected = _outcome(reference_spearman, x, y)
        assert isinstance(expected, type)
        assert _outcome(stats.spearman, x, y) is expected


def reference_scan(matrix, labels_by_owner):
    """`correlation_scan` one column at a time through `reference_spearman`."""
    from aia.attributes import ATTRIBUTE_SCHEMA

    results = []
    n = matrix.n_rows
    for attr, schema_classes in ATTRIBUTE_SCHEMA.items():
        raw = [getattr(labels_by_owner[o], attr) for o in matrix.row_owner]
        codes = [schema_classes.index(v) for v in raw]
        for col in matrix.columns:
            values = matrix.column_values(col.name)
            try:
                if col.kind != "numeric":
                    stat, p = stats.cramers_v(values, raw)
                    metric = "cramers_v"
                elif len(schema_classes) >= 3:
                    stat, p = reference_spearman([float(v) for v in values], codes)
                    metric = "spearman_rho"
                else:
                    continue
            except DegenerateInput:
                continue
            results.append(stats.CorrelationResult(col.name, attr, metric, stat, p, n))
    return results


def test_correlation_scan_equals_per_column_reference(fixture_matrices):
    # M's 836 rows are long enough that summing in another order (a
    # matrix-vector product, say) changes last bits.
    P, M, _, labels = fixture_matrices
    for matrix in (P, M):
        scan = stats.correlation_scan(matrix, labels)
        assert any(r.metric == "spearman_rho" for r in scan)
        assert [repr(astuple(r)) for r in scan] == \
            [repr(astuple(r)) for r in reference_scan(matrix, labels)]


def test_correlation_scan_rejects_non_finite_numeric_cells():
    from aia.matrix import FeatureMatrix

    matrix, labels = report_matrix()
    rows = [list(row) for row in matrix.rows]
    rows[3][0] = math.inf
    matrix = FeatureMatrix(variant="P", columns=matrix.columns, rows=rows,
                           row_owner=matrix.row_owner)
    with pytest.raises(DomainError):
        stats.correlation_scan(matrix, labels)


# ---------------------------------------------------------------------------
# Cramer's V
# ---------------------------------------------------------------------------


def test_cramers_v_perfect_association():
    x = ["a", "b", "a", "b", "a", "b"]
    v, p = stats.cramers_v(x, x)
    assert v == pytest.approx(1.0, abs=1e-12)
    assert p < 0.05


def test_cramers_v_label_renaming_invariance():
    rng = np.random.default_rng(3)
    x = [str(v) for v in rng.integers(0, 3, 60)]
    y = [str(v) for v in rng.integers(0, 2, 60)]
    v1, p1 = stats.cramers_v(x, y)
    rename = {"0": "zz", "1": "qq", "2": "mm"}
    v2, p2 = stats.cramers_v([rename[a] for a in x], y)
    assert v2 == pytest.approx(v1, abs=1e-12)
    assert p2 == pytest.approx(p1, abs=1e-12)


def test_cramers_v_argument_swap_invariance():
    rng = np.random.default_rng(9)
    x = [str(v) for v in rng.integers(0, 3, 80)]
    y = [str(v) for v in rng.integers(0, 4, 80)]
    v1, p1 = stats.cramers_v(x, y)
    v2, p2 = stats.cramers_v(y, x)
    assert v2 == pytest.approx(v1, abs=1e-12)
    assert p2 == pytest.approx(p1, abs=1e-12)


def test_cramers_v_matches_brute_force_oracle():
    rng = np.random.default_rng(29)
    for _ in range(100):
        n = int(rng.integers(10, 60))
        x = [str(v) for v in rng.integers(0, 3, n)]
        y = [str(v) for v in rng.integers(0, 3, n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        v, p = stats.cramers_v(x, y)
        v_expected, chi2 = cramers_v_oracle(x, y)
        assert v == pytest.approx(v_expected, abs=1e-12)
        df = (len(set(x)) - 1) * (len(set(y)) - 1)
        assert p == pytest.approx(chi2_sf_oracle(chi2, df), abs=1e-8)


def test_cramers_v_null_monte_carlo():
    # Independent uniform 3-category vectors at n=3000: V stays small and
    # p stays clear of the strict threshold in at least 95% of trials.
    ok = 0
    trials = 40
    for seed in range(trials):
        rng = np.random.default_rng(1000 + seed)
        x = [str(v) for v in rng.integers(0, 3, 3000)]
        y = [str(v) for v in rng.integers(0, 3, 3000)]
        v, p = stats.cramers_v(x, y)
        if v < 0.05 and p > 0.01:
            ok += 1
    assert ok >= int(0.95 * trials)


def test_cramers_v_degenerate_single_category():
    with pytest.raises(DegenerateInput):
        stats.cramers_v(["a", "a", "a"], ["x", "y", "x"])


# ---------------------------------------------------------------------------
# Reports over matrices
# ---------------------------------------------------------------------------


def report_matrix(n=120, seed=4):
    """Small per-player matrix with one planted ordinal signal."""
    from aia.attributes import AttributeLabels
    from aia.matrix import Column, FeatureMatrix

    rng = np.random.default_rng(seed)
    purchase = [("never", "rarely", "regularly")[v]
                for v in rng.integers(0, 3, n)]
    codes = np.array([("never", "rarely", "regularly").index(v)
                      for v in purchase], dtype=float)
    planted = codes + rng.normal(0, 0.8, n)
    noise = rng.normal(size=n)
    flavor = [("sweet", "salty")[v] for v in rng.integers(0, 2, n)]
    rows = [[float(a), float(b), c] for a, b, c in zip(planted, noise, flavor)]
    matrix = FeatureMatrix(
        variant="P",
        columns=[Column("planted", "numeric"), Column("noise", "numeric"),
                 Column("flavor", "categorical")],
        rows=rows, row_owner=list(range(n)))
    labels = {}
    for i in range(n):
        labels[i] = AttributeLabels(
            gender="male", age_bin="19-24", occupation="no",
            purchase_habits=purchase[i], openness="low",
            conscientiousness="low", extraversion="low", agreeableness="low",
            neuroticism="low")
    return matrix, labels


def test_correlation_report_ranks_planted_feature_first():
    matrix, labels = report_matrix()
    report = stats.correlation_report(stats.correlation_scan(matrix, labels),
                                      alpha=0.01, top_k=3)
    assert report["purchase_habits"][0].feature_name == "planted"
    assert report["purchase_habits"][0].metric == "spearman_rho"


def test_correlation_report_alpha_zero_is_empty():
    matrix, labels = report_matrix()
    assert stats.correlation_report(stats.correlation_scan(matrix, labels),
                                    alpha=0.0) == {}


def test_strong_tag_above_point_three():
    result = stats.CorrelationResult("f", "a", "spearman_rho", 0.31, 0.001, 50)
    weak = stats.CorrelationResult("f", "a", "spearman_rho", 0.29, 0.001, 50)
    categorical = stats.CorrelationResult("f", "a", "cramers_v", 0.9, 0.001, 50)
    assert result.strong and not weak.strong and not categorical.strong


def test_significance_counts_monotone_in_alpha():
    matrix, labels = report_matrix()
    table = stats.significance_counts(stats.correlation_scan(matrix, labels),
                                    alphas=(0.01, 0.05, 0.1))
    for attr in ("purchase_habits",):
        for metric in ("spearman_rho", "cramers_v"):
            counts = [table.count(attr, metric, a) for a in (0.01, 0.05, 0.1)]
            assert counts == sorted(counts)
    assert table.count("purchase_habits", "spearman_rho", 0.01) >= 1


def test_binary_attributes_get_no_spearman_column():
    matrix, labels = report_matrix()
    scan = stats.correlation_scan(matrix, labels)
    gender_metrics = {r.metric for r in scan if r.attribute_name == "gender"}
    assert "spearman_rho" not in gender_metrics
    purchase_metrics = {r.metric for r in scan
                        if r.attribute_name == "purchase_habits"}
    assert "spearman_rho" in purchase_metrics


def test_all_noise_false_positive_rate():
    # With m features against a null attribute, roughly m*alpha reach p<alpha.
    from aia.attributes import AttributeLabels
    from aia.matrix import Column, FeatureMatrix

    rng = np.random.default_rng(11)
    n, m_features = 400, 60
    rows = rng.normal(size=(n, m_features))
    matrix = FeatureMatrix(
        variant="P",
        columns=[Column(f"f{i}", "numeric") for i in range(m_features)],
        rows=[list(map(float, row)) for row in rows],
        row_owner=list(range(n)))
    purchase = [("never", "rarely", "regularly")[v]
                for v in rng.integers(0, 3, n)]
    labels = {i: AttributeLabels(
        gender="male", age_bin="19-24", occupation="no",
        purchase_habits=purchase[i], openness="low", conscientiousness="low",
        extraversion="low", agreeableness="low", neuroticism="low")
        for i in range(n)}
    table = stats.significance_counts(stats.correlation_scan(matrix, labels),
                                    alphas=(0.1,))
    count = table.count("purchase_habits", "spearman_rho", 0.1)
    expected = m_features * 0.1
    assert count <= expected + 3 * math.sqrt(expected)


# ---------------------------------------------------------------------------
# Sample size
# ---------------------------------------------------------------------------


def test_required_sample_size_reference_point():
    n = stats.required_sample_size(0.95, 0.05, 0.5, 7_000_000)
    assert abs(n - 384) <= 1


def test_required_sample_size_population_one():
    assert stats.required_sample_size(0.95, 0.05, 0.5, 1) == 1


def test_required_sample_size_asymptote():
    assert stats.required_sample_size(0.95, 0.05, 0.5, 10 ** 12) == 385


def test_required_sample_size_domain():
    with pytest.raises(DomainError):
        stats.required_sample_size(0.0, 0.05, 0.5, 100)
    with pytest.raises(DomainError):
        stats.required_sample_size(0.95, 1.5, 0.5, 100)
    with pytest.raises(DomainError):
        stats.required_sample_size(0.95, 0.05, 0.5, 0)
