import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from aia import validation
from aia.cli import main
from aia.errors import DomainError, MissingPair
from aia.validation import SummaryStat, hypothesis_table, two_sample_ttest
from conftest import DELETE, json_paths, json_values, mutated


def pooled_t_oracle(ma, sa, na, mb, sb, nb):
    df = na + nb - 2
    pooled = ((na - 1) * sa ** 2 + (nb - 1) * sb ** 2) / df
    t = (ma - mb) / math.sqrt(pooled * (1 / na + 1 / nb))
    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)

    def pdf(u):
        return c * (1 + u * u / df) ** (-(df + 1) / 2)

    tail, _ = integrate.quad(pdf, abs(t), math.inf)
    return t, 2 * tail


def test_identical_stats_give_t0_p1():
    a = SummaryStat("a", 50.0, 2.0, 10)
    b = SummaryStat("b", 50.0, 2.0, 10)
    res = two_sample_ttest(a, b)
    assert res.t_statistic == 0.0
    assert res.p_value == 1.0
    assert not res.rejected


def test_table4_gender_pair_rejected():
    naive = SummaryStat("gender:naive", 49.03, 0.18, 20)
    dummy = SummaryStat("gender:dummy", 49.75, 0.55, 20)
    res = two_sample_ttest(naive, dummy, alpha=0.05)
    assert res.rejected


def test_p_matches_quadrature_oracle():
    cases = [
        (49.03, 0.18, 20, 49.75, 0.55, 20),
        (67.24, 13.4, 10, 51.62, 10.9, 10),
        (34.40, 8.20, 10, 31.20, 6.26, 10),
        (1.0, 0.5, 5, 1.2, 0.7, 8),
        (10.0, 3.0, 50, 9.0, 2.0, 30),
    ]
    for ma, sa, na, mb, sb, nb in cases:
        res = two_sample_ttest(SummaryStat("a", ma, sa, na),
                               SummaryStat("b", mb, sb, nb))
        t_exp, p_exp = pooled_t_oracle(ma, sa, na, mb, sb, nb)
        assert res.t_statistic == pytest.approx(t_exp, abs=1e-10)
        assert res.p_value == pytest.approx(p_exp, abs=1e-8)


def test_symmetry_negates_t_keeps_p():
    a = SummaryStat("a", 60.0, 5.0, 12)
    b = SummaryStat("b", 55.0, 4.0, 15)
    r1 = two_sample_ttest(a, b)
    r2 = two_sample_ttest(b, a)
    assert r2.t_statistic == pytest.approx(-r1.t_statistic, abs=1e-12)
    assert r2.p_value == pytest.approx(r1.p_value, abs=1e-12)


def test_scale_invariance():
    a = SummaryStat("a", 60.0, 5.0, 12)
    b = SummaryStat("b", 55.0, 4.0, 15)
    r1 = two_sample_ttest(a, b)
    r2 = two_sample_ttest(SummaryStat("a", 600.0, 50.0, 12),
                          SummaryStat("b", 550.0, 40.0, 15))
    assert r2.t_statistic == pytest.approx(r1.t_statistic, abs=1e-10)
    assert r2.p_value == pytest.approx(r1.p_value, abs=1e-10)


def test_p_decreases_as_mean_gap_grows():
    base = SummaryStat("b", 50.0, 3.0, 10)
    gaps = [0.5, 1.0, 2.0, 4.0, 8.0]
    ps = [two_sample_ttest(SummaryStat("a", 50.0 + g, 3.0, 10), base).p_value
          for g in gaps]
    assert ps == sorted(ps, reverse=True)
    assert all(p1 > p2 for p1, p2 in zip(ps, ps[1:]))


def test_degenerate_conventions():
    equal = two_sample_ttest(SummaryStat("a", 5.0, 0.0, 4),
                             SummaryStat("b", 5.0, 0.0, 4))
    assert equal.p_value == 1.0 and equal.flagged and not equal.rejected
    unequal = two_sample_ttest(SummaryStat("a", 5.0, 0.0, 4),
                               SummaryStat("b", 6.0, 0.0, 4))
    assert unequal.p_value == 0.0 and unequal.flagged and unequal.rejected


def test_summary_stat_validation():
    with pytest.raises(DomainError):
        SummaryStat("a", 1.0, 1.0, 1)
    with pytest.raises(DomainError):
        SummaryStat("a", 1.0, -0.5, 5)


def test_welch_flag_changes_df_not_conclusions_here():
    a = SummaryStat("a", 49.03, 0.18, 20)
    b = SummaryStat("b", 49.75, 0.55, 20)
    pooled = two_sample_ttest(a, b)
    welch = two_sample_ttest(a, b, welch=True)
    assert pooled.rejected and welch.rejected
    assert welch.p_value != pooled.p_value


def test_published_ledger_reproduces_reject_counts():
    ledger = hypothesis_table(alpha=0.05)
    counts = ledger.counts()
    assert counts["dummy_vs_best_model"] == (5, 9)
    assert counts["dummy_vs_naive"] == (4, 9)
    assert counts["dummy_vs_expert"] == (9, 9)
    assert counts["sophisticated_vs_indiscriminate"] == (7, 7)


def test_expert_family_rejections_are_emphatic():
    ledger = hypothesis_table(alpha=0.05)
    expert = next(f for f in ledger.families if f.name == "dummy_vs_expert")
    assert all(r.p_value < 0.00001 for r in expert.results)


def test_all_identical_synthetic_stats_reject_nothing():
    doc = validation.load_published_results()
    for attr_row in doc["simple"]["attributes"].values():
        for key, value in attr_row.items():
            if isinstance(value, list):
                attr_row[key] = [40.0, 5.0]
    for attr_row in doc["one_match"]["attributes"].values():
        for key in ("naive", "expert", "dummy"):
            attr_row[key] = [40.0, 5.0]
    for attr_row in doc["indiscriminate"]["attributes"].values():
        for key in ("sophisticated", "indiscriminate"):
            attr_row[key] = [40.0, 5.0]
    ledger = hypothesis_table(doc)
    assert all(f.rejected == 0 for f in ledger.families)


def test_missing_pair_raises():
    doc = validation.load_published_results()
    del doc["one_match"]["attributes"]["gender"]["naive"]
    with pytest.raises(MissingPair):
        hypothesis_table(doc)


def unscaled_t(a, b, welch):
    """t and df by the textbook formulas, with no rescaling."""
    if welch:
        va, vb = a.std ** 2 / a.n, b.std ** 2 / b.n
        se = math.sqrt(va + vb)
        df = (va + vb) ** 2 / (va ** 2 / (a.n - 1) + vb ** 2 / (b.n - 1))
    else:
        df = a.n + b.n - 2
        pooled = ((a.n - 1) * a.std ** 2 + (b.n - 1) * b.std ** 2) / df
        se = math.sqrt(pooled * (1.0 / a.n + 1.0 / b.n))
    return (a.mean - b.mean) / se, df


# Means to two decimals, as the summary tables give them: no difference of
# two is subnormal.
MEANS = st.integers(-10_000, 10_000).map(lambda k: k / 100)


@settings(max_examples=300, deadline=None)
@given(MEANS, st.floats(1e-6, 1e6), st.integers(2, 500),
       MEANS, st.floats(0, 1e6), st.integers(2, 500), st.booleans())
def test_rescaled_t_equals_the_unscaled_formula_in_range(ma, sa, na, mb, sb, nb,
                                                         welch):
    a, b = SummaryStat("a", ma, sa, na), SummaryStat("b", mb, sb, nb)
    t, df = unscaled_t(a, b, welch)
    res = two_sample_ttest(a, b, welch=welch)
    assert res.t_statistic == t
    assert res.p_value == validation.t_sf_two_sided(t, df)


@pytest.mark.parametrize("std", [1e-200, 5e-324, 1e200])
def test_stds_whose_variance_leaves_the_float_range_still_test(std):
    a = SummaryStat("a", 51.62, std, 10)
    b = SummaryStat("b", 67.24, std, 10)
    for welch in (False, True):
        res = two_sample_ttest(a, b, welch=welch)
        assert res.t_statistic < 0 and not res.flagged
        assert res.rejected == (std < 1.0)


_PUBLISHED = validation.load_published_results()
_COLUMNS = ("dummy", "mlp", "naive", "expert", "sophisticated", "best")


@settings(max_examples=300, deadline=None)
@given(where=st.sampled_from(list(json_paths(_PUBLISHED))),
       value=json_values(names=_COLUMNS) | st.just(DELETE))
@example(where=("one_match", "n_runs"), value=10**400)
@example(where=("one_match", "n_runs"), value=5.7)
@example(where=("one_match", "n_runs"), value=True)
@example(where=("simple", "attributes", "gender", "dummy", 0), value=math.nan)
@example(where=("simple", "attributes", "extraversion", "best"), value="\n")
def test_pairs_reader_takes_or_names_any_mutated_field(where, value):
    # `aia validate --pairs` either exits 1 with one error line naming the
    # file and the mutated field (table, row and column), or gives a ledger.
    field = ".".join(map(str, where[:4]))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.json"
        path.write_text(json.dumps(mutated(_PUBLISHED, where, value)))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["validate", "--pairs", str(path)])
    if code == 0:
        assert err.getvalue() == ""
        return
    message = err.getvalue()
    assert code == 1 and message.startswith("error: ")
    assert message.count("\n") == 1
    assert str(path) in message and field in message, (where, value, message)
