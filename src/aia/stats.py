"""Correlation and significance machinery.

Spearman's rho (numeric pairs) and Cramer's V (categorical pairs) with
p-values, the per-attribute correlation report, significance counts at
several alpha levels, and the finite-population sample-size calculator.

Every rank goes through one kernel, `average_ranks`, which ranks all rows
of a (columns x rows) block at once. `spearman`, `correlation_scan` and
`models.select_features` rank a block of columns once and a label vector
once (`centered_ranks`), then take each column's rho with 1-D sums and
dots (`rank_correlations`), so a column's rho has the same bits whichever
block it was ranked in.

numpy is imported inside the functions that rank or tabulate, so the
commands that need only the tail probabilities (`validate`,
`reproduce-table8`, `sample-size`) never load it.

The normal quantile is the standard library's (`statistics.NormalDist`).
The chi-square and Student-t tail probabilities are implemented with the
classic series / continued-fraction expansions so results are reproducible
without a heavyweight dependency; they are validated against independent
oracles in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import DegenerateInput, DomainError, LengthMismatch

_EPS = 3e-16
_FPMIN = 1e-300

# ---------------------------------------------------------------------------
# Distribution primitives
# ---------------------------------------------------------------------------


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (the standard library's Wichura AS 241)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile requires 0 < p < 1, got {p}")
    from statistics import NormalDist  # only the sample-size calculator needs it

    return NormalDist().inv_cdf(p)


def _gamma_series(a: float, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x) by series, for x < a + 1."""
    term = 1.0 / a
    total = term
    n = 0
    while True:
        n += 1
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * _EPS:
            break
        if n > 10_000:
            raise DomainError("incomplete gamma series failed to converge")
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cf(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) by Lentz continued fraction."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b if b != 0.0 else 1.0 / _FPMIN
    h = d
    for i in range(1, 10_001):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise DomainError("incomplete gamma continued fraction failed to converge")
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def chi2_sf(x: float, df: float) -> float:
    """Chi-square survival function P(X >= x) with df degrees of freedom.

    The incomplete-gamma arguments are a = df/2 and x/2; the series is the
    accurate branch for x/2 < a + 1, the continued fraction beyond it.
    """
    if df <= 0.0:
        raise DomainError(f"chi-square needs df > 0, got {df}")
    if x <= 0.0:
        return 1.0
    if x / 2.0 < df / 2.0 + 1.0:
        return 1.0 - _gamma_series(df / 2.0, x / 2.0)
    return _gamma_cf(df / 2.0, x / 2.0)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, 10_001):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise DomainError("incomplete beta continued fraction failed to converge")


def beta_inc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta_inc_reg needs a, b > 0, got a={a}, b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
             + a * math.log(x) + b * math.log1p(-x))
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _beta_cf(a, b, x) / a
    return 1.0 - bt * _beta_cf(b, a, 1.0 - x) / b


def t_sf_two_sided(t: float, df: float) -> float:
    """Two-sided tail probability P(|T| >= |t|) for Student's t."""
    if df <= 0.0:
        raise DomainError(f"t distribution needs df > 0, got {df}")
    t2 = t * t
    return beta_inc_reg(df / 2.0, 0.5, df / (df + t2))


# ---------------------------------------------------------------------------
# Rank and association statistics
# ---------------------------------------------------------------------------


def average_ranks(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """1-based ranks along the last axis of a vector or a (k, n) block.

    Each row gets one stable argsort; a tie run is a stretch of equal
    neighbours in sorted order, and every member of the run from sorted
    position `start` to `end` gets the mean rank (start + end) / 2 + 1.
    """
    import numpy as np

    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return np.empty(v.shape)
    block = v.reshape(-1, v.shape[-1])
    n = block.shape[1]
    order = np.argsort(block, axis=1, kind="stable")
    ordered = np.take_along_axis(block, order, axis=1)
    pos = np.arange(n)
    # A run starts where a value differs from its left neighbour and ends
    # where the next one starts (-0.0 == 0.0, so those two tie).
    starts = np.ones(block.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=starts[:, 1:])
    ends = np.ones(block.shape, dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    run_start = np.maximum.accumulate(np.where(starts, pos, 0), axis=1)
    run_end = np.minimum.accumulate(np.where(ends, pos, n - 1)[:, ::-1],
                                    axis=1)[:, ::-1]
    ranks = np.empty(block.shape)
    np.put_along_axis(ranks, order, (run_start + run_end) / 2.0 + 1.0, axis=1)
    return ranks.reshape(v.shape)


@dataclass(frozen=True)
class CenteredRanks:
    """Average ranks of each row of a block, less the row's mean."""

    centered: np.ndarray  # (k, n), each row contiguous
    norms: list[float]    # sqrt(r . r) of each centred row


def centered_ranks(block) -> CenteredRanks:
    """Rank every row of a (k, n) block at once, for `rank_correlations`.

    Needs n >= 3 and finite values (`DomainError`). Each row's mean is a
    pairwise sum over the contiguous row and each norm a 1-D dot, the
    operations a lone vector gets, so a row's statistics do not depend on
    the block it sits in.
    """
    import numpy as np

    block = np.asarray(block, dtype=float)
    n = block.shape[1]
    if n < 3:
        raise DomainError(f"spearman needs at least 3 pairs, got {n}")
    if not np.isfinite(block).all():
        raise DomainError("spearman requires finite values")
    ranks = average_ranks(block)
    centered = ranks - ranks.mean(axis=1, keepdims=True)
    return CenteredRanks(centered, [math.sqrt(float(r @ r)) for r in centered])


def rank_correlations(x: CenteredRanks, y: CenteredRanks) -> list[float | None]:
    """Spearman's rho of each row of `x` against the one row of `y`.

    None where either side has zero rank variance. rho is clipped to
    [-1, 1] and snaps to +/-1 within 1e-12 of it (identical or exactly
    reversed rankings up to float noise).
    """
    ry, sy = y.centered[0], y.norms[0]
    rhos: list[float | None] = []
    for rx, sx in zip(x.centered, x.norms):
        if sx == 0.0 or sy == 0.0:
            rhos.append(None)
            continue
        rho = max(-1.0, min(1.0, float(rx @ ry) / (sx * sy)))
        if abs(rho) >= 1.0 - 1e-12:
            rho = math.copysign(1.0, rho)
        rhos.append(rho)
    return rhos


def _spearman_p(rho: float, n: int) -> float:
    """Two-sided p of rho by t = rho * sqrt((n - 2) / (1 - rho^2)), n - 2 df."""
    if abs(rho) == 1.0:
        return 0.0
    return t_sf_two_sided(rho * math.sqrt((n - 2) / (1.0 - rho * rho)), n - 2)


def spearman(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Spearman rank correlation and its two-sided p-value.

    rho is the Pearson correlation of average ranks; the p-value uses the
    t approximation t = rho * sqrt((n - 2) / (1 - rho^2)) with n - 2 degrees
    of freedom. rho = +/-1 maps to p = 0.
    """
    if len(x) != len(y):
        raise LengthMismatch(f"paired vectors differ in length: {len(x)} vs {len(y)}")
    n = len(x)
    rx = centered_ranks([x])
    ry = centered_ranks([y])
    rho = rank_correlations(rx, ry)[0]
    if rho is None:
        raise DegenerateInput("zero rank variance: correlation undefined")
    return rho, _spearman_p(rho, n)


def _contingency(x: Sequence, y: Sequence) -> np.ndarray:
    """Contingency table over the observed categories of x and y."""
    import numpy as np

    xs = sorted(set(x), key=str)
    ys = sorted(set(y), key=str)
    xi = {c: i for i, c in enumerate(xs)}
    yi = {c: i for i, c in enumerate(ys)}
    table = np.zeros((len(xs), len(ys)), dtype=float)
    for a, b in zip(x, y):
        table[xi[a], yi[b]] += 1.0
    return table


def cramers_v(x: Sequence, y: Sequence) -> tuple[float, float]:
    """Cramer's V association strength and chi-square p-value.

    V = sqrt(chi2 / (n * (min(r, c) - 1))) over the observed contingency
    table; p comes from the chi-square distribution with (r-1)(c-1) df.
    """
    if len(x) != len(y):
        raise LengthMismatch(f"paired vectors differ in length: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise DomainError(f"cramers_v needs at least 3 pairs, got {n}")
    table = _contingency(x, y)
    r, c = table.shape
    if r < 2 or c < 2:
        raise DegenerateInput("need at least 2 observed categories per variable")
    row = table.sum(axis=1)
    col = table.sum(axis=0)
    expected = row[:, None] * col / n
    chi2 = float(((table - expected) ** 2 / expected).sum())
    p = chi2_sf(chi2, (r - 1) * (c - 1))
    v = math.sqrt(chi2 / (n * (min(r, c) - 1)))
    return min(1.0, v), p


# ---------------------------------------------------------------------------
# Reports over feature matrices
# ---------------------------------------------------------------------------

STRONG_RHO = 0.3


@dataclass(frozen=True)
class CorrelationResult:
    feature_name: str
    attribute_name: str
    metric: str  # "spearman_rho" | "cramers_v"
    value: float
    p_value: float
    n: int

    @property
    def strong(self) -> bool:
        return self.metric == "spearman_rho" and abs(self.value) > STRONG_RHO


# The alpha levels `significance_counts` counts at.
SIGNIFICANCE_ALPHAS = (0.01, 0.05, 0.1)


@dataclass
class SignificanceTable:
    """Counts of significant features per (attribute, metric, alpha)."""

    counts: dict = field(default_factory=dict)  # (attribute, metric, alpha) -> int

    def count(self, attribute: str, metric: str, alpha: float) -> int:
        return self.counts.get((attribute, metric, alpha), 0)


def correlation_scan(matrix, labels_by_owner) -> list[CorrelationResult]:
    """Score every applicable (feature, attribute) pair.

    `matrix` is a FeatureMatrix; `labels_by_owner` maps owner id to
    AttributeLabels. Numeric features pair with ordinal attributes through
    Spearman (binary attributes get no rank correlation); categorical and
    boolean features always pair through Cramer's V. The numeric columns
    are ranked once, as one block, and each ordinal attribute's class codes
    once. Degenerate features (constant on this sample) are skipped.
    Results carry no significance filtering.
    """
    from .attributes import ATTRIBUTE_SCHEMA  # local import to avoid a cycle

    results: list[CorrelationResult] = []
    owners = matrix.row_owner
    n = len(owners)
    positions, block = matrix.float_columns
    numeric = [j for j, pos in enumerate(positions)
               if matrix.columns[pos].kind == "numeric"]
    ranked = None  # ranked at the first ordinal attribute
    for attr, schema_classes in ATTRIBUTE_SCHEMA.items():
        raw = [getattr(labels_by_owner[o], attr) for o in owners]
        rhos: dict[int, float | None] = {}
        if len(schema_classes) >= 3 and numeric:
            if ranked is None:
                ranked = centered_ranks(block[numeric])
            codes = [schema_classes.index(v) for v in raw]
            label = centered_ranks([codes])
            rhos = dict(zip((positions[j] for j in numeric),
                            rank_correlations(ranked, label)))
        for pos, col in enumerate(matrix.columns):
            if col.kind == "numeric":
                rho = rhos.get(pos)
                if rho is not None:
                    results.append(CorrelationResult(col.name, attr, "spearman_rho",
                                                     rho, _spearman_p(rho, n), n))
                continue
            try:
                stat, p = cramers_v(matrix.column_values(col.name), raw)
            except DegenerateInput:
                continue
            results.append(CorrelationResult(col.name, attr, "cramers_v", stat, p, n))
    return results


def correlation_report(scan: list[CorrelationResult], alpha: float = 0.01,
                       top_k: int = 3) -> dict[str, list[CorrelationResult]]:
    """Top-k significant correlations per attribute of a `correlation_scan`,
    ranked by |value|.

    Only results with p < alpha are retained; the sign of Spearman's rho is
    preserved in the ranking output.
    """
    by_attr: dict[str, list[CorrelationResult]] = {}
    for res in scan:
        if res.p_value < alpha:
            by_attr.setdefault(res.attribute_name, []).append(res)
    report: dict[str, list[CorrelationResult]] = {}
    for attr, items in by_attr.items():
        items.sort(key=lambda r: (-abs(r.value), r.feature_name))
        report[attr] = items[:top_k]
    return report


def significance_counts(scan: list[CorrelationResult]) -> SignificanceTable:
    """Count the features of a `correlation_scan` reaching p < alpha per
    (attribute, metric, alpha), at each of SIGNIFICANCE_ALPHAS."""
    table = SignificanceTable()
    for res in scan:
        for alpha in SIGNIFICANCE_ALPHAS:
            if res.p_value < alpha:
                key = (res.attribute_name, res.metric, alpha)
                table.counts[key] = table.counts.get(key, 0) + 1
    return table


# ---------------------------------------------------------------------------
# Sample size
# ---------------------------------------------------------------------------


def required_sample_size(confidence: float, margin: float, proportion: float,
                         population: int) -> int:
    """Cochran's sample size with finite-population correction, rounded up.

    n0 = z^2 * p * (1 - p) / e^2, then n = n0 / (1 + (n0 - 1) / N).
    """
    if not 0.0 < confidence < 1.0:
        raise DomainError(f"confidence must be in (0, 1), got {confidence}")
    if not 0.0 < margin < 1.0:
        raise DomainError(f"margin must be in (0, 1), got {margin}")
    if not 0.0 < proportion < 1.0:
        raise DomainError(f"proportion must be in (0, 1), got {proportion}")
    if population < 1:
        raise DomainError(f"population must be >= 1, got {population}")
    z = normal_quantile(1.0 - (1.0 - confidence) / 2.0)
    n0 = z * z * proportion * (1.0 - proportion) / (margin * margin)
    n = n0 / (1.0 + (n0 - 1.0) / population)
    return math.ceil(n - 1e-12)
