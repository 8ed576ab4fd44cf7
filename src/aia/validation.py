"""Statistical validation: two-sample t-tests over protocol summary statistics.

The reproduction ledger pits each advanced technique against its baseline
(four hypothesis families) and counts how often the "no difference" null
must be rejected at the target alpha. A data file of the published summary
values ships with the package so the ledger can be reproduced exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

from .errors import DomainError, MissingPair
from .stats import t_sf_two_sided

DEFAULT_ALPHA = 0.05


@dataclass(frozen=True)
class SummaryStat:
    label: str
    mean: float
    std: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"summary stat {self.label!r} needs n >= 2, got {self.n}")
        if self.std < 0:
            raise DomainError(f"summary stat {self.label!r} has negative std")


@dataclass(frozen=True)
class HypothesisResult:
    pair: str
    t_statistic: float
    p_value: float
    alpha: float
    rejected: bool
    flagged: bool = False  # degenerate variance handled by convention


def two_sample_ttest(a: SummaryStat, b: SummaryStat,
                     alpha: float = DEFAULT_ALPHA,
                     welch: bool = False) -> HypothesisResult:
    """Student's two-sample t-test from summary statistics.

    Pooled variance by default (a Welch flag exists for sensitivity runs).
    Two degenerate cases are resolved by convention and flagged: both stds
    zero with equal means -> p = 1; with unequal means -> p = 0.
    """
    if a.std == 0.0 and b.std == 0.0:
        if a.mean == b.mean:
            return HypothesisResult(f"{a.label} vs {b.label}", 0.0, 1.0, alpha,
                                    rejected=False, flagged=True)
        t = math.inf if a.mean > b.mean else -math.inf
        return HypothesisResult(f"{a.label} vs {b.label}", t, 0.0, alpha,
                                rejected=0.0 < alpha, flagged=True)
    # Both stds are divided by the power of two at their maximum, which is
    # exact, so no variance underflows or overflows; wherever the unscaled
    # formula meets no subnormal or infinite value, the results are equal.
    scale = math.ldexp(1.0, math.frexp(max(a.std, b.std))[1])
    sa, sb = a.std / scale, b.std / scale
    if welch:
        va = sa ** 2 / a.n
        vb = sb ** 2 / b.n
        se = math.sqrt(va + vb)
        df = (va + vb) ** 2 / (va ** 2 / (a.n - 1) + vb ** 2 / (b.n - 1))
    else:
        df = a.n + b.n - 2
        pooled = ((a.n - 1) * sa ** 2 + (b.n - 1) * sb ** 2) / df
        se = math.sqrt(pooled * (1.0 / a.n + 1.0 / b.n))
    t = (a.mean - b.mean) / scale / se
    p = t_sf_two_sided(t, df)
    return HypothesisResult(f"{a.label} vs {b.label}", t, p, alpha,
                            rejected=p < alpha)


# ---------------------------------------------------------------------------
# Ledger over the published (or freshly produced) summary tables
# ---------------------------------------------------------------------------


@dataclass
class LedgerFamily:
    name: str
    results: list[HypothesisResult]

    @property
    def rejected(self) -> int:
        return sum(1 for r in self.results if r.rejected)

    @property
    def total(self) -> int:
        return len(self.results)


@dataclass
class HypothesisLedger:
    alpha: float
    families: list[LedgerFamily]

    def counts(self) -> dict[str, tuple[int, int]]:
        return {f.name: (f.rejected, f.total) for f in self.families}


def load_published_results() -> dict:
    """The published summary tables shipped with the package."""
    path = resources.files("aia").joinpath("data", "published_results.json")
    return json.loads(path.read_text(encoding="utf-8"))


def _stat(field: str, label: str, pair, n: int) -> SummaryStat:
    """The [mean, std] pair at `field`; an error names the field."""
    mean = std = math.nan
    if isinstance(pair, list) and len(pair) == 2:
        try:
            mean, std = float(pair[0]), float(pair[1])
        except (TypeError, ValueError, OverflowError):
            pass
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise ValueError(f"{field}: expected [mean, std] of finite numbers, "
                         f"got {pair!r}")
    try:
        return SummaryStat(label, mean, std, n)
    except DomainError as exc:
        raise DomainError(f"{field}: {exc}") from None


def _object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{field}: expected an object, got {type(value).__name__}")
    return value


def _field(table: dict, name: str, key: str):
    """table[key]; a KeyError names the field as `name.key`."""
    try:
        return table[key]
    except KeyError:
        raise KeyError(f"{name}.{key}") from None


def _n_runs(table: dict, name: str) -> int:
    n = _field(table, name, "n_runs")
    # Not int(n), which would read 5.7 as 5 and true as 1.
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"{name}.n_runs: expected an integer, got {n!r}")
    # Past 2**53 a count has no exact float, and the t-test's arithmetic
    # leaves the float range long before 2**1024.
    if not 2 <= n <= 2 ** 53:
        raise DomainError(f"{name}.n_runs: summary stats need 2 <= n <= 2**53, "
                          f"got {n}")
    return n


# (family, table, baseline column, opponent column); a row of the simple
# table names its opponent, the best model, in its "best" field.
_FAMILIES = (
    ("dummy_vs_best_model", "simple", "dummy", None),
    ("dummy_vs_naive", "one_match", "dummy", "naive"),
    ("dummy_vs_expert", "one_match", "dummy", "expert"),
    ("sophisticated_vs_indiscriminate", "indiscriminate", "sophisticated",
     "indiscriminate"),
)


def hypothesis_table(tables: dict | None = None, alpha: float = DEFAULT_ALPHA,
                     welch: bool = False) -> HypothesisLedger:
    """Build the four-family rejection ledger from summary tables.

    Families: dummy = best model (simple protocol), dummy = naive and
    dummy = expert (one-match protocol), sophisticated = indiscriminate
    (top-2 protocol). `tables` defaults to the shipped published values and
    accepts any document with the same shape.
    """
    tables = _object(tables if tables is not None else load_published_results(), "$")
    families: list[LedgerFamily] = []
    for family, name, baseline, opponent in _FAMILIES:
        table = _object(tables[name], name)
        results = []
        for attr, row in _object(_field(table, name, "attributes"),
                                 f"{name}.attributes").items():
            where = f"{name}.attributes.{attr}"
            row = _object(row, where)
            other = row.get("best") if opponent is None else opponent
            if other is not None and not isinstance(other, str):
                raise ValueError(f"{where}.best: expected a column name, "
                                 f"got {other!r}")
            for column in (baseline, other):
                if column is None or column not in row:
                    column = column or "best"
                    named = f", which {where}.best names" \
                        if opponent is None and column == other else ""
                    # A name read from the document, such as "\n", is quoted
                    # so the message stays on one line.
                    key = column if column.isprintable() else repr(column)
                    raise MissingPair(f"{where}.{key}: {name} table row "
                                      f"{attr!r} lacks {column!r} stats{named}")
            n = _n_runs(table, name)
            results.append(two_sample_ttest(
                _stat(f"{where}.{baseline}", f"{attr}:{baseline}", row[baseline], n),
                _stat(f"{where}.{other}", f"{attr}:{other}", row[other], n),
                alpha=alpha, welch=welch))
        families.append(LedgerFamily(family, results))
    return HypothesisLedger(alpha=alpha, families=families)

