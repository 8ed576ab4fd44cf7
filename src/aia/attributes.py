"""Private-attribute label schema, binning rules, and label-file ingestion.

Nine attributes per player: gender, age bin, occupation, purchase habits,
and the Big Five personality traits binned low/medium/high.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import EmptyInput, OutOfRange, SchemaError

# Class lists in canonical (ordinal where meaningful) order.
ATTRIBUTE_SCHEMA: dict[str, tuple[str, ...]] = {
    "gender": ("female", "male"),
    "age_bin": ("13-18", "19-24", "25-38"),
    "occupation": ("no", "yes"),
    "purchase_habits": ("never", "rarely", "regularly"),
    "openness": ("low", "medium", "high"),
    "conscientiousness": ("low", "medium", "high"),
    "extraversion": ("low", "medium", "high"),
    "agreeableness": ("low", "medium", "high"),
    "neuroticism": ("low", "medium", "high"),
}

BIG_FIVE = ("openness", "conscientiousness", "extraversion",
            "agreeableness", "neuroticism")

AGE_BINS = ((13, 18, "13-18"), (19, 24, "19-24"), (25, 38, "25-38"))
MIN_AGE = 13      # the survey's youngest respondent
BIG5_MAX = 100    # Big Five scores lie in [0, BIG5_MAX]


@dataclass(frozen=True)
class AttributeLabels:
    gender: str
    age_bin: str
    occupation: str
    purchase_habits: str
    openness: str
    conscientiousness: str
    extraversion: str
    agreeableness: str
    neuroticism: str

    def __post_init__(self):
        for name, classes in ATTRIBUTE_SCHEMA.items():
            value = getattr(self, name)
            if value not in classes:
                raise SchemaError(f"{name}={value!r} not in {classes}", path=f"$.{name}")


@dataclass(frozen=True)
class RawSurveyRow:
    """One survey response before binning.

    The gender answer rides along even though it needs no binning; big5
    scores are integers in [0, 100] in schema order.
    """

    handle: int
    raw_gender: str
    raw_age: int
    raw_employment: bool
    raw_purchase_frequency: int
    big5_scores: tuple[int, int, int, int, int]
    country: str = ""

    def __post_init__(self):
        if self.raw_age < MIN_AGE:
            raise OutOfRange(f"raw_age {self.raw_age} below survey minimum {MIN_AGE}")
        for score in self.big5_scores:
            if not 0 <= score <= BIG5_MAX:
                raise OutOfRange(f"big5 score {score} outside [0, {BIG5_MAX}]")


@dataclass(frozen=True)
class BinningConfig:
    """Cut points for score binning; tertile defaults, overridable."""

    big5_low_max: int = 33    # score <= low_max      -> low
    big5_medium_max: int = 66  # low_max < s <= medium_max -> medium, else high


def _bin_age(age: int) -> str:
    for lo, hi, label in AGE_BINS:
        if lo <= age <= hi:
            return label
    raise OutOfRange(f"age {age} outside the 13-38 survey window")


def _bin_score(score: int, config: BinningConfig) -> str:
    if score <= config.big5_low_max:
        return "low"
    if score <= config.big5_medium_max:
        return "medium"
    return "high"


def _bin_purchase(code: int) -> str:
    # 0 = never, 1 = less than once a month, >= 2 = monthly or more often.
    if code <= 0:
        return "never"
    if code == 1:
        return "rarely"
    return "regularly"


def bin_labels(row: RawSurveyRow, config: BinningConfig = BinningConfig()) -> AttributeLabels:
    """Map one raw survey row onto the 9-attribute label schema.

    Students count as unemployed upstream, so raw_employment is already a
    boolean. Age outside 13-38 raises OutOfRange and the row is excluded.
    """
    big5 = {name: _bin_score(score, config)
            for name, score in zip(BIG_FIVE, row.big5_scores)}
    return AttributeLabels(
        gender=row.raw_gender,
        age_bin=_bin_age(row.raw_age),
        occupation="yes" if row.raw_employment else "no",
        purchase_habits=_bin_purchase(row.raw_purchase_frequency),
        **big5,
    )


def class_distribution(labels: Iterable[AttributeLabels]) -> dict[str, dict[str, float]]:
    """Per-attribute class frequencies as fractions summing to 1."""
    labels = list(labels)
    if not labels:
        raise EmptyInput("class_distribution needs at least one label set")
    n = len(labels)
    out: dict[str, dict[str, float]] = {}
    for attr, classes in ATTRIBUTE_SCHEMA.items():
        counts = {c: 0 for c in classes}
        for lab in labels:
            counts[getattr(lab, attr)] += 1
        out[attr] = {c: counts[c] / n for c in classes}
    return out


# ---------------------------------------------------------------------------
# CSV contracts
# ---------------------------------------------------------------------------

SURVEY_COLUMNS = ("steam_id", "gender", "age", "employment", "purchase_frequency",
                  "openness", "conscientiousness", "extraversion",
                  "agreeableness", "neuroticism", "country")

LABEL_COLUMNS = ("steam_id",) + tuple(ATTRIBUTE_SCHEMA)

_EMPLOYED_TRUE = {"yes", "true", "1", "employed"}
_EMPLOYED_FALSE = {"no", "false", "0", "unemployed", "student"}


def _parse_employment(value: str) -> bool:
    v = value.strip().lower()
    if v in _EMPLOYED_TRUE:
        return True
    if v in _EMPLOYED_FALSE:
        return False
    raise SchemaError(f"unrecognized employment value {value!r}", path="$.employment")


def _int_cell(rec: dict, column: str, lo: int | None = None,
              hi: int | None = None) -> int:
    """The integer in a cell, inside [lo, hi] where those are given."""
    try:
        value = int(rec[column])
    except (TypeError, ValueError):
        raise SchemaError(f"not an integer: {rec[column]!r}", path=f"$.{column}") from None
    if lo is not None and value < lo:
        raise SchemaError(f"{value} below the minimum {lo}", path=f"$.{column}")
    if hi is not None and value > hi:
        raise SchemaError(f"{value} above the maximum {hi}", path=f"$.{column}")
    return value


def _new_handle(rec: dict, seen: dict[int, int], row: int) -> int:
    """The row's steam_id, which no earlier data row may hold."""
    handle = _int_cell(rec, "steam_id")
    if handle in seen:
        raise SchemaError(f"steam_id {handle} repeats data row {seen[handle]}",
                          path="$.steam_id")
    seen[handle] = row
    return handle


def read_survey_csv(path: str | Path) -> list[RawSurveyRow]:
    """Parse the raw survey CSV (see SURVEY_COLUMNS for the contract); a
    malformed cell raises a SchemaError naming the file, the data row and
    the column."""
    rows: list[RawSurveyRow] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = set(SURVEY_COLUMNS) - set(reader.fieldnames or ())
        if missing - {"country"}:
            raise SchemaError(f"survey file missing columns: {sorted(missing)}")
        row = 0
        seen: dict[int, int] = {}
        try:
            for row, rec in enumerate(reader, 1):
                rows.append(RawSurveyRow(
                    handle=_new_handle(rec, seen, row),
                    raw_gender=(rec["gender"] or "").strip().lower(),
                    raw_age=_int_cell(rec, "age", MIN_AGE),
                    raw_employment=_parse_employment(rec["employment"] or ""),
                    raw_purchase_frequency=_int_cell(rec, "purchase_frequency"),
                    big5_scores=tuple(_int_cell(rec, name, 0, BIG5_MAX)
                                      for name in BIG_FIVE),
                    country=(rec.get("country") or "").strip(),
                ))
        except SchemaError as exc:
            raise SchemaError(f"data row {row}: {exc}", path=str(path)) from exc
    return rows


@dataclass
class LabelFile:
    """Binned labels keyed by handle, plus rows excluded during binning."""

    labels: dict[int, AttributeLabels] = field(default_factory=dict)
    excluded: list[tuple[int, str]] = field(default_factory=list)  # (handle, reason)


def bin_survey(rows: Iterable[RawSurveyRow],
               config: BinningConfig = BinningConfig()) -> LabelFile:
    """Bin every row, collecting out-of-range rows instead of failing."""
    out = LabelFile()
    for row in rows:
        try:
            out.labels[row.handle] = bin_labels(row, config)
        except (OutOfRange, SchemaError) as exc:
            out.excluded.append((row.handle, str(exc)))
    return out


def write_labels_csv(labels: dict[int, AttributeLabels], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABEL_COLUMNS)
        for handle in sorted(labels):
            lab = labels[handle]
            writer.writerow([handle] + [getattr(lab, a) for a in ATTRIBUTE_SCHEMA])


def read_labels_csv(path: str | Path) -> dict[int, AttributeLabels]:
    """Binned labels by handle; a malformed cell raises a SchemaError naming
    the file, the data row and the column."""
    labels: dict[int, AttributeLabels] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = set(LABEL_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise SchemaError(f"label file missing columns: {sorted(missing)}")
        row = 0
        seen: dict[int, int] = {}
        try:
            for row, rec in enumerate(reader, 1):
                labels[_new_handle(rec, seen, row)] = AttributeLabels(
                    **{a: rec[a] for a in ATTRIBUTE_SCHEMA})
        except SchemaError as exc:
            raise SchemaError(f"data row {row}: {exc}", path=str(path)) from exc
    return labels
