import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aia.attributes import (
    ATTRIBUTE_SCHEMA,
    LABEL_COLUMNS,
    SURVEY_COLUMNS,
    AttributeLabels,
    RawSurveyRow,
    bin_labels,
    bin_survey,
    read_labels_csv,
    read_survey_csv,
    write_labels_csv,
)
from aia.errors import OutOfRange, SchemaError
from conftest import sample_labels


def make_row(**overrides):
    base = dict(handle=101, raw_gender="male", raw_age=21, raw_employment=True,
                raw_purchase_frequency=1, big5_scores=(50, 50, 50, 50, 50),
                country="IT")
    base.update(overrides)
    return RawSurveyRow(**base)


def test_age_binning_reference_points():
    assert bin_labels(make_row(raw_age=21)).age_bin == "19-24"
    assert bin_labels(make_row(raw_age=13)).age_bin == "13-18"
    assert bin_labels(make_row(raw_age=18)).age_bin == "13-18"
    assert bin_labels(make_row(raw_age=19)).age_bin == "19-24"
    assert bin_labels(make_row(raw_age=25)).age_bin == "25-38"
    assert bin_labels(make_row(raw_age=38)).age_bin == "25-38"


def test_age_out_of_range_rejected():
    with pytest.raises(OutOfRange):
        bin_labels(make_row(raw_age=39))
    with pytest.raises(OutOfRange):
        make_row(raw_age=12)


def test_big5_extreme_maps_high():
    labels = bin_labels(make_row(big5_scores=(100, 0, 33, 66, 67)))
    assert labels.openness == "high"
    assert labels.conscientiousness == "low"
    assert labels.extraversion == "low"      # boundary: 33 is still low
    assert labels.agreeableness == "medium"  # boundary: 66 is still medium
    assert labels.neuroticism == "high"


def test_big5_binning_is_monotone():
    order = {"low": 0, "medium": 1, "high": 2}
    previous = 0
    for score in range(0, 101):
        labels = bin_labels(make_row(big5_scores=(score, 0, 0, 0, 100)))
        rank = order[labels.openness]
        assert rank >= previous
        previous = rank


def test_age_binning_is_monotone():
    order = {"13-18": 0, "19-24": 1, "25-38": 2}
    previous = 0
    for age in range(13, 39):
        rank = order[bin_labels(make_row(raw_age=age)).age_bin]
        assert rank >= previous
        previous = rank


def test_purchase_frequency_mapping():
    assert bin_labels(make_row(raw_purchase_frequency=0)).purchase_habits == "never"
    assert bin_labels(make_row(raw_purchase_frequency=1)).purchase_habits == "rarely"
    assert bin_labels(make_row(raw_purchase_frequency=2)).purchase_habits == "regularly"
    assert bin_labels(make_row(raw_purchase_frequency=5)).purchase_habits == "regularly"


def test_student_counts_as_unemployed():
    assert bin_labels(make_row(raw_employment=False)).occupation == "no"
    assert bin_labels(make_row(raw_employment=True)).occupation == "yes"


def test_bin_labels_deterministic():
    row = make_row()
    assert bin_labels(row) == bin_labels(row)


def test_invalid_class_rejected():
    with pytest.raises(SchemaError):
        AttributeLabels(gender="female", age_bin="19-24", occupation="maybe",
                        purchase_habits="never", openness="low",
                        conscientiousness="low", extraversion="low",
                        agreeableness="low", neuroticism="low")


def class_shares(labels: list[AttributeLabels]) -> dict[str, dict[str, float]]:
    """Per-attribute class frequencies as fractions of the label sets."""
    return {attr: {c: sum(getattr(lab, attr) == c for lab in labels) / len(labels)
                   for c in classes}
            for attr, classes in ATTRIBUTE_SCHEMA.items()}


# Reference class counts at n=484: the published percentages rounded onto
# whole players (every attribute lands within 0.01 points of its source).
REFERENCE_COUNTS: dict[str, tuple[int, ...]] = {
    "gender": (24, 460),
    "age_bin": (65, 260, 159),
    "occupation": (278, 206),
    "purchase_habits": (51, 296, 137),
    "openness": (93, 118, 273),
    "conscientiousness": (191, 116, 177),
    "extraversion": (229, 102, 153),
    "agreeableness": (101, 94, 289),
    "neuroticism": (259, 93, 132),
}


def table1_reference_labels() -> list[AttributeLabels]:
    """A deterministic 484-row label set with the reference class counts.

    Attributes are shuffled independently; this is a distribution stand-in,
    not a joint-dependence model.
    """
    rng = np.random.default_rng(484)
    columns: dict[str, list[str]] = {}
    for attr, counts in REFERENCE_COUNTS.items():
        values: list[str] = []
        for cls, count in zip(ATTRIBUTE_SCHEMA[attr], counts):
            values.extend([cls] * count)
        order = rng.permutation(len(values))
        columns[attr] = [values[i] for i in order]
    return [AttributeLabels(**{attr: columns[attr][i] for attr in ATTRIBUTE_SCHEMA})
            for i in range(484)]


def test_reference_label_file_matches_published_distribution():
    labels = table1_reference_labels()
    assert len(labels) == 484
    dist = class_shares(labels)
    assert round(dist["gender"]["female"] * 100, 2) == 4.96
    assert round(dist["gender"]["male"] * 100, 2) == 95.04
    published = {
        "age_bin": (13.43, 53.72, 32.85),
        "occupation": (57.44, 42.56),
        "purchase_habits": (10.54, 61.16, 28.30),
        "openness": (19.22, 24.38, 56.40),
        "conscientiousness": (39.46, 23.97, 36.57),
        "extraversion": (47.31, 21.07, 31.62),
        "agreeableness": (20.87, 19.42, 59.71),
        "neuroticism": (53.51, 19.21, 27.27),
    }
    for attr, percentages in published.items():
        for cls, expected in zip(ATTRIBUTE_SCHEMA[attr], percentages):
            assert dist[attr][cls] * 100 == pytest.approx(expected, abs=0.01)


def test_synthetic_draws_recover_reference_distribution():
    # Labels drawn from the reference priors at n=10000 land within
    # 1.5 points of the configured distribution.
    from aia.synth import TABLE1_PRIORS

    labels = sample_labels(TABLE1_PRIORS, n=10_000, seed=7)
    dist = class_shares(labels)
    for attr, priors in TABLE1_PRIORS.items():
        total = sum(priors)
        for cls, prior in zip(ATTRIBUTE_SCHEMA[attr], priors):
            assert dist[attr][cls] == pytest.approx(prior / total, abs=0.015)


def test_survey_csv_round_trip(tmp_path):
    survey = tmp_path / "survey.csv"
    survey.write_text(
        "steam_id,gender,age,employment,purchase_frequency,openness,"
        "conscientiousness,extraversion,agreeableness,neuroticism,country\n"
        "7,female,17,student,0,80,20,40,70,10,DE\n"
        "9,male,30,yes,2,10,90,70,30,50,BR\n"
        "11,male,52,no,1,10,20,30,40,50,US\n"
    )
    rows = read_survey_csv(survey)
    assert len(rows) == 3
    binned = bin_survey(rows)
    assert set(binned.labels) == {7, 9}
    assert binned.excluded[0][0] == 11  # age 52 is out of window
    assert binned.labels[7].occupation == "no"
    assert binned.labels[7].gender == "female"
    assert binned.labels[9].purchase_habits == "regularly"

    out = tmp_path / "labels.csv"
    write_labels_csv(binned.labels, out)
    loaded = read_labels_csv(out)
    assert loaded == binned.labels


_SURVEY = ("steam_id,gender,age,employment,purchase_frequency,openness,"
           "conscientiousness,extraversion,agreeableness,neuroticism,country\n"
           "7,female,17,student,0,80,20,40,70,10,DE\n"
           "9,male,30,yes,2,10,90,70,30,50,BR\n")


@pytest.mark.parametrize("column", ["steam_id", "age", "purchase_frequency",
                                    "neuroticism"])
def test_survey_names_a_cell_that_is_not_an_integer(tmp_path, column):
    header, first, second = _SURVEY.splitlines(keepends=True)
    cells = second.split(",")
    cells[header.split(",").index(column)] = "abc"
    survey = tmp_path / "survey.csv"
    survey.write_text(header + first + ",".join(cells))
    with pytest.raises(SchemaError) as err:
        read_survey_csv(survey)
    assert str(survey) in str(err.value)
    assert "data row 2" in str(err.value) and f"$.{column}" in str(err.value)


def test_survey_names_a_short_row(tmp_path):
    survey = tmp_path / "survey.csv"
    survey.write_text(_SURVEY + "11,male,30\n")
    with pytest.raises(SchemaError) as err:
        read_survey_csv(survey)
    assert str(survey) in str(err.value) and "data row 3" in str(err.value)


def test_labels_name_a_handle_that_is_not_an_integer(tmp_path):
    survey = tmp_path / "survey.csv"
    survey.write_text(_SURVEY)
    out = tmp_path / "labels.csv"
    write_labels_csv(bin_survey(read_survey_csv(survey)).labels, out)
    out.write_text(out.read_text().replace("\n9,", "\nabc,"))
    with pytest.raises(SchemaError) as err:
        read_labels_csv(out)
    assert str(out) in str(err.value)
    assert "data row 2" in str(err.value) and "$.steam_id" in str(err.value)


# Text for one mutated CSV cell: anything, and the near misses of each kind.
CELL_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
    st.sampled_from(["", " ", "9", "11", "-1", "12", "13", "39", "100", "101",
                     "1e3", "3.0", " 7 ", "yes", "student", "maybe", "female",
                     "medium", "High", "13-18", "never"]),
    st.integers(-10**20, 10**20).map(str))


def _mutated_csv(tmp, text_of_file, row, column, text):
    path = Path(tmp) / "in.csv"
    path.write_text(text_of_file)
    with open(path, newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))
    records[row][records[0].index(column)] = text
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(records)
    return path


def _assert_names_the_cell(exc, path, row, column):
    assert str(path) in str(exc)
    assert f"data row {row}" in str(exc) and f"$.{column}" in str(exc)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2), st.sampled_from(SURVEY_COLUMNS), CELL_TEXT)
def test_survey_reader_takes_or_names_any_mutated_cell(row, column, text):
    # Either a SchemaError names the file, the data row and the column, or
    # every row loads and binning takes it (or excludes it with a reason).
    with tempfile.TemporaryDirectory() as tmp:
        path = _mutated_csv(tmp, _SURVEY, row, column, text)
        try:
            rows = read_survey_csv(path)
        except SchemaError as exc:
            _assert_names_the_cell(exc, path, row, column)
            return
    assert len({r.handle for r in rows}) == len(rows) == 2
    binned = bin_survey(rows)
    assert len(binned.labels) + len(binned.excluded) == 2


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2), st.sampled_from(LABEL_COLUMNS), CELL_TEXT)
def test_labels_reader_takes_or_names_any_mutated_cell(row, column, text):
    # Either a SchemaError names the file, the data row and the column, or
    # both players load with labels inside the schema.
    with tempfile.TemporaryDirectory() as tmp:
        survey = Path(tmp) / "survey.csv"
        survey.write_text(_SURVEY)
        labels = Path(tmp) / "labels.csv"
        write_labels_csv(bin_survey(read_survey_csv(survey)).labels, labels)
        path = _mutated_csv(tmp, labels.read_text(), row, column, text)
        try:
            loaded = read_labels_csv(path)
        except SchemaError as exc:
            _assert_names_the_cell(exc, path, row, column)
            return
    assert len(loaded) == 2
    for handle, lab in loaded.items():
        assert type(handle) is int
        assert all(getattr(lab, a) in ATTRIBUTE_SCHEMA[a] for a in ATTRIBUTE_SCHEMA)
