"""Golden-file regression over the frozen fixture corpus.

The goldens were produced by the first verified run and reviewed by hand;
any byte drift in a re-run means features, statistics, or protocol
plumbing changed behavior.
"""

import json
import warnings
from pathlib import Path

import pytest

from aia import attacks
from aia.cli import _write_json, correlation_doc, main
from aia.features import FeatureContext, build_player_matrix
from aia.synth import FIXTURE_CONFIG, generate_population

warnings.filterwarnings("ignore", category=RuntimeWarning)

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def fixture_p():
    pop = generate_population(FIXTURE_CONFIG)
    ctx = FeatureContext.default()
    return pop, build_player_matrix(pop.players, pop.matches, ctx)


def test_correlation_report_matches_golden(fixture_p):
    pop, P = fixture_p
    doc = correlation_doc(P, pop.labels, 0.01, 3)
    produced = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert produced == (GOLDEN_DIR / "correlations.json").read_text()


def test_simple_attack_report_matches_golden(fixture_p, tmp_path):
    pop, P = fixture_p
    report = attacks.simple_aia(
        P, pop.labels, algorithms=("decision_tree", "dummy_stratified"),
        seed=17, outer_folds=3, grids=attacks.DESK_GRIDS,
        attributes=("age_bin", "occupation"))
    _write_json(tmp_path / "simple.json", report.to_json_dict())
    assert (tmp_path / "simple.json").read_bytes() == \
        (GOLDEN_DIR / "simple_report.json").read_bytes()


def test_full_cli_pipeline_on_fixture(tmp_path):
    """synth -> labels -> featurize -> attack completes end to end."""
    cache = tmp_path / "cache"
    labels_csv = tmp_path / "labels.csv"
    features = tmp_path / "features"
    out = tmp_path / "simple.json"
    assert main(["synth", "--fixture", "--out", str(cache)]) == 0
    assert main(["labels", "--in", str(cache / "survey.csv"),
                 "--out", str(labels_csv)]) == 0
    assert main(["featurize", "--variant", "P", "--cache", str(cache),
                 "--labels", str(labels_csv), "--out", str(features)]) == 0
    assert main(["attack", "--protocol", "simple", "--features", str(features),
                 "--labels", str(labels_csv), "--out", str(out),
                 "--algorithms", "decision_tree,dummy_stratified",
                 "--seed", "17", "--jobs", "2"]) == 0
    doc = json.loads(out.read_text())
    assert doc["protocol"] == "simple"
    assert set(doc["metric_tables"]) == {
        "gender", "age_bin", "occupation", "purchase_habits", "openness",
        "conscientiousness", "extraversion", "agreeableness", "neuroticism"}
