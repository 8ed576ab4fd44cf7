"""Self-tests of the benchmark's output checks.

    python3 -m pytest bench -q

Each check must pass a real output of the program and reject a copy of it
with one corruption. The outputs come from a small corpus built through the
CLI, so the tests take about ten seconds.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from workloads import DEFAULT_SEED, FIXTURE_DOC, WORKLOADS  # noqa: E402


def _aia(cwd: Path, *argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "aia.cli", *argv], cwd=cwd,
                          env=env, check=True, capture_output=True, text=True)
    return done.stdout


@pytest.fixture(scope="module")
def real(tmp_path_factory) -> Path:
    """A 24-player corpus and the outputs the checks read."""
    d = tmp_path_factory.mktemp("real")
    doc = dict(FIXTURE_DOC, n_players=24, matches_range=[5, 6], seed=7)
    (d / "synth.json").write_text(json.dumps(doc), encoding="utf-8")
    _aia(d, "synth", "--config", "synth.json", "--out", "cache")
    _aia(d, "labels", "--in", "cache/survey.csv", "--out", "labels.csv")
    for variant in ("P", "M", "Mbar"):
        _aia(d, "featurize", "--variant", variant, "--cache", "cache",
             "--labels", "labels.csv", "--out", "out/features", "--variants", "1")
    _aia(d, "correlate", "--features", "out/features/P.csv", "--labels",
         "labels.csv", "--out", "out/correlations")
    _aia(d, "attack", "--protocol", "indiscriminate", "--features", "out/features",
         "--labels", "labels.csv", "--out", "out/indiscriminate.json",
         "--draws", "2", "--jobs", "1")
    (d / "out" / "table8.txt").write_text(_aia(d, "reproduce-table8"),
                                          encoding="utf-8")
    return d


def _copy(real: Path, tmp_path: Path) -> Path:
    shutil.copytree(real / "out", tmp_path / "out")
    return tmp_path / "out"


def test_real_outputs_pass(real):
    players, naive = checks.load_corpus(real / "cache")
    features = real / "out" / "features"
    report = json.loads((real / "out" / "indiscriminate.json").read_text())
    assert checks.check_labels(real / "labels.csv", real / "cache" / "manifest.json") == []
    assert checks.check_match_matrix(features / "M.csv", naive) == []
    assert checks.check_player_matrix(features / "P.csv", players, naive) == []
    assert checks.check_distilled(features, 1) == []
    assert checks.check_correlations(real / "out" / "correlations" / "correlations.json",
                                     features / "P.csv", real / "labels.csv") == []
    assert checks.check_indiscriminate(report, 2) == []
    assert checks.check_table8((real / "out" / "table8.txt").read_text()) == []


def test_perturbed_m_cell_is_rejected(real, tmp_path):
    out = _copy(real, tmp_path)
    m_csv = out / "features" / "M.csv"
    lines = m_csv.read_text(encoding="utf-8").splitlines(keepends=True)
    header = lines[0].rstrip("\r\n").split(",")
    cells = lines[5].rstrip("\r\n").split(",")
    k = header.index("kills")
    cells[k] = repr(float(cells[k]) + 1.0)
    lines[5] = ",".join(cells) + "\r\n"
    m_csv.write_text("".join(lines), encoding="utf-8")
    _, naive = checks.load_corpus(real / "cache")
    errors = checks.check_match_matrix(m_csv, naive)
    assert len(errors) == 1 and "kills" in errors[0]
    # The distilled variant no longer matches its M row either.
    assert checks.check_distilled(out / "features", 1)


def test_swapped_top_k_order_is_rejected(real, tmp_path):
    out = _copy(real, tmp_path)
    path = out / "correlations" / "correlations.json"
    doc = json.loads(path.read_text())
    attr = next(a for a, hits in doc["top_correlations"].items()
                if len(hits) >= 2 and abs(hits[0]["value"]) > abs(hits[1]["value"]) + 1e-6)
    hits = doc["top_correlations"][attr]
    hits[0], hits[1] = hits[1], hits[0]
    path.write_text(json.dumps(doc))
    errors = checks.check_correlations(path, out / "features" / "P.csv",
                                       real / "labels.csv")
    assert errors and all("top-" in e for e in errors)


def test_top2_below_top1_is_rejected(real):
    report = json.loads((real / "out" / "indiscriminate.json").read_text())
    attr, row = next(iter(report["metric_tables"].items()))
    row["top2"]["mean"] = row["top1"]["mean"] - 0.1
    row["improvement"] = row["top2"]["mean"] - row["top1"]["mean"]
    assert f"indiscriminate: {attr} top2 < top1" in checks.check_indiscriminate(report, 2)


def test_one_byte_difference_is_rejected(real, tmp_path):
    out = _copy(real, tmp_path)
    path = out / "indiscriminate.json"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))
    assert checks.compare_trees(real / "out", out) == ["indiscriminate.json"]


def test_wrong_ledger_is_rejected(real):
    text = (real / "out" / "table8.txt").read_text().replace("reject 4/9", "reject 5/9")
    assert checks.check_table8(text)


def test_default_seed_rebuilds_the_readme_fixture():
    sys.path.insert(0, str(ROOT / "src"))
    from aia.synth import FIXTURE_CONFIG

    assert WORKLOADS["profile-cv"].corpus_doc(DEFAULT_SEED) == FIXTURE_CONFIG.to_json_dict()
