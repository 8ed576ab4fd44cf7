import csv
import json
import os
import shutil
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from aia import cli, stats, workers
from aia.cli import main
from aia.synth import NumericEffect, RateEffect, SynthConfig


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """One synth -> labels -> featurize pass shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cache = root / "cache"
    config = SynthConfig(
        n_players=40, matches_range=(6, 12), messages_per_match=8.0,
        priors={
            "gender": (0.2, 0.8),
            "age_bin": (0.3, 0.4, 0.3),
            "occupation": (0.5, 0.5),
            "purchase_habits": (0.3, 0.4, 0.3),
            "openness": (0.34, 0.33, 0.33),
            "conscientiousness": (0.34, 0.33, 0.33),
            "extraversion": (0.34, 0.33, 0.33),
            "agreeableness": (0.34, 0.33, 0.33),
            "neuroticism": (0.34, 0.33, 0.33),
        },
        numeric_effects=(NumericEffect("kills", "age_bin", -0.6),),
        rate_effects=(RateEffect("chat_slang_count", "age_bin", -3.5),),
        seed=99)
    config_path = root / "synth.json"
    config_path.write_text(json.dumps(config.to_json_dict()))
    assert main(["synth", "--config", str(config_path),
                 "--out", str(cache)]) == 0
    labels_csv = root / "labels.csv"
    assert main(["labels", "--in", str(cache / "survey.csv"),
                 "--out", str(labels_csv)]) == 0
    features = root / "features"
    for variant in ("P", "M"):
        assert main(["featurize", "--variant", variant, "--cache", str(cache),
                     "--labels", str(labels_csv), "--out", str(features)]) == 0
    assert main(["featurize", "--variant", "Mbar", "--cache", str(cache),
                 "--labels", str(labels_csv), "--out", str(features),
                 "--variants", "2", "--seed", "5"]) == 0
    return root, cache, labels_csv, features


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["attack", "--bogus-flag"])
    assert err.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_data_error_exits_1(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["synth", "--config", str(missing),
                 "--out", str(tmp_path / "out")]) == 1
    assert "error:" in capsys.readouterr().err
    code = main(["attack", "--protocol", "targeted", "--features",
                 str(tmp_path), "--labels", str(tmp_path / "labels.csv"),
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_synth_outputs_cache_layout(pipeline_dirs):
    _, cache, _, _ = pipeline_dirs
    assert (cache / "players").is_dir()
    assert (cache / "matches").is_dir()
    assert (cache / "manifest.json").exists()
    assert (cache / "survey.csv").exists()


def test_featurize_outputs(pipeline_dirs):
    _, _, _, features = pipeline_dirs
    assert (features / "P.csv").exists()
    assert (features / "P.csv.schema.json").exists()
    assert (features / "M.csv").exists()
    assert (features / "Mbar_00.csv").exists()
    assert (features / "Mbar_01.csv").exists()
    assert (features / "filter_report.json").exists()


@pytest.mark.parametrize("field, value", [
    ("chat", [{"slot": None, "time": 1.0, "type": "chat", "key": "gg"}]),
    ("objectives", [5]),
    ("all_word_counts", {"gg": "x"}),
    ("profile", 3),
    ("human_players", -1),
])
def test_featurize_on_malformed_cached_match_exits_1(pipeline_dirs, tmp_path,
                                                    capsys, field, value):
    # The field is set on a player's document when that document has it,
    # otherwise on the player's first match.
    _, cache, labels_csv, _ = pipeline_dirs
    broken = tmp_path / "cache"
    shutil.copytree(cache, broken)
    player_path = next((broken / "players").glob("*.json"))
    player = json.loads(player_path.read_text())
    path = player_path if field in player else \
        broken / "matches" / f"{player['matches'][0]['match_id']}.json"
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    code = main(["featurize", "--variant", "P", "--cache", str(broken),
                 "--labels", str(labels_csv), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and path.name in err
    assert "Traceback" not in err


@pytest.mark.parametrize("content", ["[1]", "{"])
def test_featurize_names_an_unreadable_cached_match(pipeline_dirs, tmp_path,
                                                    capsys, content):
    _, cache, labels_csv, _ = pipeline_dirs
    broken = tmp_path / "cache"
    shutil.copytree(cache, broken)
    player = json.loads(next((broken / "players").glob("*.json")).read_text())
    path = broken / "matches" / f"{player['matches'][0]['match_id']}.json"
    path.write_text(content)
    code = main(["featurize", "--variant", "P", "--cache", str(broken),
                 "--labels", str(labels_csv), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and path.name in err
    assert "Traceback" not in err


def test_featurize_on_a_cached_match_of_another_id_exits_1(pipeline_dirs, tmp_path,
                                                         capsys):
    # A match file copied over another's would give its rows twice.
    _, cache, labels_csv, _ = pipeline_dirs
    broken = tmp_path / "cache"
    shutil.copytree(cache, broken)
    player = json.loads(next((broken / "players").glob("*.json")).read_text())
    first, second = (m["match_id"] for m in player["matches"][:2])
    path = broken / "matches" / f"{first}.json"
    shutil.copyfile(broken / "matches" / f"{second}.json", path)
    code = main(["featurize", "--variant", "M", "--cache", str(broken),
                 "--labels", str(labels_csv), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == (f"error: {path}: $.match_id: holds match {second}, "
                   f"expected {first}\n")
    assert not (tmp_path / "out").exists()


def test_featurize_on_stray_player_file_exits_1(pipeline_dirs, tmp_path, capsys):
    _, cache, labels_csv, _ = pipeline_dirs
    broken = tmp_path / "cache"
    shutil.copytree(cache, broken)
    (broken / "players" / "abc.json").write_text("{}")
    code = main(["featurize", "--variant", "P", "--cache", str(broken),
                 "--labels", str(labels_csv), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and "abc.json" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["rank_tier", "match_id"])
def test_player_integer_past_the_float_range_exits_1(pipeline_dirs, tmp_path,
                                                     capsys, field):
    _, cache, labels_csv, _ = pipeline_dirs
    broken = tmp_path / "cache"
    shutil.copytree(cache, broken)
    path = next((broken / "players").glob("*.json"))
    doc = json.loads(path.read_text())
    if field == "rank_tier":
        doc.setdefault("profile", {})["rank_tier"] = 10**400
    else:
        doc["matches"][0]["match_id"] = 10**400
    path.write_text(json.dumps(doc))
    _exits_1_naming(["featurize", "--variant", "P", "--cache", str(broken),
                     "--labels", str(labels_csv), "--out", str(tmp_path / "out")],
                    capsys, str(path), field)
    handles = tmp_path / "handles.txt"
    handles.write_text(f"{path.stem}\n")
    _exits_1_naming(["ingest", "--handles", str(handles), "--cache", str(broken),
                     "--offline", "--window-days", str(doc["window_days"])],
                    capsys, str(path), field)


def _main_without_numpy(*argv: str) -> None:
    """Run `aia.cli.main(argv)` in a fresh interpreter; it must exit 0 without
    numpy in sys.modules."""
    script = ("import sys\n"
              "from aia.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "assert code == 0, code\n"
              "assert 'numpy' not in sys.modules, 'numpy imported'\n")
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script, *argv],
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_labels_command_does_not_import_numpy(pipeline_dirs, tmp_path):
    _, cache, _, _ = pipeline_dirs
    _main_without_numpy("labels", "--in", str(cache / "survey.csv"),
                        "--out", str(tmp_path / "labels.csv"))
    assert (tmp_path / "labels.csv").exists()


def test_featurize_m_does_not_import_numpy(pipeline_dirs, tmp_path):
    # M holds only the naive columns: no expert value, no numpy.
    _, cache, labels_csv, features = pipeline_dirs
    _main_without_numpy("featurize", "--variant", "M", "--cache", str(cache),
                        "--labels", str(labels_csv), "--out", str(tmp_path))
    assert (tmp_path / "M.csv").read_bytes() == (features / "M.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["reproduce-table8"],
    ["sample-size", "--population", "1000"],
], ids=["validate", "reproduce-table8", "sample-size"])
def test_light_commands_do_not_import_numpy(argv):
    # These need only the tail probabilities and the normal quantile.
    _main_without_numpy(*argv)


def test_correlate_emits_reports(pipeline_dirs):
    root, _, labels_csv, features = pipeline_dirs
    out = root / "correlations"
    assert main(["correlate", "--features", str(features / "P.csv"),
                 "--labels", str(labels_csv), "--alpha", "0.05",
                 "--top", "3", "--out", str(out)]) == 0
    doc = json.loads((out / "correlations.json").read_text())
    assert "top_correlations" in doc
    assert (out / "correlations.csv").exists()


def test_correlate_scans_each_pair_once(pipeline_dirs, tmp_path, monkeypatch):
    _, _, labels_csv, features = pipeline_dirs
    calls = []
    scan = stats.correlation_scan

    def counted_scan(*args, **kwargs):
        calls.append(1)
        return scan(*args, **kwargs)

    monkeypatch.setattr(stats, "correlation_scan", counted_scan)
    assert main(["correlate", "--features", str(features / "P.csv"),
                 "--labels", str(labels_csv), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def _set_cell(src, dst, column, text, row=1):
    """Copy the CSV `src` to `dst` with one cell of data row `row` set to
    `text`; returns the cell's old value."""
    lines = src.read_text().splitlines(keepends=True)
    at = lines[0].rstrip("\r\n").split(",").index(column)
    cells = lines[row].split(",")
    old, cells[at] = cells[at], text
    lines[row] = ",".join(cells)
    dst.write_text("".join(lines))
    return old


def _exits_1_naming(argv, capsys, *words):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert all(word in err for word in words), err


def test_correlate_on_a_non_numeric_cell_exits_1(pipeline_dirs, tmp_path, capsys):
    _, _, labels_csv, features = pipeline_dirs
    sidecar = json.loads((features / "P.csv.schema.json").read_text())
    column = next(c["name"] for c in sidecar["columns"] if c["kind"] == "numeric")
    broken = tmp_path / "P.csv"
    shutil.copy(features / "P.csv.schema.json", tmp_path / "P.csv.schema.json")
    _set_cell(features / "P.csv", broken, column, "x1", row=3)
    _exits_1_naming(["correlate", "--features", str(broken), "--labels",
                     str(labels_csv), "--out", str(tmp_path / "out")],
                    capsys, str(broken), "data row 3", repr(column))


def test_correlate_on_a_non_integer_label_id_exits_1(pipeline_dirs, tmp_path,
                                                     capsys):
    _, _, labels_csv, features = pipeline_dirs
    broken = tmp_path / "labels.csv"
    _set_cell(labels_csv, broken, "steam_id", "abc")
    _exits_1_naming(["correlate", "--features", str(features / "P.csv"),
                     "--labels", str(broken), "--out", str(tmp_path / "out")],
                    capsys, str(broken), "data row 1", "steam_id")


def test_labels_on_a_non_integer_survey_cell_exits_1(pipeline_dirs, tmp_path,
                                                     capsys):
    _, cache, _, _ = pipeline_dirs
    broken = tmp_path / "survey.csv"
    _set_cell(cache / "survey.csv", broken, "age", "abc", row=2)
    _exits_1_naming(["labels", "--in", str(broken), "--out",
                     str(tmp_path / "labels.csv")],
                    capsys, str(broken), "data row 2", "age")
    assert not (tmp_path / "labels.csv").exists()


@pytest.mark.parametrize("extra", [False, True], ids=["short", "long"])
def test_correlate_on_a_row_of_the_wrong_width_exits_1(pipeline_dirs, tmp_path,
                                                       capsys, extra):
    _, _, labels_csv, features = pipeline_dirs
    broken = tmp_path / "M.csv"
    shutil.copy(features / "M.csv.schema.json", tmp_path / "M.csv.schema.json")
    lines = (features / "M.csv").read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\r\n").split(",")
    cells = lines[2].rstrip("\r\n").split(",")
    lines[2] = ",".join(cells + ["1.0", "2.0"] if extra else cells[:2]) + "\r\n"
    broken.write_text("".join(lines))
    _exits_1_naming(["correlate", "--features", str(broken), "--labels",
                     str(labels_csv), "--out", str(tmp_path / "out")],
                    capsys, str(broken), "data row 2",
                    repr(header[-1] if extra else header[2]))


def test_ingest_on_a_non_integer_handle_exits_1(tmp_path, capsys):
    handles = tmp_path / "handles.txt"
    handles.write_text("7\nabc\n")
    _exits_1_naming(["ingest", "--handles", str(handles), "--cache",
                     str(tmp_path / "cache"), "--offline"],
                    capsys, str(handles), "line 2", "'abc'")


@pytest.mark.parametrize("handle", ["0", "-5"])
def test_ingest_on_a_non_positive_handle_exits_1(tmp_path, capsys, handle):
    handles = tmp_path / "handles.txt"
    handles.write_text(f"7\n{handle}\n")
    _exits_1_naming(["ingest", "--handles", str(handles), "--cache",
                     str(tmp_path / "cache"), "--offline"],
                    capsys, str(handles), "line 2", repr(handle))


@pytest.mark.parametrize("rate", ["-2", "0", "nan", "inf"])
def test_ingest_refuses_a_bad_rate_before_any_work(tmp_path, capsys, rate):
    # The handles file does not exist: reading it first would name it.
    assert main(["ingest", "--handles", str(tmp_path / "handles.txt"), "--cache",
                 str(tmp_path / "cache"), "--rate", rate]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --rate ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


def test_synth_on_a_non_numeric_config_field_exits_1(tmp_path, capsys):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"n_players": "x"}))
    _exits_1_naming(["synth", "--config", str(config), "--out",
                     str(tmp_path / "cache")], capsys, str(config), "'n_players'")
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("doc, field", [
    ({"matches_range": ["a", "b"]}, "matches_range"),
    ({"numeric_effects": [{"feature": "kills", "attribute": "age_bin",
                           "rho": "x"}]}, "rho"),
], ids=["matches_range", "rho"])
def test_synth_on_a_non_numeric_config_value_names_its_field(tmp_path, capsys,
                                                             doc, field):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(doc))
    _exits_1_naming(["synth", "--config", str(config), "--out",
                     str(tmp_path / "cache")], capsys, str(config), field)
    assert not (tmp_path / "cache").exists()


def test_validate_on_a_document_without_tables_exits_1(tmp_path, capsys):
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps({"foo": 1}))
    _exits_1_naming(["validate", "--pairs", str(pairs)], capsys, str(pairs),
                    "'simple'")


def test_validate_on_a_document_that_is_not_an_object_exits_1(tmp_path, capsys):
    pairs = tmp_path / "pairs.json"
    pairs.write_text("[]")
    _exits_1_naming(["validate", "--pairs", str(pairs)], capsys, str(pairs),
                    "$: expected an object, got list")


def test_validate_on_a_non_integer_run_count_names_its_field(tmp_path, capsys):
    from aia.validation import load_published_results

    doc = load_published_results()
    doc["simple"]["n_runs"] = "x"
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps(doc))
    _exits_1_naming(["validate", "--pairs", str(pairs)], capsys, str(pairs),
                    "simple.n_runs", "'x'")


def test_validate_on_a_missing_run_count_names_its_table(tmp_path, capsys):
    from aia.validation import load_published_results

    doc = load_published_results()
    del doc["one_match"]["n_runs"]
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps(doc))
    _exits_1_naming(["validate", "--pairs", str(pairs)], capsys, str(pairs),
                    "missing field 'one_match.n_runs'")


def test_validate_on_stds_whose_pooled_variance_underflows(tmp_path, capsys):
    # Stds of 1e-200 square to zero in floating point; the rescaled test
    # still gives a finite t and rejects the pair.
    from aia.validation import load_published_results

    doc = load_published_results()
    row = doc["simple"]["attributes"]["gender"]
    row["dummy"][1] = row["mlp"][1] = 1e-200
    pairs, ledger = tmp_path / "pairs.json", tmp_path / "ledger.csv"
    pairs.write_text(json.dumps(doc))
    assert main(["validate", "--pairs", str(pairs), "--out", str(ledger)]) == 0
    assert "dummy_vs_best_model: reject 5/9" in capsys.readouterr().out
    with open(ledger, newline="") as fh:
        gender = next(r for r in csv.DictReader(fh)
                      if r["pair"] == "gender:dummy vs gender:mlp")
    assert float(gender["t_statistic"]) < -1e200
    assert (gender["p_value"], gender["rejected"]) == ("0.0", "True")


@pytest.mark.parametrize("edit, words", [
    (lambda doc: doc["simple"]["attributes"]["gender"].update(best=["x"]),
     ["simple.attributes.gender.best", "['x']"]),
    (lambda doc: doc["simple"]["attributes"]["gender"].update(best=5),
     ["simple.attributes.gender.best", "got 5"]),
    (lambda doc: doc.update(simple=[]), ["simple: expected an object"]),
    (lambda doc: doc["one_match"].update(attributes=[]),
     ["one_match.attributes: expected an object"]),
    (lambda doc: doc["one_match"]["attributes"].update(gender=[]),
     ["one_match.attributes.gender: expected an object"]),
    (lambda doc: doc["simple"]["attributes"]["gender"].pop("dummy"),
     ["'gender'", "'dummy'"]),
    (lambda doc: doc["simple"]["attributes"]["gender"].update(dummy=[50.0, -1.0]),
     ["'gender:dummy'", "negative std"]),
    (lambda doc: doc["one_match"].update(n_runs=1), ["one_match.n_runs", "got 1"]),
    (lambda doc: doc["one_match"].update(n_runs=5.7), ["one_match.n_runs", "got 5.7"]),
    (lambda doc: doc["one_match"].update(n_runs=True),
     ["one_match.n_runs", "got True"]),
], ids=["list best", "number best", "list table", "list attributes", "list row",
        "no dummy column", "negative std", "one run", "fractional runs",
        "boolean runs"])
def test_validate_on_a_malformed_table_names_file_and_field(tmp_path, capsys, edit,
                                                            words):
    from aia.validation import load_published_results

    doc = load_published_results()
    edit(doc)
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps(doc))
    _exits_1_naming(["validate", "--pairs", str(pairs)], capsys, str(pairs), *words)


@pytest.mark.parametrize("command", [
    ["correlate", "--features", "{features}/P.csv"],
    ["attack", "--protocol", "simple", "--features", "{features}"],
    ["attack", "--protocol", "one-match", "--features", "{features}"],
    ["attack", "--protocol", "one-match", "--expert", "--features", "{features}"],
    ["attack", "--protocol", "sophisticated", "--features", "{features}"],
    ["attack", "--protocol", "targeted", "--features", "{features}"],
], ids=["correlate", "simple", "one-match", "one-match expert", "sophisticated",
        "targeted"])
def test_owner_missing_from_labels_exits_1(pipeline_dirs, tmp_path, capsys,
                                           command):
    _, _, labels_csv, features = pipeline_dirs
    lines = labels_csv.read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\r\n").split(",")
    dropped = lines[1].split(",")[header.index("steam_id")]
    short = tmp_path / "short_labels.csv"
    short.write_text(lines[0] + "".join(lines[2:]))
    argv = [arg.format(features=features) for arg in command]
    assert main(argv + ["--labels", str(short), "--out",
                        str(tmp_path / "out" / "report.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"owner {dropped} " in err and str(short) in err
    assert not (tmp_path / "out").exists()


def test_attack_runs_serially_whatever_jobs(pipeline_dirs, tmp_path,
                                            monkeypatch):
    _, _, labels_csv, features = pipeline_dirs
    argv = ["attack", "--protocol", "simple", "--features", str(features),
            "--labels", str(labels_csv), "--algorithms", "dummy_stratified",
            "--seed", "4"]
    assert main(argv + ["--out", str(tmp_path / "one.json"),
                        "--jobs", "1"]) == 0

    def no_threads(self):
        raise AssertionError("an attack started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_threads)
    assert main(argv + ["--out", str(tmp_path / "four.json"),
                        "--jobs", "4"]) == 0
    assert (tmp_path / "four.json").read_bytes() == \
        (tmp_path / "one.json").read_bytes()


@pytest.mark.parametrize("preset", [{}, {"OMP_NUM_THREADS": "2"}])
def test_main_pins_blas_to_one_thread_unless_the_caller_chose(monkeypatch, capsys,
                                                              preset):
    env = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS}
    monkeypatch.setattr(os, "environ", dict(env, **preset))
    assert main(["sample-size", "--population", "100"]) == 0
    pinned = {var: os.environ.get(var) for var in cli.BLAS_THREAD_VARS}
    if preset:
        assert pinned == {var: preset.get(var) for var in cli.BLAS_THREAD_VARS}
    else:
        assert pinned == dict.fromkeys(cli.BLAS_THREAD_VARS, "1")


def test_attack_simple_runs_and_is_idempotent(pipeline_dirs):
    root, _, labels_csv, features = pipeline_dirs
    out = root / "simple.json"
    argv = ["attack", "--protocol", "simple", "--features", str(features),
            "--labels", str(labels_csv), "--out", str(out),
            "--algorithms", "decision_tree,dummy_stratified",
            "--seed", "3", "--jobs", "1"]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first
    doc = json.loads(first)
    assert doc["config"]["tool_version"]
    assert doc["config"]["config_hash"]
    assert doc["config"]["seed"] == 3
    metrics_csv = out.with_suffix(".metrics.csv")
    assert metrics_csv.exists()
    assert metrics_csv.read_text().startswith("attribute,model,mean,std,n_runs")


def test_attack_targeted_writes_curve_files(pipeline_dirs):
    root, _, labels_csv, features = pipeline_dirs
    out = root / "targeted.json"
    assert main(["attack", "--protocol", "targeted", "--features",
                 str(features), "--labels", str(labels_csv), "--out", str(out),
                 "--target", "very_young", "--repeats", "2", "--draws", "4",
                 "--sweep-start", "1", "--sweep-stop", "5",
                 "--seed", "2", "--jobs", "1"]) == 0
    assert out.exists()
    assert out.with_suffix(".curves.csv").exists()


# sha256 of each per-match report (and its CSV) on the 40-player corpus
# above, recorded before the ENN and forest kernels were rewritten: the
# rewrites must keep every byte.
PER_MATCH_REPORT_SHA256 = {
    "indiscriminate": {
        ".json": "6602bacdcb35eccd5210bfce7d14fc595147b70cf26699cab29e88a7e64bc6c8",
        ".metrics.csv": "52f5c2811a4a8159fdf0c30f48c80b3da46bada7c2d72e12ddc8342d8677e68e"},
    "one-match": {
        ".json": "dbf397cf173562bfdb63fc0dcfe1d74a3a260fc0497760a858f7c7acac953912",
        ".metrics.csv": "69aed05061a069b47e566cac20a6e5306bdd92a1d1202577c98c91669ac6f897"},
    "sophisticated": {
        ".json": "14846efa44d88a75261fa52511a1edafe0bc8aa8f8d58f176ebb95d16583a80c",
        ".curves.csv": "748a7e3dd5a83ed86176bcbd06d01e87b1ee28db524aa0dd2d5e65a1dd2dd30d"},
    "targeted": {
        ".json": "a26b1882f2998e083d6831df5f0ceedec1f7f5d561bdb6d753cf284b8bd3ed7c",
        ".curves.csv": "4990cc72404217fe33942c1e078897c9258200b000a045898140984eee7ac11f"},
}


# sha256 of each featurize output on the 40-player corpus above, recorded
# before the parser, the feature rows and the CSV writer were rewritten for
# speed: the rewrites must keep every byte. Every player has at most 12
# matches, under the distill cap, so both Mbar variants keep every row.
FEATURIZE_SHA256 = {
    "P.csv": "2c2d65fd875ba75b33cbcd5e6544995f2f62c1b135c4b3f09e1da83f8bf2591a",
    "P.csv.schema.json": "ad84a3420a454509ad522a1a1821dedeb80b3b03df497a29630df477ee807d13",
    "M.csv": "c9c47816908f7d347e8537daee5753c437f990a3bb0211294428a4781f6608d0",
    "M.csv.schema.json": "e1f7ecbe0d1a496bbad19897ac668a2ce9eee0b16a15d088448730396d0b81e3",
    "Mbar_00.csv": "d6d64dd4156ada183e9e56880c3274a2760a15ff1bdebf79711ef0afbe06d81a",
    "Mbar_00.csv.schema.json": "f31a3e422ceea784db2c342f6b4344bc1fccf5a5bd2138ceee940a5a9c1b147b",
    "Mbar_01.csv": "d6d64dd4156ada183e9e56880c3274a2760a15ff1bdebf79711ef0afbe06d81a",
    "Mbar_01.csv.schema.json": "91e08cb35e21c6763bb3bf114e5929a3089ba07f46fb1fdce1cbc4e75b2a107f",
    "filter_report.json": "b0f8f38b1063881d72b89f26ad53530ab4b5a6e5711a5e210e2112f2acdc00fb",
}


def test_featurize_outputs_keep_their_bytes(pipeline_dirs):
    import hashlib

    _, _, _, features = pipeline_dirs
    digests = {name: hashlib.sha256((features / name).read_bytes()).hexdigest()
               for name in FEATURIZE_SHA256}
    assert digests == FEATURIZE_SHA256


@pytest.fixture(scope="module")
def capped_corpus(tmp_path_factory):
    """Eight players with 28-40 matches each: the distill cap of 30 drops
    rows of most of them."""
    root = tmp_path_factory.mktemp("capped")
    config_path = root / "synth.json"
    config_path.write_text(json.dumps(SynthConfig(
        n_players=8, matches_range=(28, 40), seed=3).to_json_dict()))
    assert main(["synth", "--config", str(config_path),
                 "--out", str(root / "cache")]) == 0
    assert main(["labels", "--in", str(root / "cache" / "survey.csv"),
                 "--out", str(root / "labels.csv")]) == 0
    return root / "cache", root / "labels.csv"


def _featurize_with_workers(monkeypatch, n_workers, cache, labels_csv, out,
                            variants=("P", "M", "Mbar")):
    """Exit codes of featurize with `n_workers` CPUs, and its outputs."""
    monkeypatch.setattr(workers, "worker_count", lambda: n_workers)
    codes = [main(["featurize", "--variant", variant, "--cache", str(cache),
                   "--labels", str(labels_csv), "--out", str(out),
                   "--variants", "3", "--seed", "5"]) for variant in variants]
    outputs = {p.name: p.read_bytes() for p in sorted(out.iterdir())} \
        if out.exists() else {}
    return codes, outputs


@pytest.mark.parametrize("corpus", ["pipeline", "capped"])
def test_featurize_outputs_do_not_depend_on_the_worker_count(
        pipeline_dirs, capped_corpus, tmp_path, monkeypatch, corpus):
    if corpus == "pipeline":
        _, cache, labels_csv, _ = pipeline_dirs
    else:
        cache, labels_csv = capped_corpus
    players, _ = cli._load_players(cache, labels_csv)
    runs = {}
    for n_workers in (1, 2, 3):
        assert len(workers.shards(players, n_workers, cli._match_count)) == n_workers
        codes, runs[n_workers] = _featurize_with_workers(
            monkeypatch, n_workers, cache, labels_csv, tmp_path / str(n_workers))
        assert codes == [0, 0, 0]
    assert runs[2] == runs[1] and runs[3] == runs[1]
    if corpus == "capped":
        def rows_per_owner(csv_bytes):
            return Counter(line.split(b",")[0] for line in csv_bytes.splitlines()[1:])

        m_rows = rows_per_owner(runs[1]["M.csv"])
        assert max(m_rows.values()) > 30
        assert rows_per_owner(runs[1]["Mbar_00.csv"]) == {
            owner: min(n, 30) for owner, n in m_rows.items()}
        assert runs[1]["Mbar_00.csv"] != runs[1]["Mbar_01.csv"]


def test_m_lines_are_prefixes_of_the_uncapped_mbar_lines(capped_corpus):
    from aia.features import FeatureContext, build_shard_lines

    cache, labels_csv = capped_corpus
    players, _ = cli._load_players(cache, labels_csv)
    matches = cli._load_matches(cache, players, 0)
    ctx = FeatureContext.default()
    m_owners, m_lines = build_shard_lines("M", players, matches, ctx)
    bar_owners, bar_lines = build_shard_lines("M_bar", players, matches, ctx)
    assert m_owners == bar_owners and m_lines
    for m_line, bar_line in zip(m_lines, bar_lines):
        assert bar_line.startswith(m_line.rstrip("\r\n") + ",")


def test_shards_are_contiguous_runs_balanced_by_match_count():
    from aia.ingest import PlayerRecord

    def record(handle, n):
        return PlayerRecord(handle=handle, rank_tier=None, has_plus=False,
                            match_ids=tuple(range(n)))

    players = [record(h, n) for h, n in enumerate([30, 5, 5, 5, 5, 5, 5])]

    def shards(items, n):
        return workers.shards(items, n, cli._match_count)

    assert shards(players, 2) == [players[:1], players[1:]]
    assert shards(players, 3) == [players[:1], players[1:4], players[4:]]
    assert shards(players[:2], 4) == [players[:1], players[1:2]]
    assert shards(players[1:], 1) == [players[1:]]
    assert shards([], 2) == [[]]


def _break_matches(cache, handle, keep_slot=None):
    """Corrupt every cached match of player `handle`, or with `keep_slot`
    rewrite all but that many so the player is not in them."""
    doc = json.loads((cache / "players" / f"{handle}.json").read_text())
    mids = [m["match_id"] for m in doc["matches"]]
    for mid in mids[keep_slot or 0:]:
        path = cache / "matches" / f"{mid}.json"
        if keep_slot is None:
            path.write_text("{not json")
        else:
            match = json.loads(path.read_text())
            for slot in match["players"]:
                if slot["account_id"] == handle:
                    slot["account_id"] = 1
            path.write_text(json.dumps(match))


@pytest.mark.parametrize("broken, words", [
    ({"last": None}, ["not a JSON document"]),
    ({"first": None, "last": None}, ["not a JSON document"]),
    ({"last": 4}, ["has 4 usable matches, need 5"]),
    ({"first": 4, "last": None}, ["not a JSON document"]),
    ({"first": 4, "second": None}, ["not a JSON document"]),
], ids=["bad file in the last shard", "bad files in two shards",
        "too few usable matches", "a bad file outranks too few matches",
        "a later bad file in one shard outranks too few matches"])
def test_featurize_worker_errors_read_as_the_serial_error(
        pipeline_dirs, tmp_path, monkeypatch, capsys, broken, words):
    # Whatever the worker count, featurize exits 1 with the message of the
    # single-worker run: the first load error in handle order, else the
    # first player whose row fails.
    _, cache, labels_csv, _ = pipeline_dirs
    broken_cache = tmp_path / "cache"
    shutil.copytree(cache, broken_cache)
    players, _ = cli._load_players(cache, labels_csv)
    shards = workers.shards(players, 3, cli._match_count)
    targets = {"first": shards[0][0].handle, "second": shards[0][1].handle,
               "last": shards[-1][-1].handle}
    for which, keep in broken.items():
        _break_matches(broken_cache, targets[which], keep)
    errors = {}
    for n_workers in (1, 3):
        codes, _ = _featurize_with_workers(monkeypatch, n_workers, broken_cache,
                                           labels_csv, tmp_path / str(n_workers),
                                           variants=("P",))
        assert codes == [1]
        errors[n_workers] = capsys.readouterr().err
    assert errors[3] == errors[1]
    assert errors[1].startswith("error: ") and "Traceback" not in errors[1]
    assert all(word in errors[1] for word in words), errors[1]
    corrupted = [targets[which] for which, keep in broken.items() if keep is None]
    if corrupted:  # the message names the first file the first player reads
        first_mid = json.loads((cache / "players" / f"{corrupted[0]}.json")
                               .read_text())["matches"][0]["match_id"]
        assert str(broken_cache / "matches" / f"{first_mid}.json") in errors[1]


@pytest.mark.parametrize("n_workers", [1, 2])
def test_synth_write_errors_read_as_on_one_cpu(tmp_path, monkeypatch, capfd,
                                               n_workers):
    # A cache under a regular file: every shard fails at its first player
    # file, and the command prints the first player's error, once, at the
    # file descriptor level (a forked worker's traceback would show there).
    monkeypatch.setattr(workers, "worker_count", lambda: n_workers)
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    assert main(["synth", "--fixture", "--out", str(out)]) == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(out / "players" / "1000.json.tmp") in captured.err


@pytest.mark.parametrize("protocol", sorted(PER_MATCH_REPORT_SHA256))
def test_per_match_reports_keep_their_bytes(pipeline_dirs, tmp_path, protocol):
    import hashlib

    _, _, labels_csv, features = pipeline_dirs
    out = tmp_path / "report.json"
    assert main(["attack", "--protocol", protocol, "--features", str(features),
                 "--labels", str(labels_csv), "--out", str(out),
                 "--draws", "20", "--repeats", "2", "--sweep-stop", "8",
                 "--seed", "7"]) == 0
    digests = {suffix: hashlib.sha256(out.with_suffix(suffix).read_bytes()).hexdigest()
               for suffix in PER_MATCH_REPORT_SHA256[protocol]}
    assert digests == PER_MATCH_REPORT_SHA256[protocol]


@pytest.mark.parametrize("protocol, flags", [
    ("simple", ["--algorithms", "logistic_regression,decision_tree,dummy_stratified"]),
    ("one-match", ["--repeats", "2"]),
    ("one-match", ["--expert"]),
    ("sophisticated", []),
    ("indiscriminate", []),
    ("targeted", ["--repeats", "3"]),
], ids=["simple", "one-match naive", "one-match expert", "sophisticated",
        "indiscriminate", "targeted"])
def test_attack_reports_do_not_depend_on_the_worker_count(
        pipeline_dirs, tmp_path, monkeypatch, protocol, flags):
    _, _, labels_csv, features = pipeline_dirs
    reports = {}
    for n_workers in (1, 2, 3):
        monkeypatch.setattr(workers, "worker_count", lambda: n_workers)
        out = tmp_path / str(n_workers) / "report.json"
        assert main(["attack", "--protocol", protocol, "--features", str(features),
                     "--labels", str(labels_csv), "--out", str(out),
                     "--draws", "10", "--sweep-stop", "8", "--seed", "3"]
                    + flags) == 0
        reports[n_workers] = {p.name: p.read_bytes()
                              for p in sorted(out.parent.iterdir())}
    assert len(reports[1]) >= 2
    assert reports[2] == reports[1] and reports[3] == reports[1]


@pytest.mark.parametrize("protocol, flags", [
    ("sophisticated", ["--draws", "0"]),
    ("sophisticated", ["--sweep-start", "0"]),
    ("targeted", ["--repeats", "0"]),
    ("one-match", ["--repeats", "0"]),
])
def test_attack_rejects_bad_averaging_input(pipeline_dirs, tmp_path, capsys,
                                            protocol, flags):
    _, _, labels_csv, features = pipeline_dirs
    out = tmp_path / "report.json"
    assert main(["attack", "--protocol", protocol, "--features", str(features),
                 "--labels", str(labels_csv), "--out", str(out)] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("protocol, flags, words", [
    ("sophisticated", ["--draws", "0"], ["draws=0"]),
    ("sophisticated", ["--sweep-start", "0"], ["n=[0, 1"]),
    ("sophisticated", ["--sweep-start", "5", "--sweep-stop", "3"], ["n=[]"]),
    ("indiscriminate", ["--draws", "0"], ["draws=0"]),
    ("indiscriminate", ["--sweep-stop", "0"], ["n=[0]"]),
    ("targeted", ["--repeats", "0"], ["--repeats", "got 0"]),
    ("targeted", ["--sweep-start", "5", "--sweep-stop", "3"], ["n=[]"]),
    ("one-match", ["--repeats", "0"], ["--repeats", "got 0"]),
    ("simple", ["--seed", "-1"], ["--seed", "got -1"]),
    ("simple", ["--algorithms", "decision_tree,foo"], ["'foo'"]),
    ("one-match", ["--algorithms", "dummy_stratified,dummy_stratified"],
     ["'dummy_stratified'", "more than once"]),
], ids=["sophisticated no draws", "sophisticated n=0", "sophisticated empty sweep",
        "indiscriminate no draws", "indiscriminate n=0", "targeted no repeats",
        "targeted empty sweep", "one-match no repeats", "negative seed",
        "unknown algorithm", "repeated algorithm"])
def test_attack_rejects_bad_averaging_input_before_any_work(
        monkeypatch, tmp_path, capsys, protocol, flags, words):
    from aia import attacks, matrix

    def boom(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    for module, name in ((attacks, "one_match_aia"), (attacks, "targeted_aia"),
                         (matrix, "load_matrix"), (cli, "read_labels_csv")):
        monkeypatch.setattr(module, name, boom)
    out = tmp_path / "report.json"
    assert main(["attack", "--protocol", protocol,
                 "--features", str(tmp_path / "features"),
                 "--labels", str(tmp_path / "labels.csv"),
                 "--out", str(out)] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(word in err for word in words), err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, words", [
    (["featurize", "--variant", "Mbar", "--variants", "0"], ["--variants", "got 0"]),
    (["featurize", "--variant", "Mbar", "--variants", "-2"], ["--variants", "got -2"]),
    (["featurize", "--variant", "Mbar", "--seed", "-1"], ["--seed", "got -1"]),
    (["correlate", "--top", "-1"], ["--top", "got -1"]),
    (["correlate", "--top", "0"], ["--top", "got 0"]),
    (["synth", "--config", "{config}"], ["seed", "got -3"]),
], ids=["featurize no variants", "featurize negative variants",
        "featurize negative seed", "correlate negative top", "correlate no top",
        "synth negative seed"])
def test_bad_input_is_refused_before_any_work(monkeypatch, tmp_path, capsys,
                                              command, words):
    from aia import matrix, synth

    def boom(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    for module, name in ((cli, "_load_players"), (cli, "read_labels_csv"),
                         (matrix, "load_matrix"), (synth, "generate_population"),
                         (synth, "plan_population"), (synth, "_player")):
        monkeypatch.setattr(module, name, boom)
    config = tmp_path / "in" / "synth.json"
    config.parent.mkdir()
    config.write_text(json.dumps({"seed": -3}))
    argv = [arg.format(config=config) for arg in command]
    if command[0] == "featurize":
        argv += ["--cache", str(tmp_path / "in"), "--labels", str(config)]
    elif command[0] == "correlate":
        argv += ["--features", str(config), "--labels", str(config)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(word in err for word in words), err
    assert sorted(tmp_path.iterdir()) == [tmp_path / "in"]


@pytest.mark.parametrize("protocol, source, target", [
    ("simple", "M.csv", "P.csv"),
    ("one-match", "P.csv", "M.csv"),
    ("sophisticated", "P.csv", "Mbar_00.csv"),
])
def test_attack_on_a_matrix_of_the_wrong_variant_exits_1(pipeline_dirs, tmp_path,
                                                         capsys, protocol, source,
                                                         target):
    _, _, labels_csv, features = pipeline_dirs
    wrong = tmp_path / "features"
    wrong.mkdir()
    for suffix in ("", ".schema.json"):
        shutil.copy(features / (source + suffix), wrong / (target + suffix))
    out = tmp_path / "out" / "report.json"
    assert main(["attack", "--protocol", protocol, "--features", str(wrong),
                 "--labels", str(labels_csv), "--out", str(out),
                 "--algorithms", "dummy_stratified"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(wrong / target) in err
    assert not out.parent.exists()


def test_validate_and_reproduce_table8(capsys, tmp_path):
    assert main(["reproduce-table8"]) == 0
    output = capsys.readouterr().out
    assert "dummy_vs_best_model: reject 5/9" in output
    assert "dummy_vs_naive: reject 4/9" in output
    assert "dummy_vs_expert: reject 9/9" in output
    assert "sophisticated_vs_indiscriminate: reject 7/7" in output

    ledger_csv = tmp_path / "ledger.csv"
    assert main(["validate", "--alpha", "0.05", "--out", str(ledger_csv)]) == 0
    assert ledger_csv.exists()
    header = ledger_csv.read_text().splitlines()[0]
    assert header.startswith("family,pair,t_statistic")


def test_reproduce_table8_is_validate_with_its_defaults(capsys):
    assert main(["validate"]) == 0
    validate = capsys.readouterr().out
    assert main(["reproduce-table8"]) == 0
    assert capsys.readouterr().out == validate


def test_sample_size_command(capsys):
    assert main(["sample-size", "--population", "7000000"]) == 0
    value = int(capsys.readouterr().out.strip())
    assert abs(value - 384) <= 1
