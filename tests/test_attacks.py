import json

import numpy as np
import pytest

from aia import attacks, models, workers
from aia.attacks import (
    BUILTIN_TARGETS,
    TargetSpec,
    average_probabilities,
    indiscriminate_aia,
    one_match_aia,
    simple_aia,
    sophisticated_aia,
    targeted_aia,
)
from aia.cli import _write_json
from aia.errors import AttributeArity, NoPositives, OutOfRange, PlayerOverlap
from aia.features import FeatureContext, build_distilled, build_match_matrix, build_player_matrix
from aia.matrix import Column, FeatureMatrix
from aia.synth import FIXTURE_CONFIG, generate_population


FAST_GRIDS = {
    "logistic_regression": {"l2": [1.0]},
    "decision_tree": {"max_depth": [5], "min_leaf": [2]},
    "random_forest": {"n_trees": [40], "max_depth": [None], "min_leaf": [1]},
    "dummy_stratified": {},
}


@pytest.fixture(scope="module")
def fixture_corpus():
    pop = generate_population(FIXTURE_CONFIG)
    ctx = FeatureContext.default()
    P = build_player_matrix(pop.players, pop.matches, ctx)
    M, aug = build_match_matrix(pop.players, pop.matches, ctx)
    variants = build_distilled(M, aug, n_variants=3, seed=7)
    return pop, P, M, aug, variants


# ---------------------------------------------------------------------------
# simple protocol
# ---------------------------------------------------------------------------


def label_matrix(n=60, seed=0):
    """Per-player table whose categorical feature IS the label."""
    rng = np.random.default_rng(seed)
    y = [("no", "yes")[v] for v in rng.integers(0, 2, n)]
    rows = [[label, float(rng.normal())] for label in y]
    matrix = FeatureMatrix(
        variant="P",
        columns=[Column("leak", "categorical"), Column("noise", "numeric")],
        rows=rows, row_owner=list(range(n)))
    labels = {i: _labels_with(occupation=y[i]) for i in range(n)}
    return matrix, labels


def _labels_with(**overrides):
    from aia.attributes import AttributeLabels

    base = dict(gender="male", age_bin="19-24", occupation="no",
                purchase_habits="rarely", openness="low",
                conscientiousness="low", extraversion="low",
                agreeableness="low", neuroticism="low")
    base.update(overrides)
    return AttributeLabels(**base)


def test_simple_perfect_predictor_reaches_f1_one():
    matrix, labels = label_matrix()
    report = simple_aia(matrix, labels, algorithms=("decision_tree",), seed=3,
                        outer_folds=5, grids=FAST_GRIDS, resample=False,
                        attributes=("occupation",))
    table = report.metric_tables["occupation"]["decision_tree"]
    assert table["mean"] == 1.0
    assert table["std"] == 0.0


def test_simple_pure_noise_stays_near_dummy():
    diffs = []
    for seed in range(6):
        rng = np.random.default_rng(900 + seed)
        n = 60
        y = [("no", "yes")[v] for v in rng.integers(0, 2, n)]
        rows = [[float(a), float(b)] for a, b in rng.normal(size=(n, 2))]
        matrix = FeatureMatrix(variant="P",
                               columns=[Column("n0", "numeric"),
                                        Column("n1", "numeric")],
                               rows=rows, row_owner=list(range(n)))
        labels = {i: _labels_with(occupation=y[i]) for i in range(n)}
        report = simple_aia(matrix, labels,
                            algorithms=("decision_tree", "dummy_stratified"),
                            seed=seed, outer_folds=5, grids=FAST_GRIDS,
                            resample=False, attributes=("occupation",))
        table = report.metric_tables["occupation"]
        diffs.append(table["decision_tree"]["mean"]
                     - table["dummy_stratified"]["mean"])
    assert abs(float(np.mean(diffs))) <= 0.05


def test_simple_reduced_folds_flagged(fixture_corpus):
    pop, P, *_ = fixture_corpus
    report = simple_aia(P, pop.labels, algorithms=("dummy_stratified",),
                        seed=1, outer_folds=10, grids=FAST_GRIDS,
                        attributes=("gender",))
    assert any(flag.startswith("reduced_folds:gender") for flag in report.flags)


def test_simple_metrics_live_in_unit_interval(fixture_corpus):
    pop, P, *_ = fixture_corpus
    report = simple_aia(P, pop.labels, algorithms=("decision_tree",
                                                   "dummy_stratified"),
                        seed=2, outer_folds=4, grids=FAST_GRIDS,
                        attributes=("age_bin", "occupation"))
    for table in report.metric_tables.values():
        for cell in table.values():
            assert 0.0 <= cell["mean"] <= 1.0
            assert cell["std"] >= 0.0
            assert cell["n_runs"] >= 1


# ---------------------------------------------------------------------------
# one-match protocol
# ---------------------------------------------------------------------------


def test_one_match_split_is_player_disjoint(fixture_corpus):
    pop, _, M, _, variants = fixture_corpus
    _, runs = one_match_aia(variants[:2], pop.labels,
                            algorithms=("decision_tree",), seed=4,
                            grids=FAST_GRIDS, keep_models="decision_tree",
                            attributes=("occupation",))
    for run, matrix in zip(runs, variants[:2], strict=True):
        train, val, test = run.splits["occupation"]
        assert not (set(train) & set(test))
        assert not (set(train) & set(val))
        assert not (set(val) & set(test))
        # every test row's owner is a test player
        test_rows = [i for i, o in enumerate(matrix.row_owner)
                     if o in set(test)]
        assert all(matrix.row_owner[i] in set(test) for i in test_rows)


def test_one_match_expert_beats_naive_on_aug_only_signal(fixture_corpus):
    pop, _, M, _, variants = fixture_corpus
    naive, _ = one_match_aia([M] * 3, pop.labels, algorithms=("random_forest",),
                             seed=5, grids=FAST_GRIDS,
                             attributes=("occupation",))
    expert, _ = one_match_aia(variants, pop.labels,
                              algorithms=("random_forest",), seed=5,
                              grids=FAST_GRIDS, attributes=("occupation",))
    naive_f1 = naive.metric_tables["occupation"]["random_forest"]["mean"]
    expert_f1 = expert.metric_tables["occupation"]["random_forest"]["mean"]
    assert expert_f1 > naive_f1 + 0.10


def test_one_match_single_matrix_repeats(fixture_corpus):
    pop, _, M, _, _ = fixture_corpus
    report, _ = one_match_aia([M] * 4, pop.labels, algorithms=("dummy_stratified",),
                              seed=6, grids=FAST_GRIDS,
                              attributes=("age_bin",))
    assert report.metric_tables["age_bin"]["dummy_stratified"]["n_runs"] == 4
    # The fixed settings, recorded under the keys they had as options.
    assert {key: report.config[key] for key in
            ("max_features", "test_fraction", "val_fraction")} == {
        "max_features": 12, "test_fraction": 0.2, "val_fraction": 0.1}


# ---------------------------------------------------------------------------
# probability averaging
# ---------------------------------------------------------------------------


def test_probability_averaging_reference_example():
    # Binary per-match vectors with positive-class probabilities
    # {0.1, 0.2, 0.8, 0.2} average to 0.325: the below-threshold class wins.
    vectors = [[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.8, 0.2]]
    avg = average_probabilities(vectors)
    assert avg[1] == pytest.approx(0.325)
    assert avg[0] == pytest.approx(0.675)
    assert int(np.argmax(avg)) == 0


def test_draw_means_of_identity_block_average_n_distinct_rows():
    m = 6
    means = attacks._draw_means(np.eye(m), range(1, m), 50,
                                np.random.default_rng(1))
    assert means.shape == (50, m - 1, m)
    for j, n in enumerate(range(1, m)):
        for row in means[:, j]:
            # n distinct one-hot rows: n entries of 1/n, the rest zero
            assert sorted(row) == [0.0] * (m - n) + [1 / n] * n


def test_draw_means_uses_whole_block_when_n_reaches_its_length():
    block = np.random.default_rng(4).dirichlet(np.ones(3), size=7)
    rng = np.random.default_rng(0)
    means = attacks._draw_means(block, [7, 30], 5, rng)
    for mean in means.reshape(-1, 3):
        assert np.array_equal(mean, block.mean(axis=0))
    # No draw is spent, so the caller's random stream is untouched.
    assert rng.random() == np.random.default_rng(0).random()


def test_draw_means_includes_each_row_at_rate_n_over_m():
    m, draws = 7, 4000
    ns = list(range(1, m))
    included = attacks._draw_means(np.eye(m), ns, draws,
                                   np.random.default_rng(2)) > 0
    for j, n in enumerate(ns):
        p = n / m
        se = np.sqrt(p * (1 - p) / draws)
        assert np.all(np.abs(included[:, j].mean(axis=0) - p) < 4 * se)


def _toy_model_and_matrix():
    rng = np.random.default_rng(0)
    rows = [[float(v)] for v in rng.normal(size=20)]
    y = ["a"] * 10 + ["b"] * 10
    matrix = FeatureMatrix(variant="M_bar", columns=[Column("x", "numeric")],
                           rows=rows, row_owner=[1] * 20,
                           row_match=list(range(20)))
    model = models.fit_prepared("decision_tree",
                                models.prepare(matrix, range(20), y, ["a", "b"]),
                                {"max_depth": 2, "min_leaf": 2})
    return model, matrix


def _player_average(model, matrix, rows, n=None):
    """Argmax class and mean probabilities of n of `rows` (all when n is
    None), through the protocols' kernels: `_prob_blocks` for one player
    who owns exactly those rows, then `_draw_means`."""
    player = FeatureMatrix(variant="M_bar", columns=matrix.columns,
                           rows=[matrix.rows[i] for i in rows],
                           row_owner=[1] * len(rows),
                           row_match=list(range(len(rows))))
    block = attacks._prob_blocks(model, player, [1])[1]
    avg = attacks._draw_means(block, [len(block) if n is None else n], 1,
                              np.random.default_rng(0))[0, 0]
    return model.class_list[int(np.argmax(avg))], avg


def test_sophisticated_predict_n1_equals_single_row():
    model, matrix = _toy_model_and_matrix()
    single = models.predict_proba(model, matrix, [4])[0]
    label, avg = _player_average(model, matrix, [4], n=1)
    assert np.allclose(avg, single)
    assert label == model.class_list[int(np.argmax(single))]


def test_sophisticated_predict_identical_rows_idempotent():
    model, matrix = _toy_model_and_matrix()
    label_1, avg_1 = _player_average(model, matrix, [3])
    label_n, avg_n = _player_average(model, matrix, [3, 3, 3, 3])
    assert np.allclose(avg_1, avg_n)
    assert label_1 == label_n


def test_sophisticated_predict_order_invariant():
    model, matrix = _toy_model_and_matrix()
    rows = [2, 5, 11, 17]
    _, forward = _player_average(model, matrix, rows)
    _, backward = _player_average(model, matrix, rows[::-1])
    assert np.allclose(forward, backward)


def test_sophisticated_predict_caps_at_available():
    model, matrix = _toy_model_and_matrix()
    rows = [1, 2, 3]
    _, all_used = _player_average(model, matrix, rows, n=50)
    _, plain = _player_average(model, matrix, rows)
    assert np.allclose(all_used, plain)


# ---------------------------------------------------------------------------
# sophisticated and indiscriminate protocols
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_runs(fixture_corpus):
    pop, _, _, _, variants = fixture_corpus
    _, runs = one_match_aia(variants, pop.labels,
                            algorithms=("random_forest",), seed=5,
                            grids=FAST_GRIDS, keep_models="random_forest",
                            attributes=("occupation", "age_bin",
                                        "purchase_habits"))
    return pop, runs


def test_sophisticated_accuracy_improves_with_more_matches(trained_runs):
    pop, runs = trained_runs
    report = sophisticated_aia(runs, pop.labels, n_sweep=(1, 30), draws=20,
                               seed=9, attributes=("occupation", "age_bin"))
    for attribute, curve in report.curves.items():
        first = curve[0]
        last = curve[-1]
        assert last["mean"] >= first["mean"] - last["std"]


def test_sophisticated_headline_flag(trained_runs, fixture_corpus):
    # Gender is flagged as left out of the headline only when it is reported.
    pop, runs = trained_runs
    report = sophisticated_aia(runs, pop.labels, n_sweep=(1,), draws=2, seed=1,
                               attributes=("occupation",))
    assert report.flags == []
    variants = fixture_corpus[-1]
    _, gender_runs = one_match_aia(variants[:1], pop.labels,
                                   algorithms=("random_forest",), seed=5,
                                   grids=FAST_GRIDS, keep_models="random_forest",
                                   attributes=("gender",))
    report = sophisticated_aia(gender_runs, pop.labels, n_sweep=(1,), draws=2,
                               seed=1)
    assert report.flags == ["headline_excludes:gender"]


def test_sophisticated_draws_one_generator_per_run_and_attribute(
        trained_runs, monkeypatch):
    pop, runs = trained_runs
    calls = []
    rng = attacks._rng

    def counted(*entropy):
        calls.append(entropy)
        return rng(*entropy)

    monkeypatch.setattr(attacks, "_rng", counted)
    sophisticated_aia(runs, pop.labels, n_sweep=(1, 2, 3, 30), draws=7,
                      seed=1, attributes=("occupation", "age_bin"))
    assert len(calls) == len(runs) * 2


def test_indiscriminate_past_every_block_uses_full_means(trained_runs):
    pop, runs = trained_runs
    attribute = "age_bin"
    classes = list(attacks.ATTRIBUTE_SCHEMA[attribute])
    report = indiscriminate_aia(runs, pop.labels, n=10_000, draws=3, seed=2,
                                attributes=(attribute,))
    top1, top2 = [], []
    for run in runs:
        hits1 = hits2 = 0
        test_p = run.test_players(attribute)
        for player in test_p:
            mean = run.blocks[attribute][player].mean(axis=0)
            order = list(np.argsort(-mean, kind="stable"))
            rank = order.index(classes.index(getattr(pop.labels[player],
                                                     attribute)))
            hits1 += rank == 0
            hits2 += rank <= 1
        top1 += [hits1 / len(test_p)] * 3
        top2 += [hits2 / len(test_p)] * 3
    table = report.metric_tables[attribute]
    assert table["top1"]["mean"] == pytest.approx(np.mean(top1))
    assert table["top1"]["std"] == pytest.approx(np.std(top1))
    assert table["top2"]["mean"] == pytest.approx(np.mean(top2))


def test_one_match_blocks_do_not_depend_on_the_worker_count(fixture_corpus,
                                                            monkeypatch):
    pop, _, _, _, variants = fixture_corpus
    runs = {}
    for n_workers in (1, 2, 3):
        monkeypatch.setattr(workers, "worker_count", lambda: n_workers)
        _, runs[n_workers] = one_match_aia(
            variants[:2], pop.labels, algorithms=("random_forest",), seed=5,
            grids=FAST_GRIDS, keep_models="random_forest",
            attributes=("occupation", "age_bin", "purchase_habits"))
    for n_workers in (2, 3):
        for run, serial in zip(runs[n_workers], runs[1], strict=True):
            assert run.splits == serial.splits
            assert list(run.blocks) == list(serial.blocks)
            for attribute, blocks in serial.blocks.items():
                assert list(run.blocks[attribute]) == list(blocks)
                for player, block in blocks.items():
                    assert run.blocks[attribute][player].tobytes() == block.tobytes()


def test_indiscriminate_top2_at_least_top1(trained_runs):
    pop, runs = trained_runs
    report = indiscriminate_aia(runs, pop.labels, n=30, draws=20, seed=11,
                                attributes=("age_bin", "purchase_habits"))
    for table in report.metric_tables.values():
        assert table["top2"]["mean"] >= table["top1"]["mean"]
        assert table["improvement"] == pytest.approx(
            table["top2"]["mean"] - table["top1"]["mean"])


def test_empty_sweep_is_out_of_range(fixture_corpus):
    # An empty sweep would give a report with no points; it is rejected
    # before any run is read or model trained.
    pop, _, _, _, variants = fixture_corpus
    with pytest.raises(OutOfRange):
        sophisticated_aia([], pop.labels, n_sweep=range(5, 4))
    with pytest.raises(OutOfRange):
        targeted_aia(BUILTIN_TARGETS["very_young"], variants, pop.labels,
                     n_sweep=(), repeats=1, grids=FAST_GRIDS)


def test_indiscriminate_rejects_binary_attribute(trained_runs):
    pop, runs = trained_runs
    with pytest.raises(AttributeArity):
        indiscriminate_aia(runs, pop.labels, attributes=("occupation",))


def test_indiscriminate_uniform_model_top2_is_two_thirds():
    # A stratified dummy trained on perfectly uniform 3-class labels emits
    # the uniform vector; stable top-2 always picks the first two classes,
    # so success probability equals 2/3 over uniformly distributed truth.
    n_players = 1500
    rng = np.random.default_rng(3)
    classes = ("never", "rarely", "regularly")
    rows = [[float(rng.normal())] for _ in range(n_players)]
    matrix = FeatureMatrix(variant="M_bar", columns=[Column("x", "numeric")],
                           rows=rows, row_owner=list(range(n_players)),
                           row_match=list(range(n_players)))
    y_train = [classes[i % 3] for i in range(n_players)]
    model = models.fit_prepared(
        "dummy_stratified",
        models.prepare(matrix, range(n_players), y_train, classes=list(classes)),
        seed=0)
    labels = {i: _labels_with(purchase_habits=classes[int(v)])
              for i, v in enumerate(rng.integers(0, 3, n_players))}
    run = attacks.OneMatchRun(
        blocks={"purchase_habits": attacks._prob_blocks(model, matrix,
                                                        range(n_players))},
        splits={"purchase_habits": ([], [], list(range(n_players)))})
    report = indiscriminate_aia([run], labels, n=1, draws=1, seed=5,
                                attributes=("purchase_habits",))
    top2 = report.metric_tables["purchase_habits"]["top2"]["mean"]
    assert top2 == pytest.approx(2 / 3, abs=0.04)


# ---------------------------------------------------------------------------
# targeted protocol
# ---------------------------------------------------------------------------


def test_target_spec_validation():
    with pytest.raises(ValueError):
        TargetSpec("bad", ())
    with pytest.raises(ValueError):
        TargetSpec("bad", (("age_bin", frozenset({"101-200"})),))
    spec = BUILTIN_TARGETS["purchasers_and_workers"]
    assert spec.matches(_labels_with(occupation="yes", purchase_habits="rarely"))
    assert not spec.matches(_labels_with(occupation="no",
                                         purchase_habits="rarely"))


def test_builtin_targets_complete():
    assert set(BUILTIN_TARGETS) == {"very_young", "purchasers", "introverts",
                                    "purchasers_and_workers"}


def test_targeted_no_positives_raises(fixture_corpus):
    pop, _, _, _, variants = fixture_corpus
    impossible = TargetSpec("nobody", (
        ("age_bin", frozenset({"13-18"})),
        ("purchase_habits", frozenset({"never"})),
        ("gender", frozenset({"female"})),
        ("extraversion", frozenset({"high"})),
        ("openness", frozenset({"low"})),
        ("neuroticism", frozenset({"high"})),
    ))
    if any(impossible.matches(lab) for lab in pop.labels.values()):
        pytest.skip("fixture has a matching player for the improbable target")
    with pytest.raises(NoPositives):
        targeted_aia(impossible, variants, pop.labels, n_sweep=(1,),
                     repeats=1, draws=1, seed=0, grids=FAST_GRIDS)


@pytest.mark.parametrize("failing, empty_split, expected", [
    ({1}, None, "repeat 1"),
    ({0, 1}, None, "repeat 0"),
    (set(), 1, "no positives in the test split"),
    ({0}, 1, "repeat 0"),
    ({2}, 1, "no positives in the test split"),
], ids=["repeat 1 fails", "repeats 0 and 1 fail", "repeat 1 has no test positive",
        "repeat 0 fails before repeat 1's split", "repeat 2 fails after it"])
def test_targeted_worker_errors_read_as_the_serial_error(
        fixture_corpus, monkeypatch, failing, empty_split, expected):
    # A repeat whose training raises NoPositives, and a repeat whose split
    # holds no positive (drawn in the parent), give the serial loop's error
    # whatever the worker count: the error of the earliest failing repeat.
    pop, _, _, _, variants = fixture_corpus
    target, seed = BUILTIN_TARGETS["very_young"], 4
    select_best, split = models.select_best, attacks._stratified_player_split
    first_seeds = {attacks._unit_seed(seed, rep, 0, 0): rep for rep in range(3)}

    def failing_select(candidates, folds, score):
        rep = first_seeds[candidates[0][2]]
        if rep in failing:
            raise NoPositives(f"repeat {rep}")
        return select_best(candidates, folds, score)

    def split_without_test_positives(players, y_by_player, rng):
        train, val, test = split(players, y_by_player, rng)
        if len(drawn) == empty_split:
            test = [p for p in test if y_by_player[p] == "negative"]
        drawn.append(test)
        return train, val, test

    monkeypatch.setattr(models, "select_best", failing_select)
    monkeypatch.setattr(attacks, "_stratified_player_split",
                        split_without_test_positives)
    for n_workers in (1, 2, 3):
        monkeypatch.setattr(workers, "worker_count", lambda: n_workers)
        drawn = []
        with pytest.raises(NoPositives) as err:
            targeted_aia(target, variants, pop.labels, n_sweep=(1,), repeats=3,
                         draws=1, seed=seed, grids=FAST_GRIDS)
        assert expected in str(err.value), (n_workers, str(err.value))


def test_targeted_raising_threshold_never_raises_recall():
    rng = np.random.default_rng(8)
    proba = rng.random(200)
    truth = rng.random(200) < 0.3
    recalls = []
    for threshold in np.linspace(0.0, 1.0, 21):
        predicted = proba >= threshold
        tp = int((predicted & truth).sum())
        fn = int((~predicted & truth).sum())
        recalls.append(tp / (tp + fn))
    assert all(r1 >= r2 for r1, r2 in zip(recalls, recalls[1:]))


def test_targeted_very_young_reaches_high_precision(fixture_corpus):
    pop, _, _, _, variants = fixture_corpus
    report = targeted_aia(BUILTIN_TARGETS["very_young"], variants, pop.labels,
                          n_sweep=(1, 10), repeats=2, draws=8, seed=13,
                          grids=FAST_GRIDS)
    by_n = {c["n"]: c for c in report.curves["precision"]}
    assert by_n[10]["mean"] >= 0.85
    recall_by_n = {c["n"]: c for c in report.curves["recall"]}
    assert 0.0 <= recall_by_n[10]["mean"] <= 1.0
    assert report.config["algorithms"] == ["random_forest"]


def test_targeted_beats_untuned_half_threshold(fixture_corpus, monkeypatch):
    # Tuned threshold selection should not lose to a fixed 0.5 cut; a fixed
    # cut that never clears the >=1-predicted-positive constraint counts as
    # a failed attack (precision 0).
    pop, _, _, _, variants = fixture_corpus
    tuned = targeted_aia(BUILTIN_TARGETS["very_young"], variants, pop.labels,
                         n_sweep=(30,), repeats=2, draws=8, seed=21,
                         grids=FAST_GRIDS)
    monkeypatch.setattr(attacks, "THRESHOLDS", (0.5,))
    try:
        fixed = targeted_aia(BUILTIN_TARGETS["very_young"], variants,
                             pop.labels, n_sweep=(30,), repeats=2, draws=8,
                             seed=21, grids=FAST_GRIDS)
        fixed_p = fixed.curves["precision"][0]["mean"]
    except NoPositives:
        fixed_p = 0.0
    tuned_p = tuned.curves["precision"][0]["mean"]
    assert tuned_p >= fixed_p - 1e-9


# ---------------------------------------------------------------------------
# determinism and report plumbing
# ---------------------------------------------------------------------------


def test_reports_are_deterministic_and_jobs_invariant(fixture_corpus, tmp_path):
    pop, P, *_ = fixture_corpus
    kwargs = dict(algorithms=("decision_tree", "dummy_stratified"), seed=17,
                  outer_folds=3, grids=FAST_GRIDS,
                  attributes=("age_bin", "occupation"))
    one = simple_aia(P, pop.labels, **kwargs)
    two = simple_aia(P, pop.labels, **kwargs)
    three = simple_aia(P, pop.labels, **kwargs)
    _write_json(tmp_path / "a.json", one.to_json_dict())
    _write_json(tmp_path / "b.json", two.to_json_dict())
    _write_json(tmp_path / "c.json", three.to_json_dict())
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "c.json").read_bytes()


def test_report_json_shape(fixture_corpus, tmp_path):
    pop, P, *_ = fixture_corpus
    report = simple_aia(P, pop.labels, algorithms=("dummy_stratified",),
                        seed=1, outer_folds=3, grids=FAST_GRIDS,
                        attributes=("occupation",))
    _write_json(tmp_path / "r.json", report.to_json_dict())
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["protocol"] == "simple"
    assert doc["config"]["seed"] == 1
    assert "occupation" in doc["metric_tables"]


def test_player_overlap_is_fatal():
    with pytest.raises(PlayerOverlap):
        attacks._check_disjoint([1, 2, 3], [3, 4], "unit test")
