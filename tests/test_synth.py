import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aia import stats, workers
from aia.attributes import ATTRIBUTE_SCHEMA, bin_labels
from aia.cli import main
from aia.errors import ConfigError
from aia.features import build_player_matrix
from aia.ingest import load_cached_match, load_cached_player, parse_match, serialize_match
from conftest import DELETE, json_paths, json_values, mutated, sample_labels
from aia.synth import (
    FIXTURE_CONFIG,
    MAX_MATCHES,
    MAX_PLAYERS,
    TABLE1_PRIORS,
    CategoricalEffect,
    NumericEffect,
    RateEffect,
    SynthConfig,
    _cdf,
    _draw,
    _pick,
    calibrate_sigma,
    generate_population,
    grade_correlation,
    max_plantable_rho,
    write_population_cache,
    write_survey_csv,
)


def small_config(**overrides):
    base = dict(n_players=12, matches_range=(5, 9), seed=42)
    base.update(overrides)
    return SynthConfig(**base)


def test_same_config_same_corpus():
    a = generate_population(small_config())
    b = generate_population(small_config())
    assert a.labels == b.labels
    assert [p.match_ids for p in a.players] == [p.match_ids for p in b.players]
    for mid in a.matches:
        assert serialize_match(a.matches[mid]) == serialize_match(b.matches[mid])


@pytest.mark.parametrize("seq", [("solo",), ("ok", "go"), tuple(range(113))])
def test_pick_draws_what_rng_choice_draws(seq):
    # Same elements and the same generator state afterwards, so swapping
    # one for the other leaves every later draw of a corpus unchanged.
    for seed in range(20):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert [_pick(a, seq) for _ in range(50)] == \
            [b.choice(seq) for _ in range(50)]
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("probs", [
    (0.4, 0.6),
    (0.0496, 0.9504),
    (0.1343, 0.5372, 0.3285),
    (1 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 9, 4 / 9),
    (0.0, 0.25, 0.0, 0.75),
])
def test_cdf_draw_draws_what_rng_choice_draws(probs):
    # The same index from the same single uniform, so replacing
    # `rng.choice(..., p=probs)` by a table built once keeps every corpus.
    cdf = _cdf(probs)
    for seed in range(20):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert [_draw(a, cdf) for _ in range(200)] == \
            [int(b.choice(len(probs), p=probs)) for _ in range(200)]
        assert a.bit_generator.state == b.bit_generator.state


def _tree_digest(root):
    """sha256 over the sorted relative paths, each followed by NUL and the
    file's bytes."""
    digest = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix()
                      for p in root.rglob("*") if p.is_file()):
        digest.update(rel.encode() + b"\0")
        digest.update((root / rel).read_bytes())
    return digest.hexdigest()


def test_fixture_corpus_bytes_are_pinned(tmp_path):
    # Every byte of the committed fixture's cache, manifest and survey: a
    # change to generation, serialization or the cache layout shows here.
    assert main(["synth", "--fixture", "--out", str(tmp_path)]) == 0
    assert len([p for p in tmp_path.rglob("*") if p.is_file()]) == 888
    assert _tree_digest(tmp_path) == \
        "fd34a95a995722dd0c5f0f2bbacb8062ac95d347814ee5b3d98cdbc86f217601"


@pytest.mark.parametrize("config", [FIXTURE_CONFIG, small_config(matches_range=(5, 30))],
                         ids=["fixture", "small"])
def test_synth_corpus_does_not_depend_on_the_worker_count(tmp_path, monkeypatch,
                                                          capsys, config):
    # `aia synth` builds and writes one shard of players per worker; the
    # tree equals the in-memory reference's whatever the number of shards.
    reference = tmp_path / "reference"
    population = generate_population(config)
    write_population_cache(population, reference)
    write_survey_csv(population.survey_rows, reference / "survey.csv")
    config_path = tmp_path / "synth.json"
    config_path.write_text(json.dumps(config.to_json_dict()))
    for n_workers in (1, 2, 3):
        monkeypatch.setattr(workers, "worker_count", lambda: n_workers)
        assert len(workers.shards(range(config.n_players), n_workers,
                                  lambda p: len(population.players[p].match_ids))) \
            == n_workers
        out = tmp_path / str(n_workers)
        assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"synth: {config.n_players} players, {len(population.matches)} "
            f"matches -> {out}\n")
        assert _tree_digest(out) == _tree_digest(reference)


def test_different_seed_different_corpus():
    a = generate_population(small_config(seed=1))
    b = generate_population(small_config(seed=2))
    assert serialize_match(next(iter(a.matches.values()))) != serialize_match(
        next(iter(b.matches.values())))


def test_generated_matches_round_trip_through_parser():
    pop = generate_population(small_config())
    for record in pop.matches.values():
        again = parse_match(serialize_match(record))
        assert again == record


def test_fixture_records_equal_their_serialized_round_trip(fixture_population):
    # Synthesis hands the parser the decoded document; writing a record to
    # the cache and parsing it back must give the same record.
    for record in fixture_population.matches.values():
        assert parse_match(serialize_match(record)) == record


def test_match_counts_within_range():
    pop = generate_population(small_config(n_players=30))
    for player in pop.players:
        assert 5 <= len(player.match_ids) <= 9
        assert len(set(player.match_ids)) == len(player.match_ids)


def test_survey_rows_bin_back_to_drawn_labels():
    pop = generate_population(small_config(n_players=25))
    for row in pop.survey_rows:
        assert bin_labels(row) == pop.labels[row.handle]


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(n_players=0).validate()
    with pytest.raises(ConfigError):
        SynthConfig(matches_range=(9, 5)).validate()
    with pytest.raises(ConfigError):
        SynthConfig(numeric_effects=(NumericEffect("nope", "age_bin", 0.4),)).validate()
    with pytest.raises(ConfigError):
        SynthConfig(priors={**TABLE1_PRIORS, "gender": (0.4, 0.4)}).validate()
    # Category draws do not re-check their probabilities, so the config must.
    for bad in ((-0.5, 1.5), (float("nan"), 1.0), ("a", "b")):
        with pytest.raises(ConfigError, match="priors for 'gender'"):
            SynthConfig(priors={**TABLE1_PRIORS, "gender": bad}).validate()
    with pytest.raises(ConfigError, match="slope"):
        SynthConfig(rate_effects=(RateEffect("hero_msg_count", "occupation",
                                             float("inf")),)).validate()
    # Sizes have ceilings: past them the generator's arrays fail.
    SynthConfig(n_players=MAX_PLAYERS, matches_range=(5, MAX_MATCHES)).validate()
    for bad in (MAX_PLAYERS + 1, 10**400):
        with pytest.raises(ConfigError, match="n_players"):
            SynthConfig(n_players=bad).validate()
    for bad in (MAX_MATCHES + 1, 10**400):
        with pytest.raises(ConfigError, match="matches_range"):
            SynthConfig(matches_range=(5, bad)).validate()


def test_config_json_round_trip():
    config = FIXTURE_CONFIG
    again = SynthConfig.from_json_dict(config.to_json_dict())
    assert again == config


def test_unreachable_rho_rejected():
    # A 95/5 binary attribute caps the plantable grade correlation below 0.4.
    ceiling = max_plantable_rho(TABLE1_PRIORS["gender"])
    assert ceiling < 0.4
    with pytest.raises(ConfigError):
        calibrate_sigma(TABLE1_PRIORS["gender"], 0.4)


def test_grade_correlation_monotone_in_sigma():
    priors = TABLE1_PRIORS["purchase_habits"]
    values = [grade_correlation(s, priors) for s in (0.1, 0.5, 1.0, 2.0, 4.0)]
    assert values == sorted(values, reverse=True)


def test_grade_correlation_matches_simulation():
    priors = (0.2, 0.5, 0.3)
    sigma = 1.1
    expected = grade_correlation(sigma, priors)
    rng = np.random.default_rng(5)
    codes = rng.choice(3, size=400_000, p=priors)
    x = codes + sigma * rng.standard_normal(len(codes))
    rho, _ = stats.spearman(x.tolist(), codes.tolist())
    assert rho == pytest.approx(expected, abs=0.01)


def test_priors_recovered_at_scale():
    labels = sample_labels(TABLE1_PRIORS, n=10_000, seed=3)
    share_female = sum(1 for lab in labels if lab.gender == "female") / len(labels)
    assert share_female == pytest.approx(0.0496, abs=0.015)
    for attr, classes in ATTRIBUTE_SCHEMA.items():
        priors = np.array(TABLE1_PRIORS[attr]) / sum(TABLE1_PRIORS[attr])
        for cls, pi in zip(classes, priors):
            share = sum(1 for lab in labels if getattr(lab, attr) == cls) / len(labels)
            assert share == pytest.approx(pi, abs=0.015)


def test_planted_rho_recovery_two_seeds(feature_ctx):
    measured = []
    for seed in (123, 456):
        config = SynthConfig(
            n_players=500, matches_range=(5, 8),
            numeric_effects=(NumericEffect("cosmetics_price",
                                           "purchase_habits", 0.4),),
            seed=seed)
        pop = generate_population(config)
        matrix = build_player_matrix(pop.players, pop.matches, feature_ctx)
        codes = [ATTRIBUTE_SCHEMA["purchase_habits"].index(
            pop.labels[o].purchase_habits) for o in matrix.row_owner]
        values = [float(v) for v in matrix.column_values("mean_cosmetics_price")]
        rho, p = stats.spearman(values, codes)
        assert p < 0.01
        measured.append(rho)
    assert np.mean(measured) == pytest.approx(0.4, abs=0.08)


def test_null_config_stays_null(feature_ctx):
    within = 0
    seeds = (11, 22, 33, 44, 55)
    for seed in seeds:
        config = SynthConfig(n_players=500, matches_range=(5, 6), seed=seed)
        pop = generate_population(config)
        matrix = build_player_matrix(pop.players, pop.matches, feature_ctx)
        codes = [ATTRIBUTE_SCHEMA["purchase_habits"].index(
            pop.labels[o].purchase_habits) for o in matrix.row_owner]
        values = [float(v) for v in matrix.column_values("mean_cosmetics_price")]
        rho, _ = stats.spearman(values, codes)
        assert abs(rho) < 0.15
        if abs(rho) < 0.1:
            within += 1
    assert within >= len(seeds) - 1


def test_cache_emission_round_trips(tmp_path):
    pop = generate_population(small_config())
    write_population_cache(pop, tmp_path)
    for player in pop.players:
        assert load_cached_player(tmp_path, player.handle) == player
    some_mid = next(iter(pop.matches))
    assert load_cached_match(tmp_path, some_mid) == pop.matches[some_mid]
    assert (tmp_path / "manifest.json").exists()


def test_regression_fixture_is_stable():
    one = generate_population(FIXTURE_CONFIG)
    two = generate_population(FIXTURE_CONFIG)
    assert one.labels == two.labels
    assert len(one.players) == 50
    assert all(8 <= len(p.match_ids) <= 30 for p in one.players)
    mid = next(iter(one.matches))
    assert serialize_match(one.matches[mid]) == serialize_match(two.matches[mid])
    # planted manifest entries recorded
    assert "sigma_table" in one.manifest
    assert one.manifest["config"]["seed"] == FIXTURE_CONFIG.seed


# A 2-player config with 5-6 matches each and one effect of every kind, so
# a mutation can reach every field the reader takes.
_PROPERTY_DOC = SynthConfig(
    n_players=2, matches_range=(5, 6),
    numeric_effects=(NumericEffect("kills", "age_bin", -0.6),),
    rate_effects=(RateEffect("chat_slang_count", "age_bin", -3.5),),
    categorical_effects=(CategoricalEffect("hero_gender", "gender", 0.5),),
    seed=7).to_json_dict()
_NAMES = ("kills", "age_bin", "gender", "hero_gender", "hero_msg_count")
_PATHS = list(json_paths(_PROPERTY_DOC))
_SIZES = ("n_players", "matches_range")
# A size that reads as a valid integer stays small, and a size is never
# removed, which would give its large default.
_SMALL = st.one_of(st.integers(-2, 7), st.floats(-2, 7),
                   st.sampled_from([math.nan, math.inf]))
_MUTATIONS = st.one_of(
    st.tuples(st.sampled_from([w for w in _PATHS if w[0] in _SIZES]),
              json_values(_SMALL, _NAMES)),
    st.tuples(st.sampled_from([w for w in _PATHS if w[0] not in _SIZES]),
              json_values(names=_NAMES) | st.just(DELETE)))


@settings(max_examples=300, deadline=None)
@given(_MUTATIONS)
@example((("messages_per_match",), -1))
@example((("noise_level",), math.nan))
@example((("seed",), -3))
@example((("n_players",), 2.7))
@example((("seed",), 5.7))
@example((("seed",), True))
@example((("matches_range", 1), 10**400))
def test_synth_config_reader_takes_or_names_any_mutated_field(mutation):
    # Either a ConfigError names the mutated top-level field or the key
    # that holds the value, or the config generates its corpus with every
    # integer as written.
    where, value = mutation
    doc = mutated(_PROPERTY_DOC, where, value)
    try:
        config = SynthConfig.from_json_dict(doc)
        config.validate()
        population = generate_population(config)
    except ConfigError as exc:
        names = {where[0], *(k for k in where if isinstance(k, str))}
        assert any(name in str(exc) for name in names), (where, value, exc)
        return
    integers = [k for k in ("n_players", "matches_range", "seed") if k in doc]
    assert (json.dumps([doc[k] for k in integers])
            == json.dumps([config.to_json_dict()[k] for k in integers]))
    low, high = config.matches_range
    assert len(population.players) == config.n_players
    assert all(low <= len(p.match_ids) <= high for p in population.players)
