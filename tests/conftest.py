import copy
import functools
import json
import math
import operator

import numpy as np
import pytest
from hypothesis import strategies as st

from aia.features import FeatureContext
from aia.ingest import parse_match


def build_match_doc(match_id=1, *, duration=1800, start_time=1_577_000_000,
                    radiant_win=True, players=None, chat=None, cosmetics=None,
                    objectives=None, all_word_counts=None, **extra):
    """Canonical 10-player match document; override what a test cares about."""
    if players is None:
        players = [
            {"player_slot": s if s < 5 else s + 123, "hero_id": 1 + s,
             "account_id": 100 + s, "kills": s, "deaths": 1, "assists": 2,
             "denies": 3, "last_hits": 10 * s, "isRadiant": s < 5,
             "word_counts": {}}
            for s in range(10)
        ]
    doc = {
        "match_id": match_id,
        "duration": duration,
        "start_time": start_time,
        "game_mode": 2,
        "lobby_type": 7,
        "region": 3,
        "patch": 43,
        "skill": 2,
        "radiant_win": radiant_win,
        "radiant_score": 25,
        "dire_score": 30,
        "tower_status_radiant": 1983,
        "tower_status_dire": 0,
        "barracks_status_radiant": 63,
        "barracks_status_dire": 0,
        "first_blood_time": 95,
        "human_players": len(players),
        "players": players,
        "chat": chat or [],
        "cosmetics": cosmetics or [],
        "objectives": objectives or [],
        "all_word_counts": all_word_counts or {},
    }
    doc.update(extra)
    return doc


def make_match(**kwargs):
    return parse_match(json.dumps(build_match_doc(**kwargs)).encode())


def sample_labels(priors, n, seed=0):
    """n label sets drawn from the priors as `synth.generate_population`
    draws its players' labels, with no telemetry attached."""
    from aia.synth import _draw_labels, _prior_cdfs

    rng = np.random.default_rng(seed)
    cdfs = _prior_cdfs(priors)
    return [_draw_labels(cdfs, rng)[0] for _ in range(n)]


# Mutations of a JSON document for the reader properties: one field, at
# any depth, replaced by any JSON value or removed.
DELETE = object()
ANY_NUMBER = st.one_of(
    st.integers(-3, 8), st.floats(-3, 8),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 10**400,
                     -10**400, 2**64]))


def json_paths(doc, prefix=()):
    """The path of every field of a JSON document, containers included."""
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from json_paths(value, prefix + (key,))


def json_values(numbers=ANY_NUMBER, names=()):
    """Any JSON value, its numbers drawn from `numbers`, its strings
    sometimes from `names`."""
    scalars = st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=4),
                        st.sampled_from(names) if names else st.nothing())
    return st.one_of(scalars, st.lists(scalars, max_size=3),
                     st.dictionaries(st.text(max_size=4), scalars, max_size=2))


def mutated(doc, where, value):
    """A copy of `doc` with the field at path `where` set to `value`, or
    removed when `value` is DELETE."""
    doc = copy.deepcopy(doc)
    parent = functools.reduce(operator.getitem, where[:-1], doc)
    if value is DELETE:
        del parent[where[-1]]
    else:
        parent[where[-1]] = value
    return doc


@pytest.fixture(scope="session")
def feature_ctx():
    return FeatureContext.default()


@pytest.fixture(scope="session")
def fixture_population():
    """The frozen 50-player synthetic corpus (`synth.FIXTURE_CONFIG`)."""
    from aia.synth import FIXTURE_CONFIG, generate_population

    return generate_population(FIXTURE_CONFIG)


@pytest.fixture(scope="session")
def fixture_matrices(fixture_population):
    """P, M and two distilled variants of the frozen corpus, and its labels."""
    from aia.features import build_distilled, build_match_matrix, build_player_matrix

    pop = fixture_population
    ctx = FeatureContext.default()
    P = build_player_matrix(pop.players, pop.matches, ctx)
    M, aug = build_match_matrix(pop.players, pop.matches, ctx)
    return P, M, build_distilled(M, aug, n_variants=2, seed=3), pop.labels
