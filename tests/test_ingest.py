import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_match_doc
from aia.attributes import AttributeLabels
from aia.errors import NotFound, RateLimited, SchemaError, SlotNotFound
from aia.features import build_match_features
from aia.ingest import (
    PlayerRecord,
    TelemetryClient,
    TokenBucket,
    TransportResponse,
    atomic_write,
    filter_players,
    load_cached_match,
    load_cached_player,
    match_cache_path,
    parse_match,
    parse_player,
    player_cache_path,
    serialize_match,
)


def minimal_match(match_id=1, n_players=10, **overrides):
    doc = {
        "match_id": match_id,
        "duration": 1800,
        "start_time": 1_577_000_000,
        "radiant_win": True,
        "players": [
            {"player_slot": s if s < 5 else s + 123, "hero_id": 1 + s,
             "account_id": 100 + s, "kills": s, "deaths": 1, "assists": 2,
             "denies": 0, "last_hits": 10 * s, "isRadiant": s < 5}
            for s in range(n_players)
        ],
    }
    doc.update(overrides)
    return doc


SOME_LABELS = AttributeLabels(
    gender="male", age_bin="19-24", occupation="no", purchase_habits="rarely",
    openness="low", conscientiousness="medium", extraversion="high",
    agreeableness="low", neuroticism="low")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_document_defaults():
    record = parse_match(json.dumps(minimal_match()).encode())
    assert record.match_id == 1
    assert len(record.players) == 10
    assert record.chat == []
    assert record.cosmetics == []
    assert record.gold_adv == []
    assert len(record.extras) == 0


def test_parse_missing_chat_is_empty_list():
    doc = minimal_match()
    assert "chat" not in doc
    record = parse_match(json.dumps(doc).encode())
    assert record.chat == []


def test_negative_duration_flagged_with_path():
    doc = minimal_match(duration=-5)
    with pytest.raises(SchemaError) as err:
        parse_match(json.dumps(doc).encode())
    assert "$.duration" in str(err.value)


def _with_first_player(**fields):
    doc = build_match_doc()
    doc["players"][0].update(fields)
    return doc


def _players(n):
    return [{"player_slot": s if s < 5 else s + 123, "hero_id": 1 + s,
             "account_id": 100 + s} for s in range(n)]


def _without(key):
    doc = build_match_doc()
    del doc[key]
    return doc


# name -> (document, JSON path of the SchemaError, start of its message).
# A value whose conversion fails inside the interpreter is reported at "$"
# with the interpreter's own wording after "malformed value: ".
MALFORMED_MATCHES = {
    "null chat slot": (build_match_doc(chat=[{"slot": None, "time": 5.0,
                                              "type": "chat", "key": "gg"}]),
                       "$", "malformed value: "),
    "chat entry not an object": (build_match_doc(chat=["gg"]),
                                 "$.chat[0]", "expected dict, got str"),
    "nan duration": (build_match_doc(duration=float("nan")),
                     "$.duration", "expected a finite number, got nan"),
    "infinite duration": (build_match_doc(duration=float("inf")),
                          "$.duration", "expected a finite number, got inf"),
    "non-numeric kills": (_with_first_player(kills="many"),
                          "$", "malformed value: "),
    "list of words for all_word_counts": (
        build_match_doc(all_word_counts=["gg!"]),
        "$.all_word_counts", "expected dict, got list"),
    "objective not an object": (build_match_doc(objectives=[5]),
                                "$.objectives[0]", "expected dict, got int"),
    "non-numeric kill slot": (build_match_doc(
        objectives=[{"type": "CHAT_MESSAGE_KILL", "slot": "x", "time": 1.0}]),
        "$", "malformed value: "),
    "null kill time": (build_match_doc(
        objectives=[{"type": "CHAT_MESSAGE_KILL", "slot": 1, "time": None}]),
        "$", "malformed value: "),
    "non-numeric word count": (build_match_doc(all_word_counts={"gg": "x"}),
                               "$", "malformed value: "),
    "non-numeric player word count": (_with_first_player(word_counts={"gg": []}),
                                      "$", "malformed value: "),
    "start time beyond the calendar": (build_match_doc(start_time=10 ** 20),
                                       "$", "malformed value: "),
    "nan cosmetic price": (build_match_doc(
        cosmetics=[{"item_id": 1, "owner_slot": 2, "price": float("nan")}]),
        "$.cosmetics[0].price", "expected a finite number, got nan"),
    "infinite chat time": (build_match_doc(
        chat=[{"slot": 1, "time": float("inf"), "type": "chat", "key": "gg"}]),
        "$.chat[0].time", "expected a finite number, got inf"),
    "nan gold advantage": (build_match_doc(radiant_gold_adv=[0.0, float("nan")]),
                           "$.radiant_gold_adv[1]",
                           "expected a finite number, got nan"),
    "infinite xp advantage": (build_match_doc(radiant_xp_adv=[float("-inf")]),
                              "$.radiant_xp_adv[0]",
                              "expected a finite number, got -inf"),
    "negative kills": (_with_first_player(kills=-1),
                       "$.players[0].kills", "kills must be >= 0"),
    "negative price": (build_match_doc(
        cosmetics=[{"item_id": 1, "owner_slot": 2, "price": -1.0}]),
        "$.cosmetics[0].price", "price must be >= 0"),
    "unknown chat type": (build_match_doc(
        chat=[{"slot": 1, "time": 5.0, "type": "shout", "key": "gg"}]),
        "$.chat[0]", "unknown chat type 'shout'"),
    "team typed text": (build_match_doc(
        chat=[{"slot": 1, "time": 5.0, "type": "chat", "channel": "team",
               "key": "gg"}]),
        "$.chat[0]", "typed text must be on the global channel"),
    "no players": (build_match_doc(players=[]),
                   "$.players", "expected 1..10 players, got 0"),
    "eleven players": (build_match_doc(players=_players(11)),
                       "$.players", "expected 1..10 players, got 11"),
    "missing match_id": (_without("match_id"),
                         "$.match_id", "missing required field 'match_id'"),
    "non-boolean radiant_win": (build_match_doc(radiant_win=1),
                                "$.radiant_win", "expected bool, got int"),
    "negative score": (build_match_doc(dire_score=-3),
                       "$.dire_score", "dire_score must be >= 0"),
}


@pytest.mark.parametrize("doc, path, message", MALFORMED_MATCHES.values(),
                         ids=MALFORMED_MATCHES.keys())
def test_malformed_match_is_schema_error(doc, path, message):
    with pytest.raises(SchemaError) as err:
        parse_match(json.dumps(doc).encode())
    assert err.value.path == path
    assert str(err.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("doc, path, message", MALFORMED_MATCHES.values(),
                         ids=MALFORMED_MATCHES.keys())
def test_decoded_malformed_match_gives_the_same_error(doc, path, message):
    with pytest.raises(SchemaError) as from_text:
        parse_match(json.dumps(doc).encode())
    with pytest.raises(SchemaError) as from_dict:
        parse_match(json.loads(json.dumps(doc)))
    assert str(from_dict.value) == str(from_text.value)
    assert from_dict.value.path == path


def test_decoded_document_parses_like_its_text():
    doc = build_match_doc(
        chat=[{"slot": 1, "time": 5.0, "type": "chat", "key": "gg"},
              {"slot": 130, "time": 9.0, "type": "chatwheel", "channel": "team",
               "key": "w_haha"}],
        cosmetics=[{"item_id": 1, "owner_slot": 2, "price": 3.0}],
        objectives=[{"type": "CHAT_MESSAGE_KILL", "slot": 1, "time": 3.0}],
        radiant_gold_adv=[0.0, 120.5], all_word_counts={"gg": 2},
        series_type=2)
    assert parse_match(doc) == parse_match(json.dumps(doc).encode())


def test_missing_cached_match_is_not_found(tmp_path):
    with pytest.raises(NotFound):
        load_cached_match(tmp_path, 5)
    (tmp_path / "matches").write_text("not a directory")
    with pytest.raises(NotFound):
        load_cached_match(tmp_path, 5)


def test_too_deeply_nested_document_is_schema_error():
    with pytest.raises(SchemaError):
        parse_match(b"[" * 100_000)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=8)
_FULL_DOC = build_match_doc(
    chat=[{"slot": 1, "time": 5.0, "type": "chat", "key": "gg"}],
    cosmetics=[{"item_id": 1, "owner_slot": 2, "price": 3.0}],
    objectives=[{"type": "CHAT_MESSAGE_KILL", "slot": 1, "time": 3.0}],
    all_word_counts={"gg": 2})


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(_FULL_DOC)), value=_JSON_VALUES,
       depth=st.integers(0, 2), data=st.data())
def test_parse_match_is_total(feature_ctx, key, value, depth, data):
    # Any JSON value in place of a field, or of a field up to two levels
    # inside it (the first entry of a list, any key of an object), either
    # raises SchemaError or parses into a record whose every slot goes
    # through feature extraction; nothing else escapes.
    doc = json.loads(json.dumps(_FULL_DOC))
    parent, field = doc, key
    for _ in range(depth):
        inner = parent[field]
        if isinstance(inner, list) and inner:
            parent, field = inner, 0
        elif isinstance(inner, dict) and inner:
            parent, field = inner, data.draw(st.sampled_from(sorted(inner)))
    parent[field] = value
    try:
        record = parse_match(json.dumps(doc).encode())
    except SchemaError:
        return
    for player in record.players:
        build_match_features(record, player.slot, feature_ctx)


def test_unknown_fields_preserved_and_counted():
    doc = minimal_match(mystery_field={"a": 1}, series_type=2)
    record = parse_match(json.dumps(doc).encode())
    assert len(record.extras) == 2
    assert record.extras["mystery_field"] == {"a": 1}
    # unknown fields survive serialization
    again = parse_match(serialize_match(record))
    assert again.extras == record.extras


def test_round_trip_identity_on_fixture_corpus():
    docs = [
        minimal_match(),
        minimal_match(match_id=2, chat=[
            {"slot": 0, "time": 12.0, "type": "chat", "channel": "global", "key": "gg wp"},
            {"slot": 3, "time": 80.0, "type": "chatwheel", "channel": "team", "key": "w_haha"},
            {"slot": 3, "time": 90.0, "type": "sound", "channel": "global", "key": "s_1"},
        ]),
        minimal_match(match_id=3, cosmetics=[
            {"item_id": 9, "owner_slot": 0, "price": 2.49}],
            radiant_gold_adv=[0.0, 120.5, -80.0],
            objectives=[{"type": "kill", "slot": 2, "time": 300}],
            skill=2, throw=1200, comeback=300),
        minimal_match(match_id=4, n_players=4),
    ]
    for doc in docs:
        first = parse_match(json.dumps(doc).encode())
        second = parse_match(serialize_match(first))
        assert first == second


def test_typed_team_text_rejected():
    doc = minimal_match(chat=[
        {"slot": 0, "time": 1.0, "type": "chat", "channel": "team", "key": "hi"}])
    with pytest.raises(SchemaError) as err:
        parse_match(json.dumps(doc).encode())
    assert "$.chat[0]" in str(err.value)


def test_chatwheel_allows_both_channels():
    doc = minimal_match(chat=[
        {"slot": 0, "time": 1.0, "type": "chatwheel", "channel": "team", "key": "w_haha"},
        {"slot": 0, "time": 2.0, "type": "chatwheel", "channel": "global", "key": "w_haha"}])
    record = parse_match(json.dumps(doc).encode())
    assert [m.channel for m in record.chat] == ["team", "global"]


def test_player_count_bounds():
    with pytest.raises(SchemaError):
        parse_match(json.dumps(minimal_match(players=[])).encode())
    doc = minimal_match()
    doc["players"].append(dict(doc["players"][0], player_slot=99, account_id=None))
    with pytest.raises(SchemaError):
        parse_match(json.dumps(doc).encode())


def test_duplicate_handle_rejected():
    doc = minimal_match()
    doc["players"][1]["account_id"] = doc["players"][0]["account_id"]
    with pytest.raises(SchemaError):
        parse_match(json.dumps(doc).encode())


def test_chat_and_slot_records_are_immutable():
    record = parse_match(build_match_doc(
        chat=[{"slot": 0, "time": 5.0, "type": "chat", "key": "gg"}]))
    with pytest.raises(AttributeError):
        record.chat[0].time_s = 6.0
    with pytest.raises(AttributeError):
        record.players[0].kills = 99
    assert record.chat[0].time_s == 5.0


def test_atomic_write_creates_a_missing_directory(tmp_path):
    path = tmp_path / "a" / "b" / "1.json"
    atomic_write(path, b"one")
    atomic_write(path, b"two")
    assert path.read_bytes() == b"two"
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["1.json"]


def test_slot_lookup():
    record = parse_match(json.dumps(minimal_match()).encode())
    assert record.slot_record(0).handle == 100
    with pytest.raises(SlotNotFound):
        record.slot_record(42)


def test_parse_player_dedupes_match_ids():
    doc = {"profile": {"rank_tier": 45, "plus": True},
           "matches": [{"match_id": 5}, {"match_id": 6}, {"match_id": 5}]}
    record = parse_player(doc, handle=77)
    assert record.match_ids == (5, 6)
    assert record.rank_tier == 45
    assert record.has_plus


@pytest.mark.parametrize("doc", [
    {"matches": [5]},
    {"matches": [{"match_id": "x"}]},
    {"profile": {"rank_tier": "gold"}},
    {"profile": 3},
], ids=["match entry not an object", "non-numeric match id",
        "non-numeric rank tier", "profile not an object"])
def test_malformed_player_is_schema_error(doc):
    with pytest.raises(SchemaError):
        parse_player(doc, handle=77)


# ---------------------------------------------------------------------------
# Client: cache, rate limiting, retries
# ---------------------------------------------------------------------------


class FakeTransport:
    def __init__(self, responses):
        self.responses = responses  # url suffix -> list of TransportResponse
        self.calls = []

    def __call__(self, url, params):
        self.calls.append((url, dict(params)))
        for suffix, replies in self.responses.items():
            if suffix in url:
                return replies.pop(0) if len(replies) > 1 else replies[0]
        return TransportResponse(404, {}, b"")


def ok(payload) -> TransportResponse:
    return TransportResponse(200, {}, json.dumps(payload).encode())


def test_fetch_match_caches_raw_bytes(tmp_path):
    doc = minimal_match(match_id=900)
    transport = FakeTransport({"/matches/900": [ok(doc)]})
    client = TelemetryClient(tmp_path, transport=transport, sleep=lambda s: None)
    record = client.fetch_match(900)
    assert record.match_id == 900
    raw = match_cache_path(tmp_path, 900).read_bytes()
    assert json.loads(raw) == doc  # bit-exact persisted payload
    # warm cache: no further transport calls
    n_calls = len(transport.calls)
    again = client.fetch_match(900)
    assert len(transport.calls) == n_calls
    assert again == record


def test_fetch_player_window_and_cache(tmp_path):
    profile = {"profile": {"account_id": 42}, "rank_tier": 30, "plus": False}
    matches = [{"match_id": 11}, {"match_id": 12}]
    transport = FakeTransport({
        "/players/42/matches": [ok(matches)],
        "/players/42": [ok(profile)],
    })
    client = TelemetryClient(tmp_path, transport=transport, sleep=lambda s: None)
    record = client.fetch_player(42, window_days=30)
    assert record.match_ids == (11, 12)
    cached = json.loads(player_cache_path(tmp_path, 42).read_text())
    assert cached["window_days"] == 30
    # matches endpoint got the window as its date parameter
    match_calls = [p for u, p in transport.calls if u.endswith("/matches")]
    assert match_calls == [{"date": 30}]
    # repeat call is served from cache
    n_calls = len(transport.calls)
    assert client.fetch_player(42, window_days=30) == record
    assert len(transport.calls) == n_calls


def test_zero_match_window_gives_empty_record(tmp_path):
    transport = FakeTransport({
        "/players/42/matches": [ok([])],
        "/players/42": [ok({"profile": {}, "rank_tier": None, "plus": False})],
    })
    client = TelemetryClient(tmp_path, transport=transport, sleep=lambda s: None)
    record = client.fetch_player(42, window_days=30)
    assert record.match_ids == ()


def test_not_found_surfaces(tmp_path):
    client = TelemetryClient(tmp_path, transport=FakeTransport({}),
                             sleep=lambda s: None)
    with pytest.raises(NotFound):
        client.fetch_match(123)


def test_offline_mode_never_touches_network(tmp_path):
    transport = FakeTransport({"/matches/900": [ok(minimal_match(match_id=900))]})
    online = TelemetryClient(tmp_path, transport=transport, sleep=lambda s: None)
    online.fetch_match(900)
    boom = FakeTransport({})
    offline = TelemetryClient(tmp_path, offline=True, transport=boom,
                              sleep=lambda s: None)
    assert offline.fetch_match(900).match_id == 900
    with pytest.raises(NotFound):
        offline.fetch_match(901)
    assert boom.calls == []


@pytest.mark.parametrize("payload", [b"[1]", b'"7"', b"null", b"{not json",
                                     b"\xff"],
                         ids=["array", "string", "null", "unparseable",
                              "not utf-8"])
def test_cached_player_that_is_not_an_object_is_schema_error(tmp_path, payload):
    path = player_cache_path(tmp_path, 7)
    path.parent.mkdir(parents=True)
    path.write_bytes(payload)
    with pytest.raises(SchemaError) as err:
        load_cached_player(tmp_path, 7)
    assert str(err.value).startswith(f"{path}: ")
    client = TelemetryClient(tmp_path, offline=True, transport=FakeTransport({}),
                             sleep=lambda s: None)
    with pytest.raises(SchemaError) as err:
        client.fetch_player(7)
    assert str(err.value).startswith(f"{path}: ")


def test_fetch_player_names_a_cached_object_that_breaks_the_schema(tmp_path):
    path = player_cache_path(tmp_path, 7)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"window_days": 30, "matches": [5]}))
    client = TelemetryClient(tmp_path, offline=True, transport=FakeTransport({}),
                             sleep=lambda s: None)
    with pytest.raises(SchemaError) as err:
        client.fetch_player(7, window_days=30)
    assert str(err.value) == f"{path}: $.matches[0]: expected dict, got int"


def test_rate_limited_retries_honor_retry_after(tmp_path):
    sleeps = []
    doc = minimal_match(match_id=5)
    transport = FakeTransport({"/matches/5": [
        TransportResponse(429, {"Retry-After": "3"}, b""),
        ok(doc),
        ok(doc),
    ]})
    client = TelemetryClient(tmp_path, transport=transport,
                             sleep=sleeps.append)
    record = client.fetch_match(5)
    assert record.match_id == 5
    assert 3.0 in sleeps


@pytest.mark.parametrize("header, expected_wait", [
    ("Wed, 21 Oct 2015 07:28:00 GMT", 0.0),  # an HTTP-date in the past
    ("soon", 7.0),  # unparseable: the first exponential backoff step
    ("inf", 7.0),  # not finite: the same fallback
])
def test_retry_after_http_date_and_garbage(tmp_path, header, expected_wait):
    sleeps = []
    doc = minimal_match(match_id=5)
    transport = FakeTransport({"/matches/5": [
        TransportResponse(429, {"Retry-After": header}, b""),
        ok(doc),
        ok(doc),
    ]})
    client = TelemetryClient(tmp_path, transport=transport, rate_per_s=1e6,
                             backoff_base_s=7.0, sleep=sleeps.append)
    assert client.fetch_match(5).match_id == 5
    assert expected_wait in sleeps


def test_rate_limited_exhaustion_raises(tmp_path):
    transport = FakeTransport({"/matches/5": [TransportResponse(429, {}, b"")]})
    client = TelemetryClient(tmp_path, transport=transport, max_retries=2,
                             sleep=lambda s: None)
    with pytest.raises(RateLimited):
        client.fetch_match(5)


def test_unparseable_payload_is_schema_error(tmp_path):
    transport = FakeTransport({"/matches/5": [TransportResponse(200, {}, b"not json")]})
    client = TelemetryClient(tmp_path, transport=transport, sleep=lambda s: None)
    with pytest.raises(SchemaError):
        client.fetch_match(5)


def test_token_bucket_spaces_requests():
    clock = {"t": 0.0}
    sleeps = []

    def fake_sleep(s):
        sleeps.append(s)
        clock["t"] += s

    bucket = TokenBucket(rate_per_s=2.0, clock=lambda: clock["t"], sleep=fake_sleep)
    bucket.acquire()           # initial token, no wait
    bucket.acquire()           # must wait 0.5s at 2 rps
    assert sleeps == [0.5]
    clock["t"] += 10.0         # long idle refills (capacity capped)
    bucket.acquire()
    assert sleeps == [0.5]


def test_atomic_cache_write_leaves_no_temp_files(tmp_path):
    transport = FakeTransport({"/matches/7": [ok(minimal_match(match_id=7))]})
    client = TelemetryClient(tmp_path, transport=transport, sleep=lambda s: None)
    client.fetch_match(7)
    leftovers = list((tmp_path / "matches").glob("*.tmp"))
    assert leftovers == []
    assert load_cached_match(tmp_path, 7).match_id == 7


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------


def make_player(handle, n_matches):
    return PlayerRecord(handle=handle, rank_tier=None, has_plus=False,
                        match_ids=tuple(range(1, n_matches + 1)))


def test_filter_boundary_and_categories():
    records = [
        (make_player(1, 4), SOME_LABELS),    # inactive
        (make_player(2, 5), SOME_LABELS),    # boundary: retained
        (make_player(3, 0), SOME_LABELS),    # not visible
        (make_player(4, 9), None),           # invalid labels
    ]
    kept, report = filter_players(records)
    assert [r.handle for r, _ in kept] == [2]
    assert report.inactive == 1
    assert report.not_visible == 1
    assert report.invalid_labels == 1
    assert report.retained == 1


def test_filter_planted_inactive_count():
    records = []
    for i in range(90):
        records.append((make_player(i, 5 + i % 20), SOME_LABELS))
    for i in range(90, 100):
        records.append((make_player(i, 1 + i % 4), SOME_LABELS))  # 1..4 matches
    kept, report = filter_players(records)
    assert report.inactive == 10
    assert report.retained == 90


def test_filter_reproduces_reference_population_funnel():
    # 625 raw entries with planted removals: 18 invalid answers, 43 without
    # public match data, 80 inactive, leaving the reference count of 484.
    # (The source's own removal categories sum to 139, not 141; the planted
    # counts here are chosen so both endpoints match.)
    records = []
    handle = 1
    for _ in range(18):
        records.append((make_player(handle, 10), None))
        handle += 1
    for _ in range(43):
        records.append((make_player(handle, 0), SOME_LABELS))
        handle += 1
    for i in range(80):
        records.append((make_player(handle, 1 + i % 4), SOME_LABELS))
        handle += 1
    for i in range(484):
        records.append((make_player(handle, 5 + i % 25), SOME_LABELS))
        handle += 1
    assert len(records) == 625
    kept, report = filter_players(records)
    assert report.invalid_labels == 18
    assert report.not_visible == 43
    assert report.inactive == 80
    assert report.retained == 484
    assert len(kept) == 484


def test_filter_is_order_independent():
    records = [
        (make_player(1, 4), SOME_LABELS),
        (make_player(2, 5), SOME_LABELS),
        (make_player(3, 0), SOME_LABELS),
        (make_player(4, 9), None),
        (make_player(5, 30), SOME_LABELS),
    ]
    baseline = None
    for perm in itertools.permutations(records):
        kept, report = filter_players(list(perm))
        kept_handles = {r.handle for r, _ in kept}
        snapshot = (kept_handles, report.invalid_labels, report.not_visible,
                    report.inactive, report.retained)
        if baseline is None:
            baseline = snapshot
        assert snapshot == baseline
