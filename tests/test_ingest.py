import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_match_doc
from aia.attributes import AttributeLabels
from aia.errors import NotFound, RateLimited, SchemaError
from aia.features import build_match_features
from aia import ingest
from aia.ingest import (
    ChatMessage,
    MatchPlayerSlot,
    MatchRecord,
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
    "assists past the float range": (_with_first_player(assists=10 ** 400),
                                     "$.players[0].assists",
                                     "assists must be below 2**53"),
    "first blood past the float range": (build_match_doc(first_blood_time=10 ** 400),
                                         "$", "malformed value: "),
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


def test_integer_past_the_digit_limit_is_schema_error():
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # integer of more digits than the interpreter converts.
    with pytest.raises(SchemaError):
        parse_match(b'{"match_id": ' + b"1" * 5000 + b"}")


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=8)


# Every field the parser reads, with values: typed text, a team wheel and a
# hero wheel, advantage curves, outcome numbers and an unknown field.
_ORACLE_DOC = build_match_doc(
    chat=[{"slot": 1, "time": 5.0, "type": "chat", "channel": "global", "key": "gg"},
          {"slot": 128, "time": 9, "type": "chatwheel", "channel": "team", "key": "w"},
          {"slot": 2, "time": 12.5, "type": "chatwheel_hero", "channel": "global",
           "key": "hw"}],
    cosmetics=[{"item_id": 1, "owner_slot": 2, "price": 3.0}],
    objectives=[{"type": "CHAT_MESSAGE_KILL", "slot": 1, "time": 3.0}],
    all_word_counts={"gg": 2},
    radiant_gold_adv=[1.5, -2.0, 0.0], radiant_xp_adv=[3, 4.5],
    throw=1.5, comeback=2, loss=0.5, win=3.25, mystery={"a": 1})
_ORACLE_DOC["players"][1]["word_counts"] = {"gg": 2}
_ORACLE_TEXT = json.dumps(_ORACLE_DOC)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(_ORACLE_DOC)),
       value=_JSON_VALUES | st.sampled_from([2 ** 53, 10 ** 400, -10 ** 400]),
       depth=st.integers(0, 2), data=st.data())
def test_parse_match_is_total(feature_ctx, key, value, depth, data):
    # Any JSON value in place of a field, or of a field up to two levels
    # inside it (the first entry of a list, any key of an object), either
    # raises SchemaError or parses into a record whose every slot goes
    # through feature extraction; nothing else escapes.
    doc = json.loads(_ORACLE_TEXT)
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
        build_match_features(record, player, feature_ctx)


# ---------------------------------------------------------------------------
# Oracle: the parser before its per-field costs were cut
# ---------------------------------------------------------------------------


def _ref_is_number(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float)) \
        and math.isfinite(value)


def _ref_require(doc, key, kind, path="$"):
    value = doc.get(key)
    if value is None:
        raise SchemaError(f"missing required field {key!r}", path=f"{path}.{key}")
    if kind is bool:
        if not isinstance(value, bool):
            raise ingest._wrong_type(value, bool, f"{path}.{key}")
        return value
    if not _ref_is_number(value):
        raise ingest._not_number(value, f"{path}.{key}")
    return int(value)


def _ref_array(doc, key):
    value = doc.get(key) or []
    if not isinstance(value, list):
        raise ingest._wrong_type(value, list, f"$.{key}")
    return value


def _ref_optional_num(doc, key):
    value = doc.get(key)
    if value is None:
        return None
    if not _ref_is_number(value):
        raise ingest._not_number(value, f"$.{key}")
    return float(value)


def _ref_objects(doc, key):
    values = _ref_array(doc, key)
    for i, value in enumerate(values):
        if not isinstance(value, dict):
            raise ingest._wrong_type(value, dict, f"$.{key}[{i}]")
    return list(values)


def _ref_numbers(doc, key):
    values = _ref_array(doc, key)
    for i, value in enumerate(values):
        if not _ref_is_number(value):
            raise ingest._not_number(value, f"$.{key}[{i}]")
    return [float(v) for v in values]


_REF_CHAT_TYPES = {"chat": "typed_text", "chatwheel": "chatwheel_general",
                   "chatwheel_hero": "chatwheel_hero", "sound": "sound",
                   "spray": "spray"}


def _ref_parse_chat_entry(entry, index):
    if not isinstance(entry, dict):
        raise ingest._wrong_type(entry, dict, f"$.chat[{index}]")
    raw_type = entry.get("type", "chat")
    kind = _REF_CHAT_TYPES.get(raw_type)
    if kind is None:
        raise SchemaError(f"unknown chat type {raw_type!r}", path=f"$.chat[{index}]")
    channel = entry.get("channel", "global")
    if channel not in ("global", "team"):
        raise SchemaError(f"unknown chat channel {channel!r}",
                          path=f"$.chat[{index}]")
    if kind == "typed_text" and channel != "global":
        raise SchemaError("typed text must be on the global channel",
                          path=f"$.chat[{index}]")
    sender_slot = int(entry.get("slot", 0))
    time_s = entry.get("time", 0.0)
    if not _ref_is_number(time_s):
        raise ingest._not_number(time_s, f"$.chat[{index}].time")
    return ChatMessage(sender_slot, float(time_s), kind, channel,
                       str(entry.get("key", "")))


def _ref_parse_player_slot(entry, index):
    if not isinstance(entry, dict):
        raise ingest._wrong_type(entry, dict, f"$.players[{index}]")
    slot = entry.get("player_slot")
    if slot is None or not _ref_is_number(slot):
        _ref_require(entry, "player_slot", int, f"$.players[{index}]")  # raises
    slot = int(slot)
    counts = []
    for key in ("kills", "deaths", "assists", "denies", "last_hits"):
        value = int(entry.get(key, 0) or 0)
        if value < 0:
            raise SchemaError(f"{key} must be >= 0", path=f"$.players[{index}].{key}")
        if value >= 2 ** 53:
            raise SchemaError(f"{key} must be below 2**53",
                              path=f"$.players[{index}].{key}")
        counts.append(value)
    is_radiant = entry.get("isRadiant")
    if is_radiant is None:
        is_radiant = slot < 128
    account = entry.get("account_id")
    handle = int(account) if account is not None else None
    hero_id = int(entry.get("hero_id", 0) or 0)
    word_counts = entry.get("word_counts") or {}
    if not isinstance(word_counts, dict):
        raise ingest._wrong_type(word_counts, dict, f"$.players[{index}].word_counts")
    return MatchPlayerSlot(handle, slot, hero_id, *counts, bool(is_radiant),
                           dict(word_counts))


def _ref_match_from_doc(doc):
    duration = _ref_require(doc, "duration", int)
    if duration < 0:
        raise SchemaError("duration must be >= 0", path="$.duration")
    players_raw = _ref_array(doc, "players")
    if not 1 <= len(players_raw) <= 10:
        raise SchemaError(f"expected 1..10 players, got {len(players_raw)}",
                          path="$.players")
    players = [_ref_parse_player_slot(p, i) for i, p in enumerate(players_raw)]
    seen_handles = [p.handle for p in players if p.handle is not None]
    if len(seen_handles) != len(set(seen_handles)):
        raise SchemaError("a handle appears in more than one slot", path="$.players")
    if len({p.slot for p in players}) != len(players):
        raise SchemaError("a slot number appears in more than one entry",
                          path="$.players")
    for key in ("radiant_score", "dire_score"):
        if int(doc.get(key, 0) or 0) < 0:
            raise SchemaError(f"{key} must be >= 0", path=f"$.{key}")
    chat = [_ref_parse_chat_entry(c, i) for i, c in enumerate(_ref_array(doc, "chat"))]
    cosmetics = []
    for i, item in enumerate(_ref_array(doc, "cosmetics")):
        if not isinstance(item, dict):
            raise ingest._wrong_type(item, dict, f"$.cosmetics[{i}]")
        price = item.get("price", 0.0) or 0.0
        if not _ref_is_number(price):
            raise ingest._not_number(price, f"$.cosmetics[{i}].price")
        if price < 0:
            raise SchemaError("price must be >= 0", path=f"$.cosmetics[{i}].price")
        cosmetics.append({
            "item_id": int(item.get("item_id", 0) or 0),
            "owner_slot": int(item.get("owner_slot", 0) or 0),
            "price": float(price),
        })
    extras = {k: doc[k] for k in doc if k not in ingest._MATCH_KNOWN_FIELDS}
    return MatchRecord(
        match_id=_ref_require(doc, "match_id", int),
        duration_s=duration,
        start_time=int(doc.get("start_time", 0) or 0),
        game_mode=int(doc.get("game_mode", 0) or 0),
        lobby_type=int(doc.get("lobby_type", 0) or 0),
        region=int(doc.get("region", 0) or 0),
        patch=int(doc.get("patch", 0) or 0),
        skill=int(doc["skill"]) if doc.get("skill") is not None else None,
        radiant_win=_ref_require(doc, "radiant_win", bool),
        radiant_score=int(doc.get("radiant_score", 0) or 0),
        dire_score=int(doc.get("dire_score", 0) or 0),
        tower_status_radiant=int(doc.get("tower_status_radiant", 0) or 0),
        tower_status_dire=int(doc.get("tower_status_dire", 0) or 0),
        barracks_status_radiant=int(doc.get("barracks_status_radiant", 0) or 0),
        barracks_status_dire=int(doc.get("barracks_status_dire", 0) or 0),
        first_blood_time=int(doc.get("first_blood_time", 0) or 0),
        human_players=int(doc.get("human_players", len(players)) or len(players)),
        throw=_ref_optional_num(doc, "throw"),
        comeback=_ref_optional_num(doc, "comeback"),
        loss=_ref_optional_num(doc, "loss"),
        win=_ref_optional_num(doc, "win"),
        chat=chat,
        cosmetics=cosmetics,
        players=players,
        objectives=_ref_objects(doc, "objectives"),
        teamfights=list(_ref_array(doc, "teamfights")),
        picks_bans=list(_ref_array(doc, "picks_bans")),
        draft_timings=list(_ref_array(doc, "draft_timings")),
        gold_adv=_ref_numbers(doc, "radiant_gold_adv"),
        xp_adv=_ref_numbers(doc, "radiant_xp_adv"),
        word_counts=dict(ingest._typed(doc.get("all_word_counts") or {}, dict,
                                       "$.all_word_counts")),
        extras=extras,
    )


def reference_parse_match(doc: dict) -> MatchRecord:
    """parse_match on a decoded document, as it was before its per-field
    costs were cut."""
    try:
        record = _ref_match_from_doc(doc)
        record.kill_events
        time.gmtime(record.start_time)
        float(record.duration_s + record.radiant_score + record.dire_score
              + abs(record.first_blood_time) + abs(record.human_players))
        for counts in [record.word_counts] + [p.word_counts for p in record.players]:
            float(sum(counts.values()))
    except (TypeError, ValueError, OverflowError, OSError) as exc:
        raise SchemaError(f"malformed value: {exc}", path="$") from exc
    return record


def _parse_outcome(parse, doc):
    """The record's repr (field values with their types), or the error's
    type, message and path."""
    try:
        return repr(parse(doc))
    except Exception as exc:  # noqa: BLE001 - any escape must match too
        return type(exc).__name__, str(exc), getattr(exc, "path", None)


def _containers(node, path=()):
    """The path of every object and array inside `node`, itself included."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        if isinstance(child, (dict, list)):
            yield from _containers(child, path + (key,))


# A decoded document may hold what JSON cannot: synth hands parse_match
# dicts, so numpy scalars can reach any field.
_NUMPY_SCALARS = (st.floats().map(np.float64)
                  | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64))
_EDGE_VALUES = st.sampled_from([
    math.inf, -math.inf, math.nan, -1, -0.5, 0, 0.0, 2 ** 64, 10 ** 400, "1", "x",
    "global", "team", "chat", "chatwheel", "chatwheel_hero", "sound", None, [], {}])
_MUTANT_VALUES = _JSON_VALUES | st.booleans() | _NUMPY_SCALARS | _EDGE_VALUES


@settings(max_examples=500, deadline=None)
@given(where=st.sampled_from(list(_containers(_ORACLE_DOC))), data=st.data())
def test_parse_match_equals_reference_parser(where, data):
    # Up to three fields of one object or array of the document replaced
    # (or an unknown field added): today's parser and the reference give
    # the same record, or the same error with the same message and path.
    doc = json.loads(_ORACLE_TEXT)
    node = doc
    for key in where:
        node = node[key]
    keys = (sorted(node) + ["mystery"] if isinstance(node, dict)
            else list(range(len(node))))
    for key, value in data.draw(st.lists(st.tuples(st.sampled_from(keys), _MUTANT_VALUES),
                                         min_size=1, max_size=3)):
        node[key] = value
    assert _parse_outcome(parse_match, doc) == _parse_outcome(reference_parse_match, doc)


def test_parse_match_reports_the_reference_error_for_any_two_bad_fields():
    # Which error a document reports depends on the order fields are read:
    # every pair of fields of every object, each given a bad value, must
    # report what the reference reports.
    bad = ("x", -1, math.inf, None, True, 10 ** 400)
    checked = 0
    for where in _containers(_ORACLE_DOC):
        node = _ORACLE_DOC
        for key in where:
            node = node[key]
        if not isinstance(node, dict):
            continue
        for a, b in itertools.combinations(sorted(node), 2):
            for va, vb in itertools.product(bad, bad):
                doc = json.loads(_ORACLE_TEXT)
                target = doc
                for key in where:
                    target = target[key]
                target[a], target[b] = va, vb
                assert _parse_outcome(parse_match, doc) == _parse_outcome(
                    reference_parse_match, doc), (where, a, va, b, vb)
                checked += 1
    assert checked > 10_000


def test_parse_match_equals_reference_parser_on_the_fixture(fixture_population):
    for match in fixture_population.matches.values():
        doc = json.loads(serialize_match(match))
        assert _parse_outcome(parse_match, doc) == _parse_outcome(
            reference_parse_match, doc)


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


@pytest.mark.parametrize("field", ["account_id", "player_slot"])
def test_duplicate_handle_rejected(field):
    # Chat, kills and cosmetics are keyed by slot number, and rows by handle:
    # either one held by two entries is rejected.
    doc = minimal_match()
    doc["players"][1][field] = doc["players"][0][field]
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
    {"profile": {"rank_tier": 10**400}, "matches": []},
    {"profile": {}, "matches": [{"match_id": 10**400}]},
], ids=["match entry not an object", "non-numeric match id",
        "non-numeric rank tier", "profile not an object",
        "rank tier past the float range", "match id past the float range"])
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


def test_fetch_match_refuses_a_payload_of_another_id(tmp_path):
    transport = FakeTransport({"/matches/900": [ok(minimal_match(match_id=901))]})
    client = TelemetryClient(tmp_path, transport=transport, sleep=lambda s: None)
    with pytest.raises(SchemaError) as err:
        client.fetch_match(900)
    assert str(err.value) == \
        "matches/900: $.match_id: holds match 901, expected 900"
    assert not match_cache_path(tmp_path, 900).exists()
    assert not match_cache_path(tmp_path, 901).exists()


def test_offline_fetch_match_names_a_malformed_cached_match(tmp_path):
    path = match_cache_path(tmp_path, 900)
    path.parent.mkdir(parents=True)
    path.write_text("{}")
    client = TelemetryClient(tmp_path, offline=True, transport=FakeTransport({}),
                             sleep=lambda s: None)
    with pytest.raises(SchemaError) as err:
        client.fetch_match(900)
    assert str(err.value) == \
        f"{path}: $.duration: missing required field 'duration'"


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
