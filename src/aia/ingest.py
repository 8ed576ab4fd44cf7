"""Telemetry ingestion: fetch, parse, and filter public match data.

The wire format is the OpenDota JSON schema. Raw payloads are cached on
disk (one file per entity) so full pipeline runs work offline from
committed fixtures; the synthetic generator emits the same layout.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

from .errors import NotFound, RateLimited, SchemaError

DEFAULT_BASE_URL = "https://api.opendota.com/api"

CHAT_KINDS = ("typed_text", "chatwheel_general", "chatwheel_hero", "sound", "spray")
CHAT_CHANNELS = ("global", "team")

# Source "type" strings -> canonical chat kinds.
_CHAT_TYPE_MAP = {
    "chat": "typed_text",
    "chatwheel": "chatwheel_general",
    "chatwheel_hero": "chatwheel_hero",
    "sound": "sound",
    "spray": "spray",
}
_CHAT_TYPE_INV = {v: k for k, v in _CHAT_TYPE_MAP.items()}


# ---------------------------------------------------------------------------
# Typed records
# ---------------------------------------------------------------------------


# A match holds ~10 slots and ~15 chat entries, so these two are named
# tuples: immutable like the frozen records, and several times cheaper to
# build, which every parse of every match pays.
class ChatMessage(NamedTuple):
    sender_slot: int
    time_s: float
    kind: str      # one of CHAT_KINDS
    channel: str   # one of CHAT_CHANNELS
    text_or_id: str


class MatchPlayerSlot(NamedTuple):
    handle: Optional[int]
    slot: int
    hero_id: int
    kills: int
    deaths: int
    assists: int
    denies: int
    last_hits: int
    is_radiant: bool
    word_counts: dict


@dataclass
class MatchRecord:
    match_id: int
    duration_s: int
    start_time: int
    game_mode: int
    lobby_type: int
    region: int
    patch: int
    skill: Optional[int]
    radiant_win: bool
    radiant_score: int
    dire_score: int
    tower_status_radiant: int
    tower_status_dire: int
    barracks_status_radiant: int
    barracks_status_dire: int
    first_blood_time: int
    human_players: int
    throw: Optional[float]
    comeback: Optional[float]
    loss: Optional[float]
    win: Optional[float]
    chat: list[ChatMessage] = field(default_factory=list)
    cosmetics: list[dict] = field(default_factory=list)
    players: list[MatchPlayerSlot] = field(default_factory=list)
    objectives: list[dict] = field(default_factory=list)
    teamfights: list[dict] = field(default_factory=list)
    picks_bans: list[dict] = field(default_factory=list)
    draft_timings: list[dict] = field(default_factory=list)
    gold_adv: list[float] = field(default_factory=list)
    xp_adv: list[float] = field(default_factory=list)
    word_counts: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)  # unknown source fields, preserved

    @functools.cached_property
    def kill_events(self) -> list[tuple[int, float]]:
        """(slot, time) of every kill objective that names a slot.

        Computed once per record (parse_match computes it to validate the
        record) and shared by later reads, which must not modify it;
        records are not edited in place after parsing.
        """
        events = []
        for obj in self.objectives:
            who = obj.get("slot", obj.get("player_slot"))
            if "kill" in str(obj.get("type", "")).lower() and who is not None:
                events.append((int(who), float(obj.get("time", 0.0))))
        return events

    @functools.cached_property
    def message_counts(self) -> dict[str, dict[int, int]]:
        """Chat messages per kind and sender slot, {kind: {slot: count}}.

        Computed once per record and shared like `kill_events`: every row
        built from the match reads the same counts.
        """
        counts: dict[str, dict[int, int]] = {}
        for msg in self.chat:
            by_slot = counts.setdefault(msg.kind, {})
            by_slot[msg.sender_slot] = by_slot.get(msg.sender_slot, 0) + 1
        return counts


@dataclass(frozen=True)
class PlayerRecord:
    handle: int
    rank_tier: Optional[int]
    has_plus: bool
    match_ids: tuple[int, ...]


@dataclass
class FilterReport:
    invalid_labels: int = 0
    not_visible: int = 0
    inactive: int = 0
    retained: int = 0


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _typed(value, kind: type, path: str):
    if not isinstance(value, kind):
        raise _wrong_type(value, kind, path)
    return value


def _wrong_type(value, kind: type, path: str) -> SchemaError:
    return SchemaError(f"expected {kind.__name__}, got {type(value).__name__}",
                       path=path)


def _array(doc: dict, key: str) -> list:
    value = doc.get(key) or []
    if not isinstance(value, list):
        raise _wrong_type(value, list, f"$.{key}")
    return value


def _is_number(value) -> bool:
    """A finite JSON number; a boolean is not one."""
    kind = type(value)
    if kind is float or kind is int:
        return math.isfinite(value)
    return not isinstance(value, bool) and isinstance(value, (int, float)) \
        and math.isfinite(value)


def _not_number(value, path: str) -> SchemaError:
    return SchemaError(f"expected a finite number, got {value!r}", path=path)


def _integer(value, path: str) -> int:
    """int() of a finite JSON number; an integer past the float range is
    refused too, as in a match document."""
    try:
        finite = _is_number(value)
    except OverflowError:
        raise SchemaError("integer past the float range", path=path) from None
    if not finite:
        raise _not_number(value, path)
    return int(value)


def _require(doc: dict, key: str, kind: type, path: str = "$"):
    """A required boolean (kind bool) or integer (kind int) field."""
    value = doc.get(key)
    if kind is bool:
        if value is True or value is False:
            return value
    elif _is_number(value):
        return int(value)
    if value is None:
        raise SchemaError(f"missing required field {key!r}", path=f"{path}.{key}")
    if kind is bool:
        raise _wrong_type(value, bool, f"{path}.{key}")
    raise _not_number(value, f"{path}.{key}")


def _optional_num(doc: dict, key: str):
    value = doc.get(key)
    if value is None:
        return None
    if not _is_number(value):
        raise _not_number(value, f"$.{key}")
    return float(value)


def _objects(doc: dict, key: str) -> list[dict]:
    values = _array(doc, key)
    for i, value in enumerate(values):
        if not isinstance(value, dict):
            raise _wrong_type(value, dict, f"$.{key}[{i}]")
    return list(values)


def _numbers(doc: dict, key: str) -> list[float]:
    values = _array(doc, key)
    # All floats with a finite sum: every one is finite, since an infinite
    # or NaN term would leave the sum infinite or NaN.
    if all(type(v) is float for v in values) and math.isfinite(sum(values)):
        return values[:]
    for i, value in enumerate(values):
        if not _is_number(value):
            raise _not_number(value, f"$.{key}[{i}]")
    return [float(v) for v in values]


# Named tuples built from a tuple of their fields, without the keyword
# handling of the generated constructor.
_new_tuple = tuple.__new__

# (source type, channel) -> chat kind, for every pair a document may hold.
# Typed text is never public on the team channel, so ("chat", "team") is
# not a key.
_CHAT_KIND_OF = {(raw, channel): kind
                 for raw, kind in _CHAT_TYPE_MAP.items()
                 for channel in CHAT_CHANNELS
                 if kind != "typed_text" or channel == "global"}


_CHAT_FIELDS = operator.itemgetter("type", "channel", "slot", "time", "key")


def _parse_chat_entry(entry: dict, index: int) -> ChatMessage:
    """One chat entry. An object holding every field, with a (type, channel)
    pair of _CHAT_KIND_OF, an integer slot, a finite float time and a string
    key, is read in one call; any other entry is read field by field, which
    raises its first error."""
    if type(entry) is dict:
        try:
            raw_type, channel, slot, time_s, key = _CHAT_FIELDS(entry)
            kind = _CHAT_KIND_OF[raw_type, channel]
        except (KeyError, TypeError):  # a field missing, a pair unknown or unhashable
            return _checked_chat_entry(entry, index)
        if (type(slot) is int and type(time_s) is float and math.isfinite(time_s)
                and type(key) is str):
            return _new_tuple(ChatMessage, (slot, time_s, kind, channel, key))
    return _checked_chat_entry(entry, index)


def _checked_chat_entry(entry: dict, index: int) -> ChatMessage:
    if not isinstance(entry, dict):
        raise _wrong_type(entry, dict, f"$.chat[{index}]")
    raw_type = entry.get("type", "chat")
    kind = _CHAT_TYPE_MAP.get(raw_type)
    if kind is None:
        raise SchemaError(f"unknown chat type {raw_type!r}", path=f"$.chat[{index}]")
    channel = entry.get("channel", "global")
    if channel not in CHAT_CHANNELS:
        raise SchemaError(f"unknown chat channel {channel!r}",
                          path=f"$.chat[{index}]")
    if kind == "typed_text" and channel != "global":
        # Team text is never public; only the global channel can appear.
        raise SchemaError("typed text must be on the global channel",
                          path=f"$.chat[{index}]")
    sender_slot = int(entry.get("slot", 0))
    time_s = entry.get("time", 0.0)
    if not _is_number(time_s):
        raise _not_number(time_s, f"$.chat[{index}].time")
    return ChatMessage(sender_slot, float(time_s), kind, channel,
                       str(entry.get("key", "")))


_SLOT_COUNTS = ("kills", "deaths", "assists", "denies", "last_hits")
# Counts at or past this are refused, so that every count, and every sum of
# counts that feature extraction forms, converts to a float.
_COUNT_LIMIT = 2 ** 53
_SLOT_FIELDS = operator.itemgetter("player_slot", *_SLOT_COUNTS, "hero_id",
                                   "account_id", "isRadiant", "word_counts")


def _parse_player_slot(entry: dict, index: int) -> MatchPlayerSlot:
    """One slot entry. An object holding every field with its plain JSON
    type (integers, a non-negative slot below 256 and counts, an integer or
    null account, a boolean side, an object of word counts) is read in one
    call; any other entry is read field by field, which raises its first
    error."""
    if type(entry) is dict:
        try:
            (slot, kills, deaths, assists, denies, last_hits, hero_id, account,
             is_radiant, word_counts) = _SLOT_FIELDS(entry)
        except KeyError:
            return _checked_player_slot(entry, index)
        if (type(slot) is int and type(kills) is int and type(deaths) is int
                and type(assists) is int and type(denies) is int
                and type(last_hits) is int and type(hero_id) is int
                and 0 <= slot < 256
                and 0 <= (kills | deaths | assists | denies | last_hits) < _COUNT_LIMIT
                and (account is None or type(account) is int)
                and type(is_radiant) is bool and type(word_counts) is dict):
            return _new_tuple(MatchPlayerSlot, (
                account, slot, hero_id, kills, deaths, assists, denies, last_hits,
                is_radiant, dict(word_counts)))
    return _checked_player_slot(entry, index)


def _checked_player_slot(entry: dict, index: int) -> MatchPlayerSlot:
    if not isinstance(entry, dict):
        raise _wrong_type(entry, dict, f"$.players[{index}]")
    slot = entry.get("player_slot")
    if slot is None or not _is_number(slot):
        _require(entry, "player_slot", int, f"$.players[{index}]")  # raises
    slot = int(slot)
    counts = []
    for key in _SLOT_COUNTS:
        value = int(entry.get(key, 0) or 0)
        if value < 0:
            raise SchemaError(f"{key} must be >= 0", path=f"$.players[{index}].{key}")
        if value >= _COUNT_LIMIT:
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
        raise _wrong_type(word_counts, dict, f"$.players[{index}].word_counts")
    return MatchPlayerSlot(handle, slot, hero_id, *counts, bool(is_radiant),
                           dict(word_counts))


_MATCH_KNOWN_FIELDS = frozenset({
    "match_id", "duration", "start_time", "game_mode", "lobby_type", "region",
    "patch", "skill", "radiant_win", "radiant_score", "dire_score",
    "tower_status_radiant", "tower_status_dire", "barracks_status_radiant",
    "barracks_status_dire", "first_blood_time", "human_players", "throw",
    "comeback", "loss", "win", "chat", "cosmetics", "players", "objectives",
    "teamfights", "picks_bans", "draft_timings", "radiant_gold_adv",
    "radiant_xp_adv", "all_word_counts",
})


def parse_match(payload: bytes | str | dict) -> MatchRecord:
    """Deserialize one match document into a MatchRecord.

    `payload` is the document's JSON text, or the document already decoded
    into a dict; a dict skips decoding and goes through the same checks.
    The record may share nested objects (objectives, unknown fields) with a
    dict payload. All schema fields map losslessly; unknown fields are kept
    in `extras` so later feature work can still reach them.
    The first invariant violation raises SchemaError with its JSON path.
    Objects and arrays are type-checked where they are read; a scalar that
    does not convert raises SchemaError too. A document either raises
    SchemaError or gives a record that feature extraction accepts.
    """
    if isinstance(payload, dict):
        doc = payload
    else:
        try:
            doc = json.loads(payload)
        # ValueError also covers an integer of more digits than the
        # interpreter converts, which is not a JSONDecodeError.
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"not a JSON document: {exc}", path="$") from exc
        if not isinstance(doc, dict):
            raise _wrong_type(doc, dict, "$")
    try:
        record = _match_from_doc(doc)
        # Feature extraction converts these values again; converting them
        # here keeps every record that parses featurizable.
        record.kill_events
        time.gmtime(record.start_time)
        float(record.duration_s + record.radiant_score + record.dire_score
              + abs(record.first_blood_time) + abs(record.human_players))
        float(sum(record.word_counts.values()))
        for player in record.players:
            if player.word_counts:
                float(sum(player.word_counts.values()))
    except (TypeError, ValueError, OverflowError, OSError) as exc:
        raise SchemaError(f"malformed value: {exc}", path="$") from exc
    return record


def _match_from_doc(doc: dict) -> MatchRecord:
    get = doc.get
    duration = _require(doc, "duration", int)
    if duration < 0:
        raise SchemaError("duration must be >= 0", path="$.duration")

    players_raw = _array(doc, "players")
    if not 1 <= len(players_raw) <= 10:
        raise SchemaError(f"expected 1..10 players, got {len(players_raw)}",
                          path="$.players")
    players = [_parse_player_slot(p, i) for i, p in enumerate(players_raw)]
    seen_handles = [p.handle for p in players if p.handle is not None]
    if len(seen_handles) != len(set(seen_handles)):
        raise SchemaError("a handle appears in more than one slot", path="$.players")
    if len({p.slot for p in players}) != len(players):
        raise SchemaError("a slot number appears in more than one entry",
                          path="$.players")

    radiant_score = int(get("radiant_score", 0) or 0)
    if radiant_score < 0:
        raise SchemaError("radiant_score must be >= 0", path="$.radiant_score")
    dire_score = int(get("dire_score", 0) or 0)
    if dire_score < 0:
        raise SchemaError("dire_score must be >= 0", path="$.dire_score")

    chat = [_parse_chat_entry(c, i) for i, c in enumerate(_array(doc, "chat"))]

    cosmetics = []
    for i, item in enumerate(_array(doc, "cosmetics")):
        if not isinstance(item, dict):
            raise _wrong_type(item, dict, f"$.cosmetics[{i}]")
        price = item.get("price", 0.0) or 0.0
        if not _is_number(price):
            raise _not_number(price, f"$.cosmetics[{i}].price")
        if price < 0:
            raise SchemaError("price must be >= 0", path=f"$.cosmetics[{i}].price")
        cosmetics.append({
            "item_id": int(item.get("item_id", 0) or 0),
            "owner_slot": int(item.get("owner_slot", 0) or 0),
            "price": float(price),
        })

    if doc.keys() <= _MATCH_KNOWN_FIELDS:
        extras = {}
    else:
        extras = {k: doc[k] for k in doc if k not in _MATCH_KNOWN_FIELDS}

    return MatchRecord(
        match_id=_require(doc, "match_id", int),
        duration_s=duration,
        start_time=int(get("start_time", 0) or 0),
        game_mode=int(get("game_mode", 0) or 0),
        lobby_type=int(get("lobby_type", 0) or 0),
        region=int(get("region", 0) or 0),
        patch=int(get("patch", 0) or 0),
        skill=int(doc["skill"]) if get("skill") is not None else None,
        radiant_win=_require(doc, "radiant_win", bool),
        radiant_score=radiant_score,
        dire_score=dire_score,
        tower_status_radiant=int(get("tower_status_radiant", 0) or 0),
        tower_status_dire=int(get("tower_status_dire", 0) or 0),
        barracks_status_radiant=int(get("barracks_status_radiant", 0) or 0),
        barracks_status_dire=int(get("barracks_status_dire", 0) or 0),
        first_blood_time=int(get("first_blood_time", 0) or 0),
        human_players=int(get("human_players", len(players)) or len(players)),
        throw=_optional_num(doc, "throw"),
        comeback=_optional_num(doc, "comeback"),
        loss=_optional_num(doc, "loss"),
        win=_optional_num(doc, "win"),
        chat=chat,
        cosmetics=cosmetics,
        players=players,
        objectives=_objects(doc, "objectives"),
        teamfights=list(_array(doc, "teamfights")),
        picks_bans=list(_array(doc, "picks_bans")),
        draft_timings=list(_array(doc, "draft_timings")),
        gold_adv=_numbers(doc, "radiant_gold_adv"),
        xp_adv=_numbers(doc, "radiant_xp_adv"),
        word_counts=dict(_typed(get("all_word_counts") or {}, dict,
                                "$.all_word_counts")),
        extras=extras,
    )


def serialize_match(record: MatchRecord) -> bytes:
    """Inverse of parse_match at the typed-record level."""
    doc: dict[str, Any] = {
        "match_id": record.match_id,
        "duration": record.duration_s,
        "start_time": record.start_time,
        "game_mode": record.game_mode,
        "lobby_type": record.lobby_type,
        "region": record.region,
        "patch": record.patch,
        "skill": record.skill,
        "radiant_win": record.radiant_win,
        "radiant_score": record.radiant_score,
        "dire_score": record.dire_score,
        "tower_status_radiant": record.tower_status_radiant,
        "tower_status_dire": record.tower_status_dire,
        "barracks_status_radiant": record.barracks_status_radiant,
        "barracks_status_dire": record.barracks_status_dire,
        "first_blood_time": record.first_blood_time,
        "human_players": record.human_players,
        "throw": record.throw,
        "comeback": record.comeback,
        "loss": record.loss,
        "win": record.win,
        "chat": [{
            "slot": m.sender_slot,
            "time": m.time_s,
            "type": _CHAT_TYPE_INV[m.kind],
            "channel": m.channel,
            "key": m.text_or_id,
        } for m in record.chat],
        "cosmetics": record.cosmetics,
        "players": [{
            "account_id": p.handle,
            "player_slot": p.slot,
            "hero_id": p.hero_id,
            "kills": p.kills,
            "deaths": p.deaths,
            "assists": p.assists,
            "denies": p.denies,
            "last_hits": p.last_hits,
            "isRadiant": p.is_radiant,
            "word_counts": p.word_counts,
        } for p in record.players],
        "objectives": record.objectives,
        "teamfights": record.teamfights,
        "picks_bans": record.picks_bans,
        "draft_timings": record.draft_timings,
        "radiant_gold_adv": record.gold_adv,
        "radiant_xp_adv": record.xp_adv,
        "all_word_counts": record.word_counts,
    }
    doc.update(record.extras)
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def parse_player(doc: dict, handle: int) -> PlayerRecord:
    """Build a PlayerRecord from the cached player document; a malformed
    document raises SchemaError with its JSON path."""
    doc = _typed(doc, dict, "$")
    profile = _typed(doc.get("profile") or {}, dict, "$.profile")
    seen: list[int] = []
    for i, entry in enumerate(_array(doc, "matches")):
        path = f"$.matches[{i}]"
        if "match_id" not in _typed(entry, dict, path):
            raise SchemaError("match entry lacks match_id", path=path)
        mid = _integer(entry["match_id"], f"{path}.match_id")
        if mid not in seen:
            seen.append(mid)
    rank_tier = profile.get("rank_tier")
    return PlayerRecord(
        handle=handle,
        rank_tier=None if rank_tier is None
        else _integer(rank_tier, "$.profile.rank_tier"),
        has_plus=bool(profile.get("plus", False)),
        match_ids=tuple(seen),
    )


# ---------------------------------------------------------------------------
# Disk cache helpers (shared with the synthetic generator)
# ---------------------------------------------------------------------------


def player_cache_path(cache_dir: str | Path, handle: int) -> Path:
    return Path(cache_dir) / "players" / f"{handle}.json"


def match_cache_path(cache_dir: str | Path, match_id: int) -> Path:
    return Path(cache_dir) / "matches" / f"{match_id}.json"


def atomic_write(path: Path, data: bytes) -> None:
    """Write-temp-then-rename so readers never see partial files. The
    directory is made only when the temp file cannot be opened for want of
    it, so a cache of thousands of files pays for one mkdir per directory."""
    tmp = f"{path}.tmp"
    try:
        fh = open(tmp, "wb")
    except FileNotFoundError:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        fh = open(tmp, "wb")
    with fh:
        fh.write(data)
    os.replace(tmp, path)


def load_cached_match(cache_dir: str | Path, match_id: int) -> MatchRecord:
    # A plain string path: featurize opens every match of the corpus, and a
    # Path per match costs more than reading the file.
    path = os.path.join(cache_dir, "matches", f"{match_id}.json")
    try:
        with open(path, "rb") as fh:
            payload = fh.read()
    except (FileNotFoundError, NotADirectoryError):
        raise NotFound(f"match {match_id} not in cache {cache_dir}") from None
    try:
        record = parse_match(payload)
    except SchemaError as exc:
        raise SchemaError(str(exc), path=str(Path(path))) from exc
    if record.match_id != match_id:
        raise _other_match(record, match_id, str(Path(path)))
    return record


def _other_match(record: MatchRecord, match_id: int, source: str) -> SchemaError:
    """The error for a document at `source`, read or fetched as match
    `match_id`, that holds another match."""
    return SchemaError(f"$.match_id: holds match {record.match_id}, "
                       f"expected {match_id}", path=source)


def _read_player_doc(path: Path) -> dict:
    """The cached player document at `path`; SchemaError naming the file
    when it is not a JSON object."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"not a JSON document: {exc}", path=str(path)) from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"expected an object, got {type(doc).__name__}",
                          path=str(path))
    return doc


def _parse_cached_player(doc: dict, handle: int, path: Path) -> PlayerRecord:
    """parse_player on a cached document; SchemaError names the file."""
    try:
        return parse_player(doc, handle)
    except SchemaError as exc:
        raise SchemaError(str(exc), path=str(path)) from exc


def load_cached_player(cache_dir: str | Path, handle: int) -> PlayerRecord:
    path = player_cache_path(cache_dir, handle)
    if not path.exists():
        raise NotFound(f"player {handle} not in cache {cache_dir}")
    return _parse_cached_player(_read_player_doc(path), handle, path)


def iter_cached_players(cache_dir: str | Path) -> list[int]:
    """Handles of the cached players; a `players/*.json` file whose name
    is not a handle raises SchemaError naming it."""
    root = Path(cache_dir) / "players"
    if not root.exists():
        return []
    handles = []
    for p in root.glob("*.json"):
        try:
            handles.append(int(p.stem))
        except ValueError:
            raise SchemaError(f"{p}: file name is not a player handle") from None
    return sorted(handles)


# ---------------------------------------------------------------------------
# Network client
# ---------------------------------------------------------------------------


class TokenBucket:
    """Token bucket; acquire() blocks until a token is available.

    A lock serializes concurrent callers, so one client behaves as a single
    logical session regardless of caller threading.
    """

    def __init__(self, rate_per_s: float, capacity: float = 1.0,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        self.rate = rate_per_s
        self.capacity = capacity
        self._clock = clock
        self._sleep = sleep
        self._tokens = capacity
        self._last = clock()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        with self._lock:
            now = self._clock()
            self._tokens = min(self.capacity,
                               self._tokens + (now - self._last) * self.rate)
            self._last = now
            if self._tokens < 1.0:
                wait = (1.0 - self._tokens) / self.rate
                self._sleep(wait)
                self._tokens = 1.0
                self._last = self._clock()
            self._tokens -= 1.0


@dataclass
class TransportResponse:
    status: int
    headers: dict
    body: bytes


def _requests_transport(url: str, params: dict) -> TransportResponse:
    import requests

    resp = requests.get(url, params=params, timeout=30)
    return TransportResponse(resp.status_code, dict(resp.headers), resp.content)


def _retry_after_s(value: str | None) -> float | None:
    """Seconds a Retry-After header asks for, as delay seconds or an
    HTTP-date (a past date gives 0); None when absent or unparseable."""
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        import datetime
        import email.utils

        try:
            when = email.utils.parsedate_to_datetime(value)
        except (TypeError, ValueError):
            return None
        # HTTP-dates are GMT; "-0000" parses to a naive datetime.
        seconds = when.replace(tzinfo=when.tzinfo or datetime.timezone.utc
                               ).timestamp() - time.time()
    return max(0.0, seconds) if math.isfinite(seconds) else None


class TelemetryClient:
    """Rate-limited HTTP client over the player/matches APIs with a disk cache.

    One logical session: concurrent callers are serialized by the limiter.
    A custom `transport` callable makes the client fully testable offline.
    """

    def __init__(self, cache_dir: str | Path, base_url: str = DEFAULT_BASE_URL,
                 rate_per_s: float = 1.0, offline: bool = False,
                 transport: Callable[[str, dict], TransportResponse] | None = None,
                 max_retries: int = 4, backoff_base_s: float = 1.0,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic):
        self.cache_dir = Path(cache_dir)
        self.base_url = base_url.rstrip("/")
        self.offline = offline
        self.transport = transport or _requests_transport
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self._sleep = sleep
        self._bucket = TokenBucket(rate_per_s, clock=clock, sleep=sleep)

    def _get(self, path: str, params: dict | None = None) -> bytes:
        url = f"{self.base_url}/{path.lstrip('/')}"
        params = params or {}
        last_retry_after: float | None = None
        for attempt in range(self.max_retries + 1):
            self._bucket.acquire()
            resp = self.transport(url, params)
            if resp.status == 200:
                return resp.body
            if resp.status == 404:
                raise NotFound(f"{path}: no public data")
            if resp.status == 429 or resp.status >= 500:
                retry_after = _retry_after_s(resp.headers.get("Retry-After"))
                if retry_after is not None:
                    last_retry_after = wait = retry_after
                else:
                    wait = self.backoff_base_s * (2 ** attempt)
                if attempt < self.max_retries:
                    self._sleep(wait)
                    continue
                raise RateLimited(f"{path}: gave up after {attempt + 1} attempts",
                                  retry_after=last_retry_after)
            raise SchemaError(f"unexpected HTTP status {resp.status}", path=path)
        raise RateLimited(f"{path}: retries exhausted", retry_after=last_retry_after)

    def fetch_player(self, handle: int, window_days: int = 30) -> PlayerRecord:
        """Player profile plus match ids within the trailing window."""
        if handle <= 0:
            raise SchemaError("handle must be a positive integer", path="$.handle")
        if window_days <= 0:
            raise SchemaError("window_days must be > 0", path="$.window_days")
        path = player_cache_path(self.cache_dir, handle)
        if path.exists():
            doc = _read_player_doc(path)
            if doc.get("window_days") == window_days:
                return _parse_cached_player(doc, handle, path)
        if self.offline:
            raise NotFound(f"player {handle} not cached and client is offline")
        profile_raw = self._get(f"players/{handle}")
        matches_raw = self._get(f"players/{handle}/matches", {"date": window_days})
        try:
            profile = json.loads(profile_raw)
            matches = json.loads(matches_raw)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"unparseable player payload: {exc}") from exc
        doc = {"window_days": window_days, "profile": profile, "matches": matches}
        record = parse_player(doc, handle)  # validate before caching
        atomic_write(path, json.dumps(doc, sort_keys=True).encode("utf-8"))
        return record

    def fetch_match(self, match_id: int) -> MatchRecord:
        """One fully parsed match; the raw payload lands in the cache bit-exact."""
        if match_id <= 0:
            raise SchemaError("match id must be > 0", path="$.match_id")
        path = match_cache_path(self.cache_dir, match_id)
        if path.exists():
            return load_cached_match(self.cache_dir, match_id)
        if self.offline:
            raise NotFound(f"match {match_id} not cached and client is offline")
        raw = self._get(f"matches/{match_id}")
        record = parse_match(raw)  # validate before caching
        if record.match_id != match_id:
            raise _other_match(record, match_id, f"matches/{match_id}")
        atomic_write(path, raw)
        return record


# ---------------------------------------------------------------------------
# Eligibility filters
# ---------------------------------------------------------------------------

# The fewest matches in the window that keep a player; the per-player
# features need as many usable matches.
MIN_MATCHES = 5


def filter_players(records, min_matches: int = MIN_MATCHES):
    """Drop ineligible players and account for every removal.

    `records` is a list of (PlayerRecord, AttributeLabels-or-None) pairs.
    Removal categories, applied in order per record: invalid labels, no
    public match data, fewer than `min_matches` matches in the window.
    """
    report = FilterReport()
    kept = []
    for record, labels in records:
        if labels is None:
            report.invalid_labels += 1
            continue
        if len(record.match_ids) == 0:
            report.not_visible += 1
            continue
        if len(record.match_ids) < min_matches:
            report.inactive += 1
            continue
        kept.append((record, labels))
    report.retained = len(kept)
    return kept, report
