"""Feature engineering over parsed telemetry.

Builds the three dataset shapes: the per-player aggregate table ("P"), the
per-match table ("M"), and the distilled per-match table ("M_bar") which
caps rows per player and appends the domain-knowledge columns (chat and
hero expertise) that the plain per-match table does not carry.

Every row of the three comes from one walk over each player's matches
(`_player_rows`): a match's slot entry is found once, by handle
(`_slot_of`), and the per-match extractors take that entry, not a slot
number.
"""

from __future__ import annotations

import functools
import hashlib
import json
import operator
import re
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .errors import InsufficientMatches, SchemaError
from .ingest import MIN_MATCHES, MatchPlayerSlot, MatchRecord, PlayerRecord
from .matrix import DISTILL_CAP, Column, FeatureMatrix, format_lines

LEXICON_CATEGORIES = ("laugh", "slang", "bad_behavior", "good_behavior", "provocative")
WHEEL_CATEGORIES = ("tactical", "laugh", "deny", "good_behavior")
DAY_NAMES = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")

# Fixed settings, hashed into every matrix's config hash.
EARLY_WINDOW_S = 90.0       # chat before this time counts as early-game
AFTER_KILL_WINDOW_S = 10.0  # chat this soon after the slot's kill counts
RANKED_LOBBY_CODES = (7,)

_TOKEN_RE = re.compile(r"[a-z0-9']+")
_QUESTION_ONLY_RE = re.compile(r"^\?+$")


# ---------------------------------------------------------------------------
# Static tables: lexicons, hero metadata, chat-wheel catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lexicon:
    category: str
    words: tuple[str, ...]

    def __post_init__(self):
        if not self.words:
            raise SchemaError(f"lexicon {self.category!r} is empty")
        if len(set(self.words)) != len(self.words):
            raise SchemaError(f"lexicon {self.category!r} has duplicate tokens")


def _data_path(*parts: str) -> Path:
    return Path(resources.files("aia").joinpath("data", *parts))  # type: ignore[arg-type]


def load_lexicons() -> list[Lexicon]:
    """One editable text file per category, one lowercase token per line."""
    out = []
    for category in LEXICON_CATEGORIES:
        path = _data_path("lexicons", f"{category}.txt")
        words = tuple(w.strip() for w in path.read_text(encoding="utf-8").splitlines()
                      if w.strip())
        out.append(Lexicon(category, words))
    return out


def load_hero_table() -> dict[int, dict]:
    doc = json.loads(_data_path("heroes.json").read_text(encoding="utf-8"))
    return {int(k): v for k, v in doc["heroes"].items()}


def load_wheel_catalog() -> dict[str, str]:
    doc = json.loads(_data_path("wheel_catalog.json").read_text(encoding="utf-8"))
    return dict(doc["wheels"])


def hero_gender(hero_table: dict[int, dict], hero_id: int) -> str:
    return hero_table.get(hero_id, {}).get("gender", "unknown")


def hero_attr(hero_table: dict[int, dict], hero_id: int) -> str:
    return hero_table.get(hero_id, {}).get("attr", "unknown")


@dataclass
class FeatureContext:
    lexicons: list[Lexicon]
    hero_table: dict[int, dict]
    wheel_catalog: dict[str, str]

    @classmethod
    def default(cls) -> "FeatureContext":
        return cls(load_lexicons(), load_hero_table(), load_wheel_catalog())

    @functools.cached_property
    def token_categories(self) -> dict[str, tuple[str, ...]]:
        """token -> the lexicon categories that list it (a later lexicon of the
        same category replaces an earlier one). Callers must not modify it."""
        by_category = {lx.category: lx.words for lx in self.lexicons}
        lookup: dict[str, tuple[str, ...]] = {}
        for cat, words in by_category.items():
            for word in set(words):
                lookup[word] = lookup.get(word, ()) + (cat,)
        return lookup

    def config_hash(self) -> str:
        blob = json.dumps({
            "early_window_s": EARLY_WINDOW_S,
            "after_kill_window_s": AFTER_KILL_WINDOW_S,
            "ranked_lobby_codes": list(RANKED_LOBBY_CODES),
            "distill_cap": DISTILL_CAP,
            "lexicons": {lx.category: list(lx.words) for lx in self.lexicons},
            "wheels": self.wheel_catalog,
            "heroes": {str(k): v for k, v in sorted(self.hero_table.items())},
        }, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Chat features (domain expertise)
# ---------------------------------------------------------------------------


# The chat columns, in emission order: extract_chat_features returns their
# values in this order.
CHAT_FEATURE_NAMES: tuple[str, ...] = (
    *(f"chat_{cat}_count" for cat in LEXICON_CATEGORIES),
    "chat_question_only_msgs",
    "chat_question_marks",
    "chat_exclamation_marks",
    "chat_capital_letters",
    "chat_early_game_msgs",
    "chat_after_kill_msgs",
    *(f"wheel_{channel}_{cat}" for channel in ("global", "team")
      for cat in WHEEL_CATEGORIES),
    "wheel_global_msgs",
    "wheel_team_msgs",
    "chat_sound_count",
    "chat_spray_count",
)

_WHEEL_KINDS = ("chatwheel_general", "chatwheel_hero")


def extract_chat_features(match: MatchRecord, entry: MatchPlayerSlot,
                          ctx: FeatureContext) -> list[float]:
    """Chat-derived counts for one slot of one match, as floats in
    CHAT_FEATURE_NAMES order; `entry` is the slot's entry in the match.

    Lexicon categories count token occurrences (case-insensitive) over the
    slot's typed global messages. A message whose trimmed text is only '?'
    characters counts as question-only. After-kill messages fall within the
    window right after a kill objective involving the slot.
    """
    slot = entry.slot
    categories = ctx.token_categories
    wheel_catalog = ctx.wheel_catalog
    kills = sorted(t for who, t in match.kill_events if who == slot)

    category_counts = {cat: 0 for cat in LEXICON_CATEGORIES}
    question_only = 0
    qmarks = 0
    emarks = 0
    capitals = 0
    early = 0
    after_kill = 0
    wheel_counts = {(ch, cat): 0 for ch in ("global", "team") for cat in WHEEL_CATEGORIES}
    wheel_global = 0
    wheel_team = 0
    sounds = 0
    sprays = 0
    for sender, time_s, kind, channel, text in match.chat:
        if sender != slot:
            continue
        if kind == "typed_text":
            for token in _TOKEN_RE.findall(text.lower()):
                for cat in categories.get(token, ()):
                    category_counts[cat] += 1
            marks = text.count("?")
            if marks and _QUESTION_ONLY_RE.match(text.strip()):
                question_only += 1
            qmarks += marks
            emarks += text.count("!")
            if not text.islower():  # all-lowercase text has no capital
                capitals += sum(map(str.isupper, text))
            if time_s < EARLY_WINDOW_S:
                early += 1
            for kt in kills:
                if 0.0 <= time_s - kt <= AFTER_KILL_WINDOW_S:
                    after_kill += 1
                    break
        elif kind in _WHEEL_KINDS:
            if channel == "global":
                wheel_global += 1
            else:
                wheel_team += 1
            cat = wheel_catalog.get(text)
            if cat in WHEEL_CATEGORIES:
                wheel_counts[(channel, cat)] += 1
        elif kind == "sound":
            sounds += 1
        elif kind == "spray":
            sprays += 1

    return ([float(category_counts[cat]) for cat in LEXICON_CATEGORIES]
            + [float(question_only), float(qmarks), float(emarks), float(capitals),
               float(early), float(after_kill)]
            + [float(n) for n in wheel_counts.values()]
            + [float(wheel_global), float(wheel_team), float(sounds), float(sprays)])


# ---------------------------------------------------------------------------
# Per-match rows
# ---------------------------------------------------------------------------

# (name, kind) in emission order. The naive set is what a one-match attacker
# gets without game knowledge; the expert set is appended when distilling.
NAIVE_MATCH_SCHEMA: tuple[tuple[str, str], ...] = (
    ("won", "boolean"),
    ("duration_s", "numeric"),
    ("kills", "numeric"),
    ("deaths", "numeric"),
    ("assists", "numeric"),
    ("denies", "numeric"),
    ("last_hits", "numeric"),
    ("kda", "numeric"),
    ("kill_participation", "numeric"),
    ("team_score", "numeric"),
    ("enemy_score", "numeric"),
    ("kills_per_min", "numeric"),
    ("deaths_per_min", "numeric"),
    ("assists_per_min", "numeric"),
    ("denies_per_min", "numeric"),
    ("last_hits_per_min", "numeric"),
    ("first_blood_time", "numeric"),
    ("comeback", "numeric"),
    ("throw", "numeric"),
    ("loss", "numeric"),
    ("win", "numeric"),
    ("human_players", "numeric"),
    ("start_hour", "numeric"),
    ("my_word_total", "numeric"),
    ("all_word_total", "numeric"),
    ("cosmetics_price", "numeric"),
    ("game_mode", "categorical"),
    ("lobby_type", "categorical"),
    ("region", "categorical"),
    ("patch", "categorical"),
    ("skill", "categorical"),
    ("day_of_week", "categorical"),
)

EXPERT_MATCH_SCHEMA: tuple[tuple[str, str], ...] = tuple(
    [(name, "numeric") for name in CHAT_FEATURE_NAMES]
    + [
        ("chat_msgs", "numeric"),
        ("chat_rank_in_match", "numeric"),
        ("hero_msg_count", "numeric"),
        ("hero_gender", "categorical"),
        ("hero_attr", "categorical"),
    ]
)


# Every per-match column, in the order of a build_match_features row, and
# the position of each in that row.
MATCH_SCHEMA = NAIVE_MATCH_SCHEMA + EXPERT_MATCH_SCHEMA
_AT = {name: i for i, (name, _) in enumerate(MATCH_SCHEMA)}


def variant_columns(variant: str) -> list[Column]:
    """The columns of a "P", "M" or "M_bar" matrix."""
    if variant == "P":
        return player_columns()
    return [Column(n, k) for n, k in
            (NAIVE_MATCH_SCHEMA if variant == "M" else MATCH_SCHEMA)]


def _naive_values(match: MatchRecord, player: MatchPlayerSlot) -> list:
    """The naive values of one slot's row, in NAIVE_MATCH_SCHEMA order."""
    slot = player.slot
    kills, deaths, assists = player.kills, player.deaths, player.assists
    if player.is_radiant:
        team_score, enemy_score = match.radiant_score, match.dire_score
    else:
        team_score, enemy_score = match.dire_score, match.radiant_score
    minutes = max(match.duration_s / 60.0, 1.0)
    tm = time.gmtime(match.start_time)
    return [
        match.radiant_win == player.is_radiant,
        float(match.duration_s),
        float(kills),
        float(deaths),
        float(assists),
        float(player.denies),
        float(player.last_hits),
        (kills + assists) / max(deaths, 1),
        (kills + assists) / max(team_score, 1),
        float(team_score),
        float(enemy_score),
        kills / minutes,
        deaths / minutes,
        assists / minutes,
        player.denies / minutes,
        player.last_hits / minutes,
        float(match.first_blood_time),
        float(match.comeback or 0.0),
        float(match.throw or 0.0),
        float(match.loss or 0.0),
        float(match.win or 0.0),
        float(match.human_players),
        float(tm.tm_hour),
        float(sum(player.word_counts.values())),
        float(sum(match.word_counts.values())),
        float(sum(c["price"] for c in match.cosmetics if c["owner_slot"] == slot)),
        str(match.game_mode),
        str(match.lobby_type),
        str(match.region),
        str(match.patch),
        str(match.skill) if match.skill is not None else "unknown",
        DAY_NAMES[tm.tm_wday],
    ]


def build_match_features(match: MatchRecord, entry: MatchPlayerSlot,
                         ctx: FeatureContext) -> list:
    """Full per-match feature row for one slot, given its entry in the
    match: its naive then its expert values, in MATCH_SCHEMA order."""
    slot = entry.slot
    values = _naive_values(match, entry) + extract_chat_features(match, entry, ctx)
    counts = match.message_counts
    typed = counts.get("typed_text", {})
    # Average rank among the match's slots, rank 1 = most talkative: the
    # slots that typed more come first, ties share the mean position.
    mine = typed.get(slot, 0)
    more = tied = 0
    for other in match.players:
        n = typed.get(other.slot, 0)
        if n > mine:
            more += 1
        elif n == mine:
            tied += 1
    values += [
        float(mine),
        (more + more + tied - 1) / 2.0 + 1.0,
        float(counts.get("chatwheel_hero", {}).get(slot, 0)),
        hero_gender(ctx.hero_table, entry.hero_id),
        hero_attr(ctx.hero_table, entry.hero_id),
    ]
    return values


def _slot_of(match: MatchRecord, handle: int) -> Optional[MatchPlayerSlot]:
    """The handle's slot entry in the match, or None when it did not play."""
    for p in match.players:
        if p.handle == handle:
            return p
    return None


def _player_rows(player: PlayerRecord, matches: dict[int, MatchRecord],
                 ctx: FeatureContext, expert: bool) -> Iterator[tuple]:
    """(match id, match, entry, row) for each of the player's matches, in
    ascending id order, that `matches` holds and that has the player in a
    slot: `entry` is the player's slot entry, found once, and `row` its
    `build_match_features` row, or only its naive values when `expert` is
    false. Every P, M and M_bar row is built from this walk."""
    for mid in sorted(player.match_ids):
        match = matches.get(mid)
        entry = None if match is None else _slot_of(match, player.handle)
        if entry is not None:
            yield mid, match, entry, (build_match_features(match, entry, ctx)
                                      if expert else _naive_values(match, entry))


def _variant_rows(variant: str, players: Sequence[PlayerRecord],
                  matches: dict[int, MatchRecord], ctx: FeatureContext
                  ) -> tuple[list[int], Optional[list[int]], list[list]]:
    """The owners, match ids (None for "P") and rows these players give the
    "P", "M" or "M_bar" matrix, sorted by (owner, match id) whatever order
    the players and matches come in. The "M_bar" rows are every row of M
    with its expert values appended, before `distill_picks` caps them."""
    columns = variant_columns(variant)
    owners: list[int] = []
    match_ids: list[int] = []
    rows: list[list] = []
    for player in sorted(players, key=lambda p: p.handle):
        walk = _player_rows(player, matches, ctx, expert=variant != "M")
        if variant == "P":
            values = _player_values(player, list(walk), ctx)
            rows.append([values[c.name] for c in columns])
            owners.append(player.handle)
            continue
        for mid, _, _, row in walk:
            owners.append(player.handle)
            match_ids.append(mid)
            rows.append(row)
    return owners, None if variant == "P" else match_ids, rows


def build_match_matrix(players: Sequence[PlayerRecord],
                       matches: dict[int, MatchRecord],
                       ctx: FeatureContext) -> tuple[FeatureMatrix, list[list]]:
    """Per-match matrix M (naive columns), its rows sorted by (owner, match
    id), and the expert values of each of its rows, in EXPERT_MATCH_SCHEMA
    order, for `build_distilled` to append."""
    owners, match_ids, rows = _variant_rows("M_bar", players, matches, ctx)
    n = len(NAIVE_MATCH_SCHEMA)
    m = FeatureMatrix(variant="M", columns=variant_columns("M"),
                      rows=[row[:n] for row in rows], row_owner=owners,
                      row_match=match_ids, config_hash=ctx.config_hash())
    return m, [row[n:] for row in rows]


def distill_picks(row_owner: Sequence[int], n_variants: int,
                  seed: int) -> list[list[int]]:
    """The positions of the rows each distilled variant keeps of rows owned
    as `row_owner` says: ascending per owner, owners in first-appearance
    order.

    Each variant samples DISTILL_CAP rows per player uniformly without
    replacement (all rows when a player is under the cap); variants differ
    only by their sampling seed.
    """
    import numpy as np

    owner_rows: dict[int, list[int]] = {}
    for i, owner in enumerate(row_owner):
        owner_rows.setdefault(owner, []).append(i)
    out = []
    for v in range(n_variants):
        rng = np.random.default_rng(np.random.SeedSequence([seed, v]))
        picked: list[int] = []
        for idx in owner_rows.values():
            if len(idx) > DISTILL_CAP:
                chosen = rng.choice(len(idx), size=DISTILL_CAP, replace=False)
                idx = [idx[i] for i in sorted(chosen)]
            picked.extend(idx)
        out.append(picked)
    return out


def build_distilled(m: FeatureMatrix, expert_rows: Sequence[list],
                    n_variants: int = 20, seed: int = 0) -> list[FeatureMatrix]:
    """Distilled per-match variants: the rows `distill_picks` keeps of M,
    with the expert values of row i of M (`expert_rows[i]`) appended to it."""
    if m.variant != "M":
        raise SchemaError(f"build_distilled expects variant M, got {m.variant}")
    if len(expert_rows) != m.n_rows:
        raise SchemaError(f"build_distilled got {len(expert_rows)} expert rows "
                          f"for the {m.n_rows} rows of M")
    columns = list(m.columns) + [Column(n, k) for n, k in EXPERT_MATCH_SCHEMA]
    return [FeatureMatrix(
        variant="M_bar",
        columns=columns,
        rows=[[*m.rows[i], *expert_rows[i]] for i in picked],
        row_owner=[m.row_owner[i] for i in picked],
        row_match=[m.row_match[i] for i in picked],
        variant_seed=v,
        config_hash=m.config_hash,
    ) for v, picked in enumerate(distill_picks(m.row_owner, n_variants, seed))]


def build_shard_lines(variant: str, players: Sequence[PlayerRecord],
                      matches: dict[int, MatchRecord],
                      ctx: FeatureContext) -> tuple[list[int], list[str]]:
    """The owner and finished CSV line (`matrix.format_lines`) of each row
    `_variant_rows` gives, in row order."""
    owners, match_ids, rows = _variant_rows(variant, players, matches, ctx)
    return owners, format_lines(variant_columns(variant), rows, owners, match_ids)


# ---------------------------------------------------------------------------
# Per-player rows
# ---------------------------------------------------------------------------

_ALL_MATCH_NUMERIC = tuple(n for n, k in MATCH_SCHEMA if k == "numeric")
_numeric_values = operator.itemgetter(*(_AT[n] for n in _ALL_MATCH_NUMERIC))


def player_columns() -> list[Column]:
    cols = [
        Column("matches_count", "numeric"),
        Column("win_rate", "numeric"),
        Column("ranked_win_rate", "numeric"),
        Column("normal_win_rate", "numeric"),
    ]
    for name in _ALL_MATCH_NUMERIC:
        cols.append(Column(f"mean_{name}", "numeric"))
        cols.append(Column(f"std_{name}", "numeric"))
    cols += [Column(f"day_frac_{d}", "numeric") for d in DAY_NAMES]
    cols += [Column(f"hour_frac_{h:02d}", "numeric") for h in range(24)]
    cols += [
        Column("total_cosmetics_price", "numeric"),
        Column("rank_tier", "numeric"),
        Column("has_plus", "boolean"),
        Column("chat_msgs_per_match", "numeric"),
        Column("ratio_chat_msg", "numeric"),
        Column("chat_rank_mean", "numeric"),
        Column("hero_pool_size", "numeric"),
        Column("top_hero_share", "numeric"),
        Column("hero_gender_ratio", "numeric"),
        Column("most_played_hero_gender", "categorical"),
        Column("most_played_hero_attr", "categorical"),
    ]
    return cols


def _player_values(player: PlayerRecord, usable: list[tuple],
                   ctx: FeatureContext) -> dict[str, object]:
    """The per-player feature row of the `_player_rows` items of one player."""
    import numpy as np

    if len(usable) < MIN_MATCHES:
        raise InsufficientMatches(f"player {player.handle} has {len(usable)} "
                                  f"usable matches, need {MIN_MATCHES}")
    n = len(usable)
    rows = [row for _, _, _, row in usable]

    out: dict[str, object] = {"matches_count": float(n)}
    won, lobby = _AT["won"], _AT["lobby_type"]
    wins = [1.0 if r[won] else 0.0 for r in rows]
    ranked_codes = {str(c) for c in RANKED_LOBBY_CODES}
    ranked = [w for r, w in zip(rows, wins) if r[lobby] in ranked_codes]
    normal = [w for r, w in zip(rows, wins) if r[lobby] not in ranked_codes]
    out["win_rate"] = sum(wins) / n
    out["ranked_win_rate"] = sum(ranked) / max(len(ranked), 1)
    out["normal_win_rate"] = sum(normal) / max(len(normal), 1)

    # One contiguous row per column: mean/std along it sum pairwise, exactly
    # as the same calls on each column alone do.
    block = np.array(list(map(_numeric_values, rows)), dtype=float).T.copy()
    for name, mean, std in zip(_ALL_MATCH_NUMERIC, block.mean(axis=1).tolist(),
                               block.std(axis=1).tolist()):
        out[f"mean_{name}"] = mean
        out[f"std_{name}"] = std

    day_counts = {d: 0 for d in DAY_NAMES}
    hour_counts = {h: 0 for h in range(24)}
    day, hour = _AT["day_of_week"], _AT["start_hour"]
    for r in rows:
        day_counts[r[day]] += 1
        hour_counts[int(r[hour])] += 1
    for d in DAY_NAMES:
        out[f"day_frac_{d}"] = day_counts[d] / n
    for h in range(24):
        out[f"hour_frac_{h:02d}"] = hour_counts[h] / n

    price = _AT["cosmetics_price"]
    out["total_cosmetics_price"] = float(sum(r[price] for r in rows))
    out["rank_tier"] = float(player.rank_tier) if player.rank_tier is not None else -1.0
    out["has_plus"] = bool(player.has_plus)

    # Typed messages per match come from the counts its row was built from.
    chat_msgs = _AT["chat_msgs"]
    my_msgs = sum(r[chat_msgs] for r in rows)
    all_msgs = 0.0
    for _, match, _, _ in usable:
        all_msgs += sum(match.message_counts.get("typed_text", {}).values())
    out["chat_msgs_per_match"] = my_msgs / n
    out["ratio_chat_msg"] = my_msgs / max(all_msgs, 1.0)
    rank = _AT["chat_rank_in_match"]
    out["chat_rank_mean"] = sum(r[rank] for r in rows) / n

    hero_counts: dict[int, int] = {}
    gender = _AT["hero_gender"]
    female = 0
    for _, _, entry, r in usable:
        hid = entry.hero_id
        hero_counts[hid] = hero_counts.get(hid, 0) + 1
        if r[gender] == "female":
            female += 1
    top_count = max(hero_counts.values())
    top_hero = min(h for h, c in hero_counts.items() if c == top_count)
    out["hero_pool_size"] = float(len(hero_counts))
    out["top_hero_share"] = top_count / n
    out["hero_gender_ratio"] = female / n
    out["most_played_hero_gender"] = hero_gender(ctx.hero_table, top_hero)
    out["most_played_hero_attr"] = hero_attr(ctx.hero_table, top_hero)
    return out


def build_player_features(player: PlayerRecord, matches: Sequence[MatchRecord],
                          ctx: FeatureContext) -> dict[str, object]:
    """Aggregate one player's matches into the per-player feature row: the
    matches of `matches` that the player's record lists and that have the
    player in a slot, in ascending id order."""
    by_id = {match.match_id: match for match in matches}
    return _player_values(player, list(_player_rows(player, by_id, ctx, True)), ctx)


def build_player_matrix(players: Sequence[PlayerRecord],
                        matches: dict[int, MatchRecord],
                        ctx: FeatureContext) -> FeatureMatrix:
    owners, _, rows = _variant_rows("P", players, matches, ctx)
    return FeatureMatrix(variant="P", columns=variant_columns("P"), rows=rows,
                         row_owner=owners, config_hash=ctx.config_hash())
