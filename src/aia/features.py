"""Feature engineering over parsed telemetry.

Builds the three dataset shapes: the per-player aggregate table ("P"), the
per-match table ("M"), and the distilled per-match table ("M_bar") which
caps rows per player and appends the domain-knowledge columns (chat and
hero expertise) that the plain per-match table does not carry.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import InsufficientMatches, SchemaError
from .ingest import MatchRecord, PlayerRecord
from .matrix import DISTILL_CAP, Column, FeatureMatrix

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


@dataclass
class ChatFeatures:
    category_counts: dict[str, int]            # lexicon category -> occurrences
    question_only_msgs: int
    question_marks: int
    exclamation_marks: int
    capital_letters: int
    early_game_msgs: int
    after_kill_msgs: int
    wheel_counts: dict[tuple[str, str], int]   # (channel, category) -> count
    wheel_global_msgs: int
    wheel_team_msgs: int
    sound_count: int
    spray_count: int

    def as_feature_dict(self) -> dict[str, float]:
        out = {f"chat_{cat}_count": float(self.category_counts[cat])
               for cat in LEXICON_CATEGORIES}
        out.update({
            "chat_question_only_msgs": float(self.question_only_msgs),
            "chat_question_marks": float(self.question_marks),
            "chat_exclamation_marks": float(self.exclamation_marks),
            "chat_capital_letters": float(self.capital_letters),
            "chat_early_game_msgs": float(self.early_game_msgs),
            "chat_after_kill_msgs": float(self.after_kill_msgs),
        })
        for channel in ("global", "team"):
            for cat in WHEEL_CATEGORIES:
                out[f"wheel_{channel}_{cat}"] = float(self.wheel_counts[(channel, cat)])
        out["wheel_global_msgs"] = float(self.wheel_global_msgs)
        out["wheel_team_msgs"] = float(self.wheel_team_msgs)
        out["chat_sound_count"] = float(self.sound_count)
        out["chat_spray_count"] = float(self.spray_count)
        return out


_WHEEL_KINDS = ("chatwheel_general", "chatwheel_hero")


@functools.lru_cache(maxsize=8)
def _token_categories(lexicons: tuple[Lexicon, ...]) -> dict[str, tuple[str, ...]]:
    """token -> the lexicon categories that list it (a later lexicon of the
    same category replaces an earlier one). Callers must not modify it."""
    by_category = {lx.category: lx.words for lx in lexicons}
    lookup: dict[str, tuple[str, ...]] = {}
    for cat, words in by_category.items():
        for word in set(words):
            lookup[word] = lookup.get(word, ()) + (cat,)
    return lookup


def extract_chat_features(match: MatchRecord, slot: int, lexicons: Sequence[Lexicon],
                          early_window_s: float = EARLY_WINDOW_S,
                          after_kill_window_s: float = AFTER_KILL_WINDOW_S,
                          wheel_catalog: dict[str, str] | None = None) -> ChatFeatures:
    """Chat-derived counts for one slot of one match.

    Lexicon categories count token occurrences (case-insensitive) over the
    slot's typed global messages. A message whose trimmed text is only '?'
    characters counts as question-only. After-kill messages fall within the
    window right after a kill objective involving the slot.
    """
    match.slot_record(slot)  # raises SlotNotFound for an absent slot
    wheel_catalog = wheel_catalog or {}
    categories = _token_categories(tuple(lexicons))
    kills = sorted(t for who, t in match.kill_events() if who == slot)

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
    for msg in match.chat:
        if msg.sender_slot != slot:
            continue
        kind = msg.kind
        if kind == "typed_text":
            text = msg.text_or_id
            for token in _TOKEN_RE.findall(text.lower()):
                for cat in categories.get(token, ()):
                    category_counts[cat] += 1
            if _QUESTION_ONLY_RE.match(text.strip()):
                question_only += 1
            qmarks += text.count("?")
            emarks += text.count("!")
            capitals += sum(map(str.isupper, text))
            if msg.time_s < early_window_s:
                early += 1
            if any(0.0 <= msg.time_s - kt <= after_kill_window_s for kt in kills):
                after_kill += 1
        elif kind in _WHEEL_KINDS:
            if msg.channel == "global":
                wheel_global += 1
            else:
                wheel_team += 1
            cat = wheel_catalog.get(msg.text_or_id)
            if cat in WHEEL_CATEGORIES:
                wheel_counts[(msg.channel, cat)] += 1
        elif kind == "sound":
            sounds += 1
        elif kind == "spray":
            sprays += 1

    return ChatFeatures(
        category_counts=category_counts,
        question_only_msgs=question_only,
        question_marks=qmarks,
        exclamation_marks=emarks,
        capital_letters=capitals,
        early_game_msgs=early,
        after_kill_msgs=after_kill,
        wheel_counts=wheel_counts,
        wheel_global_msgs=wheel_global,
        wheel_team_msgs=wheel_team,
        sound_count=sounds,
        spray_count=sprays,
    )


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

_CHAT_FEATURE_NAMES: tuple[str, ...] = tuple(ChatFeatures(
    category_counts={c: 0 for c in LEXICON_CATEGORIES},
    question_only_msgs=0, question_marks=0, exclamation_marks=0,
    capital_letters=0, early_game_msgs=0, after_kill_msgs=0,
    wheel_counts={(ch, c): 0 for ch in ("global", "team") for c in WHEEL_CATEGORIES},
    wheel_global_msgs=0, wheel_team_msgs=0, sound_count=0, spray_count=0,
).as_feature_dict())

EXPERT_MATCH_SCHEMA: tuple[tuple[str, str], ...] = tuple(
    [(name, "numeric") for name in _CHAT_FEATURE_NAMES]
    + [
        ("chat_msgs", "numeric"),
        ("chat_rank_in_match", "numeric"),
        ("hero_msg_count", "numeric"),
        ("hero_gender", "categorical"),
        ("hero_attr", "categorical"),
    ]
)


def naive_match_columns() -> list[Column]:
    return [Column(n, k) for n, k in NAIVE_MATCH_SCHEMA]


def expert_match_columns() -> list[Column]:
    return [Column(n, k) for n, k in EXPERT_MATCH_SCHEMA]


def _per_min(value: float, duration_s: float) -> float:
    return value / max(duration_s / 60.0, 1.0)


def build_match_features(match: MatchRecord, slot: int,
                         ctx: FeatureContext) -> dict[str, object]:
    """Full per-match feature row (naive and expert values) for one slot."""
    player = match.slot_record(slot)
    team_score = match.radiant_score if player.is_radiant else match.dire_score
    enemy_score = match.dire_score if player.is_radiant else match.radiant_score
    tm = time.gmtime(match.start_time)

    row: dict[str, object] = {
        "won": match.radiant_win == player.is_radiant,
        "duration_s": float(match.duration_s),
        "kills": float(player.kills),
        "deaths": float(player.deaths),
        "assists": float(player.assists),
        "denies": float(player.denies),
        "last_hits": float(player.last_hits),
        "kda": (player.kills + player.assists) / max(player.deaths, 1),
        "kill_participation": (player.kills + player.assists) / max(team_score, 1),
        "team_score": float(team_score),
        "enemy_score": float(enemy_score),
        "kills_per_min": _per_min(player.kills, match.duration_s),
        "deaths_per_min": _per_min(player.deaths, match.duration_s),
        "assists_per_min": _per_min(player.assists, match.duration_s),
        "denies_per_min": _per_min(player.denies, match.duration_s),
        "last_hits_per_min": _per_min(player.last_hits, match.duration_s),
        "first_blood_time": float(match.first_blood_time),
        "comeback": float(match.comeback or 0.0),
        "throw": float(match.throw or 0.0),
        "loss": float(match.loss or 0.0),
        "win": float(match.win or 0.0),
        "human_players": float(match.human_players),
        "start_hour": float(tm.tm_hour),
        "my_word_total": float(sum(player.word_counts.values())),
        "all_word_total": float(sum(match.word_counts.values())),
        "cosmetics_price": float(sum(c["price"] for c in match.cosmetics
                                     if c["owner_slot"] == slot)),
        "game_mode": str(match.game_mode),
        "lobby_type": str(match.lobby_type),
        "region": str(match.region),
        "patch": str(match.patch),
        "skill": str(match.skill) if match.skill is not None else "unknown",
        "day_of_week": DAY_NAMES[tm.tm_wday],
    }

    chat = extract_chat_features(match, slot, ctx.lexicons,
                                 wheel_catalog=ctx.wheel_catalog)
    row.update(chat.as_feature_dict())

    typed_by_slot = {p.slot: 0 for p in match.players}
    hero_msgs = 0
    for msg in match.chat:
        if msg.kind == "typed_text":
            if msg.sender_slot in typed_by_slot:
                typed_by_slot[msg.sender_slot] += 1
        elif msg.kind == "chatwheel_hero" and msg.sender_slot == slot:
            hero_msgs += 1
    # Average rank among the match's slots, rank 1 = most talkative: the
    # slots that typed more come first, ties share the mean position.
    mine = typed_by_slot[slot]
    more = sum(1 for c in typed_by_slot.values() if c > mine)
    tied = sum(1 for c in typed_by_slot.values() if c == mine)
    row["chat_msgs"] = float(mine)
    row["chat_rank_in_match"] = (more + more + tied - 1) / 2.0 + 1.0
    row["hero_msg_count"] = float(hero_msgs)
    row["hero_gender"] = hero_gender(ctx.hero_table, player.hero_id)
    row["hero_attr"] = hero_attr(ctx.hero_table, player.hero_id)
    return row


@dataclass
class AugmentationTable:
    """Expert column values keyed by (owner, match_id), aligned with M."""

    columns: list[Column]
    values: dict[tuple[int, int], list]


def _find_slot(match: MatchRecord, handle: int) -> Optional[int]:
    for p in match.players:
        if p.handle == handle:
            return p.slot
    return None


def build_match_matrix(players: Sequence[PlayerRecord],
                       matches: dict[int, MatchRecord],
                       ctx: FeatureContext) -> tuple[FeatureMatrix, AugmentationTable]:
    """Per-match matrix (naive columns) plus the aligned expert-column table.

    Rows are emitted sorted by (owner, match id), whatever order the
    players and matches come in, so a rebuild agrees byte for byte.
    """
    naive_cols = naive_match_columns()
    expert_cols = expert_match_columns()
    rows: list[list] = []
    owners: list[int] = []
    match_ids: list[int] = []
    aug_values: dict[tuple[int, int], list] = {}
    for player in sorted(players, key=lambda p: p.handle):
        for mid in sorted(player.match_ids):
            match = matches.get(mid)
            if match is None:
                continue
            slot = _find_slot(match, player.handle)
            if slot is None:
                continue
            full = build_match_features(match, slot, ctx)
            rows.append([full[c.name] for c in naive_cols])
            owners.append(player.handle)
            match_ids.append(mid)
            aug_values[(player.handle, mid)] = [full[c.name] for c in expert_cols]
    m = FeatureMatrix(variant="M", columns=naive_cols, rows=rows,
                      row_owner=owners, row_match=match_ids,
                      config_hash=ctx.config_hash())
    return m, AugmentationTable(columns=expert_cols, values=aug_values)


def build_distilled(m: FeatureMatrix, augmentation: AugmentationTable,
                    max_per_player: int = DISTILL_CAP, n_variants: int = 20,
                    seed: int = 0) -> list[FeatureMatrix]:
    """Distilled per-match variants: capped rows per owner, expert columns added.

    Each variant samples uniformly without replacement (all rows when a
    player is under the cap); variants differ only by their sampling seed.
    """
    if m.variant != "M":
        raise SchemaError(f"build_distilled expects variant M, got {m.variant}")
    out = []
    for v in range(n_variants):
        rng = np.random.default_rng(np.random.SeedSequence([seed, v]))
        picked: list[int] = []
        for idx in m.owner_rows.values():
            if len(idx) > max_per_player:
                chosen = rng.choice(len(idx), size=max_per_player, replace=False)
                idx = [idx[i] for i in sorted(chosen)]
            picked.extend(idx)
        rows = []
        for i in picked:
            key = (m.row_owner[i], m.row_match[i])
            rows.append(list(m.rows[i]) + list(augmentation.values[key]))
        out.append(FeatureMatrix(
            variant="M_bar",
            columns=list(m.columns) + list(augmentation.columns),
            rows=rows,
            row_owner=[m.row_owner[i] for i in picked],
            row_match=[m.row_match[i] for i in picked],
            variant_seed=v,
            config_hash=m.config_hash,
        ))
    return out


# ---------------------------------------------------------------------------
# Per-player rows
# ---------------------------------------------------------------------------

_ALL_MATCH_NUMERIC = tuple(n for n, k in NAIVE_MATCH_SCHEMA + EXPERT_MATCH_SCHEMA
                           if k == "numeric")


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


def build_player_features(player: PlayerRecord, matches: Sequence[MatchRecord],
                          ctx: FeatureContext) -> dict[str, object]:
    """Aggregate one player's matches into the per-player feature row."""
    usable: list[tuple[MatchRecord, int, dict]] = []
    for match in matches:
        slot = _find_slot(match, player.handle)
        if slot is not None:
            usable.append((match, slot, build_match_features(match, slot, ctx)))
    if len(usable) < 5:
        raise InsufficientMatches(
            f"player {player.handle} has {len(usable)} usable matches, need 5")
    n = len(usable)
    rows = [full for _, _, full in usable]

    out: dict[str, object] = {"matches_count": float(n)}
    wins = [1.0 if r["won"] else 0.0 for r in rows]
    ranked_codes = {str(c) for c in RANKED_LOBBY_CODES}
    ranked = [w for r, w in zip(rows, wins) if r["lobby_type"] in ranked_codes]
    normal = [w for r, w in zip(rows, wins) if r["lobby_type"] not in ranked_codes]
    out["win_rate"] = sum(wins) / n
    out["ranked_win_rate"] = sum(ranked) / max(len(ranked), 1)
    out["normal_win_rate"] = sum(normal) / max(len(normal), 1)

    # One contiguous row per column: mean/std along it sum pairwise, exactly
    # as the same calls on each column alone do.
    block = np.array([[r[name] for r in rows] for name in _ALL_MATCH_NUMERIC],
                     dtype=float)
    for name, mean, std in zip(_ALL_MATCH_NUMERIC, block.mean(axis=1).tolist(),
                               block.std(axis=1).tolist()):
        out[f"mean_{name}"] = mean
        out[f"std_{name}"] = std

    day_counts = {d: 0 for d in DAY_NAMES}
    hour_counts = {h: 0 for h in range(24)}
    for r in rows:
        day_counts[r["day_of_week"]] += 1
        hour_counts[int(r["start_hour"])] += 1
    for d in DAY_NAMES:
        out[f"day_frac_{d}"] = day_counts[d] / n
    for h in range(24):
        out[f"hour_frac_{h:02d}"] = hour_counts[h] / n

    out["total_cosmetics_price"] = float(sum(r["cosmetics_price"] for r in rows))
    out["rank_tier"] = float(player.rank_tier) if player.rank_tier is not None else -1.0
    out["has_plus"] = bool(player.has_plus)

    my_msgs = sum(r["chat_msgs"] for r in rows)
    all_msgs = 0.0
    for match, _, _ in usable:
        all_msgs += sum(1 for m in match.chat if m.kind == "typed_text")
    out["chat_msgs_per_match"] = my_msgs / n
    out["ratio_chat_msg"] = my_msgs / max(all_msgs, 1.0)
    out["chat_rank_mean"] = sum(r["chat_rank_in_match"] for r in rows) / n

    hero_counts: dict[int, int] = {}
    female = 0
    for match, slot, _ in usable:
        hid = match.slot_record(slot).hero_id
        hero_counts[hid] = hero_counts.get(hid, 0) + 1
        if hero_gender(ctx.hero_table, hid) == "female":
            female += 1
    top_hero = min(h for h, c in hero_counts.items()
                   if c == max(hero_counts.values()))
    out["hero_pool_size"] = float(len(hero_counts))
    out["top_hero_share"] = max(hero_counts.values()) / n
    out["hero_gender_ratio"] = female / n
    out["most_played_hero_gender"] = hero_gender(ctx.hero_table, top_hero)
    out["most_played_hero_attr"] = hero_attr(ctx.hero_table, top_hero)
    return out


def build_player_matrix(players: Sequence[PlayerRecord],
                        matches: dict[int, MatchRecord],
                        ctx: FeatureContext) -> FeatureMatrix:
    cols = player_columns()
    rows: list[list] = []
    owners: list[int] = []
    for player in sorted(players, key=lambda p: p.handle):
        record_matches = [matches[mid] for mid in sorted(player.match_ids)
                          if mid in matches]
        row = build_player_features(player, record_matches, ctx)
        rows.append([row[c.name] for c in cols])
        owners.append(player.handle)
    return FeatureMatrix(variant="P", columns=cols, rows=rows, row_owner=owners,
                         config_hash=ctx.config_hash())
