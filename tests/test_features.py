import csv
import json
import math
import re
import tempfile
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aia.errors import InsufficientMatches, SchemaError
from aia.features import (
    AFTER_KILL_WINDOW_S,
    CHAT_FEATURE_NAMES,
    DAY_NAMES,
    EARLY_WINDOW_S,
    EXPERT_MATCH_SCHEMA,
    LEXICON_CATEGORIES,
    MATCH_SCHEMA,
    NAIVE_MATCH_SCHEMA,
    WHEEL_CATEGORIES,
    FeatureContext,
    build_distilled,
    build_match_features,
    build_match_matrix,
    build_player_features,
    build_player_matrix,
    build_shard_lines,
    distill_picks,
    extract_chat_features,
    load_hero_table,
    load_lexicons,
    load_wheel_catalog,
    variant_columns,
)
from aia.ingest import PlayerRecord, parse_match
from aia import features, models
from aia.matrix import (DISTILL_CAP, Column, FeatureMatrix, format_lines, load_matrix,
                        save_matrix, write_lines)
from aia.stats import average_ranks

from conftest import build_match_doc, make_match

HAND_LABELED_CHAT = [
    # slot 0 typed global; tallies worked out by hand in the assertions below
    {"slot": 0, "time": 5, "type": "chat", "channel": "global", "key": "gg wp"},
    {"slot": 0, "time": 30, "type": "chat", "channel": "global", "key": "?"},
    {"slot": 0, "time": 100, "type": "chat", "channel": "global", "key": "noob team REPORT mid"},
    {"slot": 0, "time": 305, "type": "chat", "channel": "global", "key": "ez ez haha"},
    {"slot": 0, "time": 400, "type": "chat", "channel": "global", "key": "what?! really??"},
    # another slot's message must not bleed into slot 0 counts
    {"slot": 1, "time": 302, "type": "chat", "channel": "global", "key": "ez mid"},
    # slot 0 wheels, sounds, sprays
    {"slot": 0, "time": 50, "type": "chatwheel", "channel": "global", "key": "w_haha"},
    {"slot": 0, "time": 60, "type": "chatwheel", "channel": "team", "key": "w_push_now"},
    {"slot": 0, "time": 70, "type": "chatwheel_hero", "channel": "team", "key": "hw_cm_thanks"},
    {"slot": 0, "time": 75, "type": "sound", "channel": "global", "key": "s_x"},
    {"slot": 0, "time": 76, "type": "spray", "channel": "global", "key": "sp_y"},
]

KILL_OBJECTIVES = [{"type": "kill", "slot": 0, "time": 300},
                   {"type": "kill", "slot": 4, "time": 600}]


@dataclass
class ChatFeatures:
    """One slot's chat counts by name: what extract_chat_features returned
    before it returned its values as a list in CHAT_FEATURE_NAMES order."""

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


def slot_entry(match, slot):
    """The match's entry for a slot number."""
    return next(p for p in match.players if p.slot == slot)


def chat_features(match, slot, ctx) -> ChatFeatures:
    """extract_chat_features' values for a slot number, read back by name."""
    v = dict(zip(CHAT_FEATURE_NAMES,
                 extract_chat_features(match, slot_entry(match, slot), ctx)))
    return ChatFeatures(
        category_counts={cat: v[f"chat_{cat}_count"] for cat in LEXICON_CATEGORIES},
        question_only_msgs=v["chat_question_only_msgs"],
        question_marks=v["chat_question_marks"],
        exclamation_marks=v["chat_exclamation_marks"],
        capital_letters=v["chat_capital_letters"],
        early_game_msgs=v["chat_early_game_msgs"],
        after_kill_msgs=v["chat_after_kill_msgs"],
        wheel_counts={(ch, cat): v[f"wheel_{ch}_{cat}"]
                      for ch in ("global", "team") for cat in WHEEL_CATEGORIES},
        wheel_global_msgs=v["wheel_global_msgs"],
        wheel_team_msgs=v["wheel_team_msgs"],
        sound_count=v["chat_sound_count"],
        spray_count=v["chat_spray_count"],
    )


def match_row(match, slot, ctx) -> dict:
    """build_match_features' row for a slot number, keyed by column name."""
    return dict(zip([name for name, _ in MATCH_SCHEMA],
                    build_match_features(match, slot_entry(match, slot), ctx)))


@pytest.fixture()
def chat_match():
    return make_match(chat=HAND_LABELED_CHAT, objectives=KILL_OBJECTIVES,
                      all_word_counts={"gg": 1, "wp": 1, "ez": 3, "mid": 2})


def test_chat_features_match_hand_tally(chat_match, feature_ctx):
    feats = chat_features(chat_match, 0, feature_ctx)
    assert feats.category_counts == {
        "laugh": 1,          # haha
        "slang": 1,          # mid
        "bad_behavior": 2,   # noob, report
        "good_behavior": 2,  # gg, wp
        "provocative": 2,    # ez twice
    }
    assert feats.question_only_msgs == 1
    assert feats.question_marks == 4       # "?" plus "what?! really??"
    assert feats.exclamation_marks == 1
    assert feats.capital_letters == 6      # REPORT
    assert feats.early_game_msgs == 2      # t=5 and t=30, window 90s
    assert feats.after_kill_msgs == 1      # t=305 within 10s of own kill at 300
    assert feats.wheel_global_msgs == 1
    assert feats.wheel_team_msgs == 2
    assert feats.wheel_counts[("global", "laugh")] == 1
    assert feats.wheel_counts[("team", "tactical")] == 1
    assert feats.wheel_counts[("team", "good_behavior")] == 1
    assert feats.sound_count == 1
    assert feats.spray_count == 1


def test_question_only_variants(feature_ctx):
    chat = [
        {"slot": 0, "time": 10, "type": "chat", "channel": "global", "key": "???"},
        {"slot": 0, "time": 11, "type": "chat", "channel": "global", "key": " ? "},
        {"slot": 0, "time": 12, "type": "chat", "channel": "global", "key": "why?"},
    ]
    match = make_match(chat=chat)
    feats = chat_features(match, 0, feature_ctx)
    assert feats.question_only_msgs == 2
    assert feats.question_marks == 5


def test_empty_chat_all_zero(feature_ctx):
    match = make_match()
    feats = chat_features(match, 0, feature_ctx)
    assert all(v == 0 for v in feats.category_counts.values())
    assert feats.question_only_msgs == 0
    assert feats.wheel_global_msgs == 0
    assert feats.wheel_team_msgs == 0
    assert feats.sound_count == 0 and feats.spray_count == 0


def test_wheel_channel_split_sums_to_total(feature_ctx):
    # Property over seeded random chat logs: per-channel wheel totals always
    # add up to the number of wheel messages the slot sent.
    import numpy as np

    rng = np.random.default_rng(77)
    wheel_ids = list(feature_ctx.wheel_catalog) + ["w_unknown_1", "hw_unknown_2"]
    for _ in range(25):
        chat = []
        n_wheel = 0
        for _ in range(int(rng.integers(0, 40))):
            kind = rng.choice(["chat", "chatwheel", "chatwheel_hero", "sound", "spray"])
            channel = "global"
            if kind in ("chatwheel", "chatwheel_hero"):
                channel = str(rng.choice(["global", "team"]))
                n_wheel += 1
            chat.append({"slot": 0, "time": float(rng.integers(0, 2000)),
                         "type": str(kind), "channel": channel,
                         "key": str(rng.choice(wheel_ids))})
        match = make_match(chat=chat)
        feats = chat_features(match, 0, feature_ctx)
        assert feats.wheel_global_msgs + feats.wheel_team_msgs == n_wheel


# ---------------------------------------------------------------------------
# Per-match rows
# ---------------------------------------------------------------------------


def test_outcome_follows_side(feature_ctx):
    match = make_match(radiant_win=True)
    radiant_row = match_row(match, 0, feature_ctx)
    dire_row = match_row(match, 128, feature_ctx)
    assert radiant_row["won"] is True
    assert dire_row["won"] is False


def test_kda_division_guard(feature_ctx):
    players = [
        {"player_slot": 0, "hero_id": 1, "account_id": 100, "kills": 0,
         "deaths": 0, "assists": 0, "denies": 0, "last_hits": 0,
         "isRadiant": True, "word_counts": {}},
        {"player_slot": 128, "hero_id": 2, "account_id": 101, "kills": 4,
         "deaths": 2, "assists": 6, "denies": 0, "last_hits": 0,
         "isRadiant": False, "word_counts": {}},
    ]
    match = make_match(players=players)
    row0 = match_row(match, 0, feature_ctx)
    row1 = match_row(match, 128, feature_ctx)
    assert row0["kda"] == 0.0                  # (0+0)/max(0,1)
    assert row1["kda"] == (4 + 6) / 2


def test_cosmetics_price_sums_own_slot_only(feature_ctx):
    match = make_match(cosmetics=[
        {"item_id": 1, "owner_slot": 0, "price": 2.5},
        {"item_id": 2, "owner_slot": 0, "price": 1.0},
        {"item_id": 3, "owner_slot": 128, "price": 99.0},
    ])
    row = match_row(match, 0, feature_ctx)
    assert row["cosmetics_price"] == 3.5


def test_match_row_golden_values(chat_match, feature_ctx):
    """Frozen spot-check of one full row (values verified by hand)."""
    row = match_row(chat_match, 0, feature_ctx)
    assert row["won"] is True
    assert row["duration_s"] == 1800.0
    assert row["kills"] == 0.0 and row["deaths"] == 1.0 and row["assists"] == 2.0
    assert row["kda"] == 2.0
    assert row["kill_participation"] == pytest.approx(2 / 25)
    assert row["team_score"] == 25.0 and row["enemy_score"] == 30.0
    assert row["kills_per_min"] == 0.0
    assert row["deaths_per_min"] == pytest.approx(1 / 30)
    assert row["first_blood_time"] == 95.0
    assert row["game_mode"] == "2" and row["lobby_type"] == "7"
    assert row["skill"] == "2"
    # 1577000000 = 2019-12-22 07:33:20 UTC, a Sunday
    assert row["start_hour"] == 7.0
    assert row["day_of_week"] == "sun"
    assert row["all_word_total"] == 7.0
    assert row["chat_msgs"] == 5.0
    assert row["chat_rank_in_match"] == 1.0   # most talkative slot
    assert row["hero_msg_count"] == 1.0
    assert row["hero_gender"] == "male"       # hero 1
    assert row["hero_attr"] == "agi"
    assert row["chat_provocative_count"] == 2.0
    assert row["wheel_team_tactical"] == 1.0


def test_chat_rank_averages_ties(feature_ctx):
    match = make_match(chat=[
        {"slot": 0, "time": 1, "type": "chat", "channel": "global", "key": "a"},
        {"slot": 0, "time": 2, "type": "chat", "channel": "global", "key": "b"},
        {"slot": 128, "time": 3, "type": "chat", "channel": "global", "key": "c"},
    ])
    row_quiet = match_row(match, 1, feature_ctx)
    # slots with zero messages share ranks 3..10 -> mean 6.5
    assert row_quiet["chat_rank_in_match"] == 6.5


# ---------------------------------------------------------------------------
# Per-player rows
# ---------------------------------------------------------------------------


def player_with_matches(handle, docs):
    matches = [parse_match(json.dumps(d).encode()) for d in docs]
    record = PlayerRecord(handle=handle, rank_tier=44, has_plus=True,
                          match_ids=tuple(m.match_id for m in matches))
    return record, matches


def test_all_win_player(feature_ctx):
    docs = [build_match_doc(match_id=i, radiant_win=True) for i in range(1, 7)]
    record, matches = player_with_matches(100, docs)  # account 100 is slot 0
    row = build_player_features(record, matches, feature_ctx)
    assert row["win_rate"] == 1.0
    assert row["matches_count"] == 6.0


def test_thursday_only_player(feature_ctx):
    # 1576715000 = 2019-12-19 UTC, a Thursday; add whole days in multiples of 7
    docs = [build_match_doc(match_id=i, start_time=1_576_715_000 + i * 7 * 86400)
            for i in range(1, 6)]
    record, matches = player_with_matches(100, docs)
    row = build_player_features(record, matches, feature_ctx)
    assert row["day_frac_thu"] == 1.0
    assert sum(row[f"day_frac_{d}"] for d in
               ("mon", "tue", "wed", "thu", "fri", "sat", "sun")) == pytest.approx(1.0, abs=1e-9)


def test_day_fractions_always_sum_to_one(feature_ctx):
    import numpy as np

    rng = np.random.default_rng(3)
    docs = [build_match_doc(match_id=i,
                            start_time=int(1_570_000_000 + rng.integers(0, 10 ** 7)))
            for i in range(1, 12)]
    record, matches = player_with_matches(100, docs)
    row = build_player_features(record, matches, feature_ctx)
    total = sum(row[f"day_frac_{d}"] for d in
                ("mon", "tue", "wed", "thu", "fri", "sat", "sun"))
    assert total == pytest.approx(1.0, abs=1e-9)
    total_hours = sum(row[f"hour_frac_{h:02d}"] for h in range(24))
    assert total_hours == pytest.approx(1.0, abs=1e-9)


def test_ranked_unranked_split(feature_ctx):
    ranked = [build_match_doc(match_id=i, lobby_type=7, radiant_win=True)
              for i in range(1, 5)]
    normal = [build_match_doc(match_id=i, lobby_type=0, radiant_win=False)
              for i in range(5, 9)]
    record, matches = player_with_matches(100, ranked + normal)
    row = build_player_features(record, matches, feature_ctx)
    assert row["ranked_win_rate"] == 1.0
    assert row["normal_win_rate"] == 0.0
    assert row["win_rate"] == 0.5


def test_insufficient_matches(feature_ctx):
    docs = [build_match_doc(match_id=i) for i in range(1, 4)]
    record, matches = player_with_matches(100, docs)
    with pytest.raises(InsufficientMatches):
        build_player_features(record, matches, feature_ctx)


def test_hero_summary(feature_ctx):
    def with_hero(mid, hero_id):
        doc = build_match_doc(match_id=mid)
        doc["players"][0]["hero_id"] = hero_id
        return doc

    # hero 5 (female, int) three times; hero 1 (male) twice
    docs = [with_hero(1, 5), with_hero(2, 5), with_hero(3, 5),
            with_hero(4, 1), with_hero(5, 1)]
    record, matches = player_with_matches(100, docs)
    row = build_player_features(record, matches, feature_ctx)
    assert row["hero_pool_size"] == 2.0
    assert row["top_hero_share"] == pytest.approx(3 / 5)
    assert row["hero_gender_ratio"] == pytest.approx(3 / 5)
    assert row["most_played_hero_gender"] == "female"
    assert row["most_played_hero_attr"] == "int"


# ---------------------------------------------------------------------------
# Matrices, distillation, persistence
# ---------------------------------------------------------------------------


def corpus(n_players=6, matches_per_player=8):
    """Tiny corpus: each player owns their own matches (slot 0)."""
    players = []
    matches = {}
    mid = 1
    for handle in range(200, 200 + n_players):
        ids = []
        for _ in range(matches_per_player):
            doc = build_match_doc(match_id=mid)
            doc["players"][0]["account_id"] = handle
            matches[mid] = parse_match(json.dumps(doc).encode())
            ids.append(mid)
            mid += 1
        players.append(PlayerRecord(handle=handle, rank_tier=None,
                                    has_plus=False, match_ids=tuple(ids)))
    return players, matches


def test_match_matrix_shape_and_owner_alignment(feature_ctx):
    players, matches = corpus()
    m, aug = build_match_matrix(players, matches, feature_ctx)
    assert m.variant == "M"
    assert m.n_rows == 6 * 8
    assert set(m.row_owner) == {p.handle for p in players}
    assert len(aug) == m.n_rows
    assert all(len(row) == len(EXPERT_MATCH_SCHEMA) for row in aug)
    naive_names = {c.name for c in m.columns}
    assert "chat_slang_count" not in naive_names  # expert columns stay out of M
    # Expert rows join M's rows by position: a short list does not line up.
    with pytest.raises(SchemaError):
        build_distilled(m, aug[:-1])


def test_distilled_under_cap_keeps_all_rows(feature_ctx):
    players, matches = corpus(n_players=3, matches_per_player=12)
    m, aug = build_match_matrix(players, matches, feature_ctx)
    variants = build_distilled(m, aug, n_variants=3, seed=5)
    for v in variants:
        assert v.n_rows == m.n_rows
        assert v.variant == "M_bar"


def test_distilled_caps_and_varies(feature_ctx):
    players, matches = corpus(n_players=2, matches_per_player=40)
    m, aug = build_match_matrix(players, matches, feature_ctx)
    variants = build_distilled(m, aug, n_variants=4, seed=5)
    subsets = []
    for v in variants:
        per_owner = {}
        for owner in v.row_owner:
            per_owner[owner] = per_owner.get(owner, 0) + 1
        assert all(count == 30 for count in per_owner.values())
        subsets.append(tuple(v.row_match))
    assert len(set(subsets)) > 1  # different variants sample different rows


def test_distilled_columns_superset_and_row_projection(feature_ctx):
    players, matches = corpus(n_players=2, matches_per_player=6)
    m, aug = build_match_matrix(players, matches, feature_ctx)
    v = build_distilled(m, aug, n_variants=1, seed=9)[0]
    m_names = [c.name for c in m.columns]
    v_names = [c.name for c in v.columns]
    assert set(v_names) >= set(m_names)
    idx = [v.column_index(n) for n in m_names]
    by_key = {(o, mt): row for o, mt, row in
              zip(m.row_owner, m.row_match, m.rows)}
    for owner, mt, row in zip(v.row_owner, v.row_match, v.rows):
        assert [row[i] for i in idx] == by_key[(owner, mt)]


def test_distilled_deterministic(feature_ctx):
    players, matches = corpus(n_players=2, matches_per_player=35)
    m, aug = build_match_matrix(players, matches, feature_ctx)
    a = build_distilled(m, aug, n_variants=2, seed=11)
    b = build_distilled(m, aug, n_variants=2, seed=11)
    for va, vb in zip(a, b):
        assert va.rows == vb.rows
        assert va.row_match == vb.row_match


def test_player_matrix_and_column_hash_stability(feature_ctx):
    players, matches = corpus()
    p1 = build_player_matrix(players, matches, feature_ctx)
    p2 = build_player_matrix(players, matches, feature_ctx)
    assert p1.rows == p2.rows
    assert p1.column_hash() == p2.column_hash()
    assert p1.n_rows == len(players)
    assert len(p1.columns) >= 40


def test_matrix_save_load_round_trip(tmp_path, feature_ctx):
    players, matches = corpus(n_players=3, matches_per_player=6)
    m, aug = build_match_matrix(players, matches, feature_ctx)
    path = tmp_path / "m.csv"
    save_matrix(m, path)
    loaded = load_matrix(path)
    assert loaded.rows == m.rows
    assert loaded.row_owner == m.row_owner
    assert loaded.row_match == m.row_match
    assert [c.name for c in loaded.columns] == [c.name for c in m.columns]
    # byte-stable on re-save
    save_matrix(loaded, tmp_path / "m2.csv")
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "m2.csv").read_bytes()


def _saved_match_matrix(tmp_path):
    cols = [Column("kills", "numeric"), Column("won", "boolean")]
    matrix = FeatureMatrix(variant="M", columns=cols, rows=[[1.0, True], [2.5, False]],
                           row_owner=[7, 8], row_match=[70, 80])
    path = tmp_path / "M.csv"
    save_matrix(matrix, path)
    return path


@pytest.mark.parametrize("row, column, text", [
    (2, "kills", "x1"), (1, "_owner", "abc"), (2, "_match", "8.5"),
])
def test_load_matrix_names_the_cell_that_does_not_parse(tmp_path, row, column, text):
    path = _saved_match_matrix(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[row].split(",")
    cells[lines[0].rstrip().split(",").index(column)] = text
    lines[row] = ",".join(cells)
    path.write_text("".join(lines))
    with pytest.raises(SchemaError) as err:
        load_matrix(path)
    assert str(path) in str(err.value)
    assert f"data row {row}, column {column!r}" in str(err.value)


# Text for one mutated CSV cell: anything, and the near misses of each kind.
CELL_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
    st.sampled_from(["", " ", "nan", "-inf", "1e400", "true", "True", "false",
                     "0", " 3", "3.5", "1_0", "0x10", "7", "8", "13", "101"]),
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str))


def mutate_cell(path, row, column, text):
    """Rewrite a CSV file with the cell at (data row, column) set to text."""
    with open(path, newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))
    records[row][records[0].index(column)] = text
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(records)


def _property_matrix(variant):
    """A small matrix of each variant; under M_bar owner 7 sits at the cap."""
    cols = [Column("kills", "numeric"), Column("won", "boolean"),
            Column("hero", "categorical")]
    n = DISTILL_CAP + 2 if variant == "M_bar" else 4
    owners = [7] * (n - 2) + [8, 9] if variant == "M_bar" else [7, 8, 9, 10]
    rows = [[float(i % 5), i % 2 == 0, f"h{i % 3}"] for i in range(n)]
    return FeatureMatrix(variant=variant, columns=cols, rows=rows, row_owner=owners,
                         row_match=None if variant == "P" else list(range(n)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["P", "M", "M_bar"]), st.integers(0, 10**6),
       st.sampled_from(["_owner", "_match", "kills", "won", "hero"]), CELL_TEXT)
def test_load_matrix_takes_or_names_any_mutated_cell(variant, pick, column, text):
    # Either a SchemaError names the file, the data row and the column, or
    # the cell loads as a value the recipe encodes to a finite number.
    matrix = _property_matrix(variant)
    if variant == "P" and column == "_match":
        column = "_owner"
    row = 1 + pick % matrix.n_rows
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{variant}.csv"
        save_matrix(matrix, path)
        mutate_cell(path, row, column, text)
        try:
            loaded = load_matrix(path)
        except SchemaError as exc:
            assert str(path) in str(exc)
            assert f"data row {row}, column {column!r}" in str(exc)
            return
    cell = {"_owner": loaded.row_owner, "_match": loaded.row_match}.get(column)
    if cell is not None:
        assert type(cell[row - 1]) is int
    else:
        value = loaded.rows[row - 1][loaded.column_index(column)]
        kind = {"kills": float, "won": bool, "hero": str}[column]
        assert type(value) is kind
        assert column != "won" or text == ("true" if value else "false")
        assert column != "kills" or math.isfinite(value)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        recipe = models.fit_recipe(loaded, range(loaded.n_rows))
    assert np.isfinite(models.transform(loaded, range(loaded.n_rows), recipe)).all()


@pytest.mark.parametrize("edit, words", [
    (lambda doc: doc.pop("columns"), ["columns"]),
    (lambda doc: doc["columns"][1].update(kind="ratio"), ["won", "ratio"]),
])
def test_load_matrix_names_a_malformed_sidecar(tmp_path, edit, words):
    path = _saved_match_matrix(tmp_path)
    sidecar = tmp_path / "M.csv.schema.json"
    doc = json.loads(sidecar.read_text())
    edit(doc)
    sidecar.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        load_matrix(path)
    assert all(word in str(err.value) for word in [str(sidecar)] + words)


def test_shard_lines_write_what_save_matrix_writes(tmp_path, feature_ctx):
    # A featurize worker's lines, capped by distill_picks for M_bar and
    # written by write_lines, give the bytes save_matrix gives the matrices
    # the builders return; the cap drops rows here.
    players, matches = corpus(n_players=3, matches_per_player=DISTILL_CAP + 4)
    m, aug = build_match_matrix(players, matches, feature_ctx)
    built = {"P": [build_player_matrix(players, matches, feature_ctx)], "M": [m],
             "M_bar": build_distilled(m, aug, n_variants=3, seed=2)}
    assert built["M_bar"][0].row_match != built["M_bar"][1].row_match
    assert built["M_bar"][0].n_rows == 3 * DISTILL_CAP
    for variant, matrices in built.items():
        owners, lines = build_shard_lines(variant, players, matches, feature_ctx)
        picks = distill_picks(owners, 3, 2) if variant == "M_bar" else [range(len(lines))]
        assert len(picks) == len(matrices)
        for matrix, picked in zip(matrices, picks):
            assert variant_columns(variant) == matrix.columns
            saved, written = tmp_path / "saved.csv", tmp_path / "written.csv"
            save_matrix(matrix, saved)
            write_lines(written, variant, matrix.columns, [lines[i] for i in picked],
                        matrix.row_match is not None, matrix.variant_seed,
                        matrix.config_hash)
            for suffix in ("", ".schema.json"):
                assert (Path(f"{written}{suffix}").read_bytes()
                        == Path(f"{saved}{suffix}").read_bytes())


@pytest.mark.parametrize("variant", ["P", "M", "M_bar"])
def test_shard_lines_find_each_slot_entry_once(fixture_population, feature_ctx,
                                               monkeypatch, variant):
    # One walk over each player's matches: every (player, loaded match)
    # pair looks its slot entry up once, for the naive and the expert
    # values of its row alike.
    pop = fixture_population
    calls = Counter()
    slot_of = features._slot_of

    def counted(match, handle):
        calls[handle, match.match_id] += 1
        return slot_of(match, handle)

    monkeypatch.setattr(features, "_slot_of", counted)
    build_shard_lines(variant, pop.players, pop.matches, feature_ctx)
    assert calls == Counter((p.handle, mid) for p in pop.players
                            for mid in p.match_ids if mid in pop.matches)


def test_written_lines_keep_csv_quoting(tmp_path):
    cols = [Column("say", "categorical"), Column("kills", "numeric"),
            Column("won", "boolean")]
    rows = [['say "gg", wp', 3.0, True], ["a,b", -0.0, False],
            ['"', 1e-300, True], ["line\nbreak", 0.1, False]]
    owners, match_ids = [1, 1, 2, 2], [10, 11, 10, 12]
    path = tmp_path / "M.csv"
    write_lines(path, "M", cols, format_lines(cols, rows, owners, match_ids),
                has_match_ids=True)
    assert b'"say ""gg"", wp"' in path.read_bytes()
    loaded = load_matrix(path)
    assert (loaded.rows, loaded.row_owner, loaded.row_match) == (rows, owners, match_ids)
    assert math.copysign(1.0, loaded.rows[1][1]) == -1.0


def test_default_context_config_hash_is_pinned():
    # Every matrix sidecar carries this hash of the fixed feature settings
    # and the shipped tables; it changes only when one of them does.
    assert FeatureContext.default().config_hash() == (
        "75d3c4bf52dda8637afcdcaf137ea156b9ae9e2e4a3948894ae03822c9dacf55")


def test_static_tables_load():
    lexicons = load_lexicons()
    assert {lx.category for lx in lexicons} == {
        "laugh", "slang", "bad_behavior", "good_behavior", "provocative"}
    assert all(lx.words for lx in lexicons)
    heroes = load_hero_table()
    assert heroes[5]["gender"] == "female"
    wheels = load_wheel_catalog()
    assert wheels["w_haha"] == "laugh"


# ---------------------------------------------------------------------------
# Oracles: the straightforward extractors the fast ones must equal
# ---------------------------------------------------------------------------


def reference_chat_features(match, slot, lexicons, early_window_s=90.0,
                            after_kill_window_s=10.0, wheel_catalog=None):
    """extract_chat_features as first written: one scan per lexicon
    category, kill events and lexicon sets rebuilt on every call."""
    wheel_catalog = wheel_catalog or {}
    typed = [m for m in match.chat
             if m.sender_slot == slot and m.kind == "typed_text"]
    kills = sorted(t for who, t in match.kill_events if who == slot)
    category_counts = {cat: 0 for cat in LEXICON_CATEGORIES}
    lexicon_sets = {lx.category: set(lx.words) for lx in lexicons}
    question_only = qmarks = emarks = capitals = early = after_kill = 0
    for msg in typed:
        text = msg.text_or_id
        tokens = re.findall(r"[a-z0-9']+", text.lower())
        for cat, words in lexicon_sets.items():
            category_counts[cat] += sum(1 for t in tokens if t in words)
        if re.match(r"^\?+$", text.strip()):
            question_only += 1
        qmarks += text.count("?")
        emarks += text.count("!")
        capitals += sum(1 for ch in text if ch.isupper())
        if msg.time_s < early_window_s:
            early += 1
        if any(0.0 <= msg.time_s - kt <= after_kill_window_s for kt in kills):
            after_kill += 1
    wheel_counts = {(ch, cat): 0 for ch in ("global", "team")
                    for cat in WHEEL_CATEGORIES}
    wheel_global = wheel_team = sounds = sprays = 0
    for msg in match.chat:
        if msg.sender_slot != slot:
            continue
        if msg.kind in ("chatwheel_general", "chatwheel_hero"):
            if msg.channel == "global":
                wheel_global += 1
            else:
                wheel_team += 1
            cat = wheel_catalog.get(msg.text_or_id)
            if cat in WHEEL_CATEGORIES:
                wheel_counts[(msg.channel, cat)] += 1
        elif msg.kind == "sound":
            sounds += 1
        elif msg.kind == "spray":
            sprays += 1
    return ChatFeatures(category_counts, question_only, qmarks, emarks,
                        capitals, early, after_kill, wheel_counts,
                        wheel_global, wheel_team, sounds, sprays)


def reference_chat_rank(match, slot):
    typed = {p.slot: 0 for p in match.players}
    for msg in match.chat:
        if msg.kind == "typed_text" and msg.sender_slot in typed:
            typed[msg.sender_slot] += 1
    slots = sorted(typed)
    ranks = average_ranks([-typed[s] for s in slots])
    return float(ranks[slots.index(slot)])


def test_chat_features_equal_reference_on_every_fixture_slot(
        fixture_population, feature_ctx):
    checked = 0
    for match in fixture_population.matches.values():
        for player in match.players:
            fast = extract_chat_features(match, player, feature_ctx)
            slow = reference_chat_features(
                match, player.slot, feature_ctx.lexicons,
                early_window_s=EARLY_WINDOW_S,
                after_kill_window_s=AFTER_KILL_WINDOW_S,
                wheel_catalog=feature_ctx.wheel_catalog)
            assert fast == list(slow.as_feature_dict().values())
            row = match_row(match, player.slot, feature_ctx)
            assert row["chat_rank_in_match"] == reference_chat_rank(match, player.slot)
            checked += 1
    assert checked == 10 * len(fixture_population.matches)


def reference_match_features(match, slot, ctx):
    """build_match_features as it was before it returned a list: one dict
    per row, the chat values through a ChatFeatures record, and a second
    scan of the chat for the typed and hero-wheel counts."""
    player = slot_entry(match, slot)
    team_score = match.radiant_score if player.is_radiant else match.dire_score
    enemy_score = match.dire_score if player.is_radiant else match.radiant_score
    tm = time.gmtime(match.start_time)

    def per_min(value):
        return value / max(match.duration_s / 60.0, 1.0)

    row = {
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
        "kills_per_min": per_min(player.kills),
        "deaths_per_min": per_min(player.deaths),
        "assists_per_min": per_min(player.assists),
        "denies_per_min": per_min(player.denies),
        "last_hits_per_min": per_min(player.last_hits),
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
    row.update(reference_chat_features(
        match, slot, ctx.lexicons, wheel_catalog=ctx.wheel_catalog).as_feature_dict())
    typed_by_slot = {p.slot: 0 for p in match.players}
    hero_msgs = 0
    for msg in match.chat:
        if msg.kind == "typed_text":
            if msg.sender_slot in typed_by_slot:
                typed_by_slot[msg.sender_slot] += 1
        elif msg.kind == "chatwheel_hero" and msg.sender_slot == slot:
            hero_msgs += 1
    mine = typed_by_slot[slot]
    more = sum(1 for c in typed_by_slot.values() if c > mine)
    tied = sum(1 for c in typed_by_slot.values() if c == mine)
    row["chat_msgs"] = float(mine)
    row["chat_rank_in_match"] = (more + more + tied - 1) / 2.0 + 1.0
    row["hero_msg_count"] = float(hero_msgs)
    hero = ctx.hero_table.get(player.hero_id, {})
    row["hero_gender"] = hero.get("gender", "unknown")
    row["hero_attr"] = hero.get("attr", "unknown")
    return row


def _same_values(row: dict, reference: dict) -> bool:
    """Equal names, values and value types, in column order."""
    return (list(row) == list(reference)
            and [(type(v), repr(v)) for v in row.values()]
            == [(type(v), repr(v)) for v in reference.values()])


def test_match_rows_equal_reference_on_every_fixture_slot(fixture_population,
                                                          feature_ctx):
    checked = 0
    for match in fixture_population.matches.values():
        for player in match.players:
            row = match_row(match, player.slot, feature_ctx)
            reference = reference_match_features(match, player.slot, feature_ctx)
            assert list(reference) == [name for name, _ in MATCH_SCHEMA]
            assert _same_values(row, reference)
            checked += 1
    assert checked == 10 * len(fixture_population.matches)


@settings(max_examples=200, deadline=None)
@given(senders=st.lists(st.sampled_from([0, 1, 2, 128, 129, 7]), max_size=12),
       kinds=st.lists(st.sampled_from(["chat", "chatwheel", "chatwheel_hero",
                                       "sound", "spray"]), min_size=12, max_size=12),
       slots=st.lists(st.sampled_from([0, 1, 2, 128, 129]), min_size=1, max_size=5,
                      unique=True))
def test_match_rows_equal_reference_on_any_chat_and_slots(feature_ctx, senders,
                                                          kinds, slots):
    # Senders outside the slots, any set of slot numbers and every chat kind:
    # the typed and hero-wheel counts read from Match.message_counts must
    # give the reference's ranks and counts.
    players = [{"player_slot": s, "hero_id": 1 + i, "account_id": 100 + i,
                "isRadiant": s < 128} for i, s in enumerate(slots)]
    chat = [{"slot": s, "time": float(i), "type": kind,
             "channel": "global", "key": "gg"}
            for i, (s, kind) in enumerate(zip(senders, kinds))]
    match = make_match(players=players, chat=chat)
    for slot in slots:
        assert _same_values(match_row(match, slot, feature_ctx),
                            reference_match_features(match, slot, feature_ctx))


def test_stacked_mean_std_equal_per_column_calls_bit_for_bit():
    # build_player_features takes mean/std of one (columns, n) block along
    # its rows; each must equal the 1-D call on that column alone.
    rng = np.random.default_rng(5)
    for n in range(1, 61):
        block = np.concatenate([
            rng.normal(0.0, 1e3, (20, n)),
            rng.integers(0, 300, (20, n)).astype(float),
            np.round(rng.uniform(0.0, 3000.0, (7, n)), 1),
        ])
        means, stds = block.mean(axis=1), block.std(axis=1)
        for j, column in enumerate(block):
            one = np.array(column.tolist())
            assert means[j].tobytes() == one.mean().tobytes()
            assert stds[j].tobytes() == one.std().tobytes()


def test_player_features_equal_per_column_reference(fixture_population,
                                                    feature_ctx):
    rng = np.random.default_rng(11)
    players = sorted(fixture_population.players, key=lambda p: p.handle)
    for player in players:
        matches = [fixture_population.matches[mid]
                   for mid in sorted(player.match_ids)]
        # A random block of 5 or more of the player's matches.
        keep = sorted(rng.choice(len(matches), int(rng.integers(5, len(matches) + 1)),
                                 replace=False))
        block = [matches[i] for i in keep]
        out = build_player_features(player, block, feature_ctx)
        rows = [match_row(
                    m, next(p.slot for p in m.players if p.handle == player.handle),
                    feature_ctx) for m in block]
        for name, kind in NAIVE_MATCH_SCHEMA + EXPERT_MATCH_SCHEMA:
            if kind != "numeric":
                continue
            values = np.array([float(r[name]) for r in rows])
            assert repr(out[f"mean_{name}"]) == repr(float(values.mean()))
            assert repr(out[f"std_{name}"]) == repr(float(values.std()))
