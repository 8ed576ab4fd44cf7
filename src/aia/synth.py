"""Synthetic population generator with planted attribute/feature relationships.

Every protocol and statistic can be exercised without real survey data:
the generator emits raw telemetry in the same JSON schema (and cache
layout) as ingestion, labels with configurable priors, and a manifest
recording every planted dependence.

Planting mechanics. Numeric effects target an exact player-level Spearman
rho through a latent monotone link: the player's latent value is the
attribute's class code plus Gaussian noise whose scale is solved from the
closed-form population grade correlation (rank statistics depend only on
ranks, so any monotone link suffices). Rate effects tilt chat content
mixes or wheel-usage rates (strong, not exactly calibrated; realized
strengths land in the manifest consumer's court). Categorical effects make
a categorical feature reveal the class with a configured probability.

Assembly. `plan_population` makes every draw the population shares (labels,
match counts, hence each player's first match id, and the manifest) from
one stream; `_player` then builds a player from the plan and that player's
own stream alone, so each player can be built, and written, in a process
of its own (`write_player`).
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .attributes import ATTRIBUTE_SCHEMA, AttributeLabels, RawSurveyRow
from .errors import ConfigError
from .features import LEXICON_CATEGORIES, load_hero_table, load_lexicons, load_wheel_catalog
from .ingest import (MatchRecord, PlayerRecord, atomic_write, match_cache_path, parse_match,
                     player_cache_path, serialize_match)

# Class distribution defaults drawn from the reference population survey.
TABLE1_PRIORS: dict[str, tuple[float, ...]] = {
    "gender": (0.0496, 0.9504),
    "age_bin": (0.1343, 0.5372, 0.3285),
    "occupation": (0.5744, 0.4256),
    "purchase_habits": (0.1054, 0.6116, 0.2830),
    "openness": (0.1922, 0.2438, 0.5640),
    "conscientiousness": (0.3946, 0.2397, 0.3657),
    "extraversion": (0.4731, 0.2107, 0.3162),
    "agreeableness": (0.2087, 0.1942, 0.5971),
    "neuroticism": (0.5351, 0.1921, 0.2727),
}

# Raw per-match synthesis channels: name -> (base, spread, integer, floor).
NUMERIC_CHANNELS: dict[str, tuple[float, float, bool, float]] = {
    "kills": (30.0, 8.0, True, 0.0),
    "deaths": (20.0, 6.0, True, 0.0),
    "assists": (25.0, 7.0, True, 0.0),
    "denies": (40.0, 10.0, True, 0.0),
    "last_hits": (200.0, 40.0, True, 0.0),
    "duration_s": (2400.0, 400.0, True, 600.0),
    "first_blood_time": (300.0, 80.0, True, 0.0),
    "cosmetics_price": (20.0, 6.0, False, 0.0),
}

# Chat-mix channels tilt the content of a fixed-size message budget; wheel
# and hero-wheel channels tilt usage rates directly.
MIX_CHANNELS = tuple(f"chat_{cat}_count" for cat in LEXICON_CATEGORIES)
RATE_CHANNELS = ("wheel_global_msgs", "wheel_team_msgs", "hero_msg_count")

NEUTRAL_VOCAB = ("ok", "go", "sure", "yes", "no", "wait", "here", "come",
                 "care", "now")


@dataclass(frozen=True)
class NumericEffect:
    """Exact player-level Spearman target on a numeric channel."""

    feature: str
    attribute: str
    rho: float


@dataclass(frozen=True)
class RateEffect:
    """Multiplicative tilt of a chat mix or wheel rate per grade-coded class."""

    feature: str
    attribute: str
    slope: float


@dataclass(frozen=True)
class CategoricalEffect:
    """Categorical feature reveals the class with probability `strength`."""

    feature: str  # "hero_gender" | "has_plus"
    attribute: str
    strength: float


def _is_real(value) -> bool:
    """A real number; a boolean or a string is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_int(value) -> bool:
    """An integer; a boolean is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _integer(value) -> int:
    """`value` when it is an integer (int() would read 2.7 as 2 and true as
    1), else ValueError."""
    if _is_int(value):
        return value
    raise ValueError(f"expected an integer, got {value!r}")


def _in_range(value, low: float, high: float) -> bool:
    """A real number in [low, high]; NaN is in no range."""
    return _is_real(value) and low <= value <= high


# Size ceilings of a synth config, far past the survey's 484 players and
# ~110 matches each; past them the generator's arrays fail.
MAX_PLAYERS = 100_000
MAX_MATCHES = 10_000  # per player


@dataclass
class SynthConfig:
    n_players: int = 50
    matches_range: tuple[int, int] = (5, 120)
    priors: dict[str, tuple[float, ...]] = field(
        default_factory=lambda: dict(TABLE1_PRIORS))
    numeric_effects: tuple[NumericEffect, ...] = ()
    rate_effects: tuple[RateEffect, ...] = ()
    categorical_effects: tuple[CategoricalEffect, ...] = ()
    noise_level: float = 0.5     # attribute-code noise inside every latent
    match_noise: float = 1.0     # per-match noise, in class-code units
    messages_per_match: float = 4.0
    seed: int = 0

    def validate(self) -> None:
        """ConfigError naming the first field the generator cannot take."""
        def need(ok: bool, name: str, rule: str, value) -> None:
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {value!r}")

        need(_is_int(self.n_players) and 1 <= self.n_players <= MAX_PLAYERS,
             "n_players", f"an integer in [1, {MAX_PLAYERS}]", self.n_players)
        need(len(self.matches_range) == 2 and all(map(_is_int, self.matches_range))
             and 1 <= self.matches_range[0] <= self.matches_range[1] <= MAX_MATCHES,
             "matches_range", f"two integers 1 <= low <= high <= {MAX_MATCHES}",
             self.matches_range)
        for attr in self.priors:
            need(attr in ATTRIBUTE_SCHEMA, "priors", "keyed by schema attributes",
                 attr)
        for attr, classes in ATTRIBUTE_SCHEMA.items():
            probs = self.priors.get(attr)
            need(probs is not None, f"priors for {attr!r}", "given", probs)
            need(len(probs) == len(classes), f"priors for {attr!r}",
                 f"{len(classes)} numbers", probs)
            # Published distributions carry rounding error (one row sums to
            # 99.99%); tolerate it and renormalize at draw time.
            need(all(_in_range(p, 0.0, 1.0) for p in probs)
                 and abs(sum(probs) - 1.0) <= 1e-3, f"priors for {attr!r}",
                 "numbers in [0, 1] summing to 1", probs)
        channels = {"numeric_effects": NUMERIC_CHANNELS,
                    "rate_effects": MIX_CHANNELS + RATE_CHANNELS,
                    "categorical_effects": ("hero_gender", "has_plus")}
        for name, known in channels.items():
            for i, eff in enumerate(getattr(self, name)):
                need(isinstance(eff.feature, str) and eff.feature in known,
                     f"{name}[{i}].feature", f"one of {sorted(known)}", eff.feature)
                need(isinstance(eff.attribute, str)
                     and eff.attribute in ATTRIBUTE_SCHEMA,
                     f"{name}[{i}].attribute", "a schema attribute", eff.attribute)
        for i, eff in enumerate(self.numeric_effects):
            need(_is_real(eff.rho) and -1.0 < eff.rho < 1.0 and eff.rho != 0.0,
                 f"numeric_effects[{i}].rho", "in (-1, 1) and nonzero", eff.rho)
        # Chat and wheel rates scale as exp(slope * (grade + 0.3 * noise_level
        # * Z)); these ceilings keep every rate small enough to draw.
        for i, eff in enumerate(self.rate_effects):
            need(_in_range(eff.slope, -5.0, 5.0), f"rate_effects[{i}].slope",
                 "a number in [-5, 5]", eff.slope)
        for i, eff in enumerate(self.categorical_effects):
            need(_in_range(eff.strength, 0.0, 1.0),
                 f"categorical_effects[{i}].strength", "a number in [0, 1]",
                 eff.strength)
        need(_in_range(self.noise_level, 0.0, 2.0), "noise_level",
             "a number in [0, 2]", self.noise_level)
        need(_in_range(self.match_noise, 0.0, 10.0), "match_noise",
             "a number in [0, 10]", self.match_noise)
        need(_in_range(self.messages_per_match, 0.0, 100.0), "messages_per_match",
             "a number in [0, 100]", self.messages_per_match)
        need(_is_int(self.seed) and self.seed >= 0, "seed", "an integer >= 0",
             self.seed)

    def to_json_dict(self) -> dict:
        return {
            "n_players": self.n_players,
            "matches_range": list(self.matches_range),
            "priors": {k: list(v) for k, v in self.priors.items()},
            "numeric_effects": [vars(e) for e in self.numeric_effects],
            "rate_effects": [vars(e) for e in self.rate_effects],
            "categorical_effects": [vars(e) for e in self.categorical_effects],
            "noise_level": self.noise_level,
            "match_noise": self.match_noise,
            "messages_per_match": self.messages_per_match,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SynthConfig":
        """The config a `to_json_dict` document describes; a missing field
        takes its default, and a value that does not convert raises
        ConfigError naming its field."""
        if not isinstance(doc, dict):
            raise ConfigError(f"expected a JSON object, got {type(doc).__name__}")
        readers = {
            "n_players": _integer,
            "matches_range": tuple,
            "priors": lambda v: {k: tuple(p) for k, p in v.items()},
            "numeric_effects": lambda v: tuple(NumericEffect(**e) for e in v),
            "rate_effects": lambda v: tuple(RateEffect(**e) for e in v),
            "categorical_effects": lambda v: tuple(CategoricalEffect(**e) for e in v),
            "noise_level": float,
            "match_noise": float,
            "messages_per_match": float,
            "seed": _integer,
        }
        defaults = cls().to_json_dict()
        fields = {}
        for name, read in readers.items():
            try:
                fields[name] = read(doc.get(name, defaults[name]))
            except (TypeError, ValueError, AttributeError, OverflowError) as exc:
                raise ConfigError(f"field {name!r}: {exc}") from exc
        return cls(**fields)


# ---------------------------------------------------------------------------
# Noise calibration: population grade correlation of (code + sigma*Z, code)
# ---------------------------------------------------------------------------


def _normalized(priors: Sequence[float]) -> list[float]:
    total = float(sum(priors))
    return [p / total for p in priors]


def _grades(priors: Sequence[float]) -> list[float]:
    grades = []
    acc = 0.0
    for p in _normalized(priors):
        grades.append(acc + p / 2.0)
        acc += p
    return grades


def grade_correlation(sigma: float, priors: Sequence[float]) -> float:
    """Population Spearman between x = code + sigma*Z and the binned code.

    Uses average-rank grades for the discrete side; x is continuous, so its
    grade F(x) is uniform. All expectations reduce to normal CDFs.
    """
    priors = _normalized(priors)
    grades = _grades(priors)
    eg = sum(p * g for p, g in zip(priors, grades))
    var_g = sum(p * g * g for p, g in zip(priors, grades)) - eg * eg
    if var_g <= 0.0:
        raise ConfigError("degenerate priors: single class")
    # E[F(x) | a=k] = sum_j pi_j Phi((k - j) / (sigma * sqrt(2))), and
    # Phi(u) = erfc(-u / sqrt(2)) / 2, so the erfc argument carries 2*sigma.
    s = 2.0 * max(sigma, 1e-12)
    efg = 0.0
    for k, (pk, gk) in enumerate(zip(priors, grades)):
        inner = sum(pj * 0.5 * math.erfc(-((k - j) / s))
                    for j, pj in enumerate(priors))
        efg += pk * gk * inner
    return (efg - 0.5 * eg) / math.sqrt(var_g / 12.0)


def max_plantable_rho(priors: Sequence[float]) -> float:
    """Supremum of the grade correlation as the noise vanishes."""
    return grade_correlation(0.0, priors)


def calibrate_sigma(priors: Sequence[float], target_rho: float) -> float:
    """Noise scale whose grade correlation hits |target_rho| (bisection)."""
    target = abs(target_rho)
    ceiling = max_plantable_rho(priors)
    if target >= ceiling - 1e-9:
        raise ConfigError(
            f"target rho {target_rho} unreachable for these priors "
            f"(max {ceiling:.4f})")
    lo, hi = 1e-9, 1.0
    while grade_correlation(hi, priors) > target:
        hi *= 2.0
        if hi > 1e6:
            raise ConfigError("calibration failed to bracket the target")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if grade_correlation(mid, priors) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _log_uniform_weights(lo: int, hi: int) -> np.ndarray:
    values = np.arange(lo, hi + 1, dtype=float)
    weights = 1.0 / values
    return weights / weights.sum()


def _expected_inverse_matches(lo: int, hi: int) -> float:
    values = np.arange(lo, hi + 1, dtype=float)
    weights = _log_uniform_weights(lo, hi)
    return float((weights / values).sum())


def _grade_z(priors: Sequence[float], code: int) -> float:
    """Grade-based class coordinate in (-1, 1); bounded even for rare classes."""
    return 2.0 * _grades(priors)[code] - 1.0


# ---------------------------------------------------------------------------
# Population assembly
# ---------------------------------------------------------------------------


@dataclass
class SynthPopulation:
    players: list[PlayerRecord]
    matches: dict[int, MatchRecord]
    labels: dict[int, AttributeLabels]
    survey_rows: list[RawSurveyRow]
    manifest: dict


_AGE_RANGES = {"13-18": (13, 18), "19-24": (19, 24), "25-38": (25, 38)}
_BIG5_RANGES = {"low": (0, 33), "medium": (34, 66), "high": (67, 100)}
_WINDOW_END = 1_578_000_000  # fixed so corpora are reproducible
_WINDOW_DAYS = 30            # the trailing window every player document records


def _survey_row_for(handle: int, labels: AttributeLabels,
                    rng: np.random.Generator) -> RawSurveyRow:
    """Raw survey values that bin back to exactly these labels."""
    age_lo, age_hi = _AGE_RANGES[labels.age_bin]
    big5 = []
    for trait in ("openness", "conscientiousness", "extraversion",
                  "agreeableness", "neuroticism"):
        lo, hi = _BIG5_RANGES[getattr(labels, trait)]
        big5.append(int(rng.integers(lo, hi + 1)))
    purchase_code = {"never": 0, "rarely": 1, "regularly": 2}[labels.purchase_habits]
    if purchase_code == 2:
        purchase_code = int(rng.integers(2, 4))
    return RawSurveyRow(
        handle=handle,
        raw_gender=labels.gender,
        raw_age=int(rng.integers(age_lo, age_hi + 1)),
        raw_employment=labels.occupation == "yes",
        raw_purchase_frequency=purchase_code,
        big5_scores=tuple(big5),
        country="XX",
    )


def _prior_cdfs(priors: dict[str, tuple[float, ...]]) -> dict[str, np.ndarray]:
    return {attr: _cdf(_normalized(priors[attr])) for attr in ATTRIBUTE_SCHEMA}


def _draw_labels(cdfs: dict[str, np.ndarray],
                 rng: np.random.Generator) -> tuple[AttributeLabels, dict[str, int]]:
    values = {}
    codes = {}
    for attr, classes in ATTRIBUTE_SCHEMA.items():
        code = _draw(rng, cdfs[attr])
        codes[attr] = code
        values[attr] = classes[code]
    return AttributeLabels(**values), codes


def _cdf(probs: Sequence[float]) -> np.ndarray:
    """The cumulative table `rng.choice(..., p=probs)` searches."""
    cdf = np.asarray(probs, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(rng: np.random.Generator, cdf: np.ndarray) -> int:
    """`rng.choice(len(cdf), p=probs)` for `cdf = _cdf(probs)`: the same
    index from the same single uniform, without re-checking `probs` and
    rebuilding the table on every call."""
    return int(cdf.searchsorted(rng.random(), side="right"))


_LOBBY_TYPES = (0, 7)
_LOBBY_CDF = _cdf((0.4, 0.6))


def _pick(rng: np.random.Generator, seq: Sequence):
    """`rng.choice(seq)`: the same draw from the same stream, without turning
    `seq` into an array on every call."""
    return seq[int(rng.integers(0, len(seq)))]


def _message_text(category: Optional[str], lexicon_words: dict[str, tuple[str, ...]],
                  rng: np.random.Generator) -> str:
    vocab = lexicon_words[category] if category else NEUTRAL_VOCAB
    n_tokens = int(rng.integers(1, 4))
    return " ".join(str(_pick(rng, vocab)) for _ in range(n_tokens))


@dataclass(frozen=True)
class SynthPlan:
    """Everything known before any player is built: the validated config,
    the loaded tables, the planted channels, the draws of the population
    stream (each player's labels and match count), each player's first
    match id and the manifest. `_player(plan, p)` builds player p from the
    plan and p's own stream alone."""

    config: SynthConfig
    seqs: list                 # seqs[p + 1] seeds player p's stream
    lexicons: dict[str, tuple[str, ...]]
    hero_ids: list[int]
    female_pool: list[int]
    male_pool: list[int]
    general_wheels: list[str]
    hero_wheels: list[str]
    channel_plants: dict[str, dict]
    mix_effects: dict[str, RateEffect]
    rate_effects: dict[str, RateEffect]
    cat_effects: dict[str, CategoricalEffect]
    drawn: list[tuple[AttributeLabels, dict[str, int]]]
    n_matches: list[int]
    first_match_ids: list[int]
    manifest: dict


_FIRST_HANDLE = 1_000
_FIRST_MATCH_ID = 10_000


def plan_population(config: SynthConfig) -> SynthPlan:
    """The plan of a config's corpus; ConfigError when it cannot be built."""
    config.validate()
    seqs = np.random.SeedSequence(config.seed).spawn(config.n_players + 1)
    rng0 = np.random.default_rng(seqs[0])

    hero_table = load_hero_table()
    hero_ids = sorted(hero_table)
    wheel_catalog = load_wheel_catalog()

    e_inv_m = _expected_inverse_matches(*config.matches_range)
    sigma_table: dict[tuple[str, str], float] = {}
    channel_plants: dict[str, dict] = {}
    for i, eff in enumerate(config.numeric_effects):
        priors = config.priors[eff.attribute]
        try:
            sigma_total = calibrate_sigma(priors, eff.rho)
        except ConfigError as exc:
            raise ConfigError(f"numeric_effects[{i}]: {exc}") from None
        adj = sigma_total ** 2 - config.match_noise ** 2 * e_inv_m
        if adj <= 0.0:
            raise ConfigError(
                f"match_noise {config.match_noise} too large for target rho "
                f"{eff.rho} on {eff.feature}/{eff.attribute}")
        sigma_latent = math.sqrt(adj)
        sigma_table[(eff.feature, eff.attribute)] = sigma_latent
        codes_arr = np.arange(len(priors), dtype=float)
        probs = np.asarray(priors)
        code_mean = float(codes_arr @ probs)
        code_var = float((codes_arr ** 2) @ probs - code_mean ** 2)
        sign = 1.0 if eff.rho >= 0 else -1.0
        # Per-match values are re-centered and re-scaled so channel outputs
        # keep a stable marginal spread (rank statistics are scale-free).
        channel_plants[eff.feature] = {
            "attribute": eff.attribute,
            "sigma": sigma_latent,
            "sign": sign,
            "center": sign * code_mean,
            "scale": math.sqrt(code_var + adj + config.match_noise ** 2),
        }

    # Global draws happen up front so per-player work only touches its own
    # derived generator: a player's records do not depend on the others'.
    m_lo, m_hi = config.matches_range
    match_cdf = _cdf(_log_uniform_weights(m_lo, m_hi))
    prior_cdfs = _prior_cdfs(config.priors)
    drawn = [_draw_labels(prior_cdfs, rng0) for _ in range(config.n_players)]
    n_matches = [m_lo + _draw(rng0, match_cdf) for _ in range(config.n_players)]

    manifest = {
        "config": config.to_json_dict(),
        "sigma_table": {f"{f}|{a}": s for (f, a), s in sigma_table.items()},
        "expected_inverse_matches": e_inv_m,
        "n_matches": sum(n_matches),
        "attribute_counts": {
            attr: {cls: sum(1 for lab, _ in drawn if getattr(lab, attr) == cls)
                   for cls in ATTRIBUTE_SCHEMA[attr]}
            for attr in ATTRIBUTE_SCHEMA
        },
    }
    return SynthPlan(
        config=config,
        seqs=seqs,
        lexicons={lx.category: lx.words for lx in load_lexicons()},
        hero_ids=hero_ids,
        female_pool=[h for h in hero_ids if hero_table[h]["gender"] == "female"],
        male_pool=[h for h in hero_ids if hero_table[h]["gender"] == "male"],
        general_wheels=sorted(w for w in wheel_catalog if w.startswith("w_")),
        hero_wheels=sorted(w for w in wheel_catalog if w.startswith("hw_")),
        channel_plants=channel_plants,
        mix_effects={e.feature: e for e in config.rate_effects
                     if e.feature in MIX_CHANNELS},
        rate_effects={e.feature: e for e in config.rate_effects
                      if e.feature in RATE_CHANNELS},
        cat_effects={e.feature: e for e in config.categorical_effects},
        drawn=drawn,
        n_matches=n_matches,
        first_match_ids=list(itertools.accumulate(n_matches[:-1],
                                                  initial=_FIRST_MATCH_ID)),
        manifest=manifest,
    )


def _player(plan: SynthPlan, p: int) -> tuple[PlayerRecord, list[MatchRecord],
                                              RawSurveyRow]:
    """Player p's record, matches and survey row, from the plan and p's own
    stream; every match has passed `parse_match`."""
    config = plan.config
    handle = _FIRST_HANDLE + p
    rng = np.random.default_rng(plan.seqs[p + 1])
    player_labels, codes = plan.drawn[p]
    survey_row = _survey_row_for(handle, player_labels, rng)

    # Per-player latents for planted numeric channels.
    latents: dict[str, float] = {}
    for name, plant in plan.channel_plants.items():
        code = codes[plant["attribute"]]
        latents[name] = (plant["sign"] * code
                         + plant["sigma"] * rng.standard_normal())

    # Per-player tilt coordinates for mix/rate channels.
    zs: dict[str, float] = {}
    for name, eff in {**plan.mix_effects, **plan.rate_effects}.items():
        z = _grade_z(config.priors[eff.attribute], codes[eff.attribute])
        zs[name] = eff.slope * (z + config.noise_level * 0.3
                                * rng.standard_normal())

    # Categorical channels.
    has_plus = bool(rng.random() < 0.3)
    if "has_plus" in plan.cat_effects:
        eff = plan.cat_effects["has_plus"]
        if rng.random() < eff.strength:
            positive = ATTRIBUTE_SCHEMA[eff.attribute].index(
                getattr(player_labels, eff.attribute)) == len(
                    ATTRIBUTE_SCHEMA[eff.attribute]) - 1
            has_plus = positive

    start_times = sorted(
        int(_WINDOW_END - rng.integers(0, _WINDOW_DAYS * 86400))
        for _ in range(plan.n_matches[p]))

    mix_base = {cat: 1.0 for cat in LEXICON_CATEGORIES}
    mix_base["neutral"] = 4.0
    for name in plan.mix_effects:
        cat = name[len("chat_"):-len("_count")]
        mix_base[cat] = math.exp(zs[name])
    mix_names = list(mix_base)
    mix_probs = np.array([mix_base[c] for c in mix_names])
    mix_cdf = _cdf(mix_probs / mix_probs.sum())

    first = plan.first_match_ids[p]
    matches = [_synth_match(plan, first + i, start_time, handle, player_labels,
                            latents, zs, mix_names, mix_cdf, rng)
               for i, start_time in enumerate(start_times)]

    rank_tier = int(rng.integers(10, 80))
    record = PlayerRecord(handle=handle, rank_tier=rank_tier, has_plus=has_plus,
                          match_ids=tuple(range(first, first + len(matches))))
    return record, matches, survey_row


def generate_population(config: SynthConfig) -> SynthPopulation:
    """The full synthetic corpus in memory, bit-identical per config: the
    plan, then every player in order. `aia synth` builds the same players
    one by one and writes them as it goes (`write_player`); this is the
    in-memory reference it is tested against."""
    plan = plan_population(config)
    players: list[PlayerRecord] = []
    matches: dict[int, MatchRecord] = {}
    survey_rows: list[RawSurveyRow] = []
    for p in range(config.n_players):
        record, player_matches, survey_row = _player(plan, p)
        players.append(record)
        matches.update((match.match_id, match) for match in player_matches)
        survey_rows.append(survey_row)
    labels = {_FIRST_HANDLE + p: player_labels
              for p, (player_labels, _) in enumerate(plan.drawn)}
    return SynthPopulation(players=players, matches=matches, labels=labels,
                           survey_rows=survey_rows, manifest=plan.manifest)


def _channel_value(plan: SynthPlan, name: str, latents: dict[str, float],
                   rng: np.random.Generator) -> float:
    base, spread, integer, floor = NUMERIC_CHANNELS[name]
    plant = plan.channel_plants.get(name)
    if plant is not None:
        x = latents[name] + plan.config.match_noise * rng.standard_normal()
        unit = (x - plant["center"]) / plant["scale"]
    else:
        unit = rng.standard_normal()
    value = max(floor, base + spread * unit)
    return float(round(value)) if integer else float(value)


def _synth_match(plan: SynthPlan, match_id, start_time, handle, player_labels,
                 latents, zs, mix_names, mix_cdf, rng) -> MatchRecord:
    lexicons, hero_ids = plan.lexicons, plan.hero_ids
    position = int(rng.integers(0, 10))
    slot = position if position < 5 else position + 123
    is_radiant = position < 5

    def channel(name):
        return _channel_value(plan, name, latents, rng)

    duration = channel("duration_s")
    kills = channel("kills")
    deaths = channel("deaths")
    assists = channel("assists")
    denies = channel("denies")
    last_hits = channel("last_hits")
    price = channel("cosmetics_price")
    first_blood = channel("first_blood_time")

    # Hero pick, optionally biased toward gender-matched heroes.
    pool = hero_ids
    if "hero_gender" in plan.cat_effects:
        eff = plan.cat_effects["hero_gender"]
        if rng.random() < eff.strength:
            pool = (plan.female_pool if player_labels.gender == "female"
                    else plan.male_pool)
    hero_id = int(_pick(rng, pool))

    # Own chat: fixed message budget, planted content mix.
    n_msgs = int(rng.poisson(plan.config.messages_per_match))
    chat = []
    my_words: dict[str, int] = {}
    all_words: dict[str, int] = {}
    for _ in range(n_msgs):
        cat = mix_names[_draw(rng, mix_cdf)]
        text = _message_text(None if cat == "neutral" else cat, lexicons, rng)
        chat.append({"slot": slot, "time": float(rng.integers(0, int(duration))),
                     "type": "chat", "channel": "global", "key": text})
        for token in text.split():
            my_words[token] = my_words.get(token, 0) + 1
            all_words[token] = all_words.get(token, 0) + 1

    # Wheel usage, sounds, sprays.
    for channel_name, channel, ids in (
            ("wheel_global_msgs", "global", plan.general_wheels),
            ("wheel_team_msgs", "team", plan.general_wheels)):
        base_rate = 0.6
        rate = base_rate * math.exp(zs.get(channel_name, 0.0))
        for _ in range(int(rng.poisson(rate))):
            chat.append({"slot": slot, "time": float(rng.integers(0, int(duration))),
                         "type": "chatwheel", "channel": channel,
                         "key": str(_pick(rng, ids))})
    hero_rate = 0.4 * math.exp(zs.get("hero_msg_count", 0.0))
    for _ in range(int(rng.poisson(hero_rate))):
        chat.append({"slot": slot, "time": float(rng.integers(0, int(duration))),
                     "type": "chatwheel_hero", "channel": "team",
                     "key": str(_pick(rng, plan.hero_wheels))})
    for kind in ("sound", "spray"):
        for _ in range(int(rng.poisson(0.2))):
            chat.append({"slot": slot, "time": float(rng.integers(0, int(duration))),
                         "type": kind, "channel": "global", "key": f"{kind}_x"})

    # Other nine slots: anonymous filler with a little neutral chatter.
    players_doc = []
    for s in range(10):
        other_slot = s if s < 5 else s + 123
        if other_slot == slot:
            players_doc.append({
                "player_slot": slot, "account_id": handle, "hero_id": hero_id,
                "kills": int(kills), "deaths": int(deaths), "assists": int(assists),
                "denies": int(denies), "last_hits": int(last_hits),
                "isRadiant": is_radiant, "word_counts": my_words,
            })
            continue
        players_doc.append({
            "player_slot": other_slot, "account_id": None,
            "hero_id": int(_pick(rng, hero_ids)),
            "kills": int(rng.integers(0, 15)), "deaths": int(rng.integers(0, 15)),
            "assists": int(rng.integers(0, 20)), "denies": int(rng.integers(0, 10)),
            "last_hits": int(rng.integers(0, 300)), "isRadiant": s < 5,
            "word_counts": {},
        })
        if rng.random() < 0.5:
            text = _message_text(None, lexicons, rng)
            chat.append({"slot": other_slot,
                         "time": float(rng.integers(0, int(duration))),
                         "type": "chat", "channel": "global", "key": text})
            for token in text.split():
                all_words[token] = all_words.get(token, 0) + 1

    chat.sort(key=lambda m: (m["time"], m["slot"], m["key"]))

    objectives = [{"type": "kill", "slot": slot,
                   "time": int(rng.integers(0, int(duration)))}
                  for _ in range(min(int(kills), 4))]

    radiant_score = int(rng.integers(10, 60))
    dire_score = int(rng.integers(10, 60))
    doc = {
        "match_id": match_id,
        "duration": int(duration),
        "start_time": int(start_time),
        "game_mode": int(_pick(rng, [1, 2, 22])),
        "lobby_type": _LOBBY_TYPES[_draw(rng, _LOBBY_CDF)],
        "region": int(_pick(rng, [1, 3, 8])),
        "patch": int(_pick(rng, [42, 43])),
        "skill": int(_pick(rng, [1, 2, 3])),
        "radiant_win": bool(rng.random() < 0.5),
        "radiant_score": radiant_score,
        "dire_score": dire_score,
        "tower_status_radiant": int(rng.integers(0, 2047)),
        "tower_status_dire": int(rng.integers(0, 2047)),
        "barracks_status_radiant": int(rng.integers(0, 63)),
        "barracks_status_dire": int(rng.integers(0, 63)),
        "first_blood_time": int(first_blood),
        "human_players": 10,
        "throw": float(round(rng.uniform(0, 3000), 1)),
        "comeback": float(round(rng.uniform(0, 3000), 1)),
        "loss": float(round(rng.uniform(0, 3000), 1)),
        "win": float(round(rng.uniform(0, 3000), 1)),
        "chat": chat,
        "cosmetics": ([{"item_id": int(rng.integers(1, 500)),
                        "owner_slot": slot, "price": round(price, 2)}]
                      if price > 0 else []),
        "players": players_doc,
        "objectives": objectives,
        "teamfights": [],
        "picks_bans": [],
        "draft_timings": [],
        "radiant_gold_adv": [float(v) for v in
                             np.round(rng.normal(0, 500, 3), 1)],
        "radiant_xp_adv": [float(v) for v in
                           np.round(rng.normal(0, 500, 3), 1)],
        "all_word_counts": all_words,
    }
    # Through the parser's checks so every corpus obeys ingest invariants.
    return parse_match(doc)


# ---------------------------------------------------------------------------
# Cache emission (same layout as ingestion) and survey output
# ---------------------------------------------------------------------------


def _write_player(cache_dir: Path, player: PlayerRecord,
                  matches: Sequence[MatchRecord]) -> None:
    """A player's cache file, then the files of their matches."""
    doc = {
        "window_days": _WINDOW_DAYS,
        "profile": {"profile": {"account_id": player.handle},
                    "rank_tier": player.rank_tier, "plus": player.has_plus},
        "matches": [{"match_id": mid} for mid in player.match_ids],
    }
    atomic_write(player_cache_path(cache_dir, player.handle),
                 json.dumps(doc, sort_keys=True).encode("utf-8"))
    for record in matches:
        atomic_write(match_cache_path(cache_dir, record.match_id),
                     serialize_match(record))


def write_player(plan: SynthPlan, cache_dir: str | Path, p: int) -> RawSurveyRow:
    """Build player p and write their files to the cache; their survey row.
    The player files of a plan are disjoint, so players can be written by
    separate processes."""
    player, matches, survey_row = _player(plan, p)
    _write_player(Path(cache_dir), player, matches)
    return survey_row


def write_manifest(manifest: dict, cache_dir: str | Path) -> None:
    atomic_write(Path(cache_dir) / "manifest.json",
                 (json.dumps(manifest, indent=2, sort_keys=True)
                  + "\n").encode("utf-8"))


def write_population_cache(population: SynthPopulation,
                           cache_dir: str | Path) -> None:
    """The cache `aia synth` writes, from an in-memory population: the
    reference for `write_player` and `write_manifest`."""
    cache_dir = Path(cache_dir)
    for player in population.players:
        _write_player(cache_dir, player,
                      [population.matches[mid] for mid in player.match_ids])
    write_manifest(population.manifest, cache_dir)


def write_survey_csv(survey_rows: Sequence[RawSurveyRow], path: str | Path) -> None:
    import csv

    from .attributes import SURVEY_COLUMNS

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SURVEY_COLUMNS)
        for row in survey_rows:
            writer.writerow([
                row.handle, row.raw_gender, row.raw_age,
                "yes" if row.raw_employment else "no",
                row.raw_purchase_frequency,
                *row.big5_scores, row.country,
            ])


# ---------------------------------------------------------------------------
# The committed regression fixture
# ---------------------------------------------------------------------------

FIXTURE_PRIORS: dict[str, tuple[float, ...]] = {
    "gender": (0.12, 0.88),
    "age_bin": (0.30, 0.40, 0.30),
    "occupation": (0.50, 0.50),
    "purchase_habits": (0.20, 0.50, 0.30),
    "openness": (0.34, 0.33, 0.33),
    "conscientiousness": (0.34, 0.33, 0.33),
    "extraversion": (0.34, 0.33, 0.33),
    "agreeableness": (0.34, 0.33, 0.33),
    "neuroticism": (0.34, 0.33, 0.33),
}

# Strong planted signals for protocol exercises. The one-match comparison
# leans on occupation, whose signal lives only in expert (augmentation)
# columns; age carries both aggregate and chat signal for the targeted
# "very young" subgroup.
FIXTURE_CONFIG = SynthConfig(
    n_players=50,
    matches_range=(8, 30),
    priors=FIXTURE_PRIORS,
    numeric_effects=(
        NumericEffect("kills", "age_bin", -0.70),
        NumericEffect("cosmetics_price", "purchase_habits", 0.75),
        NumericEffect("denies", "conscientiousness", 0.60),
        NumericEffect("deaths", "neuroticism", 0.55),
    ),
    rate_effects=(
        RateEffect("wheel_team_msgs", "occupation", 2.0),
        RateEffect("hero_msg_count", "occupation", 1.8),
        RateEffect("chat_slang_count", "age_bin", -3.5),
        RateEffect("chat_provocative_count", "age_bin", -3.0),
        RateEffect("wheel_global_msgs", "extraversion", 1.2),
    ),
    messages_per_match=6.0,
    categorical_effects=(
        CategoricalEffect("hero_gender", "gender", 0.8),
        CategoricalEffect("has_plus", "occupation", 0.7),
    ),
    noise_level=0.3,
    match_noise=0.9,
    seed=20_201_217,
)
