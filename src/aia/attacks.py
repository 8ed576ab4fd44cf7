"""The attack protocols and their reports.

Five protocols share one discipline: players never straddle the
train/test boundary (checked at runtime on every split), all randomness
descends from (master seed, unit index) so a report does not depend on
the order its units run in, and a stratified dummy baseline rides along
wherever models are compared. Every protocol splits its independent units
((attribute, outer fold) in simple, (run, attribute) in one-match, repeats
in targeted) into one contiguous shard per CPU, each trained by a forked
worker (`workers.map_units`); results merge in unit order, so a report
does not depend on the CPU count.

The post-processing protocols average per-match class probabilities
through one kernel, `_draw_means` (prefix means of uniform permutations),
drawing from one generator per (run, attribute), or per repeat in targeted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import models as m
from . import workers
from .attributes import ATTRIBUTE_SCHEMA, AttributeLabels
from .errors import AttributeArity, NoPositives, OutOfRange, PlayerOverlap, SchemaError
from .matrix import FeatureMatrix
from .metrics import macro_f1

# Compact grids keep desk-scale runs inside their time budgets; every
# report records the grids it ran.
DESK_GRIDS: dict[str, dict[str, list]] = {
    "logistic_regression": {"l2": [0.1, 1.0]},
    "decision_tree": {"max_depth": [3, 10], "min_leaf": [1, 5]},
    "random_forest": {"n_trees": [60], "max_depth": [None], "min_leaf": [1]},
    "mlp": {"hidden": [32], "lr": [1e-2]},
    "dummy_stratified": {},
}

# Fixed settings. Simple and one-match reports record the ones they use in
# their config; the targeted report records its algorithms and thresholds.
MAX_FEATURES = 12
INNER_FOLDS = 3        # grid-search folds inside each simple outer fold
TEST_FRACTION = 0.20   # players held out for test
VAL_FRACTION = 0.10    # of the remainder, held out for validation
TARGETED_ALGORITHMS = ("random_forest",)
# The decision thresholds `targeted` tries on its validation players.
THRESHOLDS = tuple(np.round(np.arange(0.10, 0.96, 0.05), 2))


# ---------------------------------------------------------------------------
# Report container
# ---------------------------------------------------------------------------


@dataclass
class AttackReport:
    protocol: str
    metric_tables: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    flags: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "metric_tables": self.metric_tables,
            "curves": self.curves,
            "config": self.config,
            "flags": sorted(self.flags),
        }


def _mean_std(values: Sequence[float]) -> dict:
    arr = np.asarray(list(values), dtype=float)
    return {"mean": float(arr.mean()), "std": float(arr.std()),
            "n_runs": int(arr.size)}


def _check_disjoint(train_players: Sequence[int], test_players: Sequence[int],
                    context: str) -> None:
    overlap = set(train_players) & set(test_players)
    if overlap:
        raise PlayerOverlap(f"{context}: players straddle the split: "
                            f"{sorted(overlap)[:5]}")


def _rng(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


def _unit_seed(*entropy: int) -> int:
    """Process-stable integer seed derived from unit coordinates."""
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


_ATTR_INDEX = {name: i for i, name in enumerate(ATTRIBUTE_SCHEMA)}
# The attributes the indiscriminate (top-2) protocol can score.
TOP2_ATTRIBUTES = tuple(a for a in ATTRIBUTE_SCHEMA if len(ATTRIBUTE_SCHEMA[a]) >= 3)


def _attr_labels(labels: dict[int, AttributeLabels], owners: Sequence[int],
                 attribute: str) -> list[str]:
    return [getattr(labels[o], attribute) for o in owners]


def _rows_of(matrix: FeatureMatrix, players: Sequence[int]) -> list[int]:
    """Ascending row positions of the given players."""
    owner_rows = matrix.owner_rows
    return sorted(i for p in players for i in owner_rows[p])


def check_averaging(ns: Sequence[int], draws: int) -> None:
    """OutOfRange unless draws >= 1 and `ns` holds at least one n, each
    >= 1; the averaging protocols check before they train or predict."""
    ns = [int(n) for n in ns]
    if draws < 1 or not ns or min(ns) < 1:
        raise OutOfRange(f"averaging needs draws >= 1 and at least one n, "
                         f"every n >= 1, got draws={draws}, n={ns}")


def _draw_means(block: np.ndarray, ns: Sequence[int], draws: int,
                rng: np.random.Generator) -> np.ndarray:
    """(draws, len(ns), K) means of n rows of a probability block drawn
    without replacement: the first n rows of one uniform permutation per
    draw, all n from one cumulative sum. n at or past the block's length
    gives the whole block's mean and spends no draw."""
    check_averaging(ns, draws)
    ns = np.asarray(ns, dtype=int)
    full = ns >= len(block)
    means = np.empty((draws, len(ns), block.shape[1]))
    means[:, full] = block.mean(axis=0)
    if not full.all():
        part = ns[~full]
        perms = rng.permuted(np.tile(np.arange(len(block)), (draws, 1)), axis=1)
        means[:, ~full] = np.cumsum(block[perms], axis=1)[:, part - 1] / part[:, None]
    return means


def _held_out(n: int, fraction: float) -> int:
    """How many of n players to hold out: `fraction` of them, rounded, but at
    least one from three players up, so small classes reach every split,
    and never all of them."""
    k = round(fraction * n) if n >= 2 else 0
    return min(max(k, 1) if n >= 3 else k, n - 1)


def _stratified_player_split(players: Sequence[int], y_by_player: dict[int, str],
                             rng: np.random.Generator):
    """Split players (not rows) into train/val/test, stratified by label:
    TEST_FRACTION of each class for test, then VAL_FRACTION of the rest
    for validation, mirroring a "reserve 10% of the training set for
    validation" convention.
    """
    by_class: dict[str, list[int]] = {}
    for player in players:
        by_class.setdefault(y_by_player[player], []).append(player)
    train: list[int] = []
    val: list[int] = []
    test: list[int] = []
    for cls in sorted(by_class):
        members = sorted(by_class[cls])
        members = [members[i] for i in rng.permutation(len(members))]
        n_test = _held_out(len(members), TEST_FRACTION)
        remainder = members[n_test:]
        test.extend(members[:n_test])
        n_val = _held_out(len(remainder), VAL_FRACTION)
        val.extend(remainder[:n_val])
        train.extend(remainder[n_val:])
    _check_disjoint(train, test, "player split")
    _check_disjoint(train, val, "player split")
    _check_disjoint(val, test, "player split")
    return sorted(train), sorted(val), sorted(test)


# ---------------------------------------------------------------------------
# Simple protocol: per-player aggregates under nested stratified CV
# ---------------------------------------------------------------------------


def simple_aia(P: FeatureMatrix, labels: dict[int, AttributeLabels],
               algorithms: Sequence[str] = m.ALGORITHMS, seed: int = 0,
               outer_folds: int = 10, grids: dict | None = None,
               resample: bool = True,
               attributes: Sequence[str] | None = None) -> AttackReport:
    """Nested stratified cross-validation over the per-player table.

    Outer folds score macro F1; the inner loop does feature selection, grid
    search, and resampling on training rows only.
    """
    if P.variant != "P":
        raise SchemaError(f"simple_aia expects variant P, got {P.variant}")
    grids = grids or DESK_GRIDS
    attrs = list(attributes) if attributes is not None else list(ATTRIBUTE_SCHEMA)
    report = AttackReport(protocol="simple", config={
        "seed": seed, "outer_folds": outer_folds, "inner_folds": INNER_FOLDS,
        "grids": grids, "max_features": MAX_FEATURES, "resample": resample,
        "algorithms": list(algorithms), "column_hash": P.column_hash(),
    })

    def units():
        """Each outer fold of each attribute to score: (attribute index,
        attribute, its classes, its labels by row, fold index, held-out rows)."""
        for ai, attribute in enumerate(attrs):
            classes = list(ATTRIBUTE_SCHEMA[attribute])
            y = _attr_labels(labels, P.row_owner, attribute)
            counts = {c: y.count(c) for c in classes if y.count(c) > 0}
            if len(counts) < 2:
                report.flags.append(f"skipped:{attribute}:single_class")
                continue
            min_count = min(counts.values())
            k = max(2, min(outer_folds, min_count))
            if k < outer_folds:
                report.flags.append(f"reduced_folds:{attribute}:{k}")
            for fi, fold in enumerate(m.stratified_folds(y, k, _rng(seed, ai, 0),
                                                         classes)):
                yield ai, attribute, classes, y, fi, fold

    def fold_scores(unit) -> tuple[str, list[float]]:
        """The attribute and each algorithm's macro F1 on one outer fold."""
        ai, attribute, classes, y, fi, fold = unit
        held_out = set(fold)
        train_rows = [i for i in range(P.n_rows) if i not in held_out]
        _check_disjoint([P.row_owner[i] for i in train_rows],
                        [P.row_owner[i] for i in fold],
                        f"simple:{attribute}")
        y_train = [y[i] for i in train_rows]
        y_test = [y[i] for i in fold]
        selected = m.select_features(P, train_rows, y_train, MAX_FEATURES,
                                     classes)
        prepared = m.prepare(P, train_rows, y_train, classes, selected,
                             resample)
        scores = []
        for gi, algorithm in enumerate(algorithms):
            unit_seed = _unit_seed(seed, ai, gi, fi)
            best = m.grid_search(algorithm, grids.get(algorithm, {}),
                                 P, train_rows, y_train,
                                 inner_folds=INNER_FOLDS, seed=unit_seed,
                                 classes=classes, selected=selected,
                                 resample=resample)
            model = m.fit_prepared(algorithm, prepared, best, unit_seed)
            scores.append(macro_f1(y_test, m.predict(model, P, fold), classes))
        return attribute, scores

    by_attribute: dict[str, list[list[float]]] = {}
    for attribute, scores in workers.map_units(fold_scores, units()):
        by_attribute.setdefault(attribute, []).append(scores)
    for attribute, folds in by_attribute.items():
        report.metric_tables[attribute] = {
            alg: _mean_std([scores[gi] for scores in folds])
            for gi, alg in enumerate(algorithms)}
    return report


# ---------------------------------------------------------------------------
# One-match protocol: per-match rows, split by unique player
# ---------------------------------------------------------------------------


@dataclass
class OneMatchRun:
    """Artifacts of one variant run, reused by the post-processing attacks.

    Splits are per attribute (each attribute stratifies its own player
    split), so downstream consumers must pair a test player's probability
    block with its own attribute's split.
    """

    # attribute -> {test player: per-match class probabilities (`_prob_blocks`)}
    blocks: dict[str, dict[int, np.ndarray]]
    splits: dict[str, tuple[list[int], list[int], list[int]]]

    def test_players(self, attribute: str) -> list[int]:
        return self.splits[attribute][2]

    def train_players(self, attribute: str) -> list[int]:
        return self.splits[attribute][0]


def one_match_aia(variants: Sequence[FeatureMatrix],
                  labels: dict[int, AttributeLabels],
                  algorithms: Sequence[str] = m.ALGORITHMS, seed: int = 0,
                  grids: dict | None = None,
                  resample: bool = True,
                  keep_models: str | None = None,
                  attributes: Sequence[str] | None = None
                  ) -> tuple[AttackReport, list[OneMatchRun]]:
    """80:20 split on unique players, 10% of the remainder for validation.

    One run per matrix of `variants`, its split seeded by its position:
    the distilled variants, or one per-match matrix repeated for reseeded
    splits. `keep_models` names the algorithm whose per-attribute models'
    test-player probability blocks are kept for the post-processing
    protocols.
    """
    grids = grids or DESK_GRIDS
    attrs = list(attributes) if attributes is not None else list(ATTRIBUTE_SCHEMA)

    report = AttackReport(protocol="one_match", config={
        "seed": seed, "test_fraction": TEST_FRACTION,
        "val_fraction": VAL_FRACTION, "grids": grids,
        "max_features": MAX_FEATURES, "resample": resample,
        "algorithms": list(algorithms), "n_runs": len(variants),
        "variant_seeds": [v.variant_seed for v in variants],
    })

    def run_attribute(unit):
        """One attribute of one run: its split, each algorithm's macro F1 on
        the test players, and the kept model's test-player blocks."""
        ri, attribute = unit
        matrix = variants[ri]
        players = matrix.owners()
        ai = _ATTR_INDEX[attribute]
        classes = list(ATTRIBUTE_SCHEMA[attribute])
        y_by_player = {p: getattr(labels[p], attribute) for p in players}
        split = _stratified_player_split(players, y_by_player,
                                         _rng(seed, ri, 1, ai))
        train_rows, val_rows, test_rows = (_rows_of(matrix, part)
                                           for part in split)
        y_rows = _attr_labels(labels, matrix.row_owner, attribute)
        y_train = [y_rows[i] for i in train_rows]
        y_val = [y_rows[i] for i in val_rows]
        y_test = [y_rows[i] for i in test_rows]
        selected = m.select_features(matrix, train_rows, y_train,
                                     MAX_FEATURES, classes)
        prepared = m.prepare(matrix, train_rows, y_train, classes,
                             selected, resample)

        def val_score(models: list[m.TrainedModel]) -> tuple[float, None]:
            val_pred = m.predict(models[0], matrix, val_rows)
            return macro_f1(y_val, val_pred, classes), None

        run_seed = _unit_seed(seed, ri)
        scores, blocks = [], None
        for gi, algorithm in enumerate(algorithms):
            unit_seed = _unit_seed(run_seed, ai, gi)
            candidates = m._expand_grid(grids.get(algorithm, {}))
            if len(candidates) == 1 or not val_rows:
                model = m.fit_prepared(algorithm, prepared, candidates[0],
                                       unit_seed)
            else:
                _, (model,), _ = m.select_best(
                    [(algorithm, c, unit_seed) for c in candidates],
                    [prepared], val_score)
            y_pred = m.predict(model, matrix, test_rows)
            scores.append(macro_f1(y_test, y_pred, classes))
            if keep_models == algorithm:
                blocks = _prob_blocks(model, matrix, split[2])
        return split, scores, blocks

    # Each (run, attribute) is one unit; results merge in unit order.
    results = workers.map_units(run_attribute, [
        (ri, attribute) for ri in range(len(variants)) for attribute in attrs])
    n = len(attrs)
    per_run = [dict(zip(attrs, results[ri * n:(ri + 1) * n]))
               for ri in range(len(variants))]
    for attribute in attrs:
        report.metric_tables[attribute] = {
            alg: _mean_std([run[attribute][1][gi] for run in per_run])
            for gi, alg in enumerate(algorithms)}
    if keep_models is None:
        return report, []
    return report, [OneMatchRun(
        blocks={a: blocks for a, (_, _, blocks) in run.items() if blocks is not None},
        splits={a: split for a, (split, _, _) in run.items()})
        for run in per_run]


# ---------------------------------------------------------------------------
# Post-processing protocols over per-player match sets
# ---------------------------------------------------------------------------


def average_probabilities(vectors: Sequence[Sequence[float]]) -> np.ndarray:
    """Componentwise mean of class-probability vectors."""
    arr = np.asarray(vectors, dtype=float)
    return arr.mean(axis=0)


def _prob_blocks(model: m.TrainedModel, matrix: FeatureMatrix,
                 players: Sequence[int]) -> dict[int, np.ndarray]:
    """Each player's per-match class probabilities, from one predict_proba
    call over all their rows."""
    rows = [matrix.owner_rows[p] for p in players]
    probs = m.predict_proba(model, matrix, [i for r in rows for i in r])
    cuts = np.cumsum([len(r) for r in rows])[:-1]
    return dict(zip(players, np.split(probs, cuts)))


def _test_means(protocol: str, runs: Sequence[OneMatchRun], attribute: str,
                labels: dict[int, AttributeLabels], ns: Sequence[int],
                draws: int, seed: int, stream: int):
    """Per run, (true class index, `_draw_means`) of each test player; one
    generator per (run, attribute), `stream` keeping protocols apart."""
    classes = list(ATTRIBUTE_SCHEMA[attribute])
    for ri, run in enumerate(runs):
        test_p = run.test_players(attribute)
        _check_disjoint(run.train_players(attribute), test_p,
                        f"{protocol}:{attribute}")
        rng = _rng(seed, ri, _ATTR_INDEX[attribute], stream)
        yield [(classes.index(getattr(labels[p], attribute)),
                _draw_means(block, ns, draws, rng))
               for p, block in run.blocks[attribute].items()]


def sophisticated_aia(runs: Sequence[OneMatchRun],
                      labels: dict[int, AttributeLabels],
                      n_sweep: Sequence[int] = tuple(range(1, 31)),
                      draws: int = 100, seed: int = 0,
                      attributes: Sequence[str] | None = None,
                      headline_excludes: Sequence[str] = ("gender",)
                      ) -> AttackReport:
    """Accuracy as a function of how many matches are averaged per player."""
    check_averaging(n_sweep, draws)
    attrs = [a for a in (attributes or ATTRIBUTE_SCHEMA)
             if a in runs[0].blocks]
    report = AttackReport(protocol="sophisticated", config={
        "seed": seed, "n_sweep": list(n_sweep), "draws": draws,
        "n_runs": len(runs),
    })
    for excluded in headline_excludes:
        if excluded in attrs:
            report.flags.append(f"headline_excludes:{excluded}")

    for attribute in attrs:
        values: dict[int, list[float]] = {n: [] for n in n_sweep}
        for players in _test_means("sophisticated", runs, attribute, labels,
                                   n_sweep, draws, seed, stream=5):
            correct = sum(avg.argmax(axis=2) == truth for truth, avg in players)
            for j, n in enumerate(n_sweep):
                values[n].extend(correct[:, j] / len(players))
        report.curves[attribute] = [{"n": n, **_mean_std(values[n])}
                                    for n in n_sweep]
    return report


def indiscriminate_aia(runs: Sequence[OneMatchRun],
                       labels: dict[int, AttributeLabels], n: int = 30,
                       draws: int = 100, seed: int = 0,
                       attributes: Sequence[str] | None = None) -> AttackReport:
    """Top-2 protocol: success when the true class ranks first or second.

    Only attributes with three or more classes are eligible; asking for a
    binary attribute is an arity error.
    """
    check_averaging([n], draws)
    if attributes is None:
        attrs = [a for a in TOP2_ATTRIBUTES if a in runs[0].blocks]
    else:
        for a in attributes:
            if len(ATTRIBUTE_SCHEMA[a]) < 3:
                raise AttributeArity(f"{a} has only {len(ATTRIBUTE_SCHEMA[a])}"
                                     " classes; top-2 needs at least 3")
        attrs = list(attributes)
    report = AttackReport(protocol="indiscriminate", config={
        "seed": seed, "n": n, "draws": draws, "n_runs": len(runs),
    })
    for attribute in attrs:
        top1_scores: list[float] = []
        top2_scores: list[float] = []
        for players in _test_means("indiscriminate", runs, attribute, labels,
                                   [n], draws, seed, stream=6):
            hits = [np.argsort(-avg[:, 0], axis=1, kind="stable")[:, :2] == truth
                    for truth, avg in players]
            top1_scores.extend(sum(hit[:, 0] for hit in hits) / len(hits))
            top2_scores.extend(sum(hit.any(axis=1) for hit in hits) / len(hits))
        t1, t2 = _mean_std(top1_scores), _mean_std(top2_scores)
        report.metric_tables[attribute] = {
            "top1": t1, "top2": t2, "improvement": t2["mean"] - t1["mean"]}
    return report


# ---------------------------------------------------------------------------
# Targeted protocol: precision-first binary detection of a subgroup
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetSpec:
    """Conjunction of (attribute, accepted classes) clauses."""

    name: str
    clauses: tuple[tuple[str, frozenset[str]], ...]

    def __post_init__(self):
        if not self.clauses:
            raise ValueError("target needs at least one clause")
        for attribute, accepted in self.clauses:
            schema = ATTRIBUTE_SCHEMA.get(attribute)
            if schema is None:
                raise ValueError(f"unknown attribute {attribute!r}")
            unknown = set(accepted) - set(schema)
            if unknown:
                raise ValueError(f"unknown classes for {attribute}: {unknown}")

    def matches(self, labels: AttributeLabels) -> bool:
        return all(getattr(labels, attribute) in accepted
                   for attribute, accepted in self.clauses)


BUILTIN_TARGETS: dict[str, TargetSpec] = {
    "very_young": TargetSpec("very_young", (("age_bin", frozenset({"13-18"})),)),
    "purchasers": TargetSpec("purchasers", (
        ("purchase_habits", frozenset({"rarely", "regularly"})),)),
    "introverts": TargetSpec("introverts", (("extraversion", frozenset({"low"})),)),
    "purchasers_and_workers": TargetSpec("purchasers_and_workers", (
        ("occupation", frozenset({"yes"})),
        ("purchase_habits", frozenset({"rarely", "regularly"})),)),
}


def _precision_recall(called: np.ndarray, positive: np.ndarray):
    """Precision and recall of boolean positive calls, players along axis 0,
    against each player's truth `positive`; precision is 0 where nothing is
    called. Every split holds a positive, so recall is always defined."""
    hits = called[positive].sum(axis=0)
    n_called = called.sum(axis=0)
    precision = np.divide(hits, n_called, out=np.zeros(hits.shape),
                          where=n_called > 0)
    return precision, hits / positive.sum()


def targeted_aia(target: TargetSpec, variants: Sequence[FeatureMatrix],
                 labels: dict[int, AttributeLabels],
                 n_sweep: Sequence[int] = tuple(range(1, 31)),
                 repeats: int = 5, draws: int = 20, seed: int = 0,
                 grids: dict | None = None) -> AttackReport:
    """Binary, precision-optimized detection of one subgroup.

    Everyone outside the target conjunction collapses into the negative
    class. Model and decision threshold are chosen on held-out validation
    players to maximize precision subject to at least one predicted
    positive; precision drives both choices. Curves report precision and
    recall per number of averaged matches on disjoint test players.
    """
    if repeats < 1:
        raise OutOfRange(f"repeats must be at least 1, got {repeats}")
    check_averaging(n_sweep, draws)
    grids = grids or DESK_GRIDS
    classes = ["negative", "positive"]
    report = AttackReport(protocol="targeted", config={
        "target": target.name,
        "clauses": [[a, sorted(c)] for a, c in target.clauses],
        "seed": seed, "repeats": repeats, "draws": draws,
        "n_sweep": list(n_sweep), "algorithms": list(TARGETED_ALGORITHMS),
        "grids": grids, "thresholds": [float(t) for t in THRESHOLDS],
        "selected": [],
    })

    def splits():
        """Each repeat's matrix, labels by player and player split, every
        part of which holds a positive."""
        for rep in range(repeats):
            matrix = variants[rep % len(variants)]
            players = matrix.owners()
            y_by_player = {p: "positive" if target.matches(labels[p]) else "negative"
                           for p in players}
            if not any(v == "positive" for v in y_by_player.values()):
                raise NoPositives(f"target {target.name} matches no player")
            split = _stratified_player_split(players, y_by_player,
                                             _rng(seed, rep, 2))
            for part, name in zip(split, ("train", "validation", "test")):
                if not any(y_by_player[p] == "positive" for p in part):
                    raise NoPositives(
                        f"target {target.name}: no positives in the {name} split")
            yield rep, matrix, y_by_player, split

    def run_repeat(unit):
        """One repeat's selection (model and threshold) and its test
        players' (draw, n) precision and recall."""
        rep, matrix, y_by_player, (train_p, val_p, test_p) = unit
        train_rows = _rows_of(matrix, train_p)
        y_train = [y_by_player[matrix.row_owner[i]] for i in train_rows]
        selected = m.select_features(matrix, train_rows, y_train,
                                     MAX_FEATURES, classes)
        prepared = m.prepare(matrix, train_rows, y_train, classes, selected,
                             resample=True)
        val_positive = np.array([y_by_player[p] == "positive" for p in val_p])

        def val_score(models: list[m.TrainedModel]):
            """Best (precision, recall) of full-history averages, and its
            threshold; None when no threshold predicts a positive."""
            pos_proba = np.array([block.mean(axis=0)[1] for block in
                                  _prob_blocks(models[0], matrix, val_p).values()])
            # (player, threshold) positive calls.
            called = pos_proba[:, None] >= np.asarray(THRESHOLDS)
            precision, recall = _precision_recall(called, val_positive)
            scored = [(p, r, float(t)) for p, r, t, any_called in zip(
                precision.tolist(), recall.tolist(), THRESHOLDS,
                called.any(axis=0)) if any_called]
            if not scored:
                return None
            top = max(s[:2] for s in scored)
            # Small validation sets tie many thresholds at the same
            # (precision, recall); the median of the tied band keeps the
            # widest margin on both sides.
            band = sorted(t for p, r, t in scored if (p, r) == top)
            return top, band[len(band) // 2]

        # Candidate models: every algorithm x grid point, in order, so ties
        # go to the earlier algorithm and grid point.
        candidates = [
            (algorithm, candidate, _unit_seed(seed, rep, gi, ci))
            for gi, algorithm in enumerate(TARGETED_ALGORITHMS)
            for ci, candidate in enumerate(m._expand_grid(grids.get(algorithm, {})))]
        best = m.select_best(candidates, [prepared], val_score)
        if best is None:
            raise NoPositives(
                f"target {target.name}: no candidate predicted a positive "
                "on validation")
        index, (model,), threshold = best
        algorithm, candidate, _ = candidates[index]

        # (player, draw, n) positive calls on the test players.
        rng = _rng(seed, rep, 3)
        called = np.array([_draw_means(block, n_sweep, draws, rng)[..., 1]
                           >= threshold for block in
                           _prob_blocks(model, matrix, test_p).values()])
        precision, recall = _precision_recall(called, np.array(
            [y_by_player[p] == "positive" for p in test_p]))
        return ({"repeat": rep, "algorithm": algorithm,
                 "hyperparams": candidate, "threshold": threshold},
                precision, recall)

    # Each repeat is one unit; its split is drawn and checked here.
    precisions: dict[int, list[float]] = {n: [] for n in n_sweep}
    recalls: dict[int, list[float]] = {n: [] for n in n_sweep}
    for chosen, precision, recall in workers.map_units(run_repeat, splits()):
        for j, n in enumerate(n_sweep):
            precisions[n].extend(precision[:, j])
            recalls[n].extend(recall[:, j])
        report.config["selected"].append(chosen)
    for series, values in (("precision", precisions), ("recall", recalls)):
        report.curves[series] = [{"n": n, **_mean_std(values[n])}
                                 for n in n_sweep]
    return report
