"""Command-line front-end wiring the pipeline stages.

Subcommands mirror the pipeline: synth / ingest / labels produce inputs,
featurize builds the three dataset shapes, correlate / attack / validate
produce reports, and reproduce-table8 (validate with its defaults) replays
the published-values ledger.
Usage errors exit 2; data errors exit 1 with a structured message. Reports
embed the config hash, seed, and tool version, and re-running a command
with identical inputs overwrites outputs with identical bytes. Each
subcommand imports the layers it runs when it runs, so a light command such
as `aia labels` never loads numpy or the model code.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gc
import hashlib
import json
import math
import os
import sys
from pathlib import Path

from . import __version__, workers
from .attributes import bin_survey, read_labels_csv, read_survey_csv, write_labels_csv
from .errors import (AiaError, ConfigError, DomainError, MissingLabels, MissingPair,
                     NotFound, RateLimited, SchemaError)


def _config_hash(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _finalize_report(report, seed: int):
    report.config["tool_version"] = __version__
    report.config["config_hash"] = _config_hash(report.config)
    report.config.setdefault("seed", seed)
    return report


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _check_at_least(flag: str, value: int, least: int) -> None:
    """AiaError naming the option unless its value is at least `least`;
    commands check before they read or write anything."""
    if value < least:
        raise AiaError(f"{flag} must be at least {least}, got {value}")


def _load_players(cache_dir: Path, labels_path: Path):
    """The kept players, sorted by handle, and the filter report."""
    from .ingest import filter_players, iter_cached_players, load_cached_player

    labels = read_labels_csv(labels_path)
    pairs = []
    for handle in iter_cached_players(cache_dir):
        record = load_cached_player(cache_dir, handle)
        pairs.append((record, labels.get(handle)))
    kept, report = filter_players(pairs)
    return [record for record, _ in kept], report


def _load_matches(cache_dir: Path, players, min_human_players: int) -> dict:
    """Every match of these players, decoded and validated, by match id."""
    from .ingest import load_cached_match

    matches = {}
    for record in players:
        for mid in record.match_ids:
            if mid not in matches:
                match = load_cached_match(cache_dir, mid)
                # Bot-backfilled lobbies are retained by default; the flag
                # exists because the source data does not settle the question.
                if match.human_players >= min_human_players:
                    matches[mid] = match
    return matches


# The errors main() reports as a data error (exit 1).
_DATA_ERRORS = (AiaError, OSError, json.JSONDecodeError)


def _match_count(record) -> int:
    """A player's weight when featurize shards players: their match count."""
    return len(record.match_ids)


def _featurize_player(cache: Path, variant: str, min_human_players: int, ctx,
                      player) -> tuple | AiaError:
    """One kept player's (owners, lines) from `build_shard_lines`. A match
    that fails to load raises; a row that fails to build comes back as the
    error, so a later player's load error still outranks it, as when one
    process loads every match before it builds any row."""
    from .features import build_shard_lines

    matches = _load_matches(cache, [player], min_human_players)
    try:
        return build_shard_lines(variant, [player], matches, ctx)
    except AiaError as exc:
        return exc


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector. Synth and featurize build a large
    acyclic heap (records, feature rows) that every full collection would
    rescan without freeing anything; reference counting still frees it all."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


@_collector_paused()
def _cmd_synth(args) -> int:
    from .synth import (FIXTURE_CONFIG, SynthConfig, plan_population, write_manifest,
                        write_player, write_survey_csv)

    if args.fixture:
        config = FIXTURE_CONFIG
    else:
        if args.config is None:
            raise AiaError("synth needs --config FILE or --fixture")
        text = Path(args.config).read_text(encoding="utf-8")
        try:
            config = SynthConfig.from_json_dict(json.loads(text))
            config.validate()
        except (ConfigError, TypeError, ValueError) as exc:
            raise ConfigError(f"{args.config}: {exc}") from exc
    out = Path(args.out)
    plan = plan_population(config)
    # Each player is built and written by a worker; the survey rows come
    # back in handle order.
    survey_rows = workers.map_units(
        functools.partial(write_player, plan, out), range(config.n_players),
        size=plan.n_matches.__getitem__)
    write_manifest(plan.manifest, out)
    write_survey_csv(survey_rows, out / "survey.csv")
    print(f"synth: {config.n_players} players, "
          f"{plan.manifest['n_matches']} matches -> {out}")
    return 0


def _cmd_ingest(args) -> int:
    from .ingest import TelemetryClient

    if not 0 < args.rate < math.inf:
        raise AiaError(f"--rate must be finite and greater than 0, got {args.rate}")
    handles = []
    lines = Path(args.handles).read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, 1):
        if line.strip():
            try:
                handle = int(line)
            except ValueError:
                handle = 0
            if handle <= 0:
                raise SchemaError(f"line {number}: not an account id: "
                                  f"{line.strip()!r}", path=args.handles)
            handles.append(handle)
    client = TelemetryClient(args.cache, base_url=args.base_url,
                             rate_per_s=args.rate, offline=args.offline)
    fetched_players = 0
    fetched_matches = 0
    missing = 0
    for handle in handles:
        # A handle without public data, or still rate limited after the
        # retries, is skipped; a malformed cached or fetched document is an
        # error.
        try:
            record = client.fetch_player(handle, window_days=args.window_days)
        except (NotFound, RateLimited):
            missing += 1
            continue
        fetched_players += 1
        for mid in record.match_ids:
            client.fetch_match(mid)
            fetched_matches += 1
    print(f"ingest: {fetched_players}/{len(handles)} players, "
          f"{fetched_matches} matches cached under {args.cache}")
    if missing:
        print(f"ingest: {missing} handles without public data",
              file=sys.stderr)
    return 0


def _cmd_labels(args) -> int:
    rows = read_survey_csv(args.infile)
    binned = bin_survey(rows)
    write_labels_csv(binned.labels, args.out)
    print(f"labels: {len(binned.labels)} binned, "
          f"{len(binned.excluded)} excluded -> {args.out}")
    for handle, reason in binned.excluded:
        print(f"  excluded {handle}: {reason}", file=sys.stderr)
    return 0


@_collector_paused()
def _cmd_featurize(args) -> int:
    from .features import FeatureContext, distill_picks, variant_columns
    from .matrix import write_lines

    _check_at_least("--variants", args.variants, 1)
    _check_at_least("--seed", args.seed, 0)
    cache = Path(args.cache)
    out = Path(args.out)
    players, freport = _load_players(cache, Path(args.labels))
    ctx = FeatureContext.default()
    variant = "M_bar" if args.variant == "Mbar" else args.variant
    # Each player is loaded and featurized by a worker; the rows come back
    # as finished CSV lines, in handle order.
    owners, lines = [], []
    for built in workers.map_units(
            functools.partial(_featurize_player, cache, variant,
                              args.min_human_players, ctx),
            players, size=_match_count):
        if isinstance(built, AiaError):
            raise built
        owners += built[0]
        lines += built[1]
    _write_json(out / "filter_report.json", {
        "invalid_labels": freport.invalid_labels,
        "not_visible": freport.not_visible,
        "inactive": freport.inactive,
        "retained": freport.retained,
    })
    columns = variant_columns(variant)
    config_hash = ctx.config_hash()
    if variant != "M_bar":
        write_lines(out / f"{variant}.csv", variant, columns, lines,
                    has_match_ids=variant == "M", config_hash=config_hash)
        print(f"featurize: {variant} {len(lines)}x{len(columns)} -> {out}")
        return 0
    picks = distill_picks(owners, args.variants, args.seed)
    for v, picked in enumerate(picks):
        write_lines(out / f"Mbar_{v:02d}.csv", variant, columns,
                    (lines[i] for i in picked), has_match_ids=True,
                    variant_seed=v, config_hash=config_hash)
    print(f"featurize: {len(picks)} Mbar variants "
          f"({len(picks[0])}x{len(columns)}) -> {out}")
    return 0


def correlation_doc(matrix, labels, alpha: float, top_k: int) -> dict:
    """The JSON document emitted by `aia correlate` (also used as a golden)."""
    from .stats import correlation_report, correlation_scan, significance_counts

    scan = correlation_scan(matrix, labels)
    report = correlation_report(scan, alpha=alpha, top_k=top_k)
    table = significance_counts(scan)
    doc = {
        "alpha": alpha,
        "top_k": top_k,
        "tool_version": __version__,
        "top_correlations": {
            attr: [{
                "feature": r.feature_name, "metric": r.metric,
                "value": r.value, "p_value": r.p_value, "n": r.n,
                "strong": r.strong,
            } for r in results]
            for attr, results in sorted(report.items())
        },
        "significance_counts": [
            {"attribute": attr, "metric": metric, "alpha": a, "count": count}
            for (attr, metric, a), count in sorted(table.counts.items())
        ],
    }
    doc["config_hash"] = _config_hash({"alpha": alpha, "top": top_k,
                                       "columns": matrix.column_hash()})
    return doc


def _check_labelled(matrices, labels, labels_path) -> None:
    """Every owner of every matrix has a row in the labels file."""
    for matrix in matrices:
        for owner in matrix.owners():
            if owner not in labels:
                raise MissingLabels(f"owner {owner} has no row in labels file "
                                    f"{labels_path}")


def _cmd_correlate(args) -> int:
    from .matrix import load_matrix

    _check_at_least("--top", args.top, 1)
    matrix = load_matrix(args.features)
    labels = read_labels_csv(args.labels)
    _check_labelled([matrix], labels, args.labels)
    out = Path(args.out)
    doc = correlation_doc(matrix, labels, args.alpha, args.top)
    _write_json(out / "correlations.json", doc)
    top = doc["top_correlations"]
    with open(out / "correlations.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["attribute", "feature", "metric", "value", "p_value",
                         "n", "strong"])
        for attr, results in top.items():
            for r in results:
                writer.writerow([attr, r["feature"], r["metric"],
                                 repr(r["value"]), repr(r["p_value"]),
                                 r["n"], r["strong"]])
    print(f"correlate: {sum(len(v) for v in top.values())} top hits -> {out}")
    return 0


def _curves_csv(path: Path, curves: dict) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", "n", "mean", "std", "n_runs"])
        for series, points in sorted(curves.items()):
            for point in points:
                writer.writerow([series, point["n"], repr(point["mean"]),
                                 repr(point["std"]), point["n_runs"]])


def _metric_tables_csv(path: Path, tables: dict) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["attribute", "model", "mean", "std", "n_runs"])
        for attribute, by_model in sorted(tables.items()):
            for model, cell in sorted(by_model.items()):
                if isinstance(cell, dict):
                    writer.writerow([attribute, model, repr(cell["mean"]),
                                     repr(cell["std"]), cell["n_runs"]])
                else:
                    writer.writerow([attribute, model, repr(cell), "", ""])


def _load_variant(path: Path, variant: str):
    """The matrix saved at `path`, which must be of `variant`."""
    from .matrix import load_matrix

    matrix = load_matrix(path)
    if matrix.variant != variant:
        raise SchemaError(f"holds variant {matrix.variant}, expected {variant}",
                          path=str(path))
    return matrix


def _load_mbar_variants(features_dir: Path):
    paths = sorted(features_dir.glob("Mbar_*.csv"))
    if not paths:
        raise AiaError(f"no Mbar_*.csv variants under {features_dir}")
    return [_load_variant(p, "M_bar") for p in paths]


def _cmd_attack(args) -> int:
    from . import attacks
    from .models import ALGORITHMS

    n_sweep = tuple(range(args.sweep_start, args.sweep_stop + 1))
    # Bad input exits before anything is loaded or trained.
    _check_at_least("--seed", args.seed, 0)
    algorithms = tuple(args.algorithms.split(",")) if args.algorithms else \
        ALGORITHMS
    for name in algorithms:
        if name not in ALGORITHMS:
            raise AiaError(f"unknown algorithm {name!r} in --algorithms; "
                           f"choose from {','.join(ALGORITHMS)}")
        if algorithms.count(name) > 1:
            raise AiaError(f"--algorithms names {name!r} more than once")
    if args.protocol == "indiscriminate":
        attacks.check_averaging([args.sweep_stop], args.draws)
    elif args.protocol in ("sophisticated", "targeted"):
        attacks.check_averaging(n_sweep, args.draws)
    if args.protocol in ("one-match", "targeted"):
        _check_at_least("--repeats", args.repeats, 1)
    features_dir = Path(args.features)
    labels = read_labels_csv(args.labels)
    out = Path(args.out)

    if args.protocol == "simple":
        matrix = _load_variant(features_dir / "P.csv", "P")
        _check_labelled([matrix], labels, args.labels)
        report = attacks.simple_aia(matrix, labels, algorithms=algorithms,
                                    seed=args.seed)
    elif args.protocol == "one-match":
        # One run per Mbar variant, or `--repeats` reseeded splits of M.
        data = _load_mbar_variants(features_dir) if args.expert else \
            [_load_variant(features_dir / "M.csv", "M")]
        _check_labelled(data, labels, args.labels)
        report, _ = attacks.one_match_aia(
            data if args.expert else data * args.repeats, labels,
            algorithms=algorithms, seed=args.seed)
    elif args.protocol in ("sophisticated", "indiscriminate"):
        variants = _load_mbar_variants(features_dir)
        _check_labelled(variants, labels, args.labels)
        # Top-2 reports only attributes of three or more classes, so only
        # those are trained; seeds are keyed by attribute, not position.
        _, runs = attacks.one_match_aia(
            variants, labels, algorithms=("random_forest",), seed=args.seed,
            keep_models="random_forest",
            attributes=attacks.TOP2_ATTRIBUTES
            if args.protocol == "indiscriminate" else None)
        if args.protocol == "sophisticated":
            report = attacks.sophisticated_aia(runs, labels, n_sweep=n_sweep,
                                               draws=args.draws,
                                               seed=args.seed)
        else:
            report = attacks.indiscriminate_aia(runs, labels,
                                                n=args.sweep_stop,
                                                draws=args.draws,
                                                seed=args.seed)
    elif args.protocol == "targeted":
        target = attacks.BUILTIN_TARGETS.get(args.target)
        if target is None:
            raise AiaError(f"unknown target {args.target!r}; choose from "
                           f"{sorted(attacks.BUILTIN_TARGETS)}")
        variants = _load_mbar_variants(features_dir)
        _check_labelled(variants, labels, args.labels)
        report = attacks.targeted_aia(target, variants, labels,
                                      n_sweep=n_sweep, repeats=args.repeats,
                                      draws=args.draws, seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise AiaError(f"unknown protocol {args.protocol}")

    _finalize_report(report, args.seed)
    _write_json(out, report.to_json_dict())
    if report.curves:
        _curves_csv(out.with_suffix(".curves.csv"), report.curves)
    if report.metric_tables:
        _metric_tables_csv(out.with_suffix(".metrics.csv"), report.metric_tables)
    print(f"attack[{args.protocol}]: report -> {out}")
    return 0


def _cmd_validate(args) -> int:
    from . import validation

    if not args.pairs:
        ledger = validation.hypothesis_table(alpha=args.alpha, welch=args.welch)
    else:
        text = Path(args.pairs).read_text(encoding="utf-8")
        try:
            ledger = validation.hypothesis_table(json.loads(text), alpha=args.alpha,
                                                 welch=args.welch)
        except KeyError as exc:
            raise SchemaError(f"missing field {exc}", path=args.pairs) from exc
        except (TypeError, ValueError, AttributeError, MissingPair, DomainError) as exc:
            raise SchemaError(f"not a summary-tables document: {exc}",
                              path=args.pairs) from exc
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["family", "pair", "t_statistic", "p_value",
                             "alpha", "rejected", "flagged"])
            for family in ledger.families:
                for r in family.results:
                    writer.writerow([family.name, r.pair, repr(r.t_statistic),
                                     repr(r.p_value), r.alpha, r.rejected,
                                     r.flagged])
    for family, (rejected, total) in ledger.counts().items():
        print(f"{family}: reject {rejected}/{total}")
    return 0


def _cmd_sample_size(args) -> int:
    from .stats import required_sample_size

    n = required_sample_size(args.confidence, args.margin, args.proportion,
                             args.population)
    print(n)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aia",
        description="Attribute-inference-attack pipeline for MOBA telemetry")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic population cache")
    p.add_argument("--config", help="SynthConfig JSON file")
    p.add_argument("--fixture", action="store_true",
                   help="emit the built-in regression fixture")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("ingest", help="fetch player and match telemetry")
    p.add_argument("--handles", required=True, help="file of account ids")
    p.add_argument("--window-days", type=int, default=30)
    p.add_argument("--cache", required=True)
    p.add_argument("--offline", action="store_true")
    p.add_argument("--base-url", default="https://api.opendota.com/api")
    p.add_argument("--rate", type=float, default=1.0, help="requests per second")
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("labels", help="bin a raw survey CSV into labels")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_labels)

    p = sub.add_parser("featurize", help="build feature matrices from a cache")
    p.add_argument("--variant", choices=["P", "M", "Mbar"], required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variants", type=int, default=20)
    p.add_argument("--min-human-players", type=int, default=0,
                   help="drop matches with fewer humans (default: keep all)")
    p.set_defaults(fn=_cmd_featurize)

    p = sub.add_parser("correlate", help="feature/attribute correlation report")
    p.add_argument("--features", required=True, help="matrix CSV path")
    p.add_argument("--labels", required=True)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--top", type=int, default=3)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_correlate)

    p = sub.add_parser("attack", help="run an attack protocol")
    p.add_argument("--protocol", required=True,
                   choices=["simple", "one-match", "sophisticated",
                            "indiscriminate", "targeted"])
    p.add_argument("--features", required=True, help="featurize output dir")
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: attacks run one worker per CPU")
    p.add_argument("--algorithms", help="comma list; default all five")
    p.add_argument("--expert", action="store_true",
                   help="one-match: use the distilled variants")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--sweep-start", type=int, default=1)
    p.add_argument("--sweep-stop", type=int, default=30)
    p.add_argument("--target", default="very_young",
                   help="targeted protocol subgroup name")
    p.set_defaults(fn=_cmd_attack)

    p = sub.add_parser("validate", help="two-sample t-test ledger")
    p.add_argument("--pairs", help="summary-tables JSON; default: shipped values")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--welch", action="store_true")
    p.add_argument("--out", help="ledger CSV path")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("reproduce-table8",
                       help="replay the published-values rejection ledger")
    p.set_defaults(fn=_cmd_validate, pairs=None, alpha=0.05, welch=False, out=None)

    p = sub.add_parser("sample-size", help="finite-population sample size")
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--margin", type=float, default=0.05)
    p.add_argument("--proportion", type=float, default=0.5)
    p.add_argument("--population", type=int, required=True)
    p.set_defaults(fn=_cmd_sample_size)

    return parser


# Thread-count variables of the BLAS builds numpy may load.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_blas_threads() -> None:
    """One BLAS thread per process, unless the caller set any count. Attacks
    already run one worker process per CPU; a second OpenBLAS thread costs
    each process ~0.1 s of CPU time, and on products this small its
    spinning raises CPU time more than it cuts wall time. Takes effect only
    before numpy is imported."""
    if not any(var in os.environ for var in BLAS_THREAD_VARS):
        for var in BLAS_THREAD_VARS:
            os.environ[var] = "1"


def main(argv=None) -> int:
    _pin_blas_threads()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
