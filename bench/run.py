"""Benchmark entry point: drive `aia` through its CLI and report metrics.

    python3 bench/run.py --workload profile-cv --seed 20201217 --seconds 10 --trace 0

Each command runs in a fresh `python -m aia.cli` process, as in the README
quick-start. A run builds the workload's corpus (`synth` + `labels`, timed
as set-up), then repeats whole rounds of the workload's commands until
`--seconds` of commands have run, checks every output against computations
made apart from the program, and prints one JSON object as its last line.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs one untraced
round, then the same commands in one traced process (bench/tracing.py), and
reports the per-layer metrics; the two runs must write identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import (DEFAULT_SEED, PLANTED, PLANTED_MARGIN,  # noqa: E402
                       WORKLOADS, Workload, write_audit_labels)

# A run must end within 180 s; stop starting commands well before that.
RUN_BUDGET_S = 150.0
IMPORT_REPS = 3


class RunFailed(Exception):
    """A command could not run at all, so the run cannot report metrics."""


@dataclass
class CommandResult:
    key: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.errors)


class Runner:
    """Runs CLI commands in fresh processes and measures each one."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.results: list[CommandResult] = []

    def python(self, args: list[str], key: str) -> CommandResult:
        logs = self.work / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        n = len(self.results)
        out_path = logs / f"{n:03d}_{key}.out"
        err_path = logs / f"{n:03d}_{key}.err"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunFailed(f"run budget exhausted before {key}")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                    stderr=err, env=self.env, cwd=self.work)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = CommandResult(
            key=key, wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            exit_code=proc.returncode,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"))
        if result.exit_code != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"command failed ({result.exit_code}): aia {' '.join(args[2:])}"
                  f"\n{tail}", file=sys.stderr)
        self.results.append(result)
        return result

    def aia(self, argv: list[str], key: str) -> CommandResult:
        return self.python(["-m", "aia.cli", *argv], key)


# ---------------------------------------------------------------------------
# Set-up: the corpus
# ---------------------------------------------------------------------------


def build_corpus(runner: Runner, workload: Workload, seed: int,
                 where: Path) -> tuple[float, float]:
    """synth + labels into `where`; returns (synth wall, labels wall)."""
    where.mkdir(parents=True, exist_ok=True)
    config = where / "synth.json"
    config.write_text(json.dumps(workload.corpus_doc(seed), indent=1),
                      encoding="utf-8")
    synth = runner.aia(["synth", "--config", str(config), "--out",
                        str(where / "cache")], "synth")
    if synth.exit_code != 0:
        raise RunFailed("synth failed")
    labels = runner.aia(["labels", "--in", str(where / "cache" / "survey.csv"),
                         "--out", str(where / "labels.csv")], "labels")
    if labels.exit_code != 0:
        raise RunFailed("labels failed")
    labels.errors += checks.check_labels(where / "labels.csv",
                                         where / "cache" / "manifest.json")
    if workload.audited:
        write_audit_labels(where / "labels.csv", where / "audit_labels.csv",
                           workload.audited)
    return synth.wall_s, labels.wall_s


def setup(runner: Runner, workload: Workload, seed: int,
          reps: int) -> tuple[Path, list[tuple[float, float]]]:
    """Build the corpus `reps` times; keep the first, compare the others to it."""
    corpus = runner.work / "corpus"
    times = []
    for rep in range(reps):
        where = corpus if rep == 0 else runner.work / f"corpus_rep{rep}"
        times.append(build_corpus(runner, workload, seed, where))
        if rep:
            for name in ("labels.csv", "cache/manifest.json", "cache/survey.csv"):
                if (where / name).read_bytes() != (corpus / name).read_bytes():
                    runner.results[-1].errors.append(
                        f"set-up repetition {rep}: {name} differs")
            shutil.rmtree(where)
    return corpus, times


# ---------------------------------------------------------------------------
# Rounds of the workload's commands
# ---------------------------------------------------------------------------


def format_argv(argv: tuple[str, ...], corpus: Path, out: Path, seed: int) -> list[str]:
    fill = {"corpus": str(corpus / "cache"), "labels": str(corpus / "labels.csv"),
            "audit_labels": str(corpus / "audit_labels.csv"), "out": str(out),
            "seed": str(seed)}
    return [a.format(**fill) for a in argv]


def run_round(runner: Runner, workload: Workload, corpus: Path, out: Path,
              seed: int) -> list[CommandResult]:
    results = []
    for command in workload.commands:
        result = runner.aia(format_argv(command.argv, corpus, out, seed),
                            command.key)
        if command.key == "reproduce_table8":
            # The ledger only goes to stdout; keep it with the outputs.
            (out / "reproduce_table8.txt").write_text(result.stdout,
                                                      encoding="utf-8")
        results.append(result)
    return results


def check_round(workload: Workload, corpus: Path, out: Path,
                results: list[CommandResult]) -> None:
    """Check every output of one round; failures attach to their command."""
    if any(r.exit_code != 0 for r in results):
        return  # outputs of a failed round are incomplete; already failed
    features = out / "features"
    labels_csv = corpus / "labels.csv"
    players = naive = None
    if (features / "P.csv").exists() or (features / "M.csv").exists():
        players, naive = checks.load_corpus(corpus / "cache")
    for command, result in zip(workload.commands, results):
        if command.key == "featurize":
            variant = _flag(command.argv, "--variant", "")
            if variant == "P":
                result.errors += checks.check_player_matrix(
                    features / "P.csv", players, naive)
            elif variant == "M":
                result.errors += checks.check_match_matrix(
                    features / "M.csv", naive)
            else:
                result.errors += checks.check_distilled(features,
                                                        workload.mbar_variants)
        elif command.key == "correlate":
            result.errors += checks.check_correlations(
                out / "correlations" / "correlations.json", features / "P.csv",
                labels_csv)
            if workload.name == "survey-scale":
                result.errors += checks.check_planted_rho(
                    features / "P.csv", labels_csv,
                    workload.corpus["numeric_effects"])
        elif command.key == "reproduce_table8":
            result.errors += checks.check_table8(result.stdout)
        elif command.key.startswith("attack_"):
            result.errors += check_report(workload, command.argv, out)


def _flag(argv: tuple[str, ...], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def check_report(workload: Workload, argv: tuple[str, ...], out: Path) -> list[str]:
    report_name = _flag(argv, "--out", "").split("/")[-1]
    report = json.loads((out / report_name).read_text(encoding="utf-8"))
    protocol = _flag(argv, "--protocol", "")
    algorithms = _flag(argv, "--algorithms", "").split(",")
    draws = int(_flag(argv, "--draws", "100"))
    repeats = int(_flag(argv, "--repeats", "5"))
    if protocol == "simple":
        return checks.check_simple(report, workload.audited, algorithms,
                                   PLANTED_MARGIN)
    if protocol == "one-match":
        return checks.check_one_match(report, algorithms, repeats)
    if protocol == "sophisticated":
        return checks.check_sophisticated(report, workload.mbar_variants * draws,
                                          PLANTED)
    if protocol == "indiscriminate":
        return checks.check_indiscriminate(report, workload.mbar_variants * draws)
    return checks.check_targeted(report, repeats * draws)


def compare_outputs(workload: Workload, ref: Path, other: Path,
                    results: list[CommandResult], what: str) -> None:
    for rel in checks.compare_trees(ref, other):
        results[workload.owner_of(rel)].errors.append(
            f"{what}: {rel} differs")


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def run_untraced(runner: Runner, workload: Workload, seed: int,
                 seconds: float) -> dict:
    corpus, setup_times = setup(runner, workload, seed, workload.setup_reps)
    rounds: list[list[CommandResult]] = []
    measured = 0.0
    while True:
        out = runner.work / f"round{len(rounds)}"
        results = run_round(runner, workload, corpus, out, seed)
        if rounds:
            compare_outputs(workload, runner.work / "round0", out, results,
                            f"round {len(rounds)} against round 0")
            shutil.rmtree(out)
        else:
            check_round(workload, corpus, out, results)
        rounds.append(results)
        last = sum(r.wall_s for r in results)
        measured += last
        if measured >= seconds or time.monotonic() + last > runner.deadline:
            break
    return {
        "wall_s": ("s", statistics.median(sum(r.wall_s for r in rs) for rs in rounds)),
        "cpu_s": ("s", statistics.median(sum(r.cpu_s for r in rs) for rs in rounds)),
        "peak_rss_mb": ("MB", statistics.median(max(r.peak_rss_mb for r in rs)
                                                 for rs in rounds)),
        "setup_s": ("s", statistics.median(a + b for a, b in setup_times)),
    }


IMPORT_PROBE = ("import time; t = time.perf_counter(); import aia.cli; "
                "print(time.perf_counter() - t)")


def run_traced(runner: Runner, workload: Workload, seed: int) -> dict:
    corpus, [(synth_s, labels_s)] = setup(runner, workload, seed, 1)
    imports = []
    for _ in range(IMPORT_REPS):
        probe = runner.python(["-c", IMPORT_PROBE], "import")
        if probe.exit_code != 0:
            raise RunFailed("import aia.cli failed")
        imports.append(float(probe.stdout))
    out = runner.work / "round0"
    results = run_round(runner, workload, corpus, out, seed)
    check_round(workload, corpus, out, results)

    traced_dir = runner.work / "traced"
    spec = {
        "corpus_doc": workload.corpus_doc(seed),
        "audited": list(workload.audited),
        "corpus": str(traced_dir / "corpus"),
        "commands": [[c.key, format_argv(c.argv, traced_dir / "corpus",
                                         traced_dir / "round0", seed)]
                     for c in workload.commands],
        "table8_out": str(traced_dir / "round0" / "reproduce_table8.txt"),
        "metrics_out": str(traced_dir / "metrics.json"),
        "spans_out": str(traced_dir / "spans.json"),
    }
    traced_dir.mkdir(parents=True, exist_ok=True)
    (traced_dir / "spec.json").write_text(json.dumps(spec, indent=1),
                                          encoding="utf-8")
    traced = runner.python([str(BENCH / "tracing.py"), str(traced_dir / "spec.json")],
                           "traced")
    if traced.exit_code != 0:
        raise RunFailed("traced run failed")
    layer = json.loads((traced_dir / "metrics.json").read_text(encoding="utf-8"))

    # Traced and untraced runs must write the same bytes.
    compare_outputs(workload, out, traced_dir / "round0", results, "traced run")
    for rel in checks.compare_trees(corpus, traced_dir / "corpus"):
        results[0].errors.append(f"traced set-up: {rel} differs")

    walls: dict[str, float] = {}
    for command, result in zip(workload.commands, results):
        walls[command.key] = walls.get(command.key, 0.0) + result.wall_s
    untraced_wall = sum(r.wall_s for r in results)
    metrics = tracing.layer_metrics(layer)
    metrics["cli.import_s"] = ("s", statistics.median(imports))
    for key in tracing.CLI_COMMANDS:
        metrics[f"cli.{key}_s"] = ("s", walls.get(key, 0.0))
    metrics["cli.synth_s"] = ("s", synth_s)
    metrics["cli.labels_s"] = ("s", labels_s)
    metrics["trace.overhead_s"] = ("s", layer["commands_wall_s"] - untraced_wall)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aia" / "cli.py").is_file():
        print(f"error: no aia sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, time.monotonic() + RUN_BUDGET_S)
    try:
        if args.trace:
            metrics = run_traced(runner, workload, args.seed)
        else:
            metrics = run_untraced(runner, workload, args.seed, args.seconds)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = runner.results
    failed = [r for r in results if r.failed]
    for r in failed:
        for message in r.errors[:5]:
            print(f"check failed [{r.key}]: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not any(r.errors for r in results),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (unit, value) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
