"""The traced run: the workload's commands in one process, timed per layer.

    python3 bench/tracing.py SPEC.json     (bench/run.py --trace 1 writes SPEC)

Every public function of each layer module of `aia` is replaced by a timing
wrapper wherever callers look it up: the module attribute and every name
another `aia` module imported with `from ... import`. Spans stay in memory
with one parent stack per thread; a span's self time is its duration minus
the time its child spans cover. Work handed to the thread pool continues
its submitter's span in the worker thread, so self time sums over threads
and the submitter's wait for the pool is not counted as its own. Functions
called millions of times get counts, not spans. Spans and totals are
written once, when the commands are done.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

LAYERS = ("cli", "synth", "ingest", "attributes", "features", "matrix", "stats",
          "models", "resampling", "attacks", "validation")

# Called per match, per cell pair or per rank vector: aggregate only, no
# span record. Their time still counts against their parents' self time.
HOT = {
    "ingest.parse_match", "ingest.load_cached_match", "ingest.serialize_match",
    "ingest.match_cache_path", "ingest.player_cache_path", "ingest.atomic_write",
    "features.build_match_features", "features.extract_chat_features",
    "features.hero_gender", "features.hero_attr", "attributes.bin_labels",
    "stats.spearman", "stats.cramers_v", "stats.average_ranks",
    "stats.t_sf_two_sided", "stats.beta_inc_reg", "stats.chi2_sf",
    "stats.gamma_lower_reg", "stats.normal_cdf", "synth.grade_correlation",
}

CLI_COMMANDS = ("featurize", "correlate", "attack_simple", "reproduce_table8",
                "attack_one_match", "attack_sophisticated",
                "attack_indiscriminate", "attack_targeted")

ESTIMATORS = ("logistic_regression", "decision_tree", "random_forest", "mlp")


class Frame:
    __slots__ = ("name", "start", "child", "id")

    def __init__(self, name: str, start: float, span_id: int):
        self.name = name
        self.start = start
        self.child = 0.0
        self.id = span_id


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []   # (name, thread, start, end, id, parent)
        self.column_index_calls = itertools.count()
        self._seen_fits: set[str] = set()
        self._seen_enn: set[str] = set()
        self._fingerprints: dict[int, tuple[object, str]] = {}
        self.targeted_tests: list[int] | None = None

    def stack(self) -> list[Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, table: str, key: str, value: float) -> None:
        with self._lock:
            getattr(self, table)[key] += value

    def finish(self, frame: Frame, end: float, stack: list[Frame],
               hot: bool) -> float:
        """Close `frame` (already popped); returns its self time."""
        dur = end - frame.start
        own = dur - frame.child
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += dur
        with self._lock:
            self.calls[frame.name] += 1
            self.total[frame.name] += dur
            self.self_s[frame.name] += own
            if not hot:
                self.spans.append((frame.name, threading.get_ident(), frame.start,
                                   end, frame.id, parent.id if parent else 0))
        return own

    def exclude(self, stack: list[Frame], since: float) -> None:
        """Charge tracer bookkeeping since `since` to no layer."""
        if stack:
            stack[-1].child += time.perf_counter() - since

    # -- content keys for the repeat-work ratios ---------------------------

    def fingerprint(self, matrix) -> str:
        held = self._fingerprints.get(id(matrix))
        if held is None or held[0] is not matrix:
            digest = hashlib.sha1(repr((matrix.column_hash(), matrix.rows,
                                        matrix.row_owner)).encode()).hexdigest()
            held = self._fingerprints[id(matrix)] = (matrix, digest)
        return held[1]

    def seen_before(self, table: set[str], key: str) -> bool:
        with self._lock:
            if key in table:
                return True
            table.add(key)
            return False


TRACER = Tracer()


def _wrap(name: str, fn, observe=None):
    """Span wrapper; `observe(bound_args, result, self_s)` records counts."""
    hot = name in HOT
    signature = inspect.signature(fn) if observe else None
    tracer = TRACER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = tracer.stack()
        frame = Frame(name, time.perf_counter(), next(tracer._ids))
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            own = tracer.finish(frame, end, stack, hot)
        if observe is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            observe(bound.arguments, result, own)
            tracer.exclude(stack, end)
        return result

    return wrapper


# ---------------------------------------------------------------------------
# Observers: counts measured at the layer boundaries
# ---------------------------------------------------------------------------


def _fit_observer(function: str):
    def observe(a, model, own):
        TRACER.add("counts", "models.fit_calls", 1)
        TRACER.add("self_s", f"models.estimator.{a['algorithm']}", own)
        if "not_converged" in model.flags:
            TRACER.add("counts", "models.not_converged", 1)
        key = repr((function, a["algorithm"], TRACER.fingerprint(a["matrix"]),
                    list(a["row_idx"]), list(a["y"]),
                    sorted((a["hyperparams"] or {}).items()), a["seed"],
                    a["classes"], a["selected"], a.get("enn_k"), a.get("smote_k")))
        digest = hashlib.sha1(key.encode()).hexdigest()
        if TRACER.seen_before(TRACER._seen_fits, digest):
            TRACER.add("counts", "models.repeat_fits", 1)
    return observe


def _enn_observer(a, result, own):
    X = a["X"]
    TRACER.add("counts", "resampling.enn_calls", 1)
    TRACER.add("counts", "resampling.enn_rows", len(X))
    h = hashlib.sha1(getattr(X, "tobytes", lambda: repr(X).encode())())
    h.update(repr((list(a["y"]), a["k"], a["classes"])).encode())
    if TRACER.seen_before(TRACER._seen_enn, h.hexdigest()):
        TRACER.add("counts", "resampling.repeat_enn_calls", 1)


def _smote_observer(a, result, own):
    TRACER.add("counts", "resampling.smote_rows_out", len(result[0]))


def _transform_observer(a, result, own):
    TRACER.add("counts", "models.transform_rows", len(a["row_idx"]))


def _predict_proba_observer(a, result, own):
    TRACER.add("counts", "models.predict_rows", len(result))


def _save_matrix_observer(a, result, own):
    TRACER.add("counts", "matrix.rows_written", a["matrix"].n_rows)


def _load_matrix_observer(a, result, own):
    TRACER.add("counts", "matrix.rows_read", result.n_rows)


def _generate_observer(a, result, own):
    TRACER.add("counts", "synth.matches", len(result.matches))


def _sophisticated_observer(a, report, own):
    runs = a["runs"]
    attrs = list(report.curves)
    draws = sum(len(run.test_players(attr)) for run in runs for attr in attrs)
    TRACER.add("counts", "attacks.player_draws",
               draws * len(a["n_sweep"]) * a["draws"])


def _indiscriminate_observer(a, report, own):
    runs = a["runs"]
    draws = sum(len(run.test_players(attr)) for run in runs
                for attr in report.metric_tables)
    TRACER.add("counts", "attacks.player_draws", draws * a["draws"])


def _targeted_observer(a, report, own):
    tests = TRACER.targeted_tests or []
    TRACER.targeted_tests = None
    TRACER.add("counts", "attacks.player_draws",
               sum(tests) * len(a["n_sweep"]) * a["draws"])


OBSERVERS = {
    "models.fit": _fit_observer("fit"),
    "models.fit_resampled": _fit_observer("fit_resampled"),
    "models.transform": _transform_observer,
    "models.predict_proba": _predict_proba_observer,
    "resampling.enn_undersample": _enn_observer,
    "resampling.smote_oversample": _smote_observer,
    "matrix.save_matrix": _save_matrix_observer,
    "matrix.load_matrix": _load_matrix_observer,
    "synth.generate_population": _generate_observer,
    "attacks.sophisticated_aia": _sophisticated_observer,
    "attacks.indiscriminate_aia": _indiscriminate_observer,
    "attacks.targeted_aia": _targeted_observer,
}


class TracedPool(ThreadPoolExecutor):
    """Thread pool whose tasks continue the submitting span in the worker."""

    def map(self, fn, *iterables, **kwargs):
        stack = TRACER.stack()
        parent = stack[-1] if stack else None

        def task(*args):
            worker = TRACER.stack()
            cont = Frame((parent.name if parent else "pool") + "#worker",
                         time.perf_counter(), next(TRACER._ids))
            worker.append(cont)
            try:
                return fn(*args)
            finally:
                end = time.perf_counter()
                worker.pop()
                own = end - cont.start - cont.child
                TRACER.add("self_s", parent.name if parent else "pool", own)
                with TRACER._lock:
                    TRACER.spans.append((cont.name, threading.get_ident(),
                                         cont.start, end, cont.id,
                                         parent.id if parent else 0))

        wait = Frame("pool.wait", time.perf_counter(), next(TRACER._ids))
        stack.append(wait)
        try:
            return list(super().map(task, *iterables, **kwargs))
        finally:
            stack.pop()
            TRACER.finish(wait, time.perf_counter(), stack, hot=False)


def install() -> None:
    """Wrap every public layer function at each place callers look it up."""
    modules = {layer: importlib.import_module(f"aia.{layer}") for layer in LAYERS}
    wrapped: dict[int, object] = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            name = f"{layer}.{attr}"
            wrapper = _wrap(name, obj, OBSERVERS.get(name))
            wrapped[id(obj)] = wrapper
    for module in [m for n, m in sys.modules.items()
                   if n == "aia" or n.startswith("aia.")]:
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                setattr(module, attr, wrapped[id(obj)])

    FeatureMatrix = modules["matrix"].FeatureMatrix
    column_index = FeatureMatrix.column_index
    tick = TRACER.column_index_calls

    def counted_column_index(self, name):
        next(tick)
        return column_index(self, name)

    FeatureMatrix.column_index = counted_column_index

    attacks = modules["attacks"]
    if hasattr(attacks, "ThreadPoolExecutor"):
        attacks.ThreadPoolExecutor = TracedPool
    # Targeted draws per test player: the split helper is the only place
    # the test-player count of each repeat is visible. The list is live
    # only while targeted_aia runs, which never overlaps another protocol.
    split = getattr(attacks, "_stratified_player_split", None)
    if split is not None:
        @functools.wraps(split)
        def observed_split(*args, **kwargs):
            result = split(*args, **kwargs)
            if TRACER.targeted_tests is not None:
                with TRACER._lock:
                    TRACER.targeted_tests.append(len(result[2]))
            return result
        attacks._stratified_player_split = observed_split

    targeted = attacks.targeted_aia

    @functools.wraps(targeted)
    def targeted_entry(*args, **kwargs):
        TRACER.targeted_tests = []
        return targeted(*args, **kwargs)

    attacks.targeted_aia = targeted_entry


# ---------------------------------------------------------------------------
# Metrics from the traced totals
# ---------------------------------------------------------------------------


def layer_metrics(doc: dict) -> dict[str, tuple[str, float]]:
    """Per-layer metrics from the totals a traced run wrote."""
    calls, total, own, counts = (doc["calls"], doc["total"], doc["self_s"],
                                 doc["counts"])

    def t(name):
        return total.get(name, 0.0)

    def s(name):
        return own.get(name, 0.0)

    def c(name):
        return float(calls.get(name, 0))

    def share(part: str, whole: str) -> float:
        base = counts.get(whole, 0.0)
        return counts.get(part, 0.0) / base if base else 0.0

    matches = counts.get("synth.matches", 0.0)
    draws = counts.get("attacks.player_draws", 0.0)
    protocol_self = (s("attacks.sophisticated_aia") + s("attacks.indiscriminate_aia")
                     + s("attacks.targeted_aia"))
    m = {
        "synth.generate_population.self_s": ("s", s("synth.generate_population")),
        "synth.us_per_match": ("us", t("synth.generate_population") / matches * 1e6
                               if matches else 0.0),
        "synth.write_population_cache_s": ("s", t("synth.write_population_cache")),
        "ingest.parse_match_calls": ("count", c("ingest.parse_match")),
        "ingest.parse_match.self_s": ("s", s("ingest.parse_match")),
        "ingest.load_cached_match_s": ("s", t("ingest.load_cached_match")),
        "attributes.bin_survey_s": ("s", t("attributes.bin_survey")),
        "features.build_match_features_calls":
            ("count", c("features.build_match_features")),
        "features.build_match_features.self_s":
            ("s", s("features.build_match_features")),
        "features.extract_chat_features_s": ("s", t("features.extract_chat_features")),
        "features.build_player_matrix.self_s": ("s", s("features.build_player_matrix")),
        "features.build_player_features.self_s":
            ("s", s("features.build_player_features")),
        "features.build_distilled_s": ("s", t("features.build_distilled")),
        "matrix.save_matrix_s": ("s", t("matrix.save_matrix")),
        "matrix.rows_written": ("count", counts.get("matrix.rows_written", 0.0)),
        "matrix.load_matrix_s": ("s", t("matrix.load_matrix")),
        "matrix.rows_read": ("count", counts.get("matrix.rows_read", 0.0)),
        "matrix.column_index_calls": ("count", float(doc["column_index_calls"])),
        "stats.spearman_calls": ("count", c("stats.spearman")),
        "stats.spearman.self_s": ("s", s("stats.spearman")),
        "stats.cramers_v_calls": ("count", c("stats.cramers_v")),
        "stats.cramers_v.self_s": ("s", s("stats.cramers_v")),
        "stats.average_ranks_s": ("s", t("stats.average_ranks")),
        "stats.correlation_scan_s": ("s", t("stats.correlation_scan")),
        "models.select_features.self_s": ("s", s("models.select_features")),
        "models.fit_recipe.self_s": ("s", s("models.fit_recipe")),
        "models.grid_search.self_s": ("s", s("models.grid_search")),
        "models.not_converged": ("count", counts.get("models.not_converged", 0.0)),
        "models.transform.self_s": ("s", s("models.transform")),
        "models.transform_rows": ("count", counts.get("models.transform_rows", 0.0)),
        "models.fit_calls": ("count", counts.get("models.fit_calls", 0.0)),
        "models.repeat_fit_share": ("ratio", share("models.repeat_fits",
                                                   "models.fit_calls")),
        "models.predict_proba.self_s": ("s", s("models.predict_proba")),
        "models.predict_rows": ("count", counts.get("models.predict_rows", 0.0)),
        "resampling.enn_s": ("s", t("resampling.enn_undersample")),
        "resampling.enn_rows": ("count", counts.get("resampling.enn_rows", 0.0)),
        "resampling.smote_s": ("s", t("resampling.smote_oversample")),
        "resampling.smote_rows_out":
            ("count", counts.get("resampling.smote_rows_out", 0.0)),
        "resampling.repeat_call_share": ("ratio", share("resampling.repeat_enn_calls",
                                                        "resampling.enn_calls")),
        "attacks.simple.self_s": ("s", s("attacks.simple_aia")),
        "attacks.one_match.self_s": ("s", s("attacks.one_match_aia")),
        "attacks.sophisticated.self_s": ("s", s("attacks.sophisticated_aia")),
        "attacks.indiscriminate.self_s": ("s", s("attacks.indiscriminate_aia")),
        "attacks.targeted.self_s": ("s", s("attacks.targeted_aia")),
        "attacks.player_draws": ("count", draws),
        "attacks.ns_per_player_draw": ("ns", protocol_self / draws * 1e9
                                       if draws else 0.0),
        "validation.hypothesis_table_s": ("s", t("validation.hypothesis_table")),
    }
    for algorithm in ESTIMATORS:
        m[f"models.estimator.{algorithm}_s"] = ("s", s(f"models.estimator.{algorithm}"))
    return m


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    install()
    from aia import cli
    from workloads import write_audit_labels

    corpus = Path(spec["corpus"])
    corpus.mkdir(parents=True, exist_ok=True)
    config = corpus / "synth.json"
    config.write_text(json.dumps(spec["corpus_doc"], indent=1), encoding="utf-8")
    setup = [["synth", "--config", str(config), "--out", str(corpus / "cache")],
             ["labels", "--in", str(corpus / "cache" / "survey.csv"),
              "--out", str(corpus / "labels.csv")]]
    for argv in setup:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                return 1
    if spec["audited"]:
        write_audit_labels(corpus / "labels.csv", corpus / "audit_labels.csv",
                           tuple(spec["audited"]))

    walls = []
    for key, argv in spec["commands"]:
        buffer = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        walls.append(time.perf_counter() - start)
        if code != 0:
            print(f"traced command failed: {argv}", file=sys.stderr)
            return 1
        if key == "reproduce_table8":
            Path(spec["table8_out"]).write_text(buffer.getvalue(), encoding="utf-8")

    doc = {
        "commands_wall_s": sum(walls),
        "calls": dict(TRACER.calls), "total": dict(TRACER.total),
        "self_s": dict(TRACER.self_s), "counts": dict(TRACER.counts),
        "column_index_calls": next(TRACER.column_index_calls),
    }
    Path(spec["metrics_out"]).write_text(json.dumps(doc, indent=1, sort_keys=True),
                                         encoding="utf-8")
    Path(spec["spans_out"]).write_text(json.dumps(TRACER.spans), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main(sys.argv[1]))
