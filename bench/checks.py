"""Output checks made apart from the program.

Nothing here imports `aia`: matrices, labels and caches are read with the
csv and json modules, statistics are recomputed with scipy, and features
with plain arithmetic. Each check returns a list of failure messages; an
empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from scipy.stats import chi2_contingency, spearmanr

# The paper's label schema, classes in ordinal order.
SCHEMA: dict[str, tuple[str, ...]] = {
    "gender": ("female", "male"),
    "age_bin": ("13-18", "19-24", "25-38"),
    "occupation": ("no", "yes"),
    "purchase_habits": ("never", "rarely", "regularly"),
    "openness": ("low", "medium", "high"),
    "conscientiousness": ("low", "medium", "high"),
    "extraversion": ("low", "medium", "high"),
    "agreeableness": ("low", "medium", "high"),
    "neuroticism": ("low", "medium", "high"),
}

DISTILL_CAP = 30
SWEEP = list(range(1, 31))
DAY_NAMES = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")
SIG_ALPHAS = (0.01, 0.05, 0.1)
TABLE8 = {"dummy_vs_best_model": "5/9", "dummy_vs_naive": "4/9",
          "dummy_vs_expert": "9/9", "sophisticated_vs_indiscriminate": "7/7"}


def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------


def read_labels(path: Path) -> dict[int, dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {int(r["steam_id"]): {a: r[a] for a in SCHEMA}
                for r in csv.DictReader(fh)}


def read_matrix(path: Path) -> tuple[dict, list[str], list[list[str]]]:
    """(sidecar schema, header, rows of cell strings) of a saved matrix."""
    schema = json.loads(Path(str(path) + ".schema.json").read_text(encoding="utf-8"))
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return schema, header, rows


def load_corpus(cache: Path) -> tuple[dict[int, dict], dict[tuple[int, int], dict]]:
    """Player documents of a cache, and the plain per-match columns of each
    (player, match) pair recomputed from the match documents with json."""
    players = {int(p.stem): json.loads(p.read_text(encoding="utf-8"))
               for p in (cache / "players").glob("*.json")}
    naive = {}
    for handle, mids in _active(players).items():
        for mid in mids:
            match = json.loads((cache / "matches" / f"{mid}.json").read_text(
                encoding="utf-8"))
            naive[(handle, mid)] = naive_row(match, handle)
    return players, naive


# ---------------------------------------------------------------------------
# labels.csv
# ---------------------------------------------------------------------------


def check_labels(labels_csv: Path, manifest_path: Path) -> list[str]:
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    labels = read_labels(labels_csv)
    errors = []
    for attr, expected in manifest["attribute_counts"].items():
        counts = {c: 0 for c in SCHEMA[attr]}
        for lab in labels.values():
            counts[lab[attr]] += 1
        if counts != expected:
            errors.append(f"labels: {attr} counts {counts} != manifest {expected}")
    return errors


# ---------------------------------------------------------------------------
# correlate
# ---------------------------------------------------------------------------


def scan_correlations(p_csv: Path, labels: dict[int, dict[str, str]]) -> list[tuple]:
    """(attribute, feature, metric, value, p) for every scorable pair.

    Numeric features pair with ordinal (3-class) attributes by Spearman's
    rho; boolean and categorical features pair with every attribute by
    Cramer's V with an uncorrected chi-square test. Constant columns have
    no defined statistic and are skipped.
    """
    schema, header, rows = read_matrix(p_csv)
    kinds = {c["name"]: c["kind"] for c in schema["columns"]}
    owners = [int(r[0]) for r in rows]
    n = len(rows)
    out = []
    for attr, classes in SCHEMA.items():
        raw = [labels[o][attr] for o in owners]
        codes = [classes.index(v) for v in raw]
        ordinal = len(classes) >= 3
        for j, name in enumerate(header[1:], start=1):
            cells = [r[j] for r in rows]
            if kinds[name] == "numeric":
                if not ordinal:
                    continue
                x = [float(v) for v in cells]
                if len(set(x)) < 2 or len(set(codes)) < 2:
                    continue
                rho, p = spearmanr(x, codes)
                rho, p = float(rho), float(p)
                if abs(rho) >= 1.0 - 1e-12:
                    rho, p = math.copysign(1.0, rho), 0.0
                out.append((attr, name, "spearman_rho", rho, p))
            else:
                xs = sorted(set(cells))
                ys = sorted(set(raw))
                if len(xs) < 2 or len(ys) < 2:
                    continue
                table = [[0] * len(ys) for _ in xs]
                for a, b in zip(cells, raw):
                    table[xs.index(a)][ys.index(b)] += 1
                chi2, p, _, _ = chi2_contingency(table, correction=False)
                v = min(1.0, math.sqrt(chi2 / (n * (min(len(xs), len(ys)) - 1))))
                out.append((attr, name, "cramers_v", v, float(p)))
    return out


def check_correlations(doc_path: Path, p_csv: Path, labels_csv: Path) -> list[str]:
    doc = json.loads(doc_path.read_text(encoding="utf-8"))
    alpha, top_k = doc["alpha"], doc["top_k"]
    labels = read_labels(labels_csv)
    scan = scan_correlations(p_csv, labels)
    n = len(read_matrix(p_csv)[2])
    by_key = {(a, f): (m, v, p) for a, f, m, v, p in scan}
    errors = []

    def near_alpha(p: float, a: float) -> bool:
        return abs(p - a) <= 1e-7 * a

    # Every reported value and p-value, recomputed.
    reported = doc["top_correlations"]
    for attr, hits in reported.items():
        for hit in hits:
            key = (attr, hit["feature"])
            if key not in by_key:
                errors.append(f"correlate: {key} is not a scorable pair")
                continue
            metric, value, p = by_key[key]
            if hit["metric"] != metric:
                errors.append(f"correlate: {key} metric {hit['metric']} != {metric}")
            if not _close(hit["value"], value, rel=1e-9, abs_=1e-9):
                errors.append(f"correlate: {key} value {hit['value']!r} != {value!r}")
            if not _close(hit["p_value"], p, rel=1e-6, abs_=1e-15):
                errors.append(f"correlate: {key} p {hit['p_value']!r} != {p!r}")
            if hit["n"] != n:
                errors.append(f"correlate: {key} n {hit['n']} != {n}")
            strong = metric == "spearman_rho" and abs(value) > 0.3
            if hit["strong"] != strong:
                errors.append(f"correlate: {key} strong flag {hit['strong']}")

    # The top-k choice: significant pairs ranked by |value|, then by name.
    for attr in SCHEMA:
        ranked = sorted(((abs(v), f) for a, f, _, v, p in scan
                         if a == attr and p < alpha), key=lambda t: (-t[0], t[1]))
        expected = [f for _, f in ranked[:top_k]]
        got = [h["feature"] for h in reported.get(attr, [])]
        if got == expected:
            continue
        # Tolerate only reorderings among ties and pairs at the alpha edge.
        scores = {f: s for s, f in ranked}
        edge = {f for a, f, _, v, p in scan if a == attr and near_alpha(p, alpha)}

        def tolerable(g: str, e: str) -> bool:
            return (g in edge or e in edge
                    or abs(scores.get(g, -1.0) - scores.get(e, -2.0)) <= 1e-9)

        if (len(got) != len(expected) and not edge) or any(
                g != e and not tolerable(g, e) for g, e in zip(got, expected)):
            errors.append(f"correlate: {attr} top-{top_k} {got} != {expected}")

    # Significance counts per (attribute, metric, alpha).
    counts = {(r["attribute"], r["metric"], r["alpha"]): r["count"]
              for r in doc["significance_counts"]}
    for attr in SCHEMA:
        for metric in ("spearman_rho", "cramers_v"):
            for a in SIG_ALPHAS:
                ps = [p for at, _, m, _, p in scan if at == attr and m == metric]
                lo = sum(1 for p in ps if p < a and not near_alpha(p, a))
                hi = sum(1 for p in ps if p < a or near_alpha(p, a))
                got = counts.get((attr, metric, a), 0)
                if not lo <= got <= hi:
                    errors.append(f"correlate: count {attr}/{metric}/{a} "
                                  f"{got} not in [{lo}, {hi}]")
    return errors


# ---------------------------------------------------------------------------
# featurize: M, P and Mbar recomputed from the cached JSON
# ---------------------------------------------------------------------------


def _slot_of(match: dict, handle: int) -> dict | None:
    for p in match.get("players") or []:
        if p.get("account_id") == handle:
            return p
    return None


def _active(players: dict) -> dict[int, set[int]]:
    """Match ids of the players featurize keeps (at least 5 matches)."""
    out = {}
    for handle, doc in players.items():
        mids = {e["match_id"] for e in doc["matches"]}
        if len(mids) >= 5:
            out[handle] = mids
    return out


def _num(value) -> float:
    return float(int(value or 0))


def naive_row(match: dict, handle: int) -> dict[str, object]:
    """The plain per-match columns of one player's row, from the raw document."""
    p = _slot_of(match, handle)
    radiant = p.get("isRadiant")
    if radiant is None:
        radiant = p["player_slot"] < 128
    team = _num(match.get("radiant_score") if radiant else match.get("dire_score"))
    enemy = _num(match.get("dire_score") if radiant else match.get("radiant_score"))
    duration = int(match["duration"])
    k, d, a, dn, lh = (int(p.get(key, 0) or 0) for key in
                       ("kills", "deaths", "assists", "denies", "last_hits"))
    minutes = max(duration / 60.0, 1.0)
    start = int(match.get("start_time", 0) or 0)
    n_players = len(match["players"])
    skill = match.get("skill")
    return {
        "won": match["radiant_win"] == bool(radiant),
        "duration_s": float(duration),
        "kills": float(k), "deaths": float(d), "assists": float(a),
        "denies": float(dn), "last_hits": float(lh),
        "kda": (k + a) / max(d, 1),
        "kill_participation": (k + a) / max(team, 1),
        "team_score": team, "enemy_score": enemy,
        "kills_per_min": k / minutes, "deaths_per_min": d / minutes,
        "assists_per_min": a / minutes, "denies_per_min": dn / minutes,
        "last_hits_per_min": lh / minutes,
        "first_blood_time": _num(match.get("first_blood_time")),
        "comeback": float(match.get("comeback") or 0.0),
        "throw": float(match.get("throw") or 0.0),
        "loss": float(match.get("loss") or 0.0),
        "win": float(match.get("win") or 0.0),
        "human_players": float(int(match.get("human_players", n_players)
                                   or n_players)),
        "start_hour": float((start // 3600) % 24),
        "my_word_total": float(sum((p.get("word_counts") or {}).values())),
        "all_word_total": float(sum((match.get("all_word_counts") or {}).values())),
        "cosmetics_price": float(sum(float(c.get("price", 0.0) or 0.0)
                                     for c in match.get("cosmetics") or []
                                     if int(c.get("owner_slot", 0) or 0)
                                     == p["player_slot"])),
        "game_mode": str(int(match.get("game_mode", 0) or 0)),
        "lobby_type": str(int(match.get("lobby_type", 0) or 0)),
        "region": str(int(match.get("region", 0) or 0)),
        "patch": str(int(match.get("patch", 0) or 0)),
        "skill": str(int(skill)) if skill is not None else "unknown",
        # 1970-01-01 was a Thursday (index 3 with Monday first).
        "day_of_week": DAY_NAMES[(start // 86400 + 3) % 7],
    }


def _cell_equal(cell: str, kind: str, value) -> bool:
    if kind == "boolean":
        return cell == ("true" if value else "false")
    if kind == "numeric":
        return _close(float(cell), float(value))
    return cell == str(value)


def check_match_matrix(m_csv: Path, naive: dict) -> list[str]:
    schema, header, rows = read_matrix(m_csv)
    kinds = {c["name"]: c["kind"] for c in schema["columns"]}
    expected_keys = sorted(naive)
    keys = [(int(r[0]), int(r[1])) for r in rows]
    errors = []
    if keys != expected_keys:
        errors.append(f"M: {len(keys)} rows, expected one per (player, match): "
                      f"{len(expected_keys)}")
    for r in rows:
        owner, mid = int(r[0]), int(r[1])
        expected = naive[(owner, mid)]
        for j, name in enumerate(header[2:], start=2):
            if not _cell_equal(r[j], kinds[name], expected[name]):
                errors.append(f"M: ({owner}, {mid}) {name} = {r[j]!r}, "
                              f"recomputed {expected[name]!r}")
                if len(errors) > 10:
                    return errors
    return errors


def _mean_std(values: list[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    return mean, math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def check_player_matrix(p_csv: Path, players: dict, naive: dict) -> list[str]:
    schema, header, rows = read_matrix(p_csv)
    col = {name: j for j, name in enumerate(header)}
    errors = []
    owners = [int(r[0]) for r in rows]
    if owners != sorted(_active(players)):
        errors.append("P: rows are not the players with at least 5 matches")
    for r in rows:
        handle = int(r[0])
        doc = players[handle]
        mids = sorted({e["match_id"] for e in doc["matches"]})
        rows_of = [naive[(handle, mid)] for mid in mids]
        expected = {
            "matches_count": float(len(rows_of)),
            "win_rate": sum(1.0 for x in rows_of if x["won"]) / len(rows_of),
            "total_cosmetics_price": float(sum(x["cosmetics_price"] for x in rows_of)),
            "rank_tier": float(doc["profile"].get("rank_tier", -1)),
        }
        for name in ("kills", "deaths", "denies", "duration_s", "cosmetics_price"):
            mean, std = _mean_std([float(x[name]) for x in rows_of])
            expected[f"mean_{name}"] = mean
            expected[f"std_{name}"] = std
        for name, value in expected.items():
            if not _close(float(r[col[name]]), value):
                errors.append(f"P: {handle} {name} = {r[col[name]]}, "
                              f"recomputed {value!r}")
        plus = "true" if doc["profile"].get("plus") else "false"
        if r[col["has_plus"]] != plus:
            errors.append(f"P: {handle} has_plus = {r[col['has_plus']]}")
        if len(errors) > 10:
            break
    return errors


def check_distilled(features: Path, n_variants: int) -> list[str]:
    """Every Mbar row is the M row of its (owner, match); the cap holds."""
    _, m_header, m_rows = read_matrix(features / "M.csv")
    m_by_key = {(r[0], r[1]): r for r in m_rows}
    m_count: dict[str, int] = {}
    for r in m_rows:
        m_count[r[0]] = m_count.get(r[0], 0) + 1
    paths = sorted(features.glob("Mbar_*.csv"))
    errors = []
    if len(paths) != n_variants:
        errors.append(f"Mbar: {len(paths)} variants, expected {n_variants}")
    width = len(m_header)
    for path in paths:
        _, header, rows = read_matrix(path)
        if header[:width] != m_header:
            errors.append(f"{path.name}: leading columns differ from M")
            continue
        per_owner: dict[str, int] = {}
        seen = set()
        for r in rows:
            key = (r[0], r[1])
            if key in seen:
                errors.append(f"{path.name}: row {key} repeated")
            seen.add(key)
            if m_by_key.get(key) != r[:width]:
                errors.append(f"{path.name}: row {key} differs from its M row")
                break
            per_owner[r[0]] = per_owner.get(r[0], 0) + 1
        for owner, total in m_count.items():
            want = min(total, DISTILL_CAP)
            if per_owner.get(owner, 0) != want:
                errors.append(f"{path.name}: owner {owner} has "
                              f"{per_owner.get(owner, 0)} rows, expected {want}")
                break
    if paths and max(m_count.values()) <= DISTILL_CAP:
        first = paths[0].read_bytes()
        if any(p.read_bytes() != first for p in paths[1:]):
            errors.append("Mbar: no owner exceeds the cap, yet variants differ")
    return errors


def check_planted_rho(p_csv: Path, labels_csv: Path, effects: list[dict],
                      tolerance: float = 0.1) -> list[str]:
    """Player-level Spearman of mean_<feature> vs the attribute's class codes.

    The recovered rho must lie within `tolerance` of the planted value, or
    within five standard errors where that is wider. On 484 players the
    standard error, (1 - rho^2) * sqrt(1.06 / (n - 3)) (Fieller, Hartley and
    Pearson 1957), is about 0.03 at rho = 0.6: a flat 0.1 is then a
    3-sigma band, which a seed in a few hundred would leave.
    """
    labels = read_labels(labels_csv)
    _, header, rows = read_matrix(p_csv)
    col = {name: j for j, name in enumerate(header)}
    n = len(rows)
    errors = []
    for eff in effects:
        classes = SCHEMA[eff["attribute"]]
        codes = [classes.index(labels[int(r[0])][eff["attribute"]]) for r in rows]
        x = [float(r[col["mean_" + eff["feature"]]]) for r in rows]
        rho = float(spearmanr(x, codes)[0])
        se = (1.0 - eff["rho"] ** 2) * math.sqrt(1.06 / (n - 3))
        if abs(rho - eff["rho"]) > max(tolerance, 5.0 * se):
            errors.append(f"planted rho {eff['feature']}/{eff['attribute']}: "
                          f"{rho:.3f}, planted {eff['rho']}")
    return errors


# ---------------------------------------------------------------------------
# Attack reports
# ---------------------------------------------------------------------------


def _check_cell(where: str, cell: dict, n_runs: int) -> list[str]:
    errors = []
    if cell.get("n_runs") != n_runs:
        errors.append(f"{where}: n_runs {cell.get('n_runs')} != {n_runs}")
    for key in ("mean", "std"):
        if not 0.0 <= cell.get(key, -1.0) <= 1.0:
            errors.append(f"{where}: {key} {cell.get(key)} outside [0, 1]")
    return errors


def _check_curve(where: str, points: list[dict], n_runs: int) -> list[str]:
    errors = []
    if [p["n"] for p in points] != SWEEP:
        errors.append(f"{where}: curve does not cover n = 1..30")
    for p in points:
        errors += _check_cell(f"{where}@{p['n']}", p, n_runs)
    return errors


def check_simple(report: dict, audited: tuple[str, ...], algorithms: list[str],
                 margin: float) -> list[str]:
    errors = []
    tables = report["metric_tables"]
    flags = set(report["flags"])
    for attr in SCHEMA:
        if attr not in audited:
            if f"skipped:{attr}:single_class" not in flags:
                errors.append(f"simple: {attr} was not skipped")
            continue
        folds = 10
        for flag in flags:
            if flag.startswith(f"reduced_folds:{attr}:"):
                folds = int(flag.rsplit(":", 1)[1])
        row = tables.get(attr, {})
        for alg in algorithms:
            if alg not in row:
                errors.append(f"simple: {attr} x {alg} missing")
                continue
            errors += _check_cell(f"simple {attr}/{alg}", row[alg], folds)
        if errors:
            continue
        best = max(v["mean"] for k, v in row.items() if k != "dummy_stratified")
        if best - row["dummy_stratified"]["mean"] < margin:
            errors.append(f"simple: {attr} best {best:.3f} does not beat dummy "
                          f"{row['dummy_stratified']['mean']:.3f} by {margin}")
    return errors


def check_one_match(report: dict, algorithms: list[str], n_runs: int) -> list[str]:
    errors = []
    for attr in SCHEMA:
        row = report["metric_tables"].get(attr, {})
        for alg in algorithms:
            if alg not in row:
                errors.append(f"one_match: {attr} x {alg} missing")
            else:
                errors += _check_cell(f"one_match {attr}/{alg}", row[alg], n_runs)
    return errors


def check_sophisticated(report: dict, n_runs: int,
                        planted: tuple[str, ...]) -> list[str]:
    errors = []
    for attr in SCHEMA:
        curve = report["curves"].get(attr)
        if curve is None:
            errors.append(f"sophisticated: no curve for {attr}")
            continue
        errors += _check_curve(f"sophisticated {attr}", curve, n_runs)
        first, last = curve[0], curve[-1]
        # Criterion 6d: on an attribute with a planted signal, averaging 30
        # matches is no worse than one match, within one standard deviation
        # of the single-match accuracy. On an attribute without signal,
        # averaging can entrench a wrong majority, so it is not checked.
        if attr in planted and last["mean"] < first["mean"] - first["std"]:
            errors.append(f"sophisticated: {attr} n=30 {last['mean']:.3f} below "
                          f"n=1 {first['mean']:.3f} - std {first['std']:.3f}")
    return errors


def check_indiscriminate(report: dict, n_runs: int) -> list[str]:
    errors = []
    for attr, classes in SCHEMA.items():
        if len(classes) < 3:
            continue
        row = report["metric_tables"].get(attr)
        if row is None:
            errors.append(f"indiscriminate: {attr} missing")
            continue
        errors += _check_cell(f"indiscriminate {attr}/top1", row["top1"], n_runs)
        errors += _check_cell(f"indiscriminate {attr}/top2", row["top2"], n_runs)
        if row["top2"]["mean"] < row["top1"]["mean"]:
            errors.append(f"indiscriminate: {attr} top2 < top1")
        if row["improvement"] != row["top2"]["mean"] - row["top1"]["mean"]:
            errors.append(f"indiscriminate: {attr} improvement != top2 - top1")
    return errors


def check_targeted(report: dict, n_runs: int) -> list[str]:
    errors = []
    for series in ("precision", "recall"):
        curve = report["curves"].get(series)
        if curve is None:
            errors.append(f"targeted: no {series} curve")
        else:
            errors += _check_curve(f"targeted {series}", curve, n_runs)
    return errors


def check_table8(stdout: str) -> list[str]:
    got = {}
    for line in stdout.splitlines():
        family, _, rest = line.partition(": reject ")
        if rest:
            got[family.strip()] = rest.strip()
    return [] if got == TABLE8 else [f"reproduce-table8: {got} != {TABLE8}"]


def compare_trees(a: Path, b: Path) -> list[str]:
    """Relative paths whose bytes differ (or exist on one side only)."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diff = sorted(str(p) for p in files_a ^ files_b)
    for rel in sorted(files_a & files_b):
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            diff.append(str(rel))
    return diff
