"""Named-column feature table with CSV + sidecar-schema persistence.

Three variants exist: per-player ("P"), per-match ("M"), and the distilled
per-match variant ("M_bar", at most 30 rows per owner). Numeric cells are
always floats, booleans are Python bools, categoricals are strings, which
keeps save/load round trips byte-stable.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .errors import SchemaError

if TYPE_CHECKING:
    import numpy as np

VARIANTS = ("P", "M", "M_bar")
COLUMN_KINDS = ("numeric", "categorical", "boolean")

DISTILL_CAP = 30


@dataclass(frozen=True)
class Column:
    name: str
    kind: str

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise SchemaError(f"unknown column kind {self.kind!r}", path=self.name)


@dataclass
class FeatureMatrix:
    variant: str
    columns: list[Column]
    rows: list[list]
    row_owner: list[int]
    row_match: Optional[list[int]] = None
    variant_seed: Optional[int] = None
    config_hash: Optional[str] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise SchemaError(f"unknown variant {self.variant!r}")
        width = len(self.columns)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise SchemaError(f"row {i} has {len(row)} cells, expected {width}")
        if len(self.row_owner) != len(self.rows):
            raise SchemaError("row_owner length does not match rows")
        if self.row_match is not None and len(self.row_match) != len(self.rows):
            raise SchemaError("row_match length does not match rows")
        if self.variant == "M_bar":
            worst = max(map(len, self.owner_rows.values()), default=0)
            if worst > DISTILL_CAP:
                raise SchemaError(f"M_bar has {worst} rows for one owner (cap {DISTILL_CAP})")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @cached_property
    def _column_positions(self) -> dict[str, int]:
        """Position of each column name; the first wins on a repeated name."""
        positions: dict[str, int] = {}
        for i, col in enumerate(self.columns):
            positions.setdefault(col.name, i)
        return positions

    def column_index(self, name: str) -> int:
        return self._column_positions[name]

    def column_values(self, name: str) -> list:
        idx = self.column_index(name)
        return [row[idx] for row in self.rows]

    @cached_property
    def owner_rows(self) -> dict[int, list[int]]:
        """Ascending row positions per owner, owners in first-appearance order."""
        index: dict[int, list[int]] = {}
        for i, owner in enumerate(self.row_owner):
            index.setdefault(owner, []).append(i)
        return index

    @cached_property
    def float_columns(self) -> tuple[list[int], "np.ndarray"]:
        """Positions of the numeric and boolean columns, and their cells as
        one (columns, rows) float64 block, each column a contiguous row
        (booleans read 1.0/0.0). Like `owner_rows`, it assumes the rows do
        not change after construction."""
        import numpy as np

        positions = [i for i, c in enumerate(self.columns) if c.kind != "categorical"]
        block = np.array([[row[i] for row in self.rows] for i in positions],
                         dtype=float).reshape(len(positions), len(self.rows))
        return positions, block

    def owners(self) -> list[int]:
        """Distinct owners in first-appearance order."""
        return list(self.owner_rows)

    def column_hash(self) -> str:
        return column_hash(self.columns)


def column_hash(columns: Sequence[Column]) -> str:
    blob = "|".join(f"{c.name}:{c.kind}" for c in columns)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _format_boolean(value) -> str:
    return "true" if value else "false"


# The cell each kind of column writes, as a value the csv writer formats:
# a float is written as its repr, anything else as its str.
_CELL_FORMATTERS = {"boolean": _format_boolean, "numeric": float,
                    "categorical": str}


def _parse_cell(text: str, kind: str):
    """The value `save_matrix` wrote: ValueError for a boolean other than
    "true"/"false" and for a number that is not finite."""
    if kind == "boolean":
        if text not in ("true", "false"):
            raise ValueError(f"not a boolean: {text!r}")
        return text == "true"
    if kind == "numeric":
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"not a finite number: {text!r}")
        return value
    return text


class _LastLine:
    """File-like sink that keeps the line a csv writer wrote last."""

    text = ""

    def write(self, text: str) -> None:
        self.text = text


def format_lines(columns: Sequence[Column], rows: Sequence[list],
                 owners: Sequence[int],
                 match_ids: Optional[Sequence[int]] = None) -> list[str]:
    """The CSV line of each row as a saved matrix holds it: the owner, the
    match id when `match_ids` is given, then the cells."""
    formatters = [_CELL_FORMATTERS[c.kind] for c in columns]
    sink = _LastLine()
    writer = csv.writer(sink)
    out = []
    for i, row in enumerate(rows):
        lead = [str(owners[i])]
        if match_ids is not None:
            lead.append(str(match_ids[i]))
        writer.writerow(lead + [f(v) for f, v in zip(formatters, row)])
        out.append(sink.text)
    return out


def write_lines(csv_path: str | Path, variant: str, columns: Sequence[Column],
                lines: Iterable[str], has_match_ids: bool,
                variant_seed: Optional[int] = None,
                config_hash: Optional[str] = None) -> None:
    """A matrix CSV of finished `format_lines` lines plus its
    `.schema.json` sidecar with the metadata."""
    csv_path = Path(csv_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    header = ["_owner"] + (["_match"] if has_match_ids else [])
    header += [c.name for c in columns]
    sink = _LastLine()
    csv.writer(sink).writerow(header)
    n_rows = 0
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(sink.text)
        for line in lines:
            fh.write(line)
            n_rows += 1
    sidecar = {
        "format_version": 1,
        "variant": variant,
        "columns": [{"name": c.name, "kind": c.kind} for c in columns],
        "has_match_ids": has_match_ids,
        "variant_seed": variant_seed,
        "config_hash": config_hash,
        "n_rows": n_rows,
        "column_hash": column_hash(columns),
    }
    schema_path = csv_path.with_suffix(csv_path.suffix + ".schema.json")
    schema_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")


def save_matrix(matrix: FeatureMatrix, csv_path: str | Path) -> None:
    """CSV of the rows plus a `.schema.json` sidecar with the metadata."""
    write_lines(csv_path, matrix.variant, matrix.columns,
                format_lines(matrix.columns, matrix.rows, matrix.row_owner,
                             matrix.row_match),
                matrix.row_match is not None, matrix.variant_seed,
                matrix.config_hash)


def _bad_column(rec: list[str], header: list[str], kinds: list[str]) -> str:
    """Name of the first cell of a full-width CSV record that does not parse."""
    for name, kind, text in zip(header, kinds, rec):
        try:
            int(text) if kind == "id" else _parse_cell(text, kind)
        except ValueError:
            return name


def load_matrix(csv_path: str | Path) -> FeatureMatrix:
    """Read a matrix saved by `save_matrix`; a malformed sidecar or cell
    raises a SchemaError naming the file (and the data row and column)."""
    csv_path = Path(csv_path)
    schema_path = csv_path.with_suffix(csv_path.suffix + ".schema.json")
    if not schema_path.exists():
        raise SchemaError(f"missing sidecar schema for {csv_path}")
    try:
        sidecar = json.loads(schema_path.read_text(encoding="utf-8"))
        columns = [Column(c["name"], c["kind"]) for c in sidecar["columns"]]
        variant = sidecar["variant"]
    except KeyError as exc:
        raise SchemaError(f"missing field {exc}", path=str(schema_path)) from exc
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"not a matrix schema: {exc}", path=str(schema_path)) from exc
    except SchemaError as exc:
        raise SchemaError(str(exc), path=str(schema_path)) from exc
    has_match = bool(sidecar.get("has_match_ids"))
    rows: list[list] = []
    owners: list[int] = []
    match_ids: list[int] = [] if has_match else None  # type: ignore[assignment]
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = ["_owner"] + (["_match"] if has_match else []) + [c.name for c in columns]
        if header != expected:
            raise SchemaError("CSV header does not match sidecar schema",
                              path=str(csv_path))
        row, rec = 0, []
        per_owner: dict[int, int] = {}  # M_bar rows so far, held to the cap
        try:
            for row, rec in enumerate(reader, 1):
                if len(rec) != len(expected):
                    # Name the first missing cell, or the last column when
                    # the row runs past it.
                    column = expected[min(len(rec), len(expected) - 1)]
                    raise SchemaError(f"data row {row}, column {column!r}: "
                                      f"{len(rec)} cells, expected {len(expected)}",
                                      path=str(csv_path))
                owner = int(rec[0])
                owners.append(owner)
                if variant == "M_bar":
                    per_owner[owner] = per_owner.get(owner, 0) + 1
                    if per_owner[owner] > DISTILL_CAP:
                        raise SchemaError(f"data row {row}, column '_owner': owner "
                                          f"{owner} has more than {DISTILL_CAP} rows",
                                          path=str(csv_path))
                offset = 1
                if has_match:
                    match_ids.append(int(rec[1]))
                    offset = 2
                rows.append([_parse_cell(t, c.kind)
                             for t, c in zip(rec[offset:], columns)])
        except ValueError as exc:
            kinds = ["id"] * (len(expected) - len(columns)) + [c.kind for c in columns]
            column = _bad_column(rec, expected, kinds)
            raise SchemaError(f"data row {row}, column {column!r}: {exc}",
                              path=str(csv_path)) from exc
    return FeatureMatrix(
        variant=variant,
        columns=columns,
        rows=rows,
        row_owner=owners,
        row_match=match_ids,
        variant_seed=sidecar.get("variant_seed"),
        config_hash=sidecar.get("config_hash"),
    )
