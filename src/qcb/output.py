"""Deterministic CSV/JSON emission for sweep results.

A table is named columns, ``table[name]``: a dict of lists or arrays, or a
structured array.  CSV files carry the resolved run configuration as
``# key=value`` comment lines before the header row; floats are printed with
12 significant digits so that parse -> re-emit round-trips byte-identically.

Rows are rendered :data:`CHUNK_ROWS` at a time.  Within a chunk each
distinct column becomes one list of cell texts, made by one ``%`` call over
its cells; an array column with the dtype and bytes of an earlier one (the
mirrored V_ji of a covariance) reads that column's texts.  A row is its
columns' texts.
"""

from __future__ import annotations

import json

import numpy as np

from .exceptions import QcbError

# Rows rendered at a time: bounds the cells and texts held at once.
CHUNK_ROWS = 1024

# The conversion of a one-dimensional array column, by dtype kind.
_ARRAY_SPECS = {"f": "%.12g", "i": "%s", "u": "%s", "b": "%d"}


def _spec(kind: type) -> str:
    """The %-conversion of a cell of type ``kind``: floats with 12
    significant digits (nan, inf and -0 as Python prints them), bools as
    1/0, anything else as ``str`` gives it."""
    if issubclass(kind, bool):
        return "%d"
    if issubclass(kind, float):
        return "%.12g"
    return "%s"


def fmt_value(v) -> str:
    """Text of one table or header cell (see :func:`_spec`)."""
    return _spec(type(v)) % (v,)


def _convert(spec: str, cells: list) -> list[str]:
    """The texts of ``cells`` (at least one: :func:`_chunks` yields no empty
    run) under the one conversion ``spec``: one ``%`` call over all of them,
    split at the newlines.  ``%s`` is ``str`` of each cell, since a string
    cell may hold a newline."""
    if spec == "%s":
        return list(map(str, cells))
    return ("\n".join([spec] * len(cells)) % tuple(cells)).split("\n")


def _texts(part) -> list[str]:
    """The cell texts of a slice of a column: an array's under its dtype's
    conversion, a list's under its cells' shared one, or :func:`fmt_value`
    of each cell when their types mix."""
    if isinstance(part, np.ndarray):
        return _convert(_ARRAY_SPECS[part.dtype.kind], part.tolist())
    specs = {_spec(kind) for kind in set(map(type, part))}
    if len(specs) == 1:
        return _convert(specs.pop(), part)
    return list(map(fmt_value, part))


def _chunks(table, columns):
    """The cell texts of each of ``columns`` of ``table``, for each run of
    :data:`CHUNK_ROWS` rows.  Within a run, an array column whose dtype and
    bytes repeat an earlier one's shares that column's texts.  Columns of
    unequal length raise QcbError."""
    cols = []
    for c in columns:
        col = table[c]
        # a longdouble array's cells are not Python floats: a list column
        if not (isinstance(col, np.ndarray) and col.ndim == 1
                and col.dtype.kind in _ARRAY_SPECS and col.dtype.itemsize <= 8):
            col = col.tolist() if hasattr(col, "tolist") else list(col)
        cols.append(col)
    lengths = [len(col) for col in cols]
    if len(set(lengths)) > 1:
        raise QcbError("table columns differ in length: " + ", ".join(
            f"{c}={n}" for c, n in zip(columns, lengths)))
    n = lengths[0] if lengths else 0
    for start in range(0, n, CHUNK_ROWS):
        parts = cols if n <= CHUNK_ROWS else [col[start:start + CHUNK_ROWS] for col in cols]
        texts, shared = [], {}
        for part in parts:
            if not isinstance(part, np.ndarray):
                texts.append(_texts(part))
                continue
            key = (part.dtype, part.tobytes())
            if key not in shared:
                shared[key] = _texts(part)
            texts.append(shared[key])
        yield texts


def export_table(table, columns, config=None, fmt="csv") -> str:
    """The text of the ``columns`` of ``table``, in that order, with the
    ``config`` items as sorted ``# key=value`` header lines (CSV) or a
    ``config`` object (JSON).

    Every cell reads as :func:`fmt_value` writes it.  A CSV row is its
    columns' cell texts joined by commas, and a JSON row lists them.
    Columns of unequal length raise QcbError.  Writing the text is the
    caller's step (:func:`write_text`).
    """
    if fmt not in ("csv", "json"):
        raise QcbError(f"unknown output format {fmt!r}")
    items = sorted(dict(config or {}).items())
    if fmt == "csv":
        lines = [f"# {k}={fmt_value(v)}" for k, v in items]
        lines.append(",".join(columns))
        for texts in _chunks(table, columns):
            lines.extend(map(",".join, zip(*texts)))
        return "\n".join(lines) + "\n"
    payload = {
        "config": {k: fmt_value(v) for k, v in items},
        "columns": columns,
        "rows": [list(row) for texts in _chunks(table, columns) for row in zip(*texts)],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path``; unwritable paths raise QcbError."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise QcbError(f"cannot write {path}: {exc}") from exc


def read_text(path) -> str:
    """The text of ``path``; unreadable paths raise QcbError."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise QcbError(f"cannot read {path}: {exc}") from exc


def read_table(path) -> tuple[dict, list[str], dict]:
    """Parse a CSV written by :func:`export_table`.

    Returns (config, columns, table), the table a dict of column lists;
    numeric cells come back as floats.  Unreadable paths, a JSON table and
    a row whose cell count differs from the header's raise QcbError.
    """
    text = read_text(path)
    if text.lstrip().startswith("{"):
        raise QcbError(f"{path} is a JSON table; read_table reads the CSV form")
    config: dict = {}
    columns: list[str] = []
    rows: list[list] = []
    for line in filter(None, text.split("\n")):
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                k, v = body.split("=", 1)
                config[k.strip()] = _maybe_number(v.strip())
            continue
        cells = line.split(",")
        if not columns:
            columns = cells
            continue
        if len(cells) != len(columns):
            raise QcbError(f"{path}: a row of {len(cells)} cells under a header "
                           f"of {len(columns)}")
        rows.append(list(map(_maybe_number, cells)))
    return config, columns, {c: [row[i] for row in rows] for i, c in enumerate(columns)}


def _maybe_number(s: str):
    try:
        return float(s)
    except ValueError:
        return s


def parallel_map(fn, items):
    """Serial map, unused by qcb: kept while BENCHMARK.json lists it."""
    return [fn(x) for x in items]
