"""Deterministic CSV/JSON emission for sweep results.

CSV files carry the fully resolved run configuration as ``# key=value``
comment lines before the header row; floats are printed with 12 significant
digits so that parse -> re-emit round-trips byte-identically.
"""

from __future__ import annotations

import json

from .exceptions import QcbError


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


def _row_formats(rows, columns):
    """Yield (conversions, cells) per row, the cells in column order.  The
    conversions are worked out once per sequence of cell types, so a table
    of homogeneous rows has one."""
    formats: dict = {}
    for row in rows:
        cells = tuple(map(row.__getitem__, columns))
        kinds = tuple(map(type, cells))
        if kinds not in formats:
            specs = tuple(map(_spec, kinds))
            formats[kinds] = specs, ",".join(specs)
        yield formats[kinds], cells


def export_table(rows, columns=None, config=None, path=None, fmt="csv") -> str:
    """Serialize homogeneous row dicts; write to ``path`` if given.

    Every cell reads as :func:`fmt_value` writes it.  A CSV row is rendered
    with one %-template (its conversions joined by commas) and a JSON row
    with the same conversions cell by cell.  Returns the serialized text.
    Unwritable paths raise QcbError (the CLI maps that to exit code 3).
    """
    rows = list(rows)
    if columns is None:
        columns = list(rows[0].keys()) if rows else []
    config = dict(config or {})
    typed_rows = _row_formats(rows, columns)
    if fmt == "csv":
        lines = [f"# {k}={fmt_value(v)}" for k, v in sorted(config.items())]
        lines.append(",".join(columns))
        lines.extend(template % cells for (_, template), cells in typed_rows)
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = {
            "config": {k: fmt_value(v) for k, v in sorted(config.items())},
            "columns": columns,
            "rows": [[spec % (v,) for spec, v in zip(specs, cells)]
                     for (specs, _), cells in typed_rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        raise QcbError(f"unknown output format {fmt!r}")
    if path is not None:
        write_text(path, text)
    return text


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


def read_table(path) -> tuple[dict, list[str], list[dict]]:
    """Parse a CSV written by :func:`export_table`.

    Returns (config, columns, rows); numeric cells come back as floats.
    Unreadable paths raise QcbError.
    """
    lines = read_text(path).split("\n")
    config: dict = {}
    columns: list[str] = []
    rows: list[dict] = []
    for line in lines:
        if not line:
            continue
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
        rows.append({c: _maybe_number(x) for c, x in zip(columns, cells)})
    return config, columns, rows


def _maybe_number(s: str):
    try:
        return float(s)
    except ValueError:
        return s


def parallel_map(fn, items):
    """Serial map, unused by qcb: kept while BENCHMARK.json lists it."""
    return [fn(x) for x in items]
