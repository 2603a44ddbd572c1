"""Deterministic CSV/JSON emission for sweep results.

CSV files carry the fully resolved run configuration as ``# key=value``
comment lines before the header row; floats are printed with 12 significant
digits so that parse -> re-emit round-trips byte-identically.
"""

from __future__ import annotations

import json
import math

from .exceptions import QcbError


def fmt_value(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return f"{v:.12g}"
    return str(v)


def export_table(rows, columns=None, config=None, path=None, fmt="csv") -> str:
    """Serialize homogeneous row dicts; write to ``path`` if given.

    Returns the serialized text.  Unwritable paths raise QcbError (the CLI
    maps that to exit code 3).
    """
    rows = list(rows)
    if columns is None:
        columns = list(rows[0].keys()) if rows else []
    config = dict(config or {})
    if fmt == "csv":
        lines = [f"# {k}={fmt_value(v)}" for k, v in sorted(config.items())]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(fmt_value(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = {
            "config": {k: fmt_value(v) for k, v in sorted(config.items())},
            "columns": columns,
            "rows": [[fmt_value(row[c]) for c in columns] for row in rows],
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


def read_table(path) -> tuple[dict, list[str], list[dict]]:
    """Parse a CSV written by :func:`export_table`.

    Returns (config, columns, rows); numeric cells come back as floats.
    Unreadable paths raise QcbError.
    """
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise QcbError(f"cannot read {path}: {exc}") from exc
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
