"""Deterministic CSV/JSON emission for sweep results.

A table is named columns, ``table[name]``: a dict of lists or arrays, or a
structured array.  CSV files carry the resolved run configuration as
``# key=value`` comment lines before the header row; floats are printed with
12 significant digits so that parse -> re-emit round-trips byte-identically.
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


def _typed_columns(table, columns):
    """(conversion, cells) per column, the cells Python scalars (``tolist``
    of an array column).  A column whose cells share one conversion keeps
    it; a column of mixed conversions is rendered cell by cell and gets
    ``%s``."""
    typed = []
    for c in columns:
        col = table[c]
        cells = col.tolist() if hasattr(col, "tolist") else list(col)
        specs = {_spec(kind) for kind in set(map(type, cells))}
        if len(specs) > 1:
            typed.append(("%s", [fmt_value(v) for v in cells]))
        else:
            typed.append((specs.pop() if specs else "%s", cells))
    return typed


def export_table(table, columns, config=None, fmt="csv") -> str:
    """The text of the ``columns`` of ``table``, in that order, with the
    ``config`` items as sorted ``# key=value`` header lines (CSV) or a
    ``config`` object (JSON).

    Every cell reads as :func:`fmt_value` writes it.  The table has one
    %-template, its columns' conversions joined by commas: a CSV row is that
    template applied to the row's cells, and a JSON row is its conversions
    applied cell by cell.  Writing the text is the caller's step
    (:func:`write_text`).
    """
    config = dict(config or {})
    typed = _typed_columns(table, columns)
    specs = [spec for spec, _ in typed]
    rows = zip(*(cells for _, cells in typed))
    if fmt == "csv":
        lines = [f"# {k}={fmt_value(v)}" for k, v in sorted(config.items())]
        lines.append(",".join(columns))
        template = ",".join(specs)
        lines.extend(template % cells for cells in rows)
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = {
            "config": {k: fmt_value(v) for k, v in sorted(config.items())},
            "columns": columns,
            "rows": [[spec % (v,) for spec, v in zip(specs, cells)] for cells in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        raise QcbError(f"unknown output format {fmt!r}")
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


def read_table(path) -> tuple[dict, list[str], dict]:
    """Parse a CSV written by :func:`export_table`.

    Returns (config, columns, table), the table a dict of column lists;
    numeric cells come back as floats.  Unreadable paths, and a row whose
    cell count differs from the header's, raise QcbError.
    """
    config: dict = {}
    columns: list[str] = []
    rows: list[list] = []
    for line in filter(None, read_text(path).split("\n")):
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
