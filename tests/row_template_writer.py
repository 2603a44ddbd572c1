"""The per-row-template table writer, kept as the byte-for-byte oracle of
``qcb.output.export_table``.

This is the writer as it was before repeated and NaN columns were converted
once per chunk of rows: every cell of every row goes through its column's
conversion, in CSV through one %-template per table, its columns'
conversions joined by commas.  ``tests/test_cli.py`` asserts that the
library writer gives the same text, in CSV and JSON.
"""

from __future__ import annotations

import json

from qcb.exceptions import QcbError


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
