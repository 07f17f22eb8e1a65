"""The one output format of every report.

A document is a mapping, whose nested mappings flatten to dotted names,
a list of records (mappings with equal keys), or a mapping that holds
its records under "records".  Every float is rounded here, once, to 12
significant digits, so all formats print the same digits and parsed
JSON re-serializes to the same bytes.
"""

from __future__ import annotations

import json


def _sig(x: float) -> float:
    # 12 significant digits, enough to express every test tolerance
    return float(f"{x:.12g}")


def _rounded(doc):
    if isinstance(doc, float):
        return _sig(doc)
    if isinstance(doc, dict):
        return {k: _rounded(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_rounded(v) for v in doc]
    return doc


def _flat(doc: dict, prefix: str = ""):
    for k, v in doc.items():
        if isinstance(v, dict):
            yield from _flat(v, f"{prefix}{k}.")
        else:
            yield f"{prefix}{k}", v


def _cell(v) -> str:
    return f"{v:.12g}" if isinstance(v, float) else str(v)


def render(doc: dict | list, fmt: str) -> str:
    """Render a document as "json" (indent 2), "csv" (name,value lines, or
    a header and a row per record) or "table" (aligned name/value lines,
    or a header, a rule and aligned columns, text left and numbers right).
    """
    doc = _rounded(doc)
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    records = doc if isinstance(doc, list) else doc.get("records")
    if records is None:
        head, rows = ["name", "value"], [[k, _cell(v)] for k, v in _flat(doc)]
    else:
        head = list(records[0])
        rows = [[_cell(v) for v in r.values()] for r in records]
    if fmt == "csv":
        lines = [",".join(cells) for cells in [head] + rows]
    elif records is None:
        width = max(len(k) for k, _ in rows)
        lines = [f"{k:<{width}}  {v}" for k, v in rows]
    else:
        left = [isinstance(v, str) for v in records[0].values()]
        widths = [max(map(len, col)) for col in zip(head, *rows)]
        lines = ["  ".join(c.ljust(w) if lt else c.rjust(w)
                           for c, w, lt in zip(cells, widths, left))
                 for cells in [head] + rows]
        lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines) + "\n"
