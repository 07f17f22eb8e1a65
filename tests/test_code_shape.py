"""The shape of the library's code: no function a reader cannot hold.

A function or method over 120 lines, its docstring included, fails here
by name, so that a kernel split into parts does not quietly grow back
into one.
"""

from __future__ import annotations

import ast
from pathlib import Path

import telegraph_box

MAX_LINES = 120


def test_no_function_spans_more_than_120_lines():
    package = Path(telegraph_box.__file__).parent
    long = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                span = node.end_lineno - node.lineno + 1
                if span > MAX_LINES:
                    long.append(f"{path.name}:{node.lineno} {node.name} ({span} lines)")
    assert not long, long
