"""Exactness lint: the package source has no float arithmetic anywhere.

Every count is an exact integer, so src/carlitz must never use true
division, a float literal, float() or round(), or a float function of
math; only math's integer functions may be imported.
"""

import ast
from pathlib import Path

import pytest

import carlitz

SRC = Path(carlitz.__file__).parent
INTEGER_MATH = {"factorial", "lcm", "prod", "comb", "perm", "gcd", "isqrt"}


def float_uses(source: str) -> list[str]:
    """One line per float use in this source, with its line number."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", 0)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{line}: true division")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{line}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in ("float", "round"):
            found.append(f"{line}: {node.id}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{line}: math.{a.name}" for a in node.names if a.name not in INTEGER_MATH]
        elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
            found.append(f"{line}: import math")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_has_no_float_arithmetic(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "x = a / b", "x /= 2", "x = 0.5", "x = 1e3", "x = float(y)", "x = round(y)",
    "from math import sqrt", "from math import factorial, log2", "import math",
])
def test_lint_flags_each_float_use(source):
    assert len(float_uses(source)) == 1
