"""README's library example runs and prints what its comments say."""

import ast
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_block_runs():
    # Each expression statement ends in `  # value`, where value is its
    # repr, optionally followed by a parenthesised note.
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        expr, _, comment = lines[node.end_lineno - 1].partition("  # ")
        value = repr(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        assert comment == value or comment.startswith(value + " ("), (expr, comment, value)
        checked += 1
    assert checked == sum("  # " in line for line in lines)
