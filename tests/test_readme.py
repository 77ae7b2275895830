"""The README's library example runs and gives the values its comments state."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library example") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_values():
    source = library_example()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        # a bare expression's comment opens with its value
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        comment = lines[node.lineno - 1].partition("# ")[2]
        expected = ast.literal_eval(comment.split(",")[0])
        if isinstance(expected, float):
            assert value == pytest.approx(expected)
        else:
            assert value == expected
        checked.append(expected)
    assert checked == [2.0, 2.0, "candidate_found"]
