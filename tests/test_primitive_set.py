"""The functions in ``tensor.py`` that record on the tape are exactly the
primitives its module docstring lists.

A function records when it calls ``_apply``, which is how a backward rule
reaches the tape. The docstring's sentence "The primitive set is closed:
a, b, ... and z." is the documented trust boundary; a rule added without
listing it, or a listed name that no longer records, fails here.
"""

import ast
import re
from pathlib import Path

TENSOR = Path(__file__).resolve().parents[1] / "src" / "sslab" / "tensor.py"
LISTED = re.compile(r"The primitive set is closed:(.*?)\.", re.DOTALL)


def documented_primitives(tree: ast.Module) -> set[str]:
    match = LISTED.search(ast.get_docstring(tree) or "")
    assert match, "tensor.py's docstring no longer lists the primitive set"
    return {name.strip() for name in re.split(r",|\band\b", match.group(1)) if name.strip()}


def recording_functions(tree: ast.Module) -> set[str]:
    return {
        stmt.name
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef)
        and any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_apply" for n in ast.walk(stmt))
    }


def test_functions_calling_apply_are_the_documented_primitives():
    tree = ast.parse(TENSOR.read_text(encoding="utf-8"))
    assert recording_functions(tree) == documented_primitives(tree)

