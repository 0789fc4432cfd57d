"""Every public module-level function and class in ``src/sslab`` has a caller.

A definition counts as used when its name occurs in ``src/``, ``scripts/``
or ``perfbench/`` outside its own definition: as a name, as an attribute,
or as part of a dotted string such as perfbench's ``"Tape.backward"``
patch targets. Imports alone do not count, and neither does ``tests/``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST) -> set[str]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and DOTTED.fullmatch(sub.value):
            found.update(sub.value.split("."))
    return found


def unreferenced_definitions(root: Path) -> list[str]:
    """``module.name`` of each public top-level def or class in ``src/sslab`` that nothing references."""
    package = root / "src" / "sslab"
    files = [*package.glob("*.py"), *(root / "scripts").glob("*.py"), *(root / "perfbench").rglob("*.py")]
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in files:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if path.parent == package and isinstance(stmt, DEFINITIONS) and not stmt.name.startswith("_"):
                own = stmt.name
                defined[own] = f"{path.stem}.{own}"
            used |= _names(stmt) - {own}
    return sorted(qualified for name, qualified in defined.items() if name not in used)


def test_every_public_definition_has_a_caller():
    assert unreferenced_definitions(ROOT) == []
