"""Every public module-level function and class in ``src/sslab`` has a caller,
and every name a ``src/sslab`` module imports is used there.

A definition counts as used when its name occurs in ``src/``, ``scripts/``
or ``perfbench/`` outside its own definition: as a name, as an attribute,
or as part of a dotted string such as perfbench's ``"Tape.backward"``
patch targets. Imports alone do not count, and neither does ``tests/``.
An imported name counts as used when it occurs in its own module outside
the import statements, by the same rule; ``from __future__`` imports are
exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
IMPORTS = (ast.Import, ast.ImportFrom)


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


def unused_imports(root: Path) -> list[str]:
    """``module.name`` of each name imported into a ``src/sslab`` module and not used in it."""
    unused = []
    for path in sorted((root / "src" / "sslab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [n for n in ast.walk(tree) if isinstance(n, IMPORTS) and getattr(n, "module", None) != "__future__"]
        # an import binds its names through ``alias`` nodes, which ``_names`` does not read
        imported = {(a.asname or a.name).split(".")[0] for node in imports for a in node.names}
        unused += [f"{path.stem}.{name}" for name in sorted(imported - _names(tree))]
    return unused


def test_every_public_definition_has_a_caller():
    assert unreferenced_definitions(ROOT) == []


def test_every_import_is_used():
    assert unused_imports(ROOT) == []
