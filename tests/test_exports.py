"""Every name `chillwave/__init__.py` exports has a user besides the tests.

A name passes when code reads it in a `src/` module other than the one it
comes from or in `perfbench/*.py`, or when README.md names it for users.
A public function that only tests call fails here.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chillwave"


def names_read(path: Path) -> set[str]:
    """Names, attributes and imported names in a module's code (not in its
    strings or comments)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_user():
    exports = {}  # name -> module it is imported from
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exports.update((alias.name, node.module) for alias in node.names)
    assert len(exports) > 30
    readers = {path.stem: names_read(path) for path in PACKAGE.glob("*.py")}
    del readers["__init__"]
    bench = set().union(*(names_read(p) for p in (ROOT / "perfbench").glob("*.py")))
    readme = (ROOT / "README.md").read_text()
    unused = [
        name for name, module in exports.items()
        if not any(name in names for stem, names in readers.items() if stem != module)
        and name not in bench
        and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert unused == []
