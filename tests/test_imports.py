"""Import hygiene: no module of the package or of the tests imports a name
it never uses.

pyflakes and its kin are not dependencies, so this walks each module's AST:
a name bound by an import must be read somewhere else in the module.  The
package's __init__.py is skipped, since its imports are the public
re-exports."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "spectra_dr"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_scan_sees_an_unused_import():
    src = "from .a import used, unused\nimport os.path\nimport sys as system\nused()\n"
    assert unused_imports(src) == [(1, "unused"), (2, "os"), (3, "system")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []
