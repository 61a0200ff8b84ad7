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


# -- every definition in the package is called from the package ---------------

# Names that nothing in src/ calls, each kept for a reason: a statement of
# a result on the truncated complexes (PAPER.md, "Statements that only the
# tests call"), or a basic operation with no second spelling, which the
# tests would otherwise have to rebuild.
KEEP = {
    "cup_map": "statement: the cup product with a closed class is a map of windows",
    "degeneration_equivalence": "statement: a projective bundle's windows degenerate"
                                " exactly when its base's do (acceptance criterion 11)",
    "hodge_filtration_projective_predict": "statement: the Hodge filtration of a"
                                           " projective bundle, from its base",
    "e1_iso_implies_total_iso_check": "statement: an isomorphism on E_1 is one on"
                                      " total cohomology",
    "compose": "composition of chain maps or of bicomplex maps",
    "identity_chain_map": "the identity chain map",
    "identity_bicomplex_map": "the identity bicomplex map",
    "column_complex": "row q of a double complex with d1, the partner of row_complex",
    "with_twist_rank": "a model at another twist rank",
    "scale": "a matrix times a scalar",
    "window_map": "the comparison map between two windows of one complex",
    "degenerates_at": "whether page r already has the limit dimensions",
    "wedge": "the wedge product of two elements of a model",
    "integral": "integration of a top-degree element against the fundamental class",
}


def uncalled_definitions(sources: dict) -> list:
    """(module, name, line) of each function, class and method of sources
    (module name -> source text) whose name no other module reads and its
    own module reads only inside the definition itself; dunders are
    exempt.  A read is a bare name or an attribute."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    reads = [(node.id if isinstance(node, ast.Name) else node.attr, mod, node.lineno)
             for mod, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))]
    out = []
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(read == name and (where != mod or not node.lineno <= line <= node.end_lineno)
                       for read, where, line in reads):
                out.append((mod, name, node.lineno))
    return out


def test_the_scan_sees_an_uncalled_definition():
    sources = {
        "a": "def used():\n    pass\n\ndef unused():\n    unused()\n\nclass C:\n"
             "    def __len__(self):\n        return 0\n    def method(self):\n        pass\n",
        "b": "from .a import C, used\nused(C())\n",
    }
    assert uncalled_definitions(sources) == [("a", "unused", 4), ("a", "method", 10)]


def test_every_definition_is_called_from_the_package():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    found = [(mod, name, line) for mod, name, line in uncalled_definitions(sources)
             if name not in KEEP]
    assert found == []


def test_every_kept_name_is_still_defined_and_uncalled():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    assert {name for _mod, name, _line in uncalled_definitions(sources)} == set(KEEP)
