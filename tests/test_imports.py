"""No file in ``src/cvmdi/`` or ``tests/`` imports a name that it never uses.

No linter is part of the toolchain, so each file is parsed with ``ast``: a
name that an import binds must be read somewhere in the file or be listed in
its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "cvmdi").glob("*.py"), *(ROOT / "tests").glob("*.py")])

# (file, name) -> why the file keeps an import that it does not use
ALLOWED = {
    ("src/cvmdi/protocols.py", "symplectic_eigenvalues"):
        "bench/tracer.py wraps cvmdi.protocols.symplectic_eigenvalues by name, so the "
        "module keeps the binding although no key-rate path calls it",
}


def unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return imported - used


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    rel = str(path.relative_to(ROOT))
    allowed = {name for (file, name) in ALLOWED if file == rel}
    assert unused_imports(path) - allowed == set()


@pytest.mark.parametrize("file,name", list(ALLOWED))
def test_allowed_unused_imports_are_still_unused(file, name):
    # an exception whose import went, or is now used, is dropped from ALLOWED
    assert name in unused_imports(ROOT / file), ALLOWED[file, name]
