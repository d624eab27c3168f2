"""No file in ``src/cvmdi/`` or ``tests/`` imports a name that it never uses,
``src/cvmdi/`` defines nothing that only tests run and no exception class
that it never raises, and the key-rate path does not load numpy.

No linter is part of the toolchain, so each file is parsed with ``ast``: a
name that an import binds must be read somewhere in the file or be listed in
its ``__all__``.  A top-level function or class of ``src/cvmdi/`` must be
read somewhere outside its own definition and outside ``tests/``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "cvmdi").glob("*.py"), *(ROOT / "tests").glob("*.py")])


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
    assert unused_imports(path) == set()


# (file, name) -> why src/ keeps a top-level definition that nothing outside
# tests reads by name
UNREFERENCED = {
    ("src/cvmdi/protocols.py", "__getattr__"):
        "PEP 562 hook: Python calls it when bench/tracer.py reads build_mdi_state "
        "or symplectic_eigenvalues off cvmdi.protocols",
}


def read_names(node: ast.AST) -> set[str]:
    """Names and attributes that the code under ``node`` reads; a docstring, an
    import or an ``__all__`` entry reads none."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unreferenced_definitions() -> set[tuple[str, str]]:
    """(file, name) of each top-level function or class of ``src/cvmdi/`` that
    is read neither elsewhere in ``src/`` nor in ``bench/`` or ``tools/``.
    The tracer's string bindings in ``bench/tracer.py`` count as reads."""
    defs, reads_by_node = [], []
    for path in sorted((ROOT / "src" / "cvmdi").glob("*.py")):
        rel = str(path.relative_to(ROOT))
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            reads_by_node.append((node, read_names(node)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((rel, node))
    outside = set()
    for path in sorted([*(ROOT / "bench").glob("*.py"), *(ROOT / "tools").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        outside |= read_names(tree)
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "LAYER_BINDINGS" for t in node.targets):
                outside.update(c.value for c in ast.walk(node.value)
                               if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return {(rel, node.name) for rel, node in defs if node.name not in outside
            and not any(node.name in names for other, names in reads_by_node if other is not node)}


def test_src_defines_only_what_runs_outside_tests():
    # a definition that only tests read belongs in tests/ (tests/oracle.py for
    # the matrix engine); an allow-list entry that is now read goes too
    assert unreferenced_definitions() == set(UNREFERENCED)


def unraised_errors() -> set[str]:
    """Exception classes of ``src/cvmdi/errors.py`` that no ``raise`` in
    ``src/cvmdi/`` names, neither directly nor through a subclass."""
    src = ROOT / "src" / "cvmdi"
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for node in ast.parse((src / "errors.py").read_text(encoding="utf-8")).body
             if isinstance(node, ast.ClassDef)}
    todo = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in bases:
                    todo.append(exc.id)
    live = set()
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo.extend(b for b in bases[name] if b in bases)
    return set(bases) - live


def test_every_error_class_is_raised():
    # an exception type that src/ never raises is dead API: an except clause
    # naming it catches nothing
    assert unraised_errors() == set()


# A fresh interpreter runs every entry point that needs no matrix, then
# reads the matrix route's names where the benchmark's tracer binds them.
NO_NUMPY = """
import contextlib, io, sys
import cvmdi
from cvmdi import cli, protocols
p = cvmdi.ProtocolParams(v_a=5.04, v_b=5.04, l_ac=5.0, l_bc=0.0, eta=0.9, v_el=0.015)
assert cvmdi.key_rate(p).key_rate > 0.0
cvmdi.optimize_added_noise(cvmdi.ProtocolParams(v_a=5.04, v_b=5.04, l_ac=5.0, l_bc=0.0,
                                                protocol="squeezed-modified"))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["keyrate", "--variance", "realistic", "--lac", "5", "--lbc", "0"]) == 0
    assert cli.main(["compare", "--variance", "realistic", "--detector", "practical",
                     "--geometry", "most-asymmetric"]) == 0
loaded = "numpy" in sys.modules
assert callable(protocols.build_mdi_state) and callable(protocols.symplectic_eigenvalues)
print(loaded, "numpy" in sys.modules)
"""


def test_key_rate_path_does_not_load_numpy():
    # numpy loads with the matrix route only, on first use of its names
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", NO_NUMPY], capture_output=True, text=True,
                         env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False", "True"]
