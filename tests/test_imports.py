"""Lint: every source file parses under the oldest supported Python's
grammar; no module of the package or the test suite imports a name at
module level that it never reads; only `festab.eigen` imports LAPACK or
a graph ordering; a cold `import festab` stays lean."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "festab").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])

SOURCES = sorted(path for top in ("src", "tests", "perfbench")
                 for path in (ROOT / top).rglob("*.py"))
# the `requires-python` floor of pyproject.toml, as (major, minor)
FLOOR = tuple(int(part) for part in re.search(
    r'requires-python = ">=(\d+)\.(\d+)"',
    (ROOT / "pyproject.toml").read_text()).groups())


def test_floor_grammar_refuses_exception_groups():
    assert FLOOR == (3, 10)
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse(source, feature_version=FLOOR)


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_source_parses_under_the_floor_grammar(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


def unused_imports(source):
    """Names bound by module-level imports of `source` that the module
    never reads; a name listed in `__all__` counts as read."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_scan_finds_unused_and_honours_all():
    source = ("import os\nimport numpy as np\nfrom a import b, c as d\n"
              "__all__ = ['b']\nx = np.zeros(1)\n")
    assert unused_imports(source) == [(1, "os"), (3, "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == [], path.relative_to(ROOT)


ENGINE_MODULES = ("scipy.linalg.lapack", "scipy.sparse.csgraph")


def engine_imports(source):
    """The modules under ENGINE_MODULES that `source` imports, at any
    depth and in any import form."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        found |= {top for name in names for top in ENGINE_MODULES
                  if name == top or name.startswith(top + ".")}
    return found


def test_engine_scan_finds_every_import_form():
    source = ("import scipy.sparse.csgraph as cg\n"
              "from scipy.linalg import eigh, lapack\n"
              "from scipy.sparse import csr_array\n"
              "def f():\n    from scipy.linalg.lapack import dpbtrf\n")
    assert engine_imports(source) == {"scipy.sparse.csgraph",
                                      "scipy.linalg.lapack"}
    assert engine_imports("import scipy.linalg as sla\n") == set()


def test_only_the_eigen_module_factors_or_orders():
    # every sparse factorization, LAPACK call and fill-reducing ordering is in
    # festab.eigen, so a new factorization kernel changes one module
    importers = sorted(path.name
                       for path in (ROOT / "src" / "festab").glob("*.py")
                       if engine_imports(path.read_text()))
    assert importers == ["eigen.py"]


def test_all_lists_exactly_the_public_imports():
    # both lists in the package's __init__ are kept by hand
    init = ROOT / "src" / "festab" / "__init__.py"
    tree = ast.parse(init.read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
                if not (alias.asname or alias.name).startswith("_")]
    listed = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__"
                          for t in node.targets))
    assert len(listed) == len(set(listed)), "__all__ repeats a name"
    assert sorted(listed) == sorted(set(imported))


def test_cold_import_leaves_scipy_special_unloaded():
    # scipy.special costs about a fifth of a cold `import festab`; only the
    # 3D order-4 quadrature oracle imports it, on first use
    code = ("import sys; import festab, festab.cli; "
            "print('scipy.special' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_constant_field_analyze_leaves_scipy_special_unloaded():
    # a field constant on each element needs no quadrature rule, so a 3D
    # analyze at the default quad_order 4 never builds the conical rule
    code = ("import contextlib, io, sys; import festab.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    festab.cli.main(['analyze', '--grid3d', '2x2x2', "
            "'--field', 'identity'])\n"
            "print('scipy.special' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
