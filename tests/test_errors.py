"""The invariant policy: ``lndkit.errors.invariant`` is the one place that
raises ``InvariantError``, and no other module restates the policy.  The
coefficient format: only ``polynomial.py`` reads the ``Fraction`` view
``terms`` or imports ``integer_form``, and the fraction-free kernels
(``linalg.py`` and ``subalgebra.py``) import nothing from ``fractions``.
One solver: only ``linalg.py``, the span and the one solver of
``subalgebra.py`` (``GeneratorSpan.__init__`` and ``solve_images``) and the
Groebner family's independent oracle in ``harness/randgen.py``
(``run_groebner_oracle_family``) build a ``RowSpace``.  And no module keeps
an import it does not use."""

import ast
from pathlib import Path

import pytest

from lndkit import InvariantError
from lndkit.errors import invariant

SRC = Path(__file__).resolve().parents[1] / "src" / "lndkit"
FRACTION_FREE = ("linalg.py", "subalgebra.py")
# A whole module, or one function of a module as ``module:qualified name``.
ROW_SPACE_HOMES = ("linalg.py", "subalgebra.py:GeneratorSpan.__init__", "subalgebra.py:solve_images",
                   "randgen.py:run_groebner_oracle_family")


def test_invariant_raises_invariant_error_with_its_message():
    invariant(True, "holds")
    with pytest.raises(InvariantError) as err:
        invariant(False, "m")
    assert str(err.value) == "m"
    assert isinstance(err.value, AssertionError)  # the runner's clause catches it


def _scopes(tree: ast.AST) -> dict[ast.AST, str]:
    """Each node's enclosing classes and functions, as a dotted qualified
    name ("" at module level)."""
    scopes = {}

    def visit(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            scopes[child] = scope
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    visit(tree, "")
    return scopes


def _hand_rolled(path: Path) -> list[str]:
    """Bare ``assert`` statements, and ``raise AssertionError`` outside errors.py;
    reads of ``.terms`` and imports of ``integer_form`` outside polynomial.py,
    imports from ``fractions`` in linalg.py and subalgebra.py, and calls of
    ``RowSpace`` outside ``ROW_SPACE_HOMES``."""
    found = []
    tree = ast.parse(path.read_text(), str(path))
    scopes = _scopes(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(f"{path.name}:{node.lineno}: assert statement")
        elif isinstance(node, ast.Raise) and node.exc is not None and path.name != "errors.py":
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{path.name}:{node.lineno}: raise AssertionError")
        elif isinstance(node, ast.Attribute) and node.attr == "terms" and path.name != "polynomial.py":
            found.append(f"{path.name}:{node.lineno}: reads .terms")
        elif (isinstance(node, ast.ImportFrom) and path.name != "polynomial.py"
              and any(alias.name == "integer_form" for alias in node.names)):
            found.append(f"{path.name}:{node.lineno}: imports integer_form")
        elif path.name in FRACTION_FREE and (
                isinstance(node, ast.ImportFrom) and node.module == "fractions"
                or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)):
            found.append(f"{path.name}:{node.lineno}: imports fractions")
        elif (isinstance(node, ast.Call)
              and not {path.name, f"{path.name}:{scopes[node]}"} & set(ROW_SPACE_HOMES)
              and getattr(node.func, "id", getattr(node.func, "attr", None)) == "RowSpace"):
            found.append(f"{path.name}:{node.lineno}: builds a RowSpace")
    return found


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads; a package's ``__init__.py``
    re-exports what it imports, and ``__future__`` imports are directives."""
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: imports {name} unused" for line, name in imported if name not in read]


def test_no_module_restates_the_invariant_policy():
    paths = sorted(SRC.rglob("*.py"))
    assert {"errors.py", "polynomial.py", *FRACTION_FREE} <= {path.name for path in paths}
    assert [hit for path in paths for hit in _hand_rolled(path)] == []


def test_no_module_keeps_an_unused_import():
    assert [hit for path in sorted(SRC.rglob("*.py")) for hit in _unused_imports(path)] == []


def test_the_guard_sees_a_row_space_outside_its_homes(tmp_path):
    code = ("from .linalg import RowSpace\nfrom . import linalg\nspace = RowSpace()\nother = linalg.RowSpace()\n"
            "class GeneratorSpan:\n    def __init__(self):\n        self.space = RowSpace()\n\n"
            "def solve_images():\n    space = RowSpace()\n\n"
            "def subalgebra_fpf():\n    space = RowSpace()\n\n"
            "def run_groebner_oracle_family():\n    space = RowSpace()\n")
    for name, outside in (("slices.py", [3, 4, 7, 10, 13, 16]), ("subalgebra.py", [3, 4, 13, 16]),
                          ("randgen.py", [3, 4, 7, 10, 13]), ("linalg.py", [])):
        sample = tmp_path / name
        sample.write_text(code)
        assert set(_hand_rolled(sample)) == {f"{name}:{line}: builds a RowSpace" for line in outside}


def test_the_guard_sees_unused_imports(tmp_path):
    code = ("from __future__ import annotations\nimport os.path\nimport ast as a\n"
            "from .linalg import RowSpace, vec_of\nfrom .subalgebra import _combine_over as c\n"
            "def f(x: vec_of) -> int:\n    return os.path.join(x)\n")
    sample = tmp_path / "slices.py"
    sample.write_text(code)
    assert _unused_imports(sample) == ["slices.py:3: imports a unused", "slices.py:4: imports RowSpace unused",
                                       "slices.py:5: imports c unused"]
    package = tmp_path / "__init__.py"
    package.write_text(code)
    assert _unused_imports(package) == []


def test_the_guard_sees_both_forms(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("assert x\nraise AssertionError('m')\nraise AssertionError\n")
    assert _hand_rolled(sample) == ["sample.py:1: assert statement",
                                    "sample.py:2: raise AssertionError",
                                    "sample.py:3: raise AssertionError"]


def test_the_guard_sees_the_format_breaches(tmp_path):
    code = ("from .polynomial import Polynomial, integer_form\nfrom fractions import Fraction\n"
            "import fractions\nview = p.terms\n")
    sample = tmp_path / "slices.py"
    sample.write_text(code)
    assert _hand_rolled(sample) == ["slices.py:1: imports integer_form", "slices.py:4: reads .terms"]
    for name in FRACTION_FREE:
        kernel = tmp_path / name
        kernel.write_text(code)
        assert _hand_rolled(kernel) == [f"{name}:1: imports integer_form", f"{name}:2: imports fractions",
                                        f"{name}:3: imports fractions", f"{name}:4: reads .terms"]
    home = tmp_path / "polynomial.py"
    home.write_text(code)
    assert _hand_rolled(home) == []
