"""The invariant policy: ``lndkit.errors.invariant`` is the one place that
raises ``InvariantError``, and no other module restates the policy.  The
coefficient format: only ``polynomial.py`` reads the ``Fraction`` view
``terms`` or imports ``integer_form``, and the fraction-free kernels
(``linalg.py`` and ``subalgebra.py``) import nothing from ``fractions``."""

import ast
from pathlib import Path

import pytest

from lndkit import InvariantError
from lndkit.errors import invariant

SRC = Path(__file__).resolve().parents[1] / "src" / "lndkit"
FRACTION_FREE = ("linalg.py", "subalgebra.py")


def test_invariant_raises_invariant_error_with_its_message():
    invariant(True, "holds")
    with pytest.raises(InvariantError) as err:
        invariant(False, "m")
    assert str(err.value) == "m"
    assert isinstance(err.value, AssertionError)  # the runner's clause catches it


def _hand_rolled(path: Path) -> list[str]:
    """Bare ``assert`` statements, and ``raise AssertionError`` outside errors.py;
    reads of ``.terms`` and imports of ``integer_form`` outside polynomial.py,
    and imports from ``fractions`` in linalg.py and subalgebra.py."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
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
    return found


def test_no_module_restates_the_invariant_policy():
    paths = sorted(SRC.rglob("*.py"))
    assert {"errors.py", "polynomial.py", *FRACTION_FREE} <= {path.name for path in paths}
    assert [hit for path in paths for hit in _hand_rolled(path)] == []


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
