import ast
from pathlib import Path

import numpy as np
import pytest

from mblchain import errors
from mblchain.errors import DegeneracyError, NumericalError, certify, require_simple

SRC = Path(errors.__file__).parent


def test_certify_passes_only_strictly_below():
    certify("check", 0.5, 1.0)
    certify("check", -np.inf, 0.0)
    for value, bound in ((np.nan, 1.0), (0.5, np.nan), (np.inf, 1.0), (1.0, 1.0), (2, 1)):
        with pytest.raises(NumericalError):
            certify("check", value, bound)


def test_certify_message_names_check_value_and_bound():
    with pytest.raises(NumericalError) as info:
        certify("window ortho", 3.25e-7, 1e-9)
    assert str(info.value) == "window ortho=3.25e-07, not below 1.00e-09"
    with pytest.raises(NumericalError, match="resid=nan, not below 1.00e-09"):
        certify("resid", np.nan, 1e-9)


def test_require_simple():
    for values in (np.zeros(0), np.array([3.0]), np.array([0.0, 2 * errors.GAP_TOL, 1.0])):
        require_simple(values, "spectrum")
    with pytest.raises(DegeneracyError, match="spectrum has gap 0.00e"):
        require_simple(np.array([0.0, 1.0, 1.0]), "spectrum")
    with pytest.raises(DegeneracyError, match="spectrum has gap nan"):
        require_simple(np.array([0.0, np.nan]), "spectrum")
    with pytest.raises(DegeneracyError):   # one GAP_TOL apart is not more
        require_simple(np.array([0.0, errors.GAP_TOL]), "spectrum")


def _raised(tree: ast.AST):
    """(exception name, inside an except handler) of each raise statement."""
    handled = {id(node) for handler in ast.walk(tree) if isinstance(handler, ast.ExceptHandler)
               for node in ast.walk(handler)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield getattr(exc, "id", None), id(node) in handled


def test_solver_checks_go_through_the_certificate_rule():
    # a NumericalError of xy, xxz or the oracle comes from certify, or translates
    # scipy's ArpackError in xxz's except handler (numpy's LinAlgError passes
    # through, see below); a DegeneracyError comes from require_simple; and
    # GAP_TOL is defined in errors.py alone
    for module in ("xy", "xxz", "oracle"):
        raised = set(_raised(ast.parse((SRC / f"{module}.py").read_text())))
        assert ("NumericalError", False) not in raised, module
        assert not {("DegeneracyError", False), ("DegeneracyError", True)} & raised, module
    for path in SRC.glob("*.py"):
        stored = {node.id for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        assert path.name == "errors.py" or not {"GAP_TOL", "_GAP_TOL"} & stored, path.name


def test_lapack_errors_are_translated_at_one_boundary():
    # numpy's LinAlgError leaves the engines as it is; cli.main maps it to exit 3
    # and experiments.realization_failures names the realization it hit
    boundary = {("cli", "main"), ("experiments", "realization_failures")}
    translated = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        handlers = {id(node) for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)
                    and node.type is not None and "LinAlgError" in ast.unparse(node.type)}
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and (path.stem, func.name) in boundary:
                inside = handlers & {id(node) for node in ast.walk(func)}
                if inside:
                    translated.add((path.stem, func.name))
                handlers -= inside
        assert not handlers, f"{path.name} translates LinAlgError outside {boundary}"
    assert translated == boundary
