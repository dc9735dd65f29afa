"""The tolerance policy: one table in spectral, and one Hermiticity check."""

import ast
from pathlib import Path

import numpy as np
import pytest

from diraclab import spectral
from diraclab.assembly import AssembledOperator, BlockInfo
from diraclab.blockres import BlockMatrix2x2, neumann_factorization_check
from diraclab.clifford import CliffordModule
from diraclab.mapping import _plan
from diraclab.models import FlatTorusModel
from diraclab.spectral import HERMITICITY_TOL, INPUT_HERMITICITY_TOL, eigensolve

SRC = Path(spectral.__file__).resolve().parent

# every entry of the table with the value it has always had; a verdict's
# meaning is its tolerance, so changing one is a change of behaviour
TABLE = {
    "RESIDUAL_TOL": 1e-10,
    "HERMITICITY_TOL": 1e-12,
    "INPUT_HERMITICITY_TOL": 1e-10,
    "STRUCTURE_TOL": 1e-8,
    "CLUSTER_TOL": 1e-8,
    "RELATION_TOL": 1e-12,
    "CASIMIR_TOL": 1e-10,
    "UNITARITY_TOL": 1e-10,
    "ANGLE_TOL": 1e-10,
    "LIFT_TOL": 1e-9,
    "WEIGHT_TOL": 1e-9,
    "SINGULAR_DET_TOL": 1e-12,
    "DIAGONAL_GRAM_TOL": 1e-12,
    "METRIC_INVARIANCE_TOL": 1e-10,
    "CONNECTION_INVARIANCE_TOL": 1e-12,
    "SHIFT_INTEGRALITY_TOL": 1e-12,
    "SPECTRUM_MATCH_TOL": 1e-9,
    "NULL_SEGMENT_LENGTH": 1e-15,
    "NULL_SEGMENT_DEVIATION": 1e-12,
    "SQUARE_IDENTITY_TOL": 1e-10,
    "CONDITION_CAP": 1e12,
    "NEUMANN_SERIES_TOL": 1e-14,
    "NEUMANN_MAX_TERMS": 10000,
    "BLOCK_INVERSE_TOL": 1e-8,
    "FACTORIZATION_TOL": 1e-10,
}


def _module_constants(tree: ast.Module) -> dict[str, ast.Constant]:
    """Module-level NAME = <number> assignments of a parsed source file."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
            for target in node.targets:
                if isinstance(target, ast.Name) and isinstance(node.value.value, (int, float)):
                    out[target.id] = node.value
    return out


def _parse(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text())


def _sources() -> list[str]:
    return sorted(path.name for path in SRC.glob("*.py"))


def test_table_values_are_pinned():
    for name, value in TABLE.items():
        got = getattr(spectral, name)
        assert type(got) is type(value) and got == value, name
    # every numeric constant of spectral is an entry of the table
    assert set(_module_constants(_parse("spectral.py"))) == set(TABLE)


def test_table_entries_are_defined_once():
    for name in _sources():
        if name != "spectral.py":
            assert not set(_module_constants(_parse(name))) & set(TABLE), name


def _allowed_literals(name: str, tree: ast.Module) -> set[int]:
    """ids of the small constants a file may hold: the table's entries,
    models.FD_STEP (a difference step, not a tolerance) and the 1e-3 cut of
    clifford._standard_order_basis, which its docstring argues for."""
    constants = _module_constants(tree)
    if name == "spectral.py":
        return {id(constants[entry]) for entry in TABLE}
    if name == "models.py":
        return {id(constants["FD_STEP"])}
    if name == "clifford.py":
        (gs,) = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_standard_order_basis"
        ]
        return {id(node) for node in ast.walk(gs) if isinstance(node, ast.Constant)}
    return set()


def test_no_tolerance_literal_outside_the_table():
    stray = []
    for name in _sources():
        tree = _parse(name)
        allowed = _allowed_literals(name, tree)
        stray += [
            f"{name}:{node.lineno} {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and type(node.value) is float
            and 0.0 < node.value < 1e-2
            and id(node) not in allowed
        ]
    assert not stray


def _asymmetric(scale: float, skew: float) -> np.ndarray:
    return np.array([[0.0, scale], [scale + skew, 0.0]], dtype=complex)


def _assembled(m):
    info = BlockInfo(np.zeros((1, 1)), np.array([2]), np.zeros(1))
    AssembledOperator([m[None]], info, 1)


def _delta_block(m):
    eye = np.eye(2)
    neumann_factorization_check(BlockMatrix2x2(eye, 0 * eye, 0 * eye, m), imag_shift=1.0)


def _module_plan(m):
    # a circle's plan with the one gamma m: the plan checks the module's
    # gammas once, at HERMITICITY_TOL / (sqrt(n) dim_v) with n = 1, dim_v = 2
    _plan(FlatTorusModel(np.eye(1), np.zeros(1)), CliffordModule(1, 2, m[None], np.zeros((1, 1, 2, 2))), 1)


@pytest.mark.parametrize(
    "check, tol, message",
    [
        (_assembled, HERMITICITY_TOL, r"assembled operator is not Hermitian \(residual "),
        (eigensolve, HERMITICITY_TOL, r"^operator is not Hermitian$"),
        (_delta_block, INPUT_HERMITICITY_TOL,
         r"^delta block must be Hermitian up to the imaginary shift$"),
        (_module_plan, HERMITICITY_TOL / 2.0, r"^Clifford module gammas are not Hermitian \(residual "),
    ],
)
def test_hermiticity_is_relative_to_the_largest_entry(check, tol, message):
    scale = 10.0
    check(_asymmetric(scale, 0.5 * tol * scale))
    with pytest.raises(ValueError, match=message):
        check(_asymmetric(scale, 2.0 * tol * scale))
    # below scale 1 the tolerance is absolute
    check(_asymmetric(0.1, 0.5 * tol))
    with pytest.raises(ValueError, match=message):
        check(_asymmetric(0.1, 2.0 * tol))

