"""Model geometry: tori, mapping tori, diameters, metric paths."""

import numpy as np
import pytest

from diraclab.models import (
    AffineMappingTorus,
    FlatTorusModel,
    geometric_data,
    matrix_order,
    metric_path,
    metric_speed,
)


def test_flat_torus_basics():
    t = FlatTorusModel(np.diag([2.0, 3.0]), np.array([0.5, 0.0]))
    assert t.n == 2
    assert np.allclose(t.gram, np.diag([4.0, 9.0]))
    p = t.dual_momentum(np.array([1, 2]))
    assert np.allclose(p, 2 * np.pi * np.array([1.5 / 2.0, 2.0 / 3.0]))
    half = t.rescaled(0.5)
    assert np.allclose(half.lattice_basis, np.diag([1.0, 1.5]))
    assert "flat_torus" in t.label()


def test_dual_momentum_batched_matches_per_mode():
    basis = np.array([[1.0, 0.3, 0.0], [0.0, 1.2, -0.4], [0.1, 0.0, 0.8]])
    t = FlatTorusModel(basis, np.array([0.5, 0.0, 0.5]))
    modes = np.array([[i, j, k] for i in range(-2, 3) for j in range(-2, 2) for k in (0, 3)])
    batched = t.dual_momentum(modes)
    per_mode = np.array([t.dual_momentum(k) for k in modes])
    assert batched.shape == (len(modes), 3)
    assert np.max(np.abs(batched - per_mode)) <= 1e-13 * np.max(np.abs(per_mode))


def test_flat_torus_scalar_coercion():
    t = FlatTorusModel(np.array([[2 * np.pi]]), np.array([0.5]))
    assert t.n == 1
    assert t.dual_momentum(np.array([0]))[0] == pytest.approx(0.5)


def test_flat_torus_validation():
    with pytest.raises(ValueError):
        FlatTorusModel(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        FlatTorusModel(np.eye(2), np.array([0.3, 0.0]))
    with pytest.raises(ValueError):
        FlatTorusModel(np.eye(2), np.zeros(3))


def test_diameter_rectangle_closed_form():
    t = FlatTorusModel(np.diag([3.0, 4.0]), np.zeros(2))
    assert t.diameter() == pytest.approx(2.5, abs=1e-12)
    c = FlatTorusModel(np.array([[2 * np.pi]]), np.zeros(1))
    assert c.diameter() == pytest.approx(np.pi, abs=1e-12)


def test_diameter_hexagonal_grid():
    # hexagonal lattice: covering radius is the circumradius 1/sqrt(3)
    basis = np.array([[1.0, 0.5], [0.0, np.sqrt(3) / 2]])
    t = FlatTorusModel(basis, np.zeros(2))
    assert t.diameter(resolution=96) == pytest.approx(1 / np.sqrt(3), rel=2e-2)


def test_matrix_order():
    assert matrix_order(np.eye(2)) == 1
    assert matrix_order(-np.eye(2)) == 2
    assert matrix_order(np.array([[0, -1], [1, 0]])) == 4
    with pytest.raises(ValueError):
        matrix_order(np.array([[1, 1], [0, 1]]), cap=16)


def _circle_fiber(shift=0.0):
    return FlatTorusModel(np.array([[2 * np.pi]]), np.array([shift]))


def test_mapping_torus_construction():
    mt = AffineMappingTorus(
        fiber=_circle_fiber(0.5),
        holonomy=np.array([[1]]),
        base_length=2 * np.pi,
        base_shift=0.5,
        connection=np.array([0.25]),
    )
    assert mt.n == 2
    assert mt.with_scale(0.5).fiber_scale == 0.5
    assert np.allclose(mt.with_scale(0.5).scaled_fiber().lattice_basis, [[np.pi]])
    assert "mapping_torus" in mt.label()


def test_mapping_torus_validation():
    fib2 = FlatTorusModel(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):  # must be integer
        AffineMappingTorus(fiber=fib2, holonomy=0.5 * np.eye(2), base_length=1.0)
    with pytest.raises(ValueError):  # orientation-reversing
        AffineMappingTorus(fiber=fib2, holonomy=np.diag([1, -1]), base_length=1.0)
    with pytest.raises(ValueError):  # does not preserve the metric
        skew = FlatTorusModel(np.diag([1.0, 2.0]), np.zeros(2))
        AffineMappingTorus(fiber=skew, holonomy=np.array([[0, -1], [1, 0]]), base_length=1.0)
    with pytest.raises(ValueError):  # spin shift not holonomy invariant
        shifted = FlatTorusModel(np.eye(2), np.array([0.5, 0.0]))
        AffineMappingTorus(fiber=shifted, holonomy=np.array([[0, -1], [1, 0]]), base_length=1.0)
    with pytest.raises(ValueError):  # connection not holonomy invariant
        AffineMappingTorus(
            fiber=fib2,
            holonomy=-np.eye(2),
            base_length=1.0,
            connection=np.array([1.0, 0.0]),
        )
    with pytest.raises(ValueError):  # bad base shift
        AffineMappingTorus(
            fiber=fib2, holonomy=np.eye(2), base_length=1.0, base_shift=0.3
        )
    with pytest.raises(ValueError):  # bad base length
        AffineMappingTorus(fiber=fib2, holonomy=np.eye(2), base_length=0.0)


def test_mapping_torus_shift_compatible_cases():
    # (-I)^T shift - shift is integral for the half-half shift
    fib = FlatTorusModel(np.eye(2), np.array([0.5, 0.5]))
    mt = AffineMappingTorus(fiber=fib, holonomy=-np.eye(2), base_length=1.0)
    assert mt.fiber.spin_shift.tolist() == [0.5, 0.5]


def test_geometric_data_flat_zeros():
    t = FlatTorusModel(np.diag([1.0, 2.0]), np.zeros(2))
    g = geometric_data(t)
    assert g.norm_r == 0.0 and g.norm_pi == 0.0 and g.norm_t == 0.0
    assert g.diam_z == pytest.approx(np.sqrt(5) / 2)
    mt = AffineMappingTorus(
        fiber=_circle_fiber(), holonomy=np.array([[1]]), base_length=1.0
    ).with_scale(0.25)
    gm = geometric_data(mt)
    assert gm.diam_z == pytest.approx(0.25 * np.pi)
    assert len(gm.flags) == 3


def test_metric_speed_and_path_closed_form():
    # circle of length l(t) = 2pi + t: speed 2 l'/l, length 2 log(l1/l0)
    def fam(t):
        return np.array([[(2 * np.pi + t) ** 2]])

    s = metric_speed(fam, 0.0)
    assert s == pytest.approx(2.0 / (2 * np.pi), rel=1e-8)
    length = metric_path(fam, samples=65)
    assert length == pytest.approx(2 * np.log((2 * np.pi + 1) / (2 * np.pi)), rel=1e-8)


def test_metric_path_log_family():
    # c(t) = e^(2t) g0 moves at constant speed 2 in every direction
    g0 = np.array([[2.0, 0.3], [0.3, 1.0]])

    def fam(t):
        return np.exp(2 * t) * g0

    assert metric_path(fam, samples=33) == pytest.approx(2.0, rel=1e-9)
    assert metric_path(fam, samples=33, t0=0.25, t1=0.75) == pytest.approx(1.0, rel=1e-9)


def test_metric_family_validation():
    with pytest.raises(ValueError):
        metric_speed(lambda t: np.array([[1.0, 2.0], [0.0, 1.0]]), 0.0)
    with pytest.raises(ValueError):
        metric_speed(lambda t: np.array([[-1.0]]), 0.0)
    with pytest.raises(ValueError):
        metric_path(lambda t: np.eye(2), samples=2)
