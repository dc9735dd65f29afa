"""Model geometry: tori, mapping tori, diameters, metric paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    with pytest.raises(ValueError, match=r"t=0\.0 is not symmetric"):
        metric_speed(lambda t: np.array([[1.0, 2.0], [0.0, 1.0]]), 0.0)
    with pytest.raises(ValueError, match=r"t=0\.0 is not positive definite"):
        metric_speed(lambda t: np.array([[-1.0]]), 0.0)
    with pytest.raises(ValueError):
        metric_path(lambda t: np.eye(2), samples=2)
    # a step that is not positive and finite is named, not reported as a
    # non-finite derivative (a zero step divides by zero)
    for step in (0.0, -1e-6, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=rf"fd_step must be positive and finite, got {step!r}"):
            metric_speed(lambda t: np.eye(2), 0.0, fd_step=step)
        with pytest.raises(ValueError, match=rf"fd_step must be positive and finite, got {step!r}"):
            metric_path(lambda t: np.eye(2), fd_step=step)


def test_metric_path_refuses_reversed_interval():
    def fam(t):
        return np.exp(2 * t) * np.eye(2)

    with pytest.raises(ValueError, match="t0 <= t1"):
        metric_path(fam, t0=0.75, t1=0.25)
    with pytest.raises(ValueError, match="t0 <= t1"):
        metric_path(fam, t0=float("nan"))
    assert metric_path(fam, t0=0.5, t1=0.5) == 0.0


def test_metric_family_refuses_bad_shapes():
    with pytest.raises(ValueError, match="must produce square Gram matrices"):
        metric_speed(lambda t: np.ones((2, 2, 2)), 0.0)
    with pytest.raises(ValueError, match="must produce square Gram matrices"):
        metric_path(lambda t: np.ones((2, 3)))

    def grows_off_grid(t):
        return np.eye(2) if t in (0.0, 0.5, 1.0) else np.eye(3)

    with pytest.raises(ValueError, match=r"changes shape: \(3, 3\) at t=1e-06"):
        metric_speed(grows_off_grid, 0.0)
    with pytest.raises(ValueError, match="changes shape"):
        metric_path(lambda t: np.eye(2) if t < 0.5 else np.eye(3), samples=5)


def test_metric_family_refuses_non_finite_values():
    def nan_gram(t):
        return np.full((2, 2), np.nan) if t == 0.5 else np.eye(2)

    with pytest.raises(ValueError, match=r"Gram matrix at t=0\.5 is not finite"):
        metric_path(nan_gram, samples=5)

    def nan_near_half(t):
        return np.full((2, 2), np.nan) if 0 < abs(t - 0.5) < 1e-3 else np.eye(2)

    with pytest.raises(ValueError, match=r"metric derivative at t=0\.5 is not finite"):
        metric_path(nan_near_half, samples=5)


def test_metric_path_names_first_failing_node():
    # not positive definite from t = 0.3 on, and also asymmetric from 0.6 on:
    # the quadrature nodes 0.375, 0.5, ... all fail, 0.375 first
    def fam(t):
        g = np.diag([1.0, 0.3 - t])
        if t > 0.6:
            g[0, 1] = 1.0
        return g

    with pytest.raises(ValueError, match=r"^Gram matrix at t=0\.375 is not positive definite$"):
        metric_path(fam, samples=9)

    # an earlier node's failed check wins over a later node's misshapen output
    def late_shape(t):
        if t > 0.8:
            return np.eye(3)
        return np.array([[1.0, 1.0], [0.0, 1.0]]) if t == 0.25 else np.eye(2)

    with pytest.raises(ValueError, match=r"t=0\.25 is not symmetric"):
        metric_path(late_shape, samples=5)


def _loop_metric_speed(family, t, fd_step=1e-6):
    """Reference: one node at a time, with the per-node checks."""
    g = np.atleast_2d(np.asarray(family(t), dtype=float))
    if g.shape[0] != g.shape[1]:
        raise ValueError("metric family must produce square Gram matrices")
    if np.max(np.abs(g - g.T)) > 1e-10 * max(1.0, float(np.max(np.abs(g)))):
        raise ValueError(f"Gram matrix at t={t} is not symmetric")
    if np.min(np.linalg.eigvalsh(g)) <= 0:
        raise ValueError(f"Gram matrix at t={t} is not positive definite")
    plus = np.asarray(family(t + fd_step), dtype=float)
    minus = np.asarray(family(t - fd_step), dtype=float)
    gdot = (plus - minus) / (2.0 * fd_step)
    chol = np.linalg.cholesky(g)
    sym = np.linalg.solve(chol, np.linalg.solve(chol, gdot.T).T)
    return float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (sym + sym.T)))))


def _loop_metric_path(family, samples, fd_step, t0, t1):
    if samples % 2 == 0:
        samples += 1
    ts = np.linspace(t0, t1, samples)
    speeds = np.array([_loop_metric_speed(family, float(t), fd_step) for t in ts])
    weights = np.ones(samples)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float((t1 - t0) / (samples - 1) / 3.0 * np.dot(weights, speeds))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    samples=st.integers(3, 40),
    fd_exponent=st.floats(-7.0, -4.0),
    t0=st.floats(-1.0, 1.0),
    width=st.floats(0.0, 1.0),
)
def test_stacked_metric_path_matches_loop(n, seed, samples, fd_exponent, t0, width):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    chol = np.linalg.cholesky(a @ a.T + n * np.eye(n))
    s = rng.standard_normal((n, n))
    w, q = np.linalg.eigh(0.5 * (s + s.T))
    b = rng.standard_normal((n, n))

    def family(t):
        inner = (q * np.exp(t * w)) @ q.T + np.sin(t) ** 2 * (b @ b.T)
        return chol @ inner @ chol.T

    fd_step = 10.0**fd_exponent
    t1 = t0 + width
    for t in (t0, t1):
        assert metric_speed(family, t, fd_step) == _loop_metric_speed(family, t, fd_step)
    assert metric_path(family, samples, fd_step, t0, t1) == _loop_metric_path(
        family, samples, fd_step, t0, t1
    )
