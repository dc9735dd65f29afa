"""Model geometry: tori, mapping tori, diameters, metric paths."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.models import (
    AffineMappingTorus,
    FlatTorusModel,
    geometric_data,
    matrix_order,
    _metric_speeds,
    metric_path,
)
from diraclab.spectral import SINGULAR_DET_TOL


def test_flat_torus_basics():
    t = FlatTorusModel(np.diag([2.0, 3.0]), np.array([0.5, 0.0]))
    assert t.n == 2
    assert np.allclose(t.gram, np.diag([4.0, 9.0]))
    p = t.dual_momentum(np.array([1, 2]))
    assert np.allclose(p, 2 * np.pi * np.array([1.5 / 2.0, 2.0 / 3.0]))


@pytest.mark.parametrize(
    "entry, accepted",
    [(0.0, True), (-0.0, True), (0.5, True)]
    + [(x, False) for x in (0.25, -0.5, 1.0, float("nan"), float("inf"), -float("inf"))],
)
def test_spin_shift_entries(entry, accepted):
    shift = np.array([0.0, entry])
    if accepted:
        assert FlatTorusModel(np.eye(2), shift).spin_shift[1] == entry
    else:
        with pytest.raises(ValueError, match="spin shift entries must be 0 or 1/2"):
            FlatTorusModel(np.eye(2), shift)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_flat_torus_refuses_non_finite_basis(bad):
    with pytest.raises(ValueError, match="^lattice basis must be finite$"):
        FlatTorusModel(np.array([[1.0, 0.0], [0.0, bad]]), np.zeros(2))
    with pytest.raises(ValueError, match="^lattice basis must be finite$"):
        FlatTorusModel(np.array([[bad]]), np.zeros(1))


def test_singular_lattice_check_is_relative_to_the_column_norms():
    # |det B| <= SINGULAR_DET_TOL prod_j |b_j| is refused, so a small
    # well-conditioned lattice builds at any scale, and a zero basis or
    # nearly parallel columns keep the refusal and its message
    for scale in (1e-7, 0.5 * SINGULAR_DET_TOL, 1e-200, 1e200):
        assert FlatTorusModel(scale * np.eye(2), np.zeros(2)).n == 2
    for basis in (np.zeros((2, 2)), np.zeros((1, 1)), [[1.0, 1.0], [0.0, 1e-13]],
                  [[1.0, 0.0], [0.0, 0.0]]):
        with pytest.raises(ValueError, match="^lattice basis is singular$"):
            FlatTorusModel(np.array(basis), np.zeros(len(basis)))
    # the bound itself: a Hadamard ratio just above it builds
    FlatTorusModel(np.array([[1.0, 1.0], [0.0, 2.0 * SINGULAR_DET_TOL]]), np.zeros(2))


# covering radii in closed form; the columns of each basis span the lattice
EXACT_COVERING_RADII = {
    "rectangle": (np.diag([3.0, 4.0]), 2.5),
    "circle": ([[2 * np.pi]], np.pi),
    "unit square": (np.eye(2), np.sqrt(2) / 2),
    "hexagonal": ([[1.0, 0.5], [0.0, np.sqrt(3) / 2]], 1 / np.sqrt(3)),
    "skewed 2-d basis": ([[1.0, 7.5], [0.0, 1.0]], 0.625),
    "FCC": ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], 1.0),
    "BCC": ([[-1, 1, 1], [1, -1, 1], [1, 1, -1]], np.sqrt(5) / 2),
    "skewed basis of Z^3": ([[1, 3, 0], [0, 1, 4], [0, 0, 1]], np.sqrt(3) / 2),
    "very skewed basis of Z^3": ([[1, 1e5, 0], [0, 1, 1e5], [0, 0, 1]], np.sqrt(3) / 2),
}


@pytest.mark.parametrize("name", sorted(EXACT_COVERING_RADII))
def test_diameter_is_the_exact_covering_radius(name):
    basis, radius = EXACT_COVERING_RADII[name]
    basis = np.array(basis, dtype=float)
    got = FlatTorusModel(basis, np.zeros(len(basis))).diameter()
    assert got == pytest.approx(radius, rel=1e-12)


@pytest.mark.parametrize("name", sorted(EXACT_COVERING_RADII))
@pytest.mark.parametrize("power", [-1000, 1000])
def test_diameter_scales_exactly_by_powers_of_two(name, power):
    # a Gram matrix of the basis scaled by 2^-1000 underflows to 0 (a 0/0 in
    # the size reduction) and one scaled by 2^1000 overflows; the diameter
    # scales with the basis, bit for bit
    basis = np.array(EXACT_COVERING_RADII[name][0], dtype=float)
    radius = FlatTorusModel(basis, np.zeros(len(basis))).diameter()
    assert FlatTorusModel(np.ldexp(basis, power), np.zeros(len(basis))).diameter() == np.ldexp(radius, power)


def _orthogonal(draw, n):
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))
    q, _ = np.linalg.qr(np.reshape(entries, (n, n)) + 3.0 * np.eye(n))
    return q


def _unimodular(draw, n):
    """A signed permutation times one to three integer shears b_j += k b_i,
    k = +-1 or +-2, in rank 2 and 3."""
    u = np.diag(draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))
    u = u[:, draw(st.permutations(range(n)))]
    for _ in range(draw(st.integers(1, 3)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        u[:, j] += draw(st.sampled_from([-2, -1, 1, 2])) * u[:, i]
    return u


def _distance_lower_bound(basis):
    """max over a grid of points of their distance to the nearest lattice
    point: a lower bound on the covering radius.  basis is upper triangular
    with diagonal d, so Babai's nearest-plane bound |d| / 2 caps that
    distance, and the nearest point of x = B t lies within |B^-1| |d| / 2 of
    t in coordinates: every lattice point in that window is searched."""
    n = basis.shape[0]
    reach = np.linalg.norm(np.linalg.inv(basis), 2) * np.linalg.norm(np.diag(basis)) / 2
    window = np.arange(-int(np.ceil(reach)), int(np.ceil(reach)) + 2)
    axis = np.arange(12) / 12
    points = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), -1).reshape(-1, n)
    best = np.full(len(points), np.inf)
    for z in itertools.product(window, repeat=n):
        d = (points - np.array(z)) @ basis.T
        best = np.minimum(best, np.einsum("ij,ij->i", d, d))
    return float(np.sqrt(best.max()))


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_diameter_is_a_lattice_invariant(data, n):
    # B = diag(d)(I + strictly upper triangular, entries at most 1/2) is
    # size-reduced; for Q orthogonal and U unimodular, Q B U spans the same
    # lattice, rotated or reflected, in a basis that may be skewed, and must
    # have the same covering radius
    d = np.array(data.draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    upper = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=n * n, max_size=n * n)))
    basis = np.diag(d) @ (np.eye(n) + np.triu(upper.reshape(n, n), 1))
    q, u = _orthogonal(data.draw, n), _unimodular(data.draw, n)
    radius = FlatTorusModel(basis, np.zeros(n)).diameter()
    moved = FlatTorusModel(q @ basis @ u, np.zeros(n)).diameter()
    assert moved == pytest.approx(radius, rel=1e-12)
    assert radius >= _distance_lower_bound(basis) * (1 - 1e-12)


def test_diameter_above_rank_three():
    # an orthogonal basis of any rank has an obtuse superbase: half its diagonal
    q, _ = np.linalg.qr(np.arange(16.0).reshape(4, 4) ** 2 + np.eye(4))
    box = FlatTorusModel(q @ np.diag([1.0, 2.0, 2.0, 4.0]), np.zeros(4))
    assert box.diameter() == pytest.approx(2.5, rel=1e-12)
    # D4, the integer vectors of even sum, has no obtuse superbase at all
    d4 = np.array([[1, 1, 0, 0], [1, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]], dtype=float)
    refusal = "^exact diameter of a rank-4 lattice needs an obtuse superbase; this basis gives none$"
    with pytest.raises(ValueError, match=refusal):
        FlatTorusModel(d4, np.zeros(4)).diameter()
    # 9! simplices are refused before any is formed
    with pytest.raises(ValueError, match="^exact diameter supported up to rank 8, got rank 9$"):
        FlatTorusModel(np.eye(9), np.zeros(9)).diameter()


def test_matrix_order():
    assert matrix_order(np.eye(2)) == 1
    assert matrix_order(-np.eye(2)) == 2
    assert matrix_order(np.array([[0, -1], [1, 0]])) == 4
    with pytest.raises(ValueError):
        matrix_order(np.array([[1, 1], [0, 1]]), cap=16)


@pytest.mark.parametrize("scale", [1e-4, 1e-6, 1e-170, 1e150])
def test_metric_invariance_is_relative_at_every_lattice_size(scale):
    # a quarter turn preserves the metric of a square fiber at any size and
    # that of a 1 x 2 rectangle at none; compared with max(1, max |G|), the
    # rectangle passed below a size of about 1e-5, and at 1e-170 its Gram
    # matrix underflowed to 0
    quarter = np.array([[0, -1], [1, 0]])
    square = FlatTorusModel(scale * np.eye(2), np.zeros(2))
    assert AffineMappingTorus(fiber=square, holonomy=quarter, base_length=1.0).fiber is square
    rectangle = FlatTorusModel(scale * np.diag([1.0, 2.0]), np.zeros(2))
    with pytest.raises(ValueError, match="^holonomy does not preserve the fiber metric$"):
        AffineMappingTorus(fiber=rectangle, holonomy=quarter, base_length=1.0)


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
    assert geometric_data(mt.with_scale(0.5)).diam_z == pytest.approx(np.pi / 2)


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


def _mapping(**kwargs):
    args = dict(fiber=_circle_fiber(0.5), holonomy=np.array([[1]]), base_length=2 * np.pi)
    return AffineMappingTorus(**(args | kwargs))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(base_length=float("nan")), "base length must be finite, got nan"),
        (dict(base_length=float("inf")), "base length must be finite, got inf"),
        (dict(base_length=-float("inf")), "base length must be positive"),
        (dict(base_length=0.0), "base length must be positive"),
        (dict(fiber_scale=float("nan")), "fiber scale must be finite, got nan"),
        (dict(fiber_scale=float("inf")), "fiber scale must be finite, got inf"),
        (dict(fiber_scale=0.0), "fiber scale must be positive"),
        (dict(connection=np.array([np.nan])), "connection form must be finite"),
        (dict(connection=np.array([np.inf])), "connection form must be finite"),
    ],
)
def test_mapping_torus_refuses_non_finite_inputs(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        _mapping(**kwargs)


def test_with_scale_copies_and_checks_only_the_scale():
    mt = _mapping(base_shift=0.5, connection=np.array([0.25]))
    scaled = mt.with_scale(0.25)
    assert scaled is not mt and mt.fiber_scale == 1.0 and scaled.fiber_scale == 0.25
    # a copy of the validated instance: every other field is the same object
    for name in ("fiber", "holonomy", "base_length", "holonomy_lift", "base_shift", "connection"):
        assert getattr(scaled, name) is getattr(mt, name)
    fresh = _mapping(base_shift=0.5, connection=np.array([0.25]), fiber_scale=0.25)
    for name in ("holonomy", "base_length", "holonomy_lift", "base_shift", "connection", "fiber_scale"):
        assert np.array_equal(getattr(scaled, name), getattr(fresh, name))
    for name in ("lattice_basis", "spin_shift"):
        assert np.array_equal(getattr(scaled.fiber, name), getattr(fresh.fiber, name))
    for eps, message in [
        (0.0, "fiber scale must be positive"),
        (-1.0, "fiber scale must be positive"),
        (-float("inf"), "fiber scale must be positive"),
        (float("nan"), "fiber scale must be finite, got nan"),
        (float("inf"), "fiber scale must be finite, got inf"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            mt.with_scale(eps)


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


def test_metric_speed_and_path_closed_form():
    # circle of length l(t) = 2pi + t: speed 2 l'/l, length 2 log(l1/l0)
    def fam(t):
        return np.array([[(2 * np.pi + t) ** 2]])

    s = _metric_speeds(fam, [0.0], 1e-6)[0]
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
        metric_path(lambda t: np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match=r"t=0\.0 is not positive definite"):
        metric_path(lambda t: np.array([[-1.0]]))
    with pytest.raises(ValueError):
        metric_path(lambda t: np.eye(2), samples=2)
    # a step that is not positive and finite is named, not reported as a
    # non-finite derivative (a zero step divides by zero)
    for step in (0.0, -1e-6, float("nan"), float("inf")):
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
        metric_path(lambda t: np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="must produce square Gram matrices"):
        metric_path(lambda t: np.ones((2, 3)))

    def grows_off_grid(t):
        return np.eye(2) if t in (0.0, 0.5, 1.0) else np.eye(3)

    with pytest.raises(ValueError, match=r"changes shape: \(3, 3\) at t=1e-06"):
        metric_path(grows_off_grid, samples=3)
    with pytest.raises(ValueError, match="changes shape"):
        metric_path(lambda t: np.eye(2) if t < 0.5 else np.eye(3), samples=5)


def test_metric_family_refuses_non_finite_values():
    # an infinite node is refused by name, not by the RuntimeWarning (an
    # error in this suite) of inf - inf in the symmetry check or the
    # central difference; at one node and on an interval
    def nan_gram(t):
        return np.full((2, 2), np.nan) if t == 0.5 else np.eye(2)

    def inf_gram(t):
        return np.full((2, 2), np.inf) if t == 0.5 else np.eye(2) * (1.0 + t)

    def inf_on_interval(t):
        return np.diag([np.inf, 1.0]) if 0.3 <= t <= 0.7 else np.eye(2) * (1.0 + t)

    for family in (nan_gram, inf_gram, inf_on_interval):
        with pytest.raises(ValueError, match=r"^Gram matrix at t=0\.5 is not finite$"):
            metric_path(family, samples=5)

    def nan_near_half(t):
        return np.full((2, 2), np.nan) if 0 < abs(t - 0.5) < 1e-3 else np.eye(2)

    def inf_near_half(t):
        return np.diag([np.inf, 1.0]) if 0 < abs(t - 0.5) < 1e-3 else np.eye(2)

    for family in (nan_near_half, inf_near_half):
        with pytest.raises(ValueError, match=r"^metric derivative at t=0\.5 is not finite$"):
            metric_path(family, samples=5)


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


def test_rank_deficient_gram_is_named_not_positive_definite():
    # a singular PSD Gram whose eigvalsh reads all positive by rounding
    # (smallest 7.5e-17): its cholesky fails, and the node is named
    g = np.array(
        [
            [0.6775286921397962, 0.0645164888856857, -1.2707611296467278],
            [0.0645164888856857, 0.07602325651304703, -0.26691964495471],
            [-1.2707611296467278, -0.26691964495471, 2.688095002762758],
        ]
    )
    with pytest.raises(ValueError, match=r"^Gram matrix at t=0\.0 is not positive definite$"):
        metric_path(lambda t: g * (1 + t), samples=3)


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
    return float(np.max(np.abs(np.linalg.eigvalsh((0.5 * (sym + sym.T)).astype(complex)))))


def _loop_metric_path(family, samples, fd_step, t0, t1):
    if samples % 2 == 0:
        samples += 1
    ts = np.linspace(t0, t1, samples)
    speeds = np.array([_loop_metric_speed(family, float(t), fd_step) for t in ts])
    weights = np.ones(samples)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float((t1 - t0) / (samples - 1) / 3.0 * np.dot(weights, speeds))


@settings(max_examples=60)
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
        assert _metric_speeds(family, [t], fd_step)[0] == _loop_metric_speed(family, t, fd_step)
    assert metric_path(family, samples, fd_step, t0, t1) == _loop_metric_path(
        family, samples, fd_step, t0, t1
    )


def _first_refusal(calls):
    """Message of the first call in turn that raises, or None."""
    for call in calls:
        try:
            call()
        except ValueError as err:
            return str(err)
    return None


@settings(max_examples=60)
@given(
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    samples=st.integers(3, 12),
    cuts=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=7),
    contiguous=st.booleans(),
    threshold=st.one_of(st.none(), st.floats(-1.0, 1.0)),
)
def test_metric_path_array_ends_match_scalar_calls(n, seed, samples, cuts, contiguous, threshold):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    chol = np.linalg.cholesky(a @ a.T + n * np.eye(n))
    s = rng.standard_normal((n, n))
    w, q = np.linalg.eigh(0.5 * (s + s.T))
    evaluated = []

    def family(t):
        evaluated.append(t)
        g = chol @ ((q * np.exp(t * w)) @ q.T) @ chol.T
        # indefinite past the threshold, so that a refusal names a node
        return g if threshold is None or t <= threshold else -g

    cuts = sorted(cuts)
    if contiguous:
        t0, t1 = np.array(cuts[:-1]), np.array(cuts[1:])
    else:
        # separate segments, some of them of zero length
        t0, t1 = np.array(cuts[0::2]), np.array(cuts[1::2] + cuts[-1:])[: len(cuts[0::2])]
    scalar_calls = [
        lambda a=a, b=b: metric_path(family, samples, 1e-6, a, b) for a, b in zip(t0, t1)
    ]
    expected = _first_refusal(scalar_calls)
    if expected is not None:
        with pytest.raises(ValueError) as err:
            metric_path(family, samples, 1e-6, t0, t1)
        assert str(err.value) == expected
        return
    ref = [call() for call in scalar_calls]
    evaluated.clear()
    got = metric_path(family, samples, 1e-6, t0, t1)
    assert isinstance(got, np.ndarray) and got.dtype == float
    assert got.tolist() == ref
    # one node per segment end that starts the next segment is shared
    odd = samples + 1 - samples % 2
    shared = int(np.sum(t0[1:] == t1[:-1]))
    assert len(evaluated) == 3 * (len(t0) * odd - shared)


def test_metric_path_array_ends_shapes_and_refusals():
    def fam(t):
        return np.exp(2 * t) * np.eye(2)

    one = metric_path(fam, 9, t0=0.25, t1=0.5)
    assert isinstance(one, float)
    assert metric_path(fam, 9, t0=np.array([0.25]), t1=np.array([0.5])).tolist() == [one]
    # a scalar end broadcasts against an array end
    assert metric_path(fam, 9, t0=0.25, t1=np.array([0.5, 0.25])).tolist() == [one, 0.0]
    with pytest.raises(ValueError, match=r"t0 <= t1, got t0=0\.5, t1=0\.25"):
        metric_path(fam, t0=np.array([0.0, 0.5]), t1=np.array([0.5, 0.25]))
    with pytest.raises(ValueError, match="scalars or 1-D arrays"):
        metric_path(fam, t0=np.zeros((2, 2)), t1=np.ones((2, 2)))


def _spd_families(n, seed, bad=None, threshold=0.0):
    """Scalar and stacked versions of t -> C exp(t S) C^T; past threshold
    the Gram matrix is negated (bad="indefinite") or NaN (bad="nan")."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    chol = np.linalg.cholesky(a @ a.T + n * np.eye(n))
    s = rng.standard_normal((n, n))
    w, q = np.linalg.eigh(0.5 * (s + s.T))

    def gram(t):
        g = chol @ ((q * np.exp(t * w)) @ q.T) @ chol.T
        if bad == "indefinite":
            return np.where(t > threshold, -g, g)
        if bad == "nan":
            return np.where(t > threshold, np.nan, g)
        return g

    def stacked(t):
        calls.append(len(t))
        return gram(np.asarray(t)[:, None, None])

    calls = []
    stacked.stacked = True
    return gram, stacked, calls


def _refusal(call):
    try:
        return call(), None
    except ValueError as err:
        return None, str(err)


@settings(max_examples=80)
@given(
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    samples=st.integers(3, 12),
    cuts=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=7),
    contiguous=st.booleans(),
    fd_exponent=st.floats(-7.0, -4.0),
    bad=st.sampled_from([None, "indefinite", "nan"]),
    threshold=st.floats(-1.0, 1.0),
)
def test_stacked_family_matches_scalar_family(
    n, seed, samples, cuts, contiguous, fd_exponent, bad, threshold
):
    scalar, stacked, calls = _spd_families(n, seed, bad, threshold)
    cuts = sorted(cuts)
    if contiguous:
        t0, t1 = np.array(cuts[:-1]), np.array(cuts[1:])
    else:
        t0, t1 = np.array(cuts[0::2]), np.array(cuts[1::2] + cuts[-1:])[: len(cuts[0::2])]
    fd_step = 10.0**fd_exponent
    for ends in ((t0, t1), (float(t0[0]), float(t1[0]))):
        calls.clear()
        want, want_err = _refusal(lambda: metric_path(scalar, samples, fd_step, *ends))
        got, got_err = _refusal(lambda: metric_path(stacked, samples, fd_step, *ends))
        # the same lengths bit for bit, or the same refusal
        assert got_err == want_err
        if want_err is None:
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert len(calls) == 1


def test_stacked_family_is_called_once_per_path():
    scalar, stacked, calls = _spd_families(2, 5)
    speeds = _metric_speeds(stacked, [0.0, 0.5], 1e-6)
    assert calls == [6]
    assert speeds.tolist() == _metric_speeds(scalar, [0.0, 0.5], 1e-6).tolist()
    calls.clear()
    metric_path(stacked, 9, t0=np.array([0.0, 0.5]), t1=np.array([0.5, 1.0]))
    # 17 distinct nodes, three parameters each
    assert calls == [51]


@pytest.mark.parametrize(
    "output, shape",
    [
        (lambda t: np.ones((len(t), 2, 3)), "(27, 2, 3)"),
        (lambda t: np.eye(2), "(2, 2)"),
        (lambda t: np.ones((len(t) - 1, 2, 2)), "(26, 2, 2)"),
        (lambda t: np.ones((len(t), 2)), "(27, 2)"),
        (lambda t: np.ones((len(t), 1, 2, 2)), "(27, 1, 2, 2)"),
        (lambda t: 1.0, "()"),
    ],
)
def test_stacked_family_refuses_wrong_output_shape(output, shape):
    def family(t):
        return output(t)

    family.stacked = True
    message = (
        r"^stacked metric family must map 27 parameters to an \(27, n, n\) array, "
        rf"got shape {re.escape(shape)}$"
    )
    with pytest.raises(ValueError, match=message):
        metric_path(family, samples=9)
