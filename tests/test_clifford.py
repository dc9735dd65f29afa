"""Clifford module relations, Casimir values, holonomy groups, lifts."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diraclab.clifford as clifford
from diraclab.clifford import (
    CliffordModule,
    _casimir_matrix,
    _exceeds,
    _expm_skew_factors,
    _max_opnorm,
    _special_orthogonal_log,
    casimir,
    exterior_module,
    fixed_subspace,
    lift_rotation,
    relation_residuals,
    spinor_gammas,
)
from diraclab.spectral import LIFT_TOL, RELATION_TOL, UNITARITY_TOL


@pytest.mark.parametrize("n", range(1, 7))
def test_spinor_relations(n):
    cm = spinor_gammas(n)
    assert cm.dim_v == 2 ** (n // 2)
    res = relation_residuals(cm)
    assert max(res.values()) < 1e-12, res


@pytest.mark.parametrize("n", range(1, 5))
def test_exterior_relations(n):
    cm = exterior_module(n)
    assert cm.dim_v == 2**n
    res = relation_residuals(cm)
    assert max(res.values()) < 1e-12, res


def _loop_relation_residuals(cm):
    """Reference: every relation one index tuple at a time."""
    n, d = cm.n, cm.dim_v
    eye = np.eye(d)
    g, s = cm.gammas, cm.sigmas

    def opnorm(m):
        return float(np.linalg.norm(m, ord=2))

    res = dict.fromkeys(
        [
            "gamma_hermitian",
            "clifford",
            "sigma_antihermitian",
            "sigma_antisymmetric",
            "so_bracket",
            "vector_bracket",
        ],
        0.0,
    )
    for a in range(n):
        res["gamma_hermitian"] = max(res["gamma_hermitian"], opnorm(g[a] - g[a].conj().T))
        for b in range(n):
            anti = g[a] @ g[b] + g[b] @ g[a] - 2.0 * (a == b) * eye
            res["clifford"] = max(res["clifford"], opnorm(anti))
            herm = opnorm(s[a, b] + s[a, b].conj().T)
            res["sigma_antihermitian"] = max(res["sigma_antihermitian"], herm)
            res["sigma_antisymmetric"] = max(res["sigma_antisymmetric"], opnorm(s[a, b] + s[b, a]))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = g[a] @ s[b, c] - s[b, c] @ g[a]
                rhs = (a == b) * g[c] - (a == c) * g[b]
                res["vector_bracket"] = max(res["vector_bracket"], opnorm(lhs - rhs))
                for e in range(n):
                    lhs2 = s[a, b] @ s[c, e] - s[c, e] @ s[a, b]
                    rhs2 = (
                        (a == e) * s[b, c]
                        - (a == c) * s[b, e]
                        + (b == c) * s[a, e]
                        - (b == e) * s[a, c]
                    )
                    res["so_bracket"] = max(res["so_bracket"], opnorm(lhs2 - rhs2))
    if cm.hat_gammas is not None:
        h = cm.hat_gammas
        hat = 0.0
        for a in range(n):
            hat = max(hat, opnorm(h[a] - h[a].conj().T))
            for b in range(n):
                hat = max(hat, opnorm(h[a] @ h[b] + h[b] @ h[a] - 2.0 * (a == b) * eye))
                hat = max(hat, opnorm(g[a] @ h[b] + h[b] @ g[a]))
        res["hat_family"] = hat
    return res


def _validate_message(res):
    worst = max(res.values())
    if worst <= RELATION_TOL:
        return None
    bad = max(res, key=res.get)
    return f"module relations violated: {bad} residual {worst:.3e}"


@pytest.mark.parametrize(
    "build, n",
    [(spinor_gammas, n) for n in range(1, 9)] + [(exterior_module, n) for n in range(1, 5)],
)
def test_stacked_relation_residuals_match_loop(build, n):
    cm = build(n)
    rng = np.random.default_rng(n)

    def noisy(x):
        return x + 1e-3 * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))

    hats = None if cm.hat_gammas is None else noisy(cm.hat_gammas)
    perturbed = CliffordModule(
        n=n, dim_v=cm.dim_v,
        gammas=noisy(cm.gammas), sigmas=noisy(cm.sigmas), hat_gammas=hats,
    )
    for module in (cm, perturbed):
        got, want = relation_residuals(module), _loop_relation_residuals(module)
        assert list(got) == list(want)
        assert max(abs(got[k] - want[k]) for k in want) <= 1e-12
    # with n = 1 the brackets of one sigma with itself vanish identically
    assert min(v for k, v in want.items() if n > 1 or "bracket" not in k) > 1e-4
    with pytest.raises(ValueError) as err:
        perturbed.validate()
    assert str(err.value) == _validate_message(want)


def test_gamma_of_vector_squares_to_norm():
    rng = np.random.default_rng(0)
    for cm in (spinor_gammas(3), exterior_module(2)):
        for _ in range(5):
            v = rng.standard_normal(cm.n)
            g = cm.gamma(v)
            assert np.allclose(g @ g, (v @ v) * np.eye(cm.dim_v), atol=1e-12)
            assert np.allclose(g, g.conj().T, atol=1e-12)
        vs = rng.standard_normal((4, cm.n))
        assert np.array_equal(cm.gamma(vs), np.array([cm.gamma(v) for v in vs]))


def test_gamma_rejects_wrong_length():
    cm = spinor_gammas(2)
    with pytest.raises(ValueError):
        cm.gamma(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        cm.gamma(np.ones((2, 2, 2)))


def test_spinor_bounds():
    with pytest.raises(ValueError):
        spinor_gammas(0)
    with pytest.raises(ValueError):
        spinor_gammas(9)
    with pytest.raises(ValueError):
        exterior_module(7)


@pytest.mark.parametrize("n", range(2, 7))
def test_spinor_casimir_law(n):
    # spinor module Casimir is n(n-1)/8 against the -tr(XY)/2 normalization
    assert casimir(spinor_gammas(n)) == pytest.approx(n * (n - 1) / 8.0, abs=1e-12)


def test_casimir_pinned_values():
    assert casimir(spinor_gammas(2)) == pytest.approx(0.25, abs=1e-13)
    assert casimir(spinor_gammas(3)) == pytest.approx(0.75, abs=1e-13)


def test_exterior_casimir_blocks():
    # the exterior module mixes the Casimir values 0 and 1, twice each
    values = np.linalg.eigvalsh(_casimir_matrix(exterior_module(2)))
    assert np.allclose(values, [0.0, 0.0, 1.0, 1.0], atol=1e-10)
    with pytest.raises(ValueError, match="casimir not scalar on this module"):
        casimir(exterior_module(2))


def test_fixed_subspace_cases():
    full = fixed_subspace([np.eye(2, dtype=complex)])
    assert full.shape == (2, 2)
    partial = fixed_subspace([np.diag([1.0, -1.0]).astype(complex)])
    assert partial.shape == (2, 1)
    assert abs(abs(partial[0, 0]) - 1.0) < 1e-12
    none = fixed_subspace([np.diag([1j, -1j])])
    assert none.shape == (2, 0)
    # an irrational angle never closes into a finite group; it fixes nothing
    irrational = fixed_subspace([np.diag([np.exp(2j * np.pi * np.sqrt(2)), -1.0])])
    assert irrational.shape == (2, 0)
    # each generator fixes a plane; together they fix only their common line
    flip = np.diag([1.0, 1.0, -1.0]).astype(complex)
    swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    assert fixed_subspace([flip]).shape == fixed_subspace([swap]).shape == (3, 2)
    common = fixed_subspace([flip, swap])
    assert common.shape == (3, 1)
    assert np.allclose(np.abs(common[:, 0]), [np.sqrt(0.5), np.sqrt(0.5), 0.0], atol=1e-12)
    with pytest.raises(ValueError, match="generator is not unitary"):
        fixed_subspace([np.diag([2.0, 1.0]).astype(complex)])


@pytest.mark.parametrize("n", [2, 3])
def test_lift_rotation_intertwines_random(n):
    rng = np.random.default_rng(3)
    cm = spinor_gammas(n)
    for _ in range(4):
        a = rng.standard_normal((n, n))
        q, _ = np.linalg.qr(a)
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        u = lift_rotation(cm, q)
        for j in range(n):
            assert np.allclose(
                u @ cm.gammas[j] @ u.conj().T, cm.gamma(q[:, j]), atol=1e-9
            )


def test_lift_rotation_pi_rotation():
    # rotation by pi needs the paired-(-1) branch of the real logarithm
    cm = spinor_gammas(3)
    rot = np.diag([-1.0, -1.0, 1.0])
    u = lift_rotation(cm, rot)
    assert np.allclose(u @ cm.gammas[0] @ u.conj().T, -cm.gammas[0], atol=1e-9)
    assert np.allclose(u @ cm.gammas[2] @ u.conj().T, cm.gammas[2], atol=1e-9)


def test_lift_rotation_exterior():
    cm = exterior_module(2)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    u = lift_rotation(cm, rot)
    assert np.allclose(u @ cm.gammas[0] @ u.conj().T, cm.gamma(rot[:, 0]), atol=1e-9)


# Lifts computed by the Schur-form logarithm and Pade exponential that the
# eigenbasis routines replaced, as [re, im] pairs.
FROZEN_LIFTS = {
    name: np.array(value)[..., 0] + 1j * np.array(value)[..., 1]
    for name, value in json.loads((Path(__file__).parent / "frozen_lifts.json").read_text()).items()
}


def _plane_rotation(n, a, b, theta):
    """Rotation by theta in the (a, b) plane, turning e_a towards e_b."""
    rot = np.eye(n)
    rot[a, a] = rot[b, b] = np.cos(theta)
    rot[b, a] = np.sin(theta)
    rot[a, b] = -np.sin(theta)
    return rot


@pytest.mark.parametrize("delta", ["1e-3", "1e-6", "1e-9", "1e-12", "0"])
def test_lift_rotation_near_pi_matches_frozen(delta):
    # the angle must come from arctan2(sin, cos): arccos(cos) loses half the
    # digits near pi; from 1e-12 on the rotation is taken as one by pi
    rot = _plane_rotation(3, 0, 1, np.pi - float(delta))
    u = lift_rotation(spinor_gammas(3), rot)
    assert np.max(np.abs(u - FROZEN_LIFTS[f"near_pi_{delta}"])) <= 1e-12


@pytest.mark.parametrize("angle", [0.3, 1.1, 2.5, 4.0, 5.5])
@pytest.mark.parametrize(
    "shape",
    [np.eye(2), np.array([[1.0, 0.3], [0.0, 1.2]]), np.array([[1.0, 0.5], [0.0, np.sqrt(3) / 2]])],
    ids=["square", "sheared", "hexagonal"],
)
def test_lift_of_minus_identity_on_any_lattice(angle, shape):
    # -I holonomy seen through a lattice basis B is B(-I)B^-1, -I only up to
    # ulps; its lift must still be that of diag(-1, -1, 1), since the other
    # sign changes the spectrum of every odd orbit
    basis = _plane_rotation(2, 0, 1, angle) @ shape
    rot = np.eye(3)
    rot[:2, :2] = (basis @ -np.eye(2) @ np.linalg.inv(basis)).T
    u = lift_rotation(spinor_gammas(3), rot)
    assert np.max(np.abs(u - FROZEN_LIFTS["minus_identity"])) <= 1e-12


@pytest.mark.parametrize(
    "name,n,planes",
    [
        ("so2_a", 2, [((0, 1), 0.7)]),
        ("so2_b", 2, [((0, 1), -2.9)]),
        ("so3_a", 3, [((0, 1), 0.4), ((0, 2), -1.9), ((1, 2), 2.6)]),
        ("so3_b", 3, [((1, 2), 3.0), ((0, 1), 1.3)]),
        ("so4_a", 4, [((0, 1), 0.8), ((2, 3), -2.2), ((0, 2), 1.7), ((1, 3), 0.3)]),
        ("so4_b", 4, [((0, 3), 2.9), ((1, 2), -0.6), ((0, 1), 2.2)]),
    ],
)
def test_lift_rotation_matches_frozen(name, n, planes):
    rot = np.eye(n)
    for (a, b), theta in planes:
        rot = rot @ _plane_rotation(n, a, b, theta)
    u = lift_rotation(spinor_gammas(n), rot)
    assert np.max(np.abs(u - FROZEN_LIFTS[name])) <= 1e-12


@pytest.mark.parametrize("module", [spinor_gammas(3), spinor_gammas(4), exterior_module(3)])
def test_lift_of_pi_rotation_is_the_limit_from_below(module):
    # in every coordinate plane (a < b) the lift of the rotation by pi is the
    # limit of the lifts of rotations by pi - delta from e_a towards e_b
    n = module.n
    for a in range(n):
        for b in range(a + 1, n):
            at_pi = lift_rotation(module, _plane_rotation(n, a, b, np.pi))
            below = lift_rotation(module, _plane_rotation(n, a, b, np.pi - 1e-9))
            assert np.max(np.abs(at_pi - below)) <= 1e-8


def _random_rotation(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@settings(max_examples=200)
@given(
    n=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "near_pi", "double_pi"]),
    delta=st.floats(0.0, 1e-12),
)
def test_logarithm_exponentiates_back_to_the_rotation(n, seed, kind, delta):
    # random rotations of SO(2) .. SO(5); a rotation by pi - delta, delta at
    # most 1e-12, in a random plane; and (n >= 4) a double rotation by pi in
    # two random planes.  A sine of at most ANGLE_TOL is taken as a rotation
    # by pi, so exp(Omega) misses the rotation by about delta
    rng = np.random.default_rng(seed)
    rot = _random_rotation(rng, n)
    if kind != "random":
        turns = np.eye(n)
        turns[:2, :2] = _plane_rotation(2, 0, 1, np.pi - delta)
        if kind == "double_pi" and n >= 4:
            turns[2:4, 2:4] = -np.eye(2)
        rot = rot @ turns @ rot.T
    omega = _special_orthogonal_log(rot)
    assert omega.dtype == float and np.array_equal(omega, -omega.T)
    miss = 0.0 if kind == "random" else delta
    assert np.max(np.abs(_expm_skew_factors(omega)[0] - rot)) <= miss + 1e-13


def test_logarithm_refuses_an_odd_minus_one_eigenspace():
    for rot in (np.diag([-1.0, 1.0, 1.0]), -np.eye(3)):
        with pytest.raises(ValueError, match="^odd number of -1 eigenvalues"):
            _special_orthogonal_log(rot)


def test_expm_skew_refuses_non_skew_input():
    x = np.array([[0.0, -0.4], [0.4, 0.0]])
    assert np.allclose(_expm_skew_factors(x)[0], _plane_rotation(2, 0, 1, 0.4), atol=1e-15)
    with pytest.raises(ValueError, match="skew-Hermitian"):
        _expm_skew_factors(np.array([[0.1, -0.4], [0.4, 0.0]]))


@pytest.mark.parametrize("module", [spinor_gammas(3), spinor_gammas(4), exterior_module(3)])
@pytest.mark.parametrize("plane", [(0, 1), (0, 2), (1, 2)])
def test_corrupted_logarithm_fails_the_intertwining_check(monkeypatch, module, plane):
    # the lift is verified once, by U gamma U^H = gamma(R^T): a logarithm of
    # the rotation off by 1e-6, in its own plane or across it, moves
    # exp(log R) and that residual alike (gamma is an isometry), both far
    # above LIFT_TOL
    n = module.n
    rot = _plane_rotation(n, 0, 1, 0.7)
    original = clifford._special_orthogonal_log
    a, b = plane

    def corrupted(r):
        omega = original(r)
        omega[a, b] += 1e-6
        omega[b, a] -= 1e-6
        return omega

    u = lift_rotation(module, rot)
    monkeypatch.setattr(clifford, "_special_orthogonal_log", corrupted)
    omega = corrupted(rot)
    assert _exceeds(_expm_skew_factors(omega)[0] - rot, 100.0 * LIFT_TOL)
    with pytest.raises(ValueError, match="^computed lift fails to intertwine the Clifford action$"):
        lift_rotation(module, rot)
    # the uncorrupted lift passes the same check
    assert not _exceeds(u @ module.gammas @ u.conj().T - module.gamma(rot.T), LIFT_TOL)


def test_lift_rotation_rejects_reflection():
    cm = spinor_gammas(2)
    with pytest.raises(ValueError):
        lift_rotation(cm, np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        lift_rotation(cm, 2.0 * np.eye(2))


def test_validate_catches_broken_module():
    cm = spinor_gammas(2)
    broken = CliffordModule(
        n=2,
        dim_v=2,
        gammas=cm.gammas * 1.5,
        sigmas=cm.sigmas,
    )
    with pytest.raises(ValueError):
        broken.validate()


def _svd_opnorm(stack):
    """Reference: the largest operator norm from an svd."""
    return float(np.max(np.linalg.svd(stack, compute_uv=False)[..., 0]))


def _svd_exceeds(stack, tol):
    return _svd_opnorm(stack) > tol


@settings(max_examples=200)
@given(
    d=st.integers(2, 8),
    batch=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["unitary", "random", "rank_one"]),
    position=st.floats(0.0, 1.0, exclude_min=True),
    tol_exponent=st.floats(-13.0, -6.0),
)
def test_exceeds_matches_svd_where_frobenius_is_above_tol(d, batch, seed, kind, position, tol_exponent):
    # every matrix gets a Frobenius norm in (tol, sqrt(d) tol], where only
    # the operator norm decides; a scaled unitary has operator norm at most
    # tol there.  The norm is held to the svd's; so is the verdict, except
    # where the svd's norm lies within rounding of tol (a rank-one matrix
    # of Frobenius norm tol), where either side is a correct verdict
    rng = np.random.default_rng(seed)
    tol = 10.0**tol_exponent
    z = rng.standard_normal((batch, d, d)) + 1j * rng.standard_normal((batch, d, d))
    if kind == "unitary":
        z = np.linalg.qr(z)[0]
    elif kind == "rank_one":
        z = z[:, :, :1] @ z[:, :1, :]
    frobenius = tol * d ** (0.5 * position)
    stack = z * (frobenius / np.linalg.norm(z, axis=(-2, -1)))[:, None, None]
    for m in (stack, stack[0]):
        norm, reference = _max_opnorm(m), _svd_opnorm(m)
        assert norm == pytest.approx(reference, rel=1e-13)
        assert _exceeds(m, tol) == (norm > tol)
        if abs(reference - tol) > 1e-13 * tol:
            assert _exceeds(m, tol) == (reference > tol)


@pytest.mark.parametrize("tol", [RELATION_TOL, UNITARITY_TOL, LIFT_TOL])
def test_exceeds_edge_cases(tol):
    eye = np.eye(4, dtype=complex)
    # Frobenius norm 1.8 tol, operator norm 0.9 tol: only the svd says no
    assert not _exceeds(0.9 * tol * eye, tol)
    assert _exceeds(1.1 * tol * eye, tol)
    assert _exceeds(np.stack([0.0 * eye, 1.1 * tol * eye]), tol)
    # exact zeros and tiny residuals never reach the svd
    zeros = np.zeros((3, 4, 4), dtype=complex)
    tiny = 1e-3 * tol * np.random.default_rng(0).standard_normal((3, 4, 4))
    for stack in (zeros, zeros[0], tiny, tiny[0]):
        assert not _exceeds(stack, tol) and not _svd_exceeds(stack, tol)
    assert _max_opnorm(zeros[0]) == 0.0 and _max_opnorm(zeros) == 0.0


def test_module_builds_and_lifts_take_no_svd(monkeypatch):
    # every residual of these modules and lifts is an exact zero or far below
    # its tolerance, so no check needs an svd
    norm = np.linalg.norm

    def no_svd(*args, **kwargs):
        raise AssertionError("svd called")

    def frobenius_only(x, ord=None, *args, **kwargs):
        if ord == 2:
            raise AssertionError("operator norm taken")
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(np.linalg, "norm", frobenius_only)
    for n in range(1, 9):
        assert set(relation_residuals(spinor_gammas(n)).values()) == {0.0}
    for n in range(1, 5):
        assert set(relation_residuals(exterior_module(n)).values()) == {0.0}
    quarter = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    for cm in (spinor_gammas(3), exterior_module(3)):
        lift_rotation(cm, quarter)
