"""Clifford module relations, Casimir values, holonomy groups, lifts."""

import numpy as np
import pytest

from diraclab.clifford import (
    CliffordModule,
    casimir,
    casimir_blocks,
    exterior_module,
    fixed_subspace,
    holonomy_rep,
    lift_rotation,
    relation_residuals,
    spinor_gammas,
)


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
    blocks = casimir_blocks(exterior_module(2))
    assert [(round(v, 10), m) for v, m in blocks] == [(0.0, 2), (1.0, 2)]
    with pytest.raises(ValueError):
        casimir(exterior_module(2))


def test_holonomy_rep_closure_order():
    u = np.diag([1j, -1j])
    rep = holonomy_rep([u])
    assert rep.group_order == 4
    rep2 = holonomy_rep([np.eye(3, dtype=complex)])
    assert rep2.group_order == 1


def test_holonomy_rep_rejects_nonunitary():
    with pytest.raises(ValueError):
        holonomy_rep([np.diag([2.0, 1.0]).astype(complex)])


def test_holonomy_rep_cap():
    # irrational rotation never closes
    u = np.diag([np.exp(1j * np.sqrt(2)), 1.0])
    with pytest.raises(ValueError):
        holonomy_rep([u], max_order=64)


def test_fixed_subspace_cases():
    full = fixed_subspace(holonomy_rep([np.eye(2, dtype=complex)]))
    assert full.shape == (2, 2)
    partial = fixed_subspace(holonomy_rep([np.diag([1.0, -1.0]).astype(complex)]))
    assert partial.shape == (2, 1)
    assert abs(abs(partial[0, 0]) - 1.0) < 1e-12
    none = fixed_subspace(holonomy_rep([np.diag([1j, -1j])]))
    assert none.shape == (2, 0)


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
        group="spin",
        dim_v=2,
        gammas=cm.gammas * 1.5,
        sigmas=cm.sigmas,
    )
    with pytest.raises(ValueError):
        broken.validate()
