"""Block matrix inversion, Schur complements, factorization checks."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diraclab.blockres as blockres
from diraclab.blockres import (
    BlockMatrix2x2,
    NeumannReport,
    _checked_inverse,
    _neumann_parts,
    _opnorm,
    neumann_factorization_check,
    neumann_inverse,
    schur_complement,
    schur_inverse,
)

RNG = np.random.default_rng(11)


def _random_block(na, nb, herm_scale=1.0, coupling=0.3):
    # Gram blocks plus a shift: Hermitian positive definite by construction
    a = RNG.standard_normal((na, na)) + 1j * RNG.standard_normal((na, na))
    alpha = a @ a.conj().T + herm_scale * na * np.eye(na)
    d = RNG.standard_normal((nb, nb)) + 1j * RNG.standard_normal((nb, nb))
    delta = d @ d.conj().T + herm_scale * nb * np.eye(nb)
    beta = coupling * (RNG.standard_normal((na, nb)) + 1j * RNG.standard_normal((na, nb)))
    return BlockMatrix2x2(alpha, beta, beta.conj().T, delta)


def test_block_shape_validation():
    with pytest.raises(ValueError):
        BlockMatrix2x2(np.eye(2), np.zeros((3, 2)), np.zeros((2, 2)), np.eye(2))
    with pytest.raises(ValueError):
        BlockMatrix2x2(np.eye(2), np.zeros((2, 2)), np.zeros((2, 3)), np.eye(2))
    with pytest.raises(ValueError):
        BlockMatrix2x2(np.ones(2), np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))


@pytest.mark.parametrize("imag_shift", [0.0, 1.0])
def test_empty_diagonal_blocks_are_refused(imag_shift):
    eye = np.eye(2)
    with pytest.raises(ValueError, match="^diagonal blocks must not be empty$"):
        neumann_factorization_check(
            BlockMatrix2x2(eye, np.zeros((2, 0)), np.zeros((0, 2)), np.zeros((0, 0))),
            imag_shift=imag_shift,
        )
    with pytest.raises(ValueError, match="^diagonal blocks must not be empty$"):
        neumann_factorization_check(
            BlockMatrix2x2(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), eye),
            imag_shift=imag_shift,
        )


def test_dense_assembly():
    m = _random_block(2, 3)
    dense = m.dense()
    assert dense.shape == (5, 5)
    assert np.array_equal(dense[:2, :2], m.alpha)
    assert np.array_equal(dense[2:, 2:], m.delta)


def test_schur_inverse_matches_direct():
    for na, nb in [(2, 2), (3, 4), (5, 1)]:
        m = _random_block(na, nb)
        inv = schur_inverse(m)
        dense = m.dense()
        n = na + nb
        assert np.linalg.norm(inv @ dense - np.eye(n)) < 1e-10
        assert np.linalg.norm(dense @ inv - np.eye(n)) < 1e-10


def test_schur_inverse_generic_nonhermitian():
    a = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3)) + 5 * np.eye(3)
    d = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2)) + 5 * np.eye(2)
    b = 0.2 * RNG.standard_normal((3, 2))
    g = 0.2 * RNG.standard_normal((2, 3))
    m = BlockMatrix2x2(a, b, g, d)
    inv = schur_inverse(m)
    assert np.linalg.norm(inv @ m.dense() - np.eye(5)) < 1e-10


def test_schur_complement_value():
    m = _random_block(3, 2)
    s = schur_complement(m)
    expected = m.delta - m.gamma @ np.linalg.inv(m.alpha) @ m.beta
    assert np.allclose(s, expected, atol=1e-12)


def test_condition_cap_refusal():
    m = BlockMatrix2x2(
        np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]),
        np.zeros((2, 1)),
        np.zeros((1, 2)),
        np.eye(1),
    )
    with pytest.raises(ValueError, match="condition"):
        schur_inverse(m)


def test_factorization_identity_across_shifts():
    for shift in (0.0, 0.5, 2.0):
        m = _random_block(3, 3)
        rep = neumann_factorization_check(m, imag_shift=shift)
        assert rep.factorization_residual < 1e-10
        assert rep.invertible


def test_factorization_requires_hermitian_delta():
    m = _random_block(2, 2)
    bad = BlockMatrix2x2(m.alpha, m.beta, m.gamma, m.delta + 0.1j * np.eye(2))
    with pytest.raises(ValueError, match="[Hh]ermitian"):
        neumann_factorization_check(bad)


def test_factorization_indefinite_delta_needs_shift():
    m = _random_block(2, 2)
    indef = BlockMatrix2x2(m.alpha, m.beta, m.gamma, np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="definite"):
        neumann_factorization_check(indef, imag_shift=0.0)
    rep = neumann_factorization_check(indef, imag_shift=1.0)
    assert rep.factorization_residual < 1e-10


def test_neumann_report_truthiness():
    ok = NeumannReport(1e-12, 0.5, True)
    bad = NeumannReport(1e-12, 1.5, False)
    assert bool(ok) and not bool(bad)


def test_neumann_inverse_matches_direct():
    m = _random_block(3, 3, herm_scale=6.0, coupling=0.2)
    rep = neumann_factorization_check(m)
    assert rep.contraction_norm < 0.99
    inv = neumann_inverse(m)
    assert np.linalg.norm(inv @ schur_complement(m) - np.eye(3)) < 1e-9


def test_neumann_inverse_with_shift():
    m = _random_block(2, 2, herm_scale=5.0, coupling=0.1)
    k = 0.7
    inv = neumann_inverse(m, imag_shift=k)
    shifted = BlockMatrix2x2(
        m.alpha + 1j * k * np.eye(2), m.beta, m.gamma, m.delta + 1j * k * np.eye(2)
    )
    assert np.linalg.norm(inv @ schur_complement(shifted) - np.eye(2)) < 1e-9


def test_neumann_inverse_refuses_divergent_series():
    strong = BlockMatrix2x2(
        np.eye(2), 40.0 * np.ones((2, 2)), 40.0 * np.ones((2, 2)), np.eye(2)
    )
    with pytest.raises(ValueError, match="contraction"):
        neumann_inverse(strong)


def _unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def _conditioned(draw):
    """A complex n x n matrix U diag(s) V^H with singular values spread
    geometrically over a condition of 10^k, k from 0 to 14, and its k."""
    n = draw(st.integers(2, 5))
    k = draw(st.floats(0.0, 14.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    s = scale * np.geomspace(1.0, 10.0**-k, n)
    return (_unitary(rng, n) * s) @ _unitary(rng, n).conj().T, k


@settings(max_examples=150)
@given(drawn=_conditioned())
def test_checked_inverse_condition_matches_svd(drawn):
    # the condition |m| |m^-1| of the inverse _checked_inverse returns, held
    # to the SVD reference; with the cap at zero it is the refusal's figure
    m, k = drawn
    reference = np.linalg.cond(m)
    if reference <= 1e11:
        inv = _checked_inverse(m, "m")
        cond = float(_opnorm(m) * _opnorm(inv))
        if reference <= 1e10:
            assert cond == pytest.approx(reference, rel=1e-6)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(blockres, "CONDITION_CAP", 0.0)
            with pytest.raises(ValueError, match="numerically singular") as err:
                _checked_inverse(m, "m")
        shown = float(re.search(r"condition (\S+)\)", str(err.value)).group(1))
        assert shown == pytest.approx(cond, rel=1e-3)
    elif k >= 13.0:
        with pytest.raises(ValueError, match="^m is numerically singular"):
            _checked_inverse(m, "m")


@settings(max_examples=100)
@given(
    n=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    line=st.integers(0, 4),
    row=st.booleans(),
)
def test_exactly_singular_block_is_refused_as_condition_inf(n, seed, line, row):
    # a zero row or column leaves LU an exact zero pivot
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if row:
        a[line % n] = 0.0
    else:
        a[:, line % n] = 0.0
    m = BlockMatrix2x2(a, np.ones((n, 1)), np.ones((1, n)), np.eye(1))
    with pytest.raises(ValueError, match=r"^alpha block is numerically singular \(condition inf\)$"):
        schur_complement(m)


@settings(max_examples=150)
@given(drawn=_conditioned())
def test_opnorm_matches_svd_norm(drawn):
    m, _ = drawn
    assert float(_opnorm(m)) == pytest.approx(np.linalg.norm(m, 2), rel=1e-13)


@settings(max_examples=60)
@given(
    na=st.integers(1, 4),
    nb=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    coupling=st.floats(0.01, 3.0),
    imag_shift=st.sampled_from([0.0, 0.5, 2.0]),
)
def test_contraction_norm_matches_svd_norm(na, nb, seed, coupling, imag_shift):
    rng = np.random.default_rng(seed)

    def gaussian(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    a, d = gaussian(na, na), gaussian(nb, nb)
    m = BlockMatrix2x2(
        a @ a.conj().T + na * np.eye(na),
        coupling * gaussian(na, nb),
        coupling * gaussian(nb, na),
        d @ d.conj().T + nb * np.eye(nb),
    )
    x = _neumann_parts(m, imag_shift)[3]
    report = neumann_factorization_check(m, imag_shift)
    assert report.contraction_norm == pytest.approx(np.linalg.norm(x, 2), rel=1e-13)
    assert report.invertible == (report.contraction_norm < 1.0)
