"""The closed-form certificate of symbols: each of its guards refuses a
block whose +-r it would get wrong, on hand-built cluster constants."""

import math

import numpy as np
import pytest

from diraclab.clifford import exterior_module, spinor_gammas
from diraclab.spectral import RESIDUAL_TOL, STRUCTURE_TOL, eigensolve
from diraclab.symbols import _BlockSymbols, _cluster_constants


def _one_block(fiber_gamma):
    """Symbols of a single block, one orbit and one twist cluster, whose
    restricted gammas are fiber_gamma (one fiber direction) and a zero base
    gamma; its beta is 0, so the block is p fiber_gamma."""
    s = len(fiber_gamma)
    gc = np.array([[fiber_gamma, np.zeros((s, s))]], dtype=complex)
    trace, defect, skew = _cluster_constants(gc)
    return _BlockSymbols(
        orbit=np.zeros(1, dtype=np.intp),
        cluster=np.zeros(1, dtype=np.intp),
        beta=np.zeros(1),
        sizes=np.array([s]),
        trace=trace,
        defect=defect,
        skew=skew,
    )


def _solve(sym, p):
    """The certified spectrum of the block at fiber momentum p, or None."""
    return sym.solve(np.array([[[p]]]), 1, np.zeros(1, dtype=bool)).at(0)


def test_near_zero_block_keeps_its_sign_count():
    # eigenvalues x, x, -t x, -t x with t = 2 - sqrt(3) and r = (sqrt(3) - 1) x:
    # the Weyl bound is far below the residual tolerance and
    # n+ = 2 + (1 - t) x / r = 3 is an integer, but the true count is 2;
    # only s delta < r^2 refuses the block
    x, t = 1e-12, 2.0 - math.sqrt(3.0)
    p = (math.sqrt(3.0) - 1.0) * x
    gamma = np.diag([1.0, 1.0, -t, -t]) / (math.sqrt(3.0) - 1.0)
    sym = _one_block(gamma)
    delta = 0.5 * p * p * sym.defect[0, 0, 0]
    assert 4 * delta >= p * p and delta / p <= RESIDUAL_TOL
    assert abs(0.5 * (4 + p * sym.trace[0, 0] / abs(p)) - 3.0) <= STRUCTURE_TOL
    assert _solve(sym, p) is None
    spec = eigensolve(p * gamma)
    assert int(np.sum(spec.values > 0)) == 2


def test_nonintegral_sign_count_never_takes_closed_form():
    # D = diag(r, -r + eps): D^2 is scalar to within tolerance, but tr D / r
    # puts n+ 5e-8 off an integer; only the integrality test refuses it
    r = 1e-4
    for eps, certified in [(0.0, True), (1e-11, False)]:
        gamma = np.diag([1.0, -1.0 + eps / r])
        sym = _one_block(gamma)
        delta = 0.5 * r * r * sym.defect[0, 0, 0]
        assert 2 * delta < r * r and delta / r <= RESIDUAL_TOL
        solved = _solve(sym, r)
        assert (solved is not None) == certified
        if certified:
            assert solved.values.tolist() == [-r, r]
    spec = eigensolve(r * gamma)
    assert np.max(np.abs(spec.values - np.array([-r + eps, r]))) <= 1e-15


@pytest.mark.parametrize(
    "module, entry",
    [(exterior_module(3), (0, 0)), (exterior_module(3), (0, 1)), (spinor_gammas(3), (0, 0))],
    ids=["diagonal", "off_diagonal", "spinor_diagonal"],
)
def test_perturbed_block_is_refused(module, entry):
    # a Dirac block p gamma is certified as +-|p|; moving one entry by 1e-6
    # breaks gamma^2 = |p|^2, and the certificate refuses the block
    rng = np.random.default_rng(4)
    p = rng.uniform(-3.0, 3.0, size=3)
    pn = float(np.linalg.norm(p))
    block = module.gamma(p[None])[0].astype(complex)
    solved = _solve(_one_block(block / pn), pn)
    assert solved is not None
    assert np.max(np.abs(solved.values - np.linalg.eigvalsh(block))) <= 1e-13
    i, j = entry
    block[i, j] += 1e-6
    if i != j:
        block[j, i] += 1e-6
    assert _solve(_one_block(block / pn), pn) is None
