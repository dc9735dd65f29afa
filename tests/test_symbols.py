"""The closed-form certificate of symbols: each of its guards refuses a
block whose +-r it would get wrong, on hand-built pair constants, and a
refused block is solved by eigh as eigensolve solves it; a plan keeps
those constants once per (orbit, cluster) pair of its block table."""

import math

import numpy as np
import pytest

from diraclab.clifford import exterior_module, spinor_gammas
from diraclab.mapping import _plan
from diraclab.models import AffineMappingTorus, FlatTorusModel
from diraclab.spectral import RESIDUAL_TOL, STRUCTURE_TOL, eigensolve
from diraclab.symbols import _block_symbols


def _one_block(fiber_gamma):
    """Symbols of a single block, one orbit at unit momentum 1 and one
    (orbit, cluster) pair, whose fiber part is fiber_gamma (one fiber
    direction) and whose base gamma is zero; its beta is 0, so at fiber
    momentum p the block is p fiber_gamma."""
    s = len(fiber_gamma)
    f = np.array([fiber_gamma], dtype=complex)
    zero = np.zeros(1, dtype=np.intp)
    return _block_symbols(
        zero, zero, np.zeros(1), np.array([s]), np.ones((1, 1)), [(zero, f, np.zeros_like(f))], 0
    )


def _solve(fiber_gamma, p):
    """Whether the block p fiber_gamma is certified at fiber momentum p
    (1 / eps = p), and its spectrum; a refused block is formed as
    p fiber_gamma."""
    block = np.asarray(p * fiber_gamma, dtype=complex)[None]
    solved = _one_block(fiber_gamma).solve(
        np.array([[[p]]]), np.array([p]), 1, np.zeros(1, dtype=bool), lambda i, rows: [block]
    )
    return bool(solved.certified[0, 0]), solved.at(0)


def test_near_zero_block_keeps_its_sign_count():
    # eigenvalues x, x, -t x, -t x with t = 2 - sqrt(3) and r = (sqrt(3) - 1) x:
    # the Weyl bound is far below the residual tolerance and
    # n+ = 2 + (1 - t) x / r = 3 is an integer, but the true count is 2;
    # only s delta < r^2 refuses the block, which eigh then solves
    x, t = 1e-12, 2.0 - math.sqrt(3.0)
    p = (math.sqrt(3.0) - 1.0) * x
    gamma = np.diag([1.0, 1.0, -t, -t]) / (math.sqrt(3.0) - 1.0)
    sym = _one_block(gamma)
    delta = p * p * sym.a[0]
    assert 4 * delta >= p * p and delta / p <= RESIDUAL_TOL
    assert abs(0.5 * (4 + p * sym.trace_f[0] / abs(p)) - 3.0) <= STRUCTURE_TOL
    certified, spec = _solve(gamma, p)
    assert not certified
    ref = eigensolve(p * gamma)
    assert np.array_equal(spec.values, ref.values)
    assert int(np.sum(spec.values > 0)) == 2


def test_nonintegral_sign_count_never_takes_closed_form():
    # D = diag(r, -r + eps): D^2 is scalar to within tolerance, but tr D / r
    # puts n+ 5e-8 off an integer; only the integrality test refuses it
    r = 1e-4
    for eps, certified in [(0.0, True), (1e-11, False)]:
        gamma = np.diag([1.0, -1.0 + eps / r])
        delta = r * r * _one_block(gamma).a[0]
        assert 2 * delta < r * r and delta / r <= RESIDUAL_TOL
        got, spec = _solve(gamma, r)
        assert got == certified
        if certified:
            assert spec.values.tolist() == [-r, r]
        else:
            assert np.array_equal(spec.values, eigensolve(r * gamma).values)
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
    certified, spec = _solve(block / pn, pn)
    assert certified
    assert np.max(np.abs(spec.values - np.linalg.eigvalsh(block))) <= 1e-13
    i, j = entry
    block[i, j] += 1e-6
    if i != j:
        block[j, i] += 1e-6
    certified, spec = _solve(block / pn, pn)
    assert not certified
    assert np.array_equal(spec.values, eigensolve(pn * (block / pn)).values)


@pytest.mark.parametrize(
    "module, truncation, pairs",
    [(spinor_gammas(3), 6, 44), (exterior_module(3), 3, 15)],
    ids=["collapse_spinor_rot4", "window_exterior_rot4"],
)
def test_symbols_keep_one_entry_per_pair_of_the_block_table(module, truncation, pairs):
    # the benchmark's rot4 plans at full size: the constants are reduced
    # once per (orbit, twist cluster) pair that has blocks, and every block
    # reads its own pair's
    model = AffineMappingTorus(
        fiber=FlatTorusModel(2.0 * np.pi * np.eye(2), np.zeros(2)),
        holonomy=np.array([[0, -1], [1, 0]]),
        base_length=2.0 * np.pi,
        base_shift=0.5,
    )
    plan = _plan(model, module, truncation)
    sym = plan.symbols
    table = np.unique(np.column_stack([plan.orbit, plan.cluster]), axis=0)
    assert len(sym.a) == len(table) == pairs
    owners = np.unique(np.column_stack([sym.pair, plan.orbit, plan.cluster]), axis=0)
    assert np.array_equal(owners[:, 0], np.arange(pairs))
    # the block table numbers the pairs in row order of their first blocks
    first = np.unique(plan.pair, return_index=True)[1]
    assert np.array_equal(plan.pair_rows, first) and np.all(np.diff(first) > 0)
