"""The closed-form certificate of symbols: one scale-free check per (orbit,
cluster) pair refuses every pair whose +-r it could get wrong, on
hand-built pair symbols and on perturbed modules, and it is at least as
strict as the per-block test of eigh's values against +-r; a plan keeps
its symbols once per pair of its block table."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from diraclab.clifford import CliffordModule, exterior_module, spinor_gammas
from diraclab.mapping import _plan
from diraclab.models import AffineMappingTorus, FlatTorusModel
from diraclab.spectral import RESIDUAL_TOL, eigensolve
from diraclab.symbols import _block_symbols, _SymbolSolution

PAIR = r"^operator symbol breaks the Clifford relations \(residual \d\.\d{3}e[+-]\d\d\)$"


def _one_pair(fiber_gamma):
    """A one-block plan: one orbit whose unit fiber direction is 1, one
    (orbit, cluster) pair whose fiber part is fiber_gamma and whose base
    gamma is zero, and beta 0, so that at fiber momentum p the block is
    p fiber_gamma."""
    s = len(fiber_gamma)
    f = np.array([fiber_gamma], dtype=complex)
    zero = np.zeros(1, dtype=np.intp)
    return SimpleNamespace(
        symbols=_block_symbols(np.ones((1, 1)), False, [(zero, f, np.zeros_like(f))]),
        orbit=zero, pair=zero, beta=np.zeros(1), block_info=SimpleNamespace(sizes=np.array([s])),
        truncation=1,
    )


def _solve(fiber_gamma, p):
    """The symbol spectrum of the block p fiber_gamma at fiber momentum p."""
    return _SymbolSolution.solve(_one_pair(fiber_gamma), np.array([[[p]]])).at(0)


def test_near_zero_block_with_a_wrong_sign_count_is_refused():
    # eigenvalues x, x, -t x, -t x with t = 2 - sqrt(3) and r = (sqrt(3) - 1) x:
    # n+ = 2 + (1 - t) x / r = 3 is an integer, but the true count is 2.  The
    # pair's fiber part is far from squaring to I, so its check refuses it
    # at every scale
    x, t = 1e-12, 2.0 - math.sqrt(3.0)
    p = (math.sqrt(3.0) - 1.0) * x
    gamma = np.diag([1.0, 1.0, -t, -t]) / (math.sqrt(3.0) - 1.0)
    skappa, trace_f, _ = _one_pair(gamma).symbols
    assert 0.5 * (4 + trace_f[0]) == pytest.approx(3.0, abs=1e-12)
    assert int(np.sum(eigensolve(p * gamma).values > 0)) == 2
    assert skappa[0] > 0.1
    for scale in (p, 1.0, 1e12):
        with pytest.raises(ValueError, match=PAIR):
            _solve(gamma, scale)


def test_nonintegral_sign_count_is_refused():
    # D = diag(r, -r + e): tr D / r puts n+ e / 2r off an integer, and
    # the fiber part misses squaring to I by about e / r; only e = 0 passes
    r = 1e-4
    for e in (0.0, 1e-11):
        gamma = np.diag([1.0, -1.0 + e / r])
        if e:
            with pytest.raises(ValueError, match=PAIR):
                _solve(gamma, r)
        else:
            assert _solve(gamma, r).values.tolist() == [-r, r]


@pytest.mark.parametrize(
    "module, entry",
    [(exterior_module(3), (0, 0)), (exterior_module(3), (0, 1)), (spinor_gammas(3), (0, 0))],
    ids=["diagonal", "off_diagonal", "spinor_diagonal"],
)
def test_perturbed_block_is_refused(module, entry):
    # a Dirac block p gamma takes +-|p|; moving one entry by 1e-6 breaks
    # gamma^2 = |p|^2, and the pair check refuses the block
    rng = np.random.default_rng(4)
    p = rng.uniform(-3.0, 3.0, size=3)
    pn = float(np.linalg.norm(p))
    block = module.gamma(p[None])[0].astype(complex)
    spec = _solve(block / pn, pn)
    assert np.max(np.abs(spec.values - np.linalg.eigvalsh(block))) <= 1e-13
    i, j = entry
    block[i, j] += 1e-6
    if i != j:
        block[j, i] += 1e-6
    with pytest.raises(ValueError, match=PAIR):
        _solve(block / pn, pn)


def _rot4_model():
    # the benchmark's rot4 model: 2 pi square fiber, quarter turn, auto lift
    return AffineMappingTorus(
        fiber=FlatTorusModel(2.0 * np.pi * np.eye(2), np.zeros(2)),
        holonomy=np.array([[0, -1], [1, 0]]),
        base_length=2.0 * np.pi,
        base_shift=0.5,
    )


def _perturbed(cm, index, size, commuting=None):
    """cm with gamma_index moved by size times a fixed random Hermitian
    matrix of largest entry 1, averaged over conjugation by the powers of
    commuting (a lift of finite order) where given, so that the lift still
    intertwines the Clifford action."""
    rng = np.random.default_rng(7)
    h = rng.standard_normal((cm.dim_v,) * 2) + 1j * rng.standard_normal((cm.dim_v,) * 2)
    h = h + h.conj().T
    if commuting is not None:
        powers = [np.linalg.matrix_power(commuting, j) for j in range(4)]
        h = sum(u @ h @ u.conj().T for u in powers) / 4
    gammas = cm.gammas.astype(complex)
    gammas[index] += size * h / np.max(np.abs(h))
    return CliffordModule(cm.n, cm.dim_v, gammas, cm.sigmas)


def _cases():
    """(plan of a module, module, index of the perturbed gamma, lift) of
    the rot4 spinor and exterior plans, whose base gamma is perturbed
    within the lift's commutant, and of a flat spinor torus, whose first
    fiber gamma is perturbed freely."""
    model = _rot4_model()
    for cm in (spinor_gammas(3), exterior_module(3)):
        lift = _plan(model, cm, 1).basis.lift
        yield lambda c: _plan(model, c, 2), cm, 2, lift
    torus = FlatTorusModel(np.array([[1.0, 0.3], [0.0, 1.2]]), np.array([0.0, 0.5]))
    yield lambda c: _plan(torus, c, 3), spinor_gammas(2), 0, None


def _wrong_blocks(plan, eps):
    """Whether some block of the plan at fiber scale eps has eigh values off
    the closed form -r (s - n+ times), +r (n+ times), r^2 = |p|^2 + beta^2
    and n+ = rint((s + tr D / r) / 2), by more than RESIDUAL_TOL max(1,
    max |D_ij|), eigensolve's residual scale."""
    p = plan.unit_momenta / eps
    r = np.sqrt(np.sum(p * p, axis=1)[plan.orbit] + plan.beta**2)
    sizes = plan.block_info.sizes
    for stack in plan.dirac(eps).stacks:
        s = stack.shape[-1]
        rs = r[sizes == s]
        npos = np.rint(0.5 * (s + np.trace(stack, axis1=1, axis2=2).real / rs)).astype(int)
        closed = np.where(np.arange(s) < (s - npos)[:, None], -rs[:, None], rs[:, None])
        off = np.max(np.abs(np.linalg.eigvalsh(stack) - closed), axis=1)
        scale = np.maximum(1.0, np.max(np.abs(stack), axis=(1, 2)))
        if np.any(off > RESIDUAL_TOL * scale):
            return True
    return False


def test_the_pair_check_is_at_least_as_strict_as_a_per_block_check():
    # one gamma moved by a Hermitian 10^-k, k = 4 .. 16: wherever a block at
    # eps = 1, 2^-4 or 2^-10 has eigh values off the closed form by more
    # than eigensolve's residual tolerance, or a wrong sign count, the
    # symbol path refuses by name; wherever it does not, it gives the block
    # path's spectrum.  Both outcomes occur on every plan
    for build, cm, index, lift in _cases():
        outcomes = set()
        for k in range(4, 17):
            plan = build(_perturbed(cm, index, 10.0**-k, lift))
            for eps in (1.0, 2.0**-4, 2.0**-10):
                wrong = _wrong_blocks(plan, eps)
                try:
                    got = plan.symbol_spectra([eps]).at(0)
                except ValueError as err:
                    assert re.match(PAIR, str(err))
                    outcomes.add("refused")
                    continue
                assert not wrong, (k, eps)
                ref = eigensolve(plan.dirac(eps)).values
                assert np.all(np.abs(got.values - ref) <= RESIDUAL_TOL * np.maximum(1.0, np.abs(ref)))
                outcomes.add("solved")
        assert outcomes == {"refused", "solved"}


@pytest.mark.parametrize(
    "module, truncation, pairs",
    [(spinor_gammas(3), 6, 44), (exterior_module(3), 3, 15)],
    ids=["collapse_spinor_rot4", "window_exterior_rot4"],
)
def test_symbols_keep_one_entry_per_pair_of_the_block_table(module, truncation, pairs):
    # the benchmark's rot4 plans at full size: the symbols are reduced once
    # per (orbit, twist cluster) pair that has blocks, and every block reads
    # its own pair's
    plan = _plan(_rot4_model(), module, truncation)
    table = np.unique(np.column_stack([plan.orbit, plan.cluster]), axis=0)
    assert plan.symbols.shape == (3, pairs) and len(table) == pairs
    owners = np.unique(np.column_stack([plan.pair, plan.orbit, plan.cluster]), axis=0)
    assert np.array_equal(owners[:, 0], np.arange(pairs))
    # the block table numbers the pairs in row order of their first blocks
    first = np.unique(plan.pair, return_index=True)[1]
    assert np.array_equal(plan.pair_rows, first) and np.all(np.diff(first) > 0)
