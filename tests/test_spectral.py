"""Spectrum containers, eigensolver, multiset predicates, CSV export."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diraclab.spectral as spectral
from diraclab.assembly import AssembledOperator, BlockInfo, _mapping_plan
from diraclab.clifford import exterior_module, spinor_gammas
from diraclab.models import AffineMappingTorus, FlatTorusModel
from diraclab.spectral import (
    Spectrum,
    eigensolve,
    epsilon_close,
    sinh_rescale,
    spectrum_to_csv,
    subset_epsilon_close,
    window_intersect,
)


def _random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


def test_spectrum_sorts_and_validates():
    s = Spectrum(np.array([3.0, -1.0, 2.0]), 1e-8)
    assert s.values.tolist() == [-1.0, 2.0, 3.0]
    assert len(s) == 3
    assert s.abs_sorted().tolist() == [1.0, 2.0, 3.0]
    # a NaN tolerance compares False with everything and used to pass
    for tol in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="^cluster tolerance must be nonnegative$"):
            Spectrum(np.array([1.0]), tol)


def test_eigensolve_matches_numpy():
    rng = np.random.default_rng(2)
    h = _random_hermitian(rng, 12)
    spec = eigensolve(h)
    assert np.allclose(spec.values, np.linalg.eigvalsh(h), atol=1e-12)
    assert spec.source_truncation is None


def test_eigensolve_uses_blocks():
    rng = np.random.default_rng(3)
    a = _random_hermitian(rng, 3)
    b = _random_hermitian(rng, 4)
    op = AssembledOperator([a[None], b[None]], _info(3, 4), 5, "test")
    spec = eigensolve(op)
    direct = np.sort(np.concatenate([np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)]))
    assert np.allclose(spec.values, direct, atol=1e-12)
    assert spec.source_truncation == 5


def _info(*sizes):
    """Untwisted provenance of blocks of the given sizes, one mode each."""
    n = len(sizes)
    return BlockInfo(np.arange(n)[:, None], np.array(sizes), np.zeros(n), np.zeros(n, dtype=bool))


def _stack_operator(stack):
    """An assembled operator holding one stack, one mode per block."""
    return AssembledOperator([stack], _info(*[stack.shape[1]] * len(stack)), 1, "test")


def _blockwise_eigvalsh(stack):
    return np.sort(np.linalg.eigvalsh(stack).ravel())


def _counting_eigh(monkeypatch, wrong=False):
    """Count the batched eigh calls spectral makes, recording each input;
    with wrong=True the eigenvalues come back shifted."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.array(a))
        w, v = eigh(a, *args, **kwargs)
        return (w + 1e-6, v) if wrong else (w, v)

    monkeypatch.setattr(spectral.np.linalg, "eigh", counting)
    return calls


MODULES = [spinor_gammas(n) for n in (1, 2, 3, 4)] + [exterior_module(n) for n in (1, 2, 3)]


@settings(max_examples=60)
@given(
    module=st.sampled_from(range(len(MODULES))),
    momenta=st.lists(
        st.lists(st.floats(-20.0, 20.0, allow_nan=False), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    ),
)
def test_eigensolve_matches_eigvalsh_on_dirac_stacks(module, momenta):
    cm = MODULES[module]
    p = np.array([row[: cm.n] for row in momenta] + [[0.0] * cm.n])
    stack = cm.gamma(p).astype(complex)
    spec = eigensolve(_stack_operator(stack))
    assert np.max(np.abs(spec.values - _blockwise_eigvalsh(stack))) <= 1e-12


@settings(max_examples=40)
@given(
    scalars=st.lists(st.floats(-50.0, 50.0, allow_nan=False), min_size=1, max_size=8),
    size=st.integers(1, 8),
)
def test_eigensolve_matches_eigvalsh_on_bochner_stacks(scalars, size):
    a = np.array(scalars + [-3.0, 0.0, 2.5])
    stack = a[:, None, None] * np.eye(size)
    spec = eigensolve(_stack_operator(stack))
    assert np.max(np.abs(spec.values - _blockwise_eigvalsh(stack))) <= 1e-12


def _rot4_operator(module, truncation):
    """Square 2 pi fiber, 90-degree holonomy, base shift 1/2, fiber scale 1/2."""
    fiber = FlatTorusModel(2 * np.pi * np.eye(2), np.zeros(2))
    model = AffineMappingTorus(
        fiber=fiber, holonomy=np.array([[0, -1], [1, 0]]), base_length=2 * np.pi, base_shift=0.5
    )
    return _mapping_plan(model, module, truncation).dirac(model.with_scale(0.5))


@pytest.mark.parametrize(
    "module, entry",
    [(exterior_module(3), (0, 0)), (exterior_module(3), (0, 1)), (spinor_gammas(3), (0, 0))],
    ids=["diagonal", "off_diagonal", "spinor_diagonal"],
)
def test_perturbed_block_falls_back(monkeypatch, module, entry):
    # 8x8 and 2x2 Dirac blocks, one perturbed so that it no longer squares
    # to a scalar (a 2x2 block gets a diagonal perturbation, because a
    # traceless one would still square to a scalar); symbols refuses it
    rng = np.random.default_rng(4)
    stack = module.gamma(rng.uniform(-3.0, 3.0, size=(5, 3))).astype(complex)
    d = stack.shape[1]
    i, j = entry
    stack[2, i, j] += 1e-6
    if i != j:
        stack[2, j, i] += 1e-6
    calls = _counting_eigh(monkeypatch)
    spec = eigensolve(_stack_operator(stack))
    # the whole stack reaches one eigh, and its values are eigh's, not +-r
    assert len(calls) == 1 and np.array_equal(calls[0], stack)
    assert np.max(np.abs(spec.values - _blockwise_eigvalsh(stack))) <= 1e-13
    r = math.sqrt(float(np.trace(stack[2] @ stack[2]).real) / d)
    assert np.max(np.abs(np.abs(np.linalg.eigvalsh(stack[2])) - r)) > 1e-7


def test_nonintegral_sign_count_block_keeps_its_values():
    # D^2 is scalar to within tolerance, but tr D / r puts n+ 5e-8 off an
    # integer: +-r would be off by 5e-12 (symbols refuses this block)
    r, eps = 1e-4, 1e-11
    stack = np.array([np.diag([r, -r + eps])] * 3, dtype=complex)
    spec = eigensolve(_stack_operator(stack))
    assert np.max(np.abs(spec.values - _blockwise_eigvalsh(stack))) <= 1e-15


def test_near_zero_block_keeps_its_sign_count():
    # eigenvalues x, x, -t x, -t x with t = 2 - sqrt(3): n+ = 3 from the
    # trace, but the true count is 2 (symbols refuses this block)
    x, t = 1e-12, 2.0 - math.sqrt(3.0)
    stack = np.diag([x, x, -t * x, -t * x]).astype(complex)[None]
    spec = eigensolve(_stack_operator(stack))
    assert np.array_equal(spec.values, _blockwise_eigvalsh(stack))
    assert int(np.sum(spec.values > 0)) == 2


def test_eigh_calls_per_stack(monkeypatch):
    ops = [_rot4_operator(spinor_gammas(3), 6), _rot4_operator(exterior_module(3), 3)]
    calls = _counting_eigh(monkeypatch)
    for op in ops:
        stacks = [s for s in op.stacks if s.size]
        assert len(stacks) >= 2
        eigensolve(op)
        assert [c.shape for c in calls] == [s.shape for s in stacks]
        assert all(np.array_equal(c, s) for c, s in zip(calls, stacks))
        calls.clear()
    rng = np.random.default_rng(3)
    a = _random_hermitian(rng, 3)
    b = _random_hermitian(rng, 4)
    eigensolve(AssembledOperator([a[None], b[None]], _info(3, 4), 5, "test"))
    assert [c.shape for c in calls] == [(1, 3, 3), (1, 4, 4)]
    calls.clear()
    stack = np.array([_random_hermitian(rng, 3) for _ in range(5)])
    eigensolve(_stack_operator(stack))
    assert [c.shape for c in calls] == [(5, 3, 3)]


def test_fallback_refuses_wrong_eigenpairs(monkeypatch):
    rng = np.random.default_rng(5)
    stack = np.array([_random_hermitian(rng, 3) for _ in range(4)])
    _counting_eigh(monkeypatch, wrong=True)
    with pytest.raises(RuntimeError, match="eigenpair residual"):
        eigensolve(_stack_operator(stack))


def test_eigensolve_rejects_nonhermitian():
    with pytest.raises(ValueError):
        eigensolve(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        eigensolve(np.zeros((2, 3)))


def test_sinh_rescale():
    s = Spectrum(np.array([-2.0, 0.0, 2.0]), 1e-8, source_truncation=4)
    r = sinh_rescale(s, 4.0)
    assert np.allclose(r.values, np.arcsinh(np.array([-2.0, 0.0, 2.0]) / 2.0))
    assert r.source_truncation == 4
    with pytest.raises(ValueError):
        sinh_rescale(s, 0.0)


def test_epsilon_close_basic():
    a = Spectrum(np.array([1.0, 2.0, 3.0]), 1e-8)
    b = Spectrum(np.array([1.0 + 5e-10, 2.0, 3.0 - 5e-10]), 1e-8)
    m = epsilon_close(a, b, 1e-9)
    assert m.ok and m.max_deviation <= 1e-9
    assert m.pairs == ((0, 0), (1, 1), (2, 2))
    assert not epsilon_close(a, b, 1e-12).ok
    assert not epsilon_close(a, Spectrum(np.array([1.0]), 1e-8), 1.0).ok
    assert epsilon_close(Spectrum(np.zeros(0), 0.0), Spectrum(np.zeros(0), 0.0), 0.0).ok
    for eps in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="^tolerance must be nonnegative$"):
            epsilon_close(a, b, eps)


def test_subset_epsilon_close_witness():
    a = Spectrum(np.array([0.5, 1.0]), 1e-8)
    b = Spectrum(np.array([-2.0, 0.5, 1.0, 7.0]), 1e-8)
    m = subset_epsilon_close(a, b, 1e-12)
    assert m.ok and m.pairs == ((0, 1), (1, 2))
    # a NaN tolerance used to match anything: {0, 5} into {100, 200, 300}
    # gave ok with max_deviation 195
    far = (Spectrum(np.array([0.0, 5.0]), 1e-8), Spectrum(np.array([100.0, 200.0, 300.0]), 1e-8))
    for eps in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="^tolerance must be nonnegative$"):
            subset_epsilon_close(*far, eps)
    # repeated values need distinct partners
    rep = subset_epsilon_close(
        Spectrum(np.array([1.0, 1.0]), 1e-8), Spectrum(np.array([1.0]), 1e-8), 1e-3
    )
    assert not rep.ok
    ok = subset_epsilon_close(
        Spectrum(np.array([1.0, 1.0]), 1e-8),
        Spectrum(np.array([1.0 - 1e-4, 1.0 + 1e-4]), 1e-8),
        1e-3,
    )
    assert ok.ok


def test_window_intersect():
    s = Spectrum(np.array([-3.0, -1.0, 0.5, 2.0]), 1e-8)
    assert window_intersect(s, 1.0).values.tolist() == [-1.0, 0.5]
    assert len(window_intersect(s, float("inf"))) == 4
    assert len(window_intersect(s, 0.0)) == 0
    with pytest.raises(ValueError):
        window_intersect(s, -1.0)


def _parse_csv(path):
    """Header fields and values of a spectrum CSV."""
    header, *rows = path.read_text().splitlines()
    assert header.startswith("# ")
    fields = dict(part.split("=", 1) for part in header[2:].split())
    return fields, np.array([float(row) for row in rows])


def test_csv_roundtrip(tmp_path):
    s = Spectrum(np.array([-1.5, 0.1234567890123456, 7.0]), 3.5e-8, source_truncation=6)
    path = tmp_path / "spec.csv"
    spectrum_to_csv(s, path)
    fields, values = _parse_csv(path)
    assert np.array_equal(values, s.values)
    assert float(fields["cluster_tol"]) == s.cluster_tol
    assert fields["truncation"] == "6"
    spectrum_to_csv(Spectrum(np.zeros(0), 1e-8), path)
    fields, values = _parse_csv(path)
    assert len(values) == 0 and fields["truncation"] == "None"


def test_multiset_equality_under_permutation_noise():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = rng.integers(1, 12)
        vals = rng.standard_normal(n) * 5
        noise = rng.uniform(-4e-10, 4e-10, n)
        shuffled = rng.permutation(vals + noise)
        a = Spectrum(vals, 1e-8)
        b = Spectrum(shuffled, 1e-8)
        assert epsilon_close(a, b, 1e-9).ok
        assert subset_epsilon_close(a, b, 1e-9).ok
