"""Spectrum containers, eigensolver, multiset predicates, CSV round trip."""

import numpy as np
import pytest

from diraclab.assembly import AssembledOperator, BlockInfo
from diraclab.spectral import (
    Spectrum,
    cluster_multiplicities,
    eigensolve,
    epsilon_close,
    sinh_rescale,
    spectrum_from_csv,
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
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0]), -1.0)


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
    op = AssembledOperator([a, b], [BlockInfo(mode=(0,)), BlockInfo(mode=(1,))], 5, "test")
    spec = eigensolve(op)
    direct = np.sort(np.concatenate([np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)]))
    assert np.allclose(spec.values, direct, atol=1e-12)
    assert spec.source_truncation == 5


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


def test_subset_epsilon_close_witness():
    a = Spectrum(np.array([0.5, 1.0]), 1e-8)
    b = Spectrum(np.array([-2.0, 0.5, 1.0, 7.0]), 1e-8)
    m = subset_epsilon_close(a, b, 1e-12)
    assert m.ok and m.pairs == ((0, 1), (1, 2))
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


def test_cluster_multiplicities():
    s = Spectrum(np.array([1.0, 1.0 + 1e-12, 1.0 + 2e-12, 4.0]), 1e-8)
    out = cluster_multiplicities(s)
    assert [(round(v, 6), m) for v, m in out] == [(1.0, 3), (4.0, 1)]


def test_csv_roundtrip(tmp_path):
    s = Spectrum(np.array([-1.5, 0.1234567890123456, 7.0]), 3.5e-8, source_truncation=6)
    path = tmp_path / "spec.csv"
    spectrum_to_csv(s, path)
    back = spectrum_from_csv(path)
    assert np.array_equal(back.values, s.values)
    assert back.cluster_tol == s.cluster_tol
    assert back.source_truncation == 6
    s2 = Spectrum(np.zeros(0), 1e-8)
    spectrum_to_csv(s2, path)
    back2 = spectrum_from_csv(path)
    assert len(back2) == 0 and back2.source_truncation is None
    with pytest.raises(ValueError):
        (tmp_path / "bad.csv").write_text("1.0\n")
        spectrum_from_csv(tmp_path / "bad.csv")


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
