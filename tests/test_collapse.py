"""Collapse runs, windows, blow-up rates, perturbation bounds."""

import json

import numpy as np
import pytest

from diraclab.clifford import spinor_gammas
from diraclab.collapse import (
    blowup_check,
    check_fiber_gap_bound,
    collapse_run,
    perturbation_bound_check,
    rayleigh_minimax_check,
    spectral_window,
    window_agreement,
)
from diraclab.assembly import assemble_dirac, fiber_invariant_split
from diraclab.models import AffineMappingTorus, FlatTorusModel, geometric_data


def _canonical_mapping(fiber_shift=0.0, base_shift=0.5):
    fiber = FlatTorusModel(np.array([[2 * np.pi]]), np.array([fiber_shift]))
    return AffineMappingTorus(
        fiber=fiber,
        holonomy=np.array([[1]]),
        base_length=2 * np.pi,
        holonomy_lift=np.eye(2, dtype=complex),
        base_shift=base_shift,
    )


def _t2_blowup_model():
    fiber = FlatTorusModel(np.eye(2), np.array([0.5, 0.5]))
    return AffineMappingTorus(fiber=fiber, holonomy=-np.eye(2), base_length=2 * np.pi)


def test_spectral_window_values():
    mt = _canonical_mapping()
    for eps in (1.0, 0.5, 0.25):
        w = spectral_window(geometric_data(mt.with_scale(eps)))
        assert w == pytest.approx(1.0 / eps, abs=1e-12)


def test_spectral_window_empty_and_validation():
    geom = geometric_data(_canonical_mapping().with_scale(1.0))
    # large penalty empties the window
    from dataclasses import replace

    noisy = replace(geom, norm_r=100.0)
    assert spectral_window(noisy) == 0.0
    with pytest.raises(ValueError):
        spectral_window(geom, window_a=0.0)
    with pytest.raises(ValueError):
        spectral_window(replace(geom, diam_z=0.0))


def test_fiber_gap_dominates_window():
    cm = spinor_gammas(2)
    mt = _canonical_mapping()
    for eps in (1.0, 0.25):
        scaled = mt.with_scale(eps)
        geom = geometric_data(scaled)
        split = fiber_invariant_split(scaled, cm, 3)
        assert split.gap == pytest.approx(1.0 / eps, abs=1e-12)
        assert check_fiber_gap_bound(split.gap, geom)
    # and a violation is reported as such
    assert not check_fiber_gap_bound(0.1, geometric_data(mt.with_scale(1.0)))


def test_collapse_run_converging():
    cm = spinor_gammas(2)
    report = collapse_run(
        _canonical_mapping(), cm, [1.0, 0.5, 0.25, 0.125], k_max=4, truncation=12
    )
    assert report.verdict == "converges"
    assert report.window_bounds == (1.0, 2.0, 4.0, 8.0)
    matches = window_agreement(report, 1e-9)
    assert all(bool(m) for m in matches)
    counts = [len(m.pairs) for m in matches]
    assert counts == [4, 8, 16, 32]
    # tracked smallest |eigenvalue| sits at 1/2 for every scale
    assert np.allclose(report.tracked_eigenvalues[0], 0.5, atol=1e-12)
    # limit spectrum present and antiperiodic
    assert report.limit_spectrum is not None
    assert np.min(np.abs(report.limit_spectrum.values)) == pytest.approx(0.5)


def test_collapse_report_json(tmp_path):
    cm = spinor_gammas(2)
    report = collapse_run(_canonical_mapping(), cm, [1.0, 0.5], k_max=2, truncation=4)
    path = tmp_path / "r.json"
    report.save(path)
    data = json.loads(path.read_text())
    assert sorted(data.keys()) == [
        "epsilons",
        "limit_spectrum",
        "spectra_per_eps",
        "tracked_eigenvalues",
        "verdict",
        "window_bounds",
    ]
    assert data["verdict"] == "converges"
    assert len(data["tracked_eigenvalues"]) == 2
    assert len(data["tracked_eigenvalues"][0]) == 2


def test_collapse_run_blowup_verdict(tmp_path):
    cm = spinor_gammas(2)
    report = collapse_run(
        _canonical_mapping(fiber_shift=0.5), cm, [1.0, 0.5], k_max=1, truncation=3
    )
    assert report.verdict == "blows_up"
    assert report.limit_spectrum is None
    path = tmp_path / "b.json"
    report.save(path)
    assert json.loads(path.read_text())["limit_spectrum"] is None
    with pytest.raises(ValueError):
        window_agreement(report)


def test_collapse_run_validation():
    cm = spinor_gammas(2)
    mt = _canonical_mapping()
    with pytest.raises(ValueError):
        collapse_run(mt, cm, [0.5, 1.0], 1, 3)
    with pytest.raises(ValueError):
        collapse_run(mt, cm, [], 1, 3)
    with pytest.raises(ValueError):
        collapse_run(mt, cm, [1.0], 0, 3)
    with pytest.raises(ValueError):
        collapse_run(mt, cm, [1.0], 10**6, 3)


def test_blowup_circle_exact_rate():
    # periodic base keeps the base frequency at zero, isolating the fiber gap
    cm = spinor_gammas(2)
    report = blowup_check(
        _canonical_mapping(fiber_shift=0.5, base_shift=0.0),
        cm,
        [1.0, 0.5, 0.25, 0.125],
        4,
    )
    assert np.allclose(report.min_abs, [0.5, 1.0, 2.0, 4.0], atol=1e-12)
    assert report.rate == pytest.approx(0.5, abs=1e-12)


def test_blowup_t2_oracle():
    cm3 = spinor_gammas(3)
    eps = [1.0, 0.5]
    report = blowup_check(_t2_blowup_model(), cm3, eps, 2)
    expected = [np.sqrt(2 * np.pi**2 / e**2 + 1.0 / 16.0) for e in eps]
    assert np.allclose(report.min_abs, expected, atol=1e-9)
    assert report.rate >= 0.4


def test_blowup_refuses_convergent_model():
    cm = spinor_gammas(2)
    with pytest.raises(ValueError, match="parallel sections"):
        blowup_check(_canonical_mapping(), cm, [1.0], 2)


def test_perturbation_bound_constant_family():
    cm = spinor_gammas(2)
    rep = perturbation_bound_check(lambda t: np.diag([1.0, 2.0]), cm, 3, samples=3)
    assert rep.passed
    assert max(rep.ratios) == 0.0


def test_perturbation_bound_scaling_family():
    cm = spinor_gammas(1)

    # l(t) = 2pi e^t: every eigenvalue is (k+1/2) e^(-t); the asinh drift per
    # unit path length approaches 1/2 on the small eigenvalues
    def fam(t):
        return np.array([[(2 * np.pi) ** 2 * np.exp(2 * t)]])

    rep = perturbation_bound_check(
        fam, cm, 6, curvature_bound=1.0, bound_constant=5.0, samples=5,
        spin_shift=np.array([0.5]),
    )
    assert rep.passed
    assert 0.05 < rep.max_ratio <= 0.5 + 1e-6


def test_perturbation_refuses_nan_metric_speed():
    # NaN only at the finite-difference probes around the grid point 0.75:
    # the segment lengths there used to be NaN, which max() skipped
    g0 = np.array([[2.0, 0.3], [0.3, 1.0]])

    def fam(t):
        if t != 0.75 and abs(t - 0.75) < 1e-3:
            return np.full((2, 2), np.nan)
        return np.exp(2 * t) * g0

    with pytest.raises(ValueError, match=r"derivative at t=0\.75 is not finite"):
        perturbation_bound_check(fam, spinor_gammas(2), 2, samples=5)
    with pytest.raises(ValueError, match=r"fd_step must be positive and finite, got 0\.0"):
        perturbation_bound_check(fam, spinor_gammas(2), 2, samples=5, fd_step=0.0)


def test_perturbation_report_fields():
    cm = spinor_gammas(1)
    rep = perturbation_bound_check(
        lambda t: np.array([[(1.0 + 0.1 * t) ** 2]]), cm, 3, samples=4, track_count=2
    )
    assert len(rep.segment_lengths) == 3
    assert len(rep.ratios) == 3
    assert rep.track_count == 2
    d = rep.to_json_dict()
    assert d["passed"] is True
    with pytest.raises(ValueError):
        perturbation_bound_check(lambda t: np.eye(1), cm, 2, samples=1)
    with pytest.raises(ValueError):
        perturbation_bound_check(lambda t: np.eye(1), cm, 2, track_count=99)


def test_rayleigh_minimax():
    cm = spinor_gammas(2)
    t2 = FlatTorusModel(np.diag([1.0, 1.3]), np.array([0.5, 0.0]))
    op = assemble_dirac(t2, cm, 3)
    for k in (1, 3, op.dim):
        assert rayleigh_minimax_check(op, k, trials=8, seed=1).ok
    with pytest.raises(ValueError):
        rayleigh_minimax_check(op, 0)
    with pytest.raises(ValueError):
        rayleigh_minimax_check(op, op.dim + 1)
