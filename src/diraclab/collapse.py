"""Collapse experiments: shrink the fiber, compare against the limit.

The spectral window keeps eigenvalues that survive the collapse: its square
is an explicit fiber-diameter term minus a curvature/second-fundamental-form
penalty.  Inside the window the shrinking-family spectra must match the
limit operator's; when no parallel sections exist the whole spectrum must
escape at rate 1/epsilon instead.  Both verdicts are produced here, along
with the sinh-rescaled Lipschitz estimate for metric deformations and a
randomized min-max sanity check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import numpy.random

from .assembly import (
    EmptyInvariantSpaceError,
    _limit_operator,
    _mapping_plan,
    _parallel_values,
    assemble_dirac,
)
from .clifford import CliffordModule
from .models import (
    AffineMappingTorus,
    FlatTorusModel,
    GeometricData,
    geometric_data,
    metric_path,
)
from .spectral import MatchResult, Spectrum, eigensolve, epsilon_close, sinh_rescale, window_intersect

__all__ = [
    "DEFAULT_WINDOW_A",
    "DEFAULT_WINDOW_C",
    "spectral_window",
    "check_fiber_gap_bound",
    "CollapseReport",
    "collapse_run",
    "window_agreement",
    "BlowupReport",
    "blowup_check",
    "PerturbationReport",
    "perturbation_bound_check",
    "RayleighReport",
    "rayleigh_minimax_check",
]

DEFAULT_WINDOW_A = float(np.pi) ** 2
DEFAULT_WINDOW_C = 10.0


def spectral_window(
    geom: GeometricData,
    window_a: float = DEFAULT_WINDOW_A,
    window_c: float = DEFAULT_WINDOW_C,
) -> float:
    """Width of the surviving-spectrum window for the given geometry.

    The square is  window_a / diam(fiber)^2 - window_c * (|R| + |II|^2 + |T|^2);
    a nonpositive square means the window is empty (width 0).
    """
    if window_a <= 0.0 or window_c < 0.0:
        raise ValueError("window constants must satisfy a > 0, c >= 0")
    if geom.diam_z <= 0.0:
        raise ValueError("fiber diameter must be positive")
    penalty = geom.norm_r + geom.norm_pi**2 + geom.norm_t**2
    square = window_a / geom.diam_z**2 - window_c * penalty
    return float(np.sqrt(max(square, 0.0)))


def check_fiber_gap_bound(
    gap: float,
    geom: GeometricData,
    window_a: float = DEFAULT_WINDOW_A,
    window_c: float = DEFAULT_WINDOW_C,
    slack: float = 1e-9,
) -> bool:
    """Fiber gap squared must dominate the window square.

    This is what makes the window safe: everything the fiber operator does
    outside the parallel sections happens above the window.  slack absorbs
    exact-equality cases in floating point.
    """
    square = window_a / geom.diam_z**2 - window_c * (
        geom.norm_r + geom.norm_pi**2 + geom.norm_t**2
    )
    return bool(gap * gap >= square - slack * max(1.0, abs(square)))


@dataclass(frozen=True, eq=False)
class CollapseReport:
    """Spectra along a collapse, the limit comparison, and the verdict."""

    epsilons: tuple[float, ...]
    spectra_per_eps: tuple[Spectrum, ...]
    limit_spectrum: Spectrum | None
    tracked_eigenvalues: tuple[tuple[float, ...], ...]
    window_bounds: tuple[float, ...]
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "epsilons": [float(e) for e in self.epsilons],
            "spectra_per_eps": [[float(v) for v in s.values] for s in self.spectra_per_eps],
            "limit_spectrum": None
            if self.limit_spectrum is None
            else [float(v) for v in self.limit_spectrum.values],
            "tracked_eigenvalues": [[float(v) for v in row] for row in self.tracked_eigenvalues],
            "window_bounds": [float(w) for w in self.window_bounds],
            "verdict": self.verdict,
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def collapse_run(
    model: AffineMappingTorus,
    cm: CliffordModule,
    epsilons,
    k_max: int,
    truncation: int,
    window_a: float = DEFAULT_WINDOW_A,
    window_c: float = DEFAULT_WINDOW_C,
) -> CollapseReport:
    """Assemble the model at each fiber scale and compare with the limit.

    epsilons must decrease strictly; tracked_eigenvalues[k-1] follows the
    k-th smallest absolute eigenvalue across scales.  The truncation must be
    large enough that the window never outruns the retained base modes.
    The lift, orbits, twists and base momenta do not depend on the fiber
    scale, so they are built once and only the fiber momenta are redone per
    scale; the limit operator is built from the same lift and twist.
    """
    eps = [float(e) for e in epsilons]
    if not eps or any(e <= 0.0 for e in eps):
        raise ValueError("epsilons must be positive")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must decrease strictly")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    plan = _mapping_plan(model, cm, truncation)
    try:
        # with parallel sections the zero mode is an orbit of size 1
        limit = _limit_operator(model, truncation, plan.lift, plan.sectors.get(1))
        limit_spec = eigensolve(limit)
        verdict = "converges"
    except EmptyInvariantSpaceError:
        limit_spec = None
        verdict = "blows_up"
    spectra, bounds, tracked_cols = [], [], []
    for e in eps:
        scaled = model.with_scale(e)
        spec = eigensolve(plan.dirac(scaled))
        if k_max > len(spec):
            raise ValueError(f"k_max={k_max} exceeds spectrum size {len(spec)}")
        spectra.append(spec)
        bounds.append(spectral_window(geometric_data(scaled), window_a, window_c))
        tracked_cols.append(spec.abs_sorted()[:k_max])
    tracked = tuple(
        tuple(float(col[k]) for col in tracked_cols) for k in range(k_max)
    )
    return CollapseReport(
        epsilons=tuple(eps),
        spectra_per_eps=tuple(spectra),
        limit_spectrum=limit_spec,
        tracked_eigenvalues=tracked,
        window_bounds=tuple(bounds),
        verdict=verdict,
    )


def window_agreement(report: CollapseReport, tol: float = 1e-9) -> list[MatchResult]:
    """Windowed multiset comparison at every scale of a convergent run."""
    if report.limit_spectrum is None:
        raise ValueError("window agreement needs a convergent run")
    out = []
    for spec, bound in zip(report.spectra_per_eps, report.window_bounds):
        out.append(
            epsilon_close(
                window_intersect(spec, bound),
                window_intersect(report.limit_spectrum, bound),
                tol,
            )
        )
    return out


@dataclass(frozen=True)
class BlowupReport:
    epsilons: tuple[float, ...]
    min_abs: tuple[float, ...]
    rate: float

    def to_json_dict(self) -> dict:
        return {
            "epsilons": [float(e) for e in self.epsilons],
            "min_abs": [float(v) for v in self.min_abs],
            "rate": float(self.rate),
        }


def blowup_check(
    model: AffineMappingTorus,
    cm: CliffordModule,
    epsilons,
    truncation: int,
) -> BlowupReport:
    """Fit the escape rate of the smallest absolute eigenvalue.

    Only valid when no parallel sections exist; rate is the largest a with
    min |spec| >= a / epsilon across all requested scales.
    """
    plan = _mapping_plan(model, cm, truncation)
    if _parallel_values(model, plan.lift).shape[1] > 0:
        raise ValueError(
            "model has parallel sections; its spectrum converges instead of escaping"
        )
    eps = [float(e) for e in epsilons]
    if not eps or any(e <= 0.0 for e in eps):
        raise ValueError("epsilons must be positive")
    mins = [float(eigensolve(plan.dirac(model.with_scale(e))).abs_sorted()[0]) for e in eps]
    rate = min(m * e for m, e in zip(mins, eps))
    return BlowupReport(epsilons=tuple(eps), min_abs=tuple(mins), rate=float(rate))


@dataclass(frozen=True)
class PerturbationReport:
    ts: tuple[float, ...]
    segment_lengths: tuple[float, ...]
    max_deviations: tuple[float, ...]
    ratios: tuple[float, ...]
    max_ratio: float
    bound_constant: float
    track_count: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "ts": list(self.ts),
            "segment_lengths": list(self.segment_lengths),
            "max_deviations": list(self.max_deviations),
            "ratios": list(self.ratios),
            "max_ratio": self.max_ratio,
            "bound_constant": self.bound_constant,
            "track_count": self.track_count,
            "passed": self.passed,
        }


def perturbation_bound_check(
    family,
    cm: CliffordModule,
    truncation: int,
    curvature_bound: float = 1.0,
    bound_constant: float = 5.0,
    samples: int = 9,
    spin_shift=None,
    track_count: int | None = None,
    quad_samples: int = 33,
    fd_step: float = 1e-6,
) -> PerturbationReport:
    """Sinh-rescaled spectra move no faster than the metric path length.

    family maps t in [0, 1] to a flat-torus Gram matrix.  On every grid
    segment the sorted asinh(lambda / sqrt(K)) values shift by at most
    bound_constant times the segment's metric path length.  Only a centered
    band of the sorted spectrum is tracked: eigenvalues near the truncation
    edge can enter or leave the retained window as the metric moves, which
    is an artifact of finite truncation, not of the estimate.
    """
    if samples < 2:
        raise ValueError("need at least two parameter samples")
    ts = np.linspace(0.0, 1.0, samples)
    g0 = np.atleast_2d(np.asarray(family(ts[0]), dtype=float))
    n = g0.shape[0]
    shift = np.zeros(n) if spin_shift is None else np.asarray(spin_shift, dtype=float)

    def rescaled_values(t: float) -> np.ndarray:
        gram = np.atleast_2d(np.asarray(family(t), dtype=float))
        basis = np.linalg.cholesky(gram).T
        spec = eigensolve(assemble_dirac(FlatTorusModel(basis, shift), cm, truncation))
        return sinh_rescale(spec, curvature_bound).values

    all_values = [rescaled_values(t) for t in ts]
    dim = len(all_values[0])
    tc = track_count if track_count is not None else max(1, dim // 2)
    if not 1 <= tc <= dim:
        raise ValueError(f"track_count must lie in [1, {dim}]")
    lo = (dim - tc) // 2
    band = slice(lo, lo + tc)
    lengths, devs, ratios = [], [], []
    for i in range(samples - 1):
        seg = metric_path(family, samples=quad_samples, fd_step=fd_step, t0=ts[i], t1=ts[i + 1])
        dev = float(np.max(np.abs(all_values[i + 1][band] - all_values[i][band])))
        if seg < 1e-15:
            ratio = 0.0 if dev <= 1e-12 else float("inf")
        else:
            ratio = dev / seg
        lengths.append(float(seg))
        devs.append(dev)
        ratios.append(float(ratio))
    # np.max, unlike max, lets a NaN ratio through to fail the check
    max_ratio = float(np.max(ratios)) if ratios else 0.0
    return PerturbationReport(
        ts=tuple(float(t) for t in ts),
        segment_lengths=tuple(lengths),
        max_deviations=tuple(devs),
        ratios=tuple(ratios),
        max_ratio=float(max_ratio),
        bound_constant=float(bound_constant),
        track_count=tc,
        passed=bool(max_ratio <= bound_constant),
    )


@dataclass(frozen=True)
class RayleighReport:
    ok: bool
    target: float
    worst_margin: float
    trials: int

    def __bool__(self) -> bool:
        return self.ok


def rayleigh_minimax_check(
    op, k: int, trials: int = 20, seed: int = 0, slack: float = 1e-9
) -> RayleighReport:
    """Random k-dimensional trial subspaces never beat the k-th eigenvalue.

    For the squared operator, the largest Rayleigh quotient over any
    k-dimensional subspace is at least the k-th smallest eigenvalue; random
    subspaces probe that variational inequality.
    """
    matrix = np.asarray(getattr(op, "matrix", op), dtype=complex)
    dim = matrix.shape[0]
    if not 1 <= k <= dim:
        raise ValueError(f"k must lie in [1, {dim}]")
    square = matrix @ matrix
    target = float(np.linalg.eigvalsh(square)[k - 1])
    rng = np.random.default_rng(seed)
    worst = float("inf")
    for _ in range(trials):
        z = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
        q, _ = np.linalg.qr(z)
        small = q.conj().T @ square @ q
        top = float(np.linalg.eigvalsh(small)[-1])
        worst = min(worst, top - target)
    ok = worst >= -slack * max(1.0, abs(target))
    return RayleighReport(ok=bool(ok), target=target, worst_margin=worst, trials=trials)
