"""Collapse experiments: shrink the fiber, compare against the limit.

The spectral window keeps eigenvalues that survive the collapse: its square
is an explicit fiber-diameter term minus a curvature/second-fundamental-form
penalty.  Inside the window the shrinking-family spectra must match the
limit operator's; when no parallel sections exist the whole spectrum must
escape at rate 1/epsilon instead.  Both verdicts are produced here, along
with the sinh-rescaled Lipschitz estimate for metric deformations.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

from .clifford import CliffordModule
from .mapping import EmptyInvariantSpaceError, _parallel_columns, _plan
from .models import (
    FD_STEP,
    AffineMappingTorus,
    FlatTorusModel,
    GeometricData,
    _check_scaled,
    _family_values,
    _mapping_geometry,
    metric_path,
)
from .spectral import (
    NULL_SEGMENT_DEVIATION,
    NULL_SEGMENT_LENGTH,
    SPECTRUM_MATCH_TOL,
    MatchResult,
    Spectrum,
    _stack_values,
    eigensolve,  # not called here; bench/smoke.py reads it as collapse.eigensolve
    epsilon_close,
    window_intersect,
)

__all__ = [
    "DEFAULT_WINDOW_A",
    "DEFAULT_WINDOW_C",
    "spectral_window",
    "CollapseReport",
    "collapse_run",
    "window_agreement",
    "BlowupReport",
    "blowup_check",
    "PerturbationReport",
    "perturbation_bound_check",
]

DEFAULT_WINDOW_A = float(np.pi) ** 2
DEFAULT_WINDOW_C = 10.0


def _check_window(window_a: float, window_c: float) -> None:
    """Refuse window constants outside a > 0, c >= 0, then an infinite one."""
    if not (window_a > 0.0 and window_c >= 0.0):
        raise ValueError("window constants must satisfy a > 0, c >= 0")
    for name, value in (("window_a", window_a), ("window_c", window_c)):
        if value == np.inf:
            raise ValueError(f"{name} must be finite, got {value!r}")


def spectral_window(
    geom: GeometricData,
    window_a: float = DEFAULT_WINDOW_A,
    window_c: float = DEFAULT_WINDOW_C,
) -> float:
    """Width of the surviving-spectrum window for the given geometry.

    The square is  window_a / diam(fiber)^2 - window_c * (|R| + |II|^2 + |T|^2);
    a nonpositive square means the window is empty (width 0).  Refuses
    window constants outside a > 0, c >= 0, then an infinite one
    (_check_window), a fiber diameter that is not positive (NaN included),
    and one whose square is 0 or overflows.
    """
    _check_window(window_a, window_c)
    if not geom.diam_z > 0.0:
        raise ValueError("fiber diameter must be positive")
    square = float(geom.diam_z) * float(geom.diam_z)
    if not 0.0 < square < np.inf:
        raise ValueError(f"fiber diameter {geom.diam_z!r} is out of range: its square is 0 or inf")
    penalty = geom.norm_r + geom.norm_pi**2 + geom.norm_t**2
    return float(np.sqrt(max(window_a / square - window_c * penalty, 0.0)))


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
        _write_json(path, self.to_json_dict())


def _write_json(path, payload) -> None:
    """Write a report: indented JSON, sorted keys and a final newline."""
    with open(path, "w") as fh:
        # writelines takes the encoder's chunks from C, without json.dump's
        # Python loop of writes or json.dumps's joined copy (4x the output)
        fh.writelines(json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload))
        fh.write("\n")


def _check_epsilons(epsilons) -> list[float]:
    eps = [float(e) for e in epsilons]
    if not eps or any(e <= 0.0 for e in eps):
        raise ValueError("epsilons must be positive")
    if not np.isfinite(eps).all():
        raise ValueError(f"epsilons must be finite, got {eps!r}")
    return eps


def _smallest_abs(values: np.ndarray, k: int) -> np.ndarray:
    """The k smallest |values| of ascending values, ascending, as
    np.sort(np.abs(values))[:k]: they lie among the k values on either side
    of zero, so only those (at most 2k) are sorted.  np.partition would do
    as well, but its first call raised a CLI run's peak RSS by about
    0.13 MiB (numpy 2.4, x86-64)."""
    i = int(np.searchsorted(values, 0.0))
    return np.sort(np.abs(values[max(i - k, 0) : i + k]))[:k]


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
    scale, so they are built once: the lift is diagonalized once (a computed
    lift by the eigh that builds it), every twist sector and the
    parallel-section test read that one basis, and the gammas are conjugated
    into it once.  Each scale divides the plan's unit-scale fiber momenta by
    epsilon, and its window takes epsilon times the one fiber diameter.  All
    scales are solved at once from the plan's block symbols, without
    forming a block: every block takes its closed form, as its (orbit,
    cluster) pair passes one scale-free certificate or the plan is refused
    by name (see the symbols module).  The limit is read off that one
    solution: its blocks are the zero-mode orbit's rows (plan.limit_rows),
    whose fiber momentum is zero at every scale, so the first scale's rows
    serve.  A scale's k_max tracked values come from a sort of its at most
    2 k_max eigenvalues nearest zero, not of all of them.

    Refusals come in this order, none of them tied to a scale index: the
    arguments, the window constants included (as spectral_window refuses
    them), before the plan is built; then the plan, which refuses a module
    whose gammas are not Hermitian, then what it cannot build, a symbol
    that couples distinct twist sectors included (mapping._plan); then a
    scale at which the fiber diameter or a momentum overflows when squared,
    by name; then pairs that break the Clifford relations, once for all
    scales (the symbols' one check); and last k_max, once, against the
    plan's row count, which every scale's spectrum has.
    """
    eps = _check_epsilons(epsilons)
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must decrease strictly")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    _check_window(window_a, window_c)
    plan = _plan(model, cm, truncation)
    diam = model.fiber.diameter()
    _check_scaled("the fiber diameter", eps, [e * diam for e in eps])
    solved = plan.symbol_spectra(eps)
    size = int(np.sum(plan.block_info.sizes))
    if k_max > size:
        raise ValueError(f"k_max={k_max} exceeds spectrum size {size}")
    try:
        limit_spec = solved.at(0, plan.limit_rows())
        verdict = "converges"
    except EmptyInvariantSpaceError:
        limit_spec = None
        verdict = "blows_up"
    spectra, bounds, tracked_cols = [], [], []
    for i, e in enumerate(eps):
        spec = solved.at(i)
        spectra.append(spec)
        bounds.append(spectral_window(_mapping_geometry(e * diam), window_a, window_c))
        tracked_cols.append(_smallest_abs(spec.values, k_max))
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


def window_agreement(report: CollapseReport, tol: float = SPECTRUM_MATCH_TOL) -> list[MatchResult]:
    """Windowed multiset comparison at every scale of a convergent run.  A
    scale whose window holds none of its eigenvalues compares nothing, and
    fails."""
    if report.limit_spectrum is None:
        raise ValueError("window agreement needs a convergent run")
    out = []
    for spec, bound in zip(report.spectra_per_eps, report.window_bounds):
        got = window_intersect(spec, bound)
        match = epsilon_close(got, window_intersect(report.limit_spectrum, bound), tol)
        out.append(match if len(got) else MatchResult(ok=False, max_deviation=match.max_deviation))
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
    min |spec| >= a / epsilon across all requested scales.  The plan's one
    lift basis decides whether parallel sections exist.  All scales are
    solved from the plan's block symbols in one pass, as in collapse_run,
    without forming a block, and each scale's min |spec| is read off its
    spectrum.  Refusals come in collapse_run's order, without the window,
    the diameter and k_max: the epsilons, the plan (a coupled symbol
    included), a scale at which a momentum overflows when squared, and
    pairs that break the Clifford relations.  A model with parallel
    sections is refused after the plan is built and before any scale.
    """
    eps = _check_epsilons(epsilons)
    plan = _plan(model, cm, truncation)
    if _parallel_columns(model, plan.basis).any():
        raise ValueError(
            "model has parallel sections; its spectrum converges instead of escaping"
        )
    solved = plan.symbol_spectra(eps)
    mins = [float(_smallest_abs(solved.at(i).values, 1)[0]) for i in range(len(eps))]
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
    fd_step: float = FD_STEP,
) -> PerturbationReport:
    """Sinh-rescaled spectra move no faster than the metric path length.

    family maps t in [0, 1] to a flat-torus Gram matrix.  On every grid
    segment the sorted asinh(lambda / sqrt(K)) values shift by at most
    bound_constant times the segment's metric path length.  Only a centered
    band of the sorted spectrum is tracked: eigenvalues near the truncation
    edge can enter or leave the retained window as the metric moves, which
    is an artifact of finite truncation, not of the estimate.

    Every argument is checked before family is first called (quad_samples
    and fd_step by metric_path).  All segment lengths come from one
    metric_path call, whose checks name the first node with a bad Gram
    matrix.  family is then called once per grid point: samples +
    3 (1 + (samples - 1)(q - 1)) calls in all, with q the odd quadrature
    count.  A stacked family (see metric_path) is called twice: once by
    metric_path and once on the array of grid points.  The grid tori share
    their modes, one flat plan's, whose _blocks forms each torus's Dirac
    blocks; the blocks of all of them form one stack, solved by the one
    batched eigh with residual check that eigensolve runs per stack.  Each
    grid point's model is checked on its own; their operators are
    Hermitian as the module is, which the plan checks once.
    """
    if samples < 2:
        raise ValueError("need at least two parameter samples")
    if not 0.0 < curvature_bound < np.inf:
        raise ValueError(f"curvature bound must be positive and finite, got {curvature_bound!r}")
    n = cm.n
    shift = np.zeros(n) if spin_shift is None else np.asarray(spin_shift, dtype=float)
    plan = _plan(FlatTorusModel(np.eye(n), shift), cm, truncation)
    dim = len(plan.reps) * cm.dim_v
    tc = track_count if track_count is not None else max(1, dim // 2)
    if not 1 <= tc <= dim:
        raise ValueError(f"track_count must lie in [1, {dim}]")
    ts = np.linspace(0.0, 1.0, samples)
    lengths = metric_path(family, quad_samples, fd_step, ts[:-1], ts[1:])
    grams = _family_values(family, ts)
    tori = []
    for gram in grams:
        if gram.shape != (n, n):
            raise ValueError(f"module dimension {n} does not match torus rank {gram.shape[0]}")
        tori.append(FlatTorusModel(np.linalg.cholesky(gram).T, shift))
    # one _blocks call per torus: the plan's table indexes one torus's modes
    momenta = [torus.dual_momentum(plan.reps) for torus in tori]
    stack = np.concatenate([plan._blocks(slice(None), p)[0] for p in momenta])
    values = np.sort(_stack_values(stack).reshape(samples, dim), axis=1)
    # sinh_rescale row by row, sorted again as its Spectrum is
    rescaled = np.sort(np.arcsinh(values / float(np.sqrt(curvature_bound))), axis=1)
    lo = (dim - tc) // 2
    devs = np.max(np.abs(np.diff(rescaled[:, lo : lo + tc], axis=0)), axis=1)
    ratios = []
    for seg, dev in zip(lengths.tolist(), devs.tolist()):
        if seg < NULL_SEGMENT_LENGTH:
            ratios.append(0.0 if dev <= NULL_SEGMENT_DEVIATION else float("inf"))
        else:
            ratios.append(dev / seg)
    # np.max, unlike max, lets a NaN ratio through to fail the check
    max_ratio = float(np.max(ratios))
    return PerturbationReport(
        ts=tuple(ts.tolist()),
        segment_lengths=tuple(lengths.tolist()),
        max_deviations=tuple(devs.tolist()),
        ratios=tuple(ratios),
        max_ratio=max_ratio,
        bound_constant=float(bound_constant),
        track_count=tc,
        passed=bool(max_ratio <= bound_constant),
    )


class _Normals:
    """Seeded standard normal draws from random.Random(seed), for the
    package's randomized checks; numpy.random is never loaded.  A negative
    seed is refused, as random.Random would take its absolute value."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        self._random = random.Random(seed)

    def standard_normal(self, shape: tuple[int, ...]) -> np.ndarray:
        """Draws of the given shape, in row-major order."""
        draws = [self._random.gauss(0.0, 1.0) for _ in range(math.prod(shape))]
        return np.array(draws, dtype=float).reshape(shape)
