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
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    EmptyInvariantSpaceError,
    _flat_modes,
    _limit_operator,
    _mapping_plan,
    _parallel_columns,
)
from .clifford import CliffordModule
from .models import (
    FD_STEP,
    AffineMappingTorus,
    FlatTorusModel,
    GeometricData,
    _family_values,
    _mapping_geometry,
    metric_path,
)
from .spectral import (
    HERMITICITY_TOL,
    INEQUALITY_SLACK,
    NULL_SEGMENT_DEVIATION,
    NULL_SEGMENT_LENGTH,
    SPECTRUM_MATCH_TOL,
    MatchResult,
    Spectrum,
    _require_hermitian,
    _stack_values,
    eigensolve,
    epsilon_close,
    window_intersect,
)

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


def _window_square(geom: GeometricData, window_a: float, window_c: float) -> float:
    """window_a / diam(fiber)^2 - window_c * (|R| + |II|^2 + |T|^2), refusing
    window constants outside a > 0, c >= 0 and a fiber diameter that is not
    positive (NaN included)."""
    if not (window_a > 0.0 and window_c >= 0.0):
        raise ValueError("window constants must satisfy a > 0, c >= 0")
    if not geom.diam_z > 0.0:
        raise ValueError("fiber diameter must be positive")
    penalty = geom.norm_r + geom.norm_pi**2 + geom.norm_t**2
    return window_a / geom.diam_z**2 - window_c * penalty


def spectral_window(
    geom: GeometricData,
    window_a: float = DEFAULT_WINDOW_A,
    window_c: float = DEFAULT_WINDOW_C,
) -> float:
    """Width of the surviving-spectrum window for the given geometry.

    The square is  window_a / diam(fiber)^2 - window_c * (|R| + |II|^2 + |T|^2);
    a nonpositive square means the window is empty (width 0).
    """
    return float(np.sqrt(max(_window_square(geom, window_a, window_c), 0.0)))


def check_fiber_gap_bound(
    gap: float,
    geom: GeometricData,
    window_a: float = DEFAULT_WINDOW_A,
    window_c: float = DEFAULT_WINDOW_C,
) -> bool:
    """Fiber gap squared must dominate the window square.

    This is what makes the window safe: everything the fiber operator does
    outside the parallel sections happens above the window.  A slack of
    INEQUALITY_SLACK * max(1, |square|) absorbs exact-equality cases in
    floating point.  Refuses what spectral_window refuses.
    """
    square = _window_square(geom, window_a, window_c)
    return bool(gap * gap >= square - INEQUALITY_SLACK * max(1.0, abs(square)))


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
            # writelines takes the encoder's chunks from C, without
            # json.dump's Python loop of writes or the joined copy json.dumps
            # holds (about 4x the output at its peak)
            encoder = json.JSONEncoder(indent=2, sort_keys=True)
            fh.writelines(encoder.iterencode(self.to_json_dict()))
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


def _scaled_models(model: AffineMappingTorus, eps: list[float]):
    """Each scale's model and scaled fiber, built once.  Stops at the first
    scale whose fiber is refused and returns that refusal as well (else
    None); the caller raises it in that scale's turn, after the refusals of
    the scales before it."""
    scaled, fibers = [], []
    for e in eps:
        at_scale = model.with_scale(e)
        try:
            fibers.append(at_scale.scaled_fiber())
        except ValueError as err:
            return scaled, fibers, err
        scaled.append(at_scale)
    return scaled, fibers, None


def _solved(spec: Spectrum | None, operator) -> Spectrum:
    """A spectrum the symbol path solved, or where it left the spectrum to
    the block path (None), eigensolve of the operator that operator()
    assembles."""
    return eigensolve(operator()) if spec is None else spec


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
    into it once.  Each scale's model and scaled fiber are built once; the
    fiber gives both its momenta and its window's diameter.  The limit (the
    zero-mode orbit's blocks without fiber momentum) and then all scales at
    once are solved from the plan's certified block symbols, without forming
    an operator; the limit or a scale with a block that fails its
    certificate takes the block path, eigensolve of the assembled operator.
    The plan's one twist-sector coupling check serves both paths: it runs
    once for all scales, and once for the limit at the zero mode alone.  A
    scale's k_max tracked values come from a sort of its at most 2 k_max
    eigenvalues nearest zero, not of all of them.  Refusals come scale by
    scale, each scale's in the order twist-sector coupling, Hermiticity,
    block path, k_max, window.
    """
    eps = _check_epsilons(epsilons)
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must decrease strictly")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    plan = _mapping_plan(model, cm, truncation)
    try:
        limit_spec = _solved(plan.limit_symbol_spectrum(), lambda: _limit_operator(plan))
        verdict = "converges"
    except EmptyInvariantSpaceError:
        limit_spec = None
        verdict = "blows_up"
    scaled, fibers, refused = _scaled_models(model, eps)
    solved = plan.symbol_spectra(fibers)
    spectra, bounds, tracked_cols = [], [], []
    for i, at_scale in enumerate(scaled):
        spec = _solved(solved.at(i), lambda: plan.dirac(at_scale))
        if k_max > len(spec):
            raise ValueError(f"k_max={k_max} exceeds spectrum size {len(spec)}")
        spectra.append(spec)
        bounds.append(spectral_window(_mapping_geometry(fibers[i]), window_a, window_c))
        tracked_cols.append(_smallest_abs(spec.values, k_max))
    if refused is not None:
        raise refused
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
    min |spec| >= a / epsilon across all requested scales.  The plan's one
    lift basis decides whether parallel sections exist.  Each scale's model
    and scaled fiber are built once, and all scales are solved from the
    plan's block symbols in one pass, as in collapse_run; each scale's
    min |spec| is read off its spectrum, the certified one or the block
    path's when a block fails its certificate.  Refusals come scale by
    scale, each scale's in the order twist-sector coupling, Hermiticity,
    block path.
    """
    plan = _mapping_plan(model, cm, truncation)
    if _parallel_columns(model, plan.basis).any():
        raise ValueError(
            "model has parallel sections; its spectrum converges instead of escaping"
        )
    eps = _check_epsilons(epsilons)
    scaled, fibers, refused = _scaled_models(model, eps)
    solved = plan.symbol_spectra(fibers)
    mins = []
    for i, at_scale in enumerate(scaled):
        spec = _solved(solved.at(i), lambda: plan.dirac(at_scale))
        mins.append(float(_smallest_abs(spec.values, 1)[0]))
    if refused is not None:
        raise refused
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
    their modes, so their Dirac blocks form one stack, solved by the one
    batched eigh with residual check that eigensolve runs per stack; each
    grid point's model and operator are still checked on their own.
    """
    if samples < 2:
        raise ValueError("need at least two parameter samples")
    if not 0.0 < curvature_bound < np.inf:
        raise ValueError(f"curvature bound must be positive and finite, got {curvature_bound!r}")
    n = cm.n
    shift = np.zeros(n) if spin_shift is None else np.asarray(spin_shift, dtype=float)
    modes = _flat_modes(FlatTorusModel(np.eye(n), shift), truncation)
    dim = len(modes) * cm.dim_v
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
    stack = cm.gamma(np.concatenate([torus.dual_momentum(modes) for torus in tori]))
    for t, block in zip(ts.tolist(), stack.reshape(samples, len(modes), cm.dim_v, cm.dim_v)):
        # each grid point's operator is checked against its own scale
        message = f"Dirac operator at grid point t={t!r} is not Hermitian"
        _require_hermitian([block], HERMITICITY_TOL, message + " (residual {residual:.3e})")
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


@dataclass(frozen=True)
class RayleighReport:
    ok: bool
    target: float
    worst_margin: float
    trials: int

    def __bool__(self) -> bool:
        return self.ok


def rayleigh_minimax_check(op, k: int, trials: int = 20, seed: int = 0) -> RayleighReport:
    """Random k-dimensional trial subspaces never beat the k-th eigenvalue.

    For the squared operator, the largest Rayleigh quotient over any
    k-dimensional subspace is at least the k-th smallest eigenvalue; random
    subspaces probe that variational inequality, with a slack of
    INEQUALITY_SLACK * max(1, |eigenvalue|).  The subspaces are drawn from
    random.Random(seed), so worst_margin at a given seed differs from
    versions that drew them from numpy.random; a negative seed is refused,
    and so is trials < 1, which would check nothing.
    """
    matrix = np.asarray(getattr(op, "matrix", op), dtype=complex)
    dim = matrix.shape[0]
    if not 1 <= k <= dim:
        raise ValueError(f"k must lie in [1, {dim}]")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    square = matrix @ matrix
    target = float(np.linalg.eigvalsh(square)[k - 1])
    rng = _Normals(seed)
    worst = float("inf")
    for _ in range(trials):
        z = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
        q, _ = np.linalg.qr(z)
        small = q.conj().T @ square @ q
        top = float(np.linalg.eigvalsh(small)[-1])
        worst = min(worst, top - target)
    ok = worst >= -INEQUALITY_SLACK * max(1.0, abs(target))
    return RayleighReport(ok=bool(ok), target=target, worst_margin=worst, trials=trials)
