"""Assembled operators and their spectra, multiset comparison, CSV export,
and the tolerance policy.

An assembled operator (AssembledOperator) is stored as its diagonal
Fourier blocks, one read-only stack per block size, which eigensolve solves
one at a time; their provenance is one columnar record (BlockInfo).

Spectra are ascending sorted arrays tagged with a clustering tolerance;
neither an operator nor its spectrum records the truncation, which only the
plan build (mapping._plan) reads.  Comparisons run over sorted values:
equality of multisets of reals at tolerance eps is exactly pointwise
closeness of the sorted sequences, and subset containment is decided by the
greedy two-pointer injection, which is optimal for sorted sequences.

Every tolerance the package compares against is an entry of the table
below.  Only window_agreement and the CLI's INI keys take a tolerance as an
option, and their defaults are entries of the table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Spectrum",
    "MatchResult",
    "eigensolve",
    "sinh_rescale",
    "epsilon_close",
    "subset_epsilon_close",
    "window_intersect",
    "spectrum_to_csv",
]

# Tolerance policy.  Each entry's comment says what it bounds and its scale:
# "abs" compares the raw quantity, "rel" compares it with the entry times
# max(1, largest entry of the checked matrix), "rel X" with the entry times
# max(1, |X|).  Matrix quantities are largest entries, "op" operator norms.
RESIDUAL_TOL = 1e-10  # eigenpair residual, rel block; 2 s kappa of a symbol pair (symbols), abs
HERMITICITY_TOL = 1e-12  # M - M^H of an operator, of -iX for exp(X), of gammas / sqrt(n) dim_v; rel
INPUT_HERMITICITY_TOL = 1e-10  # M - M^H of a delta block or a Gram matrix; rel
# lift basis, _unitary_eigh cosines, angle clusters, parallel columns and fixed_subspace
# (angle off a whole turn): abs; twist coupling (mapping._couples): rel the base gamma,
# and times the largest entry of the fiber symbol at a unit direction, without the 1
STRUCTURE_TOL = 1e-8
CLUSTER_TOL = 1e-8  # gap inside an eigenvalue cluster; rel largest |eigenvalue|
RELATION_TOL = 1e-12  # Clifford module relation residuals; op, abs
CASIMIR_TOL = 1e-10  # Casimir sum minus its scalar c; op, rel c
UNITARITY_TOL = 1e-10  # U^H U - I of a lift or holonomy generator, R^T R - I; op, abs
ANGLE_TOL = 1e-10  # zero sines in the logarithm of a rotation; abs
LIFT_TOL = 1e-9  # U gamma U^H - gamma(R) for the lift U of R (and so exp(log R) - R); op, abs
WEIGHT_TOL = 1e-9  # twice a module weight minus the nearest integer; abs
SINGULAR_DET_TOL = 1e-12  # |det| of a singular lattice basis; rel product of column norms
DIAGONAL_GRAM_TOL = 1e-12  # off-diagonal Gram entries of an obtuse superbase; times largest
METRIC_INVARIANCE_TOL = 1e-10  # phi^T G phi - G of a holonomy phi; times largest |G|
CONNECTION_INVARIANCE_TOL = 1e-12  # phi A - A of the connection form A; rel A
SHIFT_INTEGRALITY_TOL = 1e-12  # phi^T s - s off Z^m, s the fiber spin shift; abs
SPECTRUM_MATCH_TOL = 1e-9  # paired eigenvalues of two spectra compared as multisets; abs
NULL_SEGMENT_LENGTH = 1e-15  # metric path length of a segment treated as zero; abs
NULL_SEGMENT_DEVIATION = 1e-12  # spectral shift allowed on such a segment; abs
SQUARE_IDENTITY_TOL = 1e-10  # squared Dirac minus Bochner eigenvalues; rel largest
CONDITION_CAP = 1e12  # condition number of a block treated as singular
NEUMANN_SERIES_TOL = 1e-14  # last Neumann term summed; abs
NEUMANN_MAX_TERMS = 10000  # Neumann terms summed before the series is refused
BLOCK_INVERSE_TOL = 1e-8  # M M^-1 - I, and Neumann minus direct inverse; abs
FACTORIZATION_TOL = 1e-10  # Neumann factorization residual; rel Schur complement


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sorted eigenvalues with a clustering tolerance."""

    values: np.ndarray
    cluster_tol: float

    def __post_init__(self) -> None:
        v = np.sort(np.asarray(self.values, dtype=float).ravel())
        object.__setattr__(self, "values", v)
        if not self.cluster_tol >= 0.0:
            raise ValueError("cluster tolerance must be nonnegative")

    def __len__(self) -> int:
        return len(self.values)

    def abs_sorted(self) -> np.ndarray:
        """Absolute values, ascending; position k-1 is the k-th smallest."""
        return np.sort(np.abs(self.values))


@dataclass(frozen=True)
class MatchResult:
    """Outcome of a multiset comparison with the witness pairing."""

    ok: bool
    pairs: tuple[tuple[int, int], ...] = field(default=())
    max_deviation: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


def _default_tol(values: np.ndarray) -> float:
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    return CLUSTER_TOL * max(1.0, scale)


def _require_hermitian(stacks, tol: float, message: str) -> None:
    """Raise ValueError(message) unless max|M - M^H| <= tol * max(1, max|M|)
    over every matrix M of the (..., d, d) arrays stacks.  message may name
    the residual as {residual}."""
    stacks = [s for s in stacks if s.size]
    scale = max([1.0] + [float(np.max(np.abs(s))) for s in stacks])
    resid = max([0.0] + [float(np.max(np.abs(s - s.conj().swapaxes(-1, -2)))) for s in stacks])
    if resid > tol * scale:
        raise ValueError(message.format(residual=resid))


def _opnorm(m: np.ndarray) -> np.ndarray:
    """Operator 2-norms of a (..., d, d) stack: the root of the largest
    complex eigvalsh eigenvalue of A^H A.  A real stack is cast to complex,
    so that no real dsyevd is loaded; the package takes every "op" quantity
    here."""
    m = np.asarray(m, dtype=complex)
    return np.sqrt(np.linalg.eigvalsh(m.conj().swapaxes(-1, -2) @ m)[..., -1].clip(0.0))


@dataclass(frozen=True, eq=False)
class BlockInfo:
    """Block provenance, one row per block in row order: modes (B, k) (on a
    mapping torus, ending in the base Fourier index), sizes (B,) and twist
    angles (B,) in turns (0.0 on flat tori)."""

    modes: np.ndarray
    sizes: np.ndarray
    twist: np.ndarray



def _rank_within(keys: np.ndarray) -> np.ndarray:
    """Each entry's rank among the earlier entries with its key (an integer
    >= 0); with block sizes as keys, each block's position in its stack."""
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys)
    ranks = np.empty(len(keys), dtype=np.intp)
    ranks[order] = np.arange(len(keys)) - (np.cumsum(counts) - counts)[keys[order]]
    return ranks


@dataclass(frozen=True, eq=False)
class AssembledOperator:
    """Hermitian operator stored as its diagonal Fourier blocks.

    stacks holds the numbers: one read-only (B, d, d) array per block size
    d, ascending, each listing the blocks of that size in row order.
    block_info is the columnar provenance of the blocks in row order: block
    i takes the next sizes[i] rows, labeled (modes[i], j) with j running on
    from the rows earlier blocks of that mode took, and the next block of
    its size's stack.  Stacks and columns are made read-only and checked
    once, here.  blocks (views into the stacks) and matrix (the dense
    block-diagonal view) are built on first access.  The operator does not
    record the truncation it was assembled at: the modes in block_info are
    the retained ones, and only the plan build knows the window.
    """

    stacks: tuple[np.ndarray, ...]
    block_info: BlockInfo

    def __post_init__(self) -> None:
        stacks = [np.asarray(s, dtype=complex) for s in self.stacks]
        for s in stacks:
            if s.ndim != 3 or s.shape[1] != s.shape[2]:
                raise ValueError("operator blocks must be square")
            s.flags.writeable = False
        stacks.sort(key=lambda s: s.shape[1])
        info = BlockInfo(*(np.asarray(c) for c in vars(self.block_info).values()))
        if info.modes.ndim != 2:
            raise ValueError(f"block modes must be a 2-D array, got shape {info.modes.shape}")
        if any(c.shape != (len(info.modes),) for c in (info.sizes, info.twist)):
            raise ValueError("block info columns must have one entry per block")
        if np.any(info.sizes < 1):
            raise ValueError("block sizes must be at least 1")
        counts = np.bincount(info.sizes, minlength=max([s.shape[1] + 1 for s in stacks], default=0))
        if len(info.sizes) != sum(len(s) for s in stacks) or any(
            counts[s.shape[1]] != len(s) for s in stacks
        ):
            raise ValueError("one block info required per block")
        for c in vars(info).values():
            c.flags.writeable = False
        object.__setattr__(self, "stacks", tuple(stacks))
        object.__setattr__(self, "block_info", info)
        _require_hermitian(
            stacks, HERMITICITY_TOL, "assembled operator is not Hermitian (residual {residual:.3e})"
        )

    @cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """The blocks in row order, as read-only views into the stacks."""
        by_size = {s.shape[1]: s for s in self.stacks}
        sizes = self.block_info.sizes
        return tuple(by_size[d][r] for d, r in zip(sizes.tolist(), _rank_within(sizes).tolist()))

    @cached_property
    def block_slices(self) -> tuple[slice, ...]:
        sizes = self.block_info.sizes.tolist()
        return tuple(slice(end - d, end) for d, end in zip(sizes, itertools.accumulate(sizes)))

    @cached_property
    def basis_labels(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        modes = np.repeat(self.block_info.modes, self.block_info.sizes, axis=0)
        _, mode_ids = np.unique(modes, axis=0, return_inverse=True)
        index = _rank_within(mode_ids.ravel()).tolist()
        return tuple(zip(map(tuple, modes.tolist()), index))

    @property
    def dim(self) -> int:
        return sum(s.shape[0] * s.shape[1] for s in self.stacks)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense block-diagonal view, for consumers that need the full matrix."""
        dense = np.zeros((self.dim, self.dim), dtype=complex)
        for block, sl in zip(self.blocks, self.block_slices):
            dense[sl, sl] = block
        dense.flags.writeable = False
        return dense



def _block_max(stack: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each block of a (B, d, d) stack.  Reduced
    along the leading axis of a transposed copy, which numpy vectorizes
    across blocks; a reduction over the two inner axes runs block by block."""
    return np.abs(stack).reshape(len(stack), -1).T.copy().max(axis=0)


def _stack_values(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues (B, d) of a nonempty (B, d, d) stack of Hermitian blocks
    from one batched eigh, every eigenpair's residual checked against
    RESIDUAL_TOL * max(1, largest entry of its block).  Each block's values
    depend on that block alone, so stacking blocks of several operators
    solves each operator as eigensolve would."""
    w, v = np.linalg.eigh(stack)
    resid = _block_max(stack @ v - v * w[:, None, :])
    if np.any(resid > RESIDUAL_TOL * np.maximum(1.0, _block_max(stack))):
        raise RuntimeError(f"eigenpair residual {float(np.max(resid)):.3e} exceeds tolerance")
    return w


def eigensolve(op: AssembledOperator) -> Spectrum:
    """Eigenvalues of an assembled operator, one _stack_values call per
    size-class stack, clustered at CLUSTER_TOL * max(1, largest |eigenvalue|).

    The operator's Hermiticity was checked when it was built; anything
    other than an AssembledOperator is refused by name.  collapse_run and
    blowup_check solve a mapping torus from its block symbols (symbols) and
    never call this: rows whose symbol pairs fail their one certificate are
    refused there, and no block is solved.
    """
    if not isinstance(op, AssembledOperator):
        raise TypeError(f"eigensolve needs an AssembledOperator, got {type(op).__name__}")
    chunks = [_stack_values(stack).ravel() for stack in op.stacks if stack.size]
    values = np.concatenate(chunks) if chunks else np.zeros(0)
    return Spectrum(values=values, cluster_tol=_default_tol(values))


def sinh_rescale(spec: Spectrum, curvature_bound: float) -> Spectrum:
    """Monotone rescaling asinh(value / sqrt(K)) used by the stability
    estimate; K must be a positive lower-curvature-type constant."""
    if curvature_bound <= 0.0:
        raise ValueError("curvature bound must be positive")
    root = float(np.sqrt(curvature_bound))
    return Spectrum(values=np.arcsinh(spec.values / root), cluster_tol=spec.cluster_tol / root)


def epsilon_close(a: Spectrum, b: Spectrum, eps: float) -> MatchResult:
    """Multiset equality at tolerance eps, with the sorted pairing as
    witness.  Unequal lengths fail outright."""
    if not eps >= 0.0:
        raise ValueError("tolerance must be nonnegative")
    va, vb = a.values, b.values
    if len(va) != len(vb):
        return MatchResult(ok=False, pairs=(), max_deviation=float("inf"))
    if len(va) == 0:
        return MatchResult(ok=True)
    dev = np.abs(va - vb)
    pairs = tuple((i, i) for i in range(len(va)))
    return MatchResult(
        ok=bool(np.max(dev) <= eps), pairs=pairs, max_deviation=float(np.max(dev))
    )


def subset_epsilon_close(a: Spectrum, b: Spectrum, eps: float) -> MatchResult:
    """Injection of a into b matching every value within eps, if one exists.

    Greedy over the sorted sequences: each a-value takes the earliest unused
    b-value within eps.  For sorted data the greedy choice is safe, so
    failure here means no injection exists at this tolerance.
    """
    if not eps >= 0.0:
        raise ValueError("tolerance must be nonnegative")
    va, vb = a.values, b.values
    pairs = []
    dev = 0.0
    j = 0
    for i, x in enumerate(va):
        while j < len(vb) and vb[j] < x - eps:
            j += 1
        if j >= len(vb) or vb[j] > x + eps:
            return MatchResult(ok=False, pairs=tuple(pairs), max_deviation=float("inf"))
        pairs.append((i, j))
        dev = max(dev, abs(float(x - vb[j])))
        j += 1
    return MatchResult(ok=True, pairs=tuple(pairs), max_deviation=dev)


def window_intersect(spec: Spectrum, bound: float) -> Spectrum:
    """Restrict to eigenvalues with |value| <= bound; bound may be inf."""
    if not (bound >= 0.0):
        raise ValueError("window bound must be nonnegative")
    keep = spec.values[np.abs(spec.values) <= bound]
    return Spectrum(values=keep, cluster_tol=spec.cluster_tol)


def spectrum_to_csv(spec: Spectrum, path, truncation: int) -> None:
    """One eigenvalue per line in full repr precision, after a comment line
    carrying the truncation the spectrum was assembled at and its tolerance;
    every value parses back exactly."""
    lines = [f"# truncation={truncation!r} cluster_tol={spec.cluster_tol!r}"]
    lines.extend(repr(float(v)) for v in spec.values)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

