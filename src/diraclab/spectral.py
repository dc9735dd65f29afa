"""Spectra of assembled operators, multiset comparison, CSV export, and the
tolerance policy.

Spectra are ascending sorted arrays tagged with a clustering tolerance and
the truncation that produced them.  Comparisons run over sorted values:
equality of multisets of reals at tolerance eps is exactly pointwise
closeness of the sorted sequences, and subset containment is decided by the
greedy two-pointer injection, which is optimal for sorted sequences.

Every tolerance the package compares against is an entry of the table
below.  Only window_agreement, the CLI's INI keys and the holonomy closure
(holonomy_rep, fixed_subspace) take a tolerance as an option, and their
defaults are entries of the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
RESIDUAL_TOL = 1e-10  # eigenpair residual, and a symbol-certified block's Weyl bound; rel block
HERMITICITY_TOL = 1e-12  # M - M^H of an assembled or solved operator, of -iX for exp(X); rel
INPUT_HERMITICITY_TOL = 1e-10  # M - M^H of a delta block or a Gram matrix; rel
# twist diagonalization, angle clusters, fixed space, lift order and
# sign-count integrality: abs; twist-sector coupling: rel largest symbol entry
STRUCTURE_TOL = 1e-8
CLUSTER_TOL = 1e-8  # gap inside an eigenvalue cluster; rel largest |eigenvalue|
RELATION_TOL = 1e-12  # Clifford module relation residuals; op, abs
CASIMIR_TOL = 1e-10  # Casimir sum minus its scalar c; op, rel c
UNITARITY_TOL = 1e-10  # U^H U - I of a lift or holonomy generator, R^T R - I; op, abs
PROJECTOR_TOL = 1e-10  # P - P^H of an averaging projector, eigenvalues off {0, 1}; op, abs
ANGLE_TOL = 1e-10  # equal cosines and zero sines in the logarithm of a rotation; abs
LIFT_TOL = 1e-9  # U gamma U^H - gamma(R) for the lift U of R (and so exp(log R) - R); op, abs
WEIGHT_TOL = 1e-9  # twice a module weight minus the nearest integer; abs
SINGULAR_DET_TOL = 1e-12  # |det| of a singular lattice basis; abs
DIAGONAL_GRAM_TOL = 1e-12  # off-diagonal Gram entries of a rectangle; times largest entry
METRIC_INVARIANCE_TOL = 1e-10  # phi^T G phi - G of a holonomy phi; rel G
CONNECTION_INVARIANCE_TOL = 1e-12  # phi A - A of the connection form A; rel A
SHIFT_INTEGRALITY_TOL = 1e-12  # phi^T s - s off Z^m, s the fiber spin shift; abs
INEQUALITY_SLACK = 1e-9  # fiber-gap and Rayleigh min-max inequalities; rel right side
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
    source_truncation: int | None = None

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


def eigensolve(op) -> Spectrum:
    """Eigenvalues of a Hermitian operator, one _stack_values call per
    size-class stack, clustered at CLUSTER_TOL * max(1, largest |eigenvalue|).

    An assembled operator's Hermiticity was checked when it was built; a
    raw square array is checked here and solved as a stack of one block.
    collapse_run and blowup_check solve a mapping torus from its block
    symbols (symbols) and call this only where that certificate refuses.
    """
    stacks = getattr(op, "stacks", None)
    if stacks is None:
        matrix = np.asarray(op, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("eigensolve needs a square matrix")
        _require_hermitian([matrix], HERMITICITY_TOL, "operator is not Hermitian")
        stacks = (matrix[None],)
    chunks = [_stack_values(stack).ravel() for stack in stacks if stack.size]
    values = np.concatenate(chunks) if chunks else np.zeros(0)
    return Spectrum(
        values=values,
        cluster_tol=_default_tol(values),
        source_truncation=getattr(op, "truncation", None),
    )


def sinh_rescale(spec: Spectrum, curvature_bound: float) -> Spectrum:
    """Monotone rescaling asinh(value / sqrt(K)) used by the stability
    estimate; K must be a positive lower-curvature-type constant."""
    if curvature_bound <= 0.0:
        raise ValueError("curvature bound must be positive")
    root = float(np.sqrt(curvature_bound))
    return Spectrum(
        values=np.arcsinh(spec.values / root),
        cluster_tol=spec.cluster_tol / root,
        source_truncation=spec.source_truncation,
    )


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
    return Spectrum(
        values=keep, cluster_tol=spec.cluster_tol, source_truncation=spec.source_truncation
    )


def spectrum_to_csv(spec: Spectrum, path) -> None:
    """One eigenvalue per line in full repr precision, after a comment line
    carrying the truncation and tolerance; every value parses back exactly."""
    lines = [f"# truncation={spec.source_truncation!r} cluster_tol={spec.cluster_tol!r}"]
    lines.extend(repr(float(v)) for v in spec.values)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

