"""Two-by-two block inverses and the Neumann factorization of the Schur
complement.

The inverse of [[a, b], [g, d]] with invertible a and Schur complement
s = d - g a^-1 b has the closed block form used throughout resolvent
comparisons; when d is positive (or carries an imaginary shift making it
normal with spectrum off the reals), s factors as
d^(1/2) (1 - x) d^(1/2) with x = d^(-1/2) g a^-1 b d^(-1/2), and the
resolvent exists with a convergent Neumann series whenever |x| < 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import CONDITION_CAP, INPUT_HERMITICITY_TOL, NEUMANN_MAX_TERMS
from .spectral import NEUMANN_SERIES_TOL, _require_hermitian

__all__ = [
    "BlockMatrix2x2",
    "schur_complement",
    "schur_inverse",
    "NeumannReport",
    "neumann_factorization_check",
    "neumann_inverse",
]


@dataclass(frozen=True, eq=False)
class BlockMatrix2x2:
    """Dense blocks [[alpha, beta], [gamma, delta]] of a partitioned matrix."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.alpha, dtype=complex)
        b = np.asarray(self.beta, dtype=complex)
        g = np.asarray(self.gamma, dtype=complex)
        d = np.asarray(self.delta, dtype=complex)
        p, q = a.shape[0], d.shape[0]
        if a.shape != (p, p) or d.shape != (q, q):
            raise ValueError("diagonal blocks must be square")
        if p == 0 or q == 0:
            raise ValueError("diagonal blocks must not be empty")
        if b.shape != (p, q) or g.shape != (q, p):
            raise ValueError("off-diagonal blocks have inconsistent shapes")
        for name, m in (("alpha", a), ("beta", b), ("gamma", g), ("delta", d)):
            object.__setattr__(self, name, m)

    def dense(self) -> np.ndarray:
        return np.block([[self.alpha, self.beta], [self.gamma, self.delta]])


def _opnorm(m: np.ndarray) -> np.ndarray:
    """Operator 2-norms of a stack: the root of the largest eigvalsh of A^H A."""
    return np.sqrt(np.linalg.eigvalsh(m.conj().swapaxes(-1, -2) @ m)[..., -1].clip(0.0))


def _checked_inverse(m: np.ndarray, what: str) -> np.ndarray:
    """m^-1, refused if the condition |m| |m^-1| (inf if inv raises) exceeds CONDITION_CAP."""
    try:
        inv = np.linalg.inv(m)
        cond = float(np.prod(_opnorm(np.stack([m, inv]))))
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.isfinite(cond) or cond > CONDITION_CAP:
        raise ValueError(f"{what} is numerically singular (condition {cond:.3e})")
    return inv


def schur_complement(m: BlockMatrix2x2) -> np.ndarray:
    """delta - gamma alpha^-1 beta."""
    ainv = _checked_inverse(m.alpha, "alpha block")
    return m.delta - m.gamma @ ainv @ m.beta


def schur_inverse(m: BlockMatrix2x2) -> np.ndarray:
    """Dense inverse assembled from the block formula.

    Requires both the alpha block and the Schur complement to be invertible
    within the condition cap; the result satisfies M M^-1 = I to rounding.
    """
    ainv = _checked_inverse(m.alpha, "alpha block")
    s = m.delta - m.gamma @ ainv @ m.beta
    sinv = _checked_inverse(s, "Schur complement")
    tl = ainv + ainv @ m.beta @ sinv @ m.gamma @ ainv
    tr = -ainv @ m.beta @ sinv
    bl = -sinv @ m.gamma @ ainv
    return np.block([[tl, tr], [bl, sinv]])


def _delta_sqrt_pair(
    delta: np.ndarray, imag_shift: float
) -> tuple[np.ndarray, np.ndarray]:
    """Principal square root of delta + i*shift and its inverse.

    With zero shift delta must be Hermitian positive definite; with a
    nonzero shift it must be Hermitian (the shift moves the spectrum off
    the real axis, so the principal root exists regardless of sign).
    """
    _require_hermitian(
        [delta], INPUT_HERMITICITY_TOL, "delta block must be Hermitian up to the imaginary shift"
    )
    w, v = np.linalg.eigh(delta)
    if imag_shift == 0.0:
        if np.min(w) <= 0.0:
            raise ValueError(
                "delta block is not positive definite; use a nonzero imag_shift"
            )
        roots = np.sqrt(w).astype(complex)
    else:
        roots = np.sqrt(w.astype(complex) + 1j * imag_shift)
    sq = (v * roots) @ v.conj().T
    sq_inv = (v * (1.0 / roots)) @ v.conj().T
    return sq, sq_inv


def _neumann_parts(m: BlockMatrix2x2, imag_shift: float):
    """d^(1/2) and d^(-1/2) for d = delta + i*shift, the checked inverse of
    a = alpha + i*shift, and x = d^(-1/2) gamma a^(-1) beta d^(-1/2)."""
    shifted_alpha = m.alpha + 1j * imag_shift * np.eye(m.alpha.shape[0])
    sq, sq_inv = _delta_sqrt_pair(m.delta, imag_shift)
    ainv = _checked_inverse(shifted_alpha, "alpha block")
    return sq, sq_inv, ainv, sq_inv @ m.gamma @ ainv @ m.beta @ sq_inv


@dataclass(frozen=True)
class NeumannReport:
    """Residual of the factorization and the contraction norm of x."""

    factorization_residual: float
    contraction_norm: float
    invertible: bool

    def __bool__(self) -> bool:
        return self.invertible


def neumann_factorization_check(m: BlockMatrix2x2, imag_shift: float = 0.0) -> NeumannReport:
    """Verify s = d^(1/2) (1 - x) d^(1/2) and report |x|.

    Here d = delta + i*shift and x = d^(-1/2) gamma (alpha + i*shift)^(-1)
    beta d^(-1/2); the factorization holds identically, so the residual is
    pure floating-point noise, and |x| < 1 certifies invertibility of the
    Schur complement through the Neumann series.
    """
    shifted_delta = m.delta + 1j * imag_shift * np.eye(m.delta.shape[0])
    sq, sq_inv, ainv, x = _neumann_parts(m, imag_shift)
    eye = np.eye(x.shape[0])
    recon = sq @ (eye - x) @ sq
    target = shifted_delta - m.gamma @ ainv @ m.beta
    scale = max(1.0, float(np.max(np.abs(target))) if target.size else 1.0)
    resid = float(np.max(np.abs(recon - target))) / scale
    contraction = float(_opnorm(x))
    return NeumannReport(
        factorization_residual=resid,
        contraction_norm=contraction,
        invertible=bool(contraction < 1.0),
    )


def neumann_inverse(m: BlockMatrix2x2, imag_shift: float = 0.0) -> np.ndarray:
    """Invert the Schur complement by summing the Neumann series.

    Converges iff the contraction norm is below one; the sum stops at the
    first term with no entry of NEUMANN_SERIES_TOL or more, and is refused
    after NEUMANN_MAX_TERMS terms.  Compared against the direct inverse
    this exercises the factorization end to end.
    """
    _, sq_inv, _, x = _neumann_parts(m, imag_shift)
    norm = float(_opnorm(x))
    if norm >= 1.0:
        raise ValueError(f"Neumann series diverges (contraction norm {norm:.6f} >= 1)")
    total = np.eye(x.shape[0], dtype=complex)
    term = total.copy()
    for _ in range(NEUMANN_MAX_TERMS):
        term = term @ x
        total += term
        if float(np.max(np.abs(term))) < NEUMANN_SERIES_TOL:
            break
    else:
        raise RuntimeError("Neumann series failed to reach tolerance")
    return sq_inv @ total @ sq_inv
