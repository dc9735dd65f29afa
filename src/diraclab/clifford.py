"""Clifford modules for the rotation and spin groups.

A module is a Hermitian vector space V together with matrices gamma[j]
acting on it, one per direction of R^n, satisfying

    gamma[a] gamma[b] + gamma[b] gamma[a] = 2 delta_ab,   gamma[a]* = gamma[a],

and rotation generators sigma[a, b] (anti-Hermitian, antisymmetric in the
index pair) obeying the so(n) bracket relations

    [sigma_ab, sigma_cd] = d_ad sigma_bc - d_ac sigma_bd
                         + d_bc sigma_ad - d_bd sigma_ac,
    [gamma_a, sigma_bc]  = d_ab gamma_c - d_ac gamma_b.

Throughout, so(n) carries the inner product <X, Y> = -tr(XY)/2 on the
defining representation, which makes the elementary rotations
E_ab - E_ba (a < b) an orthonormal basis for every n, including n = 2
where the Killing form degenerates.  The Casimir of a module is computed
against that basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import ANGLE_TOL, CASIMIR_TOL, HERMITICITY_TOL, LIFT_TOL
from .spectral import RELATION_TOL, STRUCTURE_TOL, UNITARITY_TOL, _opnorm, _require_hermitian

__all__ = [
    "CliffordModule",
    "spinor_gammas",
    "exterior_module",
    "relation_residuals",
    "casimir",
    "fixed_subspace",
    "lift_rotation",
]

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)


@dataclass(frozen=True, eq=False)
class CliffordModule:
    """Finite-dimensional Clifford module.

    gammas has shape (n, dim_v, dim_v); sigmas has shape (n, n, dim_v, dim_v)
    with sigmas[a, a] = 0 and sigmas[b, a] = -sigmas[a, b].  For modules built
    from creation/annihilation pairs, hat_gammas holds the auxiliary
    anticommuting family used to assemble the sigmas.
    """

    n: int
    dim_v: int
    gammas: np.ndarray
    sigmas: np.ndarray
    hat_gammas: np.ndarray | None = field(default=None)

    def gamma(self, v: np.ndarray) -> np.ndarray:
        """Clifford action of a vector v in R^n; a (K, n) array of vectors
        gives the (K, dim_v, dim_v) stack of their actions."""
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] != self.n:
            raise ValueError(f"vector must have shape ({self.n},) or (K, {self.n}), got {v.shape}")
        return np.einsum("...j,jkl->...kl", v, self.gammas)

    def validate(self) -> None:
        """Refuse a module with a relation residual above RELATION_TOL."""
        res = relation_residuals(self)
        worst = max(res.values())
        if worst > RELATION_TOL:
            bad = max(res, key=res.get)
            raise ValueError(f"module relations violated: {bad} residual {worst:.3e}")


def _max_opnorm(stack: np.ndarray) -> float:
    """Largest operator norm over a stack of matrices, from one batched
    _opnorm; an all-zero stack is 0.0 without one."""
    if not stack.any():
        return 0.0
    return float(np.max(_opnorm(stack)))


def _exceeds(stack: np.ndarray, tol: float) -> bool:
    """Whether the largest operator norm over a stack of matrices (or of one
    matrix) exceeds tol.

    The Frobenius norm is never below the operator norm, so when no matrix
    has a Frobenius norm above tol / 2 the answer is no without an
    eigensolve; the half leaves room for the rounding of both norms.
    Otherwise the verdict is _max_opnorm's.
    """
    if np.max(np.linalg.norm(stack, axis=(-2, -1))) <= 0.5 * tol:
        return False
    return _max_opnorm(stack) > tol


def _kron_chain(mats: list[np.ndarray]) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def _quarter_commutators(gammas: np.ndarray, hats: np.ndarray | None = None) -> np.ndarray:
    n, d, _ = gammas.shape
    sig = np.zeros((n, n, d, d), dtype=complex)
    for a in range(n):
        for b in range(a + 1, n):
            s = 0.25 * (gammas[a] @ gammas[b] - gammas[b] @ gammas[a])
            if hats is not None:
                s = s + 0.25 * (hats[a] @ hats[b] - hats[b] @ hats[a])
            sig[a, b] = s
            sig[b, a] = -s
    return sig


def spinor_gammas(n: int) -> CliffordModule:
    """Spinor module on C^(2^floor(n/2)) from the Pauli tensor tower.

    Valid for 1 <= n <= 8.  The rotation generators are the quarter
    commutators sigma_ab = [gamma_a, gamma_b] / 4.
    """
    if not 1 <= n <= 8:
        raise ValueError(f"spinor module supported for 1 <= n <= 8, got {n}")
    m = n // 2
    mats: list[np.ndarray] = []
    for k in range(m):
        pre = [_PAULI_Z] * k
        post = [_ID2] * (m - k - 1)
        mats.append(_kron_chain(pre + [_PAULI_X] + post))
        mats.append(_kron_chain(pre + [_PAULI_Y] + post))
    if n % 2 == 1:
        mats.append(_kron_chain([_PAULI_Z] * m))
    gammas = np.array(mats)
    cm = CliffordModule(
        n=n,
        dim_v=2**m,
        gammas=gammas,
        sigmas=_quarter_commutators(gammas),
    )
    cm.validate()
    return cm


def exterior_module(n: int) -> CliffordModule:
    """Complexified exterior-algebra module on C^(2^n).

    Basis vectors are index subsets encoded as bitmasks.  With E_j exterior
    multiplication and I_j = E_j* contraction,

        gamma_j = i (E_j - I_j),      hat_gamma_j = E_j + I_j,

    and the rotation generators combine both families,
    sigma_ab = ([gamma_a, gamma_b] + [hat_a, hat_b]) / 4.  Valid for
    1 <= n <= 6.
    """
    if not 1 <= n <= 6:
        raise ValueError(f"exterior module supported for 1 <= n <= 6, got {n}")
    dim = 2**n
    create = np.zeros((n, dim, dim))
    for j in range(n):
        bit = 1 << j
        for s in range(dim):
            if s & bit:
                continue
            # sign counts basis factors below j already present in s
            sign = -1.0 if bin(s & (bit - 1)).count("1") % 2 else 1.0
            create[j, s | bit, s] = sign
    gammas = np.array([1.0j * (create[j] - create[j].T) for j in range(n)])
    hats = np.array([(create[j] + create[j].T).astype(complex) for j in range(n)])
    cm = CliffordModule(
        n=n,
        dim_v=dim,
        gammas=gammas,
        sigmas=_quarter_commutators(gammas, hats),
        hat_gammas=hats,
    )
    cm.validate()
    return cm


def _anticommutators(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Entry [a, b] is x[a] y[b] + y[b] x[a]."""
    return x[:, None] @ y[None] + y[None] @ x[:, None]


def _commutators(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Entry [a, b] is x[a] y[b] - y[b] x[a]."""
    return x[:, None] @ y[None] - y[None] @ x[:, None]


def _clifford_defects(x: np.ndarray) -> np.ndarray:
    """Entry [a, b] is x[a] x[b] + x[b] x[a] - 2 delta_ab."""
    n, d, _ = x.shape
    out = _anticommutators(x, x)
    out[np.arange(n), np.arange(n)] -= 2.0 * np.eye(d)
    return out


def _adjoints(x: np.ndarray) -> np.ndarray:
    return x.conj().swapaxes(-1, -2)


def relation_residuals(cm: CliffordModule) -> dict[str, float]:
    """Operator-norm residuals of every defining relation of the module.

    Each relation is evaluated on all its index tuples at once, as one stack
    of residual matrices whose largest operator norm is the entry.
    """
    n, d = cm.n, cm.dim_v
    g, s = cm.gammas, cm.sigmas
    flat = s.reshape(n * n, d, d)
    diag = np.arange(n)
    # [gamma_a, sigma_bc] - d_ab gamma_c + d_ac gamma_b
    vector = _commutators(g, flat).reshape(n, n, n, d, d)
    vector[diag, diag, :] -= g
    vector[diag, :, diag] += g
    # [sigma_ab, sigma_ce] - d_ae sigma_bc + d_ac sigma_be - d_bc sigma_ae
    # + d_be sigma_ac, stacked one first index a at a time: the whole stack
    # holds n^4 matrices, 85 MB per temporary for exterior_module(6)
    so = 0.0
    for a in range(n):
        bracket = _commutators(s[a], flat).reshape(n, n, n, d, d)
        bracket[:, :, a] -= s
        bracket[:, a, :] += s
        bracket[diag, diag, :] -= s[a]
        bracket[diag, :, diag] += s[a]
        so = max(so, _max_opnorm(bracket))
    res: dict[str, float] = {
        "gamma_hermitian": _max_opnorm(g - _adjoints(g)),
        "clifford": _max_opnorm(_clifford_defects(g)),
        "sigma_antihermitian": _max_opnorm(s + _adjoints(s)),
        "sigma_antisymmetric": _max_opnorm(s + s.swapaxes(0, 1)),
        "so_bracket": so,
        "vector_bracket": _max_opnorm(vector),
    }
    if cm.hat_gammas is not None:
        h = cm.hat_gammas
        res["hat_family"] = _max_opnorm(
            np.concatenate(
                [
                    h - _adjoints(h),
                    _clifford_defects(h).reshape(n * n, d, d),
                    _anticommutators(g, h).reshape(n * n, d, d),
                ]
            )
        )
    return res


def _casimir_matrix(cm: CliffordModule) -> np.ndarray:
    c = np.zeros((cm.dim_v, cm.dim_v), dtype=complex)
    for a in range(cm.n):
        for b in range(a + 1, cm.n):
            c -= cm.sigmas[a, b] @ cm.sigmas[a, b]
    return c


def casimir(cm: CliffordModule) -> float:
    """Casimir scalar c_V with -sum_{a<b} sigma_ab^2 = c_V Id.

    Raises if the sum is not scalar on V to within CASIMIR_TOL (reducible
    modules mixing inequivalent blocks).
    """
    c = _casimir_matrix(cm)
    value = np.trace(c).real / cm.dim_v
    dev = _max_opnorm(c - value * np.eye(cm.dim_v))
    if dev > CASIMIR_TOL * max(1.0, abs(value)):
        raise ValueError(f"casimir not scalar on this module (deviation {dev:.3e})")
    return float(value)


# ---------------------------------------------------------------------------
# holonomy


def fixed_subspace(generators: list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
    """Orthonormal basis (columns) of the subspace every unitary of
    generators fixes: the eigenvectors of sum_g (g - I)^H (g - I) with
    eigenvalue at most (2 pi STRUCTURE_TOL)^2, the parallel columns' rule
    (eigen-angle within STRUCTURE_TOL of a whole turn).  Raises if a
    generator is not unitary."""
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if not gens:
        raise ValueError("at least one generator required")
    eye = np.eye(len(gens[0]))
    total = np.zeros_like(gens[0])
    for g in gens:
        if g.shape != eye.shape:
            raise ValueError("generators must share a square shape")
        if _exceeds(g.conj().T @ g - eye, UNITARITY_TOL):
            raise ValueError("generator is not unitary")
        total += (g - eye).conj().T @ (g - eye)
    vals, vecs = np.linalg.eigh(total)
    return vecs[:, vals <= (2.0 * np.pi * STRUCTURE_TOL) ** 2]


def _expm_skew_factors(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(x) for a skew-Hermitian x, with the eigenbasis v of the Hermitian
    matrix -ix it is built from: exp(x) = v diag(exp(i w)) v^H for the eigh
    (w, v) of -ix, v unitary.  Any other input is refused."""
    h = -1j * np.asarray(x, dtype=complex)
    _require_hermitian([h], HERMITICITY_TOL, "exponential is taken of skew-Hermitian matrices only")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T, v


def _unitary_eigh(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-angles theta in (-pi, pi] and an orthonormal eigenbasis q of a
    unitary u, u q = q diag(exp(i theta)), from complex Hermitian eigh alone:
    u is normal, so its parts (u + u^H)/2 and (u - u^H)/2i commute, with
    eigenvalues cos(theta) and sin(theta).  An eigh of the first groups the
    columns by cosine (within STRUCTURE_TOL, wide enough for a near-unitary
    u); one of the second restricted to a group of several splits it by sine."""
    u = np.asarray(u, dtype=complex)
    cosines, q = np.linalg.eigh(0.5 * (u + u.conj().T))
    skew = -0.5j * (u - u.conj().T)
    sines = np.einsum("ij,ik,kj->j", q.conj(), skew, q).real
    cuts = [0] + [i for i in range(1, len(u)) if cosines[i] - cosines[i - 1] > STRUCTURE_TOL]
    for lo, hi in zip(cuts, cuts[1:] + [len(u)]):
        if hi - lo > 1:
            v = q[:, lo:hi]
            sines[lo:hi], w = np.linalg.eigh(v.conj().T @ skew @ v)
            q[:, lo:hi] = v @ w
    return np.arctan2(sines, cosines), q


def _standard_order_basis(v: np.ndarray) -> np.ndarray:
    """Real orthonormal basis of the span of the orthonormal columns v, a
    span closed under complex conjugation, by Gram-Schmidt on the
    projections of e_0, e_1, ... onto that span, in order; a coordinate
    subspace gets its own coordinate vectors.  A remainder of norm at most
    1e-3 is skipped: the squared remainders of all n projections sum to the
    dimension of the span, so the skipped ones cannot use it up."""
    basis: list[np.ndarray] = []
    for row in v:
        w = (v @ row.conj()).real
        for b in basis:
            w = w - (b @ w) * b
        norm = float(np.linalg.norm(w))
        if norm > 1e-3:
            basis.append(w / norm)
    return np.column_stack(basis)


def _special_orthogonal_log(rot: np.ndarray) -> np.ndarray:
    """Real antisymmetric Omega with exp(Omega) = rot, for rot in SO(n).

    With theta and q from _unitary_eigh, Omega is the real part of
    q diag(i theta) q^H.  The principal logarithm of a rotation by pi is
    complex, so the -1 eigenspace is split into planes of consecutive basis
    vectors in standard-basis order, each turned by pi with Omega[a, b] =
    -pi for a < b (the limit of rotations by less than pi from e_a to e_b).
    A sine of at most ANGLE_TOL is a zero angle, or one of pi.
    """
    thetas, q = _unitary_eigh(rot)
    flat = np.abs(np.sin(thetas)) <= ANGLE_TOL
    omega = 0.5 * ((q * (1j * np.where(flat, 0.0, thetas))) @ q.conj().T).real
    half = flat & (np.cos(thetas) < 0.0)
    if np.count_nonzero(half) % 2:
        raise ValueError("odd number of -1 eigenvalues; matrix is not special orthogonal")
    if half.any():
        w = _standard_order_basis(q[:, half])
        omega += np.pi * (w[:, 1::2] @ w[:, 0::2].T)
    return omega - omega.T


def lift_rotation(cm: CliffordModule, rot: np.ndarray) -> np.ndarray:
    """Unitary U on V with U gamma(v) U* = gamma(rot v) for all v.

    rot must be special orthogonal; the lift is exp of a real logarithm of
    the rotation pushed through the sigma generators.  rot must be
    orthogonal to within UNITARITY_TOL; the intertwining property is
    verified to within LIFT_TOL before returning.  That one check also
    verifies the logarithm: the lift of a logarithm L intertwines gamma with
    gamma(exp(L)^T), and gamma is an isometry, so a wrong L fails it by
    about as much as exp(L) misses rot.
    """
    return _lift_factors(cm, rot)[0]


def _lift_factors(cm: CliffordModule, rot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lift_rotation's U with the eigenbasis v of its Hermitian generator,
    an orthonormal eigenbasis of U.  Same checks, in the same order."""
    rot = np.asarray(rot, dtype=float)
    n = cm.n
    if rot.shape != (n, n):
        raise ValueError(f"rotation must be {n} x {n}")
    if _exceeds(rot.T @ rot - np.eye(n), UNITARITY_TOL):
        raise ValueError("matrix is not orthogonal")
    if np.linalg.det(rot) < 0:
        raise ValueError("orientation-reversing isometries have no lift here")
    omega = _special_orthogonal_log(rot)
    u, v = _expm_skew_factors(0.5 * np.tensordot(omega, cm.sigmas, axes=2))
    if _exceeds(u @ cm.gammas @ u.conj().T - cm.gamma(rot.T), LIFT_TOL):
        raise ValueError("computed lift fails to intertwine the Clifford action")
    return u, v
