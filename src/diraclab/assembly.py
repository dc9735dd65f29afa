"""Exact Fourier assembly of Dirac-type operators on the flat models.

Flat tori diagonalize over dual-lattice modes: the operator restricted to
the mode k is the Clifford action of the physical momentum
2 pi B^-T (k + shift).  Mapping tori couple fiber modes along the base
circle: one base loop sends the mode zeta to holonomy^T zeta while acting on
module values by the unitary lift, so modes group into finite orbits, each
carrying a twisted boundary condition on a circle of d times the base
length.  Diagonalizing the total twist splits every orbit into blocks that
are exact in floating point; no discretization error enters anywhere.

Operators are stored as these blocks.  Row labels are (mode tuple, module
index).  For a mapping torus the mode tuple is the lexicographically
smallest fiber mode of the orbit followed by the base Fourier index, and the
module index refers to the eigenbasis of the orbit twist (the standard basis
whenever the twist is scalar).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import block_diag, schur

from .clifford import CliffordModule, fixed_subspace, holonomy_rep, lift_rotation, casimir
from .models import AffineMappingTorus, FlatTorusModel, geometric_data, matrix_order
from .spectral import HERMITICITY_TOL, Spectrum, _default_tol, eigensolve

__all__ = [
    "AssembledOperator",
    "BlockInfo",
    "InvariantSplit",
    "EmptyInvariantSpaceError",
    "assemble_dirac",
    "bochner_rhs",
    "fiber_invariant_split",
    "invariant_projector",
    "limit_operator",
    "frame_bundle_operator",
    "eigenvalue_derivative",
    "write_matrix_text",
]


class EmptyInvariantSpaceError(ValueError):
    """No nonzero parallel sections exist; the collapse limit degenerates."""


@dataclass(frozen=True, eq=False)
class BlockInfo:
    """Provenance of one assembled block: mode, base index, twist angle."""

    mode: tuple[int, ...]
    base_index: int | None = None
    twist: float | None = None
    invariant: bool = False


@dataclass(frozen=True, eq=False)
class AssembledOperator:
    """Hermitian operator stored as its diagonal Fourier blocks.

    Block i acts on consecutive rows labeled (block_info[i].mode, j), where
    j runs on from the rows earlier blocks of the same mode took.  The
    blocks are copied and made read-only, and Hermiticity is checked once,
    here.  matrix is the dense block-diagonal view, built on first access.
    """

    blocks: tuple[np.ndarray, ...]
    block_info: tuple[BlockInfo, ...]
    truncation: int
    model_ref: str

    def __post_init__(self) -> None:
        blocks = tuple(np.array(b, dtype=complex) for b in self.blocks)
        if len(blocks) != len(self.block_info):
            raise ValueError("one block info required per block")
        for b in blocks:
            if b.ndim != 2 or b.shape[0] != b.shape[1]:
                raise ValueError("operator blocks must be square")
            b.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "block_info", tuple(self.block_info))
        stacks = [s for s in self.stacks if s.size]
        scale = max([1.0] + [float(np.max(np.abs(s))) for s in stacks])
        herm = max([0.0] + [float(np.max(np.abs(s - s.conj().transpose(0, 2, 1)))) for s in stacks])
        if herm > HERMITICITY_TOL * scale:
            raise ValueError(f"assembled operator is not Hermitian (residual {herm:.3e})")

    @cached_property
    def stacks(self) -> tuple[np.ndarray, ...]:
        """Read-only (B, d, d) arrays, one per block size d, ascending."""
        groups: dict[int, list[np.ndarray]] = {}
        for b in self.blocks:
            groups.setdefault(b.shape[0], []).append(b)
        out = []
        for d in sorted(groups):
            stack = np.stack(groups[d])
            stack.flags.writeable = False
            out.append(stack)
        return tuple(out)

    @cached_property
    def block_slices(self) -> tuple[slice, ...]:
        slices, pos = [], 0
        for b in self.blocks:
            slices.append(slice(pos, pos + b.shape[0]))
            pos += b.shape[0]
        return tuple(slices)

    @cached_property
    def basis_labels(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        labels = []
        counts: dict[tuple[int, ...], int] = {}
        for b, info in zip(self.blocks, self.block_info):
            start = counts.get(info.mode, 0)
            counts[info.mode] = start + b.shape[0]
            labels.extend((info.mode, start + i) for i in range(b.shape[0]))
        return tuple(labels)

    @property
    def dim(self) -> int:
        return sum(b.shape[0] for b in self.blocks)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense block-diagonal view, for consumers that need the full matrix."""
        dense = block_diag(*self.blocks) if self.blocks else np.zeros((0, 0), dtype=complex)
        dense.flags.writeable = False
        return dense


def _mode_ranges(shift: np.ndarray, truncation: int) -> list[range]:
    """Per-component integer ranges k with |k + shift| <= truncation."""
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    ranges = []
    for s in shift:
        lo = int(np.ceil(-truncation - s))
        hi = int(np.floor(truncation - s))
        ranges.append(range(lo, hi + 1))
    return ranges


def _flat_modes(model: FlatTorusModel, truncation: int) -> list[tuple[int, ...]]:
    return [tuple(k) for k in itertools.product(*_mode_ranges(model.spin_shift, truncation))]


def _assemble_flat(model: FlatTorusModel, cm: CliffordModule, truncation: int, squares: bool):
    if cm.n != model.n:
        raise ValueError(f"module dimension {cm.n} does not match torus rank {model.n}")
    blocks, infos = [], []
    eye = np.eye(cm.dim_v, dtype=complex)
    for k in _flat_modes(model, truncation):
        p = model.dual_momentum(np.array(k))
        blocks.append(float(p @ p) * eye if squares else cm.gamma(p))
        infos.append(BlockInfo(mode=k))
    return AssembledOperator(blocks, infos, truncation, model.label())


# ---------------------------------------------------------------------------
# mapping torus assembly


def _resolve_lift(model: AffineMappingTorus, cm: CliffordModule, tol: float = 1e-9) -> np.ndarray:
    """Unitary acting on module values after one base loop.

    Must intertwine the Clifford action with the physical fiber rotation
    transposed (the rotation the dual modes undergo), and fix the base
    direction; without that the operator would not close up on the quotient.
    """
    m = model.fiber.n
    if cm.n != m + 1:
        raise ValueError(f"module dimension {cm.n} does not match total space dimension {m + 1}")
    b = model.fiber.lattice_basis
    phys = b @ model.holonomy @ np.linalg.inv(b)
    rot = np.eye(m + 1)
    rot[:m, :m] = phys.T
    if model.holonomy_lift is None:
        return lift_rotation(cm, rot, tol=tol)
    u = model.holonomy_lift
    if u.shape != (cm.dim_v, cm.dim_v):
        raise ValueError("holonomy lift has the wrong shape for this module")
    eye = np.eye(cm.dim_v)
    if np.linalg.norm(u.conj().T @ u - eye, 2) > 1e-10:
        raise ValueError("holonomy lift is not unitary")
    for j in range(cm.n):
        if np.linalg.norm(u @ cm.gammas[j] @ u.conj().T - cm.gamma(rot[:, j]), 2) > tol:
            raise ValueError(
                "holonomy lift does not intertwine the Clifford action with the "
                "fiber rotation; pass holonomy_lift=None to compute a geometric lift"
            )
    return u


def _holonomy_orbits(
    model: AffineMappingTorus, truncation: int
) -> list[tuple[tuple[int, ...], int]]:
    """Orbits of the dual mode map, as (lexicographic representative, size).

    Every orbit meeting the truncation window is kept whole, so the block
    structure does not depend on which member seeded it.
    """
    phi_t = model.holonomy.T
    delta = model.fiber.spin_shift
    carry = phi_t @ delta - delta
    carry_int = np.round(carry).astype(np.int64)
    if np.max(np.abs(carry - carry_int)) > 1e-12:
        raise ValueError("fiber spin shift is not compatible with the holonomy")
    cap = matrix_order(model.holonomy)

    def step(k: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(int(x) for x in phi_t @ np.array(k, dtype=np.int64) + carry_int)

    window = _flat_modes(model.fiber, truncation)
    seen: set[tuple[int, ...]] = set()
    orbits: list[tuple[tuple[int, ...], int]] = []
    for k in window:
        if k in seen:
            continue
        orbit = [k]
        seen.add(k)
        nxt = step(k)
        while nxt != k:
            if len(orbit) > cap:
                raise RuntimeError("orbit failed to close within the holonomy order")
            orbit.append(nxt)
            seen.add(nxt)
            nxt = step(nxt)
        orbits.append((min(orbit), len(orbit)))
    return sorted(orbits)


def _cluster_angles(thetas: np.ndarray, tol: float = 1e-8) -> list[tuple[float, list[int]]]:
    """Group twist angles (fractions of a turn) into clusters, gluing the
    wrap-around at 1 so that one eigenvalue never splits across 0."""
    items = sorted((float(t) % 1.0, i) for i, t in enumerate(thetas))
    groups: list[list[tuple[float, int]]] = []
    for th, i in items:
        if groups and th - groups[-1][-1][0] <= tol:
            groups[-1].append((th, i))
        else:
            groups.append([(th, i)])
    if len(groups) > 1 and groups[0][0][0] + 1.0 - groups[-1][-1][0] <= tol:
        moved = [(th - 1.0, i) for th, i in groups.pop()]
        groups[0] = moved + groups[0]
    out = []
    for grp in groups:
        mean = sum(th for th, _ in grp) / len(grp)
        out.append((mean, [i for _, i in grp]))
    return out


def _loop_phase(base_shift: float, d: int) -> float:
    # spin structure on the base contributes a sign per loop
    return -1.0 if (base_shift == 0.5 and d % 2 == 1) else 1.0


def _twisted_circle_blocks(
    gp: np.ndarray,
    gb: np.ndarray,
    lift: np.ndarray,
    d: int,
    base_length: float,
    base_shift: float,
    conn_dot: float,
    u_max: int,
    structure_tol: float = 1e-8,
):
    """Blocks of a Dirac operator on a circle of length d * base_length with
    boundary twist (loop phase * lift)^d, fiber symbol gp and base Clifford
    gb.  Yields (u, theta, block, beta, invariant) in deterministic order,
    where beta is the block's base momentum.

    invariant marks clusters lying inside the fixed space of the lift, which
    is where monodromy-parallel sections live.
    """
    dim = gp.shape[0]
    twist = _loop_phase(base_shift, d) * np.linalg.matrix_power(lift, d)
    tmat, q = schur(twist, output="complex")
    off = tmat - np.diag(np.diag(tmat))
    if np.max(np.abs(off)) > structure_tol:
        raise ValueError("orbit twist failed to diagonalize (lift is not unitary?)")
    thetas = np.mod(np.angle(np.diag(tmat)) / (2.0 * np.pi), 1.0)
    clusters = _cluster_angles(thetas)
    gp_q = q.conj().T @ gp @ q
    gb_q = q.conj().T @ gb @ q
    # cross-cluster coupling must vanish: the twist commutes with the symbol
    scale = max(1.0, float(np.max(np.abs(gp_q))), float(np.max(np.abs(gb_q))))
    for a, (_, ia) in enumerate(clusters):
        for c, (_, ic) in enumerate(clusters):
            if a == c:
                continue
            for mat in (gp_q, gb_q):
                if np.max(np.abs(mat[np.ix_(ia, ic)])) > structure_tol * scale:
                    raise ValueError("operator symbol couples distinct twist sectors")
    fixed_images = np.abs(lift @ q - q).max(axis=0) if dim else np.zeros(0)
    for u in range(-u_max, u_max + 1):
        for theta, idxs in clusters:
            kappa = 2.0 * np.pi * (u + theta) / (d * base_length)
            beta = kappa - 2.0 * np.pi * conn_dot
            sub = gp_q[np.ix_(idxs, idxs)] + beta * gb_q[np.ix_(idxs, idxs)]
            invariant = bool(np.all(fixed_images[idxs] <= structure_tol))
            yield u, float(theta), sub, beta, invariant


def _assemble_mapping(
    model: AffineMappingTorus, cm: CliffordModule, truncation: int, squares: bool
) -> AssembledOperator:
    m = model.fiber.n
    lift = _resolve_lift(model, cm)
    scaled = model.scaled_fiber()
    gb = cm.gammas[m]
    blocks, infos = [], []
    for rep, d in _holonomy_orbits(model, truncation):
        zeta0 = np.array(rep, dtype=float) + model.fiber.spin_shift
        p0 = scaled.dual_momentum(np.array(rep))
        gp = cm.gamma(np.append(p0, 0.0))
        conn_dot = float(model.connection @ zeta0)
        pnorm2 = float(p0 @ p0)
        zero_mode = bool(np.all(zeta0 == 0.0))
        for u, theta, sub, beta, inv in _twisted_circle_blocks(
            gp, gb, lift, d, model.base_length, model.base_shift, conn_dot, d * truncation
        ):
            if squares:
                blocks.append((pnorm2 + beta * beta) * np.eye(sub.shape[0], dtype=complex))
            else:
                blocks.append(sub)
            infos.append(
                BlockInfo(mode=rep + (u,), base_index=u, twist=theta, invariant=zero_mode and inv)
            )
    return AssembledOperator(blocks, infos, truncation, model.label())


def assemble_dirac(
    model: FlatTorusModel | AffineMappingTorus, cm: CliffordModule, truncation: int
) -> AssembledOperator:
    """Dirac operator of the model on all retained Fourier modes."""
    if isinstance(model, FlatTorusModel):
        return _assemble_flat(model, cm, truncation, squares=False)
    if isinstance(model, AffineMappingTorus):
        return _assemble_mapping(model, cm, truncation, squares=False)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def bochner_rhs(
    model: FlatTorusModel | AffineMappingTorus, cm: CliffordModule, truncation: int
) -> AssembledOperator:
    """Connection Laplacian plus curvature correction, mode by mode.

    Assembled independently of the Dirac operator (squared frequencies
    rather than squared matrices) on the same labeled basis, so comparing it
    with the square of assemble_dirac is a genuine two-route identity check.
    The curvature correction vanishes here because the models are flat.
    """
    if isinstance(model, FlatTorusModel):
        op = _assemble_flat(model, cm, truncation, squares=True)
    elif isinstance(model, AffineMappingTorus):
        op = _assemble_mapping(model, cm, truncation, squares=True)
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    geo = geometric_data(model)
    if geo.norm_r > 0.0:
        raise ValueError("curvature correction for curved models is out of scope")
    return op


def _fiber_operator(
    model: AffineMappingTorus, cm: CliffordModule, truncation: int
) -> AssembledOperator:
    """Fiberwise Dirac operator at fixed base point, on fiber modes."""
    scaled = model.scaled_fiber()
    blocks, infos = [], []
    for k in _flat_modes(scaled, truncation):
        p = scaled.dual_momentum(np.array(k))
        blocks.append(cm.gamma(np.append(p, 0.0)))
        infos.append(BlockInfo(mode=k))
    return AssembledOperator(blocks, infos, truncation, model.label() + "|fiber")


@dataclass(frozen=True, eq=False)
class InvariantSplit:
    """Parallel-section data of the fiber operator.

    projector acts on the fiber operator's basis and selects the zero mode
    tensored with the fixed space of the holonomy lift; gap is the smallest
    absolute fiber eigenvalue on the orthogonal complement.
    """

    fiber_operator: AssembledOperator
    projector: np.ndarray
    dim: int
    invariant_vectors: np.ndarray
    restricted_operator: AssembledOperator
    gap: float


def fiber_invariant_split(
    model: AffineMappingTorus, cm: CliffordModule, truncation: int
) -> InvariantSplit:
    """Split fiber sections into monodromy-parallel ones and their complement.

    Parallel sections are constant along the fiber (zero mode, which exists
    only for the trivial fiber spin shift) with values fixed by the holonomy
    lift.  The fiber Dirac vanishes on them; the reported gap bounds it away
    from zero on the complement.
    """
    lift = _resolve_lift(model, cm)
    fixed = fixed_subspace(holonomy_rep([lift]))
    fiber_op = _fiber_operator(model, cm, truncation)
    scaled = model.scaled_fiber()
    zero_mode = bool(np.all(model.fiber.spin_shift == 0.0))
    r = fixed.shape[1] if zero_mode else 0
    dim = fiber_op.dim
    projector = np.zeros((dim, dim), dtype=complex)
    m = model.fiber.n
    zero = (0,) * m
    if r:
        rows = [i for i, (mode, _) in enumerate(fiber_op.basis_labels) if mode == zero]
        proj_v = fixed @ fixed.conj().T
        projector[np.ix_(rows, rows)] = proj_v
    gap_candidates = []
    for k in _flat_modes(scaled, truncation):
        pnorm = float(np.linalg.norm(scaled.dual_momentum(np.array(k))))
        if k == zero and zero_mode:
            if r < cm.dim_v:
                # complement reaches into the zero mode: the fiber operator
                # vanishes there, so no spectral gap survives
                gap_candidates.append(0.0)
        else:
            gap_candidates.append(pnorm)
    gap = min(gap_candidates) if gap_candidates else 0.0
    restricted = AssembledOperator(
        [np.zeros((r, r))],
        [BlockInfo(mode=zero, invariant=True)],
        truncation,
        model.label() + "|fiber-invariant",
    )
    return InvariantSplit(
        fiber_operator=fiber_op,
        projector=projector,
        dim=r,
        invariant_vectors=fixed if zero_mode else fixed[:, :0],
        restricted_operator=restricted,
        gap=float(gap),
    )


def invariant_projector(op: AssembledOperator) -> np.ndarray:
    """Diagonal projector onto the parallel-section sector of an assembled
    mapping torus operator, read off the block provenance."""
    diag = np.zeros(op.dim)
    for info, sl in zip(op.block_info, op.block_slices):
        if info.invariant:
            diag[sl] = 1.0
    return np.diag(diag).astype(complex)


def limit_operator(
    model: AffineMappingTorus, cm: CliffordModule, truncation: int
) -> AssembledOperator:
    """Operator the collapse converges to: a Dirac operator on the base
    circle valued in the fiberwise parallel sections, with the holonomy lift
    as bundle monodromy.

    Raises EmptyInvariantSpaceError when no nonzero parallel sections exist
    (nontrivial fiber spin shift, or a lift without fixed vectors); that is
    the regime where the whole spectrum escapes to infinity instead.
    """
    m = model.fiber.n
    lift = _resolve_lift(model, cm)
    fixed = fixed_subspace(holonomy_rep([lift]))
    if np.any(model.fiber.spin_shift != 0.0) or fixed.shape[1] == 0:
        raise EmptyInvariantSpaceError(
            "no parallel sections: the model has no collapse limit operator"
        )
    gp = np.zeros((cm.dim_v, cm.dim_v))
    gb = cm.gammas[m]
    blocks, infos = [], []
    for u, theta, sub, _, inv in _twisted_circle_blocks(
        gp, gb, lift, 1, model.base_length, model.base_shift, 0.0, truncation
    ):
        blocks.append(sub)
        infos.append(BlockInfo(mode=(u,), base_index=u, twist=theta, invariant=inv))
    return AssembledOperator(blocks, infos, truncation, model.label() + "|limit")


def frame_bundle_operator(
    model: FlatTorusModel,
    cm: CliffordModule,
    truncation: int,
    group_truncation: int = 4,
) -> tuple[Spectrum, Spectrum]:
    """Squared Dirac spectrum versus the frame-bundle Laplacian route.

    The orthonormal frame bundle of a flat 2-torus is trivial, a torus times
    a circle group; the Laplacian there acts on equivariant functions whose
    group Fourier weight matches the module isotype, where the vertical part
    reproduces exactly the Casimir scalar.  Returns the spectra of the
    squared Dirac operator and of (Laplacian - Casimir) restricted to the
    equivariant sector, which must agree as multisets.
    """
    if model.n != 2 or cm.n != 2:
        raise ValueError("frame bundle route implemented for the 2-torus only")
    c_v = casimir(cm)
    wvals, _ = np.linalg.eigh(-1j * cm.sigmas[0, 1])
    doubled = 2.0 * wvals
    if np.max(np.abs(doubled - np.round(doubled))) > 1e-9:
        raise ValueError("module weights are not half-integral")
    if group_truncation < int(np.max(np.abs(np.round(doubled)))):
        raise ValueError("group-circle truncation cannot carry the module weights")
    values = []
    for k in _flat_modes(model, truncation):
        p = model.dual_momentum(np.array(k))
        horizontal = float(p @ p)
        for w in wvals:
            # equivariance pairs the V-weight w with the group mode -w
            values.append(horizontal + float(w) ** 2 - c_v)
    lap_values = np.sort(np.array(values))
    dirac_spec = eigensolve(assemble_dirac(model, cm, truncation))
    sq = np.sort(dirac_spec.values**2)
    tol = _default_tol(sq)
    return (
        Spectrum(values=sq, cluster_tol=tol, source_truncation=truncation),
        Spectrum(values=lap_values, cluster_tol=tol, source_truncation=truncation),
    )


def eigenvalue_derivative(
    family,
    cm: CliffordModule,
    truncation: int,
    t0: float,
    j: int,
    spin_shift: np.ndarray | None = None,
    gram_dot=None,
    fd_step: float = 1e-6,
    cluster_tol: float | None = None,
) -> float:
    """Derivative of the j-th sorted Dirac eigenvalue along a metric family.

    family maps the parameter to the Gram matrix of a flat torus (fixed spin
    shift).  The derivative pairs the metric velocity with the stress form
    of the exact Fourier eigenvector: with u_i = <v, gamma(B e_i) v> and
    mode zeta,

        T_ij = 4 pi (zeta_j u_i + zeta_i u_j),
        d(lambda)/dt = -(1/8) tr(G^-1 Gdot G^-1 T).

    The proof-side conjugation by the relative volume density is constant in
    space for flat families and drops out.  j indexes the ascending sorted
    spectrum (0-based); a degenerate eigenvalue there is refused since no
    single analytic branch passes through it.
    """
    g0 = np.atleast_2d(np.asarray(family(t0), dtype=float))
    n = g0.shape[0]
    shift = np.zeros(n) if spin_shift is None else np.asarray(spin_shift, dtype=float)
    basis = np.linalg.cholesky(g0).T
    model = FlatTorusModel(basis, shift)
    op = assemble_dirac(model, cm, truncation)
    eigs = []  # (value, mode, vector)
    for block, info in zip(op.blocks, op.block_info):
        w, v = np.linalg.eigh(block)
        for i in range(len(w)):
            eigs.append((float(w[i]), info.mode, v[:, i]))
    eigs.sort(key=lambda e: e[0])
    if not 0 <= j < len(eigs):
        raise ValueError(f"eigenvalue index {j} out of range for dimension {len(eigs)}")
    lam, mode, vec = eigs[j]
    tol = cluster_tol
    if tol is None:
        tol = _default_tol(np.array([eigs[0][0], eigs[-1][0]]))
    for other in (j - 1, j + 1):
        if 0 <= other < len(eigs) and abs(eigs[other][0] - lam) <= tol:
            raise ValueError(
                f"eigenvalue {lam!r} at index {j} is degenerate within {tol!r}; "
                "derivative of a single branch is undefined"
            )
    if gram_dot is not None:
        gdot = np.asarray(gram_dot(t0), dtype=float)
    else:
        gdot = (
            np.asarray(family(t0 + fd_step), dtype=float)
            - np.asarray(family(t0 - fd_step), dtype=float)
        ) / (2.0 * fd_step)
    zeta = np.array(mode, dtype=float) + shift
    u = np.array(
        [float(np.real(vec.conj() @ (cm.gamma(basis[:, i]) @ vec))) for i in range(n)]
    )
    stress = 4.0 * np.pi * (np.outer(u, zeta) + np.outer(zeta, u))
    ginv = np.linalg.inv(g0)
    return float(-0.125 * np.trace(ginv @ gdot @ ginv @ stress))


def write_matrix_text(op: AssembledOperator, path) -> None:
    """Dense text export: a header line with the shape, then one matrix row
    per line as whitespace-separated real/imaginary pairs (row-major)."""
    lines = [f"# rows={op.dim} cols={op.dim} layout=row-major complex pairs"]
    for row in op.matrix:
        lines.append(" ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
