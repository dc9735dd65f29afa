"""Exact Fourier assembly of Dirac-type operators on the flat models.

Flat tori diagonalize over dual-lattice modes: the operator restricted to
the mode k is the Clifford action of the physical momentum
2 pi B^-T (k + shift).  Mapping tori couple fiber modes along the base
circle: one base loop sends the mode zeta to holonomy^T zeta while acting on
module values by the unitary lift, so modes group into finite orbits, each
carrying a twisted boundary condition on a circle of d times the base
length.  Diagonalizing the total twist splits every orbit into blocks that
are exact in floating point; no discretization error enters anywhere.

Operators are stored as these blocks, grouped by block size into one
read-only (B, d, d) stack per size, each in row order; the block provenance
records every block's size, which fixes the row layout.  Assemblers write
their blocks straight into the stacks.  Row labels are (mode tuple, module
index).  For a mapping torus the mode tuple is the lexicographically
smallest fiber mode of the orbit followed by the base Fourier index, and the
module index refers to the eigenbasis of the orbit twist (the standard basis
whenever the twist is scalar).

Only the fiber momenta of a mapping torus depend on the fiber scale, as
1/fiber_scale.  Its assembly is therefore split into a scale-free plan (the
orbits, their twist sectors, base momenta and block provenance) and a step
that solves the fiber momenta of one scale and forms the blocks of every
base index at once; a collapse run builds the plan once for all its scales.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import block_diag, schur

from .clifford import CliffordModule, fixed_subspace, holonomy_rep, lift_rotation, casimir
from .models import AffineMappingTorus, FlatTorusModel, matrix_order
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


# Twist diagonalization, twist-angle clustering and fixed-space membership
# use this absolute tolerance; cross-cluster coupling uses it relative to
# the largest entry of the symbol.
STRUCTURE_TOL = 1e-8


class EmptyInvariantSpaceError(ValueError):
    """No nonzero parallel sections exist; the collapse limit degenerates."""


@dataclass(frozen=True, eq=False)
class BlockInfo:
    """Provenance of one assembled block: mode, size, base index, twist angle."""

    mode: tuple[int, ...]
    size: int
    base_index: int | None = None
    twist: float | None = None
    invariant: bool = False


@dataclass(frozen=True, eq=False)
class AssembledOperator:
    """Hermitian operator stored as its diagonal Fourier blocks.

    stacks holds the numbers: one read-only (B, d, d) array per block size
    d, ascending, each listing the blocks of that size in row order.
    block_info lists every block in row order; block i acts on consecutive
    rows labeled (block_info[i].mode, j), where j runs on from the rows
    earlier blocks of the same mode took.  The stacks are made read-only
    and Hermiticity is checked once, here.  blocks (views into the stacks)
    and matrix (the dense block-diagonal view) are built on first access.
    """

    stacks: tuple[np.ndarray, ...]
    block_info: tuple[BlockInfo, ...]
    truncation: int
    model_ref: str

    def __post_init__(self) -> None:
        stacks = [np.asarray(s, dtype=complex) for s in self.stacks]
        for s in stacks:
            if s.ndim != 3 or s.shape[1] != s.shape[2]:
                raise ValueError("operator blocks must be square")
            s.flags.writeable = False
        stacks.sort(key=lambda s: s.shape[1])
        block_info = tuple(self.block_info)
        sizes = [info.size for info in block_info]
        if len(sizes) != sum(len(s) for s in stacks) or any(
            sizes.count(s.shape[1]) != len(s) for s in stacks
        ):
            raise ValueError("one block info required per block")
        object.__setattr__(self, "stacks", tuple(stacks))
        object.__setattr__(self, "block_info", block_info)
        stacks = [s for s in stacks if s.size]
        scale = max([1.0] + [float(np.max(np.abs(s))) for s in stacks])
        herm = max([0.0] + [float(np.max(np.abs(s - s.conj().transpose(0, 2, 1)))) for s in stacks])
        if herm > HERMITICITY_TOL * scale:
            raise ValueError(f"assembled operator is not Hermitian (residual {herm:.3e})")

    @cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """The blocks in row order, as read-only views into the stacks."""
        by_size = {s.shape[1]: iter(s) for s in self.stacks}
        return tuple(next(by_size[info.size]) for info in self.block_info)

    @cached_property
    def block_slices(self) -> tuple[slice, ...]:
        ends = list(itertools.accumulate(info.size for info in self.block_info))
        return tuple(slice(end - info.size, end) for info, end in zip(self.block_info, ends))

    @cached_property
    def basis_labels(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        labels = []
        counts: dict[tuple[int, ...], int] = {}
        for info in self.block_info:
            start = counts.get(info.mode, 0)
            counts[info.mode] = start + info.size
            labels.extend((info.mode, start + i) for i in range(info.size))
        return tuple(labels)

    @property
    def dim(self) -> int:
        return sum(s.shape[0] * s.shape[1] for s in self.stacks)

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


def _flat_momenta(model: FlatTorusModel, cm: CliffordModule, truncation: int):
    """Retained modes of a flat torus and their momenta, one row per mode."""
    if cm.n != model.n:
        raise ValueError(f"module dimension {cm.n} does not match torus rank {model.n}")
    modes = _flat_modes(model, truncation)
    return modes, model.dual_momentum(np.array(modes))


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


def _cluster_angles(thetas: np.ndarray) -> list[tuple[float, list[int]]]:
    """Group twist angles (fractions of a turn) into clusters, gluing the
    wrap-around at 1 so that one eigenvalue never splits across 0."""
    items = sorted((float(t) % 1.0, i) for i, t in enumerate(thetas))
    groups: list[list[tuple[float, int]]] = []
    for th, i in items:
        if groups and th - groups[-1][-1][0] <= STRUCTURE_TOL:
            groups[-1].append((th, i))
        else:
            groups.append([(th, i)])
    if len(groups) > 1 and groups[0][0][0] + 1.0 - groups[-1][-1][0] <= STRUCTURE_TOL:
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


@dataclass(frozen=True, eq=False)
class _TwistSector:
    """Schur basis q of the twist (loop phase * lift)^d, shared by every
    orbit of size d, with its clusters of equal twist angle.

    invariant marks clusters lying inside the fixed space of the lift, which
    is where monodromy-parallel sections live; coupling masks the entries
    of a matrix in this basis that join two distinct clusters.
    """

    q: np.ndarray
    gb_q: np.ndarray
    clusters: tuple[tuple[float, np.ndarray], ...]
    invariant: tuple[bool, ...]
    coupling: np.ndarray


def _twist_sector(lift: np.ndarray, gb: np.ndarray, d: int, base_shift: float) -> _TwistSector:
    """Diagonalize the twist of an orbit of size d; gb is the base Clifford."""
    twist = _loop_phase(base_shift, d) * np.linalg.matrix_power(lift, d)
    tmat, q = schur(twist, output="complex")
    off = tmat - np.diag(np.diag(tmat))
    if np.max(np.abs(off)) > STRUCTURE_TOL:
        raise ValueError("orbit twist failed to diagonalize (lift is not unitary?)")
    thetas = np.mod(np.angle(np.diag(tmat)) / (2.0 * np.pi), 1.0)
    clusters = tuple((theta, np.array(idxs)) for theta, idxs in _cluster_angles(thetas))
    fixed_images = np.abs(lift @ q - q).max(axis=0)
    owner = np.zeros(len(q), dtype=int)
    for c, (_, idxs) in enumerate(clusters):
        owner[idxs] = c
    return _TwistSector(
        q=q,
        gb_q=q.conj().T @ gb @ q,
        clusters=clusters,
        invariant=tuple(bool(np.all(fixed_images[idxs] <= STRUCTURE_TOL)) for _, idxs in clusters),
        coupling=owner[:, None] != owner[None, :],
    )


@dataclass(frozen=True, eq=False)
class _Orbit:
    """One holonomy orbit on its circle of d base lengths: the twist sector
    and, per cluster, the base momentum beta of every Fourier index in us
    and the rows its blocks take in the stack of their size."""

    sector: _TwistSector
    us: range
    betas: np.ndarray
    rows: tuple[slice, ...]

    def infos(self, rep: tuple[int, ...], zero_mode: bool) -> list[BlockInfo]:
        sec = self.sector
        return [
            BlockInfo(rep + (u,), len(idxs), u, theta, invariant=zero_mode and inv)
            for u in self.us
            for (theta, idxs), inv in zip(sec.clusters, sec.invariant)
        ]

    def dirac_blocks(self, gp: np.ndarray) -> list[np.ndarray]:
        """Per cluster, the (U, s, s) Dirac blocks of every base index for
        the fiber symbol gp, given in the standard basis."""
        sec = self.sector
        gp_q = sec.q.conj().T @ gp @ sec.q
        # cross-cluster coupling must vanish: the twist commutes with the symbol
        scale = max(1.0, float(np.max(np.abs(gp_q))), float(np.max(np.abs(sec.gb_q))))
        if sec.coupling.any():
            leak = max(np.max(np.abs(gp_q[sec.coupling])), np.max(np.abs(sec.gb_q[sec.coupling])))
            if leak > STRUCTURE_TOL * scale:
                raise ValueError("operator symbol couples distinct twist sectors")
        return [
            gp_q[np.ix_(idxs, idxs)] + beta[:, None, None] * sec.gb_q[np.ix_(idxs, idxs)]
            for (_, idxs), beta in zip(sec.clusters, self.betas)
        ]

    def bochner_blocks(self, pnorm2: float) -> list[np.ndarray]:
        """Per cluster, the closed-form Bochner blocks (|p|^2 + beta^2) I at
        |p|^2 = pnorm2."""
        return [
            (pnorm2 + beta * beta)[:, None, None] * np.eye(len(idxs))
            for (_, idxs), beta in zip(self.sector.clusters, self.betas)
        ]


def _orbit(
    sector: _TwistSector, d: int, base_length: float, conn_dot: float, u_max: int,
    placed: dict[int, int],
) -> _Orbit:
    """placed counts, per block size, the blocks earlier orbits took; this
    orbit's blocks follow them in row order, base index outer and cluster
    inner, and are added to the count."""
    us = range(-u_max, u_max + 1)
    thetas = np.array([theta for theta, _ in sector.clusters])
    kappa = 2.0 * np.pi * (np.array(us)[None, :] + thetas[:, None]) / (d * base_length)
    sizes = [len(idxs) for _, idxs in sector.clusters]
    rows = []
    for c, size in enumerate(sizes):
        stride = sizes.count(size)
        start = placed.get(size, 0) + sizes[:c].count(size)
        rows.append(slice(start, start + stride * len(us), stride))
    for size in sizes:
        placed[size] = placed.get(size, 0) + len(us)
    return _Orbit(sector=sector, us=us, betas=kappa - 2.0 * np.pi * conn_dot, rows=tuple(rows))


def _orbit_stacks(orbits, per_orbit, counts: dict[int, int]) -> list[np.ndarray]:
    """Stacks of counts[d] blocks per size d, holding each orbit's
    per-cluster blocks at its rows."""
    stacks = {size: np.empty((count, size, size), dtype=complex) for size, count in counts.items()}
    for orbit, clusters in zip(orbits, per_orbit):
        for rows, blocks in zip(orbit.rows, clusters):
            stacks[blocks.shape[1]][rows] = blocks
    return list(stacks.values())


@dataclass(frozen=True, eq=False)
class _MappingPlan:
    """The part of a mapping-torus assembly that the fiber scale leaves
    alone: the resolved lift's twist sectors, the holonomy orbits with their
    base momenta and rows, and the block provenance.  Only the fiber momenta
    scale (as 1/fiber_scale); dirac and bochner supply them for one scale."""

    model: AffineMappingTorus
    cm: CliffordModule
    truncation: int
    reps: np.ndarray
    orbits: tuple[_Orbit, ...]
    block_info: tuple[BlockInfo, ...]
    counts: dict[int, int]

    def _momenta(self, eps: float) -> tuple[AffineMappingTorus, np.ndarray]:
        scaled = self.model.with_scale(eps)
        return scaled, scaled.scaled_fiber().dual_momentum(self.reps)

    def _operator(self, per_orbit, scaled: AffineMappingTorus) -> AssembledOperator:
        stacks = _orbit_stacks(self.orbits, per_orbit, self.counts)
        return AssembledOperator(stacks, self.block_info, self.truncation, scaled.label())

    def dirac(self, eps: float) -> AssembledOperator:
        """Dirac operator at fiber scale eps."""
        scaled, p = self._momenta(eps)
        gp = self.cm.gamma(np.column_stack([p, np.zeros(len(p))]))
        return self._operator([o.dirac_blocks(g) for o, g in zip(self.orbits, gp)], scaled)

    def bochner(self, eps: float) -> AssembledOperator:
        """Connection Laplacian at fiber scale eps, from |p|^2 + beta^2 alone."""
        scaled, p = self._momenta(eps)
        pnorm2 = np.sum(p * p, axis=1)
        return self._operator([o.bochner_blocks(r) for o, r in zip(self.orbits, pnorm2)], scaled)


def _mapping_plan(model: AffineMappingTorus, cm: CliffordModule, truncation: int) -> _MappingPlan:
    """Build the scale-free plan of a mapping torus once; its dirac(eps)
    then assembles any fiber scale without redoing orbits or twists."""
    m = model.fiber.n
    lift = _resolve_lift(model, cm)
    orbit_sizes = _holonomy_orbits(model, truncation)
    sectors = {
        d: _twist_sector(lift, cm.gammas[m], d, model.base_shift)
        for d in sorted({d for _, d in orbit_sizes})
    }
    orbits, infos = [], []
    placed: dict[int, int] = {}
    for rep, d in orbit_sizes:
        zeta0 = np.array(rep, dtype=float) + model.fiber.spin_shift
        conn_dot = float(model.connection @ zeta0)
        orbit = _orbit(sectors[d], d, model.base_length, conn_dot, d * truncation, placed)
        orbits.append(orbit)
        infos.extend(orbit.infos(rep, zero_mode=bool(np.all(zeta0 == 0.0))))
    reps = np.array([rep for rep, _ in orbit_sizes]).reshape(len(orbit_sizes), m)
    return _MappingPlan(model, cm, truncation, reps, tuple(orbits), tuple(infos), placed)


def assemble_dirac(
    model: FlatTorusModel | AffineMappingTorus, cm: CliffordModule, truncation: int
) -> AssembledOperator:
    """Dirac operator of the model on all retained Fourier modes."""
    if isinstance(model, FlatTorusModel):
        modes, p = _flat_momenta(model, cm, truncation)
        infos = [BlockInfo(mode=k, size=cm.dim_v) for k in modes]
        return AssembledOperator([cm.gamma(p)], infos, truncation, model.label())
    if isinstance(model, AffineMappingTorus):
        return _mapping_plan(model, cm, truncation).dirac(model.fiber_scale)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def bochner_rhs(
    model: FlatTorusModel | AffineMappingTorus, cm: CliffordModule, truncation: int
) -> AssembledOperator:
    """Connection Laplacian plus curvature correction, mode by mode.

    Assembled independently of the Dirac operator, as the closed form
    (|p|^2 + beta^2) I over the block momenta (never by squaring Dirac
    blocks), on the same labeled basis, so comparing it with the square of
    assemble_dirac is a genuine two-route identity check.  The curvature
    correction vanishes here because the models are flat.
    """
    if isinstance(model, FlatTorusModel):
        modes, p = _flat_momenta(model, cm, truncation)
        stack = np.sum(p * p, axis=1)[:, None, None] * np.eye(cm.dim_v)
        infos = [BlockInfo(mode=k, size=cm.dim_v) for k in modes]
        return AssembledOperator([stack], infos, truncation, model.label())
    if isinstance(model, AffineMappingTorus):
        return _mapping_plan(model, cm, truncation).bochner(model.fiber_scale)
    raise TypeError(f"unsupported model type {type(model).__name__}")


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
    scaled = model.scaled_fiber()
    modes = _flat_modes(scaled, truncation)
    p = scaled.dual_momentum(np.array(modes))
    fiber_op = AssembledOperator(
        [cm.gamma(np.column_stack([p, np.zeros(len(p))]))],
        [BlockInfo(mode=k, size=cm.dim_v) for k in modes],
        truncation,
        model.label() + "|fiber",
    )
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
    for k, pnorm in zip(modes, np.linalg.norm(p, axis=1)):
        if k == zero and zero_mode:
            if r < cm.dim_v:
                # complement reaches into the zero mode: the fiber operator
                # vanishes there, so no spectral gap survives
                gap_candidates.append(0.0)
        else:
            gap_candidates.append(float(pnorm))
    gap = min(gap_candidates) if gap_candidates else 0.0
    return InvariantSplit(fiber_operator=fiber_op, projector=projector, dim=r, gap=float(gap))


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
    sector = _twist_sector(lift, cm.gammas[m], 1, model.base_shift)
    placed: dict[int, int] = {}
    orbit = _orbit(sector, 1, model.base_length, 0.0, truncation, placed)
    return AssembledOperator(
        _orbit_stacks([orbit], [orbit.dirac_blocks(np.zeros((cm.dim_v, cm.dim_v)))], placed),
        orbit.infos((), zero_mode=True),
        truncation,
        model.label() + "|limit",
    )


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
    p = model.dual_momentum(np.array(_flat_modes(model, truncation)))
    horizontal = np.sum(p * p, axis=1)
    # equivariance pairs the V-weight w with the group mode -w
    lap_values = np.sort((horizontal[:, None] + wvals[None, :] ** 2 - c_v).ravel())
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
    # a flat torus has one block size and its stack is in row order, so the
    # values land in row order (block, then column) and a stable sort breaks
    # ties in block order
    (stack,) = op.stacks
    w, v = np.linalg.eigh(stack)
    values = w.ravel()
    order = np.argsort(values, kind="stable")
    if not 0 <= j < len(values):
        raise ValueError(f"eigenvalue index {j} out of range for dimension {len(values)}")
    row = int(order[j])
    lam = float(values[row])
    block, col = divmod(row, stack.shape[1])
    mode = op.block_info[block].mode
    vec = v[block][:, col]
    tol = cluster_tol
    if tol is None:
        tol = _default_tol(values[order[[0, -1]]])
    for other in (j - 1, j + 1):
        if 0 <= other < len(values) and abs(float(values[order[other]]) - lam) <= tol:
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
