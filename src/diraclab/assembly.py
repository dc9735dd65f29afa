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
is one columnar record whose sizes column fixes the row layout and every
block's position in its stack.  Assemblers write their blocks straight into
the stacks.  Row labels are (mode tuple, module index).  For a mapping
torus the mode tuple is the lexicographically smallest fiber mode of the
orbit followed by the base Fourier index, and the module index refers to
the lift basis (the standard basis for a given diagonal lift).

The lift is diagonalized once, a computed one with its generator's eigh.
Every power of the lift, so every orbit twist, is diagonal in that
orthonormal basis, whose lift-fixed columns also decide whether parallel
sections exist.  Only the fiber momenta of a mapping torus
depend on the fiber scale, as 1/fiber_scale.  Its assembly is therefore
split into a scale-free plan and a step that solves the fiber momenta of a
scale.  The plan keeps one block table: per block in row order its orbit,
its twist cluster and its base momentum, and per cluster size the gammas
restricted to those clusters as one stack.  The step forms each size
class's blocks from these rows.  A collapse run builds the plan once and
solves all its scales in one stacked pass over the symbols of the same rows
(see the symbols module).  The limit operator is the zero-mode orbit's rows
at zero fiber momentum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clifford import CliffordModule, _exceeds, _lift_factors, casimir
from .clifford import _CLOSURE_EXCEEDED, _MAX_HOLONOMY_ORDER
from .models import FD_STEP, AffineMappingTorus, FlatTorusModel, _check_fd_step, matrix_order
from .spectral import HERMITICITY_TOL, LIFT_TOL, SHIFT_INTEGRALITY_TOL, STRUCTURE_TOL
from .spectral import UNITARITY_TOL, WEIGHT_TOL, Spectrum, _default_tol, _require_hermitian
from .spectral import eigensolve
from .symbols import _COUPLED, _NOT_HERMITIAN, _block_symbols, _BlockSymbols, _SymbolSolution

__all__ = [
    "AssembledOperator",
    "BlockInfo",
    "InvariantSplit",
    "EmptyInvariantSpaceError",
    "assemble_dirac",
    "bochner_rhs",
    "fiber_invariant_split",
    "limit_operator",
    "frame_bundle_operator",
    "eigenvalue_derivative",
    "write_matrix_text",
]


class EmptyInvariantSpaceError(ValueError):
    """No nonzero parallel sections exist; the collapse limit degenerates."""


@dataclass(frozen=True, eq=False)
class BlockInfo:
    """Block provenance, one row per block in row order: modes (B, k) (on a
    mapping torus, ending in the base Fourier index), sizes (B,), twist
    angles (B,) in turns (0.0 on flat tori) and invariant flags (B,)."""

    modes: np.ndarray
    sizes: np.ndarray
    twist: np.ndarray
    invariant: np.ndarray


def _flat_info(modes: np.ndarray, size: int) -> BlockInfo:
    """One untwisted block of the given size per mode row."""
    n = len(modes)
    return BlockInfo(modes, np.full(n, size), np.zeros(n), np.zeros(n, dtype=bool))


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
    block-diagonal view) are built on first access.
    """

    stacks: tuple[np.ndarray, ...]
    block_info: BlockInfo
    truncation: int
    model_ref: str

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
        if any(c.shape != (len(info.modes),) for c in (info.sizes, info.twist, info.invariant)):
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
        _require_hermitian(stacks, HERMITICITY_TOL, _NOT_HERMITIAN)

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


def _mode_ranges(shift: np.ndarray, truncation: int) -> list[range]:
    """Per-component integer ranges k with |k + shift| <= truncation."""
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    return [range(int(np.ceil(-truncation - s)), int(np.floor(truncation - s)) + 1) for s in shift]


def _flat_modes(model: FlatTorusModel, truncation: int) -> np.ndarray:
    """Retained modes, one row each, in lexicographic order."""
    ranges = _mode_ranges(model.spin_shift, truncation)
    grid = np.indices([len(r) for r in ranges]).reshape(len(ranges), -1).T
    return grid + np.array([r.start for r in ranges], dtype=grid.dtype)


def _flat_momenta(model: FlatTorusModel, cm: CliffordModule, truncation: int):
    """Provenance (one block per mode) and momenta of a flat torus's modes."""
    if cm.n != model.n:
        raise ValueError(f"module dimension {cm.n} does not match torus rank {model.n}")
    modes = _flat_modes(model, truncation)
    return _flat_info(modes, cm.dim_v), model.dual_momentum(modes)


# ---------------------------------------------------------------------------
# mapping torus assembly


def _resolve_lift(model: AffineMappingTorus, cm: CliffordModule) -> _LiftBasis:
    """Lift basis of the unitary acting on module values after one base loop.

    Must intertwine the Clifford action with the physical fiber rotation
    transposed (the rotation the dual modes undergo), and fix the base
    direction; without that the operator would not close up on the quotient.
    A computed lift brings the eigh basis it is built from; a given one is
    checked as lift_rotation checks its own, then diagonalized by _lift_basis.
    """
    m = model.fiber.n
    if cm.n != m + 1:
        raise ValueError(f"module dimension {cm.n} does not match total space dimension {m + 1}")
    b = model.fiber.lattice_basis
    phys = b @ model.holonomy @ np.linalg.inv(b)
    rot = np.eye(m + 1)
    rot[:m, :m] = phys.T
    if model.holonomy_lift is None:
        u, w, v = _lift_factors(cm, rot)
        return _LiftBasis(u, v, np.mod(w / (2.0 * np.pi), 1.0))
    u = model.holonomy_lift
    if u.shape != (cm.dim_v, cm.dim_v):
        raise ValueError("holonomy lift has the wrong shape for this module")
    if _exceeds(u.conj().T @ u - np.eye(cm.dim_v), UNITARITY_TOL):
        raise ValueError("holonomy lift is not unitary")
    if _exceeds(u @ cm.gammas @ u.conj().T - cm.gamma(rot.T), LIFT_TOL):
        raise ValueError(
            "holonomy lift does not intertwine the Clifford action with the "
            "fiber rotation; pass holonomy_lift=None to compute a geometric lift"
        )
    return _lift_basis(u)


def _holonomy_orbits(model: AffineMappingTorus, truncation: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of the dual mode map, as lexicographic representatives (one
    row each, ascending) and orbit sizes.

    Every orbit meeting the truncation window is kept whole, so the block
    structure does not depend on which member seeded it.
    """
    phi_t = model.holonomy.T
    delta = model.fiber.spin_shift
    carry = phi_t @ delta - delta
    carry_int = np.round(carry).astype(np.int64)
    if np.max(np.abs(carry - carry_int)) > SHIFT_INTEGRALITY_TOL:
        raise ValueError("fiber spin shift is not compatible with the holonomy")
    cap = matrix_order(model.holonomy)
    # images[j] holds the j-th image of every window mode, j = 0 .. cap
    window = _flat_modes(model.fiber, truncation)
    images = [window]
    for _ in range(cap):
        images.append(images[-1] @ phi_t.T + carry_int)
    images = np.stack(images)
    closes = np.all(images[1:] == window, axis=2)
    if not np.all(np.any(closes, axis=0)):
        raise RuntimeError("orbit failed to close within the holonomy order")
    sizes = np.argmax(closes, axis=0) + 1
    # no orbit has more than cap members, so images[:cap] covers each mode's
    # whole orbit; narrow it coordinate by coordinate to the lexicographic
    # minimum, the orbit's representative
    cycle = images[:cap]
    best = np.ones(cycle.shape[:2], dtype=bool)
    for c in range(cycle.shape[2]):
        col = np.where(best, cycle[:, :, c], np.iinfo(np.int64).max)
        best &= col == col.min(axis=0)
    rep_of = cycle[np.argmax(best, axis=0), np.arange(len(window))]
    order = np.lexsort(rep_of.T[::-1])
    rep_of, sizes = rep_of[order], sizes[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(rep_of[1:] != rep_of[:-1], axis=1)
    return rep_of[new], sizes[new]


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
    return [(sum(th for th, _ in grp) / len(grp), [i for _, i in grp]) for grp in groups]


@dataclass(frozen=True, eq=False)
class _LiftBasis:
    """Orthonormal eigenbasis q (columns) of a resolved lift, in which every
    power of the lift is diagonal.

    angles holds the lift's eigen-angles (fractions of a turn) by column,
    fixed marks the columns the lift fixes, |lift q_j - q_j| <= STRUCTURE_TOL,
    and ortho is max |q^H q - I|.
    """

    lift: np.ndarray
    q: np.ndarray
    angles: np.ndarray

    @cached_property
    def fixed(self) -> np.ndarray:
        return np.abs(self.lift @ self.q - self.q).max(axis=0) <= STRUCTURE_TOL

    @cached_property
    def ortho(self) -> float:
        return float(np.max(np.abs(self.q.conj().T @ self.q - np.eye(len(self.q)))))


def _lift_basis(lift: np.ndarray) -> _LiftBasis:
    """Diagonalize a given lift: one eig, then one QR over its clusters of
    equal eigen-angle."""
    lift = np.asarray(lift, dtype=complex)
    vals, q = np.linalg.eig(lift)
    angles = np.mod(np.angle(vals) / (2.0 * np.pi), 1.0)
    # eigenvectors of one cluster need not be orthonormal; one QR over the
    # columns in cluster order makes them so (distinct clusters of a unitary
    # lift are orthogonal already).  The QR phases go back onto the columns
    # so that unit vectors stay put and a diagonal lift keeps q = I; a zero
    # pivot leaves a zero column, which every twist sector refuses
    order = np.concatenate([idxs for _, idxs in _cluster_angles(angles)])
    qc, r = np.linalg.qr(q[:, order])
    pivots = np.diag(r)
    q[:, order] = qc * (pivots / np.maximum(np.abs(pivots), np.finfo(float).tiny))
    return _LiftBasis(lift, q, angles)


def _parallel_columns(model: AffineMappingTorus, basis: _LiftBasis) -> np.ndarray:
    """Mask of the lift-basis columns spanning the values parallel sections
    take: the lift's fixed columns when the fiber has a zero mode (trivial
    fiber spin shift), and none otherwise.

    First refuses, with holonomy_rep's message, a lift whose powers do not
    close within _MAX_HOLONOMY_ORDER: no k up to it takes every eigen-angle to
    within STRUCTURE_TOL of a whole turn.
    """
    turns = np.arange(1, _MAX_HOLONOMY_ORDER + 1)[:, None] * basis.angles
    if not np.any(np.all(np.abs(turns - np.rint(turns)) <= STRUCTURE_TOL, axis=1)):
        raise ValueError(_CLOSURE_EXCEEDED.format(max_order=_MAX_HOLONOMY_ORDER))
    return basis.fixed & bool(np.all(model.fiber.spin_shift == 0.0))


@dataclass(frozen=True, eq=False)
class _TwistSector:
    """The twist (loop phase * lift)^d shared by every orbit of size d, in
    the lift basis, with its clusters of equal twist angle.

    invariant marks clusters lying inside the fixed space of the lift, which
    is where monodromy-parallel sections live; coupling masks the entries
    of a matrix in the lift basis that join two distinct clusters.
    """

    clusters: tuple[tuple[float, np.ndarray], ...]
    invariant: tuple[bool, ...]
    coupling: np.ndarray


def _twist_sector(basis: _LiftBasis, d: int, base_shift: float) -> _TwistSector:
    """Twist sector of an orbit of size d."""
    # spin structure on the base contributes a sign per loop
    loop_phase = -1.0 if (base_shift == 0.5 and d % 2 == 1) else 1.0
    q = basis.q
    tq = q.conj().T @ (loop_phase * np.linalg.matrix_power(basis.lift, d)) @ q
    diag = np.diag(tq)
    thetas = np.mod(np.angle(diag) / (2.0 * np.pi), 1.0)
    clusters = tuple((theta, np.array(idxs)) for theta, idxs in _cluster_angles(thetas))
    resid = max(np.max(np.abs(tq - np.diag(diag))), basis.ortho)
    if not resid <= STRUCTURE_TOL:
        raise ValueError("orbit twist failed to diagonalize (lift is not unitary?)")
    owner = np.zeros(len(q), dtype=int)
    for c, (_, idxs) in enumerate(clusters):
        owner[idxs] = c
    return _TwistSector(
        clusters=clusters,
        invariant=tuple(bool(np.all(basis.fixed[idxs])) for _, idxs in clusters),
        coupling=owner[:, None] != owner[None, :],
    )


def _orbit_layout(
    sectors: dict[int, _TwistSector], reps: np.ndarray, sizes: np.ndarray,
    conn_dot: np.ndarray, zero_mode: np.ndarray, base_length: float, truncation: int,
) -> tuple[BlockInfo, np.ndarray, np.ndarray, np.ndarray]:
    """Block provenance and block table of the orbits reps (in row order) of
    the given sizes: per block, its orbit, its twist cluster (numbered over
    the sectors in order) and its base momentum beta.  An orbit of size d has
    one block per base index u = -dT .. dT (outer) and cluster of its twist
    sector (inner); conn_dot pairs its dual mode with the connection;
    zero_mode marks the zero mode."""
    per_orbit = {d: (2 * d * truncation + 1) * len(sec.clusters) for d, sec in sectors.items()}
    counts = np.array([per_orbit[d] for d in sizes.tolist()], dtype=np.int64)
    offsets, total = np.cumsum(counts) - counts, int(np.sum(counts))
    # an orbit's blocks take consecutive rows, over which its representative,
    # index and zero-mode flag repeat
    modes = np.repeat(np.column_stack([reps, np.zeros_like(sizes)]), counts, axis=0)
    invariant = np.repeat(zero_mode, counts)
    info = BlockInfo(modes, np.empty(total, dtype=np.int64), np.empty(total), invariant)
    orbit = np.repeat(np.arange(len(sizes)), counts)
    cluster, beta = np.empty(total, dtype=np.intp), np.empty(total)
    first = 0
    for d, sec in sectors.items():
        members = np.flatnonzero(sizes == d)
        us = np.arange(-d * truncation, d * truncation + 1)
        thetas = np.array([theta for theta, _ in sec.clusters])
        # idx[i, a, c]: row-order index of member i's block at us[a] in cluster c
        idx = offsets[members, None, None] + np.arange(len(us) * len(thetas)).reshape(len(us), -1)
        info.modes[idx, -1] = us[:, None]
        info.sizes[idx] = [len(idxs) for _, idxs in sec.clusters]
        info.twist[idx] = thetas
        info.invariant[idx] &= np.array(sec.invariant)
        cluster[idx] = first + np.arange(len(thetas))
        kappa = 2.0 * np.pi * (us[:, None] + thetas) / (d * base_length)
        beta[idx] = kappa - (2.0 * np.pi * conn_dot[members])[:, None, None]
        first += len(thetas)
    return info, orbit, cluster, beta


@dataclass(frozen=True, eq=False)
class _MappingPlan:
    """The part of a mapping-torus assembly that the fiber scale leaves
    alone: the lift basis, the gammas in it, the twist sectors (by orbit
    size), the orbit representatives, per orbit its twist sector's coupling
    mask (O, dim_v, dim_v), and one block table.  The table is the block
    provenance and, per block in row order, its orbit, its twist cluster
    and its base momentum beta; per cluster size s, clusters holds those
    clusters' numbers (C_s,), their lift-basis columns (C_s, s) and the
    gammas restricted to them (C_s, n, s, s).  The block path, the symbol
    certificate and the limit all read these rows.  Only the fiber momenta
    scale (as 1/fiber_scale); dirac and bochner supply them for scaled, the
    plan's model at the wanted fiber scale (the model itself or
    model.with_scale(eps)), so a caller that needs the scaled model too
    builds it once."""

    model: AffineMappingTorus
    cm: CliffordModule
    truncation: int
    basis: _LiftBasis
    gammas_q: np.ndarray
    sectors: dict[int, _TwistSector]
    reps: np.ndarray
    coupling: np.ndarray
    block_info: BlockInfo
    orbit: np.ndarray
    cluster: np.ndarray
    beta: np.ndarray
    clusters: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]

    def dirac(self, scaled: AffineMappingTorus) -> AssembledOperator:
        """Dirac operator at the fiber scale of scaled; refuses a coupling
        symbol before forming a block."""
        p = scaled.scaled_fiber().dual_momentum(self.reps)
        if self.coupled(p[None], slice(None))[0]:
            raise ValueError(_COUPLED)
        return self._operator(slice(None), p, self.block_info, scaled.label())

    def _operator(
        self, rows: slice, p: np.ndarray, info: BlockInfo, label: str
    ) -> AssembledOperator:
        """Dirac operator of the table's rows in rows, with provenance info;
        p holds the fiber momenta of their orbits, from the first row's on.
        Per size class, the blocks take their orbit and cluster's part of
        q^H gamma(p) q plus beta times their cluster's base gamma."""
        gp = self.cm.gamma(np.column_stack([p, np.zeros(len(p))]))
        gp_q = self.basis.q.conj().T @ gp @ self.basis.q
        orbit, cluster, beta = self.orbit[rows], self.cluster[rows], self.beta[rows]
        orbit = orbit - orbit[0]
        sizes = self.block_info.sizes[rows]
        stacks = []
        for s, (ids, cols, gammas) in self.clusters.items():
            at = np.flatnonzero(sizes == s)
            if len(at):
                c = np.searchsorted(ids, cluster.take(at))
                fiber = gp_q[:, cols[:, :, None], cols[:, None, :]].reshape(-1, s, s)
                blocks = np.take(fiber, orbit.take(at) * len(ids) + c, axis=0)
                base = np.take(gammas[:, -1], c, axis=0)
                base *= beta.take(at)[:, None, None]
                blocks += base
                stacks.append(blocks)
        return AssembledOperator(stacks, info, self.truncation, label)

    def bochner(self, scaled: AffineMappingTorus) -> AssembledOperator:
        """Connection Laplacian at the fiber scale of scaled, from
        |p|^2 + beta^2 alone."""
        p = scaled.scaled_fiber().dual_momentum(self.reps)
        r2 = np.sum(p * p, axis=1)[self.orbit] + self.beta * self.beta
        sizes = self.block_info.sizes
        stacks = [r2[sizes == s, None, None] * np.eye(s) for s in self.clusters]
        return AssembledOperator(stacks, self.block_info, self.truncation, scaled.label())

    def coupled(self, p: np.ndarray, orbits: slice | np.ndarray) -> np.ndarray:
        """Per scale of the fiber momenta p (E, O, m) of the orbits indexed,
        whether the symbol couples distinct twist sectors: over the orbits
        whose sector has several clusters, in one einsum, an entry joining
        two clusters of F(p) = sum_k p_k F_k or of the base F_m is above
        STRUCTURE_TOL max(1, their largest entry).  F(p) may commute with
        the twist although no F_k does, on a rank-3 rotation's axis."""
        masks = self.coupling[orbits]
        masked = np.flatnonzero(masks.any(axis=(1, 2)))
        m = p.shape[2]
        f = np.abs(np.einsum("eok,kij->eoij", p[:, masked], self.gammas_q[:m]))
        f = np.maximum(f, np.abs(self.gammas_q[m]))
        leak = np.max(f, axis=(2, 3), where=masks[masked], initial=0.0)
        return np.any(leak > STRUCTURE_TOL * np.max(f, axis=(2, 3), initial=1.0), axis=1)

    @cached_property
    def symbols(self) -> _BlockSymbols:
        """The blocks' scale-free symbols, computed on first use."""
        return _block_symbols(
            self.orbit, self.cluster, self.beta, self.block_info.sizes, self.clusters.values()
        )

    def symbol_spectra(self, fibers: list[FlatTorusModel]) -> _SymbolSolution:
        """Spectra at E fiber scales from the block symbols, given each
        scale's scaled fiber, in one pass and without forming a block.  Its
        at(i) is scale i's spectrum, or None when a block fails its
        certificate, and the caller then takes the block path,
        eigensolve(self.dirac(scaled)).  at(i) raises scale i's coupling.

        The certificate is set out in the symbols module, with why its
        Hermiticity refusal is at least as strict as the block path's and
        its error bound is held to eigensolve's residual tolerance.
        """
        p = np.array([f.dual_momentum(self.reps) for f in fibers])
        p = p.reshape(len(fibers), *self.reps.shape)
        return self.symbols.solve(p, self.truncation, self.coupled(p, slice(None)))

    def limit_orbit(self) -> int:
        """The zero-mode orbit, the limit's; refuses as limit_operator does,
        a coupling symbol at p = 0 included."""
        _require_parallel(self.model, self.basis)
        zero = np.flatnonzero(~self.reps.any(axis=1))
        if self.coupled(np.zeros((1, 1, self.reps.shape[1])), zero)[0]:
            raise ValueError(_COUPLED)
        return int(zero[0])

    def limit_symbol_spectrum(self) -> Spectrum | None:
        """Spectrum of the limit operator as symbol_spectra finds it: the
        blocks of the zero-mode orbit with p = 0, so r = |beta|.  None when a
        block fails its certificate, and the caller then solves the limit
        operator.  Refuses first as limit_orbit does."""
        part = self.symbols.orbit_part(self.limit_orbit())
        p = np.zeros((1, 1, self.reps.shape[1]))
        return part.solve(p, self.truncation, np.zeros(1, dtype=bool)).at(0)


def _in_basis(basis: _LiftBasis, gammas: np.ndarray) -> np.ndarray:
    """The gammas q^H gamma_k q in the lift basis."""
    return basis.q.conj().T @ gammas @ basis.q


def _mapping_plan(model: AffineMappingTorus, cm: CliffordModule, truncation: int) -> _MappingPlan:
    """Build the scale-free plan of a mapping torus once; its
    dirac(model.with_scale(eps)) then assembles any fiber scale without
    redoing orbits or twists."""
    basis = _resolve_lift(model, cm)
    gammas_q = _in_basis(basis, cm.gammas)
    reps, sizes = _holonomy_orbits(model, truncation)
    sectors = {d: _twist_sector(basis, d, model.base_shift) for d in sorted(set(sizes.tolist()))}
    zeta0 = reps + model.fiber.spin_shift
    # one (1, m) @ (m, 1) product per orbit rounds like a dot of one orbit
    conn_dot = (zeta0[:, None, :] @ model.connection[:, None])[:, 0, 0]
    table = _orbit_layout(
        sectors, reps, sizes, conn_dot, ~zeta0.any(axis=1), model.base_length, truncation
    )
    cols = [idxs for sec in sectors.values() for _, idxs in sec.clusters]
    clusters = {}
    for s in sorted({len(c) for c in cols}):
        ids = np.array([i for i, c in enumerate(cols) if len(c) == s])
        grid = np.array([cols[i] for i in ids])
        gammas = gammas_q[:, grid[:, :, None], grid[:, None, :]].swapaxes(0, 1)
        clusters[s] = (ids, grid, gammas)
    coupling = np.array([sectors[d].coupling for d in sizes.tolist()])
    return _MappingPlan(
        model, cm, truncation, basis, gammas_q, sectors, reps, coupling, *table, clusters
    )


def assemble_dirac(
    model: FlatTorusModel | AffineMappingTorus, cm: CliffordModule, truncation: int
) -> AssembledOperator:
    """Dirac operator of the model on all retained Fourier modes."""
    if isinstance(model, FlatTorusModel):
        info, p = _flat_momenta(model, cm, truncation)
        return AssembledOperator([cm.gamma(p)], info, truncation, model.label())
    if isinstance(model, AffineMappingTorus):
        return _mapping_plan(model, cm, truncation).dirac(model)
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
        info, p = _flat_momenta(model, cm, truncation)
        stack = np.sum(p * p, axis=1)[:, None, None] * np.eye(cm.dim_v)
        return AssembledOperator([stack], info, truncation, model.label())
    if isinstance(model, AffineMappingTorus):
        return _mapping_plan(model, cm, truncation).bochner(model)
    raise TypeError(f"unsupported model type {type(model).__name__}")


@dataclass(frozen=True, eq=False)
class InvariantSplit:
    """Parallel-section data of the fiber operator.

    dim is the dimension of the parallel sections, the zero mode tensored
    with the fixed space of the holonomy lift; gap is the smallest absolute
    fiber eigenvalue on the orthogonal complement.
    """

    fiber_operator: AssembledOperator
    dim: int
    gap: float


def _require_parallel(model: AffineMappingTorus, basis: _LiftBasis) -> None:
    """Raise EmptyInvariantSpaceError unless parallel sections exist."""
    if not _parallel_columns(model, basis).any():
        raise EmptyInvariantSpaceError(
            "no parallel sections: the model has no collapse limit operator"
        )


def fiber_invariant_split(
    model: AffineMappingTorus, cm: CliffordModule, truncation: int
) -> InvariantSplit:
    """Split fiber sections into monodromy-parallel ones and their complement.

    Parallel sections are constant along the fiber (zero mode, which exists
    only for the trivial fiber spin shift) with values fixed by the holonomy
    lift.  The fiber Dirac vanishes on them; the reported gap bounds it away
    from zero on the complement.
    """
    basis = _resolve_lift(model, cm)
    r = int(np.count_nonzero(_parallel_columns(model, basis)))
    scaled = model.scaled_fiber()
    modes = _flat_modes(scaled, truncation)
    p = scaled.dual_momentum(modes)
    fiber_op = AssembledOperator(
        [cm.gamma(np.column_stack([p, np.zeros(len(p))]))],
        _flat_info(modes, cm.dim_v),
        truncation,
        model.label() + "|fiber",
    )
    zero = ~modes.any(axis=1) & bool(np.all(model.fiber.spin_shift == 0.0))
    gap_candidates = np.linalg.norm(p, axis=1)[~zero].tolist()
    if zero.any() and r < cm.dim_v:
        # complement reaches into the zero mode: the fiber operator
        # vanishes there, so no spectral gap survives
        gap_candidates.append(0.0)
    gap = float(min(gap_candidates, default=0.0))
    return InvariantSplit(fiber_operator=fiber_op, dim=r, gap=gap)


def limit_operator(
    model: AffineMappingTorus, cm: CliffordModule, truncation: int
) -> AssembledOperator:
    """Operator the collapse converges to: a Dirac operator on the base
    circle valued in the fiberwise parallel sections, with the holonomy lift
    as bundle monodromy.

    Raises EmptyInvariantSpaceError when no nonzero parallel sections exist
    (nontrivial fiber spin shift, or a lift without fixed vectors); that is
    the regime where the whole spectrum escapes to infinity instead.  The
    model's plan refuses first.
    """
    return _limit_operator(_mapping_plan(model, cm, truncation))


def _limit_operator(plan: _MappingPlan) -> AssembledOperator:
    """limit_operator from the plan of its model: the zero-mode orbit's
    rows at p = 0, labeled by their base index alone."""
    zero = plan.limit_orbit()
    rows = slice(*np.searchsorted(plan.orbit, [zero, zero + 1]))
    full = plan.block_info
    info = BlockInfo(
        full.modes[rows, -1:], full.sizes[rows], full.twist[rows], full.invariant[rows]
    )
    p = np.zeros((1, plan.reps.shape[1]))
    return plan._operator(rows, p, info, plan.model.label() + "|limit")


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
    if np.max(np.abs(doubled - np.round(doubled))) > WEIGHT_TOL:
        raise ValueError("module weights are not half-integral")
    if group_truncation < int(np.max(np.abs(np.round(doubled)))):
        raise ValueError("group-circle truncation cannot carry the module weights")
    p = model.dual_momentum(_flat_modes(model, truncation))
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
    fd_step: float = FD_STEP,
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
    spectrum (0-based); an eigenvalue within CLUSTER_TOL * max(1, largest
    |eigenvalue|) of a neighbour is refused, since no single analytic branch
    passes through it.  Without gram_dot the metric velocity is a central
    difference, and fd_step must be positive and finite.
    """
    if gram_dot is None:
        _check_fd_step(fd_step)
    g0 = np.atleast_2d(np.asarray(family(t0), dtype=float))
    n = g0.shape[0]
    shift = np.zeros(n) if spin_shift is None else np.asarray(spin_shift, dtype=float)
    basis = np.linalg.cholesky(g0).T
    op = assemble_dirac(FlatTorusModel(basis, shift), cm, truncation)
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
    vec = v[block][:, col]
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
    zeta = op.block_info.modes[block] + shift
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
    lines += [" ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in row) for row in op.matrix]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
