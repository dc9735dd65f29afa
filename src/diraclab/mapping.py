"""The scale-free plan of every assembly, and the truncation.

One base loop sends the fiber mode zeta to holonomy^T zeta while acting on
module values by the unitary lift, so modes group into finite orbits, each
carrying a twisted boundary condition on a circle of d times the base
length.  The plan keeps, whole, every orbit meeting the box of fiber modes
with |k + shift| <= truncation per component, and the base indices
|u| <= d truncation of an orbit of size d.  Diagonalizing the total twist
splits every orbit into blocks that are exact in floating point.  A
block's rows are labeled by the lexicographically smallest fiber mode of its
orbit followed by its base Fourier index, and by a module index that refers
to the lift basis (the standard basis for a given diagonal lift).  A flat
torus is a plan too, with one orbit per mode, the identity lift and no base
direction (see _plan), so every operator that the assembly module builds
comes from a plan.

The lift is diagonalized once, by complex Hermitian eigh alone: a computed
one with its generator's, a given one with clifford._unitary_eigh's two.
That basis is the plan's one source of lift data (_LiftBasis), whose one
check reads the lift's eigen-angles off q^H lift q.  Every orbit twist is
diagonal in it, with angles read off the lift's (_twist_sector), and
_parallel_columns reads which columns parallel sections take off them
alone: a lift of any angle runs.  Only the fiber momenta depend on the
fiber scale, as 1/fiber_scale, so the plan solves them at unit scale and a
step divides them by the scale.  The plan keeps one block table, in which
each block takes the fiber part and base gamma of its (orbit, cluster)
pair, plus beta times the base part; the symbols certify the same pairs'
parts once, at each orbit's unit fiber direction, or refuse the plan by
name (see the symbols module), and a collapse run solves all its scales
in one stacked pass over them without forming a block.  Whether the symbol
couples distinct twist sectors depends on each orbit's fiber direction
alone, never on the scale, so the plan refuses such a symbol once, when it
is built (_couples), and no step checks it again.  The limit operator is
the zero-mode orbit's rows at zero fiber momentum; as that orbit's
momentum is zero at every scale, a collapse run reads the limit's spectrum
off those rows of the scales' solution.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .clifford import CliffordModule, _exceeds, _lift_factors, _unitary_eigh
from .models import AffineMappingTorus, FlatTorusModel, _check_scaled, matrix_order
from .spectral import HERMITICITY_TOL, LIFT_TOL, STRUCTURE_TOL, UNITARITY_TOL
from .spectral import AssembledOperator, BlockInfo, _require_hermitian
from .symbols import _block_symbols, _SymbolSolution

# the message of a plan whose symbol couples distinct twist sectors
_COUPLED = "operator symbol couples distinct twist sectors"


class EmptyInvariantSpaceError(ValueError):
    """No nonzero parallel sections exist; the collapse limit degenerates."""


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


def _resolve_lift(model: AffineMappingTorus, cm: CliffordModule) -> _LiftBasis:
    """Lift basis of the unitary acting on module values after one base loop.

    Must intertwine the Clifford action with the physical fiber rotation
    transposed (the rotation the dual modes undergo), and fix the base
    direction; without that the operator would not close up on the quotient.
    A computed lift brings the eigh basis of its generator; a given one is
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
        return _LiftBasis(*_lift_factors(cm, rot))
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
    # integral, as the model refuses a spin shift the holonomy does not keep
    carry_int = np.round(phi_t @ delta - delta).astype(np.int64)
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
    """Orthonormal eigenbasis q (columns) of a resolved lift, and the lift's
    eigen-angles (fractions of a turn, mod 1) by column, read off the
    diagonal of q^H lift q (the Rayleigh quotients).  The one check that q
    diagonalizes the lift runs on construction: q^H q = I, and q^H lift q
    is diagonal with unimodular entries, within STRUCTURE_TOL."""

    lift: np.ndarray
    q: np.ndarray
    angles: np.ndarray = field(init=False)

    def __post_init__(self):
        q, eye = self.q, np.eye(len(self.q))
        tq = q.conj().T @ self.lift @ q
        turns = np.angle(np.diagonal(tq)) / (2.0 * np.pi)
        off = tq - eye * np.exp(2j * np.pi * turns)
        if not max(np.max(np.abs(off)), np.max(np.abs(q.conj().T @ q - eye))) <= STRUCTURE_TOL:
            raise ValueError("orbit twist failed to diagonalize (lift is not unitary?)")
        object.__setattr__(self, "angles", np.mod(turns, 1.0))


def _lift_basis(lift: np.ndarray) -> _LiftBasis:
    """Diagonalize a given lift in _unitary_eigh's basis.  Each column is
    moved to the row of its largest entry and made real and positive there,
    so that unit vectors stay put and a diagonal lift keeps q = I."""
    lift = np.asarray(lift, dtype=complex)
    q = _unitary_eigh(lift)[1]
    top = np.argmax(np.abs(q), axis=0)
    pivots = q[top, np.arange(len(q))]
    q = (q * (np.abs(pivots) / pivots))[:, np.argsort(top, kind="stable")]
    return _LiftBasis(lift, q)


def _parallel_columns(model: AffineMappingTorus, basis: _LiftBasis) -> np.ndarray:
    """Mask of the lift-basis columns spanning the values parallel sections
    take: those the lift fixes, whose eigen-angle is within STRUCTURE_TOL of
    a whole turn, when the fiber has a zero mode (trivial fiber spin shift),
    and none otherwise."""
    angles = basis.angles
    return (np.abs(angles - np.rint(angles)) <= STRUCTURE_TOL) & (not model.fiber.spin_shift.any())


def _twist_sector(basis: _LiftBasis, d: int, base_shift: float) -> list[tuple[float, list[int]]]:
    """Clusters of equal twist angle of an orbit of size d, whose twist
    (loop phase * lift)^d is diag(exp(2 pi i d (angles + base_shift))) in the
    lift basis.  The spin structure on the base contributes the loop phase
    -1 per loop, a half turn; base_shift is 0 or 1/2, so d / 2 mod 1 is a
    half turn exactly when d is odd."""
    return _cluster_angles(np.mod(d * (basis.angles + base_shift), 1.0))


def _orbit_layout(
    sectors: dict[int, list[tuple[float, list[int]]]], reps: np.ndarray, sizes: np.ndarray,
    conn_dot: np.ndarray, base_length: float, truncation: int,
) -> tuple[BlockInfo, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Block provenance and block table of the orbits reps (in row order) of
    the given sizes: per block, its orbit, its twist cluster (numbered over
    the sectors in order), its base momentum beta and its pair; per pair,
    the row of its first block.  An orbit of size d has one block per base
    index u = -dT .. dT (outer) and cluster of its twist sector (inner), so
    its pairs, one per cluster, are its first len(sector) blocks, numbered
    in row order; conn_dot pairs its dual mode with the connection."""
    per_sector = np.array([len(sectors[d]) for d in sizes.tolist()], dtype=np.int64)
    counts = (2 * sizes * truncation + 1) * per_sector
    offsets, total = np.cumsum(counts) - counts, int(np.sum(counts))
    starts = np.cumsum(per_sector) - per_sector
    # an orbit's blocks take consecutive rows, over which its representative
    # and index repeat
    modes = np.repeat(np.column_stack([reps, np.zeros_like(sizes)]), counts, axis=0)
    info = BlockInfo(modes, np.empty(total, dtype=np.int64), np.empty(total))
    orbit = np.repeat(np.arange(len(sizes)), counts)
    cluster, pair = np.empty((2, total), dtype=np.intp)
    beta = np.empty(total)
    pair_rows = np.empty(int(np.sum(per_sector)), dtype=np.intp)
    first = 0
    for d, sec in sectors.items():
        members = np.flatnonzero(sizes == d)
        us = np.arange(-d * truncation, d * truncation + 1)
        thetas = np.array([theta for theta, _ in sec])
        # idx[i, a, c]: row-order index of member i's block at us[a] in cluster c
        idx = offsets[members, None, None] + np.arange(len(us) * len(thetas)).reshape(len(us), -1)
        info.modes[idx, -1] = us[:, None]
        info.sizes[idx] = [len(idxs) for _, idxs in sec]
        info.twist[idx] = thetas
        cluster[idx] = first + np.arange(len(thetas))
        pair[idx] = starts[members, None, None] + np.arange(len(thetas))
        pair_rows[pair[idx[:, 0]]] = idx[:, 0]
        kappa = 2.0 * np.pi * (us[:, None] + thetas) / (d * base_length)
        beta[idx] = kappa - (2.0 * np.pi * conn_dot[members])[:, None, None]
        first += len(thetas)
    return info, orbit, cluster, beta, pair, pair_rows


@dataclass(frozen=True, eq=False)
class _MappingPlan:
    """The part of a mapping or flat torus's assembly that the fiber scale
    leaves alone: the lift basis, the gammas in it (fiber, then base), the
    twist sectors (by orbit size), the orbit representatives and their fiber
    momenta at unit fiber scale (O, m), and one block table.  The table is
    the block provenance and, per block in row order, its orbit, its twist cluster,
    its base momentum beta and its pair, an (orbit, cluster) combination
    numbered in row order; pair_rows holds each pair's first row, and per
    cluster size s, pairs holds those pairs' numbers (P_s,), the flat
    indices of their fiber parts into an (O, dim_v, dim_v) stack and their
    base gammas (both (P_s, s, s)).  The block path, the symbol certificate
    and the limit all read these rows; the limit's are limit_rows, the
    zero-mode orbit's.  Only the fiber momenta scale, as 1/fiber_scale:
    dirac, bochner and symbol_spectra divide the unit-scale ones by the
    scale eps (_scaled_momenta).  _blocks and the symbols read the parts of
    the pairs (_pair_parts).  The plan keeps no copy of the truncation: only
    its build (_plan) reads it, and its rows are the modes retained."""

    model: FlatTorusModel | AffineMappingTorus
    basis: _LiftBasis
    gammas_q: np.ndarray
    sectors: dict[int, list[tuple[float, list[int]]]]
    reps: np.ndarray
    unit_momenta: np.ndarray
    block_info: BlockInfo
    orbit: np.ndarray
    cluster: np.ndarray
    beta: np.ndarray
    pair: np.ndarray
    pair_rows: np.ndarray
    pairs: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]

    def dirac(self, eps: float = 1.0) -> AssembledOperator:
        """Dirac operator at the fiber scale eps; refuses a scale out of
        range before forming a block."""
        stacks = self._blocks(slice(None), _scaled_momenta(self.unit_momenta, [eps])[0])
        return AssembledOperator(stacks, self.block_info)

    def _pair_parts(self, p: np.ndarray):
        """Per size class, ascending, the parts of its pairs at the orbit
        fiber momenta p (O, m): the pairs' numbers, ascending, their fiber
        parts F, the orbit's q^H gamma(p) q (one einsum of p with gammas_q)
        on the cluster's columns, and their base gammas G, two (P_s, s, s)
        stacks, the second the plan's own."""
        gp_q = np.einsum("ok,kij->oij", p, self.gammas_q[: p.shape[1]])
        for ids, index, base in self.pairs.values():
            yield ids, np.take(gp_q, index), base

    def _blocks(self, rows: slice | np.ndarray, p: np.ndarray) -> list[np.ndarray]:
        """The blocks F + beta G of the table's rows in rows (a slice, or
        indices) at the orbit fiber momenta p, one (B_s, s, s) stack per size
        class present, ascending, each in row order: each block takes its
        pair's parts (_pair_parts), without a copy where the blocks are the
        pairs (a flat plan's)."""
        pair, beta, sizes = self.pair[rows], self.beta[rows], self.block_info.sizes[rows]
        stacks = []
        for ids, fiber, base in self._pair_parts(p):
            at = np.flatnonzero(sizes == fiber.shape[-1])
            if len(at):
                k = np.searchsorted(ids, pair.take(at))
                base = np.take(base, k, axis=0)
                base *= beta.take(at)[:, None, None]
                if not np.array_equal(k, np.arange(len(ids))):
                    fiber = np.take(fiber, k, axis=0)
                fiber += base
                stacks.append(fiber)
        return stacks

    def bochner(self, eps: float = 1.0) -> AssembledOperator:
        """Connection Laplacian at the fiber scale eps, from |p|^2 + beta^2
        alone."""
        p = _scaled_momenta(self.unit_momenta, [eps])[0]
        r2 = np.sum(p * p, axis=1)[self.orbit] + self.beta * self.beta
        sizes = self.block_info.sizes
        stacks = [r2[sizes == s, None, None] * np.eye(s) for s in self.pairs]
        return AssembledOperator(stacks, self.block_info)

    @cached_property
    def symbols(self) -> np.ndarray:
        """The pairs' scale-free symbols (symbols._block_symbols), measured
        once from their parts at each orbit's unit fiber direction: the unit
        momenta over their lengths, by hypot, which neither overflows nor
        underflows, and 0 on the zero-mode orbit."""
        dirs = _directions(self.unit_momenta)
        return _block_symbols(
            dirs[self.orbit[self.pair_rows]], bool(self.beta.any()), self._pair_parts(dirs)
        )

    def symbol_spectra(self, eps: list[float]) -> _SymbolSolution:
        """Spectra at the E fiber scales eps from the block symbols, in one
        pass, after _scaled_momenta's refusal and then the symbols' refusal
        of pairs that break the Clifford relations (see the symbols module).
        Its at(i) is scale i's spectrum and at(i, limit_rows()) the limit's,
        the same at every i.  No block is formed."""
        return _SymbolSolution.solve(self, _scaled_momenta(self.unit_momenta, eps))

    def limit_rows(self) -> slice:
        """The rows of the zero-mode orbit, the limit's; refuses a model
        without parallel sections, as limit_operator does."""
        if not _parallel_columns(self.model, self.basis).any():
            raise EmptyInvariantSpaceError(
                "no parallel sections: the model has no collapse limit operator"
            )
        zero = np.flatnonzero(~self.reps.any(axis=1))[0]
        return slice(*np.searchsorted(self.orbit, [zero, zero + 1]))


def _directions(unit: np.ndarray) -> np.ndarray:
    """Unit directions of the momenta unit (K, m), over their lengths by
    hypot, which neither overflows nor underflows, and 0 where a momentum
    is 0."""
    norm = np.hypot.reduce(np.abs(unit), axis=1)[:, None]
    return np.divide(unit, norm, out=np.zeros_like(unit), where=norm > 0.0)


def _couples(masks: np.ndarray, dirs: np.ndarray, gammas_q: np.ndarray) -> bool:
    """Whether the symbol couples distinct twist sectors at some fiber
    scale (see _plan), from each orbit's mask of the entries joining two
    clusters of its twist sector (O, dim_v, dim_v), its unit fiber
    direction u (O, m) and the gammas in the lift basis, fiber then base G:
    an entry of F(u) = sum_k u_k gamma_k under the mask is above
    STRUCTURE_TOL max |F(u)|, or one of G above STRUCTURE_TOL max(1, max |G|)."""
    f = np.abs(np.einsum("ok,kij->oij", dirs, gammas_q[:-1]))
    g = np.abs(gammas_q[-1])
    leak_f = np.max(f, axis=(1, 2), where=masks, initial=0.0)
    leak_g = np.max(g, where=masks.any(axis=0), initial=0.0)
    if np.any(leak_f > STRUCTURE_TOL * np.max(f, axis=(1, 2))):
        return True
    return bool(leak_g > STRUCTURE_TOL * max(1.0, np.max(g)))


def _scaled_momenta(unit: np.ndarray, eps: list[float]) -> np.ndarray:
    """Fiber momenta (E, K, m) at the fiber scales eps, unit (K, m) / eps;
    refuses first, naming it, a scale at which one overflows when squared."""
    eps = [float(e) for e in eps]
    # the largest |p| at unit scale, by hypot, which overflows only if |p| does
    top = float(np.max(np.hypot.reduce(np.abs(unit), axis=1)))
    _check_scaled("a fiber momentum", eps, [top / e for e in eps])
    return unit / np.array(eps)[:, None, None]


def _plan(
    model: FlatTorusModel | AffineMappingTorus, cm: CliffordModule, truncation: int
) -> _MappingPlan:
    """Build the scale-free plan of a model once (the one place that tells
    the model types apart); its dirac(eps) then assembles any fiber scale
    without redoing orbits, twists or the momenta's solve.  A flat torus
    has one orbit and block per retained mode, labeled by the mode alone,
    the identity lift basis, one twist cluster of all dim_v rows at twist 0
    and no base direction: a zero base gamma makes every beta 0, so the base
    terms of its blocks and symbols vanish without a branch.

    A module whose gammas are not Hermitian is refused first, once for every
    block and scale: a block D = sum_k x_k gamma_k on s <= dim_v lift-basis
    columns has max |D - D^H| <= sqrt(n) |x| sigma, sigma the largest skew
    entry, and max |D_ij| >= |x| / s on a Clifford module, so sigma <=
    HERMITICITY_TOL / (sqrt(n) dim_v) is at least as strict as the block
    path's check, up to what the basis change moves a skew entry.

    A plan whose symbol couples distinct twist sectors is refused last,
    once and scale-free (_couples).  On the flat models the symbol commutes
    with the monodromy, so whether it couples depends on the fiber
    direction alone.  Take an orbit whose twist sector has several
    clusters, with unit fiber direction u (0 on the zero-mode orbit), so
    its momentum is p = t u with t > 0 at every scale and t = 0 in the
    limit.  Let a_F and a_G be the largest entries joining two clusters of
    F(u) and of the base gamma G, and A_F and A_G their largest entries.
    A check at p compares the leak max(t a_F, a_G) with STRUCTURE_TOL
    max(1, t A_F, A_G).  If a_F > STRUCTURE_TOL A_F, it refuses every t
    with t A_F >= max(1, A_G); if a_G > STRUCTURE_TOL max(1, A_G), every t
    with t A_F <= max(1, A_G), t = 0 included.  Otherwise each leak is
    within its own bound at every t.  So the plan refuses exactly what a
    check at some scale would, whichever scales are asked for."""
    _require_hermitian(
        [cm.gammas], HERMITICITY_TOL / (np.sqrt(cm.n) * cm.dim_v),
        "Clifford module gammas are not Hermitian (residual {residual:.3e})",
    )
    if isinstance(model, FlatTorusModel):
        if cm.n != model.n:
            raise ValueError(f"module dimension {cm.n} does not match torus rank {model.n}")
        basis = _LiftBasis(np.eye(cm.dim_v), np.eye(cm.dim_v))
        gammas = np.concatenate([cm.gammas, np.zeros_like(cm.gammas[:1])])
        reps = _flat_modes(model, truncation)
        k = len(reps)
        sizes = np.ones(k, dtype=np.int64)
        sectors = {1: _twist_sector(basis, 1, 0.0)}
        info = BlockInfo(reps, np.full(k, cm.dim_v), np.zeros(k))
        ks = np.arange(k)  # one orbit, block and pair per mode
        table = (info, ks, np.zeros(k, dtype=np.intp), np.zeros(k), ks, ks)
        unit = model.dual_momentum(reps)
        top = float(np.max(np.hypot.reduce(np.abs(unit), axis=1)))  # as _scaled_momenta
        if not np.isfinite(top * top):
            raise ValueError("torus lattice is out of range: a momentum overflows when squared")
    elif isinstance(model, AffineMappingTorus):
        basis, gammas = _resolve_lift(model, cm), cm.gammas
        reps, sizes = _holonomy_orbits(model, truncation)
        orders = sorted(set(sizes.tolist()))
        sectors = {d: _twist_sector(basis, d, model.base_shift) for d in orders}
        zeta0 = reps + model.fiber.spin_shift
        # one (1, m) @ (m, 1) product per orbit rounds like a dot of one orbit
        conn_dot = (zeta0[:, None, :] @ model.connection[:, None])[:, 0, 0]
        # |u + theta| / d < truncation + 1 bounds every |beta| by 2 pi top
        top = (truncation + 1) / float(model.base_length) + float(np.max(np.abs(conn_dot)))
        _check_scaled("a base momentum", [model.base_length], [2.0 * np.pi * top], "base length")
        table = _orbit_layout(sectors, reps, sizes, conn_dot, model.base_length, truncation)
        unit = model.fiber.dual_momentum(reps)
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    gammas_q = basis.q.conj().T @ gammas @ basis.q
    info, orbit, cluster, _, _, pair_rows = table
    cols = [idxs for sec in sectors.values() for _, idxs in sec]
    pairs, dv = {}, cm.dim_v
    # per orbit, the entries joining two clusters of its twist sector: those
    # that no pair's fiber part takes
    joins = np.ones(len(reps) * dv * dv, dtype=bool)
    for s in sorted({len(c) for c in cols}):
        ids = np.flatnonzero(info.sizes[pair_rows] == s)
        rows, of_size = pair_rows[ids], [i for i, c in enumerate(cols) if len(c) == s]
        # each pair's cluster's columns
        grid = np.array([cols[i] for i in of_size])[np.searchsorted(of_size, cluster[rows])]
        index = (orbit[rows] * dv * dv)[:, None, None] + grid[:, :, None] * dv + grid[:, None, :]
        pairs[s] = (ids, index, gammas_q[-1][grid[:, :, None], grid[:, None, :]])
        joins[index] = False
    if _couples(joins.reshape(-1, dv, dv), _directions(unit), gammas_q):
        raise ValueError(_COUPLED)
    return _MappingPlan(model, basis, gammas_q, sectors, reps, unit, *table, pairs)
