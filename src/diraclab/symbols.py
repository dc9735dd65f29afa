"""Certified spectra of a mapping-torus plan's blocks from their symbols:
the package's one closed-form certificate, for the spectrum +-r that the
Bochner identity gives every block on the flat models.  Blocks it refuses
are formed from the plan's block table and solved by eigh.

A block is D = sum_k x_k G_k with x = (p, beta), p the fiber momentum of
its orbit and G_k the gammas restricted to its twist cluster of s rows.
The certificate is for its Hermitian part H = sum_k x_k H_k; D - H is
bounded by the Hermiticity check below.  With r^2 = |p|^2 + beta^2 and
F = sum_{k<m} p_k H_k,

    H^2 - r^2 I = (F^2 - |p|^2 I) + beta {F, H_m} + beta^2 (H_m^2 - I).

At fiber scale eps, p is the orbit's unit-scale momentum over eps, so the
three terms have the Frobenius norms a / eps^2, |beta| b / eps and
beta^2 c: a = ||F^2 - |p|^2 I|| and b = ||{F, H_m}|| at unit scale and
c = ||H_m^2 - I||, measured once per orbit and cluster.  So ||H^2 - r^2 I||_2
<= delta = a / eps^2 + |beta| b / eps + beta^2 c.  By Weyl's inequality each
eigenvalue lam^2 of H^2 lies within delta of r^2, so ||lam| - r| <= delta / r.
With n+ = (s + tr H / r) / 2, where tr H = p . t_c + beta tb_c from the
cluster's traces, a block takes -r (s - n+ times) and +r (n+ times) only
when s delta < r^2 (so r > 0), delta / r <= RESIDUAL_TOL * max(1,
sqrt(r^2 - delta) / s), and n+ lies within STRUCTURE_TOL of an integer.
Every eigenvalue then lies within delta / r < r / s of +r or -r, so the
signs split cleanly; with n of them positive, tr H / r is within
s delta / r^2 < 1 of n - (s - n), so the rounded n+ is n, and the sorted
values match the eigenvalues to within delta / r.  The block scale is at
most eigensolve's max(1, max |D_ij|), as sqrt(r^2 - delta) <= ||H||_2 <=
s max |H_ij| <= s max |D_ij|, so that error meets eigensolve's residual
tolerance.  A block with r = 0 gives s zeros: it is zero, or r^2
underflows (|x| about 1e-162 or less), so far below that tolerance.

The limit's blocks are the zero-mode orbit's, whose fiber momentum is 0 at
every scale: there a = b = 0 and delta = beta^2 c whatever 1 / eps is, so
every scale's solution holds the limit's certificate in those rows, and
_SymbolSolution.at reads it off them.

The norms are exact where a bound over pairs of directions is not: a
cluster that mixes the fiber gammas (the FCC cyclic models) leaves each
H_k far from squaring to I, while F^2 = |p|^2 I, as the plan's coupling
check keeps the cluster invariant under gamma(p).  Rounding in a, b, c,
p / eps and r^2 is O(u (m + s)) r^2, u the unit roundoff, as each is a
short sum of products of entries bounded by |x| and the gammas'.  It moves
||lam| - r| by O(u (m + s)) r: the order of eigh's own backward error, and
for s <= 16 over a thousand times below RESIDUAL_TOL * max(1, r / s).

Twist-sector coupling is not checked here: the plan's one check
(mapping._MappingPlan.coupled) flags every scale and orbit, for this path
and the block path alike, and solve takes its flags.  The block path's
other refusal, Hermiticity, is evaluated so that it is at least as strict
as the block path's check: a bound linear in |x| per block,
max |D - D^H| <= sum_k |x_k| max |G_k - G_k^H|, whose maximum over the
solved rows is held against max(1, max over those rows of
sqrt(r^2 - delta) / s), a lower bound of the block path's scale.  Both
refusals are kept per block and reduced over the rows a spectrum takes, so
a scale's refusal stands for the block path's check of its operator, and
the limit's for limit_operator's.

The symbols are scale-free and built once per plan (mapping._MappingPlan)
from the plan's block table, the rows that its block path and limit read
too; solve takes the orbit fiber momenta of all wanted scales at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spectral import HERMITICITY_TOL, RESIDUAL_TOL, STRUCTURE_TOL, Spectrum, _default_tol
from .spectral import _NOT_HERMITIAN, _stack_values

# the message of an operator whose symbol couples distinct twist sectors;
# the symbol path refuses with it and _NOT_HERMITIAN where the block path would
_COUPLED = "operator symbol couples distinct twist sectors"


@dataclass(frozen=True, eq=False)
class _SymbolSolution:
    """Symbol spectra of a plan's blocks at E fiber scales, solved in one
    pass (see the module docstring).  Per scale and orbit, the plan's flag
    of whether the symbol couples distinct twist sectors; per scale and
    block, the Hermiticity bound herm, the block scale bscale, whether the
    block is certified, r and the count of +r (floats, integral where
    certified); per block, its orbit and size; and blocks(i, rows), the
    stacks by size class of scale i's blocks at the given rows, formed from
    the plan's block table."""

    coupled: np.ndarray
    herm: np.ndarray
    bscale: np.ndarray
    certified: np.ndarray
    r: np.ndarray
    npos: np.ndarray
    orbit: np.ndarray
    sizes: np.ndarray
    truncation: int
    blocks: Callable[[int, np.ndarray], list[np.ndarray]]

    def at(self, i: int, rows: slice = slice(None)) -> Spectrum:
        """Spectrum of scale i over the rows given (all, or one orbit's):
        each certified block b takes -r[b] (s - n+ times) and +r[b] (n+
        times); the others are formed and solved by one batched eigh per
        size class with its residual check.  Raises first, in the block
        path's order, the refusals of those rows: coupling over their
        orbits, then Hermiticity against their largest block scale."""
        if np.take(self.coupled[i], self.orbit[rows]).any():
            raise ValueError(_COUPLED)
        resid = np.max(self.herm[i, rows], initial=0.0)
        if resid > HERMITICITY_TOL * np.max(self.bscale[i, rows], initial=1.0):
            raise ValueError(_NOT_HERMITIAN.format(residual=float(resid)))
        ok, r, sizes = self.certified[i, rows], self.r[i, rows], self.sizes[rows]
        npos = self.npos[i, rows].astype(np.intp)
        npos *= ok
        chunks = [np.repeat(-r, (sizes - npos) * ok), np.repeat(r, npos)]
        if not ok.all():
            at = np.arange(len(self.sizes))[rows][~ok]
            chunks += [_stack_values(stack).ravel() for stack in self.blocks(i, at)]
        values = np.concatenate(chunks)
        return Spectrum(
            values=values, cluster_tol=_default_tol(values), source_truncation=self.truncation
        )


@dataclass(frozen=True, eq=False)
class _BlockSymbols:
    """Scale-free symbols of a plan's blocks; see the module docstring.

    Per block (B), in row order: the orbit whose fiber momentum it takes
    (ascending), its twist cluster (the index of its cluster constants), its
    base momentum beta and its size s.  Per cluster (C, batch-last), for the
    restricted gammas G_k = q_c^H gamma_k q_c (fiber directions, then the
    base): their real traces (n, C) and max |G_k - G_k^H| (n, C).  Per orbit
    and cluster at the orbit's unit-scale fiber momentum, the norms a and b
    (O, C), and per cluster c (C,).
    """

    orbit: np.ndarray
    cluster: np.ndarray
    beta: np.ndarray
    sizes: np.ndarray
    trace: np.ndarray
    skew: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def solve(
        self, p: np.ndarray, w: np.ndarray, truncation: int, coupled: np.ndarray, blocks
    ) -> _SymbolSolution:
        """The certificates at the orbit fiber momenta p (E, O, m) of E fiber
        scales, their unit-scale momenta times w (E,), 1 / eps, in one pass,
        with the plan's coupling flags (E, O) of those momenta and its
        blocks routine (see _SymbolSolution); see the module docstring.

        The sums over directions k of a block, with x = (p of its orbit,
        beta), split into a fiber part, summed per scale, orbit and cluster
        (E, O, C) and then taken per block, and a base part in beta.  The
        fiber terms are summed first and in order of k, as a sum over all of
        x in order of k does, so r and the traces round alike."""
        n_scales, n_orbits, m = p.shape
        ap = np.abs(p)
        pp = np.zeros((n_scales, n_orbits))
        for k in range(m):
            pp += p[..., k] * p[..., k]
        # per scale, orbit and cluster: the fiber parts of tr H and of the
        # skew bound
        shape = (n_scales, n_orbits, self.trace.shape[1])
        tr_f, skew_f = np.zeros(shape), np.zeros(shape)
        for k in range(m):
            tr_f += p[..., k, None] * self.trace[k]
            skew_f += ap[..., k, None] * self.skew[k]
        entry = self.orbit * shape[2] + self.cluster

        def per_block(a: np.ndarray) -> np.ndarray:
            return np.take(a.reshape(n_scales, shape[1] * shape[2]), entry, axis=1)

        # herm and bscale are kept per block for the solution; the other
        # (E, B) arrays are updated in place and dropped once used, so that
        # few of them live at a time
        c = self.cluster
        beta, abeta = self.beta, np.abs(self.beta)
        herm = per_block(skew_f)
        herm += abeta * self.skew[m, c]
        # delta = a / eps^2 + |beta| b / eps + beta^2 c
        delta = np.outer(w * w, self.a.ravel()[entry])
        delta += np.outer(w, abeta * self.b.ravel()[entry])
        delta += beta * beta * self.c[c]
        r2 = np.take(pp, self.orbit, axis=1)
        r2 += beta * beta
        # bscale = max(1, sqrt(max(r2 - delta, 0)) / s)
        bscale = r2 - delta
        np.maximum(bscale, 0.0, out=bscale)
        np.sqrt(bscale, out=bscale)
        bscale /= self.sizes
        np.maximum(bscale, 1.0, out=bscale)
        r = np.sqrt(r2)
        ok = self.sizes * delta < r2
        ok &= delta <= bscale * RESIDUAL_TOL * r
        del delta, r2
        zero = r == 0.0
        # nplus = (s + tr H / r) / 2
        nplus = per_block(tr_f)
        nplus += beta * self.trace[m, c]
        nplus /= np.where(zero, 1.0, r)
        nplus += self.sizes
        nplus *= 0.5
        npos = np.rint(nplus)
        ok &= np.abs(nplus - npos) <= STRUCTURE_TOL
        del nplus
        np.copyto(npos, self.sizes, where=zero)
        return _SymbolSolution(
            coupled, herm, bscale, ok | zero, r, npos, self.orbit, self.sizes, truncation, blocks
        )


def _block_symbols(
    orbit: np.ndarray, cluster: np.ndarray, beta: np.ndarray, sizes: np.ndarray,
    unit: np.ndarray, clusters,
) -> _BlockSymbols:
    """Symbols of a plan's blocks from its block table (mapping._MappingPlan):
    per block in row order its orbit, cluster, beta and size, the orbits'
    unit-scale fiber momenta (O, m), and per cluster size the clusters'
    numbers, lift-basis columns (unused here) and restricted gammas
    (C_s, n, s, s).  All clusters are reduced at once, their gammas padded
    with zeros to the largest size, which leaves every product, trace and
    norm unchanged.  With the Hermitian parts H_k, H^2 - r^2 I =
    1/2 sum_kl x_k x_l (H_k H_l + H_l H_k - 2 delta_kl I), whose fiber-fiber,
    fiber-base and base-base parts have the norms a, |beta| b and beta^2 c."""
    stacks = [(ids, gammas) for ids, _, gammas in clusters]
    n, s = stacks[0][1].shape[1], max(gammas.shape[-1] for _, gammas in stacks)
    m, count = unit.shape[1], sum(len(ids) for ids, _ in stacks)
    gc, eye = np.zeros((count, n, s, s), dtype=complex), np.zeros((count, s, s))
    for ids, gammas in stacks:
        d = gammas.shape[-1]
        gc[ids, :, :d, :d] = gammas
        eye[ids, :d, :d] = np.eye(d)
    skew = gc - gc.conj().swapaxes(-1, -2)
    h = gc - 0.5 * skew
    prod = h[:, :, None] @ h[:, None]
    anti = prod + prod.swapaxes(1, 2)
    # the (k, k) pairs, a strided view of the flattened pair axis
    anti.reshape(count, n * n, s, s)[:, :: n + 1] -= 2.0 * eye[:, None]
    # the fiber-fiber and fiber-base parts (C, O, s * s) at unit scale, each
    # one matmul of the flattened pairs with p_k p_l or p_k
    flat = anti.reshape(count, n, n, s * s)
    pairs = (unit[:, :, None] * unit[:, None]).reshape(len(unit), m * m)
    fiber, cross = pairs @ flat[:, :m, :m].reshape(count, m * m, s * s), unit @ flat[:, :m, m]
    a, b, c = (np.sqrt(np.sum(np.abs(x) ** 2, axis=-1)) for x in (fiber, cross, flat[:, m, m]))
    trace = np.trace(gc, axis1=-2, axis2=-1).real.T
    skew_max = np.abs(skew).reshape(count, n, -1).max(axis=-1).T
    return _BlockSymbols(orbit, cluster, beta, sizes, trace, skew_max, 0.5 * a.T, b.T, 0.5 * c)
