"""Certified spectra of a mapping-torus plan's blocks from their symbols:
the package's one closed-form certificate, for the spectrum +-r that the
Bochner identity gives every block on the flat models.  eigensolve solves
every block it refuses with eigh.

A block is D = sum_k x_k G_k with x = (p, beta), p the fiber momentum
of its orbit and G_k the gammas restricted to its twist cluster of s
rows.  The certificate is for its Hermitian part H = sum_k x_k H_k;
D - H is bounded by the Hermiticity check below.  With r^2 =
|p|^2 + beta^2,

    H^2 - r^2 I = 1/2 sum_kl x_k x_l (H_k H_l + H_l H_k - 2 delta_kl I),

so ||H^2 - r^2 I||_2 <= ||H^2 - r^2 I||_F <= delta = 1/2 |x|^T A |x|,
A the cluster's Clifford defects.  By Weyl's inequality each eigenvalue
lam^2 of H^2 lies within delta of r^2, so ||lam| - r| <= delta / r.
With n+ = (s + tr H / r) / 2, where tr H = p . t_c + beta tb_c from the
cluster's traces, a block takes -r (s - n+ times) and +r (n+ times)
only when s delta < r^2 (so r > 0), delta / r <= RESIDUAL_TOL *
max(1, sqrt(r^2 - delta) / s), and n+ lies within STRUCTURE_TOL of an
integer.  Every eigenvalue then lies within delta / r < r / s of +r or
-r, so the signs split cleanly; with n of them positive, tr H / r is
within s delta / r^2 < 1 of n - (s - n), so the rounded n+ is n, and
the sorted values match the eigenvalues to within delta / r.  The block
scale is at most eigensolve's max(1, max |D_ij|), as sqrt(r^2 - delta)
<= ||H||_2 <= s max |H_ij| <= s max |D_ij|, so that error meets
eigensolve's residual tolerance.  A block with x = 0 is exactly zero
and gives s zeros.  Traces and defects do not depend on the scale, so
every fiber scale is solved from the same constants in one vector pass.

Twist-sector coupling is not checked here: the plan's one check
(assembly._MappingPlan.coupled) flags every scale, for this path and the
block path alike, and solve takes its flags.  The block path's other
refusal, Hermiticity, is evaluated so that it is at least as strict as the
block path's check: a bound linear in |x| over all blocks as
AssembledOperator checks it, max |D - D^H| <= sum_k |x_k| max |G_k - G_k^H|,
against max(1, max over blocks of sqrt(r^2 - delta) / s), a lower bound of
the block path's scale.

The symbols are scale-free and built once per plan (assembly._MappingPlan)
from the plan's block table, the rows that its block path and limit read
too; solve takes the orbit fiber momenta of all wanted scales at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import HERMITICITY_TOL, RESIDUAL_TOL, STRUCTURE_TOL, Spectrum, _default_tol

# the messages of an operator whose symbol couples distinct twist sectors
# and of an assembled operator that fails its Hermiticity check; the symbol
# path refuses with them where the block path would
_COUPLED = "operator symbol couples distinct twist sectors"
_NOT_HERMITIAN = "assembled operator is not Hermitian (residual {residual:.3e})"


@dataclass(frozen=True, eq=False)
class _SymbolSolution:
    """Symbol spectra of a plan's blocks at E fiber scales, solved in one
    pass (see the module docstring).  Per scale: the plan's flag of whether
    the symbol couples distinct twist sectors, the Hermiticity residual and
    its limit, and whether every block is certified; per scale and block, r
    and the count of +r (floats, integral where certified); per block, its
    size."""

    coupled: np.ndarray
    resid: np.ndarray
    limit: np.ndarray
    certified: np.ndarray
    r: np.ndarray
    npos: np.ndarray
    sizes: np.ndarray
    truncation: int

    def at(self, i: int) -> Spectrum | None:
        """Certified spectrum of scale i, each block b taking -r[b] (s - n+
        times) and +r[b] (n+ times), or None when a block fails its
        certificate and the caller takes the block path.  Raises, in the
        block path's order, scale i's refusals: coupling, then Hermiticity."""
        if self.coupled[i]:
            raise ValueError(_COUPLED)
        if self.resid[i] > self.limit[i]:
            raise ValueError(_NOT_HERMITIAN.format(residual=float(self.resid[i])))
        if not self.certified[i]:
            return None
        npos = self.npos[i].astype(np.intp)
        r = self.r[i]
        values = np.concatenate([np.repeat(-r, self.sizes - npos), np.repeat(r, npos)])
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
    base): their real traces (n, C), the Clifford defects
    A_kl = ||H_k H_l + H_l H_k - 2 delta_kl I||_F of their Hermitian parts
    H_k (n, n, C), and max |G_k - G_k^H| (n, C).
    """

    orbit: np.ndarray
    cluster: np.ndarray
    beta: np.ndarray
    sizes: np.ndarray
    trace: np.ndarray
    defect: np.ndarray
    skew: np.ndarray

    def orbit_part(self, orbit: int) -> _BlockSymbols:
        """The symbols of one orbit's blocks, as orbit 0."""
        rows = slice(*np.searchsorted(self.orbit, [orbit, orbit + 1]))
        return _BlockSymbols(
            np.zeros(rows.stop - rows.start, dtype=np.intp),
            self.cluster[rows],
            self.beta[rows],
            self.sizes[rows],
            self.trace,
            self.defect,
            self.skew,
        )

    def solve(self, p: np.ndarray, truncation: int, coupled: np.ndarray) -> _SymbolSolution:
        """The certificates at the orbit fiber momenta p (E, O, m) of E fiber
        scales, in one pass, with the plan's coupling flags (E,) of those
        momenta; see the module docstring.

        The sums over directions k of a block, with x = (p of its orbit,
        beta), split into a fiber part, summed per scale, orbit and cluster
        (E, O, C) and then taken per block, and a base part in beta.  The
        fiber terms are summed first and in order of k, as a sum over all of
        x in order of k does, so r and the traces round alike.  The Clifford
        defects are symmetric in k and l, so the fiber-base pairs of
        1/2 |x|^T A |x| enter once, doubled."""
        n_scales, n_orbits, m = p.shape
        ap = np.abs(p)
        pp = np.zeros((n_scales, n_orbits))
        for k in range(m):
            pp += p[..., k] * p[..., k]
        # per scale, orbit and cluster: the fiber parts of tr H, of the
        # skew bound, and of the defect bound (fiber pairs, fiber-base pairs)
        shape = (n_scales, n_orbits, self.trace.shape[1])
        tr_f, skew_f, pairs_f, base_f = (np.zeros(shape) for _ in range(4))
        for k in range(m):
            pk, apk = p[..., k, None], ap[..., k, None]
            tr_f += pk * self.trace[k]
            skew_f += apk * self.skew[k]
            base_f += apk * self.defect[k, m]
            for l in range(m):
                pairs_f += apk * self.defect[k, l] * ap[..., l, None]
        entry = self.orbit * shape[2] + self.cluster

        def per_block(a: np.ndarray) -> np.ndarray:
            return np.take(a.reshape(n_scales, shape[1] * shape[2]), entry, axis=1)

        # (E, B) arrays are updated in place and dropped once used, so that
        # few of them live at a time
        c = self.cluster
        beta, abeta = self.beta, np.abs(self.beta)
        herm = per_block(skew_f)
        herm += abeta * self.skew[m, c]
        resid = np.max(herm, axis=1, initial=0.0)
        del herm
        delta = per_block(base_f)
        delta *= 2.0 * abeta
        delta += per_block(pairs_f)
        delta += beta * beta * self.defect[m, m, c]
        delta *= 0.5
        r2 = np.take(pp, self.orbit, axis=1)
        r2 += beta * beta
        # bscale = max(1, sqrt(max(r2 - delta, 0)) / s)
        bscale = r2 - delta
        np.maximum(bscale, 0.0, out=bscale)
        np.sqrt(bscale, out=bscale)
        bscale /= self.sizes
        np.maximum(bscale, 1.0, out=bscale)
        limit = HERMITICITY_TOL * np.max(bscale, axis=1, initial=1.0)
        r = np.sqrt(r2)
        ok = self.sizes * delta < r2
        bscale *= RESIDUAL_TOL
        bscale *= r
        ok &= delta <= bscale
        del bscale, delta, r2
        zero = np.take(~p.any(axis=2), self.orbit, axis=1) & (beta == 0.0)
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
            coupled=coupled,
            resid=resid,
            limit=limit,
            certified=np.all(ok | zero, axis=1),
            r=r,
            npos=npos,
            sizes=self.sizes,
            truncation=truncation,
        )


def _cluster_constants(gc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Traces, Clifford defects and skew parts (see _BlockSymbols) of a
    (C, n, s, s) stack of restricted gammas, batch-last."""
    n, s = gc.shape[1], gc.shape[-1]
    skew = gc - gc.conj().swapaxes(-1, -2)
    h = gc - 0.5 * skew
    prod = h[:, :, None] @ h[:, None]
    anti = prod + prod.swapaxes(1, 2)
    # the (k, k) pairs, a strided view of the flattened pair axis
    anti.reshape(len(gc), n * n, s, s)[:, :: n + 1] -= 2.0 * np.eye(s)
    return (
        np.trace(gc, axis1=-2, axis2=-1).real.T,
        np.sqrt(np.sum(np.abs(anti) ** 2, axis=(-2, -1))).transpose(1, 2, 0),
        np.abs(skew).reshape(len(gc), n, -1).max(axis=-1).T,
    )


def _block_symbols(
    orbit: np.ndarray, cluster: np.ndarray, beta: np.ndarray, sizes: np.ndarray, clusters
) -> _BlockSymbols:
    """Symbols of a plan's blocks from its block table (assembly._MappingPlan):
    per block in row order its orbit, cluster, beta and size, and per
    cluster size the clusters' numbers, lift-basis columns (unused here) and
    restricted gammas (C_s, n, s, s), each stack reduced at once."""
    stacks = [(ids, gammas) for ids, _, gammas in clusters]
    n, count = stacks[0][1].shape[1], sum(len(ids) for ids, _ in stacks)
    consts = [np.zeros((n, count)), np.zeros((n, n, count)), np.zeros((n, count))]
    for ids, gammas in stacks:
        for out, c in zip(consts, _cluster_constants(gammas)):
            out[..., ids] = c
    return _BlockSymbols(orbit, cluster, beta, sizes, *consts)
