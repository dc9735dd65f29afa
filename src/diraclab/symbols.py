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

The block path's two refusals are evaluated so that each is at least
as strict as its block-path check.  Twist-sector coupling, per orbit
whose twist sector has more than one cluster: the entries dirac_blocks
drops are measured as it measures them, from the sector-basis fiber
symbol F(p) = sum_k p_k F_k itself, against the same scale, so an orbit
is refused exactly where the block path refuses it (as for a mode on the
axis of a rank-3 rotation, F(p) may commute with the twist although no
single F_k does).  Hermiticity, a bound linear in |x| over all blocks
as AssembledOperator checks it: max |D - D^H| <= sum_k |x_k|
max |G_k - G_k^H|, against max(1, max over blocks of
sqrt(r^2 - delta) / s), a lower bound of the block path's scale.

The symbols are scale-free and built once per plan (assembly._MappingPlan);
solve takes the orbit fiber momenta of all wanted scales at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import HERMITICITY_TOL, RESIDUAL_TOL, STRUCTURE_TOL, Spectrum, _default_tol

# the message of an assembled operator that fails its Hermiticity check; the
# symbol path refuses with it where the block path would
_NOT_HERMITIAN = "assembled operator is not Hermitian (residual {residual:.3e})"


@dataclass(frozen=True, eq=False)
class _CertifiedSpectrum:
    """Certified spectrum of a set of blocks: block b has the eigenvalue
    -r[b] nneg[b] times and +r[b] npos[b] times."""

    r: np.ndarray
    nneg: np.ndarray
    npos: np.ndarray
    truncation: int

    def spectrum(self) -> Spectrum:
        values = np.concatenate([np.repeat(-self.r, self.nneg), np.repeat(self.r, self.npos)])
        return Spectrum(
            values=values, cluster_tol=_default_tol(values), source_truncation=self.truncation
        )


@dataclass(frozen=True, eq=False)
class _SymbolSolution:
    """Symbol spectra of a plan's blocks at E fiber scales, solved in one
    pass (see the module docstring).  Per scale: whether the symbol
    couples distinct twist sectors, the Hermiticity residual and its limit,
    and whether every block is certified; per scale and block, r and the
    count of +r (floats, integral where certified); per block, its size."""

    coupled: np.ndarray
    resid: np.ndarray
    limit: np.ndarray
    certified: np.ndarray
    r: np.ndarray
    npos: np.ndarray
    sizes: np.ndarray
    truncation: int

    def at(self, i: int) -> _CertifiedSpectrum | None:
        """Certified spectrum of scale i, or None when a block fails its
        certificate and the caller takes the block path.  Raises, in the
        block path's order, scale i's refusals: coupling, then Hermiticity."""
        if self.coupled[i]:
            raise ValueError("operator symbol couples distinct twist sectors")
        if self.resid[i] > self.limit[i]:
            raise ValueError(_NOT_HERMITIAN.format(residual=float(self.resid[i])))
        if not self.certified[i]:
            return None
        npos = self.npos[i].astype(np.intp)
        return _CertifiedSpectrum(self.r[i], self.sizes - npos, npos, self.truncation)


@dataclass(frozen=True, eq=False)
class _BlockSymbols:
    """Scale-free symbols of a plan's blocks; see the module docstring.

    Per block (B), in no particular order: the orbit whose fiber momentum it
    takes, its twist cluster (the index of its cluster constants), its base
    momentum beta and its size s.  Per cluster (C, batch-last), for the
    restricted gammas G_k = q_c^H gamma_k q_c (fiber directions, then the
    base): their real traces (n, C), the Clifford defects
    A_kl = ||H_k H_l + H_l H_k - 2 delta_kl I||_F of their Hermitian parts
    H_k (n, n, C), and max |G_k - G_k^H| (n, C).  For the gammas
    F_k = q^H gamma_k q in the lift basis, per orbit: the largest entry of
    the base F_m that joins two clusters of the orbit's twist sector (zero
    when the sector has one cluster), max(1, max |F_m|), and the mask of
    the entries that join two clusters of its twist sector
    (O, dim_v, dim_v); and once, the fiber F_k (m, dim_v, dim_v).
    """

    orbit: np.ndarray
    cluster: np.ndarray
    beta: np.ndarray
    sizes: np.ndarray
    trace: np.ndarray
    defect: np.ndarray
    skew: np.ndarray
    base_leak: np.ndarray
    base_max: np.ndarray
    coupling: np.ndarray
    fiber: np.ndarray

    def orbit_part(self, orbit: int) -> _BlockSymbols:
        """The symbols of one orbit's blocks, as orbit 0."""
        rows = self.orbit == orbit
        return _BlockSymbols(
            np.zeros(np.count_nonzero(rows), dtype=np.intp),
            self.cluster[rows],
            self.beta[rows],
            self.sizes[rows],
            self.trace,
            self.defect,
            self.skew,
            self.base_leak[[orbit]],
            self.base_max[[orbit]],
            self.coupling[[orbit]],
            self.fiber,
        )

    def solve(self, p: np.ndarray, truncation: int) -> _SymbolSolution:
        """The certificates at the orbit fiber momenta p (E, O, m) of E fiber
        scales, in one pass; see the module docstring.

        The sums over directions k of a block, with x = (p of its orbit,
        beta), split into a fiber part, summed per scale, orbit and cluster
        (E, O, C) and then taken per block, and a base part in beta.  The
        fiber terms are summed first and in order of k, as a sum over all of
        x in order of k does, so r and the traces round alike.  The Clifford
        defects are symmetric in k and l, so the fiber-base pairs of
        1/2 |x|^T A |x| enter once, doubled."""
        n_scales, n_orbits, m = p.shape
        ap = np.abs(p)
        # per scale and orbit with a coupling mask: the entries of F(p) that
        # dirac_blocks drops, against its scale
        coupled = np.zeros(n_scales, dtype=bool)
        masked = np.flatnonzero(self.coupling.any(axis=(1, 2)))
        if len(masked):
            f = np.abs(np.einsum("eok,kij->eoij", p[:, masked], self.fiber))
            leak = np.max(f, axis=(2, 3), where=self.coupling[masked], initial=0.0)
            leak = np.maximum(leak, self.base_leak[masked])
            scale = np.maximum(self.base_max[masked], np.max(f, axis=(2, 3)))
            coupled = np.any(leak > STRUCTURE_TOL * scale, axis=1)
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


def _block_symbols(groups: tuple, gammas_q: np.ndarray, orbits: int) -> _BlockSymbols:
    """Symbols of the blocks of a plan's orbit groups (assembly._OrbitGroup),
    whose members number orbits in all; gammas_q are the module's gammas in
    the lift basis.  Each group's
    clusters are clusters of the symbols, and the clusters of one size are
    reduced as one stack."""
    n = len(gammas_q)
    m = n - 1
    base_leak = np.zeros(orbits)
    base_max = np.ones(orbits)
    coupling = np.zeros((orbits,) + gammas_q.shape[1:], dtype=bool)
    orbit, beta, by_size = [], [], {}
    for g in groups:
        sec = g.sector
        if sec.coupling.any():
            base_leak[g.members] = sec.gb_leak
            coupling[g.members] = sec.coupling
        base_max[g.members] = max(1.0, sec.gb_max)
        members = np.repeat(g.members, g.betas[0].shape[1])
        for (rows, cols), b in zip(sec.grids, g.betas):
            by_size.setdefault(len(rows), []).append((len(orbit), gammas_q[:, rows, cols]))
            orbit.append(members)
            beta.append(b.ravel())
    counts = np.array([len(o) for o in orbit])
    sizes = np.zeros(len(orbit), dtype=np.intp)
    consts = [np.zeros((n, len(orbit))), np.zeros((n, n, len(orbit))), np.zeros((n, len(orbit)))]
    for s, items in by_size.items():
        index = [i for i, _ in items]
        sizes[index] = s
        for out, c in zip(consts, _cluster_constants(np.stack([gc for _, gc in items]))):
            out[..., index] = c
    return _BlockSymbols(
        np.concatenate(orbit),
        np.repeat(np.arange(len(counts)), counts),
        np.concatenate(beta),
        np.repeat(sizes, counts),
        *consts,
        base_leak, base_max, coupling, gammas_q[:m],
    )
