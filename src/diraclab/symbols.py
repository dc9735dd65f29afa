"""Certified spectra of a mapping-torus plan's blocks from their symbols:
the package's one closed-form certificate, for the spectrum +-r that the
Bochner identity gives every block on the flat models.  The certificate is
one check per (orbit, twist cluster) pair, scale-free: a plan one of whose
pairs fails it is refused by name, once for every scale and row, and no
block is ever formed.

A block of s rows is D = F + beta G (mapping._MappingPlan._blocks): its
fiber part F, q^H gamma(p) q on its twist cluster's lift-basis columns q at
the fiber momentum p of its orbit, plus beta times its cluster's base gamma
G.  The certificate is for its Hermitian part H = H_F + beta H_G; the
plan's one Hermiticity check (mapping._plan) bounds D - H.  F is linear in
p, so with p = |p| u, u the unit direction of the orbit's momentum at every
scale (u = 0 on the zero-mode orbit), and r^2 = |p|^2 + beta^2,

    H^2 - r^2 I = |p|^2 (H_F(u)^2 - I) + |p| beta {H_F(u), H_G}
                  + beta^2 (H_G^2 - I).

_block_symbols measures once per pair the Frobenius norms a = ||H_F(u)^2 -
|u|^2 I|| (0 on the zero-mode orbit), b = ||{H_F(u), H_G}|| and c = ||H_G^2
- I||.  As |beta| |p| <= r^2 / 2, ||H^2 - r^2 I||_2 <= delta = kappa r^2,
kappa = a + b / 2 + c, for every block of the pair at every scale and beta;
on a plan whose every beta is 0 (a flat torus's, whose G is 0), H = H_F
and kappa = a.  _SymbolSolution.solve refuses a plan one of whose pairs
has s kappa > RESIDUAL_TOL / 2.  Otherwise, for r > 0, by
Weyl's inequality each eigenvalue lam^2 of H^2 lies within delta of r^2,
so ||lam| - r| <= delta / r = kappa r, and

  - s delta = s kappa r^2 < r^2: every eigenvalue lies within kappa r <
    r / s of +r or -r, so the signs split cleanly;
  - with n of them positive, tr H / r is within s delta / r^2 = s kappa of
    n - (s - n), so n+ = (s + tr H / r) / 2 lies within RESIDUAL_TOL / 4,
    far inside STRUCTURE_TOL, of the integer n, and rint gives n;
  - kappa r <= RESIDUAL_TOL r / (2 s) <= RESIDUAL_TOL sqrt(r^2 - delta) / s,
    as sqrt(1 - kappa) >= 1/2, so the sorted values -r (s - n+ times) and
    +r (n+ times) match the eigenvalues to within RESIDUAL_TOL times
    eigensolve's block scale max(1, max |D_ij|): sqrt(r^2 - delta) <=
    ||H||_2 <= s max |H_ij| <= s max |D_ij|.

These three are what a block needs for its closed form, each met with at
least a factor of two to spare.  Rounding in a, b and c is O(u (m + s)),
u the unit roundoff, as each is a short sum of products of entries bounded
by the gammas' and the unit direction's, so the computed s kappa is within
O(u s (m + s)) of the true one, far inside RESIDUAL_TOL / 2.  Rounding in
r^2, tr H = |p| tr F(u) + beta tr G and in F(p) = |p| F(u) itself is
O(u (m + s)) r.  These move ||lam| - r| by O(u (m + s)) r, the order of
eigh's own backward error, and n+ by O(u s): for s <= 16 over a thousand
times below the spare RESIDUAL_TOL r / (2 s).  A block whose r^2 is below
the smallest normal float takes s zeros: its |lam| <= r sqrt(1 + kappa) is
below 1.5e-154, far below the residual tolerance, and r^2 is computed to
full relative precision wherever it is normal.

The norms are exact where a bound over pairs of directions is not: a
cluster that mixes the fiber gammas (the FCC cyclic models) leaves each
restricted gamma far from squaring to I, while H_F(u)^2 = I, as the plan's
build-time coupling check keeps the cluster invariant under F(u).

The limit's blocks are the zero-mode orbit's, whose fiber momentum is 0 at
every scale, so every scale's solution holds the limit's spectrum in those
rows, and _SymbolSolution.at reads it off them.  at reads values alone and
never refuses.

Twist-sector coupling is not checked here: a plan whose symbol couples
distinct twist sectors is refused once, scale-free, when it is built
(mapping._plan), so every plan that reaches the symbols has none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import RESIDUAL_TOL, Spectrum, _default_tol


@dataclass(frozen=True, eq=False)
class _SymbolSolution:
    """Symbol spectra of a plan's blocks at E fiber scales, solved in one
    pass (see the module docstring): the plan, whose block table gives each
    block's size, and per scale and block, r and the count of +r."""

    plan: object
    r: np.ndarray
    npos: np.ndarray

    @classmethod
    def solve(cls, plan, p: np.ndarray) -> _SymbolSolution:
        """The spectra at the orbit fiber momenta p (E, O, m) of E fiber
        scales, from the symbols of the plan's pairs (plan.symbols); refuses
        first, once for every scale and row, a pair of the plan that breaks
        the Clifford relations.  r^2 sums |p|^2 in order of k and then adds
        beta^2, as a sum over all of x = (p of its orbit, beta) in order of
        k does."""
        skappa, trace_f, trace_g = plan.symbols
        worst = float(np.max(skappa))
        if worst > RESIDUAL_TOL / 2:
            raise ValueError(f"operator symbol breaks the Clifford relations (residual {worst:.3e})")
        pp = np.zeros(p.shape[:2])
        for k in range(p.shape[2]):
            pp += p[..., k] * p[..., k]
        orbit, pair, beta, sizes = plan.orbit, plan.pair, plan.beta, plan.block_info.sizes
        r2 = np.take(pp, orbit, axis=1)
        r2 += beta * beta
        zero = r2 < np.finfo(float).tiny
        # n+ = (s + tr H / r) / 2, tr H = |p| tr F(u) + beta tr G
        nplus = np.take(np.sqrt(pp), orbit, axis=1)
        nplus *= trace_f[pair]
        nplus += beta * trace_g[pair]
        r = np.sqrt(r2, out=r2)
        r[zero] = 0.0
        nplus /= np.where(zero, 1.0, r)
        nplus += sizes
        nplus *= 0.5
        npos = np.where(zero, sizes, np.rint(nplus).astype(np.intp))
        return cls(plan, r, npos)

    def at(self, i: int, rows: slice = slice(None)) -> Spectrum:
        """Spectrum of scale i over the rows given (all, or one orbit's):
        each block b takes -r[b] (s - n+ times) and +r[b] (n+ times)."""
        r, npos, sizes = self.r[i, rows], self.npos[i, rows], self.plan.block_info.sizes[rows]
        values = np.concatenate([np.repeat(-r, sizes - npos), np.repeat(r, npos)])
        return Spectrum(
            values=values, cluster_tol=_default_tol(values), source_truncation=self.plan.truncation
        )


def _block_symbols(unit: np.ndarray, has_base: bool, parts) -> np.ndarray:
    """Scale-free symbols of a plan's pairs (mapping._MappingPlan), (3, P):
    per pair s kappa (see the module docstring) and the real traces of F
    and G, from unit (P, m), its orbit's unit fiber direction (or 0),
    whether some beta of the plan is nonzero, and parts, the plan's
    _pair_parts at those directions.  The pairs' F and G are padded with
    zeros to the largest size, which leaves every product, trace and norm
    unchanged, and reduced at once to a = ||H_F^2 - |u|^2 I||, b =
    ||{H_F, H_G}|| and c = ||H_G^2 - I||."""
    parts = list(parts)
    s = max(fiber.shape[-1] for _, fiber, _ in parts)
    fg, eye = np.zeros((2, len(unit), s, s), dtype=complex), np.zeros((len(unit), s, s))
    sizes = np.zeros(len(unit))
    for at, fiber, base in parts:
        d = fiber.shape[-1]
        fg[0, at, :d, :d], fg[1, at, :d, :d], eye[at, :d, :d] = fiber, base, np.eye(d)
        sizes[at] = d
    h = fg - 0.5 * (fg - fg.conj().swapaxes(-1, -2))
    # H_F H_F, H_F H_G and H_G H_G; H_G H_F is the adjoint of the second
    prod = h[[0, 0, 1]] @ h[[0, 1, 1]]
    prod[0] -= np.sum(unit * unit, axis=1)[:, None, None] * eye
    prod[1] += prod[1].conj().swapaxes(-1, -2)
    prod[2] -= eye
    a, b, c = np.sqrt(np.sum(np.abs(prod) ** 2, axis=(-2, -1)))
    traces = np.trace(fg, axis1=-2, axis2=-1).real
    return np.vstack([sizes * (a + has_base * (0.5 * b + c)), traces])
