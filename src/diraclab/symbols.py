"""Certified spectra of a mapping-torus plan's blocks from their symbols:
the package's one closed-form certificate, for the spectrum +-r that the
Bochner identity gives every block on the flat models.  Blocks it refuses
are formed from the plan's block table and solved by eigh.

A block of s rows is D = F + beta G (mapping._MappingPlan._blocks): its
fiber part F, q^H gamma(p) q on its twist cluster's lift-basis columns q at
the fiber momentum p of its orbit, plus beta times its cluster's base gamma
G.  The certificate is for its Hermitian part H = H_F + beta H_G; the
plan's one Hermiticity check (mapping._plan) bounds D - H.  With
r^2 = |p|^2 + beta^2,

    H^2 - r^2 I = (H_F^2 - |p|^2 I) + beta {H_F, H_G} + beta^2 (H_G^2 - I).

At fiber scale eps, p is the orbit's unit-scale momentum over eps, so the
three terms have the Frobenius norms a / eps^2, |beta| b / eps and
beta^2 c: a = ||H_F^2 - |p|^2 I|| and b = ||{H_F, H_G}|| at unit scale
and c = ||H_G^2 - I||, measured once per plan and pair, an (orbit, twist
cluster) combination of the block table, on the parts the plan forms its
blocks from (_MappingPlan._pair_parts), at unit scale up to an exact power
of two.  So ||H^2 - r^2 I||_2 <= delta = a / eps^2 + |beta| b / eps +
beta^2 c.  By Weyl's inequality each eigenvalue lam^2 of H^2 lies within
delta of r^2, so ||lam| - r| <= delta / r.
With n+ = (s + tr H / r) / 2, where tr H = tr F / eps + beta tr G from the
pair's traces, a block takes -r (s - n+ times) and +r (n+ times) only
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
restricted gamma far from squaring to I, while H_F^2 = |p|^2 I, as the
plan's coupling check keeps the cluster invariant under gamma(p).  Rounding
in a, b, c, p / eps and r^2 is O(u (m + s)) r^2, u the unit roundoff, as
each is a short sum of products of entries bounded by |x| and the gammas'.
It moves ||lam| - r| by O(u (m + s)) r: the order of eigh's own backward
error, and for s <= 16 over a thousand times below RESIDUAL_TOL * max(1,
r / s).

Twist-sector coupling is not checked here: solve takes the flags of the
plan's one check (mapping._MappingPlan.coupled) at the orbit fiber momenta
of all wanted scales at once, and a spectrum reduces them over its orbits,
as the block path's check of its operator, or limit_operator's, would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spectral import RESIDUAL_TOL, STRUCTURE_TOL, Spectrum, _default_tol, _stack_values

# the message of an operator whose symbol couples distinct twist sectors, in
# the symbol path as in the block path
_COUPLED = "operator symbol couples distinct twist sectors"


@dataclass(frozen=True, eq=False)
class _SymbolSolution:
    """Symbol spectra of a plan's blocks at E fiber scales, solved in one
    pass (see the module docstring).  Per scale and orbit, the plan's flag
    of whether the symbol couples distinct twist sectors; per scale and
    block, whether the block is certified, r and the count of +r (floats,
    integral where certified); per block, its orbit and size; and
    blocks(i, rows), the stacks by size class of scale i's blocks at the
    given rows, formed from the plan's block table."""

    coupled: np.ndarray
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
        size class with its residual check.  Raises first, as the block
        path does, a coupling over those rows' orbits."""
        if np.take(self.coupled[i], self.orbit[rows]).any():
            raise ValueError(_COUPLED)
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
    (ascending), its pair (the index of its pair constants), its base
    momentum beta and its size s.  Per pair (P), from its fiber part F at
    the orbit's unit-scale fiber momentum times 2^-exp and its cluster's
    base gamma G: the norms a, b and c and the real traces of F and G.
    """

    orbit: np.ndarray
    pair: np.ndarray
    beta: np.ndarray
    sizes: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    trace_f: np.ndarray
    trace_g: np.ndarray
    exp: int

    def solve(
        self, p: np.ndarray, w: np.ndarray, truncation: int, coupled: np.ndarray, blocks
    ) -> _SymbolSolution:
        """The certificates at the orbit fiber momenta p (E, O, m) of E fiber
        scales, their unit-scale momenta times w (E,), 1 / eps, which solve
        scales by 2^exp to match the symbols' momenta, in one pass, with the
        plan's coupling flags (E, O) of those momenta and its blocks routine
        (see _SymbolSolution).
        r^2 sums |p|^2 in order of k and then adds beta^2, as a sum over
        all of x = (p of its orbit, beta) in order of k does."""
        n_scales, n_orbits, m = p.shape
        pp = np.zeros((n_scales, n_orbits))
        for k in range(m):
            pp += p[..., k] * p[..., k]
        # the (E, B) arrays are updated in place and dropped once used, so
        # that few of them live at a time
        pair, w = self.pair, np.ldexp(w, self.exp)
        beta, abeta = self.beta, np.abs(self.beta)
        # delta = a / eps^2 + |beta| b / eps + beta^2 c
        delta = np.outer(w * w, self.a[pair])
        delta += np.outer(w, abeta * self.b[pair])
        delta += beta * beta * self.c[pair]
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
        del delta, r2, bscale
        zero = r == 0.0
        # nplus = (s + tr H / r) / 2, tr H = tr F / eps + beta tr G
        nplus = np.outer(w, self.trace_f[pair])
        nplus += beta * self.trace_g[pair]
        nplus /= np.where(zero, 1.0, r)
        nplus += self.sizes
        nplus *= 0.5
        npos = np.rint(nplus)
        ok &= np.abs(nplus - npos) <= STRUCTURE_TOL
        del nplus
        np.copyto(npos, self.sizes, where=zero)
        return _SymbolSolution(
            coupled, ok | zero, r, npos, self.orbit, self.sizes, truncation, blocks
        )


def _block_symbols(
    orbit: np.ndarray, pair: np.ndarray, beta: np.ndarray, sizes: np.ndarray,
    unit: np.ndarray, parts, exp: int,
) -> _BlockSymbols:
    """Symbols of a plan's blocks (mapping._MappingPlan): per block in row
    order its orbit, pair, beta and size; per pair its orbit's unit-scale
    fiber momentum times 2^-exp (P, m); and parts, the plan's _pair_parts
    at those momenta.  The pairs' F and G are padded with zeros to the
    largest size, which leaves every product, trace and norm unchanged, and
    reduced at once to a = ||H_F^2 - |p|^2 I||, b = ||{H_F, H_G}||,
    c = ||H_G^2 - I|| and their real traces."""
    parts = list(parts)
    s = max(fiber.shape[-1] for _, fiber, _ in parts)
    fg, eye = np.zeros((2, len(unit), s, s), dtype=complex), np.zeros((len(unit), s, s))
    for at, fiber, base in parts:
        d = fiber.shape[-1]
        fg[0, at, :d, :d], fg[1, at, :d, :d], eye[at, :d, :d] = fiber, base, np.eye(d)
    h = fg - 0.5 * (fg - fg.conj().swapaxes(-1, -2))
    # H_F H_F, H_F H_G and H_G H_G; H_G H_F is the adjoint of the second
    prod = h[[0, 0, 1]] @ h[[0, 1, 1]]
    prod[0] -= np.sum(unit * unit, axis=1)[:, None, None] * eye
    prod[1] += prod[1].conj().swapaxes(-1, -2)
    prod[2] -= eye
    norms = np.sqrt(np.sum(np.abs(prod) ** 2, axis=(-2, -1)))
    traces = np.trace(fg, axis1=-2, axis2=-1).real
    return _BlockSymbols(orbit, pair, beta, sizes, *norms, *traces, exp)
