"""Flat model geometries: tori, affine mapping tori, metric paths.

All models here are flat.  A torus is R^n modulo the lattice spanned by the
columns of lattice_basis, carrying the constant Euclidean metric; the spin
shift selects one of the 2^n translation characters (0 or 1/2 per lattice
direction).  A mapping torus fibers such a torus over a circle, gluing the
fiber after one base loop by an integer lattice automorphism together with a
unitary lift on the module.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass

import numpy as np

from .spectral import CONNECTION_INVARIANCE_TOL, DIAGONAL_GRAM_TOL, INPUT_HERMITICITY_TOL
from .spectral import METRIC_INVARIANCE_TOL, SHIFT_INTEGRALITY_TOL, SINGULAR_DET_TOL

__all__ = [
    "FlatTorusModel",
    "AffineMappingTorus",
    "GeometricData",
    "geometric_data",
    "metric_path",
    "matrix_order",
]

# central-difference step of a metric family's derivative, in its parameter
FD_STEP = 1e-6


@dataclass(frozen=True, eq=False)
class FlatTorusModel:
    """Flat torus R^n / (lattice_basis Z^n) with a spin shift in {0, 1/2}^n."""

    lattice_basis: np.ndarray
    spin_shift: np.ndarray

    def __post_init__(self) -> None:
        basis = np.atleast_2d(np.asarray(self.lattice_basis, dtype=float))
        shift = np.atleast_1d(np.asarray(self.spin_shift, dtype=float))
        object.__setattr__(self, "lattice_basis", basis)
        object.__setattr__(self, "spin_shift", shift)
        n = basis.shape[0]
        if basis.shape != (n, n):
            raise ValueError("lattice basis must be square")
        if not np.isfinite(basis).all():
            raise ValueError("lattice basis must be finite")
        # the Hadamard ratio |det B| / prod_j |b_j|, of the basis scaled to
        # largest entry 1 so that neither side overflows
        unit = basis / max(float(np.max(np.abs(basis))), np.finfo(float).tiny)
        if abs(np.linalg.det(unit)) <= SINGULAR_DET_TOL * np.prod(np.linalg.norm(unit, axis=0)):
            raise ValueError("lattice basis is singular")
        if shift.shape != (n,):
            raise ValueError("spin shift length must match the lattice rank")
        if not np.all((shift == 0.0) | (shift == 0.5)):
            raise ValueError("spin shift entries must be 0 or 1/2")

    @property
    def n(self) -> int:
        return self.lattice_basis.shape[0]

    @property
    def gram(self) -> np.ndarray:
        return self.lattice_basis.T @ self.lattice_basis

    def dual_momentum(self, k: np.ndarray) -> np.ndarray:
        """Physical momentum 2 pi B^-T (k + shift) of the integer mode k.

        k may also be a (K, n) array of modes, one per row; all K momenta
        then come from one solve, in rows of the result.
        """
        zeta = np.asarray(k, dtype=float) + self.spin_shift
        return 2.0 * np.pi * np.linalg.solve(self.lattice_basis.T, zeta.T).T

    def diameter(self) -> float:
        """Intrinsic diameter, i.e. the exact covering radius of the lattice.

        After a size reduction by whole multiples (so that a skewed basis
        takes few steps), Selling's reduction makes the superbase v_0 =
        -sum b_j, v_j = b_j obtuse, v_i . v_j <= 0 for i != j: while some
        v_i . v_j > 0 it negates v_i and adds it to the two vectors other
        than v_i and v_j in rank 3, or adds 2 v_i to the third in rank 2.
        Obtuse means no off-diagonal Gram entry above DIAGONAL_GRAM_TOL times
        the largest.  The simplices 0, v_s1, v_s1 + v_s2, ... over orderings
        s of an obtuse superbase triangulate the Delaunay cells (Conway &
        Sloane, "Low-dimensional lattices VI: Voronoi reduction of
        three-dimensional lattices", Proc. R. Soc. A 436, 1992); the n! that
        leave out v_0 are all of them up to translation, and the covering
        radius is their largest circumradius, from one batched solve.  Every
        lattice of rank at most 3 has an obtuse superbase, and an orthogonal
        basis of any rank is one; a rank-4 or higher basis that is not is
        refused, as is a rank above 8 (the largest Clifford module's), whose
        n! simplices outgrow memory.  The basis is first scaled exactly, by
        a power of two, so that no Gram entry overflows or underflows.
        """
        n = self.n
        if n > 8:
            raise ValueError(f"exact diameter supported up to rank 8, got rank {n}")
        exp = int(np.frexp(np.max(np.abs(self.lattice_basis)))[1])
        b = np.ldexp(self.lattice_basis, -exp)
        while True:
            g = b.T @ b
            mult = np.trunc(g / np.diag(g))
            np.fill_diagonal(mult, 0.0)
            i, j = np.unravel_index(np.argmax(np.abs(mult)), mult.shape)
            if mult[i, j] == 0.0:
                break
            b[:, i] -= mult[i, j] * b[:, j]
        v = np.column_stack([-b.sum(axis=1), b])
        while True:
            g = v.T @ v
            off = g - np.diag(np.diag(g))
            i, j = np.unravel_index(np.argmax(off), off.shape)
            if off[i, j] <= DIAGONAL_GRAM_TOL * np.max(g):
                break
            if n > 3:
                raise ValueError(
                    f"exact diameter of a rank-{n} lattice needs an obtuse superbase; "
                    "this basis gives none"
                )
            others = [k for k in range(n + 1) if k not in (i, j)]
            v[:, others] += (2.0 if n == 2 else 1.0) * v[:, [i]]
            v[:, i] = -v[:, i]
        orders = np.array(list(itertools.permutations(range(1, n + 1))))
        # rows: the vertices v_s1 + ... + v_sk, k = 1 .. n, of each simplex
        w = np.cumsum(v[:, orders], axis=2).transpose(1, 2, 0)
        centre = np.linalg.solve(2.0 * w, np.sum(w * w, axis=2)[..., None])[..., 0]
        return float(np.ldexp(np.sqrt(np.max(np.sum(centre * centre, axis=1))), exp))


def matrix_order(m: np.ndarray, cap: int = 1024) -> int:
    """Multiplicative order of an integer matrix, capped."""
    m = np.asarray(m)
    eye = np.eye(m.shape[0], dtype=np.int64)
    p = np.array(m, dtype=np.int64)
    for k in range(1, cap + 1):
        if np.array_equal(p, eye):
            return k
        p = p @ m
    raise ValueError(f"matrix order exceeds cap {cap}; holonomy must be finite")


def _check_fiber_scale(eps: float) -> None:
    if eps <= 0:
        raise ValueError("fiber scale must be positive")
    if not np.isfinite(eps):
        raise ValueError(f"fiber scale must be finite, got {eps!r}")


def _check_scaled(what: str, eps: list[float], sizes: list[float], scale: str = "fiber scale") -> None:
    """Refuse the first scale of eps whose size (a float) of what overflows when squared."""
    for e, x in zip(eps, sizes):
        if not np.isfinite(x * x):
            raise ValueError(f"{scale} {e!r} is out of range: {what} overflows when squared")


@dataclass(frozen=True, eq=False)
class AffineMappingTorus:
    """Torus bundle over a circle glued by a finite-order lattice automorphism.

    The fiber is rescaled by fiber_scale; connection is the constant
    horizontal form paired with fiber lattice coordinates (it must be fixed
    by the holonomy for the horizontal distribution to close up).  The spin
    structure on the base circle is base_shift in {0, 1/2}; holonomy_lift is
    the unitary acting on module values after one base loop, or None to
    request the geometric lift computed from the holonomy at assembly time.
    """

    fiber: FlatTorusModel
    holonomy: np.ndarray
    base_length: float
    holonomy_lift: np.ndarray | None = None
    base_shift: float = 0.0
    connection: np.ndarray | None = None
    fiber_scale: float = 1.0

    def __post_init__(self) -> None:
        m = self.fiber.n
        phi = np.asarray(self.holonomy)
        if phi.shape != (m, m):
            raise ValueError("holonomy must be square of the fiber rank")
        # an entry beyond the int64 range, inf included, is no integer it can hold
        if not np.all((np.abs(phi) < 2.0**63) & (phi == np.round(phi))):
            raise ValueError("holonomy must be an integer matrix")
        phi = phi.astype(np.int64)
        object.__setattr__(self, "holonomy", phi)
        if round(np.linalg.det(phi.astype(float))) != 1:
            raise ValueError("holonomy must preserve orientation (determinant 1)")
        top = float(np.max(np.abs(self.fiber.lattice_basis)))
        if not np.isfinite(m * top * top):
            raise ValueError("fiber lattice is out of range: its Gram matrix overflows")
        b = np.ldexp(self.fiber.lattice_basis, -int(np.frexp(top)[1]))
        g = b.T @ b
        if np.max(np.abs(phi.T @ g @ phi - g)) > METRIC_INVARIANCE_TOL * np.max(np.abs(g)):
            raise ValueError("holonomy does not preserve the fiber metric")
        matrix_order(phi)  # raises when not finite order
        shift = self.fiber.spin_shift
        if np.max(np.abs(np.mod(phi.T @ shift - shift + 0.5, 1.0) - 0.5)) > SHIFT_INTEGRALITY_TOL:
            raise ValueError("fiber spin shift is not holonomy invariant")
        conn = np.zeros(m) if self.connection is None else np.asarray(self.connection, dtype=float)
        if conn.shape != (m,):
            raise ValueError("connection form length must match the fiber rank")
        if not np.isfinite(conn).all():
            raise ValueError("connection form must be finite")
        scale = max(1.0, float(np.max(np.abs(conn))))
        if np.max(np.abs(phi @ conn - conn)) > CONNECTION_INVARIANCE_TOL * scale:
            raise ValueError("connection form must be holonomy invariant")
        object.__setattr__(self, "connection", conn)
        if self.base_length <= 0:
            raise ValueError("base length must be positive")
        if not np.isfinite(self.base_length):
            raise ValueError(f"base length must be finite, got {self.base_length!r}")
        if self.base_shift not in (0.0, 0.5):
            raise ValueError("base spin shift must be 0 or 1/2")
        _check_fiber_scale(self.fiber_scale)
        if self.holonomy_lift is not None:
            lift = np.asarray(self.holonomy_lift, dtype=complex)
            if lift.ndim != 2 or lift.shape[0] != lift.shape[1]:
                raise ValueError("holonomy lift must be a square matrix")
            object.__setattr__(self, "holonomy_lift", lift)

    @property
    def n(self) -> int:
        """Total space dimension: fiber rank plus the base circle."""
        return self.fiber.n + 1

    def with_scale(self, eps: float) -> "AffineMappingTorus":
        """This model at fiber scale eps: a copy of the validated instance,
        of which only the new scale is checked."""
        _check_fiber_scale(eps)
        out = copy.copy(self)
        object.__setattr__(out, "fiber_scale", eps)
        return out


@dataclass(frozen=True, eq=False)
class GeometricData:
    """Curvature norms and fiber diameter of a model.

    For the flat models built here the curvature, second fundamental form,
    and horizontal curvature norms are exact zeros: a flat torus and the
    total space of a mapping torus are flat, its fibers are totally geodesic
    (parallel flat metrics), and its one-dimensional base leaves no
    horizontal curvature.
    """

    norm_r: float
    norm_pi: float
    norm_t: float
    diam_z: float


def geometric_data(model: FlatTorusModel | AffineMappingTorus) -> GeometricData:
    """Curvature norms and fiber diameter of a model."""
    if isinstance(model, FlatTorusModel):
        return GeometricData(
            norm_r=0.0,
            norm_pi=0.0,
            norm_t=0.0,
            diam_z=model.diameter(),
        )
    if isinstance(model, AffineMappingTorus):
        return _mapping_geometry(model.fiber_scale * model.fiber.diameter())
    raise TypeError(f"unsupported model type {type(model).__name__}")


def _mapping_geometry(diam: float) -> GeometricData:
    """geometric_data of a mapping torus whose scaled fiber has diameter
    diam, fiber_scale times its fiber's."""
    return GeometricData(
        norm_r=0.0,
        norm_pi=0.0,
        norm_t=0.0,
        diam_z=diam,
    )


# Checks run on every quadrature node in this order; the first node that
# fails one is named, with the first check it fails.
_NODE_CHECKS = (
    "Gram matrix at t={} is not finite",
    "Gram matrix at t={} is not symmetric",
    "Gram matrix at t={} is not positive definite",
    "metric derivative at t={} is not finite",
)


def _check_fd_step(fd_step: float) -> None:
    if not 0.0 < fd_step < np.inf:
        raise ValueError(f"fd_step must be positive and finite, got {fd_step!r}")


def _family_values(family, params) -> np.ndarray | list[np.ndarray]:
    """The Gram matrices of family at the parameters params, in order.

    A stacked family (one with the attribute stacked = True) is called once,
    on params as a 1-D array, and must return an (S, n, n) array, S the
    number of parameters; an output of any other shape is refused.  Any
    other family is called once per parameter.  Its outputs, each taken at
    least 2-D, come back as one (S, ...) array when they share a shape and
    as a list otherwise.
    """
    if getattr(family, "stacked", False):
        s = len(params)
        out = np.asarray(family(np.asarray(params)), dtype=float)
        if out.ndim != 3 or out.shape[0] != s or out.shape[1] != out.shape[2]:
            raise ValueError(
                f"stacked metric family must map {s} parameters to an ({s}, n, n) array, "
                f"got shape {out.shape}"
            )
        return out
    raw = [family(t) for t in params]
    try:
        # the usual case, outputs of one shape, converts in one call
        outs = np.array(raw, dtype=float)
        return outs.reshape(len(raw), *np.atleast_2d(outs[0]).shape)
    except ValueError:
        return [np.atleast_2d(np.asarray(o, dtype=float)) for o in raw]


def _metric_speeds(family, ts, fd_step: float) -> np.ndarray:
    """Metric-relative speed sup_v |d/dt c(v, v)| / c(v, v) at every
    parameter in ts, from one stacked evaluation: the largest absolute
    eigenvalue of c^-1 c-dot, with c-dot a central difference of step fd_step.

    family is evaluated at t, t + fd_step and t - fd_step for each t in
    turn, through _family_values: a stacked family gets all these
    parameters in one call.  Every output must be the same square matrix
    shape, and a misshapen output is refused at its own parameter, after
    the value checks of the nodes before it.  The stack is checked as a
    whole and run through one batched cholesky (the positive-definiteness
    test), two batched solves and one batched complex eigvalsh.
    """
    _check_fd_step(fd_step)
    params = [s for t in ts for s in (t, t + fd_step, t - fd_step)]
    outs = _family_values(family, params)
    shape = outs[0].shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(
            f"metric family must produce square Gram matrices, got shape {shape} at t={ts[0]}"
        )
    misshapen = len(outs)
    if isinstance(outs, list):
        misshapen = next((i for i, o in enumerate(outs) if o.shape != shape), misshapen)
    # the value checks cover the outputs before the first misshapen one: the
    # Gram matrices of the nodes up to it, the derivatives of whole triples
    grams = np.array(outs[0:misshapen:3]).reshape(-1, *shape)
    whole = misshapen // 3
    fails = np.zeros((len(grams), len(_NODE_CHECKS)), dtype=bool)
    finite = np.isfinite(grams).all(axis=(1, 2))
    fails[:, 0] = ~finite
    # a non-finite node is refused by name; inf - inf below would warn first
    grams = np.where(finite[:, None, None], grams, np.eye(shape[0]))
    scale = np.maximum(1.0, np.max(np.abs(grams), axis=(1, 2)))
    fails[:, 1] = (
        np.max(np.abs(grams - grams.swapaxes(1, 2)), axis=(1, 2)) > INPUT_HERMITICITY_TOL * scale
    )
    try:
        chol = np.linalg.cholesky(grams)
    except np.linalg.LinAlgError:
        # only now is each node factorized alone, to name the first that fails
        for i, g in enumerate(grams):
            try:
                np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                fails[i, 2] = True
    plus = np.array(outs[1 : 3 * whole : 3]).reshape(-1, *shape)
    minus = np.array(outs[2 : 3 * whole : 3]).reshape(-1, *shape)
    pair = (np.isfinite(plus) & np.isfinite(minus)).all(axis=(1, 2))[:, None, None]
    gdot = (np.where(pair, plus, 0.0) - np.where(pair, minus, 0.0)) / (2.0 * fd_step)
    fails[:whole, 3] = ~(pair & np.isfinite(gdot)).all(axis=(1, 2))
    if fails.any():
        node, check = divmod(int(np.argmax(fails)), len(_NODE_CHECKS))
        raise ValueError(_NODE_CHECKS[check].format(ts[node]))
    if misshapen < len(outs):
        raise ValueError(
            f"metric family changes shape: {outs[misshapen].shape} at "
            f"t={params[misshapen]}, {shape} at t={ts[0]}"
        )
    sym = np.linalg.solve(chol, np.linalg.solve(chol, gdot.swapaxes(1, 2)).swapaxes(1, 2))
    sym = (0.5 * (sym + sym.swapaxes(1, 2))).astype(complex)
    return np.max(np.abs(np.linalg.eigvalsh(sym)), axis=1)


def metric_path(
    family,
    samples: int = 129,
    fd_step: float = FD_STEP,
    t0: float | np.ndarray = 0.0,
    t1: float | np.ndarray = 1.0,
) -> float | np.ndarray:
    """Path length of a metric family: the integral over [t0, t1] of its
    metric-relative speed sup_v |d/dt c(v, v)| / c(v, v), the largest
    absolute eigenvalue of c^-1 c-dot.

    family maps a parameter to a Gram matrix and must be defined on a small
    neighbourhood of the interval: c-dot is the central difference of step
    fd_step, which must be positive and finite.  A family with the attribute
    stacked = True instead maps a 1-D array of S parameters to an (S, n, n)
    array of Gram matrices; it is called once per metric_path call, and an
    output of any other shape is refused.  Composite Simpson
    quadrature; samples is rounded up to the next odd count when necessary.
    t0 and t1 may also be 1-D arrays of segment ends; the result is then an
    array with one length per segment, each equal to the scalar call on that
    segment.  A segment that starts where the one
    before it ends shares that node (np.linspace hits both ends exactly), so
    it is evaluated once.  The speeds at all nodes of all segments come from
    one stacked evaluation.  It refuses, naming the first node in segment
    order that fails the check, outputs that are not square matrices of one
    shape, a Gram matrix that is not finite, symmetric (to within
    INPUT_HERMITICITY_TOL) and positive definite, and a finite-difference
    derivative that is not finite.  t1 must not lie below t0.
    """
    if samples < 3:
        raise ValueError("need at least 3 quadrature samples")
    starts, ends = np.broadcast_arrays(np.asarray(t0, dtype=float), np.asarray(t1, dtype=float))
    if starts.ndim > 1:
        raise ValueError(f"segment ends must be scalars or 1-D arrays, got shape {starts.shape}")
    starts, ends = np.atleast_1d(starts, ends)
    backwards = ~(starts <= ends)
    if backwards.any():
        i = int(np.argmax(backwards))
        raise ValueError(f"metric path needs t0 <= t1, got t0={starts[i]}, t1={ends[i]}")
    if samples % 2 == 0:
        samples += 1
    if not len(starts):
        return np.zeros(0)
    nodes = np.array([np.linspace(a, b, samples) for a, b in zip(starts, ends)])
    fresh = np.ones(nodes.shape, dtype=bool)
    fresh[1:, 0] = nodes[1:, 0] != nodes[:-1, -1]
    index = np.cumsum(fresh).reshape(nodes.shape) - 1
    speeds = _metric_speeds(family, nodes[fresh].tolist(), fd_step)[index]
    weights = np.ones(samples)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = (ends - starts) / (samples - 1)
    lengths = np.array([step / 3.0 * np.dot(weights, row) for step, row in zip(h, speeds)])
    return float(lengths[0]) if np.ndim(t0) == np.ndim(t1) == 0 else lengths
