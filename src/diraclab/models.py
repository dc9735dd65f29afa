"""Flat model geometries: tori, affine mapping tori, metric paths.

All models here are flat.  A torus is R^n modulo the lattice spanned by the
columns of lattice_basis, carrying the constant Euclidean metric; the spin
shift selects one of the 2^n translation characters (0 or 1/2 per lattice
direction).  A mapping torus fibers such a torus over a circle, gluing the
fiber after one base loop by an integer lattice automorphism together with a
unitary lift on the module.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FlatTorusModel",
    "AffineMappingTorus",
    "GeometricData",
    "geometric_data",
    "metric_path",
    "metric_speed",
    "matrix_order",
]


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
        if abs(np.linalg.det(basis)) < 1e-12:
            raise ValueError("lattice basis is singular")
        if shift.shape != (n,):
            raise ValueError("spin shift length must match the lattice rank")
        if not np.all(np.isin(shift, (0.0, 0.5))):
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

    def rescaled(self, factor: float) -> "FlatTorusModel":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return FlatTorusModel(factor * self.lattice_basis, self.spin_shift.copy())

    def diameter(self, resolution: int = 64) -> float:
        """Intrinsic diameter, i.e. the covering radius of the lattice.

        Diagonal Gram matrices (rectangles) use the closed form
        sqrt(sum of squared edge lengths) / 2; otherwise the farthest point
        from the lattice is searched on a grid over the fundamental domain.
        """
        g = self.gram
        scale = float(np.max(np.abs(g)))
        if np.max(np.abs(g - np.diag(np.diag(g)))) <= 1e-12 * scale:
            return 0.5 * float(np.sqrt(np.sum(np.diag(g))))
        return _covering_radius_grid(self.lattice_basis, resolution)

    def label(self) -> str:
        basis = ";".join(",".join(repr(float(x)) for x in row) for row in self.lattice_basis)
        shift = ",".join(repr(float(x)) for x in self.spin_shift)
        return f"flat_torus[basis={basis} shift={shift}]"


def _covering_radius_grid(basis: np.ndarray, resolution: int, window: int = 2) -> float:
    if resolution < 2:
        raise ValueError("grid resolution must be at least 2")
    n = basis.shape[0]
    if n > 3:
        raise ValueError("grid diameter search supported up to rank 3")
    axes = [np.arange(resolution) / resolution] * n
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    best = np.full(mesh.shape[0], np.inf)
    offsets = np.stack(
        np.meshgrid(*([np.arange(-window, window + 2)] * n), indexing="ij"), axis=-1
    ).reshape(-1, n)
    for off in offsets:
        d = (mesh - off) @ basis.T
        best = np.minimum(best, np.einsum("ij,ij->i", d, d))
    return float(np.sqrt(np.max(best)))


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
        if not np.all(phi == np.round(phi)):
            raise ValueError("holonomy must be an integer matrix")
        phi = phi.astype(np.int64)
        object.__setattr__(self, "holonomy", phi)
        if round(np.linalg.det(phi.astype(float))) != 1:
            raise ValueError("holonomy must preserve orientation (determinant 1)")
        g = self.fiber.gram
        if np.max(np.abs(phi.T @ g @ phi - g)) > 1e-10 * max(1.0, float(np.max(np.abs(g)))):
            raise ValueError("holonomy does not preserve the fiber metric")
        matrix_order(phi)  # raises when not finite order
        shift = self.fiber.spin_shift
        if np.max(np.abs(np.mod(phi.T @ shift - shift + 0.5, 1.0) - 0.5)) > 1e-12:
            raise ValueError("fiber spin shift is not holonomy invariant")
        conn = np.zeros(m) if self.connection is None else np.asarray(self.connection, dtype=float)
        if conn.shape != (m,):
            raise ValueError("connection form length must match the fiber rank")
        if np.max(np.abs(phi @ conn - conn)) > 1e-12 * max(1.0, float(np.max(np.abs(conn)))):
            raise ValueError("connection form must be holonomy invariant")
        object.__setattr__(self, "connection", conn)
        if self.base_length <= 0:
            raise ValueError("base length must be positive")
        if self.base_shift not in (0.0, 0.5):
            raise ValueError("base spin shift must be 0 or 1/2")
        if self.fiber_scale <= 0:
            raise ValueError("fiber scale must be positive")
        if self.holonomy_lift is not None:
            lift = np.asarray(self.holonomy_lift, dtype=complex)
            if lift.ndim != 2 or lift.shape[0] != lift.shape[1]:
                raise ValueError("holonomy lift must be a square matrix")
            object.__setattr__(self, "holonomy_lift", lift)

    @property
    def n(self) -> int:
        """Total space dimension: fiber rank plus the base circle."""
        return self.fiber.n + 1

    def scaled_fiber(self) -> FlatTorusModel:
        return self.fiber.rescaled(self.fiber_scale)

    def with_scale(self, eps: float) -> "AffineMappingTorus":
        return dataclasses.replace(self, fiber_scale=eps)

    def label(self) -> str:
        hol = ";".join(",".join(str(int(x)) for x in row) for row in self.holonomy)
        return (
            f"mapping_torus[{self.fiber.label()} holonomy={hol} "
            f"L={self.base_length!r} base_shift={self.base_shift!r} "
            f"A={','.join(repr(float(a)) for a in self.connection)} "
            f"eps={self.fiber_scale!r}]"
        )


@dataclass(frozen=True, eq=False)
class GeometricData:
    """Curvature norms and fiber diameter of a model.

    For the flat models built here the curvature, second fundamental form,
    and horizontal curvature norms are exact zeros; flags record why.
    """

    norm_r: float
    norm_pi: float
    norm_t: float
    diam_z: float
    flags: tuple[str, ...] = field(default=())


def geometric_data(
    model: FlatTorusModel | AffineMappingTorus, resolution: int = 64
) -> GeometricData:
    """Curvature norms and fiber diameter of a model."""
    if isinstance(model, FlatTorusModel):
        return GeometricData(
            norm_r=0.0,
            norm_pi=0.0,
            norm_t=0.0,
            diam_z=model.diameter(resolution),
            flags=("flat metric: curvature vanishes identically",),
        )
    if isinstance(model, AffineMappingTorus):
        return GeometricData(
            norm_r=0.0,
            norm_pi=0.0,
            norm_t=0.0,
            diam_z=model.scaled_fiber().diameter(resolution),
            flags=(
                "flat total space: curvature vanishes identically",
                "fibers are totally geodesic (parallel flat metrics)",
                "one-dimensional base: horizontal curvature is identically zero",
            ),
        )
    raise TypeError(f"unsupported model type {type(model).__name__}")


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


def _metric_speeds(family, ts, fd_step: float) -> np.ndarray:
    """metric_speed at every parameter in ts, from one stacked evaluation.

    family is called at t, t + fd_step and t - fd_step for each t in turn;
    the outputs are stacked into (S, n, n) arrays, checked together, and
    run through one batched cholesky, two batched solves and one batched
    eigvalsh.  Every output must be the same square matrix shape; a
    misshapen output is refused at its own parameter, after the value
    checks of the nodes before it.
    """
    _check_fd_step(fd_step)
    params = [s for t in ts for s in (t, t + fd_step, t - fd_step)]
    outs = [np.atleast_2d(np.asarray(family(s), dtype=float)) for s in params]
    shape = outs[0].shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(
            f"metric family must produce square Gram matrices, got shape {shape} at t={ts[0]}"
        )
    misshapen = next((i for i, o in enumerate(outs) if o.shape != shape), len(outs))
    # the value checks cover the outputs before the first misshapen one: the
    # Gram matrices of the nodes up to it, the derivatives of whole triples
    grams = np.array(outs[0:misshapen:3]).reshape(-1, *shape)
    whole = misshapen // 3
    fails = np.zeros((len(grams), len(_NODE_CHECKS)), dtype=bool)
    finite = np.isfinite(grams).all(axis=(1, 2))
    fails[:, 0] = ~finite
    scale = np.maximum(1.0, np.max(np.abs(grams), axis=(1, 2)))
    fails[:, 1] = np.max(np.abs(grams - grams.swapaxes(1, 2)), axis=(1, 2)) > 1e-10 * scale
    safe = np.where(finite[:, None, None], grams, np.eye(shape[0]))
    fails[:, 2] = np.min(np.linalg.eigvalsh(safe), axis=1) <= 0
    plus = np.array(outs[1 : 3 * whole : 3]).reshape(-1, *shape)
    minus = np.array(outs[2 : 3 * whole : 3]).reshape(-1, *shape)
    gdot = (plus - minus) / (2.0 * fd_step)
    fails[:whole, 3] = ~np.isfinite(gdot).all(axis=(1, 2))
    if fails.any():
        node, check = divmod(int(np.argmax(fails)), len(_NODE_CHECKS))
        raise ValueError(_NODE_CHECKS[check].format(ts[node]))
    if misshapen < len(outs):
        raise ValueError(
            f"metric family changes shape: {outs[misshapen].shape} at "
            f"t={params[misshapen]}, {shape} at t={ts[0]}"
        )
    chol = np.linalg.cholesky(grams)
    sym = np.linalg.solve(chol, np.linalg.solve(chol, gdot.swapaxes(1, 2)).swapaxes(1, 2))
    return np.max(np.abs(np.linalg.eigvalsh(0.5 * (sym + sym.swapaxes(1, 2)))), axis=1)


def metric_speed(family, t: float, fd_step: float = 1e-6) -> float:
    """Metric-relative speed sup_v |d/dt c(v, v)| / c(v, v) at parameter t.

    Equals the largest absolute eigenvalue of c^-1 c-dot; the derivative is
    taken by central differences, so the family must extend slightly past
    the endpoint being queried.  This is the one-point case of the stacked
    evaluation behind metric_path.  Raises ValueError for a step that is
    not positive and finite, and, naming t, for outputs that are not square
    matrices of one shape, a Gram matrix that is not finite, symmetric and
    positive definite, or a finite-difference derivative that is not finite.
    """
    return float(_metric_speeds(family, [t], fd_step)[0])


def metric_path(
    family,
    samples: int = 129,
    fd_step: float = 1e-6,
    t0: float = 0.0,
    t1: float = 1.0,
) -> float:
    """Path length of a metric family: integral of metric_speed over [t0, t1].

    family maps a parameter to a Gram matrix and must be defined on a small
    neighbourhood of the interval (central differences step outside it).
    Composite Simpson quadrature; samples is rounded up to the next odd
    count when necessary.  The speeds at all nodes come from one stacked
    evaluation, with the checks and refusals of metric_speed; a failing
    check names the first node that fails it.  t1 must not lie below t0.
    """
    if samples < 3:
        raise ValueError("need at least 3 quadrature samples")
    if not t0 <= t1:
        raise ValueError(f"metric path needs t0 <= t1, got t0={t0}, t1={t1}")
    if samples % 2 == 0:
        samples += 1
    ts = np.linspace(t0, t1, samples)
    speeds = _metric_speeds(family, ts.tolist(), fd_step)
    h = (t1 - t0) / (samples - 1)
    weights = np.ones(samples)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * np.dot(weights, speeds))
