"""Exact Fourier assembly of Dirac-type operators on the flat models.

Every model is assembled from its scale-free plan (see the mapping module),
in blocks that are exact in floating point; no discretization error enters
anywhere.  A flat torus is a plan with one block per dual-lattice mode k:
the Clifford action of the physical momentum 2 pi B^-T (k + shift), with no
base direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import CliffordModule, casimir
from .mapping import EmptyInvariantSpaceError, _flat_modes, _parallel_columns, _plan
from .mapping import _resolve_lift, _scaled_momenta
from .models import FD_STEP, AffineMappingTorus, FlatTorusModel, _check_fd_step
from .spectral import WEIGHT_TOL, AssembledOperator, BlockInfo, Spectrum, _default_tol, eigensolve

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


def assemble_dirac(
    model: FlatTorusModel | AffineMappingTorus, cm: CliffordModule, truncation: int
) -> AssembledOperator:
    """Dirac operator of the model on all retained Fourier modes, at its fiber scale (1 if flat)."""
    return _plan(model, cm, truncation).dirac(getattr(model, "fiber_scale", 1.0))


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
    return _plan(model, cm, truncation).bochner(getattr(model, "fiber_scale", 1.0))


# the largest fiber mode box fiber_invariant_split enumerates for its gap
_GAP_MAX_MODES = 10**6


@dataclass(frozen=True, eq=False)
class InvariantSplit:
    """Parallel-section data of the fiber operator.

    dim is the dimension of the parallel sections, the zero mode tensored
    with the fixed space of the holonomy lift; gap is the smallest absolute
    fiber eigenvalue on the orthogonal complement.
    """

    dim: int
    gap: float


def fiber_invariant_split(model: AffineMappingTorus, cm: CliffordModule) -> InvariantSplit:
    """Split fiber sections into monodromy-parallel ones and their complement.

    Parallel sections are constant along the fiber (zero mode, which exists
    only for the trivial fiber spin shift) with values fixed by the holonomy
    lift.  The fiber Dirac vanishes on them; the gap, its smallest |p| on
    the complement, is 0 when the complement meets the zero mode.  Else R,
    the smallest nonzero |p| = |2 pi B^-T (k + shift)| over |k + shift| <= 1,
    bounds the gap, and |k_i + shift_i| = |p . b_i| / 2 pi <= R |b_i| / 2 pi
    bounds every mode at or below R; a box to that bound of more than
    _GAP_MAX_MODES modes is refused before it is enumerated.
    """
    basis = _resolve_lift(model, cm)
    r = int(np.count_nonzero(_parallel_columns(model, basis)))
    fiber = model.fiber
    periodic = not fiber.spin_shift.any()
    if periodic and r < cm.dim_v:
        return InvariantSplit(dim=r, gap=0.0)
    unit = _flat_modes(fiber, 1)
    nonzero = unit.any(axis=1) | (not periodic)
    bound = np.min(np.linalg.norm(fiber.dual_momentum(unit[nonzero]), axis=1))
    reach = np.ceil(bound * np.max(np.linalg.norm(fiber.lattice_basis, axis=0)) / (2.0 * np.pi))
    count = (2.0 * reach + 1.0) ** fiber.n
    if not count <= _GAP_MAX_MODES:
        raise ValueError(
            f"the exact fiber gap needs a box of {count:.3g} fiber modes, "
            f"above the cap of {_GAP_MAX_MODES}"
        )
    modes = _flat_modes(fiber, int(reach))
    modes = modes[modes.any(axis=1) | (not periodic)]
    p = _scaled_momenta(fiber.dual_momentum(modes), [model.fiber_scale])[0]
    return InvariantSplit(dim=r, gap=float(np.min(np.linalg.norm(p, axis=1))))


def limit_operator(
    model: AffineMappingTorus, cm: CliffordModule, truncation: int
) -> AssembledOperator:
    """Operator the collapse converges to: a Dirac operator on the base
    circle valued in the fiberwise parallel sections, with the holonomy lift
    as bundle monodromy.

    Raises EmptyInvariantSpaceError when no nonzero parallel sections exist
    (nontrivial fiber spin shift, or a lift without fixed vectors); that is
    the regime where the whole spectrum escapes to infinity instead.  The
    model's plan refuses first, a symbol that couples distinct twist
    sectors included.  The operator is the zero-mode orbit's rows
    of the plan's table at p = 0, labeled by their base index alone.
    """
    plan = _plan(model, cm, truncation)
    rows = plan.limit_rows()
    full = plan.block_info
    info = BlockInfo(full.modes[rows, -1:], full.sizes[rows], full.twist[rows])
    stacks = plan._blocks(rows, np.zeros_like(plan.unit_momenta))
    return AssembledOperator(stacks, info, truncation)


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
    plan = _plan(model, cm, truncation)
    horizontal = np.sum(plan.unit_momenta**2, axis=1)
    # equivariance pairs the V-weight w with the group mode -w
    lap_values = np.sort((horizontal[:, None] + wvals[None, :] ** 2 - c_v).ravel())
    dirac_spec = eigensolve(plan.dirac())
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
