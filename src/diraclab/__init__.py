"""Dirac-type operators on flat collapsing bundle models.

Construct Clifford modules, assemble Dirac operators on flat tori and
affine mapping tori in exact Fourier form, and compare spectra across
collapsing fiber scales against the predicted limit operators.
"""

from .assembly import (
    AssembledOperator,
    EmptyInvariantSpaceError,
    InvariantSplit,
    assemble_dirac,
    bochner_rhs,
    eigenvalue_derivative,
    fiber_invariant_split,
    frame_bundle_operator,
    limit_operator,
    write_matrix_text,
)
from .blockres import (
    BlockMatrix2x2,
    neumann_factorization_check,
    neumann_inverse,
    schur_complement,
    schur_inverse,
)
from .clifford import (
    CliffordModule,
    casimir,
    exterior_module,
    fixed_subspace,
    lift_rotation,
    relation_residuals,
    spinor_gammas,
)
from .collapse import (
    BlowupReport,
    CollapseReport,
    PerturbationReport,
    blowup_check,
    collapse_run,
    perturbation_bound_check,
    spectral_window,
    window_agreement,
)
from .models import (
    AffineMappingTorus,
    FlatTorusModel,
    GeometricData,
    geometric_data,
    matrix_order,
    metric_path,
)
from .spectral import (
    MatchResult,
    Spectrum,
    eigensolve,
    epsilon_close,
    sinh_rescale,
    spectrum_to_csv,
    subset_epsilon_close,
    window_intersect,
)

__version__ = "0.1.0"
