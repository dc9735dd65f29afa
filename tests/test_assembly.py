"""Operator assembly: flat tori, mapping tori, limits, derivatives."""

import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.assembly import (
    AssembledOperator,
    BlockInfo,
    EmptyInvariantSpaceError,
    assemble_dirac,
    bochner_rhs,
    eigenvalue_derivative,
    fiber_invariant_split,
    frame_bundle_operator,
    limit_operator,
    write_matrix_text,
)
from diraclab.clifford import (
    CliffordModule, _expm_skew_factors, _lift_factors, exterior_module, spinor_gammas,
)
from diraclab.collapse import blowup_check, collapse_run
from diraclab.mapping import (
    _LiftBasis,
    _flat_modes,
    _holonomy_orbits,
    _lift_basis,
    _mode_ranges,
    _plan,
    _resolve_lift,
    _twist_sector,
)
from diraclab.models import AffineMappingTorus, FlatTorusModel
from diraclab.spectral import (
    HERMITICITY_TOL,
    LIFT_TOL,
    RESIDUAL_TOL,
    SPECTRUM_MATCH_TOL,
    UNITARITY_TOL,
    STRUCTURE_TOL,
    eigensolve,
    epsilon_close,
    subset_epsilon_close,
)

# the plan's refusal of a module whose gamma_0 is skewed by 1e-6
SKEWED = r"^Clifford module gammas are not Hermitian \(residual 1\.000e-06\)$"
# the symbol path's refusal of rows whose pairs break the Clifford relations
PAIR = r"^operator symbol breaks the Clifford relations \(residual \d\.\d{3}e[+-]\d\d\)$"


def _circle(length=2 * np.pi, shift=0.5):
    return FlatTorusModel(np.array([[length]]), np.array([shift]))


def _scaled_fiber(model, eps):
    """The fiber of model with its lattice scaled by eps, as a torus of its
    own: an independent route to the fiber momenta at scale eps."""
    return FlatTorusModel(eps * model.fiber.lattice_basis, model.fiber.spin_shift)


def _simple_mapping(fiber_shift=0.0, base_shift=0.5, lift="identity"):
    fiber = FlatTorusModel(np.array([[2 * np.pi]]), np.array([fiber_shift]))
    u = np.eye(2, dtype=complex) if lift == "identity" else None
    return AffineMappingTorus(
        fiber=fiber,
        holonomy=np.array([[1]]),
        base_length=2 * np.pi,
        holonomy_lift=u,
        base_shift=base_shift,
    )


def test_circle_spectrum_halves():
    op = assemble_dirac(_circle(), spinor_gammas(1), 4)
    expected = np.array([k + 0.5 for k in range(-4, 4)])
    assert np.allclose(np.sort(eigensolve(op).values), np.sort(expected), atol=1e-12)
    assert op.dim == 8
    modes = sorted({lab[0] for lab in op.basis_labels})
    assert modes == [(k,) for k in range(-4, 4)]


def test_circle_periodic_window_is_symmetric():
    op = assemble_dirac(_circle(shift=0.0), spinor_gammas(1), 3)
    modes = sorted({lab[0][0] for lab in op.basis_labels})
    assert modes == list(range(-3, 4))


def test_labels_unique_and_complete():
    t2 = FlatTorusModel(np.diag([1.0, 1.3]), np.array([0.5, 0.0]))
    op = assemble_dirac(t2, spinor_gammas(2), 2)
    assert len(set(op.basis_labels)) == op.dim
    assert sum(sl.stop - sl.start for sl in op.block_slices) == op.dim


def test_flat_spectrum_matches_fourier_oracle():
    basis = np.array([[1.0, 0.3], [0.0, 1.2]])
    t2 = FlatTorusModel(basis, np.array([0.0, 0.5]))
    cm = spinor_gammas(2)
    op = assemble_dirac(t2, cm, 3)
    oracle = []
    for lab in {l[0] for l in op.basis_labels}:
        p = t2.dual_momentum(np.array(lab))
        oracle.extend([np.linalg.norm(p), -np.linalg.norm(p)])
    assert np.allclose(eigensolve(op).values, np.sort(oracle), atol=1e-9)


@pytest.mark.parametrize(
    "model,module",
    [
        (_circle(), spinor_gammas(1)),
        (FlatTorusModel(np.diag([1.0, 1.4]), np.array([0.5, 0.0])), spinor_gammas(2)),
        (FlatTorusModel(np.array([[1.0, 0.2], [0.0, 0.9]]), np.zeros(2)), exterior_module(2)),
    ],
)
def test_bochner_identity_flat(model, module):
    d = assemble_dirac(model, module, 3)
    sq = np.sort(eigensolve(d).values ** 2)
    rhs = eigensolve(bochner_rhs(model, module, 3)).values
    scale = max(1.0, float(np.max(np.abs(rhs))))
    assert np.max(np.abs(sq - rhs)) < 1e-10 * scale


@st.composite
def _flat_tori(draw):
    """Rank 1-3 flat tori with skewed (upper-triangular) bases and spin
    shifts 0 or 1/2 per direction."""
    rank = draw(st.integers(1, 3))
    basis = np.diag(draw(st.lists(st.floats(0.5, 1.5), min_size=rank, max_size=rank)))
    skew = draw(st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3))
    basis[np.triu_indices(rank, 1)] = skew[: rank * (rank - 1) // 2]
    shift = draw(st.lists(st.sampled_from([0.0, 0.5]), min_size=rank, max_size=rank))
    return FlatTorusModel(basis, np.array(shift))


@settings(max_examples=60)
@given(torus=_flat_tori(), exterior=st.booleans(), truncation=st.integers(1, 3))
def test_flat_plans_certify(torus, exterior, truncation):
    # a flat torus is a plan with one block per mode and no base direction:
    # its symbols certify +-|p| on every block, as eigh finds, and its
    # Bochner blocks are |p|^2 I, mode by mode
    cm = exterior_module(torus.n) if exterior else spinor_gammas(torus.n)
    solved = _plan(torus, cm, truncation).symbol_spectra([1.0]).at(0)
    ref = eigensolve(assemble_dirac(torus, cm, truncation)).values
    assert len(solved) == len(ref)
    assert np.all(np.abs(solved.values - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
    modes = _flat_modes(torus, truncation)
    p = torus.dual_momentum(modes)
    rhs = bochner_rhs(torus, cm, truncation)
    assert np.array_equal(rhs.block_info.modes, modes)
    (stack,) = rhs.stacks
    assert np.array_equal(stack, np.sum(p * p, axis=1)[:, None, None] * np.eye(cm.dim_v))


def test_flat_gammas_that_fail_to_anticommute_are_refused():
    # gamma_1 turned towards gamma_0 still squares to I and is Hermitian, but
    # D^2 = (|p|^2 + 2 p_0 p_1 sin(tilt)) I: the pairs of the modes with
    # p_0 p_1 != 0 fail the pair check, and the symbol path refuses the
    # spectrum by name, while the block path still solves every block
    cm = spinor_gammas(2)
    gammas = cm.gammas.copy()
    gammas[1] = np.cos(1e-3) * cm.gammas[1] + np.sin(1e-3) * cm.gammas[0]
    tilted = CliffordModule(2, 2, gammas, cm.sigmas)
    torus = FlatTorusModel(np.eye(2), np.zeros(2))
    plan = _plan(torus, tilted, 2)
    p = plan.unit_momenta
    assert np.array_equal(plan.symbols[0] > RESIDUAL_TOL / 2, p[:, 0] * p[:, 1] != 0.0)
    with pytest.raises(ValueError, match=PAIR):
        plan.symbol_spectra([1.0]).at(0)
    assert len(eigensolve(assemble_dirac(torus, tilted, 2))) == 25 * cm.dim_v


def test_flat_skewed_gamma_is_not_hermitian():
    # the plan refuses a non-Hermitian gamma_0 once, before either the block
    # path or the symbols can form a block
    cm = spinor_gammas(2)
    gammas = cm.gammas.copy()
    gammas[0, 1, 0] += 1e-6
    skewed = CliffordModule(2, 2, gammas, cm.sigmas)
    torus = FlatTorusModel(np.eye(2), np.array([0.5, 0.0]))
    for build in (lambda: _plan(torus, skewed, 2), lambda: assemble_dirac(torus, skewed, 2)):
        with pytest.raises(ValueError, match=SKEWED):
            build()


def _rot4_2pi_mapping():
    # the benchmark's rot4 model: 2 pi square fiber, quarter turn, auto lift
    return AffineMappingTorus(
        fiber=FlatTorusModel(2.0 * np.pi * np.eye(2), np.zeros(2)),
        holonomy=np.array([[0, -1], [1, 0]]),
        base_length=2.0 * np.pi,
        base_shift=0.5,
    )


@pytest.mark.parametrize(
    "model, module",
    [
        (_rot4_2pi_mapping(), spinor_gammas(3)),
        (_rot4_2pi_mapping(), exterior_module(3)),
        (FlatTorusModel(np.array([[1.0, 0.3], [0.0, 1.5]]), np.array([0.5, 0.0])), spinor_gammas(2)),
    ],
    ids=["rot4_spinor", "rot4_exterior", "flat"],
)
def test_the_plans_hermiticity_check_is_at_least_as_strict_as_the_blocks(model, module):
    # skew one gamma by 10^-k, k = 9 .. 16: wherever the blocks of the skewed
    # module (the clean plan's table with the skewed gammas in its lift
    # basis, at eps = 1, 2^-4 and 2^-10) fail the block path's check
    # max |D - D^H| <= HERMITICITY_TOL max(1, max |D|), the plan of the
    # skewed module refuses it.  Both verdicts occur, and a plan check 100
    # times looser fails this test
    clean = _plan(model, module, 2)
    q, n = clean.basis.q, module.n
    outcomes = set()
    for g, k in itertools.product(range(n), range(9, 17)):
        gammas = module.gammas.copy()
        gammas[g, 1, 0] += 10.0**-k
        skewed = CliffordModule(n, module.dim_v, gammas, module.sigmas)
        padded = np.concatenate([gammas, np.zeros_like(gammas[: len(clean.gammas_q) - n])])
        skewed_q = q.conj().T @ padded @ q
        # each pair's base gamma, at the entries its flat fiber index takes
        base = skewed_q[-1].ravel()
        pairs = {s: (ids, at, base[at % base.size]) for s, (ids, at, _) in clean.pairs.items()}
        plan = dataclasses.replace(clean, gammas_q=skewed_q, pairs=pairs)
        refused = _refusal(lambda: _plan(model, skewed, 2)) is not None
        for eps in (1.0, 2.0**-4, 2.0**-10):
            stacks = plan._blocks(slice(None), clean.unit_momenta / eps)
            resid = max(np.max(np.abs(d - d.conj().swapaxes(-1, -2))) for d in stacks)
            scale = max(1.0, max(np.max(np.abs(d)) for d in stacks))
            fails = resid > HERMITICITY_TOL * scale
            assert refused or not fails, (g, k, eps)
            outcomes.add((fails, refused))
    assert (True, True) in outcomes and (False, False) in outcomes


def test_bochner_identity_mapping():
    mt = _simple_mapping()
    cm = spinor_gammas(2)
    d = assemble_dirac(mt.with_scale(0.5), cm, 4)
    sq = np.sort(eigensolve(d).values ** 2)
    rhs = eigensolve(bochner_rhs(mt.with_scale(0.5), cm, 4)).values
    scale = max(1.0, float(np.max(np.abs(rhs))))
    assert np.max(np.abs(sq - rhs)) < 1e-10 * scale


def test_truncation_validation():
    with pytest.raises(ValueError):
        assemble_dirac(_circle(), spinor_gammas(1), 0)
    with pytest.raises(ValueError):  # wrong module dimension
        assemble_dirac(_circle(), spinor_gammas(2), 2)
    for build in (assemble_dirac, bochner_rhs):
        with pytest.raises(TypeError, match="^unsupported model type str$"):
            build("nope", spinor_gammas(1), 2)


def test_mapping_connection_shifts_base_frequency():
    mt_a = AffineMappingTorus(
        fiber=FlatTorusModel(np.array([[2 * np.pi]]), np.array([0.5])),
        holonomy=np.array([[1]]),
        base_length=2 * np.pi,
        holonomy_lift=np.eye(2, dtype=complex),
        connection=np.array([0.25]),
    )
    cm = spinor_gammas(2)
    spec_a = eigensolve(assemble_dirac(mt_a, cm, 2)).values
    # zeta = k + 1/2; connection shifts the base momentum by -2 pi A zeta
    oracle = []
    for k in range(-2, 2):
        zeta = k + 0.5
        for u in range(-2, 3):
            beta = u - 2 * np.pi * 0.25 * zeta
            lam = np.hypot(zeta, beta)
            oracle.extend([lam, -lam])
    assert np.allclose(spec_a, np.sort(oracle), atol=1e-9)


def test_lift_must_intertwine():
    fiber = FlatTorusModel(np.eye(2), np.zeros(2))
    rng = np.random.default_rng(0)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(z)
    mt = AffineMappingTorus(
        fiber=fiber,
        holonomy=np.array([[0, -1], [1, 0]]),
        base_length=1.0,
        holonomy_lift=q,
    )
    with pytest.raises(ValueError, match="intertwine"):
        assemble_dirac(mt, spinor_gammas(3), 1)
    # identity lift is also wrong for a nontrivial rotation
    mt2 = AffineMappingTorus(
        fiber=fiber,
        holonomy=np.array([[0, -1], [1, 0]]),
        base_length=1.0,
        holonomy_lift=np.eye(2, dtype=complex),
    )
    with pytest.raises(ValueError):
        assemble_dirac(mt2, spinor_gammas(3), 1)


def test_scalar_phase_lift_allowed():
    # scalars intertwine trivially; they twist the base boundary condition
    phase = np.exp(0.3j)
    fiber = FlatTorusModel(np.array([[2 * np.pi]]), np.array([0.0]))
    mt = AffineMappingTorus(
        fiber=fiber,
        holonomy=np.array([[1]]),
        base_length=2 * np.pi,
        holonomy_lift=phase * np.eye(2),
    )
    cm = spinor_gammas(2)
    spec = eigensolve(assemble_dirac(mt, cm, 1)).values
    theta = 0.3 / (2 * np.pi)
    oracle = []
    for k in range(-1, 2):
        for u in range(-1, 2):
            lam = np.hypot(float(k), u + theta)
            oracle.extend([lam, -lam])
    assert np.allclose(spec, np.sort(oracle), atol=1e-9)


def test_limit_operator_embeds_in_total_spectrum():
    ext3 = exterior_module(3)
    mt = AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.zeros(2)),
        holonomy=np.array([[0, -1], [1, 0]]),
        base_length=1.0,
    )
    lim = eigensolve(limit_operator(mt, ext3, 2))
    total = eigensolve(assemble_dirac(mt.with_scale(0.05), ext3, 2))
    match = subset_epsilon_close(lim, total, 1e-12)
    assert match.ok and match.max_deviation == 0.0


def test_limit_operator_gates():
    cm = spinor_gammas(2)
    with pytest.raises(EmptyInvariantSpaceError):
        limit_operator(_simple_mapping(fiber_shift=0.5), cm, 2)
    cm3 = spinor_gammas(3)
    mt = AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.zeros(2)),
        holonomy=np.array([[0, -1], [1, 0]]),
        base_length=1.0,
    )
    # geometric spin lift of the order-4 rotation has no fixed vectors
    with pytest.raises(EmptyInvariantSpaceError):
        limit_operator(mt, cm3, 2)


def test_limit_operator_antiperiodic_frequencies():
    lim = limit_operator(_simple_mapping(), spinor_gammas(2), 3)
    vals = eigensolve(lim).values
    expected = sorted(
        [s * (u + 0.5) for u in range(-3, 4) for s in (+1, -1)]
    )
    assert np.allclose(vals, expected, atol=1e-12)


def test_fiber_invariant_split_cases():
    cm = spinor_gammas(2)
    split = fiber_invariant_split(_simple_mapping().with_scale(0.25), cm)
    assert split.dim == 2
    assert split.gap == pytest.approx(4.0, abs=1e-12)

    # antiperiodic fiber: no parallel sections, gap is the smallest momentum
    split2 = fiber_invariant_split(_simple_mapping(fiber_shift=0.5), cm)
    assert split2.dim == 0
    assert split2.gap == pytest.approx(0.5, abs=1e-12)

    # partial fixed space leaves zero modes in the complement: gap collapses
    ext3 = exterior_module(3)
    mt = AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.zeros(2)),
        holonomy=np.array([[0, -1], [1, 0]]),
        base_length=1.0,
    )
    split3 = fiber_invariant_split(mt, ext3)
    assert split3.dim == 4
    assert split3.gap == 0.0


def test_fiber_operator_antiperiodic_gap():
    cm3 = spinor_gammas(3)
    mt = AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.array([0.5, 0.5])),
        holonomy=-np.eye(2),
        base_length=2 * np.pi,
    )
    split = fiber_invariant_split(mt, cm3)
    assert split.gap == pytest.approx(np.pi * np.sqrt(2), abs=1e-9)
    # the gap is the smallest |eigenvalue| of the fiber's own Dirac operator
    fiber = FlatTorusModel(np.eye(2), np.array([0.5, 0.5]))
    fiber_vals = eigensolve(assemble_dirac(fiber, spinor_gammas(2), 2)).values
    assert split.gap == pytest.approx(np.min(np.abs(fiber_vals)), abs=1e-9)


def _untwisted_mapping(basis, shift):
    return AffineMappingTorus(
        fiber=FlatTorusModel(basis, shift), holonomy=np.eye(len(shift)), base_length=1.0
    )


def _nonzero_momenta(fiber, reach):
    """Fiber momenta of the box |k + shift| <= reach, the zero mode left out."""
    modes = _flat_modes(fiber, reach)
    modes = modes[modes.any(axis=1) | bool(fiber.spin_shift.any())]
    return np.linalg.norm(fiber.dual_momentum(modes), axis=1)


def _brute_gap(fiber):
    """Smallest nonzero fiber |p| over a box that holds the exact gap's: the
    smallest candidate |p| of the unit box bounds the gap, and
    |k_i + shift_i| <= ||B||_2 |p| / 2 pi bounds every mode at or below it."""
    bound = np.min(_nonzero_momenta(fiber, 1))
    reach = int(np.ceil(np.linalg.norm(fiber.lattice_basis, 2) * bound / (2 * np.pi))) + 1
    return float(np.min(_nonzero_momenta(fiber, reach))), reach


def test_fiber_gap_does_not_depend_on_a_box():
    # the shortest dual vector is 2 pi (0.3, 0.2), at the mode (-10, 1):
    # a box of side 8 or less gave 2 pi
    basis = np.linalg.inv(np.array([[1.0, 10.3], [0.0, 0.2]])).T
    split = fiber_invariant_split(_untwisted_mapping(basis, np.zeros(2)), spinor_gammas(3))
    assert split.gap == pytest.approx(2.2654346798277984, rel=1e-14)
    assert split.gap == pytest.approx(2 * np.pi * np.hypot(0.3, 0.2), rel=1e-13)


@settings(max_examples=60)
@given(
    rank=st.integers(1, 3),
    diagonal=st.lists(st.floats(0.5, 1.5), min_size=3, max_size=3),
    skew=st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
    half=st.booleans(),
    eps=st.floats(0.1, 2.0),
)
def test_fiber_gap_is_the_smallest_momentum(rank, diagonal, skew, half, eps):
    basis = np.diag(diagonal[:rank])
    basis[np.triu_indices(rank, 1)] = skew[: rank * (rank - 1) // 2]
    model = _untwisted_mapping(basis, np.full(rank, 0.5 if half else 0.0))
    gap, reach = _brute_gap(model.fiber)
    # at most 21 over these bases: a rank-3 box of 43^3 modes
    assert reach <= 21
    cm = spinor_gammas(rank + 1)
    split = fiber_invariant_split(model.with_scale(eps), cm)
    assert split.dim == (0 if half else cm.dim_v)
    assert split.gap == pytest.approx(gap / eps, rel=1e-12)


def test_fiber_gap_refuses_a_huge_box_before_enumerating(monkeypatch):
    import diraclab.assembly as assembly

    enumerate_modes = assembly._flat_modes

    def unit_box_only(fiber, truncation):
        assert truncation == 1, f"a box of side {truncation} was enumerated"
        return enumerate_modes(fiber, truncation)

    monkeypatch.setattr(assembly, "_flat_modes", unit_box_only)
    # the dual vector (2000.3, 1e-3) is nearly parallel to (1, 0), so the box
    # reaches |k_1| = 2e6: (4e6 + 1)^2 modes
    basis = np.linalg.inv(np.array([[1.0, 2000.3], [0.0, 1e-3]])).T
    message = r"^the exact fiber gap needs a box of 1\.6e\+13 fiber modes, above the cap of 1000000$"
    with pytest.raises(ValueError, match=message):
        fiber_invariant_split(_untwisted_mapping(basis, np.zeros(2)), spinor_gammas(3))


def test_frame_bundle_routes_agree():
    cm = spinor_gammas(2)
    for shift in ([0.5, 0.0], [0.0, 0.0], [0.5, 0.5]):
        t2 = FlatTorusModel(np.diag([1.0, 1.4]), np.array(shift))
        sq, lap = frame_bundle_operator(t2, cm, 3)
        m = epsilon_close(sq, lap, 1e-9)
        assert m.ok, m.max_deviation


def test_frame_bundle_validation():
    cm = spinor_gammas(2)
    t2 = FlatTorusModel(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        frame_bundle_operator(t2, cm, 2, group_truncation=0)
    with pytest.raises(ValueError):
        frame_bundle_operator(FlatTorusModel(np.eye(3), np.zeros(3)), spinor_gammas(3), 2)
    with pytest.raises(ValueError):  # non-scalar Casimir
        frame_bundle_operator(t2, exterior_module(2), 2)


def test_eigenvalue_derivative_circle_exact():
    cm = spinor_gammas(1)

    def fam(t):
        return np.array([[(2 * np.pi + t) ** 2]])

    def fam_dot(t):
        return np.array([[2 * (2 * np.pi + t)]])

    length = 2 * np.pi + 0.2
    spectrum = np.sort([(k + 0.5) * 2 * np.pi / length for k in range(-3, 3)])
    for j in (0, 2, 5):
        got = eigenvalue_derivative(
            fam, cm, 3, 0.2, j, spin_shift=np.array([0.5]), gram_dot=fam_dot
        )
        zeta = spectrum[j] * length / (2 * np.pi)
        exact = -2 * np.pi * zeta / length**2
        assert got == pytest.approx(exact, abs=1e-12)


def test_eigenvalue_derivative_refuses_degenerate():
    cm = spinor_gammas(2)
    with pytest.raises(ValueError, match="degenerate"):
        eigenvalue_derivative(lambda t: (1 + t) * np.eye(2), cm, 2, 0.0, 0)


def test_eigenvalue_derivative_index_range():
    cm = spinor_gammas(1)
    with pytest.raises(ValueError, match="out of range"):
        eigenvalue_derivative(lambda t: np.array([[1.0 + t]]), cm, 1, 0.0, 99)


def test_write_matrix_text_roundtrip(tmp_path):
    op = assemble_dirac(_circle(), spinor_gammas(1), 2)
    path = tmp_path / "m.txt"
    write_matrix_text(op, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("# rows=4 cols=4")
    rows = []
    for ln in lines[1:]:
        nums = [float(x) for x in ln.split()]
        rows.append([complex(nums[2 * i], nums[2 * i + 1]) for i in range(len(nums) // 2)])
    assert np.array_equal(np.array(rows), op.matrix)


def _rot4_mapping():
    return AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.zeros(2)),
        holonomy=np.array([[0, -1], [1, 0]]),
        base_length=1.0,
    )


def _info(*sizes):
    """Untwisted provenance of blocks of the given sizes, one mode each."""
    n = len(sizes)
    return BlockInfo(np.arange(n)[:, None], np.array(sizes), np.zeros(n))


def test_assembled_operator_validation():
    info = _info(2)
    with pytest.raises(ValueError, match="not Hermitian"):
        AssembledOperator([np.array([[[0.0, 1.0], [1.0 + 1e-11, 0.0]]])], info)
    # every block of a stack is checked, not just the first
    with pytest.raises(ValueError, match="not Hermitian"):
        AssembledOperator([np.array([np.eye(2), [[0.0, 1.0], [1.0 + 1e-11, 0.0]]])], _info(2, 2))
    # the tolerance is relative to the largest entry
    scale = 10.0
    near = scale + 0.5 * HERMITICITY_TOL * scale
    AssembledOperator([np.array([[[0.0, scale], [near, 0.0]]])], info)
    with pytest.raises(ValueError, match="square"):
        AssembledOperator([np.zeros((1, 2, 3))], info)
    with pytest.raises(ValueError, match="block info"):
        AssembledOperator([np.eye(2)[None], np.eye(1)[None]], info)
    # as many infos as blocks, but their sizes do not match the stacks
    with pytest.raises(ValueError, match="block info"):
        AssembledOperator([np.eye(2)[None]], _info(1))
    with pytest.raises(ValueError, match="block info"):
        AssembledOperator([np.eye(2)[None], np.eye(1)[None]], _info(1, 1))
    # malformed records: columns of unequal length, modes that are not 2-D,
    # sizes below 1
    stack = [np.eye(2)[None]]
    good = vars(_info(2))
    for column, bad in [
        ("modes", np.zeros((2, 1), dtype=int)),
        ("sizes", np.array([2, 2])),
        ("twist", np.zeros(0)),
        ("twist", np.zeros((1, 1))),
    ]:
        with pytest.raises(ValueError, match="one entry per block"):
            AssembledOperator(stack, BlockInfo(**{**good, column: bad}))
    for modes in (np.zeros(1, dtype=int), np.zeros((1, 1, 1), dtype=int)):
        with pytest.raises(ValueError, match="must be a 2-D array"):
            AssembledOperator(stack, BlockInfo(**{**good, "modes": modes}))
    for sizes in ([0], [-1]):
        with pytest.raises(ValueError, match="at least 1"):
            AssembledOperator(
                [np.zeros((0, 2, 2))], BlockInfo(**{**good, "sizes": np.array(sizes)})
            )
    # the record is read-only once it backs an operator
    op = AssembledOperator(stack, _info(2))
    for column in vars(op.block_info).values():
        assert not column.flags.writeable


_BLOCK_OPERATORS = pytest.mark.parametrize(
    "build",
    [
        lambda: assemble_dirac(
            FlatTorusModel(np.array([[1.0, 0.3], [0.0, 1.2]]), np.array([0.5, 0.0])),
            spinor_gammas(2),
            2,
        ),
        lambda: assemble_dirac(_rot4_mapping(), exterior_module(3), 2),
        lambda: limit_operator(_rot4_mapping(), exterior_module(3), 2),
    ],
    ids=["flat", "rot4_exterior", "rot4_exterior_limit"],
)


@_BLOCK_OPERATORS
def test_blocks_match_dense_view(build):
    op = build()
    spec = eigensolve(op)
    assert "matrix" not in op.__dict__  # the dense view is built only on access
    dense = np.linalg.eigvalsh(op.matrix)
    assert np.max(np.abs(spec.values - dense)) <= 1e-12
    assert op.matrix.shape == (op.dim, op.dim)
    for block, sl in zip(op.blocks, op.block_slices):
        assert np.array_equal(op.matrix[sl, sl], block)
    assert np.count_nonzero(op.matrix) == sum(np.count_nonzero(b) for b in op.blocks)
    assert sum(s.shape[0] for s in op.stacks) == len(op.blocks)


@_BLOCK_OPERATORS
def test_blocks_are_views_of_read_only_stacks(build):
    op = build()
    sizes = [s.shape[1] for s in op.stacks]
    assert sizes == sorted(set(sizes))  # one stack per size, ascending
    by_size = dict(zip(sizes, op.stacks))
    for stack in op.stacks:
        assert not stack.flags.writeable
    assert len(op.blocks) == len(op.block_info.sizes)
    for block, size in zip(op.blocks, op.block_info.sizes.tolist()):
        assert block.shape == (size, size)
        assert np.shares_memory(block, by_size[size])
        assert not block.flags.writeable


def test_bochner_blocks_match_their_provenance():
    # the zero-mode orbit's twist splits into clusters of sizes 4, 2 and 2,
    # the size-4 orbits' twist is one cluster of size 8; each block must sit
    # at the row its info names, the two size-2 clusters told apart by twist
    model = _rot4_mapping().with_scale(0.3)
    op = bochner_rhs(model, exterior_module(3), 2)
    info = op.block_info
    assert sorted(set(info.sizes.tolist())) == [2, 4, 8]
    assert len(op.blocks) == len(info.modes) == len(info.twist)
    for block, mode, size, twist in zip(op.blocks, info.modes, info.sizes, info.twist):
        rep, u = mode[:2], mode[2]
        p = _scaled_fiber(model, model.fiber_scale).dual_momentum(rep)
        d = 1 if not rep.any() else 4
        beta = 2 * np.pi * (u + twist) / (d * model.base_length)
        expected = (p @ p + beta**2) * np.eye(size)
        assert np.max(np.abs(block - expected)) <= 1e-12 * max(1.0, float(np.max(expected)))


def test_connection_shifts_each_block_by_its_mode():
    # beta = 2 pi (u + theta) / L - 2 pi <A, zeta>, read off each block's
    # provenance; the spectrum alone cannot tell the sign of A (it is
    # symmetric under (zeta, u) -> (-zeta, -u))
    model = AffineMappingTorus(
        fiber=FlatTorusModel(np.array([[2 * np.pi]]), np.array([0.5])),
        holonomy=np.array([[1]]),
        base_length=2 * np.pi,
        holonomy_lift=np.eye(2, dtype=complex),
        connection=np.array([0.25]),
    ).with_scale(0.5)
    op = bochner_rhs(model, spinor_gammas(2), 2)
    info = op.block_info
    assert len(op.blocks) == len(info.modes) == 20
    for block, (k, u), twist in zip(op.blocks, info.modes, info.twist):
        p = _scaled_fiber(model, model.fiber_scale).dual_momentum(np.array([k]))
        beta = 2 * np.pi * (u + twist) / model.base_length - 2 * np.pi * 0.25 * (k + 0.5)
        assert np.max(np.abs(block - (p @ p + beta**2) * np.eye(2))) <= 1e-12


def test_basis_labels_frozen():
    t2 = FlatTorusModel(np.eye(2), np.array([0.5, 0.0]))
    op = assemble_dirac(t2, spinor_gammas(2), 1)
    assert op.basis_labels == (
        ((-1, -1), 0), ((-1, -1), 1), ((-1, 0), 0), ((-1, 0), 1),
        ((-1, 1), 0), ((-1, 1), 1), ((0, -1), 0), ((0, -1), 1),
        ((0, 0), 0), ((0, 0), 1), ((0, 1), 0), ((0, 1), 1),
    )
    # blocks of one mode in different twist sectors continue one running index
    lim = limit_operator(_rot4_mapping(), exterior_module(3), 1)
    assert len(lim.blocks) > 3
    assert lim.basis_labels == tuple(((u,), i) for u in (-1, 0, 1) for i in range(8))


def _hex_rot6_mapping():
    hexagonal = np.array([[1.0, 0.5], [0.0, np.sqrt(3) / 2]])
    return AffineMappingTorus(
        fiber=FlatTorusModel(hexagonal, np.zeros(2)),
        holonomy=np.array([[0, -1], [1, 1]]),
        base_length=1.3,
        base_shift=0.5,
    )


@pytest.mark.parametrize(
    "model,module,truncation",
    [
        (_rot4_mapping().with_scale(0.3), spinor_gammas(3), 3),
        (_rot4_mapping().with_scale(0.3), exterior_module(3), 2),
        (_hex_rot6_mapping(), spinor_gammas(3), 3),
        (
            AffineMappingTorus(
                fiber=FlatTorusModel(np.eye(2), np.array([0.5, 0.5])),
                holonomy=-np.eye(2),
                base_length=2 * np.pi,
            ),
            spinor_gammas(3),
            3,
        ),
        (
            AffineMappingTorus(
                fiber=FlatTorusModel(np.array([[2 * np.pi]]), np.array([0.5])),
                holonomy=np.array([[1]]),
                base_length=2 * np.pi,
                holonomy_lift=np.eye(2, dtype=complex),
                connection=np.array([0.25]),
            ),
            spinor_gammas(2),
            3,
        ),
    ],
    ids=["rot4_spinor", "rot4_exterior", "hex_rot6", "minus_identity", "connection"],
)
def test_plan_is_scale_free(model, module, truncation):
    # the plan is built at the model's own fiber scale and reused at others
    plan = _plan(model, module, truncation)
    for eps in (1.0, 0.5, 0.125):
        scaled = model.with_scale(eps)
        pairs = [
            (plan.dirac(eps), assemble_dirac(scaled, module, truncation)),
            (plan.bochner(eps), bochner_rhs(scaled, module, truncation)),
        ]
        for got, ref in pairs:
            assert len(got.blocks) == len(ref.blocks)
            for a, b in zip(got.blocks, ref.blocks):
                assert a.shape == b.shape
                assert np.max(np.abs(a - b), initial=0.0) <= 1e-12
            for name, column in vars(ref.block_info).items():
                assert getattr(got.block_info, name).dtype == column.dtype
                assert np.array_equal(getattr(got.block_info, name), column)
            assert got.basis_labels == ref.basis_labels


# finite-order fiber automorphisms in lattice coordinates, with their lattice
_HOLONOMIES = {
    "identity": (np.eye(2), [[1, 0], [0, 1]]),
    "minus_identity": (np.eye(2), [[-1, 0], [0, -1]]),
    "rot4": (np.eye(2), [[0, -1], [1, 0]]),
    "hex_rot6": (np.array([[1.0, 0.5], [0.0, np.sqrt(3) / 2]]), [[0, -1], [1, 1]]),
    "hex_rot3": (np.array([[1.0, 0.5], [0.0, np.sqrt(3) / 2]]), [[-1, -1], [1, 0]]),
}


def _compatible(holonomy, shift):
    carry = np.array(holonomy).T @ shift - shift
    return np.array_equal(carry, np.round(carry))


@st.composite
def _mapping_models(draw):
    name = draw(st.sampled_from(sorted(_HOLONOMIES)))
    basis, holonomy = _HOLONOMIES[name]
    shift = np.array(draw(st.sampled_from([(0.0, 0.0), (0.5, 0.5), (0.5, 0.0)])))
    if not _compatible(holonomy, shift):
        shift = np.zeros(2)
    angle = draw(st.floats(0.0, 2 * np.pi))
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    scale = draw(st.floats(0.5, 2.0))
    return AffineMappingTorus(
        fiber=FlatTorusModel(scale * rotation @ basis, shift),
        holonomy=np.array(holonomy),
        base_length=draw(st.floats(0.5, 3.0)),
        base_shift=draw(st.sampled_from([0.0, 0.5])),
        fiber_scale=draw(st.floats(0.1, 1.0)),
    )


# fiber ranks 1 and 3, in lattice coordinates with their lattice: the
# identity on a circle; on the cubic lattice a quarter turn about a cube
# axis, the half turn diag(-1, -1, 1) and the cyclic permutation, which
# also acts on the FCC lattice
_FCC = np.pi * np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
_OTHER_RANKS = {
    "circle": (np.eye(1), [[1]]),
    "cube_rot4": (np.eye(3), [[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
    "cube_rot2": (np.eye(3), [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
    "cube_cyclic": (np.eye(3), [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
    "fcc_cyclic": (_FCC, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
}


@st.composite
def _rank_one_or_three_models(draw):
    name = draw(st.sampled_from(sorted(_OTHER_RANKS)))
    basis, holonomy = _OTHER_RANKS[name]
    m = len(basis)
    shift = np.array(draw(st.lists(st.sampled_from([0.0, 0.5]), min_size=m, max_size=m)))
    if not _compatible(holonomy, shift):
        shift = np.zeros(m)
    return AffineMappingTorus(
        fiber=FlatTorusModel(draw(st.floats(0.5, 2.0)) * basis, shift),
        holonomy=np.array(holonomy),
        base_length=draw(st.floats(0.5, 3.0)),
        base_shift=draw(st.sampled_from([0.0, 0.5])),
        fiber_scale=draw(st.floats(0.1, 1.0)),
    )


def _drawn_module(model, exterior, truncation):
    """The module of a drawn model's rank, spinor_gammas(m + 1) or
    exterior_module(m + 1), and the truncation, at most 2 for rank 3."""
    n = model.fiber.n + 1
    module = exterior_module(n) if exterior else spinor_gammas(n)
    return module, min(truncation, 2) if n == 4 else truncation


@settings(max_examples=40)
@given(
    model=_mapping_models(),
    exterior=st.booleans(),
    truncation=st.integers(1, 3),
    eps=st.floats(0.05, 2.0),
)
def test_plan_matches_assembly_over_model_space(model, exterior, truncation, eps):
    module = exterior_module(3) if exterior else spinor_gammas(3)
    scaled = model.with_scale(eps)
    got = _plan(model, module, truncation).dirac(eps)
    ref = assemble_dirac(scaled, module, truncation)
    rhs = bochner_rhs(scaled, module, truncation)
    for op in (got, rhs):
        for name, column in vars(ref.block_info).items():
            assert np.array_equal(getattr(op.block_info, name), column)
    assert len(got.blocks) == len(ref.blocks)
    for a, b in zip(got.blocks, ref.blocks):
        assert np.array_equal(a, b)
    # every block squares to its closed-form Bochner block (|p|^2 + beta^2) I
    for d, r in zip(got.blocks, rhs.blocks):
        assert np.max(np.abs(d @ d - r)) <= 1e-12 * max(1.0, float(np.max(np.abs(r))))


@settings(max_examples=40)
@given(
    drawn=_mapping_models(),
    exterior=st.booleans(),
    truncation=st.integers(1, 3),
    eps=st.floats(0.05, 2.0),
)
def test_limit_operator_is_the_plan_zero_mode_rows(drawn, exterior, truncation, eps):
    # the drawn model with the trivial fiber spin shift, so that it has a
    # zero-mode orbit; its limit operator is that orbit's rows of the plan's
    # table at p = 0, which the block path forms at every fiber scale alike
    model = AffineMappingTorus(
        fiber=FlatTorusModel(drawn.fiber.lattice_basis, np.zeros(2)),
        holonomy=drawn.holonomy,
        base_length=drawn.base_length,
        base_shift=drawn.base_shift,
        fiber_scale=drawn.fiber_scale,
    )
    module = exterior_module(3) if exterior else spinor_gammas(3)
    plan = _plan(model, module, truncation)
    try:
        limit = limit_operator(model, module, truncation)
    except EmptyInvariantSpaceError:
        assert not exterior and not np.array_equal(model.holonomy, np.eye(2))
        return
    op = plan.dirac(eps)
    zero = np.flatnonzero(~op.block_info.modes[:, :-1].any(axis=1))
    assert len(zero) == len(limit.blocks) and np.array_equal(zero, np.arange(zero[0], zero[-1] + 1))
    for got, want in zip(limit.blocks, [op.blocks[i] for i in zero]):
        assert got.tobytes() == want.tobytes()
    info = op.block_info
    assert np.array_equal(limit.block_info.modes, info.modes[zero, -1:])
    for name in ("sizes", "twist"):
        assert np.array_equal(getattr(limit.block_info, name), getattr(info, name)[zero])


def _multiplicities(values):
    """Sizes of the runs of a sorted array whose neighbours lie within
    1e-9 * max(1, |value|) of each other."""
    gaps = np.diff(values) > 1e-9 * np.maximum(1.0, np.abs(values[1:]))
    return np.diff(np.flatnonzero(np.concatenate([[True], gaps, [True]])))


def _assert_same_spectrum(got, ref):
    assert len(got) == len(ref)
    a, b = got.values, ref.values
    assert np.all(np.abs(a - b) <= 1e-13 * np.maximum(1.0, np.abs(b)))
    assert np.array_equal(np.signbit(a), np.signbit(b))
    assert np.array_equal(_multiplicities(a), _multiplicities(b))
    assert got.cluster_tol == pytest.approx(ref.cluster_tol, rel=1e-13)


@settings(max_examples=40)
@given(
    model=st.one_of(_mapping_models(), _rank_one_or_three_models()),
    exterior=st.booleans(),
    truncation=st.integers(1, 3),
    eps=st.floats(0.05, 2.0),
)
def test_symbol_spectra_match_block_path_over_model_space(model, exterior, truncation, eps):
    module, truncation = _drawn_module(model, exterior, truncation)
    plan = _plan(model, module, truncation)
    ref = eigensolve(plan.dirac(eps))
    # on valid modules every pair passes its check, and no block is formed
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(type(plan), "_blocks", _no_blocks)
        symbols = plan.symbol_spectra([eps])
        solved = symbols.at(0)
    _assert_same_spectrum(solved, ref)
    # blowup_check's minimum |lambda|, read off the certified spectrum
    smallest = ref.abs_sorted()[0]
    assert abs(float(solved.abs_sorted()[0]) - smallest) <= 1e-13 * max(1.0, smallest)
    try:
        limit = symbols.at(0, plan.limit_rows())
    except EmptyInvariantSpaceError:
        with pytest.raises(EmptyInvariantSpaceError):
            limit_operator(model, module, truncation)
        return
    _assert_same_spectrum(limit, eigensolve(limit_operator(model, module, truncation)))


@settings(max_examples=60)
@given(
    model=st.one_of(_mapping_models(), _rank_one_or_three_models()),
    exterior=st.booleans(),
    truncation=st.integers(1, 2),
)
def test_valid_modules_pass_the_pair_check_over_model_space(model, exterior, truncation):
    # s kappa is rounding alone on a valid module, a hundred times inside
    # the check, the FCC clusters that mix the fiber gammas included
    module, truncation = _drawn_module(model, exterior, truncation)
    skappa = _plan(model, module, truncation).symbols[0]
    assert np.max(skappa) <= RESIDUAL_TOL / 100


@settings(max_examples=40)
@given(
    drawn=_mapping_models(),
    exterior=st.booleans(),
    truncation=st.integers(1, 3),
    epsilons=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=3, unique=True),
)
def test_limit_is_the_zero_mode_rows_of_every_scale(drawn, exterior, truncation, epsilons):
    # the drawn model with the trivial fiber spin shift; its zero-mode orbit
    # has p = 0 at every scale, so each scale's solution holds the limit's
    # spectrum, bit for bit, in the limit's rows
    model = AffineMappingTorus(
        fiber=FlatTorusModel(drawn.fiber.lattice_basis, np.zeros(2)),
        holonomy=drawn.holonomy,
        base_length=drawn.base_length,
        base_shift=drawn.base_shift,
    )
    module = exterior_module(3) if exterior else spinor_gammas(3)
    plan = _plan(model, module, truncation)
    try:
        rows = plan.limit_rows()
    except EmptyInvariantSpaceError:
        assert not exterior and not np.array_equal(model.holonomy, np.eye(2))
        return
    solved = plan.symbol_spectra(epsilons)
    limits = [solved.at(i, rows) for i in range(len(epsilons))]
    for limit in limits[1:]:
        assert limit.values.tobytes() == limits[0].values.tobytes()
        assert limit.cluster_tol == limits[0].cluster_tol
    _assert_same_spectrum(limits[0], eigensolve(limit_operator(model, module, truncation)))


def test_a_skewed_fiber_gamma_refuses_the_limit_too():
    # gamma_0, a fiber gamma, fails Hermiticity while the base gamma
    # passes.  The limit's rows take no fiber momentum, yet the module is
    # refused as a whole: the limit is refused with every scale, by the plan
    cm = _non_clifford_spinor(skew=1e-6)
    model = _identity_mapping()
    for run in (
        lambda: _plan(model, cm, 2),
        lambda: limit_operator(model, cm, 2),
        lambda: collapse_run(model, cm, [1.0, 0.5], 1, 2),
    ):
        with pytest.raises(ValueError, match=SKEWED):
            run()


def test_symbol_zero_blocks_are_zeros(monkeypatch):
    # identity holonomy and lift with periodic base: the zero mode at base
    # index 0 is a zero block, which takes dim_v zeros without a certificate
    # and without being formed
    import diraclab.mapping as mapping

    cm = spinor_gammas(3)
    model = AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.zeros(2)),
        holonomy=np.eye(2),
        base_length=1.0,
        holonomy_lift=np.eye(2, dtype=complex),
    )
    plan = _plan(model, cm, 2)
    refs = [eigensolve(plan.dirac()), eigensolve(limit_operator(model, cm, 2))]
    monkeypatch.setattr(mapping._MappingPlan, "_blocks", _no_blocks)
    scales = plan.symbol_spectra([model.fiber_scale])
    solved = [scales.at(0), scales.at(0, plan.limit_rows())]
    for solved, ref in zip(solved, refs):
        _assert_same_spectrum(solved, ref)
        assert np.count_nonzero(solved.values == 0.0) == cm.dim_v
        assert float(solved.abs_sorted()[0]) == 0.0


def _fcc_cyclic_mapping(fiber_shift):
    """FCC fiber, the 3-fold cyclic permutation as holonomy, auto lift and
    base shift 1/2: a mode on the rotation axis has a symbol that commutes
    with the twist although no single fiber gamma does."""
    fcc = np.pi * np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    return AffineMappingTorus(
        fiber=FlatTorusModel(fcc, np.full(3, fiber_shift)),
        holonomy=np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
        base_length=2 * np.pi,
        base_shift=0.5,
    )


def _no_blocks(*args):
    raise AssertionError("a block was formed")


@pytest.mark.parametrize("truncation", [1, 2])
@pytest.mark.parametrize("fiber_shift", [0.0, 0.5])
def test_symbol_path_accepts_rank_three_axis_modes(monkeypatch, fiber_shift, truncation):
    # the symbol path's triangle bound on the twist-sector leak trips on the
    # axis modes; it used to refuse what the block path accepts.  Every pair
    # passes its check, as the twist clusters are invariant under gamma(p)
    # though not under each fiber gamma, so no block is formed.  collapse_run solves
    # both scales from the one plan and reads the FCC fiber's exact diameter
    import diraclab.mapping as mapping

    cm = spinor_gammas(4)
    model = _fcc_cyclic_mapping(fiber_shift)
    plan = _plan(model, cm, truncation)
    eps = [1.0, 0.5]
    refs = [eigensolve(plan.dirac(e)) for e in eps]
    monkeypatch.setattr(mapping._MappingPlan, "_blocks", _no_blocks)
    report = collapse_run(model, cm, eps, 2, truncation)
    for got, ref in zip(report.spectra_per_eps, refs):
        _assert_same_spectrum(got, ref)
    blowup = blowup_check(model, cm, eps, truncation)
    for got, ref in zip(blowup.min_abs, refs):
        smallest = ref.abs_sorted()[0]
        assert abs(got - smallest) <= 1e-13 * max(1.0, smallest)


def _non_clifford_spinor(base_factor=1.0, skew=0.0):
    """spinor_gammas(3) with the base gamma scaled and gamma_0 made
    non-Hermitian by skew."""
    cm = spinor_gammas(3)
    gammas = cm.gammas.copy()
    gammas[2] *= base_factor
    gammas[0, 1, 0] += skew
    return CliffordModule(3, 2, gammas, cm.sigmas)


def _identity_mapping():
    return AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.zeros(2)),
        holonomy=np.eye(2),
        base_length=1.0,
        holonomy_lift=np.eye(2, dtype=complex),
        base_shift=0.5,
    )


def _tilted_base_spinor(tilt):
    """spinor_gammas(3) with the base gamma turned towards gamma_0 by the
    angle tilt: it still squares to I and anticommutes with gamma_1, but
    {gamma_0, base} = 2 sin(tilt) I."""
    cm = spinor_gammas(3)
    gammas = cm.gammas.copy()
    gammas[2] = np.cos(tilt) * cm.gammas[2] + np.sin(tilt) * cm.gammas[0]
    return CliffordModule(3, 2, gammas, cm.sigmas)


@pytest.mark.parametrize(
    "module, limit_passes",
    [(_non_clifford_spinor(base_factor=1.0 + 1e-6), False), (_tilted_base_spinor(1e-3), True)],
    ids=["base_squares_off_one", "base_fails_to_anticommute"],
)
def test_modules_that_break_the_clifford_relations_are_refused(monkeypatch, module, limit_passes):
    # a base gamma squaring to (1 + 1e-6)^2 breaks D^2 = r^2 I through its
    # H_G^2 - I term on every pair; one turned towards gamma_0 breaks it
    # through {H_F, H_G} = 2 sin(tilt) u_0 I on the pairs with u_0 != 0
    # alone, so the limit's pairs, at u = 0, pass.  The symbol path refuses
    # the plan by name without forming a block, in collapse_run and in the
    # stacked solve, whichever rows are read; the block path solves it all
    import diraclab.mapping as mapping

    model = _identity_mapping()
    plan = _plan(model, module, 2)
    eps = [1.0, 0.5]
    refs = [eigensolve(plan.dirac(e)) for e in eps]
    eigensolve(limit_operator(model, module, 2))
    u0 = plan.unit_momenta[plan.orbit[plan.pair_rows], 0]
    refused = plan.symbols[0] > RESIDUAL_TOL / 2
    assert np.array_equal(refused, u0 != 0.0 if limit_passes else np.ones_like(refused))
    # the solve refuses the plan's worst pair once, for every scale and row
    worst = f"(residual {np.max(plan.symbols[0]):.3e})"
    monkeypatch.setattr(mapping._MappingPlan, "_blocks", _no_blocks)
    for run in (lambda: plan.symbol_spectra(eps), lambda: collapse_run(model, module, eps, 2, 2)):
        with pytest.raises(ValueError, match=PAIR) as raised:
            run()
        assert str(raised.value).endswith(worst)
    assert [len(ref) for ref in refs] == [int(np.sum(plan.block_info.sizes))] * len(eps)


def test_symbol_path_refuses_non_hermitian_symbols(monkeypatch):
    import diraclab.mapping as mapping

    def no_operator(*args):
        raise AssertionError("block path taken")

    # the plan refuses the module before the symbols are solved
    cm = _non_clifford_spinor(skew=1e-6)
    model = _identity_mapping()
    with pytest.raises(ValueError, match=SKEWED):
        collapse_run(model, cm, [1.0], 1, 2)
    monkeypatch.setattr(mapping._MappingPlan, "_blocks", no_operator)
    monkeypatch.setattr(mapping._MappingPlan, "symbol_spectra", no_operator)
    with pytest.raises(ValueError, match=SKEWED):
        collapse_run(model, cm, [1.0], 1, 2)


def _given_momenta(plan, p):
    """The plan with the orbit fiber momenta p at unit fiber scale, so that
    its dirac(1.0) and its symbol_spectra([1.0]) take p itself (p / 1.0)."""
    return dataclasses.replace(plan, unit_momenta=p)


def _refusal(run):
    """The message of the ValueError run() raises, or None."""
    try:
        run()
    except ValueError as err:
        return str(err)
    return None


COUPLED = r"^operator symbol couples distinct twist sectors$"


def test_coupled_plan_is_refused_when_built(monkeypatch):
    # split every twist cluster into single columns: the rot4 spinor plan's
    # orbits of size 4, whose twist is -I, then have two sectors that their
    # fiber symbol mixes.  Each entry point refuses the plan as it is built,
    # before a scale out of range and before the missing parallel sections,
    # without forming a block; unsplit, the same calls pass the build
    import diraclab.mapping as mapping

    model, cm = _rot4_mapping(), spinor_gammas(3)
    runs = [
        lambda: collapse_run(model, cm, [1e200, 1e-200], 1, 2),
        lambda: blowup_check(model, cm, [1e-200], 2),
        lambda: assemble_dirac(model.with_scale(1e-200), cm, 2),
        lambda: bochner_rhs(model.with_scale(1e-200), cm, 2),
        lambda: limit_operator(model, cm, 2),
        lambda: _plan(model, cm, 2),
    ]
    unsplit = [_refusal(run) for run in runs]
    assert not any(message and re.match(COUPLED, message) for message in unsplit)
    assert unsplit[-1] is None
    original = mapping._cluster_angles

    def split(thetas):
        return [(theta, [i]) for theta, idxs in original(thetas) for i in idxs]

    monkeypatch.setattr(mapping, "_cluster_angles", split)
    monkeypatch.setattr(mapping._MappingPlan, "_blocks", _no_blocks)
    for run in runs:
        with pytest.raises(ValueError, match=COUPLED):
            run()


def test_collapse_runs_build_no_operator_per_scale(monkeypatch):
    import diraclab.mapping as mapping

    def no_operator(*args):
        raise AssertionError("an operator was assembled")

    monkeypatch.setattr(mapping._MappingPlan, "_blocks", no_operator)
    for cm in (spinor_gammas(3), exterior_module(3)):
        report = collapse_run(_rot4_mapping(), cm, [1.0, 0.5, 0.25], 2, 3)
        assert len(report.spectra_per_eps) == 3
    blocking = AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.array([0.5, 0.5])),
        holonomy=np.array([[0, -1], [1, 0]]),
        base_length=2 * np.pi,
        base_shift=0.5,
    )
    assert blowup_check(blocking, spinor_gammas(3), [1.0, 0.5], 3).rate > 0.0


def _sector(lift):
    """The lift basis of lift and its twist clusters of orbit size 1
    (periodic base)."""
    basis = _lift_basis(lift)
    return basis, _twist_sector(basis, 1, 0.0)


def test_twist_that_fails_to_diagonalize_is_refused():
    # the one diagonalization check, run as each lift basis is built
    shear = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)  # not unitary
    with pytest.raises(ValueError, match="failed to diagonalize"):
        _lift_basis(shear)
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="failed to diagonalize"):
        _LiftBasis(eye, np.array([[1.0, 0.0], [1e-7, 1.0]]))  # q not orthonormal
    with pytest.raises(ValueError, match="failed to diagonalize"):
        _LiftBasis(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), eye)  # lift not diagonal in q
    with pytest.raises(ValueError, match="failed to diagonalize"):
        _LiftBasis(np.diag([1.0, 1.0 + 1e-7]), eye)  # an eigenvalue off the unit circle
    # the angles are read off the diagonal, in turns mod 1
    basis = _LiftBasis(np.diag(np.exp(2j * np.pi * np.array([1e-10, -0.25]))), eye)
    assert basis.angles == pytest.approx([1e-10, 0.75], rel=1e-6)


def test_twist_sector_of_unitary_with_repeated_eigenvalue():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    w, _ = np.linalg.qr(z)
    angles = np.array([0.1, 0.1, 0.6, 0.1, 0.35])
    twist = w @ np.diag(np.exp(2j * np.pi * angles)) @ w.conj().T
    basis, sector = _sector(twist)
    q = basis.q
    assert np.max(np.abs(q.conj().T @ q - np.eye(5))) <= 1e-12
    tq = q.conj().T @ twist @ q
    assert np.max(np.abs(tq - np.diag(np.diag(tq)))) <= 1e-12
    assert [(round(theta, 12), len(idxs)) for theta, idxs in sector] == [
        (0.1, 3), (0.35, 1), (0.6, 1)
    ]


@pytest.mark.parametrize(
    "twist",
    [np.exp(0.3j) * np.eye(3), np.eye(3), np.diag([1j, -1.0, 1j])],
    ids=["scalar", "identity", "diagonal"],
)
def test_twist_sector_keeps_standard_basis(twist):
    basis, _ = _sector(twist)
    assert np.array_equal(basis.q, np.eye(3))


def test_lift_is_resolved_once_per_run(monkeypatch):
    import diraclab.mapping as mapping

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return _lift_factors(*args, **kwargs)

    # a computed lift is lift_rotation's, with the factors it is built from
    monkeypatch.setattr(mapping, "_lift_factors", counting)
    model, cm = _rot4_mapping(), exterior_module(3)
    collapse_run(model, cm, [1.0, 0.5], 2, 1)
    assert len(calls) == 1
    blocking = AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.array([0.5, 0.5])),
        holonomy=-np.eye(2),
        base_length=2 * np.pi,
    )
    blowup_check(blocking, spinor_gammas(3), [1.0, 0.5], 1)
    assert len(calls) == 2


def _per_scale_coupling(masks, p, gammas_q):
    """The twist-sector coupling check that plans ran at each scale before
    it became one check at build time: per orbit of the fiber momenta p
    (O, m), an entry joining two clusters of F(p) = sum_k p_k gamma_k or of
    the base gamma G above STRUCTURE_TOL max(1, largest entry of both)."""
    m = p.shape[1]
    f = np.maximum(np.abs(np.einsum("ok,kij->oij", p, gammas_q[:m])), np.abs(gammas_q[m]))
    leak = np.max(f, axis=(1, 2), where=masks, initial=0.0)
    return bool(np.any(leak > STRUCTURE_TOL * np.max(f, axis=(1, 2), initial=1.0)))


@settings(max_examples=200)
@given(
    dim_v=st.integers(2, 4),
    m=st.integers(1, 3),
    orbits=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    leak_f=st.sampled_from([0.0, 0.5, 2.0]),
    leak_g=st.sampled_from([0.0, 0.5, 2.0]),
    scale_g=st.sampled_from([0.0, 1e-3, 1.0, 1e3]),
    zero_mode=st.booleans(),
)
def test_build_time_coupling_check_refuses_what_some_scale_would(
    dim_v, m, orbits, seed, leak_f, leak_g, scale_g, zero_mode
):
    # gammas with no entry joining two clusters of a drawn partition, then
    # a leak in F(u) of the first orbit and one in G at 0.5 or 2 times its
    # threshold: the build-time predicate refuses exactly when the
    # per-scale check refuses at some scale t = 0 or 2^k, k = -60 .. 60
    from diraclab.mapping import _couples

    rng = np.random.default_rng(seed)
    owner = rng.integers(0, 2, size=dim_v)
    owner[:2] = [0, 1]
    # one twist sector of two or more clusters, and some orbits of one cluster
    masks = np.repeat((owner[:, None] != owner[None, :])[None], orbits, axis=0)
    masks[1:] &= rng.random(orbits - 1)[:, None, None] < 0.7
    gammas = rng.standard_normal((m + 1, dim_v, dim_v)) + 1j * rng.standard_normal((m + 1, dim_v, dim_v))
    gammas = np.where(masks[0], 0.0, gammas + gammas.conj().swapaxes(-1, -2))
    gammas[m] *= scale_g
    dirs = rng.standard_normal((orbits, m))
    dirs[:, 0] = np.where(dirs[:, 0] >= 0, 1.0, -1.0) + dirs[:, 0]
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    if zero_mode and orbits > 1:
        dirs[-1] = 0.0
    # one entry joining the first two clusters, 1 at (0, 1) and (1, 0)
    bump = np.zeros((dim_v, dim_v))
    bump[0, 1] = bump[1, 0] = 1.0
    f0 = np.einsum("k,kij->ij", dirs[0], gammas[:m])
    gammas[0] += leak_f * STRUCTURE_TOL * np.max(np.abs(f0)) / dirs[0, 0] * bump
    gammas[m] += leak_g * STRUCTURE_TOL * max(1.0, np.max(np.abs(gammas[m]))) * bump
    ts = [0.0] + [2.0**k for k in range(-60, 61)]
    reference = any(_per_scale_coupling(masks, t * dirs, gammas) for t in ts)
    assert _couples(masks, dirs, gammas) == reference
    # a leak twice its threshold is refused, and on one orbit one half of
    # it is not
    if leak_f == 2.0 or leak_g == 2.0:
        assert reference
    elif orbits == 1:
        assert not reference


def _asked_coupling(monkeypatch, build):
    """The arguments of every build-time coupling check that build() asks,
    which each answers as the plan would."""
    import diraclab.mapping as mapping

    asked, original = [], mapping._couples

    def record(masks, dirs, gammas_q):
        asked.append((masks, dirs, gammas_q))
        return original(masks, dirs, gammas_q)

    monkeypatch.setattr(mapping, "_couples", record)
    build()
    return asked


def test_the_plan_asks_the_coupling_check_once_at_unit_directions(monkeypatch):
    # a collapse run builds one plan, which asks the coupling check once for
    # all its scales and its limit, at each orbit's unit fiber direction (0
    # on the zero-mode orbit), over the orbits' twist-sector masks; the
    # limit and the block path take no check of their own
    import diraclab.mapping as mapping

    model, cm = _rot4_mapping(), exterior_module(3)
    asked = _asked_coupling(monkeypatch, lambda: collapse_run(model, cm, [1.0, 0.5, 0.25], 2, 2))
    assert len(asked) == 1
    masks, dirs, gammas_q = asked[0]
    plan = _plan(model, cm, 2)
    assert masks.shape == (len(plan.reps), cm.dim_v, cm.dim_v) and masks.any()
    assert np.array_equal(gammas_q, plan.gammas_q)
    norms = np.linalg.norm(dirs, axis=1)
    zero = ~plan.reps.any(axis=1)
    assert np.all(norms[zero] == 0.0) and np.allclose(norms[~zero], 1.0, rtol=0, atol=1e-15)
    assert np.allclose(dirs * np.linalg.norm(plan.unit_momenta, axis=1)[:, None], plan.unit_momenta)
    for build in (plan.dirac, plan.bochner, plan.limit_rows, lambda: plan.symbol_spectra([1e-3])):
        assert _asked_coupling(monkeypatch, build) == []
    monkeypatch.setattr(mapping, "_couples", lambda *args: True)
    monkeypatch.setattr(mapping._MappingPlan, "_blocks", _no_blocks)
    with pytest.raises(ValueError, match=COUPLED):
        limit_operator(model, cm, 2)


def test_coupling_check_reads_each_orbits_direction(monkeypatch):
    # FCC fiber turned by the cyclic permutation: the modes (a, a, a) lie on
    # the rotation axis, and each is an orbit of size 1 in the zero mode's
    # twist sector.  F(u) commutes with the twist along the axis although
    # no single fiber gamma does, so the plan passes; the same masks at a
    # coordinate direction are refused, at every length of the direction
    from diraclab.mapping import _couples

    cm = spinor_gammas(4)
    plan_of = lambda: _plan(_fcc_cyclic_mapping(0.0), cm, 1)  # noqa: E731
    ((masks, dirs, gammas_q),) = _asked_coupling(monkeypatch, plan_of)
    plan = plan_of()
    axis = np.flatnonzero(np.all(plan.reps == plan.reps[:, :1], axis=1) & plan.reps.any(axis=1))
    assert len(axis) == 2 and masks[axis].any(axis=(1, 2)).all()
    assert not _couples(masks, dirs, gammas_q)
    assert not _couples(masks[axis], 1e-200 * dirs[axis], gammas_q)
    for k in range(3):
        turned = np.zeros_like(dirs[axis])
        turned[:, k] = 1.0
        assert all(_couples(masks[axis], t * turned, gammas_q) for t in (1e-200, 1.0, 1e200))


def _loop_orbits(model, truncation):
    """Reference enumeration: follow every window mode around its orbit."""
    shift = model.fiber.spin_shift
    phi_t = model.holonomy.T
    carry = np.round(phi_t @ shift - shift).astype(np.int64)

    def step(k):
        return tuple(int(x) for x in phi_t @ np.array(k) + carry)

    seen, orbits = set(), []
    for k in itertools.product(*_mode_ranges(shift, truncation)):
        if k in seen:
            continue
        orbit = [k]
        while step(orbit[-1]) != k:
            orbit.append(step(orbit[-1]))
        seen.update(orbit)
        orbits.append((min(orbit), len(orbit)))
    return sorted(orbits)


_HEX = np.array([[1.0, 0.5], [0.0, np.sqrt(3) / 2]])
_SHEAR = np.array([[1.0, 0.3], [0.0, 1.1]])


@pytest.mark.parametrize(
    "basis, shift, holonomy",
    [
        (np.eye(2), [0.0, 0.0], [[0, -1], [1, 0]]),
        (np.eye(2), [0.5, 0.5], [[0, -1], [1, 0]]),
        (_HEX, [0.0, 0.0], [[0, -1], [1, 1]]),
        (_HEX, [0.0, 0.0], [[-1, -1], [1, 0]]),
        (_SHEAR, [0.5, 0.0], [[-1, 0], [0, -1]]),
        (_SHEAR, [0.5, 0.5], [[-1, 0], [0, -1]]),
        (np.eye(3), [0.5, 0.5, 0.5], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
        (np.array([[1.0]]), [0.5], [[1]]),
    ],
    ids=["rot4", "rot4_shift", "hex_rot6", "hex_rot3", "minus_I_x", "minus_I_xy", "perm3", "circle"],
)
def test_vectorized_enumeration_matches_loops(basis, shift, holonomy):
    fiber = FlatTorusModel(basis, np.array(shift))
    model = AffineMappingTorus(fiber=fiber, holonomy=np.array(holonomy), base_length=1.0)
    for truncation in (1, 2, 4):
        modes = _flat_modes(fiber, truncation)
        assert modes.tolist() == [
            list(k) for k in itertools.product(*_mode_ranges(fiber.spin_shift, truncation))
        ]
        reps, sizes = _holonomy_orbits(model, truncation)
        assert reps.dtype == np.int64 and reps.shape == (len(sizes), fiber.n)
        got = [(tuple(r), s) for r, s in zip(reps.tolist(), sizes.tolist())]
        assert got == _loop_orbits(model, truncation)


def _loop_lift_refusal(model, cm, u):
    """Reference: the given-lift checks one generator at a time."""
    b = model.fiber.lattice_basis
    m = model.fiber.n
    rot = np.eye(m + 1)
    rot[:m, :m] = (b @ model.holonomy @ np.linalg.inv(b)).T
    if np.linalg.norm(u.conj().T @ u - np.eye(cm.dim_v), 2) > UNITARITY_TOL:
        return "holonomy lift is not unitary"
    for j in range(cm.n):
        if np.linalg.norm(u @ cm.gammas[j] @ u.conj().T - cm.gamma(rot[:, j]), 2) > LIFT_TOL:
            return "holonomy lift does not intertwine"
    return None


@pytest.mark.parametrize("build", [spinor_gammas, exterior_module])
@pytest.mark.parametrize("delta", [0.0, 1e-12, 1e-10, 4e-10, 1e-9, 4e-9, 1e-6])
@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-11, 1.0 + 1e-9])
def test_given_lift_checks_match_loop(build, delta, scale):
    cm = build(3)
    geometric = _plan(_rot4_mapping(), cm, 1).basis.lift
    h = np.random.default_rng(3).standard_normal((cm.dim_v, cm.dim_v))
    h = (h + h.T) / np.linalg.norm(h + h.T, 2)
    # a unitary (for scale 1) that intertwines to within about 2 delta
    u = scale * geometric @ _expm_skew_factors(1j * delta * h)[0]
    model = AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.zeros(2)),
        holonomy=np.array([[0, -1], [1, 0]]),
        base_length=1.0,
        holonomy_lift=u,
    )
    expected = _loop_lift_refusal(model, cm, u)
    if expected is None:
        assert _resolve_lift(model, cm).lift is model.holonomy_lift
    else:
        with pytest.raises(ValueError, match=f"^{expected}"):
            _resolve_lift(model, cm)


@pytest.mark.parametrize("build", [spinor_gammas, exterior_module])
@pytest.mark.parametrize("delta", [1e-10, 4e-10, 5e-10])
def test_near_geometric_given_lift_runs_like_the_geometric_one(build, delta):
    # a unitary lift delta from the geometric one passes the given-lift
    # checks; its cosines of an angle pair theta, -theta split by more than
    # ANGLE_TOL, which _unitary_eigh must still split by sine, or the lift
    # basis check refuses it (as the exterior module's lift was at 4e-10)
    cm = build(3)
    geometric = _plan(_rot4_mapping(), cm, 1).basis.lift
    h = np.random.default_rng(3).standard_normal((cm.dim_v, cm.dim_v))
    h = (h + h.T) / np.linalg.norm(h + h.T, 2)
    u = geometric @ _expm_skew_factors(1j * delta * h)[0]
    model = AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.zeros(2)),
        holonomy=np.array([[0, -1], [1, 0]]),
        base_length=1.0,
        holonomy_lift=u,
    )
    assert _loop_lift_refusal(model, cm, u) is None
    got = collapse_run(model, cm, [1.0, 0.5], 1, 2)
    ref = collapse_run(_rot4_mapping(), cm, [1.0, 0.5], 1, 2)
    assert got.verdict == ref.verdict
    for a, b in zip(got.spectra_per_eps + (got.limit_spectrum,), ref.spectra_per_eps + (ref.limit_spectrum,)):
        if b is None:  # no limit: the spinor lift fixes no column
            assert a is None
        else:
            assert len(a) == len(b)
            assert np.max(np.abs(np.sort(a.values) - np.sort(b.values))) <= SPECTRUM_MATCH_TOL
