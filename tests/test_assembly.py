"""Operator assembly: flat tori, mapping tori, limits, derivatives."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.assembly import (
    AssembledOperator,
    BlockInfo,
    EmptyInvariantSpaceError,
    _flat_modes,
    _holonomy_orbits,
    _lift_basis,
    _mapping_plan,
    _mode_ranges,
    _resolve_lift,
    _twist_sector,
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
from diraclab.models import AffineMappingTorus, FlatTorusModel
from diraclab.spectral import (
    HERMITICITY_TOL,
    LIFT_TOL,
    UNITARITY_TOL,
    STRUCTURE_TOL,
    eigensolve,
    epsilon_close,
    subset_epsilon_close,
)


def _circle(length=2 * np.pi, shift=0.5):
    return FlatTorusModel(np.array([[length]]), np.array([shift]))


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
    with pytest.raises(TypeError):
        assemble_dirac("nope", spinor_gammas(1), 2)


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
    split = fiber_invariant_split(_simple_mapping().with_scale(0.25), cm, 3)
    assert split.dim == 2
    assert split.gap == pytest.approx(4.0, abs=1e-12)

    # antiperiodic fiber: no parallel sections, gap is the smallest momentum
    split2 = fiber_invariant_split(_simple_mapping(fiber_shift=0.5), cm, 3)
    assert split2.dim == 0
    assert split2.gap == pytest.approx(0.5, abs=1e-12)

    # partial fixed space leaves zero modes in the complement: gap collapses
    ext3 = exterior_module(3)
    mt = AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.zeros(2)),
        holonomy=np.array([[0, -1], [1, 0]]),
        base_length=1.0,
    )
    split3 = fiber_invariant_split(mt, ext3, 2)
    assert split3.dim == 4
    assert split3.gap == 0.0


def _invariant_rows(op):
    info = op.block_info
    return int(np.sum(np.repeat(info.invariant, info.sizes)))


def test_invariant_rows_per_base_index():
    ext3 = exterior_module(3)
    mt = AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.zeros(2)),
        holonomy=np.array([[0, -1], [1, 0]]),
        base_length=1.0,
    )
    op = assemble_dirac(mt.with_scale(0.2), ext3, 2)
    # one invariant cluster of dimension 4 per base index
    assert _invariant_rows(op) == 4 * (2 * 2 + 1)


def test_fiber_operator_antiperiodic_gap():
    cm3 = spinor_gammas(3)
    mt = AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.array([0.5, 0.5])),
        holonomy=-np.eye(2),
        base_length=2 * np.pi,
    )
    fiber_vals = eigensolve(fiber_invariant_split(mt, cm3, 2).fiber_operator).values
    assert np.min(np.abs(fiber_vals)) == pytest.approx(np.pi * np.sqrt(2), abs=1e-9)


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


def test_eigenvalue_derivative_refuses_bad_step():
    def fam(t):
        return np.array([[(2 * np.pi + t) ** 2]])

    # a zero step used to give nan with only a RuntimeWarning
    for step in (0.0, -1e-6, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=rf"fd_step must be positive and finite, got {step!r}"):
            eigenvalue_derivative(
                fam, spinor_gammas(1), 3, 0.2, 2, spin_shift=np.array([0.5]), fd_step=step
            )
    # with an exact velocity the step is not used
    got = eigenvalue_derivative(
        fam, spinor_gammas(1), 3, 0.2, 2, spin_shift=np.array([0.5]), fd_step=0.0,
        gram_dot=lambda t: np.array([[2 * (2 * np.pi + t)]]),
    )
    assert np.isfinite(got)


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
    return BlockInfo(np.arange(n)[:, None], np.array(sizes), np.zeros(n), np.zeros(n, dtype=bool))


def test_assembled_operator_validation():
    info = _info(2)
    with pytest.raises(ValueError, match="not Hermitian"):
        AssembledOperator([np.array([[[0.0, 1.0], [1.0 + 1e-11, 0.0]]])], info, 1, "test")
    # every block of a stack is checked, not just the first
    with pytest.raises(ValueError, match="not Hermitian"):
        AssembledOperator(
            [np.array([np.eye(2), [[0.0, 1.0], [1.0 + 1e-11, 0.0]]])], _info(2, 2), 1, "test"
        )
    # the tolerance is relative to the largest entry
    scale = 10.0
    near = scale + 0.5 * HERMITICITY_TOL * scale
    AssembledOperator([np.array([[[0.0, scale], [near, 0.0]]])], info, 1, "test")
    with pytest.raises(ValueError, match="square"):
        AssembledOperator([np.zeros((1, 2, 3))], info, 1, "test")
    with pytest.raises(ValueError, match="block info"):
        AssembledOperator([np.eye(2)[None], np.eye(1)[None]], info, 1, "test")
    # as many infos as blocks, but their sizes do not match the stacks
    with pytest.raises(ValueError, match="block info"):
        AssembledOperator([np.eye(2)[None]], _info(1), 1, "test")
    with pytest.raises(ValueError, match="block info"):
        AssembledOperator([np.eye(2)[None], np.eye(1)[None]], _info(1, 1), 1, "test")
    # malformed records: columns of unequal length, modes that are not 2-D,
    # sizes below 1
    stack = [np.eye(2)[None]]
    good = vars(_info(2))
    for column, bad in [
        ("modes", np.zeros((2, 1), dtype=int)),
        ("sizes", np.array([2, 2])),
        ("twist", np.zeros(0)),
        ("invariant", np.zeros(2, dtype=bool)),
        ("twist", np.zeros((1, 1))),
    ]:
        with pytest.raises(ValueError, match="one entry per block"):
            AssembledOperator(stack, BlockInfo(**{**good, column: bad}), 1, "test")
    for modes in (np.zeros(1, dtype=int), np.zeros((1, 1, 1), dtype=int)):
        with pytest.raises(ValueError, match="must be a 2-D array"):
            AssembledOperator(stack, BlockInfo(**{**good, "modes": modes}), 1, "test")
    for sizes in ([0], [-1]):
        with pytest.raises(ValueError, match="at least 1"):
            AssembledOperator(
                [np.zeros((0, 2, 2))], BlockInfo(**{**good, "sizes": np.array(sizes)}), 1, "test"
            )
    # the record is read-only once it backs an operator
    op = AssembledOperator(stack, _info(2), 1, "test")
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
    dense = eigensolve(op.matrix)
    assert np.max(np.abs(spec.values - dense.values)) <= 1e-12
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
        p = model.scaled_fiber().dual_momentum(rep)
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
        p = model.scaled_fiber().dual_momentum(np.array([k]))
        beta = 2 * np.pi * (u + twist) / model.base_length - 2 * np.pi * 0.25 * (k + 0.5)
        assert np.max(np.abs(block - (p @ p + beta**2) * np.eye(2))) <= 1e-12


def test_invariant_flags_only_the_zero_mode():
    # identity holonomy and lift: every orbit has size 1 and its one cluster
    # lies in the fixed space of the lift, but only the zero mode carries
    # parallel sections
    op = assemble_dirac(_simple_mapping(), spinor_gammas(2), 2)
    info = op.block_info
    assert np.array_equal(info.invariant, info.modes[:, 0] == 0)
    assert _invariant_rows(op) == 2 * 5


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
    plan = _mapping_plan(model, module, truncation)
    for eps in (1.0, 0.5, 0.125):
        scaled = model.with_scale(eps)
        pairs = [
            (plan.dirac(scaled), assemble_dirac(scaled, module, truncation)),
            (plan.bochner(scaled), bochner_rhs(scaled, module, truncation)),
        ]
        for got, ref in pairs:
            assert got.model_ref == ref.model_ref
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
    got = _mapping_plan(model, module, truncation).dirac(scaled)
    ref = assemble_dirac(scaled, module, truncation)
    assert got.model_ref == ref.model_ref
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
    plan = _mapping_plan(model, module, truncation)
    try:
        limit = limit_operator(model, module, truncation)
    except EmptyInvariantSpaceError:
        assert not exterior and not np.array_equal(model.holonomy, np.eye(2))
        return
    op = plan.dirac(model.with_scale(eps))
    zero = np.flatnonzero(~op.block_info.modes[:, :-1].any(axis=1))
    assert len(zero) == len(limit.blocks) and np.array_equal(zero, np.arange(zero[0], zero[-1] + 1))
    for got, want in zip(limit.blocks, [op.blocks[i] for i in zero]):
        assert got.tobytes() == want.tobytes()
    info = op.block_info
    assert np.array_equal(limit.block_info.modes, info.modes[zero, -1:])
    for name in ("sizes", "twist", "invariant"):
        assert np.array_equal(getattr(limit.block_info, name), getattr(info, name)[zero])


def _multiplicities(values):
    """Sizes of the runs of a sorted array whose neighbours lie within
    1e-9 * max(1, |value|) of each other."""
    gaps = np.diff(values) > 1e-9 * np.maximum(1.0, np.abs(values[1:]))
    return np.diff(np.flatnonzero(np.concatenate([[True], gaps, [True]])))


def _assert_same_spectrum(got, ref):
    assert got.source_truncation == ref.source_truncation
    assert len(got) == len(ref)
    a, b = got.values, ref.values
    assert np.all(np.abs(a - b) <= 1e-13 * np.maximum(1.0, np.abs(b)))
    assert np.array_equal(np.signbit(a), np.signbit(b))
    assert np.array_equal(_multiplicities(a), _multiplicities(b))
    assert got.cluster_tol == pytest.approx(ref.cluster_tol, rel=1e-13)


@settings(max_examples=40)
@given(
    model=_mapping_models(),
    exterior=st.booleans(),
    truncation=st.integers(1, 3),
    eps=st.floats(0.05, 2.0),
)
def test_symbol_spectra_match_block_path_over_model_space(model, exterior, truncation, eps):
    module = exterior_module(3) if exterior else spinor_gammas(3)
    plan = _mapping_plan(model, module, truncation)
    scaled = model.with_scale(eps)
    ref = eigensolve(plan.dirac(scaled))
    solved = plan.symbol_spectra([scaled.scaled_fiber()]).at(0)
    # on valid modules every block is certified, so the block path is never taken
    assert solved is not None
    _assert_same_spectrum(solved, ref)
    # blowup_check's minimum |lambda|, read off the certified spectrum
    smallest = ref.abs_sorted()[0]
    assert abs(float(solved.abs_sorted()[0]) - smallest) <= 1e-13 * max(1.0, smallest)
    try:
        limit = plan.limit_symbol_spectrum()
    except EmptyInvariantSpaceError:
        with pytest.raises(EmptyInvariantSpaceError):
            limit_operator(model, module, truncation)
        return
    assert limit is not None
    _assert_same_spectrum(limit, eigensolve(limit_operator(model, module, truncation)))


def test_symbol_zero_blocks_are_zeros():
    # identity holonomy and lift with periodic base: the zero mode at base
    # index 0 is a zero block, which takes dim_v zeros without a certificate
    cm = spinor_gammas(3)
    model = AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.zeros(2)),
        holonomy=np.eye(2),
        base_length=1.0,
        holonomy_lift=np.eye(2, dtype=complex),
    )
    plan = _mapping_plan(model, cm, 2)
    for solved, ref in [
        (plan.symbol_spectra([model.scaled_fiber()]).at(0), eigensolve(plan.dirac(model))),
        (plan.limit_symbol_spectrum(), eigensolve(limit_operator(model, cm, 2))),
    ]:
        assert solved is not None
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


@pytest.mark.parametrize("truncation", [1, 2])
@pytest.mark.parametrize("fiber_shift", [0.0, 0.5])
def test_symbol_path_accepts_rank_three_axis_modes(fiber_shift, truncation):
    # the symbol path's triangle bound on the twist-sector leak trips on the
    # axis modes; it used to refuse what the block path accepts.  collapse_run
    # takes one scale, as each costs a rank-3 fiber diameter (over a second)
    cm = spinor_gammas(4)
    model = _fcc_cyclic_mapping(fiber_shift)
    plan = _mapping_plan(model, cm, truncation)
    eps = [1.0, 0.5]
    refs = [eigensolve(plan.dirac(model.with_scale(e))) for e in eps]
    report = collapse_run(model, cm, eps[:1], 2, truncation)
    _assert_same_spectrum(report.spectra_per_eps[0], refs[0])
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
    return CliffordModule(3, "spin", 2, gammas, cm.sigmas)


def _identity_mapping():
    return AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.zeros(2)),
        holonomy=np.eye(2),
        base_length=1.0,
        holonomy_lift=np.eye(2, dtype=complex),
        base_shift=0.5,
    )


def test_uncertified_symbols_take_the_block_path():
    # a base gamma squaring to (1 + 1e-6)^2 breaks D^2 = r^2 I by far more
    # than the certificate allows: no block may take the closed form
    cm = _non_clifford_spinor(base_factor=1.0 + 1e-6)
    model = _identity_mapping()
    plan = _mapping_plan(model, cm, 2)
    eps = [1.0, 0.5]
    solved = plan.symbol_spectra([model.with_scale(e).scaled_fiber() for e in eps])
    assert [solved.at(i) for i in range(len(eps))] == [None] * len(eps)
    assert plan.limit_symbol_spectrum() is None
    report = collapse_run(model, cm, eps, 2, 2)
    for e, spec in zip(eps, report.spectra_per_eps):
        assert np.array_equal(spec.values, eigensolve(plan.dirac(model.with_scale(e))).values)
    assert np.array_equal(
        report.limit_spectrum.values, eigensolve(limit_operator(model, cm, 2)).values
    )


def test_symbol_path_refuses_non_hermitian_symbols(monkeypatch):
    import diraclab.assembly as assembly

    def no_operator(*args):
        raise AssertionError("block path taken")

    cm = _non_clifford_spinor(skew=1e-6)
    model = _identity_mapping()
    message = r"^assembled operator is not Hermitian \(residual "
    with pytest.raises(ValueError, match=message):
        collapse_run(model, cm, [1.0], 1, 2)
    monkeypatch.setattr(assembly._MappingPlan, "_operator", no_operator)
    with pytest.raises(ValueError, match=message):
        collapse_run(model, cm, [1.0], 1, 2)


class _GivenMomenta:
    """Stands in for a scaled model, and for its scaled fiber, whose orbit
    fiber momenta are p."""

    def __init__(self, p):
        self.p = p

    def scaled_fiber(self):
        return self

    def dual_momentum(self, reps):
        return self.p.copy()

    def label(self):
        return "given momenta"


def _refusal(run):
    """The message of the ValueError run() raises, or None."""
    try:
        run()
    except ValueError as err:
        return str(err)
    return None


def test_symbol_path_refuses_coupling_twist_sectors():
    # gamma_0 mixes the two sectors of the zero mode's twist.  The block and
    # symbol paths take their verdict from the plan's one coupling check, so
    # they refuse the same momenta with the same message, the last case
    # with every other orbit's symbol far larger
    cm = spinor_gammas(3)
    plan = _mapping_plan(_rot4_mapping(), cm, 1)
    (zero,) = np.flatnonzero(~plan.reps.any(axis=1))
    message = "operator symbol couples distinct twist sectors"
    cases = [(size, 0.0) for size in (0.0, 1e-12, 5e-9, 2e-8, 1e-6, 1.0, 1e6)] + [(1e-3, 1e6)]
    for size, elsewhere in cases:
        p = np.full((len(plan.reps), 2), elsewhere)
        p[zero] = (size, 0.0)
        given = _GivenMomenta(p)
        block = _refusal(lambda: plan.dirac(given))
        symbol = _refusal(lambda: plan.symbol_spectra([given]).at(0))
        assert block == symbol
        assert block == (message if size > STRUCTURE_TOL else None)


def test_collapse_runs_build_no_operator_per_scale(monkeypatch):
    import diraclab.assembly as assembly

    def no_operator(*args):
        raise AssertionError("an operator was assembled")

    monkeypatch.setattr(assembly._MappingPlan, "_operator", no_operator)
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
    """The lift basis of lift and its twist sector of orbit size 1
    (periodic base)."""
    basis = _lift_basis(lift)
    return basis, _twist_sector(basis, 1, 0.0)


def test_twist_that_fails_to_diagonalize_is_refused():
    shear = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)  # not unitary
    with pytest.raises(ValueError, match="failed to diagonalize"):
        _sector(shear)


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
    assert [(round(theta, 12), len(idxs)) for theta, idxs in sector.clusters] == [
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
    import diraclab.assembly as assembly

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return _lift_factors(*args, **kwargs)

    # a computed lift is lift_rotation's, with the factors it is built from
    monkeypatch.setattr(assembly, "_lift_factors", counting)
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


def test_symbol_coupling_twist_sectors_is_refused(monkeypatch):
    import diraclab.assembly as assembly

    cm = spinor_gammas(3)
    plan = _mapping_plan(_rot4_mapping(), cm, 1)
    # the zero mode is the only orbit of size 1; its twist is the lift,
    # which splits into two sectors that gamma_0 would mix
    (zero,) = np.flatnonzero(~plan.reps.any(axis=1))
    _, sizes = _holonomy_orbits(plan.model, 1)
    assert np.flatnonzero(sizes == 1).tolist() == [zero]
    assert len(plan.sectors[1].clusters) == 2
    assert set(plan.cluster[plan.orbit == zero].tolist()) == {0, 1}
    assert plan.coupling[zero].any() and not np.delete(plan.coupling, zero, axis=0).any()
    p = np.zeros((2, len(plan.reps), 2))
    p[1, zero] = (1.0, 0.0)
    assert plan.coupled(p, slice(None)).tolist() == [False, True]

    # the block path refuses before it forms a block
    def no_blocks(*args):
        raise AssertionError("a block was formed")

    monkeypatch.setattr(assembly._MappingPlan, "_operator", no_blocks)
    with pytest.raises(ValueError, match="couples distinct twist sectors"):
        plan.dirac(_GivenMomenta(p[1]))


def test_limit_takes_the_plan_coupling_check_at_the_zero_mode(monkeypatch):
    # limit_operator and the limit's symbol solve both ask the plan's one
    # check, for the zero-mode orbit alone at p = 0, before any block
    import diraclab.assembly as assembly

    asked = []

    def flag_every_scale(self, p, orbits):
        asked.append((p.tolist(), self.reps[orbits].tolist()))
        return np.ones(len(p), dtype=bool)

    def no_blocks(*args):
        raise AssertionError("a block was formed")

    monkeypatch.setattr(assembly._MappingPlan, "coupled", flag_every_scale)
    monkeypatch.setattr(assembly._MappingPlan, "_operator", no_blocks)
    model, cm = _rot4_mapping(), exterior_module(3)
    plan = _mapping_plan(model, cm, 2)
    for run in (lambda: limit_operator(model, cm, 2), plan.limit_symbol_spectrum):
        asked.clear()
        with pytest.raises(ValueError, match="^operator symbol couples distinct twist sectors$"):
            run()
        assert asked == [([[[0.0, 0.0]]], [[0, 0]])]


def test_coupling_check_is_relative_to_each_orbit():
    # FCC fiber turned by the cyclic permutation: the modes (a, a, a) lie on
    # the rotation axis, and each is an orbit of size 1 in the zero mode's
    # twist sector.  gamma(p) commutes with the twist along the axis, so a
    # large axis symbol leaks nothing, and a small leak at the zero mode is
    # refused against the zero mode's own scale
    cm = spinor_gammas(4)
    model = _fcc_cyclic_mapping(0.0)
    plan = _mapping_plan(model, cm, 1)
    axis = np.flatnonzero(np.all(plan.reps == plan.reps[:, :1], axis=1))
    assert len(axis) == 3 and plan.coupling[axis].any(axis=(1, 2)).all()
    big = 1e6 * model.fiber.dual_momentum(np.ones((1, 3)))
    (zero,) = np.flatnonzero(~plan.reps.any(axis=1))
    p = np.zeros((3, 2, 3))
    p[:, 0] = big[0]
    p[1, 1] = (1e-3, 0.0, 0.0)
    p[2, 1] = big[0]
    assert plan.coupled(p, [axis[-1], zero]).tolist() == [False, True, False]


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
    geometric = _mapping_plan(_rot4_mapping(), cm, 1).basis.lift
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
