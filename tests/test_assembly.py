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
    _OrbitGroup,
    _flat_modes,
    _holonomy_orbits,
    _mapping_plan,
    _mode_ranges,
    _twist_sector,
    assemble_dirac,
    bochner_rhs,
    eigenvalue_derivative,
    fiber_invariant_split,
    frame_bundle_operator,
    invariant_projector,
    limit_operator,
    write_matrix_text,
)
from diraclab.clifford import exterior_module, lift_rotation, spinor_gammas
from diraclab.collapse import blowup_check, collapse_run
from diraclab.models import AffineMappingTorus, FlatTorusModel
from diraclab.spectral import HERMITICITY_TOL, eigensolve, epsilon_close, subset_epsilon_close


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
    assert np.allclose(split.projector @ split.projector, split.projector, atol=1e-12)
    assert int(round(np.trace(split.projector).real)) == 2

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


def test_invariant_projector_commutes():
    ext3 = exterior_module(3)
    mt = AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.zeros(2)),
        holonomy=np.array([[0, -1], [1, 0]]),
        base_length=1.0,
    )
    op = assemble_dirac(mt.with_scale(0.2), ext3, 2)
    proj = invariant_projector(op)
    assert np.max(np.abs(proj @ op.matrix - op.matrix @ proj)) < 1e-12
    # one invariant cluster of dimension 4 per base index
    assert int(round(np.trace(proj).real)) == 4 * (2 * 2 + 1)


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
    assert np.trace(invariant_projector(op)).real == 2 * 5


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
            (plan.dirac(eps), assemble_dirac(scaled, module, truncation)),
            (plan.bochner(eps), bochner_rhs(scaled, module, truncation)),
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


@settings(max_examples=40, deadline=None)
@given(
    model=_mapping_models(),
    exterior=st.booleans(),
    truncation=st.integers(1, 3),
    eps=st.floats(0.05, 2.0),
)
def test_plan_matches_assembly_over_model_space(model, exterior, truncation, eps):
    module = exterior_module(3) if exterior else spinor_gammas(3)
    got = _mapping_plan(model, module, truncation).dirac(eps)
    scaled = model.with_scale(eps)
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


def test_twist_that_fails_to_diagonalize_is_refused():
    cm = spinor_gammas(3)
    shear = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)  # not unitary
    with pytest.raises(ValueError, match="failed to diagonalize"):
        _twist_sector(shear, cm.gammas[2], 1, 0.0)


def test_twist_sector_of_unitary_with_repeated_eigenvalue():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    w, _ = np.linalg.qr(z)
    angles = np.array([0.1, 0.1, 0.6, 0.1, 0.35])
    twist = w @ np.diag(np.exp(2j * np.pi * angles)) @ w.conj().T
    sector = _twist_sector(twist, np.eye(5), 1, 0.0)
    q = sector.q
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
    sector = _twist_sector(twist, np.eye(3), 1, 0.0)
    assert np.array_equal(sector.q, np.eye(3))


def test_lift_is_resolved_once_per_run(monkeypatch):
    import diraclab.assembly as assembly

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return lift_rotation(*args, **kwargs)

    monkeypatch.setattr(assembly, "lift_rotation", counting)
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


def test_symbol_coupling_twist_sectors_is_refused():
    cm = spinor_gammas(3)
    plan = _mapping_plan(_rot4_mapping(), cm, 1)
    # the zero mode is the only orbit of size 1; its twist is the lift,
    # which splits into two sectors that gamma_0 would mix
    (zero,) = np.flatnonzero(~plan.reps.any(axis=1))
    (group,) = [g for g in plan.groups if zero in g.members]
    assert group.members.tolist() == [zero]
    assert len(group.sector.clusters) == 2
    gp = np.zeros((len(plan.reps), 2, 2), dtype=complex)
    group.dirac_blocks(gp)
    gp[zero] = cm.gammas[0]
    with pytest.raises(ValueError, match="couples distinct twist sectors"):
        group.dirac_blocks(gp)
    # the check is relative to each member's own scale: a small leak in one
    # member is refused although another member's symbol is far larger
    pair = _OrbitGroup(
        np.array([0, 1]), group.sector, tuple(np.vstack([b, b]) for b in group.betas),
        group.positions,
    )
    gp = np.array([1e6 * cm.gammas[2], 1e-3 * cm.gammas[0]])
    with pytest.raises(ValueError, match="couples distinct twist sectors"):
        pair.dirac_blocks(gp)
    gp[1] = 0.0
    assert [b.shape for b in pair.dirac_blocks(gp)] == [(2, 3, 1, 1), (2, 3, 1, 1)]


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
