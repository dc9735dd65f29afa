"""One lift basis per plan and one stacked symbol solve over all fiber scales,
against the code they replace: an eig of every orbit size's twist,
ker(lift - I) for lifts of any angle, one solve per scale from the gammas'
traces one by one, and the eig + QR basis of a computed lift."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diraclab.assembly as assembly
import diraclab.clifford as clifford
import diraclab.mapping as mapping
from diraclab.assembly import fiber_invariant_split, limit_operator
from diraclab.mapping import (
    EmptyInvariantSpaceError,
    _cluster_angles,
    _lift_basis,
    _parallel_columns,
    _plan,
    _resolve_lift,
)
from diraclab.clifford import (
    _expm_skew_factors,
    _unitary_eigh,
    exterior_module,
    spinor_gammas,
)
from diraclab.collapse import blowup_check, collapse_run
from diraclab.models import AffineMappingTorus, FlatTorusModel
from diraclab.spectral import SPECTRUM_MATCH_TOL, STRUCTURE_TOL
from diraclab.spectral import eigensolve
from test_assembly import _assert_same_spectrum, _mapping_models, _scaled_fiber

# ---------------------------------------------------------------------------
# the replaced code, kept as the reference


def _reference_sector(lift, d, base_shift):
    """(theta, size) per cluster of the twist of orbit size d, from an eig
    of that twist itself."""
    loop_phase = -1.0 if (base_shift == 0.5 and d % 2 == 1) else 1.0
    twist = loop_phase * np.linalg.matrix_power(np.asarray(lift, dtype=complex), d)
    vals, q = np.linalg.eig(twist)
    thetas = np.mod(np.angle(vals) / (2.0 * np.pi), 1.0)
    clusters = [(theta, np.array(idxs)) for theta, idxs in _cluster_angles(thetas)]
    order = np.concatenate([idxs for _, idxs in clusters])
    qc, r = np.linalg.qr(q[:, order])
    pivots = np.diag(r)
    q[:, order] = qc * (pivots / np.maximum(np.abs(pivots), np.finfo(float).tiny))
    tq = q.conj().T @ twist @ q
    off = tq - np.diag(np.diag(tq))
    assert max(np.max(np.abs(off)), np.max(np.abs(q.conj().T @ q - np.eye(len(q))))) <= STRUCTURE_TOL
    return [(theta, len(idxs)) for theta, idxs in clusters]


def _reference_lift_basis(lift):
    """(q, angles) of a lift from one eig and one QR over its clusters of
    equal eigen-angle, QR phases put back: the basis plans took for a
    computed lift before they read the eigh basis of its generator."""
    vals, q = np.linalg.eig(lift)
    angles = np.mod(np.angle(vals) / (2.0 * np.pi), 1.0)
    order = np.concatenate([idxs for _, idxs in _cluster_angles(angles)])
    qc, r = np.linalg.qr(q[:, order])
    pivots = np.diag(r)
    q[:, order] = qc * (pivots / np.maximum(np.abs(pivots), np.finfo(float).tiny))
    return q, angles


def _kernel_dim(lift):
    """Dimension of ker(lift - I), from the eigenvalues |exp(2 pi i a) - 1|^2
    of (lift - I)^H (lift - I): those of an angle a within STRUCTURE_TOL of
    a whole turn."""
    d = lift - np.eye(len(lift))
    return int(np.count_nonzero(np.linalg.eigvalsh(d.conj().T @ d) <= (2.0 * np.pi * STRUCTURE_TOL) ** 2))


def _fixed_columns(lift, q):
    """Columns of q the lift fixes, by the product test |lift q_j - q_j| <=
    STRUCTURE_TOL that the lift basis took before it read angles alone."""
    return np.abs(lift @ q - q).max(axis=0) <= STRUCTURE_TOL


def _reference_traces(plan):
    """Per cluster (batch-last), the real traces (n, C) of the gammas in
    the lift basis restricted to its columns, G_k = q_c^H gamma_k q_c."""
    n = len(plan.gammas_q)
    # the clusters' columns, numbered over the twist sectors in order
    cols = [np.array(idxs) for sec in plan.sectors.values() for _, idxs in sec]
    trace = np.zeros((n, len(cols)))
    for i, c in enumerate(cols):
        trace[:, i] = np.trace(plan.gammas_q[:, c[:, None], c[None, :]], axis1=-2, axis2=-1).real
    return trace


def _reference_solve(table, trace, p):
    """One scale's solve at the orbit fiber momenta p (O, m) of the blocks
    of table (per block its orbit, cluster, beta and size), with every
    cluster trace repeated per block: per block r and the count of +r, from
    the traces of the gammas one by one."""
    trace = trace[..., table.cluster]
    x = np.empty((len(trace), len(table.beta)))
    x[:-1] = np.take(p.T, table.orbit, axis=1)
    x[-1] = table.beta
    r = np.sqrt(np.einsum("kb,kb->b", x, x))
    zero = ~x.any(axis=0)
    nplus = 0.5 * (table.sizes + np.einsum("kb,kb->b", x, trace) / np.where(zero, 1.0, r))
    return r, np.where(zero, table.sizes, np.rint(nplus)).astype(np.intp)


# ---------------------------------------------------------------------------
# the model space, with given lifts


def _commuting_involution(cm, lift, seed):
    """I - 2P for a projector P commuting with every gamma and with the lift
    (of finite order): a spectral projector of a random Hermitian matrix
    averaged over the gamma products and then over the lift's powers (P = 0
    when only scalars commute with both)."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((cm.dim_v,) * 2) + 1j * rng.standard_normal((cm.dim_v,) * 2)
    h = h + h.conj().T
    avg = np.zeros_like(h)
    for subset in itertools.product([False, True], repeat=cm.n):
        g = np.eye(cm.dim_v, dtype=complex)
        for gamma in cm.gammas[list(subset)]:
            g = g @ gamma
        avg += g @ h @ g.conj().T
    # the lift normalizes the gammas' commutant, so this average stays in it
    powers = [lift]
    while np.max(np.abs(powers[-1] - np.eye(cm.dim_v))) > 1e-9:
        assert len(powers) < 1024
        powers.append(lift @ powers[-1])
    avg = sum(u @ avg @ u.conj().T for u in powers)
    w, v = np.linalg.eigh(avg)
    gaps = np.diff(w)
    if np.max(gaps) <= 1e-6 * np.max(np.abs(w)):
        return np.eye(cm.dim_v)
    top = v[:, np.argmax(gaps) + 1 :]
    return np.eye(cm.dim_v) - 2.0 * top @ top.conj().T


@st.composite
def _lifted_models(draw):
    """A model of the model space, a module and a lift: the geometric one,
    the identity or -I (identity holonomy only), or an intertwiner
    exp(2 pi i phase) (I - 2P) U, U the geometric lift, with a rational
    phase (a lift of finite order) or an irrational one; P commutes with
    the gammas and with U."""
    model = draw(_mapping_models())
    cm = exterior_module(3) if draw(st.booleans()) else spinor_gammas(3)
    kinds = ["geometric", "intertwiner", "irrational"]
    if np.array_equal(model.holonomy, np.eye(2)):
        kinds += ["identity", "minus_identity"]
    kind = draw(st.sampled_from(kinds))
    if kind == "geometric":
        return model, cm, kind
    if kind in ("identity", "minus_identity"):
        lift = np.eye(cm.dim_v, dtype=complex) * (1.0 if kind == "identity" else -1.0)
    else:
        order = draw(st.integers(1, 12))
        phase = 0.1 * np.sqrt(2.0) if kind == "irrational" else draw(st.integers(0, order - 1)) / order
        geometric = _resolve_lift(model, cm).lift
        flip = _commuting_involution(cm, geometric, draw(st.integers(0, 2**32 - 1)))
        lift = np.exp(2j * np.pi * phase) * flip @ geometric
    return _with_lift(model, lift), cm, kind


def _with_lift(model, lift):
    return AffineMappingTorus(
        fiber=model.fiber,
        holonomy=model.holonomy,
        base_length=model.base_length,
        holonomy_lift=lift,
        base_shift=model.base_shift,
        fiber_scale=model.fiber_scale,
    )


def _canonical(clusters):
    """Clusters (theta, size, ...) in the order of theta mod 1, a
    theta within 1e-9 of a whole turn counting as 0."""
    def key(c):
        turn = c[0] % 1.0
        return 0.0 if min(turn, 1.0 - turn) <= 1e-9 else turn

    return sorted(clusters, key=key)


def _assert_same_clusters(got, ref):
    """Equal (theta, size, ...) clusters: thetas within 1e-12 of a turn, the
    rest equal."""
    got, ref = _canonical(got), _canonical(ref)
    assert [c[1:] for c in got] == [c[1:] for c in ref]
    for (a, *_), (b, *_) in zip(got, ref):
        turn = abs(a - b) % 1.0
        assert min(turn, 1.0 - turn) <= 1e-12


def _sector_clusters(sector):
    return [(t, len(idxs)) for t, idxs in sector]


@settings(max_examples=40)
@given(lifted=_lifted_models(), truncation=st.integers(1, 3))
def test_lift_basis_matches_per_size_eig_over_model_space(lifted, truncation):
    # every kind of lift, irrational ones included: the parallel mask has
    # the dimension of ker(lift - I) when the fiber has a zero mode
    model, cm, _ = lifted
    plan = _plan(model, cm, truncation)
    for d, sector in plan.sectors.items():
        _assert_same_clusters(
            _sector_clusters(sector), _reference_sector(plan.basis.lift, d, model.base_shift)
        )
    kernel = _kernel_dim(plan.basis.lift)
    periodic = not model.fiber.spin_shift.any()
    assert np.count_nonzero(_parallel_columns(model, plan.basis)) == (kernel if periodic else 0)


@settings(max_examples=40)
@given(
    model=_mapping_models(),
    exterior=st.booleans(),
    truncation=st.integers(1, 3),
    epsilons=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=3, unique=True),
)
def test_computed_lift_basis_matches_eig_qr_over_model_space(model, exterior, truncation, epsilons):
    # the model space of test_plan_matches_assembly_over_model_space; the
    # same model given its computed lift takes _lift_basis's path.  Both
    # bases have the clusters of the eig + QR reference, column by column
    # fixed or not alike, and their parallel masks are the product test's
    # fixed columns when the fiber has a zero mode
    cm = exterior_module(3) if exterior else spinor_gammas(3)
    basis = _resolve_lift(model, cm)
    q, angles = _reference_lift_basis(basis.lift)
    ref_fixed = _fixed_columns(basis.lift, q)
    periodic = not model.fiber.spin_shift.any()

    def lift_clusters(angles, fixed):
        # per cluster of equal eigen-angle: the fixed flags of its columns
        return [(t, len(idxs), sorted(fixed[idxs].tolist())) for t, idxs in _cluster_angles(angles)]

    given_model = _with_lift(model, basis.lift)
    given_basis = _resolve_lift(given_model, cm)
    for m, b in ((model, basis), (given_model, given_basis)):
        assert np.max(np.abs(b.q.conj().T @ b.q - np.eye(len(b.q)))) <= 1e-13
        assert np.max(np.abs(b.lift @ b.q - b.q * np.exp(2j * np.pi * b.angles))) <= 1e-13
        fixed = _fixed_columns(b.lift, b.q)
        _assert_same_clusters(lift_clusters(b.angles, fixed), lift_clusters(angles, ref_fixed))
        assert np.array_equal(_parallel_columns(m, b), fixed & periodic)
    plan, ref_plan = _plan(model, cm, truncation), _plan(given_model, cm, truncation)
    assert sorted(plan.sectors) == sorted(ref_plan.sectors)
    for d, sector in plan.sectors.items():
        _assert_same_clusters(_sector_clusters(sector), _sector_clusters(ref_plan.sectors[d]))
        _assert_same_clusters(
            _sector_clusters(sector), _reference_sector(basis.lift, d, model.base_shift)
        )
    eps = sorted(epsilons, reverse=True)
    got, ref = collapse_run(model, cm, eps, 1, truncation), collapse_run(given_model, cm, eps, 1, truncation)
    assert got.verdict == ref.verdict
    for a, b in zip(got.spectra_per_eps + (got.limit_spectrum,), ref.spectra_per_eps + (ref.limit_spectrum,)):
        if b is None:
            assert a is None
        else:
            _assert_same_spectrum(a, b)


@settings(max_examples=40)
@given(
    lifted=_lifted_models(),
    truncation=st.integers(1, 3),
    epsilons=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=4),
)
def test_stacked_solve_matches_per_scale_solve_over_model_space(lifted, truncation, epsilons):
    # every block takes the r and sign count of a per-scale solve from the
    # gammas' traces one by one; the spectra match the block path's
    model, cm, _ = lifted
    plan = _plan(model, cm, truncation)
    p = np.array([_scaled_fiber(model, e).dual_momentum(plan.reps) for e in epsilons])
    solved = mapping._SymbolSolution.solve(plan, p)
    # every scale's rows, and the rows of every scale of the orbit without
    # fiber momentum (the zero mode under the trivial fiber spin shift, the
    # limit's rows) against a reference solve of that orbit alone
    sizes = plan.block_info.sizes
    table = SimpleNamespace(orbit=plan.orbit, cluster=plan.cluster, beta=plan.beta, sizes=sizes)
    cases = [(table, p, slice(None))]
    zero = np.flatnonzero(~plan.unit_momenta.any(axis=1))
    if len(zero):
        rows = slice(*np.searchsorted(plan.orbit, [zero[0], zero[0] + 1]))
        part = SimpleNamespace(
            orbit=np.zeros(rows.stop - rows.start, dtype=np.intp), cluster=plan.cluster[rows],
            beta=plan.beta[rows], sizes=sizes[rows],
        )
        cases.append((part, p[:, zero], rows))
    trace = _reference_traces(plan)
    for symbols, momenta, rows in cases:
        for i, scale in enumerate(momenta):
            r, npos = _reference_solve(symbols, trace, scale)
            got = solved.at(i, rows)
            assert np.array_equal(solved.r[i, rows], r)
            assert np.array_equal(solved.npos[i, rows], npos)
            values = np.sort(np.concatenate([np.repeat(-r, symbols.sizes - npos), np.repeat(r, npos)]))
            assert np.array_equal(got.values, values)
            assert got.source_truncation == truncation
    for e in epsilons:
        ref = eigensolve(plan.dirac(e))
        _assert_same_spectrum(plan.symbol_spectra([e]).at(0), ref)


def _three_size_mapping():
    """A 4-torus fiber turned by a quarter turn in one plane and a half turn
    in the other: orbits of sizes 1, 2 and 4."""
    holonomy = np.zeros((4, 4), dtype=int)
    holonomy[0, 1], holonomy[1, 0], holonomy[2, 2], holonomy[3, 3] = -1, 1, -1, -1
    return AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(4), np.zeros(4)),
        holonomy=holonomy,
        base_length=1.0,
        base_shift=0.5,
    )


def _rot4_mapping():
    return AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.zeros(2)),
        holonomy=np.array([[0, -1], [1, 0]]),
        base_length=1.0,
    )


def _blocking_mapping():
    return AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.array([0.5, 0.5])),
        holonomy=-np.eye(2),
        base_length=2 * np.pi,
    )


def test_lift_is_diagonalized_once_per_plan(monkeypatch):
    # a computed lift takes the eigh basis of its generator, from one
    # _lift_factors call; a given lift takes one _unitary_eigh
    calls = {"_lift_factors": 0, "_unitary_eigh": 0}

    def counting(name):
        original = getattr(mapping, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return count

    for name in calls:
        monkeypatch.setattr(mapping, name, counting(name))

    def given_lift(model, cm):
        return _with_lift(model, _resolve_lift(model, cm).lift)

    for model, cm, sizes in [
        (_three_size_mapping(), spinor_gammas(5), [1, 2, 4]),
        (_rot4_mapping(), exterior_module(3), [1, 4]),
        (_blocking_mapping(), spinor_gammas(3), [2]),
    ]:
        for lifted, count in ((model, 0), (given_lift(model, cm), 1)):
            calls.update(_lift_factors=0, _unitary_eigh=0)
            plan = _plan(lifted, cm, 2)
            assert sorted(plan.sectors) == sizes
            assert calls == {"_lift_factors": 1 - count, "_unitary_eigh": count}
    runs = [
        (_three_size_mapping(), spinor_gammas(5), lambda m, cm: collapse_run(m, cm, [1.0, 0.5, 0.25], 2, 2)),
        (_rot4_mapping(), exterior_module(3), lambda m, cm: collapse_run(m, cm, [1.0, 0.5], 2, 2)),
        (_blocking_mapping(), spinor_gammas(3), lambda m, cm: blowup_check(m, cm, [1.0, 0.5], 2)),
        (_rot4_mapping(), exterior_module(3), lambda m, cm: limit_operator(m, cm, 2)),
        (_rot4_mapping(), exterior_module(3), lambda m, cm: fiber_invariant_split(m, cm)),
    ]
    for model, cm, run in runs:
        for lifted, count in ((model, 0), (given_lift(model, cm), 1)):
            calls.update(_lift_factors=0, _unitary_eigh=0)
            run(lifted, cm)
            assert calls == {"_lift_factors": 1 - count, "_unitary_eigh": count}


@st.composite
def _finite_order_unitaries(draw):
    """(u, diagonal): a unitary of order dividing 1, 2, 3, 4, 6, 8 or 1024 on
    C^1 .. C^8, its angles drawn from a pool of at most four so that they
    repeat: +I, -I, diagonal, or conjugated by a random unitary."""
    dim = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["plus_identity", "minus_identity", "diagonal", "rotated"]))
    if kind.endswith("identity"):
        return np.eye(dim, dtype=complex) * (1.0 if kind == "plus_identity" else -1.0), True
    order = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 1024]))
    pool = draw(st.lists(st.integers(0, order - 1), min_size=1, max_size=4))
    turns = np.array(draw(st.lists(st.sampled_from(pool), min_size=dim, max_size=dim))) / order
    u = np.diag(np.exp(2j * np.pi * turns))
    if kind == "diagonal":
        return u, True
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return v @ u @ v.conj().T, False


@settings(max_examples=200)
@given(drawn=_finite_order_unitaries())
def test_unitary_eigh_diagonalizes_unitaries_of_finite_order(drawn):
    # an orthonormal eigenbasis with the eig + QR reference's clusters; as
    # _lift_basis takes it, the standard basis of a diagonal unitary
    u, diagonal = drawn
    thetas, q = _unitary_eigh(u)
    assert np.all(np.abs(thetas) <= np.pi)
    assert np.max(np.abs(q.conj().T @ q - np.eye(len(u)))) <= 1e-13
    assert np.max(np.abs(u @ q - q * np.exp(1j * thetas))) <= 1e-13
    turns = np.mod(thetas / (2.0 * np.pi), 1.0)
    ref = _reference_lift_basis(u)[1]
    _assert_same_clusters(
        [(t, len(idxs)) for t, idxs in _cluster_angles(turns)],
        [(t, len(idxs)) for t, idxs in _cluster_angles(ref)],
    )
    # each column sits at the row of its largest entry, real and positive
    basis = _lift_basis(u)
    top = np.argmax(np.abs(basis.q), axis=0)
    pivots = basis.q[top, np.arange(len(u))]
    assert np.all(np.diff(top) >= 0)
    assert np.all(pivots.real > 0.0) and np.max(np.abs(pivots.imag)) <= 1e-15
    if diagonal:
        assert np.array_equal(basis.q, np.eye(len(u)))
        assert np.max(np.abs(np.exp(2j * np.pi * basis.angles) - np.diag(u))) <= 1e-13


def test_plan_path_calls_complex_eigh_alone(lapack_guard):
    # the collapse runs of both rot4 models and the plan of a given lift call
    # no SVD, QR or general eigensolver, and eigh only on complex input
    inputs = lapack_guard
    assert collapse_run(_rot4_mapping(), spinor_gammas(3), [1.0, 0.5], 2, 2).verdict == "blows_up"
    assert collapse_run(_rot4_mapping(), exterior_module(3), [1.0, 0.5], 2, 2).verdict == "converges"
    cm = exterior_module(3)
    _plan(_with_lift(_rot4_mapping(), _resolve_lift(_rot4_mapping(), cm).lift), cm, 2)
    assert inputs and all(np.issubdtype(dtype, np.complexfloating) for dtype in inputs)


def test_collapse_path_builds_no_holonomy_group(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("holonomy group built")

    for module in (assembly, mapping):
        assert not hasattr(module, "fixed_subspace")
    monkeypatch.setattr(clifford, "fixed_subspace", refuse)
    assert collapse_run(_rot4_mapping(), exterior_module(3), [1.0, 0.5], 2, 2).verdict == "converges"
    assert collapse_run(_rot4_mapping(), spinor_gammas(3), [1.0, 0.5], 2, 2).verdict == "blows_up"
    assert blowup_check(_blocking_mapping(), spinor_gammas(3), [1.0, 0.5], 2).rate > 0.0
    limit_operator(_rot4_mapping(), exterior_module(3), 2)
    assert fiber_invariant_split(_rot4_mapping(), exterior_module(3)).dim == 4


def _irrational_lift_mapping(cm):
    return AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.zeros(2)),
        holonomy=np.eye(2),
        base_length=1.0,
        holonomy_lift=np.exp(0.2j * np.pi * np.sqrt(2.0)) * np.eye(cm.dim_v),
    )


def test_lift_of_irrational_angle_has_the_closed_form_spectrum():
    # the scalar lift exp(2 pi i theta), theta = sqrt(2) / 10, with identity
    # holonomy on the unit square fiber and L = 1: the block of mode k and
    # base index u is gamma(2 pi k / eps) + 2 pi (u + theta) gamma_base, with
    # eigenvalues +-sqrt(|2 pi k / eps|^2 + (2 pi (u + theta))^2).  The lift
    # fixes nothing, so there is no limit and the spectrum escapes
    cm = spinor_gammas(3)
    model = _irrational_lift_mapping(cm)
    theta, eps, truncation = 0.1 * np.sqrt(2.0), [1.0, 0.5, 0.25], 2
    report = collapse_run(model, cm, eps, 2, truncation)
    assert report.verdict == "blows_up" and report.limit_spectrum is None
    ks = np.arange(-truncation, truncation + 1)
    k2 = np.add.outer(ks**2, ks**2).ravel()
    for e, spec in zip(eps, report.spectra_per_eps):
        r = np.sqrt(np.add.outer((2.0 * np.pi / e) ** 2 * k2, (2.0 * np.pi * (ks + theta)) ** 2)).ravel()
        expected = np.sort(np.concatenate([-r, r]))
        assert len(spec.values) == len(expected)
        assert np.max(np.abs(spec.values - expected)) <= SPECTRUM_MATCH_TOL
    # min |lambda| is 2 pi theta at every scale, at k = u = 0
    assert blowup_check(model, cm, eps, truncation).rate == pytest.approx(
        2.0 * np.pi * theta * min(eps), rel=1e-12
    )
    with pytest.raises(EmptyInvariantSpaceError):
        limit_operator(model, cm, truncation)
    assert fiber_invariant_split(model, cm).dim == 0


def test_irrational_multiple_of_geometric_lift_runs():
    # exp(2 pi i sqrt(2) / 10) times the rot4 spinor model's geometric lift,
    # a valid flat twist of infinite order: each scale of the collapse run
    # is the block path's spectrum, and its spectrum escapes
    cm = spinor_gammas(3)
    geometric = _resolve_lift(_rot4_mapping(), cm).lift
    model = _with_lift(_rot4_mapping(), np.exp(0.2j * np.pi * np.sqrt(2.0)) * geometric)
    eps = [1.0, 0.5, 0.25]
    report, plan = collapse_run(model, cm, eps, 2, 2), _plan(model, cm, 2)
    assert report.verdict == "blows_up"
    for e, spec in zip(eps, report.spectra_per_eps):
        _assert_same_spectrum(spec, eigensolve(plan.dirac(e)))
    assert blowup_check(model, cm, eps, 2).rate > 0.0


@pytest.mark.parametrize("order", [1, 2, 7, 1024, 1025, "irrational"])
def test_lift_of_order_up_to_1024_closes(order):
    # the parallel mask reads the angles alone, so it takes a lift of any
    # order, finite or not
    angle = 0.1 * np.sqrt(2.0) if order == "irrational" else 1.0 / order
    basis = _lift_basis(np.diag(np.exp(2j * np.pi * np.array([angle, 0.0]))))
    model = AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.zeros(2)), holonomy=np.eye(2), base_length=1.0
    )
    assert _parallel_columns(model, basis).tolist() == [order == 1, True]


@pytest.mark.parametrize("build", [spinor_gammas, exterior_module])
def test_given_lift_angles_are_its_rayleigh_quotients(build):
    # rot4 lifts 5e-10 from the geometric one: each angle is that of its
    # column's Rayleigh quotient, diag(q^H u q), to rounding; angles from the
    # cosines of _unitary_eigh's first eigh missed it by up to 5e-10
    cm = build(3)
    geometric = _resolve_lift(_rot4_mapping(), cm).lift
    for seed in range(50):
        h = np.random.default_rng(seed).standard_normal((cm.dim_v, cm.dim_v))
        h = (h + h.T) / np.linalg.norm(h + h.T, 2)
        u = geometric @ _expm_skew_factors(5e-10j * h)[0]
        basis = _resolve_lift(_with_lift(_rot4_mapping(), u), cm)
        rayleigh = np.diagonal(basis.q.conj().T @ u @ basis.q)
        assert np.max(np.abs(rayleigh - np.exp(2j * np.pi * basis.angles))) <= 1e-14


def test_lift_within_structure_tol_of_finite_order_is_accepted():
    # the plan reads no lift's order: a lift 3e-9 turns away from order 3,
    # which a group closure rounding to 9 digits would refuse, runs
    cm = spinor_gammas(3)
    lift = np.exp(2j * np.pi * (1.0 / 3.0 + 3e-9)) * np.eye(cm.dim_v)
    model = AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.zeros(2)), holonomy=np.eye(2), base_length=1.0,
        holonomy_lift=lift,
    )
    assert collapse_run(model, cm, [1.0, 0.5], 2, 2).verdict == "blows_up"
    assert blowup_check(model, cm, [1.0, 0.5], 2).rate > 0.0
