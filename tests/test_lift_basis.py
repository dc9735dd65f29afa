"""One lift basis per plan and one stacked symbol solve over all fiber scales,
against the code they replace: an eig of every orbit size's twist, the
fixed space of the group the lift generates, one solve per scale, and the
eig + QR basis of a computed lift."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diraclab.assembly as assembly
import diraclab.clifford as clifford
from diraclab.assembly import (
    _cluster_angles,
    _lift_basis,
    _mapping_plan,
    _parallel_columns,
    _resolve_lift,
    fiber_invariant_split,
    limit_operator,
)
from diraclab.clifford import exterior_module, fixed_subspace, holonomy_rep, spinor_gammas
from diraclab.collapse import blowup_check, collapse_run
from diraclab.models import AffineMappingTorus, FlatTorusModel
from diraclab.spectral import HERMITICITY_TOL, RESIDUAL_TOL, STRUCTURE_TOL
from test_assembly import _assert_same_spectrum, _mapping_models

CLOSURE = "holonomy closure exceeded 1024 elements; generators do not span a small finite group"


# ---------------------------------------------------------------------------
# the replaced code, kept as the reference


def _reference_sector(lift, d, base_shift):
    """(theta, size, invariant) per cluster of the twist of orbit size d,
    from an eig of that twist itself."""
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
    fixed_images = np.abs(lift @ q - q).max(axis=0)
    return [
        (theta, len(idxs), bool(np.all(fixed_images[idxs] <= STRUCTURE_TOL)))
        for theta, idxs in clusters
    ]


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


def _reference_parallel(model, lift):
    """Dimension of the lift's fixed space and whether parallel sections
    exist, from the group the lift generates."""
    fixed = fixed_subspace(holonomy_rep([lift]))
    return fixed.shape[1], fixed.shape[1] > 0 and bool(np.all(model.fiber.spin_shift == 0.0))


def _reference_solve(sym, p, masks, gammas_q):
    """One scale's solve at the orbit fiber momenta p (O, m), orbit by orbit
    for the coupling check (each orbit's twist-sector mask in masks, the
    gammas in the lift basis in gammas_q) and with every cluster constant
    repeated per block: (r, nneg, npos), or None."""
    m = p.shape[1]
    base = np.abs(gammas_q[m])
    for o in np.flatnonzero(masks.any(axis=(1, 2))):
        f = np.abs(np.einsum("k,kij->ij", p[o], gammas_q[:m]))
        leak = max(np.max(f[masks[o]]), np.max(base[masks[o]]))
        if leak > STRUCTURE_TOL * max(1.0, np.max(base), np.max(f)):
            raise ValueError("operator symbol couples distinct twist sectors")
    c = sym.cluster
    trace, defect, skew = sym.trace[:, c], sym.defect[:, :, c], sym.skew[:, c]
    x = np.empty((len(trace), len(sym.beta)))
    x[:-1] = np.take(p.T, sym.orbit, axis=1)
    x[-1] = sym.beta
    ax = np.abs(x)
    r2 = np.einsum("kb,kb->b", x, x)
    delta = 0.5 * np.einsum("kb,klb,lb->b", ax, defect, ax)
    bscale = np.maximum(1.0, np.sqrt(np.maximum(r2 - delta, 0.0)) / sym.sizes)
    resid = float(np.max(np.einsum("kb,kb->b", ax, skew), initial=0.0))
    if resid > HERMITICITY_TOL * float(np.max(bscale, initial=1.0)):
        raise ValueError(f"assembled operator is not Hermitian (residual {resid:.3e})")
    r = np.sqrt(r2)
    zero = ~x.any(axis=0)
    nplus = 0.5 * (sym.sizes + np.einsum("kb,kb->b", x, trace) / np.where(zero, 1.0, r))
    npos = np.rint(nplus)
    ok = (sym.sizes * delta < r2) & (delta <= RESIDUAL_TOL * bscale * r)
    ok &= np.abs(nplus - npos) <= STRUCTURE_TOL
    if not np.all(ok | zero):
        return None
    npos = np.where(zero, sym.sizes, npos).astype(np.intp)
    return r, sym.sizes - npos, npos


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
    """Clusters (theta, size, invariant) in the order of theta mod 1, a
    theta within 1e-9 of a whole turn counting as 0."""
    def key(c):
        turn = c[0] % 1.0
        return 0.0 if min(turn, 1.0 - turn) <= 1e-9 else turn

    return sorted(clusters, key=key)


def _assert_same_clusters(got, ref):
    """Equal (theta, size, flag) clusters: thetas within 1e-12 of a turn,
    sizes and flags equal."""
    got, ref = _canonical(got), _canonical(ref)
    assert [c[1:] for c in got] == [c[1:] for c in ref]
    for (a, *_), (b, *_) in zip(got, ref):
        turn = abs(a - b) % 1.0
        assert min(turn, 1.0 - turn) <= 1e-12


def _sector_clusters(sector):
    return [(t, len(idxs), inv) for (t, idxs), inv in zip(sector.clusters, sector.invariant)]


def _parallel_outcome(model, basis):
    """The parallel verdict (and the mask's size), or the closure refusal."""
    try:
        return int(np.count_nonzero(_parallel_columns(model, basis)))
    except ValueError as err:
        return str(err)


@settings(max_examples=40)
@given(lifted=_lifted_models(), truncation=st.integers(1, 3))
def test_lift_basis_matches_per_size_eig_over_model_space(lifted, truncation):
    model, cm, kind = lifted
    plan = _mapping_plan(model, cm, truncation)
    for d, sector in plan.sectors.items():
        _assert_same_clusters(
            _sector_clusters(sector), _reference_sector(plan.basis.lift, d, model.base_shift)
        )
    try:
        ref_dim, ref_parallel = _reference_parallel(model, plan.basis.lift)
    except ValueError as err:
        assert kind == "irrational" and str(err) == CLOSURE
        with pytest.raises(ValueError) as raised:
            _parallel_columns(model, plan.basis)
        assert str(raised.value) == CLOSURE
        return
    assert kind != "irrational"
    assert np.count_nonzero(plan.basis.fixed) == ref_dim
    assert bool(_parallel_columns(model, plan.basis).any()) == ref_parallel


@settings(max_examples=40)
@given(
    model=_mapping_models(),
    exterior=st.booleans(),
    truncation=st.integers(1, 3),
    epsilons=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=3, unique=True),
)
def test_computed_lift_basis_matches_eig_qr_over_model_space(model, exterior, truncation, epsilons):
    # the model space of test_plan_matches_assembly_over_model_space; the
    # same model given its computed lift takes the eig + QR path
    cm = exterior_module(3) if exterior else spinor_gammas(3)
    basis = _resolve_lift(model, cm)
    q, angles = _reference_lift_basis(basis.lift)
    assert basis.ortho <= 1e-13
    assert np.max(np.abs(basis.lift @ basis.q - basis.q * np.exp(2j * np.pi * basis.angles))) <= 1e-13
    ref_fixed = np.abs(basis.lift @ q - q).max(axis=0) <= STRUCTURE_TOL

    def lift_clusters(angles, fixed):
        # per cluster of equal eigen-angle: the fixed flags of its columns
        return [(t, len(idxs), sorted(fixed[idxs].tolist())) for t, idxs in _cluster_angles(angles)]

    _assert_same_clusters(lift_clusters(basis.angles, basis.fixed), lift_clusters(angles, ref_fixed))
    given_model = _with_lift(model, basis.lift)
    ref_basis = _resolve_lift(given_model, cm)
    assert np.array_equal(ref_basis.q, q) and np.array_equal(ref_basis.angles, angles)
    plan, ref_plan = _mapping_plan(model, cm, truncation), _mapping_plan(given_model, cm, truncation)
    assert sorted(plan.sectors) == sorted(ref_plan.sectors)
    for d, sector in plan.sectors.items():
        _assert_same_clusters(_sector_clusters(sector), _sector_clusters(ref_plan.sectors[d]))
        _assert_same_clusters(
            _sector_clusters(sector), _reference_sector(basis.lift, d, model.base_shift)
        )
    assert _parallel_outcome(model, basis) == _parallel_outcome(given_model, ref_basis)
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
    model, cm, _ = lifted
    plan = _mapping_plan(model, cm, truncation)
    p = np.array([model.with_scale(e).scaled_fiber().dual_momentum(plan.reps) for e in epsilons])
    cases = [(plan.symbols, p, slice(None))]
    zero = np.flatnonzero(~plan.reps.any(axis=1))
    if len(zero):
        cases.append((plan.symbols.orbit_part(zero[0]), np.zeros((1, 1, p.shape[2])), zero))
    for symbols, momenta, orbits in cases:
        solved = symbols.solve(momenta, truncation, plan.coupled(momenta, orbits))
        for i, scale in enumerate(momenta):
            try:
                ref = _reference_solve(symbols, scale, plan.coupling[orbits], plan.gammas_q)
            except ValueError as err:
                with pytest.raises(ValueError) as raised:
                    solved.at(i)
                assert str(raised.value) == str(err)
                continue
            got = solved.at(i)
            assert (got is None) == (ref is None)
            if got is not None:
                r, nneg, npos = ref
                assert np.array_equal(solved.r[i], r)
                assert np.array_equal(solved.npos[i].astype(np.intp), npos)
                assert np.array_equal(symbols.sizes - npos, nneg)
                values = np.sort(np.concatenate([np.repeat(-r, nneg), np.repeat(r, npos)]))
                assert np.array_equal(got.values, values)
                assert got.source_truncation == truncation


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
    # a computed lift takes the eigh basis of its generator: no eig or QR;
    # a given lift takes one eig and one QR
    calls = {"eig": 0, "qr": 0}

    def counting(name):
        original = getattr(np.linalg, name)

        def count(a, *args, **kwargs):
            calls[name] += 1
            return original(a, *args, **kwargs)

        return count

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))

    def given_lift(model, cm):
        return _with_lift(model, _resolve_lift(model, cm).lift)

    for model, cm, sizes in [
        (_three_size_mapping(), spinor_gammas(5), [1, 2, 4]),
        (_rot4_mapping(), exterior_module(3), [1, 4]),
        (_blocking_mapping(), spinor_gammas(3), [2]),
    ]:
        for lifted, count in ((model, 0), (given_lift(model, cm), 1)):
            calls.update(eig=0, qr=0)
            plan = _mapping_plan(lifted, cm, 2)
            assert sorted(plan.sectors) == sizes
            assert calls == {"eig": count, "qr": count}
    runs = [
        (_three_size_mapping(), spinor_gammas(5), lambda m, cm: collapse_run(m, cm, [1.0, 0.5, 0.25], 2, 2)),
        (_rot4_mapping(), exterior_module(3), lambda m, cm: collapse_run(m, cm, [1.0, 0.5], 2, 2)),
        (_blocking_mapping(), spinor_gammas(3), lambda m, cm: blowup_check(m, cm, [1.0, 0.5], 2)),
        (_rot4_mapping(), exterior_module(3), lambda m, cm: limit_operator(m, cm, 2)),
        (_rot4_mapping(), exterior_module(3), lambda m, cm: fiber_invariant_split(m, cm, 2)),
    ]
    for model, cm, run in runs:
        for lifted, count in ((model, 0), (given_lift(model, cm), 1)):
            calls.update(eig=0, qr=0)
            run(lifted, cm)
            assert calls == {"eig": count, "qr": count}


def test_collapse_path_builds_no_holonomy_group(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("holonomy group built")

    assert not hasattr(assembly, "holonomy_rep") and not hasattr(assembly, "fixed_subspace")
    monkeypatch.setattr(clifford, "holonomy_rep", refuse)
    monkeypatch.setattr(clifford, "fixed_subspace", refuse)
    assert collapse_run(_rot4_mapping(), exterior_module(3), [1.0, 0.5], 2, 2).verdict == "converges"
    assert collapse_run(_rot4_mapping(), spinor_gammas(3), [1.0, 0.5], 2, 2).verdict == "blows_up"
    assert blowup_check(_blocking_mapping(), spinor_gammas(3), [1.0, 0.5], 2).rate > 0.0
    limit_operator(_rot4_mapping(), exterior_module(3), 2)
    assert fiber_invariant_split(_rot4_mapping(), exterior_module(3), 2).dim == 4


def _irrational_lift_mapping(cm):
    return AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.zeros(2)),
        holonomy=np.eye(2),
        base_length=1.0,
        holonomy_lift=np.exp(0.2j * np.pi * np.sqrt(2.0)) * np.eye(cm.dim_v),
    )


@pytest.mark.parametrize(
    "run",
    [
        lambda m, cm: collapse_run(m, cm, [1.0, 0.5], 2, 2),
        lambda m, cm: blowup_check(m, cm, [1.0, 0.5], 2),
        lambda m, cm: limit_operator(m, cm, 2),
        lambda m, cm: fiber_invariant_split(m, cm, 2),
    ],
    ids=["collapse_run", "blowup_check", "limit_operator", "fiber_invariant_split"],
)
def test_lift_of_infinite_order_is_refused(run):
    cm = spinor_gammas(3)
    model = _irrational_lift_mapping(cm)
    with pytest.raises(ValueError) as ref:
        holonomy_rep([model.holonomy_lift])
    assert str(ref.value) == CLOSURE
    with pytest.raises(ValueError) as raised:
        run(model, cm)
    assert str(raised.value) == CLOSURE


@pytest.mark.parametrize("order", [1, 2, 7, 1024])
def test_lift_of_order_up_to_1024_closes(order):
    # the largest order holonomy_rep accepts, and below it
    basis = _lift_basis(np.diag(np.exp(2j * np.pi * np.array([1.0 / order, 0.0]))))
    model = AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.zeros(2)), holonomy=np.eye(2), base_length=1.0
    )
    assert _parallel_columns(model, basis).tolist() == [order == 1, True]
    assert holonomy_rep([basis.lift]).group_order == order
    beyond = _lift_basis(np.diag(np.exp(2j * np.pi * np.array([1.0 / 1025, 0.0]))))
    with pytest.raises(ValueError, match="^holonomy closure exceeded 1024 elements"):
        _parallel_columns(model, beyond)


def test_lift_within_structure_tol_of_finite_order_is_accepted():
    # the order test compares eigen-angle multiples with whole turns at
    # STRUCTURE_TOL, as fixed-space membership does; holonomy_rep's
    # 9-digit rounding refused a lift 3e-9 turns away from order 3
    cm = spinor_gammas(3)
    lift = np.exp(2j * np.pi * (1.0 / 3.0 + 3e-9)) * np.eye(cm.dim_v)
    model = AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.zeros(2)), holonomy=np.eye(2), base_length=1.0,
        holonomy_lift=lift,
    )
    with pytest.raises(ValueError, match="^holonomy closure exceeded"):
        holonomy_rep([lift])
    assert collapse_run(model, cm, [1.0, 0.5], 2, 2).verdict == "blows_up"
    assert blowup_check(model, cm, [1.0, 0.5], 2).rate > 0.0
