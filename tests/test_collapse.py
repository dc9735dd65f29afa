"""Collapse runs, windows, blow-up rates, perturbation bounds."""

import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.clifford import exterior_module, spinor_gammas
from diraclab.collapse import (
    DEFAULT_WINDOW_A,
    PerturbationReport,
    _Normals,
    _smallest_abs,
    blowup_check,
    collapse_run,
    perturbation_bound_check,
    spectral_window,
    window_agreement,
)
from diraclab.assembly import assemble_dirac, fiber_invariant_split, limit_operator
from diraclab.cli import _eigen_exponential_family
from diraclab.models import (
    AffineMappingTorus,
    FlatTorusModel,
    GeometricData,
    _mapping_geometry,
    geometric_data,
    metric_path,
)
from diraclab.mapping import _plan
from diraclab.spectral import eigensolve, sinh_rescale
from test_assembly import (
    _assert_same_spectrum,
    _given_momenta,
    _identity_mapping,
    _mapping_models,
    _non_clifford_spinor,
    _scaled_fiber,
    _tilted_base_spinor,
)
from test_lift_basis import _three_size_mapping


def _canonical_mapping(fiber_shift=0.0, base_shift=0.5):
    fiber = FlatTorusModel(np.array([[2 * np.pi]]), np.array([fiber_shift]))
    return AffineMappingTorus(
        fiber=fiber,
        holonomy=np.array([[1]]),
        base_length=2 * np.pi,
        holonomy_lift=np.eye(2, dtype=complex),
        base_shift=base_shift,
    )


def _t2_blowup_model():
    fiber = FlatTorusModel(np.eye(2), np.array([0.5, 0.5]))
    return AffineMappingTorus(fiber=fiber, holonomy=-np.eye(2), base_length=2 * np.pi)


def test_spectral_window_values():
    mt = _canonical_mapping()
    for eps in (1.0, 0.5, 0.25):
        w = spectral_window(geometric_data(mt.with_scale(eps)))
        assert w == pytest.approx(1.0 / eps, abs=1e-12)


def test_spectral_window_empty_and_validation():
    geom = geometric_data(_canonical_mapping().with_scale(1.0))
    # large penalty empties the window
    from dataclasses import replace

    noisy = replace(geom, norm_r=100.0)
    assert spectral_window(noisy) == 0.0
    with pytest.raises(ValueError):
        spectral_window(geom, window_a=0.0)
    with pytest.raises(ValueError):
        spectral_window(replace(geom, diam_z=0.0))


@pytest.mark.parametrize(
    "args, message",
    [
        (dict(window_a=0.0), "window constants must satisfy a > 0, c >= 0"),
        (dict(window_a=-5.0, window_c=-1.0), "window constants must satisfy a > 0, c >= 0"),
        (dict(window_c=-1.0), "window constants must satisfy a > 0, c >= 0"),
        (dict(diam_z=0.0), "fiber diameter must be positive"),
        (dict(diam_z=-1.0), "fiber diameter must be positive"),
        (dict(window_a=float("nan")), "window constants must satisfy a > 0, c >= 0"),
        (dict(window_c=float("nan")), "window constants must satisfy a > 0, c >= 0"),
        # an infinite a used to compare whole truncated spectra, and an
        # infinite c to give a NaN window
        (dict(window_a=float("inf")), "window_a must be finite, got inf"),
        (dict(window_c=float("inf")), "window_c must be finite, got inf"),
        (dict(diam_z=float("nan")), "fiber diameter must be positive"),
        # squares that underflow or overflow used to raise ZeroDivisionError
        # or OverflowError (a geometric_data at fiber scale 1e-170 or 1e160)
        (dict(diam_z=1e-170), "fiber diameter 1e-170 is out of range: its square is 0 or inf"),
        (dict(diam_z=1e160), "fiber diameter 1e+160 is out of range: its square is 0 or inf"),
    ],
)
def test_window_refusals(args, message):
    diam = args.pop("diam_z", 1.0)
    geom = GeometricData(0.0, 0.0, 0.0, diam)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        spectral_window(geom, **args)


def test_fiber_gap_is_one_over_eps():
    cm = spinor_gammas(2)
    mt = _canonical_mapping()
    for eps in (1.0, 0.25):
        split = fiber_invariant_split(mt.with_scale(eps), cm)
        assert split.gap == pytest.approx(1.0 / eps, abs=1e-12)


def test_rank_four_orthogonal_fiber_window():
    # the unit 4-cube fiber's diameter is half its diagonal, 1: windows pi / eps
    report = collapse_run(_three_size_mapping(), spinor_gammas(5), [1.0, 0.5], 2, 2)
    assert report.window_bounds == pytest.approx((np.pi, 2 * np.pi), rel=1e-12)


def test_collapse_run_converging():
    cm = spinor_gammas(2)
    report = collapse_run(
        _canonical_mapping(), cm, [1.0, 0.5, 0.25, 0.125], k_max=4, truncation=12
    )
    assert report.verdict == "converges"
    assert report.window_bounds == (1.0, 2.0, 4.0, 8.0)
    matches = window_agreement(report, 1e-9)
    assert all(bool(m) for m in matches)
    counts = [len(m.pairs) for m in matches]
    assert counts == [4, 8, 16, 32]
    # tracked smallest |eigenvalue| sits at 1/2 for every scale
    assert np.allclose(report.tracked_eigenvalues[0], 0.5, atol=1e-12)
    # limit spectrum present and antiperiodic
    assert report.limit_spectrum is not None
    assert np.min(np.abs(report.limit_spectrum.values)) == pytest.approx(0.5)


def test_collapse_report_json(tmp_path):
    cm = spinor_gammas(2)
    report = collapse_run(_canonical_mapping(), cm, [1.0, 0.5], k_max=2, truncation=4)
    path = tmp_path / "r.json"
    report.save(path)
    data = json.loads(path.read_text())
    assert sorted(data.keys()) == [
        "epsilons",
        "limit_spectrum",
        "spectra_per_eps",
        "tracked_eigenvalues",
        "verdict",
        "window_bounds",
    ]
    assert data["verdict"] == "converges"
    assert len(data["tracked_eigenvalues"]) == 2
    assert len(data["tracked_eigenvalues"][0]) == 2


def test_collapse_run_blowup_verdict(tmp_path):
    cm = spinor_gammas(2)
    report = collapse_run(
        _canonical_mapping(fiber_shift=0.5), cm, [1.0, 0.5], k_max=1, truncation=3
    )
    assert report.verdict == "blows_up"
    assert report.limit_spectrum is None
    path = tmp_path / "b.json"
    report.save(path)
    assert json.loads(path.read_text())["limit_spectrum"] is None
    with pytest.raises(ValueError):
        window_agreement(report)


def test_collapse_run_validation():
    cm = spinor_gammas(2)
    mt = _canonical_mapping()
    with pytest.raises(ValueError):
        collapse_run(mt, cm, [0.5, 1.0], 1, 3)
    with pytest.raises(ValueError):
        collapse_run(mt, cm, [], 1, 3)
    with pytest.raises(ValueError):
        collapse_run(mt, cm, [1.0], 0, 3)
    with pytest.raises(ValueError):
        collapse_run(mt, cm, [1.0], 10**6, 3)


def test_blowup_circle_exact_rate():
    # periodic base keeps the base frequency at zero, isolating the fiber gap
    cm = spinor_gammas(2)
    report = blowup_check(
        _canonical_mapping(fiber_shift=0.5, base_shift=0.0),
        cm,
        [1.0, 0.5, 0.25, 0.125],
        4,
    )
    assert np.allclose(report.min_abs, [0.5, 1.0, 2.0, 4.0], atol=1e-12)
    assert report.rate == pytest.approx(0.5, abs=1e-12)


def test_blowup_t2_oracle():
    cm3 = spinor_gammas(3)
    eps = [1.0, 0.5]
    report = blowup_check(_t2_blowup_model(), cm3, eps, 2)
    expected = [np.sqrt(2 * np.pi**2 / e**2 + 1.0 / 16.0) for e in eps]
    assert np.allclose(report.min_abs, expected, atol=1e-9)
    assert report.rate >= 0.4


def test_blowup_refuses_convergent_model():
    cm = spinor_gammas(2)
    with pytest.raises(ValueError, match="parallel sections"):
        blowup_check(_canonical_mapping(), cm, [1.0], 2)


def _rot4_spinor_model():
    # no parallel sections, so no limit is solved before the scales
    return AffineMappingTorus(
        fiber=FlatTorusModel(np.eye(2), np.zeros(2)),
        holonomy=np.array([[0, -1], [1, 0]]),
        base_length=1.0,
    )


def _inject(monkeypatch, coupled):
    """Make the plan's build-time twist-sector coupling check refuse every
    plan where coupled is true, and make forming a block from the plan's
    table raise RuntimeError("block path")."""
    import diraclab.mapping as mapping

    def block_path(self, rows, p):
        raise RuntimeError("block path")

    if coupled:
        monkeypatch.setattr(mapping, "_couples", lambda *args: True)
    monkeypatch.setattr(mapping._MappingPlan, "_blocks", block_path)


COUPLED = r"^operator symbol couples distinct twist sectors$"
SKEWED = r"^Clifford module gammas are not Hermitian \(residual 1\.000e-06\)$"
PAIR = r"^operator symbol breaks the Clifford relations \(residual \d\.\d{3}e[+-]\d\d\)$"
K_MAX = r"^k_max=1000000 exceeds spectrum size 214$"
WINDOW = r"^window constants must satisfy a > 0, c >= 0$"
MOMENTUM = r"^fiber scale 1e-200 is out of range: a fiber momentum overflows when squared$"
DIAMETER = r"^fiber scale 1e\+200 is out of range: the fiber diameter overflows when squared$"

# the modules of the refusal-order cases: spinor_gammas(3), with gamma_0
# skewed by 1e-6, and with its base gamma squaring to (1 + 1e-6)^2, which
# breaks the Clifford relations on every pair
_MODULES = {
    "clifford": spinor_gammas(3),
    "skewed": _non_clifford_spinor(skew=1e-6),
    "broken": _non_clifford_spinor(base_factor=1.0 + 1e-6),
}


# The refusal order: first the arguments, bad window constants included,
# before the plan is built.  Then the plan: a module whose gammas are not
# Hermitian, then what it cannot build, twist-sector coupling included.
# Then a scale out of range, before any scale is solved: a fiber momentum
# overflows when squared at eps = 1e-200, and (collapse_run only) the fiber
# diameter at eps = 1e200.  Then pairs that break the Clifford relations,
# once for all scales, and last k_max.  No refusal depends on which scale
# carries a fault; eps = 1e-7 is in range.  No case forms a block.
@pytest.mark.parametrize(
    "coupled, epsilons, k_max, window_a, module, message",
    [
        (False, [1.0, 0.5], 10**6, 1.0, "clifford", K_MAX),
        (True, [1e200, 1e-200], 10**6, -1.0, "broken", WINDOW),
        (True, [1e200, 1e-200], 2, 1.0, "skewed", SKEWED),
        (True, [1e200, 1e-200], 10**6, 1.0, "clifford", COUPLED),
        (True, [1.0, 0.5], 10**6, 1.0, "broken", COUPLED),
        (True, [1.0, 1e-7], 2, 1.0, "clifford", COUPLED),
        (False, [1e200, 1.0], 10**6, 1.0, "broken", DIAMETER),
        (False, [1e-7, 1e-200], 10**6, 1.0, "broken", MOMENTUM),
        (False, [1.0, 0.5], 10**6, 1.0, "broken", PAIR),
        (False, [1.0, 1e-7], 2, 1.0, "broken", PAIR),
        (False, [1.0, 1e-7], 10**6, 1.0, "clifford", K_MAX),
        (False, [1e-7, 1e-8], 10**6, 1.0, "clifford", K_MAX),
    ],
)
def test_collapse_refusals_keep_their_order(
    monkeypatch, coupled, epsilons, k_max, window_a, module, message
):
    _inject(monkeypatch, coupled)
    with pytest.raises(ValueError, match=message):
        collapse_run(_rot4_spinor_model(), _MODULES[module], epsilons, k_max, 2, window_a=window_a)


@pytest.mark.parametrize(
    "window, message",
    [
        (dict(window_a=-1.0), WINDOW),
        (dict(window_c=-1.0), WINDOW),
        (dict(window_a=float("nan")), WINDOW),
        (dict(window_c=float("inf")), r"^window_c must be finite, got inf$"),
    ],
)
def test_collapse_refuses_window_constants_before_the_plan(monkeypatch, window, message):
    import diraclab.collapse as collapse

    def no_plan(*args):
        raise AssertionError("the plan was built")

    monkeypatch.setattr(collapse, "_plan", no_plan)
    with pytest.raises(ValueError, match=message):
        collapse_run(_rot4_spinor_model(), spinor_gammas(3), [1.0, 0.5], 2, 2, **window)


@pytest.mark.parametrize(
    "epsilons, message",
    [
        ([-1.0], r"^epsilons must be positive$"),
        ([], r"^epsilons must be positive$"),
        ([1.0, float("inf")], r"^epsilons must be finite, got \[1\.0, inf\]$"),
    ],
)
def test_blowup_refuses_epsilons_before_the_plan(monkeypatch, epsilons, message):
    import diraclab.collapse as collapse

    # a model with parallel sections, which the plan would refuse next
    with pytest.raises(ValueError, match=message):
        blowup_check(_canonical_mapping(), spinor_gammas(2), epsilons, 2)

    def no_plan(*args):
        raise AssertionError("the plan was built")

    monkeypatch.setattr(collapse, "_plan", no_plan)
    with pytest.raises(ValueError, match=message):
        blowup_check(_rot4_spinor_model(), spinor_gammas(3), epsilons, 2)


@pytest.mark.parametrize(
    "coupled, epsilons, module, message",
    [
        (True, [1.0, 0.5], "clifford", COUPLED),
        (True, [1e200, 1e-200], "skewed", SKEWED),
        (True, [1e200, 1e-200], "broken", COUPLED),
        (True, [1.0, 1e-7], "clifford", COUPLED),
        (False, [1e-7, 1e-200], "broken", MOMENTUM),
        (False, [1.0, 0.5], "broken", PAIR),
        (False, [1e200, 1e-7], "broken", PAIR),
    ],
)
def test_blowup_refusals_keep_their_order(monkeypatch, coupled, epsilons, module, message):
    _inject(monkeypatch, coupled)
    with pytest.raises(ValueError, match=message):
        blowup_check(_rot4_spinor_model(), _MODULES[module], epsilons, 2)


def _no_block_path(*args):
    raise AssertionError("the block path was taken")


def _check_without_block_path(model, cm, eps, truncation):
    """collapse_run and, where the model has no parallel sections,
    blowup_check, with plan.dirac and limit_operator raising, against
    eigensolve of the block path's operators."""
    import diraclab.assembly as assembly
    import diraclab.mapping as mapping

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mapping._MappingPlan, "dirac", _no_block_path)
        patch.setattr(assembly, "limit_operator", _no_block_path)
        report = collapse_run(model, cm, eps, 1, truncation)
        blowup = None
        if report.verdict == "blows_up":
            blowup = blowup_check(model, cm, eps, truncation)
    plan = _plan(model, cm, truncation)
    for i, e in enumerate(eps):
        ref = eigensolve(plan.dirac(e))
        _assert_same_spectrum(report.spectra_per_eps[i], ref)
        if blowup is not None:
            smallest = ref.abs_sorted()[0]
            assert abs(blowup.min_abs[i] - smallest) <= 1e-13 * max(1.0, smallest)
    if report.limit_spectrum is not None:
        limit = eigensolve(limit_operator(model, cm, truncation))
        _assert_same_spectrum(report.limit_spectrum, limit)


@settings(max_examples=30)
@given(
    model=_mapping_models(),
    exterior=st.booleans(),
    truncation=st.integers(1, 2),
    epsilons=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=3, unique=True),
)
def test_collapse_never_takes_the_block_path(model, exterior, truncation, epsilons):
    cm = exterior_module(3) if exterior else spinor_gammas(3)
    _check_without_block_path(model, cm, sorted(epsilons, reverse=True), truncation)


@pytest.mark.parametrize("fiber_shift", [0.0, 0.5])
@pytest.mark.parametrize(
    "module",
    [_non_clifford_spinor(base_factor=1.0 + 1e-6), _tilted_base_spinor(1e-3)],
    ids=["base_squares_off_one", "base_fails_to_anticommute"],
)
def test_modules_that_break_the_clifford_relations_form_no_block(module, fiber_shift):
    # collapse_run, its limit and blowup_check refuse such a module by name,
    # with plan.dirac, the plan's block table and limit_operator raising
    import diraclab.assembly as assembly
    import diraclab.mapping as mapping

    model = _identity_mapping()
    model = AffineMappingTorus(
        fiber=FlatTorusModel(model.fiber.lattice_basis, np.full(2, fiber_shift)),
        holonomy=model.holonomy,
        base_length=model.base_length,
        holonomy_lift=model.holonomy_lift,
        base_shift=model.base_shift,
    )
    with pytest.MonkeyPatch.context() as patch:
        for name in ("dirac", "_blocks"):
            patch.setattr(mapping._MappingPlan, name, _no_block_path)
        patch.setattr(assembly, "limit_operator", _no_block_path)
        with pytest.raises(ValueError, match=PAIR):
            collapse_run(model, module, [1.0, 0.5], 1, 2)
        if fiber_shift:
            with pytest.raises(ValueError, match=PAIR):
                blowup_check(model, module, [1.0, 0.5], 2)


@pytest.mark.parametrize("fiber_shift", [0.0, 0.5])
def test_symbols_of_a_fiber_whose_unit_momenta_overflow(fiber_shift):
    # a 1e-160 fiber has unit-scale momenta near 1e160, whose squares
    # overflow, while at eps = 1e10 and 2e10 every momentum squares finitely.
    # The symbols are measured at the unit momenta scaled by a power of two,
    # so no RuntimeWarning (an error under this suite's settings) escapes,
    # and each scale's min |spec| is the block path's
    model = AffineMappingTorus(
        fiber=FlatTorusModel(1e-160 * np.eye(2), np.full(2, fiber_shift)),
        holonomy=np.array([[0, -1], [1, 0]]),
        base_length=2 * np.pi,
        base_shift=0.5,
    )
    cm, eps = spinor_gammas(3), [1e10, 2e10]
    blowup = blowup_check(model, cm, eps, 2)
    plan = _plan(model, cm, 2)
    for got, e in zip(blowup.min_abs, eps):
        assert got == pytest.approx(eigensolve(plan.dirac(e)).abs_sorted()[0], rel=1e-13)


def test_small_scales_run_and_out_of_range_ones_are_refused():
    # a unit-square fiber at eps = 1e-7 was refused as "lattice basis is
    # singular" (|det| = 1e-14); its spectrum matches the block path's.
    # Scales whose momenta or diameter overflow when squared are refused by
    # name, without a RuntimeWarning (an error under this suite's settings)
    # or an OverflowError
    model, cm = _rot4_spinor_model(), spinor_gammas(3)
    report = collapse_run(model, cm, [1.0, 1e-7], 2, 2)
    blowup = blowup_check(model, cm, [1.0, 1e-7], 2)
    plan = _plan(model, cm, 2)
    ref = eigensolve(plan.dirac(1e-7))
    _assert_same_spectrum(report.spectra_per_eps[1], ref)
    assert blowup.min_abs[1] == pytest.approx(ref.abs_sorted()[0], rel=1e-13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run, message in [
            (lambda: collapse_run(model, cm, [1.0, 1e-200], 2, 2), MOMENTUM),
            (lambda: collapse_run(model, cm, [1e200, 1.0], 2, 2), DIAMETER),
            (lambda: blowup_check(model, cm, [1.0, 1e-200], 2), MOMENTUM),
        ]:
            with pytest.raises(ValueError, match=message):
                run()


def test_collapse_builds_no_fiber_per_scale(monkeypatch):
    # every scale divides the plan's unit-scale momenta by eps, and
    # collapse_run's windows take eps times the one fiber diameter
    converging, escaping, cm = _canonical_mapping(), _rot4_spinor_model(), spinor_gammas(3)
    built, diameters = [], []
    post_init, diameter = FlatTorusModel.__post_init__, FlatTorusModel.diameter

    def counting_post_init(self):
        built.append(1)
        post_init(self)

    def counting_diameter(self):
        diameters.append(1)
        return diameter(self)

    monkeypatch.setattr(FlatTorusModel, "__post_init__", counting_post_init)
    monkeypatch.setattr(FlatTorusModel, "diameter", counting_diameter)
    for eps in ([1.0], [1.0, 0.5, 0.25, 0.125]):
        collapse_run(converging, spinor_gammas(2), eps, 1, 3)
        collapse_run(escaping, cm, eps, 1, 2)
        blowup_check(escaping, cm, eps, 2)
        assert (len(built), len(diameters)) == (0, 2)
        built.clear()
        diameters.clear()


def test_collapse_solves_the_symbols_once_per_run(monkeypatch):
    # the scales and the limit come from one solve of the plan's symbols,
    # whether the run converges or blows up
    import diraclab.symbols as symbols

    calls = []
    solve = symbols._SymbolSolution.solve.__func__

    def counting_solve(cls, *args):
        calls.append(1)
        return solve(cls, *args)

    monkeypatch.setattr(symbols._SymbolSolution, "solve", classmethod(counting_solve))
    for model, cm, verdict in [
        (_canonical_mapping(), spinor_gammas(2), "converges"),
        (_rot4_spinor_model(), spinor_gammas(3), "blows_up"),
    ]:
        calls.clear()
        report = collapse_run(model, cm, [1.0, 0.5, 0.25], 2, 3)
        assert report.verdict == verdict
        assert len(calls) == 1


@settings(max_examples=30)
@given(
    model=_mapping_models(),
    exterior=st.booleans(),
    truncation=st.integers(1, 3),
    eps=st.floats(0.05, 2.0),
)
def test_scaled_momenta_and_window_match_the_scaled_fiber(model, exterior, truncation, eps):
    # at a non-dyadic scale, dividing the unit-scale momenta and multiplying
    # the diameter round differently from solving and searching the fiber
    # rescaled by eps, but only in the last digits
    cm = exterior_module(3) if exterior else spinor_gammas(3)
    report = collapse_run(model, cm, [eps], 1, truncation)
    fiber = _scaled_fiber(model, eps)
    plan = _plan(model, cm, truncation)
    old = _given_momenta(plan, fiber.dual_momentum(plan.reps))
    _assert_same_spectrum(report.spectra_per_eps[0], eigensolve(old.dirac(1.0)))
    window = spectral_window(_mapping_geometry(fiber.diameter()))
    assert abs(report.window_bounds[0] - window) <= 1e-15 * window


def _parent_window_and_tracked(model, report, k_max, window_c):
    """Window bounds and tracked values by the formulas collapse_run used
    before it partitioned |lambda|: geometric_data of each scale's model,
    and a full sort of every |eigenvalue|."""
    bounds = tuple(
        spectral_window(geometric_data(model.with_scale(e)), DEFAULT_WINDOW_A, window_c)
        for e in report.epsilons
    )
    cols = [spec.abs_sorted()[:k_max] for spec in report.spectra_per_eps]
    return bounds, tuple(tuple(float(col[k]) for col in cols) for k in range(k_max))


@settings(max_examples=30)
@given(
    model=_mapping_models(),
    exterior=st.booleans(),
    truncation=st.integers(1, 2),
    epsilons=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=3, unique=True),
    k_share=st.floats(0.0, 1.0),
    window_c=st.sampled_from([0.0, 10.0]),
)
def test_window_and_tracked_values_match_parent_formulas(
    model, exterior, truncation, epsilons, k_share, window_c
):
    cm = exterior_module(3) if exterior else spinor_gammas(3)
    eps = sorted(epsilons, reverse=True)
    size = len(collapse_run(model, cm, eps[:1], 1, truncation).spectra_per_eps[0])
    for k_max in (1 + int(k_share * (size - 1)), size):
        report = collapse_run(model, cm, eps, k_max, truncation, window_c=window_c)
        got = (report.window_bounds, report.tracked_eigenvalues)
        assert got == _parent_window_and_tracked(model, report, k_max, window_c)


def test_tracked_values_keep_ties_at_k_max():
    for values in ([-2.0, -1.0, -1.0, -0.0, 0.0, 0.5, 1.0, 1.0, 2.0], [-3.0, -1.0], [0.5, 1.0, 1.0]):
        values = np.array(values)
        for k in range(1, len(values) + 1):
            got, ref = _smallest_abs(values, k), np.sort(np.abs(values))[:k]
            assert np.array_equal(got, ref) and not np.signbit(got).any()
    model, cm = _rot4_spinor_model(), spinor_gammas(3)
    first = collapse_run(model, cm, [1.0], 1, 2).spectra_per_eps[0].abs_sorted()
    # k_max where the k-th and (k+1)-th smallest |lambda| tie, and all of them
    ties = np.flatnonzero(first[:-1] == first[1:]) + 1
    assert len(ties) and len(first) not in ties
    for k_max in (int(ties[0]), int(ties[-1]), len(first)):
        report = collapse_run(model, cm, [1.0, 0.5, 0.25], k_max, 2)
        assert report.tracked_eigenvalues == _parent_window_and_tracked(model, report, k_max, 10.0)[1]


def test_perturbation_bound_constant_family():
    cm = spinor_gammas(2)
    rep = perturbation_bound_check(lambda t: np.diag([1.0, 2.0]), cm, 3, samples=3)
    assert rep.passed
    assert max(rep.ratios) == 0.0


def test_perturbation_bound_scaling_family():
    cm = spinor_gammas(1)

    # l(t) = 2pi e^t: every eigenvalue is (k+1/2) e^(-t); the asinh drift per
    # unit path length approaches 1/2 on the small eigenvalues
    def fam(t):
        return np.array([[(2 * np.pi) ** 2 * np.exp(2 * t)]])

    rep = perturbation_bound_check(
        fam, cm, 6, curvature_bound=1.0, bound_constant=5.0, samples=5,
        spin_shift=np.array([0.5]),
    )
    assert rep.passed
    assert 0.05 < rep.max_ratio <= 0.5 + 1e-6


def test_perturbation_refuses_nan_metric_speed():
    # NaN only at the finite-difference probes around the grid point 0.75:
    # the segment lengths there used to be NaN, which max() skipped
    g0 = np.array([[2.0, 0.3], [0.3, 1.0]])

    def fam(t):
        if t != 0.75 and abs(t - 0.75) < 1e-3:
            return np.full((2, 2), np.nan)
        return np.exp(2 * t) * g0

    with pytest.raises(ValueError, match=r"derivative at t=0\.75 is not finite"):
        perturbation_bound_check(fam, spinor_gammas(2), 2, samples=5)
    with pytest.raises(ValueError, match=r"fd_step must be positive and finite, got 0\.0"):
        perturbation_bound_check(fam, spinor_gammas(2), 2, samples=5, fd_step=0.0)


def test_perturbation_report_fields():
    cm = spinor_gammas(1)
    rep = perturbation_bound_check(
        lambda t: np.array([[(1.0 + 0.1 * t) ** 2]]), cm, 3, samples=4, track_count=2
    )
    assert len(rep.segment_lengths) == 3
    assert len(rep.ratios) == 3
    assert rep.track_count == 2
    d = rep.to_json_dict()
    assert d["passed"] is True
    with pytest.raises(ValueError):
        perturbation_bound_check(lambda t: np.eye(1), cm, 2, samples=1)
    with pytest.raises(ValueError):
        perturbation_bound_check(lambda t: np.eye(1), cm, 2, track_count=99)


def _loop_perturbation_bound_check(
    family, cm, truncation, curvature_bound=1.0, bound_constant=5.0, samples=9,
    spin_shift=None, track_count=None, quad_samples=33, fd_step=1e-6,
):
    """Reference: one metric_path per segment, one assembly and eigensolve
    per grid point."""
    ts = np.linspace(0.0, 1.0, samples)
    n = np.atleast_2d(family(ts[0])).shape[0]
    shift = np.zeros(n) if spin_shift is None else np.asarray(spin_shift, dtype=float)
    values = []
    for t in ts:
        basis = np.linalg.cholesky(np.atleast_2d(np.asarray(family(t), dtype=float))).T
        spec = eigensolve(assemble_dirac(FlatTorusModel(basis, shift), cm, truncation))
        values.append(sinh_rescale(spec, curvature_bound).values)
    dim = len(values[0])
    tc = track_count if track_count is not None else max(1, dim // 2)
    band = slice((dim - tc) // 2, (dim - tc) // 2 + tc)
    lengths, devs, ratios = [], [], []
    for i in range(samples - 1):
        seg = metric_path(family, quad_samples, fd_step, ts[i], ts[i + 1])
        dev = float(np.max(np.abs(values[i + 1][band] - values[i][band])))
        if seg < 1e-15:
            ratio = 0.0 if dev <= 1e-12 else float("inf")
        else:
            ratio = dev / seg
        lengths.append(seg)
        devs.append(dev)
        ratios.append(ratio)
    max_ratio = float(np.max(ratios))
    return PerturbationReport(
        ts=tuple(float(t) for t in ts),
        segment_lengths=tuple(lengths),
        max_deviations=tuple(devs),
        ratios=tuple(ratios),
        max_ratio=max_ratio,
        bound_constant=float(bound_constant),
        track_count=tc,
        passed=bool(max_ratio <= bound_constant),
    )


def _spd_family(n, seed, speed=0.8):
    """t -> C exp(t S) C^T, the CLI's family of SPD Gram matrices."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    chol = np.linalg.cholesky(a @ a.T + n * np.eye(n))
    s = rng.standard_normal((n, n))
    s = 0.5 * (s + s.T)
    w, q = np.linalg.eigh(s * speed / max(1.0, float(np.linalg.norm(s, 2))))

    def family(t):
        return chol @ ((q * np.exp(t * w)) @ q.T) @ chol.T

    return family


@settings(max_examples=40)
@given(
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    samples=st.integers(2, 9),
    quad_samples=st.integers(3, 8),
    truncation=st.integers(1, 4),
    half_shift=st.lists(st.booleans(), min_size=3, max_size=3),
    default_shift=st.booleans(),
    exterior=st.booleans(),
    track=st.one_of(st.none(), st.floats(0.0, 1.0)),
    curvature_bound=st.floats(0.25, 4.0),
)
def test_stacked_perturbation_check_matches_loop(
    n, seed, samples, quad_samples, truncation, half_shift, default_shift, exterior, track,
    curvature_bound,
):
    cm = exterior_module(n) if exterior else spinor_gammas(n)
    shift = None if default_shift else 0.5 * np.array(half_shift[:n], dtype=float)
    dim = assemble_dirac(FlatTorusModel(np.eye(n), np.zeros(n) if shift is None else shift), cm, truncation).dim
    track_count = None if track is None else 1 + int(track * (dim - 1))
    family = _spd_family(n, seed)
    args = dict(
        curvature_bound=curvature_bound, samples=samples, spin_shift=shift,
        track_count=track_count, quad_samples=quad_samples,
    )
    got = perturbation_bound_check(family, cm, truncation, **args)
    assert got == _loop_perturbation_bound_check(family, cm, truncation, **args)


def _counting(family):
    calls = []

    def counted(t):
        calls.append(t)
        return family(t)

    return counted, calls


@pytest.mark.parametrize("samples, quad_samples", [(5, 33), (2, 3), (4, 6), (9, 8)])
def test_perturbation_family_evaluation_count(samples, quad_samples):
    family, calls = _counting(_spd_family(2, 7))
    perturbation_bound_check(family, spinor_gammas(2), 2, samples=samples, quad_samples=quad_samples)
    q = quad_samples + 1 - quad_samples % 2
    # one call per grid point, three per distinct quadrature node
    assert len(calls) == samples + 3 * (1 + (samples - 1) * (q - 1))


def _scalar_view(family):
    """The same family without the stacked attribute: called once per t."""

    def scalar(t):
        return family(t)

    return scalar


def _stacked_counting(family):
    sizes = []

    def stacked(t):
        sizes.append(len(t))
        return family(t)

    stacked.stacked = True
    return stacked, sizes


@pytest.mark.parametrize("seed", [1, 7, 123])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cli_family_stacked_output_matches_scalar_calls(seed, n):
    family = _eigen_exponential_family(np.random.default_rng(seed), n, 0.8)
    assert family.stacked is True
    # grid points, quadrature nodes and their central-difference probes
    ts = np.linspace(0.0, 1.0, 129)
    params = np.concatenate([ts, ts + 1e-6, ts - 1e-6])
    stacked = family(params)
    assert stacked.shape == (len(params), n, n)
    assert stacked.tobytes() == np.array([family(float(t)) for t in params]).tobytes()


@settings(max_examples=40)
@given(
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    samples=st.integers(2, 9),
    quad_samples=st.integers(3, 8),
    truncation=st.integers(1, 3),
    exterior=st.booleans(),
    speed=st.floats(0.1, 2.0),
    curvature_bound=st.floats(0.25, 4.0),
)
def test_stacked_family_perturbation_report_matches_scalar(
    n, seed, samples, quad_samples, truncation, exterior, speed, curvature_bound
):
    cm = exterior_module(n) if exterior else spinor_gammas(n)
    family = _eigen_exponential_family(np.random.default_rng(seed), n, speed)
    stacked, sizes = _stacked_counting(family)
    args = dict(samples=samples, quad_samples=quad_samples, curvature_bound=curvature_bound)
    got = perturbation_bound_check(stacked, cm, truncation, **args)
    assert got == perturbation_bound_check(_scalar_view(family), cm, truncation, **args)
    q = quad_samples + 1 - quad_samples % 2
    assert sizes == [3 * (1 + (samples - 1) * (q - 1)), samples]


def test_stacked_family_is_called_twice_per_check():
    family = _eigen_exponential_family(np.random.default_rng(7), 2, 0.8)
    stacked, sizes = _stacked_counting(family)
    scalar, calls = _counting(_scalar_view(family))
    cm = spinor_gammas(2)
    assert perturbation_bound_check(stacked, cm, 3, samples=5) == perturbation_bound_check(
        scalar, cm, 3, samples=5
    )
    assert sizes == [387, 5]
    assert len(calls) == 392


@pytest.mark.parametrize(
    "bad, message",
    [
        ("indefinite", r"^Gram matrix at t=0\.6015625 is not positive definite$"),
        ("nan", r"^Gram matrix at t=0\.6015625 is not finite$"),
        ("nan_probe", r"^metric derivative at t=0\.75 is not finite$"),
    ],
)
def test_stacked_family_refusals_match_scalar(bad, message):
    def gram(t):
        t = np.asarray(t)[..., None, None]
        g = np.exp(t * np.array([1.0, -1.0])) * np.eye(2)
        if bad == "indefinite":
            return np.where(t > 0.6, -g, g)
        if bad == "nan":
            return np.where(t > 0.6, np.nan, g)
        return np.where((t != 0.75) & (np.abs(t - 0.75) < 1e-3), np.nan, g)

    stacked, sizes = _stacked_counting(gram)
    for family in (stacked, _scalar_view(gram)):
        with pytest.raises(ValueError, match=message):
            perturbation_bound_check(family, spinor_gammas(2), 2, samples=5)
    assert sizes == [387]


def test_stacked_family_grid_output_shape_is_checked():
    def family(t):
        # right for the quadrature pass, one matrix short on the grid
        out = np.broadcast_to(np.eye(2), (len(t), 2, 2))
        return out if len(t) > 5 else out[1:]

    family.stacked = True
    message = r"^stacked metric family must map 5 parameters to an \(5, n, n\) array, got shape \(4, 2, 2\)$"
    with pytest.raises(ValueError, match=message):
        perturbation_bound_check(family, spinor_gammas(2), 2, samples=5)

    def wrong_rank(t):
        return np.broadcast_to(np.eye(3), (len(t), 3, 3))

    wrong_rank.stacked = True
    with pytest.raises(ValueError, match="^module dimension 2 does not match torus rank 3$"):
        perturbation_bound_check(wrong_rank, spinor_gammas(2), 1, samples=2, quad_samples=3)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(samples=1), "need at least two parameter samples"),
        (dict(quad_samples=2), "need at least 3 quadrature samples"),
        (dict(fd_step=0.0), "fd_step must be positive and finite, got 0.0"),
        (dict(fd_step=float("nan")), "fd_step must be positive and finite, got nan"),
        (dict(curvature_bound=0.0), "curvature bound must be positive and finite, got 0.0"),
        (dict(curvature_bound=-1.0), "curvature bound must be positive and finite, got -1.0"),
        (dict(curvature_bound=float("inf")), "curvature bound must be positive and finite, got inf"),
        (dict(truncation=0), "truncation must be at least 1"),
        (dict(spin_shift=[0.5]), "spin shift length must match the lattice rank"),
        (dict(spin_shift=[0.5, 0.25]), "spin shift entries must be 0 or 1/2"),
        (dict(track_count=0), r"track_count must lie in \[1, 50\]"),
        (dict(track_count=51), r"track_count must lie in \[1, 50\]"),
    ],
)
def test_perturbation_refuses_arguments_before_calling_family(kwargs, message):
    family, calls = _counting(_spd_family(2, 3))
    args = dict(truncation=2) | kwargs
    with pytest.raises(ValueError, match=f"^{message}$"):
        perturbation_bound_check(family, spinor_gammas(2), **args)
    assert calls == []


def test_perturbation_names_the_indefinite_node():
    # indefinite from t = 0.6 on: the first quadrature node past it is
    # 0.5 + 13/128 on the segment [0.5, 0.75]; it used to raise a bare
    # LinAlgError from cholesky at the grid point 0.75
    def family(t):
        return np.diag([1.0, 0.6 - t])

    with pytest.raises(ValueError, match=r"^Gram matrix at t=0\.6015625 is not positive definite$"):
        perturbation_bound_check(family, spinor_gammas(2), 2, samples=5)


def test_perturbation_refuses_module_of_other_rank():
    with pytest.raises(ValueError, match="module dimension 2 does not match torus rank 3"):
        perturbation_bound_check(lambda t: np.eye(3), spinor_gammas(2), 1, samples=2, quad_samples=3)


def test_normals_are_seeded_standard_normal_draws():
    a = _Normals(5).standard_normal((3, 7))
    assert a.shape == (3, 7) and a.dtype == np.float64
    assert a.tobytes() == _Normals(5).standard_normal((3, 7)).tobytes()
    assert not np.any(a == _Normals(6).standard_normal((3, 7)))
    with pytest.raises(ValueError, match=r"^seed must be nonnegative, got -1$"):
        _Normals(-1)
    z = _Normals(2024).standard_normal((100_000,))
    assert abs(z.mean()) < 0.02 and abs(z.var() - 1.0) < 0.03
