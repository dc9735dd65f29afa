"""Command line driver: INI-configured experiments with reproducible output.

Every experiment reads one config file, writes a JSON report (plus
experiment-specific CSV or text artifacts) into the output directory, and
exits 0 when its declared assertions hold, 3 when they fail, 2 on config
errors.  [numeric] values are read, and refused, before any model is built:
a threshold or imaginary shift must be finite, a tolerance or bound
nonnegative, and a setting under which a pass would check nothing (zero
trials, a rate floor <= 0) is refused.  Outputs are byte-reproducible:
fixed seeds, sorted JSON keys, repr floats, no timestamps.  The seeded
draws of perturbation and block_identities come from random.Random(seed),
and a negative seed exits 2.  Their seed-dependent results (max_ratio and
ratios; inverse_residual, factorization_residual, series_residual and
series_cases) therefore differ from versions that drew from numpy.random
at the same seed.

Config layout:

    [experiment]
    name = torus_spectrum | window_test | collapse | blowup |
           perturbation | frame_bundle | block_identities

    [model]         ; models for the spectral experiments
    type = flat_torus | mapping_torus      ; optional; the experiment's model
    module = spinor | exterior
    lattice = 6.283185307179586            ; rows separated by ';'
    spin_shift = 0.5
    fiber_lattice = 1,0;0,1                ; mapping torus fields
    fiber_shift = 0.5,0.5
    holonomy = -1,0;0,-1
    lift = auto | identity
    base_length = 6.283185307179586
    base_shift = 0.5
    connection = 0.0,0.0

    [numeric]       ; per-experiment knobs, all optional with defaults
    truncation = 8
    epsilons = 1.0,0.5,0.25,0.125
    ...

    [output]
    prefix = run
    write_spectrum_csv = true
    write_matrix = false
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

import numpy as np

from .assembly import (
    assemble_dirac,
    bochner_rhs,
    frame_bundle_operator,
    write_matrix_text,
)
from .blockres import (
    BlockMatrix2x2,
    neumann_factorization_check,
    neumann_inverse,
    schur_complement,
    schur_inverse,
)
from .clifford import CliffordModule, exterior_module, spinor_gammas
from .collapse import (
    DEFAULT_WINDOW_A,
    DEFAULT_WINDOW_C,
    _Normals,
    _write_json,
    blowup_check,
    collapse_run,
    perturbation_bound_check,
    window_agreement,
)
from .models import AffineMappingTorus, FlatTorusModel
from .spectral import (
    BLOCK_INVERSE_TOL,
    FACTORIZATION_TOL,
    SPECTRUM_MATCH_TOL,
    SQUARE_IDENTITY_TOL,
    epsilon_close,
    eigensolve,
    spectrum_to_csv,
    window_intersect,
)

__all__ = ["main"]

DEFAULT_SEED = 7


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split(",")])


def _parse_matrix(text: str) -> np.ndarray:
    return np.array([[float(x) for x in row.split(",")] for row in text.split(";")])


_PARSERS = {"integer": int, "number": float, "list of numbers": _parse_vector, "matrix": _parse_matrix}


def _read(cfg, section: str, key: str, kind: str, **fallback):
    """[section] key parsed as kind (a key of _PARSERS).  A value that fails
    to parse is refused naming the key.  An absent key takes fallback=...
    where one is given, parsed alike (a fallback None stays None), and is
    configparser's error otherwise."""
    text = cfg.get(section, key, **fallback)
    try:
        return text if text is None else _PARSERS[kind](text)
    except ValueError:
        raise ValueError(f"[{section}] {key} = {text!r} is not a valid {kind}") from None


def _build_module(cfg: configparser.ConfigParser, n: int) -> CliffordModule:
    kind = cfg.get("model", "module", fallback="spinor")
    if kind == "spinor":
        return spinor_gammas(n)
    if kind == "exterior":
        return exterior_module(n)
    raise ValueError(f"unknown module kind {kind!r}")


def _check_model_type(cfg: configparser.ConfigParser, kind: str) -> None:
    """Refuse a [model] type naming another model than kind, the experiment's."""
    named = cfg.get("model", "type", fallback=kind)
    if named != kind:
        raise ValueError(f"[model] type must be {kind} for this experiment, got {named!r}")


def _build_flat(cfg: configparser.ConfigParser) -> FlatTorusModel:
    _check_model_type(cfg, "flat_torus")
    lattice = _read(cfg, "model", "lattice", "matrix")
    shift = _read(cfg, "model", "spin_shift", "list of numbers", fallback=None)
    return FlatTorusModel(lattice, np.zeros(lattice.shape[0]) if shift is None else shift)


def _build_mapping(cfg: configparser.ConfigParser) -> tuple[AffineMappingTorus, CliffordModule]:
    _check_model_type(cfg, "mapping_torus")
    fiber_lattice = _read(cfg, "model", "fiber_lattice", "matrix")
    m = fiber_lattice.shape[0]
    cm = _build_module(cfg, m + 1)
    shift = _read(cfg, "model", "fiber_shift", "list of numbers", fallback=None)
    fiber = FlatTorusModel(fiber_lattice, np.zeros(m) if shift is None else shift)
    holonomy = _read(cfg, "model", "holonomy", "matrix", fallback=None)
    holonomy = np.eye(m) if holonomy is None else holonomy
    base_length = _read(cfg, "model", "base_length", "number")
    base_shift = _read(cfg, "model", "base_shift", "number", fallback=0.0)
    connection = _read(cfg, "model", "connection", "list of numbers", fallback=None)
    lift_kind = cfg.get("model", "lift", fallback="auto")
    if lift_kind == "auto":
        lift = None
    elif lift_kind == "identity":
        lift = np.eye(cm.dim_v, dtype=complex)
    else:
        raise ValueError(f"unknown lift kind {lift_kind!r}")
    return AffineMappingTorus(
        fiber=fiber,
        holonomy=holonomy,
        base_length=base_length,
        holonomy_lift=lift,
        base_shift=base_shift,
        connection=connection,
    ), cm


def _num(cfg, key, fallback):
    value = _read(cfg, "numeric", key, "number", fallback=fallback)
    if not np.isfinite(value):
        raise ValueError(f"[numeric] {key} must be finite, got {value!r}")
    return value


def _nonnegative(cfg, key, fallback):
    value = _num(cfg, key, fallback)
    if value < 0.0:
        raise ValueError(f"[numeric] {key} must be nonnegative, got {value!r}")
    return value


def _numlist(cfg, key, **fallback):
    """[numeric] key as a comma-separated list of floats, for the caller to check."""
    return [float(x) for x in _read(cfg, "numeric", key, "list of numbers", **fallback)]


def _numint(cfg, key, fallback):
    return _read(cfg, "numeric", key, "integer", fallback=fallback)


def _positive_int(cfg, key, fallback):
    """[numeric] key, refused below 1: zero trials would check nothing, and
    a block of no rows is no block."""
    value = _numint(cfg, key, fallback)
    if value < 1:
        raise ValueError(f"[numeric] {key} must be at least 1, got {value}")
    return value


# ---------------------------------------------------------------------------
# experiments; each returns (passed, results dict)


def _run_torus_spectrum(cfg, outdir: Path, seed: int):
    trunc = _numint(cfg, "truncation", 8)
    tol = _nonnegative(cfg, "tolerance", SQUARE_IDENTITY_TOL)
    model = _build_flat(cfg)
    cm = _build_module(cfg, model.n)
    op = assemble_dirac(model, cm, trunc)
    spec = eigensolve(op)
    squared = np.sort(spec.values**2)
    laplace = eigensolve(bochner_rhs(model, cm, trunc))
    dev = float(np.max(np.abs(squared - laplace.values))) if len(spec) else 0.0
    scale = max(1.0, float(np.max(np.abs(squared))) if len(spec) else 1.0)
    passed = dev <= tol * scale
    prefix = cfg.get("output", "prefix", fallback="run")
    if cfg.getboolean("output", "write_spectrum_csv", fallback=True):
        spectrum_to_csv(spec, outdir / f"{prefix}_spectrum.csv")
    if cfg.getboolean("output", "write_matrix", fallback=False):
        write_matrix_text(op, outdir / f"{prefix}_matrix.txt")
    results = {
        "dimension": op.dim,
        "eigenvalue_count": len(spec),
        "min_eigenvalue": float(spec.values[0]),
        "max_eigenvalue": float(spec.values[-1]),
        "square_vs_laplacian_deviation": dev,
    }
    return passed, results


def _run_window_test(cfg, outdir: Path, seed: int):
    trunc = _numint(cfg, "truncation", 12)
    eps = _numlist(cfg, "epsilons")
    tol = _nonnegative(cfg, "tolerance", SPECTRUM_MATCH_TOL)
    wa = _num(cfg, "window_a", DEFAULT_WINDOW_A)
    wc = _num(cfg, "window_c", DEFAULT_WINDOW_C)
    model, cm = _build_mapping(cfg)
    report = collapse_run(model, cm, eps, k_max=1, truncation=trunc, window_a=wa, window_c=wc)
    if report.verdict != "converges":
        return False, {"error": "model has no limit operator; window test undefined"}
    matches = window_agreement(report, tol)
    counts = [len(window_intersect(s, w)) for s, w in zip(report.spectra_per_eps, report.window_bounds)]
    results = {
        "epsilons": [float(e) for e in eps],
        "window_bounds": [float(w) for w in report.window_bounds],
        "matched_counts": counts,
        "max_deviations": [float(m.max_deviation) for m in matches],
        "all_matched": all(bool(m) for m in matches),
    }
    return bool(results["all_matched"]), results


def _run_collapse(cfg, outdir: Path, seed: int):
    trunc = _numint(cfg, "truncation", 12)
    eps = _numlist(cfg, "epsilons")
    k_max = _numint(cfg, "k_max", 4)
    tol = _nonnegative(cfg, "tolerance", SPECTRUM_MATCH_TOL)
    wa = _num(cfg, "window_a", DEFAULT_WINDOW_A)
    wc = _num(cfg, "window_c", DEFAULT_WINDOW_C)
    model, cm = _build_mapping(cfg)
    report = collapse_run(model, cm, eps, k_max=k_max, truncation=trunc, window_a=wa, window_c=wc)
    prefix = cfg.get("output", "prefix", fallback="run")
    report.save(outdir / f"{prefix}_collapse.json")
    lines = ["# rows: k-th smallest |eigenvalue|; columns: epsilons " + ",".join(repr(e) for e in eps)]
    for row in report.tracked_eigenvalues:
        lines.append(",".join(repr(v) for v in row))
    (outdir / f"{prefix}_tracked.csv").write_text("\n".join(lines) + "\n")
    passed = True
    agreement_devs = None
    if report.verdict == "converges":
        matches = window_agreement(report, tol)
        agreement_devs = [float(m.max_deviation) for m in matches]
        passed = all(bool(m) for m in matches)
    results = {
        "verdict": report.verdict,
        "window_bounds": [float(w) for w in report.window_bounds],
        "tracked_first": [float(v) for v in report.tracked_eigenvalues[0]],
        "window_agreement_deviations": agreement_devs,
    }
    return passed, results


def _run_blowup(cfg, outdir: Path, seed: int):
    trunc = _numint(cfg, "truncation", 6)
    eps = _numlist(cfg, "epsilons")
    floor = _num(cfg, "rate_floor", 0.4)
    if floor <= 0.0:
        # every rate is at least 0, so such a floor passes any spectrum
        raise ValueError(f"[numeric] rate_floor must be positive, got {floor!r}")
    model, cm = _build_mapping(cfg)
    report = blowup_check(model, cm, eps, trunc)
    results = report.to_json_dict()
    results["rate_floor"] = float(floor)
    return bool(report.rate >= floor), results


def _eigen_exponential_family(rng, n: int, speed: float):
    """Stacked metric family t -> C exp(t S) C^T, with C C^T a random SPD
    Gram matrix and S a random symmetric matrix of operator norm at most
    speed, both drawn from rng.  A scalar t gives one Gram matrix, a 1-D
    array of S values an (S, n, n) stack with the same entries bit for bit."""
    a = rng.standard_normal((n, n))
    chol = np.linalg.cholesky(a @ a.T + n * np.eye(n))
    s = rng.standard_normal((n, n))
    # the operator norm of the symmetric s is its largest |eigenvalue|
    w, q = np.linalg.eigh((0.5 * (s + s.T)).astype(complex))
    w *= speed / max(1.0, float(np.max(np.abs(w))))
    cq = chol @ q

    def family(t):
        t = np.asarray(t)[..., None, None]
        return ((cq * np.exp(t * w)) @ cq.conj().T).real

    family.stacked = True
    return family


def _run_perturbation(cfg, outdir: Path, seed: int):
    n = _numint(cfg, "dim", 2)
    trials = _positive_int(cfg, "trials", 5)
    trunc = _numint(cfg, "truncation", 4)
    k_bound = _num(cfg, "curvature_bound", 1.0)
    c_bound = _nonnegative(cfg, "bound_constant", 5.0)
    samples = _numint(cfg, "samples", 9)
    speed = _num(cfg, "speed_scale", 0.8)
    rng = _Normals(seed)
    cm = _build_module(cfg, n) if cfg.has_section("model") else spinor_gammas(n)
    ratios = []
    for _ in range(trials):
        rep = perturbation_bound_check(
            _eigen_exponential_family(rng, n, speed),
            cm,
            trunc,
            curvature_bound=k_bound,
            bound_constant=c_bound,
            samples=samples,
        )
        ratios.append(rep.max_ratio)
    worst = float(np.max(ratios))
    results = {
        "trials": trials,
        "max_ratio": worst,
        "ratios": [float(r) for r in ratios],
        "bound_constant": float(c_bound),
    }
    return bool(worst <= c_bound), results


def _run_frame_bundle(cfg, outdir: Path, seed: int):
    trunc = _numint(cfg, "truncation", 6)
    gtrunc = _numint(cfg, "group_truncation", 4)
    tol = _nonnegative(cfg, "tolerance", SPECTRUM_MATCH_TOL)
    model = _build_flat(cfg)
    cm = _build_module(cfg, model.n)
    sq, lap = frame_bundle_operator(model, cm, trunc, gtrunc)
    match = epsilon_close(sq, lap, tol)
    prefix = cfg.get("output", "prefix", fallback="run")
    if cfg.getboolean("output", "write_spectrum_csv", fallback=True):
        spectrum_to_csv(sq, outdir / f"{prefix}_dirac_squared.csv")
        spectrum_to_csv(lap, outdir / f"{prefix}_laplacian_route.csv")
    results = {
        "count": len(sq),
        "max_deviation": float(match.max_deviation),
        "matched": bool(match),
    }
    return bool(match), results


def _run_block_identities(cfg, outdir: Path, seed: int):
    trials = _positive_int(cfg, "trials", 5)
    p = _positive_int(cfg, "block_p", 6)
    q = _positive_int(cfg, "block_q", 6)
    shifts = _numlist(cfg, "imag_shifts", fallback="0.0,1.0,2.0")
    if not np.isfinite(shifts).all():
        raise ValueError(f"[numeric] imag_shifts must be finite, got {shifts!r}")
    rng = _Normals(seed)
    inv_resid = 0.0
    fact_resid = 0.0
    series_resid = 0.0
    series_cases = 0
    for _ in range(trials):
        a = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        alpha = a @ a.conj().T + p * np.eye(p)
        c = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        delta = c @ c.conj().T + q * np.eye(q)
        beta = 0.5 * (rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q)))
        m = BlockMatrix2x2(alpha=alpha, beta=beta, gamma=beta.conj().T, delta=delta)
        dense = m.dense()
        inv = schur_inverse(m)
        eye = np.eye(p + q)
        inv_resid = max(inv_resid, float(np.max(np.abs(dense @ inv - eye))))
        for k in shifts:
            rep = neumann_factorization_check(m, imag_shift=k)
            fact_resid = max(fact_resid, rep.factorization_residual)
            if rep.contraction_norm < 0.95:
                series = neumann_inverse(m, imag_shift=k)
                shifted = BlockMatrix2x2(
                    alpha=alpha + 1j * k * np.eye(p),
                    beta=beta,
                    gamma=beta.conj().T,
                    delta=delta + 1j * k * np.eye(q),
                )
                direct = np.linalg.inv(schur_complement(shifted))
                series_resid = max(series_resid, float(np.max(np.abs(series - direct))))
                series_cases += 1
    results = {
        "trials": trials,
        "inverse_residual": inv_resid,
        "factorization_residual": fact_resid,
        "series_residual": series_resid,
        "series_cases": series_cases,
    }
    passed = (
        inv_resid <= BLOCK_INVERSE_TOL
        and fact_resid <= FACTORIZATION_TOL
        and series_resid <= BLOCK_INVERSE_TOL
    )
    return passed, results


_EXPERIMENTS = {
    "torus_spectrum": _run_torus_spectrum,
    "window_test": _run_window_test,
    "collapse": _run_collapse,
    "blowup": _run_blowup,
    "perturbation": _run_perturbation,
    "frame_bundle": _run_frame_bundle,
    "block_identities": _run_block_identities,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="diraclab",
        description="Dirac-type operators on flat collapsing models: "
        "assembly, spectra, and limit comparisons.",
    )
    parser.add_argument("--config", required=True, help="INI experiment configuration")
    parser.add_argument("--out", default=".", help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    parser.add_argument("--verbose", action="store_true", help="print the result summary")
    args = parser.parse_args(argv)

    cfg = configparser.ConfigParser()
    cfg.optionxform = str
    # a malformed file (no section header, a duplicate section) fails the
    # read, and a malformed seed its parse: config errors, exit 2
    try:
        if not cfg.read(args.config):
            print(f"error: cannot read config {args.config}", file=sys.stderr)
            return 2
        try:
            name = cfg.get("experiment", "name")
            runner = _EXPERIMENTS[name]
        except (configparser.Error, KeyError):
            known = ", ".join(sorted(_EXPERIMENTS))
            print(f"error: missing or unknown experiment name; known: {known}", file=sys.stderr)
            return 2
        seed = args.seed
        if seed is None:
            seed = _numint(cfg, "seed", DEFAULT_SEED)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        passed, results = runner(cfg, outdir, seed)
        prefix = cfg.get("output", "prefix", fallback="run")
        payload = {
            "experiment": name,
            "seed": seed,
            "parameters": {
                sec: dict(cfg.items(sec)) for sec in cfg.sections() if sec != "output"
            },
            "results": results,
            "passed": bool(passed),
        }
        report_path = outdir / f"{prefix}_report.json"
        _write_json(report_path, payload)
    # config errors too: an --out or output prefix the file system refuses
    # (a file, a missing directory, a name too long), arrays too large for memory
    except (ValueError, RuntimeError, KeyError, configparser.Error, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    if args.verbose:
        status = "PASS" if passed else "FAIL"
        print(f"{name}: {status} ({report_path})")
    return 0 if passed else 3


if __name__ == "__main__":
    sys.exit(main())
