"""The benchmark's workloads: inputs, the timed call, and observables.

Each workload is built in three steps, run in a fresh process by worker.py:

1. ``setup(name, seed, size, workdir)`` builds the models, modules and
   config files and returns a state dict (counted in set-up time);
2. ``run(state)`` makes the library calls (timed as the workload);
3. ``observe(state, result)`` turns the result into plain JSON values that
   reference.json freezes (not timed).

The seed never changes the expected observables.  For the two mapping-torus
workloads it rotates the fiber lattice rigidly, an isometry that leaves
every spectrum unchanged but gives the program different numbers; for the
CLI workloads it is the experiment seed, and only seed-independent results
are frozen.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

import diraclab
from diraclab.cli import main as cli_main

TWO_PI = 2.0 * math.pi
CIRCLE = "6.283185307179586"

# Mapping-torus collapse parameters per workload and size: truncation and
# fiber scales.
ROT4 = {
    "collapse_spinor_rot4": {
        "full": (6, (1.0, 0.5, 0.25, 0.125)),
        "smoke": (2, (1.0, 0.5)),
    },
    "window_exterior_rot4": {
        "full": (3, (1.0, 0.5, 0.25)),
        "smoke": (2, (1.0, 0.5)),
    },
}
K_MAX = 4
WINDOW_TOL = 1e-9

PERTURBATION = {
    "full": {"dim": 2, "truncation": 4, "samples": 9, "trials": 24},
    "smoke": {"dim": 2, "truncation": 3, "samples": 5, "trials": 2},
}

# The seven CLI experiment configs of the repository's CLI test suite.
CLI_CONFIGS = {
    "torus_spectrum": f"""
[experiment]
name = torus_spectrum

[model]
type = flat_torus
module = spinor
lattice = {CIRCLE}
spin_shift = 0.5

[numeric]
truncation = 8

[output]
prefix = circ
write_spectrum_csv = true
write_matrix = true
""",
    "window_test": f"""
[experiment]
name = window_test

[model]
type = mapping_torus
module = spinor
fiber_lattice = {CIRCLE}
fiber_shift = 0.0
holonomy = 1
lift = identity
base_length = {CIRCLE}
base_shift = 0.5

[numeric]
truncation = 12
epsilons = 1.0,0.5,0.25,0.125

[output]
prefix = win
""",
    "collapse": f"""
[experiment]
name = collapse

[model]
type = mapping_torus
module = spinor
fiber_lattice = {CIRCLE}
fiber_shift = 0.0
holonomy = 1
lift = identity
base_length = {CIRCLE}
base_shift = 0.5

[numeric]
truncation = 10
epsilons = 1.0,0.5
k_max = 3

[output]
prefix = col
""",
    "blowup": f"""
[experiment]
name = blowup

[model]
type = mapping_torus
module = spinor
fiber_lattice = {CIRCLE}
fiber_shift = 0.5
holonomy = 1
lift = identity
base_length = {CIRCLE}
base_shift = 0.5

[numeric]
truncation = 5
epsilons = 1.0,0.5,0.25

[output]
prefix = blow
""",
    "perturbation": """
[experiment]
name = perturbation

[numeric]
dim = 2
trials = 2
truncation = 3
samples = 5

[output]
prefix = pert
""",
    "frame_bundle": """
[experiment]
name = frame_bundle

[model]
type = flat_torus
module = spinor
lattice = 1,0;0,1.5
spin_shift = 0.5,0.0

[numeric]
truncation = 4
group_truncation = 4

[output]
prefix = frame
""",
    "block_identities": """
[experiment]
name = block_identities

[numeric]
trials = 3
block_p = 5
block_q = 4

[output]
prefix = blk
""",
}

# Report results that depend on the experiment seed; they are checked
# through the report's own "passed" flag, not frozen.
SEEDED_RESULTS = {
    "perturbation": ("max_ratio", "ratios"),
    "block_identities": ("inverse_residual", "factorization_residual", "series_residual", "series_cases"),
}


def _rotated_fiber_model(seed: int) -> diraclab.AffineMappingTorus:
    """Square 2*pi fiber with 90-degree holonomy, auto lift, base shift 1/2;
    the fiber lattice is rotated rigidly by a seed-chosen angle."""
    theta = random.Random(seed).uniform(0.0, TWO_PI)
    c, s = math.cos(theta), math.sin(theta)
    rotation = np.array([[c, -s], [s, c]])
    fiber = diraclab.FlatTorusModel(rotation @ (TWO_PI * np.eye(2)), np.zeros(2))
    return diraclab.AffineMappingTorus(
        fiber=fiber,
        holonomy=np.array([[0, -1], [1, 0]]),
        base_length=TWO_PI,
        holonomy_lift=None,
        base_shift=0.5,
    )


def _module(name: str) -> diraclab.CliffordModule:
    if name == "collapse_spinor_rot4":
        return diraclab.spinor_gammas(3)
    return diraclab.exterior_module(3)


def _write_configs(workdir: Path, configs: dict[str, str]) -> dict[str, Path]:
    paths = {}
    for name, text in configs.items():
        path = workdir / f"{name}.ini"
        path.write_text(text)
        paths[name] = path
    return paths


def _perturbation_config(size: str) -> str:
    p = PERTURBATION[size]
    return (
        "[experiment]\nname = perturbation\n\n[numeric]\n"
        f"dim = {p['dim']}\ntrials = {p['trials']}\ntruncation = {p['truncation']}\n"
        f"samples = {p['samples']}\n\n[output]\nprefix = pert\n"
    )


def setup(name: str, seed: int, size: str, workdir: Path) -> dict:
    if name in ROT4:
        truncation, eps = ROT4[name][size]
        return {
            "name": name,
            "model": _rotated_fiber_model(seed),
            "module": _module(name),
            "truncation": truncation,
            "epsilons": eps,
        }
    if name == "perturbation_flat":
        configs = {"perturbation": _perturbation_config(size)}
    elif name == "cli_suite":
        configs = dict(CLI_CONFIGS)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return {
        "name": name,
        "seed": seed,
        "workdir": workdir,
        "configs": _write_configs(workdir, configs),
    }


def run(state: dict, call=None) -> dict:
    """The timed library calls.  call(span_name, fn, *args) runs fn; the
    traced run passes a tracer's span method, so each CLI experiment gets
    its own span."""
    name = state["name"]
    if name in ROT4:
        report = diraclab.collapse_run(
            state["model"], state["module"], state["epsilons"],
            k_max=K_MAX, truncation=state["truncation"],
        )
        matches = None
        if name == "window_exterior_rot4":
            matches = diraclab.window_agreement(report, WINDOW_TOL)
        return {"report": report, "matches": matches}
    codes = {}
    for experiment, path in state["configs"].items():
        argv = ["--config", str(path), "--out", str(state["workdir"] / experiment),
                "--seed", str(state["seed"])]
        if call is None:
            codes[experiment] = cli_main(argv)
        else:
            codes[experiment] = call(f"cli.{experiment}", cli_main, argv)
    return {"codes": codes}


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _observe_collapse(state: dict, result: dict) -> dict:
    report = result["report"]
    obs = {
        "verdict": report.verdict,
        "spectrum_sizes": [len(s) for s in report.spectra_per_eps],
        "limit_size": None if report.limit_spectrum is None else len(report.limit_spectrum),
        "tracked_eigenvalues": [_floats(row) for row in report.tracked_eigenvalues],
        "window_bounds": _floats(report.window_bounds),
    }
    matches = result["matches"]
    if matches is not None:
        windowed = [
            diraclab.window_intersect(s, w)
            for s, w in zip(report.spectra_per_eps, report.window_bounds)
        ]
        obs["matched_counts"] = [len(m.pairs) for m in matches]
        obs["all_matched"] = all(bool(m) for m in matches)
        obs["windowed_eigenvalues"] = [_floats(w.values) for w in windowed]
    return obs


def _observe_cli(state: dict, result: dict) -> dict:
    """Per experiment: exit code, artifact names, and the report's fields
    that do not depend on the seed, keyed "<experiment>.<field>"."""
    obs = {}
    for experiment, code in result["codes"].items():
        outdir = state["workdir"] / experiment
        files = sorted(p.name for p in outdir.iterdir())
        entry = {"exit_code": code, "artifacts": files}
        reports = [f for f in files if f.endswith("_report.json")]
        if len(reports) == 1:
            data = json.loads((outdir / reports[0]).read_text())
            seeded = SEEDED_RESULTS.get(experiment, ())
            results = data.get("results", {})
            entry.update(
                experiment=data.get("experiment"),
                passed=data.get("passed"),
                seed_matches=data.get("seed") == state["seed"],
                parameters=data.get("parameters"),
                results={k: v for k, v in results.items() if k not in seeded},
            )
            if "ratios" in seeded:
                entry["ratio_count"] = len(results.get("ratios", ()))
        obs.update((f"{experiment}.{k}", v) for k, v in entry.items())
    return obs


def observe(state: dict, result: dict) -> dict:
    if state["name"] in ROT4:
        return _observe_collapse(state, result)
    return _observe_cli(state, result)


def layer_counts(state: dict, result: dict) -> dict[str, float]:
    """Counts the benchmark reads off the results: eigenvalues inside the
    collapse windows against eigenvalues solved, and artifact bytes."""
    out: dict[str, float] = {}
    if state["name"] in ROT4:
        report = result["report"]
        spectra = list(report.spectra_per_eps)
        if report.limit_spectrum is not None:
            spectra.append(report.limit_spectrum)
        solved = sum(len(s) for s in spectra)
        inside = sum(
            len(diraclab.window_intersect(s, w))
            for s, w in zip(report.spectra_per_eps, report.window_bounds)
        )
        out["collapse.window_eigenvalues"] = inside
        out["collapse.solved_eigenvalues"] = solved
        out["collapse.window_useful_ratio"] = inside / solved
    else:
        out["cli.artifact_bytes"] = sum(
            p.stat().st_size for p in state["workdir"].rglob("*") if p.is_file() and p.suffix != ".ini"
        )
    return out


def sweep_model(seed: int):
    return _rotated_fiber_model(seed), diraclab.spinor_gammas(3)


def compare(observed, expected, tol: float = 1e-9) -> bool:
    """Exact equality, except floats, which agree to tol relative to
    max(1, |expected|)."""
    if isinstance(expected, float) and isinstance(observed, (int, float)) and not isinstance(observed, bool):
        return abs(observed - expected) <= tol * max(1.0, abs(expected))
    if isinstance(expected, dict):
        return (
            isinstance(observed, dict)
            and observed.keys() == expected.keys()
            and all(compare(observed[k], expected[k], tol) for k in expected)
        )
    if isinstance(expected, list):
        return (
            isinstance(observed, list)
            and len(observed) == len(expected)
            and all(compare(o, e, tol) for o, e in zip(observed, expected))
        )
    return type(observed) is type(expected) and observed == expected
