"""Smoke test of the benchmark harness at its smallest input sizes.

    python3 -m pytest -q bench/smoke.py

The file name keeps it out of the default test collection, so the
repository's own test run does not pay for it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from spans import Tracer  # noqa: E402

# Per-layer metrics that must be nonzero in each workload's traced run.
CALLED = {
    "collapse_spinor_rot4": (
        "assembly.assemble_dirac.s", "assembly.rows", "spectral.eigensolve.calls",
        "clifford.lift_rotation.calls", "collapse.collapse_run.self_s",
        "collapse.solved_eigenvalues", "models.geometric_data.calls",
    ),
    "window_exterior_rot4": (
        "assembly.limit_operator.s", "assembly.max_block_rows", "spectral.window_intersect.s",
        "collapse.window_agreement.s", "collapse.window_useful_ratio",
    ),
    "perturbation_flat": (
        "models.metric_path.calls", "collapse.perturbation_bound_check.self_s",
        "cli.perturbation.s", "cli.main.self_s", "cli.artifact_bytes",
    ),
    "cli_suite": tuple(
        f"cli.{e}.s" for e in (
            "torus_spectrum", "window_test", "collapse", "blowup",
            "perturbation", "frame_bundle", "block_identities",
        )
    ) + (
        "assembly.bochner_rhs.s", "assembly.frame_bundle_operator.s",
        "assembly.fiber_invariant_split.s", "spectral.spectrum_to_csv.s",
        "spectral.epsilon_close.s", "collapse.blowup_check.s",
        "blockres.schur_inverse.s", "blockres.neumann_inverse.s",
        "blockres.neumann_factorization_check.s",
    ),
}
SWEEP_T4 = ("sweep.T4.dim", "sweep.T4.blocks", "sweep.T4.assemble_dirac.s",
            "sweep.T4.eigensolve.s", "sweep.T4.peak_rss_mib")


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "5", "--seconds", "1",
           "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    metrics = _result(_bench(ROOT, workload, 0))["metrics"]
    assert [m["name"] for m in SPEC["end_to_end"]] == list(metrics)
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced(workload):
    metrics = _result(_bench(ROOT, workload, 1))["metrics"]
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics)
    for name in CALLED[workload] + SWEEP_T4:
        assert metrics[name]["value"] > 0, name


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_self_time_and_namespaces():
    import diraclab
    import diraclab.collapse

    tracer = Tracer()
    tracer.install()
    try:
        assert diraclab.eigensolve is diraclab.collapse.eigensolve
        assert diraclab.eigensolve.__wrapped__ is diraclab.spectral.eigensolve.__wrapped__
        model = diraclab.FlatTorusModel([[6.283185307179586]], [0.5])
        tracer.span("outer", diraclab.eigensolve,
                    diraclab.assemble_dirac(model, diraclab.spinor_gammas(1), 3))
    finally:
        tracer.uninstall()
    assert not hasattr(diraclab.eigensolve, "__wrapped__")
    by_name = {r["name"]: r for r in tracer.spans}
    outer, inner = by_name["outer"], by_name["spectral.eigensolve"]
    assert inner["parent"] == tracer.spans.index(outer)
    inner_s = inner["end"] - inner["start"]
    assert outer["self_s"] == pytest.approx(outer["end"] - outer["start"] - inner_s)
    summary = tracer.summary()
    assert summary["assembly.rows"] == 6 and summary["spectral.eigenvalues"] == 6
    assert summary["spectral.eigensolve.calls"] == 1
