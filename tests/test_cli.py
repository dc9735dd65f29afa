"""End-to-end CLI runs: exit codes, report structure, reproducibility."""

import json
import re
from pathlib import Path

import pytest

from diraclab.cli import main

CIRCLE = "6.283185307179586"

TORUS_CFG = f"""
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
"""

WINDOW_CFG = f"""
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
"""

COLLAPSE_CFG = f"""
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
"""

BLOWUP_CFG = f"""
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
"""

PERT_CFG = """
[experiment]
name = perturbation

[numeric]
dim = 2
trials = 2
truncation = 3
samples = 5

[output]
prefix = pert
"""

FRAME_CFG = """
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
"""

BLOCK_CFG = """
[experiment]
name = block_identities

[numeric]
trials = 3
block_p = 5
block_q = 4

[output]
prefix = blk
"""

ALL_CONFIGS = {
    "torus_spectrum": TORUS_CFG,
    "window_test": WINDOW_CFG,
    "collapse": COLLAPSE_CFG,
    "blowup": BLOWUP_CFG,
    "perturbation": PERT_CFG,
    "frame_bundle": FRAME_CFG,
    "block_identities": BLOCK_CFG,
}


def _run(tmp_path: Path, text: str, sub: str = "out", extra=()):
    cfg = tmp_path / f"{sub}.ini"
    cfg.write_text(text)
    out = tmp_path / sub
    code = main(["--config", str(cfg), "--out", str(out), *extra])
    return code, out


@pytest.mark.parametrize("name", sorted(ALL_CONFIGS))
def test_experiment_passes(tmp_path, name):
    code, out = _run(tmp_path, ALL_CONFIGS[name], sub=name)
    assert code == 0
    reports = list(out.glob("*_report.json"))
    assert len(reports) == 1
    data = json.loads(reports[0].read_text())
    assert data["experiment"] == name
    assert data["passed"] is True
    assert "results" in data and "parameters" in data and "seed" in data


def test_torus_spectrum_artifacts(tmp_path):
    code, out = _run(tmp_path, TORUS_CFG)
    assert code == 0
    csv = (out / "circ_spectrum.csv").read_text()
    assert csv.startswith("#")
    matrix = (out / "circ_matrix.txt").read_text()
    assert matrix.startswith("# rows=")


def test_window_counts_double(tmp_path):
    code, out = _run(tmp_path, WINDOW_CFG)
    assert code == 0
    data = json.loads((out / "win_report.json").read_text())
    assert data["results"]["matched_counts"] == [4, 8, 16, 32]
    assert data["results"]["all_matched"] is True
    assert max(data["results"]["max_deviations"]) <= 1e-9


def test_collapse_json_artifact(tmp_path):
    code, out = _run(tmp_path, COLLAPSE_CFG)
    assert code == 0
    data = json.loads((out / "col_collapse.json").read_text())
    assert sorted(data.keys()) == [
        "epsilons",
        "limit_spectrum",
        "spectra_per_eps",
        "tracked_eigenvalues",
        "verdict",
        "window_bounds",
    ]
    tracked = (out / "col_tracked.csv").read_text().strip().splitlines()
    assert tracked[0].startswith("#")
    assert len(tracked) == 1 + 3


def test_blowup_failure_exit_code(tmp_path):
    failing = BLOWUP_CFG + "\n"
    failing = failing.replace("epsilons = 1.0,0.5,0.25", "epsilons = 1.0,0.5,0.25\nrate_floor = 10.0")
    code, out = _run(tmp_path, failing)
    assert code == 3
    data = json.loads((out / "blow_report.json").read_text())
    assert data["passed"] is False


def test_config_errors_exit_two(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "missing.ini"), "--out", str(tmp_path)])
    assert code == 2

    bad_name = "[experiment]\nname = not_a_thing\n"
    code, _ = _run(tmp_path, bad_name, sub="badname")
    assert code == 2

    # blowup on a convergent model is a usage error, not a failed assertion
    wrong_regime = BLOWUP_CFG.replace("fiber_shift = 0.5", "fiber_shift = 0.0")
    code, _ = _run(tmp_path, wrong_regime, sub="wrongregime")
    assert code == 2

    no_eps = WINDOW_CFG.replace("epsilons = 1.0,0.5,0.25,0.125\n", "")
    code, _ = _run(tmp_path, no_eps, sub="noeps")
    assert code == 2
    capsys.readouterr()

    # a file configparser cannot parse, and a seed that is no integer, are
    # config errors too: exit 2 with a message, not a traceback
    for sub, text in [
        ("noheader", "name = collapse\n" + COLLAPSE_CFG),
        ("duplicate", COLLAPSE_CFG + "[experiment]\nname = collapse\n"),
        ("badseed", COLLAPSE_CFG.replace("[numeric]", "[numeric]\nseed = abc")),
    ]:
        code, _ = _run(tmp_path, text, sub=sub)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "config, old, new, message",
    [
        # nan <= 0 is False: these used to pass quietly, or fail late with
        # another message, or exit 3
        (WINDOW_CFG, f"base_length = {CIRCLE}", "base_length = nan", "base length must be finite, got nan"),
        (COLLAPSE_CFG, f"base_length = {CIRCLE}", "base_length = nan", "base length must be finite, got nan"),
        (COLLAPSE_CFG, f"base_length = {CIRCLE}", "base_length = inf", "base length must be finite, got inf"),
        (WINDOW_CFG, "epsilons = 1.0,0.5,0.25,0.125", "epsilons = 1.0,nan",
         r"epsilons must be finite, got \[1\.0, nan\]"),
        (COLLAPSE_CFG, "epsilons = 1.0,0.5", "epsilons = inf,1.0",
         r"epsilons must be finite, got \[inf, 1\.0\]"),
        (BLOWUP_CFG, "epsilons = 1.0,0.5,0.25", "epsilons = 1.0,nan",
         r"epsilons must be finite, got \[1\.0, nan\]"),
        (TORUS_CFG, f"lattice = {CIRCLE}", "lattice = nan", "lattice basis must be finite"),
        (TORUS_CFG, f"lattice = {CIRCLE}", "lattice = inf", "lattice basis must be finite"),
        (FRAME_CFG, "lattice = 1,0;0,1.5", "lattice = 1,0;0,inf", "lattice basis must be finite"),
        (COLLAPSE_CFG, f"fiber_lattice = {CIRCLE}", "fiber_lattice = nan", "lattice basis must be finite"),
        (COLLAPSE_CFG, "base_shift = 0.5", "base_shift = 0.5\nconnection = nan", "connection form must be finite"),
        # non-finite [numeric] thresholds used to exit 3, a failed assertion
        (WINDOW_CFG, "[numeric]", "[numeric]\ntolerance = nan", r"\[numeric\] tolerance must be finite, got nan"),
        # a non-finite shift used to reach LAPACK: "SVD did not converge"
        (BLOCK_CFG, "trials = 3", "trials = 3\nimag_shifts = 0.0,nan,inf",
         r"\[numeric\] imag_shifts must be finite, got \[0\.0, nan, inf\]"),
        (TORUS_CFG, "[numeric]", "[numeric]\ntolerance = nan", r"\[numeric\] tolerance must be finite, got nan"),
        (BLOWUP_CFG, "[numeric]", "[numeric]\nrate_floor = nan", r"\[numeric\] rate_floor must be finite, got nan"),
        (PERT_CFG, "[numeric]", "[numeric]\nbound_constant = nan",
         r"\[numeric\] bound_constant must be finite, got nan"),
        (WINDOW_CFG, "[numeric]", "[numeric]\nwindow_a = inf", r"\[numeric\] window_a must be finite, got inf"),
    ],
)
def test_non_finite_inputs_exit_two(tmp_path, capsys, config, old, new, message):
    _assert_refused(tmp_path, capsys, config, old, new, message)


def _assert_refused(tmp_path, capsys, config, old, new, message):
    """The config with old replaced by new exits 2 with exactly message
    and writes no report."""
    assert old in config
    code, out = _run(tmp_path, config.replace(old, new))
    assert code == 2
    assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
    assert not list(out.glob("*_report.json"))


@pytest.mark.parametrize(
    "config, old, new, message",
    [
        # a negative tolerance or bound constant is a configuration error in
        # every experiment; torus_spectrum and perturbation used to exit 3
        (TORUS_CFG, "[numeric]", "[numeric]\ntolerance = -1", r"\[numeric\] tolerance must be nonnegative, got -1\.0"),
        (WINDOW_CFG, "[numeric]", "[numeric]\ntolerance = -1", r"\[numeric\] tolerance must be nonnegative, got -1\.0"),
        (COLLAPSE_CFG, "[numeric]", "[numeric]\ntolerance = -1", r"\[numeric\] tolerance must be nonnegative, got -1\.0"),
        (FRAME_CFG, "[numeric]", "[numeric]\ntolerance = -1e-3",
         r"\[numeric\] tolerance must be nonnegative, got -0\.001"),
        (PERT_CFG, "[numeric]", "[numeric]\nbound_constant = -1",
         r"\[numeric\] bound_constant must be nonnegative, got -1\.0"),
        # settings under which a pass checks nothing: they used to exit 0
        # (or 2 with numpy's zero-size reduction error for perturbation)
        (BLOCK_CFG, "trials = 3", "trials = 0", r"\[numeric\] trials must be at least 1, got 0"),
        (PERT_CFG, "trials = 2", "trials = 0", r"\[numeric\] trials must be at least 1, got 0"),
        (BLOWUP_CFG, "[numeric]", "[numeric]\nrate_floor = 0", r"\[numeric\] rate_floor must be positive, got 0\.0"),
        (BLOWUP_CFG, "[numeric]", "[numeric]\nrate_floor = -1", r"\[numeric\] rate_floor must be positive, got -1\.0"),
    ],
    ids=[
        "torus_tolerance", "window_tolerance", "collapse_tolerance", "frame_tolerance",
        "perturbation_bound", "block_trials", "perturbation_trials", "blowup_floor_0",
        "blowup_floor_negative",
    ],
)
def test_vacuous_or_negative_thresholds_exit_two(tmp_path, capsys, monkeypatch, config, old, new, message):
    import diraclab.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("work done before the refusal")

    # the refusal comes before any model, module or random draw is made
    for name in ("_build_mapping", "_build_module", "spinor_gammas"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(cli, "_Normals", no_work)
    _assert_refused(tmp_path, capsys, config, old, new, message)


@pytest.mark.parametrize("name", sorted(ALL_CONFIGS))
def test_byte_reproducible(tmp_path, name):
    _, out_a = _run(tmp_path, ALL_CONFIGS[name], sub=f"{name}_a")
    _, out_b = _run(tmp_path, ALL_CONFIGS[name], sub=f"{name}_b")
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b and files_a
    for fname in files_a:
        assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes(), fname


def test_seed_override_lands_in_report(tmp_path):
    code, out = _run(tmp_path, BLOCK_CFG, extra=["--seed", "123"])
    assert code == 0
    data = json.loads((out / "blk_report.json").read_text())
    assert data["seed"] == 123


@pytest.mark.parametrize("name", ["perturbation", "block_identities"])
def test_negative_seed_exits_two(tmp_path, capsys, monkeypatch, name):
    import diraclab.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("work done before the refusal")

    # random.Random would draw from abs(seed); the seed is refused first
    for fn in ("_build_module", "spinor_gammas", "_eigen_exponential_family", "BlockMatrix2x2"):
        monkeypatch.setattr(cli, fn, no_work)
    code, out = _run(tmp_path, ALL_CONFIGS[name], extra=["--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
    assert not list(out.glob("*_report.json"))
