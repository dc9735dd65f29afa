"""End-to-end CLI runs: exit codes, report structure, reproducibility."""

import ast
import configparser
import json
import re
from pathlib import Path

import numpy as np
import pytest

from diraclab import assemble_dirac, eigensolve, frame_bundle_operator
from diraclab.cli import _build_flat, _build_module, main

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


# values put in place of one key at a time: junk, boundary values and
# magnitudes whose squares or inverses overflow or underflow
MUTATION_TOKENS = (
    "", "abc", "nan", "-1", "0", "0.5", "1,0", "inf", "-inf", "1e-300", "1e-160", "1e300", "2",
    "0.0,0.0", "1;2",
)


def _matrix(text):
    return np.array([[float(x) for x in row.split(",")] for row in text.split(";")])


def _numbers(text):
    return [float(x) for x in text.split(",")]


# how the configs' typed [model] and [numeric] keys are read: a token that
# fails to parse so is refused by name, "[section] key = 'token' is not a
# valid <kind>"
KEY_PARSERS = {
    **dict.fromkeys(["lattice", "fiber_lattice", "holonomy"], _matrix),
    **dict.fromkeys(["spin_shift", "fiber_shift", "epsilons"], _numbers),
    **dict.fromkeys(["base_length", "base_shift"], float),
    **dict.fromkeys(
        ["truncation", "k_max", "dim", "trials", "samples", "group_truncation", "block_p", "block_q"], int
    ),
}


# the mutations whose token its key's reader cannot parse
UNPARSED = 238
# the keys that are read as text and never fail to parse
TEXT_KEYS = {"type", "module", "lift"}


def _parses(parse, token):
    try:
        parse(token)
    except ValueError:
        return False
    return True


def _mutations():
    """(label, config text) of every single-key mutation of every config:
    each key outside [experiment] and [output] takes each token in turn."""
    for name, text in sorted(ALL_CONFIGS.items()):
        lines = text.splitlines()
        section = None
        for i, line in enumerate(lines):
            if line.startswith("["):
                section = line
            elif " = " in line and section not in ("[experiment]", "[output]"):
                key = line.split(" = ")[0]
                for token in MUTATION_TOKENS:
                    mutated = lines[:i] + [f"{key} = {token}"] + lines[i + 1 :]
                    yield f"{name} {section} {key} = {token!r}", "\n".join(mutated) + "\n"


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


def test_spectrum_csv_headers_name_the_config_truncation(tmp_path):
    # each spectrum CSV's first line names its config's [numeric] truncation
    # and the tolerance of the spectrum it holds, rebuilt here by the API
    cases = {
        TORUS_CFG: lambda model, cm, t, cfg: {
            "circ_spectrum.csv": eigensolve(assemble_dirac(model, cm, t)),
        },
        FRAME_CFG: lambda model, cm, t, cfg: dict(zip(
            ("frame_dirac_squared.csv", "frame_laplacian_route.csv"),
            frame_bundle_operator(model, cm, t, cfg.getint("numeric", "group_truncation")),
        )),
    }
    for i, (text, spectra) in enumerate(cases.items()):
        cfg = configparser.ConfigParser()
        cfg.read_string(text)
        truncation = cfg.getint("numeric", "truncation")
        model = _build_flat(cfg)
        code, out = _run(tmp_path, text, sub=f"run{i}")
        assert code == 0
        for name, spec in spectra(model, _build_module(cfg, model.n), truncation, cfg).items():
            header = (out / name).read_text().splitlines()[0]
            assert header == f"# truncation={truncation} cluster_tol={spec.cluster_tol!r}"


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

    # an --out that names an existing file, or a path below one, cannot be
    # the output directory: exit 2 with a message, not a traceback
    cfg = tmp_path / "outfile.ini"
    cfg.write_text(COLLAPSE_CFG)
    for out in (cfg, cfg / "below"):
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_config_too_large_for_memory_exits_two(tmp_path, capsys, monkeypatch):
    # the square torus at truncation 100000 asks numpy for hundreds of GiB;
    # the allocation's MemoryError is stood in for, so nothing is allocated
    import diraclab.cli as cli

    text = TORUS_CFG.replace(f"lattice = {CIRCLE}", "lattice = 1,0;0,1")
    text = text.replace("spin_shift = 0.5", "spin_shift = 0.5,0.5")
    text = text.replace("truncation = 8", "truncation = 100000")
    # numpy's error names the allocation; a bare MemoryError is named by type
    for error, message in [
        (MemoryError("Unable to allocate 596. GiB for an array"), "Unable to allocate 596. GiB for an array"),
        (MemoryError(), "MemoryError"),
    ]:
        def too_large(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "assemble_dirac", too_large)
        code, out = _run(tmp_path, text)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(out.glob("*_report.json"))


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
        # scales whose momenta or window diameter overflow when squared: the
        # first was refused as a singular lattice, the second raised
        # OverflowError or gave a window of 0
        (COLLAPSE_CFG, "epsilons = 1.0,0.5", "epsilons = 1.0,1e-200",
         r"fiber scale 1e-200 is out of range: a fiber momentum overflows when squared"),
        (WINDOW_CFG, "epsilons = 1.0,0.5,0.25,0.125", "epsilons = 1e200,1.0",
         r"fiber scale 1e\+200 is out of range: the fiber diameter overflows when squared"),
    ],
)
def test_non_finite_inputs_exit_two(tmp_path, capsys, config, old, new, message):
    _assert_refused(tmp_path, capsys, config, old, new, message)


@pytest.mark.parametrize(
    "config, old, new, message",
    [
        (TORUS_CFG, f"lattice = {CIRCLE}", "lattice = 1e-160",
         "torus lattice is out of range: a momentum overflows when squared"),
        (WINDOW_CFG, f"fiber_lattice = {CIRCLE}", "fiber_lattice = 1e300",
         "fiber lattice is out of range: its Gram matrix overflows"),
        (WINDOW_CFG, f"fiber_lattice = {CIRCLE}", "fiber_lattice = 1e-300",
         r"fiber scale 1\.0 is out of range: a fiber momentum overflows when squared"),
        (WINDOW_CFG, "holonomy = 1", "holonomy = inf", "holonomy must be an integer matrix"),
        (BLOWUP_CFG, f"base_length = {CIRCLE}", "base_length = 1e-300",
         "base length 1e-300 is out of range: a base momentum overflows when squared"),
        (COLLAPSE_CFG, f"base_length = {CIRCLE}", "base_length = 1e300", None),
    ],
    ids=[
        "torus_lattice_1e-160", "window_fiber_1e300", "window_fiber_1e-300", "window_holonomy_inf",
        "blowup_base_1e-300", "collapse_base_1e300",
    ],
)
def test_out_of_range_magnitudes_exit_two_by_name(tmp_path, capsys, config, old, new, message):
    # each of these escaped as a RuntimeWarning (an overflow, a 0/0 or an
    # invalid cast), which this suite turns into an error
    if message is not None:
        _assert_refused(tmp_path, capsys, config, old, new, message)
        return
    # base momenta near 1e-299 square to 0, so the limit's blocks are zero
    # blocks; the run completes, and fails its window check because the
    # fiber modes k = +-1 now sit on the window's edge, outside the limit
    code, out = _run(tmp_path, config.replace(old, new))
    assert code == 3
    assert json.loads((out / "col_collapse.json").read_text())["limit_spectrum"] == [0.0] * 42


@pytest.mark.parametrize("name", ["window_test", "collapse"])
def test_window_that_compares_nothing_fails(tmp_path, name):
    # with L = 0.01 every base momentum lies beyond the windows, which used
    # to pass with no eigenvalue compared at any scale
    code, out = _run(tmp_path, ALL_CONFIGS[name].replace(f"base_length = {CIRCLE}", "base_length = 0.01"))
    assert code == 3
    data = json.loads(next(out.glob("*_report.json")).read_text())
    assert data["passed"] is False
    if name == "window_test":
        assert data["results"]["matched_counts"] == [0, 0, 0, 0]
        assert data["results"]["all_matched"] is False


@pytest.mark.parametrize(
    "config, old, new, message",
    [
        (WINDOW_CFG, "type = mapping_torus", "type = abc",
         r"\[model\] type must be mapping_torus for this experiment, got 'abc'"),
        (TORUS_CFG, "type = flat_torus", "type = mapping_torus",
         r"\[model\] type must be flat_torus for this experiment, got 'mapping_torus'"),
    ],
    ids=["window_abc", "torus_mapping"],
)
def test_model_type_must_name_the_experiments_model(tmp_path, capsys, config, old, new, message):
    _assert_refused(tmp_path, capsys, config, old, new, message)
    # an absent key builds the experiment's model, as before
    assert _run(tmp_path, config.replace(old + "\n", ""), sub="untyped")[0] == 0


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
        # blocks of no rows: they used to exit 2 with numpy's reshape error
        # or the block matrix's own
        (BLOCK_CFG, "block_p = 5", "block_p = -1", r"\[numeric\] block_p must be at least 1, got -1"),
        (BLOCK_CFG, "block_q = 4", "block_q = 0", r"\[numeric\] block_q must be at least 1, got 0"),
        (BLOWUP_CFG, "[numeric]", "[numeric]\nrate_floor = 0", r"\[numeric\] rate_floor must be positive, got 0\.0"),
        (BLOWUP_CFG, "[numeric]", "[numeric]\nrate_floor = -1", r"\[numeric\] rate_floor must be positive, got -1\.0"),
    ],
    ids=[
        "torus_tolerance", "window_tolerance", "collapse_tolerance", "frame_tolerance",
        "perturbation_bound", "block_trials", "perturbation_trials", "block_p", "block_q", "blowup_floor_0",
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


def test_experiments_call_complex_eigh_lu_and_cholesky_alone(tmp_path, lapack_guard):
    # the seven experiments run with no SVD, QR or general eigensolver, no
    # norm(x, 2), and eigh/eigvalsh only on complex input
    for name, text in sorted(ALL_CONFIGS.items()):
        assert _run(tmp_path, text, sub=name)[0] == 0, name
    assert lapack_guard
    assert all(np.issubdtype(dtype, np.complexfloating) for dtype in lapack_guard)


@pytest.mark.parametrize("name", sorted(ALL_CONFIGS))
def test_byte_reproducible(tmp_path, name):
    _, out_a = _run(tmp_path, ALL_CONFIGS[name], sub=f"{name}_a")
    _, out_b = _run(tmp_path, ALL_CONFIGS[name], sub=f"{name}_b")
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b and files_a
    for fname in files_a:
        assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes(), fname


def test_perturbation_runs_on_the_module_its_config_names(tmp_path, monkeypatch):
    import diraclab.cli as cli

    dims = []
    check = cli.perturbation_bound_check

    def recording(family, cm, *args, **kwargs):
        dims.append(cm.dim_v)
        return check(family, cm, *args, **kwargs)

    monkeypatch.setattr(cli, "perturbation_bound_check", recording)
    # [model] module = exterior takes the exterior module of rank 2 (dim_v 4);
    # a config without [model] keeps the spinor one (dim_v 2)
    exterior = PERT_CFG.replace("[output]", "[model]\nmodule = exterior\n\n[output]")
    assert _run(tmp_path, exterior, sub="exterior")[0] == 0
    assert _run(tmp_path, PERT_CFG, sub="spinor")[0] == 0
    assert dims == [4, 4, 2, 2]


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


def test_every_single_key_mutation_exits_by_the_contract(tmp_path, capsys):
    # in-process, under this suite's error::RuntimeWarning: no exception
    # escapes main; exit 2 prints exactly one error line and no report, and
    # exit 0 or 3 writes the report.  A token that the key's reader cannot
    # parse exits 2 naming the key.  Every token is small, so no mutation
    # asks for a large allocation
    codes, unparsed, keys = [], 0, set()
    for i, (label, text) in enumerate(_mutations()):
        try:
            code, out = _run(tmp_path, text, sub=f"m{i}")
        except Exception as err:  # anything escaping main, warnings turned errors included
            pytest.fail(f"{label}: {type(err).__name__}: {err}")
        err = capsys.readouterr().err
        assert code in (0, 2, 3), label
        reports = list(out.glob("*_report.json"))
        if code == 2:
            assert err.startswith("error: ") and len(err.splitlines()) == 1, label
            assert not reports, label
        else:
            assert len(reports) == 1, label
        section, key, token = re.fullmatch(r"\S+ (\[\w+\]) (\w+) = (.*)", label).groups()
        token = ast.literal_eval(token)
        keys.add(key)
        if key in KEY_PARSERS and not _parses(KEY_PARSERS[key], token):
            assert code == 2 and err.startswith(f"error: {section} {key} = {token!r} is not a valid "), (label, err)
            unparsed += 1
        codes.append(code)
    # the seven configs have 49 keys outside [experiment] and [output]
    assert len(codes) == len(MUTATION_TOKENS) * 49
    assert unparsed == UNPARSED and keys == set(KEY_PARSERS) | TEXT_KEYS
    # output paths the file system refuses, in every config: a prefix below
    # a missing directory, a prefix longer than a file name may be, and an
    # --out whose last name is too long
    cases = [
        (f"{name} prefix = {token[:3]!r}", re.sub(r"(?m)^prefix = .*$", f"prefix = {token}", text), ())
        for name, text in sorted(ALL_CONFIGS.items())
        for token in ("a/b", "y" * 300)
    ]
    cases.append(("--out 'xxx'", COLLAPSE_CFG, ("--out", str(tmp_path / ("x" * 300)))))
    for i, (label, text, extra) in enumerate(cases):
        try:
            code, out = _run(tmp_path, text, sub=f"p{i}", extra=extra)
        except Exception as err:
            pytest.fail(f"{label}: {type(err).__name__}: {err}")
        err = capsys.readouterr().err
        assert code == 2, label
        assert err.startswith("error: ") and len(err.splitlines()) == 1, label
        assert not list(out.rglob("*_report.json")), label
