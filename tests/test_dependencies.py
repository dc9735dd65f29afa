"""Import-time dependencies: the package runs on numpy alone, no path
through it loads more of numpy than numpy itself does, its modules import
each other one way, at module level, within a size budget, every name
they export exists, their numerical steps and caps are module constants,
and no call in them names a refused LAPACK entry point."""

import ast
import dataclasses
import graphlib
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import REFUSED_LINALG
from test_cli import ALL_CONFIGS

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
import numpy as np
import diraclab, diraclab.cli
from diraclab import (
    AffineMappingTorus, FlatTorusModel, collapse_run, exterior_module, limit_operator,
)

model = AffineMappingTorus(
    fiber=FlatTorusModel(np.eye(2), np.zeros(2)),
    holonomy=np.array([[0, -1], [1, 0]]),
    base_length=1.0,
    base_shift=0.5,
)
cm = exterior_module(3)
report = collapse_run(model, cm, [1.0, 0.5], 2, 1)
limit_operator(model, cm, 1).matrix
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"verdict": report.verdict, "scipy": scipy}))
"""


def _run(script: str, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_no_scipy_module_is_loaded():
    out = _run(SCRIPT)
    assert out["verdict"] == "converges"
    assert out["scipy"] == []


RANDOM_SCRIPT = """
import json, sys
import numpy
import diraclab
loaded = {"import diraclab": "numpy.random" in sys.modules}
import diraclab.cli
loaded["import diraclab.cli"] = "numpy.random" in sys.modules
codes = {cfg: diraclab.cli.main(["--config", cfg, "--out", cfg + ".out"]) for cfg in sys.argv[1:]}
loaded["cli.main"] = "numpy.random" in sys.modules
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_import_does_not_load_numpy_random(tmp_path):
    # seeded draws come from the standard library's generator, so neither
    # the package, nor the CLI, nor any experiment loads numpy.random
    paths = []
    for name, text in sorted(ALL_CONFIGS.items()):
        paths.append(str(tmp_path / f"{name}.ini"))
        Path(paths[-1]).write_text(text)
    out = _run(RANDOM_SCRIPT, *paths)
    assert out["codes"] == dict.fromkeys(paths, 0)
    assert out["loaded"] == {
        "import diraclab": False,
        "import diraclab.cli": False,
        "cli.main": False,
    }


# the largest module the package keeps, in lines
MODULE_LINES = 500

# the modules in import order: each imports only modules before it
LAYERS = ("spectral", "models", "clifford", "symbols", "mapping", "assembly", "collapse", "cli")


def _package_imports() -> dict[str, set[str]]:
    """Per module of the package, the modules it names in a `from .x import`,
    refusing one that sits inside a function."""
    graph = {}
    for path in sorted((SRC / "diraclab").glob("*.py")):
        graph[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [n for n in ast.walk(node) if isinstance(n, ast.ImportFrom) and n.level]
                assert not inner, f"{path.name}:{inner[0].lineno} imports inside {node.name}"
            elif isinstance(node, ast.ImportFrom) and node.level:
                graph[path.stem].add(node.module)
    return graph


def test_package_imports_run_one_way():
    graph = _package_imports()
    # raises graphlib.CycleError, naming the cycle, if the imports loop
    tuple(graphlib.TopologicalSorter(graph).static_order())
    for i, name in enumerate(LAYERS):
        assert not graph[name] & set(LAYERS[i:]), name


def test_no_module_exceeds_the_line_budget():
    sizes = {p.name: len(p.read_text().splitlines()) for p in (SRC / "diraclab").glob("*.py")}
    assert {name: n for name, n in sizes.items() if n > MODULE_LINES} == {}


def test_exports_resolve_and_the_package_imports_only_exports():
    for path in sorted((SRC / "diraclab").glob("*.py")):
        name = "diraclab" if path.stem == "__init__" else f"diraclab.{path.stem}"
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], name
    for node in ast.parse((SRC / "diraclab" / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level:
            exported = importlib.import_module(f"diraclab.{node.module}").__all__
            assert [a.name for a in node.names if a.name not in exported] == [], node.module


@pytest.mark.parametrize(
    ("module", "function", "parameters"),
    [
        ("collapse", "perturbation_bound_check",
         ("family", "cm", "truncation", "curvature_bound", "bound_constant", "samples", "spin_shift")),
        ("models", "metric_path", ("family", "samples", "t0", "t1")),
        ("assembly", "eigenvalue_derivative", ("family", "cm", "truncation", "t0", "j", "spin_shift", "gram_dot")),
        ("models", "matrix_order", ("m",)),
    ],
)
def test_numerical_steps_and_caps_are_module_constants(module, function, parameters):
    # a finite-difference step, quadrature count, tracked band or order cap
    # is read from its module, not taken from the caller
    func = getattr(importlib.import_module(f"diraclab.{module}"), function)
    assert tuple(inspect.signature(func).parameters) == parameters


@pytest.mark.parametrize(
    ("name", "fields"),
    [("Spectrum", ("values", "cluster_tol")), ("AssembledOperator", ("stacks", "block_info"))],
    ids=["Spectrum", "AssembledOperator"],
)
def test_operators_and_spectra_keep_no_truncation(name, fields):
    # only the plan build reads the truncation; what it builds keeps no copy
    cls = getattr(importlib.import_module("diraclab.spectral"), name)
    assert tuple(f.name for f in dataclasses.fields(cls)) == fields


def test_the_plan_keeps_no_truncation():
    plan = importlib.import_module("diraclab.mapping")._MappingPlan
    assert "truncation" not in {f.name for f in dataclasses.fields(plan)}


def test_spectrum_csv_is_given_the_truncation():
    # the CSV header's truncation comes from the caller, not from the spectrum
    func = importlib.import_module("diraclab.spectral").spectrum_to_csv
    assert tuple(inspect.signature(func).parameters) == ("spec", "path", "truncation")


def _called_name(func: ast.expr) -> str:
    """The last name of a called function: f of f(...), of a.b.f(...)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _operator_norm_order(call: ast.Call) -> bool:
    """Whether a norm call asks for ord 2 or -2 (an SVD), positionally or by keyword."""
    order = call.args[1] if len(call.args) > 1 else None
    order = next((k.value for k in call.keywords if k.arg == "ord"), order)
    try:
        return order is not None and ast.literal_eval(order) in (2, -2)
    except ValueError:
        return False


def _refused_calls(source: str) -> list[tuple[int, str]]:
    """(line, name) of each call in source of a REFUSED_LINALG entry point,
    by any prefix or import, and of each norm(..., 2) or norm(..., -2)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = _called_name(node.func)
        if name in REFUSED_LINALG or (name == "norm" and _operator_norm_order(node)):
            found.append((node.lineno, name))
    return found


@pytest.mark.parametrize(
    ("source", "name"),
    [
        ("np.linalg.svd(stack, compute_uv=False)", "svd"),
        ("from numpy.linalg import svd\nx = svd(a)", "svd"),
        ("la.cond(a)", "cond"),
        ("np.linalg.norm(a, 2)", "norm"),
        ("np.linalg.norm(a, ord=-2)", "norm"),
    ],
)
def test_refused_call_scan_flags_each_form(source, name):
    assert _refused_calls(source) == [(source.count("\n") + 1, name)]


@pytest.mark.parametrize(
    "source",
    ["np.linalg.norm(a)", "np.linalg.norm(a, 'fro')", "np.linalg.norm(a, ord=np.inf)", "np.linalg.eigvalsh(a)"],
)
def test_refused_call_scan_passes_the_allowed_forms(source):
    assert _refused_calls(source) == []


def test_package_calls_only_the_allowed_lapack_drivers():
    # the static side of conftest's lapack_guard, over the whole package
    found = []
    for path in sorted((SRC / "diraclab").glob("*.py")):
        found += [f"{path.name}:{line} {name}" for line, name in _refused_calls(path.read_text())]
    assert found == []
