"""What the benchmark harness under bench/ reads of the package.

The harness wraps named public functions with its span tracer and reads
the size of assembled operators, and it checks each workload's outputs
against bench/reference.json.  These checks only read bench/; a rename in
the package that would break the benchmark, or a change that moves a
frozen observable, fails here first.
"""

import importlib
import json
import runpy
from pathlib import Path

import numpy as np
import pytest

from diraclab.assembly import assemble_dirac
from diraclab.clifford import spinor_gammas
from diraclab.models import AffineMappingTorus, FlatTorusModel

BENCH = Path(__file__).resolve().parent.parent / "bench"
# run_path compiles a file without writing bytecode next to it
SPANS = runpy.run_path(str(BENCH / "spans.py"))
TRACED = SPANS["TRACED"]
WORKLOADS = runpy.run_path(str(BENCH / "workloads.py"))
REFERENCE = json.loads((BENCH / "reference.json").read_text())


@pytest.mark.parametrize("layer,func", TRACED, ids=[".".join(t) for t in TRACED])
def test_traced_functions_resolve(layer, func):
    assert layer in SPANS["MODULES"]
    assert callable(getattr(importlib.import_module(f"diraclab.{layer}"), func))


def test_collapse_binds_the_traced_eigensolve():
    # the tracer wraps eigensolve in every module namespace that binds it,
    # and the collapse solves reach the block path through collapse's own
    # binding, which must be spectral's function
    import diraclab.collapse
    import diraclab.spectral

    assert diraclab.collapse.eigensolve is diraclab.spectral.eigensolve


@pytest.mark.parametrize(
    "model,cm",
    [
        (FlatTorusModel(np.eye(2), np.array([0.5, 0.0])), spinor_gammas(2)),
        (
            AffineMappingTorus(
                fiber=FlatTorusModel(np.eye(2), np.zeros(2)),
                holonomy=np.array([[0, -1], [1, 0]]),
                base_length=1.0,
                base_shift=0.5,
            ),
            spinor_gammas(3),
        ),
    ],
    ids=["flat", "rot4_spinor"],
)
def test_assembly_counts_read_operator_size(model, cm):
    op = assemble_dirac(model, cm, 2)
    counts = SPANS["_assembly_counts"](op)
    assert counts["assembly.rows"] == op.dim == sum(b.shape[0] for b in op.blocks)
    assert counts["assembly.blocks"] == len(op.block_slices) == len(op.blocks)
    assert counts["assembly.max_block_rows"] == max(b.shape[0] for b in op.blocks)


@pytest.mark.parametrize("size", ["smoke", "full"])
@pytest.mark.parametrize("name", sorted(REFERENCE["full"]))
def test_workload_outputs_match_reference(tmp_path, name, size):
    # the check bench/worker.py makes after a timed run, in-process: every
    # frozen observable of the workload, compared as workloads.compare does
    state = WORKLOADS["setup"](name, 1, size, tmp_path)
    observed = WORKLOADS["observe"](state, WORKLOADS["run"](state))
    failed = [
        key
        for key, want in REFERENCE[size][name].items()
        if key not in observed or not WORKLOADS["compare"](observed[key], want)
    ]
    assert failed == []
