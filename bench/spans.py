"""In-memory span tracer installed around diraclab's public functions.

The tracer wraps each traced function in every diraclab module namespace
that binds it, so calls between modules (``collapse.collapse_run`` calling
``assembly.assemble_dirac``) and calls inside one module
(``models.metric_path`` calling a traced sibling) are both seen.  A call
stack gives every span its parent; a span's self time is its duration minus
the time covered by its direct children.  Spans stay in memory until the
caller asks for them.

Finer splits inside ``assemble_dirac`` (orbit enumeration, lift
resolution, block construction, validation) are private functions of the
program.  They are not wrapped here: they wait for spans recorded by the
program itself.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = ("models", "clifford", "assembly", "spectral", "collapse", "blockres", "cli")

# (layer, function) pairs wrapped by the tracer; every span name is
# "<layer>.<function>".
TRACED = (
    ("assembly", "assemble_dirac"),
    ("assembly", "limit_operator"),
    ("assembly", "bochner_rhs"),
    ("assembly", "fiber_invariant_split"),
    ("assembly", "frame_bundle_operator"),
    ("spectral", "eigensolve"),
    ("spectral", "window_intersect"),
    ("spectral", "epsilon_close"),
    ("spectral", "spectrum_to_csv"),
    ("clifford", "lift_rotation"),
    ("clifford", "fixed_subspace"),
    ("models", "geometric_data"),
    ("models", "metric_path"),
    ("collapse", "collapse_run"),
    ("collapse", "window_agreement"),
    ("collapse", "blowup_check"),
    ("collapse", "perturbation_bound_check"),
    ("blockres", "schur_inverse"),
    ("blockres", "neumann_factorization_check"),
    ("blockres", "neumann_inverse"),
)


def _assembly_counts(op) -> dict[str, float]:
    sizes = [sl.stop - sl.start for sl in op.block_slices]
    return {
        "assembly.rows": op.dim,
        "assembly.blocks": len(sizes),
        "assembly.max_block_rows": max(sizes, default=0),
    }


def _spectrum_counts(spec) -> dict[str, float]:
    return {"spectral.eigenvalues": len(spec)}


# Counters read off a traced function's return value.
COUNTERS = {
    "assembly.assemble_dirac": _assembly_counts,
    "spectral.eigensolve": _spectrum_counts,
}
MAX_COUNTERS = {"assembly.max_block_rows"}


class Tracer:
    """Records one span per traced call; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []  # [span index, child seconds]
        self._installed: list[tuple[object, str, object]] = []

    def _count(self, values: dict[str, float]) -> None:
        for key, value in values.items():
            if key in MAX_COUNTERS:
                self.counts[key] = max(self.counts.get(key, 0), value)
            else:
                self.counts[key] = self.counts.get(key, 0) + value

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        record = {"name": name, "parent": parent, "start": time.perf_counter()}
        self.spans.append(record)
        self._stack.append([index, 0.0])
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            end = time.perf_counter()
            _, child = self._stack.pop()
            duration = end - record["start"]
            record.update(end=end, self_s=duration - child, ok=ok)
            if self._stack:
                self._stack[-1][1] += duration
        counter = COUNTERS.get(name)
        if counter is not None:
            self._count(counter(result))
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Replace every traced function in every diraclab namespace."""
        package = importlib.import_module("diraclab")
        namespaces = [package] + [importlib.import_module(f"diraclab.{m}") for m in MODULES]
        for layer, func in TRACED:
            original = getattr(importlib.import_module(f"diraclab.{layer}"), func)
            wrapper = self._wrap(f"{layer}.{func}", original)
            for ns in namespaces:
                if getattr(ns, func, None) is original:
                    self._installed.append((ns, func, original))
                    setattr(ns, func, wrapper)

    def uninstall(self) -> None:
        for ns, func, original in reversed(self._installed):
            setattr(ns, func, original)
        self._installed.clear()

    def summary(self) -> dict[str, float]:
        """Total seconds, self seconds and call count per span name, plus
        the counters."""
        out: dict[str, float] = dict(self.counts)
        for record in self.spans:
            name = record["name"]
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + record["end"] - record["start"]
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + record["self_s"]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        return out
