"""The benchmark harness in ``bench/`` still runs against the package.

One cheap document of each workload goes through the benchmark's
operation and output checks with the span tracer installed, so a kernel
change that breaks ``--trace 1`` or the output checks fails here.  Nothing
is timed.
"""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import verify  # noqa: E402
import workloads  # noqa: E402
from operation import Operation  # noqa: E402
from run import MODULES  # noqa: E402
from spans import Tracer  # noqa: E402

# (workload, document name at seed 1): a worked example, a 200-step
# K[C_2] units scan, and a parametric splitting solve
DOCUMENTS = (("catalog", "fc2-block"), ("scan", "fc2-2-3"),
             ("swell", "swell-solve-0"))


def _library() -> types.SimpleNamespace:
    """The already-imported package modules.  ``run.load_library`` would
    purge and re-import them, splitting class identities for other tests."""
    mods = {name: importlib.import_module(f"ambiskew.{name}")
            for name in MODULES}
    return types.SimpleNamespace(modules=list(mods.values()), **mods)


def test_one_document_per_workload_runs_traced_and_checks():
    lib = _library()
    op = Operation(lib)
    tracer = Tracer(lib)
    tracer.install()
    try:
        for workload, name in DOCUMENTS:
            (doc,) = [d for d in workloads.generate(workload, 1)
                      if d.name == name]
            text, spec, values = op.run(doc)
            assert verify.check_document(lib, doc, text, spec, values) == []
            assert verify.count_entries(text)[1] > 0
    finally:
        tracer.uninstall()
    assert tracer.calls("dsl.parse_spec") == len(DOCUMENTS)
    assert tracer.calls("algebras.cyclic_group.is_unit") > 0
    for kind in ("Q", "param", "render"):
        assert tracer.calls(f"scalars.{kind}") > 0
    assert tracer.spans and not tracer.dropped
    scalar = vars(lib.scalars.Scalar)
    assert not hasattr(scalar["__mul__"], "__wrapped__")
    assert not hasattr(vars(lib.algebras.CyclicGroupAlgebra)["is_unit"],
                       "__wrapped__")
