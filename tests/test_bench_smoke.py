"""The benchmark harness in ``bench/`` still runs against the package.

One cheap document of each workload goes through the benchmark's
operation and output checks with the span tracer installed, so a kernel
change that breaks ``--trace 1`` or the output checks fails here.  Nothing
is timed.
"""

from __future__ import annotations

import importlib
import json
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

# (workload, document name at seed 1): a worked example, the K[C_2] units
# pencil with the factor rho^2 = 4, the parametric splitting solves of a
# shift with rho = 1 and with rho = 2, and over Q(q, r) with rho = r, whose
# carried denominator is a power of 1 - r, the quadratic and K[C_2] unit
# pencils, the dispersion of a GWA over a shift, the radical pencil of a
# localization, the period-1 route of an eigenvector v, the replayed zero
# v^(5) over F_5 and holding with the factor q, and the parametric powers
# of K[C_4] over Q(zeta_4)(mu), whose units condition reads no inverse, and
# of the quantized Weyl algebra, the localization of a quadratic ring
# under conjugation, whose special-element search takes the powers of s,
# and GWA comaximality read from the resultant in the action at a residue
# mod 5, at m = 1 about a fixed point, and under a parametric scaling, a
# quantum torus whose table a dotted file name names, and a K[C_2] period
# L = 2 over F_13 whose ratio 10 has order 6, two towers whose iterated
# check fails at level_1 and at level_2 (there at a zero v^(3)), replayed
# level by level, the K[t] radical of a localization under a shift, and GWA
# comaximality over K[C_4], read character by character, and two swell
# powers re-parsed from their text: one over Q(q, r), whose render sorts
# two-parameter monomials in graded-lex order, and one in a GWA over
# K[t^+-1], and the closed-form height-1 witness over F_5[t^+-1], whose
# u is not zero.  Their least failing m come from the pencils, the
# vanishing multiples, the radical test at m = 1, the resultant and the
# walk.
DOCUMENTS = (("catalog", "fc2-block"), ("scan", "fc2-2-3"),
             ("swell", "swell-solve-0"), ("swell", "swell-solve-4"),
             ("swell", "swell-solve-5"),
             ("catalog", "quad-1-1-1"),
             ("catalog", "fc2-1-0"), ("scan", "gwa-shift-1"),
             ("scan", "localized-2-0"), ("catalog", "weyl-f5"),
             ("catalog", "quantized-weyl"), ("swell", "swell-fc4-mixed-18"),
             ("swell", "swell-quantized-weyl-15"), ("catalog", "quad-localized"),
             ("catalog", "gwa-weyl-f5"), ("catalog", "gwa-scaled-ideal"),
             ("swell", "swell-gwa-scan-0"), ("catalog", "torus-primes"),
             ("scan", "charp-13-2-2"), ("catalog", "tower-a-three-halves"),
             ("catalog", "tower-cyclic-conformal"), ("catalog", "smith-shift"),
             ("catalog", "gwa-cyclic-periodic"),
             ("swell", "swell-laurent-scale-17"), ("swell", "swell-gwa-laurent-19"),
             ("catalog", "laurent-f5-nonmonomial"))


def _kinds(verdict: dict):
    """Every certificate kind in a verdict and its conditions."""
    for entry in verify.entries_of(verdict):
        if entry.get("certificate"):
            yield entry["certificate"].get("kind")


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
            kinds = {k for e in json.loads(text) if "verdict" in e
                     for k in _kinds(e["verdict"])}
            assert "bounded_scan" not in kinds, name
    finally:
        tracer.uninstall()
    assert tracer.calls("dsl.parse_spec") == len(DOCUMENTS)
    assert tracer.calls("algebras.cyclic_group.is_unit") > 0
    for fam in ("quadratic", "cyclic_group"):
        assert tracer.calls(f"algebras.{fam}.first_nonunit_in_pencil") > 0
    for kind in ("Q", "param", "render"):
        assert tracer.calls(f"scalars.{kind}") > 0
    assert tracer.spans and not tracer.dropped
    scalar = vars(lib.scalars.Scalar)
    assert not hasattr(scalar["__mul__"], "__wrapped__")
    assert not hasattr(vars(lib.algebras.CyclicGroupAlgebra)["is_unit"],
                       "__wrapped__")


def _level_ring(lib, ring, name: str):
    """The ring whose own conditions a ``level_k`` entry reports."""
    chain = [ring]
    while isinstance(chain[0].base, lib.rings.AmbiskewRing):
        chain.insert(0, chain[0].base)
    return chain[int(name[len("level_"):]) - 1]


def _least_failing_m(entry: dict, path=()):
    """(condition path, certificate) of every nonunit_v_m and
    comaximal_witness in a verdict and its conditions."""
    cert = entry.get("certificate") or {}
    if cert.get("kind") in ("nonunit_v_m", "comaximal_witness"):
        yield path, cert
    for cond in entry.get("conditions", ()):
        yield from _least_failing_m(cond, path + (cond["name"],))


def test_every_least_failing_m_replays():
    """Each certified m re-parses to v^(m) and its unit test, in A, in
    A[1/u] or in A/uA, does not hold."""
    lib = _library()
    dsl, op, seen = lib.dsl, Operation(lib), set()
    for workload, name in DOCUMENTS:
        (doc,) = [d for d in workloads.generate(workload, 1)
                  if d.name == name]
        text, spec, _ = op.run(doc)
        checks = [e for e in json.loads(text) if "check" in e]
        for entry, check in zip(checks, spec.checks):
            for path, cert in _least_failing_m(entry["verdict"]):
                ring, m = spec.rings[check.target], cert["m"]
                if path[0].startswith("level_"):
                    ring = _level_ring(lib, ring, path[0])
                base, condition = ring.base, path[-1]
                seen.add(condition)
                if condition == "comaximal":
                    image = base.apply(base.auto_power(ring.alpha, m), ring.u)
                    answer = base.comaximal(ring.u, image)
                else:
                    value = dsl.eval_element(
                        dsl.parse_expression(cert["value"]), base)
                    assert base.eq(value, ring.v_m(m)), (name, path)
                    answer = (base.is_unit(value) if condition == "units" else
                              base.radical_contains(value,
                                                    ring.conformality().u))
                assert answer.status is not lib.verdict.Status.HOLDS, (name, path)
    assert seen == {"units", "radical", "comaximal"}
