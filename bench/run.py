"""Benchmark of ``ambiskew`` from DSL text to JSON verdicts.

Usage, from the root of the repository:

    python3 bench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

An operation is one generated document taken end to end: parsed with
``dsl.parse_spec``, each ``check`` run through the public procedure its
kind names, ``swell`` elements evaluated and rendered, and everything
serialized to JSON.  One client sends operations in a closed loop from one
thread: the next document goes out when the previous one returns.

A run sets up (imports the package and generates the documents) several
times and reports the median, makes one untimed pass that warms the
per-process caches and checks every output, then measures for ``--seconds``.
With ``--trace 1`` it measures once untraced and once with every public
function of the package wrapped, and reports the per-layer figures.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit.  The full record, with sample counts
and every failure by document, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import signal
import statistics
import sys
import time
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MODULES = ("scalars", "bounds", "verdict", "linear", "intlattice",
           "multiplicative", "algebras", "rings", "gwa", "simplicity",
           "localization", "dsl")
FAMILIES = ("field", "poly", "laurent", "cyclic_group", "quadratic")
# the unit pencils of the field and poly families never run: v is always an
# eigenvector over a field, and the poly family scans instead
PENCIL_FAMILIES = ("laurent", "cyclic_group", "quadratic")
SETUP_REPEATS = 9
OP_CAP_S = 15.0  # wall-clock cap per operation, and per output check
MIN_SAMPLES = 100  # p90 needs ten samples beyond it


class OpTimeout(Exception):
    """An operation ran past the per-operation cap."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def capped(fn, *args):
    """fn(*args) under a wall-clock cap, from the main thread's timer."""
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def load_library() -> types.SimpleNamespace:
    """A fresh import of the package modules, each module object once."""
    for name in [m for m in sys.modules
                 if m == "ambiskew" or m.startswith("ambiskew.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"ambiskew.{name}")
            for name in MODULES}
    return types.SimpleNamespace(modules=list(mods.values()), **mods)


def set_up(workload: str, seed: int, speed):
    """Import the package and generate the documents, SETUP_REPEATS times;
    the last copy is kept.  Returns the normalized time of each repeat."""
    import workloads
    for _ in range(speed.samples.maxlen):
        speed.probe()
    times = []
    for _ in range(SETUP_REPEATS):
        speed.probe()
        start = time.perf_counter()
        lib = load_library()
        docs = workloads.generate(workload, seed)
        times.append((time.perf_counter() - start) * speed.scale())
    return lib, docs, times


def src_loc() -> int:
    return sum(1 for path in sorted((SRC / "ambiskew").rglob("*.py"))
               for line in path.read_text().splitlines() if line.strip())


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------


def check_pass(lib, op, docs):
    """Run every document once, untimed, and check its output.

    Returns the checked output of each document by name, the failures, and
    (inconclusive entries, all entries) over the pass."""
    import verify
    outputs, failures = {}, []
    undecided = total = 0
    for doc in docs:
        try:
            text, spec, values = capped(op.run, doc)
            problems = capped(verify.check_document, lib, doc, text, spec,
                              values)
        except OpTimeout:
            problems = ["timeout"]
        except Exception as exc:  # a raising document is a recorded failure
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append({"doc": doc.name, "problems": problems})
            continue
        outputs[doc.name] = text
        u, t = verify.count_entries(text)
        undecided += u
        total += t
    return outputs, failures, (undecided, total)


class Loop:
    """What one timed phase measured: each operation's document, wall time
    and speed scale (see speed.py), the phase's wall time, failures and
    output size."""

    def __init__(self):
        self.ops: list[tuple[str, float, float]] = []
        self.wall = 0.0
        self.failures: list[dict] = []
        self.out_bytes = 0

    def samples_ms(self) -> list[float]:
        """Normalized time of each operation, sorted."""
        return sorted(raw * scale * 1000 for _, raw, scale in self.ops)

    def rate(self) -> float:
        """Operations completed without failure per normalized second."""
        done = len(self.ops) - len(self.failures)
        return 1000 * done / sum(self.samples_ms())


def timed_loop(op, docs, outputs, seconds: float, speed,
               tracer=None) -> Loop:
    """Closed loop over the documents, in order and round again, for
    ``seconds`` of wall time.  The reference computation runs before each
    operation, outside its timing.  Every output must equal the checked
    output of its document byte for byte."""
    loop = Loop()
    clock = time.perf_counter
    for _ in range(speed.samples.maxlen):
        speed.probe()
    start = end = clock()
    deadline = start + seconds
    while end < deadline:
        doc = docs[len(loop.ops) % len(docs)]
        if tracer is not None:
            tracer.op = len(loop.ops) + 1
        speed.probe()
        t0 = clock()
        try:
            text = capped(op.run, doc)[0]
            problem = None if text == outputs.get(doc.name) else \
                "output differs from the checked output"
        except OpTimeout:
            text, problem = "", "timeout"
        except Exception as exc:  # a raising document is a recorded failure
            text, problem = "", f"raised {type(exc).__name__}: {exc}"
        end = clock()
        loop.ops.append((doc.name, end - t0, speed.scale()))
        loop.out_bytes += len(text)
        if problem:
            loop.failures.append({"doc": doc.name, "problems": [problem]})
    loop.wall = end - start
    return loop


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(loop: Loop, setup_times, entries) -> dict:
    samples = loop.samples_ms()
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "checks_per_s": (loop.rate(), "1/s"),
        "latency_p50_ms": (statistics.median(samples), "ms"),
        "latency_p90_ms": (statistics.quantiles(samples, n=10)[8], "ms"),
        "undecided_ratio": (entries[0] / max(entries[1], 1), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MiB"),
    }


def raw_figures(loop: Loop) -> dict:
    """The same phase in wall time, without the speed scale, for the
    record."""
    lat = sorted(raw * 1000 for _, raw, _ in loop.ops)
    done = len(loop.ops) - len(loop.failures)
    return {"checks_per_s": done / loop.wall,
            "latency_p50_ms": statistics.median(lat),
            "latency_p90_ms": statistics.quantiles(lat, n=10)[8]}


def per_layer(tracer, n_ops: int, n_checks: int, overhead: float,
              out_bytes: int) -> dict:
    per = max(n_ops, 1)
    out = {}
    for kind in ("Q", "Qzeta", "Fp", "param"):
        out[f"scalars.{kind}.ops"] = (tracer.calls(f"scalars.{kind}") / per,
                                      "count/op")
        out[f"scalars.{kind}.self_s"] = (
            tracer.self_s(f"scalars.{kind}") / per, "s/op")
    out["scalars.param.max_terms"] = (tracer.max_terms, "terms")
    out["scalars.render.self_s"] = (tracer.self_s("scalars.render") / per,
                                    "s/op")
    unit_calls = 0
    for fam in FAMILIES:
        name = f"algebras.{fam}"
        unit_calls += tracer.calls(f"{name}.is_unit")
        out[f"{name}.is_unit.calls"] = (tracer.calls(f"{name}.is_unit") / per,
                                        "count/op")
        for method in ("is_unit", "mul", "apply"):
            out[f"{name}.{method}.self_s"] = (
                tracer.self_s(f"{name}.{method}") / per, "s/op")
        if fam in PENCIL_FAMILIES:
            pencil = f"{name}.first_nonunit_in_pencil"
            out[f"{pencil}.calls"] = (tracer.calls(pencil) / per, "count/op")
            out[f"{pencil}.self_s"] = (tracer.self_s(pencil) / per, "s/op")
    out["algebras.solve_splitting_ex.self_s"] = (
        tracer.self_s("algebras.solve_splitting_ex") / per, "s/op")
    out["algebras.is_unit.per_check"] = (unit_calls / max(n_checks, 1),
                                         "count/check")
    for name in ("rings.mul", "linear.gauss_solve"):
        out[f"{name}.calls"] = (tracer.calls(name) / per, "count/op")
    for name in ("rings.mul", "rings.is_unit", "rings.conformality",
                 "gwa.mul", "gwa.gwa_simple", "linear.gauss_solve",
                 "multiplicative.decompose", "multiplicative.relation_kernel",
                 "intlattice.column_kernel",
                 "intlattice.kernel_with_congruences",
                 "simplicity.simple", "simplicity.singular",
                 "simplicity.simple_iterated", "simplicity.units_for_all_m",
                 "localization.localized_simple",
                 "localization.quantum_torus_simple",
                 "dsl.parse_spec", "dsl.eval_element", "verdict.to_json"):
        out[f"{name}.self_s"] = (tracer.self_s(name) / per, "s/op")
    undecided, total = tracer.units_verdicts
    out["simplicity.units_for_all_m.undecided_ratio"] = (
        undecided / max(total, 1), "1")
    out["verdict.output_bytes"] = (out_bytes / per, "bytes/op")
    out["trace.overhead"] = (overhead, "x")
    out["src_loc"] = (src_loc(), "lines")
    return out


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog", "scan", "swell"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ambiskew").is_dir():
        print(f"no package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    signal.signal(signal.SIGALRM, _on_alarm)
    from operation import Operation
    from speed import Speed

    speed = Speed()
    lib, docs, setup_times = set_up(args.workload, args.seed, speed)
    op = Operation(lib)
    started = time.perf_counter()
    outputs, failures, entries = check_pass(lib, op, docs)
    check_s = time.perf_counter() - started
    docs_ok = [d for d in docs if d.name in outputs] or docs
    checks_per_doc = sum(line.startswith("check ") for d in docs_ok
                         for line in d.text.splitlines()) / len(docs_ok)

    loop = timed_loop(op, docs_ok, outputs, args.seconds, speed)
    loops = [loop]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "python": sys.version.split()[0], "src_loc": src_loc(),
              "documents": len(docs), "setup_times_s": setup_times,
              "check_pass_s": check_s,
              "untraced": {"operations": len(loop.ops), "wall_s": loop.wall,
                           "raw": raw_figures(loop)}}
    if args.trace:
        from spans import Tracer
        tracer = Tracer(lib)
        tracer.install()
        try:
            traced = timed_loop(op, docs_ok, outputs, args.seconds, speed,
                                tracer)
        finally:
            tracer.uninstall()
        loops.append(traced)
        n_ops = len(traced.ops)
        metrics = per_layer(tracer, n_ops, checks_per_doc * n_ops,
                            loop.rate() / traced.rate(), traced.out_bytes)
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        record["traced"] = {"operations": n_ops, "wall_s": traced.wall,
                            "raw": raw_figures(traced),
                            "spans": len(tracer.spans),
                            "spans_dropped": tracer.dropped,
                            "calls": tracer.stats}
    else:
        metrics = end_to_end(loop, setup_times, entries)
        p90 = metrics["latency_p90_ms"][0]
        record["latency_samples"] = len(loop.ops)
        record["latency_samples_beyond_p90"] = sum(
            1 for x in loop.samples_ms() if x > p90)

    # the check pass attempted every document once as well
    attempted = len(docs) + sum(len(lp.ops) for lp in loops)
    all_failures = failures + [f for lp in loops for f in lp.failures]
    failed = len(all_failures)
    record["error_ratio"] = failed / attempted
    record["failures"] = all_failures
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(f"{'error_ratio':48s} {failed / attempted:14.6g} 1 "
          f"({failed} of {attempted} operations)")
    if not args.trace:
        print(f"{'latency samples':48s} {len(loop.ops):14d} "
              f"({record['latency_samples_beyond_p90']} beyond p90)")
        if len(loop.ops) < MIN_SAMPLES:
            print(f"warning: fewer than {MIN_SAMPLES} operations measured",
                  file=sys.stderr)
    for failure in all_failures[:20]:
        print(f"failed: {failure['doc']}: {'; '.join(failure['problems'])}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
