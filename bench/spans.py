"""A span recorder that wraps the public functions of ``ambiskew``.

Spans are recorded from the benchmark's side: every wrapped function is
replaced, at each module or class that binds it, by a wrapper that times
the call.  A span holds its id, the id of the operation it belongs to, the
id of its parent span, its name and its start and end times; spans stay in
memory until the benchmark writes them out.

Self time is a span's duration minus the time of its child spans.  A call
into the same group as the innermost open span (a recursive ``eval_element``
or ``to_json``, or a scalar operation inside another one) passes straight
through, so it neither opens a span nor counts as a call.  Scalar
operations are far too many to keep as spans; they are only counted and
timed, by the kind of their scalar context.
"""

from __future__ import annotations

import time

# Methods wrapped on each family class that overrides them.
FAMILY_METHODS = ("is_unit", "mul", "apply", "first_nonunit_in_pencil")
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inv",
              "__neg__", "__eq__")
FUNCTIONS = {
    "dsl": ("parse_spec", "eval_element"),
    "linear": ("gauss_solve",),
    "algebras": ("solve_splitting_ex",),
    "gwa": ("gwa_simple",),
    "simplicity": ("simple", "singular", "simple_iterated",
                   "units_for_all_m"),
    "localization": ("localized_simple", "quantum_torus_simple"),
    "multiplicative": ("decompose", "relation_kernel"),
    "intlattice": ("column_kernel", "kernel_with_congruences"),
}
SPAN_CAP = 400_000


def scalar_kind(ctx) -> str:
    if ctx.parameters:
        return "param"
    if ctx.characteristic:
        return "Fp"
    return "Qzeta" if ctx.cyclotomic_order > 1 else "Q"


class Tracer:
    """Wraps the package's public functions for one traced phase and keeps
    the spans and, per name, the calls and self seconds."""

    def __init__(self, lib):
        self.lib = lib
        self.clock = time.perf_counter
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stack: list[list] = []   # [span id, group, child seconds]
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.op = 0
        self.next_id = 1
        self.max_terms = 0
        self.units_verdicts = [0, 0]  # [inconclusive, all]
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _enter(self, group: str) -> list:
        frame = [self.next_id, group, 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _leave(self, frame, name: str, start: float, keep: bool) -> None:
        end = self.clock()
        self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0]
        entry[0] += 1
        entry[1] += duration - frame[2]
        if keep:
            if len(self.spans) < SPAN_CAP:
                parent = self.stack[-1][0] if self.stack else 0
                self.spans.append((frame[0], self.op, parent, name, start, end))
            else:
                self.dropped += 1

    def wrap(self, fn, name: str, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(frame, name, start, True)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_scalar(self, fn, op: str):
        """Scalar operations: counted per context kind, never kept as spans."""
        tracer = self

        def traced(self_, *args):
            stack = tracer.stack
            if stack and stack[-1][1] == "scalars":
                return fn(self_, *args)
            ctx = self_.ctx
            kind = "render" if op == "__str__" else scalar_kind(ctx)
            frame = tracer._enter("scalars")
            start = tracer.clock()
            try:
                result = fn(self_, *args)
            finally:
                tracer._leave(frame, f"scalars.{kind}", start, False)
            if kind == "param" and hasattr(result, "den"):
                size = len(result.num) + len(result.den)
                if size > tracer.max_terms:
                    tracer.max_terms = size
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing ------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, wrapper) -> None:
        """Rebind ``original`` in every module of the package that holds it,
        since ``from .linear import gauss_solve`` copies the binding."""
        for module in self.lib.modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _count_units(self, verdict) -> None:
        self.units_verdicts[0] += verdict.status.value == "inconclusive"
        self.units_verdicts[1] += 1

    def install(self) -> None:
        lib = self.lib
        for mod_name, names in FUNCTIONS.items():
            module = getattr(lib, mod_name)
            for name in names:
                hook = self._count_units if name == "units_for_all_m" else None
                original = getattr(module, name)
                self._patch_everywhere(
                    original, self.wrap(original, f"{mod_name}.{name}",
                                        on_result=hook))
        families = [lib.algebras.FieldAlgebra, lib.algebras.PolyAlgebra,
                    lib.algebras.LaurentAlgebra,
                    lib.algebras.CyclicGroupAlgebra,
                    lib.algebras.QuadraticAlgebra, lib.rings.AmbiskewRing,
                    lib.gwa.GwaRing]
        for cls in families:
            if cls is lib.rings.AmbiskewRing:
                prefix = "rings"
            elif cls is lib.gwa.GwaRing:
                prefix = "gwa"
            else:
                prefix = f"algebras.{cls.kind}"
            for method in FAMILY_METHODS:
                if method in vars(cls):
                    self._patch(cls, method,
                                self.wrap(vars(cls)[method],
                                          f"{prefix}.{method}"))
        ring = lib.rings.AmbiskewRing
        self._patch(ring, "conformality",
                    self.wrap(vars(ring)["conformality"],
                              "rings.conformality"))
        verdict = lib.verdict.Verdict
        self._patch(verdict, "to_json",
                    self.wrap(vars(verdict)["to_json"], "verdict.to_json"))
        scalar = lib.scalars.Scalar
        for op in SCALAR_OPS + ("__str__",):
            self._patch(scalar, op, self.wrap_scalar(vars(scalar)[op], op))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write('{"columns": ["id", "op", "parent", "name", "start", '
                      f'"end"], "dropped": {self.dropped}, "spans": [\n')
            last = len(self.spans) - 1
            for i, span in enumerate(self.spans):
                sid, op, parent, name, start, end = span
                out.write(f'[{sid}, {op}, {parent}, "{name}", {start:.9f}, '
                          f'{end:.9f}]{"," if i < last else ""}\n')
            out.write("]}\n")
