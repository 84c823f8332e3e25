"""Output checks behind ``error_ratio``; they run outside the timed region.

For every document the reported statuses are held against the oracle's
expectations, every splitting certificate is replayed from its rendered
text through the algebra's public ``sub``/``smul``/``apply``/``eq``, and
every evaluated element is re-parsed from its rendered text and compared
with ``eq``.
"""

from __future__ import annotations

import json

DECIDED = ("holds", "fails")


def entries_of(verdict: dict):
    """The verdict and each of its named conditions, depth first."""
    yield verdict
    for cond in verdict.get("conditions", ()):
        yield from entries_of(cond)


def check_document(lib, doc, text: str, spec, values) -> list[str]:
    """Problems found in one operation's output; empty when it is right."""
    problems = []
    entries = json.loads(text)
    checks = [e for e in entries if "check" in e]
    expects = doc.expects()
    if len(checks) != len(expects):
        return [f"{len(checks)} checks reported, {len(expects)} expected"]
    for entry, expect, decl in zip(checks, expects, spec.checks):
        verdict = entry["verdict"]
        where = entry["check"]
        problems += _against_oracle(where, verdict, expect)
        problems += _replay(lib, where, verdict, decl, spec)
    elements = [e for e in entries if "element" in e]
    for entry, elem in zip(elements, values):
        algebra = spec.algebra(entry["in"])
        again = lib.dsl.eval_element(
            lib.dsl.parse_expression(entry["value"]), algebra)
        if not algebra.eq(again, elem):
            problems.append(f"{entry['element']}: the rendered value does "
                            "not re-parse to the same element")
    return problems


def _contradicts(reported: str, truth: str | None) -> bool:
    return truth is not None and reported in DECIDED and reported != truth


def _against_oracle(where: str, verdict: dict, expect) -> list[str]:
    out = []
    if _contradicts(verdict["status"], expect.status):
        out.append(f"{where}: reported {verdict['status']}, oracle says "
                   f"{expect.status}")
    conds = {c["name"]: c for c in verdict.get("conditions", ())}
    for name, truth in expect.conditions.items():
        if name not in conds:
            out.append(f"{where}: condition {name} missing")
        elif _contradicts(conds[name]["status"], truth):
            out.append(f"{where}: {name} reported {conds[name]['status']}, "
                       f"oracle says {truth}")
    for name, m in (("units", expect.units_m), ("radical", expect.radical_m),
                    ("comaximal", expect.comaximal_m)):
        cond = conds.get(name)
        if m is not None and cond is not None and cond["status"] == "fails" \
                and cond["certificate"]["m"] != m:
            out.append(f"{where}: {name} fails at m = "
                       f"{cond['certificate']['m']}, oracle says m = {m}")
    return out


def _replay(lib, where: str, verdict: dict, decl, spec) -> list[str]:
    """Replay every splitting certificate against the ring it is about."""
    if decl.kind == "torus":
        return []
    ring = spec.rings[decl.target]
    if decl.kind == "conformal":
        if verdict["status"] != "holds":
            return []
        return _replay_split(lib, where, ring, verdict["u"])
    if decl.kind == "iterated":
        chain = [ring]
        while isinstance(chain[0].base, lib.rings.AmbiskewRing):
            chain.insert(0, chain[0].base)
        levels = {c["name"]: c for c in verdict.get("conditions", ())}
        if len(chain) == 1:
            levels = {"level_1": verdict}
        out = []
        for k, level in enumerate(chain, start=1):
            if f"level_{k}" in levels:
                out += _replay_tree(lib, where, level, levels[f"level_{k}"])
        return out
    if isinstance(ring, lib.gwa.GwaRing):
        return []
    return _replay_tree(lib, where, ring, verdict)


def _replay_tree(lib, where, ring, verdict) -> list[str]:
    out = []
    for entry in entries_of(verdict):
        cert = entry.get("certificate") or {}
        kind = cert.get("kind")
        if kind == "splitting_element" or (
                kind == "generalized_splitting" and cert["n"] == 0):
            out += _replay_split(lib, where, ring, cert["u"])
        elif kind == "generalized_splitting":
            out += _replay_witness(lib, where, ring, cert)
    return out


def _element(lib, algebra, text: str) -> dict:
    return lib.dsl.eval_element(lib.dsl.parse_expression(text), algebra)


def _replay_split(lib, where, ring, u_text: str) -> list[str]:
    """u - rho*alpha(u) = v, from the rendered u."""
    base = ring.base
    u = _element(lib, base, u_text)
    lhs = base.sub(u, base.smul(ring.rho, base.apply(ring.alpha, u)))
    if base.eq(lhs, ring.v):
        return []
    return [f"{where}: the splitting element {u_text} does not replay"]


def _replay_witness(lib, where, ring, cert: dict) -> list[str]:
    """rho^(p^n)*alpha(u) - u = v^(p^n) + sum_i b_i*v^(p^i), with
    alpha(b_i) = rho^(p^i - p^n)*b_i, from the rendered u and b_i."""
    base, rho, n = ring.base, ring.rho, cert["n"]
    p = ring.ctx.characteristic
    u = _element(lib, base, cert["u"])
    bs = [_element(lib, base, b) for b in cert["b"]]
    powers = [dict(ring.v)]
    for _ in range(n):
        elem = dict(base.one)
        for _ in range(p):
            elem = base.mul(elem, powers[-1])
        powers.append(elem)
    big = p ** n
    lhs = base.sub(base.smul(rho ** big, base.apply(ring.alpha, u)), u)
    rhs = powers[n]
    for i, b in enumerate(bs):
        rhs = base.add(rhs, base.mul(b, powers[i]))
        if not base.eq(base.apply(ring.alpha, b),
                       base.smul(rho ** (p ** i - big), b)):
            return [f"{where}: witness b_{i} breaks its eigenvalue condition"]
    if base.eq(lhs, rhs):
        return []
    return [f"{where}: the height-{n} witness does not replay"]


def count_entries(text: str) -> tuple[int, int]:
    """(inconclusive entries, all entries) over the verdicts of an output."""
    undecided = total = 0
    for entry in json.loads(text):
        if "verdict" not in entry:
            continue
        for node in entries_of(entry["verdict"]):
            total += 1
            undecided += node["status"] == "inconclusive"
    return undecided, total
