"""Verdicts with certificates.

Every decision procedure returns a Verdict: a three-valued status plus a
deterministic reason string, an optional machine-checkable certificate and
the sub-verdicts of the criterion's conditions.  Procedures evaluate *all*
conditions of a criterion even after one fails, so a report always shows
every obstruction it found.
"""

from __future__ import annotations

from enum import Enum


class Status(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


class Verdict:
    __slots__ = ("status", "reason", "certificate", "theorem", "conditions")

    def __init__(self, status: Status, reason: str = "",
                 certificate: dict | None = None, theorem: str | None = None,
                 conditions: list[tuple[str, "Verdict"]] | None = None):
        self.status = status
        self.reason = reason
        self.certificate = certificate
        self.theorem = theorem
        self.conditions = [] if conditions is None else conditions

    @property
    def holds(self) -> bool:
        return self.status is Status.HOLDS

    @property
    def fails(self) -> bool:
        return self.status is Status.FAILS

    def to_json(self) -> dict:
        out: dict = {"status": self.status.value, "reason": self.reason}
        if self.theorem is not None:
            out["theorem"] = self.theorem
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.conditions:
            out["conditions"] = [
                {"name": name, **v.to_json()} for name, v in self.conditions]
        return out


def holds(reason: str = "", **kw) -> Verdict:
    return Verdict(Status.HOLDS, reason, **kw)


def fails(reason: str = "", **kw) -> Verdict:
    return Verdict(Status.FAILS, reason, **kw)


def inconclusive(reason: str = "", **kw) -> Verdict:
    return Verdict(Status.INCONCLUSIVE, reason, **kw)


def conjunction(conditions: list[tuple[str, Verdict]], theorem: str | None = None) -> Verdict:
    """Combine fully evaluated conditions: fails beats inconclusive beats holds."""
    failing = [name for name, v in conditions if v.fails]
    if failing:
        out = fails("failed: " + ", ".join(failing))
    elif any(v.status is Status.INCONCLUSIVE for _, v in conditions):
        open_ = [name for name, v in conditions if v.status is Status.INCONCLUSIVE]
        out = inconclusive("undecided: " + ", ".join(open_))
    else:
        out = holds("all conditions hold")
    out.theorem = theorem
    out.conditions = conditions
    return out


def bounded_scan(upto: int, probe, stop, done: Verdict) -> Verdict:
    """Run ``probe(m)`` for m = 1..upto and return ``stop(m, answer)`` at
    the first index whose answer (anything with a ``status``) is not Holds.
    ``done`` is the verdict when every index holds."""
    for m in range(1, upto + 1):
        answer = probe(m)
        if answer.status is not Status.HOLDS:
            return stop(m, answer)
    return done
