"""Search bounds shared by the decision procedures.

Every criterion that quantifies over an unbounded index (all m >= 1, all
p-power heights n, scalar periods) truncates its search at these bounds and
answers Inconclusive beyond them, unless the family structure makes a finite
search provably exhaustive.

>>> Bounds(m_max=500, n_max=2)
Bounds(m_max=500, n_max=2, period_max=64)
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Bounds:
    m_max: int = 200
    n_max: int = 3
    period_max: int = 64


DEFAULT = Bounds()
