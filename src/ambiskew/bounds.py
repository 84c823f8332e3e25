"""Search bounds shared by the decision procedures.

Every criterion that quantifies over an unbounded index (all m >= 1, all
p-power heights n, scalar periods) truncates its search at these bounds and
answers Inconclusive beyond them, unless the family structure makes a finite
search provably exhaustive.

>>> Bounds.parse("m_max=500, n_max=2")
Bounds(m_max=500, n_max=2, period_max=64)
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Bounds:
    m_max: int = 200
    n_max: int = 3
    period_max: int = 64

    @classmethod
    def parse(cls, text: str | None, base: "Bounds | None" = None) -> "Bounds":
        """Apply ``name=value`` overrides, comma separated, to ``base``.

        >>> Bounds.parse("") == Bounds()
        True
        >>> Bounds.parse("period_max=8").period_max
        8
        >>> Bounds.parse("m_max")
        Traceback (most recent call last):
            ...
        ValueError: malformed bounds entry 'm_max'; expected name=value
        """
        out = base if base is not None else cls()
        if not text:
            return out
        known = {f.name for f in fields(cls)}
        for entry in text.split(","):
            entry = entry.strip()
            if not entry:
                continue
            name, sep, value = entry.partition("=")
            name = name.strip()
            if not sep:
                raise ValueError(
                    f"malformed bounds entry {entry!r}; expected name=value")
            if name not in known:
                raise ValueError(f"unknown bound {name!r}")
            try:
                number = int(value.strip())
            except ValueError:
                raise ValueError(f"bound {name} needs an integer, got {value!r}")
            if number < 1:
                raise ValueError(f"bound {name} must be positive")
            out = replace(out, **{name: number})
        return out


DEFAULT = Bounds()
