"""Dense exact linear algebra over the scalar field.

Systems here are tiny (the height-n witness search of the
characteristic-p criterion), so plain Gaussian elimination with exact
scalar division is the right tool.  Matrices are lists of row lists of
Scalars and are never mutated in place by the callers.
"""

from __future__ import annotations

from .scalars import Scalar


def gauss_solve(rows: list[list[Scalar]], rhs: list[Scalar]) -> list[Scalar] | None:
    """One solution of rows . x = rhs, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if not rows:
        return []
    ctx = rhs[0].ctx if rhs else rows[0][0].ctx
    n = len(rows[0])
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, len(a)) if not a[r][col].is_zero()), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = a[row][col].inv()
        a[row] = [c * inv for c in a[row]]
        for r in range(len(a)):
            if r != row and not a[r][col].is_zero():
                f = a[r][col]
                a[r] = [c - f * d for c, d in zip(a[r], a[row])]
        pivots.append((row, col))
        row += 1
        if row == len(a):
            break
    for r in range(row, len(a)):
        if not a[r][n].is_zero():
            return None
    x = [ctx.zero] * n
    for r, c in pivots:
        x[c] = a[r][n]
    return x
