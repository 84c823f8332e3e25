from __future__ import annotations

from fractions import Fraction

from hypothesis import given, strategies as st

from ambiskew.intlattice import column_kernel, kernel_with_congruences
from ambiskew.linear import gauss_solve
from ambiskew.scalars import ScalarContext


# ---------------------------------------------------------------------------
# integer kernels
# ---------------------------------------------------------------------------


def test_column_kernel_fixed_cases():
    assert column_kernel([[1, 0], [0, 1]], 2) == []
    assert column_kernel([[2, 4]], 2) == [[-2, 1]]
    # zero matrix: the whole space
    basis = column_kernel([[0, 0, 0]], 3)
    assert len(basis) == 3


def _rational_rank(rows: list[list[int]], n: int) -> int:
    a = [[Fraction(c) for c in r] for r in rows]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        a[rank] = [c / a[rank][col] for c in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [c - f * d for c, d in zip(a[r], a[rank])]
        rank += 1
    return rank


@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_column_kernel_members_and_rank(m, n, data):
    rows = [[data.draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(m)]
    basis = column_kernel(rows, n)
    for v in basis:
        assert all(sum(r[i] * v[i] for i in range(n)) == 0 for r in rows)
    assert len(basis) == n - _rational_rank(rows, n)


def test_kernel_with_congruences_even_diagonal():
    # x0 = x1 and x0 even: solutions are the multiples of (2, 2)
    sols = kernel_with_congruences([[1, -1]], [[1, 0]], 2, 2)
    assert sols
    for v in sols:
        assert v[0] == v[1]
        assert v[0] % 2 == 0
    assert any(v != [0, 0] for v in sols)


def test_kernel_with_congruences_trivial():
    # x0 = 0 exactly and x1 = 0 mod anything with an exact row too
    sols = kernel_with_congruences([[1, 0], [0, 1]], [], 6, 2)
    assert sols == []


# ---------------------------------------------------------------------------
# exact linear algebra over scalars
# ---------------------------------------------------------------------------


def test_gauss_solve_simple():
    ctx = ScalarContext(parameters=("q",))
    q = ctx.param("q")
    one = ctx.one
    # x + q*y = q^2 ; y = q  ->  x = 0
    sol = gauss_solve([[one, q], [ctx.zero, one]], [q**2, q])
    assert sol is not None
    assert sol[0].is_zero()
    assert sol[1] == q


def test_gauss_solve_inconsistent():
    ctx = ScalarContext()
    one = ctx.one
    assert gauss_solve([[one], [one]], [one, one + 1]) is None
