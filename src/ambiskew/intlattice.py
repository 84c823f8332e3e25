"""Integer lattice workhorse: column echelon forms and kernels.

Deciding multiplicative relations between scalars reduces to computing the
integer kernel of a small exponent matrix, where some rows are read modulo
M (torsion exponents).  Everything here is plain python ints; elimination
uses the usual 2x2 unimodular column tricks built from the extended gcd, so
the returned kernel vectors form a basis of the full integer kernel lattice
(not a finite-index sublattice).
"""

from __future__ import annotations


def _exgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _swap_cols(mat: list[list[int]], i: int, j: int) -> None:
    for row in mat:
        row[i], row[j] = row[j], row[i]


def _combine_cols(mat: list[list[int]], i: int, j: int,
                  s: int, t: int, u: int, v: int) -> None:
    # (col_i, col_j) <- (s*col_i + t*col_j, u*col_i + v*col_j)
    for row in mat:
        a, b = row[i], row[j]
        row[i] = s * a + t * b
        row[j] = u * a + v * b


def column_kernel(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of {x in Z^ncols : rows . x = 0}.

    >>> column_kernel([[2, 4]], 2)
    [[-2, 1]]
    >>> column_kernel([[1, 0], [0, 1]], 2)
    []
    """
    e = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    col = 0
    for r in range(len(e)):
        if col == ncols:
            break
        pivot = next((j for j in range(col, ncols) if e[r][j]), None)
        if pivot is None:
            continue
        if pivot != col:
            _swap_cols(e, col, pivot)
            _swap_cols(u, col, pivot)
        for j in range(col + 1, ncols):
            if e[r][j]:
                a, b = e[r][col], e[r][j]
                g, s, t = _exgcd(a, b)
                _combine_cols(e, col, j, s, t, -(b // g), a // g)
                _combine_cols(u, col, j, s, t, -(b // g), a // g)
        col += 1
    out = []
    for j in range(col, ncols):
        if all(e[r][j] == 0 for r in range(len(e))):
            out.append([u[i][j] for i in range(ncols)])
    return out


def kernel_with_congruences(exact_rows: list[list[int]],
                            mod_rows: list[list[int]],
                            modulus: int, ncols: int) -> list[list[int]]:
    """Nonzero-projection generators of the solutions of a mixed system.

    Solves ``exact_rows . x = 0`` over Z together with
    ``mod_rows . x = 0 (mod modulus)`` by adjoining one auxiliary
    modulus-column per congruence row and projecting the kernel back to the
    x coordinates.  Returns the projections that are nonzero; the solution
    set is trivial iff the list is empty.  Projections are *not* divided by
    their content (a scaled-down vector need not satisfy the congruences).
    """
    k = len(mod_rows)
    stacked = [list(r) + [0] * k for r in exact_rows]
    for idx, r in enumerate(mod_rows):
        aux = [0] * k
        aux[idx] = modulus
        stacked.append(list(r) + aux)
    out = []
    for v in column_kernel(stacked, ncols + k):
        x = v[:ncols]
        if any(x):
            if next(c for c in x if c) < 0:
                x = [-c for c in x]
            out.append(x)
    return out
