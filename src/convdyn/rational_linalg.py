"""Exact Gaussian elimination over the rationals.

Small dense routines, enough to compute null spaces of the
fixed-point systems that arise here.  Pivots are chosen to keep
numerator/denominator growth down: among the nonzero candidates in a
column, the entry with the smallest combined bit length wins, ties
broken by lowest row index.
"""

from __future__ import annotations

from fractions import Fraction


def _bit_size(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def rref(matrix: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (copy) and the list of pivot columns."""
    rows = [list(map(Fraction, row)) for row in matrix]
    if not rows:
        return [], []
    n_rows = len(rows)
    n_cols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r >= n_rows:
            break
        candidates = [i for i in range(r, n_rows) if rows[i][c] != 0]
        if not candidates:
            continue
        pivot_row = min(candidates, key=lambda i: (_bit_size(rows[i][c]), i))
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def nullspace(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of {x : M x = 0}, one vector per free column."""
    if not matrix:
        return []
    n_cols = len(matrix[0])
    reduced, pivots = rref(matrix)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis
