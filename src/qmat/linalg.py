"""Exact dense linear algebra over Q and over the coefficient field Q(q).

Matrices are lists of rows.  One Gauss-Jordan elimination serves both
fields: it only tests entries for zero and uses -, * and /, which
``Fraction`` and ``RationalFunction`` share.  The coefficient arithmetic
is exact, so plain elimination is sound.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rational import RF_ZERO, RationalFunction


def _rref(rows: list[list]) -> list[int]:
    """Bring the rows to reduced row echelon form in place; return the
    pivot column of each nonzero row."""
    pivots: list[int] = []
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][col]
        prow = rows[rank] = [c / p for c in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        pivots.append(col)
    return pivots


def solve_linear_system(
    matrix: list[list[RationalFunction | None]],
    rhs: list[RationalFunction | None],
) -> list[RationalFunction] | None:
    """One exact solution of matrix * x = rhs, or None if inconsistent.

    Entries may be ``None`` for structural zeros.  Free variables, if any,
    are set to zero.
    """
    cols = len(matrix[0]) if matrix else 0
    aug = [
        [c if c is not None else RF_ZERO for c in row]
        + [rhs[r] if rhs[r] is not None else RF_ZERO]
        for r, row in enumerate(matrix)
    ]
    pivots = _rref(aug)
    if pivots and pivots[-1] == cols:
        return None
    solution = [RF_ZERO] * cols
    for r, col in enumerate(pivots):
        solution[col] = aug[r][cols]
    return solution


def integer_kernel_basis(rows) -> list[tuple[int, ...]]:
    """Primitive integer vectors spanning the Q-kernel of an integer matrix."""
    ncols = len(rows[0])
    mat = [[Fraction(c) for c in row] for row in rows]
    pivots = _rref(mat)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        lcm = math.lcm(*(c.denominator for c in vec))
        ints = [int(c * lcm) for c in vec]
        g = math.gcd(*ints)
        basis.append(tuple(c // g for c in ints))
    return basis
