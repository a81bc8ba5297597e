"""Test-only oracle: the terms of a quantum minor, built the way
``qmat.matrixalg.qminor`` built them before it read
``matrixalg._minor_terms``: one exponent vector per permutation of the
columns over the rows, weighted (-q)^l for l its inversions.  The
inversions are counted here, so ``qminor`` and ``tower._as_minor``, which
read the same generator, are checked against code they do not share.
"""

from __future__ import annotations

from itertools import combinations, permutations

from qmat.rational import RationalFunction


def minor_terms(ctx, rows, cols) -> dict:
    """{exponents: (-q)^inversions} of the quantum minor on ascending,
    duplicate-free rows and columns of equal size."""
    t = len(rows)
    nn = ctx.n * ctx.n
    terms = {}
    for perm in permutations(range(t)):
        exp = [0] * nn
        for k in range(t):
            exp[ctx.flat(rows[k], cols[perm[k]])] += 1
        l = sum(perm[a] > perm[b] for a, b in combinations(range(t), 2))
        coeff = RationalFunction.q_power(l)
        terms[tuple(exp)] = -coeff if l % 2 else coeff
    return terms
