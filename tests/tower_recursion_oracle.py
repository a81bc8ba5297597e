"""Test-only oracle: the tower levels by the torus-product recursion.

This is how ``qmat.tower.build_table`` built the table before it read
its levels off Cauchon paths: ascending step (j, b) sets

    next[(i, a)] = cur[(i, a)] + cur[(i, b)] * cur[(j, b)]^{-1} * cur[(j, a)]

for i < j and a < b by torus products, with the pivot checked to be a
single monomial.  It reads no path and no inner-corner count, so the tests
that compare ``build_table`` with it are not circular.

    build_table(ctx).entries == recursion_levels(ctx)
"""

from __future__ import annotations

from qmat.torus import TorusElement


def recursion_levels(ctx):
    """{step: {generator: TorusElement}} for every step of ``ctx.E``."""
    cur = {gen: TorusElement.generator(ctx, gen) for gen in ctx.generators}
    levels = {ctx.E[0]: cur}
    for idx, r in enumerate(ctx.E[:-1]):
        j, b = r
        nxt = dict(cur)
        if j > 1 and b > 1:
            pivot = cur[(j, b)]
            if not pivot.is_monomial():
                raise AssertionError(f"pivot at step {r} is not a monomial")
            pinv = pivot.invert_monomial()
            for a in range(1, b):
                right = pinv * cur[(j, a)]
                for i in range(1, j):
                    nxt[(i, a)] = cur[(i, a)] + cur[(i, b)] * right
        levels[ctx.E[idx + 1]] = nxt
        cur = nxt
    return levels
