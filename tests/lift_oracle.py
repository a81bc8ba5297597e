"""Test-only oracle: the torus lift by the quotient rule.

This is how ``qmat.derivations.lift_to_torus`` found the lift before it
read it off the answer of ``express_hh1``: embed the generator images and
unwind the tower recursion step by step, with no certificate.  On a
derivation both give the unique torus extension.

    lift_to_torus(table, d) == _lift(table, d)
"""

from __future__ import annotations

from qmat.derivations import DerivationSpec
from qmat.tower import StepGeneratorTable, embed


def _lift(table: StepGeneratorTable, d: DerivationSpec) -> DerivationSpec:
    """The torus extension of a quantum-matrix spec, without checking it.

    The images of the top-step entries are the embedded generator images;
    the tower recursion is then unwound step by step until the bottom
    step, where the entries are the torus generators themselves.  Step
    (j, b) added U * P^{-1} * L to entry (i, a), with U = entry (i, b),
    L = entry (j, a) and the monomial pivot P = entry (j, b), none of which
    the step changes; its image is subtracted by the quotient rule

        D(U P^{-1} L) = D(U) (P^{-1} L) + (U P^{-1}) (D(L) - D(P) P^{-1} L),

    with D(P) P^{-1} formed once per step, U P^{-1} once per row, and
    P^{-1} L and D(L) - D(P) P^{-1} L once per column.
    """
    ctx = table.ctx
    cur = {gen: embed(table, d.images[gen]) for gen in ctx.generators}
    for idx in range(len(ctx.E) - 2, -1, -1):
        j, b = ctx.E[idx]
        if j == 1 or b == 1:
            continue
        level = table.entries[ctx.E[idx + 1]]
        pinv = level[(j, b)].invert_monomial()
        dp_pinv = cur[(j, b)] * pinv
        upper = [level[(i, b)] * pinv for i in range(1, j)]
        for a in range(1, b):
            left = level[(j, a)]
            right = pinv * left
            dright = cur[(j, a)] - dp_pinv * left
            for i in range(1, j):
                cur[(i, a)] = cur[(i, a)] - (
                    cur[(i, b)] * right + upper[i - 1] * dright
                )
    return DerivationSpec(ctx, "torus", cur)
