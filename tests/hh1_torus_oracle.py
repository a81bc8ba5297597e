"""Test-only oracle: HH^1 coordinates by the torus route.

This is how ``qmat.derivations.express_hh1`` found its answer before it
read mu off the diagonal powers and divided out the inner part in the
algebra: lift the spec through the tower by the quotient rule
(``lift_oracle._lift``), split the lift as ad_x + theta (``_split``), read
mu_j off the central weight theta_r at the reader r of D_j, and rebase the
inner part x from the torus to the algebra.  The answer is certified by
the same residual, d - ad(inner) - sum_j mu_j(det_q) D_j, here in spec
arithmetic, inside ``rejecting_non_derivations``; so both routes give the
same answer or the same error on every spec.

    express_hh1(table, d) == torus_express_hh1(table, d)
"""

from __future__ import annotations

from lift_oracle import _lift
from qmat.derivations import (
    HH1Coordinates,
    _readers,
    _split,
    _weighted_basis_sum,
    ad,
    rejecting_non_derivations,
)
from qmat.errors import (
    ConditionViolatedError,
    DimensionMismatchError,
    NotPolynomialError,
)
from qmat.matrixalg import MatrixAlgebraElement
from qmat.torus import TorusElement, delta_exponents, is_central_monomial
from qmat.tower import embed, solve_monomial_combination


def torus_express_hh1(table, d):
    """express_hh1 by lift, split, central weights and torus rebase."""
    ctx = table.ctx
    if d.alg != "Mq":
        raise DimensionMismatchError("express_hh1 expects a quantum-matrix spec")
    with rejecting_non_derivations(d):
        dec = _split(_lift(table, d))
        mu = [det_poly_of_central(dec.z[g]) for g in _readers(ctx.n)]
        inner = solve_inner_part(table, dec.x)
        residual = d - ad(inner) - _weighted_basis_sum(table, mu)
        if not residual.is_zero():
            raise ConditionViolatedError("reconstruction residual is nonzero")
    return HH1Coordinates(ctx, inner, mu)


def det_poly_of_central(z: TorusElement) -> dict:
    """Read a torus element on the ray of the full central monomial Delta_n
    (the diagonal) as a polynomial in Delta_n.

    A term c T^{k delta_n} reads as {k: c}: B vanishes between distinct
    diagonal generators, so Delta_n^k = T^{k delta_n} with coefficient 1.
    """
    diagonal = delta_exponents(z.ctx, z.ctx.n)
    out = {}
    for exp, coeff in z.terms.items():
        k = exp[0]
        if exp != tuple(k * e for e in diagonal):
            raise ConditionViolatedError(
                f"central weight {exp} is off the determinant ray"
            )
        if k < 0:
            raise NotPolynomialError(
                f"central weight has negative determinant power {k}"
            )
        out[k] = coeff
    return out


def solve_inner_part(table, x_torus: TorusElement) -> MatrixAlgebraElement:
    """Find y in the quantum-matrix algebra whose embedded image equals the
    given element modulo central monomials.

    Leading-term division against the non-central parts of the embedded
    natural monomials.  No remainder has central terms, so the division
    never picks a diagonal power (Y11...Ynn)^k.
    """
    ctx = table.ctx

    def image(h):
        img = embed(table, MatrixAlgebraElement.monomial(ctx, h))
        return TorusElement(
            ctx,
            {
                g: c
                for g, c in img.terms.items()
                if not is_central_monomial(ctx, g)
            },
        )

    return MatrixAlgebraElement(ctx, solve_monomial_combination(x_torus, image))
