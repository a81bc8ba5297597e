"""Test-only oracle: sum_j mu_j(det_q) * D_j by straightening in Mq.

This is how ``qmat.derivations._weighted_basis_sum`` built the sum before
it read det_q * Y^g from the table's store of det_q multiples: the powers
det_q^k are formed by Mq products, and the image of Y(i,a) is one more
product, w(det_q) * Y(i,a).  It reads no table, so the tests that compare
the store-read sum with it, or build their input specs with it, are not
circular: a corrupt store entry cannot cancel between a spec and the
residual that certifies its answer.

    _weighted_basis_sum(table, mu) == straightened_basis_sum(table.ctx, mu)
"""

from __future__ import annotations

from qmat.derivations import DerivationSpec, _readers, _signed_readers
from qmat.matrixalg import MatrixAlgebraElement, qdet
from qmat.sparse import add_into


def straightened_basis_sum(ctx, mu):
    """sum_j mu_j(det_q) * D_j, one Mq product per generator; mu_j is the
    weight of D_j at its reader, a dict {power of det_q: coefficient}."""
    powers = [MatrixAlgebraElement.one(ctx)]
    top = max((k for m in mu for k in m), default=0)
    if top:
        det = qdet(ctx)
        for _ in range(top):
            powers.append(powers[-1] * det)
    at = dict(zip(_readers(ctx.n), mu))
    images = {}
    for gen in ctx.generators:
        weight = {}
        for s, cell in _signed_readers(*gen):
            for k, c in at[cell].items():
                add_into(weight, k, c if s > 0 else -c)
        if weight:
            factor = MatrixAlgebraElement(ctx)
            for k, c in weight.items():
                for e, ce in powers[k].terms.items():
                    add_into(factor.terms, e, ce * c)
            images[gen] = factor * MatrixAlgebraElement.generator(ctx, gen)
    return DerivationSpec(ctx, "Mq", images)
