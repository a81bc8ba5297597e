"""The HH^1 certificate, generator by generator, against the spec residual.

``express_hh1`` sums W(Y) + (inner Y - Y inner) - d(Y) in one accumulator
per generator Y, with W = sum_j mu_j(det_q) D_j read from the table's
store of det_q multiples, and raises at the first nonzero one.  The oracle
here is the spec arithmetic it replaced, d - ad(inner) -
``_weighted_basis_sum(table, mu)``.  The lift, the splitting and the
inner-part solve are replaced by stubs that hand the certificate a chosen
inner part and chosen weights, so suite-style specs and perturbed ones
reach the certificate as they are: it must raise exactly when the oracle
residual is nonzero.
"""

import random

import pytest

import qmat.derivations as derivations
from basis_sum_oracle import straightened_basis_sum
from qmat.context import build_context
from qmat.derivations import (
    DerivationSpec,
    TorusDecomposition,
    _readers,
    _weighted_basis_sum,
    ad,
    express_hh1,
    is_derivation,
)
from qmat.errors import ConditionViolatedError, QmatError
from qmat.matrixalg import MatrixAlgebraElement
from qmat.rational import RF_ONE, RF_ZERO, RationalFunction
from qmat.suite import _random_matrix_element, _random_mu_poly
from qmat.torus import TorusElement, delta_exponents
from qmat.tower import build_table

Q = RationalFunction.q_power
RESIDUAL = "reconstruction residual is nonzero"
TABLES = {}


def table_for(n):
    if n not in TABLES:
        TABLES[n] = build_table(build_context(n))
    return TABLES[n]


def oracle_residual(table, d, inner, mu):
    return d - ad(inner) - _weighted_basis_sum(table, mu)


def certify(table, d, inner, mu):
    """express_hh1 on d with the lift, the splitting and the solve stubbed
    so that they yield this inner part and these weights; the answer or
    the QmatError raised."""
    ctx = table.ctx
    diagonal = delta_exponents(ctx, ctx.n)
    z = {gen: TorusElement(ctx) for gen in ctx.generators}
    for reader, m in zip(_readers(ctx.n), mu):
        z[reader] = TorusElement(
            ctx, {tuple(k * e for e in diagonal): c for k, c in m.items()}
        )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(derivations, "_lift", lambda table, d: d)
        mp.setattr(derivations, "_split", lambda d: TorusDecomposition(None, z))
        mp.setattr(derivations, "_solve_inner_part", lambda table, x: inner)
        try:
            return express_hh1(table, d)
        except QmatError as exc:
            return exc


def suite_style(n, seed):
    """(d, inner, mu) with d = ad(inner) + sum_j mu_j(det_q) D_j, drawn as
    the verification suite draws its HH^1 inputs."""
    ctx = build_context(n)
    rng = random.Random(seed)
    inner = _random_matrix_element(ctx, rng)
    mu = [_random_mu_poly(ctx, rng) for _ in range(2 * n - 1)]
    return ad(inner) + straightened_basis_sum(ctx, mu), inner, mu


def bump_image(d, rng):
    """d with one coefficient of one nonzero image plus one."""
    gen = rng.choice([g for g, v in sorted(d.images.items()) if v])
    terms = dict(d.images[gen].terms)
    exp = rng.choice(sorted(terms))
    terms[exp] = terms[exp] + RF_ONE
    images = dict(d.images)
    images[gen] = MatrixAlgebraElement(d.ctx, terms)
    return DerivationSpec(d.ctx, "Mq", images)


def drop_inner_term(inner, rng):
    terms = dict(inner.terms)
    del terms[rng.choice(sorted(terms))]
    return MatrixAlgebraElement(inner.ctx, terms)


def bump_weight(mu, rng):
    j = rng.randrange(len(mu))
    k = rng.choice(sorted(mu[j]) or [0])
    out = [dict(m) for m in mu]
    out[j][k] = out[j].get(k, RF_ZERO) + Q(1)
    if not out[j][k]:
        del out[j][k]
    return out


def perturbed(n, seed):
    """The suite-style input and perturbations of it, labelled."""
    d, inner, mu = suite_style(n, seed)
    rng = random.Random(1000 + seed)
    cases = [("as drawn", d, inner, mu)]
    cases.append(("image bumped", bump_image(d, rng), inner, mu))
    if inner:
        cases.append(("inner term dropped", d, drop_inner_term(inner, rng), mu))
    cases.append(("weight bumped", d, inner, bump_weight(mu, rng)))
    y = MatrixAlgebraElement.generator(d.ctx, (1, n)).scale(Q(-1))
    cases.append(("ad(y) on both sides", d + ad(y), inner + y, mu))
    cases.append(("ad(y) on one side", d + ad(y), inner, mu))
    return cases


CASES = [
    pytest.param(n, seed, label, id=f"n{n}-seed{seed}-{label.replace(' ', '-')}")
    for n, seeds in ((2, range(4)), (3, range(4)), (4, range(2)))
    for seed in seeds
    for label in (
        "as drawn",
        "image bumped",
        "inner term dropped",
        "weight bumped",
        "ad(y) on both sides",
        "ad(y) on one side",
    )
]


@pytest.mark.parametrize("n, seed, label", CASES)
def test_the_certificate_raises_exactly_when_the_residual_is_nonzero(n, seed, label):
    cases = {c[0]: c[1:] for c in perturbed(n, 17 * n + seed)}
    if label not in cases:
        pytest.skip("the drawn inner part is zero, so no term can be dropped")
    d, inner, mu = cases[label]
    table = table_for(n)
    nonzero = not oracle_residual(table, d, inner, mu).is_zero()
    got = certify(table, d, inner, mu)
    if nonzero:
        assert isinstance(got, QmatError)
        if is_derivation(d):
            assert type(got) is ConditionViolatedError and str(got) == RESIDUAL
    else:
        assert not isinstance(got, Exception)
        assert got.inner == inner and got.mu == mu


@pytest.mark.parametrize("n", [2, 3, 4])
def test_both_verdicts_occur(n):
    """The perturbations above reach both verdicts at every size."""
    table = table_for(n)
    verdicts = set()
    for label, d, inner, mu in perturbed(n, 17 * n):
        verdicts.add(oracle_residual(table, d, inner, mu).is_zero())
    assert verdicts == {True, False}


def test_a_wrong_inner_part_of_a_derivation_raises_the_residual_error():
    d, inner, mu = suite_style(3, 5)
    wrong = inner + MatrixAlgebraElement.generator(d.ctx, (1, 2))
    got = certify(table_for(3), d, wrong, mu)
    assert type(got) is ConditionViolatedError and str(got) == RESIDUAL
