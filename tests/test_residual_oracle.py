"""The HH^1 certificate, generator by generator, against the spec residual.

``express_hh1`` reads mu (``_read_mu``) and then divides the inner part
out of one accumulator W(Y) - d(Y) per generator Y (``_divide_inner_part``),
with W = sum_j mu_j(det_q) D_j read from the table's store of det_q
multiples; it returns only when every accumulator is empty.  The oracles
here are the spec residual d - ad(inner) - sum_j mu_j(det_q) D_j, in spec
arithmetic, and the torus route of ``hh1_torus_oracle``, which decides
whether d - W is inner at all.  The mu reader is replaced by a stub that
hands the division chosen weights, and the division's leading coefficient
by one that is off by a factor q, so suite-style specs and perturbed ones
reach the certificate as they are: it must return exactly when d - W is
an inner derivation, with an inner part of zero spec residual.
"""

import random
from operator import add

import pytest

import qmat.derivations as derivations
from basis_sum_oracle import straightened_basis_sum
from hh1_torus_oracle import torus_express_hh1
from qmat.context import build_context
from qmat.derivations import DerivationSpec, ad, express_hh1, is_derivation
from qmat.errors import ConditionViolatedError, QmatError
from qmat.matrixalg import MatrixAlgebraElement, qdet
from qmat.rational import RF_ONE, RF_ZERO, RationalFunction
from qmat.sparse import unit_exponent
from qmat.suite import _random_matrix_element, _random_mu_poly
from qmat.tower import build_table

Q = RationalFunction.q_power
RESIDUAL = "reconstruction residual is nonzero"
TABLES = {}


def table_for(n):
    if n not in TABLES:
        TABLES[n] = build_table(build_context(n))
    return TABLES[n]


def diagonal_exponent(ctx):
    return tuple(int(i == a) for i, a in ctx.generators)


def oracle_residual(d, inner, mu):
    return d - ad(inner) - straightened_basis_sum(d.ctx, mu)


def oracle_inner(table, d, mu):
    """The x with d - sum_j mu_j(det_q) D_j = ad(x), by the torus route, or
    None when that spec is not inner."""
    try:
        coords = torus_express_hh1(table, d - straightened_basis_sum(d.ctx, mu))
    except QmatError:
        return None
    return None if any(coords.mu) else coords.inner


def certify(table, d, mu, scaled_leader=False):
    """express_hh1 on d with the mu reader stubbed to yield these weights,
    and with the first leading coefficient of the division multiplied by q
    if asked; the answer or the QmatError raised."""
    leader = derivations._bracket_leader
    calls = []

    def scaled(ctx, h):
        found = leader(ctx, h)
        calls.append(h)
        if found is None or len(calls) > 1:
            return found
        return found[0], found[1] * Q(1)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(derivations, "_read_mu", lambda d: mu)
        if scaled_leader:
            mp.setattr(derivations, "_bracket_leader", scaled)
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


def bump_weight(mu, rng):
    j = rng.randrange(len(mu))
    k = rng.choice(sorted(mu[j]) or [0])
    out = [dict(m) for m in mu]
    out[j][k] = out[j].get(k, RF_ZERO) + Q(1)
    if not out[j][k]:
        del out[j][k]
    return out


def perturbed(n, seed):
    """The suite-style input and perturbations of it, labelled, as
    (d, mu the stub yields, the division's coefficient scaled)."""
    d, inner, mu = suite_style(n, seed)
    ctx = d.ctx
    rng = random.Random(1000 + seed)
    y = MatrixAlgebraElement.generator(ctx, (1, n)).scale(Q(-1))
    diagonal = MatrixAlgebraElement.monomial(ctx, diagonal_exponent(ctx))
    return [
        ("as drawn", d, mu, False),
        ("image bumped", bump_image(d, rng), mu, False),
        ("weight bumped", d, bump_weight(mu, rng), False),
        ("ad(y) added", d + ad(y), mu, False),
        ("ad(diagonal) added", d + ad(diagonal), mu, False),
        ("leading coefficient scaled", d, mu, True),
    ]


def rejected(x, scaled):
    """The verdict: no inner part, or a division that reads a wrong
    coefficient of a nonzero one."""
    return x is None or (scaled and bool(x))


LABELS = (
    "as drawn",
    "image bumped",
    "weight bumped",
    "ad(y) added",
    "ad(diagonal) added",
    "leading coefficient scaled",
)
CASES = [
    pytest.param(n, seed, label, id=f"n{n}-seed{seed}-{label.replace(' ', '-')}")
    for n, seeds in ((2, range(4)), (3, range(4)), (4, range(2)))
    for seed in seeds
    for label in LABELS
]


@pytest.mark.parametrize("n, seed, label", CASES)
def test_the_certificate_raises_exactly_when_the_residual_is_nonzero(n, seed, label):
    cases = {c[0]: c[1:] for c in perturbed(n, 17 * n + seed)}
    d, mu, scaled = cases[label]
    table = table_for(n)
    x = oracle_inner(table, d, mu)
    got = certify(table, d, mu, scaled)
    if rejected(x, scaled):
        assert isinstance(got, QmatError)
        if is_derivation(d):
            assert type(got) is ConditionViolatedError and str(got) == RESIDUAL
    else:
        assert not isinstance(got, Exception)
        assert got.inner == x and got.mu == mu
        assert oracle_residual(d, got.inner, mu).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_both_verdicts_occur(n):
    """The perturbations above reach both verdicts at every size."""
    table = table_for(n)
    verdicts = set()
    for label, d, mu, scaled in perturbed(n, 17 * n):
        verdicts.add(rejected(oracle_inner(table, d, mu), scaled))
    assert verdicts == {True, False}


def test_the_diagonal_is_gauged_into_det_q():
    # ad(Y11 Y22 Y33) = ad(Y11 Y22 Y33 - det_q), and the inner part carries
    # no diagonal power
    d, inner, mu = suite_style(3, 5)
    ctx = d.ctx
    diagonal = MatrixAlgebraElement.monomial(ctx, diagonal_exponent(ctx))
    got = express_hh1(table_for(3), d + ad(diagonal))
    assert got.inner == inner + diagonal - qdet(ctx) and got.mu == mu


def test_a_wrong_inner_coefficient_of_a_derivation_raises_the_residual_error():
    d, inner, mu = suite_style(3, 5)
    assert inner
    got = certify(table_for(3), d, mu, scaled_leader=True)
    assert type(got) is ConditionViolatedError and str(got) == RESIDUAL


@pytest.mark.parametrize("n", [2, 3])
def test_a_term_without_its_generator_is_rejected_before_any_product(n, monkeypatch):
    # a constant in acc[Y(2,2)] would be the term Y^h of x with h = -e_22:
    # the division raises without reading a bracket or forming a product
    ctx = build_context(n)
    acc = {gen: {} for gen in ctx.generators}
    acc[(2, 2)] = {(0,) * (n * n): RF_ONE}
    calls = []
    monkeypatch.setattr(derivations, "_bracket_leader", lambda *a: calls.append(a))
    monkeypatch.setattr(derivations, "_generator_into", lambda *a: calls.append(a))
    with pytest.raises(ConditionViolatedError, match=RESIDUAL):
        derivations._divide_inner_part(ctx, acc)
    assert calls == []


def test_a_diagonal_power_is_rejected():
    # the leading term Y11 Y22 Y33 Y(1,2) of acc[Y(1,2)] would be the
    # diagonal in x, whose brackets have no leading term
    ctx = build_context(3)
    acc = {gen: {} for gen in ctx.generators}
    y12 = unit_exponent(ctx, (1, 2))
    acc[(1, 2)] = {tuple(map(add, diagonal_exponent(ctx), y12)): RF_ONE}
    with pytest.raises(ConditionViolatedError, match=RESIDUAL):
        derivations._divide_inner_part(ctx, acc)
