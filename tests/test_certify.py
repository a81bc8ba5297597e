"""HH¹ coordinates certified by the zero residual.

``express_hh1`` and ``derivation decompose`` on a torus spec run the
relation check only when the computation fails; these tests pin down that
every non-derivation is still rejected, that the check does not run on the
success path, and that the one-product-per-generator residual matches the
per-basis products it replaced.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmat.derivations as derivations
from qmat.context import build_context
from qmat.derivations import (
    DerivationSpec,
    _weighted_basis,
    _weighted_basis_sum,
    ad,
    basis_derivation,
    check_derivation,
    express_hh1,
    failing_relations,
    lift_to_torus,
)
from qmat.errors import NotADerivationError, NotInSpanError
from qmat.matrixalg import MatrixAlgebraElement, qdet
from qmat.rational import RF_ONE, RationalFunction
from qmat.tower import build_table

Q = RationalFunction.q_power
TABLES = {n: build_table(build_context(n)) for n in (2, 3)}

laurent = st.builds(
    lambda c, k: RationalFunction.from_int(c) * Q(k),
    st.integers(-2, 2).filter(bool),
    st.integers(-2, 2),
)


def exponents(n, max_degree=2):
    return st.lists(
        st.integers(0, n * n - 1), max_size=max_degree
    ).map(lambda cells: tuple(cells.count(k) for k in range(n * n)))


@pytest.fixture
def check_calls(monkeypatch):
    """Count the calls of ``check_derivation`` made through the module."""
    calls = []
    original = derivations.check_derivation

    def counted(d):
        calls.append(d)
        return original(d)

    monkeypatch.setattr(derivations, "check_derivation", counted)
    return calls


def _one_image_only(ctx, gen):
    """Y(1,1) -> Y(1,1) and every other generator -> 0: not a derivation."""
    return DerivationSpec(
        ctx, "Mq", {gen: MatrixAlgebraElement.generator(ctx, gen)}
    )


# ---------------------------------------------------------------------------
# the residual against the per-basis products it replaced


def _documented_basis(ctx, j):
    """D_j as the basis_derivation docstring states it, generator by generator."""
    n = ctx.n
    images = {}
    for (i, a) in ctx.generators:
        g = MatrixAlgebraElement.generator(ctx, (i, a))
        zero = MatrixAlgebraElement(ctx)
        if j < n:
            images[(i, a)] = g if a == n + 1 - j else zero
        elif j == n:
            if (i, a) == (1, 1):
                images[(i, a)] = g
            elif i >= 2 and a >= 2:
                images[(i, a)] = g.scale(-RF_ONE)
            else:
                images[(i, a)] = zero
        else:
            images[(i, a)] = g if i == j - n + 1 else zero
    return DerivationSpec(ctx, "Mq", images)


def _per_basis_sum(ctx, mu):
    """sum_j mu_j(det_q) * D_j with one factor and one product per image of
    every D_j, as the residual was built before."""
    det = qdet(ctx)
    out = DerivationSpec(ctx, "Mq", {})
    for j, weight in enumerate(mu, 1):
        if not weight:
            continue
        factor = MatrixAlgebraElement(ctx)
        for k in sorted(weight):
            power = MatrixAlgebraElement.one(ctx)
            for _ in range(k):
                power = power * det
            factor = factor + power.scale(weight[k])
        base = _documented_basis(ctx, j)
        out = out + DerivationSpec(
            ctx, "Mq", {g: factor * v for g, v in base.images.items()}
        )
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_basis_derivation_matches_documented_rule(n):
    ctx = build_context(n)
    for j in range(1, 2 * n):
        assert basis_derivation(ctx, j) == _documented_basis(ctx, j)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([2, 3]).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.dictionaries(st.integers(0, 2), laurent, max_size=2),
                min_size=2 * n - 1,
                max_size=2 * n - 1,
            ),
        )
    )
)
def test_weighted_basis_sum_matches_per_basis_products(case):
    n, mu = case
    ctx = build_context(n)
    assert _weighted_basis_sum(ctx, mu) == _per_basis_sum(ctx, mu)


def test_single_weight_matches_per_basis_product():
    ctx = build_context(3)
    weight = {0: Q(1), 2: -RF_ONE}
    for j in range(1, 6):
        mu = [weight if k == j else {} for k in range(1, 6)]
        assert _weighted_basis(ctx, j, weight) == _per_basis_sum(ctx, mu)


# ---------------------------------------------------------------------------
# the check runs only on failure


def test_check_skipped_on_success(check_calls):
    ctx = build_context(3)
    x = MatrixAlgebraElement.generator(ctx, (1, 2))
    d = ad(x) + _weighted_basis(ctx, 2, {1: Q(1)})
    coords = express_hh1(TABLES[3], d)
    assert coords.mu[1] == {1: Q(1)}
    assert check_calls == []


def test_check_runs_once_on_failure(check_calls):
    ctx = build_context(2)
    with pytest.raises(NotADerivationError):
        express_hh1(TABLES[2], _one_image_only(ctx, (1, 1)))
    assert len(check_calls) == 1


def test_other_failure_of_a_derivation_is_reraised(check_calls, monkeypatch):
    def no_solution(table, x):
        raise NotInSpanError("forced")

    monkeypatch.setattr(derivations, "_solve_inner_part", no_solution)
    ctx = build_context(2)
    with pytest.raises(NotInSpanError, match="forced"):
        express_hh1(TABLES[2], basis_derivation(ctx, 1))
    assert len(check_calls) == 1


def test_lift_to_torus_still_checks_up_front(check_calls, monkeypatch):
    def unreachable(table, d):
        raise AssertionError("lifted a non-derivation")

    monkeypatch.setattr(derivations, "_lift", unreachable)
    ctx = build_context(2)
    with pytest.raises(NotADerivationError):
        lift_to_torus(TABLES[2], _one_image_only(ctx, (2, 2)))
    assert len(check_calls) == 1


# ---------------------------------------------------------------------------
# perturbed derivations are rejected exactly when a relation fails


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([2, 3]).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(exponents(n), laurent), min_size=1, max_size=2),
            st.integers(1, 2 * n - 1),
            st.integers(0, n * n - 1),
            exponents(n),
            st.one_of(st.just(None), laurent),
        )
    )
)
def test_perturbed_derivation(case):
    n, x_terms, j, cell, h, coeff = case
    ctx = build_context(n)
    table = TABLES[n]
    x = MatrixAlgebraElement(ctx)
    for exp, c in x_terms:
        x = x + MatrixAlgebraElement.monomial(ctx, exp, c)
    d = ad(x) + basis_derivation(ctx, j)
    gen = ctx.generators[cell]
    images = dict(d.images)
    if coeff is not None:
        images[gen] = images[gen] + MatrixAlgebraElement.monomial(ctx, h, coeff)
    perturbed = DerivationSpec(ctx, "Mq", images)

    if failing_relations(check_derivation(perturbed)):
        with pytest.raises(NotADerivationError):
            express_hh1(table, perturbed)
        return
    coords = express_hh1(table, perturbed)
    if perturbed == d:
        assert coords.mu == [
            {0: RF_ONE} if k == j else {} for k in range(1, 2 * n)
        ]
        assert ad(coords.inner) == ad(x)
    else:
        rebuilt = ad(coords.inner) + _weighted_basis_sum(ctx, coords.mu)
        assert rebuilt == perturbed
