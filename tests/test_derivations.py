import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basis_sum_oracle import straightened_basis_sum
from hh1_torus_oracle import det_poly_of_central
from qmat.context import build_context
from qmat.derivations import (
    DerivationSpec,
    HH1Coordinates,
    _weighted_basis_sum,
    ad,
    annihilates_qdet,
    basis_derivation,
    central_scaling_spec,
    check_derivation,
    check_z_condition,
    decompose_torus_derivation,
    express_hh1,
    gl_express,
    is_derivation,
    leibniz_extend,
    lift_to_torus,
    mu_sum_constraint,
    sl_basis_derivation,
)
from qmat.errors import (
    ConditionViolatedError,
    InconsistentDecompositionError,
    IndexOutOfRangeError,
    NotADerivationError,
    NotPolynomialError,
)
from qmat.matrixalg import MatrixAlgebraElement, qdet
from qmat.rational import RF_ONE, RF_ZERO, RationalFunction
from qmat.torus import TorusElement, delta_exponents, is_central_monomial
from qmat.tower import StepGeneratorTable, build_table, embed


@pytest.fixture(scope="module")
def t2():
    return build_table(build_context(2))


@pytest.fixture(scope="module")
def t3():
    return build_table(build_context(3))


def Y(ctx, i, a):
    return MatrixAlgebraElement.generator(ctx, (i, a))


def T(ctx, i, a):
    return TorusElement.generator(ctx, (i, a))


def delta_element(ctx, i):
    return TorusElement.monomial(ctx, delta_exponents(ctx, i))


class TestLeibniz:
    def test_scaling_weights_cancel(self):
        ctx = build_context(2)
        d = basis_derivation(ctx, 2)
        # weights +1 on Y11 and -1 on Y22 cancel on the product
        assert leibniz_extend(d, Y(ctx, 1, 1) * Y(ctx, 2, 2)).is_zero()

    def test_derivation_kills_one(self):
        ctx = build_context(2)
        d = basis_derivation(ctx, 1)
        assert leibniz_extend(d, MatrixAlgebraElement.one(ctx)).is_zero()

    def test_ad_commutator_in_torus(self):
        ctx = build_context(2)
        d = ad(T(ctx, 1, 1))
        got = leibniz_extend(d, T(ctx, 1, 2))
        expected = (T(ctx, 1, 1) * T(ctx, 1, 2)).scale(
            RF_ONE - RationalFunction.q_power(-1)
        )
        assert got == expected

    def test_inverse_powers(self):
        ctx = build_context(2)
        d = ad(T(ctx, 1, 1))
        t12 = T(ctx, 1, 2)
        inv_image = leibniz_extend(
            d, t12.invert_monomial()
        )
        # D(t^-1) = -t^-1 D(t) t^-1
        expected = (
            t12.invert_monomial() * leibniz_extend(d, t12) * t12.invert_monomial()
        ).scale(-RF_ONE)
        assert inv_image == expected

    def test_product_rule_random(self):
        ctx = build_context(2)
        rng = random.Random(1)
        d = basis_derivation(ctx, 3) + ad(Y(ctx, 2, 1))
        gens = [Y(ctx, i, a) for (i, a) in ctx.generators]
        for _ in range(10):
            x = rng.choice(gens) * rng.choice(gens)
            y = rng.choice(gens) + rng.choice(gens)
            assert leibniz_extend(d, x * y) == leibniz_extend(d, x) * y + (
                x * leibniz_extend(d, y)
            )


class TestCheckDerivation:
    def test_basis_all_pass(self):
        for n in (2, 3):
            ctx = build_context(n)
            for j in range(1, 2 * n):
                assert is_derivation(basis_derivation(ctx, j))

    def test_inner_passes(self):
        ctx = build_context(2)
        assert is_derivation(ad(Y(ctx, 1, 1)))

    def test_bad_diagonal_fails_on_cross_relation(self):
        ctx = build_context(2)
        # weight 1 on Y11 only violates the interchange condition
        images = {
            gen: Y(ctx, *gen) if gen == (1, 1) else MatrixAlgebraElement(ctx)
            for gen in ctx.generators
        }
        report = check_derivation(DerivationSpec(ctx, "Mq", images))
        failed = [e["pair"] for e in report if not e["ok"]]
        assert failed == [((2, 2), (1, 1))]

    def test_torus_relations(self):
        ctx = build_context(2)
        assert is_derivation(ad(T(ctx, 1, 1)))
        assert is_derivation(
            central_scaling_spec(
                ctx, {gen: delta_element(ctx, 2) for gen in ctx.generators}
            )
        )


class TestBasisDerivations:
    def test_n2_column_fixing(self):
        ctx = build_context(2)
        d = basis_derivation(ctx, 1)
        assert d.images[(1, 2)] == Y(ctx, 1, 2)
        assert d.images[(2, 2)] == Y(ctx, 2, 2)
        assert d.images[(1, 1)].is_zero()
        assert d.images[(2, 1)].is_zero()

    def test_n2_middle(self):
        ctx = build_context(2)
        d = basis_derivation(ctx, 2)
        assert d.images[(1, 1)] == Y(ctx, 1, 1)
        assert d.images[(2, 2)] == Y(ctx, 2, 2).scale(-RF_ONE)
        assert d.images[(1, 2)].is_zero()
        assert d.images[(2, 1)].is_zero()

    def test_n2_row_fixing(self):
        ctx = build_context(2)
        d = basis_derivation(ctx, 3)
        assert d.images[(2, 1)] == Y(ctx, 2, 1)
        assert d.images[(2, 2)] == Y(ctx, 2, 2)
        assert d.images[(1, 1)].is_zero()

    def test_index_range(self):
        ctx = build_context(2)
        with pytest.raises(IndexOutOfRangeError):
            basis_derivation(ctx, 0)
        with pytest.raises(IndexOutOfRangeError):
            basis_derivation(ctx, 4)


class TestZCondition:
    def test_all_equal_passes(self):
        ctx = build_context(2)
        one = TorusElement.one(ctx)
        z = {gen: one for gen in ctx.generators}
        assert check_z_condition(ctx, z)

    def test_single_corner_fails(self):
        ctx = build_context(2)
        z = {gen: TorusElement(ctx) for gen in ctx.generators}
        z[(1, 1)] = TorusElement.one(ctx)
        assert not check_z_condition(ctx, z)

    def test_basis_weight_patterns_pass(self):
        ctx = build_context(3)
        for j in range(1, 6):
            base = basis_derivation(ctx, j)
            z = {}
            for gen in ctx.generators:
                w = base.images[gen]
                coeff = next(iter(w.terms.values()), None)
                z[gen] = (
                    TorusElement.scalar(ctx, coeff)
                    if coeff is not None
                    else TorusElement(ctx)
                )
            assert check_z_condition(ctx, z)


class TestLift:
    def test_lift_d1_n2(self, t2):
        ctx = t2.ctx
        lifted = lift_to_torus(t2, basis_derivation(ctx, 1))
        assert lifted.images[(1, 2)] == T(ctx, 1, 2)
        assert lifted.images[(2, 2)] == T(ctx, 2, 2)
        assert lifted.images[(1, 1)].is_zero()
        assert lifted.images[(2, 1)].is_zero()

    def test_lift_dn_weight_table_n2(self, t2):
        # the lifted diagonal derivation scales T(i,a) by the dictionary
        # weight mu(1,a) + mu(i,1) - mu(1,1) with unit entries
        ctx = t2.ctx
        lifted = lift_to_torus(t2, basis_derivation(ctx, 2))
        assert lifted.images[(1, 1)] == T(ctx, 1, 1)
        assert lifted.images[(1, 2)].is_zero()
        assert lifted.images[(2, 1)].is_zero()
        assert lifted.images[(2, 2)] == T(ctx, 2, 2).scale(-RF_ONE)

    def test_lift_inner_is_inner(self, t2):
        ctx = t2.ctx
        x = Y(ctx, 1, 1)
        lifted = lift_to_torus(t2, ad(x))
        assert lifted == ad(embed(t2, x))

    def test_lift_satisfies_torus_relations(self, t3):
        ctx = t3.ctx
        lifted = lift_to_torus(t3, basis_derivation(ctx, 4))
        assert is_derivation(lifted)

    def test_lift_rejects_non_derivation(self, t2):
        ctx = t2.ctx
        images = {
            gen: Y(ctx, *gen) if gen == (1, 1) else MatrixAlgebraElement(ctx)
            for gen in ctx.generators
        }
        with pytest.raises(NotADerivationError):
            lift_to_torus(t2, DerivationSpec(ctx, "Mq", images))


def _lift_three_term(table, d):
    """The tower lift as it was written before the quotient rule, kept as
    the oracle: D(P^{-1}) built explicitly, a three-product sum per
    correction and a copy of the level per step."""
    ctx = table.ctx
    cur = {gen: embed(table, d.images[gen]) for gen in ctx.generators}
    for idx in range(len(ctx.E) - 2, -1, -1):
        r = ctx.E[idx]
        j, b = r
        if j == 1 or b == 1:
            continue
        nxt_entries = table.entries[ctx.E[idx + 1]]
        pinv = nxt_entries[(j, b)].invert_monomial()
        dp = cur[(j, b)]
        dpinv = (pinv * dp * pinv).scale(-RF_ONE)
        prev = dict(cur)
        for i in range(1, j):
            for a in range(1, b):
                upper = nxt_entries[(i, b)]
                left = nxt_entries[(j, a)]
                correction = (
                    cur[(i, b)] * pinv * left
                    + upper * dpinv * left
                    + upper * pinv * cur[(j, a)]
                )
                prev[(i, a)] = cur[(i, a)] - correction
        cur = prev
    return DerivationSpec(ctx, "torus", cur)


def _random_element(ctx, rng, terms=2, max_degree=2):
    """terms monomials of degree 1..max_degree with coefficients c * q^k."""
    nn = ctx.n * ctx.n
    out = MatrixAlgebraElement(ctx)
    for _ in range(terms):
        exp = [0] * nn
        for _ in range(rng.randint(1, max_degree)):
            exp[rng.randrange(nn)] += 1
        coeff = RationalFunction.from_int(rng.randint(1, 4)) * RationalFunction.q_power(
            rng.randint(-2, 2)
        )
        out = out + MatrixAlgebraElement.monomial(ctx, tuple(exp), coeff)
    return out


def _mu_weighted_spec(ctx, rng):
    """ad(x) + sum_j mu_j(det_q) D_j with random x and deg mu_j <= 1."""
    mu = [
        {
            k: RationalFunction.from_int(rng.randint(1, 4))
            * RationalFunction.q_power(rng.randint(-2, 2))
            for k in range(2)
            if rng.random() < 0.5
        }
        for _ in range(2 * ctx.n - 1)
    ]
    return ad(_random_element(ctx, rng)) + straightened_basis_sum(ctx, mu)


LIFT_TABLES = {n: build_table(build_context(n)) for n in (2, 3, 4)}


class TestQuotientRuleLift:
    """``lift_to_torus`` against the three-term correction that the
    quotient-rule lift replaced."""

    @staticmethod
    def _assert_same_lift(table, d):
        lifted = lift_to_torus(table, d)
        expected = _lift_three_term(table, d)
        for gen in table.ctx.generators:
            assert lifted.images[gen] == expected.images[gen], gen

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_basis_derivations(self, n):
        table = LIFT_TABLES[n]
        for j in range(1, 2 * n):
            self._assert_same_lift(table, basis_derivation(table.ctx, j))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_inner_derivations(self, n, seed):
        table = LIFT_TABLES[n]
        x = _random_element(table.ctx, random.Random(seed))
        self._assert_same_lift(table, ad(x))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_mu_weighted_specs(self, n, seed):
        table = LIFT_TABLES[n]
        self._assert_same_lift(
            table, _mu_weighted_spec(table.ctx, random.Random(seed))
        )


class TestDecompose:
    def test_inner_round_trip(self):
        ctx = build_context(2)
        x = T(ctx, 1, 1)
        dec = decompose_torus_derivation(ad(x))
        assert dec.x == x
        assert all(z.is_zero() for z in dec.z.values())

    def test_purely_central(self):
        ctx = build_context(2)
        weight = delta_element(ctx, 2)
        d = central_scaling_spec(ctx, {gen: weight for gen in ctx.generators})
        dec = decompose_torus_derivation(d)
        assert dec.x.is_zero()
        assert all(z == weight for z in dec.z.values())

    def test_central_summand_dropped(self):
        ctx = build_context(2)
        x = T(ctx, 1, 1) + delta_element(ctx, 2)
        dec = decompose_torus_derivation(ad(x))
        assert dec.x == T(ctx, 1, 1)
        assert all(z.is_zero() for z in dec.z.values())

    def test_inconsistent_input_rejected(self):
        ctx = build_context(2)
        # images that satisfy no Leibniz structure
        images = {gen: T(ctx, 2, 2) for gen in ctx.generators}
        with pytest.raises(InconsistentDecompositionError):
            decompose_torus_derivation(DerivationSpec(ctx, "torus", images))


def _random_exponents(ctx, rng, count):
    nn = ctx.n * ctx.n
    return [tuple(rng.randint(-2, 2) for _ in range(nn)) for _ in range(count)]


class TestScalingFactor:
    """kappa = 1 - q^{(B.gamma)_a}, read off B, against torus products."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_kappa_matches_product_formula(self, n):
        ctx = build_context(n)
        rng = random.Random(70 + n)
        for gamma in _random_exponents(ctx, rng, 6):
            t = TorusElement.monomial(ctx, gamma)
            for row, gen in zip(ctx.B, ctx.generators):
                ta = TorusElement.generator(ctx, gen)
                w = (t * ta - ta * t) * ta.invert_monomial()
                e = sum(b * g for b, g in zip(row, gamma))
                kappa = RF_ONE - RationalFunction.q_power(e)
                assert w.terms.get(gamma, RF_ZERO) == kappa

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_monomial_inner_part_recovered(self, n):
        ctx = build_context(n)
        rng = random.Random(80 + n)
        for gamma in _random_exponents(ctx, rng, 6):
            if is_central_monomial(ctx, gamma):
                continue
            x = TorusElement.monomial(ctx, gamma, RationalFunction.q_power(2))
            dec = decompose_torus_derivation(ad(x))
            assert dec.x == x
            assert all(z.is_zero() for z in dec.z.values())


class TestDetPolyOfCentral:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_det_power_reads_its_exponent(self, n):
        ctx = build_context(n)
        c = RationalFunction((1, 2), (3,))
        power = TorusElement.one(ctx)
        for k in range(4):
            assert det_poly_of_central(power.scale(c)) == {k: c}
            power = power * delta_element(ctx, n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_other_central_direction_rejected(self, n):
        ctx = build_context(n)
        with pytest.raises(ConditionViolatedError):
            det_poly_of_central(delta_element(ctx, 1))

    @pytest.mark.parametrize("n", [2, 3])
    def test_negative_det_power_rejected(self, n):
        ctx = build_context(n)
        with pytest.raises(NotPolynomialError):
            det_poly_of_central(delta_element(ctx, n).invert_monomial())


class TestExpress:
    def test_basis_unit_coordinates(self, t2):
        ctx = t2.ctx
        for j in range(1, 4):
            coords = express_hh1(t2, basis_derivation(ctx, j))
            assert coords.inner.is_zero()
            for k in range(1, 4):
                assert coords.mu[k - 1] == ({0: RF_ONE} if k == j else {})

    def test_inner_coordinates(self, t2):
        ctx = t2.ctx
        coords = express_hh1(t2, ad(Y(ctx, 1, 2)))
        assert all(not m for m in coords.mu)
        assert coords.inner == Y(ctx, 1, 2)

    def test_det_weighted_basis(self, t2):
        ctx = t2.ctx
        d = straightened_basis_sum(ctx, [{1: RF_ONE}, {}, {}])
        coords = express_hh1(t2, d)
        assert coords.mu[0] == {1: RF_ONE}
        assert coords.mu[1] == {} and coords.mu[2] == {}
        assert coords.inner.is_zero()

    def test_zero_spec(self, t2):
        coords = express_hh1(t2, DerivationSpec(t2.ctx, "Mq", {}))
        assert coords.inner.is_zero() and all(not m for m in coords.mu)

    def test_mixed_recovery(self, t3):
        ctx = t3.ctx
        x = Y(ctx, 1, 2) * Y(ctx, 2, 1)
        mu = [{0: RationalFunction.q_power(2)} if k == 4 else {} for k in range(1, 6)]
        d = ad(x) + straightened_basis_sum(ctx, mu)
        coords = express_hh1(t3, d)
        assert coords.mu[3] == {0: RationalFunction.q_power(2)}
        assert sum(len(m) for k, m in enumerate(coords.mu) if k != 3) == 0
        assert (ad(coords.inner) - ad(x)).is_zero()


class TestSL:
    def test_n2_combinations(self):
        ctx = build_context(2)
        d1 = sl_basis_derivation(ctx, 1)
        assert d1 == basis_derivation(ctx, 1) - basis_derivation(ctx, 3)
        assert sl_basis_derivation(ctx, 2) == basis_derivation(ctx, 2)
        with pytest.raises(IndexOutOfRangeError):
            sl_basis_derivation(ctx, 3)

    def test_n3_combination(self):
        ctx = build_context(3)
        d = sl_basis_derivation(ctx, 1)
        assert d == basis_derivation(ctx, 1) + basis_derivation(ctx, 3)
        with pytest.raises(IndexOutOfRangeError):
            sl_basis_derivation(ctx, 3)

    def test_annihilation(self):
        for n in (2, 3):
            ctx = build_context(n)
            indices = [1, 2] if n == 2 else [i for i in range(1, 2 * n) if i != n]
            for i in indices:
                assert annihilates_qdet(sl_basis_derivation(ctx, i))

    def test_d1_alone_does_not_annihilate(self):
        ctx = build_context(2)
        assert not annihilates_qdet(basis_derivation(ctx, 1))

    def test_mu_sum_constraint(self, t3):
        ctx = t3.ctx
        for i in (1, 2, 4, 5):
            coords = express_hh1(t3, sl_basis_derivation(ctx, i))
            assert mu_sum_constraint(coords)
        assert not mu_sum_constraint(express_hh1(t3, basis_derivation(ctx, 1)))

    @pytest.mark.parametrize("count", [0, 2, 4, 6, 7])
    def test_mu_sum_constraint_refuses_a_weight_list_of_another_length(self, count):
        ctx = build_context(3)
        coords = HH1Coordinates(ctx, MatrixAlgebraElement(ctx), [{}] * count)
        with pytest.raises(IndexOutOfRangeError, match=f"{count} weights, not 5"):
            mu_sum_constraint(coords)


def _weights(n, forced):
    """2n-1 Laurent-coefficient weights of det_q degree at most 1; when
    forced, mu_1 is solved from the others so that mu_sum_constraint holds."""
    power = st.integers(0, 1)
    coeff = st.builds(
        lambda c, k: RationalFunction.from_int(c) * RationalFunction.q_power(k),
        st.integers(-2, 2).filter(bool),
        st.integers(-2, 2),
    )
    mu = st.lists(
        st.dictionaries(power, coeff, max_size=2),
        min_size=2 * n - 1,
        max_size=2 * n - 1,
    )
    if not forced:
        return mu

    def solved(mu):
        first = {}
        for j, m in enumerate(mu[1:], 2):
            weight = RationalFunction.from_int(n - 2 if j == n else -1)
            for k, c in m.items():
                first[k] = first.get(k, RF_ZERO) + c * weight
        return [{k: c for k, c in first.items() if c}] + mu[1:]

    return mu.map(solved)


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(st.sampled_from([2, 3, 4]), st.booleans()).flatmap(
        lambda case: st.tuples(st.just(case), _weights(*case))
    )
)
def test_mu_sum_constraint_is_the_leibniz_check_on_det_q(case):
    """The hand-written weights (1 for j != n, 2 - n for j = n) against the
    independent check that sum_j mu_j(det_q) D_j kills det_q."""
    (n, forced), mu = case
    ctx = build_context(n)
    holds = mu_sum_constraint(HH1Coordinates(ctx, MatrixAlgebraElement(ctx), mu))
    assert holds or not forced
    assert holds == annihilates_qdet(_weighted_basis_sum(StepGeneratorTable(ctx), mu))


class TestGL:
    def test_inverse_det_weight(self, t2):
        ctx = t2.ctx
        det_inv = embed(t2, qdet(ctx)).invert_monomial()
        base = basis_derivation(ctx, 1)
        images = {
            gen: det_inv * embed(t2, base.images[gen])
            for gen in ctx.generators
        }
        d = DerivationSpec(ctx, "torus", images)
        coords = gl_express(t2, d)
        assert coords.mu[0] == {-1: RF_ONE}
        assert coords.mu[1] == {} and coords.mu[2] == {}
        assert coords.det_shift == -1

    def test_k_zero_matches_express(self, t2):
        ctx = t2.ctx
        d = basis_derivation(ctx, 2)
        coords = gl_express(t2, d)
        direct = express_hh1(t2, d)
        assert coords.mu == direct.mu
        assert coords.det_shift == 0

    def test_inner_with_central_unit(self, t2):
        ctx = t2.ctx
        det_inv = embed(t2, qdet(ctx)).invert_monomial()
        x = embed(t2, Y(ctx, 1, 1)) * det_inv
        # images on the algebra generators, computed through the embedding
        images = {}
        for gen in ctx.generators:
            g = embed(t2, Y(ctx, *gen))
            images[gen] = x * g - g * x
        spec = DerivationSpec(ctx, "torus", images)
        coords = gl_express(t2, spec)
        assert all(not m for m in coords.mu)
