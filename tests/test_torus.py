import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmat.context import build_context
from qmat.errors import (
    IndexOutOfRangeError,
    NotAMonomialError,
    NotInLatticeError,
    ResourceLimitError,
)
from qmat.limits import get_max_terms, restored_max_terms, set_max_terms
from qmat.rational import RF_ONE, RationalFunction
from qmat.torus import (
    TorusElement,
    commutation_exponent,
    delta_exponents,
    delta_lattice_coordinates,
    is_central_monomial,
    zset_conditions,
)


def exponent_vectors(n, bound=2):
    return st.lists(
        st.integers(min_value=-bound, max_value=bound),
        min_size=n * n,
        max_size=n * n,
    ).map(tuple)


def delta_element(ctx, i):
    return TorusElement.monomial(ctx, delta_exponents(ctx, i))


class TestCommutation:
    def test_n2_generator_swap(self):
        ctx = build_context(2)
        t11 = TorusElement.generator(ctx, (1, 1))
        t12 = TorusElement.generator(ctx, (1, 2))
        # T12 * T11 = q^{-1} T11 * T12
        lhs = t12 * t11
        rhs = (t11 * t12).scale(RationalFunction.q_power(-1))
        assert lhs == rhs

    def test_commuting_pair(self):
        ctx = build_context(2)
        t12 = TorusElement.generator(ctx, (1, 2))
        t21 = TorusElement.generator(ctx, (2, 1))
        assert t12 * t21 == t21 * t12

    @settings(max_examples=50, deadline=None)
    @given(exponent_vectors(2), exponent_vectors(2))
    def test_exponent_antisymmetric_difference(self, g, d):
        # e(g,d) - e(d,g) is the commutator pairing d^T B g
        ctx = build_context(2)
        diff = commutation_exponent(ctx, g, d) - commutation_exponent(ctx, d, g)
        pairing = sum(
            g[b] * d[a] * ctx.B[b][a]
            for b in range(4)
            for a in range(4)
        )
        assert diff == pairing

    @pytest.mark.parametrize("n", [2, 3, 4])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_exponent_matches_dense_double_loop(self, n, data):
        # the sparse loop over nonzero entries against every pair a < b
        ctx = build_context(n)
        g = data.draw(exponent_vectors(n, 3))
        d = data.draw(exponent_vectors(n, 3))
        dense = sum(
            g[b] * d[a] * ctx.B[b][a] for b in range(n * n) for a in range(b)
        )
        assert commutation_exponent(ctx, g, d) == dense

    @settings(max_examples=30, deadline=None)
    @given(exponent_vectors(2, 1), exponent_vectors(2, 1), exponent_vectors(2, 1))
    def test_monomial_associativity(self, a, b, c):
        ctx = build_context(2)
        ta = TorusElement.monomial(ctx, a)
        tb = TorusElement.monomial(ctx, b)
        tc = TorusElement.monomial(ctx, c)
        assert (ta * tb) * tc == ta * (tb * tc)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(exponent_vectors(3, 2), min_size=1, max_size=4),
        st.lists(exponent_vectors(3, 2), min_size=1, max_size=4),
    )
    def test_product_matches_termwise_exponents(self, gs, ds):
        # the product against the pairwise rule T^g T^d = q^e(g,d) T^(g+d)
        ctx = build_context(3)

        def element(exps):
            x = TorusElement(ctx)
            for k, exp in enumerate(exps):
                coeff = RationalFunction((k + 1, 1), (0,) * k + (2,))
                x = x + TorusElement.monomial(ctx, exp, coeff)
            return x

        x, y = element(gs), element(ds)
        expected = TorusElement(ctx)
        for g, cg in x.terms.items():
            for d, cd in y.terms.items():
                e = commutation_exponent(ctx, g, d)
                exp = tuple(a + b for a, b in zip(g, d))
                coeff = cg * cd * RationalFunction.q_power(e)
                expected = expected + TorusElement.monomial(ctx, exp, coeff)
        assert x * y == expected


# operand shapes (terms on the left, terms on the right): one-term left,
# one-term right, both one-term, a zero operand, and multi x multi with the
# smaller side on either side or of equal size
SHAPES = [
    (1, 3), (3, 1), (1, 1), (0, 1), (1, 0), (0, 3), (3, 0), (3, 3), (2, 4), (4, 2),
]


@st.composite
def shaped_operands(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    ctx = build_context(n)
    left, right = draw(st.sampled_from(SHAPES))
    vectors = st.one_of(st.just((0,) * (n * n)), exponent_vectors(n, 2))
    coeffs = st.builds(
        lambda k, v, laurent: (
            RationalFunction.from_int(k) if laurent else RationalFunction((k,), (1, 1))
        ).times_q_power(v),
        st.integers(-2, 2).filter(bool),
        st.integers(-2, 2),
        st.booleans(),
    )

    def element(size):
        exps = draw(st.lists(vectors, min_size=size, max_size=size, unique=True))
        return TorusElement(ctx, {exp: draw(coeffs) for exp in exps})

    return ctx, element(left), element(right)


class TestTranslationProduct:
    """A product translates the larger factor by each term of the smaller
    one; at every n and operand shape it must equal the pairwise rule
    T^g T^d = q^e(g,d) T^(g+d) and store no zero coefficient."""

    @settings(max_examples=150, deadline=None)
    @given(shaped_operands())
    def test_matches_pairwise_exponents(self, operands):
        ctx, x, y = operands
        expected = {}
        for g, cg in x.terms.items():
            for d, cd in y.terms.items():
                exp = tuple(a + b for a, b in zip(g, d))
                e = commutation_exponent(ctx, g, d)
                coeff = cg * cd * RationalFunction.q_power(e)
                expected[exp] = expected[exp] + coeff if exp in expected else coeff
        product = x * y
        assert product.terms == {exp: c for exp, c in expected.items() if c}
        assert all(product.terms.values())

    @staticmethod
    def guard_operands():
        ctx = build_context(2)
        t = {gen: TorusElement.generator(ctx, gen) for gen in ctx.generators}
        small = t[(1, 1)] + t[(1, 2)]
        large = TorusElement.one(ctx) + t[(2, 1)] + t[(2, 2)] + t[(2, 1)] * t[(2, 1)]
        return ((small, large), (large, small))

    def test_term_guard_checks_larger_side_first(self, monkeypatch):
        pairs = self.guard_operands()
        saved = get_max_terms()
        products = []
        real_mul = RationalFunction.__mul__

        def counting_mul(self, other, e=0):
            products.append(e)
            return real_mul(self, other, e)

        monkeypatch.setattr(RationalFunction, "__mul__", counting_mul)
        with restored_max_terms():
            set_max_terms(3)  # the 4-term side alone is over the limit
            for x, y in pairs:
                with pytest.raises(ResourceLimitError):
                    x * y
        assert products == []  # no coefficient was built
        assert get_max_terms() == saved

    def test_term_guard_checks_result(self):
        saved = get_max_terms()
        with restored_max_terms():
            set_max_terms(4)  # both operands fit, the 8-term result does not
            for x, y in self.guard_operands():
                with pytest.raises(ResourceLimitError):
                    x * y
        assert get_max_terms() == saved
        for x, y in self.guard_operands():
            assert len((x * y).terms) == 8


class TestSubtraction:
    """x - y accumulates -c term by term; it must equal x + (-y), with the
    terms in the same order and no zero coefficient kept."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(exponent_vectors(2, 1), st.integers(-2, 2)), max_size=5),
        st.lists(st.tuples(exponent_vectors(2, 1), st.integers(-2, 2)), max_size=5),
    )
    def test_matches_adding_the_negation(self, xs, ys):
        ctx = build_context(2)

        def element(pairs):
            x = TorusElement(ctx)
            for exp, k in pairs:
                coeff = RationalFunction.from_int(k).times_q_power(exp[0])
                x = x + TorusElement.monomial(ctx, exp, coeff)
            return x

        x, y = element(xs), element(ys)
        diff = x - y
        assert list(diff.terms.items()) == list((x + (-y)).terms.items())
        assert all(diff.terms.values())
        assert (x - x).is_zero()
        assert y.terms == element(ys).terms  # the operand is not modified

class TestInversion:
    def test_monomial_inverse(self):
        ctx = build_context(2)
        t = TorusElement.monomial(
            ctx, (1, -2, 3, 0), RationalFunction.q_power(2)
        )
        assert (t * t.invert_monomial()) == TorusElement.one(ctx)
        assert (t.invert_monomial() * t) == TorusElement.one(ctx)

    def test_sum_not_invertible(self):
        ctx = build_context(2)
        s = TorusElement.generator(ctx, (1, 1)) + TorusElement.one(ctx)
        with pytest.raises(NotAMonomialError):
            s.invert_monomial()


class TestCentrality:
    def test_central_criterion_matches_commuting(self):
        ctx = build_context(2)
        for exp in [
            (1, 0, 0, 1),
            (0, 1, -1, 0),
            (1, 0, 0, 0),
            (1, 1, -1, -1),
        ]:
            elem = TorusElement.monomial(ctx, exp)
            assert is_central_monomial(ctx, exp) == (
                elem.commutes_with_all_generators()
            )

    def test_delta_monomials_central(self):
        for n in (2, 3):
            ctx = build_context(n)
            for i in range(1, n + 1):
                assert delta_element(ctx, i).commutes_with_all_generators()

    def test_delta_index_range(self):
        ctx = build_context(2)
        with pytest.raises(IndexOutOfRangeError):
            delta_exponents(ctx, 0)
        with pytest.raises(IndexOutOfRangeError):
            delta_exponents(ctx, 3)


class TestDeltaLattice:
    def test_n2_delta_vectors(self):
        ctx = build_context(2)
        assert delta_exponents(ctx, 1) == (0, 1, -1, 0)
        assert delta_exponents(ctx, 2) == (1, 0, 0, 1)

    def test_coordinates_read_off(self):
        ctx = build_context(3)
        g = tuple(
            2 * a - b + 3 * c
            for a, b, c in zip(
                delta_exponents(ctx, 1),
                delta_exponents(ctx, 2),
                delta_exponents(ctx, 3),
            )
        )
        assert delta_lattice_coordinates(ctx, g) == (2, -1, 3)

    def test_not_in_lattice(self):
        ctx = build_context(2)
        with pytest.raises(NotInLatticeError):
            delta_lattice_coordinates(ctx, (1, 0, 0, 0))


class TestZsetConditions:
    def test_matches_centrality_small_box(self):
        from itertools import product

        ctx = build_context(2)
        for exp in product((-1, 0, 1), repeat=4):
            assert zset_conditions(ctx, exp) == is_central_monomial(ctx, exp)

    def test_counterexample(self):
        ctx = build_context(2)
        assert not zset_conditions(ctx, (1, 0, 0, 0))
        assert zset_conditions(ctx, (1, 0, 0, 1))
