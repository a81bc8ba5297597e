import fractions
import importlib.util
import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qmat.rational as rational
from basis_sum_oracle import straightened_basis_sum
from qmat.context import build_context
from qmat.derivations import ad, express_hh1
from qmat.matrixalg import MatrixAlgebraElement, qminor
from qmat.rational import (
    RF_ONE,
    RF_ZERO,
    RationalFunction,
    _cancel,
    _coprime,
    _pdiv_exact,
    _pgcd,
    _trim,
)
from qmat.serialize import rf_from_json
from qmat.tower import build_table, embed

small_ints = st.integers(min_value=-6, max_value=6)


def polys(min_len=0, max_len=4):
    return st.lists(small_ints, min_size=min_len, max_size=max_len).map(tuple)


def rationals():
    def build(num, den):
        return RationalFunction(num, den)

    nonzero = polys().filter(lambda p: any(p))
    return st.builds(build, polys(), nonzero)


def shifted_rationals():
    """Quotients whose reduced numerator or denominator often has a power of
    q as a factor, which plain random polynomials rarely give."""
    shifts = st.integers(min_value=0, max_value=3)

    def build(num, den, i, j):
        return RationalFunction((0,) * i + num, (0,) * j + den)

    nonzero = polys().filter(lambda p: any(p))
    return st.builds(build, polys(), nonzero, shifts, shifts)


class TestCanonicalForm:
    def test_zero_has_unit_denominator(self):
        rf = RationalFunction((0,), (3, 5))
        assert rf.num == () and rf.den == (1,)

    def test_common_factor_removed(self):
        rf = RationalFunction((2, 2), (4,))
        assert rf == RationalFunction((1, 1), (2,))

    def test_polynomial_factor_removed(self):
        # (q^2 - 1) / (q - 1) = q + 1
        rf = RationalFunction((-1, 0, 1), (-1, 1))
        assert rf.num == (1, 1) and rf.den == (1,)

    def test_denominator_leading_coefficient_positive(self):
        rf = RationalFunction((1,), (0, -1))
        assert rf.den[-1] > 0 and rf.num == (-1,)

    def test_q_power_negative(self):
        rf = RationalFunction.q_power(-2)
        assert rf.num == (1,) and rf.den == (0, 0, 1)

    def test_monomial_fast_path(self):
        rf = RationalFunction((0, 0, 6), (0, 4))
        assert rf == RationalFunction((0, 3), (2,))


class TestArithmetic:
    def test_add_inverse_powers(self):
        s = RationalFunction.q_power(1) + RationalFunction.q_power(-1)
        # q + 1/q = (q^2 + 1)/q
        assert s.num == (1, 0, 1) and s.den == (0, 1)

    def test_division(self):
        a = RationalFunction((1, 1))
        assert a / a == RF_ONE

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            RF_ZERO.inv()

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction((1,), ())

    def test_from_fraction(self):
        rf = RationalFunction.from_fraction(6, -4)
        assert rf == RationalFunction((-3,), (2,))


class TestFieldAxioms:
    @settings(max_examples=60, deadline=None)
    @given(rationals(), rationals(), rationals())
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(rationals(), rationals())
    def test_commutative(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(rationals(), rationals(), rationals())
    def test_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60, deadline=None)
    @given(rationals())
    def test_additive_inverse(self, a):
        assert (a + (-a)).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(rationals().filter(lambda a: not a.is_zero()))
    def test_multiplicative_inverse(self, a):
        assert a * a.inv() == RF_ONE

    @settings(max_examples=60, deadline=None)
    @given(rationals())
    def test_canonical_equality(self, a):
        # scaling num and den together keeps canonical form fixed
        scaled = RationalFunction(
            tuple(3 * c for c in a.num), tuple(3 * c for c in a.den)
        )
        assert scaled == a
        assert hash(scaled) == hash(a)


def q_powers():
    """c*q^k with c nonzero."""
    return st.builds(
        lambda c, k: (0,) * k + (c,),
        small_ints.filter(bool),
        st.integers(min_value=0, max_value=5),
    )


def _reduce_by_pgcd(num, den):
    """The general reduction: divide by the primitive-PRS gcd, then fix the
    sign of the denominator."""
    num, den = _trim(num), _trim(den)
    if not num:
        return (), (1,)
    g = _pgcd(num, den)
    num, den = _pdiv_exact(num, g), _pdiv_exact(den, g)
    if den[-1] < 0:
        num, den = tuple(-c for c in num), tuple(-c for c in den)
    return num, den


class TestLaurentFastPath:
    """Quotients with one side c*q^k, which reduce to q^v * p / r by the
    valuation v and the integer content alone (no ``_pgcd``), against the
    general primitive-PRS reduction."""

    @settings(max_examples=300, deadline=None)
    @given(polys(), q_powers())
    def test_q_power_denominator_matches_pgcd(self, num, den):
        rf = RationalFunction(num, den)
        assert (rf.num, rf.den) == _reduce_by_pgcd(num, den)

    @settings(max_examples=300, deadline=None)
    @given(q_powers(), polys().filter(any))
    def test_q_power_numerator_matches_pgcd(self, num, den):
        rf = RationalFunction(num, den)
        assert (rf.num, rf.den) == _reduce_by_pgcd(num, den)

    @settings(max_examples=300, deadline=None)
    @given(shifted_rationals(), st.integers(min_value=-6, max_value=6))
    def test_times_q_power_matches_product(self, x, e):
        assert x.times_q_power(e) == x * RationalFunction.q_power(e)


class TestStoredAsGiven:
    """q_power, negation, times_q_power and inv build their results from
    the stored parts (v, p, r) without ``__init__``: negation negates p,
    times_q_power adds to v, inv swaps p and r.  Each result must meet the
    q^v * p / r invariants and be the full reduction of itself."""

    @staticmethod
    def assert_canonical(r):
        full = RationalFunction(r.num, r.den)
        assert type(r.num) is tuple and type(r.den) is tuple
        assert r.num == _trim(r.num) and r.den == _trim(r.den)
        assert (r.num, r.den) == (full.num, full.den)
        assert_invariants(r)

    @settings(max_examples=200, deadline=None)
    @given(shifted_rationals(), st.integers(min_value=-6, max_value=6))
    def test_results_are_canonical(self, x, e):
        self.assert_canonical(RationalFunction.q_power(e))
        self.assert_canonical(-x)
        self.assert_canonical(x.times_q_power(e))
        if x:
            self.assert_canonical(x.inv())


# ---------------------------------------------------------------------------
# q^v * p / r against the num/den form it replaced (tests/rational_oracle.py)

def _load_oracle():
    path = Path(__file__).with_name("rational_oracle.py")
    spec = importlib.util.spec_from_file_location("rational_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


rational_oracle = _load_oracle()
Old = rational_oracle.RationalFunction
shifts = st.integers(min_value=0, max_value=3)


def assert_invariants(x):
    """p and r trimmed with nonzero constant terms, r's leading coefficient
    positive, gcd(p, r) = 1 in Z[q]; zero is (0, (), (1,))."""
    v, p, r = x.v, x.p, x.r
    assert type(v) is int and type(p) is tuple and type(r) is tuple
    if not p:
        assert (v, r) == (0, (1,))
        return
    assert p[0] != 0 and p[-1] != 0
    assert r[0] != 0 and r[-1] > 0
    assert rational_oracle._pgcd(p, r) == (1,)


def raw_pairs():
    """(num, den) as a caller may pass them: general, zero-padded on
    either side, or Laurent (den = c*q^j)."""
    nonzero = polys().filter(any)
    general = st.tuples(polys(), nonzero)
    padded = st.builds(
        lambda n, d, i, j: ((0,) * i + n, (0,) * j + d),
        polys(), nonzero, shifts, shifts,
    )
    laurent = st.builds(
        lambda n, i, c, j: ((0,) * i + n, (0,) * j + (c,)),
        polys(), shifts, small_ints.filter(bool), shifts,
    )
    return st.one_of(general, padded, laurent)


def assert_same(new, old):
    assert_invariants(new)
    assert (new.num, new.den) == (old.num, old.den)
    assert new.to_json() == old.to_json()


def replaced_product(x, y, e=0):
    """x * y * q^e by the formula the cross-cancelling product replaced:
    one gcd of the full products a*b and r*s."""
    a, b = x.p, y.p
    if not a or not b:
        return RF_ZERO
    p, r = rational._reduce(rational._pmul(a, b), rational._pmul(x.r, y.r))
    return rational._rf(x.v + y.v + e, p, r)


def factors():
    """Polynomials of degree at least 1 with a nonzero constant term."""
    return polys(min_len=2).filter(lambda f: f[0] and f[-1])


@st.composite
def cross_sharing_pairs(draw):
    """(x, y) = (q^i a/r, q^j b/s), reduced, where a shares a factor of
    degree >= 1 with s, b shares one with r, or both, and either numerator
    may have a negative leading coefficient."""
    case = draw(st.sampled_from(("a~s", "b~r", "both")))
    one = (1,)
    f = draw(factors()) if case != "b~r" else one
    g = draw(factors()) if case != "a~s" else one
    a, r, b, s = (draw(polys(min_len=1).filter(any)) for _ in range(4))
    i, j, k, m = (draw(shifts) for _ in range(4))
    pmul = rational_oracle._pmul
    x = RationalFunction((0,) * i + pmul(f, a), (0,) * k + pmul(g, r))
    y = RationalFunction((0,) * j + pmul(g, b), (0,) * m + pmul(f, s))
    if draw(st.booleans()):
        x = -x
    if draw(st.booleans()):
        y = -y
    # the shared factor survives the reduction of x and y
    gcd = rational_oracle._pgcd
    if case != "b~r":
        assume(len(gcd(x.p, y.r)) > 1)
    if case != "a~s":
        assume(len(gcd(y.p, x.r)) > 1)
    return x, y


def assert_product(x, y, e=0):
    """x.__mul__(y, e) against the num/den oracle and the replaced formula."""
    got = x.__mul__(y, e)
    old = (Old(x.num, x.den) * Old(y.num, y.den)).times_q_power(e)
    assert_same(got, old)
    want = replaced_product(x, y, e)
    assert (got.v, got.p, got.r) == (want.v, want.p, want.r)


class TestAgainstNumDenOracle:
    @settings(max_examples=300, deadline=None)
    @given(raw_pairs(), raw_pairs(), st.integers(min_value=-6, max_value=6))
    def test_operations_agree(self, x, y, e):
        a, a0 = RationalFunction(*x), Old(*x)
        b, b0 = RationalFunction(*y), Old(*y)
        assert_same(a, a0)
        assert_same(b, b0)
        assert_same(a + b, a0 + b0)
        assert_same(a - b, a0 - b0)
        assert_same(a * b, a0 * b0)
        assert_same(-a, -a0)
        assert_same(a.times_q_power(e), a0.times_q_power(e))
        assert (a == b) == (a0 == b0)
        if a == b:
            assert hash(a) == hash(b)
        if b0:
            assert_same(a / b, a0 / b0)
            # an exact quotient, which Laurent a and b divide with no gcd
            assert_same((a * b) / b, (a0 * b0) / b0)
            assert_same(b.inv(), b0.inv())
        else:
            with pytest.raises(ZeroDivisionError):
                b.inv()

    @settings(max_examples=200, deadline=None)
    @given(
        small_ints.filter(bool),
        polys(),
        polys(),
        shifts,
        st.one_of(
            st.just((1,)),
            q_powers(),
            polys(min_len=2).filter(lambda d: d[0] and d[-1]),
        ),
    )
    def test_cancelling_constant_terms(self, c, t1, t2, i, den):
        # q^i (c + q t1) and q^i (-c + q t2) over one denominator: the sum
        # loses its constant term, so v must move up
        x = ((0,) * i + (c,) + t1, den)
        y = ((0,) * i + (-c,) + t2, den)
        assert_same(
            RationalFunction(*x) + RationalFunction(*y), Old(*x) + Old(*y)
        )
        assert_same(
            RationalFunction(*x) - RationalFunction(*x).times_q_power(1),
            Old(*x) - Old(*x).times_q_power(1),
        )

    @settings(max_examples=200, deadline=None)
    @given(raw_pairs().filter(lambda pr: any(pr[0])))
    def test_inverse_of_negative_leading(self, pair):
        a, a0 = RationalFunction(*pair), Old(*pair)
        if a.p[-1] > 0:
            a, a0 = -a, -a0
        assert a.num[-1] < 0
        assert_same(a.inv(), a0.inv())
        assert a.inv().inv() == a

    @settings(max_examples=200, deadline=None)
    @given(
        raw_pairs(),
        raw_pairs().filter(lambda pr: any(pr[0])),
        st.integers(min_value=-4, max_value=4),
        shifts,
    )
    def test_routes_to_one_value_hash_equally(self, x, y, e, k):
        a, b = RationalFunction(*x), RationalFunction(*y)
        q_e, q_minus_e = RationalFunction.q_power(e), RationalFunction.q_power(-e)
        routes = [
            (a * b) / b,
            (a + b) - b,
            a.times_q_power(e).times_q_power(-e),
            a * q_e * q_minus_e,
            RationalFunction(a.num, a.den),
            RationalFunction((0,) * k + a.num + (0,), (0,) * k + a.den),
            RationalFunction(tuple(-3 * c for c in a.num), tuple(-3 * c for c in a.den)),
            -(-a),
            rf_from_json(a.to_json()),
        ]
        if a:
            routes.append(a.inv().inv())
        for route in routes:
            assert route == a and hash(route) == hash(a)
            assert (route.v, route.p, route.r) == (a.v, a.p, a.r)

    @settings(max_examples=300, deadline=None)
    @given(cross_sharing_pairs(), st.integers(min_value=-6, max_value=6))
    def test_product_cancels_across(self, pair, e):
        x, y = pair
        assert_product(x, y, e)
        assert_product(y, x, e)
        assert_product(x, y.inv())
        assert_same(x / y, Old(x.num, x.den) / Old(y.num, y.den))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=2, max_value=9),
        polys(min_len=1).filter(any),
        polys(min_len=1).filter(any),
        polys(min_len=1).filter(any),
        polys(min_len=1).filter(any),
    )
    def test_product_cancels_integer_content(self, k, m, a, r, b, s):
        # k divides a's and s's content, m divides b's and r's
        x = RationalFunction(tuple(k * c for c in a), tuple(m * c for c in r))
        y = RationalFunction(tuple(m * c for c in b), tuple(k * c for c in s))
        assert_product(x, y)
        assert_product(y, x)

    def test_product_of_integer_fractions(self):
        x = RationalFunction.from_fraction(2, 3) * RationalFunction.from_fraction(9, 4)
        assert x == RationalFunction.from_fraction(3, 2)
        assert_product(RationalFunction((2,), (3,)), RationalFunction((9,), (4,)))

    @settings(max_examples=300, deadline=None)
    @given(
        shifted_rationals(),
        shifted_rationals(),
        st.integers(min_value=-6, max_value=6).filter(bool),
    )
    def test_product_with_valuations(self, x, y, e):
        assert_product(x, y)
        assert_product(x, y, e)
        if y:
            assert_product(x, y.inv(), e)
            assert_same(x / y, Old(x.num, x.den) / Old(y.num, y.den))


@pytest.fixture
def pgcd_calls(monkeypatch):
    """Calls of the polynomial gcd, of the coprimality proof and of the
    integer-content gcd."""
    calls = []
    for name in ("_pgcd", "_coprime", "_int_gcd"):
        original = getattr(rational, name)

        def counted(*args, name=name, original=original):
            calls.append((name, args))
            return original(*args)

        monkeypatch.setattr(rational, name, counted)
    return calls


class TestProductGcdCounts:
    """The product cancels gcd(a, s) and gcd(b, r) of its reduced factors
    (a/r)(b/s) and nothing else: a one-term Laurent factor meets only an
    integer gcd, and two Laurent factors meet none."""

    GENERAL = RationalFunction((3, -1, 2), (1, 0, 2))  # (3 - q + 2q^2)/(1 + 2q^2)
    SHARING = RationalFunction((1, 0, 2), (0, 5, 1, 2))  # (1 + 2q^2)/(q(5 + q + 2q^2))

    @pytest.mark.parametrize(
        "laurent",
        [
            RationalFunction((6,)),
            RationalFunction((0, 0, -4)),
            RationalFunction.q_power(-3),
            RationalFunction((1,), (0, 2)),
        ],
    )
    def test_one_term_laurent_factor_takes_no_pgcd(self, pgcd_calls, laurent):
        for x, y in ((self.GENERAL, laurent), (laurent, self.GENERAL)):
            del pgcd_calls[:]
            got = x * y
            assert [name for name, _ in pgcd_calls if name == "_pgcd"] == []
            assert got == replaced_product(x, y)

    def test_laurent_factors_take_no_gcd(self, pgcd_calls):
        x = RationalFunction((2, -1, 3))
        y = RationalFunction((0, 4, 0, -1), (0, 0, 1))
        del pgcd_calls[:]
        products = [x * y, y * x, x.__mul__(y, 2), x * RationalFunction((0, 7))]
        assert pgcd_calls == []
        assert products[0] == RationalFunction((0, 8, -4, 10, 1, -3), (0, 0, 1))

    def test_general_product_runs_only_the_cross_gcds(self, pgcd_calls):
        x, y = self.GENERAL, self.SHARING
        del pgcd_calls[:]
        got = x * y
        coprimes = [args for name, args in pgcd_calls if name == "_coprime"]
        pgcds = [args for name, args in pgcd_calls if name == "_pgcd"]
        assert coprimes == [(x.p, y.r), (y.p, x.r)]
        # only y.p and x.r share a factor, 1 + 2q^2, so only they need the PRS gcd
        assert pgcds == [(y.p, x.r)]
        assert got == RationalFunction((3, -1, 2), (0, 5, 1, 2))


    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("m", [-3, 0, 2])
    def test_unit_factor_takes_no_gcd(self, pgcd_calls, sign, m):
        unit = RationalFunction.q_power(m)
        unit = unit if sign > 0 else -unit
        laurent = RationalFunction((2, -1, 3))
        for other in (self.GENERAL, self.SHARING, laurent, RF_ZERO):
            for x, y in ((unit, other), (other, unit)):
                del pgcd_calls[:]
                got = x.__mul__(y, 5)
                assert pgcd_calls == []
                assert got == replaced_product(x, y, 5)


class TestUnitShift:
    """A product with a unit +-q^m shifts v and at most negates p; the
    result is the canonical product."""

    @staticmethod
    def units():
        def unit(m, negative):
            u = RationalFunction.q_power(m)
            return -u if negative else u

        return st.builds(unit, st.integers(min_value=-6, max_value=6), st.booleans())

    @staticmethod
    def others():
        laurent = st.builds(
            lambda num, j: RationalFunction(num, (0,) * j + (1,)), polys(), shifts
        )
        return st.one_of(shifted_rationals(), laurent, st.just(RF_ZERO))

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(min_value=-6, max_value=6))
    def test_unit_products_are_the_canonical_products(self, data, e):
        u = data.draw(self.units())
        x = data.draw(self.others())
        for got, want in (
            (u * x, replaced_product(u, x)),
            (x * u, replaced_product(x, u)),
            (x.__mul__(u, e), replaced_product(x, u, e)),
            (u.__mul__(x, e), replaced_product(u, x, e)),
        ):
            TestStoredAsGiven.assert_canonical(got)
            assert (got.v, got.p, got.r) == (want.v, want.p, want.r)


class TestNoGcdOnLaurentPath:
    """Laurent coefficients (r = (1,)) are closed under +, - and * and never
    reach a gcd, neither ``_pgcd`` nor the integer content.  An inner part
    takes none either: the decomposition divides its coefficients by
    1 - q^e, and for x in the algebra that quotient is exact and Laurent."""

    def test_express_hh1_n3(self, pgcd_calls):
        Q = RationalFunction.q_power
        two = RationalFunction.from_int(2)
        mu = [
            {0: two * Q(-1) - Q(2), 1: Q(1)},
            {},
            {1: two - Q(3)},
            {0: -Q(-2)},
            {0: Q(1) + Q(-1), 1: -two},
        ]
        ctx = build_context(3)
        table = build_table(ctx)
        coords = express_hh1(table, straightened_basis_sum(ctx, mu))
        assert coords.mu == mu and coords.inner.is_zero()
        assert pgcd_calls == []

    def test_express_hh1_with_inner_part_n3(self, pgcd_calls):
        Q = RationalFunction.q_power
        two = RationalFunction.from_int(2)
        ctx = build_context(3)

        def Y(i, a):
            return MatrixAlgebraElement.generator(ctx, (i, a))

        x = (
            (Y(1, 2) * Y(3, 1)).scale(two * Q(-1))
            + Y(2, 3).scale(Q(2))
            + (Y(1, 1) * Y(2, 2)).scale(Q(1) + Q(-1))
        )
        mu = [{0: two * Q(-1) - Q(2), 1: Q(1)}, {}, {1: two - Q(3)}, {}, {0: -Q(-2)}]
        table = build_table(ctx)
        coords = express_hh1(table, ad(x) + straightened_basis_sum(ctx, mu))
        assert coords.mu == mu and coords.inner == x
        assert pgcd_calls == []

    def test_embed_minor_n4(self, pgcd_calls):
        ctx = build_context(4)
        image = embed(build_table(ctx), qminor(ctx, (1, 2, 3), (2, 3, 4)))
        assert image.is_monomial()
        assert all(c.r == (1,) for c in image.terms.values())
        assert pgcd_calls == []


def cancel_inputs(min_len=1):
    """Trimmed nonzero polynomials with nonzero constant terms, with small
    or large coefficients."""
    ints = st.one_of(small_ints, st.integers(min_value=-(10**9), max_value=10**9))
    return st.lists(ints, min_size=min_len, max_size=4).map(tuple).filter(
        lambda f: f[0] and f[-1]
    )


@st.composite
def cancel_pairs(draw):
    """(p, r) as ``_cancel`` receives them, often with a common factor of
    positive degree, an integer one, or both."""
    pmul = rational_oracle._pmul
    p, r = draw(cancel_inputs()), draw(cancel_inputs())
    if draw(st.booleans()):
        h = draw(cancel_inputs(min_len=2))
        p, r = pmul(p, h), pmul(r, h)
    k = draw(st.sampled_from((1, 1, 2, -3, 6)))
    return tuple(c * k for c in p), tuple(c * k for c in r)


def prs_cancel(p, r):
    """The cancel rule before ``_coprime``: the PRS gcd unless r is 1."""
    if r == (1,):
        return p, r
    g = _pgcd(p, r)
    return _pdiv_exact(p, g), _pdiv_exact(r, g)


class TestCoprimeProof:
    """``_coprime`` proves gcd(p, r) constant from the values at one large
    point, or declines; ``_cancel`` then takes the integer content."""

    @settings(max_examples=100, deadline=None)
    @given(cancel_inputs(), cancel_inputs(), cancel_inputs(min_len=2))
    def test_common_factor_is_never_ruled_out(self, p, r, h):
        pmul = rational_oracle._pmul
        assert not _coprime(pmul(p, h), pmul(r, h))

    @settings(max_examples=100, deadline=None)
    @given(cancel_pairs())
    def test_a_proof_leaves_a_constant_gcd(self, pair):
        if _coprime(*pair):
            assert len(_pgcd(*pair)) == 1

    @settings(max_examples=150, deadline=None)
    @given(cancel_pairs())
    def test_cancel_equals_the_prs_rule(self, pair):
        assert _cancel(*pair) == prs_cancel(*pair)

    @settings(max_examples=60, deadline=None)
    @given(cancel_pairs())
    def test_matches_sympy_gcd(self, pair):
        sympy = pytest.importorskip("sympy")
        q = sympy.Symbol("q")
        p, r = (sympy.Poly(list(reversed(f)), q, domain="ZZ") for f in pair)
        g = sympy.gcd(p, r)
        if g.LC() < 0:
            g = -g
        if _coprime(*pair):
            assert g.degree() == 0
        want = tuple(
            tuple(int(c) for c in reversed(sympy.div(f, g)[0].all_coeffs()))
            for f in (p, r)
        )
        assert _cancel(*pair) == want


class TestSympyOracle:
    """Sampled cross-check of the canonical form against sympy.cancel."""

    @settings(max_examples=60, deadline=None)
    @given(
        shifted_rationals(), rationals(), st.integers(min_value=-4, max_value=4)
    )
    def test_matches_sympy_cancel(self, a, b, e):
        sympy = pytest.importorskip("sympy")
        q = sympy.Symbol("q")

        def expr(p):
            return sum(c * q**k for k, c in enumerate(p))

        def value(x):
            return expr(x.num) / expr(x.den)

        def monic_form(num, den):
            pn, pd = sympy.Poly(num, q, domain="QQ"), sympy.Poly(den, q, domain="QQ")
            lc = pd.LC()
            return (pn * (1 / lc)).all_coeffs(), (pd * (1 / lc)).all_coeffs()

        for ours, exact in (
            (a + b, value(a) + value(b)),
            (a * b, value(a) * value(b)),
            (a.times_q_power(e), value(a) * q**e),
        ):
            sn, sd = sympy.fraction(sympy.cancel(exact))
            assert monic_form(expr(ours.num), expr(ours.den)) == monic_form(sn, sd)
            # primitive over Z as well as reduced over Q
            assert math.gcd(*ours.num, *ours.den) == 1


class TestEvaluationOracle:
    """Compare against exact evaluation at a rational point q = 5/3."""

    @staticmethod
    def _eval(p, q):
        return sum(fractions.Fraction(c) * q**k for k, c in enumerate(p))

    @settings(max_examples=40, deadline=None)
    @given(rationals(), rationals())
    def test_product_evaluates(self, a, b):
        q = fractions.Fraction(5, 3)
        prod = a * b
        if 0 in (
            self._eval(prod.den, q),
            self._eval(a.den, q),
            self._eval(b.den, q),
        ):
            return  # a random denominator vanished at the sample point
        lhs = self._eval(prod.num, q) / self._eval(prod.den, q)
        rhs = (
            self._eval(a.num, q)
            / self._eval(a.den, q)
            * self._eval(b.num, q)
            / self._eval(b.den, q)
        )
        assert lhs == rhs


class TestSerialization:
    @settings(max_examples=40, deadline=None)
    @given(rationals())
    def test_round_trip(self, a):
        assert rf_from_json(a.to_json()) == a

    def test_shape(self):
        assert RF_ONE.to_json() == {"num": [1], "den": [1]}
