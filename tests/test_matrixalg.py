import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmat.matrixalg as matrixalg
from qmat.context import build_context
from qmat.errors import IndexOutOfRangeError, ResourceLimitError
from qmat.limits import get_max_terms, set_max_terms
from qmat.matrixalg import (
    MatrixAlgebraElement,
    b_minor,
    normalize_word,
    qdet,
    qminor,
    relation_report,
    sigma_automorphism,
)
from qmat.rational import RF_ONE, RationalFunction
from straighten_oracle import oracle_normalize_word


def Y(ctx, i, a):
    return MatrixAlgebraElement.generator(ctx, (i, a))


def _general_coefficients():
    """Elements of Q(q) whose reduced denominator is not c*q^k."""
    ints = st.integers(min_value=-3, max_value=3)
    num = st.lists(ints, min_size=1, max_size=3).filter(any).map(tuple)
    den = st.lists(ints, min_size=2, max_size=3).filter(lambda d: d[0] and d[-1])
    return st.builds(RationalFunction, num, den.map(tuple)).filter(
        lambda c: len(c.r) > 1
    )


def _general_elements(ctx):
    """Elements with 2 or 3 terms of degree at most 2 and general
    coefficients."""
    nn = ctx.n * ctx.n
    exps = st.lists(st.integers(min_value=0, max_value=nn - 1), max_size=2).map(
        lambda word: tuple(word.count(k) for k in range(nn))
    )
    terms = st.dictionaries(exps, _general_coefficients(), min_size=2, max_size=3)
    return terms.map(lambda t: MatrixAlgebraElement(ctx, t))


class TestRelations:
    def test_same_row(self):
        ctx = build_context(2)
        assert Y(ctx, 1, 2) * Y(ctx, 1, 1) == (
            Y(ctx, 1, 1) * Y(ctx, 1, 2)
        ).scale(RationalFunction.q_power(-1))

    def test_same_column(self):
        ctx = build_context(2)
        assert Y(ctx, 2, 1) * Y(ctx, 1, 1) == (
            Y(ctx, 1, 1) * Y(ctx, 2, 1)
        ).scale(RationalFunction.q_power(-1))

    def test_antidiagonal_commutes(self):
        ctx = build_context(2)
        assert Y(ctx, 2, 1) * Y(ctx, 1, 2) == Y(ctx, 1, 2) * Y(ctx, 2, 1)

    def test_diagonal_cross_term(self):
        ctx = build_context(2)
        q_diff = RationalFunction.q_power(1) - RationalFunction.q_power(-1)
        expected = Y(ctx, 1, 1) * Y(ctx, 2, 2) - (
            Y(ctx, 1, 2) * Y(ctx, 2, 1)
        ).scale(q_diff)
        assert Y(ctx, 2, 2) * Y(ctx, 1, 1) == expected

    def test_normalize_word_idempotent_on_sorted(self):
        ctx = build_context(2)
        assert normalize_word(ctx, (0, 1, 3)) == {(1, 1, 0, 1): RF_ONE}

    def test_associativity_random(self):
        ctx = build_context(3)
        rng = random.Random(7)
        gens = [Y(ctx, i, a) for (i, a) in ctx.generators]
        for _ in range(20):
            a, b, c = (rng.choice(gens) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_associativity_general_coefficients(self, data):
        # products of 2-3 term elements whose coefficients have non-Laurent
        # denominators, so straightening multiplies general quotients
        ctx = build_context(3)
        x, y, z = (data.draw(_general_elements(ctx)) for _ in range(3))
        assert (x * y) * z == x * (y * z)

    @pytest.mark.parametrize("n", [2, 3])
    def test_relation_report_on_generators(self, n):
        ctx = build_context(n)
        g = [MatrixAlgebraElement.generator(ctx, gen) for gen in ctx.generators]
        prod = lambda a, b: g[a] * g[b]
        report = relation_report(ctx, prod)
        assert [e["pair"] for e in report] == [
            (ctx.gen_at(u), ctx.gen_at(v)) for u in range(n * n) for v in range(u)
        ]
        assert all(e["ok"] for e in report)
        # without the cross term exactly the pairs that carry one fail
        no_cross = relation_report(ctx, prod, cross_terms=False)
        failed = [e["pair"] for e in no_cross if not e["ok"]]
        assert failed == [
            (ctx.gen_at(u), ctx.gen_at(v))
            for u, row in enumerate(ctx.relations)
            for v, (_e, cross) in enumerate(row)
            if cross
        ]

    def test_negative_exponent_rejected(self):
        ctx = build_context(2)
        with pytest.raises(ValueError):
            MatrixAlgebraElement.monomial(ctx, (-1, 0, 0, 0))


class TestStraightening:
    """normalize_word against the single-swap rewrites it replaced
    (tests/straighten_oracle.py)."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_single_swap_rewrites(self, n, data):
        ctx = build_context(n)
        letters = st.integers(min_value=0, max_value=n * n - 1)
        word = data.draw(st.lists(letters, max_size=8))
        assert normalize_word(ctx, word) == oracle_normalize_word(ctx, word)

    def test_long_word_against_one_generator_at_a_time(self, monkeypatch):
        # Y(2,2)^e Y(1,1)^e has e + 1 terms, but the single-swap rewrites
        # reach its words along many rewrite paths (74 s at e = 8)
        ctx = build_context(2)
        e = 8
        got = MatrixAlgebraElement.monomial(ctx, (0, 0, 0, e)) * (
            MatrixAlgebraElement.monomial(ctx, (e, 0, 0, 0))
        )
        assert len(got.terms) == e + 1
        monkeypatch.setattr(matrixalg, "normalize_word", oracle_normalize_word)
        want = MatrixAlgebraElement.monomial(ctx, (0, 0, 0, e))
        for _ in range(e):
            want = want * Y(ctx, 1, 1)
        assert got == want


class TestDeterminant:
    def test_n2_formula(self):
        ctx = build_context(2)
        expected = Y(ctx, 1, 1) * Y(ctx, 2, 2) - (
            Y(ctx, 1, 2) * Y(ctx, 2, 1)
        ).scale(RationalFunction.q_power(1))
        assert qdet(ctx) == expected

    def test_term_count(self):
        assert len(qdet(build_context(3)).terms) == 6

    def test_central(self):
        for n in (2, 3):
            assert qdet(build_context(n)).commutes_with_all_generators()

    def test_row_scaling_oracle(self):
        # the determinant q-commutes into itself under the defining sum:
        # expanding along the first row with quantum cofactors reproduces it
        ctx = build_context(3)
        det = qdet(ctx)
        acc = MatrixAlgebraElement(ctx)
        for a in range(1, 4):
            rows = (2, 3)
            cols = tuple(c for c in (1, 2, 3) if c != a)
            cof = qminor(ctx, rows, cols)
            sign = RationalFunction.q_power(a - 1)
            if (a - 1) % 2:
                sign = -sign
            acc = acc + (Y(ctx, 1, a) * cof).scale(sign)
        assert acc == det


class TestMinors:
    def test_validation(self):
        ctx = build_context(2)
        with pytest.raises(IndexOutOfRangeError):
            qminor(ctx, (1,), (1, 2))
        with pytest.raises(IndexOutOfRangeError):
            qminor(ctx, (2, 1), (1, 2))
        with pytest.raises(IndexOutOfRangeError):
            qminor(ctx, (1, 3), (1, 2))

    def test_term_guard_trips(self):
        saved = get_max_terms()
        set_max_terms(100)
        try:
            with pytest.raises(ResourceLimitError):
                qdet(build_context(5))  # 120 terms
        finally:
            set_max_terms(saved)

    def test_single_entry(self):
        ctx = build_context(2)
        assert qminor(ctx, (1,), (2,)) == Y(ctx, 1, 2)

    def test_b_minor_endpoints(self):
        ctx = build_context(2)
        assert b_minor(ctx, 0) == MatrixAlgebraElement.one(ctx)
        assert b_minor(ctx, 4) == MatrixAlgebraElement.one(ctx)
        with pytest.raises(IndexOutOfRangeError):
            b_minor(ctx, 5)

    def test_b_minor_n2(self):
        ctx = build_context(2)
        assert b_minor(ctx, 1) == Y(ctx, 1, 2)
        assert b_minor(ctx, 2) == qdet(ctx)
        assert b_minor(ctx, 3) == Y(ctx, 2, 1)

    def test_b_minor_n3_shapes(self):
        ctx = build_context(3)
        assert b_minor(ctx, 1) == Y(ctx, 1, 3)
        assert b_minor(ctx, 3) == qdet(ctx)
        assert b_minor(ctx, 5) == Y(ctx, 3, 1)
        assert len(b_minor(ctx, 2).terms) == 2
        assert len(b_minor(ctx, 4).terms) == 2


class TestSigma:
    def test_generator_weights(self):
        ctx = build_context(2)
        # weight 2(n+1-i-a): Y11 -> q^2, Y12/Y21 -> 1, Y22 -> q^-2
        assert sigma_automorphism(Y(ctx, 1, 1)) == Y(ctx, 1, 1).scale(
            RationalFunction.q_power(2)
        )
        assert sigma_automorphism(Y(ctx, 1, 2)) == Y(ctx, 1, 2)
        assert sigma_automorphism(Y(ctx, 2, 2)) == Y(ctx, 2, 2).scale(
            RationalFunction.q_power(-2)
        )

    def test_fixes_determinant(self):
        for n in (2, 3):
            det = qdet(build_context(n))
            assert sigma_automorphism(det) == det

    def test_multiplicative(self):
        ctx = build_context(2)
        rng = random.Random(11)
        gens = [Y(ctx, i, a) for (i, a) in ctx.generators]
        for _ in range(10):
            x = rng.choice(gens) * rng.choice(gens)
            y = rng.choice(gens) + rng.choice(gens)
            assert sigma_automorphism(x * y) == sigma_automorphism(
                x
            ) * sigma_automorphism(y)
