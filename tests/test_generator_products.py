"""Products with one generator as a factor, against the full-word product.

``matrixalg._multiply_into`` sends a product whose factor is one degree-1
monomial to ``_generator_into``, which straightens only the rows that the
generator shares with each term (module docstring of ``qmat.matrixalg``).
The oracle is the straightening it replaced for such products: one
``normalize_word`` of the whole concatenated word per term pair.

det_q^2 * Y(i,a) is checked at n <= 5 only: det_q^2 at n = 6 is a product
of 720 x 720 term pairs, too slow for these tests.
"""

import random
from math import factorial

import pytest

import qmat.matrixalg as matrixalg
from qmat.context import build_context
from qmat.derivations import _readers, _weighted_basis_sum
from qmat.errors import ResourceLimitError
from qmat.limits import restored_max_terms, set_max_terms
from qmat.matrixalg import (
    MatrixAlgebraElement,
    _central_times_generator,
    _exp_of,
    _generator_into,
    _word_of,
    normalize_word,
    qdet,
)
from qmat.rational import RF_ONE, RationalFunction
from qmat.sparse import add_into, unit_exponent, zero_exponents
from qmat.suite import _random_matrix_element
from qmat.tower import StepGeneratorTable, _det_multiple


def full_word_product(x, y):
    """x * y with one normalize_word of the whole word per term pair."""
    out = {}
    for g, cg in x.terms.items():
        for d, cd in y.terms.items():
            for e, c in normalize_word(x.ctx, _word_of(g) + _word_of(d)).items():
                add_into(out, e, cg * cd * c)
    return MatrixAlgebraElement(x.ctx, out)


def Y(ctx, gen, coeff=RF_ONE):
    return MatrixAlgebraElement.monomial(ctx, unit_exponent(ctx, gen), coeff)


def word_monomial(ctx, word):
    """The monomial of a word of flat positions."""
    return MatrixAlgebraElement.monomial(ctx, _exp_of(ctx.n * ctx.n, word))


def _general_coefficient(rng):
    """An element of Q(q) whose denominator is not c*q^k."""
    num = (rng.choice([-2, -1, 1, 3]), rng.randint(-2, 2))
    return RationalFunction(num, (1, rng.randint(1, 3)))


def _element(ctx, rng, coefficients):
    """Up to 5 terms of degree 1..4, Laurent or general coefficients."""
    x = _random_matrix_element(ctx, rng, max_degree=4, terms=5)
    if coefficients == "general":
        x = MatrixAlgebraElement(ctx, {e: _general_coefficient(rng) for e in x.terms})
    return x


@pytest.fixture
def straightened_words(monkeypatch):
    """The words that normalize_word is called on, in call order."""
    words = []

    def recording(ctx, word):
        words.append(tuple(word))
        return normalize_word(ctx, word)

    monkeypatch.setattr(matrixalg, "normalize_word", recording)
    return words


# ---------------------------------------------------------------------------
# random elements


@pytest.mark.parametrize("coefficients", ["laurent", "general"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_generator_on_either_side_matches_the_full_word_product(n, coefficients):
    ctx = build_context(n)
    rng = random.Random(10 * n + len(coefficients))
    for _ in range(3):
        x = _element(ctx, rng, coefficients)
        c = _general_coefficient(rng)
        for gen in ctx.generators:
            y, cy = Y(ctx, gen), Y(ctx, gen, c)
            assert x * y == full_word_product(x, y)
            assert y * x == full_word_product(y, x)
            assert x * cy == full_word_product(x, cy)
            assert cy * x == full_word_product(cy, x)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_one_pass_bracket_adds_both_full_word_products(n):
    ctx = build_context(n)
    rng = random.Random(n)
    for gen in ctx.generators:
        x, start = _element(ctx, rng, "laurent"), _element(ctx, rng, "general")
        acc = dict(start.terms)
        _generator_into(acc, ctx, ctx.flat(*gen), x.terms, RF_ONE, -RF_ONE)
        y = Y(ctx, gen)
        want = start + full_word_product(x, y) - full_word_product(y, x)
        assert MatrixAlgebraElement(ctx, acc) == want


# ---------------------------------------------------------------------------
# ordered sides, cross terms and the memo


@pytest.mark.parametrize(
    "left, gen, word",
    [
        # Y(2,2) Y(2,2) Y(2,3) Y(3,1): no letter before (2,2)
        (True, (2, 2), (4, 4, 5, 6)),
        # Y(1,3) Y(2,1) Y(2,2) Y(2,2): no letter after (2,2)
        (False, (2, 2), (2, 3, 4, 4)),
        # only rows other than the generator's on the far side
        (True, (1, 1), (0, 4, 8)),
        (False, (3, 3), (0, 4, 8)),
    ],
)
def test_an_ordered_side_is_one_term_and_straightens_nothing(
    left, gen, word, straightened_words
):
    ctx = build_context(3)
    x, y = word_monomial(ctx, word), Y(ctx, gen)
    got = y * x if left else x * y
    assert got == word_monomial(ctx, word + (ctx.flat(*gen),))
    assert straightened_words == []


@pytest.mark.parametrize(
    "n, left, gen, word, terms",
    [
        # Y(2,2) Y(1,1) = Y(1,1) Y(2,2) - (q - q^-1) Y(1,2) Y(2,1)
        (2, True, (2, 2), (0,), 2),
        (2, False, (1, 1), (3,), 2),
        # a cut part between an untouched Y(3,3) or Y(1,1) and the generator
        (3, True, (2, 2), (0, 8), 2),
        (3, False, (2, 2), (0, 8), 2),
        # the generator crosses letters of several rows
        (3, True, (3, 3), (0, 1, 4), 4),
        (3, False, (1, 1), (4, 8), 3),
    ],
)
def test_a_side_with_cross_terms_matches_the_full_word_product(
    n, left, gen, word, terms
):
    ctx = build_context(n)
    x, y = word_monomial(ctx, word), Y(ctx, gen)
    got = y * x if left else x * y
    assert got == (full_word_product(y, x) if left else full_word_product(x, y))
    assert len(got.terms) == terms


@pytest.mark.parametrize("n", [3, 4])
def test_each_cut_part_of_det_q_is_straightened_once(n, straightened_words):
    # det_q has one letter per row: n!/(n-i)! distinct parts in rows <= i
    # and n!/(i-1)! in rows >= i; det_q Y(i,a) takes the side with fewer
    ctx = build_context(n)
    det = qdet(ctx)
    for i, a in ctx.generators:
        k = ctx.flat(i, a)
        left, right = factorial(n) // factorial(n - i), factorial(n) // factorial(i - 1)
        for scales, parts in (((None, RF_ONE), left), ((RF_ONE, None), right)):
            straightened_words.clear()
            _generator_into({}, ctx, k, det.terms, *scales)
            assert len(straightened_words) <= parts
            assert len(set(straightened_words)) == len(straightened_words)
        straightened_words.clear()
        _central_times_generator(det, k)
        assert len(straightened_words) <= min(left, right)


def test_a_general_product_straightens_whole_words(straightened_words):
    # (Y22 Y33 + Y31)(Y11 Y13 + Y12): one whole word per term pair
    ctx = build_context(3)
    x = word_monomial(ctx, (4, 8)) + Y(ctx, (3, 1))
    y = word_monomial(ctx, (0, 2)) + Y(ctx, (1, 2))
    assert x * y == full_word_product(x, y)
    assert sorted(map(len, straightened_words)) == [2, 3, 3, 4]


# ---------------------------------------------------------------------------
# det_q and det_q^2 times a generator


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_det_q_times_a_generator_from_either_side(n):
    ctx = build_context(n)
    det = qdet(ctx)
    table = StepGeneratorTable(ctx)
    for gen in ctx.generators:
        y = Y(ctx, gen)
        want = full_word_product(det, y)
        assert det * y == want
        assert y * det == want
        assert _det_multiple(table, 1, unit_exponent(ctx, gen)) == want


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_det_q_squared_times_a_generator(n):
    ctx = build_context(n)
    table = StepGeneratorTable(ctx)
    square = _det_multiple(table, 2, zero_exponents(ctx))
    if n <= 4:
        assert square == full_word_product(qdet(ctx), qdet(ctx))
        gens = ctx.generators
    else:
        gens = [(1, 1), (2, 4), (3, 3), (5, 2), (5, 5)]
    for gen in gens:
        y = Y(ctx, gen)
        want = full_word_product(square, y)
        assert _central_times_generator(square, ctx.flat(*gen)) == want
        if n <= 4:
            assert y * square == want
            assert square * y == want


def _factors(ctx):
    """Y^g for g = 0, two generators and Y(1,2) Y(2,1) Y(n,n), which is
    not a generator."""
    n = ctx.n
    words = [(), (ctx.flat(1, 1),), (ctx.flat(n, 2),)]
    words.append((ctx.flat(1, 2), ctx.flat(2, 1), ctx.flat(n, n)))
    return [_exp_of(n * n, w) for w in words]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_det_multiples_match_the_full_word_product(n):
    ctx = build_context(n)
    table = StepGeneratorTable(ctx)
    det = qdet(ctx)
    for k, power in ((1, det), (2, full_word_product(det, det))):
        for g in _factors(ctx):
            y = MatrixAlgebraElement.monomial(ctx, g)
            assert _det_multiple(table, k, g) == full_word_product(power, y), (k, g)


# ---------------------------------------------------------------------------
# the term limit on the new paths


@pytest.mark.parametrize("left", [True, False])
def test_a_generator_product_respects_the_term_limit(left):
    ctx = build_context(3)
    det, y = qdet(ctx), Y(ctx, (2, 2))
    with restored_max_terms():
        set_max_terms(3)
        with pytest.raises(ResourceLimitError, match="quantum-matrix product"):
            _ = y * det if left else det * y


def _square_on_y11(n, powers):
    """A table holding det_q Y(1,1) and det_q^2, and weights that put
    sum_k det_q^k, k in powers, on Y(1,1), the first generator: the
    reader of D_n."""
    ctx = build_context(n)
    mu = [{} for _ in range(2 * n - 1)]
    mu[_readers(n).index((1, 1))] = {k: RF_ONE for k in powers}
    table = StepGeneratorTable(ctx)
    _det_multiple(table, 1, unit_exponent(ctx, (1, 1)))
    _det_multiple(table, 2, zero_exponents(ctx))
    return table, mu


def test_the_det_q_square_product_respects_the_term_limit():
    table, mu = _square_on_y11(3, [2])
    with restored_max_terms():
        set_max_terms(3)
        with pytest.raises(ResourceLimitError, match="quantum-matrix product"):
            _weighted_basis_sum(table, mu)


def test_the_image_of_a_det_q_square_respects_the_term_limit():
    # Y(1,1) det_q^2 is ordered term by term, so its product never holds
    # more than its len(det_q^2) terms; the image adds det_q Y(1,1) to it
    table, mu = _square_on_y11(3, [1, 2])
    with restored_max_terms():
        set_max_terms(len(_det_multiple(table, 2, zero_exponents(table.ctx)).terms))
        with pytest.raises(ResourceLimitError, match="det_q power multiple"):
            _weighted_basis_sum(table, mu)
