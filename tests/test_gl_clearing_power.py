"""``gl_express`` reads its clearing power off the images.

The clearing power is k = max(0, -e(1,1)) over the terms T^e of every
image.  No smaller k can clear a spec, because every term of an embedded
element is natural on the first row and column (no inner corner of a
Cauchon path lies in row 1 or column 1) and embed(det_q) is T^diag with
coefficient 1; ``TestTheFirstRowAndColumn`` checks both facts.

This k is also enough whenever any k is, provided that

    every nonzero r of O_q(M_n) that the diagonal Y11...Ynn divides in no
    term has a term of embed(r) with e(1,1) = 0.                     (*)

For let embed(x) = embed(det_q)^K d(Y) with K > k, and x = det_q y + r
the division by det_q.  Every term of embed(x) has e(1,1) >= K - k >= 1,
and so has every term of embed(det_q) embed(y); then so has every term
of embed(r), and (*) gives r = 0.  So embed(y) = embed(det_q)^(K-1) d(Y),
and K comes down to k one power at a time.
``test_diagonal_free_elements_keep_a_term_off_row_one`` checks (*) on
every monomial of small degree and on random sums, and the differential
tests compare ``gl_express`` with the caller-chosen k of
``gl_oracle._gl_express_at``: the same answer at the smallest k the oracle
accepts, and ``NotInSpanError`` from the oracle one below it.
"""

import random
from functools import lru_cache
from itertools import combinations_with_replacement

import pytest

from basis_sum_oracle import straightened_basis_sum
from gl_oracle import _gl_express_at
from qmat import derivations, tower
from qmat.context import build_context
from qmat.derivations import DerivationSpec, ad, express_hh1, gl_express
from qmat.errors import NotInSpanError
from qmat.matrixalg import MatrixAlgebraElement, qdet
from qmat.rational import RationalFunction
from qmat.serialize import hh1_to_json
from qmat.suite import _random_matrix_element, _random_mu_poly
from qmat.torus import TorusElement
from qmat.tower import _divide_by_det, build_table, embed

Q = RationalFunction.q_power


@lru_cache(maxsize=None)
def _table(n):
    return build_table(build_context(n))


def _off_diagonal_torus(table, d, m):
    """The torus spec embed(det_q)^-m * embed(d(Y)) of an Mq spec d."""
    ctx = table.ctx
    det_inv = embed(table, qdet(ctx)).invert_monomial()
    factor = TorusElement.one(ctx)
    for _ in range(m):
        factor = factor * det_inv
    images = {g: factor * embed(table, v) for g, v in d.images.items()}
    return DerivationSpec(ctx, "torus", images)


@lru_cache(maxsize=None)
def _mq_specs(n):
    """ad(x) + sum_j mu_j(det_q) D_j drawn from 31 + n, det_q D_1, whose
    power is one below m, and ad of the antidiagonal monomial, whose
    bidegree is that of det_q."""
    ctx = build_context(n)
    rng = random.Random(31 + n)
    specs = []
    for _ in range(2 if n < 4 else 1):
        x = _random_matrix_element(ctx, rng)
        mu = [_random_mu_poly(ctx, rng) for _ in range(2 * n - 1)]
        specs.append(ad(x) + straightened_basis_sum(ctx, mu))
    specs.append(straightened_basis_sum(ctx, [{1: Q(1)}] + [{}] * (2 * n - 2)))
    anti = tuple(int(i + a == n + 1) for i, a in ctx.generators)
    specs.append(ad(MatrixAlgebraElement.monomial(ctx, anti, Q(1))))
    return specs


GL_CASES = [
    (n, s, m)
    for n in (2, 3, 4)
    for s in range(len(_mq_specs(n)))
    for m in ((0, 1, 2) if n < 4 else (1, 2))
]


def _oracle_json(table, d, k):
    return hh1_to_json(_gl_express_at(table, d, k))


@pytest.mark.parametrize(
    "n, s, m", GL_CASES, ids=[f"n{n}-spec{s}-m{m}" for n, s, m in GL_CASES]
)
def test_gl_express_matches_the_oracle_at_its_smallest_power(n, s, m):
    table = _table(n)
    d = _off_diagonal_torus(table, _mq_specs(n)[s], m)
    coords = gl_express(table, d)
    k = -coords.det_shift
    # the images of det_q D_1 are divisible by det_q: one power less clears
    divisible = s == len(_mq_specs(n)) - 2
    assert k == max(m - divisible, 0)
    assert hh1_to_json(coords) == _oracle_json(table, d, k)
    if k:
        with pytest.raises(NotInSpanError):
            _gl_express_at(table, d, k - 1)


@pytest.mark.parametrize("n", [2, 3])
def test_a_laurent_inner_part_on_the_det_ray(n):
    """ad(det_q^-1 * y) for y the antidiagonal monomial: the power is 1 and
    the inner part is y itself."""
    table = _table(n)
    d = _off_diagonal_torus(table, _mq_specs(n)[-1], 1)
    coords = gl_express(table, d)
    assert coords.det_shift == -1
    assert all(not m for m in coords.mu)
    assert hh1_to_json(coords) == _oracle_json(table, d, 1)


@pytest.mark.parametrize("n", [2, 3])
def test_a_spec_outside_the_localisation_is_refused_at_every_power(n):
    """ad(T(1,2)^-1): multiplying by embed(det_q)^k leaves e(1,2) = -1 on
    some term, which no embedded element has."""
    table = _table(n)
    ctx = table.ctx
    z = TorusElement.generator(ctx, (1, 2)).invert_monomial()
    images = {}
    for g in ctx.generators:
        y = embed(table, MatrixAlgebraElement.generator(ctx, g))
        images[g] = z * y - y * z
    d = DerivationSpec(ctx, "torus", images)
    with pytest.raises(NotInSpanError):
        gl_express(table, d)
    for k in range(3):
        with pytest.raises(NotInSpanError):
            _gl_express_at(table, d, k)


@pytest.fixture
def embeds(monkeypatch):
    """Every call of embed and rebase_to_matrix_algebra, by name."""
    calls = []
    for module in (derivations, tower):
        for name in ("embed", "rebase_to_matrix_algebra"):
            real = getattr(module, name)

            def spy(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("n", [2, 3, 4])
def test_an_mq_spec_is_express_hh1s_answer_with_no_embed(n, embeds):
    table = _table(n)
    for d in _mq_specs(n):
        coords = gl_express(table, d)
        assert coords.det_shift == 0
        assert hh1_to_json(coords) == hh1_to_json(express_hh1(table, d))
    assert embeds == []


class TestTheFirstRowAndColumn:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_top_entries_are_natural_on_the_first_row_and_column(self, n):
        ctx = build_context(n)
        first = [k for k, (i, a) in enumerate(ctx.generators) if 1 in (i, a)]
        table = build_table(ctx)
        for gen in ctx.generators:
            for e in table.top_entry(gen).terms:
                assert min(e[k] for k in first) >= 0, (gen, e)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_embedded_elements_are_natural_on_the_first_row_and_column(self, n):
        table = _table(n)
        ctx = table.ctx
        first = [k for k, (i, a) in enumerate(ctx.generators) if 1 in (i, a)]
        rng = random.Random(53 + n)
        for _ in range(6):
            x = _random_matrix_element(ctx, rng, max_degree=3, terms=3)
            for e in embed(table, x).terms:
                assert min(e[k] for k in first) >= 0, e

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_embedded_det_q_is_the_diagonal_monomial(self, n):
        ctx = build_context(n)
        diagonal = tuple(int(i == a) for i, a in ctx.generators)
        assert embed(build_table(ctx), qdet(ctx)).terms == {
            diagonal: RationalFunction.from_int(1)
        }


@pytest.mark.parametrize("n, degree", [(2, 4), (3, 3)])
def test_diagonal_free_elements_keep_a_term_off_row_one(n, degree):
    """(*) of the module docstring: every monomial up to the degree that
    the diagonal does not divide, and random diagonal-free sums."""
    table = _table(n)
    ctx = table.ctx
    nn = n * n
    diagonal = [int(i == a) for i, a in ctx.generators]
    elements = []
    for total in range(degree + 1):
        for cells in combinations_with_replacement(range(nn), total):
            exp = [0] * nn
            for k in cells:
                exp[k] += 1
            if any(e < t for e, t in zip(exp, diagonal)):
                elements.append(MatrixAlgebraElement.monomial(ctx, tuple(exp)))
    rng = random.Random(71 + n)
    for _ in range(40):
        _, x = _divide_by_det(table, _random_matrix_element(ctx, rng, 4, 3))
        if x:
            elements.append(x)
    for x in elements:
        assert min(e[0] for e in embed(table, x).terms) == 0, x
