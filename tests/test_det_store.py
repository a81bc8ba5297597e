"""The table's one store of det_q products, read by the det_q division and
by the HH^1 residual, and its one image of det_q, read by the embedding,
the lift and ``gl_express``.

``_weighted_basis_sum`` builds sum_j mu_j(det_q) D_j from
``tower._det_multiple(table, k, Y(i,a))``: the store keeps det_q * Y(i,a)
and det_q^k under the keys (1, e_(i,a)) and (k, 0), and forms
det_q^k * Y(i,a) for k >= 2 per call without keeping it.  These tests
compare the sum with the straightened oracle in ``basis_sum_oracle.py``,
check what the store keeps, check that a corrupt entry never yields an
answer, check the term limit on the way, and check that a table forms
embed(det_q) once (``tower._det_image``).  Each store entry is checked
against the full-word product in ``test_generator_products.py``.
"""

import random

import pytest

import qmat.derivations as derivations
import qmat.tower as tower
from basis_sum_oracle import straightened_basis_sum
from qmat.context import build_context
from qmat.derivations import (
    DerivationSpec,
    _readers,
    _weighted_basis_sum,
    ad,
    express_hh1,
    gl_express,
    lift_to_torus,
)
from qmat.errors import ConditionViolatedError, QmatError, ResourceLimitError
from qmat.limits import restored_max_terms, set_max_terms
from qmat.matrixalg import MatrixAlgebraElement, qdet
from qmat.rational import RF_ONE, RationalFunction
from qmat.sparse import unit_exponent, zero_exponents
from qmat.suite import _random_matrix_element, _random_mu_poly
from qmat.tower import StepGeneratorTable, _det_multiple, build_table, embed

Q = RationalFunction.q_power
RESIDUAL = "reconstruction residual is nonzero"


# ---------------------------------------------------------------------------
# the store-read sum against the straightened oracle


def _weights(n, top, seed):
    """2n-1 random det_q polynomials of degree <= top, one of degree top."""
    rng = random.Random(seed)
    mu = [
        {
            k: RationalFunction.from_int(rng.choice([-2, -1, 1, 3])) * Q(rng.randint(-2, 2))
            for k in range(top + 1)
            if rng.random() < 0.5
        }
        for _ in range(2 * n - 1)
    ]
    mu[rng.randrange(2 * n - 1)][top] = Q(1)
    return mu


@pytest.mark.parametrize(
    "n, top",
    [(2, k) for k in (1, 2, 3)] + [(3, k) for k in (1, 2, 3)] + [(4, 1), (4, 2)],
)
def test_store_read_sum_matches_the_straightened_oracle(n, top):
    ctx = build_context(n)
    mu = _weights(n, top, 100 * n + top)
    expected = straightened_basis_sum(ctx, mu)
    table = StepGeneratorTable(ctx)
    assert _weighted_basis_sum(table, mu) == expected  # fresh store
    assert _weighted_basis_sum(table, mu) == expected  # every entry stored
    # a store that the det_q division filled first
    lifted = build_table(ctx)
    express_hh1(lifted, straightened_basis_sum(ctx, _weights(n, 1, n)))
    assert _weighted_basis_sum(lifted, mu) == expected


def test_the_residual_reads_what_the_lift_stored():
    ctx = build_context(3)
    table = build_table(ctx)
    mu = [{1: Q(1)} if j == 3 else {} for j in range(1, 6)]
    derivations.lift_to_torus(table, straightened_basis_sum(ctx, mu))
    stored = dict(table._det_multiples)
    _weighted_basis_sum(table, mu)
    assert table._det_multiples == stored


# ---------------------------------------------------------------------------
# what the store keeps


def test_det_q_squared_times_a_generator_is_not_kept():
    ctx = build_context(3)
    table = StepGeneratorTable(ctx)
    mu = [{2: RF_ONE}] + [{} for _ in range(4)]
    _weighted_basis_sum(table, mu)
    zero = zero_exponents(ctx)
    assert (1, zero) in table._det_multiples
    assert (2, zero) in table._det_multiples
    assert not [key for key in table._det_multiples if key[0] == 2 and key[1] != zero]


# ---------------------------------------------------------------------------
# one image of det_q per table


def test_a_table_forms_the_image_of_det_q_once(monkeypatch):
    # embed of a det_q-divisible input, the lift and gl_express all read
    # embed(det_q) from the table, so the full-span sum is formed once
    ctx = build_context(3)
    span = (1, 2, 3)
    full_span = []
    original = tower._path_systems

    def counted(table, rows, cols):
        if tuple(rows) == tuple(cols) == span:
            full_span.append(table)
        return original(table, rows, cols)

    d = straightened_basis_sum(ctx, [{1: Q(1)}] + [{} for _ in range(4)])
    other = build_table(ctx)
    det_inv = embed(other, qdet(ctx)).invert_monomial()
    torus = DerivationSpec(
        ctx, "torus", {g: det_inv * embed(other, v) for g, v in d.images.items()}
    )
    monkeypatch.setattr(tower, "_path_systems", counted)
    table = build_table(ctx)
    y = MatrixAlgebraElement.generator(ctx, (1, 2))
    embed(table, qdet(ctx) * y + y)
    lift_to_torus(table, d)
    gl_express(table, torus)
    assert full_span == [table]


# ---------------------------------------------------------------------------
# a corrupt store entry never yields an answer


def _spec(ctx, kind, power):
    """A spec whose residual reads det_q^power * Y(gen), and that gen: the
    reader of a D_j whose weight has a det_q^power term."""
    n = ctx.n
    if kind == "det_q D_1":
        x = MatrixAlgebraElement(ctx)
        mu = [{power: RF_ONE}] + [{} for _ in range(2 * n - 2)]
    else:
        rng = random.Random(1729 + n)
        x = _random_matrix_element(ctx, rng)
        mu = [_random_mu_poly(ctx, rng, power) for _ in range(2 * n - 1)]
    j = next(j for j, m in enumerate(mu) if power in m)
    return ad(x) + straightened_basis_sum(ctx, mu), _readers(n)[j]


def _corrupt(table, gen, power):
    """Multiply the first coefficient of the stored det_q * Y(gen), the
    entry (1, e_gen), or of det_q^power when power >= 2, the entry
    (power, 0), by q."""
    ctx = table.ctx
    if power == 1:
        terms = table._det_multiples[1, unit_exponent(ctx, gen)].terms
    else:
        terms = table._det_multiples[power, zero_exponents(ctx)].terms
    exp = next(iter(terms))
    terms[exp] = terms[exp] * Q(1)


CORRUPTIONS = [
    pytest.param(
        n, kind, power, id=f"{kind.replace(' ', '-')}-n{n}" + "-squared" * (power - 1)
    )
    for n in (2, 3)
    for kind in ("det_q D_1", "suite-style")
    for power in (1, 2)
]


@pytest.mark.parametrize("n, kind, power", CORRUPTIONS)
def test_an_entry_corrupted_after_the_mu_read_fails_the_residual(
    n, kind, power, monkeypatch
):
    ctx = build_context(n)
    table = build_table(ctx)
    d, gen = _spec(ctx, kind, power)
    expected = express_hh1(table, d)  # warm-up: the table now holds the entry
    read = derivations._read_mu

    def corrupting(d):
        mu = read(d)
        _corrupt(table, gen, power)
        return mu

    monkeypatch.setattr(derivations, "_read_mu", corrupting)
    with pytest.raises(ConditionViolatedError) as info:
        express_hh1(table, d)
    assert str(info.value) == RESIDUAL
    assert read(d) == expected.mu


@pytest.mark.parametrize("n, kind, power", CORRUPTIONS)
def test_an_entry_corrupted_before_the_call_yields_no_answer(n, kind, power):
    # the residual's W reads the entry, and mu is read off d, so W differs
    # from the W of d and the division cannot empty the accumulator
    ctx = build_context(n)
    table = build_table(ctx)
    d, gen = _spec(ctx, kind, power)
    express_hh1(table, d)
    _corrupt(table, gen, power)
    with pytest.raises(QmatError):
        express_hh1(table, d)


@pytest.mark.parametrize("n, kind, power", CORRUPTIONS)
def test_a_det_q_scaled_by_a_constant_yields_no_answer(n, kind, power):
    # every det_q * Y(i,a) and det_q^k is then built from q * det_q, so a mu
    # divided by the stored leading coefficient would cancel the scale and
    # return mu / q^k; mu's q-powers come from B, so the residual fails
    ctx = build_context(n)
    table = build_table(ctx)
    d, _ = _spec(ctx, kind, power)
    det = _det_multiple(table, 1, zero_exponents(ctx)).terms
    for exp in det:
        det[exp] = det[exp] * Q(1)
    with pytest.raises(ConditionViolatedError) as info:
        express_hh1(table, d)
    assert str(info.value) == RESIDUAL


# ---------------------------------------------------------------------------
# the term limit


@pytest.mark.parametrize(
    "stored, operation",
    [
        ("nothing", "quantum minor"),
        ("det_q", "quantum-matrix product"),
        ("every entry", "det_q power multiple"),
    ],
)
def test_det_multiples_respect_the_term_limit(stored, operation):
    ctx = build_context(3)
    mu = [{1: RF_ONE}] + [{} for _ in range(4)]
    table = StepGeneratorTable(ctx)
    if stored == "det_q":
        _det_multiple(table, 1, zero_exponents(ctx))
    elif stored == "every entry":
        _weighted_basis_sum(table, mu)
    with restored_max_terms():
        set_max_terms(3)
        with pytest.raises(ResourceLimitError, match=operation):
            _weighted_basis_sum(table, mu)
