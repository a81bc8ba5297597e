"""The table's one store of det_q multiples, read by the det_q division and
by the HH^1 residual, and its powers det_q^k.

``_weighted_basis_sum`` builds sum_j mu_j(det_q) D_j from the entries
det_q * Y(i,a) that ``tower._det_multiple`` keeps in the table and, for
k >= 2, from det_q^k (``tower._det_power``, formed once per table) times
Y(i,a).  These tests compare it with the straightened oracle in
``basis_sum_oracle.py``, check that a corrupt store entry or power never
yields an answer, and check the term limit on the way.
"""

import random

import pytest

import qmat.derivations as derivations
from basis_sum_oracle import straightened_basis_sum
from qmat.context import build_context
from qmat.derivations import _readers, _weighted_basis_sum, ad, express_hh1
from qmat.errors import ConditionViolatedError, QmatError, ResourceLimitError
from qmat.limits import restored_max_terms, set_max_terms
from qmat.matrixalg import MatrixAlgebraElement
from qmat.rational import RF_ONE, RationalFunction
from qmat.sparse import unit_exponent, zero_exponents
from qmat.suite import _random_matrix_element, _random_mu_poly
from qmat.tower import StepGeneratorTable, _det_multiple, build_table

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
    """Multiply the first coefficient of the stored det_q * Y(gen), or of
    det_q^power when power >= 2, by q."""
    if power == 1:
        terms = table._det_multiples[unit_exponent(table.ctx, gen)].terms
    else:
        terms = table._det_powers[power - 1].terms
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
    det = _det_multiple(table, zero_exponents(ctx)).terms
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
        _det_multiple(table, zero_exponents(ctx))
    elif stored == "every entry":
        _weighted_basis_sum(table, mu)
    with restored_max_terms():
        set_max_terms(3)
        with pytest.raises(ResourceLimitError, match=operation):
            _weighted_basis_sum(table, mu)
