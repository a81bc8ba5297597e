"""``lift_to_torus`` against the quotient-rule lift.

``lift_to_torus`` reads the lift off the certified answer of
``express_hh1``.  The oracle ``_checked_lift`` unwinds the tower recursion
step by step (``lift_oracle._lift``) and certifies the result by splitting
it (``decompose_torus_derivation``) inside ``rejecting_non_derivations``.
Both must give the same lift on every derivation, and the same
NotADerivationError on every non-derivation.

det_q^2 weights and ad of the diagonal monomial are covered at n = 2..4
only: at n = 5 the quotient-rule lift of either takes 10-35 s on one core
of a 2-core x86-64 host.
"""

import random
from functools import lru_cache

import pytest

from basis_sum_oracle import straightened_basis_sum
from lift_oracle import _lift
from qmat.context import build_context
from qmat.derivations import (
    DerivationSpec,
    _sl_pivot,
    ad,
    basis_derivation,
    check_derivation,
    decompose_torus_derivation,
    failing_relations,
    lift_to_torus,
    rejecting_non_derivations,
    sl_basis_derivation,
)
from qmat.errors import NotADerivationError
from qmat.matrixalg import MatrixAlgebraElement, qdet
from qmat.rational import RationalFunction
from qmat.suite import _random_matrix_element, _random_mu_poly
from qmat.tower import build_table

Q = RationalFunction.q_power
NS = (2, 3, 4, 5)


@lru_cache(maxsize=None)
def _table(n):
    return build_table(build_context(n))


def _checked_lift(table, d):
    """``lift_to_torus`` as it was: the quotient-rule lift, certified by
    its splitting, and d checked only if either step fails."""
    with rejecting_non_derivations(d):
        lifted = _lift(table, d)
        decompose_torus_derivation(lifted)
    return lifted


def _suite_style(n):
    """The three specs ad(x) + sum_j mu_j(det_q) D_j drawn from 1729 + n."""
    ctx = build_context(n)
    rng = random.Random(1729 + n)
    for _ in range(3):
        x = _random_matrix_element(ctx, rng)
        mu = [_random_mu_poly(ctx, rng) for _ in range(2 * n - 1)]
        yield ad(x) + straightened_basis_sum(ctx, mu)


def _cells_monomial(ctx, cells):
    exp = tuple(int(gen in cells) for gen in ctx.generators)
    return MatrixAlgebraElement.monomial(ctx, exp, Q(1))


def _det_ray(n):
    """ad(x) for x = det_q and the antidiagonal monomial, both of bidegree
    (1^n; 1^n) like the diagonal."""
    ctx = build_context(n)
    yield ad(_cells_monomial(ctx, [(i, n + 1 - i) for i in range(1, n + 1)]))
    yield ad(qdet(ctx))


def _det_squared(n):
    """sum_j mu_j(det_q) D_j with a det_q^2 term in every other weight."""
    ctx = build_context(n)
    yield straightened_basis_sum(
        ctx,
        [
            {0: RationalFunction.from_int(j), 2: Q(j)} if j % 2 else {1: Q(-j)}
            for j in range(1, 2 * n)
        ],
    )


SPECS = {
    "suite": _suite_style,
    "basis": lambda n: (
        basis_derivation(build_context(n), j) for j in range(1, 2 * n)
    ),
    "sl_basis": lambda n: (
        sl_basis_derivation(build_context(n), i)
        for i in range(1, 2 * n)
        if i != _sl_pivot(n)
    ),
    "det_ray": _det_ray,
    "diagonal": lambda n: [
        ad(_cells_monomial(build_context(n), [(i, i) for i in range(1, n + 1)]))
    ],
    "det_squared": _det_squared,
}
HEAVY_AT_5 = ("diagonal", "det_squared")
CASES = [
    (n, kind) for n in NS for kind in SPECS if n < 5 or kind not in HEAVY_AT_5
]


@pytest.mark.parametrize("n, kind", CASES, ids=[f"n{n}-{k}" for n, k in CASES])
def test_lift_matches_the_quotient_rule_lift(n, kind):
    table = _table(n)
    for d in SPECS[kind](n):
        assert lift_to_torus(table, d) == _checked_lift(table, d)


def _perturbed(n, seed):
    """The first suite-style spec with c * Y^h added to one image."""
    ctx = build_context(n)
    rng = random.Random(seed)
    images = dict(next(_suite_style(n)).images)
    gen = rng.choice(ctx.generators)
    exp = [0] * (n * n)
    for _ in range(rng.randint(1, 2)):
        exp[rng.randrange(n * n)] += 1
    coeff = RationalFunction.from_int(rng.choice([-2, -1, 1, 2]))
    images[gen] = images[gen] + MatrixAlgebraElement.monomial(
        ctx, tuple(exp), coeff * Q(rng.randint(-2, 2))
    )
    return DerivationSpec(ctx, "Mq", images)


# the relation check of one perturbed spec at n = 5 takes about 2.5 s, and
# each case runs it three times
PERTURBED = [(n, seed) for n in (2, 3, 4) for seed in range(3)] + [(5, 0)]


@pytest.mark.parametrize("n, seed", PERTURBED)
def test_non_derivation_raises_the_same_error(n, seed):
    d = _perturbed(n, 100 * n + seed)
    bad = failing_relations(check_derivation(d))
    assert bad
    message = f"images violate relations at pairs {bad}"
    for lift in (lift_to_torus, _checked_lift):
        with pytest.raises(NotADerivationError) as info:
            lift(_table(n), d)
        assert str(info.value) == message
