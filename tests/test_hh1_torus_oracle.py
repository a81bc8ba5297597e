"""express_hh1 against the torus route it replaced.

``express_hh1`` reads mu off the diagonal powers and divides out the
inner part in the algebra; ``hh1_torus_oracle.torus_express_hh1`` lifts
the spec to the torus, splits it, reads mu off the central weights and
rebases the inner part.  Both fix the inner part by leaving out the
diagonal powers, so on every spec they print the same JSON or raise the
same error with the same message.  The specs: suite-style ones, inner
parts on the determinant ray (permutation monomials, the diagonal,
det_q), weights up to det_q^2, and perturbed non-derivations, at
n = 2..5.
"""

import json
import random
from itertools import permutations

import pytest

from basis_sum_oracle import straightened_basis_sum
from hh1_torus_oracle import torus_express_hh1
from qmat.context import build_context
from qmat.derivations import DerivationSpec, ad, express_hh1, is_derivation
from qmat.errors import QmatError
from qmat.matrixalg import MatrixAlgebraElement, qdet
from qmat.rational import RF_ONE, RF_ZERO, RationalFunction
from qmat.serialize import hh1_to_json
from qmat.suite import _random_matrix_element, _random_mu_poly
from qmat.tower import build_table

Q = RationalFunction.q_power
TABLES = {}


def _tables(n):
    """One table per route, so that neither reads what the other stored."""
    if n not in TABLES:
        ctx = build_context(n)
        TABLES[n] = build_table(ctx), build_table(ctx)
    return TABLES[n]


def _outcome(entry, table, d):
    try:
        return json.dumps(hh1_to_json(entry(table, d)))
    except QmatError as exc:
        return type(exc).__name__, str(exc)


def _assert_same(d):
    ours, oracle = _tables(d.ctx.n)
    got = _outcome(express_hh1, ours, d)
    assert got == _outcome(torus_express_hh1, oracle, d)
    return got


def _coeff(rng):
    return RationalFunction.from_int(rng.choice([-3, -1, 1, 2])) * Q(rng.randint(-2, 2))


def _weights(n, rng, top):
    """2n-1 random det_q polynomials of degree <= top."""
    return [
        {k: _coeff(rng) for k in range(top + 1) if rng.random() < 0.5}
        for _ in range(2 * n - 1)
    ]


def _suite_style(n, k):
    """The k-th spec ad(x) + sum_j mu_j(det_q) D_j drawn from 1729 + n."""
    ctx = build_context(n)
    rng = random.Random(1729 + n)
    for _ in range(k + 1):
        x = _random_matrix_element(ctx, rng)
        mu = [_random_mu_poly(ctx, rng) for _ in range(2 * n - 1)]
    return ad(x) + straightened_basis_sum(ctx, mu)


@pytest.mark.parametrize(
    "n, k", [(n, k) for n in (2, 3, 4) for k in range(4)] + [(5, 0), (5, 1)]
)
def test_suite_style_specs(n, k):
    assert not isinstance(_assert_same(_suite_style(n, k)), tuple)


def _permutation_monomial(ctx, perm):
    n = ctx.n
    exp = [0] * (n * n)
    for i, a in enumerate(perm):
        exp[i * n + a] = 1
    return MatrixAlgebraElement.monomial(ctx, tuple(exp))


def _det_ray_inner_parts(n):
    """Inner parts of bidegree (1^n; 1^n): the diagonal, det_q, a few
    permutation monomials and sums of them."""
    ctx = build_context(n)
    perms = list(permutations(range(n)))
    rng = random.Random(31 * n)
    picked = [perms[0], perms[-1]] + rng.sample(perms[1:-1], min(3, len(perms) - 2))
    monomials = [_permutation_monomial(ctx, p) for p in picked]
    diagonal = monomials[0]
    det = qdet(ctx)
    return [
        ("diagonal", diagonal),
        ("det_q", det),
        ("diagonal plus det_q", diagonal + det.scale(Q(1))),
        ("last permutation", monomials[1]),
        ("permutations", sum(monomials[1:], MatrixAlgebraElement(ctx)).scale(Q(-1))),
        ("diagonal and a permutation", diagonal.scale(Q(2)) + monomials[-1]),
    ]


DET_RAY_LABELS = [label for label, _ in _det_ray_inner_parts(2)]
# at n = 5 the torus route takes 8-50 s on a diagonal or on several
# permutation monomials, so only the two light inner parts run there
DET_RAY = [
    pytest.param(n, label, id=f"n{n}-{label.replace(' ', '-')}")
    for n in (2, 3, 4, 5)
    for label in (DET_RAY_LABELS if n < 5 else ("det_q", "last permutation"))
]


@pytest.mark.parametrize("n, label", DET_RAY)
def test_inner_parts_on_the_det_ray(n, label):
    ctx = build_context(n)
    x = dict(_det_ray_inner_parts(n))[label]
    mu = _weights(n, random.Random(n), 1)
    assert not isinstance(_assert_same(ad(x) + straightened_basis_sum(ctx, mu)), tuple)


# at n = 5 the torus route takes about 170 s on a det_q^2 weight
@pytest.mark.parametrize("n, seed", [(n, s) for n in (2, 3, 4) for s in range(2)])
def test_weights_up_to_det_q_squared(n, seed):
    ctx = build_context(n)
    rng = random.Random(100 * n + seed)
    mu = _weights(n, rng, 2)
    mu[rng.randrange(2 * n - 1)][2] = Q(1)
    x = _random_matrix_element(ctx, rng)
    assert not isinstance(_assert_same(ad(x) + straightened_basis_sum(ctx, mu)), tuple)


def _perturbations(d, rng):
    """d with one image changed: a coefficient bumped, a monomial of degree
    1 to 3 added, a term dropped, or the image scaled."""
    ctx = d.ctx
    gen = rng.choice([g for g, v in sorted(d.images.items()) if v])
    terms = dict(d.images[gen].terms)
    exp = rng.choice(sorted(terms))
    bumped = dict(terms)
    bumped[exp] = bumped[exp] + RF_ONE
    added = dict(terms)
    cells = [rng.randrange(ctx.n * ctx.n) for _ in range(rng.randint(1, 3))]
    h = tuple(cells.count(k) for k in range(ctx.n * ctx.n))
    added[h] = added.get(h, RF_ZERO) + _coeff(rng)
    dropped = dict(terms)
    del dropped[exp]
    scaled = {e: c * Q(1) for e, c in terms.items()}
    for label, new in (
        ("bumped", bumped),
        ("added", {e: c for e, c in added.items() if c}),
        ("dropped", dropped),
        ("scaled", scaled),
    ):
        images = dict(d.images)
        images[gen] = MatrixAlgebraElement(ctx, new)
        yield label, DerivationSpec(ctx, "Mq", images)


@pytest.mark.parametrize("n, k", [(2, 0), (2, 1), (3, 0), (3, 1), (4, 0)])
def test_perturbed_non_derivations(n, k):
    d = _suite_style(n, k)
    for label, perturbed in _perturbations(d, random.Random(7 * n + k)):
        got = _assert_same(perturbed)
        if not is_derivation(perturbed):
            assert got[0] == "NotADerivationError", label


def test_a_perturbed_non_derivation_at_n5():
    # one perturbation only: the relation check that names the failing
    # pairs takes about 3 s at n = 5, and both routes run it
    d = _suite_style(5, 0)
    label, perturbed = list(_perturbations(d, random.Random(35)))[-1]
    assert _assert_same(perturbed)[0] == "NotADerivationError"
