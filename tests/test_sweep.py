"""The antidiagonal sweep against the formulas it replaced.

Every site that walks the cells of the minors b_i reads ``sweep_cells``.
The formulas they used before are kept here verbatim as oracles: the two
loops of ``delta_exponents``, the diagonal-chain loop of
``zset_conditions``, the rebuild-and-compare of
``delta_lattice_coordinates``, the row and column ranges of ``b_minor``,
the path of suite check tower-04, the factor lists of
``verify_step_factorizations`` and the reader list of ``express_hh1``.
"""

import random

import pytest

from qmat.context import build_context, sweep_cells
from qmat.errors import NotInLatticeError
from qmat.matrixalg import MatrixAlgebraElement, b_minor, qminor
from qmat.torus import delta_exponents, delta_lattice_coordinates, zset_conditions

NS = range(2, 7)


def old_delta_exponents(ctx, i):
    n = ctx.n
    exp = [0] * (n * n)
    for k in range(1, i + 1):
        exp[ctx.flat(k, n - i + k)] = 1
    for m in range(1, n - i + 1):
        exp[ctx.flat(i + m, m)] = -1
    return tuple(exp)


def old_zset_conditions(ctx, g):
    n = ctx.n
    for b in range(1, n + 1):
        v = g[ctx.flat(1, b)]
        for k in range(2, n - b + 2):
            if g[ctx.flat(k, b + k - 1)] != v:
                return False
        for m in range(1, b):
            if g[ctx.flat(n - b + 1 + m, m)] != -v:
                return False
    return True


def old_delta_lattice_coordinates(ctx, g):
    """The coordinates, or None where the old code raised."""
    n = ctx.n
    k = []
    for i in range(1, n + 1):
        # entry at (1, n-i+1) is +k_i
        k.append(g[ctx.flat(1, n - i + 1)])
    total = [0] * (n * n)
    for i in range(1, n + 1):
        if k[i - 1]:
            for pos, e in enumerate(old_delta_exponents(ctx, i)):
                total[pos] += k[i - 1] * e
    if tuple(total) != tuple(g):
        return None
    return tuple(k)


def old_b_minor(ctx, i):
    n = ctx.n
    if i == 0 or i == 2 * n:
        return MatrixAlgebraElement.one(ctx)
    if i <= n:
        return qminor(ctx, range(1, i + 1), range(n - i + 1, n + 1))
    return qminor(ctx, range(i - n + 1, n + 1), range(1, 2 * n - i + 1))


def old_tower04_path(n, i):
    if i <= n:
        path = [(k, n - i + k) for k in range(1, i + 1)]
    else:
        path = [(i - n + k, k) for k in range(1, 2 * n - i + 1)]
    return path


def old_factor_lists(n):
    upper = [(k, k + 1) for k in range(1, n)]
    lower = [(k, k - 1) for k in range(2, n + 1)]
    return upper, lower


def old_readers(n):
    return [(1, a) for a in range(n, 0, -1)] + [(i, 1) for i in range(2, n + 1)]


def lattice_point(ctx, k):
    out = [0] * (ctx.n * ctx.n)
    for i, ki in enumerate(k, 1):
        for pos, e in enumerate(old_delta_exponents(ctx, i)):
            out[pos] += ki * e
    return tuple(out)


def assert_same_predicate(ctx, g):
    old = old_delta_lattice_coordinates(ctx, g)
    assert zset_conditions(ctx, g) == old_zset_conditions(ctx, g) == (old is not None)
    if old is None:
        with pytest.raises(NotInLatticeError):
            delta_lattice_coordinates(ctx, g)
    else:
        assert delta_lattice_coordinates(ctx, g) == old


@pytest.mark.parametrize("n", NS)
def test_cells_are_the_old_paths(n):
    for i in range(2 * n + 1):
        assert list(sweep_cells(n, i)) == old_tower04_path(n, i)
    assert [sweep_cells(n, j)[0] for j in range(1, 2 * n)] == old_readers(n)
    upper, lower = old_factor_lists(n)
    assert list(sweep_cells(n, n - 1)) == upper
    assert list(sweep_cells(n, n + 1)) == lower


@pytest.mark.parametrize("n", NS)
def test_b_minor_matches_the_old_ranges(n):
    ctx = build_context(n)
    for i in range(2 * n + 1):
        assert b_minor(ctx, i) == old_b_minor(ctx, i)


@pytest.mark.parametrize("n", NS)
def test_delta_exponents_match_the_old_loops(n):
    ctx = build_context(n)
    for i in range(1, n + 1):
        assert delta_exponents(ctx, i) == old_delta_exponents(ctx, i)


@pytest.mark.parametrize("n", NS)
def test_one_predicate_on_lattice_points_and_their_perturbations(n):
    ctx = build_context(n)
    rng = random.Random(n)
    for _ in range(50):
        k = tuple(rng.randint(-3, 3) for _ in range(n))
        g = lattice_point(ctx, k)
        assert_same_predicate(ctx, g)
        assert delta_lattice_coordinates(ctx, g) == k
        bumped = list(g)
        bumped[rng.randrange(n * n)] += rng.choice((-1, 1))
        assert_same_predicate(ctx, tuple(bumped))
        assert not zset_conditions(ctx, tuple(bumped))


@pytest.mark.parametrize("n", NS)
def test_one_predicate_on_random_vectors(n):
    ctx = build_context(n)
    rng = random.Random(100 + n)
    for _ in range(300):
        g = tuple(rng.randint(-1, 1) for _ in range(n * n))
        assert_same_predicate(ctx, g)
