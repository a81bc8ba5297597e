"""The reader rule w(i,a) = w(i,1) + w(1,a) - w(1,1) against the two
formulas it replaced, kept here verbatim as oracles: the three-branch sign
of D_j and the interchange condition over every pair of rows and columns."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmat.context import build_context
from qmat.derivations import (
    _basis_sign,
    _readers,
    _weighted_basis_sum,
    check_z_condition,
)
from qmat.errors import IndexOutOfRangeError
from qmat.rational import RF_ONE, RationalFunction
from qmat.torus import TorusElement, delta_exponents
from qmat.tower import StepGeneratorTable


def _branch_basis_sign(n: int, j: int, i: int, a: int) -> int:
    """The sign e in D_j(Y(i,a)) = e * Y(i,a), with e in {-1, 0, 1}."""
    if j < n:
        return 1 if a == n + 1 - j else 0
    if j == n:
        if (i, a) == (1, 1):
            return 1
        return -1 if i >= 2 and a >= 2 else 0
    return 1 if i == j - n + 1 else 0


def _pairwise_z_condition(ctx, z) -> bool:
    """True iff z(i,a) + z(k,d) = z(i,d) + z(k,a) for all i<k, a<d."""
    n = ctx.n
    zero = TorusElement(ctx)
    get = lambda gen: z.get(gen, zero)
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            for a in range(1, n + 1):
                for dcol in range(a + 1, n + 1):
                    if (
                        get((i, a)) + get((k, dcol))
                        - get((i, dcol)) - get((k, a))
                    ):
                        return False
    return True


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_basis_sign_matches_the_branch_formula(n):
    ctx = build_context(n)
    for j in range(1, 2 * n):
        for gen in ctx.generators:
            assert _basis_sign(n, j, *gen) == _branch_basis_sign(n, j, *gen), (j, gen)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_readers_are_the_first_row_then_the_first_column(n):
    row = [(1, a) for a in range(n, 0, -1)]
    column = [(i, 1) for i in range(2, n + 1)]
    assert list(_readers(n)) == row + column


coefficients = st.lists(st.integers(-2, 2), min_size=3, max_size=3)


@st.composite
def weight_grids(draw):
    """z over an n x n grid, n = 2..5: a sum r_i + c_a of a row and a column
    weight (a derivation), optionally perturbed at a few cells and with a
    few keys dropped.  Weights are scalars, or combinations of 1, a torus
    generator and the central monomial Delta_n."""
    n = draw(st.integers(2, 5))
    ctx = build_context(n)
    scalar = draw(st.booleans())
    atoms = [
        TorusElement.one(ctx),
        TorusElement.generator(ctx, (n, 1)),
        TorusElement.monomial(ctx, delta_exponents(ctx, n)),
    ]

    def weight(cs):
        out = TorusElement(ctx)
        for atom, c in zip(atoms[:1] if scalar else atoms, cs):
            out = out + atom.scale(RationalFunction.from_int(c))
        return out

    rows = [draw(coefficients) for _ in range(n)]
    cols = [draw(coefficients) for _ in range(n)]
    z = {
        (i, a): weight([r + c for r, c in zip(rows[i - 1], cols[a - 1])])
        for i, a in ctx.generators
    }
    for gen, cs in draw(
        st.lists(st.tuples(st.sampled_from(ctx.generators), coefficients), max_size=2)
    ):
        z[gen] = z[gen] + weight(cs)
    for gen in draw(st.sets(st.sampled_from(ctx.generators), max_size=2)):
        del z[gen]
    return ctx, z


@settings(max_examples=80, deadline=None)
@given(weight_grids())
def test_z_condition_matches_the_pairwise_interchange(case):
    ctx, z = case
    assert check_z_condition(ctx, z) == _pairwise_z_condition(ctx, z)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_z_condition_holds_on_row_plus_column_weights_only(n):
    ctx = build_context(n)
    t = TorusElement.generator(ctx, (n, 1))
    z = {
        (i, a): t.scale(RationalFunction.from_int(i)) + TorusElement.scalar(
            ctx, RationalFunction.from_int(a * a)
        )
        for i, a in ctx.generators
    }
    assert check_z_condition(ctx, z) and _pairwise_z_condition(ctx, z)
    z[(n, n)] = z[(n, n)] + TorusElement.one(ctx)
    assert not check_z_condition(ctx, z)
    assert not _pairwise_z_condition(ctx, z)


@pytest.mark.parametrize("key", [(7, 7), (0, 1), (1, 4)])
def test_z_condition_refuses_a_key_outside_the_grid(key):
    ctx = build_context(3)
    with pytest.raises(IndexOutOfRangeError):
        check_z_condition(ctx, {key: TorusElement.one(ctx)})


@pytest.mark.parametrize("count", [0, 2, 4, 5])
def test_weighted_basis_sum_refuses_a_weight_list_of_another_length(count):
    ctx = build_context(2)
    mu = [{} for _ in range(count - 1)] + [{0: RF_ONE}] if count else []
    with pytest.raises(IndexOutOfRangeError, match=f"{count} weights, not 3"):
        _weighted_basis_sum(StepGeneratorTable(ctx), mu)
