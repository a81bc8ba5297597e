"""The reader rule w(i,a) = w(i,1) + w(1,a) - w(1,1) against the formulas
it replaced, kept here verbatim as oracles: the three-branch sign of D_j,
the interchange condition over every pair of rows and columns, the image
loop of D_j and the hand-written determinant-annihilating combinations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmat.context import build_context
import qmat.derivations
from qmat.derivations import (
    DerivationSpec,
    _basis_sign,
    _det_weight,
    _readers,
    _sl_pivot,
    _weighted_basis_sum,
    annihilates_qdet,
    basis_derivation,
    check_z_condition,
    leibniz_extend,
    sl_basis_derivation,
)
from qmat.errors import IndexOutOfRangeError
from qmat.matrixalg import MatrixAlgebraElement, qdet
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


def _loop_basis_derivation(ctx, j):
    """D_j as its own image loop: Y(i,a) -> e * Y(i,a), e the branch sign."""
    images = {
        gen: MatrixAlgebraElement.generator(ctx, gen).scale(
            RationalFunction.from_int(_branch_basis_sign(ctx.n, j, *gen))
        )
        for gen in ctx.generators
    }
    return DerivationSpec(ctx, "Mq", images)


def _hand_sl_basis_derivation(ctx, i):
    """The combinations as written by hand: for n = 2, D_1 - D_3 and D_2;
    for n >= 3 and i != n, D_i + (1/(n-2)) D_n."""
    n = ctx.n
    if n == 2:
        if i == 1:
            return _loop_basis_derivation(ctx, 1) - _loop_basis_derivation(ctx, 3)
        if i == 2:
            return _loop_basis_derivation(ctx, 2)
        raise IndexOutOfRangeError(f"index {i} outside [1, 2] for n = 2")
    if not (1 <= i <= 2 * n - 1) or i == n:
        raise IndexOutOfRangeError(f"index {i} outside [1, {2 * n - 1}] minus {n}")
    return _loop_basis_derivation(ctx, i) + _loop_basis_derivation(ctx, n).scale(
        RationalFunction.from_fraction(1, n - 2)
    )


def _hand_sl_indices(n):
    return [1, 2] if n == 2 else [i for i in range(1, 2 * n) if i != n]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_det_weight_is_the_leibniz_action_on_det_q(n):
    ctx = build_context(n)
    det = qdet(ctx)
    for j in range(1, 2 * n):
        t = RationalFunction.from_int(_det_weight(n, j))
        assert leibniz_extend(basis_derivation(ctx, j), det) == det.scale(t), j


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_basis_derivation_matches_the_image_loop(n):
    ctx = build_context(n)
    for j in range(1, 2 * n):
        assert basis_derivation(ctx, j) == _loop_basis_derivation(ctx, j), j


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sl_combinations_match_the_hand_written_ones(n):
    ctx = build_context(n)
    indices = [i for i in range(1, 2 * n) if i != _sl_pivot(n)]
    assert indices == _hand_sl_indices(n)
    for i in indices:
        d = sl_basis_derivation(ctx, i)
        assert d == _hand_sl_basis_derivation(ctx, i), i
        assert annihilates_qdet(d), i


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sl_combination_refuses_zero_the_pivot_and_2n(n):
    ctx = build_context(n)
    for i in (0, _sl_pivot(n), 2 * n):
        with pytest.raises(IndexOutOfRangeError):
            sl_basis_derivation(ctx, i)
        with pytest.raises(IndexOutOfRangeError):
            _hand_sl_basis_derivation(ctx, i)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_constant_weight_specs_read_no_det_q_multiple(n, monkeypatch):
    def spy(table, k, h):
        raise AssertionError(f"read det_q^{k} * Y^{h}")

    monkeypatch.setattr(qmat.derivations, "_det_multiple", spy)
    ctx = build_context(n)
    with pytest.raises(AssertionError, match="read det_q"):
        _weighted_basis_sum(StepGeneratorTable(ctx), [{1: RF_ONE}] + [{}] * (2 * n - 2))
    for j in range(1, 2 * n):
        basis_derivation(ctx, j)
        if j != _sl_pivot(n):
            sl_basis_derivation(ctx, j)
