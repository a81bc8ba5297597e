from fractions import Fraction

import pytest

import qmat.context as context
from qmat.context import build_context
from qmat.errors import IndexOutOfRangeError, InvalidDimensionError, ResourceLimitError
from qmat.limits import restored_max_terms, set_max_terms
from qmat.linalg import _rref, integer_kernel_basis


def rational_rank(rows) -> int:
    """Rank over Q of an integer matrix given as a list of rows."""
    return len(_rref([[Fraction(c) for c in row] for row in rows]))


class TestCommutationMatrix:
    def test_n2_matrix(self):
        ctx = build_context(2)
        assert ctx.B == (
            (0, 1, 1, 0),
            (-1, 0, 0, 1),
            (-1, 0, 0, 1),
            (0, -1, -1, 0),
        )

    def test_skew_symmetric(self):
        for n in (2, 3, 4):
            B = build_context(n).B
            for k, row in enumerate(B):
                for l, v in enumerate(row):
                    assert v == -B[l][k]

    def test_same_row_entries(self):
        ctx = build_context(3)
        # within a row, later columns commute past with exponent +1
        assert ctx.B[ctx.flat(2, 1)][ctx.flat(2, 3)] == 1
        assert ctx.B[ctx.flat(2, 3)][ctx.flat(2, 1)] == -1

    def test_cross_row_entries(self):
        ctx = build_context(3)
        # same column, lower row: +1; different row and column: 0
        assert ctx.B[ctx.flat(1, 2)][ctx.flat(3, 2)] == 1
        assert ctx.B[ctx.flat(1, 2)][ctx.flat(3, 1)] == 0


class TestIndexing:
    def test_flat_round_trip(self):
        ctx = build_context(3)
        for k, gen in enumerate(ctx.generators):
            assert ctx.flat(*gen) == k
            assert ctx.gen_at(k) == gen

    def test_flat_out_of_range(self):
        ctx = build_context(2)
        with pytest.raises(IndexOutOfRangeError):
            ctx.flat(0, 1)
        with pytest.raises(IndexOutOfRangeError):
            ctx.flat(1, 3)

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimensionError):
            build_context(1)


class TestDimensionBudget:
    @pytest.fixture
    def contexts_built(self, monkeypatch):
        """The n of every AlgebraContext that build_context constructs, with
        nothing built and the cache bypassed."""
        built = []
        monkeypatch.setattr(context, "AlgebraContext", built.append)
        monkeypatch.setattr(context, "build_context", context.build_context.__wrapped__)
        return built

    def test_n40_raises_before_b_is_built(self, contexts_built):
        with pytest.raises(ResourceLimitError, match=r"^build_context: n = 40 exceeds"):
            context.build_context(40)
        assert contexts_built == []

    def test_the_budget_is_its_own(self, contexts_built):
        # the term limit does not bound the dimension, nor the dimension
        # budget the term limit
        with restored_max_terms():
            set_max_terms(3)
            context.build_context(24)
        with pytest.raises(ResourceLimitError):
            context.build_context(25)
        assert contexts_built == [24]


class TestStepList:
    def test_n2_steps(self):
        ctx = build_context(2)
        assert ctx.E == ((1, 2), (2, 1), (2, 2), (2, 3))
        assert ctx.top_step() == (2, 3)

    def test_lex_ordered(self):
        ctx = build_context(3)
        assert list(ctx.E) == sorted(ctx.E)
        assert (1, 1) not in ctx.E
        assert ctx.E[-1] == (3, 4)


class TestLinearAlgebraHelpers:
    def test_rank(self):
        assert rational_rank([[1, 2], [2, 4]]) == 1
        assert rational_rank([[1, 0], [0, 1]]) == 2

    def test_kernel(self):
        basis = integer_kernel_basis([[1, 1, 0], [0, 0, 1]])
        assert basis == [(-1, 1, 0)] or basis == [(1, -1, 0)]

    def test_kernel_primitive(self):
        (vec,) = integer_kernel_basis([[2, -4]])
        assert vec in ((2, 1), (-2, -1))

    def test_commutation_kernel_rank(self):
        for n in (2, 3, 4):
            B = [list(row) for row in build_context(n).B]
            assert rational_rank(B) == n * n - n
            assert len(integer_kernel_basis(B)) == n
