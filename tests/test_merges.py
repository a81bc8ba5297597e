"""Differential checks of the shared relation table and the single
eliminator against independent oracles."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmat.cli import main
from qmat.context import build_context
from qmat.linalg import _rref, integer_kernel_basis, solve_linear_system
from qmat.matrixalg import normalize_word
from qmat.rational import RF_ONE, RF_ZERO, RationalFunction
from qmat.torus import TorusElement

GOLDEN = Path(__file__).parent / "golden"
Q = RationalFunction.q_power
QDIFF = Q(1) - Q(-1)


def rational_rank(rows) -> int:
    """Rank over Q of an integer matrix given as a list of rows."""
    return len(_rref([[Fraction(c) for c in row] for row in rows]))


# ---------------------------------------------------------------------------
# relation table against the four relations of the matrixalg docstring


def _documented_relation(u, v):
    """(swap coefficient, cross pair or None) of Y_u Y_v for u after v,
    read off the four defining relations as the module documents them."""
    (j, b), (i, a) = u, v
    if i == j:  # Y(i,b) Y(i,a) = q^{-1} Y(i,a) Y(i,b), a < b
        return Q(-1), None
    if a == b:  # Y(j,a) Y(i,a) = q^{-1} Y(i,a) Y(j,a), i < j
        return Q(-1), None
    if a > b:  # Y(j,b) Y(i,a) = Y(i,a) Y(j,b)
        return RF_ONE, None
    # Y(j,b) Y(i,a) = Y(i,a) Y(j,b) - (q - q^{-1}) Y(i,b) Y(j,a)
    return RF_ONE, ((i, b), (j, a))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_relation_table_matches_documented_relations(n):
    ctx = build_context(n)
    gens = ctx.generators
    nn = n * n

    def exp(*gs):
        out = [0] * nn
        for g in gs:
            out[ctx.flat(*g)] += 1
        return tuple(out)

    for ku, u in enumerate(gens):
        assert len(ctx.relations[ku]) == ku
        for kv, v in enumerate(gens[:ku]):
            coeff, cross = _documented_relation(u, v)
            e, flat_cross = ctx.relations[ku][kv]
            assert Q(e) == coeff
            if cross is None:
                assert flat_cross is None
                expected = {exp(v, u): coeff}
            else:
                assert flat_cross == tuple(ctx.flat(*g) for g in cross)
                expected = {exp(v, u): coeff, exp(*cross): -QDIFF}
            assert normalize_word(ctx, (ku, kv)) == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_relation_exponent_is_the_torus_commutation(n):
    # the torus generators q-commute with the table's exponent and no cross term
    ctx = build_context(n)
    for ku, row in enumerate(ctx.relations):
        tu = TorusElement.generator(ctx, ctx.gen_at(ku))
        for kv, (e, _cross) in enumerate(row):
            tv = TorusElement.generator(ctx, ctx.gen_at(kv))
            assert tu * tv == (tv * tu).scale(Q(e))


# ---------------------------------------------------------------------------
# the eliminator against sympy's exact rank and nullspace

small_int_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda rows: st.integers(min_value=1, max_value=6).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(small_int_matrices)
def test_rank_and_kernel_against_sympy(rows):
    sympy = pytest.importorskip("sympy")
    m = sympy.Matrix(rows)
    assert rational_rank(rows) == m.rank()
    ours = integer_kernel_basis(rows)
    theirs = m.nullspace()
    assert len(ours) == len(theirs)
    for vec, ref in zip(ours, theirs):
        # same free-variable normalisation, scaled to a primitive integer vector
        ref = [Fraction(int(c.p), int(c.q)) for c in ref]
        k = next(c for c in range(len(vec)) if ref[c])
        ratio = Fraction(vec[k]) / ref[k]
        assert ratio > 0
        assert [ratio * c for c in ref] == list(vec)
        assert all(sum(r * c for r, c in zip(row, vec)) == 0 for row in rows)


laurent = st.builds(
    lambda c, k: RationalFunction.from_int(c) * Q(k),
    st.integers(-2, 2),
    st.integers(-2, 2),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(laurent, min_size=3, max_size=3), min_size=3, max_size=4),
    st.lists(laurent, min_size=3, max_size=3),
)
def test_solve_over_qq_reproduces_a_consistent_rhs(matrix, x0):
    rhs = [sum((a * x for a, x in zip(row, x0)), RF_ZERO) for row in matrix]
    sol = solve_linear_system(matrix, rhs)
    assert sol is not None
    for row, b in zip(matrix, rhs):
        assert sum((a * x for a, x in zip(row, sol)), RF_ZERO) == b


def test_solve_detects_inconsistency():
    one = RF_ONE
    assert solve_linear_system([[one], [one]], [one, RF_ZERO]) is None
    assert solve_linear_system([[None, None]], [one]) is None


# ---------------------------------------------------------------------------
# canonical suite reports are byte-identical to the recorded ones


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_canonical_suite_matches_golden(n, capsys):
    code = main(["verify-suite", "--n", str(n), "--canonical"])
    out = capsys.readouterr().out
    assert code == 0
    golden = (GOLDEN / f"verify_suite_n{n}_canonical.json").read_text()
    assert out == golden
    assert json.loads(out)["all_pass"] is True
