import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmat.context import build_context
from qmat.derivations import ALGEBRAS, ad, basis_derivation, express_hh1
from qmat.errors import DimensionMismatchError, ParseError
from qmat.matrixalg import MatrixAlgebraElement, qdet
from qmat.rational import RationalFunction
from qmat.serialize import (
    derivation_from_json,
    derivation_to_json,
    element_from_json,
    element_to_json,
    hh1_to_json,
    rf_from_json,
)
from qmat.torus import TorusElement
from qmat.tower import build_table


class TestElements:
    def test_matrix_round_trip(self):
        ctx = build_context(2)
        x = qdet(ctx) + MatrixAlgebraElement.generator(ctx, (1, 2)).scale(
            RationalFunction.q_power(-1)
        )
        data = element_to_json(x)
        assert data["alg"] == "Mq"
        assert element_from_json(data) == x

    def test_torus_round_trip(self):
        ctx = build_context(3)
        x = TorusElement.monomial(
            ctx, (1, 0, -2, 0, 3, 0, 0, 0, -1), RationalFunction.from_fraction(2, 7)
        )
        data = element_to_json(x)
        assert data["alg"] == "torus"
        assert element_from_json(data) == x

    def test_sparse_triples(self):
        ctx = build_context(2)
        x = TorusElement.monomial(ctx, (0, 2, 0, -1))
        data = element_to_json(x)
        assert data["terms"][0]["exp"] == [[1, 2, 2], [2, 2, -1]]

    def test_dimension_mismatch(self):
        ctx = build_context(2)
        data = element_to_json(TorusElement.one(ctx))
        with pytest.raises(DimensionMismatchError):
            element_from_json(data, n=3)

    def test_algebra_mismatch(self):
        ctx = build_context(2)
        data = element_to_json(TorusElement.one(ctx))
        with pytest.raises(DimensionMismatchError):
            element_from_json(data, alg="Mq")

    def test_negative_exponent_rejected_for_matrix_algebra(self):
        data = {
            "n": 2,
            "alg": "Mq",
            "terms": [{"exp": [[1, 1, -1]], "coeff": {"num": [1], "den": [1]}}],
        }
        with pytest.raises(ParseError):
            element_from_json(data)

    def test_malformed_inputs(self):
        for bad in (
            [],
            {"n": "x", "terms": []},
            {"n": 2, "terms": [{"exp": [[0, 1, 1]], "coeff": {"num": [1], "den": [1]}}]},
            {"n": 2, "terms": [{"exp": [], "coeff": {"num": [1], "den": []}}]},
            {"n": 2, "alg": "weird", "terms": []},
        ):
            with pytest.raises(ParseError):
                element_from_json(bad)

    @pytest.mark.parametrize(
        "term",
        [
            {"exp": [[1, 1, True]], "coeff": {"num": [1], "den": [1]}},
            {"exp": [[True, 1, 1]], "coeff": {"num": [1], "den": [1]}},
            {"exp": [], "coeff": {"num": [1], "den": [True]}},
            {"exp": [], "coeff": {"num": [False, 1], "den": [1]}},
        ],
    )
    def test_booleans_are_not_integers(self, term):
        with pytest.raises(ParseError):
            element_from_json({"n": 2, "alg": "Mq", "terms": [term]})

    def test_boolean_dimension_rejected(self):
        with pytest.raises(ParseError):
            element_from_json({"n": True, "terms": []})

    def test_rf_validation(self):
        with pytest.raises(ParseError):
            rf_from_json({"num": [1]})
        with pytest.raises(ParseError):
            rf_from_json({"num": ["x"], "den": [1]})
        with pytest.raises(ParseError):
            rf_from_json({"num": [1], "den": [0]})


def _term(triples, num):
    return {"exp": triples, "coeff": {"num": num, "den": [1]}}


def _fold(data):
    """The term-by-term sum element_from_json is checked against."""
    ctx = build_context(data["n"])
    cls = ALGEBRAS[data["alg"]]
    out = cls(ctx)
    for term in data["terms"]:
        exp = [0] * (ctx.n * ctx.n)
        for i, a, e in term["exp"]:
            exp[ctx.flat(i, a)] += e
        out = out + cls.monomial(ctx, tuple(exp), rf_from_json(term["coeff"]))
    return out


@st.composite
def element_data(draw):
    n = draw(st.sampled_from([2, 3]))
    alg = draw(st.sampled_from(["Mq", "torus"]))
    low = 0 if alg == "Mq" else -1
    triple = st.tuples(
        st.integers(1, n), st.integers(1, n), st.integers(low, 1)
    ).map(list)
    # few exponents and coefficients, so that repeats and cancellations occur
    terms = draw(
        st.lists(
            st.builds(
                _term,
                st.lists(triple, max_size=2),
                st.lists(st.integers(-2, 2), min_size=1, max_size=2),
            ),
            max_size=12,
        )
    )
    return {"n": n, "alg": alg, "terms": terms}


class TestTermFolding:
    def test_repeated_exponents_are_summed(self):
        data = {
            "n": 2,
            "alg": "Mq",
            "terms": [_term([[1, 2, 1]], [1]), _term([[1, 2, 1]], [0, 2])],
        }
        ((exp, coeff),) = element_from_json(data).terms.items()
        assert exp == (0, 1, 0, 0)
        assert coeff == RationalFunction((1, 2), (1,))

    def test_cancelling_pair_leaves_no_term(self):
        data = {
            "n": 2,
            "alg": "torus",
            "terms": [
                _term([[2, 2, -1]], [3]),
                _term([], [1]),
                _term([[2, 2, -1]], [-3]),
            ],
        }
        x = element_from_json(data)
        assert x.terms == {(0, 0, 0, 0): RationalFunction.from_int(1)}

    @settings(max_examples=150, deadline=None)
    @given(element_data())
    def test_matches_term_by_term_sum(self, data):
        assert element_from_json(data) == _fold(data)


class TestDerivations:
    def test_round_trip(self):
        ctx = build_context(2)
        d = basis_derivation(ctx, 2) + ad(
            MatrixAlgebraElement.generator(ctx, (1, 2))
        )
        data = derivation_to_json(d)
        assert derivation_from_json(data) == d

    def test_torus_round_trip(self):
        ctx = build_context(2)
        d = ad(TorusElement.monomial(ctx, (0, 1, 0, -1)))
        assert derivation_from_json(derivation_to_json(d)) == d

    def test_mixed_dimensions_rejected(self):
        ctx2, ctx3 = build_context(2), build_context(3)
        data = derivation_to_json(basis_derivation(ctx2, 1))
        data["images"][0]["value"] = element_to_json(qdet(ctx3))
        with pytest.raises(DimensionMismatchError):
            derivation_from_json(data)

    def test_generator_outside_the_grid_is_a_parse_error(self):
        ctx = build_context(2)
        data = derivation_to_json(basis_derivation(ctx, 1))
        data["images"][0]["gen"] = [3, 3]
        with pytest.raises(ParseError, match="outside the grid"):
            derivation_from_json(data)

    def test_bad_alg(self):
        with pytest.raises(ParseError):
            derivation_from_json({"alg": "nope", "images": []})

    def test_boolean_gen_and_dimension_rejected(self):
        ctx = build_context(2)
        data = derivation_to_json(basis_derivation(ctx, 1))
        data["images"][0]["gen"] = [True, 1]
        with pytest.raises(ParseError):
            derivation_from_json(data)
        data = derivation_to_json(basis_derivation(ctx, 1))
        data["n"] = True
        with pytest.raises(ParseError):
            derivation_from_json(data)


class TestHH1:
    def test_shape(self):
        ctx = build_context(2)
        table = build_table(ctx)
        coords = express_hh1(table, basis_derivation(ctx, 1))
        data = hh1_to_json(coords)
        assert set(data) == {"inner", "mu"}
        assert data["mu"][0] == [[0, {"num": [1], "den": [1]}]]
        assert data["mu"][1] == [] and data["mu"][2] == []
        assert data["inner"]["terms"] == []
