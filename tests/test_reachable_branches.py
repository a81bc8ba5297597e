"""Reachable error branches and printed forms that no other test reaches.

The suite's witnesses print elements, coefficients and specs, so a few
printed forms are pinned exactly.
"""

import json
import re

import pytest

from qmat.cli import main
from qmat.context import build_context
from qmat.derivations import (
    DerivationSpec,
    _weighted_basis_sum,
    basis_derivation,
    gl_express,
)
from qmat.errors import NotPolynomialError
from qmat.matrixalg import MatrixAlgebraElement, qdet
from qmat.rational import RF_ONE, RationalFunction
from qmat.serialize import hh1_to_json
from qmat.torus import TorusElement
from qmat.tower import StepGeneratorTable, build_table, embed


class TestCommandLine:
    def test_embed_of_a_missing_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["embed", str(missing)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot read {missing}: ")

    def test_minor_with_a_repeated_row_exits_1(self, capsys):
        assert main(["minor", "--n", "3", "--rows", "1,1", "--cols", "1,2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: row and column subsets must be duplicate-free\n"


class TestDerivationArguments:
    def test_spec_of_an_unknown_algebra(self):
        with pytest.raises(ValueError, match="unknown algebra tag 'bad'"):
            DerivationSpec(build_context(2), "bad", {})

    @pytest.mark.parametrize("tag", [["Mq"], {"alg": "Mq"}, None, 1])
    def test_spec_of_a_tag_that_is_not_a_string(self, tag):
        with pytest.raises(ValueError, match=re.escape(f"unknown algebra tag {tag!r}")):
            DerivationSpec(build_context(2), tag, {})

    def test_weighted_basis_sum_rejects_a_negative_power(self):
        mu = [{}, {-1: RF_ONE}, {}]
        with pytest.raises(NotPolynomialError):
            _weighted_basis_sum(StepGeneratorTable(build_context(2)), mu)

    def test_gl_express_answer_carries_its_det_shift(self):
        ctx = build_context(2)
        table = build_table(ctx)
        det_inv = embed(table, qdet(ctx)).invert_monomial()
        images = basis_derivation(ctx, 1).images
        spec = DerivationSpec(
            ctx, "torus", {g: det_inv * embed(table, v) for g, v in images.items()}
        )
        data = hh1_to_json(gl_express(table, spec))
        assert data["det_shift"] == -1
        assert data["mu"] == [[[-1, {"num": [1], "den": [1]}]], [], []]
        assert data["inner"]["terms"] == []
        # the whole answer is JSON
        assert json.loads(json.dumps(data)) == data

    def test_gl_express_answer_of_an_mq_spec_has_no_det_shift(self):
        ctx = build_context(2)
        data = hh1_to_json(gl_express(build_table(ctx), basis_derivation(ctx, 1)))
        assert "det_shift" not in data
        assert data["mu"] == [[[0, {"num": [1], "den": [1]}]], [], []]
        assert data["inner"]["terms"] == []


class TestPrintedForms:
    @pytest.mark.parametrize(
        "num, den, text",
        [
            ((0,), (1,), "0"),
            ((-1,), (1,), "-1"),
            ((0, 0, 1), (1,), "q^2"),
            ((1, -2), (1,), "-2*q+1"),
            ((2, -1, 0, -3), (1,), "-3*q^3-q+2"),
            ((0, -1, 3), (1, 0, 2), "(3*q^2-q)/(2*q^2+1)"),
        ],
    )
    def test_rational_function(self, num, den, text):
        assert repr(RationalFunction(num, den)) == text

    def test_elements(self):
        ctx = build_context(2)
        assert repr(MatrixAlgebraElement(ctx)) == "0"
        assert repr(qdet(ctx)) == "(-q)*Y(1, 2)*Y(2, 1) + (1)*Y(1, 1)*Y(2, 2)"
        coeff = RationalFunction((0, -1, 3), (1, 0, 2))
        t = TorusElement.monomial(ctx, (1, 0, -2, 0), coeff)
        assert repr(t) == "((3*q^2-q)/(2*q^2+1))*T(1, 1)*T(2, 1)^-2"
        assert repr(TorusElement.one(ctx)) == "(1)"

    def test_context_and_spec(self):
        ctx = build_context(3)
        assert repr(ctx) == "AlgebraContext(n=3)"
        assert repr(basis_derivation(ctx, 2)) == "DerivationSpec(n=3, alg='Mq')"
        assert repr(DerivationSpec(ctx, "torus", {})) == (
            "DerivationSpec(n=3, alg='torus')"
        )
