"""Binary operations refuse operands of another size or another algebra."""

import json

import pytest

from qmat.cli import main
from qmat.context import build_context
from qmat.derivations import (
    ad,
    basis_derivation,
    decompose_torus_derivation,
    lift_to_torus,
)
from qmat.errors import DimensionMismatchError
from qmat.matrixalg import MatrixAlgebraElement
from qmat.serialize import derivation_to_json, element_to_json
from qmat.torus import TorusElement
from qmat.tower import build_table

C2, C3 = build_context(2), build_context(3)


def Y(ctx, i, a):
    return MatrixAlgebraElement.generator(ctx, (i, a))


def T(ctx, i, a):
    return TorusElement.generator(ctx, (i, a))


OPS = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
}

MIXED_PAIRS = {
    "torus n3 with n2": (T(C3, 3, 3), T(C2, 2, 2)),
    "torus n2 with n3": (T(C2, 2, 2), T(C3, 3, 3)),
    "Mq n2 with n3": (Y(C2, 1, 1), Y(C3, 1, 1)),
    "Mq with torus": (Y(C2, 1, 1), T(C2, 1, 1)),
    "torus with Mq": (T(C2, 1, 1), Y(C2, 1, 1)),
}


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("pair", sorted(MIXED_PAIRS))
def test_mixed_operands_raise(op, pair):
    x, y = MIXED_PAIRS[pair]
    with pytest.raises(DimensionMismatchError):
        OPS[op](x, y)


def test_non_element_operand_raises():
    with pytest.raises(DimensionMismatchError):
        Y(C2, 1, 1) + 1


def test_elements_of_different_algebras_are_never_equal():
    assert MatrixAlgebraElement.one(C2) != TorusElement.one(C2)
    assert Y(C2, 1, 1) != T(C2, 1, 1)
    assert Y(C2, 1, 1) == Y(C2, 1, 1)


def test_spec_algebra_mismatch_raises():
    table = build_table(C2)
    mq = basis_derivation(C2, 1)
    torus = ad(T(C2, 1, 2))
    with pytest.raises(DimensionMismatchError):
        mq + torus
    with pytest.raises(DimensionMismatchError):
        mq + basis_derivation(C3, 1)
    with pytest.raises(DimensionMismatchError):
        lift_to_torus(table, torus)
    with pytest.raises(DimensionMismatchError):
        decompose_torus_derivation(mq)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_mul_of_mq_and_torus_exits_3(tmp_path, capsys):
    lhs = tmp_path / "m.json"
    rhs = tmp_path / "t.json"
    lhs.write_text(json.dumps(element_to_json(Y(C2, 1, 1))))
    rhs.write_text(json.dumps(element_to_json(T(C2, 1, 1).invert_monomial())))
    code, out, err = _run(capsys, "mul", str(lhs), str(rhs))
    assert code == 3 and out == ""
    assert err.startswith("error: ")


def test_cli_hh1_on_torus_spec_exits_3(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(derivation_to_json(ad(T(C2, 1, 2)))))
    code, out, err = _run(capsys, "derivation", "hh1", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
