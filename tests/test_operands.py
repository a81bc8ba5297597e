"""Binary operations, and the entry points that take an element or a spec
next to a tower table or a spec, refuse operands of another size or
another algebra."""

import json
import re

import pytest

from qmat.cli import main
from qmat.context import build_context
from qmat.derivations import (
    DerivationSpec,
    ad,
    basis_derivation,
    central_scaling_spec,
    check_derivation,
    decompose_torus_derivation,
    express_hh1,
    gl_express,
    leibniz_extend,
    lift_to_torus,
)
from qmat.errors import DimensionMismatchError, IndexOutOfRangeError
from qmat.matrixalg import MatrixAlgebraElement, sigma_automorphism
from qmat.rational import RF_ONE
from qmat.serialize import derivation_to_json, element_to_json
from qmat.torus import (
    TorusElement,
    delta_lattice_coordinates,
    is_central_monomial,
    zset_conditions,
)
from qmat.tower import (
    build_table,
    embed,
    embed_monomial_at_step,
    rebase_to_matrix_algebra,
    rebase_to_step,
)

C2, C3 = build_context(2), build_context(3)
T2, T3 = build_table(C2), build_table(C3)


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


@pytest.mark.parametrize(
    "build",
    [
        lambda exp: MatrixAlgebraElement.monomial(C3, exp),
        lambda exp: TorusElement.monomial(C3, exp),
        lambda exp: embed_monomial_at_step(T3, C3.top_step(), exp),
        lambda exp: is_central_monomial(C3, exp),
        lambda exp: zset_conditions(C3, exp),
        lambda exp: delta_lattice_coordinates(C3, exp),
    ],
    ids=[
        "MatrixAlgebraElement",
        "TorusElement",
        "embed_monomial_at_step",
        "is_central_monomial",
        "zset_conditions",
        "delta_lattice_coordinates",
    ],
)
@pytest.mark.parametrize(
    "exp", [(), (1, 0, 0, 0), (1,) + (0,) * 11, (1,) + (0,) * 15], ids=len
)
def test_exponent_vector_of_another_length_raises(build, exp):
    with pytest.raises(DimensionMismatchError, match=f"length {len(exp)}, not 9"):
        build(exp)


def test_sigma_automorphism_refuses_a_torus_element():
    with pytest.raises(
        DimensionMismatchError, match="expects a MatrixAlgebraElement, got TorusElement"
    ):
        sigma_automorphism(T(C2, 1, 1).invert_monomial())


def test_spec_refuses_a_generator_outside_the_grid():
    with pytest.raises(IndexOutOfRangeError):
        DerivationSpec(C2, "Mq", {(3, 3): Y(C2, 1, 1)})
    with pytest.raises(IndexOutOfRangeError):
        DerivationSpec(C2, "Mq", {(0, 1): Y(C2, 1, 1)})


@pytest.mark.parametrize(
    "alg, image",
    [
        ("Mq", Y(C3, 1, 1)),
        ("Mq", T(C2, 1, 1)),
        ("torus", Y(C2, 1, 1)),
        ("torus", T(C3, 1, 1)),
        ("Mq", RF_ONE),
    ],
    ids=["Mq of n3", "torus in Mq", "Mq in torus", "torus of n3", "scalar"],
)
def test_spec_refuses_an_image_of_another_n_or_algebra(alg, image):
    with pytest.raises(DimensionMismatchError, match=r"image of \(1, 1\)"):
        DerivationSpec(C2, alg, {(1, 1): image})


def test_central_scaling_spec_builds_only_the_given_weights():
    weight = TorusElement.scalar(C2, RF_ONE)
    d = central_scaling_spec(C2, {(2, 2): weight})
    assert d == DerivationSpec(C2, "torus", {(2, 2): T(C2, 2, 2)})
    with pytest.raises(IndexOutOfRangeError):
        central_scaling_spec(C2, {(3, 3): weight})


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


# ---------------------------------------------------------------------------
# a table, a spec and an element must agree on n and on the algebra


def test_embed_refuses_a_larger_element():
    with pytest.raises(DimensionMismatchError):
        embed(T2, Y(C3, 1, 1))


def test_embed_refuses_a_smaller_element():
    with pytest.raises(DimensionMismatchError):
        embed(T3, Y(C2, 2, 2))


def test_embed_refuses_a_torus_element():
    with pytest.raises(DimensionMismatchError):
        embed(T2, T(C2, 1, 1))


# a spec of another n is refused as such, also when it is no derivation
SPECS = {
    "derivation": lambda ctx: basis_derivation(ctx, 1),
    "non-derivation": lambda ctx: DerivationSpec(
        ctx, "Mq", {(1, 1): Y(ctx, 1, 1)}
    ),
}


@pytest.mark.parametrize("spec", sorted(SPECS))
def test_lift_refuses_a_spec_of_another_n(spec):
    with pytest.raises(DimensionMismatchError, match=r"got DerivationSpec \(n = 3\)"):
        lift_to_torus(T2, SPECS[spec](C3))


# an element where a spec belongs is refused before any of its fields is read
SPEC_ENTRY_POINTS = {
    "lift_to_torus": lambda d: lift_to_torus(T2, d),
    "express_hh1": lambda d: express_hh1(T2, d),
    "decompose_torus_derivation": decompose_torus_derivation,
    "check_derivation": check_derivation,
    "leibniz_extend": lambda d: leibniz_extend(d, Y(C2, 1, 1)),
}


@pytest.mark.parametrize("element", [Y(C2, 1, 2), T(C2, 1, 2)], ids=["Mq", "torus"])
@pytest.mark.parametrize("entry", sorted(SPEC_ENTRY_POINTS))
def test_spec_entry_points_refuse_an_element(entry, element):
    got = re.escape(f"got {type(element).__name__} (n = 2)")
    with pytest.raises(DimensionMismatchError, match=f"^{entry} expects a .*{got}$"):
        SPEC_ENTRY_POINTS[entry](element)


def test_leibniz_extend_refuses_an_element_of_another_n():
    with pytest.raises(DimensionMismatchError):
        leibniz_extend(basis_derivation(C2, 1), Y(C3, 1, 1))


def test_leibniz_extend_refuses_an_element_of_the_other_algebra():
    with pytest.raises(DimensionMismatchError):
        leibniz_extend(basis_derivation(C2, 1), T(C2, 1, 1))


@pytest.mark.parametrize(
    "coordinates",
    [express_hh1, gl_express],
    ids=["express_hh1", "gl_express"],
)
@pytest.mark.parametrize("spec", sorted(SPECS))
def test_coordinates_refuse_a_spec_of_another_n(coordinates, spec):
    with pytest.raises(DimensionMismatchError, match=r"got DerivationSpec \(n = 2\)"):
        coordinates(T3, SPECS[spec](C2))


@pytest.mark.parametrize(
    "rebase",
    [
        lambda table, x: rebase_to_step(table, table.ctx.top_step(), x),
        rebase_to_matrix_algebra,
    ],
    ids=["rebase_to_step", "rebase_to_matrix_algebra"],
)
@pytest.mark.parametrize(
    "table, x",
    [(T2, T(C3, 3, 3)), (T3, T(C2, 2, 2)), (T2, Y(C2, 1, 1))],
    ids=["larger", "smaller", "Mq"],
)
def test_rebase_refuses_an_element_of_another_n(rebase, table, x):
    with pytest.raises(DimensionMismatchError):
        rebase(table, x)


@pytest.mark.parametrize("length", [4, 12])
def test_rebase_refuses_a_box_of_another_length(length):
    with pytest.raises(DimensionMismatchError, match=f"box .* has length {length}, not 9"):
        rebase_to_step(T3, C3.top_step(), T(C3, 3, 3), box=[(0, 0)] * length)


@pytest.mark.parametrize("step", [(1, 1), (9, 9), (3, 5)], ids=str)
@pytest.mark.parametrize(
    "call",
    [
        lambda step: embed_monomial_at_step(T3, step, (0,) * 9),
        lambda step: rebase_to_step(T3, step, T(C3, 3, 3)),
    ],
    ids=["embed_monomial_at_step", "rebase_to_step"],
)
def test_a_step_outside_the_tower_raises(call, step):
    with pytest.raises(IndexOutOfRangeError, match=rf"step \({step[0]}, {step[1]}\)"):
        call(step)


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
