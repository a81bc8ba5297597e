"""A derivation spec's n is decided once, before its images are read.

The rule: the spec's own ``n`` field, else the caller's ``n`` (``--n`` on
the command line), else the n of its first image.  A declared n that
differs from the caller's is a dimension mismatch (exit 3), and every
image is parsed against the decided n.
"""

import json

import pytest

from qmat.cli import main
from qmat.context import build_context
from qmat.derivations import DerivationSpec, basis_derivation
from qmat.errors import DimensionMismatchError, ParseError
from qmat.matrixalg import qdet
from qmat.serialize import derivation_from_json, derivation_to_json, element_to_json

ACTIONS = ("check", "decompose", "hh1")


def run(tmp_path, capsys, data, *extra):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    code = main(["derivation", *extra, str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def without_n(spec: DerivationSpec) -> dict:
    data = derivation_to_json(spec)
    del data["n"]
    return data


class TestDeclaredAgainstCaller:
    @pytest.mark.parametrize("action", ACTIONS)
    def test_declared_n_other_than_caller_exits_3(self, tmp_path, capsys, action):
        spec = {"alg": "Mq", "n": 2, "images": []}
        code, out, err = run(tmp_path, capsys, spec, action, "--n", "3")
        assert code == 3
        assert out == ""
        assert err == "error: spec has n = 2, expected 3\n"

    def test_declared_n_other_than_caller_raises_before_images(self):
        # the image would parse at n = 2; the mismatch is found first
        data = derivation_to_json(basis_derivation(build_context(2), 1))
        with pytest.raises(DimensionMismatchError, match="spec has n = 2"):
            derivation_from_json(data, n=3)

    @pytest.mark.parametrize("action", ACTIONS)
    def test_declared_n_equal_to_caller_is_accepted(self, tmp_path, capsys, action):
        data = derivation_to_json(basis_derivation(build_context(2), 2))
        code, out, _ = run(tmp_path, capsys, data, action, "--n", "2")
        assert code == 0 and out


class TestImagesDecideN:
    @pytest.mark.parametrize("n", [2, 3])
    def test_spec_without_n_takes_its_images_n(self, n):
        d = basis_derivation(build_context(n), 1)
        got = derivation_from_json(without_n(d))
        assert got.ctx.n == n
        assert got == d

    def test_spec_without_n_takes_its_images_n_on_the_command_line(
        self, tmp_path, capsys
    ):
        data = without_n(basis_derivation(build_context(3), 1))
        code, out, _ = run(tmp_path, capsys, data, "check")
        assert code == 0
        assert json.loads(out)["n"] == 3

    def test_caller_n_against_images_of_another_size(self):
        data = without_n(basis_derivation(build_context(2), 1))
        with pytest.raises(DimensionMismatchError, match="expected 3"):
            derivation_from_json(data, n=3)


class TestMixedImages:
    @pytest.mark.parametrize("declared", [True, False])
    @pytest.mark.parametrize("action", ACTIONS)
    def test_images_of_two_sizes_exit_3(self, tmp_path, capsys, action, declared):
        d = basis_derivation(build_context(2), 1)
        data = derivation_to_json(d) if declared else without_n(d)
        data["images"][1]["value"] = element_to_json(qdet(build_context(3)))
        code, out, err = run(tmp_path, capsys, data, action)
        assert code == 3
        assert out == ""
        assert err == "error: element has n = 3, expected 2\n"

    def test_first_image_of_another_size_than_declared(self):
        data = derivation_to_json(basis_derivation(build_context(2), 1))
        data["images"][0]["value"] = element_to_json(qdet(build_context(3)))
        with pytest.raises(DimensionMismatchError, match="element has n = 3"):
            derivation_from_json(data)


class TestImagelessSpecs:
    @pytest.mark.parametrize("action", ACTIONS)
    def test_without_n_exits_2(self, tmp_path, capsys, action):
        code, out, err = run(tmp_path, capsys, {"alg": "Mq", "images": []}, action)
        assert code == 2
        assert out == ""
        assert err == "error: empty derivation spec without dimension\n"

    @pytest.mark.parametrize("n", [2, 3])
    def test_caller_n_makes_the_zero_spec(self, n):
        got = derivation_from_json({"alg": "torus", "images": []}, n=n)
        assert got.ctx.n == n and got.alg == "torus"
        assert got.is_zero()

    @pytest.mark.parametrize("action", ACTIONS)
    def test_caller_n_makes_the_zero_spec_on_the_command_line(
        self, tmp_path, capsys, action
    ):
        spec = {"alg": "Mq", "images": []}
        code, out, _ = run(tmp_path, capsys, spec, action, "--n", "3")
        assert code == 0
        if action == "check":
            report = json.loads(out)
            assert report["n"] == 3 and report["is_derivation"]
        elif action == "hh1":
            coords = json.loads(out)
            assert coords["inner"]["n"] == 3 and coords["inner"]["terms"] == []
            assert coords["mu"] == [[]] * 5
        else:
            dec = json.loads(out)
            assert dec["x"]["n"] == 3 and dec["x"]["terms"] == []
            assert len(dec["z"]) == 9


class TestGridCheck:
    @pytest.mark.parametrize("gen", [[3, 3], [0, 1], [1, 3], [-1, 2]])
    def test_generator_outside_the_grid_exits_2(self, tmp_path, capsys, gen):
        data = derivation_to_json(basis_derivation(build_context(2), 1))
        data["images"][2]["gen"] = gen
        code, out, err = run(tmp_path, capsys, data, "check")
        assert code == 2
        assert out == ""
        assert err == f"error: generator {tuple(gen)} outside the grid\n"

    def test_generator_outside_the_grid_of_an_undeclared_spec(self):
        data = without_n(basis_derivation(build_context(2), 1))
        data["images"][0]["gen"] = [2, 3]
        with pytest.raises(ParseError, match=r"generator \(2, 3\) outside the grid"):
            derivation_from_json(data)


class TestMalformedEntries:
    """The messages for a malformed entry do not depend on how n is found."""

    @pytest.mark.parametrize(
        "images, message",
        [
            ([1], "image entries must be objects"),
            ([{"gen": [1], "value": {}}], "image gen must be a pair [i, a]"),
            ([{"gen": [1, True], "value": {}}], "image gen must be a pair [i, a]"),
            ([{"gen": [1, 1]}], "image of [1, 1] needs a value"),
        ],
    )
    @pytest.mark.parametrize("n", [None, 2])
    def test_messages(self, images, message, n):
        with pytest.raises(ParseError) as info:
            derivation_from_json({"alg": "Mq", "images": images}, n=n)
        assert str(info.value) == message

    def test_two_images_of_one_generator(self):
        data = derivation_to_json(basis_derivation(build_context(2), 1))
        data["images"][1]["gen"] = [1, 1]
        with pytest.raises(ParseError) as info:
            derivation_from_json(data, n=2)
        assert str(info.value) == "generator [1, 1] has two images"

    def test_spec_n_must_be_an_integer(self):
        with pytest.raises(ParseError, match="spec n must be an integer"):
            derivation_from_json({"alg": "Mq", "n": "2", "images": []}, n=2)
