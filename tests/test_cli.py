import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

from qmat.cli import main
from qmat.context import build_context
from qmat.derivations import (
    DerivationSpec,
    ad,
    basis_derivation,
    check_derivation,
    failing_relations,
)
from qmat.limits import get_max_terms, set_max_terms
from qmat.matrixalg import MatrixAlgebraElement, qdet
from qmat.serialize import derivation_to_json, element_to_json
from qmat.torus import TorusElement

SRC = Path(__file__).resolve().parents[1] / "src"
SCHEMA_FILE = files("qmat") / "schemas" / "report.schema.json"
ZERO_MQ = {"n": 2, "alg": "Mq", "terms": []}
# `derivation hh1` specs and their recorded stdout; x in ad(x) holds qdet and
# Y11...Ynn, which pins the inner representative
HH1_CASES = json.loads(
    (Path(__file__).parent / "golden" / "hh1_cli_cases.json").read_text()
)


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def Y(ctx, i, a):
    return MatrixAlgebraElement.generator(ctx, (i, a))


class TestElementCommands:
    def test_mul_matrix(self, tmp_path, capsys):
        ctx = build_context(2)
        lhs = write_json(tmp_path, "l.json", element_to_json(Y(ctx, 2, 2)))
        rhs = write_json(tmp_path, "r.json", element_to_json(Y(ctx, 1, 1)))
        code, out = run_cli(capsys, "mul", lhs, rhs)
        assert code == 0
        got = json.loads(out)
        from qmat.serialize import element_from_json
        from qmat.rational import RationalFunction

        q_diff = RationalFunction.q_power(1) - RationalFunction.q_power(-1)
        expected = Y(ctx, 1, 1) * Y(ctx, 2, 2) - (
            Y(ctx, 1, 2) * Y(ctx, 2, 1)
        ).scale(q_diff)
        assert element_from_json(got) == expected

    def test_mul_torus(self, tmp_path, capsys):
        ctx = build_context(2)
        t = lambda i, a: TorusElement.generator(ctx, (i, a))
        lhs = write_json(tmp_path, "l.json", element_to_json(t(1, 2)))
        rhs = write_json(tmp_path, "r.json", element_to_json(t(1, 1)))
        code, out = run_cli(capsys, "mul", lhs, rhs)
        assert code == 0
        from qmat.serialize import element_from_json
        from qmat.rational import RationalFunction

        expected = (t(1, 1) * t(1, 2)).scale(RationalFunction.q_power(-1))
        assert element_from_json(json.loads(out)) == expected

    def test_mul_by_one(self, tmp_path, capsys):
        ctx = build_context(2)
        x = element_to_json(qdet(ctx))
        one = element_to_json(MatrixAlgebraElement.one(ctx))
        code, out = run_cli(
            capsys,
            "mul",
            write_json(tmp_path, "x.json", x),
            write_json(tmp_path, "one.json", one),
        )
        assert code == 0
        assert json.loads(out) == x

    def test_det(self, capsys):
        code, out = run_cli(capsys, "det", "--n", "2")
        assert code == 0
        from qmat.serialize import element_from_json

        assert element_from_json(json.loads(out)) == qdet(build_context(2))

    def test_minor(self, capsys):
        code, out = run_cli(capsys, "minor", "--n", "3", "--rows", "1", "--cols", "2")
        assert code == 0
        got = json.loads(out)
        assert got["terms"][0]["exp"] == [[1, 2, 1]]

    def test_embed_det(self, tmp_path, capsys):
        ctx = build_context(2)
        path = write_json(tmp_path, "det.json", element_to_json(qdet(ctx)))
        code, out = run_cli(capsys, "embed", path)
        assert code == 0
        got = json.loads(out)
        assert got["terms"] == [
            {
                "coeff": {"den": [1], "num": [1]},
                "exp": [[1, 1, 1], [2, 2, 1]],
            }
        ]

    def test_central(self, tmp_path, capsys):
        ctx = build_context(2)
        path = write_json(tmp_path, "det.json", element_to_json(qdet(ctx)))
        code, out = run_cli(capsys, "central", path, "--alg", "Mq")
        assert code == 0 and json.loads(out) == {"central": True}
        path = write_json(tmp_path, "y.json", element_to_json(Y(ctx, 1, 1)))
        code, out = run_cli(capsys, "central", path)
        assert code == 0 and json.loads(out) == {"central": False}

    def test_export_table(self, capsys):
        code, out = run_cli(capsys, "export-table", "--n", "2")
        assert code == 0
        got = json.loads(out)
        assert got["n"] == 2
        assert set(got["steps"]) == {"(1,2)", "(2,1)", "(2,2)", "(2,3)"}
        corner = got["steps"]["(2,3)"]["(1,1)"]
        assert len(corner["terms"]) == 2


class TestExitCodes:
    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run_cli(capsys, "embed", str(path))
        assert code == 2

    def test_boolean_exponent_is_parse_error(self, tmp_path, capsys):
        data = {
            "n": 2,
            "alg": "Mq",
            "terms": [{"exp": [[1, 1, True]], "coeff": {"num": [1], "den": [1]}}],
        }
        code, out = run_cli(capsys, "embed", write_json(tmp_path, "b.json", data))
        assert code == 2 and out == ""

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_max_terms_is_parse_error(self, capsys, value):
        code = main(["--max-terms", value, "det", "--n", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ")

    def test_term_limit_exits_1(self, capsys):
        saved = get_max_terms()
        try:
            code = main(["--max-terms", "100", "det", "--n", "5"])
        finally:
            set_max_terms(saved)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ")

    def test_dimension_budget_exits_1(self, capsys):
        code = main(["det", "--n", "40"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: build_context: n = 40 exceeds ")

    def test_out_of_memory_exits_1(self, capsys, monkeypatch):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr("qmat.cli.cmd_det", exhausted)
        code = main(["det", "--n", "2"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ")
        assert "out of memory in det" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["det", "--n", "2"], 0),
            (["det", "--n", "5"], 1),
            (["minor", "--n", "2", "--rows", "x", "--cols", "1"], 2),
        ],
        ids=["success", "term limit", "parse error"],
    )
    def test_max_terms_is_restored(self, capsys, argv, code):
        saved = get_max_terms()
        try:
            assert main(["--max-terms", "100", *argv]) == code
            assert get_max_terms() == saved
        finally:
            set_max_terms(saved)
        capsys.readouterr()

    @pytest.mark.parametrize(
        "images",
        [
            [{"gen": [1, 1]}],
            [{"gen": [1, 1], "value": ZERO_MQ}, {"gen": [1, 1], "value": ZERO_MQ}],
        ],
        ids=["missing value", "repeated gen"],
    )
    def test_bad_image_entry_is_parse_error(self, tmp_path, capsys, images):
        data = {"alg": "Mq", "n": 2, "images": images}
        path = write_json(tmp_path, "d.json", data)
        code = main(["derivation", "check", path])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("tag", [["Mq"], {}], ids=["list", "object"])
    @pytest.mark.parametrize(
        "command, doc",
        [
            (["derivation", "hh1"], {"n": 2, "images": []}),
            (["derivation", "check"], {"n": 2, "images": []}),
            (["embed"], {"n": 2, "terms": []}),
            (["mul"], {"n": 2, "terms": []}),
            (["central"], {"n": 2, "terms": []}),
        ],
        ids=["hh1", "check", "embed", "mul", "central"],
    )
    def test_unhashable_algebra_tag_is_parse_error(
        self, tmp_path, capsys, command, doc, tag
    ):
        path = write_json(tmp_path, "t.json", {**doc, "alg": tag})
        paths = [path, path] if command == ["mul"] else [path]
        code = main([*command, *paths])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ")

    def test_dimension_mismatch(self, tmp_path, capsys):
        ctx2, ctx3 = build_context(2), build_context(3)
        lhs = write_json(tmp_path, "l.json", element_to_json(qdet(ctx2)))
        rhs = write_json(tmp_path, "r.json", element_to_json(qdet(ctx3)))
        code, _ = run_cli(capsys, "mul", lhs, rhs)
        assert code == 3

    def test_not_a_derivation(self, tmp_path, capsys):
        ctx = build_context(2)
        images = {
            gen: Y(ctx, *gen) if gen == (1, 1) else MatrixAlgebraElement(ctx)
            for gen in ctx.generators
        }
        spec = DerivationSpec(ctx, "Mq", images)
        bad = failing_relations(check_derivation(spec))
        assert bad
        path = write_json(tmp_path, "d.json", derivation_to_json(spec))
        code = main(["derivation", "decompose", path])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == f"error: images violate relations at pairs {bad}\n"
        code, _ = run_cli(capsys, "derivation", "check", path)
        assert code == 4


    def test_hh1_not_a_derivation(self, tmp_path, capsys):
        ctx = build_context(3)
        images = {(2, 3): Y(ctx, 2, 3)}
        spec = DerivationSpec(ctx, "Mq", images)
        path = write_json(tmp_path, "d.json", derivation_to_json(spec))
        code = main(["derivation", "hh1", path])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err.startswith("error: images violate relations")

    def test_torus_decompose_not_a_derivation(self, tmp_path, capsys):
        ctx = build_context(2)
        t22 = TorusElement.generator(ctx, (2, 2))
        spec = DerivationSpec(ctx, "torus", {gen: t22 for gen in ctx.generators})
        bad = failing_relations(check_derivation(spec))
        assert bad
        path = write_json(tmp_path, "d.json", derivation_to_json(spec))
        code = main(["derivation", "decompose", path])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == f"error: images violate relations at pairs {bad}\n"


class TestMaxTermsEnvironment:
    """QMAT_MAX_TERMS follows the --max-terms rule; it is read at import, so
    each case runs in its own interpreter."""

    def run(self, value, *args):
        env = dict(os.environ, QMAT_MAX_TERMS=value)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True,
            timeout=120,
        )

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_invalid_value_exits_2(self, value):
        proc = self.run(value, "-m", "qmat", "det", "--n", "2")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: QMAT_MAX_TERMS: ")
        assert "Traceback" not in proc.stderr

    def test_invalid_value_does_not_break_import(self):
        proc = self.run("abc", "-c", "import qmat")
        assert proc.returncode == 0, proc.stderr

    def test_valid_value_is_the_limit(self):
        # qdet at n = 3 has 3! = 6 terms
        ok = self.run("6", "-m", "qmat", "det", "--n", "3")
        assert ok.returncode == 0, ok.stderr
        assert len(json.loads(ok.stdout)["terms"]) == 6
        tripped = self.run("5", "-m", "qmat", "det", "--n", "3")
        assert tripped.returncode == 1 and tripped.stdout == ""
        assert "term limit (6 > 5)" in tripped.stderr


class TestDerivationCommands:
    def test_check_passes(self, tmp_path, capsys):
        ctx = build_context(2)
        path = write_json(
            tmp_path, "d.json", derivation_to_json(basis_derivation(ctx, 2))
        )
        code, out = run_cli(capsys, "derivation", "check", path)
        assert code == 0
        assert json.loads(out)["is_derivation"] is True

    def test_hh1_inner(self, tmp_path, capsys):
        ctx = build_context(2)
        path = write_json(
            tmp_path, "d.json", derivation_to_json(ad(Y(ctx, 1, 2)))
        )
        code, out = run_cli(capsys, "derivation", "hh1", path)
        assert code == 0
        got = json.loads(out)
        assert got["mu"] == [[], [], []]

    @pytest.mark.parametrize("case", HH1_CASES, ids=[c["name"] for c in HH1_CASES])
    def test_hh1_matches_golden(self, tmp_path, capsys, case):
        path = write_json(tmp_path, "d.json", case["spec"])
        code, out = run_cli(capsys, "derivation", "hh1", path)
        assert code == 0
        assert out == case["stdout"]

    def test_decompose_inner(self, tmp_path, capsys):
        ctx = build_context(2)
        d = ad(TorusElement.generator(ctx, (1, 1)))
        path = write_json(tmp_path, "d.json", derivation_to_json(d))
        code, out = run_cli(capsys, "derivation", "decompose", path)
        assert code == 0
        got = json.loads(out)
        assert got["x"]["terms"][0]["exp"] == [[1, 1, 1]]
        assert all(entry["value"]["terms"] == [] for entry in got["z"])


class TestVerifySuite:
    def test_json_passes_and_validates(self, capsys):
        code, out = run_cli(capsys, "verify-suite", "--n", "2", "--canonical")
        assert code == 0
        report = json.loads(out)
        schema = json.loads(SCHEMA_FILE.read_text())
        jsonschema.validate(report, schema)
        assert report["all_pass"] is True
        assert len(report["checks"]) >= 25

    def test_canonical_deterministic(self, capsys):
        _, first = run_cli(capsys, "verify-suite", "--n", "2", "--canonical")
        _, second = run_cli(capsys, "verify-suite", "--n", "2", "--canonical")
        assert first == second

    def test_markdown(self, capsys):
        code, out = run_cli(
            capsys, "verify-suite", "--n", "2", "--out", "markdown", "--canonical"
        )
        assert code == 0
        assert out.startswith("# Verification report")
        assert "all pass" in out

    def test_out_of_range_refused(self, capsys):
        code, _ = run_cli(capsys, "verify-suite", "--n", "6")
        assert code == 1
