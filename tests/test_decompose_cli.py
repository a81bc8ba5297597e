"""``qmat derivation decompose`` pinned byte for byte, and split once.

``golden/decompose_cli_cases.json`` records the stdout of ``derivation
decompose`` on the eight Mq specs of ``golden/hh1_cli_cases.json`` and on
one torus spec with negative exponents.  Regenerate it with

    PYTHONPATH=src python tests/test_decompose_cli.py
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import qmat.cli as cli
import qmat.derivations as derivations
from qmat.context import build_context
from qmat.derivations import ad, basis_derivation, central_scaling_spec
from qmat.rational import RationalFunction
from qmat.serialize import derivation_to_json
from qmat.torus import TorusElement, delta_exponents

GOLDEN = Path(__file__).parent / "golden"
DECOMPOSE = GOLDEN / "decompose_cli_cases.json"
Q = RationalFunction.q_power


def _torus_spec():
    """ad(x) + theta at n = 3: x with negative exponents, and theta the
    weights of D_4 scaled by 2 Delta^-1."""
    ctx = build_context(3)
    x = TorusElement.monomial(ctx, (0, -1, 0, 1, 0, 0, 0, 0, 1), Q(2))
    x = x + TorusElement.monomial(ctx, (0, 0, 0, 0, 0, 0, 0, 0, -2), Q(-1))
    delta = TorusElement.monomial(
        ctx, tuple(-e for e in delta_exponents(ctx, 3)), RationalFunction.from_int(2)
    )
    z = {}
    for gen, image in basis_derivation(ctx, 4).images.items():
        for c in image.terms.values():
            z[gen] = delta.scale(c)
    return derivation_to_json(ad(x) + central_scaling_spec(ctx, z))


def _specs():
    """(name, spec json) in file order."""
    for case in json.loads((GOLDEN / "hh1_cli_cases.json").read_text()):
        yield case["name"], case["spec"]
    yield "torus_inner_and_scaling_n3", _torus_spec()


def _stdout(tmp, spec):
    path = Path(tmp) / "d.json"
    path.write_text(json.dumps(spec))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["derivation", "decompose", str(path)])
    assert code == 0
    return out.getvalue()


CASES = json.loads(DECOMPOSE.read_text()) if DECOMPOSE.exists() else []


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_decompose_matches_golden(tmp_path, case):
    assert _stdout(tmp_path, case["spec"]) == case["stdout"]


def test_golden_covers_every_spec():
    assert [c["name"] for c in CASES] == [name for name, _ in _specs()]


def test_decompose_of_an_mq_spec_splits_once(tmp_path, monkeypatch):
    case = CASES[0]
    calls = []
    original = derivations.decompose_torus_derivation

    def counted(d):
        calls.append(d)
        return original(d)

    for module in (cli, derivations):
        monkeypatch.setattr(module, "decompose_torus_derivation", counted)
    assert case["spec"]["alg"] == "Mq"
    assert _stdout(tmp_path, case["spec"]) == case["stdout"]
    assert len(calls) == 1


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = [
            {"name": name, "spec": spec, "stdout": _stdout(tmp, spec)}
            for name, spec in _specs()
        ]
    lines = (json.dumps(r, separators=(",", ":")) for r in records)
    DECOMPOSE.write_text("[\n" + ",\n".join(lines) + "\n]\n")
