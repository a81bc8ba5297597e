import json
from importlib.resources import files

import jsonschema
import pytest

import qmat.suite as suite
from qmat.errors import ResourceLimitError
from qmat.suite import run_suite


class TestSuite:
    def test_n2_all_pass(self):
        report = run_suite(2)
        assert report.all_pass()
        assert len(report.checks) >= 25

    def test_n3_all_pass(self):
        report = run_suite(3)
        assert report.all_pass()

    def test_out_of_range(self):
        with pytest.raises(ResourceLimitError):
            run_suite(6)
        with pytest.raises(ResourceLimitError):
            run_suite(1)

    def test_canonical_mode_deterministic(self):
        a = json.dumps(run_suite(2, canonical=True).to_json(), sort_keys=True)
        b = json.dumps(run_suite(2, canonical=True).to_json(), sort_keys=True)
        assert a == b

    def test_canonical_omits_timings(self):
        report = run_suite(2, canonical=True)
        assert all(c["seconds"] is None for c in report.checks)

    def test_report_validates_against_schema(self):
        report = run_suite(2, canonical=True).to_json()
        schema_file = files("qmat") / "schemas" / "report.schema.json"
        schema = json.loads(schema_file.read_text())
        jsonschema.validate(report, schema)

    def test_check_ids_unique_and_sorted_in_json(self):
        data = run_suite(2, canonical=True).to_json()
        ids = [c["id"] for c in data["checks"]]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_pattern_check_rejects_a_changed_reader_exponent(self, monkeypatch):
        # Delta_3 = det_q has exponent 1 at the reader (1,1); flipping it
        # breaks the reader pattern that proves centre-03
        delta_exponents = suite.delta_exponents

        def flipped(ctx, i):
            exp = list(delta_exponents(ctx, i))
            if i == ctx.n:
                exp[ctx.flat(1, 1)] = -exp[ctx.flat(1, 1)]
            return tuple(exp)

        monkeypatch.setattr(suite, "delta_exponents", flipped)
        checks = {c["id"]: c for c in run_suite(3, canonical=True).checks}
        assert checks["centre-03-pattern"]["status"] == "fail"
        assert checks["centre-03-pattern"]["witness"] == (
            "Delta_3 has exponent -1 at reader (1, 1)"
        )
