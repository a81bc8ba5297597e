"""The certificates and the suite's checks fail when the answer is wrong.

Each test plants one wrong value (a weight read one off, an inner
coefficient read off by a factor q, or one coefficient of the top tower
entry (1,1) off by a factor q) and checks that the certificate downstream
of it rejects the answer, or that it reaches no answer that reads it.
"""

import json
import random
from importlib.resources import files

import jsonschema
import pytest

import qmat.derivations as derivations
import qmat.suite as suite
from basis_sum_oracle import straightened_basis_sum
from hh1_torus_oracle import torus_express_hh1
from qmat.cli import main
from qmat.context import build_context
from qmat.derivations import (
    ad,
    basis_derivation,
    express_hh1,
    gl_express,
)
from qmat.errors import ConditionViolatedError
from qmat.matrixalg import MatrixAlgebraElement
from qmat.rational import RF_ONE, RF_ZERO, RationalFunction
from qmat.torus import TorusElement
from qmat.tower import build_table

RESIDUAL = "reconstruction residual is nonzero"
TABLES = {n: build_table(build_context(n)) for n in (2, 3)}


def _suite_style_spec(ctx, seed):
    """ad(x) + sum_j mu_j(det_q) D_j with a random two-term x, deg mu_j <= 1."""
    rng = random.Random(seed)
    nn = ctx.n * ctx.n
    x = MatrixAlgebraElement(ctx)
    for _ in range(2):
        exp = [0] * nn
        for _ in range(rng.randint(1, 2)):
            exp[rng.randrange(nn)] += 1
        x = x + MatrixAlgebraElement.monomial(
            ctx, tuple(exp), RationalFunction.from_int(rng.randint(1, 4))
        )
    mu = [
        {
            k: RationalFunction.q_power(rng.randint(-2, 2))
            for k in range(2)
            if rng.random() < 0.6
        }
        for _ in range(2 * ctx.n - 1)
    ]
    return ad(x) + straightened_basis_sum(ctx, mu)


SPECS = [
    pytest.param(2, lambda ctx: basis_derivation(ctx, 1), id="D1-n2"),
    pytest.param(3, lambda ctx: basis_derivation(ctx, 1), id="D1-n3"),
    pytest.param(3, lambda ctx: _suite_style_spec(ctx, 1732), id="suite-style-n3"),
]


# specs whose inner part is nonzero, so that the division reads a coefficient
INNER_SPECS = [
    pytest.param(
        2,
        lambda ctx: ad(MatrixAlgebraElement.generator(ctx, (1, 2)))
        + basis_derivation(ctx, 1),
        id="ad(Y12)+D1-n2",
    ),
    pytest.param(3, lambda ctx: _suite_style_spec(ctx, 1732), id="suite-style-n3"),
]


def _count_checks(monkeypatch):
    check = derivations.check_derivation
    checks = []

    def counted(d):
        checks.append(d)
        return check(d)

    monkeypatch.setattr(derivations, "check_derivation", counted)
    return checks


@pytest.fixture
def wrong_weight(monkeypatch):
    """The mu reader returns the true weights with 1 added to the constant
    term of mu_1, and every call of check_derivation is counted."""
    read = derivations._read_mu

    def one_off(d):
        mu = [dict(m) for m in read(d)]
        mu[0][0] = mu[0].get(0, RF_ZERO) + RF_ONE
        return [{k: c for k, c in m.items() if c} for m in mu]

    monkeypatch.setattr(derivations, "_read_mu", one_off)
    return _count_checks(monkeypatch)


@pytest.fixture
def wrong_inner_coefficient(monkeypatch):
    """The division reads every inner coefficient at a leading coefficient
    off by a factor q, and every call of check_derivation is counted."""
    leader = derivations._bracket_leader

    def off_by_q(ctx, h):
        gen, kappa = leader(ctx, h)
        return gen, kappa * RationalFunction.q_power(1)

    monkeypatch.setattr(derivations, "_bracket_leader", off_by_q)
    return _count_checks(monkeypatch)


def _rejected(entry, table, d, checks):
    with pytest.raises(ConditionViolatedError) as info:
        entry(table, d)
    assert str(info.value) == RESIDUAL
    # d is a derivation, so the one check on failure passes and the
    # residual's error propagates
    assert len(checks) == 1


class TestResidualCertificate:
    @pytest.mark.parametrize("n, make", SPECS)
    def test_express_hh1_rejects_a_wrong_weight(self, wrong_weight, n, make):
        _rejected(express_hh1, TABLES[n], make(build_context(n)), wrong_weight)

    @pytest.mark.parametrize("n, make", SPECS)
    def test_gl_express_rejects_a_wrong_weight(self, wrong_weight, n, make):
        _rejected(gl_express, TABLES[n], make(build_context(n)), wrong_weight)

    @pytest.mark.parametrize("n, make", INNER_SPECS)
    def test_express_hh1_rejects_a_wrong_inner_coefficient(
        self, wrong_inner_coefficient, n, make
    ):
        d = make(build_context(n))
        _rejected(express_hh1, TABLES[n], d, wrong_inner_coefficient)

    @pytest.mark.parametrize("n, make", INNER_SPECS)
    def test_gl_express_rejects_a_wrong_inner_coefficient(
        self, wrong_inner_coefficient, n, make
    ):
        d = make(build_context(n))
        _rejected(gl_express, TABLES[n], d, wrong_inner_coefficient)

    @pytest.mark.parametrize("n, make", SPECS + INNER_SPECS)
    def test_true_inner_part_passes(self, n, make):
        d = make(build_context(n))
        coords = express_hh1(TABLES[n], d)
        rebuilt = ad(coords.inner) + straightened_basis_sum(d.ctx, coords.mu)
        assert (d - rebuilt).is_zero()


# ---------------------------------------------------------------------------
# a suite run on a broken tower

BROKEN_CHECKS = {"tower-03-recursion", "tower-04-minor-monomials"}
# the checks that read the tower when express_hh1 takes the torus route
TORUS_ROUTE_CHECKS = {
    "hh1-01-basis-02",
    "hh1-02-inner",
    "hh1-03-reconstruction",
    "sl-02-weight-sum",
}


def _break_top_entry(monkeypatch, pick):
    """The suite's table has the coefficient of the term pick(terms) of top
    entry (1,1) multiplied by q."""
    build = suite.build_table

    def broken(ctx):
        table = build(ctx)
        top = table.top_entries()
        terms = dict(top[(1, 1)].terms)
        exp = pick(terms)
        terms[exp] = terms[exp] * RationalFunction.q_power(1)
        top[(1, 1)] = TorusElement(ctx, terms)
        return table

    monkeypatch.setattr(suite, "build_table", broken)


@pytest.fixture
def broken_tower(monkeypatch):
    """The heaviest term of top entry (1,1), T11, off by a factor q."""
    _break_top_entry(monkeypatch, max)


class TestSuiteOnABrokenTower:
    def test_the_affected_checks_fail_with_witnesses(self, broken_tower):
        report = suite.run_suite(2, canonical=True)
        failed = {c["id"]: c["witness"] for c in report.checks if c["status"] == "fail"}
        assert set(failed) == BROKEN_CHECKS
        assert all(w for w in failed.values())
        # T11 lies in every level, so the lowest one is no longer the
        # torus generators
        assert failed["tower-03-recursion"] == (
            "level (1, 2) differs from the torus generators at entry (1, 1)"
        )
        assert failed["tower-04-minor-monomials"] == (
            "antidiagonal minor 2 is not the expected monomial"
        )
        assert not report.all_pass()

    def test_the_hh1_checks_do_not_read_the_tower(self, broken_tower):
        report = suite.run_suite(2, canonical=True)
        status = {c["id"]: c["status"] for c in report.checks}
        hh1 = [i for i in status if i.startswith(("hh1-", "sl-"))]
        assert set(TORUS_ROUTE_CHECKS) <= set(hh1)
        assert all(status[i] == "pass" for i in hh1)
        table = suite.build_table(build_context(2))
        for j in range(1, 4):
            d = basis_derivation(table.ctx, j)
            coords = express_hh1(table, d)
            assert not coords.inner and coords.mu == [
                {0: RF_ONE} if k == j else {} for k in range(1, 4)
            ]

    def test_the_torus_route_reads_the_tower(self, broken_tower, monkeypatch):
        monkeypatch.setattr(suite, "express_hh1", torus_express_hh1)
        report = suite.run_suite(2, canonical=True)
        failed = {c["id"]: c["witness"] for c in report.checks if c["status"] == "fail"}
        assert set(failed) == BROKEN_CHECKS | TORUS_ROUTE_CHECKS
        # a crash inside a check is recorded as a failure naming the error
        assert failed["hh1-02-inner"] == f"ConditionViolatedError: {RESIDUAL}"

    def test_a_lighter_broken_term_fails_the_recursion(self, monkeypatch):
        # q T12 T22^-1 T21 has its inner corner at the last pivot (2,2), so
        # it lies only in the top level, and the recursion from the top
        # misses entry (1,1) of the level below it
        _break_top_entry(monkeypatch, min)
        report = suite.run_suite(2, canonical=True)
        failed = {c["id"]: c["witness"] for c in report.checks if c["status"] == "fail"}
        assert failed["tower-03-recursion"] == (
            "level (2, 2) differs from the recursion at entry (1, 1)"
        )

    def test_the_report_still_validates(self, broken_tower):
        data = suite.run_suite(2, canonical=True).to_json()
        assert data["all_pass"] is False
        schema = json.loads(
            (files("qmat") / "schemas" / "report.schema.json").read_text()
        )
        jsonschema.validate(data, schema)

    def test_verify_suite_exits_1(self, broken_tower, capsys):
        assert main(["verify-suite", "--n", "2", "--canonical"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["all_pass"] is False
        failed = {c["id"] for c in data["checks"] if c["status"] == "fail"}
        assert failed == BROKEN_CHECKS

    def test_markdown_lists_every_failure(self, broken_tower, capsys):
        code = main(["verify-suite", "--n", "2", "--out", "markdown", "--canonical"])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert "FAILURES present" in lines
        listed = lines[lines.index("FAILURES present") + 1:]
        assert [line.split(":")[0] for line in listed] == [
            f"- {check_id}" for check_id in sorted(BROKEN_CHECKS)
        ]
        for check_id in BROKEN_CHECKS:
            assert f"| {check_id} | fail |" in "\n".join(lines)
