"""Each derivation answer certified once, by its zero residual.

``express_hh1`` rests on the algebra residual d - ad(inner) -
sum_j mu_j(det_q) D_j alone, and ``lift_to_torus`` reads the lift off
that certified answer; ``derivation decompose`` rests on the torus
residual d - ad_x - theta of its one splitting.  The relations are
checked only when a step fails, and never after a tripped term guard.
These tests pin down that every non-derivation is still rejected, that
neither the relation check nor the torus certificate runs on the success
path of ``express_hh1``, which embeds nothing and forms no torus product,
that a tripped guard ends the call, that the lift returns where the
quotient-rule lift trips, that each mu_j lands in slot j, and that the
one-product-per-generator residual matches the per-basis products it
replaced.
"""

import io
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmat.derivations as derivations
import qmat.tower as tower
from basis_sum_oracle import straightened_basis_sum
from lift_oracle import _lift
from qmat.cli import main
from qmat.context import build_context
from qmat.derivations import (
    DerivationSpec,
    _weighted_basis_sum,
    ad,
    basis_derivation,
    check_derivation,
    decompose_torus_derivation,
    express_hh1,
    failing_relations,
    lift_to_torus,
)
from qmat.errors import NotADerivationError, NotInSpanError, ResourceLimitError
from qmat.limits import restored_max_terms, set_max_terms
from qmat.matrixalg import MatrixAlgebraElement, qdet
from qmat.rational import RF_ONE, RationalFunction
from qmat.serialize import derivation_to_json, element_to_json
from qmat.suite import _random_matrix_element, _random_mu_poly
from qmat.torus import TorusElement
from qmat.tower import StepGeneratorTable, build_table

Q = RationalFunction.q_power
TABLES = {n: build_table(build_context(n)) for n in (2, 3)}

laurent = st.builds(
    lambda c, k: RationalFunction.from_int(c) * Q(k),
    st.integers(-2, 2).filter(bool),
    st.integers(-2, 2),
)


def exponents(n, max_degree=2):
    return st.lists(
        st.integers(0, n * n - 1), max_size=max_degree
    ).map(lambda cells: tuple(cells.count(k) for k in range(n * n)))


def _count_calls(monkeypatch, name):
    """Count the calls of ``derivations.<name>`` made through the module."""
    calls = []
    original = getattr(derivations, name)

    def counted(d):
        calls.append(d)
        return original(d)

    monkeypatch.setattr(derivations, name, counted)
    return calls


@pytest.fixture
def check_calls(monkeypatch):
    return _count_calls(monkeypatch, "check_derivation")


@pytest.fixture
def decompose_calls(monkeypatch):
    return _count_calls(monkeypatch, "decompose_torus_derivation")


def _one_image_only(ctx, gen):
    """Y(1,1) -> Y(1,1) and every other generator -> 0: not a derivation."""
    return DerivationSpec(
        ctx, "Mq", {gen: MatrixAlgebraElement.generator(ctx, gen)}
    )


# ---------------------------------------------------------------------------
# the residual against the per-basis products it replaced


def _documented_basis(ctx, j):
    """D_j as the basis_derivation docstring states it, generator by generator."""
    n = ctx.n
    images = {}
    for (i, a) in ctx.generators:
        g = MatrixAlgebraElement.generator(ctx, (i, a))
        zero = MatrixAlgebraElement(ctx)
        if j < n:
            images[(i, a)] = g if a == n + 1 - j else zero
        elif j == n:
            if (i, a) == (1, 1):
                images[(i, a)] = g
            elif i >= 2 and a >= 2:
                images[(i, a)] = g.scale(-RF_ONE)
            else:
                images[(i, a)] = zero
        else:
            images[(i, a)] = g if i == j - n + 1 else zero
    return DerivationSpec(ctx, "Mq", images)


def _per_basis_sum(ctx, mu):
    """sum_j mu_j(det_q) * D_j with one factor and one product per image of
    every D_j, as the residual was built before."""
    det = qdet(ctx)
    out = DerivationSpec(ctx, "Mq", {})
    for j, weight in enumerate(mu, 1):
        if not weight:
            continue
        factor = MatrixAlgebraElement(ctx)
        for k in sorted(weight):
            power = MatrixAlgebraElement.one(ctx)
            for _ in range(k):
                power = power * det
            factor = factor + power.scale(weight[k])
        base = _documented_basis(ctx, j)
        out = out + DerivationSpec(
            ctx, "Mq", {g: factor * v for g, v in base.images.items()}
        )
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_basis_derivation_matches_documented_rule(n):
    ctx = build_context(n)
    for j in range(1, 2 * n):
        assert basis_derivation(ctx, j) == _documented_basis(ctx, j)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([2, 3]).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.dictionaries(st.integers(0, 2), laurent, max_size=2),
                min_size=2 * n - 1,
                max_size=2 * n - 1,
            ),
        )
    )
)
def test_weighted_basis_sum_matches_per_basis_products(case):
    n, mu = case
    ctx = build_context(n)
    assert _weighted_basis_sum(StepGeneratorTable(ctx), mu) == _per_basis_sum(ctx, mu)


def test_single_weight_matches_per_basis_product():
    ctx = build_context(3)
    weight = {0: Q(1), 2: -RF_ONE}
    for j in range(1, 6):
        mu = [weight if k == j else {} for k in range(1, 6)]
        assert _weighted_basis_sum(TABLES[3], mu) == _per_basis_sum(ctx, mu)


# ---------------------------------------------------------------------------
# the check runs only on failure


def test_check_skipped_on_success(check_calls, decompose_calls):
    ctx = build_context(3)
    x = MatrixAlgebraElement.generator(ctx, (1, 2))
    d = ad(x) + straightened_basis_sum(ctx, [{}, {1: Q(1)}, {}, {}, {}])
    coords = express_hh1(TABLES[3], d)
    assert coords.mu[1] == {1: Q(1)}
    assert check_calls == []
    # the residual is the one certificate: no torus reconstruction either
    assert decompose_calls == []


@pytest.mark.parametrize("n, k", [(2, 0), (3, 0), (3, 2), (4, 1)])
def test_express_hh1_runs_no_torus_work(n, k, monkeypatch):
    """express_hh1 on an Mq spec embeds nothing and multiplies no torus
    elements: it works in the algebra alone."""
    d = _suite_style_spec(n, k)
    calls = []

    def spy(name, original):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapped

    for module in (tower, derivations):
        monkeypatch.setattr(module, "embed", spy("embed", module.embed))
    monkeypatch.setattr(
        TorusElement, "__mul__", spy("TorusElement.__mul__", TorusElement.__mul__)
    )
    coords = express_hh1(build_table(d.ctx), d)
    assert calls == []
    assert (d - ad(coords.inner) - straightened_basis_sum(d.ctx, coords.mu)).is_zero()


def test_check_runs_once_on_failure(check_calls):
    ctx = build_context(2)
    with pytest.raises(NotADerivationError):
        express_hh1(TABLES[2], _one_image_only(ctx, (1, 1)))
    assert len(check_calls) == 1


def test_other_failure_of_a_derivation_is_reraised(check_calls, monkeypatch):
    def no_solution(ctx, acc):
        raise NotInSpanError("forced")

    monkeypatch.setattr(derivations, "_divide_inner_part", no_solution)
    ctx = build_context(2)
    with pytest.raises(NotInSpanError, match="forced"):
        express_hh1(TABLES[2], basis_derivation(ctx, 1))
    assert len(check_calls) == 1


# ---------------------------------------------------------------------------
# a tripped term guard ends the call


def _suite_style_spec(n, k):
    """The k-th spec ad(x) + sum_j mu_j(det_q) D_j drawn from 1729 + n."""
    ctx = build_context(n)
    rng = random.Random(1729 + n)
    for _ in range(k + 1):
        x = _random_matrix_element(ctx, rng)
        mu = [_random_mu_poly(ctx, rng) for _ in range(2 * n - 1)]
    return ad(x) + straightened_basis_sum(ctx, mu)


# on a fresh table the quotient-rule lift (``lift_oracle._lift``) of this
# spec trips a limit of 200 in a torus product, before the relation check
# could trip it in a quantum-matrix product
TRIPPED_SPEC, TRIPPED_LIMIT = _suite_style_spec(5, 1), 200
TRIPPED = r"^torus product exceeded the term limit \(\d+ > 200\)"
# express_hh1, and lift_to_torus through it, form no torus product before
# the answer; on a fresh table they trip a limit of 150 in a quantum-matrix
# product, as the relation check could
HH1_TRIPPED_LIMIT = 150
HH1_TRIPPED = r"^quantum-matrix product exceeded the term limit \(\d+ > 150\)"


@pytest.mark.parametrize(
    "entry, limit, message",
    [
        pytest.param(
            lift_to_torus, HH1_TRIPPED_LIMIT, HH1_TRIPPED, id="lift_to_torus"
        ),
        pytest.param(express_hh1, HH1_TRIPPED_LIMIT, HH1_TRIPPED, id="express_hh1"),
    ],
)
def test_a_tripped_guard_is_final(entry, limit, message, check_calls):
    table = build_table(TRIPPED_SPEC.ctx)
    with restored_max_terms():
        set_max_terms(limit)
        with pytest.raises(ResourceLimitError, match=message):
            entry(table, TRIPPED_SPEC)
    assert check_calls == []


def test_express_hh1_returns_where_the_lift_trips(check_calls):
    """At the limit where the quotient-rule lift trips, express_hh1 returns
    the answer it gives unlimited, without checking."""
    expected = express_hh1(build_table(TRIPPED_SPEC.ctx), TRIPPED_SPEC)
    with restored_max_terms():
        set_max_terms(TRIPPED_LIMIT)
        coords = express_hh1(build_table(TRIPPED_SPEC.ctx), TRIPPED_SPEC)
    assert (coords.inner, coords.mu) == (expected.inner, expected.mu)
    assert check_calls == []


def test_lift_to_torus_returns_where_the_quotient_rule_lift_trips(check_calls):
    expected = _lift(build_table(TRIPPED_SPEC.ctx), TRIPPED_SPEC)
    with restored_max_terms():
        set_max_terms(TRIPPED_LIMIT)
        lifted = lift_to_torus(build_table(TRIPPED_SPEC.ctx), TRIPPED_SPEC)
        with pytest.raises(ResourceLimitError, match=TRIPPED):
            _lift(build_table(TRIPPED_SPEC.ctx), TRIPPED_SPEC)
    assert lifted == expected
    assert check_calls == []


def test_cli_reports_the_tripped_guard(check_calls, tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(derivation_to_json(TRIPPED_SPEC)))
    code = main(["--max-terms", str(HH1_TRIPPED_LIMIT), "derivation", "hh1", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: quantum-matrix product exceeded ")
    assert check_calls == []


# ---------------------------------------------------------------------------
# each mu_j is read into slot j


def _distinct_weights(n):
    """2n-1 distinct nonzero weights, every other one with a det_q term."""
    return [
        {0: RationalFunction.from_int(j), 1: Q(j)}
        if j % 2
        else {0: RationalFunction.from_int(-j)}
        for j in range(1, 2 * n)
    ]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_each_mu_lands_in_its_slot(n):
    ctx = build_context(n)
    mu = _distinct_weights(n)
    x = MatrixAlgebraElement.generator(ctx, (1, 2))
    table = TABLES[n] if n in TABLES else build_table(ctx)
    coords = express_hh1(table, ad(x) + _per_basis_sum(ctx, mu))
    assert coords.mu == mu
    assert ad(coords.inner) == ad(x)


# ---------------------------------------------------------------------------
# perturbed derivations are rejected exactly when a relation fails


perturbed_cases = st.sampled_from([2, 3]).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(exponents(n), laurent), min_size=1, max_size=2),
        st.integers(1, 2 * n - 1),
        st.integers(0, n * n - 1),
        exponents(n),
        st.one_of(st.just(None), laurent),
    )
)


def _perturbed(case):
    """ad(x) + D_j, and that spec with one generator image perturbed by
    c * Y^h (unchanged when c is None)."""
    n, x_terms, j, cell, h, coeff = case
    ctx = build_context(n)
    x = MatrixAlgebraElement(ctx)
    for exp, c in x_terms:
        x = x + MatrixAlgebraElement.monomial(ctx, exp, c)
    d = ad(x) + basis_derivation(ctx, j)
    gen = ctx.generators[cell]
    images = dict(d.images)
    if coeff is not None:
        images[gen] = images[gen] + MatrixAlgebraElement.monomial(ctx, h, coeff)
    return x, d, DerivationSpec(ctx, "Mq", images)


@settings(max_examples=25, deadline=None)
@given(perturbed_cases)
def test_perturbed_derivation(case):
    n, j = case[0], case[2]
    ctx = build_context(n)
    table = TABLES[n]
    x, d, perturbed = _perturbed(case)

    if failing_relations(check_derivation(perturbed)):
        with pytest.raises(NotADerivationError):
            express_hh1(table, perturbed)
        return
    coords = express_hh1(table, perturbed)
    if perturbed == d:
        assert coords.mu == [
            {0: RF_ONE} if k == j else {} for k in range(1, 2 * n)
        ]
        assert ad(coords.inner) == ad(x)
    else:
        rebuilt = ad(coords.inner) + straightened_basis_sum(ctx, coords.mu)
        assert rebuilt == perturbed


@settings(max_examples=25, deadline=None)
@given(perturbed_cases)
def test_lift_to_torus_matches_the_checked_lift(case):
    """``lift_to_torus`` rejects a spec exactly when a relation fails, and
    checks it only after the division of ``express_hh1`` fails; otherwise
    it returns the quotient-rule lift without checking."""
    _, _, perturbed = _perturbed(case)
    table = TABLES[perturbed.ctx.n]
    bad = failing_relations(check_derivation(perturbed))
    events = []
    divide = derivations._divide_inner_part

    def certify(ctx, acc):
        try:
            return divide(ctx, acc)
        except Exception:
            events.append("certificate failed")
            raise

    def check(d):
        events.append("checked")
        return check_derivation(d)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(derivations, "_divide_inner_part", certify)
        patch.setattr(derivations, "check_derivation", check)
        if bad:
            with pytest.raises(NotADerivationError) as info:
                lift_to_torus(table, perturbed)
            assert str(info.value) == f"images violate relations at pairs {bad}"
            assert events == ["certificate failed", "checked"]
            return
        lifted = lift_to_torus(table, perturbed)
    assert lifted == _lift(table, perturbed)
    assert events == []


@settings(max_examples=25, deadline=None)
@given(perturbed_cases)
def test_cli_decompose_of_perturbed_derivation(case):
    """``derivation decompose`` on an Mq spec rejects it exactly when a
    relation fails, and otherwise prints the splitting of its checked lift."""
    _, _, perturbed = _perturbed(case)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.json"
        path.write_text(json.dumps(derivation_to_json(perturbed)))
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["derivation", "decompose", str(path)])

    bad = failing_relations(check_derivation(perturbed))
    if bad:
        assert (code, out.getvalue()) == (4, "")
        assert err.getvalue() == f"error: images violate relations at pairs {bad}\n"
        return
    assert code == 0 and err.getvalue() == ""
    dec = decompose_torus_derivation(
        lift_to_torus(TABLES[perturbed.ctx.n], perturbed)
    )
    got = json.loads(out.getvalue())
    assert got["x"] == element_to_json(dec.x)
    assert got["z"] == [
        {"gen": list(gen), "value": element_to_json(dec.z[gen])}
        for gen in perturbed.ctx.generators
    ]
