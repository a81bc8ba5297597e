"""Quantum minors by vertex-disjoint path systems.

The top table against the closed form of the path model, and ``embed``'s
path-system sum against Horner's rule over the PBW order
(tests/horner_oracle.py), which multiplies top entries only.  The product
path ``tower._embed_product`` is no oracle here: it divides det_q out and
embeds it by the path-system sum, so embed(det_q) would be checked against
itself.
"""

import importlib.util
import random
from itertools import combinations
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmat.tower as tower
from qmat.context import build_context
from qmat.errors import ResourceLimitError
from qmat.limits import restored_max_terms, set_max_terms
from qmat.matrixalg import MatrixAlgebraElement, qdet, qminor
from qmat.rational import RF_ONE, RationalFunction
from qmat.torus import TorusElement, delta_exponents
from qmat.tower import build_table, embed


def _load_oracle():
    path = Path(__file__).with_name("horner_oracle.py")
    spec = importlib.util.spec_from_file_location("horner_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


horner_embed = _load_oracle().horner_embed


def path_closed_form(n, i, a):
    """Top entry (i, a) as {exponents: q^m}, one term per staircase path
    with outer corners (i, c_0), (r_1, c_1), ..., (r_m, a) and inner
    corners (r_1, c_0), ..., (r_m, c_{m-1}), i < r_1 < ... < r_m,
    c_0 > ... > c_{m-1} > a."""
    out = {}
    for m in range(n - i + 1):
        for rs in combinations(range(i + 1, n + 1), m):
            for cs in combinations(range(a + 1, n + 1), m):
                cs = cs[::-1] + (a,)
                outer = [(i, cs[0])] + [(rs[k], cs[k + 1]) for k in range(m)]
                inner = [(rs[k], cs[k]) for k in range(m)]
                exp = [0] * (n * n)
                for (r, c), sign in [(cell, 1) for cell in outer] + [
                    (cell, -1) for cell in inner
                ]:
                    exp[(r - 1) * n + c - 1] += sign
                out[tuple(exp)] = RationalFunction.q_power(m)
    return out


@pytest.mark.parametrize("n", range(2, 8))
def test_top_table_is_the_path_closed_form(n):
    top = build_table(build_context(n)).top_entries()
    for (i, a), entry in top.items():
        assert entry.terms == path_closed_form(n, i, a), (i, a)


def minors(n, sizes):
    ctx = build_context(n)
    for t in sizes:
        for rows in combinations(range(1, n + 1), t):
            for cols in combinations(range(1, n + 1), t):
                yield qminor(ctx, rows, cols)


@pytest.fixture
def path_calls(monkeypatch):
    """Arguments of every ``_path_systems`` call."""
    calls = []
    original = tower._path_systems

    def counted(table, rows, cols):
        calls.append((tuple(rows), tuple(cols)))
        return original(table, rows, cols)

    monkeypatch.setattr(tower, "_path_systems", counted)
    return calls


class TestAgainstProductPath:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_minor(self, n, path_calls):
        table = build_table(build_context(n))
        count = 0
        for m in minors(n, range(2, n + 1)):
            assert embed(table, m) == horner_embed(table, m)
            count += 1
        assert len(path_calls) == count

    def test_every_3x3_minor_at_n5(self, path_calls):
        table = build_table(build_context(5))
        for m in minors(5, [3]):
            assert embed(table, m) == horner_embed(table, m)
        assert len(path_calls) == 100

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(st.integers(1, 3), min_size=2, max_size=3, unique=True),
        cols=st.lists(st.integers(1, 3), min_size=2, max_size=3, unique=True),
        num=st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any),
        den=st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any),
    )
    def test_general_coefficient(self, rows, cols, num, den):
        t = min(len(rows), len(cols))
        ctx = build_context(3)
        table = build_table(ctx)
        c = RationalFunction(num, den)
        x = qminor(ctx, sorted(rows[:t]), sorted(cols[:t])).scale(c)
        assert tower._as_minor(ctx, x) is not None
        assert embed(table, x) == horner_embed(table, x)

    @pytest.mark.parametrize("n", [5, 6])
    def test_qdet_is_delta_n(self, n, path_calls):
        ctx = build_context(n)
        delta_n = TorusElement.monomial(ctx, delta_exponents(ctx, n))
        assert embed(build_table(ctx), qdet(ctx)) == delta_n
        assert path_calls == [(tuple(range(1, n + 1)),) * 2]

    def test_minors_leave_the_monomial_cache_alone(self):
        ctx = build_context(4)
        table = build_table(ctx)
        first = embed(table, qdet(ctx))
        assert embed(table, qdet(ctx)) == first
        assert not table._embed_cache


class TestLazyTable:
    """A fresh table builds only the top entries that an embed reads, and
    what it builds equals a table whose levels were all built first."""

    def test_a_minor_reads_only_its_top_entries(self):
        ctx = build_context(5)
        table = build_table(ctx)
        embed(table, qminor(ctx, (1, 3, 4), (2, 3, 5)))
        assert "entries" not in table.__dict__
        assert len(table._top) == 3

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_minor_on_a_fresh_table(self, n):
        joined = build_table(build_context(n))
        joined.entries
        for m in minors(n, range(2, n + 1)):
            assert embed(build_table(m.ctx), m) == embed(joined, m)

    @pytest.mark.parametrize("n", [5, 6])
    def test_qdet_on_a_fresh_table(self, n):
        ctx = build_context(n)
        joined = build_table(ctx)
        joined.entries
        assert embed(build_table(ctx), qdet(ctx)) == embed(joined, qdet(ctx))


def qminor_as_minor(ctx, x):
    """The minor check that ``tower._as_minor`` replaced: build qminor on
    the rows and columns of the first term and compare term by term."""
    terms = x.terms
    if not terms:
        return None
    first = next(iter(terms))
    t = sum(first)
    if t < 2 or len(terms) != factorial(t):
        return None
    cells = [ctx.gen_at(k) for k, e in enumerate(first) if e]
    rows = sorted({i for i, _ in cells})
    cols = sorted({a for _, a in cells})
    if not len(cells) == len(rows) == len(cols) == t:
        return None
    minor = qminor(ctx, rows, cols).terms
    if minor.keys() != terms.keys():
        return None
    coeff = terms[first] / minor[first]
    if any(terms[h] != coeff * m for h, m in minor.items()):
        return None
    return rows, cols, coeff


def _minor_variants(ctx, m, rng):
    """m scaled, and m with one term changed: its coefficient perturbed,
    its sign flipped, or its key moved to two cells in one column."""
    scales = (
        RationalFunction((-2,)),
        RationalFunction.q_power(-3),
        RationalFunction((1, 2), (3, 0, 1)),
    )
    out = [m] + [m.scale(c) for c in scales]
    keys = list(m.terms)
    key = rng.choice(keys)
    for change in (RationalFunction.q_power(1), -RF_ONE, RationalFunction((2, 1))):
        terms = dict(m.terms)
        terms[key] = terms[key] * change
        out.append(MatrixAlgebraElement(ctx, terms))
    cells = [k for k, e in enumerate(key) if e]
    n = ctx.n
    same_column = list(key)
    same_column[cells[1]] -= 1
    same_column[cells[1] // n * n + cells[0] % n] += 1
    terms = dict(m.terms)
    terms[tuple(same_column)] = terms.pop(key)
    out.append(MatrixAlgebraElement(ctx, terms))
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_as_minor_matches_the_qminor_check(n):
    ctx = build_context(n)
    rng = random.Random(n)
    for m in minors(n, range(2, n + 1)):
        for x in _minor_variants(ctx, m, rng):
            assert tower._as_minor(ctx, x) == qminor_as_minor(ctx, x)


def _near_misses(ctx):
    m = qminor(ctx, (1, 2, 3), (1, 2, 4))
    first, second = list(m.terms)[:2]
    changed = dict(m.terms)
    changed[first] = changed[first] + RF_ONE
    added = dict(m.terms)
    added[tuple(e + (k == 0) for k, e in enumerate(first))] = RF_ONE
    flipped = dict(m.terms)
    flipped[second] = -flipped[second]
    moved = dict(m.terms)
    moved[(1,) + (0,) * (len(first) - 3) + (1, 1)] = moved.pop(second)
    squared = MatrixAlgebraElement.generator(ctx, (1, 1))
    squared = squared * squared
    return {
        "coefficient changed": changed,
        "term added": added,
        "sign flipped": flipped,
        "term moved": moved,
        "square": squared.terms,
        "generator": {(1,) + (0,) * (len(first) - 1): RF_ONE},
    }


@pytest.mark.parametrize("case", sorted(_near_misses(build_context(4))))
def test_near_misses_take_the_product_path(case, path_calls):
    ctx = build_context(4)
    x = MatrixAlgebraElement(ctx, _near_misses(ctx)[case])
    table = build_table(ctx)
    assert tower._as_minor(ctx, x) is None
    assert embed(table, x) == horner_embed(table, x)
    assert path_calls == []


def test_path_system_sum_has_its_own_term_guard():
    ctx = build_context(4)
    table = build_table(ctx)
    minor = qminor(ctx, (1, 2), (1, 2))
    size = len(embed(table, minor).terms)
    assert size > 3
    with restored_max_terms():
        set_max_terms(3)
        with pytest.raises(ResourceLimitError, match="path-system sum"):
            embed(table, minor)
