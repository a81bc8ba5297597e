"""Every tower level against the torus-product recursion, and the checks
that certify the path cuts of ``build_table``.

The oracle (tests/tower_recursion_oracle.py) builds each level by torus
products and a pivot inverse; ``build_table`` cuts every level from the
Cauchon paths of the top entries and multiplies nothing.
``verify_forward_recursion`` (suite check tower-03) checks the lowest
level against the torus generators and multiplies real torus elements
above it, so a wrong term at any level must fail it.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

import qmat.suite as suite
from qmat.cli import main
from qmat.context import build_context
from qmat.errors import ResourceLimitError
from qmat.limits import restored_max_terms, set_max_terms
from qmat.rational import RationalFunction
from qmat.torus import TorusElement
from qmat.tower import build_table, verify_forward_recursion

GOLDEN = Path(__file__).parent / "golden" / "export_table_sha256.json"


def _load_oracle():
    path = Path(__file__).with_name("tower_recursion_oracle.py")
    spec = importlib.util.spec_from_file_location("tower_recursion_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


recursion_levels = _load_oracle().recursion_levels


@pytest.mark.parametrize("n", range(2, 8))
def test_every_level_matches_the_recursion(n):
    ctx = build_context(n)
    built, expected = build_table(ctx).entries, recursion_levels(ctx)
    assert list(built) == list(expected) == list(ctx.E)
    for step, entries in expected.items():
        assert built[step] == entries, step


def _corrupted(kind):
    """An n = 4 table with one term of one entry of a middle level changed:
    its coefficient q^m made q^(m+1), or the term dropped.  The entry is
    replaced by a changed copy in that level only."""
    table = build_table(build_context(4))
    step = table.ctx.E[len(table.ctx.E) // 2]
    level = table.entries[step] = dict(table.entries[step])
    gen = max(level, key=lambda g: len(level[g].terms))
    entry = TorusElement(table.ctx, level[gen].terms)
    exp, coeff = list(entry.terms.items())[-1]
    assert len(entry.terms) > 1 and coeff != RationalFunction.q_power(0)
    if kind == "raise q-power":
        entry.terms[exp] = coeff * RationalFunction.q_power(1)
    else:
        del entry.terms[exp]
    level[gen] = entry
    return table


@pytest.mark.parametrize("kind", ["raise q-power", "drop term"])
def test_certificate_rejects_a_changed_middle_level(kind, monkeypatch):
    table = _corrupted(kind)
    assert not verify_forward_recursion(table)
    monkeypatch.setattr(suite, "build_table", lambda ctx: table)
    checks = {c["id"]: c for c in suite.run_suite(4, canonical=True).checks}
    assert checks["tower-03-recursion"]["status"] == "fail"


def test_certificate_rejects_a_changed_lowest_level(monkeypatch):
    # the lowest level anchors the recursion: it must be the torus generators
    table = build_table(build_context(3))
    bottom = table.entries[table.ctx.E[0]]
    bottom[(2, 2)] = bottom[(2, 2)].scale(RationalFunction.q_power(1))
    assert not verify_forward_recursion(table)
    monkeypatch.setattr(suite, "build_table", lambda ctx: table)
    checks = {c["id"]: c for c in suite.run_suite(3, canonical=True).checks}
    assert checks["tower-03-recursion"]["witness"] == (
        "level (1, 2) differs from the torus generators at entry (2, 2)"
    )


@pytest.mark.parametrize("n", [3, 4])
def test_levels_read_after_top_entries_match_the_recursion(n):
    # top entries read first are kept, and the levels are cut from them
    ctx = build_context(n)
    table = build_table(ctx)
    for gen in [(1, 1), (2, 1), (1, n)]:
        table.top_entry(gen)
    expected = recursion_levels(ctx)
    assert list(table.entries) == list(expected)
    for step, entries in expected.items():
        assert table.entries[step] == entries, step


def test_table_build_respects_the_term_limit():
    # the table builds its levels on their first read
    with restored_max_terms():
        set_max_terms(3)
        with pytest.raises(ResourceLimitError, match="tower table"):
            build_table(build_context(3)).entries


def test_top_entry_respects_the_term_limit():
    table = build_table(build_context(3))
    with restored_max_terms():
        set_max_terms(3)
        with pytest.raises(ResourceLimitError, match="tower table"):
            table.top_entry((1, 1))


@pytest.mark.parametrize("n", range(2, 6))
def test_export_table_bytes_are_unchanged(n, capsys):
    # SHA-256 of `qmat export-table --n n` as the torus-product recursion
    # printed it
    assert main(["export-table", "--n", str(n)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == json.loads(GOLDEN.read_text())[str(n)]
