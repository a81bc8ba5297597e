"""Seeded fuzzing of the command line on one-leaf mutations of valid input.

Each case takes a valid document, a derivation spec of
``golden/hh1_cli_cases.json`` or one of three elements, replaces one value
somewhere in it by a value of another shape, and runs one command on it
in-process under ``--max-terms 20000``.  Every run must return an exit
code of the contract, 0 to 4, and raise nothing.

Mutated integers stay at or below 40 in size.  Huge exponents are not
fuzzed: they still run for a long time under the term guard, because no
degree budget bounds them yet.
"""

import copy
import json
import random
from pathlib import Path

import pytest

from qmat.cli import main
from qmat.context import build_context
from qmat.matrixalg import MatrixAlgebraElement, qdet
from qmat.rational import RationalFunction
from qmat.serialize import element_to_json
from qmat.torus import TorusElement

SPECS = [
    case["spec"]
    for case in json.loads(
        (Path(__file__).parent / "golden" / "hh1_cli_cases.json").read_text()
    )
]


def _elements():
    c2, c3 = build_context(2), build_context(3)
    torus = TorusElement.monomial(c2, (1, -1, 0, 2), RationalFunction.q_power(-1))
    y = MatrixAlgebraElement.generator(c3, (1, 2)) * qdet(c3)
    return [element_to_json(x) for x in (qdet(c2), torus, y)]


ELEMENTS = _elements()
INTS = [-40, -1, 0, 1, 2, 3, 5, 40]
REPLACEMENTS = INTS + [
    True, None, 1.5, "", "Mq", "torus", [], {}, ["Mq"], [1, 1],
    {"num": [1], "den": [0]},
]
COMMANDS = {
    "check": (["derivation", "check"], SPECS, 1),
    "decompose": (["derivation", "decompose"], SPECS, 1),
    "hh1": (["derivation", "hh1"], SPECS, 1),
    "mul": (["mul"], ELEMENTS, 2),
    "embed": (["embed"], ELEMENTS, 1),
    "central": (["central"], ELEMENTS, 1),
}
CASES_PER_COMMAND = 50


def _nodes(doc, path=()):
    """(key, path) of every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield key, path + (key,)
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


def _mutate(doc, rng: random.Random):
    """doc with one value replaced.  Half the time an integer leaf gets
    another integer, which mostly gets past the parser; otherwise the key
    is drawn first, uniformly among the keys of doc (list positions count
    as one key "[]"), so that a rare key such as "alg" is hit as often as a
    common one, and its value gets any replacement."""
    by_key = {}
    for key, path in _nodes(doc):
        by_key.setdefault(key if isinstance(key, str) else "[]", []).append(path)
    ints = [p for paths in by_key.values() for p in paths if type(_at(doc, p)) is int]
    if rng.random() < 0.5:
        path, value = rng.choice(ints), rng.choice(INTS)
    else:
        path = rng.choice(by_key[rng.choice(sorted(by_key))])
        value = rng.choice(REPLACEMENTS)
    out = copy.deepcopy(doc)
    _at(out, path[:-1])[path[-1]] = copy.deepcopy(value)
    return out


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_mutated_input_exits_by_the_contract(command, tmp_path, capsys):
    argv, docs, operands = COMMANDS[command]
    rng = random.Random(f"cli-fuzz-{command}")
    for case in range(CASES_PER_COMMAND):
        paths = []
        for k in range(operands):
            doc = _mutate(rng.choice(docs), rng) if k == 0 else rng.choice(docs)
            path = tmp_path / f"{case}-{k}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        code = main(["--max-terms", "20000", *argv, *paths])
        capsys.readouterr()
        assert 0 <= code <= 4, (command, case)
