"""HH^1 answers pinned byte for byte.

``golden/hh1_answers.json`` records, for seeded specs
d = ad(x) + sum_j mu_j(det_q) D_j at n = 2, 3 and 4, the ingredients x and
mu and the ``hh1_to_json`` of ``express_hh1(d)``.  The specs are drawn with
the verification suite's randomized helpers from ``SEED + n``; regenerate
the file with

    PYTHONPATH=src python tests/test_hh1_golden.py
"""

import json
import random
from functools import lru_cache
from pathlib import Path

import pytest

from basis_sum_oracle import straightened_basis_sum
from qmat.context import build_context
from qmat.derivations import ad, express_hh1
from qmat.serialize import det_poly_to_json, element_to_json, hh1_to_json
from qmat.suite import _random_matrix_element, _random_mu_poly
from qmat.tower import build_table

GOLDEN = Path(__file__).parent / "golden" / "hh1_answers.json"
SEED = 1729
SPECS_PER_N = {2: 4, 3: 4, 4: 4}


def _cases():
    """(name, n, x, mu) for every pinned spec, in file order."""
    for n, count in SPECS_PER_N.items():
        ctx = build_context(n)
        rng = random.Random(SEED + n)
        for k in range(count):
            x = _random_matrix_element(ctx, rng)
            mu = [_random_mu_poly(ctx, rng) for _ in range(2 * n - 1)]
            yield f"n{n}_{k}", n, x, mu


@lru_cache(maxsize=None)
def _table(n):
    return build_table(build_context(n))


def _record(n, x, mu) -> dict:
    d = ad(x) + straightened_basis_sum(x.ctx, mu)
    return {
        "x": element_to_json(x),
        "mu": [det_poly_to_json(m) for m in mu],
        "answer": hh1_to_json(express_hh1(_table(n), d)),
    }


CASES = list(_cases())
RECORDED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.mark.parametrize("name, n, x, mu", CASES, ids=[c[0] for c in CASES])
def test_hh1_answer_matches_golden(name, n, x, mu):
    got = json.dumps(_record(n, x, mu), sort_keys=True)
    assert got == json.dumps(RECORDED[name], sort_keys=True)


if __name__ == "__main__":
    records = {name: _record(n, x, mu) for name, n, x, mu in CASES}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
