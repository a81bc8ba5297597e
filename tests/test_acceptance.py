"""End-to-end acceptance checks.

Each test prints one pass/fail line and enforces both exact equality and
its runtime budget.  All arithmetic is exact; there are no tolerances.
"""

import random
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from basis_sum_oracle import straightened_basis_sum
from qmat.context import build_context
from qmat.derivations import (
    DerivationSpec,
    ad,
    annihilates_qdet,
    basis_derivation,
    central_scaling_spec,
    check_z_condition,
    decompose_torus_derivation,
    express_hh1,
    is_derivation,
    mu_sum_constraint,
    sl_basis_derivation,
)
from qmat.linalg import _rref, integer_kernel_basis
from qmat.matrixalg import MatrixAlgebraElement, b_minor, qdet, sigma_automorphism
from qmat.rational import RF_ONE
from qmat.suite import (
    _random_central,
    _random_matrix_element,
    _random_mu_poly,
    _random_noncentral_torus,
)
from qmat.torus import (
    TorusElement,
    delta_exponents,
    delta_lattice_coordinates,
)
from qmat.tower import build_table, embed, verify_relations_preserved

TABLES = {n: build_table(build_context(n)) for n in (2, 3, 4)}


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{self.name}: {status} ({elapsed:.2f}s, budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_01_relation_preservation():
    for n, budget in ((2, 1.0), (3, 10.0)):
        with _Budget(f"criterion 1 (relations through the tower, n={n})", budget):
            report = verify_relations_preserved(TABLES[n])
            assert len(report) == {2: 6, 3: 36}[n]
            assert all(entry["ok"] for entry in report)


def test_criterion_02_minor_monomials():
    with _Budget("criterion 2 (antidiagonal minors embed as monomials)", 5.0):
        for n in (2, 3):
            ctx = TABLES[n].ctx
            for i in range(1, 2 * n):
                expected = TorusElement.one(ctx)
                if i <= n:
                    path = [(k, n - i + k) for k in range(1, i + 1)]
                else:
                    path = [(i - n + k, k) for k in range(1, 2 * n - i + 1)]
                for gen in path:
                    expected = expected * TorusElement.generator(ctx, gen)
                assert embed(TABLES[n], b_minor(ctx, i)) == expected


def rational_rank(rows) -> int:
    """Rank over Q of an integer matrix given as a list of rows."""
    return len(_rref([[Fraction(c) for c in row] for row in rows]))


def _zset_condition_matrix(ctx):
    n = ctx.n
    rows = []
    for b in range(1, n + 1):
        ref = ctx.flat(1, b)
        for k in range(2, n - b + 2):
            row = [0] * (n * n)
            row[ctx.flat(k, b + k - 1)] = 1
            row[ref] = -1
            rows.append(row)
        for m in range(1, b):
            row = [0] * (n * n)
            row[ctx.flat(n - b + 1 + m, m)] = 1
            row[ref] = 1
            rows.append(row)
    return np.array(rows, dtype=np.float64)


def _box_chunks(nn, bound, lead=3):
    """Exponent boxes as float arrays, chunked along the leading coordinates."""
    vals = np.arange(-bound, bound + 1, dtype=np.float64)
    tail = nn - lead
    grid = np.stack(
        np.meshgrid(*([vals] * tail), indexing="ij"), axis=-1
    ).reshape(-1, tail)
    for head in product(vals, repeat=lead):
        block = np.empty((grid.shape[0], nn), dtype=np.float64)
        block[:, :lead] = head
        block[:, lead:] = grid
        yield block


def test_criterion_03_centre_certification():
    with _Budget("criterion 3 (centre lattice and diagonal chains)", 30.0):
        for n in (2, 3, 4):
            ctx = build_context(n)
            B_rows = [list(row) for row in ctx.B]
            assert rational_rank(B_rows) == n * n - n
            kernel = integer_kernel_basis(B_rows)
            assert len(kernel) == n
            for vec in kernel:
                # read-off + exact verification: raises if not in the span
                delta_lattice_coordinates(ctx, vec)
            for i in range(1, n + 1):
                d = delta_exponents(ctx, i)
                assert all(
                    sum(r * c for r, c in zip(row, d)) == 0 for row in ctx.B
                )
        for n in (2, 3):
            ctx = build_context(n)
            B = np.array(ctx.B, dtype=np.float64)
            Z = _zset_condition_matrix(ctx)
            for block in _box_chunks(n * n, 2):
                central = np.all(block @ B.T == 0, axis=1)
                chains = np.all(block @ Z.T == 0, axis=1)
                assert np.array_equal(central, chains)


def test_criterion_04_pattern_centrals_are_det_powers():
    with _Budget("criterion 4 (pattern-admissible centrals)", 30.0):
        for n in (2, 3):
            ctx = build_context(n)
            nn = n * n
            B = np.array(ctx.B, dtype=np.float64)
            det_vec = np.array(delta_exponents(ctx, n), dtype=np.float64)
            corner = ctx.flat(1, 1)
            border = [
                ctx.flat(i, a)
                for (i, a) in ctx.generators
                if i == 1 or a == 1
            ]
            for block in _box_chunks(nn, 3):
                central = np.all(block @ B.T == 0, axis=1)
                admissible = np.all(block[:, border] >= 0, axis=1)
                sel = block[central & admissible]
                # every selected vector must equal m * det_vec with m >= 0
                m = sel[:, corner]
                assert np.all(m >= 0)
                assert np.array_equal(sel, m[:, None] * det_vec[None, :])


def test_criterion_05_basis_derivations():
    with _Budget("criterion 5 (diagonal basis derivations)", 10.0):
        for n in (2, 3, 4):
            ctx = build_context(n)
            for j in range(1, 2 * n):
                assert is_derivation(basis_derivation(ctx, j))


def test_criterion_06_z_condition_brute_force():
    with _Budget("criterion 6 (interchange condition, exhaustive n=2)", 10.0):
        ctx = build_context(2)
        from qmat.rational import RationalFunction

        for bits in product((0, 1), repeat=4):
            weights = dict(
                zip(ctx.generators, map(RationalFunction.from_int, bits))
            )
            z = {g: TorusElement.scalar(ctx, w) for g, w in weights.items()}
            images = {
                g: MatrixAlgebraElement.generator(ctx, g).scale(weights[g])
                for g in ctx.generators
            }
            spec = DerivationSpec(ctx, "Mq", images)
            assert is_derivation(spec) == check_z_condition(ctx, z)


def test_criterion_07_hh1_coordinates():
    with _Budget("criterion 7 (first-cohomology coordinates)", 120.0):
        for n in (2, 3):
            table = TABLES[n]
            ctx = table.ctx
            for j in range(1, 2 * n):
                coords = express_hh1(table, basis_derivation(ctx, j))
                assert coords.inner.is_zero()
                for k in range(1, 2 * n):
                    expected = {0: RF_ONE} if k == j else {}
                    assert coords.mu[k - 1] == expected
            rng = random.Random(900 + n)
            for _ in range(100):
                x = _random_matrix_element(ctx, rng, max_degree=2)
                mu_in = [_random_mu_poly(ctx, rng, max_degree=1) for _ in range(2 * n - 1)]
                d = ad(x) + straightened_basis_sum(ctx, mu_in)
                # express_hh1 verifies the zero residual internally
                coords = express_hh1(table, d)
                assert coords.mu == mu_in


def test_criterion_08_torus_round_trip():
    with _Budget("criterion 8 (torus decomposition round trip)", 60.0):
        for n in (2, 3):
            ctx = build_context(n)
            rng = random.Random(800 + n)
            for _ in range(100):
                x = _random_noncentral_torus(ctx, rng)
                z = {g: _random_central(ctx, rng) for g in ctx.generators}
                dec = decompose_torus_derivation(
                    ad(x) + central_scaling_spec(ctx, z)
                )
                assert dec.x == x
                assert all(dec.z[g] == z[g] for g in ctx.generators)


def test_criterion_09_det_annihilation():
    with _Budget("criterion 9 (determinant-annihilating combinations)", 30.0):
        for n in (2, 3, 4):
            ctx = build_context(n)
            indices = [1, 2] if n == 2 else [i for i in range(1, 2 * n) if i != n]
            assert len(indices) == 2 * n - 2
            for i in indices:
                assert annihilates_qdet(sl_basis_derivation(ctx, i))
        ctx = build_context(3)
        for i in (1, 2, 4, 5):
            coords = express_hh1(TABLES[3], sl_basis_derivation(ctx, i))
            assert mu_sum_constraint(coords)


def test_criterion_10_sigma():
    with _Budget("criterion 10 (scaling automorphism)", 10.0):
        for n in (2, 3, 4):
            det = qdet(build_context(n))
            assert sigma_automorphism(det) == det
        ctx = build_context(2)
        rng = random.Random(10)
        for _ in range(50):
            x = _random_matrix_element(ctx, rng)
            y = _random_matrix_element(ctx, rng)
            assert sigma_automorphism(x * y) == sigma_automorphism(
                x
            ) * sigma_automorphism(y)
