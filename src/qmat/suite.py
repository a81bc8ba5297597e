"""One-shot verification suite.

Runs every structural identity the library certifies at a given size and
collects a deterministic report: centre descriptions, tower preservation,
minor factorizations, derivation bases, decomposition round trips and the
first-cohomology coordinate dictionary.  Randomized checks draw from a
seeded generator, so two runs produce identical reports; in canonical
mode timings are omitted and the output is byte-stable.
"""

from __future__ import annotations

import random
import time
from itertools import product as _iproduct

from .context import build_context, sweep_cells
from .derivations import (
    DerivationSpec,
    _basis_sign,
    _readers,
    _sl_pivot,
    _weighted_basis_sum,
    ad,
    basis_derivation,
    central_scaling_spec,
    check_z_condition,
    decompose_torus_derivation,
    express_hh1,
    is_derivation,
    leibniz_extend,
    mu_sum_constraint,
    sl_basis_derivation,
    annihilates_qdet,
)
from .errors import ResourceLimitError
from .linalg import integer_kernel_basis
from .matrixalg import (
    MatrixAlgebraElement,
    b_minor,
    qdet,
    sigma_automorphism,
)
from .rational import RF_ONE, RationalFunction
from .torus import (
    TorusElement,
    delta_exponents,
    delta_lattice_coordinates,
    is_central_monomial,
    zset_conditions,
)
from .tower import (
    StepGeneratorTable,
    _recursion_mismatch,
    build_table,
    embed,
    rebase_to_step,
    verify_relations_preserved,
    verify_step_factorizations,
)

SUITE_MAX_N = 5
SUITE_SEED = 20240


class VerificationReport:
    """Ordered list of named checks with pass/fail status and witnesses."""

    def __init__(self, n: int, canonical: bool = False):
        self.n = n
        self.canonical = canonical
        self.checks: list[dict] = []

    def add(self, check_id: str, statement: str, fn) -> None:
        start = time.perf_counter()
        try:
            witness = fn()
            ok = witness is None or witness is True
            if witness is True:
                witness = None
        except Exception as exc:  # a crash is a failure with the exception as witness
            ok = False
            witness = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        self.checks.append(
            {
                "id": check_id,
                "statement": statement,
                "status": "pass" if ok else "fail",
                "witness": None if ok else str(witness),
                "seconds": None if self.canonical else round(seconds, 6),
            }
        )

    def all_pass(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    def to_json(self) -> dict:
        checks = sorted(self.checks, key=lambda c: c["id"])
        return {
            "n": self.n,
            "all_pass": self.all_pass(),
            "checks": checks,
        }

    def to_markdown(self) -> str:
        lines = [
            f"# Verification report (n = {self.n})",
            "",
            "| check | status | statement |",
            "|---|---|---|",
        ]
        for c in sorted(self.checks, key=lambda c: c["id"]):
            lines.append(f"| {c['id']} | {c['status']} | {c['statement']} |")
        lines.append("")
        lines.append("all pass" if self.all_pass() else "FAILURES present")
        failing = [c for c in sorted(self.checks, key=lambda c: c["id"]) if c["status"] == "fail"]
        for c in failing:
            lines.append(f"- {c['id']}: {c['witness']}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# randomized sample helpers


def _random_rf(rng: random.Random) -> RationalFunction:
    return RationalFunction.from_int(rng.randint(1, 4)) * RationalFunction.q_power(
        rng.randint(-2, 2)
    )


def _random_matrix_element(
    ctx, rng: random.Random, max_degree: int = 2, terms: int = 2
) -> MatrixAlgebraElement:
    nn = ctx.n * ctx.n
    out = MatrixAlgebraElement(ctx)
    for _ in range(terms):
        exp = [0] * nn
        for _ in range(rng.randint(1, max_degree)):
            exp[rng.randrange(nn)] += 1
        out = out + MatrixAlgebraElement.monomial(ctx, tuple(exp), _random_rf(rng))
    return out


def _random_noncentral_torus(
    ctx, rng: random.Random, terms: int = 2
) -> TorusElement:
    nn = ctx.n * ctx.n
    out = TorusElement(ctx)
    while len(out.terms) < terms:
        exp = [0] * nn
        for _ in range(rng.randint(1, 2)):
            exp[rng.randrange(nn)] += rng.choice([-1, 1])
        if any(exp) and not is_central_monomial(ctx, tuple(exp)):
            out = out + TorusElement.monomial(ctx, tuple(exp), _random_rf(rng))
    return out


def _random_central(ctx, rng: random.Random) -> TorusElement:
    out = TorusElement(ctx)
    for i in range(1, ctx.n + 1):
        if rng.random() < 0.5:
            k = rng.choice([-1, 1])
            exp = tuple(e * k for e in delta_exponents(ctx, i))
            out = out + TorusElement.monomial(ctx, exp, _random_rf(rng))
    return out


def _random_mu_poly(ctx, rng: random.Random, max_degree: int = 1) -> dict:
    out = {}
    for k in range(max_degree + 1):
        if rng.random() < 0.6:
            out[k] = _random_rf(rng)
    return out


# ---------------------------------------------------------------------------
# suite body


def run_suite(n: int, canonical: bool = False) -> VerificationReport:
    if not (2 <= n <= SUITE_MAX_N):
        raise ResourceLimitError(
            f"verification suite is capped at 2 <= n <= {SUITE_MAX_N}, got {n}"
        )
    ctx = build_context(n)
    table = build_table(ctx)
    rng = random.Random(SUITE_SEED + n)
    report = VerificationReport(n, canonical=canonical)

    def failing(entries):
        bad = [e for e in entries if not e["ok"]]
        return True if not bad else f"failing entries: {bad}"

    report.add(
        "tower-01-relations",
        "every defining relation holds among the embedded generators",
        lambda: failing(verify_relations_preserved(table)),
    )
    report.add(
        "tower-02-factorizations",
        "determinant and antidiagonal minors factor through the step below the top",
        lambda: failing(verify_step_factorizations(table)),
    )
    report.add(
        "tower-03-recursion",
        "the downward recursion recovers each stored tower level",
        lambda: _recursion_mismatch(table),
    )

    def minor_monomial_check():
        for i in range(1, 2 * n):
            expected = TorusElement.one(ctx)
            for gen in sweep_cells(n, i):
                expected = expected * TorusElement.generator(ctx, gen)
            if (embed(table, b_minor(ctx, i)) - expected):
                return f"antidiagonal minor {i} is not the expected monomial"
        return True

    report.add(
        "tower-04-minor-monomials",
        "each antidiagonal minor embeds as a single ordered torus monomial",
        minor_monomial_check,
    )

    def delta_check():
        for i in range(1, n + 1):
            ratio = embed(table, b_minor(ctx, i)) * embed(
                table, b_minor(ctx, n + i)
            ).invert_monomial()
            (exp, _coeff), = ratio.terms.items()
            if exp != delta_exponents(ctx, i):
                return f"minor ratio {i} has exponents {exp}"
        return True

    report.add(
        "tower-05-minor-ratios",
        "the minor ratios realise the distinguished central monomials",
        delta_check,
    )

    def centre_lattice_check():
        kernel = integer_kernel_basis([list(row) for row in ctx.B])
        if len(kernel) != n:
            return f"kernel rank {len(kernel)} != {n}"
        for vec in kernel:
            delta_lattice_coordinates(ctx, vec)
        for i in range(1, n + 1):
            if not is_central_monomial(ctx, delta_exponents(ctx, i)):
                return f"distinguished monomial {i} is not central"
        return True

    report.add(
        "centre-01-lattice",
        "the centre lattice has rank n and is spanned by the distinguished monomials",
        centre_lattice_check,
    )

    def zset_box_check():
        nn = n * n
        if n <= 3:
            samples = _iproduct(range(-1, 2), repeat=nn)
        else:
            samples = (
                tuple(rng.randint(-2, 2) for _ in range(nn)) for _ in range(2000)
            )
        for exp in samples:
            if zset_conditions(ctx, exp) != is_central_monomial(ctx, exp):
                return f"diagonal-chain mismatch at {exp}"
        return True

    report.add(
        "centre-02-diagonal-chains",
        "centrality of a monomial is equivalent to the diagonal-chain conditions",
        zset_box_check,
    )

    def pattern_check():
        # on the readers, the first row and column, Delta_1..Delta_n are I_n
        # over [-I_(n-1) | 0]: sum k_c Delta_c is natural there exactly when
        # k_1 = ... = k_(n-1) = 0 and k_n >= 0, for every k
        deltas = [delta_exponents(ctx, c) for c in range(1, n + 1)]
        for r, cell in enumerate(_readers(n), 1):
            for c, delta in enumerate(deltas, 1):
                e = delta[ctx.flat(*cell)]
                if e != (c == r) - (c == r - n):
                    return f"Delta_{c} has exponent {e} at reader {cell}"
        return True

    report.add(
        "centre-03-pattern",
        "central monomials with first row and column nonnegative are"
        " exactly the nonnegative determinant powers",
        pattern_check,
    )

    report.add(
        "matrix-01-det-central",
        "the quantum determinant commutes with every generator",
        lambda: qdet(ctx).commutes_with_all_generators(),
    )

    for j in range(1, 2 * n):
        report.add(
            f"derivation-01-basis-{j:02d}",
            f"diagonal spec {j} of {2 * n - 1} respects every defining relation",
            (lambda jj: lambda: is_derivation(basis_derivation(ctx, jj)))(j),
        )

    def _diagonal_matrix_spec(weights):
        # D(Y(i,a)) = w(i,a) * Y(i,a) with scalar weights
        images = {
            gen: MatrixAlgebraElement.generator(ctx, gen).scale(weights[gen])
            for gen in ctx.generators
        }
        return DerivationSpec(ctx, "Mq", images)

    def z_condition_check():
        if n == 2:
            patterns = [
                dict(zip(ctx.generators, map(RationalFunction.from_int, bits)))
                for bits in _iproduct((0, 1), repeat=4)
            ]
        else:
            # a scalar sample: basis-weight patterns plus random 0/1 grids
            patterns = [
                {
                    gen: RationalFunction.from_int(_basis_sign(n, j, *gen))
                    for gen in ctx.generators
                }
                for j in range(1, 2 * n)
            ]
            for _ in range(10):
                patterns.append(
                    {
                        gen: RationalFunction.from_int(rng.randint(0, 1))
                        for gen in ctx.generators
                    }
                )
        for weights in patterns:
            z = {gen: TorusElement.scalar(ctx, w) for gen, w in weights.items()}
            holds = check_z_condition(ctx, z)
            passes = is_derivation(_diagonal_matrix_spec(weights))
            if holds != passes:
                return f"pattern {weights}: condition {holds}, relations {passes}"
        return True

    report.add(
        "derivation-02-z-condition",
        "a diagonal central scaling is a derivation exactly when the"
        " 2x2 interchange condition on its weights holds",
        z_condition_check,
    )

    def hh1_basis_check(jj):
        coords = express_hh1(table, basis_derivation(ctx, jj))
        if coords.inner.terms:
            return f"basis {jj}: nonzero inner part {coords.inner!r}"
        for k in range(1, 2 * n):
            expected = {0: RF_ONE} if k == jj else {}
            if coords.mu[k - 1] != expected:
                return f"basis {jj}: weight {k} is {coords.mu[k - 1]}"
        return True

    for j in range(1, 2 * n):
        report.add(
            f"hh1-01-basis-{j:02d}",
            f"the coordinates of diagonal spec {j} are the {j}-th unit vector"
            " with zero inner part",
            (lambda jj: lambda: hh1_basis_check(jj))(j),
        )

    def hh1_inner_check():
        x = MatrixAlgebraElement.generator(ctx, (1, 2))
        coords = express_hh1(table, ad(x))
        if any(coords.mu):
            return f"inner spec produced weights {coords.mu}"
        if (ad(coords.inner) - ad(x)).is_zero():
            return True
        return "recovered inner part generates a different inner derivation"

    report.add(
        "hh1-02-inner",
        "an inner derivation has zero weights and is recovered up to centre",
        hh1_inner_check,
    )

    def hh1_reconstruction_check():
        inputs = StepGeneratorTable(ctx)  # not the suite table's det_q store
        for _ in range(3):
            x = _random_matrix_element(ctx, rng)
            mu = [_random_mu_poly(ctx, rng) for _ in range(2 * n - 1)]
            d = ad(x) + _weighted_basis_sum(inputs, mu)
            express_hh1(table, d)  # raises on any reconstruction failure
        return True

    report.add(
        "hh1-03-reconstruction",
        "randomized inner-plus-diagonal derivations decompose and"
        " reconstruct exactly",
        hh1_reconstruction_check,
    )

    def roundtrip_check():
        for _ in range(5):
            x = _random_noncentral_torus(ctx, rng)
            z = {gen: _random_central(ctx, rng) for gen in ctx.generators}
            d = ad(x) + central_scaling_spec(ctx, z)
            dec = decompose_torus_derivation(d)
            if (dec.x - x):
                return f"inner part differs: {dec.x!r} vs {x!r}"
            for gen in ctx.generators:
                if (dec.z[gen] - z[gen]):
                    return f"weight at {gen} differs"
        return True

    report.add(
        "torus-01-roundtrip",
        "randomized inner-plus-central torus derivations decompose into"
        " exactly the ingredients used to build them",
        roundtrip_check,
    )

    def leibniz_check():
        d = basis_derivation(ctx, 1) + ad(MatrixAlgebraElement.generator(ctx, (1, 1)))
        for _ in range(3):
            x = _random_matrix_element(ctx, rng)
            y = _random_matrix_element(ctx, rng)
            lhs = leibniz_extend(d, x * y)
            rhs = leibniz_extend(d, x) * y + x * leibniz_extend(d, y)
            if (lhs - rhs):
                return "product rule fails on a random pair"
        return True

    report.add(
        "derivation-03-leibniz",
        "the extension of a derivation satisfies the product rule on"
        " random pairs",
        leibniz_check,
    )

    def embed_hom_check():
        for _ in range(3):
            x = _random_matrix_element(ctx, rng)
            y = _random_matrix_element(ctx, rng)
            if (embed(table, x * y) - embed(table, x) * embed(table, y)):
                return "embedding is not multiplicative on a random pair"
        return True

    report.add(
        "tower-06-homomorphism",
        "the torus embedding is multiplicative on random pairs",
        embed_hom_check,
    )

    def rebase_roundtrip_check():
        top = ctx.top_step()
        for _ in range(3):
            x = _random_matrix_element(ctx, rng)
            coords = rebase_to_step(table, top, embed(table, x))
            if coords != dict(x.terms):
                return "round trip through the torus altered the expansion"
        return True

    report.add(
        "tower-07-rebase",
        "converting an embedded element back to top-step coordinates"
        " returns the original expansion",
        rebase_roundtrip_check,
    )

    sl_indices = [i for i in range(1, 2 * n) if i != _sl_pivot(n)]
    for i in sl_indices:
        report.add(
            f"sl-01-annihilation-{i:02d}",
            f"determinant-annihilating combination {i} kills the quantum"
            " determinant",
            (lambda ii: lambda: annihilates_qdet(sl_basis_derivation(ctx, ii)))(i),
        )

    def mu_sum_check():
        for i in sl_indices:
            coords = express_hh1(table, sl_basis_derivation(ctx, i))
            if not mu_sum_constraint(coords):
                return f"combination {i} violates the weight-sum relation"
        return True

    report.add(
        "sl-02-weight-sum",
        "coordinates of determinant-annihilating combinations satisfy"
        " the weight-sum relation",
        mu_sum_check,
    )

    report.add(
        "sigma-01-det-fixed",
        "the scaling automorphism fixes the quantum determinant",
        lambda: (sigma_automorphism(qdet(ctx)) - qdet(ctx)).is_zero(),
    )

    def sigma_hom_check():
        for _ in range(5):
            x = _random_matrix_element(ctx, rng)
            y = _random_matrix_element(ctx, rng)
            if (
                sigma_automorphism(x * y)
                - sigma_automorphism(x) * sigma_automorphism(y)
            ):
                return "automorphism is not multiplicative on a random pair"
        return True

    report.add(
        "sigma-02-homomorphism",
        "the scaling automorphism is multiplicative on random pairs",
        sigma_hom_check,
    )

    return report
