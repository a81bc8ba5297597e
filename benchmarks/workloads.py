"""The four benchmark workloads: seeded inputs, one timed op, an exact check.

Each workload draws its inputs from a ``random.Random`` seeded by the run
seed, so the same seed gives byte-identical inputs.  ``op`` is the one
timed call and only sees the generated inputs; ``check`` verifies its
output exactly; ``corrupt`` alters one coefficient of an output, for the
benchmark's self-test.

The op costs of ``rebase`` are heavy-tailed: over 800 random inputs the
median op took 10 ms, one in a few hundred took over 2 s, and the
coefficient of variation was 3.6, so a fresh draw of supports per seed
would move ``ops_per_s`` by about 30 % between seeds.  For ``pbw`` the
work of a pass (RationalFunction constructions) varied by 16 % over seven
seeds, and for ``hh1`` by 11 % over ten seeds.  The shapes of these three
workloads (monomial supports, coefficient degrees and, for ``hh1``, which
powers of det_q each mu_j has) are therefore drawn once from
``SHAPE_SEED``; the run seed draws every coefficient value and the op
order.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

import qmat
import qmat.serialize as serialize
from qmat.derivations import DerivationSpec
from qmat.matrixalg import MatrixAlgebraElement
from qmat.rational import RF_ONE, RationalFunction

SHAPE_SEED = 0
EMBED_DIGESTS = Path(__file__).resolve().parent / "embed_digests.json"


def canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest(data) -> str:
    return hashlib.sha256(canonical(data).encode()).hexdigest()


# ---------------------------------------------------------------------------
# input helpers, after the verification suite's randomized generators


def laurent_coeff(rng: random.Random) -> RationalFunction:
    """c * q^k with c in 1..4 and k in -2..2."""
    return RationalFunction.from_int(rng.randint(1, 4)) * RationalFunction.q_power(
        rng.randint(-2, 2)
    )


def random_support(nn: int, rng: random.Random, max_degree: int, terms: int) -> list:
    """Exponent vectors of ``terms`` monomials of degree 1..max_degree."""
    out = []
    for _ in range(terms):
        exp = [0] * nn
        for _ in range(rng.randint(1, max_degree)):
            exp[rng.randrange(nn)] += 1
        out.append(tuple(exp))
    return out


def element(ctx, support, coeffs) -> MatrixAlgebraElement:
    out = MatrixAlgebraElement(ctx)
    for exp, coeff in zip(support, coeffs):
        out = out + MatrixAlgebraElement.monomial(ctx, exp, coeff)
    return out


def bump_first(terms: dict) -> dict:
    """Copy of a {key: coefficient} dict with the first coefficient plus one."""
    out = dict(terms)
    key = min(out)
    out[key] = out[key] + RF_ONE
    return out


# ---------------------------------------------------------------------------


class Workload:
    """One workload: ``generate(ctx, seed)`` draws the inputs of a pass,
    ``inputs_json(inputs)`` gives their canonical JSON for the inputs'
    hash, ``op(ctx, table, inp)`` is the timed call, ``check(inp, out)``
    verifies its output exactly and ``corrupt(out)`` alters one
    coefficient of an output."""

    name = ""
    n = 0
    shared_table = False
    pass_size = 0

    def setup(self):
        """The context and, when shared by all ops, the tower table."""
        ctx = qmat.build_context(self.n)
        return ctx, qmat.build_table(ctx) if self.shared_table else None


class Hh1(Workload):
    """ad(x) + sum_j mu_j(det_q) D_j at n = 3, written back in HH^1
    coordinates; the returned mu must equal the mu it was built from."""

    name = "hh1"
    n = 3
    shared_table = True
    pass_size = 50

    def generate(self, ctx, seed):
        shape_rng = random.Random(SHAPE_SEED)
        rng = random.Random(seed)
        nn = ctx.n * ctx.n
        det = qmat.qdet(ctx)
        inputs = []
        for _ in range(self.pass_size):
            support = random_support(nn, shape_rng, max_degree=2, terms=2)
            x = element(ctx, support, [laurent_coeff(rng) for _ in support])
            mu = []
            for _ in range(2 * ctx.n - 1):
                powers = [k for k in range(2) if shape_rng.random() < 0.6]
                mu.append({k: laurent_coeff(rng) for k in powers})
            d = qmat.ad(x)
            for j, weight in enumerate(mu, start=1):
                if weight:
                    d = d + _weighted_basis(ctx, det, j, weight)
            inputs.append(
                {
                    "spec": serialize.derivation_to_json(d),
                    "mu": [serialize.det_poly_to_json(m) for m in mu],
                }
            )
        rng.shuffle(inputs)
        return inputs

    def inputs_json(self, inputs):
        return inputs

    def op(self, ctx, table, inp):
        spec = serialize.derivation_from_json(inp["spec"])
        return serialize.hh1_to_json(qmat.express_hh1(table, spec))

    def check(self, inp, out):
        return out["mu"] == inp["mu"] and "det_shift" not in out

    def corrupt(self, out):
        mu = json.loads(json.dumps(out["mu"]))
        if any(mu):
            entry = next(m for m in mu if m)[0]
            entry[1]["num"][-1] += 1
        else:
            mu[0].append([0, {"num": [1], "den": [1]}])
        return dict(out, mu=mu)


def _weighted_basis(ctx, det, j, weight) -> DerivationSpec:
    """mu_j(det_q) * D_j for a polynomial weight {power: coefficient}."""
    factor = MatrixAlgebraElement(ctx)
    for k, coeff in weight.items():
        power = MatrixAlgebraElement.one(ctx)
        for _ in range(k):
            power = power * det
        factor = factor + power.scale(coeff)
    base = qmat.basis_derivation(ctx, j)
    return DerivationSpec(ctx, "Mq", {g: factor * v for g, v in base.images.items()})


class Embed(Workload):
    """Every 3x3 quantum minor at n = 5, each embedded into a tower table
    built for that op alone, as one ``qmat embed`` call does."""

    name = "embed"
    n = 5
    pass_size = 100

    @staticmethod
    def key(rows, cols) -> str:
        return "".join(map(str, rows)) + "|" + "".join(map(str, cols))

    def generate(self, ctx, seed):
        subsets = list(combinations(range(1, ctx.n + 1), 3))
        index = [(rows, cols) for rows in subsets for cols in subsets]
        random.Random(seed).shuffle(index)
        digests = json.loads(EMBED_DIGESTS.read_text()) if EMBED_DIGESTS.exists() else {}
        return [
            {
                "key": self.key(rows, cols),
                "minor": qmat.qminor(ctx, rows, cols),
                "digest": digests.get(self.key(rows, cols)),
            }
            for rows, cols in index
        ]

    def inputs_json(self, inputs):
        return [[inp["key"], serialize.element_to_json(inp["minor"])] for inp in inputs]

    def op(self, ctx, table, inp):
        return qmat.embed(qmat.build_table(ctx), inp["minor"])

    def check(self, inp, out):
        return digest(serialize.element_to_json(out)) == inp["digest"]

    def corrupt(self, out):
        return type(out)(out.ctx, bump_first(out.terms))


class Pbw(Workload):
    """(x*y)*z against x*(y*z) at n = 4 for PBW elements of degree <= 3
    with 3 terms and general Q(q) coefficients."""

    name = "pbw"
    n = 4
    pass_size = 100

    @staticmethod
    def _poly(rng, degree) -> tuple:
        lead = rng.choice((-3, -2, -1, 1, 2, 3))
        return tuple(rng.randint(-3, 3) for _ in range(degree)) + (lead,)

    def _coeff(self, rng, shape) -> RationalFunction:
        """Numerator of the shape's degree over c*q^k (denominator degree 0)
        or over a polynomial of the shape's denominator degree."""
        num_degree, den_degree = shape
        if den_degree == 0:
            den = (0,) * rng.randint(0, 2) + (rng.randint(1, 3),)
        else:
            den = self._poly(rng, den_degree)
        return RationalFunction(self._poly(rng, num_degree), den)

    def generate(self, ctx, seed):
        shape_rng = random.Random(SHAPE_SEED)
        nn = ctx.n * ctx.n
        shapes = []
        for _ in range(self.pass_size):
            triple = []
            for _ in range(3):
                support = random_support(nn, shape_rng, max_degree=3, terms=3)
                coeff_shapes = [
                    (shape_rng.randint(0, 2), 0 if shape_rng.random() < 0.5 else shape_rng.randint(1, 2))
                    for _ in support
                ]
                triple.append((support, coeff_shapes))
            shapes.append(triple)
        rng = random.Random(seed)
        inputs = [
            tuple(
                element(ctx, support, [self._coeff(rng, s) for s in coeff_shapes])
                for support, coeff_shapes in triple
            )
            for triple in shapes
        ]
        rng.shuffle(inputs)
        return inputs

    def inputs_json(self, inputs):
        return [[serialize.element_to_json(e) for e in triple] for triple in inputs]

    def op(self, ctx, table, inp):
        x, y, z = inp
        return (x * y) * z, x * (y * z)

    def check(self, inp, out):
        return out[0] == out[1]

    def corrupt(self, out):
        left, right = out
        return type(left)(left.ctx, bump_first(left.terms)), right


class Rebase(Workload):
    """embed then rebase_to_step at the top step, n = 3, for PBW elements
    of degree <= 3 with 3 terms; the result must be the input's expansion
    (suite check tower-07)."""

    name = "rebase"
    n = 3
    shared_table = True
    pass_size = 100

    def generate(self, ctx, seed):
        shape_rng = random.Random(SHAPE_SEED)
        nn = ctx.n * ctx.n
        supports = [
            random_support(nn, shape_rng, max_degree=3, terms=3) for _ in range(self.pass_size)
        ]
        rng = random.Random(seed)
        inputs = [element(ctx, s, [laurent_coeff(rng) for _ in s]) for s in supports]
        rng.shuffle(inputs)
        return inputs

    def inputs_json(self, inputs):
        return [serialize.element_to_json(x) for x in inputs]

    def op(self, ctx, table, inp):
        return qmat.rebase_to_step(table, ctx.top_step(), qmat.embed(table, inp))

    def check(self, inp, out):
        return out == dict(inp.terms)

    def corrupt(self, out):
        return bump_first(out)


WORKLOADS = {w.name: w for w in (Hh1(), Embed(), Pbw(), Rebase())}


def record_embed_digests() -> int:
    """Write the digest of every minor's canonical embedding to
    ``embed_digests.json``; returns the number of minors."""
    workload = WORKLOADS["embed"]
    ctx, _ = workload.setup()
    digests = {}
    for inp in workload.generate(ctx, 0):
        out = workload.op(ctx, None, inp)
        digests[inp["key"]] = digest(serialize.element_to_json(out))
    EMBED_DIGESTS.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n")
    return len(digests)
