"""Derivations of the quantum-matrix algebra and of the quantum torus.

A derivation is given by its images on the generators; ``leibniz_extend``
propagates it to arbitrary elements.  The structural results implemented
here:

  * every derivation of the quantum-matrix algebra lifts uniquely to the
    torus through the tower embedding, and ``lift_to_torus`` reads the lift
    off the answer of ``express_hh1``;
  * every torus derivation splits as ad_x + theta with theta a central
    scaling, and the splitting is constructive;
  * every derivation of the quantum-matrix algebra is ad_x plus a
    combination of the 2n-1 diagonal basis derivations D_j with
    coefficients polynomial in the quantum determinant, and
    ``express_hh1`` finds both parts in the algebra alone: the weights are
    read off the diagonal powers in the images of the first row and
    column, and x by leading-term division.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache
from operator import add, mul, sub

from .context import AlgebraContext, GeneratorIndex, sweep_cells
from .errors import (
    ConditionViolatedError,
    DimensionMismatchError,
    InconsistentDecompositionError,
    IndexOutOfRangeError,
    NotADerivationError,
    NotPolynomialError,
    QmatError,
    ResourceLimitError,
)
from .limits import check_terms
from .matrixalg import MatrixAlgebraElement, _generator_into, qdet, relation_report
from .rational import RF_ONE, RationalFunction
from .sparse import ExponentVector, add_into, require_operand, unit_exponent
from .torus import TorusElement, commutation_exponent, is_central_monomial
from .tower import (
    StepGeneratorTable,
    _det_image,
    _det_multiple,
    embed,
    rebase_to_matrix_algebra,
)

ALGEBRAS = {cls.ALG: cls for cls in (MatrixAlgebraElement, TorusElement)}


class DerivationSpec:
    """A derivation given by generator images over one of the two algebras."""

    __slots__ = ("ctx", "cls", "images")

    def __init__(self, ctx: AlgebraContext, alg: str, images: dict):
        if not isinstance(alg, str) or alg not in ALGEBRAS:
            raise ValueError(f"unknown algebra tag {alg!r}")
        self.ctx = ctx
        self.cls = cls = ALGEBRAS[alg]
        self.images = dict(images)
        for gen, value in self.images.items():
            if gen not in ctx.generators:
                raise IndexOutOfRangeError(f"generator {gen} outside the grid")
            require_operand(f"image of {gen}", value, cls, ctx.n)
        for gen in ctx.generators:
            if gen not in self.images:
                self.images[gen] = cls(ctx)

    @property
    def alg(self) -> str:
        return self.cls.ALG

    def __add__(self, other: "DerivationSpec") -> "DerivationSpec":
        if self.alg != other.alg or self.ctx.n != other.ctx.n:
            raise DimensionMismatchError(
                f"cannot add a {self.alg} spec (n = {self.ctx.n}) and a"
                f" {other.alg} spec (n = {other.ctx.n})"
            )
        return DerivationSpec(
            self.ctx,
            self.alg,
            {g: self.images[g] + other.images[g] for g in self.ctx.generators},
        )

    def scale(self, coeff: RationalFunction) -> "DerivationSpec":
        return DerivationSpec(
            self.ctx,
            self.alg,
            {g: v.scale(coeff) for g, v in self.images.items()},
        )

    def __sub__(self, other: "DerivationSpec") -> "DerivationSpec":
        return self + other.scale(-RF_ONE)

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.images.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, DerivationSpec):
            return NotImplemented
        return (
            self.ctx.n == other.ctx.n
            and self.alg == other.alg
            and self.images == other.images
        )

    def __repr__(self) -> str:
        return f"DerivationSpec(n={self.ctx.n}, alg={self.alg!r})"


# ---------------------------------------------------------------------------
# Leibniz extension


def leibniz_extend(d: DerivationSpec, x):
    """Image of an arbitrary element under the derivation.

    Each monomial is processed as an ordered product of generator powers;
    the derivative accumulates factor by factor, with negative torus
    powers handled through D(t^{-1}) = -t^{-1} D(t) t^{-1}.
    """
    require_operand("leibniz_extend", d, DerivationSpec)
    ctx = d.ctx
    require_operand("leibniz_extend", x, d.cls, ctx.n)
    out = d.cls(ctx)
    for exp, coeff in x.terms.items():
        value = type(x).one(ctx)
        deriv = d.cls(ctx)
        for k, e in enumerate(exp):
            if not e:
                continue
            gen = ctx.gen_at(k)
            g = d.cls.generator(ctx, gen)
            dg = d.images[gen]
            if e > 0:
                factor, dfactor = g, dg
                count = e
            else:
                ginv = g.invert_monomial()
                factor = ginv
                dfactor = (ginv * dg * ginv).scale(-RF_ONE)
                count = -e
            for _ in range(count):
                deriv = deriv * factor + value * dfactor
                value = value * factor
        for e, c in deriv.terms.items():
            add_into(out.terms, e, c * coeff)
    return out


# ---------------------------------------------------------------------------
# derivation checking


def check_derivation(d: DerivationSpec) -> list[dict]:
    """Per-relation report: the images must respect every defining relation.

    Torus generators q-commute with the same exponents as the algebra's
    generators but carry no cross term.
    """
    require_operand("check_derivation", d, DerivationSpec)
    ctx = d.ctx
    g = [d.cls.generator(ctx, gen) for gen in ctx.generators]
    dg = [d.images[gen] for gen in ctx.generators]
    return relation_report(
        ctx,
        lambda a, b: dg[a] * g[b] + g[a] * dg[b],
        cross_terms=d.cls is MatrixAlgebraElement,
    )


def is_derivation(d: DerivationSpec) -> bool:
    return all(entry["ok"] for entry in check_derivation(d))


def failing_relations(report: list[dict]) -> list:
    return [entry["pair"] for entry in report if not entry["ok"]]


@contextmanager
def rejecting_non_derivations(d: DerivationSpec):
    """Run a computation whose success certifies that d is a derivation.

    d is checked only if the block raises a QmatError: a broken relation
    then raises NotADerivationError naming every pair it breaks, and
    otherwise the block's own error propagates.  A tripped term guard
    propagates unchecked: it says nothing about d, and the check would
    redo the same products under the same guard.
    """
    try:
        yield
    except ResourceLimitError:
        raise
    except QmatError:
        bad = failing_relations(check_derivation(d))
        if bad:
            raise NotADerivationError.at_pairs(bad)
        raise


# ---------------------------------------------------------------------------
# standard specs


def ad(x) -> DerivationSpec:
    """The inner derivation g -> x*g - g*x."""
    ctx = x.ctx
    cls = type(x)
    images = {}
    for gen in ctx.generators:
        g = cls.generator(ctx, gen)
        images[gen] = x * g - g * x
    return DerivationSpec(ctx, cls.ALG, images)


@lru_cache(maxsize=None)
def _readers(n: int) -> tuple[GeneratorIndex, ...]:
    """The reader of D_j, j = 1..2n-1, is the first cell of b_j: (1,n), ...,
    (1,1), (2,1), ..., (n,1).  D_j is 1 at its reader, 0 at the others."""
    return tuple(sweep_cells(n, j)[0] for j in range(1, 2 * n))


def _signed_readers(i: int, a: int) -> tuple[tuple[int, GeneratorIndex], ...]:
    """The rule w(i,a) = w(i,1) + w(1,a) - w(1,1) that extends a diagonal
    weight w from the readers to every cell; w is a derivation exactly when
    the rule holds.  On a reader it reads w back."""
    return ((1, (i, 1)), (1, (1, a)), (-1, (1, 1)))


def _basis_sign(n: int, j: int, i: int, a: int) -> int:
    """The sign e in D_j(Y(i,a)) = e * Y(i,a), with e in {-1, 0, 1}."""
    reader = _readers(n)[j - 1]
    return sum(s for s, cell in _signed_readers(i, a) if cell == reader)


def basis_derivation(ctx: AlgebraContext, j: int) -> DerivationSpec:
    """The j-th diagonal basis derivation D_j, 1 <= j <= 2n-1.

    For j < n it fixes column n+1-j and kills the rest; D_n fixes Y(1,1)
    and negates the lower-right block; for j > n it fixes row j-n+1.
    """
    n = ctx.n
    if not (1 <= j <= 2 * n - 1):
        raise IndexOutOfRangeError(f"basis index {j} outside [1, {2 * n - 1}]")
    mu = [{0: RF_ONE} if k == j else {} for k in range(1, 2 * n)]
    return _weighted_basis_sum(StepGeneratorTable(ctx), mu)


def central_scaling_spec(
    ctx: AlgebraContext, z: dict[GeneratorIndex, TorusElement]
) -> DerivationSpec:
    """The diagonal torus spec T_a -> z_a * T_a for central weights z_a."""
    images = {
        gen: weight * TorusElement.generator(ctx, gen) for gen, weight in z.items()
    }
    return DerivationSpec(ctx, "torus", images)


def check_z_condition(
    ctx: AlgebraContext, z: dict[GeneratorIndex, TorusElement]
) -> bool:
    """True iff z(i,a) - z(i,1) - z(1,a) + z(1,1) = 0 on every cell; a
    missing weight is zero.  These are the 2x2 interchange conditions
    z(i,a) + z(k,d) = z(i,d) + z(k,a) through (1,1), and they imply the
    others."""
    for gen in z:
        if gen not in ctx.generators:
            raise IndexOutOfRangeError(f"generator {gen} outside the grid")
    zero = TorusElement(ctx)
    for gen in ctx.generators:
        rest = z.get(gen, zero)
        for s, cell in _signed_readers(*gen):
            rest = rest - z.get(cell, zero).scale(RationalFunction.from_int(s))
        if rest:
            return False
    return True


# ---------------------------------------------------------------------------
# lifting to the torus


def lift_to_torus(table: StepGeneratorTable, d: DerivationSpec) -> DerivationSpec:
    """Unique torus extension of a quantum-matrix derivation, read off the
    certified answer d = ad_x + sum_j mu_j(det_q) D_j of ``express_hh1``.

    embed is an injective algebra map, so ad_x lifts to ad of embed(x).
    Every term of embed(Y(i,a)) has row sums e_i and column sums e_a, and
    the weight of D_j at a cell is a row part plus a column part, so D_j
    lifts to T_a -> w_j(a) T_a; embed(det_q) is a central monomial, so
    mu_j(det_q) D_j lifts to the central scaling by mu_j(embed(det_q)) w_j,
    each power embed(det_q)^k read from ``tower._det_image``.
    A derivation has only one extension to the torus, so this is it, and
    the zero residual of ``express_hh1`` is its one certificate.
    """
    ctx = table.ctx
    require_operand("lift_to_torus", d, DerivationSpec, ctx.n)
    if d.alg != "Mq":
        raise DimensionMismatchError("lift_to_torus expects a quantum-matrix spec")
    coords = express_hh1(table, d)
    z = {}
    for gen, weight in _cell_weights(ctx, coords.mu):
        terms = (_det_image(table, k).scale(c) for k, c in weight.items())
        z[gen] = sum(terms, TorusElement(ctx))
    return ad(embed(table, coords.inner)) + central_scaling_spec(ctx, z)


# ---------------------------------------------------------------------------
# torus decomposition


class TorusDecomposition:
    """D = ad_x + theta with x free of central monomials and theta the
    central scaling T_a -> z_a T_a."""

    __slots__ = ("x", "z")

    def __init__(self, x: TorusElement, z: dict[GeneratorIndex, TorusElement]):
        self.x = x
        self.z = z


def decompose_torus_derivation(d: DerivationSpec) -> TorusDecomposition:
    """Constructive splitting of a torus derivation as ad_x + theta.

    ``_split`` builds x and z; the zero residual d - ad_x - theta on every
    generator certifies them, and with them that d is a derivation.
    """
    require_operand("decompose_torus_derivation", d, DerivationSpec)
    if d.alg != "torus":
        raise DimensionMismatchError(
            "decompose_torus_derivation expects a torus spec"
        )
    dec = _split(d)
    residual = d - ad(dec.x) - central_scaling_spec(d.ctx, dec.z)
    for gen in d.ctx.generators:
        if residual.images[gen]:
            raise InconsistentDecompositionError(
                f"decomposition does not reconstruct the image of T{gen}"
            )
    return dec


def _split(d: DerivationSpec) -> TorusDecomposition:
    """The splitting ad_x + theta of a torus spec, without checking it.

    For each generator a, d(T_a) T_a^{-1} = sum_g c_{a,g} T^g; a central
    exponent g contributes c_{a,g} T^g to z_a, and a non-central one
    determines x_g = c_{a,g} / kappa through the first generator that
    fails to commute with T^g.  Since T_a T^g = q^{(B.g)_a} T^g T_a, the
    coefficient of T^g in ad_{T^g}(T_a) T_a^{-1} is kappa = 1 - q^{(B.g)_a}.
    """
    ctx = d.ctx
    z: dict[GeneratorIndex, TorusElement] = {}
    x_terms: dict = {}
    for row, gen in zip(ctx.B, ctx.generators):
        ta = TorusElement.generator(ctx, gen)
        w = d.images[gen] * ta.invert_monomial()
        za = TorusElement(ctx)
        for gamma, coeff in w.terms.items():
            if is_central_monomial(ctx, gamma):
                za.terms[gamma] = coeff
            elif gamma not in x_terms:
                e = sum(b * g for b, g in zip(row, gamma) if g)
                if e:
                    x_terms[gamma] = coeff / (RF_ONE - RationalFunction.q_power(e))
        z[gen] = za
    return TorusDecomposition(TorusElement(ctx, x_terms), z)


# ---------------------------------------------------------------------------
# determinant-polynomial weights

DetPolynomial = dict[int, RationalFunction]
# sparse Laurent polynomial in the quantum determinant: power -> coefficient


class HH1Coordinates:
    """Coordinates of a derivation class: inner witness plus the 2n-1
    determinant-polynomial weights on the diagonal basis derivations.

    ``det_shift`` is -k for the clearing power k of ``gl_express``: the
    inner witness is that of det_q^k d, and the mu weights are stored
    already shifted back.  It is 0 outside the localized setting.
    """

    __slots__ = ("ctx", "inner", "mu", "det_shift")

    def __init__(
        self,
        ctx: AlgebraContext,
        inner: MatrixAlgebraElement,
        mu: list[DetPolynomial],
        det_shift: int = 0,
    ):
        self.ctx = ctx
        self.inner = inner
        self.mu = mu
        self.det_shift = det_shift


def express_hh1(table: StepGeneratorTable, d: DerivationSpec) -> HH1Coordinates:
    """Write a quantum-matrix derivation as ad_x + sum_j mu_j D_j.

    Every step runs in the algebra, ordered by the weight of
    ``solve_monomial_combination`` (Y(i,a) weighs i*a).  x is taken free of
    the diagonal powers (Y11...Ynn)^k, which fixes it, since x and
    x + c det_q^k give the same ad_x.  ``_read_mu`` reads mu_j off the
    image of the reader of D_j; ``_divide_inner_part`` then finds x by
    leading-term division of W - d, W = sum_j mu_j(det_q) D_j, against the
    brackets [Y^h, Y].

    The one certificate is the zero residual d - ad_x - sum_j mu_j(det_q)
    D_j, in one accumulator per generator, which the division empties.  It
    proves the coordinates and that d is a derivation, so d is not checked
    up front: ad_x is a derivation, so is each mu_j(det_q) D_j because
    det_q is central, and a spec is fixed by its generator images, so d
    equals their sum.  Only if a step fails is d checked, and a broken
    relation then raises NotADerivationError in place of the step's error.
    """
    ctx = table.ctx
    require_operand("express_hh1", d, DerivationSpec, ctx.n)
    if d.alg != "Mq":
        raise DimensionMismatchError("express_hh1 expects a quantum-matrix spec")
    with rejecting_non_derivations(d):
        mu = _read_mu(d)
        acc = {}
        for gen, image in _weighted_images(table, mu):
            for e, c in d.images[gen].terms.items():
                add_into(image, e, -c)
            acc[gen] = image
        inner = _divide_inner_part(ctx, acc)
    return HH1Coordinates(ctx, MatrixAlgebraElement(ctx, inner), mu)


def _read_mu(d: DerivationSpec) -> list[DetPolynomial]:
    """The weights mu_j, read off d at the reader r of D_j: the det_q^k
    term of mu_j is the coefficient of Y^(k diag + e_r) in d(Y_r) over
    q^kappa, kappa = commutation_exponent(k diag, e_r).

    W(Y_r) is sum_k mu_{j,k} det_q^k Y_r (the reader rule reads mu_j back
    at r), and det_q^k Y_r is q^kappa Y^(k diag + e_r) plus lighter terms:
    the diagonal is the heaviest term of det_q, with coefficient 1, and
    straightening only lowers the weight.  ad_x adds nothing there: a term
    Y^h of x of bidegree k(1^n; 1^n) other than the diagonal power, which
    x does not have, is lighter than it (rearrangement inequality).  kappa
    is read off B, never off the det_q store, so a store entry scaled by a
    constant cannot cancel between mu and the W of the residual.
    """
    ctx = d.ctx
    diagonal = [int(i == a) for i, a in ctx.generators]
    mu = []
    for r in _readers(ctx.n):
        y = unit_exponent(ctx, r)
        m: DetPolynomial = {}
        for e, c in d.images[r].terms.items():
            h = tuple(map(sub, e, y))
            if h == tuple(h[0] * t for t in diagonal):
                m[h[0]] = c.times_q_power(-commutation_exponent(ctx, h, y))
        mu.append(m)
    return mu


def _divide_inner_part(
    ctx: AlgebraContext, acc: dict[GeneratorIndex, dict]
) -> dict[ExponentVector, RationalFunction]:
    """The terms of x, free of diagonal powers, with acc[Y] + [x, Y] = 0
    for every generator Y, by leading-term division; acc is emptied.

    [Y^h, Y_g] is kappa Y^(h + e_g) plus lighter terms (``_bracket_leader``),
    so when the heaviest terms of x weigh m, m is the largest value
    weight(term) - weight(Y_g) over the accumulators, and a term Y^e of
    value m in acc[g] comes from the term Y^h of x, h = e - e_g.  Each such
    c_h is read at the leader of h, and adding every c_h [Y^h, Y_g] to every
    acc[g] leaves only values below m: one ``_generator_into`` per generator
    forms both sides of the bracket in one pass over the new terms of x.
    An h with a negative entry, an h
    whose brackets have no leading term (a diagonal power: B kills no other
    natural exponent), or a term of value m or more that survives means
    that no such x exists.
    """
    weights = [i * a for i, a in ctx.generators]
    units = {gen: unit_exponent(ctx, gen) for gen in ctx.generators}
    base = dict(zip(ctx.generators, weights))
    weight: dict[ExponentVector, int] = {}
    inner: dict[ExponentVector, RationalFunction] = {}
    bound = None
    minus_one = -RF_ONE
    while True:
        values = {}
        for gen, terms in acc.items():
            for e in terms:
                if e not in weight:
                    weight[e] = sum(map(mul, weights, e))
                values[gen, e] = weight[e] - base[gen]
        if not values:
            return inner
        top = max(values.values())
        if bound is not None and top >= bound:
            raise ConditionViolatedError("reconstruction residual is nonzero")
        lead = {
            tuple(map(sub, e, units[g])) for (g, e), v in values.items() if v == top
        }
        xs = {}
        for h in lead:
            leader = _bracket_leader(ctx, h) if min(h) >= 0 else None
            if leader is None:
                raise ConditionViolatedError("reconstruction residual is nonzero")
            g, kappa = leader
            c = acc[g].get(tuple(map(add, h, units[g])))
            if c is not None:
                xs[h] = -c / kappa
        for gen, terms in acc.items():
            _generator_into(terms, ctx, ctx.flat(*gen), xs, RF_ONE, minus_one)
        inner.update(xs)
        bound = top


def _bracket_leader(ctx: AlgebraContext, h: ExponentVector):
    """(g, kappa) for the first generator Y_g whose bracket [Y^h, Y_g] has
    the term kappa Y^(h + e_g), or None if there is none.

    Y^h Y_g is q^(commutation_exponent(h, e_g)) Y^(h + e_g) plus lighter
    terms, and likewise Y_g Y^h, so kappa is the difference of the two
    q-powers, nonzero exactly when row g of B does not kill h.
    """
    for gen in ctx.generators:
        y = unit_exponent(ctx, gen)
        a, b = commutation_exponent(ctx, h, y), commutation_exponent(ctx, y, h)
        if a != b:
            return gen, RationalFunction.q_power(a) - RationalFunction.q_power(b)
    return None


def _weighted_basis_sum(
    table: StepGeneratorTable, mu: list[DetPolynomial]
) -> DerivationSpec:
    """sum_j mu_j(det_q) * D_j as a spec (``_weighted_images``)."""
    ctx = table.ctx
    images = {g: MatrixAlgebraElement(ctx, t) for g, t in _weighted_images(table, mu)}
    return DerivationSpec(ctx, "Mq", images)


def _cell_weights(ctx: AlgebraContext, mu: list[DetPolynomial]):
    """(gen, w(gen)) in generator order for the weights mu_j of D_j at their
    readers: w(i,a) = mu at (i,1) + mu at (1,a) - mu at (1,1)."""
    at = dict(zip(_readers(ctx.n), mu))
    for gen in ctx.generators:
        weight: DetPolynomial = {}
        for s, cell in _signed_readers(*gen):
            for k, c in at[cell].items():
                add_into(weight, k, c if s > 0 else -c)
        yield gen, weight


def _weighted_images(table: StepGeneratorTable, mu: list[DetPolynomial]):
    """(gen, terms of W(gen)) for W = sum_j mu_j(det_q) * D_j, generator by
    generator.

    Y(i,a) maps to the sum of w_k * det_q^k * Y(i,a), w = w(i,a) of
    ``_cell_weights``.  For k >= 1 that product is
    ``tower._det_multiple(table, k, Y(i,a))``, read uncopied at k = 1 from
    the store that the det_q division fills.  It is an exact Mq product,
    so the residual of ``express_hh1`` stays an Mq certificate.
    """
    ctx = table.ctx
    n = ctx.n
    if len(mu) != 2 * n - 1:
        raise IndexOutOfRangeError(f"{len(mu)} weights, not {2 * n - 1}")
    if any(k < 0 for m in mu for k in m):
        raise NotPolynomialError("negative determinant power in the algebra")
    for gen, weight in _cell_weights(ctx, mu):
        y, image = unit_exponent(ctx, gen), {}
        for k in sorted(weight):
            power = _det_multiple(table, k, y).terms if k else {y: RF_ONE}
            for e, ce in power.items():
                add_into(image, e, ce * weight[k])
            check_terms(len(image), "det_q power multiple")
        yield gen, image


# ---------------------------------------------------------------------------
# determinant-compatible combinations


def annihilates_qdet(d: DerivationSpec) -> bool:
    return leibniz_extend(d, qdet(d.ctx)).is_zero()


def _det_weight(n: int, j: int) -> int:
    """The t with D_j(det_q) = t * det_q.  A term of det_q has one cell in
    each row and column, so the reader rule gives it the diagonal's weight."""
    return sum(_basis_sign(n, j, i, i) for i in range(1, n + 1))


def _sl_pivot(n: int) -> int:
    """The D_p the SL combinations lean on: D_n, or D_{2n-1} if n = 2."""
    return n if _det_weight(n, n) else 2 * n - 1


def sl_basis_derivation(ctx: AlgebraContext, i: int) -> DerivationSpec:
    """D_i - (t_i / t_p) D_p, with t_j from ``_det_weight``: it kills det_q.
    For n >= 3 it is D_i + D_n / (n-2); for n = 2, D_1 - D_3 or D_2."""
    n = ctx.n
    p = _sl_pivot(n)
    if not (1 <= i <= 2 * n - 1) or i == p:
        raise IndexOutOfRangeError(f"index {i} outside [1, {2 * n - 1}] minus {{{p}}}")
    mu = [{0: RF_ONE} if j == i else {} for j in range(1, 2 * n)]
    t = RationalFunction.from_fraction(_det_weight(n, i), _det_weight(n, p))
    add_into(mu[p - 1], 0, -t)
    return _weighted_basis_sum(StepGeneratorTable(ctx), mu)


def mu_sum_constraint(coords: HH1Coordinates) -> bool:
    """The linear relation forced on the weights of determinant-annihilating
    derivations: sum_j t_j mu_j vanishes, with D_j(det_q) = t_j det_q."""
    n = coords.ctx.n
    if len(coords.mu) != 2 * n - 1:
        raise IndexOutOfRangeError(f"{len(coords.mu)} weights, not {2 * n - 1}")
    total: DetPolynomial = {}
    for j, m in enumerate(coords.mu, 1):
        t = RationalFunction.from_int(_det_weight(n, j))
        for k, c in m.items():
            add_into(total, k, c * t)
    return not total


def gl_express(table: StepGeneratorTable, d: DerivationSpec) -> HH1Coordinates:
    """Coordinates, mu Laurent in det_q, for a derivation whose images carry
    det_q^-1 factors, given as a torus spec on the quantum-matrix generators
    (an Mq spec has the coordinates of ``express_hh1``).

    The images are multiplied by embed(det_q)^k (``tower._det_image``),
    rebased into the algebra and written by ``express_hh1``, and mu is
    shifted back by k.
    k = max(0, -e(1,1)) over the terms T^e of every image, and no smaller
    k can do: the inner corners of a Cauchon path lie below row 1 and right
    of column 1 (``tower``), so every term of an embedded element is
    natural on the first row and column, and embed(det_q) is T^diag with
    coefficient 1, which adds k to e(1,1).  A spec that this k does not
    clear makes the rebase raise ``NotInSpanError``."""
    ctx = table.ctx
    require_operand("gl_express", d, DerivationSpec, ctx.n)
    if d.alg == "Mq":
        return express_hh1(table, d)
    k = max([0] + [-e[0] for img in d.images.values() for e in img.terms])
    factor = _det_image(table, k)
    images = {
        gen: rebase_to_matrix_algebra(table, factor * img)
        for gen, img in d.images.items()
    }
    coords = express_hh1(table, DerivationSpec(ctx, "Mq", images))
    shifted = [{p - k: c for p, c in m.items()} for m in coords.mu]
    return HH1Coordinates(ctx, coords.inner, shifted, det_shift=-k)
