"""The deleting-derivations tower realised inside the quantum torus.

For every step r the table stores the intermediate generators as torus
elements.  At the lowest step they are the torus generators themselves;
ascending the steps with pivot (j, b) = r adds the cross-term correction

    next[(i, a)] = cur[(i, a)] + cur[(i, b)] * cur[(j, b)]^{-1} * cur[(j, a)]

for i < j and a < b, and leaves every other entry unchanged.  The top
step realises the embedding of the quantum-matrix algebra into the torus.

Each term of an entry (i, a), at every step, is one path in the Cauchon
graph (Cauchon, J. Algebra 260, 2003): with outer corners (i, c_0),
(r_1, c_1), ..., (r_m, a) and inner corners (r_1, c_0), ...,
(r_m, c_{m-1}), where i < r_1 < ... < r_m and c_0 > ... > c_m = a, the
term is q^m * prod T(outer) / prod T(inner), and the path runs west along
row i from column n to c_0, down to r_1, west to c_1, ..., and down column
a to row n.  At step L the entry sums the paths whose inner corners all
come before L in flat order, so every level is a cut of the top level.
A path of (j, b) other than T(j, b) would need an inner corner below row
j, so the pivot is the single monomial T(j, b).  A table builds each
entry on its first read with no product: ``top_entry`` sums the paths of
one top entry, and ``entries`` cuts every level from the top entries.
``verify_forward_recursion`` (suite check tower-03) checks the lowest
level against the torus generators and certifies each level above it
against the recursion in torus products.  Nothing unwinds the
recursion: ``derivations.lift_to_torus`` reads the lift off the answer of
``derivations.express_hh1``, which works in the algebra alone.

By Casteels (Quantum matrices by paths, Algebra & Number Theory 8,
2014) the image of the quantum minor on rows i_1 < ... < i_t and columns
a_1 < ... < a_t is the sum, over the systems of vertex-disjoint paths
i_k -> a_k, of the product of the paths in row order.  ``embed`` takes
this sum for every input that is a scalar times a minor of size >= 2.
Every other input is divided by the central det_q first, whose image is
that sum too, and the remainder is summed from the images of its
monomials, cached in the table.  The computations read every det_q
product from one of two functions (the checks form their own):
``_det_multiple``, det_q^k * Y^g from the table's one store of Mq
products, for the det_q division and the HH^1 residual, and
``_det_image``, embed(det_q)^k from the path-system sum the table keeps,
for the embedding, the lift and ``gl_express``."""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import factorial
from operator import add, mul, sub

from .context import AlgebraContext, GeneratorIndex, StepIndex, sweep_cells
from .errors import IndexOutOfRangeError, NotAMonomialError, NotInSpanError
from .limits import check_terms
from .matrixalg import (
    MatrixAlgebraElement,
    _central_times_generator,
    _inversions,
    b_minor,
    qdet,
    relation_report,
)
from .rational import RF_ONE, RationalFunction
from .sparse import (
    ExponentVector,
    add_into,
    require_length,
    require_operand,
    zero_exponents,
)
from .torus import TorusElement, commutation_exponent


class StepGeneratorTable:
    """Images of every intermediate generator at every tower step, each
    built on its first read (``entries``, ``top_entry``)."""

    def __init__(self, ctx: AlgebraContext):
        self.ctx = ctx
        self._top: dict[GeneratorIndex, TorusElement] = {}
        self._embed_cache: dict[ExponentVector, TorusElement] = {}
        self._det_multiples: dict[tuple[int, ExponentVector], MatrixAlgebraElement] = {}
        self._det_image: TorusElement | None = None

    @cached_property
    def entries(self) -> dict[StepIndex, dict[GeneratorIndex, TorusElement]]:
        """Every level of the tower, cut from ``top_entries``: a term
        q^m * T^e of top entry (i, a) lies in level (j, b) exactly when its
        last inner corner, the largest flat position of a -1 in e (-1 if
        none), comes before (j, b); the top step keeps every term."""
        ctx, top = self.ctx, self.top_entries()
        last = {
            e: max((k for k, x in enumerate(e) if x < 0), default=-1)
            for entry in top.values() for e in entry.terms
        }
        levels = {}
        for j, b in ctx.E:
            cut = (j - 1) * ctx.n + b - 1
            level = levels[(j, b)] = {}
            for gen in ctx.generators:
                kept = {e: c for e, c in top[gen].terms.items() if last[e] < cut}
                level[gen] = TorusElement(ctx, kept)
        return levels

    def top_entry(self, gen: GeneratorIndex) -> TorusElement:
        entry = self._top.get(gen)
        if entry is None:
            entry = self._top[gen] = _top_entry(self.ctx, *gen)
        return entry

    def top_entries(self) -> dict[GeneratorIndex, TorusElement]:
        for gen in self.ctx.generators:
            self.top_entry(gen)
        return self._top

    def step_entries(self, step: StepIndex) -> dict[GeneratorIndex, TorusElement]:
        entries = self.entries.get(step)
        if entries is None:
            raise IndexOutOfRangeError(f"step {step} is not in the tower")
        return entries


def build_table(ctx: AlgebraContext) -> StepGeneratorTable:
    """A fresh table of ctx; it builds each entry on its first read."""
    return StepGeneratorTable(ctx)


def _top_entry(ctx: AlgebraContext, i: int, a: int) -> TorusElement:
    """q^m * T^exp summed over the Cauchon paths of (i, a) (module
    docstring), their corners chosen by backtracking over one exponent
    list: from its last outer corner (r, c), c > a, a path turns at an
    inner corner (r2, c), r2 > r, to an outer corner (r2, c2), a <= c2 < c."""
    n = ctx.n
    powers = [RationalFunction.q_power(m) for m in range(n)]
    entry, exp = TorusElement(ctx), [0] * (n * n)

    def walk(r: int, c: int, m: int):  # 0-based last outer corner
        if c == a - 1:
            entry.terms[tuple(exp)] = powers[m]
            check_terms(len(entry.terms), "tower table")
            return
        for r2 in range(r + 1, n):
            exp[r2 * n + c] = -1
            for c2 in range(a - 1, c):
                exp[r2 * n + c2] = 1
                walk(r2, c2, m + 1)
                exp[r2 * n + c2] = 0
            exp[r2 * n + c] = 0

    for c0 in range(a - 1, n):
        exp[(i - 1) * n + c0] = 1
        walk(i - 1, c0, 0)
        exp[(i - 1) * n + c0] = 0
    return entry


# ---------------------------------------------------------------------------
# embedding into the torus


def embed_monomial_at_step(
    table: StepGeneratorTable, step: StepIndex, exp: ExponentVector
) -> TorusElement:
    """Ordered product of step-generator powers for the given exponents.

    Negative exponents are admitted only where the step entry is a single
    monomial (i.e. where the entry is invertible in the localisation).
    """
    ctx = table.ctx
    entries = table.step_entries(step)
    require_length("exponent vector", exp, ctx.n * ctx.n)
    out = TorusElement.one(ctx)
    for k, e in enumerate(exp):
        if not e:
            continue
        gen = ctx.gen_at(k)
        entry = entries[gen]
        if e < 0:
            if not entry.is_monomial():
                raise NotAMonomialError(
                    f"entry {gen} at step {step} is not invertible"
                )
            entry, e = entry.invert_monomial(), -e
        for _ in range(e):
            out = out * entry
    return out


def embed(table: StepGeneratorTable, x: MatrixAlgebraElement) -> TorusElement:
    """Algebra embedding of the quantum-matrix algebra into the torus,
    determined by the top-step table entries.

    An input c * qminor(rows, cols) with at least two rows is recognised by
    its terms alone: t! exponent vectors of 0s and 1s summing to t, equal
    term by term to c times the minor on the rows and columns of the first
    term.  Its image is c times the sum over vertex-disjoint path systems
    read off the top entries (Casteels' theorem, see the module docstring;
    ``_path_systems``), which never forms the cancelling products.  Every
    other input takes ``_embed_product``, which divides det_q out first.
    """
    ctx = table.ctx
    require_operand("embed", x, MatrixAlgebraElement, ctx.n)
    minor = _as_minor(ctx, x)
    if minor is None:
        return _embed_product(table, x)
    rows, cols, coeff = minor
    return _path_systems(table, rows, cols).scale(coeff)


def _as_minor(ctx: AlgebraContext, x: MatrixAlgebraElement):
    """(rows, cols, c) with x = c * qminor(ctx, rows, cols) and at least
    two rows, else None; the cheapest tests run first.  Once x has t!
    terms of degree t on the t rows and columns of its first term, a term
    with one cell per row and per column is the term of a permutation,
    so the t! of them are all the permutations; each coefficient is then
    checked in place against c * (-q)^(inversions)."""
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
    n = ctx.n
    starts = [(i - 1) * n for i in rows]
    col_at = [None] * n
    for k, a in enumerate(cols):
        col_at[a - 1] = k
    coeff = None
    for exp, c in terms.items():
        # exponents are natural numbers summing to t, so a 1 in each of
        # the t rows leaves every other exponent 0
        if sum(exp) != t:
            return None
        try:
            perm = [col_at[exp.index(1, s, s + n) - s] for s in starts]
        except ValueError:
            return None
        if None in perm or len(set(perm)) != t:
            return None
        l = _inversions(perm)
        c = c.times_q_power(-l)
        if l % 2:
            c = -c
        if coeff is None:
            coeff = c
        elif c != coeff:
            return None
    return rows, cols, coeff


@lru_cache(maxsize=None)
def _path_cells(n: int, exp: ExponentVector) -> int:
    """Bitmask over flat positions of the cells of the path whose term has
    exponents exp: its outer corners are the +1 entries, in row order.
    Cached per path, so the cache is bounded by the paths of the grid."""
    corners = [divmod(k, n) for k, e in enumerate(exp) if e > 0]
    r, c = corners[0][0], n - 1
    mask = 0
    for r2, c2 in corners:
        for row in range(r, r2 + 1):
            mask |= 1 << (row * n + c)
        for col in range(c2, c + 1):
            mask |= 1 << (r2 * n + col)
        r, c = r2, c2
    for row in range(r, n):
        mask |= 1 << (row * n + c)
    return mask


def _path_systems(table: StepGeneratorTable, rows, cols) -> TorusElement:
    """Sum over the systems of vertex-disjoint paths rows[k] -> cols[k] of
    the product of their terms in row order.

    A depth-first search picks one term of top entry (rows[k], cols[k]) per
    k, from the last row up (the entry with the fewest terms first),
    skipping any term whose cells meet the cells already chosen, and
    multiplies each pick onto the left of the product.
    """
    ctx = table.ctx
    choices = [
        [
            (_path_cells(ctx.n, exp), exp, c)
            for exp, c in table.top_entry(gen).terms.items()
        ]
        for gen in zip(rows, cols)
    ]
    out: dict[ExponentVector, RationalFunction] = {}

    def search(k: int, used: int, exp: ExponentVector, coeff: RationalFunction):
        if k < 0:
            add_into(out, exp, coeff)
            check_terms(len(out), "path-system sum")
            return
        for cells, e, c in choices[k]:
            if not cells & used:
                search(
                    k - 1,
                    used | cells,
                    tuple(map(add, e, exp)),
                    c.__mul__(coeff, commutation_exponent(ctx, e, exp)),
                )

    search(len(choices) - 1, 0, zero_exponents(ctx), RF_ONE)
    result = TorusElement(ctx)
    result.terms = out
    return result


def _embed_product(table: StepGeneratorTable, x: MatrixAlgebraElement) -> TorusElement:
    """``embed`` of an input that is not a quantum minor: with
    x = det_q * y + r (``_divide_by_det``), embed(det_q) * embed(y) plus
    c * image(h) summed over the terms c * Y^h of r.  embed(det_q) comes
    from ``_det_image``, and each image(h), ``embed_monomial_at_step`` at
    the top step, is built the first time the table uses it and kept.
    """
    ctx = table.ctx
    y, r = _divide_by_det(table, x)
    cache = table._embed_cache
    result = TorusElement(ctx)
    for h, coeff in r.terms.items():
        img = cache.get(h)
        if img is None:
            img = cache[h] = embed_monomial_at_step(table, ctx.top_step(), h)
        for e, c in img.terms.items():
            add_into(result.terms, e, c * coeff)
    if y:
        result = result + _det_image(table, 1) * _embed_product(table, y)
    return result


def _divide_by_det(
    table: StepGeneratorTable, x: MatrixAlgebraElement
) -> tuple[MatrixAlgebraElement, MatrixAlgebraElement]:
    """(y, r) with x = det_q * y + r, the diagonal Y11...Ynn dividing no
    term of r.

    Leading-term division over the weight of ``solve_monomial_combination``
    (generator (i, a) weighs i*a).  The heaviest term of det_q is the
    diagonal, with coefficient 1, and straightening only lowers the weight,
    so det_q * Y^g is kappa * Y^(g + diagonal) plus lighter terms, kappa a
    power of q.  Subtracting such a product removes the heaviest term that
    the diagonal divides and adds only lighter ones.  det_q * Y^g is
    ``_det_multiple(table, 1, g)``, which the HH^1 residual reads too.
    """
    ctx = table.ctx
    weights = [i * a for i, a in ctx.generators]
    diagonal = [int(i == a) for i, a in ctx.generators]
    y: dict[ExponentVector, RationalFunction] = {}
    rest = dict(x.terms)
    while True:
        divisible = [h for h in rest if min(map(sub, h, diagonal)) >= 0]
        if not divisible:
            return MatrixAlgebraElement(ctx, y), MatrixAlgebraElement(ctx, rest)
        h = max(divisible, key=lambda h: sum(map(mul, weights, h)))
        g = tuple(map(sub, h, diagonal))
        product = _det_multiple(table, 1, g)
        y[g] = coeff = rest.pop(h) / product.terms[h]
        for e, c in product.terms.items():
            if e != h:
                add_into(rest, e, -coeff * c)
        check_terms(len(rest), "det_q division remainder")


def _det_multiple(
    table: StepGeneratorTable, k: int, g: ExponentVector
) -> MatrixAlgebraElement:
    """det_q^k * Y^g for k >= 1 from the table's one store, keyed by (k, g):
    det_q at (1, 0), det_q^k as det_q^(k-1) * det_q, det_q^k * Y(i,a) from
    the side with fewer cut parts (``matrixalg._central_times_generator``,
    sound as det_q is central), any other g by one Mq product.  det_q^k
    and det_q * Y^g are kept; det_q^k * Y^g for k >= 2 is formed per call."""
    ctx, products = table.ctx, table._det_multiples
    product = products.get((k, g))
    if product is not None:
        return product
    zero = zero_exponents(ctx)
    if g == zero:
        if k == 1:
            product = qdet(ctx)
        else:
            product = _det_multiple(table, k - 1, zero) * _det_multiple(table, 1, zero)
    else:
        det = _det_multiple(table, k, zero)
        if sum(g) == 1:
            product = _central_times_generator(det, g.index(1))
        else:
            product = det * MatrixAlgebraElement.monomial(ctx, g)
        if k > 1:
            return product
    products[k, g] = product
    return product


def _det_image(table: StepGeneratorTable, k: int) -> TorusElement:
    """embed(det_q)^k for k >= 0.  embed(det_q), the full-span path-system
    sum, which does not assume it is Delta_n, is formed once per table and
    kept; its powers are torus products that are not kept."""
    image = table._det_image
    if image is None:
        span = range(1, table.ctx.n + 1)
        image = table._det_image = _path_systems(table, span, span)
    power = image if k else TorusElement.one(table.ctx)
    for _ in range(k - 1):
        power = power * image
    return power


# ---------------------------------------------------------------------------
# verification reports


def verify_relations_preserved(table: StepGeneratorTable) -> list[dict]:
    """Check every defining relation among the embedded generators."""
    entries = table.top_entries()
    top = [entries[gen] for gen in table.ctx.generators]
    return relation_report(table.ctx, lambda a, b: top[a] * top[b])


def verify_step_factorizations(table: StepGeneratorTable) -> list[dict]:
    """Check the factorisations of the determinant and of the two
    length-(n-1) antidiagonal minors b_{n-1} and b_{n+1} over level (2,3),
    the level just after the first pivot (2,2): there only entry (1,1) has
    two terms, every other entry is its torus generator.  At n = 2 this
    level is the top."""
    ctx = table.ctx
    n = ctx.n
    z = table.entries[(2, 3)]
    report = []

    det_prod = z[(1, 1)] * z[(2, 2)] - (z[(1, 2)] * z[(2, 1)]).scale(
        RationalFunction.q_power(1)
    )
    for k in range(3, n + 1):
        det_prod = det_prod * z[(k, k)]
    report.append(
        {
            "identity": "det factorisation at step (2,3)",
            "ok": (embed(table, qdet(ctx)) - det_prod).is_zero(),
        }
    )

    upper = lower = TorusElement.one(ctx)
    for sup, sub in zip(sweep_cells(n, n - 1), sweep_cells(n, n + 1)):
        upper = upper * z[sup]
        lower = lower * z[sub]
    report.append(
        {
            "identity": "superdiagonal minor factorisation at step (2,3)",
            "ok": (embed(table, b_minor(ctx, n - 1)) - upper).is_zero(),
        }
    )
    report.append(
        {
            "identity": "subdiagonal minor factorisation at step (2,3)",
            "ok": (embed(table, b_minor(ctx, n + 1)) - lower).is_zero(),
        }
    )
    return report


def verify_forward_recursion(table: StepGeneratorTable) -> bool:
    return _recursion_mismatch(table) is None


def _recursion_mismatch(table: StepGeneratorTable) -> str | None:
    """The first level and entry, from the lowest, that is not the torus
    generator there or that the downward recursion in torus products does
    not recover from the level above; or None.  Every level is cut from the
    top, so the lowest level anchors the induction of the recursion."""
    ctx = table.ctx
    bottom = table.entries[ctx.E[0]]
    for gen in ctx.generators:
        if bottom[gen] != TorusElement.generator(ctx, gen):
            return f"level {ctx.E[0]} differs from the torus generators at entry {gen}"
    for idx, r in enumerate(ctx.E[:-1]):
        j, b = r
        cur, nxt = table.entries[r], table.entries[ctx.E[idx + 1]]
        pinv = nxt[(j, b)].invert_monomial() if j > 1 and b > 1 else None
        for (i, a), entry in cur.items():
            if pinv is not None and i < j and a < b:
                expected = nxt[(i, a)] - nxt[(i, b)] * pinv * nxt[(j, a)]
            else:
                expected = nxt[(i, a)]
            if (entry - expected):
                return f"level {r} differs from the recursion at entry {(i, a)}"
    return None


# ---------------------------------------------------------------------------
# conversion back to step coordinates


def default_box(ctx: AlgebraContext, x: TorusElement, monomial_ok) -> list[tuple[int, int]]:
    """Componentwise exponent hull of the input, widened by one; negative
    lower bounds are clamped to zero wherever the step entry cannot be
    inverted."""
    nn = ctx.n * ctx.n
    lo = [0] * nn
    hi = [0] * nn
    for exp in x.terms:
        for k, e in enumerate(exp):
            lo[k] = min(lo[k], e)
            hi[k] = max(hi[k], e)
    box = []
    for k in range(nn):
        l = lo[k] - 1 if lo[k] < 0 else 0
        if not monomial_ok[k]:
            l = max(l, 0)
        box.append((l, hi[k] + 1))
    return box


def is_natural(exp: ExponentVector) -> bool:
    return min(exp) >= 0


def solve_monomial_combination(
    x: TorusElement, image, admissible=is_natural
) -> dict[ExponentVector, RationalFunction]:
    """Coefficients c with x = sum_h c[h] * image(h), by leading-term division.

    Weight the generator (i, a) by i*a.  For i < j and a < b,
    w(i,a) + w(j,b) - w(i,b) - w(j,a) = (j - i)(b - a) > 0, so each tower
    correction cur(i,b) * T(j,b)^{-1} * cur(j,a) weighs less than T(i,a)
    (the pivot is the single monomial T(j,b)).  By induction every entry at
    every step is T(i,a) plus lighter terms, and an ordered step monomial
    with exponents h is kappa*T^h plus lighter terms, kappa nonzero; this is
    the shape ``image(h)`` must have.  Each term T^h of maximal weight in the
    remainder is removed by subtracting (coeff / kappa) * image(h), so the
    maximal weight drops.  A heaviest h that is not ``admissible`` raises
    ``NotInSpanError``: the heaviest terms of a combination of images are
    its own h, which also makes the result unique (PBW independence).
    Images keep the row and column sums of h, so the division ends once the
    admissible h of those sums are used up.  The remainder is one dict
    updated in place, and each exponent's weight is computed once.
    """
    weights = [i * a for i, a in x.ctx.generators]
    weight: dict[ExponentVector, int] = {}
    coords: dict[ExponentVector, RationalFunction] = {}
    rest = dict(x.terms)
    while rest:
        for h in rest:
            if h not in weight:
                weight[h] = sum(map(mul, weights, h))
        top = max(weight[h] for h in rest)
        for h, c in [(h, c) for h, c in rest.items() if weight[h] == top]:
            if not admissible(h):
                raise NotInSpanError(
                    f"leading exponent {h} is not an admissible monomial"
                )
            img = image(h)
            coords[h] = coeff = c / img.terms[h]
            for e, ce in img.terms.items():
                add_into(rest, e, -(ce * coeff))
        check_terms(len(rest), "rebase remainder")
    return coords


def rebase_to_step(
    table: StepGeneratorTable,
    step: StepIndex,
    x: TorusElement,
    box: list[tuple[int, int]] | None = None,
) -> dict[ExponentVector, RationalFunction]:
    """Expand a torus element over the step-generator PBW monomials whose
    exponents lie in the given per-generator box.

    The box is both the admissibility test and the termination bound of
    the division.  The result is unique when it exists (PBW independence);
    a ``NotInSpanError`` only means the element is not representable
    within this box.
    """
    ctx = table.ctx
    require_operand("rebase_to_step", x, TorusElement, ctx.n)
    entries = table.step_entries(step)
    nn = ctx.n * ctx.n
    monomial_ok = [entries[ctx.gen_at(k)].is_monomial() for k in range(nn)]
    if box is None:
        box = default_box(ctx, x, monomial_ok)
    require_length("box", box, nn)
    for k, (l, _h) in enumerate(box):
        if l < 0 and not monomial_ok[k]:
            raise NotAMonomialError(
                f"box allows negative exponents on non-invertible entry "
                f"{ctx.gen_at(k)} at step {step}"
            )
    return solve_monomial_combination(
        x,
        lambda h: embed_monomial_at_step(table, step, h),
        lambda h: all(lo <= e <= hi for e, (lo, hi) in zip(h, box)),
    )


def rebase_to_matrix_algebra(
    table: StepGeneratorTable, x: TorusElement
) -> MatrixAlgebraElement:
    """Express a torus element as an element of the quantum-matrix algebra
    (top step, natural exponents only)."""
    ctx = table.ctx
    require_operand("rebase_to_matrix_algebra", x, TorusElement, ctx.n)
    coords = solve_monomial_combination(
        x, lambda h: embed(table, MatrixAlgebraElement.monomial(ctx, h))
    )
    return MatrixAlgebraElement(ctx, coords)
