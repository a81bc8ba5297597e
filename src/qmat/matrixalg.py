"""The PBW polynomial algebra of quantum matrices.

Elements are finite sums of normal-ordered monomials in the generators
Y(i,a) with natural-number exponents.  Multiplication straightens the
concatenated word by swapping out-of-order adjacent pairs with the
defining relations:

    Y(i,b) Y(i,a) = q^{-1} Y(i,a) Y(i,b)                       (a < b)
    Y(j,a) Y(i,a) = q^{-1} Y(i,a) Y(j,a)                       (i < j)
    Y(j,b) Y(i,a) = Y(i,a) Y(j,b)                              (i < j, a > b)
    Y(j,b) Y(i,a) = Y(i,a) Y(j,b) - (q - q^{-1}) Y(i,b) Y(j,a) (i < j, a < b)

``normalize_word`` takes the lexicographically largest pending word and
insertion-sorts it in one sweep, summing the q-exponents of its swaps; a
swap with a cross term pends the word with the cross pair in its place.
That word is lexicographically smaller than the word it came from (its
letter Y(i,b) precedes Y(j,b)), as is the sorted word, so every word is
swept once, after all its summands have arrived, and the straightening
terminates because the words of a given length are finitely many.
Associativity is exercised by the test suite and, more strongly, by the
torus-embedding homomorphism check.

A product with one generator Y_k = Y(i,a) as a factor straightens only the
rows that the generator shares with each monomial (``_generator_into``).
Every defining relation keeps the multiset of rows of a word, so the
normal form of a word whose letters lie in rows <= i has its letters in
those rows too, each before every letter of a lower row.  With P the
letters of Y^g in rows <= i and S the rest, and P' those in rows < i and
S' the rest, normal forms being unique,

    Y_k Y^g = NF(Y_k P) S        Y^g Y_k = P' NF(S' Y_k)

and the product is the single term Y^(g + e_k) when no letter of P comes
before k, or no letter of S' after it.  Many terms share a cut part, and
each distinct one is straightened once per product.
"""

from __future__ import annotations

from itertools import combinations, permutations, starmap
from math import factorial
from operator import gt

from .context import AlgebraContext, sweep_cells
from .errors import IndexOutOfRangeError
from .limits import check_terms
from .rational import RF_ONE, RationalFunction
from .sparse import ExponentVector, SparseElement, add_into, require_operand

# q - q^{-1}, the coefficient of the cross term in the defining relations
QDIFF = RationalFunction.q_power(1) - RationalFunction.q_power(-1)
_MINUS_QDIFF = -QDIFF


def _word_of(exp: ExponentVector, start: int = 0) -> tuple[int, ...]:
    """The sorted word of an exponent vector whose first entry is at flat
    position ``start``."""
    word = []
    for k, e in enumerate(exp, start):
        word.extend([k] * e)
    return tuple(word)


def _exp_of(nn: int, word) -> ExponentVector:
    exp = [0] * nn
    for k in word:
        exp[k] += 1
    return tuple(exp)


def normalize_word(ctx: AlgebraContext, word) -> dict[ExponentVector, RationalFunction]:
    """Normal form of a generator word as {exponent vector: coefficient}:
    one insertion sweep per pending word, the largest word first (module
    docstring)."""
    nn = ctx.n * ctx.n
    relations = ctx.relations
    pending: dict[tuple[int, ...], RationalFunction] = {tuple(word): RF_ONE}
    done: dict[ExponentVector, RationalFunction] = {}

    while pending:
        w = max(pending)
        c = pending.pop(w)
        a = list(w)
        shift = 0
        for j in range(1, len(a)):
            v = a[j]
            k = j
            # the word is a[:k] + [v] + a[k + 1:] while v moves left
            while k and a[k - 1] > v:
                u = a[k - 1]
                e, cross = relations[u][v]
                if cross:
                    add_into(
                        pending,
                        (*a[: k - 1], *cross, *a[k + 1 :]),
                        c.times_q_power(shift) * _MINUS_QDIFF,
                    )
                shift += e
                a[k] = u
                k -= 1
            a[k] = v
        add_into(done, _exp_of(nn, a), c.times_q_power(shift))
        check_terms(len(pending) + len(done), "straightening")
    return done


def relation_report(ctx: AlgebraContext, prod, cross_terms: bool = True) -> list[dict]:
    """Check a product rule against every defining relation.

    For every flat pair u > v of ``ctx.relations`` the check is
    prod(u, v) == q^e prod(v, u) - (q - q^{-1}) prod(ib, ja), the cross
    term only where the relation has one and ``cross_terms`` is true.
    Returns one {"pair": (gen u, gen v), "ok": bool} per pair, in table
    order.
    """
    gens = ctx.generators
    report = []
    for u, row in enumerate(ctx.relations):
        for v, (e, cross) in enumerate(row):
            lhs = prod(u, v)
            rhs = prod(v, u)
            if e:
                rhs = rhs.scale(RationalFunction.q_power(e))
            if cross and cross_terms:
                rhs = rhs - prod(*cross).scale(QDIFF)
            report.append({"pair": (gens[u], gens[v]), "ok": (lhs - rhs).is_zero()})
    return report


class MatrixAlgebraElement(SparseElement):
    """Finite sum of PBW monomials with Q(q) coefficients."""

    __slots__ = ()

    LETTER = "Y"
    ALG = "Mq"

    def __init__(self, ctx: AlgebraContext, terms: dict | None = None):
        super().__init__(ctx, terms)
        if terms and any(min(exp) < 0 for exp in terms):
            raise ValueError("quantum-matrix exponents must be natural numbers")

    def __mul__(self, other: "MatrixAlgebraElement") -> "MatrixAlgebraElement":
        self._check_operand(other)
        out = MatrixAlgebraElement(self.ctx)
        _multiply_into(out.terms, self.ctx, self.terms, other.terms)
        return out


def _multiply_into(acc: dict, ctx: AlgebraContext, xs: dict, ys: dict) -> None:
    """acc += x * y for term dicts xs, ys.  A factor that is one degree-1
    monomial goes to ``_generator_into``; otherwise each term pair is one
    ``normalize_word`` of the whole concatenated word."""
    if len(ys) == 1:
        ((d, cd),) = ys.items()
        if sum(d) == 1:
            return _generator_into(acc, ctx, d.index(1), xs, cd, None)
    if len(xs) == 1:
        ((g, cg),) = xs.items()
        if sum(g) == 1:
            return _generator_into(acc, ctx, g.index(1), ys, None, cg)
    words = [(_word_of(d), cd) for d, cd in ys.items()]
    for g, cg in xs.items():
        wg = _word_of(g)
        for wd, cd in words:
            c = cg * cd
            for exp, coeff in normalize_word(ctx, wg + wd).items():
                add_into(acc, exp, c * coeff)
            check_terms(len(acc), "quantum-matrix product")


def _generator_into(
    acc: dict, ctx: AlgebraContext, k: int, xs: dict, right, left
) -> None:
    """acc += right * x Y_k + left * Y_k x for x = sum xs and the generator
    Y_k at flat position k, skipping a side whose scale is None: the
    one-sided rule of the module docstring.  The terms of x are grouped by
    cut part, and each part is straightened once and its normal form
    dropped when its group is done.  A group lists only exponent vectors:
    a (part, coefficient) pair per term made express_hh1 at n = 7 slower."""
    lo = k - k % ctx.n  # the rows before the generator's end here
    hi = lo + ctx.n  # and its own row here
    rights: dict = {}
    lefts: dict = {}
    for g, c in xs.items():
        if right is not None:
            if any(g[k + 1 :]):
                rights.setdefault(g[lo:], []).append(g)
            else:
                add_into(acc, (*g[:k], g[k] + 1, *g[k + 1 :]), c * right)
        if left is not None:
            if any(g[:k]):
                lefts.setdefault(g[:hi], []).append(g)
            else:
                add_into(acc, (*g[:k], g[k] + 1, *g[k + 1 :]), c * left)
        check_terms(len(acc), "quantum-matrix product")
    for cut, group in rights.items():
        nf = normalize_word(ctx, _word_of(cut, lo) + (k,))
        for g in group:
            head, c = g[:lo], xs[g] * right
            for e, v in nf.items():
                add_into(acc, head + e[lo:], c * v)
            check_terms(len(acc), "quantum-matrix product")
    for cut, group in lefts.items():
        nf = normalize_word(ctx, (k, *_word_of(cut)))
        for g in group:
            tail, c = g[hi:], xs[g] * left
            for e, v in nf.items():
                add_into(acc, e[:hi] + tail, c * v)
            check_terms(len(acc), "quantum-matrix product")


def _central_times_generator(z: MatrixAlgebraElement, k: int) -> MatrixAlgebraElement:
    """z Y_k for a central z (so z Y_k = Y_k z), from the side where z's
    terms have fewer distinct cut parts: rows <= i on the left, rows >= i
    on the right."""
    ctx = z.ctx
    lo = k - k % ctx.n
    out = MatrixAlgebraElement(ctx)
    if len({g[: lo + ctx.n] for g in z.terms}) < len({g[lo:] for g in z.terms}):
        _generator_into(out.terms, ctx, k, z.terms, None, RF_ONE)
    else:
        _generator_into(out.terms, ctx, k, z.terms, RF_ONE, None)
    return out


# ---------------------------------------------------------------------------
# quantum determinant and minors


def _inversions(perm) -> int:
    return sum(starmap(gt, combinations(perm, 2)))


def qminor(
    ctx: AlgebraContext, rows, cols
) -> MatrixAlgebraElement:
    """Quantum minor on the given row and column subsets: the signed
    permutation sum with weights (-q)^{inversions}."""
    rows = tuple(rows)
    cols = tuple(cols)
    if len(rows) != len(cols):
        raise IndexOutOfRangeError("row and column subsets must have equal size")
    if sorted(rows) != list(rows) or sorted(cols) != list(cols):
        raise IndexOutOfRangeError("row and column subsets must be ascending")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise IndexOutOfRangeError("row and column subsets must be duplicate-free")
    for v in rows + cols:
        if not (1 <= v <= ctx.n):
            raise IndexOutOfRangeError(f"index {v} outside [1, {ctx.n}]")
    t = len(rows)
    # distinct permutations give distinct exponent vectors: t! terms
    check_terms(factorial(t), "quantum minor")
    terms = {}
    nn = ctx.n * ctx.n
    for perm in permutations(range(t)):
        exp = [0] * nn
        for k in range(t):
            exp[ctx.flat(rows[k], cols[perm[k]])] += 1
        l = _inversions(perm)
        coeff = RationalFunction.q_power(l)
        terms[tuple(exp)] = -coeff if l % 2 else coeff
    return MatrixAlgebraElement(ctx, terms)


def qdet(ctx: AlgebraContext) -> MatrixAlgebraElement:
    """The quantum determinant."""
    full = tuple(range(1, ctx.n + 1))
    return qminor(ctx, full, full)


def b_minor(ctx: AlgebraContext, i: int) -> MatrixAlgebraElement:
    """The i-th quantum minor along the antidiagonal sweep, on the rows
    and columns of ``sweep_cells(n, i)``; 1 at i = 0 and i = 2n."""
    n = ctx.n
    if not (0 <= i <= 2 * n):
        raise IndexOutOfRangeError(f"minor index {i} outside [0, {2 * n}]")
    cells = sweep_cells(n, i)
    return qminor(ctx, [r for r, _ in cells], [c for _, c in cells])


def sigma_automorphism(x: MatrixAlgebraElement) -> MatrixAlgebraElement:
    """The scaling automorphism Y(i,a) -> q^{2(n+1-i-a)} Y(i,a), applied
    term-wise."""
    require_operand("sigma_automorphism", x, MatrixAlgebraElement)
    ctx = x.ctx
    n = ctx.n
    out = MatrixAlgebraElement(ctx)
    for exp, coeff in x.terms.items():
        w = 0
        for k, e in enumerate(exp):
            if e:
                i, a = ctx.gen_at(k)
                w += 2 * e * (n + 1 - i - a)
        out.terms[exp] = coeff.times_q_power(w)
    return out
