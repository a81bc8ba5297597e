"""Arithmetic in the quantum torus and its distinguished subalgebras.

Elements are finite sums of terms (coefficient, exponent vector); the
exponent vector lives in Z^{n^2} and is stored as a dense tuple in flat
generator order.  Every element is kept in normal-ordered (PBW) form, so
equality is term-wise.  The product of two ordered monomials is

    T^g * T^d = q^{e(g, d)} T^{g + d},

where e(g, d) = sum over flat positions a < b of g_b * d_a * B[b][a]
(the cost of moving each factor of T^d left past the larger-index factors
of T^g).

A product has one path: the larger factor is translated by each term T^t
of the smaller one, x -> x + t on its exponents.  A translation is
injective and Q(q) has no zero divisors, so the terms of one translate
never collide or cancel and are built in one pass; the translates are
then summed.  A one-term factor, as in ``build_table``'s pivot inverse,
Horner's scalar starts in ``embed`` and ``embed_monomial_at_step``, makes
the product a single translation.
"""

from __future__ import annotations

from operator import add

from .context import AlgebraContext
from .errors import IndexOutOfRangeError, NotAMonomialError, NotInLatticeError
from .limits import check_terms
from .rational import RationalFunction
from .sparse import ExponentVector, SparseElement, add_into


def commutation_exponent(
    ctx: AlgebraContext, g: ExponentVector, d: ExponentVector
) -> int:
    """Integer e with T^g * T^d = q^e T^{g+d} in normal order."""
    B = ctx.B
    e = 0
    for b, gb in enumerate(g):
        if gb:
            row = B[b]
            for a in range(b):
                da = d[a]
                if da:
                    e += gb * da * row[a]
    return e


def is_central_monomial(ctx: AlgebraContext, g: ExponentVector) -> bool:
    """T^g commutes with every generator iff B.g = 0."""
    for row in ctx.B:
        if sum(r * c for r, c in zip(row, g) if c):
            return False
    return True


class TorusElement(SparseElement):
    """Finite sum of normal-ordered torus monomials with Q(q) coefficients."""

    __slots__ = ()

    LETTER = "T"
    ALG = "torus"

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        # translate the larger side by each term T^t of the smaller one.  With
        # L the strictly lower part of B, the form of e is built once per t:
        # u = L t for t on the right (B is skew: u[k] = -sum over j < k of
        # t_j B[j][k]), w = t^T L on the left.  x -> x + t is injective and
        # Q(q) has no zero divisors, so no two terms of one translate collide
        # or cancel; only later translates are accumulated.
        self._check_operand(other)
        B = self.ctx.B
        nn = len(B)
        t_right = len(other.terms) <= len(self.terms)
        small, large = (other, self) if t_right else (self, other)
        check_terms(len(large.terms), "torus product")
        out: dict[ExponentVector, RationalFunction] = {}
        for t, ct in small.terms.items():
            f = [0] * nn
            for j, tj in enumerate(t):
                if tj:
                    row = B[j]
                    for k in range(j + 1, nn) if t_right else range(j):
                        f[k] += tj * row[k]
            form = [(k, -fk if t_right else fk) for k, fk in enumerate(f) if fk]
            translate = {
                tuple(map(add, x, t)): ct.__mul__(cx, sum([x[k] * fk for k, fk in form]))
                for x, cx in large.terms.items()
            }
            if out:
                for exp, c in translate.items():
                    add_into(out, exp, c)
            else:
                out = translate
        check_terms(len(out), "torus product")
        result = TorusElement(self.ctx)
        result.terms = out
        return result

    def invert_monomial(self) -> "TorusElement":
        """Inverse of a single-term element t, with t * result = 1."""
        if len(self.terms) != 1:
            raise NotAMonomialError(
                "only single-term torus elements are invertible here"
            )
        (exp, coeff), = self.terms.items()
        inv_exp = tuple(-e for e in exp)
        e = commutation_exponent(self.ctx, exp, inv_exp)
        inv_coeff = coeff.inv().times_q_power(-e)
        return TorusElement.monomial(self.ctx, inv_exp, inv_coeff)


# ---------------------------------------------------------------------------
# distinguished central monomials


def delta_exponents(ctx: AlgebraContext, i: int) -> ExponentVector:
    """Exponent vector of the i-th distinguished central monomial:
    +1 along the superdiagonal starting at (1, n-i+1), -1 along the
    subdiagonal starting at (i+1, 1)."""
    n = ctx.n
    if not (1 <= i <= n):
        raise IndexOutOfRangeError(f"delta index {i} outside [1, {n}]")
    exp = [0] * (n * n)
    for k in range(1, i + 1):
        exp[ctx.flat(k, n - i + k)] = 1
    for m in range(1, n - i + 1):
        exp[ctx.flat(i + m, m)] = -1
    return tuple(exp)


def delta_lattice_coordinates(
    ctx: AlgebraContext, g: ExponentVector
) -> tuple[int, ...]:
    """Integer k with g = sum_i k_i * delta_exponents(i), if it exists.

    The delta supports are pairwise disjoint with entries +-1, so each k_i
    can be read off one coordinate; the full vector is then verified.
    """
    n = ctx.n
    k = []
    for i in range(1, n + 1):
        # entry at (1, n-i+1) is +k_i
        k.append(g[ctx.flat(1, n - i + 1)])
    total = [0] * (n * n)
    for i in range(1, n + 1):
        if k[i - 1]:
            for pos, e in enumerate(delta_exponents(ctx, i)):
                total[pos] += k[i - 1] * e
    if tuple(total) != tuple(g):
        raise NotInLatticeError(
            f"exponent vector {g} is not in the central lattice"
        )
    return tuple(k)


# ---------------------------------------------------------------------------
# sign-pattern subalgebras


class SubalgebraPattern:
    """Per-generator sign constraint: True entries may carry negative
    exponents, False entries are restricted to natural numbers."""

    __slots__ = ("allow_negative",)

    def __init__(self, allow_negative):
        self.allow_negative = tuple(allow_negative)

    @staticmethod
    def u22(ctx: AlgebraContext) -> "SubalgebraPattern":
        """First row and first column natural, everything else invertible."""
        return SubalgebraPattern(i > 1 and a > 1 for (i, a) in ctx.generators)

    def admits(self, exp: ExponentVector) -> bool:
        return all(
            e >= 0 or ok for e, ok in zip(exp, self.allow_negative)
        )


# ---------------------------------------------------------------------------
# diagonal-chain description of central monomials


def zset_conditions(ctx: AlgebraContext, g: ExponentVector) -> bool:
    """True iff the exponents are constant along each superdiagonal and
    anti-constant along the matching subdiagonal:

    for every b in [1, n], the entries at (1,b), (2,b+1), ..., (n-b+1,n)
    coincide and equal the negated entries at (n-b+2,1), ..., (n,b-1).
    """
    n = ctx.n
    for b in range(1, n + 1):
        v = g[ctx.flat(1, b)]
        for k in range(2, n - b + 2):
            if g[ctx.flat(k, b + k - 1)] != v:
                return False
        for m in range(1, b):
            if g[ctx.flat(n - b + 1 + m, m)] != -v:
                return False
    return True
