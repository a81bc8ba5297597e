"""Arithmetic in the quantum torus and its central monomials.

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
then summed.  A one-term factor, as in the lift's det_q powers and
scaled generators, ``embed``'s det_q image and ``embed_monomial_at_step``'s
start, makes the product a single translation.  The tower table forms no
product: it cuts every level from the Cauchon paths of its top entries,
and ``verify_forward_recursion`` certifies them with this product.
"""

from __future__ import annotations

from operator import add

from .context import AlgebraContext, sweep_cells
from .errors import IndexOutOfRangeError, NotAMonomialError, NotInLatticeError
from .limits import check_terms
from .rational import RationalFunction
from .sparse import ExponentVector, SparseElement, add_into, require_length


def commutation_exponent(
    ctx: AlgebraContext, g: ExponentVector, d: ExponentVector
) -> int:
    """Integer e with T^g * T^d = q^e T^{g+d} in normal order."""
    B = ctx.B
    nonzero = [(a, da) for a, da in enumerate(d) if da]
    e = 0
    for b, gb in enumerate(g):
        if gb:
            row = B[b]
            for a, da in nonzero:
                if a >= b:
                    break
                e += gb * da * row[a]
    return e


def is_central_monomial(ctx: AlgebraContext, g: ExponentVector) -> bool:
    """T^g commutes with every generator iff B.g = 0."""
    require_length("exponent vector", g, ctx.n * ctx.n)
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
    """Exponent vector of Delta_i = b_i * b_{n+i}^{-1}: +1 on the cells of
    b_i, -1 on the cells of b_{n+i}."""
    n = ctx.n
    if not (1 <= i <= n):
        raise IndexOutOfRangeError(f"delta index {i} outside [1, {n}]")
    up, down = sweep_cells(n, i), sweep_cells(n, n + i)
    return tuple((gen in up) - (gen in down) for gen in ctx.generators)


def zset_conditions(ctx: AlgebraContext, g: ExponentVector) -> bool:
    """True iff, for every i in [1, n], the exponents are one value v on
    the cells of b_i (a superdiagonal) and -v on the cells of b_{n+i}
    (the matching subdiagonal)."""
    n = ctx.n
    require_length("exponent vector", g, n * n)
    for i in range(1, n + 1):
        upper = sweep_cells(n, i)
        v = g[ctx.flat(*upper[0])]
        for sign, cells in ((1, upper), (-1, sweep_cells(n, n + i))):
            for cell in cells:
                if g[ctx.flat(*cell)] != sign * v:
                    return False
    return True


def delta_lattice_coordinates(
    ctx: AlgebraContext, g: ExponentVector
) -> tuple[int, ...]:
    """Integer k with g = sum_i k_i * delta_exponents(i), if it exists.

    The delta supports partition the grid with entries +-1, so g is in the
    lattice iff ``zset_conditions`` holds, and k_i is read at the first
    cell of b_i.
    """
    if not zset_conditions(ctx, g):
        raise NotInLatticeError(
            f"exponent vector {g} is not in the central lattice"
        )
    n = ctx.n
    return tuple(g[ctx.flat(*sweep_cells(n, i)[0])] for i in range(1, n + 1))
