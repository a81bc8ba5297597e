"""The sparse core shared by quantum-matrix and quantum-torus elements.

An element is a finite sum of monomials, stored as a dict from dense
exponent vectors (flat generator order) to nonzero Q(q) coefficients.
Everything except the product, the exponent sign rule and the printed
generator letter is the same for both algebras and lives here.
"""

from __future__ import annotations

from .context import AlgebraContext, GeneratorIndex
from .errors import DimensionMismatchError
from .rational import RF_ONE, RationalFunction

ExponentVector = tuple[int, ...]


def zero_exponents(ctx: AlgebraContext) -> ExponentVector:
    return (0,) * (ctx.n * ctx.n)


def unit_exponent(ctx: AlgebraContext, gen: GeneratorIndex) -> ExponentVector:
    k = ctx.flat(*gen)
    nn = ctx.n * ctx.n
    return (0,) * k + (1,) + (0,) * (nn - k - 1)


def add_into(terms: dict, key, coeff: RationalFunction) -> None:
    """terms[key] += coeff, dropping the key when the sum is zero."""
    acc = terms.get(key)
    s = coeff if acc is None else acc + coeff
    if s:
        terms[key] = s
    elif acc is not None:
        del terms[key]


def _describe(x) -> str:
    ctx = getattr(x, "ctx", None)
    return type(x).__name__ + (f" (n = {ctx.n})" if ctx else "")


def require_operand(where: str, x, cls, n: int | None = None) -> None:
    """Raise DimensionMismatchError unless x is a ``cls``, over n x n when
    n is given."""
    if type(x) is not cls or n is not None and x.ctx.n != n:
        size = "" if n is None else f" (n = {n})"
        raise DimensionMismatchError(
            f"{where} expects a {cls.__name__}{size}, got {_describe(x)}"
        )


def require_length(what: str, seq, nn: int) -> None:
    """Raise DimensionMismatchError unless seq has nn entries."""
    if len(seq) != nn:
        raise DimensionMismatchError(f"{what} {seq} has length {len(seq)}, not {nn}")


class SparseElement:
    """Finite sum of normal-ordered monomials with Q(q) coefficients.

    Subclasses define ``__mul__`` and the generator letter ``LETTER``, and
    may restrict the exponents that ``__init__`` admits.
    """

    __slots__ = ("ctx", "terms")

    LETTER: str

    def __init__(self, ctx: AlgebraContext, terms: dict | None = None):
        self.ctx = ctx
        self.terms: dict[ExponentVector, RationalFunction] = {}
        if terms:
            nn = ctx.n * ctx.n
            for exp, coeff in terms.items():
                require_length("exponent vector", exp, nn)
                if coeff:
                    self.terms[exp] = coeff

    # -- constructors --------------------------------------------------------

    @classmethod
    def monomial(
        cls,
        ctx: AlgebraContext,
        exp: ExponentVector,
        coeff: RationalFunction = RF_ONE,
    ):
        return cls(ctx, {tuple(exp): coeff})

    @classmethod
    def generator(cls, ctx: AlgebraContext, gen: GeneratorIndex):
        return cls.monomial(ctx, unit_exponent(ctx, gen))

    @classmethod
    def one(cls, ctx: AlgebraContext):
        return cls.monomial(ctx, zero_exponents(ctx))

    @classmethod
    def scalar(cls, ctx: AlgebraContext, coeff: RationalFunction):
        return cls.monomial(ctx, zero_exponents(ctx), coeff)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check_operand(self, other) -> None:
        """Raise unless other is an element of the same algebra and size."""
        if type(other) is not type(self) or other.ctx.n != self.ctx.n:
            raise DimensionMismatchError(
                f"cannot combine {_describe(self)} with {_describe(other)}"
            )

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        self._check_operand(other)
        out = type(self)(self.ctx)
        out.terms = dict(self.terms)
        for exp, coeff in other.terms.items():
            add_into(out.terms, exp, coeff)
        return out

    def __neg__(self):
        out = type(self)(self.ctx)
        out.terms = {exp: -c for exp, c in self.terms.items()}
        return out

    def __sub__(self, other):
        self._check_operand(other)
        out = type(self)(self.ctx)
        out.terms = dict(self.terms)
        for exp, coeff in other.terms.items():
            add_into(out.terms, exp, -coeff)
        return out

    def scale(self, coeff: RationalFunction):
        out = type(self)(self.ctx)
        if coeff:
            out.terms = {exp: c * coeff for exp, c in self.terms.items()}
        return out

    # -- comparison / presentation --------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.ctx.n == other.ctx.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx.n, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        letter = self.LETTER
        parts = []
        for exp, coeff in self.sorted_terms():
            mono = "*".join(
                f"{letter}{self.ctx.gen_at(k)}^{e}"
                if e != 1
                else f"{letter}{self.ctx.gen_at(k)}"
                for k, e in enumerate(exp)
                if e
            )
            parts.append(f"({coeff})" + ("*" + mono if mono else ""))
        return " + ".join(parts)

    # -- structural maps -----------------------------------------------------

    def commutes_with_all_generators(self) -> bool:
        ctx = self.ctx
        for gen in ctx.generators:
            g = type(self).generator(ctx, gen)
            if (self * g - g * self):
                return False
        return True
