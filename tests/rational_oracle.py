"""Test-only oracle: the num/den form of ``qmat.rational.RationalFunction``
as it was before elements were stored as q^v * p / r.

Elements are reduced quotients of integer-coefficient polynomials in the
single variable q.  Polynomials are stored as tuples of coefficients in
ascending degree with no trailing zeros; the zero polynomial is the empty
tuple.  After reduction the denominator has positive leading coefficient,
which makes the representation unique and equality component-wise.

The code below is that implementation unchanged, so the differential
tests in ``test_rational.py`` compare the new form against the path it
replaced.
"""

from __future__ import annotations

from math import gcd as _int_gcd


# ---------------------------------------------------------------------------
# integer polynomial helpers


def _trim(coeffs) -> tuple:
    i = len(coeffs)
    while i and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _trim(out)


def _pscale(a, k: int):
    if k == 0:
        return ()
    return tuple(c * k for c in a)


def _content(a) -> int:
    g = 0
    for c in a:
        g = _int_gcd(g, c)
    return g


def _pdiv_exact(a, b):
    """Quotient of a by b assuming the division is exact."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return ()
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    dq = len(a) - len(b)
    if dq < 0:
        raise ArithmeticError("inexact polynomial division")
    quot = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + db]
        if c % lb:
            raise ArithmeticError("inexact polynomial division")
        c //= lb
        quot[k] = c
        if c:
            for j in range(db + 1):
                rem[k + j] -= c * b[j]
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return _trim(quot)


def _pseudo_rem(a, b):
    """Pseudo-remainder of a by b (b nonzero, deg a >= deg b)."""
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + db]
        for i in range(len(rem)):
            rem[i] *= lb
        for j in range(db + 1):
            rem[k + j] -= c * b[j]
    return _trim(rem)


def _pgcd(a, b):
    """Gcd in Z[q], primitive-PRS Euclid; leading coefficient positive."""
    if not a:
        g = b
    elif not b:
        g = a
    else:
        ca, cb = _content(a), _content(b)
        g_cont = _int_gcd(ca, cb)
        a = tuple(c // ca for c in a)
        b = tuple(c // cb for c in b)
        while b:
            if len(a) < len(b):
                a, b = b, a
                continue
            r = _pseudo_rem(a, b)
            if r:
                cr = _content(r)
                r = tuple(c // cr for c in r)
            a, b = b, r
        g = _pscale(a, g_cont)
    if g and g[-1] < 0:
        g = _pneg(g)
    return g if g else (1,)


_P_ONE = (1,)


def _is_q_power(a) -> bool:
    """True when the nonzero polynomial a is c*q^k."""
    return not any(a[:-1])


def _order(a) -> int:
    """Largest k with q^k dividing the nonzero polynomial a."""
    k = 0
    while not a[k]:
        k += 1
    return k


# ---------------------------------------------------------------------------


class RationalFunction:
    """An element of Q(q) in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_P_ONE, *, _reduced=False):
        if _reduced:
            # the caller passes trimmed tuples of a canonical quotient
            self.num = num
            self.den = den
            return
        num = _trim(num)
        den = _trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator in Q(q)")
        if not num:
            den = _P_ONE
        elif den != _P_ONE:
            if _is_q_power(den) or _is_q_power(num):
                # One side is c*q^k, so the gcd in Z[q] is the gcd of
                # all coefficients times q^min(ord num, ord den).
                k = min(_order(num), _order(den))
                g = _int_gcd(*num, *den)
                if k or g != 1:
                    num = tuple(c // g for c in num[k:])
                    den = tuple(c // g for c in den[k:])
            else:
                g = _pgcd(num, den)
                if g != _P_ONE:
                    num = _pdiv_exact(num, g)
                    den = _pdiv_exact(den, g)
            if den[-1] < 0:
                num, den = _pneg(num), _pneg(den)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(k: int) -> "RationalFunction":
        return RationalFunction((k,)) if k else RF_ZERO

    @staticmethod
    def from_fraction(p: int, q: int) -> "RationalFunction":
        return RationalFunction((p,), (q,))

    @staticmethod
    def q_power(k: int) -> "RationalFunction":
        """The monomial q^k (k may be negative)."""
        try:
            return _Q_POWER_CACHE[k]
        except KeyError:
            if k >= 0:
                rf = RationalFunction((0,) * k + (1,), _P_ONE, _reduced=True)
            else:
                rf = RationalFunction(_P_ONE, (0,) * (-k) + (1,), _reduced=True)
            _Q_POWER_CACHE[k] = rf
            return rf

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den == other.den:
            return RationalFunction(_padd(self.num, other.num), self.den)
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return RationalFunction(num, _pmul(self.den, other.den))

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(_pneg(self.num), self.den, _reduced=True)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        if not self.num or not other.num:
            return RF_ZERO
        return RationalFunction(
            _pmul(self.num, other.num), _pmul(self.den, other.den)
        )

    def times_q_power(self, e: int) -> "RationalFunction":
        """This element times q^e.

        num/den is reduced, so only common powers of q can cancel in
        num*q^e/den: the product is a shift and needs no gcd.
        """
        num, den = self.num, self.den
        if not e or not num:
            return self
        if e > 0:
            k = min(e, _order(den))
            num, den = (0,) * (e - k) + num, den[k:]
        else:
            k = min(-e, _order(num))
            num, den = num[k:], (0,) * (-e - k) + den
        return RationalFunction(num, den, _reduced=True)

    def inv(self) -> "RationalFunction":
        if not self.num:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        num, den = self.den, self.num
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        return RationalFunction(num, den, _reduced=True)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        return self * other.inv()

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- presentation ------------------------------------------------------

    @staticmethod
    def _poly_str(p) -> str:
        if not p:
            return "0"
        parts = []
        for k in range(len(p) - 1, -1, -1):
            c = p[k]
            if not c:
                continue
            if k == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                term = ("-" if c < 0 else "") + mag + ("q" if k == 1 else f"q^{k}")
            if parts and not term.startswith("-"):
                term = "+" + term
            parts.append(term)
        return "".join(parts)

    def __repr__(self) -> str:
        s = self._poly_str(self.num)
        if self.den != _P_ONE:
            s = f"({s})/({self._poly_str(self.den)})"
        return s

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"num": list(self.num), "den": list(self.den)}


RF_ZERO = RationalFunction(())
RF_ONE = RationalFunction(_P_ONE)
_Q_POWER_CACHE: dict[int, RationalFunction] = {}
