"""Exact arithmetic in the coefficient field Q(q).

A nonzero element is stored as q^v * p / r with v an integer and p, r
integer polynomials in q: tuples of coefficients in ascending degree, with
no trailing zeros and a nonzero constant term, gcd(p, r) = 1 in Z[q] and
r's leading coefficient positive.  Zero is (0, (), (1,)).  The form is
unique, so equality is component-wise; the reduced quotient num/den is
num = q^max(v, 0) * p, den = q^max(-v, 0) * r.

Laurent polynomials (r = (1,)) are closed under +, - and * with no gcd
and no zero padding.  Multiplying by q^e adds e to v, and so does a
product with a unit +-q^m (p = (+-1,), r = (1,)), which at most negates
the other factor's p: no gcd and no polynomial product.  A quotient of
two Laurent polynomials that is exact in Z[q] is found by exact
division.  Otherwise one rule, ``_cancel``, removes a common factor:
nothing when the denominator is 1; the integer content when either side
is a constant or ``_coprime`` proves the gcd an integer from the values
of both sides at one integer point beyond the roots (the evaluation idea
of GCDHEU); the primitive-PRS gcd in Z[q] otherwise.  A product of
reduced factors (a/r)(b/s) cancels only gcd(a, s) and gcd(b, r) before
it multiplies (Henrici), so a one-term Laurent factor meets only an
integer gcd, and no gcd of the full product ever runs.
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


def _unit_part(coeffs) -> tuple[int, tuple]:
    """(s, u) with coeffs = q^s * u, u trimmed with a nonzero constant
    term; u = () when coeffs is zero."""
    i = len(coeffs)
    while i and not coeffs[i - 1]:
        i -= 1
    s = 0
    while s < i and not coeffs[s]:
        s += 1
    return s, tuple(coeffs[s:i])


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    """Product of two nonzero trimmed polynomials, which is trimmed."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    out[j] += x * y
    return tuple(out)


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
    """Gcd in Z[q] of two nonzero polynomials, primitive-PRS Euclid;
    leading coefficient positive."""
    ca, cb = _int_gcd(*a), _int_gcd(*b)
    g_cont = _int_gcd(ca, cb)
    a = tuple(c // ca for c in a)
    b = tuple(c // cb for c in b)
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        r = _pseudo_rem(a, b)
        if r:
            cr = _int_gcd(*r)
            r = tuple(c // cr for c in r)
        a, b = b, r
    g = tuple(c * g_cont for c in a)
    return _pneg(g) if g[-1] < 0 else g


_P_ONE = (1,)


def _coprime(p, r) -> bool:
    """True when gcd(p, r) in Z[q] is proved to be an integer; False when
    the test cannot decide.  Every root of r has modulus at most B = 1 +
    ceil(max|r_i| / |lc r|) (Cauchy), so at t = B + 2^24 a common factor h
    of positive degree has |h(t)| >= t - B, and h(t) divides both p(t) and
    r(t) != 0: a gcd of the two values below t - B rules every such h out."""
    bound = 1 + -(-max(map(abs, r)) // abs(r[-1]))
    t = bound + (1 << 24)
    pt = rt = 0
    for c in reversed(p):
        pt = pt * t + c
    for c in reversed(r):
        rt = rt * t + c
    return _int_gcd(pt, rt) < t - bound


def _cancel(p, r):
    """p / g and r / g for g = gcd(p, r) in Z[q] with g's leading
    coefficient positive, for trimmed nonzero p and r with nonzero constant
    terms; r's leading sign is kept.  g is 1 when r is 1, the integer
    content of p and r when either side is a constant or ``_coprime``
    proves it, and the primitive-PRS ``_pgcd`` otherwise."""
    if r == _P_ONE:
        return p, r
    if len(p) == 1 or len(r) == 1 or _coprime(p, r):
        # the gcd in Z[q] is an integer, so it is the content of p and r
        g = _int_gcd(*p, *r)
        if g != 1:
            p = tuple(c // g for c in p)
            r = tuple(c // g for c in r)
    else:
        g = _pgcd(p, r)
        if g != _P_ONE:
            p = _pdiv_exact(p, g)
            r = _pdiv_exact(r, g)
    return p, r


def _reduce(p, r):
    """p / r in lowest terms with r's leading coefficient positive, for
    trimmed nonzero p and r with nonzero constant terms."""
    p, r = _cancel(p, r)
    if r[-1] < 0:
        p, r = _pneg(p), _pneg(r)
    return p, r


def _rf(v: int, p: tuple, r: tuple) -> "RationalFunction":
    """The element q^v * p / r from parts already in canonical form."""
    x = object.__new__(RationalFunction)
    x.v, x.p, x.r = v, p, r
    return x


# ---------------------------------------------------------------------------


class RationalFunction:
    """An element q^v * p / r of Q(q) in canonical form (module docstring)."""

    __slots__ = ("v", "p", "r")

    def __init__(self, num, den=_P_ONE):
        k, r = _unit_part(den)
        if not r:
            raise ZeroDivisionError("zero denominator in Q(q)")
        s, p = _unit_part(num)
        if p:
            self.v, (self.p, self.r) = s - k, _reduce(p, r)
        else:
            self.v, self.p, self.r = 0, (), _P_ONE

    @property
    def num(self) -> tuple:
        """Numerator of the reduced quotient: q^max(v, 0) * p."""
        v = self.v
        return (0,) * v + self.p if v > 0 else self.p

    @property
    def den(self) -> tuple:
        """Denominator of the reduced quotient: q^max(-v, 0) * r."""
        v = self.v
        return (0,) * -v + self.r if v < 0 else self.r

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(k: int) -> "RationalFunction":
        return _rf(0, (k,), _P_ONE) if k else RF_ZERO

    @staticmethod
    def from_fraction(p: int, q: int) -> "RationalFunction":
        return RationalFunction((p,), (q,))

    @staticmethod
    def q_power(k: int) -> "RationalFunction":
        """The monomial q^k (k may be negative)."""
        return _rf(k, _P_ONE, _P_ONE)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.p

    def __bool__(self) -> bool:
        return bool(self.p)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        a, b = self.p, other.p
        if not a:
            return other
        if not b:
            return self
        r = self.r
        if r != other.r:
            a, b = _pmul(a, other.r), _pmul(b, r)
            r = _pmul(r, other.r)
        v, d = self.v, other.v - self.v
        if d < 0:
            a, b, v, d = b, a, other.v, -d
        # q^v * (a + q^d * b): pad only by the valuation gap d
        out = list(a)
        out += [0] * (d + len(b) - len(out))
        for i, c in enumerate(b, d):
            out[i] += c
        s, p = _unit_part(out)
        v += s
        if not p:
            return RF_ZERO
        p, r = _reduce(p, r)
        return _rf(v, p, r)

    def __neg__(self) -> "RationalFunction":
        return _rf(self.v, _pneg(self.p), self.r)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction", e: int = 0) -> "RationalFunction":
        """self * other, times q^e when e is given: the torus product passes
        its commutation exponent, so a term pair builds one coefficient.

        For (q^v a/r)(q^w b/s) with both factors reduced, only gcd(a, s) and
        gcd(b, r) can be nontrivial (Henrici).  Cancelling them first leaves
        coprime parts whose products are already canonical: r and s keep
        their positive leading coefficients and no sign fix is needed."""
        a, b = self.p, other.p
        if not a or not b:
            return RF_ZERO
        v = self.v + other.v + e
        r, s = self.r, other.r
        if s == _P_ONE and b in ((1,), (-1,)):  # a unit +-q^m: a shift
            return _rf(v, a if b[0] > 0 else _pneg(a), r)
        if r == _P_ONE and a in ((1,), (-1,)):
            return _rf(v, b if a[0] > 0 else _pneg(b), s)
        if r == _P_ONE and s == _P_ONE:
            if len(a) == 1 and len(b) == 1:
                return _rf(v, (a[0] * b[0],), _P_ONE)
            return _rf(v, _pmul(a, b), _P_ONE)
        a, s = _cancel(a, s)
        b, r = _cancel(b, r)
        return _rf(v, _pmul(a, b), _pmul(r, s))

    def times_q_power(self, e: int) -> "RationalFunction":
        """This element times q^e."""
        if not e or not self.p:
            return self
        return _rf(self.v + e, self.p, self.r)

    def inv(self) -> "RationalFunction":
        p, r = self.p, self.r
        if not p:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        if p[-1] < 0:
            p, r = _pneg(p), _pneg(r)
        return _rf(-self.v, r, p)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        a, b = self.p, other.p
        if a and len(b) > 1 and self.r == _P_ONE and other.r == _P_ONE:
            # a Laurent quotient that is exact in Z[q] needs no gcd
            try:
                return _rf(self.v - other.v, _pdiv_exact(a, b), _P_ONE)
            except ArithmeticError:
                pass
        return self * other.inv()

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.v == other.v and self.p == other.p and self.r == other.r

    def __hash__(self) -> int:
        return hash((self.v, self.p, self.r))

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


RF_ZERO = _rf(0, (), _P_ONE)
RF_ONE = _rf(0, _P_ONE, _P_ONE)
