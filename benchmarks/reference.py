"""A fixed pure-Python computation that gauges the machine's current speed.

The reference machine is a shared host whose speed switches between a
fast and a slow state within milliseconds, and whose share of slow time
drifts over minutes (see ``README.md``).  The benchmark times
``reference()`` once before every timed op and scales the run's op times
by ``NOMINAL_S`` over the trimmed mean of those samples, so that a run made
while the host is slow and one made while it is fast report about the same
times for the same work.

``reference()`` imports nothing from ``qmat``, so no change to the program
can move it.  It does the kind of work ``qmat`` spends its time on, in the
same style: a product of two sums of Laurent-coefficient monomials in a
small quantum torus, with exponent vectors as tuples, coefficients as
``__slots__`` objects over integer-polynomial tuples, and dictionary
accumulation.  On the reference machine one call takes 0.8 to 1.4 ms,
depending on the host's state.
"""

from __future__ import annotations

import gc
import time
from math import gcd

NOMINAL_S = 0.001
NN = 6

# skew-symmetric commutation matrix, as for a small quantum torus
B = tuple(tuple((b - a) % 3 - 1 if a < b else (1 - (a - b) % 3 if a > b else 0) for a in range(NN))
          for b in range(NN))


def _trim(coeffs) -> tuple:
    i = len(coeffs)
    while i and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


def _pmul(a, b) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _padd(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


class Coeff:
    """num / (den * q^shift) with integer-polynomial tuples, reduced by the
    integer content."""

    __slots__ = ("num", "den", "shift")

    def __init__(self, num, den, shift):
        g = 0
        for c in num + den:
            g = gcd(g, c)
        if g > 1:
            num = tuple(c // g for c in num)
            den = tuple(c // g for c in den)
        self.num, self.den, self.shift = num, den, shift

    def __mul__(self, other) -> "Coeff":
        return Coeff(_pmul(self.num, other.num), _pmul(self.den, other.den),
                     self.shift + other.shift)

    def __add__(self, other) -> "Coeff":
        lo = min(self.shift, other.shift)
        a = (0,) * (self.shift - lo) + _pmul(self.num, other.den)
        b = (0,) * (other.shift - lo) + _pmul(other.num, self.den)
        return Coeff(_padd(a, b), _pmul(self.den, other.den), lo)


def _element(seed: int, terms: int) -> dict:
    """``terms`` monomials with exponents in 0..2, drawn by a fixed LCG."""
    out = {}
    x = seed
    while len(out) < terms:
        x = (x * 1103515245 + 12345) % 2**31
        exp = tuple((x >> (3 * k + 4)) % 3 for k in range(NN))
        t = len(out)
        out[exp] = Coeff(((t % 3) + 1, seed - t % 2), (1, t % 2), t % 3)
    return out


LEFT = _element(1, 12)
RIGHT = _element(2, 12)


def reference() -> int:
    """The product LEFT * RIGHT in the torus; returns its number of terms."""
    out = {}
    for g, cg in LEFT.items():
        for d, cd in RIGHT.items():
            e = 0
            for b, gb in enumerate(g):
                if gb:
                    row = B[b]
                    for a in range(b):
                        if d[a]:
                            e += gb * d[a] * row[a]
            coeff = cg * cd
            coeff.shift += e
            exp = tuple(x + y for x, y in zip(g, d))
            acc = out.get(exp)
            out[exp] = coeff if acc is None else acc + coeff
    return len(out)


def timed_reference() -> float:
    """Seconds taken by one ``reference()`` call.  The garbage collector is
    off during the call, so the size of the heap the program under test
    leaves behind does not move it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
