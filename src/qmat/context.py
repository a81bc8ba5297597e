"""Ambient configuration: dimension, generator ordering, commutation matrix.

Generators are indexed by pairs (i, a) with 1 <= i, a <= n, enumerated in
lexicographic order; ``flat`` positions are 0-based indices into that
enumeration.  The skew-symmetric integer matrix ``B`` records the
commutation exponents of the q-commuting generators obtained at the end of
the deleting-derivations process: T_k T_l = q^{B[k][l]} T_l T_k.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import IndexOutOfRangeError, InvalidDimensionError, ResourceLimitError

GeneratorIndex = tuple[int, int]
StepIndex = tuple[int, int]


def _b_entry(n: int, k: int, l: int) -> int:
    """Entry of B at 0-based flat positions k, l.

    Block (i, j) is A for i == j, I for i < j and -I for i > j, where A is
    the n x n matrix with 0 diagonal, 1 above and -1 below.
    """
    i, a = divmod(k, n)
    j, b = divmod(l, n)
    if i == j:
        return (a < b) - (b < a)
    s = 1 if i < j else -1
    return s if a == b else 0


@lru_cache(maxsize=None)
def sweep_cells(n: int, i: int) -> tuple[GeneratorIndex, ...]:
    """Cells of the i-th antidiagonal minor b_i in row order: (k, n-i+k)
    for k = 1..i when i <= n, (i-n+k, k) for k = 1..2n-i otherwise (none
    at i = 0 and i = 2n).  Delta_i = b_i * b_{n+i}^{-1}; mu_i is read at
    the first cell."""
    if i <= n:
        return tuple((k, n - i + k) for k in range(1, i + 1))
    return tuple((i - n + k, k) for k in range(1, 2 * n - i + 1))


def _relation(n: int, B, u: int, v: int):
    """Defining relation of the out-of-order pair at flat positions u > v.

    With u = (j, b) and v = (i, a), Y_u Y_v = q^e Y_v Y_u + cross term, where
    e = B[u][v] and the cross term -(q - q^{-1}) Y(i,b) Y(j,a) is present
    exactly when i < j and a < b.  Returns (e, cross pair of flat
    positions or None).
    """
    j, b = divmod(u, n)
    i, a = divmod(v, n)
    cross = (i * n + b, j * n + a) if i < j and a < b else None
    return B[u][v], cross


class AlgebraContext:
    """Dimension n, the commutation matrix B, the defining-relation table
    and the tower step list E.

    ``relations[u][v]`` (flat positions u > v) is the pair (e, cross) of
    :func:`_relation`; in the torus the same pair commutes with q^e and no
    cross term.
    """

    __slots__ = ("n", "B", "E", "generators", "relations")

    def __init__(self, n: int):
        if n < 2:
            raise InvalidDimensionError(f"matrix size must be >= 2, got {n}")
        self.n = n
        nn = n * n
        self.B = tuple(
            tuple(_b_entry(n, k, l) for l in range(nn)) for k in range(nn)
        )
        self.generators = tuple(
            (i, a) for i in range(1, n + 1) for a in range(1, n + 1)
        )
        self.relations = tuple(
            tuple(_relation(n, self.B, u, v) for v in range(u)) for u in range(nn)
        )
        steps = [
            (j, b) for j in range(1, n + 1) for b in range(1, n + 1)
        ]
        steps.remove((1, 1))
        steps.append((n, n + 1))
        self.E = tuple(steps)

    # -- generator indexing --------------------------------------------------

    def flat(self, i: int, a: int) -> int:
        """0-based flat position of generator (i, a)."""
        if not (1 <= i <= self.n and 1 <= a <= self.n):
            raise IndexOutOfRangeError(f"generator ({i},{a}) out of range")
        return (i - 1) * self.n + a - 1

    def gen_at(self, k: int) -> GeneratorIndex:
        """Generator (i, a) at 0-based flat position k."""
        i, a = divmod(k, self.n)
        return (i + 1, a + 1)

    # -- tower steps ---------------------------------------------------------

    def top_step(self) -> StepIndex:
        return self.E[-1]

    def __repr__(self) -> str:
        return f"AlgebraContext(n={self.n})"

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraContext) and self.n == other.n

    def __hash__(self) -> int:
        return hash(("AlgebraContext", self.n))


# B and the relation table have n^4 entries: at n = 24 a context takes about
# 0.2 s and 35 MB, at n = 40 about 2 s and 190 MB.  The term guard cannot
# bound them, since a context is built before any product is formed.
_MAX_DIMENSION = 24


@lru_cache(maxsize=None)
def build_context(n: int) -> AlgebraContext:
    if n > _MAX_DIMENSION:
        raise ResourceLimitError(
            f"build_context: n = {n} exceeds the dimension budget of"
            f" {_MAX_DIMENSION} (the commutation matrix has n^4 entries)"
        )
    return AlgebraContext(n)
