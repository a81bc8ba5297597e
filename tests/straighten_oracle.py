"""Test-only oracle: PBW straightening by single-swap rewrites.

This is how ``qmat.matrixalg.normalize_word`` straightened a word before
it insertion-sorted the largest pending word: it pops any pending word,
rewrites its leftmost out-of-order adjacent pair with the defining
relation and pends the one or two words that result.  Each rewrite lowers
the inversion count, so it terminates, but it rewrites a word once per
rewrite path that reaches it; keep its inputs short.

    normalize_word(ctx, word) == oracle_normalize_word(ctx, word)
"""

from __future__ import annotations

from qmat.rational import RF_ONE, RationalFunction
from qmat.sparse import add_into

# -(q - q^{-1}), the coefficient of the cross term
MINUS_QDIFF = RationalFunction.q_power(-1) - RationalFunction.q_power(1)


def oracle_normalize_word(ctx, word):
    """Normal form of a generator word as {exponent vector: coefficient}."""
    nn = ctx.n * ctx.n
    relations = ctx.relations
    pending = {tuple(word): RF_ONE}
    done = {}

    while pending:
        w, c = pending.popitem()
        k = next((k for k in range(len(w) - 1) if w[k] > w[k + 1]), None)
        if k is None:
            add_into(done, tuple(w.count(k) for k in range(nn)), c)
            continue
        u, v = w[k], w[k + 1]
        e, cross = relations[u][v]
        add_into(pending, w[:k] + (v, u) + w[k + 2 :], c.times_q_power(e))
        if cross:
            add_into(pending, w[:k] + cross + w[k + 2 :], c * MINUS_QDIFF)
    return done
