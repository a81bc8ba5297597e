"""Test-only oracle: ``embed`` by Horner's rule over the PBW order.

This is the product path that ``qmat.tower.embed`` took for every input
before quantum minors went through their path systems and non-minor inputs
had det_q divided out; its image cache is left out, so every term goes
through Horner.  It multiplies the top entries of the table and nothing
else: it uses neither the path-system sum nor embed(det_q) = Delta_n, so
the tests that compare ``embed`` with it are not circular.

    embed(table, x) == horner_embed(table, x)
"""

from __future__ import annotations

from qmat.torus import TorusElement


def horner_embed(table, x):
    """Sum of c * top[Y_1]^h_1 * ... * top[Y_m]^h_m over the terms c * Y^h
    of x, the top entries in PBW order."""
    ctx = table.ctx
    if not x.terms:
        return TorusElement(ctx)
    top = table.top_entries()
    entries = [top[gen] for gen in ctx.generators]
    return _embed_horner(ctx, entries, dict(x.terms))


def _embed_horner(ctx, entries, terms):
    """Sum of c * entries[0]^h_0 * ... * entries[m-1]^h_{m-1} over the
    nonempty {h: c}, all h of one length m and natural.

    With k the last position any h uses, grouping by h_k gives
    sum_j G_j * entries[k]^j, each G_j over the prefixes h[:k]; it is
    evaluated as (..(G_J * entries[k] + G_{J-1}) * entries[k] ..) + G_0.
    """
    k = len(next(iter(terms)))
    while k and not any(h[k - 1] for h in terms):
        k -= 1
    if not k:
        (c,) = terms.values()
        return TorusElement.scalar(ctx, c)
    k -= 1
    groups: dict[int, dict] = {}
    for h, c in terms.items():
        groups.setdefault(h[k], {})[h[:k]] = c
    entry = entries[k]
    last = max(groups)
    acc = _embed_horner(ctx, entries, groups[last])
    for j in range(last - 1, -1, -1):
        acc = acc * entry
        group = groups.get(j)
        if group:
            acc = acc + _embed_horner(ctx, entries, group)
    return acc
