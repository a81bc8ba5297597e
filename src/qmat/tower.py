"""The deleting-derivations tower realised inside the quantum torus.

For every step r the table stores the intermediate generators as torus
elements.  At the lowest step they are the torus generators themselves;
ascending the steps with pivot (j, b) = r adds the cross-term correction

    next[(i, a)] = cur[(i, a)] + cur[(i, b)] * cur[(j, b)]^{-1} * cur[(j, a)]

for i < j and a < b, and leaves every other entry unchanged.  The pivot
entry is always the single monomial T(j, b), so the only inverses ever
needed are monomial inverses.  The top step realises the embedding of the
quantum-matrix algebra into the torus.
"""

from __future__ import annotations

from .context import AlgebraContext, GeneratorIndex, StepIndex
from .errors import NotAMonomialError, NotInSpanError, PivotNotMonomialError
from .limits import check_terms
from .linalg import solve_in_span
from .matrixalg import MatrixAlgebraElement, b_minor, qdet, relation_report
from .rational import RationalFunction
from .sparse import ExponentVector
from .torus import TorusElement


class StepGeneratorTable:
    """Images of every intermediate generator at every tower step."""

    def __init__(self, ctx: AlgebraContext):
        self.ctx = ctx
        self.entries: dict[StepIndex, dict[GeneratorIndex, TorusElement]] = {}
        self._embed_cache: dict[ExponentVector, TorusElement] = {}

    def top_entries(self) -> dict[GeneratorIndex, TorusElement]:
        return self.entries[self.ctx.top_step()]


def build_table(ctx: AlgebraContext) -> StepGeneratorTable:
    table = StepGeneratorTable(ctx)
    base = {
        gen: TorusElement.generator(ctx, gen) for gen in ctx.generators
    }
    table.entries[ctx.E[0]] = base
    cur = base
    for idx, r in enumerate(ctx.E[:-1]):
        j, b = r
        nxt = dict(cur)
        if j > 1 and b > 1:
            pivot = cur[(j, b)]
            if not pivot.is_monomial():
                raise PivotNotMonomialError(f"pivot at step {r} is not a monomial")
            pinv = pivot.invert_monomial()
            for i in range(1, j):
                for a in range(1, b):
                    nxt[(i, a)] = cur[(i, a)] + cur[(i, b)] * pinv * cur[(j, a)]
        table.entries[ctx.E[idx + 1]] = nxt
        cur = nxt
    return table


# ---------------------------------------------------------------------------
# embedding into the torus


def embed_monomial_at_step(
    table: StepGeneratorTable, step: StepIndex, exp: ExponentVector
) -> TorusElement:
    """Ordered product of step-generator powers for the given exponents.

    Negative exponents are admitted only where the step entry is a single
    monomial (i.e. where the entry is invertible in the localisation).
    """
    ctx = table.ctx
    entries = table.entries[step]
    out = TorusElement.one(ctx)
    for k, e in enumerate(exp):
        if not e:
            continue
        gen = ctx.gen_at(k)
        entry = entries[gen]
        if e > 0:
            for _ in range(e):
                out = out * entry
        else:
            if not entry.is_monomial():
                raise NotAMonomialError(
                    f"entry {gen} at step {step} is not invertible"
                )
            inv = entry.invert_monomial()
            for _ in range(-e):
                out = out * inv
    return out


def embed(table: StepGeneratorTable, x: MatrixAlgebraElement) -> TorusElement:
    """Algebra embedding of the quantum-matrix algebra into the torus,
    determined by the top-step table entries."""
    ctx = table.ctx
    top = ctx.top_step()
    cache = table._embed_cache
    out = TorusElement(ctx)
    for exp, coeff in x.terms.items():
        img = cache.get(exp)
        if img is None:
            img = embed_monomial_at_step(table, top, exp)
            cache[exp] = img
        out = out + img.scale(coeff)
    return out


# ---------------------------------------------------------------------------
# verification reports


def verify_relations_preserved(table: StepGeneratorTable) -> list[dict]:
    """Check every defining relation among the embedded generators."""
    entries = table.top_entries()
    top = [entries[gen] for gen in table.ctx.generators]
    return relation_report(table.ctx, lambda a, b: top[a] * top[b])


def verify_step_factorizations(table: StepGeneratorTable) -> list[dict]:
    """Check the one-step factorisations of the determinant and of the two
    length-(n-1) antidiagonal minors at the step just below the top."""
    ctx = table.ctx
    n = ctx.n
    z = table.entries[(2, 3)]
    report = []

    det_prod = z[(1, 1)] * z[(2, 2)] - (z[(1, 2)] * z[(2, 1)]).scale(
        RationalFunction.q_power(1)
    )
    for k in range(3, n + 1):
        det_prod = det_prod * z[(k, k)]
    report.append(
        {
            "identity": "det factorisation at step (2,3)",
            "ok": (embed(table, qdet(ctx)) - det_prod).is_zero(),
        }
    )

    upper = TorusElement.one(ctx)
    for k in range(1, n):
        upper = upper * z[(k, k + 1)]
    report.append(
        {
            "identity": "superdiagonal minor factorisation at step (2,3)",
            "ok": (embed(table, b_minor(ctx, n - 1)) - upper).is_zero(),
        }
    )

    lower = TorusElement.one(ctx)
    for k in range(2, n + 1):
        lower = lower * z[(k, k - 1)]
    report.append(
        {
            "identity": "subdiagonal minor factorisation at step (2,3)",
            "ok": (embed(table, b_minor(ctx, n + 1)) - lower).is_zero(),
        }
    )
    return report


def verify_forward_recursion(table: StepGeneratorTable) -> bool:
    """Apply the downward recursion to each built level and compare with the
    stored previous level."""
    ctx = table.ctx
    for idx, r in enumerate(ctx.E[:-1]):
        j, b = r
        cur = table.entries[r]
        nxt = table.entries[ctx.E[idx + 1]]
        for (i, a), entry in cur.items():
            if j > 1 and b > 1 and i < j and a < b:
                pinv = nxt[(j, b)].invert_monomial()
                expected = nxt[(i, a)] - nxt[(i, b)] * pinv * nxt[(j, a)]
            else:
                expected = nxt[(i, a)]
            if (entry - expected):
                return False
    return True


# ---------------------------------------------------------------------------
# conversion back to step coordinates


def _bidegree(ctx: AlgebraContext, exp: ExponentVector):
    rows = [0] * ctx.n
    cols = [0] * ctx.n
    for k, e in enumerate(exp):
        if e:
            i, a = ctx.gen_at(k)
            rows[i - 1] += e
            cols[a - 1] += e
    return tuple(rows), tuple(cols)


def default_box(ctx: AlgebraContext, x: TorusElement, monomial_ok) -> list[tuple[int, int]]:
    """Componentwise exponent hull of the input, widened by one; negative
    lower bounds are clamped to zero wherever the step entry cannot be
    inverted."""
    nn = ctx.n * ctx.n
    lo = [0] * nn
    hi = [0] * nn
    for exp in x.terms:
        for k, e in enumerate(exp):
            lo[k] = min(lo[k], e)
            hi[k] = max(hi[k], e)
    box = []
    for k in range(nn):
        l = lo[k] - 1 if lo[k] < 0 else 0
        if not monomial_ok[k]:
            l = max(l, 0)
        box.append((l, hi[k] + 1))
    return box


def rebase_to_step(
    table: StepGeneratorTable,
    step: StepIndex,
    x: TorusElement,
    box: list[tuple[int, int]] | None = None,
) -> dict[ExponentVector, RationalFunction]:
    """Expand a torus element over the step-generator PBW monomials whose
    exponents lie in the given per-generator box.

    The result is unique when it exists (PBW independence); a
    ``NotInSpanError`` only means the element is not representable within
    this box.
    """
    ctx = table.ctx
    entries = table.entries[step]
    monomial_ok = [
        entries[ctx.gen_at(k)].is_monomial() for k in range(ctx.n * ctx.n)
    ]
    if box is None:
        box = default_box(ctx, x, monomial_ok)
    for k, (l, _h) in enumerate(box):
        if l < 0 and not monomial_ok[k]:
            raise NotAMonomialError(
                f"box allows negative exponents on non-invertible entry "
                f"{ctx.gen_at(k)} at step {step}"
            )

    candidates = _box_candidates(ctx, x, box)
    return solve_monomial_combination(table, step, x, candidates)


def solve_monomial_combination(
    table: StepGeneratorTable,
    step: StepIndex,
    x: TorusElement,
    candidates: list[ExponentVector],
) -> dict[ExponentVector, RationalFunction]:
    """Solve x = sum c_g * (embedded step monomial g) over the candidates."""
    images = [embed_monomial_at_step(table, step, exp) for exp in candidates]
    solution = solve_in_span(images, x)
    if solution is None:
        raise NotInSpanError(
            "element is not a combination of step monomials within the box"
        )
    return {exp: coeff for exp, coeff in zip(candidates, solution) if coeff}


def rebase_to_matrix_algebra(
    table: StepGeneratorTable, x: TorusElement
) -> MatrixAlgebraElement:
    """Express a torus element as an element of the quantum-matrix algebra
    (top step, natural exponents only), enumerating candidate monomials by
    the row/column multidegrees present in the input, capped at its
    positive exponent hull plus one."""
    ctx = table.ctx
    if x.is_zero():
        return MatrixAlgebraElement(ctx)
    candidates = natural_candidates(ctx, x, 1)
    coords = solve_monomial_combination(table, ctx.top_step(), x, candidates)
    return MatrixAlgebraElement(ctx, coords)


def natural_candidates(
    ctx: AlgebraContext, x: TorusElement, margin: int
) -> list[ExponentVector]:
    """Natural exponent vectors sharing their row and column sums with a
    term of x (the embedding preserves this bidegree), capped entry-wise
    at the input's positive exponent hull plus the margin."""
    hull = [0] * (ctx.n * ctx.n)
    for exp in x.terms:
        rows, cols = _bidegree(ctx, exp)
        if any(v < 0 for v in rows + cols):
            raise NotInSpanError("input carries degrees impossible in the algebra")
        for k, e in enumerate(exp):
            hull[k] = max(hull[k], e)
    return _box_candidates(ctx, x, [(0, h + margin) for h in hull])


def _box_candidates(ctx: AlgebraContext, x: TorusElement, box) -> list[ExponentVector]:
    """Exponent vectors within the box sharing their row and column sums
    with a term of x, grouped by bidegree in sorted order."""
    candidates = []
    for rows, cols in sorted({_bidegree(ctx, exp) for exp in x.terms}):
        candidates.extend(_boxed_margin_vectors(ctx, box, rows, cols))
        check_terms(len(candidates), "rebase candidate enumeration")
    return candidates


def _vectors_with_sum(bounds, total):
    """All integer vectors within the per-entry [lo, hi] bounds whose entries
    sum to the given total."""
    suffix_lo = [0] * (len(bounds) + 1)
    suffix_hi = [0] * (len(bounds) + 1)
    for k in range(len(bounds) - 1, -1, -1):
        suffix_lo[k] = suffix_lo[k + 1] + bounds[k][0]
        suffix_hi[k] = suffix_hi[k + 1] + bounds[k][1]
    out = []

    def rec(k, remaining, acc):
        if k == len(bounds):
            out.append(tuple(acc))
            return
        lo, hi = bounds[k]
        for v in range(lo, hi + 1):
            rest = remaining - v
            if suffix_lo[k + 1] <= rest <= suffix_hi[k + 1]:
                rec(k + 1, rest, acc + [v])

    rec(0, total, [])
    return out


def _boxed_margin_vectors(ctx: AlgebraContext, box, rows, cols):
    """All exponent vectors within the box with the given row and column
    sums, assembled row by row with column-feasibility pruning."""
    n = ctx.n
    row_options = [
        _vectors_with_sum(box[i * n : (i + 1) * n], rows[i]) for i in range(n)
    ]
    col_lo = [[0] * n for _ in range(n + 1)]
    col_hi = [[0] * n for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for a in range(n):
            col_lo[i][a] = col_lo[i + 1][a] + box[i * n + a][0]
            col_hi[i][a] = col_hi[i + 1][a] + box[i * n + a][1]
    out = []

    def rec(i, cols_left, prefix):
        if i == n:
            if not any(cols_left):
                out.append(tuple(prefix))
            return
        for row in row_options[i]:
            nxt = [c - v for c, v in zip(cols_left, row)]
            if all(
                col_lo[i + 1][a] <= nxt[a] <= col_hi[i + 1][a] for a in range(n)
            ):
                rec(i + 1, nxt, prefix + list(row))

    rec(0, list(cols), [])
    return out
