"""Test-only oracle: ``gl_express`` with a caller-supplied clearing power.

This is how ``qmat.derivations.gl_express`` worked before it read the
clearing power off the images: the caller gives k, every image is
multiplied by embed(det_q)^k and rebased into the quantum-matrix algebra
(an Mq image is embedded first), and the weights are shifted back by k.
A k too small makes the rebase raise ``NotInSpanError``.  At the smallest
k it accepts, it answers as the library does:

    gl_express(table, d) == _gl_express_at(table, d, k)
"""

from __future__ import annotations

from qmat.derivations import DerivationSpec, HH1Coordinates, express_hh1
from qmat.matrixalg import MatrixAlgebraElement, qdet
from qmat.sparse import require_operand
from qmat.torus import TorusElement
from qmat.tower import StepGeneratorTable, embed, rebase_to_matrix_algebra


def _gl_express_at(
    table: StepGeneratorTable, d: DerivationSpec, k: int
) -> HH1Coordinates:
    """Coordinates for a derivation whose images carry determinant-inverse
    factors, given as a torus spec on the quantum-matrix generators.

    Multiplying every image by the k-th power of the embedded determinant
    lands the spec back in the algebra; the coordinates of that spec are
    computed and the weights divided back, so mu may be Laurent in the
    determinant."""
    ctx = table.ctx
    require_operand("gl_express", d, DerivationSpec, ctx.n)
    if k < 0:
        raise ValueError("clearing power must be nonnegative")
    det_t = embed(table, qdet(ctx))
    factor = TorusElement.one(ctx)
    for _ in range(k):
        factor = factor * det_t
    images = {}
    for gen in ctx.generators:
        img = d.images[gen]
        if isinstance(img, MatrixAlgebraElement):
            img = embed(table, img)
        images[gen] = rebase_to_matrix_algebra(table, factor * img)
    cleared = DerivationSpec(ctx, "Mq", images)
    coords = express_hh1(table, cleared)
    shifted = [{p - k: c for p, c in m.items()} for m in coords.mu]
    return HH1Coordinates(ctx, coords.inner, shifted, det_shift=-k)
