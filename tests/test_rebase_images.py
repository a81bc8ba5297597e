"""The images ``rebase_to_matrix_algebra`` divides by.

It divides by embed(Y^h) from ``tower._monomial_image``, which embeds no
element and divides nothing by det_q.  The oracle below is the route it
replaced: the same division over ``embed`` of each monomial, which goes
through the minor test and the det_q division.  embed is an algebra map,
so both must give the same coordinates.
"""

import random

import pytest
from test_gl_clearing_power import _mq_specs, _off_diagonal_torus

from qmat import tower
from qmat.context import build_context
from qmat.matrixalg import MatrixAlgebraElement, qdet
from qmat.suite import _random_matrix_element
from qmat.tower import (
    _det_image,
    build_table,
    embed,
    rebase_to_matrix_algebra,
    solve_monomial_combination,
)


def embed_route(table, x):
    """Coordinates of x over the embed images of the monomials."""
    ctx = table.ctx
    coords = solve_monomial_combination(
        x, lambda h: embed(table, MatrixAlgebraElement.monomial(ctx, h))
    )
    return MatrixAlgebraElement(ctx, coords)


@pytest.fixture
def spied(monkeypatch):
    """Every call of ``embed`` and ``_divide_by_det`` in ``tower``, by name."""
    calls = []
    for name in ("embed", "_divide_by_det"):
        real = getattr(tower, name)

        def spy(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(tower, name, spy)
    return calls


def _rebased(table, images, calls):
    """rebase_to_matrix_algebra of each image, asserting that it embedded
    nothing and divided nothing by det_q."""
    out = [rebase_to_matrix_algebra(table, img) for img in images]
    assert calls == []
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_natural_elements(n, spied):
    ctx = build_context(n)
    rng = random.Random(211 + n)
    det = qdet(ctx)
    xs = [_random_matrix_element(ctx, rng, 3, 3) for _ in range(4)]
    xs += [det * x + x for x in xs[:2]]
    source = build_table(ctx)
    images = [embed(source, x) for x in xs]
    spied.clear()
    got = _rebased(build_table(ctx), images, spied)
    oracle = build_table(ctx)
    for x, img, y in zip(xs, images, got):
        assert y == x == embed_route(oracle, img)


GL_CASES = [(n, s, m) for n in (2, 3, 4) for s in range(len(_mq_specs(n))) for m in (1, 2)]


@pytest.mark.parametrize(
    "n, s, m", GL_CASES, ids=[f"n{n}-spec{s}-m{m}" for n, s, m in GL_CASES]
)
def test_det_multiplied_gl_images(n, s, m, spied):
    """The images ``gl_express`` rebases: embed(det_q)^k times each image
    of a torus spec with det_q^-m factors, k its clearing power."""
    ctx = build_context(n)
    source = build_table(ctx)
    d = _off_diagonal_torus(source, _mq_specs(n)[s], m)
    spied.clear()
    k = max([0] + [-e[0] for img in d.images.values() for e in img.terms])
    factor = _det_image(source, k)
    images = [factor * img for img in d.images.values()]
    got = _rebased(build_table(ctx), images, spied)
    oracle = build_table(ctx)
    assert got == [embed_route(oracle, img) for img in images]
