"""The benchmark's span tracer still finds every entry point it wraps.

``benchmarks/tracer.py`` wraps class entry points through
``owner.__dict__[name]`` and functions as module attributes, so a method
moved to a base class or a renamed function would break ``--trace 1``.
The tracer is loaded from its file and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import qmat  # noqa: F401  (the tracer patches the loaded qmat modules)
from qmat.context import build_context
from qmat.matrixalg import MatrixAlgebraElement

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("qmat_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "entry", tracer.ENTRY_POINTS, ids=lambda e: ".".join(p for p in e[:3] if p)
)
def test_entry_point_resolves(entry):
    module_name, owner_name, name, _layer = entry
    module = importlib.import_module(module_name)
    if owner_name is None:
        assert callable(getattr(module, name))
    else:
        owner = getattr(module, owner_name)
        assert callable(owner.__dict__[name])


def test_tracer_wraps_and_restores():
    t = tracer.Tracer()
    ctx = build_context(2)
    x = MatrixAlgebraElement.generator(ctx, (2, 2))
    y = MatrixAlgebraElement.generator(ctx, (1, 1))
    original = MatrixAlgebraElement.__dict__["__mul__"]
    with t.op(0):
        x * y
    assert MatrixAlgebraElement.__dict__["__mul__"] is original
    metrics = t.metrics()
    assert metrics["matrixalg.products"] == 1
    assert metrics["matrixalg.normalize_calls"] == 1
    assert "qmat_bench_tracer" not in sys.modules


def test_the_tracer_patches_every_entry_point():
    # ``run.py --trace`` builds the tracer once these modules are loaded; a
    # traced name that a refactor deletes must fail here, not only there
    import qmat.linalg  # noqa: F401
    import qmat.serialize  # noqa: F401

    t = tracer.Tracer()
    patched = {(target, name) for target, name, _original, _wrapper in t._patches}
    for module_name, owner_name, name, _layer in tracer.ENTRY_POINTS:
        module = sys.modules[module_name]
        owner = module if owner_name is None else getattr(module, owner_name)
        assert (owner, name) in patched, (module_name, owner_name, name)
