"""In-memory span tracer for the qmat benchmark.

The tracer wraps the public entry points of each qmat module from outside
the package and changes no file under ``src/``.  Every wrapped call of a
module other than ``rational`` records one span (name, start, end, parent
span, op id); ``RationalFunction`` is entered about 10^5 times per second,
so its calls only update counters and summed self time.  Counts are taken
at the same boundaries.  A layer's self time is its span time minus the
time of its child spans, kept on a call stack while the op runs.

Wrappers are installed at the start of each traced op and removed at its
end, so input generation and output checks are never recorded.  A function
imported with ``from .x import y`` is wrapped in every qmat module that
holds it.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, class or None, attribute, layer); every call is a span except
# for the rational layer
ENTRY_POINTS = (
    ("qmat.rational", "RationalFunction", "__init__", "rational"),
    ("qmat.rational", "RationalFunction", "__add__", "rational"),
    ("qmat.rational", "RationalFunction", "__sub__", "rational"),
    ("qmat.rational", "RationalFunction", "__neg__", "rational"),
    ("qmat.rational", "RationalFunction", "__mul__", "rational"),
    ("qmat.rational", "RationalFunction", "__truediv__", "rational"),
    ("qmat.rational", "RationalFunction", "inv", "rational"),
    ("qmat.matrixalg", "MatrixAlgebraElement", "__mul__", "matrixalg"),
    ("qmat.matrixalg", None, "normalize_word", "matrixalg"),
    ("qmat.torus", "TorusElement", "__mul__", "torus"),
    ("qmat.torus", "TorusElement", "invert_monomial", "torus"),
    ("qmat.tower", None, "build_table", "tower"),
    ("qmat.tower", None, "embed", "tower"),
    ("qmat.tower", None, "embed_monomial_at_step", "tower"),
    ("qmat.tower", None, "rebase_to_step", "tower"),
    ("qmat.tower", None, "solve_monomial_combination", "tower"),
    ("qmat.linalg", None, "solve_linear_system", "linalg"),
    ("qmat.derivations", None, "check_derivation", "derivations"),
    ("qmat.derivations", None, "lift_to_torus", "derivations"),
    ("qmat.derivations", None, "decompose_torus_derivation", "derivations"),
    ("qmat.derivations", None, "express_hh1", "derivations"),
    ("qmat.serialize", None, "derivation_from_json", "serialize"),
    ("qmat.serialize", None, "hh1_to_json", "serialize"),
)

LAYERS = ("rational", "matrixalg", "torus", "tower", "linalg", "derivations", "serialize")

# inclusive span time reported under its own metric name
INCLUSIVE_METRICS = {
    "normalize_word": "matrixalg.normalize_s",
    "build_table": "tower.build_table_s",
    "embed_monomial_at_step": "tower.step_monomial_s",
    "solve_linear_system": "linalg.solve_s",
    "check_derivation": "derivations.check_s",
    "lift_to_torus": "derivations.lift_s",
    "decompose_torus_derivation": "derivations.decompose_s",
}


def _is_laurent(den) -> bool:
    """True when the denominator is c*q^k."""
    return all(c == 0 for c in den[:-1])


class Tracer:
    """Spans, counts and per-layer self time of the ops run under it."""

    def __init__(self):
        self.spans: list = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.peak_terms = 0
        self.op_s = 0.0
        self.covered_s = 0.0
        self._seen_words: set = set()
        self._stack: list = []
        self._op = [None]
        self._patches = self._build_patches()

    # -- counting hooks --------------------------------------------------------

    def _hook(self, name: str):
        counts = self.counts
        if name == "__init__":
            def hook(args, result):
                counts["rational.constructs"] += 1
                if not _is_laurent(args[0].den):
                    counts["rational.nonlaurent"] += 1
        elif name in ("__add__", "__sub__", "__neg__", "__truediv__", "inv"):
            def hook(args, result):
                counts["rational.calls"] += 1
        elif name == "normalize_word":
            seen = self._seen_words

            def hook(args, result):
                counts["matrixalg.normalize_calls"] += 1
                key = (args[0].n, tuple(args[1]))
                if key in seen:
                    counts["matrixalg.normalize_repeats"] += 1
                else:
                    seen.add(key)
        elif name == "embed":
            def hook(args, result):
                counts["tower.embed_monomials"] += len(args[1].terms)
        elif name == "embed_monomial_at_step":
            def hook(args, result):
                counts["tower.step_monomial_builds"] += 1
        elif name == "solve_linear_system":
            def hook(args, result):
                matrix = args[0]
                counts["linalg.solves"] += 1
                counts["linalg.cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)
        else:
            hook = None
        return hook

    def _mul_hook(self, layer: str):
        counts = self.counts
        if layer == "rational":
            def hook(args, result):
                counts["rational.calls"] += 1
        elif layer == "matrixalg":
            def hook(args, result):
                counts["matrixalg.products"] += 1
        else:
            def hook(args, result):
                counts["torus.products"] += 1
                counts["torus.term_pairs"] += len(args[0].terms) * len(args[1].terms)
                if len(result.terms) > self.peak_terms:
                    self.peak_terms = len(result.terms)
        return hook

    # -- wrappers --------------------------------------------------------------

    def _light(self, fn, layer, hook):
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stack[-1][0] += elapsed
                self_s[layer] += elapsed - frame[0]
            hook(args, result)
            return result

        return wrapper

    def _span(self, fn, name, layer, hook):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        inclusive_s = self.inclusive_s
        op = self._op

        def wrapper(*args, **kwargs):
            parent = stack[-1][1]
            index = len(spans)
            spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                elapsed = t1 - t0
                stack.pop()
                stack[-1][0] += elapsed
                self_s[layer] += elapsed - frame[0]
                inclusive_s[name] += elapsed
                spans[index] = (name, t0, t1, parent, op[0])
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _build_patches(self) -> list:
        modules = [m for k, m in sys.modules.items() if k == "qmat" or k.startswith("qmat.")]
        patches = []
        for module_name, owner_name, name, layer in ENTRY_POINTS:
            module = sys.modules[module_name]
            if owner_name is not None:
                owner = getattr(module, owner_name)
                original = owner.__dict__[name]
                hook = self._mul_hook(layer) if name == "__mul__" else self._hook(name)
                if layer == "rational":
                    wrapper = self._light(original, layer, hook)
                else:
                    wrapper = self._span(original, f"{owner_name}.{name}", layer, hook)
                patches.append((owner, name, original, wrapper))
                continue
            original = getattr(module, name)
            wrapper = self._span(original, name, layer, self._hook(name))
            for holder in modules:
                if getattr(holder, name, None) is original:
                    patches.append((holder, name, original, wrapper))
        return patches

    # -- ops -------------------------------------------------------------------

    @contextmanager
    def op(self, op_id):
        """Trace every wrapped call made inside the block as part of one op."""
        for target, name, _original, wrapper in self._patches:
            setattr(target, name, wrapper)
        root = [0.0, None]
        self._stack[:] = [root]
        self._op[0] = op_id
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.op_s += time.perf_counter() - t0
            for target, name, original, _wrapper in self._patches:
                setattr(target, name, original)
            self.covered_s += root[0]

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over every op traced so far."""
        c = self.counts
        out: dict[str, float] = {
            "rational.calls": c["rational.calls"],
            "rational.constructs": c["rational.constructs"],
            "rational.nonlaurent_share": _share(c["rational.nonlaurent"], c["rational.constructs"]),
            "matrixalg.products": c["matrixalg.products"],
            "matrixalg.normalize_calls": c["matrixalg.normalize_calls"],
            "matrixalg.normalize_repeat_share": _share(
                c["matrixalg.normalize_repeats"], c["matrixalg.normalize_calls"]
            ),
            "torus.products": c["torus.products"],
            "torus.term_pairs": c["torus.term_pairs"],
            "torus.peak_terms": self.peak_terms,
            "tower.embed_monomials": c["tower.embed_monomials"],
            "tower.step_monomial_builds": c["tower.step_monomial_builds"],
            "linalg.solves": c["linalg.solves"],
            "linalg.cells": c["linalg.cells"],
        }
        for name, metric in INCLUSIVE_METRICS.items():
            out[metric] = self.inclusive_s[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        out["trace.unattributed_share"] = _share(self.op_s - self.covered_s, self.op_s)
        return out

    def write_spans(self, path) -> None:
        """Write every span as one JSON list per line:
        [name, start, end, parent index or null, op id]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
