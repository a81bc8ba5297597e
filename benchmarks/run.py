"""Benchmark of the qmat exact calculator.

    python3 benchmarks/run.py --workload hh1 --seed 1 --seconds 30 --trace 0

Runs one seeded workload (``hh1``, ``embed``, ``pbw`` or ``rebase``, see
``benchmarks/README.md``) against the ``qmat`` package in ``src/`` of the
checkout, in one process and one thread, as a closed loop: each op starts
when the previous one has returned and been checked.  Every op's output is
checked exactly.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the environment and the inputs' hash.

With ``--trace 0`` the metrics are the end-to-end ones.  After one
untimed warm-up pass over the inputs, whole passes are timed until
about ``--seconds`` have elapsed (at least three).  ``setup_s`` is the median of
nine fresh interpreters that each import qmat and build the context and
the shared table.  Every time is scaled to a fixed machine speed, measured
by the reference computation in ``reference.py``; the record keeps the
wall-clock values.

With ``--trace 1`` the metrics are the per-layer ones, from exactly one
traced pass over the inputs, run after the warm-up pass and one untraced
pass that is the base of ``trace.overhead_share``; the spans are written
to ``benchmarks/out/``.

Other modes: ``--self-test`` checks that a corrupted output counts as a
failed op without stopping the run; ``--record-embed-digests`` rewrites
``embed_digests.json`` from the current code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from reference import NOMINAL_S, timed_reference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DEFAULT_MAX_TERMS = 200_000
MIN_PASSES = 3
SETUP_PROBES = 9
GAUGE_PROBE_CALLS = 16


def _use_checkout_qmat() -> None:
    """Import qmat from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "qmat" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no qmat package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qmat

    if Path(qmat.__file__).resolve().parent != SRC / "qmat":
        raise SystemExit(f"benchmark: qmat was imported from {qmat.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# set-up time, measured in fresh interpreters


def setup_probe(name: str) -> None:
    """Print the seconds taken to import qmat and build the workload's
    context and shared table in this (fresh) interpreter, and the trimmed
    mean time of the reference computation just before."""
    import random  # noqa: F401  the benchmark's own imports stay out of the timer

    gauge = [timed_reference() for _ in range(GAUGE_PROBE_CALLS)]
    t0 = time.perf_counter()
    _use_checkout_qmat()
    from workloads import WORKLOADS

    WORKLOADS[name].setup()
    print(time.perf_counter() - t0, trimmed_mean(gauge[1:]))


def measure_setup(name: str) -> list[tuple[float, float]]:
    """(set-up time, reference time) of SETUP_PROBES fresh interpreters,
    after one discarded probe that also leaves the byte-code cache warm."""
    samples = []
    for k in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", name],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"benchmark: set-up probe failed with code {proc.returncode}")
        if k:
            setup, gauge = proc.stdout.strip().splitlines()[-1].split()
            samples.append((float(setup), float(gauge)))
    return samples


# ---------------------------------------------------------------------------
# passes


class Pass:
    """Op times and failures of one pass over the inputs."""

    def __init__(self):
        self.times: list[float] = []
        self.gauge: list[float] = []
        self.failed = 0
        self.errors: list[str] = []


def run_pass(workload, ctx, table, inputs, tracer=None, corrupt_at=None, gauge=False) -> Pass:
    """Run every input once, in order; time each op and check its output.
    An op that raises or fails its check counts as failed.  With ``gauge``,
    the reference computation is timed just before each op."""
    result = Pass()
    clock = time.perf_counter
    for i, inp in enumerate(inputs):
        if gauge:
            result.gauge.append(timed_reference())
        try:
            if tracer is None:
                t0 = clock()
                out = workload.op(ctx, table, inp)
                result.times.append(clock() - t0)
            else:
                with tracer.op(i):
                    t0 = clock()
                    out = workload.op(ctx, table, inp)
                    result.times.append(clock() - t0)
            if i == corrupt_at:
                out = workload.corrupt(out)
            ok = workload.check(inp, out)
        except Exception as exc:  # an op that raises counts as failed; keep running
            if len(result.times) == i:
                result.times.append(clock() - t0)
            result.errors.append(f"op {i}: {exc!r}")
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            result.failed += 1
    return result


def trimmed_mean(samples: list[float]) -> float:
    """Mean of the samples without the lowest and the highest tenth.  The
    host alternates between a fast and a slow state within milliseconds, and
    an op's time averages over the states it spans; a median of the
    reference samples would jump between the two states instead."""
    samples = sorted(samples)
    cut = len(samples) // 10
    return statistics.fmean(samples[cut : len(samples) - cut])


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def environment(name: str, seed: int, inputs_hash: str) -> dict:
    from qmat.limits import get_max_terms

    max_terms = get_max_terms()
    return {
        "workload": name,
        "seed": seed,
        "inputs_sha256": inputs_hash,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "max_terms": max_terms,
        "comparable": max_terms == DEFAULT_MAX_TERMS,
        "warmup": "one untimed pass over the run's inputs, in the run's order",
    }


def timed_metrics(workload, ctx, table, inputs, seconds, setup_samples, record) -> tuple:
    """End-to-end metrics from whole timed passes; stops at the pass
    boundary nearest to ``seconds``, after at least MIN_PASSES passes.
    Times are scaled to the machine speed at which the reference
    computation takes NOMINAL_S (see reference.py); the record keeps the
    unscaled values."""
    timed: list[Pass] = []
    start = time.perf_counter()
    while True:
        timed.append(run_pass(workload, ctx, table, inputs, gauge=True))
        elapsed = time.perf_counter() - start
        if len(timed) >= MIN_PASSES and elapsed + elapsed / len(timed) / 2 >= seconds:
            break
    samples = [t for p in timed for t in p.times]
    # each op's median over the timed passes: a few heavy ops carry most of
    # a pass's time, so one pass's sum moves with the machine's speed at
    # those few moments
    per_op = list(zip(*(p.times for p in timed)))
    wall = {
        "ops_per_s": len(inputs) / sum(map(statistics.median, per_op)),
        "latency_p50_s": statistics.median(samples),
        "latency_p90_s": statistics.quantiles(samples, n=10)[-1],
        "setup_s": statistics.median(setup for setup, _ in setup_samples),
    }
    gauge_s = trimmed_mean([t for p in timed for t in p.gauge])
    scale = NOMINAL_S / gauge_s
    record["timed_passes"] = len(timed)
    record["samples"] = len(samples)
    record["setup_samples_s"] = setup_samples
    record["reference_s"] = gauge_s
    record["unscaled"] = wall
    metrics = {
        "ops_per_s": _metric(wall["ops_per_s"] / scale, "1/s"),
        "latency_p50_s": _metric(wall["latency_p50_s"] * scale, "s"),
        "latency_p90_s": _metric(wall["latency_p90_s"] * scale, "s"),
        "setup_s": _metric(
            statistics.median(setup * NOMINAL_S / gauge for setup, gauge in setup_samples), "s"
        ),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return timed, metrics


def traced_metrics(workload, ctx, table, inputs, spans_path, record) -> tuple:
    """Per-layer metrics from one traced pass, after one untraced pass that
    is the base of trace.overhead_share."""
    from tracer import Tracer

    untraced = run_pass(workload, ctx, table, inputs)
    tracer = Tracer()
    traced = run_pass(workload, ctx, table, inputs, tracer=tracer)
    metrics = tracer.metrics()
    if workload.shared_table:
        # the shared table is built in set-up; trace one rebuild of it so
        # that tower.build_table_s covers it
        setup_tracer = Tracer()
        with setup_tracer.op(-1):
            workload.setup()
        metrics["tower.build_table_s"] += setup_tracer.inclusive_s["build_table"]
    metrics["trace.overhead_share"] = sum(traced.times) / sum(untraced.times) - 1
    tracer.write_spans(spans_path)
    record["spans"] = str(spans_path.relative_to(HERE.parent))
    record["span_count"] = len(tracer.spans)
    return [untraced, traced], {k: _metric(v, _unit(k)) for k, v in metrics.items()}


def benchmark(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_samples = None if trace else measure_setup(name)
    _use_checkout_qmat()
    from workloads import WORKLOADS, canonical

    workload = WORKLOADS[name]
    ctx, table = workload.setup()
    inputs = workload.generate(ctx, seed)
    inputs_hash = hashlib.sha256(canonical(workload.inputs_json(inputs)).encode()).hexdigest()
    record = environment(name, seed, inputs_hash)
    if not record["comparable"]:
        print(f"benchmark: QMAT_MAX_TERMS={record['max_terms']} is not the default; "
              "this run is not comparable", file=sys.stderr)

    passes = [run_pass(workload, ctx, table, inputs)]  # warm-up
    if trace:
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl.gz"
        measured, metrics = traced_metrics(workload, ctx, table, inputs, spans_path, record)
    else:
        measured, metrics = timed_metrics(
            workload, ctx, table, inputs, seconds, setup_samples, record
        )
    passes.extend(measured)

    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    record["ops_per_pass"] = len(inputs)
    record["failed_share"] = failed / attempted
    record["errors"] = [e for p in passes for e in p.errors][:5]
    print(json.dumps({"record": record}, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_share"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# self-test


def self_test() -> int:
    """Corrupt one coefficient of one output per workload; the run must
    go on and count exactly that op as failed."""
    _use_checkout_qmat()
    from workloads import WORKLOADS

    ok = True
    for name, workload in WORKLOADS.items():
        ctx, table = workload.setup()
        inputs = workload.generate(ctx, 1)[:3]
        clean = run_pass(workload, ctx, table, inputs)
        corrupted = run_pass(workload, ctx, table, inputs, corrupt_at=1)
        passed = clean.failed == 0 and corrupted.failed == 1 and len(corrupted.times) == 3
        ok = ok and passed
        print(f"self-test {name}: clean failed={clean.failed}, "
              f"corrupted failed={corrupted.failed} of {len(corrupted.times)}: "
              f"{'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("hh1", "embed", "pbw", "rebase"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-embed-digests", action="store_true")
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.self_test:
        return self_test()
    if args.record_embed_digests:
        _use_checkout_qmat()
        from workloads import record_embed_digests

        print(f"recorded {record_embed_digests()} embed digests")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
