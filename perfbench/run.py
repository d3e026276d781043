#!/usr/bin/env python3
"""Benchmark of the ``instanceid`` package, one workload per run.

    python3 perfbench/run.py --workload gate-mixed --seed 1 --seconds 10 --trace 0

Workloads: ``gate-mixed``, ``registry-tcp``, ``investigate`` (see their
modules). The package is imported from ``src/`` of the checkout the script
sits in, never from an installed copy.

The run pins itself to one CPU (see ``pin_to_one_cpu``). With
``--trace 0`` it sets up as many times as the workload's ``setup_reps``
(reporting the median set-up time), then measures ``--seconds`` of
operations with no tracing wrapper installed. Timings are adjusted to a
reference host speed (see ``perfbench.common``). With ``--trace 1`` it sets up once, measures half the
time untraced and half traced, and reports per-layer figures plus the
tracing overhead. Every result is checked; a wrong one or an unexpected
error counts as failed. Metrics are printed one per line with units; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Spans of a traced run are written
to ``.perfbench/spans-<workload>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# tail percentile reported; a run needs at least 10 samples beyond it
TAIL = 0.99


def load_package() -> None:
    """Import instanceid from this checkout's src/ or exit non-zero."""
    if not (SRC / "instanceid" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'instanceid'} not found; run from a full checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import instanceid

    if Path(instanceid.__file__).resolve().parent != SRC / "instanceid":
        sys.exit(f"perfbench: imported instanceid from {instanceid.__file__}, not {SRC}")


def pin_to_one_cpu() -> None:
    """Run this process, and the threads it starts later, on one CPU.

    The client and the TCP server threads share one interpreter lock, so
    they never run Python in parallel. Spread over two CPUs, every hand-off
    between them waits for a cross-CPU wake-up whose cost depends on what
    else the host runs; on one CPU the run measures the program instead.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def workloads() -> dict:
    from perfbench.gate_mixed import GateMixed
    from perfbench.investigate import Investigate
    from perfbench.registry_tcp import RegistryTcp

    return {cls.name: cls for cls in (GateMixed, RegistryTcp, Investigate)}


def set_up(cls, seed: int, reps: int):
    """Build the workload ``reps`` times; keep the last. Returns it with the
    set-up times, wall-clock and adjusted to the reference host speed."""
    from perfbench.common import Stopwatch

    times, adjusted = [], []
    workload = None
    for _ in range(reps):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        watch = Stopwatch()
        workload = cls(seed, watch.lap)
        watch.stop()
        times.append(watch.raw)
        adjusted.append(watch.adjusted)
    return workload, times, adjusted


def end_to_end(workload, meter, setup: tuple[list, list]) -> tuple[dict, dict]:
    """(metrics the JSON line carries, further figures printed only).

    Timings in the JSON line are adjusted to the reference host speed
    (see perfbench.common); the unadjusted ones are printed beside them.
    """
    from perfbench.common import REFERENCE_PROBE_S

    rate, p50, p99 = meter.figures(TAIL)
    n = len(meter.samples[workload.latency_kind])
    if n * (1 - TAIL) < 10:
        print(f"perfbench: only {n} latency samples; p99 rests on fewer than 10", file=sys.stderr)
    times, adjusted = setup
    metrics = {
        "ops_per_s": ("1/s", rate),
        "latency_p50_us": ("us", p50),
        "latency_p99_us": ("us", p99),
        "setup_s": ("s", statistics.median(adjusted)),
        "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
    }
    extra = {
        "failed_frac": ("fraction", meter.failed / meter.attempted),
        "latency_samples": ("count", n),
        "ops": ("count", meter.ops),
        "measured_s": ("s", meter.elapsed),
        "host_slowdown": ("x", statistics.median(p for _, p in meter.probes) / REFERENCE_PROBE_S),
        "unadjusted_ops_per_s": ("1/s", meter.ops / meter.elapsed),
        "unadjusted_latency_p50_us": ("us", meter.p(workload.latency_kind, 0.5)[0]),
        "unadjusted_setup_s": ("s", statistics.median(times)),
    }
    for name, (unit, value, count) in workload.details(meter).items():
        extra[name] = (unit, value)
        extra[name + "_samples"] = ("count", count)
    return metrics, extra


def traced_run(workload, seconds: float, seed: int) -> tuple[list, dict]:
    """Half the time untraced, half traced; returns (meters, per-layer
    metrics). The overhead compares host-adjusted rates of the halves."""
    from perfbench import spans
    from perfbench.common import WARMUP_OPS, Meter, drive

    ops = workload.ops()
    plain = Meter(latency_kind=workload.latency_kind)
    drive(ops, workload.step, plain, seconds / 2)
    tracer = spans.Tracer()
    traced = Meter(latency_kind=workload.latency_kind, tracer=tracer)
    tracer.install()
    try:
        drive(ops, workload.step, traced, seconds / 2, on_op=lambda i: setattr(tracer, "op", i))
    finally:
        tracer.uninstall()
    left = spans.installed()
    if left:
        sys.exit(f"perfbench: tracing wrappers left installed: {left}")
    metrics = spans.layer_metrics(tracer.spans, tracer.observed, traced.ops, WARMUP_OPS)
    plain_rate = plain.figures(TAIL)[0]
    traced_rate = traced.figures(TAIL)[0]
    metrics["trace.untraced_ops_per_s"] = ("1/s", plain_rate)
    metrics["trace.traced_ops_per_s"] = ("1/s", traced_rate)
    metrics["trace.overhead_frac"] = ("fraction", 1 - traced_rate / plain_rate)
    metrics["gatekeeper.limiter_keys"] = ("count", workload.limiter_keys())
    metrics["registry.incident_db_size"] = (
        "count",
        sum(len(registry.incidents) for registry in workload.registries()),
    )
    tracer.write(
        Path.cwd() / ".perfbench" / f"spans-{workload.name}.jsonl.gz",
        {"ops": traced.ops, "seed": seed, "workload": workload.name},
    )
    return [plain, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_package()
    pin_to_one_cpu()
    from perfbench import spans
    from perfbench.common import Meter, drive

    known = workloads()
    if args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(known)}")
    cls = known[args.workload]

    if args.trace:
        workload, _, _ = set_up(cls, args.seed, 1)
        try:
            meters, metrics = traced_run(workload, args.seconds, args.seed)
        finally:
            workload.close()
        extra = {}
    else:
        left = spans.installed()
        if left:
            sys.exit(f"perfbench: tracing wrappers installed in an untraced run: {left}")
        workload, *setup = set_up(cls, args.seed, cls.setup_reps)
        meter = Meter(latency_kind=workload.latency_kind)
        try:
            drive(workload.ops(), workload.step, meter, args.seconds)
        finally:
            workload.close()
        meters = [meter]
        metrics, extra = end_to_end(workload, meter, setup)

    attempted = sum(m.attempted for m in meters)
    failed = sum(m.failed for m in meters)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"  attempted {attempted} failed {failed}")
    for name, (unit, value) in {**metrics, **extra}.items():
        print(f"  {name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
