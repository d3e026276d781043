"""Shared pieces of the workloads: timing loop, statistics, seeded keys.

Every workload is a closed loop with one client: the next operation starts
only after the previous one returned and its result was checked.

Other tenants of the host slow this process, at times to half its speed,
for a fraction of a second to minutes, and sometimes for all of a run. A
fixed piece of work, the probe, reads how fast the host runs this process
at the moment:
``drive`` times it when timing starts, after an operation whenever
PROBE_INTERVAL has passed since the last probe, and when timing ends. Every
timed interval is then adjusted to the reference host speed: multiplied by
REFERENCE_PROBE_S over the mean of the two probes around it
(``Meter.figures``). A host that runs this process at half speed doubles
both the interval and the probe, and the ratio stays. All figures cover the
whole timed run.

The probe is JSON encoding and decoding of a fixed document: C-level work
of the kind the program does, which slows under contention more than a
pure-Python loop and tracked the program's slow-downs better in trials. It
counts its own thread's CPU time with garbage collection off, so neither
the program's other threads, other processes on the CPU, nor the program's
heap can slow it: a program that keeps the CPU busy beside its operations
pays for that in full.
"""

from __future__ import annotations

import gc
import json
import math
import random
import statistics
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter, thread_time
from typing import Callable, Iterable, Optional

from instanceid import KeyPair

# Timestamps handed to the program; any fixed value inside the retention
# horizons works, the clocks are logical.
EPOCH = 1_700_000_000

# Operations run (and checked) before timing starts, so that first-call
# costs such as lazy imports do not land in the tail percentiles. A
# multiple of every workload's mix block, so timing starts on a block.
WARMUP_OPS = 100

# the probe's document (about 2 KB of JSON) and round trips, and about the
# thread CPU seconds they take when the host is undisturbed (a 2-vCPU Intel
# Xeon virtual machine, Python 3.11); adjusted figures are stated at that
# speed
PROBE_DOC = {f"k{i}": {"a": i, "b": "x" * 20, "c": [i, i + 1]} for i in range(40)}
PROBE_ROUNDS = 10
REFERENCE_PROBE_S = 0.0009
# seconds of wall time after which drive probes again
PROBE_INTERVAL = 0.05

# Tracebacks printed per run; later failures are only counted.
MAX_REPORTED_ERRORS = 5


def seeded_keypair(rng: random.Random, author_id: str) -> KeyPair:
    return KeyPair.generate(author_id, "k1", seed=rng.randbytes(32))


def probe() -> float:
    """Thread CPU seconds PROBE_ROUNDS JSON round trips of PROBE_DOC take:
    how fast the host runs this process right now, independent of the
    program."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = thread_time()
        for _ in range(PROBE_ROUNDS):
            json.loads(json.dumps(PROBE_DOC, sort_keys=True))
        return thread_time() - start
    finally:
        if enabled:
            gc.enable()


def no_lap() -> None:
    pass


def lapped(items: Iterable, lap: Callable[[], None]):
    """Yield the items, calling ``lap`` after each: set-up loops use it to
    let a ``Stopwatch`` probe the host between their steps."""
    for item in items:
        yield item
        lap()


class Stopwatch:
    """Wall time of a set-up, raw and adjusted to the reference host speed.

    The set-up calls ``lap`` between its steps; whenever PROBE_INTERVAL has
    passed, the stretch since the last probe is closed with a new probe and
    adjusted by the mean of the probes around it. ``stop`` closes the last
    stretch. Probe time counts in neither figure.
    """

    def __init__(self):
        self.raw = self.adjusted = 0.0
        self._probe = probe()
        self._start = perf_counter()

    def lap(self) -> None:
        if perf_counter() - self._start > PROBE_INTERVAL:
            self.stop()

    def stop(self) -> None:
        spent = perf_counter() - self._start
        after = probe()
        self.raw += spent
        self.adjusted += spent * 2 * REFERENCE_PROBE_S / (self._probe + after)
        self._probe = after
        self._start = perf_counter()


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in (0, 1])."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class Meter:
    """Counts attempts and failures and keeps latency samples (µs) per kind.

    ``elapsed`` sums the timed stretches only; it excludes input building
    and result checking done between operations, the probes, and the
    warm-up.
    """

    attempted: int = 0
    failed: int = 0
    ops: int = 0
    elapsed: float = 0.0
    recording: bool = False
    samples: dict[str, list[float]] = field(default_factory=dict)
    latency_kind: str = "all"
    # per timed op: (seconds, ops, latency_kind samples recorded so far)
    per_op: list[tuple[float, int, int]] = field(default_factory=list)
    # (timed ops done before the probe, seconds the probe took)
    probes: list[tuple[int, float]] = field(default_factory=list)
    tracer: Optional[object] = None  # a spans.Tracer while tracing

    @contextmanager
    def untraced(self):
        """Keep the benchmark's own calls into the program (input building,
        result checks) out of the trace."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    def sample(self, kind: str, seconds: float) -> None:
        if self.recording:
            self.samples.setdefault(kind, []).append(seconds * 1e6)

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_ERRORS:
            print(f"perfbench: wrong result: {what}", file=sys.stderr)

    def error(self) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_ERRORS:
            traceback.print_exc(file=sys.stderr)

    def p(self, kind: str, q: float) -> tuple[float, int]:
        """(percentile, sample count) of one kind."""
        values = sorted(self.samples.get(kind, ()))
        return percentile(values, q), len(values)

    def figures(self, tail: float) -> tuple[float, float, float]:
        """Host-adjusted (ops per second, median latency, ``tail``
        percentile latency) over the timed run; latencies of
        ``latency_kind``."""
        if len(self.probes) < 2:
            raise ValueError("no timed operations")
        latencies = self.samples[self.latency_kind]
        ops = seconds = 0.0
        adjusted = []
        for (start, before), (end, after) in zip(self.probes, self.probes[1:]):
            scale = REFERENCE_PROBE_S * 2 / (before + after)
            part = self.per_op[start:end]
            ops += sum(p[1] for p in part)
            seconds += sum(p[0] for p in part) * scale
            first = self.per_op[start - 1][2] if start else 0
            adjusted += [x * scale for x in latencies[first:part[-1][2]]]
        adjusted.sort()
        return ops / seconds, statistics.median(adjusted), percentile(adjusted, tail)


Step = Callable[[object, Meter], tuple[float, int]]


def drive(
    ops: Iterable,
    step: Step,
    meter: Meter,
    seconds: float,
    on_op: Optional[Callable[[int], None]] = None,
) -> None:
    """Run ``step`` on each op until the timed total reaches ``seconds``.

    ``ops`` may be endless. ``step`` times its own calls into the program,
    records samples, checks the results, and returns (seconds spent in the
    program, operations done). The first WARMUP_OPS ops are checked but
    not timed. ``on_op`` gets each op's index before the op runs. The host
    is probed as the module describes.
    """
    ops = iter(ops)
    index = 0
    probed_at = 0.0

    def take_probe():
        nonlocal probed_at
        meter.probes.append((len(meter.per_op), probe()))
        probed_at = perf_counter()

    while meter.elapsed < seconds:
        with meter.untraced():
            op = next(ops, None)
        if op is None:
            break
        meter.recording = index >= WARMUP_OPS
        if index == WARMUP_OPS:
            take_probe()
        if on_op is not None:
            on_op(index)
        index += 1
        meter.attempted += 1
        try:
            spent, count = step(op, meter)
        except Exception:  # an unexpected error is one failed operation
            meter.error()
            continue
        if meter.recording:
            meter.elapsed += spent
            meter.ops += count
            recorded = len(meter.samples.get(meter.latency_kind, ()))
            meter.per_op.append((spent, count, recorded))
            if perf_counter() - probed_at > PROBE_INTERVAL:
                take_probe()
    if meter.probes and meter.probes[-1][0] < len(meter.per_op):
        take_probe()
