"""Tests of the benchmark itself: span arithmetic, seeded inputs, oracles,
and the install/uninstall of tracing wrappers.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import random
import socket
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import pytest

import instanceid.canonical as canonical
import instanceid.disclosure as disclosure
import instanceid.gatekeeper as gatekeeper
from perfbench import gate_mixed, investigate, registry_tcp, run, spans
from perfbench import common
from perfbench.common import REFERENCE_PROBE_S, WARMUP_OPS, Meter, Stopwatch, drive, lapped

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def as_bytes(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode()


# -- self time ------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_nested_children():
    # root 0..10 with children 1..4 and 3..6 (overlapping), and a grandchild
    spans_ = [
        (0, "root", 0.0, 10.0, None, 1),
        (1, "a", 1.0, 4.0, 0, 1),
        (2, "b", 3.0, 6.0, 0, 1),
        (3, "leaf", 2.0, 3.0, 1, 1),
    ]
    own = spans.self_times(spans_)
    assert own == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}


def test_self_time_counts_a_cross_thread_child_that_outlives_its_parent():
    # a server-thread span opened inside "accept" runs past its end; the time
    # after "accept" closes is still the client request's, not its self time
    spans_ = [
        (0, "request", 0.0, 10.0, None, 1),
        (1, "accept", 1.0, 3.0, 0, 1),
        (2, "handle", 2.0, 7.0, 1, 1),
    ]
    own = spans.self_times(spans_)
    assert own == {0: 4.0, 1: 1.0, 2: 5.0}


def test_layer_metrics_normalise_by_ops_and_skip_warmup_ops():
    handle, request = spans.HANDLE, spans.TCP_REQUEST
    spans_ = [
        (0, request, 0.0, 0.001, None, 0),  # warm-up op, ignored
        (1, request, 1.0, 1.000100, None, 5),
        (2, handle, 1.000020, 1.000050, 1, 5),
        (3, request, 2.0, 2.000100, None, 6),
        (4, handle, 2.000020, 2.000050, 3, 6),
    ]
    out = spans.layer_metrics(spans_, {}, ops=2, first_op=5)
    assert out[f"{request}.calls_per_op"] == ("calls/op", 1.0)
    assert out[f"{request}.self_us_per_op"][1] == pytest.approx(70.0)
    assert out[f"{handle}.self_us_per_op"][1] == pytest.approx(30.0)
    assert out["service.transport_us_per_op"][1] == pytest.approx(70.0)
    assert out["service.connections_per_request"][1] == 0.0


# -- host-adjusted figures ------------------------------------------------------------


def test_figures_adjust_each_interval_by_the_probes_around_it():
    # four ops; the host ran at the reference speed around the first two
    # and at half of it (probes twice as long) around the last two
    meter = Meter()
    for index, spent in enumerate([0.001, 0.001, 0.002, 0.004]):
        meter.samples.setdefault("all", []).append(spent * 1e6)
        meter.per_op.append((spent, 1, index + 1))
    ref = REFERENCE_PROBE_S
    meter.probes = [(0, ref), (2, ref), (4, 2 * ref)]
    rate, p50, top = meter.figures(tail=1.0)
    # the last two intervals count at 2/3: the mean probe around them is 1.5
    assert rate == pytest.approx(4 / (0.002 + 0.006 * 2 / 3))
    assert p50 == pytest.approx((1000 + 2000 * 2 / 3) / 2)
    assert top == pytest.approx(4000 * 2 / 3)


def test_stopwatch_adjusts_each_stretch_of_a_set_up(monkeypatch):
    readings = iter([1.0, 1.0, 3.0] + [3.0] * 100)
    monkeypatch.setattr(common, "probe", lambda: next(readings) * REFERENCE_PROBE_S)
    watch = Stopwatch()
    busy = []
    for _ in lapped(range(2), watch.lap):
        start = perf_counter()
        while perf_counter() - start < 2 * common.PROBE_INTERVAL:
            pass
        busy.append(perf_counter() - start)
    watch.stop()
    # probes 1, 1, 3: the first stretch ran at the reference speed, the
    # second at half of it
    assert watch.raw == pytest.approx(sum(busy), rel=0.01)
    assert watch.adjusted == pytest.approx(busy[0] + busy[1] / 2, rel=0.01)


def test_drive_counts_samples_per_op_and_probes_from_start_to_end():
    meter = Meter(latency_kind="hop")

    def step(op, meter):
        for _ in range(op):
            meter.sample("hop", 0.001)
        return 0.001 * op, op

    drive([3] * 120, step, meter, seconds=1e9)
    assert len(meter.per_op) == 120 - WARMUP_OPS
    assert meter.per_op[-1] == (pytest.approx(0.003), 3, 3 * (120 - WARMUP_OPS))
    assert meter.probes[0][0] == 0
    assert meter.probes[-1][0] == 120 - WARMUP_OPS


# -- seeded inputs -----------------------------------------------------------------


def first(stream, n=2000) -> list:
    return list(itertools.islice(stream, n))


def gate_inputs(seed):
    p = gate_mixed.plan(seed)
    return as_bytes([p, first(gate_mixed.request_stream(p["stream_seed"]))])


def registry_inputs(seed):
    p = registry_tcp.plan(seed)
    rng = random.Random(p["stream_seed"])
    return as_bytes([p, first(registry_tcp.epoch_ops(rng, 0))])


def investigate_inputs(seed):
    p = investigate.plan(seed)
    groups = investigate.leaves_by_class(p["nodes"])
    return as_bytes([p, first(investigate.walk_stream(p["walk_seed"], groups))])


@pytest.mark.parametrize("inputs", [gate_inputs, registry_inputs, investigate_inputs])
def test_same_seed_same_bytes_other_seed_other_bytes(inputs):
    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_investigate_forest_has_the_same_size_for_every_seed():
    shapes = [
        [(n["depth"], n["cross"], n["parent"] is None) for n in investigate.plan(seed)["nodes"]]
        for seed in (1, 2)
    ]
    assert len(shapes[0]) == len(shapes[1])
    assert sorted(shapes[0]) == sorted(shapes[1])
    assert any(cross for _, cross, _ in shapes[0])


def test_investigate_walks_cover_each_depth_class_per_block():
    p = investigate.plan(3)
    groups = investigate.leaves_by_class(p["nodes"])
    leaves = first(investigate.walk_stream(p["walk_seed"], groups), 50)
    depths = [p["nodes"][leaf]["depth"] for leaf in leaves]
    for block in range(0, 50, len(investigate.DEPTHS)):
        assert sorted(depths[block:block + 5]) == list(investigate.DEPTHS)


# -- oracles ---------------------------------------------------------------------------


@pytest.fixture
def gate():
    return gate_mixed.GateMixed(11)


def run_ops(workload, ops) -> Meter:
    meter = Meter()
    drive(ops, workload.step, meter, seconds=1e9)
    return meter


def test_gate_oracle_accepts_every_outcome(gate):
    requests = list(itertools.islice(gate.ops(), 2000))
    outcomes = {expected for _, _, expected in requests}
    assert {gate_mixed.ALLOW, gate_mixed.DENIED_UNVERIFIED, gate_mixed.DENIED_THRESHOLD} <= outcomes
    assert {e[2] for kind, _, e in requests if kind == "noid"} == {True, False}
    meter = run_ops(gate, requests)
    assert (meter.attempted, meter.failed) == (len(requests), 0)


def test_gate_oracle_reports_a_wrong_expected_verdict(gate):
    requests = list(itertools.islice(gate.ops(), 500))
    index = next(i for i, (_, _, e) in enumerate(requests) if e == gate_mixed.ALLOW)
    kind, ctx, _ = requests[index]
    requests[index] = (kind, ctx, gate_mixed.DENIED_THRESHOLD)
    meter = run_ops(gate, requests)
    assert (meter.attempted, meter.failed) == (len(requests), 1)


@pytest.fixture
def small_sizes(monkeypatch):
    monkeypatch.setattr(registry_tcp, "N_INSTANCES", 300)
    monkeypatch.setattr(registry_tcp, "N_INCIDENTS", 300)


@pytest.fixture
def small_registry(small_sizes):
    workload = registry_tcp.RegistryTcp(5)
    yield workload
    workload.close()


def test_registry_oracle_passes_then_catches_a_wrong_tally(small_registry):
    ops = list(itertools.islice(small_registry.ops(), 300))
    assert run_ops(small_registry, ops).failed == 0
    small_registry.tally.instance[0] = small_registry.tally.instance.get(0, 0) + 1
    probe = {"kind": "query-instance", "target": 0}
    assert run_ops(small_registry, [probe]).failed == 1


def test_registry_resets_to_the_preloaded_state_each_epoch(small_sizes, monkeypatch):
    monkeypatch.setattr(registry_tcp, "EPOCH_BLOCKS", 1)
    workload = registry_tcp.RegistryTcp(6)
    try:
        ops = workload.ops()
        assert run_ops(workload, itertools.islice(ops, 250)).failed == 0
        # 2.5 epochs in: the registry holds the preload and half an epoch
        reports, issued = registry_tcp.MIX["report"], registry_tcp.MIX["issue"]
        assert len(workload.registry.incidents) < 300 + reports
        assert len(workload.idents) < 300 + issued
        assert run_ops(workload, itertools.islice(ops, 100)).failed == 0
    finally:
        workload.close()


def test_investigate_oracle_passes_then_catches_a_wrong_root():
    workload = investigate.Investigate(5)
    try:
        leaves = list(itertools.islice(workload.ops(), 40))
        assert run_ops(workload, leaves).failed == 0
        root = workload.root_nodes[workload.plan["nodes"][leaves[0]]["root"]]
        workload.plan["nodes"][root]["user_ref"] = "someone-else"
        assert run_ops(workload, leaves[:1]).failed == 1
    finally:
        workload.close()


# -- tracing wrappers ---------------------------------------------------------------------


def test_wrappers_install_everywhere_keep_results_and_uninstall(gate):
    originals = (canonical.canonical_json_bytes, disclosure.verify_view)
    assert spans.installed() == []
    requests = list(itertools.islice(gate.ops(), 40))
    plain = [
        gatekeeper.evaluate(gate.rules, ctx, gate.trust, gate.client, {})[0]
        for _, ctx, _ in requests
    ]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert len(spans.installed()) >= len(spans.WRAPPED)
        assert gatekeeper.verify_view is disclosure.verify_view is not originals[1]
        traced = [
            gatekeeper.evaluate(gate.rules, ctx, gate.trust, gate.client, {})[0]
            for _, ctx, _ in requests
        ]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert spans.installed() == []
    assert (canonical.canonical_json_bytes, disclosure.verify_view) == originals
    assert gatekeeper.verify_view is originals[1]
    names = {span[1] for span in tracer.spans}
    assert {spans.EVALUATE_ID, "disclosure.verify_view", "canonical.canonical_json_bytes"} <= names


def test_socket_bytes_are_counted_while_installed_only():
    workload = investigate.Investigate(4)
    sendall = socket.socket.sendall
    try:
        leaves = list(itertools.islice(workload.ops(), 3))
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert "socket.socket.sendall" in spans.installed()
            run_ops(workload, leaves)
        finally:
            tracer.uninstall()
        run_ops(workload, leaves)
    finally:
        workload.close()
    assert socket.socket.sendall is sendall
    assert spans.installed() == []
    sent = [n for _, n in tracer.observed[spans.SENT]]
    requests = sum(1 for span in tracer.spans if span[1] == spans.TCP_REQUEST)
    # a request line and a reply line per request, each a JSON object
    assert len(sent) >= 2 * requests > 0
    assert sum(sent) > 2 * requests * len(b'{"body":{}}')


# -- the command ------------------------------------------------------------------------


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_exactly_the_declared_metrics(trace, section, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(investigate.Investigate, "setup_reps", 1)
    args = ["--workload", "investigate", "--seed", "2", "--seconds", "2", "--trace", str(trace)]
    assert run.main(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert (tmp_path / ".perfbench" / "spans-investigate.jsonl.gz").exists() == bool(trace)
