"""Per-layer spans for the traced run.

The layers are the modules of ``instanceid``. ``Tracer.install`` wraps the
public calls listed in WRAPPED: a module-level function is replaced under
every name that refers to it in every ``instanceid`` module (modules import
each other's functions by name), a method or classmethod on its class.
``uninstall`` puts every original back. Wrappers return what the original
returns. The untraced run checks that ``installed()`` is empty.

To count bytes on the wire, ``install`` also wraps the send methods of
``socket.socket`` (SOCKET_SENDS) for the whole process. The TCP client and
servers of a workload run in the benchmark's process, so what its sockets
send is every byte of every request and reply, whatever the wire format.

A span is (id, name, start, end, parent id, op index). Spans of one thread
nest through a thread-local stack. A span opened on a thread with an empty
stack (a server thread) takes as parent the most recently opened span still
open on any thread: the client's request, or the accepting server call that
started the handler thread. Such a child can outlive its parent, so self
time is a span's duration minus the part of it covered by any of its
descendants; for spans nested on one thread this is the time its children
cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import socket
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Optional

# (module, attribute) pairs; "Class.method" names a method.
WRAPPED = (
    ("canonical", "canonical_json_bytes"),
    ("canonical", "load_canonical"),
    ("identity", "digest_form_bytes"),
    ("identity", "canonical_bytes"),
    ("verifiability", "verify_id"),
    ("verifiability", "verify_manifest"),
    ("verifiability", "sign_id"),
    ("verifiability", "SignedId.from_jsonable"),
    ("verifiability", "SignedId.to_jsonable"),
    ("disclosure", "redact"),
    ("disclosure", "verify_view"),
    ("disclosure", "view_signing_bytes"),
    ("disclosure", "DisclosedView.from_jsonable"),
    ("gatekeeper", "evaluate"),
    ("gatekeeper", "rate_limiter_admit"),
    ("registry", "Registry.issue"),
    ("registry", "Registry.report_incident"),
    ("registry", "Registry.query_incidents"),
    ("registry", "Registry.get_id"),
    ("registry", "Registry.get_view"),
    ("registry", "Registry.get_lineage"),
    ("lineage", "LineageStore.nodes"),
    ("lineage", "LineageStore.ancestors"),
    ("service", "TcpClient.request"),
    ("service", "RegistryServer.handle"),
    ("service", "TcpRegistryServer.process_request"),
)

# evaluate is reported per path: with an ID presented, and without
EVALUATE_ID = "gatekeeper.evaluate_id"
EVALUATE_NOID = "gatekeeper.evaluate_noid"
VERIFY_CALLS = ("verifiability.verify_id", "verifiability.verify_manifest", "disclosure.verify_view")
TCP_REQUEST = "service.TcpClient.request"
HANDLE = "service.RegistryServer.handle"
ACCEPT = "service.TcpRegistryServer.process_request"
QUERY = "registry.Registry.query_incidents"
SOCKET_SENDS = ("send", "sendall", "sendmsg")
SENT = "socket.bytes_sent"


def span_names() -> list[str]:
    names = []
    for module, attr in WRAPPED:
        if (module, attr) == ("gatekeeper", "evaluate"):
            names += [EVALUATE_ID, EVALUATE_NOID]
        else:
            names.append(f"{module}.{attr}")
    return names


def _evaluate_name(args, kwargs) -> str:
    ctx = kwargs["ctx"] if "ctx" in kwargs else args[1]
    return EVALUATE_NOID if ctx.presented is None else EVALUATE_ID


def _observe_query(tracer: "Tracer", args, result) -> None:
    tracer.observed[QUERY].append((tracer.op, len(result)))


OBSERVERS = {QUERY: _observe_query}


def _instanceid_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "instanceid" or name.startswith("instanceid."))
    ]


def installed() -> list[str]:
    """Names that currently hold a tracing wrapper."""
    found = [
        f"{module.__name__}.{key}"
        for module in _instanceid_modules()
        for key, value in vars(module).items()
        if hasattr(value, "_perfbench_span")
    ]
    for module_name, attr in WRAPPED:
        owner, _, name = attr.rpartition(".")
        if owner:
            raw = vars(getattr(importlib.import_module(f"instanceid.{module_name}"), owner)).get(name)
            if hasattr(getattr(raw, "__func__", raw), "_perfbench_span"):
                found.append(f"instanceid.{module_name}.{attr}")
    for name in SOCKET_SENDS:
        if hasattr(getattr(socket.socket, name), "_perfbench_span"):
            found.append(f"socket.socket.{name}")
    return sorted(found)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.observed: dict[str, list[tuple[int, int]]] = defaultdict(list)  # (op, value)
        self.op = -1
        self.paused = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._open: list[int] = []  # open span ids, all threads, in opening order
        self._undo: list[Callable[[], None]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list) -> Optional[int]:
        if stack:
            return stack[-1]
        try:
            return self._open[-1]
        except IndexError:
            return None

    def wrap(self, func: Callable, name: str, name_for=None, observe=None) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if tracer.paused:
                return func(*args, **kwargs)
            stack = tracer._stack()
            parent = tracer._parent(stack)
            span_id = next(tracer._ids)
            op = tracer.op
            stack.append(span_id)
            tracer._open.append(span_id)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._open.remove(span_id)
                label = name if name_for is None else name_for(args, kwargs)
                tracer.spans.append((span_id, label, start, end, parent, op))
            if observe is not None:
                observe(tracer, args, result)
            return result

        traced._perfbench_span = name
        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = _instanceid_modules()
        for module_name, attr in WRAPPED:
            module = importlib.import_module(f"instanceid.{module_name}")
            span = f"{module_name}.{attr}"
            name_for = _evaluate_name if attr == "evaluate" else None
            observe = OBSERVERS.get(span)
            owner, _, name = attr.rpartition(".")
            if owner:
                self._wrap_method(getattr(module, owner), name, span, observe)
            else:
                original = getattr(module, name)
                wrapper = self.wrap(original, span, name_for, observe)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._undo.append(functools.partial(setattr, mod, key, original))
        for name in SOCKET_SENDS:
            self._count_sent(name)

    def _count_sent(self, name: str) -> None:
        """Wrap ``socket.socket.<name>`` to record the bytes it sends."""
        tracer = self
        original = getattr(socket.socket, name)

        @functools.wraps(original)
        def counted(sock, data, *args, **kwargs):
            result = original(sock, data, *args, **kwargs)
            if not tracer.paused:
                # sendall returns None having sent everything; send and
                # sendmsg return the count sent
                sent = memoryview(data).nbytes if result is None else result
                tracer.observed[SENT].append((tracer.op, sent))
            return result

        counted._perfbench_span = SENT
        self._replace(socket.socket, name, counted)

    def _wrap_method(self, cls, name: str, span: str, observe) -> None:
        raw = vars(cls).get(name)  # None when inherited
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(raw.__func__, span, observe=observe))
        else:
            replacement = self.wrap(getattr(cls, name), span, observe=observe)
        self._replace(cls, name, replacement)

    def _replace(self, cls, name: str, replacement) -> None:
        raw = vars(cls).get(name)  # None when inherited
        setattr(cls, name, replacement)
        if raw is None:
            self._undo.append(functools.partial(delattr, cls, name))
        else:
            self._undo.append(functools.partial(setattr, cls, name, raw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path: Path, header: dict) -> None:
        """Spans as gzipped JSON lines after one header line; times in µs."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, name, start, end, parent, op in sorted(self.spans):
                out.write(
                    json.dumps([span_id, name, round(start * 1e6, 3), round(end * 1e6, 3), parent, op])
                    + "\n"
                )


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the time its descendant spans cover."""
    parent_of = {span[0]: span[4] for span in spans}
    below: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span_id, _name, start, end, parent, _op in spans:
        while parent is not None:
            below[parent].append((start, end))
            parent = parent_of.get(parent)
    return {
        span_id: (end - start) - covered(start, end, below.get(span_id, ()))
        for span_id, _name, start, end, _parent, _op in spans
    }


def _has_ancestor(span_id: int, target: str, by_id: dict) -> bool:
    parent = by_id[span_id][4]
    while parent is not None and parent in by_id:
        if by_id[parent][1] == target:
            return True
        parent = by_id[parent][4]
    return False


def layer_metrics(spans: list[tuple], observed: dict, ops: int, first_op: int) -> dict:
    """Per-layer figures for the spans of ops numbered ``first_op`` on,
    normalised by ``ops``, the operations timed in that stretch."""
    spans = [s for s in spans if s[5] >= first_op]
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    calls: dict[str, int] = defaultdict(int)
    self_total: dict[str, float] = defaultdict(float)
    duration: dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _parent, _op in spans:
        calls[name] += 1
        self_total[name] += own[span_id]
        duration[name] += end - start
    out: dict[str, tuple[str, float]] = {}
    for name in span_names():
        out[f"{name}.calls_per_op"] = ("calls/op", calls[name] / ops)
        out[f"{name}.self_us_per_op"] = ("us/op", self_total[name] * 1e6 / ops)
    id_decisions = calls[EVALUATE_ID]
    verify_in_gate = sum(
        1 for s in spans if s[1] in VERIFY_CALLS and _has_ancestor(s[0], EVALUATE_ID, by_id)
    )
    out["gatekeeper.verify_calls_per_decision"] = (
        "calls/decision",
        verify_in_gate / id_decisions if id_decisions else 0.0,
    )
    handled_over_tcp = sum(
        s[3] - s[2] for s in spans if s[1] == HANDLE and _has_ancestor(s[0], TCP_REQUEST, by_id)
    )
    requests = calls[TCP_REQUEST]
    out["service.transport_us_per_op"] = (
        "us/op",
        (duration[TCP_REQUEST] - handled_over_tcp) * 1e6 / ops,
    )
    out["service.connections_per_request"] = (
        "conn/request",
        calls[ACCEPT] / requests if requests else 0.0,
    )
    sent = _values(observed.get(SENT, []), first_op)
    out["service.bytes_per_request"] = ("bytes", sum(sent) / requests if requests else 0.0)
    results = _values(observed.get(QUERY, []), first_op)
    out["registry.results_per_query"] = (
        "reports/query",
        sum(results) / len(results) if results else 0.0,
    )
    return out


def _values(pairs: list[tuple[int, int]], first_op: int) -> list[int]:
    return [value for op, value in pairs if op >= first_op]
