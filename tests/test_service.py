"""Endpoint dispatch over both transports, error mapping, config loading."""

import gc
import random
import socket
import sys
import threading
import time
import weakref
from collections import Counter, OrderedDict
from contextlib import ExitStack
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instanceid.incidents
import instanceid.service
from instanceid import (
    Attribute,
    AttributeCategory,
    AttributeMatcher,
    AttributeSpecificity,
    Created,
    DisclosurePolicy,
    FineTuned,
    IncidentReport,
    IncidentScope,
    InProcessClient,
    PartyClass,
    Regenerated,
    Registry,
    RegistryServer,
    RetentionConfig,
    Severity,
    SignedId,
    SimClock,
    TcpClient,
    TcpRegistryServer,
    TimeWindow,
    parse_identifier,
    redact,
    verify_view,
)
from instanceid.canonical import canonical_json_bytes, canonical_json_line, load_canonical
from instanceid.errors import MalformedRecord, NotFound, RegistryUnavailable, UnknownIdentifier
from instanceid.lineage import event_to_jsonable
from instanceid.service import ServiceConfig, load_keypair_file, save_keypair_file

from helpers import (
    MALFORMED_REPORT_FIELDS, Text, brute_force_incident_filter, fixed_keypair, report_row,
    trust_for,
)


UNKNOWN = parse_identifier("sys-a:ghost0")  # an identifier no registry here issues


def _registry(author="acme", key_id="k1"):
    registry = Registry(author, clock=SimClock(10_000), rng=random.Random(1))
    registry.install_key(fixed_keypair(author, key_id))
    return registry


@pytest.fixture
def served():
    registry = _registry()
    clock = registry.clock
    server = RegistryServer(registry)
    tcp = TcpRegistryServer(server).start()
    yield registry, server, tcp, clock
    tcp.stop()


@pytest.fixture
def clients(served):
    """An in-process and a TCP client of the served registry."""
    _, server, tcp, _ = served
    with TcpClient(*tcp.address) as remote:
        yield InProcessClient(server), remote


def test_issue_and_get_id_roundtrip_both_transports(clients):
    for client in clients:
        signed = client.issue(Created("sys-a", "user-1"), nonce=f"n-{id(client)}")
        fetched = client.get_id(signed.doc.identifier)
        assert canonical_json_bytes(fetched.to_jsonable()) == \
            canonical_json_bytes(signed.to_jsonable())


def test_transports_return_identical_bodies(served, clients):
    registry, server, tcp, _ = served
    signed = registry.issue(Created("sys-a", "u"))
    inproc, remote = clients
    request = {"identifier": str(signed.doc.identifier)}
    assert inproc.request("get-id", request) == remote.request("get-id", request)
    assert inproc.request("keys", {"op": "list"}) == remote.request("keys", {"op": "list"})


def test_every_endpoint_replies_the_same_bytes_on_both_transports():
    """Twin registries, one answering through ``RegistryServer.handle`` and
    one through a ``TcpRegistryServer`` over a raw socket, give each request
    line, accepted or refused, the same reply line."""
    local, remote = RegistryServer(_registry()), RegistryServer(_registry())
    tcp = TcpRegistryServer(remote).start()
    outcomes = []
    try:
        with socket.create_connection(tcp.address, timeout=5) as conn, \
                conn.makefile("rb") as replies:
            def send(endpoint, body):
                line = canonical_json_line({"body": body, "endpoint": endpoint})
                reply = local.handle(line)
                conn.sendall(line)
                assert replies.readline() == reply, line
                reply = load_canonical(reply)
                outcomes.append((endpoint, reply.get("error", "ok")))
                return reply.get("body")

            created = send("issue", {"event": event_to_jsonable(Created("sys-a", "u")),
                                     "nonce": "n1"})
            text = created["signed"]["doc"]["identifier"]
            root = parse_identifier(text)
            send("issue", {"event": event_to_jsonable(Regenerated(root))})
            send("issue", {"event": event_to_jsonable(Regenerated(UNKNOWN))})
            send("issue", {"event": 5})
            report = IncidentReport("r1", root, "service.x", Severity.MAJOR, "spam", 9_999)
            send("report-incident", {"report": report.to_jsonable()})
            send("report-incident", {"report": report.to_jsonable()})
            send("report-incident", {"report": {}})
            window = TimeWindow().to_jsonable()
            send("query-incidents", {"scope": IncidentScope.system("sys-a").to_jsonable(),
                                     "window": window})
            send("query-incidents", {"scope": 5, "window": window})
            for party in (None, PartyClass.REGULATOR.value, PartyClass.REGULATOR.value):
                send("get-id", {"identifier": text, "party": party})
            send("get-id", {"identifier": str(UNKNOWN)})
            send("get-id", {"identifier": "no-colon"})
            send("get-lineage", {"direction": "descendants", "identifier": text})
            send("get-lineage", {"direction": "ancestors", "identifier": str(UNKNOWN)})
            send("keys", {"op": "list"})
            send("keys", {"op": "drop"})
            send("notify", {"payload": {"identifier": text, "reason": "x"}})
            send("notify", {"payload": {"identifier": str(UNKNOWN), "reason": "x"}})
            send("notify", {})
            send("no-such-endpoint", {})
        assert local.registry.log_lines() == remote.registry.log_lines()
        assert local.registry.inbox == remote.registry.inbox
    finally:
        tcp.stop()
    assert outcomes == [
        ("issue", "ok"), ("issue", "ok"), ("issue", "UnknownParent"),
        ("issue", "MalformedRecord"),
        ("report-incident", "ok"), ("report-incident", "DuplicateReportId"),
        ("report-incident", "MalformedRecord"),
        ("query-incidents", "ok"), ("query-incidents", "MalformedRecord"),
        ("get-id", "ok"), ("get-id", "ok"), ("get-id", "ok"), ("get-id", "NotFound"),
        ("get-id", "MalformedRecord"),
        ("get-lineage", "ok"), ("get-lineage", "UnknownIdentifier"),
        ("keys", "ok"), ("keys", "MalformedRecord"),
        ("notify", "ok"), ("notify", "UnknownIdentifier"), ("notify", "MalformedRecord"),
        ("no-such-endpoint", "MalformedRecord"),
    ]


def test_incident_endpoints(served, clients):
    registry, server, tcp, clock = served
    client = clients[1]
    signed = client.issue(Created("sys-a", "u"))
    report = IncidentReport("r1", signed.doc.identifier, "service.x",
                            Severity.MAJOR, "spam", clock.now())
    client.report_incident(report)
    got = client.query_incidents(IncidentScope.system("sys-a"))
    assert [r.report_id for r in got] == ["r1"]


def test_tcp_query_incidents_decodes_the_reports_the_registry_holds(served, clients):
    registry = served[0]
    identifiers = [registry.issue(Created("sys-a", f"u{n}")).doc.identifier for n in range(5)]
    severities = list(Severity)
    for n in range(60):
        registry.report_incident(IncidentReport(
            f"r{n}", identifiers[n % 5], f"service.p{n % 3}", severities[n % 4], f"d{n}",
            9_000 + n % 17, None if n % 2 else f"user-{n % 7}",
        ))
    scope = IncidentScope.system("sys-a")
    held = sorted(registry.incidents, key=lambda report: (report.occurred_at, report.report_id))
    assert len(held) == 60 and registry.query_incidents(scope) == held
    for client in clients:
        got = client.query_incidents(scope)
        assert got == held
        assert all(type(item) is IncidentReport for item in got)
        assert [canonical_json_bytes(item.to_jsonable()) for item in got] == \
            [canonical_json_bytes(report.to_jsonable()) for report in held]


class _Recording(RegistryServer):
    """Keeps every reply line it returns."""

    def __init__(self, registry):
        super().__init__(registry)
        self.lines = []

    def handle(self, line):
        reply = super().handle(line)
        self.lines.append(reply)
        return reply


# non-ASCII, a quote, a backslash, a newline and control characters
AWKWARD_TEXT = 'caf\u00e9 "quoted" back\\slash\nnext\x01\x1f \u2713'


def test_query_incidents_reply_and_incident_log_lines_are_canonical_bytes():
    registry = _registry()
    server = _Recording(registry)
    identifier = registry.issue(Created("sys-a", "u")).doc.identifier
    reports = [
        IncidentReport("r1", identifier, "service.x", Severity.MAJOR, AWKWARD_TEXT, 9_000),
        IncidentReport("r2", identifier, "auditor.y", Severity.INFO, "plain", 9_001, AWKWARD_TEXT),
        IncidentReport("r3", identifier, "service.x", Severity.MINOR, "", 9_002, ""),
    ]
    inproc = InProcessClient(server)
    tcp = TcpRegistryServer(server).start()
    try:
        with TcpClient(*tcp.address) as remote:
            inproc.report_incident(reports[0])
            remote.report_incident(reports[1])
        registry.report_incident(reports[2])
        for system_id, expected in (("sys-a", reports), ("other", [])):
            body = {"scope": IncidentScope.system(system_id).to_jsonable(),
                    "window": TimeWindow().to_jsonable()}
            table = [field for report in expected for field in report_row(report)]
            line = canonical_json_line({"body": {"reports": table}, "ok": True})
            inproc.request("query-incidents", body)
            assert server.lines[-1] == line
            with socket.create_connection(tcp.address, timeout=5) as conn, \
                    conn.makefile("rb") as replies:
                conn.sendall(canonical_json_line({"body": body, "endpoint": "query-incidents"}))
                assert replies.readline() == line
    finally:
        tcp.stop()
    logged = [
        line for line in registry.log_lines().splitlines(keepends=True)
        if load_canonical(line)["kind"] == "incident"
    ]
    assert logged == [
        canonical_json_line(
            {"at": registry.clock.now(), "kind": "incident", "report": report.to_jsonable()}
        )
        for report in reports
    ]


def test_replayed_reports_are_served_without_encoding_them_again(monkeypatch):
    registry = _registry()
    identifier = registry.issue(Created("sys-a", "u")).doc.identifier
    for index in range(5):
        registry.report_incident(
            IncidentReport(f"r{index}", identifier, "service.x", Severity.MINOR, "x", 9_000)
        )
    server = RegistryServer(Registry.replay(registry.log_lines(), "acme", clock=registry.clock))
    encoded = Counter()
    encode = instanceid.incidents.canonical_json_bytes

    def counting(value):
        encoded["calls"] += 1
        return encode(value)

    monkeypatch.setattr(instanceid.incidents, "canonical_json_bytes", counting)
    reply = server.handle(canonical_json_line(
        {"body": {"scope": IncidentScope.instance(identifier).to_jsonable()},
         "endpoint": "query-incidents"}
    ))
    table = load_canonical(reply)["body"]["reports"]
    assert (len(table) // 7, len(table) % 7) == (5, 0)
    assert encoded["calls"] == 0


def _as_json_types(reports):
    """Each report's type and its fields' types, a str subclass read as
    ``str``, which is all JSON gives back."""
    return [
        (type(report), [str if isinstance(field, str) else type(field) for field in report])
        for report in reports
    ]


_AWKWARD = st.text(max_size=12) | st.just(AWKWARD_TEXT)
# description, reporter name, severity, time, user_ref, str subclass?, writer
_WRITTEN_REPORTS = st.lists(
    st.tuples(_AWKWARD, _AWKWARD, st.sampled_from(Severity), st.integers(0, 10_000),
              st.none() | _AWKWARD, st.booleans(),
              st.sampled_from(["registry", "in-process", "tcp"])),
    max_size=6,
)


def test_written_reports_come_back_from_a_table_as_the_registry_holds_them():
    """Reports written through the registry or either client come back from
    ``query_incidents`` on both transports equal to the registry's, field
    types included, and each report's row is its fields' canonical JSON."""
    registry = _registry()
    server = RegistryServer(registry)
    tcp = TcpRegistryServer(server).start()
    systems = count()
    try:
        with TcpClient(*tcp.address) as remote:
            clients = {"in-process": InProcessClient(server), "tcp": remote}

            @given(written=_WRITTEN_REPORTS)
            @settings(max_examples=100, deadline=None)
            def check(written):
                system = next(systems)
                identifier = registry.issue(Created(f"sys-{system}", "u")).doc.identifier
                for n, (description, name, severity, at, user_ref, subclassed, writer) in \
                        enumerate(written):
                    text = Text if subclassed else str
                    report = IncidentReport(
                        text(f"r{system}-{n}"), identifier, text(f"service.{name}"), severity,
                        text(description), at, None if user_ref is None else text(user_ref),
                    )
                    if writer == "registry":
                        registry.report_incident(report)
                    else:
                        clients[writer].report_incident(report)
                scope = IncidentScope.instance(identifier)
                held = sorted((report for report in registry.incidents
                               if report.identifier == identifier),
                              key=lambda report: (report.occurred_at, report.report_id))
                assert len(held) == len(written)
                assert registry.query_incidents(scope) == held
                assert registry.incident_rows(scope) == b",".join(
                    canonical_json_bytes(report_row(report))[1:-1] for report in held)
                for client in clients.values():
                    got = client.query_incidents(scope)
                    assert got == held
                    assert _as_json_types(got) == _as_json_types(held)

            check()
    finally:
        tcp.stop()


# systems a, ab and b: the systems prefixes match every system, several, one
# and none; few distinct times, so reports tie on occurred_at
_TABLE_SYSTEMS = ("a", "ab", "b")
_TABLE_NOW, _TABLE_RETENTION = 10_000, 50
_TABLE_TIMES = st.sampled_from(range(_TABLE_NOW - 60, _TABLE_NOW + 1, 5))
_TABLE_REPORTS = st.lists(
    st.tuples(st.sampled_from(range(4)), _TABLE_TIMES,
              st.sampled_from(["service.x", "service.y", "auditor.z", "user.w"]),
              st.sampled_from([None, "u1", "u2"]), _AWKWARD),
    max_size=12,
)
_TABLE_WINDOWS = st.lists(
    st.builds(TimeWindow, st.none() | _TABLE_TIMES, st.none() | _TABLE_TIMES), max_size=3,
).map(lambda windows: [TimeWindow()] + windows)


def test_a_served_table_is_the_rows_of_query_incidents_in_its_order():
    """Every scope kind and window, on a live registry and its replay, on
    both transports: ``query_incidents`` gives the reports a linear filter
    of the written reports picks, and the reply line is their rows, joined
    with commas in that order."""
    holder = RegistryServer(_registry())  # serves each example's registry in turn
    tcp = TcpRegistryServer(holder).start()
    try:
        with socket.create_connection(tcp.address, timeout=5) as conn, \
                conn.makefile("rb") as replies:

            @given(written=_TABLE_REPORTS, windows=_TABLE_WINDOWS)
            @settings(max_examples=60, deadline=None)
            def check(written, windows):
                retention = RetentionConfig(incidents=_TABLE_RETENTION)
                live = Registry("acme", clock=SimClock(_TABLE_NOW), rng=random.Random(1),
                                retention=retention)
                live.install_key(fixed_keypair())
                identifiers = [live.issue(Created(system, "u")).doc.identifier
                               for system in _TABLE_SYSTEMS + ("a",)]
                reports = [
                    IncidentReport(f"r{n % 3}-{n}", identifiers[target], reporter,
                                   Severity.MINOR, description, at, user_ref)
                    for n, (target, at, reporter, user_ref, description) in enumerate(written)
                ]
                for report in reports:
                    live.report_incident(report)
                horizon = _TABLE_NOW - _TABLE_RETENTION
                replayed = Registry.replay(live.log_lines(), "acme", clock=live.clock,
                                           retention=retention)
                scopes = [IncidentScope.instance(identifier) for identifier in identifiers]
                scopes += [IncidentScope.user(user) for user in ("u1", "u2", "nobody")]
                scopes += [IncidentScope.system(system) for system in _TABLE_SYSTEMS + ("c",)]
                scopes += [IncidentScope.systems(prefix) for prefix in ("", "a", "ab", "c")]
                scopes += [IncidentScope.party_class(party)
                           for party in ("service", "auditor", "user", "nobody")]
                for registry in (live, replayed):
                    holder.registry = registry
                    for scope in scopes:
                        for window in windows:
                            picked = brute_force_incident_filter(reports, scope, window, horizon)
                            assert registry.query_incidents(scope, window) == picked
                            rows = b",".join(
                                canonical_json_bytes(report_row(report))[1:-1]
                                for report in picked)
                            assert registry.incident_rows(scope, window) == rows
                            expected = b'{"body":{"reports":[' + rows + b']},"ok":true}\n'
                            line = canonical_json_line({
                                "body": {"scope": scope.to_jsonable(),
                                         "window": window.to_jsonable()},
                                "endpoint": "query-incidents"})
                            assert holder.handle(line) == expected
                            conn.sendall(line)
                            assert replies.readline() == expected

            check()
    finally:
        tcp.stop()


class _YieldingLock:
    """A lock whose holder, once it has released it, pauses before going on,
    so that a thread waiting for it runs first."""

    def __init__(self):
        self._lock = threading.Lock()

    def __enter__(self):
        self._lock.acquire()

    def __exit__(self, *exc_info):
        self._lock.release()
        time.sleep(1e-4)


def test_every_reply_during_writes_lies_between_the_database_before_and_after():
    """While one thread reports incidents, TCP readers query the scopes the
    writes land in. Each reply decodes, is ordered by (occurred_at,
    report_id) with no id twice, and holds every report in the scope before
    the writes and only reports in it after them. A reply sliced from the
    index after the registry lock is released can shift by an insert and
    drop a report or take one from outside the window; the registry's lock
    pauses its holder after each release, so that such an insert happens."""
    registry = _registry()
    registry._lock = _YieldingLock()
    tcp = TcpRegistryServer(RegistryServer(registry)).start()
    identifiers = [registry.issue(Created(system, "u")).doc.identifier
                   for system in ("sys-a", "sys-a", "sys-b")]
    now = registry.clock.now()
    rng = random.Random(7)

    def report(report_id, n):
        return IncidentReport(report_id, identifiers[n % 3], "service.x", Severity.MINOR,
                              "load", now - rng.randrange(1000))

    for n in range(150):
        registry.report_incident(report(f"pre-{n}", n))
    writes = [report(f"w-{n}", n) for n in range(600)]
    window = TimeWindow(now - 800, now - 200)
    scopes = [IncidentScope.party_class("service"), IncidentScope.system("sys-a"),
              IncidentScope.systems("sys-")]

    def ids(scope):
        return {r.report_id for r in registry.query_incidents(scope, window)}

    before = {scope: ids(scope) for scope in scopes}
    done = threading.Event()
    replies = []
    problems = []

    def write():
        try:
            with TcpClient(*tcp.address) as client:
                for item in writes:
                    client.report_incident(item)
        except Exception as exc:  # recorded for the main thread to report
            problems.append(repr(exc))
        finally:
            done.set()

    def read():
        try:
            with TcpClient(*tcp.address) as client:
                while not done.is_set():
                    for scope in scopes:
                        replies.append((scope, client.query_incidents(scope, window)))
        except Exception as exc:  # recorded for the main thread to report
            problems.append(repr(exc))

    threads = [threading.Thread(target=write)]
    threads += [threading.Thread(target=read) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        tcp.stop()
    assert not any(thread.is_alive() for thread in threads)
    assert problems == []
    after = {scope: ids(scope) for scope in scopes}
    assert len(replies) > 100
    for scope, got in replies:
        keys = [(r.occurred_at, r.report_id) for r in got]
        assert keys == sorted(keys), scope
        got_ids = [r.report_id for r in got]
        assert len(set(got_ids)) == len(got_ids), scope
        assert before[scope] <= set(got_ids) <= after[scope], scope
        assert len(before[scope]) <= len(got) <= len(after[scope])


@pytest.mark.parametrize("field, value", MALFORMED_REPORT_FIELDS)
def test_report_incident_rejects_malformed_fields(served, clients, field, value):
    registry, server, tcp, clock = served
    signed = registry.issue(Created("sys-a", "u"))
    body = IncidentReport("r1", signed.doc.identifier, "service.x",
                          Severity.MAJOR, "spam", clock.now()).to_jsonable()
    body[field] = value
    for client in clients:
        with pytest.raises(MalformedRecord):
            client._roundtrip("report-incident", {"report": body})
        assert client.query_incidents(IncidentScope.system("sys-a")) == []
    assert registry.incidents == []


@pytest.mark.parametrize(
    "body",
    [
        {"scope": {"kind": "system", "value": "sys-a"}, "window": {"start": "x"}},
        {"scope": {"kind": "system", "value": "sys-a"}, "window": {"end": [1]}},
        {"scope": {"kind": "system", "value": "sys-a"}, "window": {"start": True}},
        {"scope": {"kind": "system", "value": "sys-a"}, "window": ["x"]},
        {"scope": {"kind": "system", "value": 5}, "window": None},
        {"scope": {"kind": "instance-class", "value": "x"}, "window": None},
    ],
)
def test_query_incidents_rejects_malformed_scope_and_window(served, clients, body):
    registry, server, tcp, clock = served
    signed = registry.issue(Created("sys-a", "u"))
    registry.report_incident(IncidentReport("r1", signed.doc.identifier, "service.x",
                                            Severity.MAJOR, "spam", clock.now()))
    for client in clients:
        with pytest.raises(MalformedRecord):
            client._roundtrip("query-incidents", body)
        assert len(client.query_incidents(IncidentScope.system("sys-a"))) == 1


def test_concurrent_reports_and_queries_over_tcp(served):
    registry, server, tcp, clock = served
    identifiers = [
        registry.issue(Created(system, "u")).doc.identifier
        for system in ("sys-a", "sys-a", "sys-b", "sys-c")
    ]
    host, port = tcp.address
    base = clock.now()
    window = TimeWindow(base - 600, base - 300)
    writes = 40
    tally = Counter()
    plans = []
    for writer in range(3):
        plan = []
        for n in range(writes):
            identifier = identifiers[(writer + n) % len(identifiers)]
            # spread timestamps so inserts land all over each sorted list
            occurred = base - (writer * 7 + n * 131) % 1000
            plan.append(IncidentReport(f"w{writer}-{n}", identifier, "service.x",
                                       Severity.MINOR, "load", occurred))
            tally[identifier] += 1
        plans.append(plan)
    problems = []

    def write(plan):
        try:
            with TcpClient(host, port) as client:
                for report in plan:
                    client.report_incident(report)
        except Exception as exc:  # recorded for the main thread to report
            problems.append(repr(exc))

    def read(offset):
        try:
            with TcpClient(host, port) as client:
                for n in range(writes):
                    identifier = identifiers[(offset + n) % len(identifiers)]
                    for scope, in_scope in (
                        (IncidentScope.instance(identifier), lambda r: r.identifier == identifier),
                        (IncidentScope.systems("sys-a"),
                         lambda r: r.identifier.system_id == "sys-a"),
                    ):
                        got = client.query_incidents(scope, window)
                        keys = [(r.occurred_at, r.report_id) for r in got]
                        if keys != sorted(set(keys)):
                            problems.append(f"unordered or repeated: {scope}")
                        for report in got:
                            if not (in_scope(report)
                                    and window.start <= report.occurred_at <= window.end):
                                problems.append(f"{report.report_id} outside {scope}")
        except Exception as exc:  # recorded for the main thread to report
            problems.append(repr(exc))

    threads = [threading.Thread(target=write, args=(plan,)) for plan in plans]
    threads += [threading.Thread(target=read, args=(offset,)) for offset in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert problems == []
    with TcpClient(host, port) as client:
        for identifier in identifiers:
            assert len(client.query_incidents(IncidentScope.instance(identifier))) == tally[identifier]
        assert len(client.query_incidents(IncidentScope.systems("sys"))) == 3 * writes


def test_lineage_endpoint(clients):
    client = clients[0]
    root = client.issue(Created("sys-a", "u")).doc.identifier
    child = client.issue(Regenerated(root)).doc.identifier
    assert client.get_lineage(child, "ancestors") == [(root, False)]
    assert client.get_lineage(root, "descendants") == [(child, False)]


def test_get_view_endpoint_redacts(served, clients):
    registry, server, tcp, clock = served
    client = clients[1]
    signed = client.issue(Created("sys-a", "secret-user"))
    view = client.get_view(signed.doc.identifier, PartyClass.SERVICE_PROVIDER)
    assert "user-ref" in [e.name for e in view.hidden]
    trust = trust_for(fixed_keypair("acme", "k1"))
    assert verify_view(view, trust, clock.now()).ok


# -- the view memo ---------------------------------------------------------------------


# under the default policy operational parties see the card and the
# certificate, auditors and regulators everything, the public nothing
CARD_ATTRIBUTES = (
    Attribute.linked("system-card", "https://x/card", AttributeCategory.PROPERTY,
                     AttributeSpecificity.SYSTEM),
    Attribute.inline_bytes("cert:eval", b"passed", AttributeCategory.PROPERTY,
                           AttributeSpecificity.SYSTEM),
    Attribute.inline_bytes("system-prompt", b"secret sauce", AttributeCategory.CONTEXT,
                           AttributeSpecificity.INSTANCE),
)


def _view_request(identifier, party) -> bytes:
    return canonical_json_line(
        {"body": {"identifier": str(identifier), "party": party.value}, "endpoint": "get-id"}
    )


def _fresh_view_line(registry, identifier, party) -> bytes:
    """The ``get-id`` reply line a redaction made now gives."""
    view = redact(registry.get_id(identifier), registry.disclosure_policy, party)
    return canonical_json_line({"body": {"view": view.to_jsonable()}, "ok": True})


def _counting_redactions(monkeypatch) -> Counter:
    redactions = Counter()
    original = instanceid.service.redact

    def counting(signed, policy, party):
        redactions[party] += 1
        return original(signed, policy, party)

    monkeypatch.setattr(instanceid.service, "redact", counting)
    return redactions


def test_memoised_view_bytes_equal_a_fresh_redaction_for_every_party(monkeypatch):
    registry = _registry()
    identifier = registry.issue(Created("sys-a", "secret-user"), CARD_ATTRIBUTES).doc.identifier
    server = RegistryServer(registry)
    redactions = _counting_redactions(monkeypatch)
    lines = {party: _fresh_view_line(registry, identifier, party) for party in PartyClass}
    assert len(set(lines.values())) == 3  # all, operational, nothing
    for _ in range(3):
        for party in PartyClass:
            assert server.handle(_view_request(identifier, party)) == lines[party]
    assert redactions == Counter(dict.fromkeys(PartyClass, 1))


def test_a_memoised_view_past_retention_is_not_found_expired(served, clients):
    registry, _, _, clock = served
    identifier = registry.issue(Created("sys-a", "u")).doc.identifier
    for client in clients:
        client.get_view(identifier, PartyClass.AUDITOR)
    clock.advance(registry.retention.documents + 1)
    for client in clients:
        with pytest.raises(NotFound) as caught:
            client.get_view(identifier, PartyClass.AUDITOR)
        assert caught.value.detail == "expired"


def test_a_new_disclosure_policy_changes_the_next_view(served, clients):
    registry = served[0]
    identifier = registry.issue(Created("sys-a", "secret-user")).doc.identifier
    reveal_all = DisclosurePolicy(rules={PartyClass.AUDITOR: (AttributeMatcher(),)})
    for client in clients:
        registry.disclosure_policy = reveal_all
        assert "user-ref" in [e.attribute.name for e in
                              client.get_view(identifier, PartyClass.AUDITOR).revealed]
        registry.disclosure_policy = DisclosurePolicy(rules={})
        assert client.get_view(identifier, PartyClass.AUDITOR).revealed == ()


def test_a_memoised_view_is_served_only_for_the_document_it_was_made_from():
    first, second = _registry(), _registry()  # same seed: same identifier
    identifier = first.issue(Created("sys-a", "first-user")).doc.identifier
    assert second.issue(Created("sys-a", "second-user")).doc.identifier == identifier
    second.disclosure_policy = first.disclosure_policy
    server = RegistryServer(first)
    server.handle(_view_request(identifier, PartyClass.AUDITOR))
    server.registry = second
    line = server.handle(_view_request(identifier, PartyClass.AUDITOR))
    assert line == _fresh_view_line(second, identifier, PartyClass.AUDITOR)


def test_the_view_memo_never_holds_more_than_its_bound():
    registry = _registry()
    server = RegistryServer(registry)
    bound = instanceid.service._VIEW_MEMO_SIZE
    documents = -(-(bound + 100) // len(PartyClass))
    identifiers = [registry.issue(Created("sys-a", "u")).doc.identifier for _ in range(documents)]
    for identifier in identifiers:
        for party in PartyClass:
            assert load_canonical(server.handle(_view_request(identifier, party)))["ok"]
            assert len(server._views) <= bound
    assert len(server._views) == bound
    assert next(reversed(server._views)) == (str(identifiers[-1]), list(PartyClass)[-1])


def test_the_view_memo_evicts_before_it_inserts(monkeypatch):
    """The memo is within its bound right after every insertion, so a
    reader never sees it over the bound; refreshing a held entry evicts
    nothing."""
    bound = 4
    monkeypatch.setattr(instanceid.service, "_VIEW_MEMO_SIZE", bound)
    sizes = []

    class SizeRecording(OrderedDict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            sizes.append(len(self))

    registry = _registry()
    server = RegistryServer(registry)
    server._views = SizeRecording()
    identifiers = [registry.issue(Created("sys-a", f"u{n}")).doc.identifier for n in range(6)]
    for identifier in identifiers:
        server.handle(_view_request(identifier, PartyClass.AUDITOR))
    registry.disclosure_policy = DisclosurePolicy(rules={})  # every held view is now stale
    server.handle(_view_request(identifiers[-1], PartyClass.AUDITOR))
    assert sizes == [1, 2, 3, 4, 4, 4, 4]
    assert list(server._views) == [(str(i), PartyClass.AUDITOR) for i in identifiers[2:]]


def test_a_view_longer_than_the_memo_takes_is_served_but_not_kept(monkeypatch):
    registry = _registry()
    large = Attribute.inline_bytes("notes", b"x" * instanceid.service._VIEW_MEMO_MAX_BYTES,
                                   AttributeCategory.CONTEXT, AttributeSpecificity.INSTANCE)
    identifier = registry.issue(Created("sys-a", "u"), [large]).doc.identifier
    server = RegistryServer(registry)
    redactions = _counting_redactions(monkeypatch)
    for _ in range(2):
        for party in (PartyClass.AUDITOR, PartyClass.PUBLIC):
            line = server.handle(_view_request(identifier, party))
            assert line == _fresh_view_line(registry, identifier, party)
    assert list(server._views) == [(str(identifier), PartyClass.PUBLIC)]
    assert redactions == Counter({PartyClass.AUDITOR: 2, PartyClass.PUBLIC: 1})


def test_threads_evicting_each_others_views_each_get_the_right_bytes(monkeypatch):
    bound = 6
    monkeypatch.setattr(instanceid.service, "_VIEW_MEMO_SIZE", bound)
    registry = _registry()
    identifiers = [
        registry.issue(Created("sys-a", f"u{n}"), CARD_ATTRIBUTES).doc.identifier
        for n in range(8)
    ]
    expected = {
        (str(identifier), party): _fresh_view_line(registry, identifier, party)
        for identifier in identifiers
        for party in PartyClass
    }
    keys = sorted(expected, key=lambda key: (key[0], key[1].value))
    server = RegistryServer(registry)
    tcp = TcpRegistryServer(server).start()
    problems = []
    sizes = []

    def fetch(seed):
        rng = random.Random(seed)
        try:
            with TcpClient(*tcp.address) as client:
                for _ in range(150):
                    text, party = key = rng.choice(keys)
                    body = client._roundtrip("get-id", {"identifier": text, "party": party.value})
                    if canonical_json_line({"body": body, "ok": True}) != expected[key]:
                        problems.append(f"wrong view of {key}")
                    sizes.append(len(server._views))
        except Exception as exc:  # recorded for the main thread to report
            problems.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=fetch, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert problems == []
        assert len(sizes) == 600 and max(sizes) <= bound
    finally:
        sys.setswitchinterval(interval)
        tcp.stop()


@pytest.mark.parametrize("value", ["", 0, False])
def test_a_falsy_party_is_refused_not_answered_with_the_full_document(served, clients, value):
    registry = served[0]
    identifier = str(registry.issue(Created("sys-a", "secret-user")).doc.identifier)
    for client in clients:
        with pytest.raises(MalformedRecord):
            client._roundtrip("get-id", {"identifier": identifier, "party": value})


def test_a_null_party_or_upstream_counts_as_absent(served, clients):
    registry = served[0]
    signed = registry.issue(Created("sys-a", "secret-user"))
    for client in clients:
        reply = client._roundtrip("get-id", {"identifier": str(signed.doc.identifier),
                                             "party": None})
        assert SignedId.from_jsonable(reply["signed"]) == signed
        reply = client._roundtrip("issue", {"event": CREATED, "upstream": None})
        issued = SignedId.from_jsonable(reply["signed"]).doc
        assert [link.relation for link in issued.links] == []  # no upstream links


def test_keys_endpoint_register_and_revoke(served, clients):
    """The endpoint is list-only: remote register and revoke are refused."""
    registry, _, _, _ = served
    listing = registry.trust.to_jsonable()
    for client in clients:
        assert client.list_keys() == listing
        for author_id in ("beta", "acme"):
            with pytest.raises(MalformedRecord, match="unknown keys op"):
                client._roundtrip("keys", {"author_id": author_id, "key": VALID_KEY,
                                           "op": "register"})
        with pytest.raises(MalformedRecord, match="unknown keys op"):
            client._roundtrip("keys", {"author_id": "acme", "key_id": "k1", "op": "revoke"})
    assert registry.trust.to_jsonable() == listing
    # the registry's own calls still rotate keys
    registry.register_foreign_key("beta", BETA_KEY)
    registry.revoke_key("beta", "b1")
    assert clients[1].list_keys()["authors"]["beta"][0]["status"] == "revoked"


def test_notify_endpoint_fills_inbox(served, clients):
    registry, server, tcp, _ = served
    identifier = str(registry.issue(Created("sys-a", "u")).doc.identifier)
    client = clients[1]
    client.notify({"identifier": identifier, "reason": "malfunction"})
    assert registry.inbox == [{"identifier": identifier, "reason": "malfunction"}]


def test_notify_refuses_an_identifier_the_registry_never_issued(served, clients):
    """Neither a stranger nor a lineage node without a document of its own,
    such as the base system node a fine-tune adds."""
    registry, _, _, _ = served
    registry.issue(FineTuned("sys-a"))
    assert parse_identifier("sys-a:_system") in registry.lineage
    for client in clients:
        for ghost in ("nobody:ghost", "sys-a:x", "sys-a:_system"):
            with pytest.raises(UnknownIdentifier, match=ghost):
                client.notify({"identifier": ghost, "reason": "malfunction"})
    assert registry.inbox == []


def test_error_mapping(clients):
    for client in clients:
        with pytest.raises(NotFound):
            client.get_id(parse_identifier("sys-a:missing00"))
        with pytest.raises(MalformedRecord):
            client._roundtrip("keys", {"op": "bogus"})
        reply = client.request("no-such-endpoint", {})
        assert not reply["ok"]


def test_unreachable_tcp_raises_registry_unavailable():
    with TcpClient("127.0.0.1", 1, timeout=0.2) as client:
        with pytest.raises(RegistryUnavailable):
            client.get_id(parse_identifier("a:b"))


# -- persistent connections ------------------------------------------------------------


class _CountingServer(TcpRegistryServer):
    """Counts the connections it accepts."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.connections = 0

    def process_request(self, request, client_address):
        self.connections += 1
        super().process_request(request, client_address)


class _SlowOnce(RegistryServer):
    """Answers its first request only after ``delay`` seconds."""

    def __init__(self, registry, delay):
        super().__init__(registry)
        self.delay = delay

    def handle(self, line):
        delay, self.delay = self.delay, 0
        time.sleep(delay)
        return super().handle(line)


def test_one_connection_carries_every_request_of_a_client():
    registry = _registry()
    identifier = registry.issue(Created("sys-a", "u")).doc.identifier
    tcp = _CountingServer(RegistryServer(registry)).start()
    try:
        with TcpClient(*tcp.address) as client:
            for _ in range(50):
                assert client.get_id(identifier).doc.identifier == identifier
        assert tcp.connections == 1
    finally:
        tcp.stop()


def test_threads_sharing_a_client_each_get_their_own_replies():
    registry = _registry()
    identifiers = [registry.issue(Created("sys-a", f"u{n}")).doc.identifier for n in range(8)]
    tcp = _CountingServer(RegistryServer(registry)).start()
    problems = []

    def fetch(client, mine):
        try:
            for n in range(50):
                asked = mine[n % len(mine)]
                got = client.get_id(asked).doc.identifier
                if got != asked:
                    problems.append(f"asked for {asked}, got {got}")
        except Exception as exc:  # recorded for the main thread to report
            problems.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with TcpClient(*tcp.address) as client:
            threads = [
                threading.Thread(target=fetch, args=(client, identifiers[2 * t:2 * t + 2]))
                for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert problems == []
        assert tcp.connections == 4  # one per thread, none per request
    finally:
        sys.setswitchinterval(interval)
        tcp.stop()


def test_client_reconnects_to_a_restarted_server_and_fails_when_none_listens():
    tcp = TcpRegistryServer(RegistryServer(_registry("acme", "k1"))).start()
    host, port = tcp.address
    with TcpClient(host, port, timeout=2) as client:
        assert "acme" in client.list_keys()["authors"]
        tcp.stop()
        tcp = TcpRegistryServer(RegistryServer(_registry("beta", "b1")), host, port).start()
        try:
            assert list(client.list_keys()["authors"]) == ["beta"]
        finally:
            tcp.stop()
        with pytest.raises(RegistryUnavailable):
            client.list_keys()


def test_timed_out_request_is_not_resent_and_the_next_gets_its_own_reply():
    registry = _registry()
    identifier = registry.issue(Created("sys-a", "u")).doc.identifier
    report = IncidentReport("r1", identifier, "service.x", Severity.MAJOR, "spam",
                            registry.clock.now())
    tcp = TcpRegistryServer(_SlowOnce(registry, delay=0.6)).start()
    try:
        with TcpClient(*tcp.address, timeout=0.2) as client:
            with pytest.raises(RegistryUnavailable):
                client.report_incident(report)
            assert client.get_id(identifier).doc.identifier == identifier
    finally:
        tcp.stop()
    # applied once, after the client had given up on it
    assert [r.report_id for r in registry.incidents] == ["r1"]


def test_a_reply_trickled_byte_by_byte_is_cut_off_at_the_request_timeout():
    """A server that sends one byte of its reply every 0.2 s for 3 s never
    lets a single recv wait 0.5 s, yet the request must fail at 0.5 s."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10)  # accept gives up if the client never connects

    def trickle():
        conn, _ = listener.accept()
        with conn:
            conn.recv(65536)  # the request line
            for _ in range(15):
                time.sleep(0.2)
                try:
                    conn.sendall(b"{")
                except OSError:
                    return  # the client has given up and closed

    server = threading.Thread(target=trickle)
    server.start()
    try:
        with TcpClient(*listener.getsockname(), timeout=0.5) as client:
            start = time.monotonic()
            with pytest.raises(RegistryUnavailable):
                client.list_keys()
            elapsed = time.monotonic() - start
        server.join(timeout=10)
        assert not server.is_alive()
    finally:
        listener.close()
    assert elapsed < 1.0


def test_stopped_server_releases_its_registry_and_handler_threads():
    registry = _registry()
    identifier = registry.issue(Created("sys-a", "u")).doc.identifier
    before = set(threading.enumerate())
    tcp = TcpRegistryServer(RegistryServer(registry)).start()
    with TcpClient(*tcp.address) as client:
        assert client.get_id(identifier).doc.identifier == identifier
        tcp.stop()
        # the client still holds its connection; the server side is gone
        assert set(threading.enumerate()) <= before
        released = weakref.ref(registry)
        del registry
        gc.collect()
        assert released() is None


def test_an_idle_connection_is_closed_and_the_client_opens_another(monkeypatch):
    assert instanceid.service._TcpHandler.timeout is not None  # idle connections end by default
    monkeypatch.setattr(instanceid.service._TcpHandler, "timeout", 0.2)
    tcp = _CountingServer(RegistryServer(_registry())).start()
    try:
        with socket.create_connection(tcp.address, timeout=5) as idle:
            start = time.monotonic()
            assert idle.recv(1) == b""  # closed by the server, not by this timeout
            assert 0.15 < time.monotonic() - start < 4
        assert not tcp._handlers  # its handler thread has ended
        with TcpClient(*tcp.address) as client:
            assert "acme" in client.list_keys()["authors"]
            time.sleep(0.5)
            assert "acme" in client.list_keys()["authors"]
        assert tcp.connections == 3
    finally:
        tcp.stop()


def test_a_connection_beyond_the_cap_is_closed_unserved(monkeypatch):
    monkeypatch.setattr(instanceid.service, "_MAX_CONNECTIONS", 4)
    tcp = TcpRegistryServer(RegistryServer(_registry())).start()
    try:
        with ExitStack() as stack:
            held = [stack.enter_context(TcpClient(*tcp.address, timeout=5)) for _ in range(4)]
            for client in held:
                assert "acme" in client.list_keys()["authors"]
            with TcpClient(*tcp.address, timeout=5) as extra:
                with pytest.raises(RegistryUnavailable):
                    extra.list_keys()
                assert len(tcp._handlers) == 4
                assert all("acme" in client.list_keys()["authors"] for client in held)
                held[0].close()
                deadline = time.monotonic() + 5
                while len(tcp._handlers) == 4 and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert "acme" in extra.list_keys()["authors"]
    finally:
        tcp.stop()


# -- malformed requests ----------------------------------------------------------------


IDENT = "sys-a:missing00"
CREATED = {"kind": "created", "system_id": "sys-a", "user_ref": "u"}
BETA_KEY = fixed_keypair("beta", "b1").public_key()
VALID_KEY = BETA_KEY.to_jsonable()

MALFORMED_REQUESTS = [[], 5, "x", None]
MALFORMED_BODIES = [
    ("get-id", 5),
    ("get-id", ["identifier"]),
    ("get-id", {}),
    ("get-id", {"identifier": IDENT, "party": "bogus"}),
    ("get-lineage", {"identifier": IDENT}),
    ("issue", {"attributes": 5, "event": CREATED}),
    ("issue", {"event": CREATED, "nonce": [1]}),
    ("issue", {"event": {"kind": "created", "system_id": "sys-a", "user_ref": ["u"]}}),
    # keys is list-only: register and revoke are refused, well-formed or not
    ("keys", {"author_id": "beta", "key": VALID_KEY, "op": "register"}),
    ("keys", {"author_id": "acme", "key": {**VALID_KEY, "key_id": "k2"}, "op": "register"}),
    ("keys", {"author_id": "acme", "key_id": "k1", "op": "revoke"}),
    ("keys", {"at": 0, "author_id": "acme", "key_id": "k1", "op": "revoke"}),
    ("keys", {"op": "register"}),
    ("keys", {"op": "revoke"}),
    ("keys", {"op": None}),
    ("keys", {"op": ["list"]}),
    ("notify", {}),
    ("report-incident", {}),
    ("query-incidents", {}),
    ("notify", {"payload": 5}),
    ("notify", {"payload": {}}),
    ("get-id", {"identifier": "nocolon"}),
    # a present party or upstream must decode: a falsy one is not read as absent
    ("get-id", {"identifier": IDENT, "party": ""}),
    ("get-id", {"identifier": IDENT, "party": 0}),
    ("get-id", {"identifier": IDENT, "party": False}),
    ("issue", {"event": CREATED, "upstream": ""}),
    ("issue", {"event": CREATED, "upstream": 0}),
    ("issue", {"event": CREATED, "upstream": False}),
]


def _assert_untouched(registry):
    assert registry.trust.to_jsonable() == _registry().trust.to_jsonable()
    assert registry.inbox == [] and registry.incidents == []
    assert len(registry.documents) == 1


@pytest.mark.parametrize("request_value", MALFORMED_REQUESTS)
def test_non_object_request_gets_malformed_record_reply(request_value):
    reply = load_canonical(RegistryServer(_registry()).handle(canonical_json_line(request_value)))
    assert (reply["ok"], reply["error"]) == (False, "MalformedRecord")


@pytest.mark.parametrize("endpoint, body", MALFORMED_BODIES)
def test_malformed_body_gets_malformed_record_reply_in_process(endpoint, body):
    registry = _registry()
    identifier = registry.issue(Created("sys-a", "u")).doc.identifier
    client = InProcessClient(RegistryServer(registry))
    reply = client.request(endpoint, body)
    assert (reply["ok"], reply["error"]) == (False, "MalformedRecord"), reply
    assert client.get_id(identifier).doc.identifier == identifier
    _assert_untouched(registry)


def test_malformed_lines_keep_the_tcp_connection_open(served):
    registry, _, tcp, _ = served
    identifier = registry.issue(Created("sys-a", "u")).doc.identifier
    valid = canonical_json_line({"body": {"identifier": str(identifier)}, "endpoint": "get-id"})
    bad_lines = [canonical_json_line(value) for value in MALFORMED_REQUESTS] + [
        canonical_json_line({"body": body, "endpoint": endpoint})
        for endpoint, body in MALFORMED_BODIES
    ]
    with socket.create_connection(tcp.address, timeout=5) as conn, conn.makefile("rb") as replies:
        for line in bad_lines:
            conn.sendall(line)
            reply = load_canonical(replies.readline())
            assert (reply["ok"], reply["error"]) == (False, "MalformedRecord"), line
            conn.sendall(valid)
            reply = load_canonical(replies.readline())
            assert reply["ok"] and reply["body"]["signed"]["doc"]["identifier"] == str(identifier)
    _assert_untouched(registry)


def test_service_config_file_and_env_overrides(tmp_path):
    config_path = tmp_path / "registry.json"
    config_path.write_text(
        '{"author_id": "acme", "listen": "127.0.0.1:7711", '
        '"retention": {"documents": 100, "incidents": 200}, '
        '"key_file": "keys.json", "log_file": "log.jsonl"}'
    )
    config = ServiceConfig.from_file(config_path, env={})
    assert (config.author_id, config.host, config.port) == ("acme", "127.0.0.1", 7711)
    assert config.retention.documents == 100
    assert config.key_file == "keys.json"

    env = {
        "INSTANCEID_LISTEN": "0.0.0.0:9000",
        "INSTANCEID_RETENTION_DOCUMENTS": "5",
        "INSTANCEID_KEY_FILE": "other-keys.json",
    }
    overridden = ServiceConfig.from_file(config_path, env=env)
    assert (overridden.host, overridden.port) == ("0.0.0.0", 9000)
    assert overridden.retention.documents == 5
    assert overridden.key_file == "other-keys.json"


@pytest.mark.parametrize(
    "env",
    [
        {"INSTANCEID_LISTEN": " 127.0.0.1: +80 "},
        {"INSTANCEID_LISTEN": "127.0.0.1:7_1_0"},
        {"INSTANCEID_LISTEN": "127.0.0.1:\u0668\u0660"},
        {"INSTANCEID_LISTEN": "127.0.0.1 :80"},
        {"INSTANCEID_RETENTION_DOCUMENTS": " 1_0 "},
        {"INSTANCEID_RETENTION_DOCUMENTS": "10 "},
        {"INSTANCEID_RETENTION_INCIDENTS": "+5"},
        {"INSTANCEID_RETENTION_INCIDENTS": "\u0665"},
    ],
)
def test_service_config_rejects_environment_numbers_that_are_not_ascii_digits(tmp_path, env):
    path = tmp_path / "registry.json"
    path.write_text('{"author_id": "acme"}')
    with pytest.raises(MalformedRecord):
        ServiceConfig.from_file(path, env=env)


def test_an_overlong_request_line_gets_malformed_record_and_the_connection_closes(served):
    registry, _, tcp, _ = served
    identifier = str(registry.issue(Created("sys-a", "u")).doc.identifier)
    get_id = canonical_json_line({"body": {"identifier": identifier}, "endpoint": "get-id"})
    limit = 1 << 20  # bytes per request line, its newline included
    with socket.create_connection(tcp.address, timeout=5) as conn, conn.makefile("rb") as replies:
        conn.sendall(b"[" * (limit + 1))  # no newline, and nothing after it
        reply = load_canonical(replies.readline())
        assert (reply["ok"], reply["error"]) == (False, "MalformedRecord"), reply
        assert replies.read() == b""
    with socket.create_connection(tcp.address, timeout=5) as conn, conn.makefile("rb") as replies:
        conn.sendall(b" " * (limit - 1) + b"\n" + get_id)  # a blank line at the limit
        reply = load_canonical(replies.readline())
        assert reply["ok"] and reply["body"]["signed"]["doc"]["identifier"] == identifier
    _assert_untouched(registry)


def test_keypair_file_round_trip(tmp_path):
    keypair = fixed_keypair("acme", "k1")
    path = tmp_path / "key.json"
    save_keypair_file(path, keypair)
    loaded = load_keypair_file(path)
    assert loaded.author_id == "acme"
    assert loaded.public_key() == keypair.public_key()
