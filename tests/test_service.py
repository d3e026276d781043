"""Endpoint dispatch over both transports, error mapping, config loading."""

import gc
import random
import socket
import sys
import threading
import time
import weakref
from collections import Counter

import pytest

import instanceid.registry
from instanceid import (
    Created,
    IncidentReport,
    IncidentScope,
    InProcessClient,
    PartyClass,
    Regenerated,
    Registry,
    RegistryServer,
    Severity,
    SimClock,
    TcpClient,
    TcpRegistryServer,
    TimeWindow,
    parse_identifier,
    verify_view,
)
from instanceid.canonical import b64u, canonical_json_line, load_canonical
from instanceid.errors import MalformedRecord, NotFound, RegistryUnavailable
from instanceid.service import ServiceConfig, load_keypair_file, save_keypair_file

from helpers import fixed_keypair, trust_for


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
        assert fetched.to_bytes() == signed.to_bytes()


def test_transports_return_identical_bodies(served, clients):
    registry, server, tcp, _ = served
    signed = registry.issue(Created("sys-a", "u"))
    inproc, remote = clients
    request = {"identifier": str(signed.doc.identifier)}
    assert inproc.request("get-id", request) == remote.request("get-id", request)
    assert inproc.request("keys", {"op": "list"}) == remote.request("keys", {"op": "list"})


def test_incident_endpoints(served, clients):
    registry, server, tcp, clock = served
    client = clients[1]
    signed = client.issue(Created("sys-a", "u"))
    report = IncidentReport("r1", signed.doc.identifier, "service.x",
                            Severity.MAJOR, "spam", clock.now())
    client.report_incident(report)
    got = client.query_incidents(IncidentScope.system("sys-a"))
    assert [r.report_id for r in got] == ["r1"]


def test_tcp_query_incidents_decodes_the_reports_the_registry_holds(served):
    registry, _, tcp, _ = served
    identifiers = [registry.issue(Created("sys-a", f"u{n}")).doc.identifier for n in range(5)]
    severities = list(Severity)
    for n in range(60):
        registry.report_incident(IncidentReport(
            f"r{n}", identifiers[n % 5], f"service.p{n % 3}", severities[n % 4], f"d{n}",
            9_000 + n % 17, None if n % 2 else f"user-{n % 7}",
        ))
    scope = IncidentScope.system("sys-a")
    with TcpClient(*tcp.address) as remote:
        got = remote.query_incidents(scope)
    assert len(got) == 60
    assert got == registry.query_incidents(scope)


class _Recording(RegistryServer):
    """Keeps every reply line it returns."""

    def __init__(self, registry):
        super().__init__(registry)
        self.lines = []

    def handle(self, request):
        line = super().handle(request)
        self.lines.append(line)
        return line


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
            line = canonical_json_line(
                {"body": {"reports": [report.to_jsonable() for report in expected]}, "ok": True}
            )
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
    encode = instanceid.registry.canonical_json_bytes

    def counting(value):
        encoded["calls"] += 1
        return encode(value)

    monkeypatch.setattr(instanceid.registry, "canonical_json_bytes", counting)
    reply = server.handle({"body": {"scope": IncidentScope.instance(identifier).to_jsonable()},
                           "endpoint": "query-incidents"})
    assert len(load_canonical(reply)["body"]["reports"]) == 5
    assert encoded["calls"] == 0


@pytest.mark.parametrize(
    "field, value",
    [
        ("occurred_at", "x"),
        ("occurred_at", True),
        ("occurred_at", None),
        ("report_id", 7),
        ("reporter", ["service", "x"]),
        ("description", None),
        ("user_ref", 3),
    ],
)
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
                            if not (in_scope(report) and window.contains(report.occurred_at)):
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
    registry.revoke_key("beta", "b1", at=50)
    assert clients[1].list_keys()["authors"]["beta"][0]["status"] == "revoked"


def test_notify_endpoint_fills_inbox(served, clients):
    registry, server, tcp, _ = served
    client = clients[1]
    client.notify({"identifier": "sys-a:x", "reason": "malfunction"})
    assert registry.inbox == [{"identifier": "sys-a:x", "reason": "malfunction"}]


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

    def handle(self, request):
        delay, self.delay = self.delay, 0
        time.sleep(delay)
        return super().handle(request)


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


# -- malformed requests ----------------------------------------------------------------


IDENT = "sys-a:missing00"
CREATED = {"kind": "created", "system_id": "sys-a", "user_ref": "u"}
BETA_KEY = fixed_keypair("beta", "b1").public_key()
VALID_KEY = {"key_id": "b1", "public": b64u(BETA_KEY.public), "suite": BETA_KEY.suite}

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
]


def _assert_untouched(registry):
    assert registry.trust.to_jsonable() == _registry().trust.to_jsonable()
    assert registry.inbox == [] and registry.incidents == []
    assert len(registry.documents) == 1


@pytest.mark.parametrize("request_value", MALFORMED_REQUESTS)
def test_non_object_request_gets_malformed_record_reply(request_value):
    reply = load_canonical(RegistryServer(_registry()).handle(request_value))
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
    assert config.retention().documents == 100
    assert config.key_file == "keys.json"

    env = {
        "INSTANCEID_LISTEN": "0.0.0.0:9000",
        "INSTANCEID_RETENTION_DOCUMENTS": "5",
        "INSTANCEID_KEY_FILE": "other-keys.json",
    }
    overridden = ServiceConfig.from_file(config_path, env=env)
    assert (overridden.host, overridden.port) == ("0.0.0.0", 9000)
    assert overridden.retention().documents == 5
    assert overridden.key_file == "other-keys.json"


def test_keypair_file_round_trip(tmp_path):
    keypair = fixed_keypair("acme", "k1")
    path = tmp_path / "key.json"
    save_keypair_file(path, keypair)
    loaded = load_keypair_file(path)
    assert loaded.author_id == "acme"
    assert loaded.public_key() == keypair.public_key()
