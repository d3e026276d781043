"""Endpoint dispatch over both transports, error mapping, config loading."""

import random
import sys
import threading
from collections import Counter

import pytest

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
from instanceid.errors import MalformedRecord, NotFound, RegistryUnavailable
from instanceid.service import ServiceConfig, load_keypair_file, save_keypair_file

from helpers import fixed_keypair, trust_for


@pytest.fixture
def served():
    clock = SimClock(10_000)
    registry = Registry("acme", clock=clock, rng=random.Random(1))
    registry.install_key(fixed_keypair("acme", "k1"))
    server = RegistryServer(registry)
    tcp = TcpRegistryServer(server).start()
    yield registry, server, tcp, clock
    tcp.stop()


def _clients(server, tcp):
    host, port = tcp.address
    return InProcessClient(server), TcpClient(host, port)


def test_issue_and_get_id_roundtrip_both_transports(served):
    registry, server, tcp, _ = served
    for client in _clients(server, tcp):
        signed = client.issue(Created("sys-a", "user-1"), nonce=f"n-{id(client)}")
        fetched = client.get_id(signed.doc.identifier)
        assert fetched.to_bytes() == signed.to_bytes()


def test_transports_return_identical_bodies(served):
    registry, server, tcp, _ = served
    signed = registry.issue(Created("sys-a", "u"))
    inproc, remote = _clients(server, tcp)
    request = {"identifier": str(signed.doc.identifier)}
    assert inproc.request("get-id", request) == remote.request("get-id", request)
    assert inproc.request("keys", {"op": "list"}) == remote.request("keys", {"op": "list"})


def test_incident_endpoints(served):
    registry, server, tcp, clock = served
    client = _clients(server, tcp)[1]
    signed = client.issue(Created("sys-a", "u"))
    report = IncidentReport("r1", signed.doc.identifier, "service.x",
                            Severity.MAJOR, "spam", clock.now())
    client.report_incident(report)
    got = client.query_incidents(IncidentScope.system("sys-a"))
    assert [r.report_id for r in got] == ["r1"]


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
def test_report_incident_rejects_malformed_fields(served, field, value):
    registry, server, tcp, clock = served
    signed = registry.issue(Created("sys-a", "u"))
    body = IncidentReport("r1", signed.doc.identifier, "service.x",
                          Severity.MAJOR, "spam", clock.now()).to_jsonable()
    body[field] = value
    for client in _clients(server, tcp):
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
def test_query_incidents_rejects_malformed_scope_and_window(served, body):
    registry, server, tcp, clock = served
    signed = registry.issue(Created("sys-a", "u"))
    registry.report_incident(IncidentReport("r1", signed.doc.identifier, "service.x",
                                            Severity.MAJOR, "spam", clock.now()))
    for client in _clients(server, tcp):
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
            client = TcpClient(host, port)
            for report in plan:
                client.report_incident(report)
        except Exception as exc:  # recorded for the main thread to report
            problems.append(repr(exc))

    def read(offset):
        try:
            client = TcpClient(host, port)
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
    client = TcpClient(host, port)
    for identifier in identifiers:
        assert len(client.query_incidents(IncidentScope.instance(identifier))) == tally[identifier]
    assert len(client.query_incidents(IncidentScope.systems("sys"))) == 3 * writes


def test_lineage_endpoint(served):
    registry, server, tcp, _ = served
    client = _clients(server, tcp)[0]
    root = client.issue(Created("sys-a", "u")).doc.identifier
    child = client.issue(Regenerated(root)).doc.identifier
    assert client.get_lineage(child, "ancestors") == [(root, False)]
    assert client.get_lineage(root, "descendants") == [(child, False)]


def test_get_view_endpoint_redacts(served):
    registry, server, tcp, clock = served
    client = _clients(server, tcp)[1]
    signed = client.issue(Created("sys-a", "secret-user"))
    view = client.get_view(signed.doc.identifier, PartyClass.SERVICE_PROVIDER)
    assert "user-ref" in [e.name for e in view.hidden]
    trust = trust_for(fixed_keypair("acme", "k1"))
    assert verify_view(view, trust, clock.now()).ok


def test_keys_endpoint_register_and_revoke(served):
    registry, server, tcp, _ = served
    client = _clients(server, tcp)[1]
    beta = fixed_keypair("beta", "b1").public_key()
    from instanceid.canonical import b64u

    body = {
        "op": "register",
        "author_id": "beta",
        "key": {"key_id": beta.key_id, "public": b64u(beta.public), "suite": beta.suite},
    }
    assert client.request("keys", body)["ok"]
    listing = client.list_keys()
    assert "beta" in listing["authors"]
    client._roundtrip("keys", {"op": "revoke", "author_id": "beta", "key_id": "b1", "at": 50})
    listing = client.list_keys()
    assert listing["authors"]["beta"][0]["status"] == "revoked"


def test_notify_endpoint_fills_inbox(served):
    registry, server, tcp, _ = served
    client = _clients(server, tcp)[1]
    client.notify({"identifier": "sys-a:x", "reason": "malfunction"})
    assert registry.inbox == [{"identifier": "sys-a:x", "reason": "malfunction"}]


def test_error_mapping(served):
    registry, server, tcp, _ = served
    for client in _clients(server, tcp):
        with pytest.raises(NotFound):
            client.get_id(parse_identifier("sys-a:missing00"))
        with pytest.raises(MalformedRecord):
            client._roundtrip("keys", {"op": "bogus"})
        reply = client.request("no-such-endpoint", {})
        assert not reply["ok"]


def test_unreachable_tcp_raises_registry_unavailable():
    client = TcpClient("127.0.0.1", 1, timeout=0.2)
    with pytest.raises(RegistryUnavailable):
        client.get_id(parse_identifier("a:b"))


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
