"""Issuance with auto links, incident scopes vs a brute-force oracle,
retention, replay byte-identity."""

import random
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instanceid import (
    Attribute,
    AttributeCategory,
    AttributeSpecificity,
    Created,
    FineTuned,
    IncidentReport,
    IncidentScope,
    InstanceIdentifier,
    KeyPair,
    Merged,
    PartyClass,
    Regenerated,
    Registry,
    Reloaded,
    RetentionConfig,
    Severity,
    SimClock,
    TimeWindow,
    parse_identifier,
    sign_id,
    verify_id,
)
from instanceid.canonical import canonical_json_bytes, canonical_json_line, load_canonical
from instanceid.errors import (
    DuplicateAttributeName,
    DuplicateReportId,
    InvalidDocument,
    MalformedRecord,
    NoActiveKey,
    NotFound,
    ProtocolError,
    UnknownIdentifier,
)
import instanceid.registry
from instanceid.registry import INCIDENT_DB_ATTRIBUTE, USER_REF_ATTRIBUTE

from helpers import (
    brute_force_incident_filter,
    fixed_keypair,
    reference_issue,
    seed_incident_corpus,
)
from test_service import AWKWARD_TEXT


def make_registry(seed=0, start=1_000_000, retention=None):
    clock = SimClock(start)
    registry = Registry("acme", clock=clock, rng=random.Random(seed), retention=retention)
    registry.install_key(fixed_keypair("acme", "k1"))
    return registry, clock


# -- issuance --------------------------------------------------------------------


def test_issue_created_has_no_lineage_links():
    registry, _ = make_registry()
    signed = registry.issue(Created("sys-a", "user-1"))
    assert signed.doc.links == ()
    names = signed.doc.attribute_names()
    assert INCIDENT_DB_ATTRIBUTE in names
    assert USER_REF_ATTRIBUTE in names


def test_issue_regenerated_links_ancestor():
    registry, _ = make_registry()
    parent = registry.issue(Created("sys-a", "user-1")).doc.identifier
    signed = registry.issue(Regenerated(parent, branch_point=2))
    assert [(l.relation, l.target) for l in signed.doc.links] == [("ancestor", parent)]


def test_issue_merged_links_constituents():
    registry, _ = make_registry()
    a = registry.issue(Created("sys-a", "u")).doc.identifier
    b = registry.issue(Created("sys-a", "u")).doc.identifier
    signed = registry.issue(Merged((a, b)))
    relations = [(l.relation, l.target) for l in signed.doc.links]
    assert ("constituent", a) in relations and ("constituent", b) in relations


def test_issue_fine_tuned_links_base_system():
    registry, _ = make_registry()
    signed = registry.issue(FineTuned("sys-a"))
    assert signed.doc.identifier.is_system_node
    assert [(l.relation, str(l.target)) for l in signed.doc.links] == [
        ("base-system", "sys-a:_system")
    ]


def test_issue_reloaded_returns_stored_document():
    registry, _ = make_registry()
    signed = registry.issue(Created("sys-a", "u"))
    again = registry.issue(Reloaded(signed.doc.identifier))
    assert canonical_json_bytes(again.to_jsonable()) == \
        canonical_json_bytes(signed.to_jsonable())
    with pytest.raises(NotFound):
        registry.issue(Reloaded(parse_identifier("sys-a:never-issued00")))


def test_issue_with_upstream_adds_cross_deployer_links():
    registry, _ = make_registry()
    upstream = parse_identifier("othersys:cafebabe00000000")
    signed = registry.issue(Created("sys-a", ""), upstream=upstream)
    relations = [(l.relation, l.target) for l in signed.doc.links]
    assert ("ancestor", upstream) in relations
    assert ("upstream-deployer", upstream) in relations
    assert registry.lineage.is_external(upstream)


def test_every_issued_id_verifies_against_own_trust_store():
    registry, clock = make_registry()
    issued = [registry.issue(Created("sys-a", f"u{i}")) for i in range(5)]
    parent = issued[0].doc.identifier
    issued.append(registry.issue(Regenerated(parent)))
    for signed in issued:
        assert verify_id(signed, registry.trust, clock.now()).ok


def test_issue_requires_active_key():
    registry = Registry("acme", clock=SimClock(0), rng=random.Random(0))
    with pytest.raises(NoActiveKey):
        registry.issue(Created("sys-a", "u"))
    registry.install_key(fixed_keypair("acme", "k1"))
    registry.issue(Created("sys-a", "u"))
    registry.revoke_key("acme", "k1")
    with pytest.raises(NoActiveKey):
        registry.issue(Created("sys-a", "u"))


def _card(name, salt=None):
    return Attribute.inline_bytes(
        name, b"card", AttributeCategory.PROPERTY, AttributeSpecificity.SYSTEM,
        media_type="text/plain", salt=salt,
    )


@pytest.mark.parametrize(
    "attributes, upstream",
    [
        ([_card(INCIDENT_DB_ATTRIBUTE)], None),
        ([_card(INCIDENT_DB_ATTRIBUTE)], parse_identifier("other:ffff0000aaaa1111")),
        ([_card("a", bytes(16)), _card("b", bytes(16))], None),
    ],
    ids=["reserved-name", "reserved-name-with-upstream", "shared-salt"],
)
def test_a_refused_issue_leaves_lineage_and_log_as_they_were(attributes, upstream):
    registry, clock = make_registry()
    root = registry.issue(Created("sys-a", "u")).doc.identifier
    lineage, log = registry.lineage.state_jsonable(), registry.log_lines()
    with pytest.raises((DuplicateAttributeName, InvalidDocument)):
        registry.issue(Regenerated(root), attributes, upstream=upstream)
    assert registry.lineage.state_jsonable() == lineage
    assert registry.log_lines() == log
    replayed = Registry.replay(log, "acme", clock=clock)
    assert replayed.canonical_state_bytes() == registry.canonical_state_bytes()


def test_issue_idempotent_per_nonce():
    registry, _ = make_registry()
    first = registry.issue(Created("sys-a", "u"), nonce="req-1")
    log_after_first = registry.log_lines()
    retried = registry.issue(Created("sys-a", "u"), nonce="req-1")
    assert canonical_json_bytes(retried.to_jsonable()) == \
        canonical_json_bytes(first.to_jsonable())
    assert registry.log_lines() == log_after_first


def test_caller_attributes_are_signed_in():
    registry, clock = make_registry()
    cert = Attribute.inline_bytes(
        "cert:no-prompt-injection", b"ok",
        AttributeCategory.PROPERTY, AttributeSpecificity.INSTANCE,
    )
    signed = registry.issue(Created("sys-a", "u"), [cert])
    assert "cert:no-prompt-injection" in signed.doc.attribute_names()
    assert verify_id(signed, registry.trust, clock.now()).ok


# -- incidents -----------------------------------------------------------------------


def test_report_incident_errors():
    registry, clock = make_registry()
    signed = registry.issue(Created("sys-a", "u"))
    report = IncidentReport("r1", signed.doc.identifier, "service.x", Severity.INFO,
                            "text", clock.now())
    registry.report_incident(report)
    with pytest.raises(DuplicateReportId):
        registry.report_incident(report)
    with pytest.raises(UnknownIdentifier):
        registry.report_incident(
            IncidentReport("r2", parse_identifier("sys-a:ghost00"), "service.x",
                           Severity.INFO, "text", clock.now())
        )


@pytest.mark.parametrize("field", ["identifier", "severity"])
def test_a_report_with_a_mistyped_field_is_refused_and_the_log_stays_writable(field):
    registry, clock = make_registry()
    identifier = registry.issue(Created("sys-a", "u")).doc.identifier
    fields = {"report_id": "r1", "identifier": identifier, "reporter": "user.x",
              "severity": Severity.MINOR, "description": "d", "occurred_at": clock.now()}
    # the field's JSON form in place of its typed value
    mistyped = {**fields, field: {"identifier": str(identifier), "severity": "minor"}[field]}
    with pytest.raises(MalformedRecord):
        registry.report_incident(IncidentReport(**mistyped))
    registry.report_incident(IncidentReport(**fields))
    replayed = Registry.replay(registry.log_lines(), "acme", clock=clock)
    assert replayed.canonical_state_bytes() == registry.canonical_state_bytes()
    assert [report.report_id for report in replayed.incidents] == ["r1"]


# tokens and awkward text as in test_service: non-ASCII, quotes, backslashes,
# control characters; no surrogates, which canonical bytes cannot hold
report_tokens = st.from_regex(r"[a-z0-9][a-z0-9._-]{0,11}", fullmatch=True)
report_text = st.text(
    st.sampled_from(AWKWARD_TEXT) | st.characters(blacklist_categories=("Cs",)), max_size=16
)
valid_reports = st.builds(
    IncidentReport,
    report_id=report_text,
    identifier=st.builds(InstanceIdentifier, report_tokens, report_tokens | st.just("_system")),
    reporter=report_text,
    severity=st.sampled_from(Severity),
    description=report_text,
    occurred_at=st.integers(-(2**70), 2**70),
    user_ref=st.none() | report_text,
)


REPORT_ATTRIBUTES = ("report_id", "identifier", "reporter", "severity", "description",
                     "occurred_at", "user_ref", "canonical_bytes", "extra")


@settings(max_examples=200, deadline=None)
@given(report=valid_reports, name=st.sampled_from(REPORT_ATTRIBUTES))
def test_report_record_round_trips_and_refuses_assignment(report, name):
    decoded = IncidentReport.from_jsonable(report.to_jsonable())
    assert type(decoded) is IncidentReport
    assert decoded == report and hash(decoded) == hash(report)
    assert IncidentReport.from_jsonable(
        load_canonical(canonical_json_bytes(report.to_jsonable()))) == report
    with pytest.raises(AttributeError):
        setattr(report, name, "x")
    with pytest.raises(AttributeError):
        delattr(report, name)
    assert report == decoded


def test_query_scopes_match_brute_force_oracle():
    registry, clock = make_registry(seed=77)
    rng = random.Random(78)
    identifiers, reports = seed_incident_corpus(registry, clock, rng)
    horizon = clock.now() - registry.retention.incidents
    windows = [TimeWindow(), TimeWindow(start=clock.now() - 2500),
               TimeWindow(end=clock.now() - 1000),
               TimeWindow(clock.now() - 4000, clock.now() - 500)]
    scopes = (
        [IncidentScope.instance(i) for i in identifiers]
        + [IncidentScope.user(f"user-{k}") for k in range(5)]
        + [IncidentScope.system(f"sys-{c}") for c in "abc"]
        + [IncidentScope.systems("sys"), IncidentScope.systems("sys-a"),
           IncidentScope.systems("zzz")]
        + [IncidentScope.party_class(c) for c in ("service", "hospital", "user")]
    )
    for scope in scopes:
        for window in windows:
            got = registry.query_incidents(scope, window)
            expected = brute_force_incident_filter(reports, scope, window, horizon)
            assert got == expected, (scope, window)


def test_query_ordering():
    registry, clock = make_registry()
    signed = registry.issue(Created("sys-a", "u"))
    at = clock.now()
    for report_id, occurred in (("r-b", at - 10), ("r-a", at - 10), ("r-c", at - 20)):
        registry.report_incident(
            IncidentReport(report_id, signed.doc.identifier, "service.x",
                           Severity.INFO, "x", occurred)
        )
    got = [r.report_id for r in registry.query_incidents(
        IncidentScope.instance(signed.doc.identifier))]
    assert got == ["r-c", "r-a", "r-b"]


# systems whose ids nest as prefixes, so the "systems" scope merges several lists
PROPERTY_SYSTEMS = ("s", "sa", "sab", "sb", "t")
PROPERTY_USERS = ("u1", "u2", None)
PROPERTY_REPORTERS = ("service.a", "service.b", "hospital.x", "user.c")
PROPERTY_START = 1_000_000

property_reports = st.lists(
    st.tuples(
        st.integers(0, 999),  # report id number, unrelated to arrival order
        st.integers(0, len(PROPERTY_SYSTEMS)),  # instance index
        st.sampled_from(PROPERTY_REPORTERS),
        st.integers(-15, 15),  # occurred_at offset: narrow, so timestamps tie
        st.sampled_from(PROPERTY_USERS),
    ),
    max_size=40,
    unique_by=lambda entry: entry[0],
)
property_bound = st.one_of(st.none(), st.integers(-20, 20))


@settings(max_examples=100, deadline=None)
@given(
    entries=property_reports,
    advance=st.integers(0, 40),
    windows=st.lists(st.tuples(property_bound, property_bound), min_size=1, max_size=4),
)
def test_indexed_query_matches_brute_force_property(entries, advance, windows):
    retention = RetentionConfig(documents=10_000, incidents=20)
    registry, clock = make_registry(start=PROPERTY_START, retention=retention)
    # one instance per system plus a second one in "sa"
    identifiers = [
        registry.issue(Created(system, f"u{index}")).doc.identifier
        for index, system in enumerate(PROPERTY_SYSTEMS + ("sa",))
    ]
    reports = []
    for number, instance, reporter, offset, user_ref in entries:
        report = IncidentReport(f"r{number}", identifiers[instance], reporter,
                                Severity.MINOR, "x", PROPERTY_START + offset, user_ref)
        registry.report_incident(report)
        reports.append(report)
    clock.advance(advance)
    horizon = clock.now() - retention.incidents
    scopes = (
        [IncidentScope.instance(i) for i in identifiers]
        + [IncidentScope.system(s) for s in PROPERTY_SYSTEMS + ("nope",)]
        + [IncidentScope.systems(p) for p in ("", "s", "sa", "sab", "t", "x")]
        + [IncidentScope.user(u) for u in ("u1", "u2", "u3")]
        + [IncidentScope.party_class(c) for c in ("service", "hospital", "user", "none")]
    )
    replayed = Registry.replay(registry.log_lines(), "acme", clock=clock, retention=retention)
    for start, end in windows:
        window = TimeWindow(
            None if start is None else PROPERTY_START + start,
            None if end is None else PROPERTY_START + end,
        )
        for scope in scopes:
            expected = brute_force_incident_filter(reports, scope, window, horizon)
            assert registry.query_incidents(scope, window) == expected, (scope, window)
            assert replayed.query_incidents(scope, window) == expected, (scope, window)


def test_scope_widening_monotonicity():
    registry, clock = make_registry(seed=5)
    rng = random.Random(6)
    identifiers, _ = seed_incident_corpus(registry, clock, rng, n_reports=120)
    for ident in identifiers:
        instance_hits = {r.report_id for r in registry.query_incidents(IncidentScope.instance(ident))}
        system_hits = {r.report_id for r in registry.query_incidents(IncidentScope.system(ident.system_id))}
        systems_hits = {r.report_id for r in registry.query_incidents(IncidentScope.systems("sys"))}
        assert instance_hits <= system_hits <= systems_hits


def test_incident_log_append_only_monotone():
    registry, clock = make_registry()
    signed = registry.issue(Created("sys-a", "u"))
    scope = IncidentScope.instance(signed.doc.identifier)
    seen_before = set()
    for index in range(10):
        registry.report_incident(
            IncidentReport(f"r{index}", signed.doc.identifier, "service.x",
                           Severity.INFO, "x", clock.now())
        )
        now_ids = {r.report_id for r in registry.query_incidents(scope)}
        assert seen_before <= now_ids
        seen_before = now_ids


def test_concurrent_reports_never_leak_into_windowed_queries():
    """A query bisects twice and then slices; an insertion between those
    steps would shift the slice past the window unless both take the lock."""
    registry, clock = make_registry()
    identifier = registry.issue(Created("sys-a", "u")).doc.identifier
    scope = IncidentScope.instance(identifier)
    base = clock.now()
    window = TimeWindow(base - 600, base - 300)
    writes = 1500
    leaked = []
    done = threading.Event()

    def write(writer):
        for n in range(writes):
            registry.report_incident(
                IncidentReport(f"w{writer}-{n}", identifier, "service.x", Severity.MINOR,
                               "load", base - (n * 131 + writer * 7) % 1000)
            )

    def read():
        while not done.is_set():
            leaked.extend(
                r.report_id for r in registry.query_incidents(scope, window)
                if not window.start <= r.occurred_at <= window.end
            )

    writers = [threading.Thread(target=write, args=(w,)) for w in range(2)]
    readers = [threading.Thread(target=read) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in writers + readers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in writers + readers)
    assert leaked == []
    assert len(registry.query_incidents(scope)) == 2 * writes


def test_lineage_reads_never_race_lineage_writes():
    """Traversals iterate the DAG's adjacency sets; an issue that adds an
    edge meanwhile would change a set under the iterator unless both hold
    the lineage lock."""
    registry, _ = make_registry()
    root = registry.issue(Created("sys-a", "u")).doc.identifier
    writes = 1000
    errors = []
    done = threading.Event()

    def write():
        for _ in range(writes):
            registry.issue(Regenerated(root))

    def read():
        while not done.is_set():
            try:
                registry.get_lineage(root, "descendants")
                registry.lineage.edges()
                registry.lineage.validate_acyclic()
                registry.lineage.state_jsonable()
            except Exception as exc:  # "set changed size during iteration", ...
                errors.append(exc)

    writer = threading.Thread(target=write)
    readers = [threading.Thread(target=read) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in readers + [writer]:
            thread.start()
        writer.join(timeout=120)
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=120)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers + [writer])
    assert errors == []
    assert len(registry.get_lineage(root, "descendants")) == writes


# -- documents, retention, lineage serving ----------------------------------------------


def test_get_id_round_trip_and_not_found():
    registry, _ = make_registry()
    signed = registry.issue(Created("sys-a", "u"))
    fetched = registry.get_id(signed.doc.identifier)
    assert canonical_json_bytes(fetched.to_jsonable()) == canonical_json_bytes(signed.to_jsonable())
    with pytest.raises(NotFound) as excinfo:
        registry.get_id(parse_identifier("sys-a:missing00"))
    assert excinfo.value.detail == "unknown"


def test_get_id_expires_past_retention():
    retention = RetentionConfig(documents=1000, incidents=2000)
    registry, clock = make_registry(retention=retention)
    signed = registry.issue(Created("sys-a", "u"))
    registry.report_incident(
        IncidentReport("r1", signed.doc.identifier, "service.x", Severity.INFO,
                       "x", clock.now())
    )
    clock.advance(1001)
    with pytest.raises(NotFound) as excinfo:
        registry.get_id(signed.doc.identifier)
    assert excinfo.value.detail == "expired"
    # incident retention is longer: still visible, then gone
    assert registry.query_incidents(IncidentScope.instance(signed.doc.identifier))
    clock.advance(1000)
    assert not registry.query_incidents(IncidentScope.instance(signed.doc.identifier))


def test_get_lineage_external_markers_and_tree():
    registry, _ = make_registry()
    root = registry.issue(Created("sys-a", "mallory")).doc.identifier
    level1 = [registry.issue(Regenerated(root)).doc.identifier for _ in range(3)]
    level2 = []
    for parent in level1:
        level2 += [registry.issue(Regenerated(parent)).doc.identifier for _ in range(2)]
    upstream = parse_identifier("foreign:aaaa1111bbbb2222")
    cross = registry.issue(Created("sys-a", ""), upstream=upstream).doc.identifier

    descendants = registry.get_lineage(root, "descendants")
    assert {str(i) for i, _ in descendants} == {str(i) for i in level1 + level2}

    # brute-force reachability oracle over the edge set
    edges = registry.lineage.edges()
    reachable = {str(root)}
    changed = True
    while changed:
        changed = False
        for parent, child, _ in edges:
            if parent in reachable and child not in reachable:
                reachable.add(child)
                changed = True
    assert {str(i) for i, _ in descendants} == reachable - {str(root)}

    ancestors_of_cross = registry.get_lineage(cross, "ancestors")
    assert ancestors_of_cross == [(upstream, True)]
    with pytest.raises(UnknownIdentifier):
        registry.get_lineage(parse_identifier("sys-a:ghost99"), "ancestors")


def test_get_view_applies_registry_policy():
    registry, clock = make_registry()
    signed = registry.issue(Created("sys-a", "secret-user"))
    provider_view = registry.get_view(signed.doc.identifier, PartyClass.SERVICE_PROVIDER)
    assert USER_REF_ATTRIBUTE in [e.name for e in provider_view.hidden]
    regulator_view = registry.get_view(signed.doc.identifier, PartyClass.REGULATOR)
    assert USER_REF_ATTRIBUTE in [e.attribute.name for e in regulator_view.revealed]


# -- persistence ---------------------------------------------------------------------------


def test_restart_replay_reproduces_identical_state():
    registry, clock = make_registry(seed=9)
    signeds = [registry.issue(Created("sys-a", f"u{i}"), nonce=f"n{i}") for i in range(4)]
    parent = signeds[0].doc.identifier
    registry.issue(Regenerated(parent))
    registry.issue(Merged((signeds[1].doc.identifier, signeds[2].doc.identifier)))
    registry.issue(FineTuned("sys-a"))
    registry.issue(Reloaded(parent))
    registry.issue(Created("sys-a", ""), upstream=parse_identifier("other:ffff0000aaaa1111"))
    registry.report_incident(
        IncidentReport("r1", parent, "service.x", Severity.MAJOR, "x", clock.now())
    )
    registry.mark_shutdown(parent, "tested")
    registry.register_foreign_key("beta", fixed_keypair("beta", "b1").public_key())
    registry.revoke_key("beta", "b1")

    replayed = Registry.replay(registry.log_lines(), "acme", clock=clock)
    assert replayed.canonical_state_bytes() == registry.canonical_state_bytes()
    # replay without the private key can still serve reads
    assert canonical_json_bytes(replayed.get_id(parent).to_jsonable()) == \
        canonical_json_bytes(registry.get_id(parent).to_jsonable())
    # nonce idempotency survives restart once the key is re-installed
    replayed.install_key(fixed_keypair("acme", "k1"))
    reissued = replayed.issue(Created("sys-a", "u0"), nonce="n0")
    assert canonical_json_bytes(reissued.to_jsonable()) == \
        canonical_json_bytes(signeds[0].to_jsonable())


def test_replay_keeps_log_bytes_and_rejects_repeated_report_id():
    registry, clock = make_registry(seed=11)
    registry.register_foreign_key("beta", fixed_keypair("beta", "b1").public_key())
    registry.revoke_key("beta", "b1")
    root = registry.issue(Created("sys-a", "u0"), nonce="n0").doc.identifier
    registry.issue(Reloaded(root), nonce="n1")
    registry.issue(Created("sys-b", ""), upstream=parse_identifier("other:ffff0000aaaa1111"))
    registry.report_incident(
        IncidentReport("r1", root, "service.x", Severity.MAJOR, "x", clock.now(), "u0")
    )
    registry.mark_shutdown(root, "tested")
    log = registry.log_lines()
    records = [load_canonical(line) for line in log.splitlines()]
    assert {r["kind"] for r in records} == {
        "register-key", "revoke-key", "issue", "incident", "shutdown"
    }
    assert any(r["kind"] == "issue" and r["upstream"] for r in records)
    assert any(r["kind"] == "issue" and r["signed"] is None and r["nonce"] for r in records)

    replayed = Registry.replay(log, "acme", clock=clock)
    assert replayed.log_lines() == log
    assert replayed.canonical_state_bytes() == registry.canonical_state_bytes()

    # query results are copies: clearing one leaves the registry as it was
    for scope in (IncidentScope.instance(root), IncidentScope.system("sys-a"),
                  IncidentScope.systems("sys"), IncidentScope.user("u0"),
                  IncidentScope.party_class("service")):
        registry.query_incidents(scope).clear()
        assert [r.report_id for r in registry.query_incidents(scope)] == ["r1"]
    assert registry.log_lines() == log

    incident_line = next(
        line for line in log.splitlines(keepends=True) if b'"kind":"incident"' in line
    )
    with pytest.raises(MalformedRecord):
        Registry.replay(log + incident_line, "acme", clock=clock)


def test_a_live_issue_derives_its_links_once_and_replay_checks_them(monkeypatch):
    registry, clock = make_registry(seed=14)
    root = registry.issue(Created("sys-a", "u0")).doc.identifier
    calls = []
    links = instanceid.registry._links
    monkeypatch.setattr(instanceid.registry, "_links", lambda *a: calls.append(a) or links(*a))
    child = registry.issue(Regenerated(root))
    assert len(calls) == 1 and [link.target for link in child.doc.links] == [root]

    *head, line = registry.log_lines().splitlines(keepends=True)
    record = load_canonical(line)
    relinked = sign_id(replace(child.doc, links=()), fixed_keypair("acme", "k1"))
    forged = canonical_json_line({**record, "signed": relinked.to_jsonable()})
    with pytest.raises(MalformedRecord, match="links its lineage lacks"):
        Registry.replay(b"".join(head) + forged, "acme", clock=clock)


@pytest.mark.parametrize(
    "newline", [lambda log: log.replace(b"\n", b"\r\n"), lambda log: log.replace(b"\n", b"\r"),
                lambda log: log.replace(b"\n", b"\r", 1)],
    ids=["crlf", "cr", "one-cr"],
)
def test_replay_refuses_a_log_with_carriage_returns(newline):
    registry, clock = make_registry(seed=15)
    root = registry.issue(Created("sys-a", "u0")).doc.identifier
    registry.report_incident(
        IncidentReport("r1", root, "service.x", Severity.MAJOR, "x", clock.now())
    )
    log = registry.log_lines()
    with pytest.raises(MalformedRecord):
        Registry.replay(newline(log), "acme", clock=clock)
    assert Registry.replay(log, "acme", clock=clock).log_lines() == log


def test_live_and_replayed_reports_keep_no_bytes():
    registry, clock = make_registry(seed=12)
    _, reports = seed_incident_corpus(registry, clock, random.Random(13), n_reports=60)
    log = registry.log_lines()
    assert registry.log_lines() == log

    replayed = Registry.replay(log, "acme", clock=clock)
    assert len(replayed.incidents) == len(reports)
    for report in registry.incidents + replayed.incidents:
        assert not hasattr(report, "__dict__")
    assert replayed.log_lines() == log


def test_shutdown_marker():
    registry, _ = make_registry()
    signed = registry.issue(Created("sys-a", "u"))
    assert not registry.is_shut_down(signed.doc.identifier)
    registry.mark_shutdown(signed.doc.identifier, "malfunction-reports")
    assert registry.is_shut_down(signed.doc.identifier)
    with pytest.raises(UnknownIdentifier):
        registry.mark_shutdown(parse_identifier("sys-a:ghost11"), "x")


def test_replay_keeps_an_empty_nonce():
    registry, clock = make_registry()
    registry.issue(Created("sys-a", "u"), nonce="")
    replayed = Registry.replay(registry.log_lines(), "acme", clock=clock)
    assert replayed.canonical_state_bytes() == registry.canonical_state_bytes()


GHOST = parse_identifier("sys-a:ghost11")


@pytest.mark.parametrize(
    "record, error",
    [
        ({"at": 0, "kind": "incident", "report": IncidentReport(
            "r1", GHOST, "service.x", Severity.MAJOR, "x", 0).to_jsonable()}, UnknownIdentifier),
        ({"at": 0, "identifier": "sys-a:ghost11", "kind": "shutdown", "reason": "x"},
         UnknownIdentifier),
        ({"at": 0, "kind": "issue", "nonce": None, "signed": None, "upstream": None,
          "lineage": {"at": 0, "identifier": str(GHOST), "kind": "reloaded",
                      "original": str(GHOST)}}, NotFound),
    ],
    ids=["incident", "shutdown", "reload"],
)
def test_replay_refuses_a_record_for_an_instance_the_registry_lacks(record, error):
    """Replay raises what the live mutator raises for the same record."""
    with pytest.raises(error):
        Registry.replay(canonical_json_line(record), "acme")


_UPSTREAM = parse_identifier("other:ffff0000aaaa1111")
_OPERATIONS = ["created", "reloaded", "regenerated", "merged", "fine-tuned", "incident",
               "shutdown", "revoke"]
# each list ends in values the registry must refuse without logging anything
_NONCES = st.sampled_from([None, "", "n0", "n1", 5, b"x", ["n"]])
_UPSTREAMS = st.sampled_from([None, _UPSTREAM, str(_UPSTREAM)])
_REASONS = st.sampled_from(["tested", 5, b"x", None])
_REVOKED = st.sampled_from([("beta", "b1"), ("acme", "k1"), ("beta", "B1"), (["beta"], "b1")])


@pytest.mark.parametrize(
    "mutate, error",
    [
        (lambda r, i: r.issue(Created("sys-a", "u"), nonce=b"x"), MalformedRecord),
        (lambda r, i: r.issue(Created("sys-a", "u"), nonce=5), MalformedRecord),
        (lambda r, i: r.issue(Created("sys-a", "u"), nonce=["n"]), MalformedRecord),
        (lambda r, i: r.mark_shutdown(i, b"x"), MalformedRecord),
        (lambda r, i: r.mark_shutdown(i, 5), MalformedRecord),
        (lambda r, i: r.mark_shutdown(i, None), MalformedRecord),
        (lambda r, i: r.revoke_key("acme", "K1"), MalformedRecord),
        (lambda r, i: r.revoke_key(["acme"], "k1"), MalformedRecord),
        (lambda r, i: r.issue(Created("sys-b", "u"), upstream="other:abc"), MalformedRecord),
        (lambda r, i: r.issue(Reloaded(i), upstream=_UPSTREAM), MalformedRecord),
        (lambda r, i: r.issue(Reloaded(i), [_card("system-card")]), MalformedRecord),
    ],
    ids=["nonce-bytes", "nonce-int", "nonce-list", "reason-bytes", "reason-int", "reason-none",
         "revoke-key-id-not-a-token", "revoke-author-id-unhashable", "upstream-a-str",
         "reload-with-an-upstream", "reload-with-attributes"],
)
def test_a_mutation_with_a_field_of_the_wrong_kind_is_refused_and_not_logged(mutate, error):
    registry, _ = make_registry()
    root = registry.issue(Created("sys-a", "u")).doc.identifier
    log = registry.log_lines()
    with pytest.raises(error):
        mutate(registry, root)
    assert registry.log_lines() == log
    assert Registry.replay(log, "acme").log_lines() == log


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_replay_reproduces_the_live_registry(data):
    """Random live operations, refusals included; replaying the log they leave
    reproduces the log and the state byte for byte."""
    registry, clock = make_registry(seed=data.draw(st.integers(0, 3)))
    registry.register_foreign_key("beta", fixed_keypair("beta", "b1").public_key())
    instances = [GHOST]  # issued identifiers, and one that never is

    def instance():
        return data.draw(st.sampled_from(instances))

    for _ in range(data.draw(st.integers(1, 15))):
        clock.advance(data.draw(st.integers(0, 2)))
        operation = data.draw(st.sampled_from(_OPERATIONS))
        try:
            if operation == "incident":
                report_id = data.draw(st.sampled_from(["r0", "r1", "r2"]))
                registry.report_incident(IncidentReport(
                    report_id, instance(), "service.x", Severity.MINOR, "x", clock.now(), "u"))
            elif operation == "shutdown":
                registry.mark_shutdown(instance(), data.draw(_REASONS))
            elif operation == "revoke":
                registry.revoke_key(*data.draw(_REVOKED))
            else:
                event = {
                    "created": lambda: Created("sys-a", data.draw(st.sampled_from(["", "u"]))),
                    "reloaded": lambda: Reloaded(instance()),
                    "regenerated": lambda: Regenerated(instance()),
                    "merged": lambda: Merged((instance(), instance())),
                    "fine-tuned": lambda: FineTuned("sys-a"),
                }[operation]()
                signed = registry.issue(
                    event,
                    nonce=data.draw(_NONCES),
                    upstream=data.draw(_UPSTREAMS),
                )
                instances.append(signed.doc.identifier)
        except ProtocolError:
            pass

    log = registry.log_lines()
    replayed = Registry.replay(log, "acme", clock=clock)
    assert replayed.log_lines() == log
    assert replayed.canonical_state_bytes() == registry.canonical_state_bytes()

    # each document's links are its node's parent edges, an external
    # parent's also as upstream-deployer: the lineage is their one source
    relation = {"branch": "ancestor", "constituent": "constituent", "base-system": "base-system"}
    edges = registry.lineage.edges()
    for key, signed in registry.documents.items():
        expected = sorted(
            [(relation[kind], parent) for parent, child, kind in edges if child == key]
            + [("upstream-deployer", parent) for parent, child, _ in edges
               if child == key and registry.lineage.is_external(parse_identifier(parent))]
        )
        assert sorted((link.relation, str(link.target)) for link in signed.doc.links) == expected


# -- the document issued in one pass -----------------------------------------------------

_CARD_NAMES = st.sampled_from([USER_REF_ATTRIBUTE, INCIDENT_DB_ATTRIBUTE, "cert:a", "cert:b"])
# "drawn": the salt the registry's rng draws first after one instance identifier,
# which is the incident-db attribute's salt in a creation, a regeneration or a merge
_CARD_SALTS = st.sampled_from([None, None, bytes(16), b"\x01" * 16, "drawn"])
_ISSUES = ["created", "created-without-user-ref", "regenerated", "reloaded", "merged",
           "fine-tuned"]


def _drawn_salt(registry):
    rng = random.Random()
    rng.setstate(registry._rng.getstate())
    rng.getrandbits(128)
    return bytes(rng.getrandbits(8) for _ in range(16))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_an_issue_signs_and_logs_the_document_built_one_attribute_at_a_time(data):
    """``Registry.issue`` against ``reference_issue`` on twin registries:
    every issue returns the same signed bytes or raises the same error,
    logs the same line and leaves the rng in the same state, whether caller
    attributes bring salts or not, repeat a name (the registry's own among
    them) or repeat a salt."""
    seed = data.draw(st.integers(0, 3))
    live, _ = make_registry(seed)
    twin, _ = make_registry(seed)
    instances = [GHOST]

    def instance():
        return data.draw(st.sampled_from(instances))

    for _ in range(data.draw(st.integers(1, 4))):
        event = {
            "created": lambda: Created("sys-a", "u"),
            "created-without-user-ref": lambda: Created("sys-b", ""),
            "regenerated": lambda: Regenerated(instance()),
            "reloaded": lambda: Reloaded(instance()),
            "merged": lambda: Merged((instance(), instance())),
            "fine-tuned": lambda: FineTuned("sys-a"),
        }[data.draw(st.sampled_from(_ISSUES))]()
        drawn = _drawn_salt(live)
        cards = [_card(name, drawn if salt == "drawn" else salt)
                 for name, salt in data.draw(st.lists(st.tuples(_CARD_NAMES, _CARD_SALTS),
                                                      max_size=4))]
        nonce = data.draw(st.sampled_from([None, "n0"]))
        upstream = data.draw(st.sampled_from([None, _UPSTREAM]))
        outcomes = []
        for registry, issue in ((live, Registry.issue), (twin, reference_issue)):
            try:
                signed = issue(registry, event, cards, nonce=nonce, upstream=upstream)
            except ProtocolError as exc:
                outcomes.append((type(exc), exc.args))
            else:
                outcomes.append(canonical_json_bytes(signed.to_jsonable()))
        assert outcomes[0] == outcomes[1]
        assert live.log_lines() == twin.log_lines()
        assert live._rng.getstate() == twin._rng.getstate()
        if isinstance(outcomes[0], bytes):
            instances.append(signed.doc.identifier)
