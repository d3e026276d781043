"""Every reader of outside input rejects what does not decode with MalformedRecord.

Inputs are valid bodies with one node deleted or replaced by an arbitrary
JSON value, the replacement of the whole body included. Decoders must return
a value or raise ``MalformedRecord``; a decoded signed ID, view or manifest
must verify to a verdict, and a decoded policy or matcher must decide,
never raise. ``Registry.replay`` may also raise a
domain error such as ``UnknownParent``, but nothing outside ``ProtocolError``.
``RegistryServer.handle`` must answer every request; a refused one leaves the
registry log as it was, and a TCP connection keeps answering after any of
them.
"""

import json
import random
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instanceid import (
    Attribute,
    AttributeMatcher,
    AuthorRef,
    Created,
    DisclosedView,
    DisclosurePolicy,
    IncidentReport,
    IncidentScope,
    Manifest,
    Merged,
    OnMissing,
    PartyClass,
    PolicyRule,
    PublicKey,
    Registry,
    RegistryServer,
    RateLimit,
    Requirement,
    Severity,
    SignedId,
    SimClock,
    TcpRegistryServer,
    TimeWindow,
    TrustStore,
    create_manifest,
    parse_identifier,
    redact,
    verify_id,
    verify_manifest,
    verify_view,
)
from instanceid.canonical import canonical_json_line, load_canonical
from instanceid.errors import DuplicateConstituents, MalformedRecord, ProtocolError
from instanceid.gatekeeper import (
    IncidentThreshold,
    Presented,
    RequestContext,
    evaluate,
    policy_from_jsonable,
    policy_to_jsonable,
)
from instanceid.identity import Link, doc_from_jsonable, doc_to_jsonable
from instanceid.lineage import event_from_jsonable
from instanceid.service import ServiceConfig, UnavailableClient, load_keypair_file
from instanceid.verifiability import KeyRecord, Signature

from helpers import fixed_keypair, random_signed, trust_for
from test_pins import every_record_kind_registry

KEYPAIR = fixed_keypair("acme", "k1")
TRUST = trust_for(KEYPAIR)
SIGNED = random_signed(random.Random(5), KEYPAIR, n_attrs=3, n_links=1)
VIEW = redact(
    SIGNED,
    DisclosurePolicy(rules={PartyClass.AUDITOR: (AttributeMatcher(name="attr-0-*"),)}),
    PartyClass.AUDITOR,
)
MANIFEST = create_manifest(SIGNED.doc.identifier, b"output", None, KEYPAIR, at=5)
RULE = PolicyRule(
    "transfer-*", 10, Requirement.certification("cert:safety"),
    OnMissing("rate-limit", RateLimit(5, 60)), IncidentThreshold("system", 3),
)
REPORT = IncidentReport("r1", SIGNED.doc.identifier, "service.x", Severity.MAJOR, "spam", 7, "u")
REVOKED = TrustStore()
REVOKED.register_key("acme", KEYPAIR.public_key())
REVOKED.revoke_key("acme", "k1", 3)

# decoder name -> (decoder, a valid body)
DECODERS = {
    "Attribute": (Attribute.from_jsonable, SIGNED.doc.attributes[0].to_jsonable()),
    "AuthorRef": (AuthorRef.from_jsonable, SIGNED.doc.author.to_jsonable()),
    "Link": (Link.from_jsonable, SIGNED.doc.links[0].to_jsonable()),
    "doc_from_jsonable": (doc_from_jsonable, doc_to_jsonable(SIGNED.doc)),
    "PublicKey": (PublicKey.from_jsonable, KEYPAIR.public_key().to_jsonable()),
    "KeyRecord": (KeyRecord.from_jsonable, REVOKED.lookup("acme", "k1").to_jsonable()),
    "Signature": (Signature.from_jsonable, SIGNED.signature.to_jsonable()),
    "SignedId": (SignedId.from_jsonable, SIGNED.to_jsonable()),
    "Manifest": (Manifest.from_jsonable, MANIFEST.to_jsonable()),
    "TrustStore": (TrustStore.from_jsonable, REVOKED.to_jsonable()),
    "AttributeMatcher": (
        AttributeMatcher.from_jsonable,
        AttributeMatcher("cert:*", SIGNED.doc.attributes[0].category).to_jsonable(),
    ),
    "DisclosurePolicy": (
        DisclosurePolicy.from_jsonable,
        DisclosurePolicy.reveal_all(PartyClass.AUDITOR, PartyClass.USER).to_jsonable(),
    ),
    "DisclosedView": (DisclosedView.from_jsonable, VIEW.to_jsonable()),
    "IncidentReport": (IncidentReport.from_jsonable, REPORT.to_jsonable()),
    "IncidentScope": (IncidentScope.from_jsonable, IncidentScope.system("sys-a").to_jsonable()),
    "TimeWindow": (TimeWindow.from_jsonable, TimeWindow(1, 9).to_jsonable()),
    "PolicyRule": (PolicyRule.from_jsonable, RULE.to_jsonable()),
    "policy_from_jsonable": (policy_from_jsonable, policy_to_jsonable([RULE, RULE])),
    "event_created": (event_from_jsonable, {"kind": "created", "system_id": "s", "user_ref": "u"}),
    "event_reloaded": (event_from_jsonable, {"kind": "reloaded", "original": "s:i"}),
    "event_regenerated": (
        event_from_jsonable, {"branch_point": 2, "kind": "regenerated", "parent": "s:i"},
    ),
    "event_merged": (event_from_jsonable, {"constituents": ["s:a", "t:b"], "kind": "merged"}),
    "event_fine_tuned": (event_from_jsonable, {"base_system_id": "s", "kind": "fine-tuned"}),
}

# an ID-less caller reaches on_missing; a presented ID reaches the requirement
# and the incident threshold
GATE_CONTEXTS = (
    RequestContext("transfer-funds", 10, "usd", 5, "10.0.0.1"),
    RequestContext("transfer-funds", 10, "usd", 5, "10.0.0.1", Presented(SIGNED)),
)


def _evaluate(rules: list[PolicyRule], trust: TrustStore) -> None:
    for ctx in GATE_CONTEXTS:
        evaluate(rules, ctx, trust, UnavailableClient(), {})


# decoded artifacts must verify to a verdict, and decoded policies must decide;
# the revoked store reaches the comparisons against revoked_at
VERIFIERS = {
    "SignedId": lambda signed, trust: verify_id(signed, trust, 4),
    "DisclosedView": lambda view, trust: verify_view(view, trust, 4),
    "Manifest": lambda manifest, trust: verify_manifest(manifest, b"output", trust),
    "PolicyRule": lambda rule, trust: _evaluate([rule], trust),
    "policy_from_jsonable": _evaluate,
    "AttributeMatcher": lambda matcher, trust: [
        matcher.matches(attr) for attr in SIGNED.doc.attributes
    ],
    "DisclosurePolicy": lambda policy, trust: [redact(SIGNED, policy, party) for party in PartyClass],
}

# -- generating inputs -----------------------------------------------------------------

ATOMS = [
    None, True, False, 0, 1, -1, 2**70, -(2**70), 0.5, float("nan"), "", "x", "nocolon",
    "a:b", "s:i", "sys-a:_system", ":", "\x00", "é", "acme", "k1", "created", "revealed",
    "hidden", "list", "register", "ed25519", "AAAA", "A=", "system", "auditor", "active",
    "revoked",
]
KEYS = [
    "kind", "identifier", "name", "digest", "author", "author_id", "key_id", "op", "payload",
    "event", "report", "scope", "window", "entries", "signature", "doc", "value", "start",
    "end", "at", "x",
]


def random_json(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth >= 3 or roll < 0.6:
        if rng.random() < 0.2:
            return "".join(rng.choice("az09:._-=é\x00 ") for _ in range(rng.randint(0, 8)))
        return rng.choice(ATOMS)
    if roll < 0.8:
        return [random_json(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {rng.choice(KEYS): random_json(rng, depth + 1) for _ in range(rng.randint(0, 3))}


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, path + (index,))


def mutate(rng: random.Random, value):
    """A copy of ``value`` with one node deleted or replaced by random JSON."""
    value = load_canonical(canonical_json_line(value))
    path = rng.choice(list(_paths(value)))
    if not path:
        return random_json(rng)
    parent = value
    for step in path[:-1]:
        parent = parent[step]
    if rng.random() < 0.4:
        del parent[path[-1]]
    else:
        parent[path[-1]] = random_json(rng)
    return value


def json_line(value) -> bytes:
    """``value`` as a request or log line; unlike canonical JSON it may hold floats."""
    return json.dumps(value).encode() + b"\n"


randoms = st.randoms(use_true_random=False)

# -- decoders --------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(DECODERS))
@given(rng=randoms)
@settings(max_examples=150, deadline=None)
def test_decoders_return_a_value_or_raise_malformed_record(name, rng):
    decoder, valid = DECODERS[name]
    decoder(valid)
    body = mutate(rng, valid)
    try:
        decoded = decoder(body)
    except MalformedRecord:
        return
    if name in VERIFIERS:
        for trust in (TRUST, REVOKED):
            VERIFIERS[name](decoded, trust)


def _view_with_hidden_name(name):
    body = VIEW.to_jsonable()
    next(entry for entry in body["entries"] if entry["kind"] == "hidden")["name"] = name
    return body


def _rule_with_rate(requests, window):
    return {**RULE.to_jsonable(), "on_missing": {
        "kind": "rate-limit", "rate": {"requests": requests, "window": window}}}


def _rule_with_threshold(max_count):
    return {**RULE.to_jsonable(), "incident_threshold": {"max": max_count, "scope": "system"}}


@pytest.mark.parametrize(
    "name, body",
    [
        ("DisclosedView", {**VIEW.to_jsonable(), "identifier": "nocolon"}),
        ("DisclosedView", _view_with_hidden_name(5)),
        ("Manifest", {**MANIFEST.to_jsonable(), "identifier": "nocolon"}),
        ("IncidentReport", {**REPORT.to_jsonable(), "identifier": "nocolon"}),
        ("event_merged", {"constituents": 5, "kind": "merged"}),
        ("event_regenerated", {"branch_point": "x", "kind": "regenerated", "parent": "s:i"}),
        ("event_created", {"kind": "created", "system_id": 5, "user_ref": "u"}),
        ("event_fine_tuned", {"base_system_id": "Not A Token", "kind": "fine-tuned"}),
        ("DisclosurePolicy", {"user": [5]}),
        ("policy_from_jsonable", {}),
        ("DisclosurePolicy", {"user": [{"name": 5}]}),
        ("AttributeMatcher", {"category": None, "name": 5, "specificity": None}),
        ("PolicyRule", {**RULE.to_jsonable(), "threshold": "10"}),
        ("PolicyRule", {**RULE.to_jsonable(), "threshold": True}),
        ("policy_from_jsonable", {"rules": [{**RULE.to_jsonable(), "action": 5}]}),
        ("PolicyRule", _rule_with_rate(0.5, 60)),
        ("PolicyRule", _rule_with_rate(5, True)),
        ("policy_from_jsonable", {"rules": [_rule_with_rate(0.5, True)]}),
        ("PolicyRule", _rule_with_threshold(0.5)),
        ("PolicyRule", _rule_with_threshold(True)),
        ("IncidentReport", {**REPORT.to_jsonable(), "severity": "bogus"}),
        ("IncidentReport", {**REPORT.to_jsonable(), "severity": ["minor"]}),
        ("IncidentReport", {**REPORT.to_jsonable(), "severity": None}),
    ],
)
def test_named_malformed_inputs_raise_malformed_record(name, body):
    with pytest.raises(MalformedRecord):
        DECODERS[name][0](body)


# -- registry log ----------------------------------------------------------------------

LOG_LINES = every_record_kind_registry().log_lines().splitlines(keepends=True)
# 0-1 register-key, 2 revoke-key, 3-4 created issues (3 the reloaded root),
# 8 the reload, 9 an issue with an upstream link, 12 shutdown
RECORDS = [load_canonical(line) for line in LOG_LINES]


@given(rng=randoms)
@settings(max_examples=300, deadline=None)
def test_replay_of_a_mutated_line_succeeds_or_raises_a_protocol_error(rng):
    """A log that replays comes back byte for byte from ``log_lines``."""
    index = rng.randrange(len(LOG_LINES))
    line = json_line(mutate(rng, load_canonical(LOG_LINES[index])))
    log = b"".join(LOG_LINES[:index]) + line
    try:
        replayed = Registry.replay(log, "acme", clock=SimClock(1_000_000))
    except ProtocolError:
        return
    assert replayed.log_lines() == log


@pytest.mark.parametrize(
    "line",
    [
        b'{"kind":"shutdown"}\n',
        b"[]\n",
        b"5\n",
        canonical_json_line({"at": 0, "author_id": 5, "key": KEYPAIR.public_key().to_jsonable(),
                             "kind": "register-key"}),
        b"[" * 100_000 + b"\n",
        b'{"at":1,"identifier":5,"kind":"shutdown","reason":1}\n',
        canonical_json_line({"at": 0, "kind": "issue", "lineage": {
            "at": 0, "identifier": 5, "kind": "created", "system_id": "s", "user_ref": "u"},
            "nonce": None, "signed": None, "upstream": None}),
        canonical_json_line({"at": 0, "kind": "issue", "lineage": {
            "at": 0, "identifier": "s:0001", "kind": "merged", "constituents": "s:0001"},
            "nonce": None, "signed": None, "upstream": None}),
        canonical_json_line({"at": 0, "kind": "issue", "lineage": {
            "at": 0, "identifier": "s:0001", "kind": "created", "system_id": "s", "user_ref": "u"},
            "nonce": ["n"], "signed": None, "upstream": None}),
        b'{"author_id":"acme","key_id":"k1","kind":"revoke-key"}\n',
        canonical_json_line({"at": "1", "kind": "incident", "report": REPORT.to_jsonable()}),
        canonical_json_line({"at": 1, "kind": "incident", "report": REPORT.to_jsonable(),
                             "x": None}),
        json_line({**RECORDS[0], "at": 1.5}),
        json_line({**RECORDS[3], "at": 1.5}),
        json_line({**RECORDS[3], "lineage": {**RECORDS[3]["lineage"], "at": 1.5}}),
        json_line({**RECORDS[9], "external": {**RECORDS[9]["external"], "at": 1.5}}),
        canonical_json_line({**RECORDS[3], "signed": RECORDS[4]["signed"]}),
        canonical_json_line({**RECORDS[3], "signed": None}),
        b"".join(LOG_LINES[:4])
        + canonical_json_line({**RECORDS[8], "signed": RECORDS[3]["signed"]}),
        b"".join(LOG_LINES[:5]) + LOG_LINES[4],
        json_line({**RECORDS[9], "upstream": 1.5}),
        canonical_json_line({**RECORDS[4], "lineage": {**RECORDS[4]["lineage"], "user_ref": 5}}),
        b"".join(LOG_LINES[:4])
        + json_line({**RECORDS[5], "lineage": {**RECORDS[5]["lineage"], "branch_point": 3.5}}),
        canonical_json_line({**RECORDS[9], "external": None}),
        canonical_json_line(
            {**RECORDS[4], "lineage": {**RECORDS[4]["lineage"], "system_id": "sys-z"}}
        ),
        b"".join(LOG_LINES[:6]) + canonical_json_line({**RECORDS[6], "lineage": {
            **RECORDS[6]["lineage"], "constituents": RECORDS[6]["lineage"]["constituents"][:1]}}),
        b"".join(LOG_LINES[:4])
        + canonical_json_line({**RECORDS[8], "upstream": RECORDS[9]["upstream"]}),
        b"".join(LOG_LINES[:4])
        + canonical_json_line({**RECORDS[11], "report": {**RECORDS[11]["report"], "x": 1}}),
        canonical_json_line({**RECORDS[4], "signed": {
            **RECORDS[4]["signed"], "doc": {**RECORDS[4]["signed"]["doc"], "x": 1}}}),
        b"".join(LOG_LINES[:4]) + canonical_json_line({**RECORDS[4], "nonce": "n0"}),
        canonical_json_line({**RECORDS[7], "lineage": {
            **RECORDS[7]["lineage"], "base": RECORDS[7]["lineage"]["identifier"],
            "base_system_id": parse_identifier(RECORDS[7]["lineage"]["identifier"]).system_id}}),
        canonical_json_line({**RECORDS[0], "x": 1}),
        b"".join(LOG_LINES[:2]) + canonical_json_line({**RECORDS[2], "x": 1}),
        b"".join(LOG_LINES[:12]) + canonical_json_line({**RECORDS[12], "x": 1}),
    ],
    ids=["shutdown-without-fields", "list", "number", "author-id-not-a-token", "deep-nesting",
         "shutdown-identifier-not-a-string", "lineage-node-not-a-string",
         "constituents-not-a-list", "nonce-not-a-string", "revoke-without-at",
         "incident-at-not-an-integer", "incident-with-an-unknown-field",
         "register-key-at-a-float", "issue-at-a-float",
         "lineage-at-a-float", "external-link-at-a-float", "document-names-another-instance",
         "issue-without-a-document", "document-on-a-reload",
         "issue-for-an-existing-instance", "upstream-a-float", "user-ref-a-number",
         "branch-point-a-float", "upstream-without-its-external-link",
         "created-in-another-system", "merged-with-one-constituent",
         "reload-names-an-upstream", "report-with-an-unknown-field",
         "document-with-an-unknown-field", "repeated-nonce", "fine-tuned-from-itself",
         "register-key-with-an-unknown-field", "revoke-key-with-an-unknown-field",
         "shutdown-with-an-unknown-field"],
)
def test_replay_rejects_malformed_lines(line):
    with pytest.raises(MalformedRecord):
        Registry.replay(line, "acme")


def test_replay_raises_what_the_live_issue_raises_on_a_repeated_constituent():
    merged = RECORDS[6]["lineage"]
    constituent = parse_identifier(merged["constituents"][0])
    with pytest.raises(DuplicateConstituents):
        every_record_kind_registry().issue(Merged((constituent, constituent)))
    line = canonical_json_line(
        {**RECORDS[6], "lineage": {**merged, "constituents": [str(constituent)] * 2}}
    )
    with pytest.raises(DuplicateConstituents):
        Registry.replay(b"".join(LOG_LINES[:6]) + line, "acme")


@pytest.mark.parametrize(
    "target", ["instanceid.registry.Registry._add_incident", "instanceid.lineage.LineageStore._apply"]
)
def test_replay_reports_a_fault_in_the_state_as_itself(monkeypatch, target):
    """Only the decoding of a log line is guarded; an error the state raises
    on a well-formed log is not passed off as bad input."""

    def fault(*args):
        raise KeyError("fault")

    monkeypatch.setattr(target, fault)
    with pytest.raises(KeyError, match="fault"):
        Registry.replay(b"".join(LOG_LINES), "acme")


# -- endpoints -------------------------------------------------------------------------


def _served_registry() -> tuple[Registry, str]:
    registry = Registry("acme", clock=SimClock(10_000), rng=random.Random(1))
    registry.install_key(KEYPAIR)
    root = registry.issue(Created("sys-a", "u")).doc.identifier
    registry.report_incident(IncidentReport("r0", root, "service.x", Severity.MINOR, "x", 9_000))
    return registry, str(root)


def valid_requests(root: str) -> list[dict]:
    report = {**REPORT.to_jsonable(), "identifier": root, "report_id": "r1"}
    attribute = SIGNED.doc.attributes[1].to_jsonable()
    return [
        {"endpoint": "issue", "body": {
            "attributes": [attribute], "event": {"kind": "created", "system_id": "sys-b",
                                                 "user_ref": "u"},
            "nonce": "n1", "upstream": "up:0001",
        }},
        {"endpoint": "issue", "body": {
            "event": {"branch_point": 1, "kind": "regenerated", "parent": root},
        }},
        {"endpoint": "issue", "body": {"event": {"kind": "reloaded", "original": root}}},
        {"endpoint": "issue", "body": {"event": {"base_system_id": "sys-a",
                                                 "kind": "fine-tuned"}}},
        {"endpoint": "report-incident", "body": {"report": report}},
        {"endpoint": "query-incidents", "body": {
            "scope": {"kind": "instance", "value": root}, "window": {"end": 9_999, "start": 0},
        }},
        {"endpoint": "get-id", "body": {"identifier": root, "party": "service-provider"}},
        {"endpoint": "get-id", "body": {"identifier": root}},
        {"endpoint": "get-lineage", "body": {"direction": "descendants", "identifier": root}},
        {"endpoint": "keys", "body": {"op": "list"}},
        {"endpoint": "notify", "body": {"payload": {"identifier": root, "reason": "x"}}},
    ]


REQUEST_COUNT = len(valid_requests("s:i"))


def mutated_request(rng: random.Random, root: str):
    return mutate(rng, valid_requests(root)[rng.randrange(REQUEST_COUNT)])


@given(rng=randoms)
@settings(max_examples=300, deadline=None)
def test_handle_answers_every_request_and_a_refusal_changes_no_log(rng):
    registry, root = _served_registry()
    server = RegistryServer(registry)
    for request in valid_requests(root):
        assert load_canonical(server.handle(request))["ok"], request
    log = registry.log_lines()
    reply = load_canonical(server.handle(mutated_request(rng, root)))
    canonical_json_line(reply)  # the TCP transport must be able to send it
    if not reply["ok"]:
        assert registry.log_lines() == log
    for note in registry.inbox:  # deployers read each notification's identifier
        parse_identifier(note["identifier"])


def test_tcp_connection_answers_after_a_sample_of_mutated_requests():
    registry, root = _served_registry()
    rng = random.Random(2024)
    lines = [json_line(mutated_request(rng, root)) for _ in range(150)]
    lines += [
        b'{"body":{"event":{"kind":"created","system_id":"s","user_ref":"\\ud800"}},'
        b'"endpoint":"issue"}\n',
        b"[" * 100_000 + b"\n",
        b"\xff\n",
    ]
    get_id = canonical_json_line({"body": {"identifier": root}, "endpoint": "get-id"})
    tcp = TcpRegistryServer(RegistryServer(registry)).start()
    try:
        with socket.create_connection(tcp.address, timeout=5) as conn, \
                conn.makefile("rb") as replies:
            for line in lines:
                conn.sendall(line)
                assert "ok" in load_canonical(replies.readline()), line
            conn.sendall(get_id)
            reply = load_canonical(replies.readline())
            assert reply["ok"] and reply["body"]["signed"]["doc"]["identifier"] == root
    finally:
        tcp.stop()


# -- JSON text -------------------------------------------------------------------------


@pytest.mark.parametrize(
    "data",
    [b'{"a":"b"}', bytearray(b'{"a":"b"}'), b'\xef\xbb\xbf{"a":"b"}', '{"a":"b"}'.encode("utf-16"),
     '{"a":"b"}'],
    ids=["bytes", "bytearray", "utf-8-bom", "utf-16", "str"],
)
def test_load_canonical_reads_what_json_loads_reads(data):
    assert load_canonical(data) == {"a": "b"}


def test_a_trust_store_file_with_a_utf8_bom_loads():
    assert TrustStore.from_bytes(b"\xef\xbb\xbf" + TRUST.to_bytes()).to_bytes() == TRUST.to_bytes()


@pytest.mark.parametrize(
    "text, value",
    [(r'"\ud83d\ude00"', "\U0001f600"), (r'"\\ud800"', "\\ud800"), (r'"say \"hi\""', 'say "hi"')],
    ids=["surrogate-pair", "escaped-backslash", "escaped-quote"],
)
def test_load_canonical_keeps_escapes_that_spell_no_lone_surrogate(text, value):
    assert load_canonical(text.encode()) == value


@pytest.mark.parametrize(
    "data",
    [rb'"\ud800"', rb'["x", "\uDC00"]', rb'"\ud83d"', rb'"\\\ud800"', b'"\xed\xa0\x80"'],
    ids=["high", "low-upper-case", "high-without-low", "after-escaped-backslash", "utf-8-encoded"],
)
def test_load_canonical_rejects_a_lone_surrogate(data):
    with pytest.raises(MalformedRecord):
        load_canonical(data)


# -- config and key files --------------------------------------------------------------


@pytest.mark.parametrize(
    "body",
    [b"[]", b"{}", b'{"author_id": "acme", "listen": 5}', b'{"author_id": "acme", "listen": ":x"}',
     b'{"author_id": "acme", "retention": []}', b"\xff"],
)
def test_service_config_rejects_malformed_files(tmp_path, body):
    path = tmp_path / "registry.json"
    path.write_bytes(body)
    with pytest.raises(MalformedRecord):
        ServiceConfig.from_file(path, env={})


@pytest.mark.parametrize(
    "body",
    [b"[]", b"{}", b'{"author_id": "acme", "key_id": "k1", "private": "AAAA"}',
     b'{"author_id": "acme", "key_id": "k1", "private": 5}'],
)
def test_keypair_file_rejects_malformed_files(tmp_path, body):
    path = tmp_path / "key.json"
    path.write_bytes(body)
    with pytest.raises(MalformedRecord):
        load_keypair_file(path)
