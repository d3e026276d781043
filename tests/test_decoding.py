"""Every reader of outside input rejects what does not decode with MalformedRecord.

Inputs are valid bodies with one node deleted or replaced by an arbitrary
JSON value, the replacement of the whole body included. Decoders must return
a value or raise ``MalformedRecord``; a decoded signed ID, view or manifest
must verify to a verdict, never raise. The policy types, which have no JSON
form, raise ``MalformedRecord`` from their constructors, and so do an
incident report's constructor and ``_replace``. A table of report fields
decodes to what the constructor builds from them, seven at a time, or, if
any field is bad or the table is not seven fields per report, raises
``MalformedRecord`` for the whole table; so does a client's
``query_incidents`` on a reply with one bad field, and its ``get_lineage``
on a reply whose items are not a list or hold a marker that is not a bool. ``Registry.replay`` may
also raise a domain error such as ``UnknownParent``, but nothing outside
``ProtocolError``. ``RegistryServer.handle`` must answer every request; a
refused one leaves the registry log as it was, and a TCP connection keeps
answering after any of them.
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
from instanceid.canonical import b64u, canonical_json_bytes, canonical_json_line, load_canonical
from instanceid.errors import (
    DuplicateConstituents, MalformedIdentifier, MalformedRecord, ProtocolError,
)
from instanceid.gatekeeper import IncidentThreshold
from instanceid.identity import Link, doc_from_jsonable, doc_to_jsonable
from instanceid.lineage import event_from_jsonable
from instanceid.service import BaseClient, ServiceConfig, load_keypair_file
from instanceid.verifiability import KeyRecord, Signature

from helpers import (
    MALFORMED_REPORT_FIELDS, Text, fixed_keypair, random_signed, report_row, trust_for,
)
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
    "DisclosedView": (DisclosedView.from_jsonable, VIEW.to_jsonable()),
    "IncidentReport": (IncidentReport.from_jsonable, REPORT.to_jsonable()),
    "IncidentReport.from_table": (IncidentReport.from_table, report_row(REPORT) * 2),
    "IncidentScope": (IncidentScope.from_jsonable, IncidentScope.system("sys-a").to_jsonable()),
    "TimeWindow": (TimeWindow.from_jsonable, TimeWindow(1, 9).to_jsonable()),
    "event_created": (event_from_jsonable, {"kind": "created", "system_id": "s", "user_ref": "u"}),
    "event_reloaded": (event_from_jsonable, {"kind": "reloaded", "original": "s:i"}),
    "event_regenerated": (
        event_from_jsonable, {"branch_point": 2, "kind": "regenerated", "parent": "s:i"},
    ),
    "event_merged": (event_from_jsonable, {"constituents": ["s:a", "t:b"], "kind": "merged"}),
    "event_fine_tuned": (event_from_jsonable, {"base_system_id": "s", "kind": "fine-tuned"}),
}

# decoded artifacts must verify to a verdict; the revoked store reaches the
# comparisons against revoked_at
VERIFIERS = {
    "SignedId": lambda signed, trust: verify_id(signed, trust, 4),
    "DisclosedView": lambda view, trust: verify_view(view, trust, 4),
    "Manifest": lambda manifest, trust: verify_manifest(manifest, b"output", trust, 4),
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


def _view_with_unsalted_revealed():
    body = VIEW.to_jsonable()
    revealed = next(entry for entry in body["entries"] if entry["kind"] == "revealed")
    revealed["attribute"]["salt"] = None
    return body


def _rule(action="transfer-*", threshold=10, requirement=("certification", "cert:safety"),
          on_missing=("rate-limit", (5, 60)), incident_threshold=("system", 3)):
    """A gate rule built from its parts, each given as its constructor's arguments."""
    kind, rate = on_missing
    return PolicyRule(
        action, threshold, Requirement(*requirement),
        OnMissing(kind, None if rate is None else RateLimit(*rate)),
        IncidentThreshold(*incident_threshold),
    )


# rows for these name one constructor argument instead of a JSON body
BUILDERS = {
    "AttributeMatcher": lambda fields: AttributeMatcher(**fields),
    "PolicyRule": lambda fields: _rule(**fields),
    "IncidentReport.__new__": lambda fields: IncidentReport(**{**REPORT._asdict(), **fields}),
    "IncidentReport._replace": lambda fields: REPORT._replace(**fields),
}
# a field in its JSON form where the report holds a typed value
MISTYPED_REPORT_FIELDS = [("identifier", str(REPORT.identifier)), ("severity", "major")]


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
        ("PolicyRule", {"on_missing": ("throttle", None)}),
        ("PolicyRule", {"on_missing": ("rate-limit", None)}),
        ("PolicyRule", {"incident_threshold": ("instance-class", 3)}),
        ("AttributeMatcher", {"category": None, "name": 5, "specificity": None}),
        ("PolicyRule", {"threshold": "10"}),
        ("PolicyRule", {"threshold": True}),
        ("PolicyRule", {"action": 5}),
        ("PolicyRule", {"on_missing": ("rate-limit", (0.5, 60))}),
        ("PolicyRule", {"on_missing": ("rate-limit", (5, True))}),
        ("PolicyRule", {"on_missing": ("rate-limit", (0.5, True))}),
        ("PolicyRule", {"incident_threshold": ("system", 0.5)}),
        ("PolicyRule", {"incident_threshold": ("system", True)}),
        ("IncidentReport", {**REPORT.to_jsonable(), "severity": "bogus"}),
        ("IncidentReport", {**REPORT.to_jsonable(), "severity": ["minor"]}),
        ("IncidentReport", {**REPORT.to_jsonable(), "severity": None}),
        ("PolicyRule", {"requirement": ("certification", 5)}),
        ("PolicyRule", {"requirement": ("certification", "No Name")}),
        ("PolicyRule", {"requirement": ("id", "x")}),
        ("IncidentScope", {"kind": "instance-class", "value": "x"}),
        ("DisclosedView", {**VIEW.to_jsonable(), "author": None}),
        ("DisclosedView", _view_with_hidden_name(VIEW.revealed[0].attribute.name)),
        ("DisclosedView", _view_with_unsalted_revealed()),
        ("SignedId", {**SIGNED.to_jsonable(),
                      "doc": {**doc_to_jsonable(SIGNED.doc), "created_at": True}}),
        ("DisclosedView", {**VIEW.to_jsonable(), "created_at": False}),
        ("doc_from_jsonable", {**doc_to_jsonable(SIGNED.doc), "hash_suite": "md5"}),
        ("DisclosedView", {**VIEW.to_jsonable(), "hash_suite": "md5"}),
        ("PublicKey", {**KEYPAIR.public_key().to_jsonable(), "suite": "rsa"}),
        ("Signature", {**SIGNED.signature.to_jsonable(), "suite": "rsa"}),
        ("SignedId", {**SIGNED.to_jsonable(),
                      "signature": {**SIGNED.signature.to_jsonable(), "suite": "rsa"}}),
        *[
            (builder, {field: value})
            for builder in ("IncidentReport.__new__", "IncidentReport._replace")
            for field, value in MALFORMED_REPORT_FIELDS + MISTYPED_REPORT_FIELDS
        ],
    ],
)
def test_named_malformed_inputs_raise_malformed_record(name, body):
    if name in BUILDERS:
        BUILDERS[name]({})  # the parts a row leaves alone build
    build = BUILDERS[name] if name in BUILDERS else DECODERS[name][0]
    with pytest.raises(MalformedRecord):
        build(body)


# -- query-incidents replies -----------------------------------------------------------


class _Replying(BaseClient):
    """A client whose registry answers every request with ``reply``; no socket."""

    def __init__(self, reply):
        self.reply = reply

    def request(self, endpoint: str, body: dict) -> dict:
        return self.reply


def _reports_reply(table) -> dict:
    return {"body": {"reports": table}, "ok": True}


REPORT_BODY = REPORT.to_jsonable()
REPORT_ROW = report_row(REPORT)


def _with(field: str, value) -> list:
    """``REPORT_ROW`` with ``field`` set to ``value``."""
    return [value if name == field else old for name, old in zip(IncidentReport._fields, REPORT_ROW)]


def _without(field: str) -> list:
    """``REPORT_ROW`` without ``field``: six values."""
    return [old for name, old in zip(IncidentReport._fields, REPORT_ROW) if name != field]


# each reply holds a good row beside the bad one, so a refusal is of the whole reply
HOSTILE_REPORT_REPLIES = {
    **{
        f"{field}-{type(value).__name__}": _reports_reply(REPORT_ROW + _with(field, value))
        for field, value in MALFORMED_REPORT_FIELDS
    },
    **{
        f"severity-{name}": _reports_reply(REPORT_ROW + _with("severity", value))
        for name, value in [("unknown", "bogus"), ("a-list", ["major"]),
                            ("an-object", {"major": 1}), ("upper-case", "MAJOR")]
    },
    # one value where a row belongs: eight values in all
    **{
        f"item-{name}": _reports_reply(REPORT_ROW + [value])
        for name, value in [("a-list", REPORT_ROW), ("an-object", REPORT_BODY),
                            ("a-string", "major"), ("a-number", 5), ("null", None)]
    },
    # thirteen values in all
    **{f"missing-{field}": _reports_reply(REPORT_ROW + _without(field))
       for field in IncidentReport._fields},
    # a length that is a multiple of seven, with a row or an object where a field belongs
    "row-nested": _reports_reply(REPORT_ROW + _with("description", REPORT_ROW)),
    "row-holding-an-object": _reports_reply(REPORT_ROW + _with("user_ref", REPORT_BODY)),
    # seven reports in another shape than the table's
    "rows-as-lists": _reports_reply([REPORT_ROW] * 7),
    "rows-as-objects": _reports_reply([REPORT_BODY] * 7),
    **{
        f"reports-{name}": _reports_reply(value)
        for name, value in [("an-object", {"r1": REPORT_ROW}), ("a-string", "r1"),
                            ("a-number", 5), ("null", None), ("an-empty-object", {}),
                            ("an-empty-string", "")]
    },
    "reports-missing": {"body": {}, "ok": True},
}


@pytest.mark.parametrize("name", sorted(HOSTILE_REPORT_REPLIES))
def test_a_hostile_query_incidents_reply_raises_malformed_record(name):
    client = _Replying(HOSTILE_REPORT_REPLIES[name])
    with pytest.raises(MalformedRecord):
        client.query_incidents(IncidentScope.system("sys-a"))


LINEAGE_ITEM = {"external": False, "identifier": "sys-a:0001"}


def _lineage_reply(items) -> dict:
    return {"body": {"items": items}, "ok": True}


@pytest.mark.parametrize(
    "reply",
    [
        _lineage_reply({}),
        _lineage_reply(""),
        *[
            _lineage_reply([LINEAGE_ITEM, {**LINEAGE_ITEM, "external": value}])
            for value in ("yes", 1, None)
        ],
    ],
    ids=["items-an-empty-object", "items-an-empty-string", "external-a-string",
         "external-a-number", "external-null"],
)
def test_a_hostile_get_lineage_reply_raises_malformed_record(reply):
    with pytest.raises(MalformedRecord):
        _Replying(reply).get_lineage(parse_identifier("sys-a:0002"), "ancestors")


def test_a_reply_decodes_str_subclass_fields_and_an_absent_user_ref():
    subclassed = [Text(value) if isinstance(value, str) else value for value in REPORT_ROW]
    reports = _Replying(_reports_reply(subclassed)).query_incidents(IncidentScope.system("sys-a"))
    assert reports == [REPORT] and type(reports[0]) is IncidentReport
    first = reports[0]
    texts = (first.report_id, first.reporter, first.description, first.user_ref)
    assert {type(text) for text in texts} == {Text}
    # a table row has no absent field; a report object may lack user_ref
    without_user = {name: value for name, value in REPORT_BODY.items() if name != "user_ref"}
    decoded = IncidentReport.from_jsonable(without_user)
    assert decoded == REPORT._replace(user_ref=None) and type(decoded) is IncidentReport


# a few rows the registry could send, one with a null user_ref
VALID_REPORT_ROWS = [
    REPORT_ROW,
    report_row(REPORT._replace(report_id="r2", severity=Severity.INFO, user_ref=None)),
    report_row(REPORT._replace(report_id="r3", description="", user_ref="")),
]


def _reference_reports(table) -> list[IncidentReport]:
    """The checked constructor's reports from a table's values, seven at a time."""
    if len(table) % 7:
        raise MalformedRecord(f"{len(table)} values")
    reports = []
    for start in range(0, len(table), 7):
        report_id, identifier, reporter, severity, description, occurred_at, user_ref = \
            table[start:start + 7]
        severities = [member for member in Severity if member.value == severity]
        if not severities:
            raise MalformedRecord(f"unknown severity {severity!r}")
        reports.append(IncidentReport(
            report_id, parse_identifier(identifier), reporter, severities[0], description,
            occurred_at, user_ref,
        ))
    return reports


def _typed(reports):
    """The reports with the type of each report and field, or None."""
    if reports is None:
        return None
    return [(type(report), [(type(field), field) for field in report]) for report in reports]


@given(rng=randoms, mutated=st.lists(st.booleans(), max_size=6))
@settings(max_examples=300, deadline=None)
def test_a_report_batch_decodes_as_the_constructor_builds_or_is_refused_whole(rng, mutated):
    table = []
    for bad in mutated:
        row = rng.choice(VALID_REPORT_ROWS)
        if bad:
            row = mutate(rng, row)
        table += row if isinstance(row, list) else [row]
    try:
        expected = _reference_reports(table)
    except (KeyError, TypeError, MalformedIdentifier, MalformedRecord):
        expected = None
    try:
        decoded = IncidentReport.from_table(table)
    except MalformedRecord:
        decoded = None
    assert _typed(decoded) == _typed(expected)


# -- registry log ----------------------------------------------------------------------

LOG_LINES = every_record_kind_registry().log_lines().splitlines(keepends=True)
# 0-1 register-key, 2 revoke-key, 3-4 created issues (3 the reloaded root),
# 5 a regenerated issue, 8 the reload, 9 an issue with an upstream link, 12 shutdown
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
        b"".join(LOG_LINES[:5]) + canonical_json_line({**RECORDS[5], "signed": {
            **RECORDS[5]["signed"], "doc": {**RECORDS[5]["signed"]["doc"], "links": []}}}),
        *[
            b"".join(LOG_LINES[:9])
            + canonical_json_line({**RECORDS[9], "external": {**RECORDS[9]["external"], **field}})
            for field in [{"child": RECORDS[3]["lineage"]["identifier"]},
                          {"parent": "other:ffff0000aaaa2222"},
                          {"at": RECORDS[9]["at"] + 1}]
        ],
        b"".join(LOG_LINES[:3]) + canonical_json_line(
            {**RECORDS[3], "lineage": {**RECORDS[3]["lineage"], "at": RECORDS[3]["at"] + 1}}),
        b"".join(LOG_LINES[:4]) + canonical_json_line({**RECORDS[4], "external": {
            **RECORDS[9]["external"], "at": RECORDS[4]["at"],
            "child": RECORDS[4]["lineage"]["identifier"]}}),
        b"".join(LOG_LINES[:4]) + canonical_json_line(
            {field: value for field, value in RECORDS[4].items() if field != "external"}),
        b"".join(LOG_LINES[:8]) + canonical_json_line({**RECORDS[8], "external": None}),
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
         "shutdown-with-an-unknown-field", "document-without-its-lineage-links",
         "external-names-another-child", "external-names-another-parent",
         "external-at-another-time", "lineage-at-another-time",
         "external-link-without-an-upstream", "issue-without-its-external-key",
         "reload-with-an-external-field"],
)
def test_replay_rejects_malformed_lines(line):
    with pytest.raises(MalformedRecord):
        Registry.replay(line, "acme")


@pytest.mark.parametrize("index", range(len(RECORDS)))
def test_replay_refuses_a_time_or_nonce_of_the_wrong_type(index):
    """Lines the registry writes but for a non-integer ``at`` or, on an
    issue, a nonce that is neither a string nor null."""
    fields = [("at", True), ("at", "1")]
    if RECORDS[index]["kind"] == "issue":
        fields += [("nonce", 5), ("nonce", True), ("nonce", ["n"])]
    for field, value in fields:
        line = canonical_json_line({**RECORDS[index], field: value})
        with pytest.raises(MalformedRecord):
            Registry.replay(b"".join(LOG_LINES[:index]) + line, "acme")


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
    "target", ["instanceid.incidents.IncidentIndex.add", "instanceid.lineage.LineageStore.commit"]
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
        assert load_canonical(server.handle(json_line(request)))["ok"], request
    log = registry.log_lines()
    reply = load_canonical(server.handle(json_line(mutated_request(rng, root))))
    canonical_json_line(reply)  # the TCP transport must be able to send it
    if not reply["ok"]:
        assert registry.log_lines() == log
    for note in registry.inbox:  # deployers read each notification's identifier
        parse_identifier(note["identifier"])


def test_tcp_connection_answers_after_a_sample_of_mutated_requests():
    """The TCP transport answers every line, and its reply bytes and the log
    they leave equal those of the same lines handed over in process."""
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
            tcp_replies = []
            for line in lines + [get_id]:
                conn.sendall(line)
                tcp_replies.append(replies.readline())
                assert "ok" in load_canonical(tcp_replies[-1]), line
                assert tcp_replies[-1] == canonical_json_line(load_canonical(tcp_replies[-1]))
            reply = load_canonical(tcp_replies[-1])
            assert reply["ok"] and reply["body"]["signed"]["doc"]["identifier"] == root
    finally:
        tcp.stop()
    in_process, _ = _served_registry()
    server = RegistryServer(in_process)
    for line, tcp_reply in zip(lines + [get_id], tcp_replies, strict=True):
        assert server.handle(line) == tcp_reply, line
    assert in_process.log_lines() == registry.log_lines()


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
    data = canonical_json_bytes(TRUST.to_jsonable())
    loaded = TrustStore.from_jsonable(load_canonical(b"\xef\xbb\xbf" + data))
    assert canonical_json_bytes(loaded.to_jsonable()) == data


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
     b'{"author_id": "acme", "retention": []}', b"\xff",
     b'{"author_id": "acme", "key_file": 5}', b'{"author_id": "acme", "log_file": ["x"]}',
     b'{"author_id": "acme", "listen": "127.0.0.1:70000"}',
     b'{"author_id": "acme", "listen": "127.0.0.1:-1"}',
     b'{"author_id": "acme", "retention": {"documents": 1.5}}',
     b'{"author_id": "acme", "retention": {"incidents": true}}',
     b'{"author_id": "acme", "retention": {"documents": -1}}',
     b'{"author_id": "acme", "listen": "127.0.0.1:7_1_0"}',
     b'{"author_id": "acme", "listen": "127.0.0.1:+80"}',
     b'{"author_id": "acme", "listen": "127.0.0.1: 80"}',
     b'{"author_id": "acme", "listen": "127.0.0.1:\\u0668\\u0660"}',
     b'{"author_id": "acme", "listen": " 127.0.0.1:80"}'],
)
def test_service_config_rejects_malformed_files(tmp_path, body):
    path = tmp_path / "registry.json"
    path.write_bytes(body)
    with pytest.raises(MalformedRecord):
        ServiceConfig.from_file(path, env={})


SEED = b64u(bytes(32)).encode()  # a valid ed25519 seed


@pytest.mark.parametrize(
    "body",
    [b"[]", b"{}", b'{"author_id": "acme", "key_id": "k1", "private": "AAAA"}',
     b'{"author_id": "acme", "key_id": "k1", "private": 5}',
     b'{"author_id": "acme", "key_id": "k1", "private": "AAAA", "suite": "ed25519"}',
     b'{"author_id": "acme", "key_id": "k1", "private": "%s", "suite": "rsa-pss"}' % SEED,
     b'{"author_id": "acme", "key_id": "k1", "private": "%s"}' % SEED],
)
def test_keypair_file_rejects_malformed_files(tmp_path, body):
    path = tmp_path / "key.json"
    path.write_bytes(body)
    with pytest.raises(MalformedRecord):
        load_keypair_file(path)
