"""Deployer registry: signed ID issuance, lineage serving, incident database.

Every state mutation is one record in an append-only log, the only log in
the package. A record is built by one helper per kind (``_issue_record`` and
the like), which refuses fields of the wrong kind, and ``Registry._apply``
alone checks its time and the record against the state, applies it and logs
it: a live mutator does only what replay cannot redo (nonce lookup, signing
key, ``LineageStore.build``, signing the document) and hands the helper's
record to ``_apply``. ``replay`` builds each line's record again with the
same helpers, accepts it only if ``_log_line`` writes it back as the same
bytes (an ``incident`` line from its report encoded afresh, which the report
does not keep) and hands it to ``_apply``; so a replayed registry is
byte-identical and refuses what the live one refuses, and no other module
checks a mutation's fields. ``_log_line`` alone knows a line's shape (an
``incident`` line's through ``_incident_line``, which the replay check
shares), and writes an ``issue`` line's lineage time and ``external`` link
from the record's time, lineage identifier and upstream; ``_links`` derives
a document's links from the last two, and replay refuses a logged document
with any other links.
Writes and incident queries serialize through the registry lock, and
lineage reads through the lineage store's lock, so no read observes a
partially applied mutation.

The incident database is indexed. Each report sits in one list per indexed
scope it falls in (its instance, its system, its reporter's party class and,
when set, its user), each list sorted by ``(occurred_at, report_id)``, beside
a parallel list of the same reports' rows (``_row_bytes``: the seven fields
as canonical JSON array items, encoded once as the report enters the
database, live or replayed). A set of report ids and a sorted list of system
ids sit beside them. With n reports:

* ``report_incident`` costs, per index, one bisect and two list inserts,
  each O(n) (ROADMAP item 13; ~22-32 us at 10k reports and ~54-72 us at
  100k on a 2-vCPU VM, with a random ``occurred_at``, which the reporter
  chooses); duplicate id and identifier checks are sets;
* ``query_incidents`` and ``incident_rows`` find their lists and bounds with
  ``Registry._spans``: two bisects on the ``instance``, ``user``, ``system``
  and ``party-class`` scopes, after which ``incident_rows`` (a
  ``query-incidents`` reply's table) is one ``b",".join`` of a slice of rows
  and reads no report. ``systems`` merges the slices of each system whose
  id has the prefix.

Key, issue and incident log records hold references to the registry's own
immutable ``PublicKey``, ``SignedId`` and ``IncidentReport`` objects, so the
log keeps no second copy of any key, document or report. A live report
encodes its object, ``IncidentReport.canonical_bytes``, when ``log_lines``
first splices it into its ``incident`` line, and keeps it; the index holds
its row. So a report is encoded once however often it is logged or served,
and a replayed registry serves without encoding and keeps only the rows.

A ``query-incidents`` reply is one flat table, ``{"reports": [f1, ..., f7,
f1, ..., f7, ...]}``, each report's fields in ``_IncidentFields`` order: it
spends no key text on a report, and ``json.loads`` builds one list per reply
rather than one dict per report. (Not one list per report either: unlike a
dict of strings and numbers, each list is tracked by the garbage collector,
so thousands per reply would bring on more full collections.)
``IncidentReport.from_table`` is the only decoder of reports: it decodes a
reply's table in one pass inside one ``decoding`` guard, and ``from_jsonable``
(a ``report-incident`` request, an ``incident`` line in replay) hands it one
object's seven fields. The pass refuses a table that is not a list or whose
length is not a multiple of seven, groups the fields seven at a time with
``zip`` over one iterator, looks each severity up in a table built from
``Severity`` and takes each identifier from ``parse_identifier``, whose
bounded memo returns an identifier seen recently without checking its tokens
again; ``_from_rows`` checks each row and builds it with one
``tuple.__new__``. The constructor hands ``_from_rows`` one row, so the field
rules live there alone, and one bad row refuses the whole table. A report is
the only artifact decoded by the thousands per reply, so it alone is a
checked, immutable tuple record rather than a frozen dataclass, whose
``__init__`` spent most of a report's decode in one ``object.__setattr__`` per
field. A 2,569-report reply over 1,000 identifiers is 369 KB as a table
against 595 KB as a list of report objects; in-process, its
``load_canonical`` takes ~1.0-1.2 ms against ~3.1-3.4 ms, and the pass after
it ~0.65 us per report (fastest of 200 runs; Python 3.11, one core of a
2-vCPU VM).
"""

from __future__ import annotations

import enum
import heapq
import random
import threading
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Any, Iterable, Iterator, NamedTuple, Optional

from .canonical import canonical_json_bytes, canonical_json_line, load_canonical
from .clock import SystemClock
from .disclosure import DisclosedView, DisclosurePolicy, AttributeMatcher, PartyClass, redact
from .errors import (
    DuplicateReportId,
    MalformedRecord,
    NoActiveKey,
    NotFound,
    UnknownIdentifier,
    decoding,
)
from .identity import (
    Attribute,
    AttributeCategory,
    AttributeSpecificity,
    AuthorRef,
    IdDocument,
    InstanceIdentifier,
    Link,
    add_attribute,
    is_token,
    parse_identifier,
)
from .lineage import (
    EDGE_BRANCH,
    Created,
    LineageEvent,
    LineageStore,
    Reloaded,
    event_from_jsonable,
    parents,
)
from .verifiability import (
    KeyPair,
    PublicKey,
    SignedId,
    TrustStore,
    sign_id,
)

INCIDENT_DB_ATTRIBUTE = "incident-db"
USER_REF_ATTRIBUTE = "user-ref"


class Severity(enum.Enum):
    INFO = "info"
    MINOR = "minor"
    MAJOR = "major"
    CRITICAL = "critical"


# value -> member; a lookup here is cheaper than Severity(value), and an
# unknown or unhashable value raises KeyError or TypeError, both undecodable
_SEVERITIES = {severity.value: severity for severity in Severity}


class _IncidentFields(NamedTuple):
    report_id: str
    identifier: InstanceIdentifier
    reporter: str
    severity: Severity
    description: str
    occurred_at: int
    user_ref: Optional[str] = None


_ROW_WIDTH = len(_IncidentFields._fields)  # values per report in a query-incidents table


class IncidentReport(_IncidentFields):
    """One report in the incident database: an immutable tuple record.

    Every report is built by ``_from_rows``, which holds the field checks:
    ``__new__`` hands it one row, ``_make`` (so ``_replace`` too) builds
    through ``__new__`` and ``from_table`` hands it a whole reply's rows, so
    no report skips the checks. Assigning or deleting any attribute raises
    ``AttributeError``. A report compares and hashes as the tuple of its
    fields.
    """

    def __new__(
        cls, report_id, identifier, reporter, severity, description, occurred_at, user_ref=None
    ):
        row = (report_id, identifier, reporter, severity, description, occurred_at, user_ref)
        return cls._from_rows((row,))[0]

    @classmethod
    def _from_rows(cls, rows: Iterable[tuple]) -> list["IncidentReport"]:
        """The reports whose fields are ``rows``, in field order, each
        checked here and built by one ``tuple.__new__``; the first row that
        breaks a rule raises ``MalformedRecord`` and no list is returned."""
        new = tuple.__new__
        reports = []
        for row in rows:
            report_id, identifier, reporter, severity, description, occurred_at, user_ref = row
            if not (
                isinstance(report_id, str)
                and isinstance(reporter, str)
                and isinstance(description, str)
            ):
                raise MalformedRecord("report_id, reporter and description must be strings")
            if type(identifier) is not InstanceIdentifier:
                raise MalformedRecord(
                    f"identifier must be an InstanceIdentifier, not {identifier!r}"
                )
            if type(severity) is not Severity:
                raise MalformedRecord(f"severity must be a Severity, not {severity!r}")
            if type(occurred_at) is not int:
                raise MalformedRecord(f"occurred_at must be an integer, not {occurred_at!r}")
            if user_ref is not None and not isinstance(user_ref, str):
                raise MalformedRecord(f"user_ref must be a string or null, not {user_ref!r}")
            reports.append(new(cls, row))
        return reports

    @classmethod
    def _make(cls, iterable: Iterable) -> "IncidentReport":
        return cls(*iterable)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign {name!r}: an IncidentReport is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: an IncidentReport is immutable")

    @cached_property
    def canonical_bytes(self) -> bytes:
        """``canonical_json_bytes(self.to_jsonable())``, encoded on first use."""
        return canonical_json_bytes(self.to_jsonable())

    def to_jsonable(self) -> dict:
        return {
            "description": self.description,
            "identifier": str(self.identifier),
            "occurred_at": self.occurred_at,
            "report_id": self.report_id,
            "reporter": self.reporter,
            "severity": self.severity.value,
            "user_ref": self.user_ref,
        }

    @classmethod
    @decoding("incident report")
    def from_table(cls, table: Any) -> list["IncidentReport"]:
        """The reports of a flat list holding each report's seven fields in
        turn, in field order, decoded in one pass. A ``table`` that is not a
        list or whose length is not a multiple of seven, an unknown severity
        or a bad identifier raises ``MalformedRecord`` for the whole table,
        as does a field that ``_from_rows`` refuses."""
        if not isinstance(table, list):
            raise MalformedRecord(f"reports must be a list, not {type(table).__name__}")
        if len(table) % _ROW_WIDTH:
            raise MalformedRecord(
                f"reports must hold {_ROW_WIDTH} fields per report, not {len(table)} in all"
            )
        fields = iter(table)
        return cls._from_rows(
            (report_id, parse_identifier(identifier), reporter, _SEVERITIES[severity],
             description, occurred_at, user_ref)
            for report_id, identifier, reporter, severity, description, occurred_at, user_ref
            in zip(*[fields] * _ROW_WIDTH)
        )

    @classmethod
    @decoding("incident report")
    def from_jsonable(cls, body: Any) -> "IncidentReport":
        """The report of one object, decoded by ``from_table``; an absent
        ``user_ref`` is null."""
        return cls.from_table([
            body["report_id"], body["identifier"], body["reporter"], body["severity"],
            body["description"], body["occurred_at"], body.get("user_ref"),
        ])[0]


SCOPE_KINDS = (
    "instance",
    "user",
    "system",
    "systems",
    "party-class",
)


@dataclass(frozen=True)
class IncidentScope:
    """One of five specificity levels an incident query can target."""

    kind: str
    value: str

    def __post_init__(self):
        if self.kind not in SCOPE_KINDS:
            raise MalformedRecord(f"unknown scope kind {self.kind!r}")
        if not isinstance(self.value, str):
            raise MalformedRecord(f"scope value must be a string, not {self.value!r}")

    @classmethod
    def instance(cls, identifier: InstanceIdentifier) -> "IncidentScope":
        return cls("instance", str(identifier))

    @classmethod
    def user(cls, user_ref: str) -> "IncidentScope":
        return cls("user", user_ref)

    @classmethod
    def system(cls, system_id: str) -> "IncidentScope":
        return cls("system", system_id)

    @classmethod
    def systems(cls, system_id_prefix: str) -> "IncidentScope":
        return cls("systems", system_id_prefix)

    @classmethod
    def party_class(cls, reporter_class: str) -> "IncidentScope":
        return cls("party-class", reporter_class)

    def to_jsonable(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    @classmethod
    @decoding("scope")
    def from_jsonable(cls, body: Any) -> "IncidentScope":
        return cls(body["kind"], body["value"])


@dataclass(frozen=True)
class TimeWindow:
    """Inclusive bounds; ``None`` leaves a side open."""

    start: Optional[int] = None
    end: Optional[int] = None

    def __post_init__(self):
        for bound in (self.start, self.end):
            if bound is not None and type(bound) is not int:
                raise MalformedRecord(f"window bound must be an integer or null, not {bound!r}")

    def to_jsonable(self) -> dict:
        return {"end": self.end, "start": self.start}

    @classmethod
    @decoding("window")
    def from_jsonable(cls, body: Any) -> "TimeWindow":
        if body is None:
            return cls()
        return cls(body.get("start"), body.get("end"))


OPEN_WINDOW = TimeWindow()


@dataclass(frozen=True)
class RetentionConfig:
    """Seconds each record class stays servable; defaults 365d / 730d."""

    documents: int = 365 * 86400
    incidents: int = 730 * 86400

    def __post_init__(self):
        for seconds in (self.documents, self.incidents):
            if type(seconds) is not int or seconds < 0:
                raise MalformedRecord(f"retention must be an integer >= 0, not {seconds!r}")

    def to_jsonable(self) -> dict:
        return {"documents": self.documents, "incidents": self.incidents}


def default_disclosure_policy() -> DisclosurePolicy:
    """Auditors and regulators see everything; operational parties see
    certifications and the standing system links but not user context."""
    operational = (
        AttributeMatcher(name="cert:*"),
        AttributeMatcher(name=INCIDENT_DB_ATTRIBUTE),
        AttributeMatcher(name="system-card"),
    )
    return DisclosurePolicy(
        rules={
            PartyClass.AUDITOR: (AttributeMatcher(),),
            PartyClass.REGULATOR: (AttributeMatcher(),),
            PartyClass.SERVICE_PROVIDER: operational,
            PartyClass.USER: operational,
            PartyClass.INSTANCE: operational,
            # PUBLIC intentionally unlisted: default deny hides everything
        }
    )


# incident lists are kept in this order; it is also the order queries return
_INCIDENT_ORDER = attrgetter("occurred_at", "report_id")


def _scope_keys(report: IncidentReport) -> list[tuple[str, str]]:
    """The (kind, value) of every indexed scope the report falls in."""
    keys = [
        ("instance", str(report.identifier)),
        ("system", report.identifier.system_id),
        # reporter tokens follow the "<class>.<name>" convention
        ("party-class", report.reporter.split(".", 1)[0]),
    ]
    if report.user_ref is not None:
        keys.append(("user", report.user_ref))
    return keys


def _row_bytes(report: IncidentReport) -> bytes:
    """The report's seven fields, in field order, as canonical JSON array
    items without the brackets: its row of a ``query-incidents`` table."""
    return canonical_json_bytes([
        report.report_id, str(report.identifier), report.reporter, report.severity.value,
        report.description, report.occurred_at, report.user_ref,
    ])[1:-1]


# the index of a scope no report falls in; never written
_NO_INCIDENTS: tuple[list[IncidentReport], list[bytes]] = ([], [])


def _incident_line(at: int, report: bytes) -> bytes:
    """The log line of an ``incident`` record at ``at`` whose report's
    canonical bytes are ``report``."""
    # the canonical form of {"at", "kind", "report"}: keys in that order
    return b'{"at":%d,"kind":"incident","report":%s}\n' % (at, report)


def _log_line(record: dict) -> bytes:
    """The canonical log line of a record that may hold the registry's
    objects; it derives an ``issue`` line's lineage time and ``external`` link."""
    kind = record["kind"]
    if kind == "incident":
        return _incident_line(record["at"], record["report"].canonical_bytes)
    if kind == "issue":
        lineage, at, upstream = record["lineage"], record["at"], record["upstream"]
        record = {**record, "lineage": {**lineage, "at": at}}
        if record["signed"] is not None:
            record["signed"] = record["signed"].to_jsonable()
        if lineage["kind"] != "reloaded":
            child = lineage["identifier"]
            record["external"] = None if upstream is None else {
                "at": at, "child": child, "kind": "external-link", "parent": upstream}
    elif kind == "register-key":
        record = {**record, "key": record["key"].to_jsonable()}
    return canonical_json_line(record)


def _key_record(at: int, author_id: str, key: PublicKey) -> dict:
    return {"at": at, "author_id": author_id, "key": key, "kind": "register-key"}


def _revoke_record(at: int, author_id: str, key_id: str) -> dict:
    if not (is_token(author_id) and is_token(key_id)):
        raise MalformedRecord(f"revoke-key ids must be tokens, not {author_id!r}, {key_id!r}")
    return {"at": at, "author_id": author_id, "key_id": key_id, "kind": "revoke-key"}


def _shutdown_record(at: int, identifier: str, reason: str) -> dict:
    if not isinstance(reason, str):
        raise MalformedRecord(f"shutdown reason must be a string, not {reason!r}")
    return {"at": at, "identifier": identifier, "kind": "shutdown", "reason": reason}


def _check_nonce(nonce: Optional[str]) -> None:
    if nonce is not None and not isinstance(nonce, str):
        raise MalformedRecord(f"nonce must be a string or null, not {nonce!r}")


def _links(lineage: dict, upstream: Optional[InstanceIdentifier]) -> tuple[Link, ...]:
    """The links of the document a lineage record issues: a branch parent as
    ``ancestor``, another parent under its edge's name, then ``ancestor``
    and ``upstream-deployer`` links to the ``upstream``, if there is one."""
    links = tuple(
        Link("ancestor" if edge == EDGE_BRANCH else edge, parse_identifier(parent))
        for parent, edge in parents(lineage)
    )
    if upstream is None:
        return links
    return links + (Link("ancestor", upstream), Link("upstream-deployer", upstream))


def _issue_record(
    at: int,
    lineage: dict,
    nonce: Optional[str],
    signed: Optional[SignedId],
    upstream: Optional[InstanceIdentifier],
) -> dict:
    """The log record of an ``issue``, whose lineage record holds no time.
    Only a reload has no document of its own, and any other document must
    name the lineage identifier, under which ``_apply`` files it, and carry
    exactly the links ``_links`` derives from the lineage and upstream."""
    _check_nonce(nonce)
    if (signed is None) != (lineage["kind"] == "reloaded"):
        raise MalformedRecord("an issue record has a document unless it is a reload")
    if signed is not None and str(signed.doc.identifier) != lineage["identifier"]:
        raise MalformedRecord(f"document of {signed.doc.identifier} logged for another instance")
    if signed is not None and signed.doc.links != _links(lineage, upstream):
        raise MalformedRecord(f"document of {signed.doc.identifier} has links its lineage lacks")
    record = {"at": at, "kind": "issue", "lineage": lineage, "nonce": nonce, "signed": signed}
    record["upstream"] = None if upstream is None else str(upstream)
    return record


@decoding("registry log")
def _log_record_from_line(line: bytes, lineage: LineageStore) -> dict:
    """The record whose log line is ``line``, with its key, document or
    report decoded. A key, revocation, shutdown or ``issue`` record is built
    again from its decoded fields by the helper its live mutator uses, which
    checks them as it does live, an ``issue``'s lineage record by
    ``lineage.build`` (which reads the store and changes nothing) from the
    logged event and identifier. The line must then be the one ``_log_line``
    writes for the record, byte for byte, so a field the live registry never
    writes is refused."""
    record = load_canonical(line)
    kind, at = record["kind"], record["at"]
    if kind == "register-key":
        # TrustStore.add_record checks the author id
        record = _key_record(at, record["author_id"], PublicKey.from_jsonable(record["key"]))
    elif kind == "revoke-key":
        record = _revoke_record(at, record["author_id"], record["key_id"])
    elif kind == "issue":
        logged, signed = record["lineage"], record["signed"]
        event = event_from_jsonable(logged)
        identifier = parse_identifier(logged["identifier"])
        upstream = record["upstream"]
        if upstream is not None:
            upstream = parse_identifier(upstream)
        if signed is not None:
            signed = SignedId.from_jsonable(signed)
        built = lineage.build(event, upstream, identifier)
        record = _issue_record(at, built, record["nonce"], signed, upstream)
    elif kind == "incident":
        report = record["report"] = IncidentReport.from_jsonable(record["report"])
        # encoded afresh, not through the cached canonical_bytes, so that a
        # replayed report keeps no bytes of its own
        if _incident_line(at, canonical_json_bytes(report.to_jsonable())) != line:
            raise MalformedRecord(f"not a line the registry writes: {line[:200]!r}")
        return record
    elif kind == "shutdown":
        parse_identifier(record["identifier"])
        record = _shutdown_record(at, record["identifier"], record["reason"])
    else:
        raise MalformedRecord(f"unknown log record kind {kind!r}")
    if _log_line(record) != line:
        raise MalformedRecord(f"not a line the registry writes: {line[:200]!r}")
    return record


class Registry:
    """One deployer's registry of record.

    The append-only log is the durability source of truth; the notification
    inbox is transient operational state and deliberately not part of it.
    """

    def __init__(
        self,
        author_id: str,
        clock=None,
        rng: Optional[random.Random] = None,
        retention: Optional[RetentionConfig] = None,
    ):
        self.author_id = author_id
        self.clock = clock or SystemClock()
        self._rng = rng
        self.retention = retention or RetentionConfig()
        self.disclosure_policy = default_disclosure_policy()
        self.lineage = LineageStore(rng=rng)
        self.documents: dict[str, SignedId] = {}
        self.incidents: list[IncidentReport] = []  # arrival order
        self._report_ids: set[str] = set()
        # (scope kind, value) -> (reports sorted by _INCIDENT_ORDER, their rows)
        self._incidents_by_scope: dict[
            tuple[str, str], tuple[list[IncidentReport], list[bytes]]
        ] = {}
        self._system_ids: list[str] = []  # sorted; systems that have reports
        self.trust = TrustStore()
        self.shutdowns: dict[str, dict] = {}
        self.inbox: list[dict] = []
        self._signing: Optional[KeyPair] = None
        self._nonces: dict[str, str] = {}
        self._log: list[dict] = []  # only _apply appends; key/issue/incident records hold objects
        self._lock = threading.Lock()

    # -- keys ------------------------------------------------------------------

    def install_key(self, keypair: KeyPair) -> None:
        """Register the public half (if new) and sign with this key from now on."""
        if keypair.author_id != self.author_id:
            raise MalformedRecord(
                f"key author {keypair.author_id!r} is not this registry's {self.author_id!r}"
            )
        with self._lock:
            existing = self.trust.lookup(keypair.author_id, keypair.key_id)
            public = keypair.public_key()
            if existing is None:
                self._register_key(keypair.author_id, public)
            elif existing.key.public != public.public:
                raise MalformedRecord(
                    f"key_id {keypair.key_id!r} already bound to a different key"
                )
            self._signing = keypair

    def register_foreign_key(self, author_id: str, key: PublicKey) -> None:
        with self._lock:
            self._register_key(author_id, key)

    def _register_key(self, author_id: str, key: PublicKey) -> None:
        self._apply(_key_record(self.clock.now(), author_id, key))

    def revoke_key(self, author_id: str, key_id: str) -> None:
        """Revoke a key at the registry clock's time, which stamps every
        record; the key verifies nothing checked at or after that time."""
        with self._lock:
            self._apply(_revoke_record(self.clock.now(), author_id, key_id))

    def active_keypair(self) -> KeyPair:
        if self._signing is None:
            raise NoActiveKey(self.author_id)
        record = self.trust.lookup(self._signing.author_id, self._signing.key_id)
        if record is None or record.revoked_at is not None:
            raise NoActiveKey(f"{self.author_id}: signing key revoked")
        return self._signing

    # -- issuance ----------------------------------------------------------------

    def issue(
        self,
        event: LineageEvent,
        attributes: Iterable[Attribute] = (),
        nonce: Optional[str] = None,
        upstream: Optional[InstanceIdentifier] = None,
    ) -> SignedId:
        """Register the lifecycle event and return a signed ID document.

        The document carries the links ``_links`` derives from the lineage
        record and a standing link to the incident database scoped to the
        system. ``upstream`` records a cross-deployer parent (stub lineage
        node, ancestor and upstream-deployer links). A reload returns the
        document issued before and takes no attributes and no upstream.
        Idempotent per client-supplied nonce.
        """
        _check_nonce(nonce)  # before the lookup, so an unhashable nonce is malformed too
        with self._lock:
            if nonce is not None and nonce in self._nonces:
                return self.documents[self._nonces[nonce]]
            keypair = self.active_keypair()
            at = self.clock.now()
            # the lineage changes only once the document is built and signed,
            # so a refused issue leaves no node that the log does not hold
            lineage_record = self.lineage.build(event, upstream)
            signed = None
            if not isinstance(event, Reloaded):
                identifier = parse_identifier(lineage_record["identifier"])
                author = AuthorRef(self.author_id, keypair.key_id)
                doc = IdDocument(identifier, at, author, links=_links(lineage_record, upstream))
                doc = self._attach_auto_attributes(doc, event)
                for attr in attributes:
                    doc = add_attribute(doc, attr, rng=self._rng)
                signed = sign_id(doc, keypair)
            elif tuple(attributes):
                raise MalformedRecord("a reload takes no attributes")
            self._apply(_issue_record(at, lineage_record, nonce, signed, upstream))
            return self.documents[lineage_record["identifier"]]

    def _attach_auto_attributes(self, doc: IdDocument, event: LineageEvent) -> IdDocument:
        system_id = doc.identifier.system_id
        doc = add_attribute(
            doc,
            Attribute.linked(
                INCIDENT_DB_ATTRIBUTE,
                f"registry://{self.author_id}/incidents?scope=system&system={system_id}",
                AttributeCategory.BEHAVIOUR,
                AttributeSpecificity.SYSTEM,
            ),
            rng=self._rng,
        )
        if isinstance(event, Created) and event.user_ref:
            doc = add_attribute(
                doc,
                Attribute.inline_bytes(
                    USER_REF_ATTRIBUTE,
                    event.user_ref.encode("utf-8"),
                    AttributeCategory.CONTEXT,
                    AttributeSpecificity.USER,
                    media_type="text/plain",
                ),
                rng=self._rng,
            )
        return doc

    # -- incidents ----------------------------------------------------------------

    def report_incident(self, report: IncidentReport) -> None:
        with self._lock:
            self._apply({"at": self.clock.now(), "kind": "incident", "report": report})

    def _add_incident(self, report: IncidentReport) -> None:
        system_id = report.identifier.system_id
        if ("system", system_id) not in self._incidents_by_scope:
            insort(self._system_ids, system_id)
        # encoded once, as the report enters the database, live or replayed
        row, order = _row_bytes(report), _INCIDENT_ORDER(report)
        for key in _scope_keys(report):
            index = self._incidents_by_scope.get(key)
            if index is None:
                index = self._incidents_by_scope[key] = ([], [])
            reports, rows = index
            at = bisect_right(reports, order, key=_INCIDENT_ORDER)
            reports.insert(at, report)
            rows.insert(at, row)
        self._report_ids.add(report.report_id)
        self.incidents.append(report)

    def query_incidents(
        self, scope: IncidentScope, window: TimeWindow = OPEN_WINDOW
    ) -> list[IncidentReport]:
        """Reports matching the scope, retention-filtered, ordered by
        (occurred_at, report_id), in a new list the caller may keep.

        ``instance``, ``user``, ``system`` and ``party-class`` copy out one
        slice of one sorted index list, found by ``_spans``: O(log n +
        results) for n reports. ``systems`` merges the slices of each system
        whose id has the prefix.
        """
        with self._lock:
            slices = [reports[lo:hi] for reports, _, lo, hi in self._spans(scope, window)]
        if len(slices) == 1:
            return slices[0]
        return list(heapq.merge(*slices, key=_INCIDENT_ORDER))

    def incident_rows(self, scope: IncidentScope, window: TimeWindow = OPEN_WINDOW) -> bytes:
        """The rows of ``query_incidents(scope, window)``, in its order,
        joined with commas: the items of a ``query-incidents`` table.

        ``instance``, ``user``, ``system`` and ``party-class`` cost two
        bisects and one join of a slice of the index's rows, and read no
        report. ``systems`` merges its systems' (report, row) pairs.
        """
        with self._lock:  # every slice is copied under it; the join reads the copies
            spans = self._spans(scope, window)
            if len(spans) == 1:
                _, rows, lo, hi = spans[0]
                rows = rows[lo:hi]
            else:
                pairs = [zip(reports[lo:hi], rows[lo:hi]) for reports, rows, lo, hi in spans]
                merged = heapq.merge(*pairs, key=lambda pair: _INCIDENT_ORDER(pair[0]))
                rows = (row for _, row in merged)
        return b",".join(rows)

    def _spans(
        self, scope: IncidentScope, window: TimeWindow
    ) -> list[tuple[list[IncidentReport], list[bytes], int, int]]:
        """``(reports, rows, lo, hi)`` for each index list the scope reads:
        one for ``instance``, ``user``, ``system`` and ``party-class``, one
        per system whose id has the prefix for ``systems``. ``reports[lo:hi]``
        are those at or after the retention horizon (or the window start, if
        later) and at or before the window end. The lists are the index's
        own, so call this, and slice them, under the registry lock."""
        horizon = self.clock.now() - self.retention.incidents
        start = horizon if window.start is None else max(horizon, window.start)
        if scope.kind == "systems":
            keys = [("system", system_id) for system_id in self._systems_with_prefix(scope.value)]
        else:
            keys = [(scope.kind, scope.value)]
        spans = []
        for key in keys:
            reports, rows = self._incidents_by_scope.get(key, _NO_INCIDENTS)
            lo = bisect_left(reports, (start,), key=_INCIDENT_ORDER)
            hi = len(reports) if window.end is None else bisect_left(
                reports, (window.end + 1,), key=_INCIDENT_ORDER)
            spans.append((reports, rows, lo, hi))
        return spans

    def _systems_with_prefix(self, prefix: str) -> Iterator[str]:
        index = bisect_left(self._system_ids, prefix)
        while index < len(self._system_ids) and self._system_ids[index].startswith(prefix):
            yield self._system_ids[index]
            index += 1

    # -- documents and lineage ------------------------------------------------------

    def get_id(self, identifier: InstanceIdentifier) -> SignedId:
        signed = self.documents.get(str(identifier))
        if signed is None:
            raise NotFound(str(identifier), detail="unknown")
        if signed.doc.created_at < self.clock.now() - self.retention.documents:
            raise NotFound(str(identifier), detail="expired")
        return signed

    def get_view(self, identifier: InstanceIdentifier, party: PartyClass) -> DisclosedView:
        signed = self.get_id(identifier)
        return redact(signed, self.disclosure_policy, party)

    def get_lineage(
        self, identifier: InstanceIdentifier, direction: str
    ) -> list[tuple[InstanceIdentifier, bool]]:
        """Related identifiers with their cross-deployer (external) marker."""
        if direction not in ("ancestors", "descendants"):
            raise MalformedRecord(f"bad direction {direction!r}")
        related = (
            self.lineage.ancestors(identifier)
            if direction == "ancestors"
            else self.lineage.descendants(identifier)
        )
        return sorted(
            ((ident, self.lineage.is_external(ident)) for ident in related),
            key=lambda pair: str(pair[0]),
        )

    # -- shutdown marker --------------------------------------------------------------

    def mark_shutdown(self, identifier: InstanceIdentifier, reason: str) -> None:
        with self._lock:
            self._apply(_shutdown_record(self.clock.now(), str(identifier), reason))

    def is_shut_down(self, identifier: InstanceIdentifier) -> bool:
        return str(identifier) in self.shutdowns

    # -- notifications (transient) ------------------------------------------------------

    def notify(self, payload: dict) -> None:
        """Queue a notification about an instance this registry issued a
        document for; any other identifier raises ``UnknownIdentifier``."""
        if payload["identifier"] not in self.documents:
            raise UnknownIdentifier(payload["identifier"])
        self.inbox.append(payload)

    # -- persistence ---------------------------------------------------------------------

    def log_lines(self) -> bytes:
        """The log as canonical JSON lines. Documents and keys are encoded
        here, not when they are logged; each report's own canonical bytes
        are spliced into its line."""
        return b"".join(_log_line(record) for record in self._log)

    def canonical_state_bytes(self) -> bytes:
        with self._lock:
            body = {
                "documents": {
                    key: self.documents[key].to_jsonable() for key in sorted(self.documents)
                },
                "incidents": [report.to_jsonable() for report in self.incidents],
                "lineage": self.lineage.state_jsonable(),
                "nonces": dict(sorted(self._nonces.items())),
                "retention": self.retention.to_jsonable(),
                "shutdowns": {
                    key: self.shutdowns[key] for key in sorted(self.shutdowns)
                },
                "trust": self.trust.to_jsonable(),
            }
        return canonical_json_bytes(body)

    @classmethod
    def replay(
        cls,
        log_data: bytes,
        author_id: str,
        clock=None,
        rng: Optional[random.Random] = None,
        retention: Optional[RetentionConfig] = None,
    ) -> "Registry":
        """Reconstruct a registry from its newline-delimited event log.

        Each line's record is made again the live way (an ``issue``'s
        lineage record by ``LineageStore.build``), must be written back by
        ``_log_line`` as the same bytes, and is then applied by ``_apply``,
        the path of every live mutation. So replay refuses what the live
        registry refuses, and ``log_lines`` of a replayed log is that log. A
        line the registry would not write, or that repeats a report id or a
        nonce, raises ``MalformedRecord``; a record the state cannot take
        raises what the live path raises, such as ``UnknownParent``.
        """
        registry = cls(author_id, clock=clock, rng=rng, retention=retention)
        for line in log_data.splitlines(keepends=True):
            record = _log_record_from_line(line, registry.lineage)
            try:
                registry._apply(record)
            except DuplicateReportId as exc:
                raise MalformedRecord(f"log repeats report id {exc}") from exc
        return registry

    def _apply(self, record: dict) -> None:
        """The one change to the state: check the record against it, apply
        it and log it. Live mutators call this under the registry lock once
        they have done what replay cannot redo; ``replay`` calls it on each
        decoded line. The record's builder has checked its fields but ``at``."""
        if type(record["at"]) is not int:
            raise MalformedRecord(f"record time must be an integer, not {record['at']!r}")
        kind = record["kind"]
        if kind == "register-key":
            self.trust.register_key(record["author_id"], record["key"])
        elif kind == "revoke-key":
            self.trust.revoke_key(record["author_id"], record["key_id"], record["at"])
        elif kind == "issue":
            lineage, signed = record["lineage"], record["signed"]
            if signed is None and lineage["identifier"] not in self.documents:
                raise NotFound(f"no document for reloaded instance {lineage['identifier']}")
            if record["nonce"] in self._nonces:  # the live issue returns its document
                raise MalformedRecord(f"log repeats nonce {record['nonce']!r}")
            key = str(self.lineage.commit(lineage, record["upstream"]))
            if signed is not None:
                self.documents[key] = signed
            if record["nonce"] is not None:
                self._nonces[record["nonce"]] = key
        elif kind == "incident":
            report = record["report"]
            if report.report_id in self._report_ids:
                raise DuplicateReportId(report.report_id)
            if report.identifier not in self.lineage:
                raise UnknownIdentifier(str(report.identifier))
            self._add_incident(report)
        else:
            if record["identifier"] not in self.lineage:
                raise UnknownIdentifier(record["identifier"])
            self.shutdowns[record["identifier"]] = {"at": record["at"], "reason": record["reason"]}
        self._log.append(record)
