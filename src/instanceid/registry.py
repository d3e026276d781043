"""Deployer registry: signed ID issuance, lineage serving, incident database.

Every state mutation is one record in an append-only log, the only log in
the package. ``Registry._apply`` alone checks a record against the state,
applies it and logs it: a live mutator does only what replay cannot redo
(nonce lookup, signing key, ``LineageStore.build``, signing the document)
and hands it its record. ``replay`` builds each line's record again the
live way, accepts it only if ``_log_line`` writes it back as the same bytes
and hands it to ``_apply``; so a replayed registry is byte-identical and
refuses what the live one refuses.
Writes and incident queries serialize through the registry lock, and
lineage reads through the lineage store's lock, so no read observes a
partially applied mutation.

The incident database is indexed. Each report sits in one list per indexed
scope it falls in (its instance, its system, its reporter's party class and,
when set, its user), each list sorted by ``(occurred_at, report_id)``; a set
of report ids and a sorted list of system ids sit beside them. With n
reports:

* ``report_incident`` costs O(log n) comparisons plus one list insertion per
  index (duplicate id and identifier checks are set lookups);
* ``query_incidents`` on the ``instance``, ``user``, ``system`` and
  ``party-class`` scopes costs two bisects plus the results it copies out;
  ``systems`` merges the lists of the systems whose id has the prefix;
  ``instance-class`` scans every report and sorts the hits.

Key, issue and incident log records hold references to the registry's own
immutable ``PublicKey``, ``SignedId`` and ``IncidentReport`` objects, so the
log keeps no second copy of any key, document or report. A report encodes
its canonical bytes once, on first use, and keeps them
(``IncidentReport.canonical_bytes``): ``log_lines`` splices them into each
``incident`` line, and the service splices them into ``query-incidents``
replies, so a report is encoded once however often it is logged or served.

Decoding a report (``IncidentReport.from_jsonable``: each report of a
``query-incidents`` reply on the client, each ``incident`` line in replay)
looks its severity up in a table built from ``Severity`` and takes its
identifier from ``parse_identifier``, whose bounded memo returns an
identifier seen recently without checking its tokens again. In-process, a
2,000-report reply over 1,000 identifiers decodes in ~5.7 ms, ~2 ms of it
``load_canonical`` and ~1.8 us per report (Python 3.11, one core of a
2-vCPU VM).
"""

from __future__ import annotations

import enum
import heapq
import random
import threading
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Optional

from .canonical import canonical_json_bytes, canonical_json_line, load_canonical
from .clock import SystemClock
from .disclosure import DisclosedView, DisclosurePolicy, AttributeMatcher, PartyClass, redact
from .errors import (
    DuplicateReportId,
    MalformedRecord,
    NoActiveKey,
    NotFound,
    UnknownIdentifier,
    UnknownInstanceClass,
    decoding,
)
from .identity import (
    Attribute,
    AttributeCategory,
    AttributeSpecificity,
    AuthorRef,
    IdDocument,
    InstanceIdentifier,
    add_attribute,
    add_link,
    is_token,
    new_id_document,
    parse_identifier,
)
from .lineage import (
    Created,
    FineTuned,
    LineageEvent,
    LineageStore,
    Merged,
    Regenerated,
    Reloaded,
    event_from_jsonable,
)
from .verifiability import (
    KEY_REVOKED,
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


@dataclass(frozen=True)
class IncidentReport:
    report_id: str
    identifier: InstanceIdentifier
    reporter: str
    severity: Severity
    description: str
    occurred_at: int
    user_ref: Optional[str] = None

    def __post_init__(self):
        if not (
            isinstance(self.report_id, str)
            and isinstance(self.reporter, str)
            and isinstance(self.description, str)
        ):
            raise MalformedRecord("report_id, reporter and description must be strings")
        if type(self.occurred_at) is not int:
            raise MalformedRecord(f"occurred_at must be an integer, not {self.occurred_at!r}")
        if self.user_ref is not None and not isinstance(self.user_ref, str):
            raise MalformedRecord(f"user_ref must be a string or null, not {self.user_ref!r}")

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
    def from_jsonable(cls, body: Any) -> "IncidentReport":
        return cls(
            body["report_id"],
            parse_identifier(body["identifier"]),
            body["reporter"],
            _SEVERITIES[body["severity"]],
            body["description"],
            body["occurred_at"],
            body.get("user_ref"),
        )


SCOPE_KINDS = (
    "instance",
    "user",
    "system",
    "systems",
    "party-class",
    "instance-class",
)


@dataclass(frozen=True)
class IncidentScope:
    """One of six specificity levels an incident query can target."""

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

    @classmethod
    def instance_class(cls, predicate_token: str) -> "IncidentScope":
        return cls("instance-class", predicate_token)

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

    def contains(self, at: int) -> bool:
        if self.start is not None and at < self.start:
            return False
        if self.end is not None and at > self.end:
            return False
        return True

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


def _cut(reports: list[IncidentReport], start: int, end: Optional[int]) -> list[IncidentReport]:
    """Copy of the sorted reports with start <= occurred_at <= end."""
    lo = bisect_left(reports, (start,), key=_INCIDENT_ORDER)
    hi = len(reports) if end is None else bisect_left(reports, (end + 1,), key=_INCIDENT_ORDER)
    return reports[lo:hi]


def _log_line(record: dict) -> bytes:
    """The canonical log line of a record that may hold the registry's objects."""
    kind = record["kind"]
    if kind == "incident":
        # the canonical form of {"at", "kind", "report"}: keys in that order
        return b'{"at":%d,"kind":"incident","report":%s}\n' % (
            record["at"],
            record["report"].canonical_bytes,
        )
    if kind == "issue" and record["signed"] is not None:
        record = {**record, "signed": record["signed"].to_jsonable()}
    elif kind == "register-key":
        record = {**record, "key": record["key"].to_jsonable()}
    return canonical_json_line(record)


def _key_record(at: int, author_id: str, key: PublicKey) -> dict:
    return {"at": at, "author_id": author_id, "key": key, "kind": "register-key"}


def _revoke_record(at: int, author_id: str, key_id: str) -> dict:
    return {"at": at, "author_id": author_id, "key_id": key_id, "kind": "revoke-key"}


def _shutdown_record(at: int, identifier: str, reason: str) -> dict:
    return {"at": at, "identifier": identifier, "kind": "shutdown", "reason": reason}


def _issue_record(
    at: int,
    lineage: dict,
    external: Optional[dict],
    nonce: Optional[str],
    signed: Optional[SignedId],
    upstream: Optional[InstanceIdentifier],
) -> dict:
    """The log record of an ``issue``; a reload's has no ``external`` field."""
    record = {"at": at, "kind": "issue", "lineage": lineage, "nonce": nonce, "signed": signed}
    record["upstream"] = None if upstream is None else str(upstream)
    if lineage["kind"] != "reloaded":
        record["external"] = external
    return record


@decoding("registry log")
def _log_record_from_line(line: bytes, lineage: LineageStore) -> dict:
    """The record whose log line is ``line``, with its key, document or
    report decoded. A key, revocation, shutdown or ``issue`` record is built
    again from its decoded fields by the helper its live mutator uses, an
    ``issue``'s lineage records by ``lineage.build`` (which reads the store
    and changes nothing) from the logged event and identifier. Only the
    fields that feed the state are checked one by one; the line must then
    be the one ``_log_line`` writes for the record, byte for byte, so a
    field the live registry never writes is refused."""
    record = load_canonical(line)
    kind, at = record["kind"], record["at"]
    valid = type(at) is int
    if kind == "register-key":
        # TrustStore.add_record checks the author id
        record = _key_record(at, record["author_id"], PublicKey.from_jsonable(record["key"]))
    elif kind == "revoke-key":
        author_id, key_id = record["author_id"], record["key_id"]
        valid = valid and is_token(author_id) and is_token(key_id)
        record = _revoke_record(at, author_id, key_id)
    elif kind == "issue":
        logged, nonce, signed = record["lineage"], record["nonce"], record["signed"]
        event = event_from_jsonable(logged)
        identifier = parse_identifier(logged["identifier"])
        reload, upstream = isinstance(event, Reloaded), record["upstream"]
        # a reload names no upstream; only a reload has no document of its
        # own, and _apply files any other under the lineage identifier
        upstream = None if reload or upstream is None else parse_identifier(upstream)
        valid = valid and (signed is None) == reload and (nonce is None or isinstance(nonce, str))
        if signed is not None:
            signed = SignedId.from_jsonable(signed)
            valid = valid and signed.doc.identifier == identifier
    elif kind == "incident":
        record["report"] = IncidentReport.from_jsonable(record["report"])
    elif kind == "shutdown":
        identifier, reason = record["identifier"], record["reason"]
        parse_identifier(identifier)
        valid = valid and isinstance(reason, str)
        record = _shutdown_record(at, identifier, reason)
    else:
        raise MalformedRecord(f"unknown log record kind {kind!r}")
    if not valid:
        raise MalformedRecord(f"bad {kind} record fields")
    if kind == "issue":
        built = lineage.build(event, at, upstream, identifier)
        record = _issue_record(at, *built, nonce, signed, upstream)
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
        disclosure_policy: Optional[DisclosurePolicy] = None,
    ):
        self.author_id = author_id
        self.clock = clock or SystemClock()
        self._rng = rng
        self.retention = retention or RetentionConfig()
        self.disclosure_policy = disclosure_policy or default_disclosure_policy()
        self.lineage = LineageStore(rng=rng)
        self.documents: dict[str, SignedId] = {}
        self.incidents: list[IncidentReport] = []  # arrival order
        self._report_ids: set[str] = set()
        # (scope kind, value) -> reports sorted by _INCIDENT_ORDER
        self._incidents_by_scope: dict[tuple[str, str], list[IncidentReport]] = {}
        self._system_ids: list[str] = []  # sorted; systems that have reports
        self.trust = TrustStore()
        self.shutdowns: dict[str, dict] = {}
        self.inbox: list[dict] = []
        self._signing: Optional[KeyPair] = None
        self._nonces: dict[str, str] = {}
        self._instance_classes: dict[str, Callable[[IdDocument], bool]] = {}
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

    def revoke_key(self, author_id: str, key_id: str, at: Optional[int] = None) -> None:
        with self._lock:
            stamp = self.clock.now() if at is None else at
            self._apply(_revoke_record(stamp, author_id, key_id))

    def active_keypair(self) -> KeyPair:
        if self._signing is None:
            raise NoActiveKey(self.author_id)
        record = self.trust.lookup(self._signing.author_id, self._signing.key_id)
        if record is None or record.status == KEY_REVOKED:
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

        Auto-attaches the links the event prescribes plus a standing link to
        the incident database scoped to the system. ``upstream`` records a
        cross-deployer parent (stub lineage node, ancestor and
        upstream-deployer links). Idempotent per client-supplied nonce.
        """
        with self._lock:
            if nonce is not None and nonce in self._nonces:
                return self.documents[self._nonces[nonce]]
            keypair = self.active_keypair()
            at = self.clock.now()

            if isinstance(event, Reloaded):
                self._apply(_issue_record(at, *self.lineage.build(event, at), nonce, None, None))
                return self.documents[str(event.original)]

            # the lineage changes only once the document is built and signed,
            # so a refused issue leaves no node that the log does not hold
            lineage_record, external_record = self.lineage.build(event, at, upstream)
            identifier = parse_identifier(lineage_record["identifier"])

            doc = new_id_document(identifier, AuthorRef(self.author_id, keypair.key_id), at)
            doc = self._attach_auto_links(doc, event, upstream)
            doc = self._attach_auto_attributes(doc, event)
            for attr in attributes:
                doc = add_attribute(doc, attr, rng=self._rng)
            signed = sign_id(doc, keypair, trust_store=self.trust)
            self._apply(
                _issue_record(at, lineage_record, external_record, nonce, signed, upstream)
            )
            return signed

    def _attach_auto_links(
        self,
        doc: IdDocument,
        event: LineageEvent,
        upstream: Optional[InstanceIdentifier],
    ) -> IdDocument:
        if isinstance(event, Regenerated):
            doc = add_link(doc, "ancestor", event.parent)
        elif isinstance(event, Merged):
            for constituent in event.constituents:
                doc = add_link(doc, "constituent", constituent)
        elif isinstance(event, FineTuned):
            doc = add_link(
                doc, "base-system", InstanceIdentifier(event.base_system_id, "_system")
            )
        if upstream is not None:
            doc = add_link(doc, "ancestor", upstream)
            doc = add_link(doc, "upstream-deployer", upstream)
        return doc

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
        for key in _scope_keys(report):
            insort(self._incidents_by_scope.setdefault(key, []), report, key=_INCIDENT_ORDER)
        self._report_ids.add(report.report_id)
        self.incidents.append(report)

    def register_instance_class(
        self, token: str, predicate: Callable[[IdDocument], bool]
    ) -> None:
        self._instance_classes[token] = predicate

    def query_incidents(
        self, scope: IncidentScope, window: TimeWindow = OPEN_WINDOW
    ) -> list[IncidentReport]:
        """Reports matching the scope, retention-filtered, ordered by
        (occurred_at, report_id), in a new list the caller may keep.

        ``instance``, ``user``, ``system`` and ``party-class`` bisect one
        sorted index list at the retention horizon (or the window start, if
        later) and at the window end, and copy the slice between: O(log n +
        results) for n reports. ``systems`` does the same on each system
        whose id has the prefix, found by bisecting the sorted system ids,
        and merges the slices. ``instance-class`` scans every report and
        sorts the hits.
        """
        predicate = None
        if scope.kind == "instance-class":
            predicate = self._instance_classes.get(scope.value)
            if predicate is None:
                raise UnknownInstanceClass(scope.value)
        with self._lock:
            horizon = self.clock.now() - self.retention.incidents
            if predicate is not None:
                return sorted(
                    (
                        report
                        for report in self.incidents
                        if report.occurred_at >= horizon
                        and window.contains(report.occurred_at)
                        and self._in_class(report, predicate)
                    ),
                    key=_INCIDENT_ORDER,
                )
            start = horizon if window.start is None else max(horizon, window.start)
            if scope.kind != "systems":
                return _cut(
                    self._incidents_by_scope.get((scope.kind, scope.value), []),
                    start,
                    window.end,
                )
            slices = [
                _cut(self._incidents_by_scope[("system", system_id)], start, window.end)
                for system_id in self._systems_with_prefix(scope.value)
            ]
        return list(heapq.merge(*slices, key=_INCIDENT_ORDER))

    def _in_class(self, report: IncidentReport, predicate: Callable[[IdDocument], bool]) -> bool:
        signed = self.documents.get(str(report.identifier))
        return signed is not None and predicate(signed.doc)

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
        disclosure_policy: Optional[DisclosurePolicy] = None,
    ) -> "Registry":
        """Reconstruct a registry from its newline-delimited event log.

        Each line's record is made again the live way (an ``issue``'s
        lineage records by ``LineageStore.build``), must be written back by
        ``_log_line`` as the same bytes, and is then applied by ``_apply``,
        the path of every live mutation. So replay refuses what the live
        registry refuses, and ``log_lines`` of a replayed log is that log. A
        line the registry would not write, or that repeats a report id or a
        nonce, raises ``MalformedRecord``; a record the state cannot take
        raises what the live path raises, such as ``UnknownParent``.
        """
        registry = cls(
            author_id,
            clock=clock,
            rng=rng,
            retention=retention,
            disclosure_policy=disclosure_policy,
        )
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
        decoded line."""
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
            key = str(self.lineage.commit(lineage, record.get("external")))
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
