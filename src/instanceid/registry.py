"""Deployer registry: signed ID issuance, lineage serving, incident database.

Every state mutation is one record in an append-only log, the only log in
the package. A record is built by one helper per kind (``_issue_record`` and
the like), which refuses fields of the wrong kind, and ``Registry._apply``
alone checks its time and the record against the state, applies it and logs
it: a live mutator does only what replay cannot redo (nonce lookup, signing
key, ``LineageStore.build``, signing the document) and hands the helper's
record to ``_apply``. ``replay`` builds each line's record again with the
same helpers, accepts it only if ``_log_line`` writes it back as the same
bytes and hands it to ``_apply``; so a replayed registry is byte-identical
and refuses what the live one refuses, and no other module checks a
mutation's fields. ``_log_line`` alone knows a line's shape, and writes an
``issue`` line's lineage time and ``external`` link from the record's time,
lineage identifier and upstream; ``_links`` derives a document's links from
the last two, and replay refuses a logged document with any other links.
Writes and incident queries serialize through the registry lock, and
lineage reads through the lineage store's lock, so no read observes a
partially applied mutation.

The incident database is ``incidents.IncidentIndex``, which keeps each
report's row; the registry keeps the reports in arrival order, applies the
retention horizon to every query and answers ``query_incidents`` by
decoding ``incident_rows``, so both read one path.

Key, issue and incident log records hold references to the registry's own
immutable ``PublicKey``, ``SignedId`` and ``IncidentReport`` objects, so the
log keeps no second copy of any key, document or report; ``log_lines``
encodes each when it writes its line.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Iterable, Optional

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
from .incidents import OPEN_WINDOW, IncidentIndex, IncidentReport, IncidentScope, TimeWindow
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


def _log_line(record: dict) -> bytes:
    """The canonical log line of a record that may hold the registry's
    objects; it derives an ``issue`` line's lineage time and ``external`` link."""
    kind = record["kind"]
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
    elif kind == "incident":
        record = {**record, "report": record["report"].to_jsonable()}
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
    logged event and identifier, and an ``incident`` record around its
    decoded report. The line must then be the one ``_log_line``
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
        report = IncidentReport.from_jsonable(record["report"])
        record = {"at": at, "kind": "incident", "report": report}
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
        self._incident_index = IncidentIndex()
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
                self._apply(_key_record(self.clock.now(), keypair.author_id, public))
            elif existing.key.public != public.public:
                raise MalformedRecord(
                    f"key_id {keypair.key_id!r} already bound to a different key"
                )
            self._signing = keypair

    def register_foreign_key(self, author_id: str, key: PublicKey) -> None:
        with self._lock:
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

    def query_incidents(
        self, scope: IncidentScope, window: TimeWindow = OPEN_WINDOW
    ) -> list[IncidentReport]:
        """Reports matching the scope, retention-filtered, ordered by
        (occurred_at, report_id), in a new list the caller may keep: the
        rows of ``incident_rows(scope, window)``, decoded."""
        rows = self.incident_rows(scope, window)
        return IncidentReport.from_table(load_canonical(b"".join((b"[", rows, b"]"))))

    def incident_rows(self, scope: IncidentScope, window: TimeWindow = OPEN_WINDOW) -> bytes:
        """The rows of the reports matching the scope, retention-filtered,
        ordered by (occurred_at, report_id) and joined with commas: the
        items of a ``query-incidents`` table."""
        horizon = self.clock.now() - self.retention.incidents
        with self._lock:  # the index copies its slices under it; the join reads the copies
            rows = self._incident_index.rows(scope, window, horizon)
        return b",".join(rows)

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
        """The log as canonical JSON lines. Documents, keys and reports are
        encoded here, not when they are logged."""
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
            if report.report_id in self._incident_index:
                raise DuplicateReportId(report.report_id)
            if report.identifier not in self.lineage:
                raise UnknownIdentifier(str(report.identifier))
            self._incident_index.add(report)
            self.incidents.append(report)
        else:
            if record["identifier"] not in self.lineage:
                raise UnknownIdentifier(record["identifier"])
            self.shutdowns[record["identifier"]] = {"at": record["at"], "reason": record["reason"]}
        self._log.append(record)
