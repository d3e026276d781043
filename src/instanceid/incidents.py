"""Incident database: reports, the scopes and windows that select them, and
their index.

``IncidentIndex`` keeps one list per indexed scope a report falls in (its
instance, its system, its reporter's party class and, when set, its user).
Each list holds entries ``(occurred_at, report_id, row)``, kept sorted with
a plain ``insort``: report ids are unique, so two entries never tie on the
first two fields and the row is never compared, and the entries sort in
the order every query returns. ``row`` is ``_row_bytes``, the report's
seven fields as canonical JSON array items, encoded once as the report
enters the index, live or replayed; one entry tuple is shared by all of
the report's scopes. A set of report ids and a sorted list of system ids
sit beside the lists. The index keeps no report object: its rows are the
only form a query reads. With n reports:

* ``add`` costs one ``insort`` per scope, each O(n) for its list move
  (ROADMAP item 13); through ``Registry.report_incident``, with a random
  ``occurred_at`` (the reporter chooses it), ~12-14 us at 10k reports and
  ~15-23 us at 100k. The duplicate id check is a set;
* ``rows`` costs two bisects and one copied slice on the ``instance``,
  ``user``, ``system`` and ``party-class`` scopes. ``systems`` merges the
  slices of each system whose id has the prefix with ``heapq.merge`` on the
  entries themselves. ``Registry.incident_rows`` slices and joins the
  2,503-report (299 KB) party-class table of a 10k-report registry in
  ~93-99 us, and the 10k-report ``systems`` table of all eight systems in
  ~3.7-4.0 ms.

Times are the fastest and the median of 200 or more runs on one core of a
2-vCPU VM, Python 3.11.

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
from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Iterable, Iterator, NamedTuple, Optional

from .canonical import canonical_json_bytes
from .errors import MalformedRecord, decoding
from .identity import InstanceIdentifier, parse_identifier, shared_text


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
    no report skips the checks. A report has no ``__dict__``, so assigning
    or deleting any attribute raises ``AttributeError``. A report compares
    and hashes as the tuple of its fields.
    """

    __slots__ = ()

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
        ``user_ref`` is null. Its reporter is the ``shared_text`` one, which
        the registry's reports of that reporter hold; ``from_table`` shares
        no text, since the reports of a reply are the caller's to drop."""
        return cls.from_table([
            body["report_id"], body["identifier"], shared_text(body["reporter"]), body["severity"],
            body["description"], body["occurred_at"], body.get("user_ref"),
        ])[0]


SCOPE_KINDS = (
    "instance",
    "user",
    "system",
    "systems",
    "party-class",
)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
            return OPEN_WINDOW
        return cls(body.get("start"), body.get("end"))


OPEN_WINDOW = TimeWindow()


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


class IncidentIndex:
    """The reports' rows, one sorted entry list per scope (see the module
    docstring). It does no locking: its owner serializes every call."""

    def __init__(self) -> None:
        # (scope kind, value) -> entries (occurred_at, report_id, row), sorted
        self._by_scope: dict[tuple[str, str], list[tuple[int, str, bytes]]] = {}
        self._report_ids: set[str] = set()
        self._system_ids: list[str] = []  # sorted; systems that have reports

    def __contains__(self, report_id: str) -> bool:
        return report_id in self._report_ids

    def add(self, report: IncidentReport) -> None:
        """File the report's row under every scope it falls in; its id must
        not be in the index."""
        system_id = report.identifier.system_id
        if ("system", system_id) not in self._by_scope:
            insort(self._system_ids, system_id)
        entry = (report.occurred_at, report.report_id, _row_bytes(report))
        for key in _scope_keys(report):
            insort(self._by_scope.setdefault(key, []), entry)
        self._report_ids.add(report.report_id)

    def rows(self, scope: IncidentScope, window: TimeWindow, horizon: int) -> Iterator[bytes]:
        """The rows of the reports in ``scope`` that occurred inside
        ``window`` and at or after ``horizon``, ordered by (occurred_at,
        report_id). The slices they come from are copied before this
        returns, so the iterator reads nothing the index changes later."""
        start = horizon if window.start is None else max(horizon, window.start)
        if scope.kind == "systems":
            keys = [("system", system_id) for system_id in self._systems_with_prefix(scope.value)]
        else:
            keys = [(scope.kind, scope.value)]
        slices = []
        for key in keys:
            entries = self._by_scope.get(key, ())
            lo = bisect_left(entries, (start,))
            hi = len(entries) if window.end is None else bisect_left(entries, (window.end + 1,))
            slices.append(entries[lo:hi])
        return map(itemgetter(2), slices[0] if len(slices) == 1 else heapq.merge(*slices))

    def _systems_with_prefix(self, prefix: str) -> Iterator[str]:
        index = bisect_left(self._system_ids, prefix)
        while index < len(self._system_ids) and self._system_ids[index].startswith(prefix):
            yield self._system_ids[index]
            index += 1
