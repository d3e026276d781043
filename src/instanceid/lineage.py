"""Instance lifecycle events and the ancestor/descendant DAG.

Identifiers are assigned on lifecycle events (create, reload, regenerate,
merge, fine-tune) and derivation edges accumulate in an append-only store
that knows nothing of time or of any log. ``build`` and ``commit`` are the
only mutators: ``build`` makes the one record of an event without applying
it, and ``commit`` applies it, with the ``branch`` edge from the event's
cross-deployer upstream if it has one. The registry logs each record with
its time and upstream, in the only log there is. ``parents`` alone says
which edges a record adds; the registry derives a document's links from it.
A reload takes no upstream, so an upstream edge always enters a new node and
closes no cycle. ``build`` alone checks an event against the store: registry
replay builds each logged record again from its event and logged identifier
and commits it with its logged upstream, which reconstructs the store
exactly. One lock covers every write and every read that walks the DAG, so a
traversal never meets a half-applied record.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Union

from .canonical import sha256
from .errors import (
    DuplicateConstituents,
    MalformedRecord,
    UnknownConstituent,
    UnknownIdentifier,
    UnknownParent,
    decoding,
)
from .identity import (
    SYSTEM_SENTINEL,
    InstanceIdentifier,
    fresh_instance_id,
    is_token,
    parse_identifier,
)

EDGE_BRANCH = "branch"
EDGE_CONSTITUENT = "constituent"
EDGE_BASE_SYSTEM = "base-system"


@dataclass(frozen=True)
class Created:
    system_id: str
    user_ref: str

    def __post_init__(self):
        if not (is_token(self.system_id) and isinstance(self.user_ref, str)):
            raise MalformedRecord(f"bad created event: {self.system_id!r}, {self.user_ref!r}")


@dataclass(frozen=True)
class Reloaded:
    original: InstanceIdentifier


@dataclass(frozen=True)
class Regenerated:
    parent: InstanceIdentifier
    branch_point: int = 0

    def __post_init__(self):
        if type(self.branch_point) is not int or self.branch_point < 0:
            raise MalformedRecord(f"bad branch_point: {self.branch_point!r}")


@dataclass(frozen=True)
class Merged:
    constituents: tuple[InstanceIdentifier, ...]

    def __post_init__(self):
        if len(self.constituents) < 2:
            raise MalformedRecord("merge needs at least two constituents")


@dataclass(frozen=True)
class FineTuned:
    base_system_id: str

    def __post_init__(self):
        if not is_token(self.base_system_id):
            raise MalformedRecord(f"bad base_system_id token: {self.base_system_id!r}")


LineageEvent = Union[Created, Reloaded, Regenerated, Merged, FineTuned]


def composite_system_id(system_ids: Iterable[str]) -> str:
    """Deterministic token for a composite of the given systems."""
    joined = "\n".join(sorted(set(system_ids))).encode("utf-8")
    return "comp-" + sha256(joined).hex()[:16]


def event_to_jsonable(event: LineageEvent) -> dict:
    if isinstance(event, Created):
        return {"kind": "created", "system_id": event.system_id, "user_ref": event.user_ref}
    if isinstance(event, Reloaded):
        return {"kind": "reloaded", "original": str(event.original)}
    if isinstance(event, Regenerated):
        return {
            "kind": "regenerated",
            "parent": str(event.parent),
            "branch_point": event.branch_point,
        }
    if isinstance(event, Merged):
        return {"kind": "merged", "constituents": [str(c) for c in event.constituents]}
    if isinstance(event, FineTuned):
        return {"kind": "fine-tuned", "base_system_id": event.base_system_id}
    raise MalformedRecord(f"unknown event type {type(event).__name__}")


@decoding("event")
def event_from_jsonable(body: Any) -> LineageEvent:
    kind = body["kind"]
    if kind == "created":
        return Created(body["system_id"], body["user_ref"])
    if kind == "reloaded":
        return Reloaded(parse_identifier(body["original"]))
    if kind == "regenerated":
        return Regenerated(parse_identifier(body["parent"]), body["branch_point"])
    if kind == "merged":
        return Merged(tuple(parse_identifier(c) for c in body["constituents"]))
    if kind == "fine-tuned":
        return FineTuned(body["base_system_id"])
    raise MalformedRecord(f"unknown event kind: {kind!r}")


def parents(record: dict) -> list[tuple[str, str]]:
    """The ``(parent, edge kind)`` pairs of a lineage record, in its order:
    the one place that says which edges, and so which links, it adds."""
    kind = record["kind"]
    if kind == "regenerated":
        return [(record["parent"], EDGE_BRANCH)]
    if kind == "merged":
        return [(constituent, EDGE_CONSTITUENT) for constituent in record["constituents"]]
    if kind == "fine-tuned":
        return [(record["base"], EDGE_BASE_SYSTEM)]
    return []


class LineageStore:
    """Append-only DAG of instance derivations.

    Writes and traversals serialize through one lock. Nodes and edges are
    never removed. The store keeps no log of its own: ``build`` hands its
    record to the caller.
    """

    def __init__(self, rng: Optional[random.Random] = None):
        self._rng = rng
        self._nodes: set[str] = set()
        self._external: set[str] = set()
        self._parents: dict[str, set[tuple[str, str]]] = {}  # child -> {(parent, kind)}
        self._children: dict[str, set[tuple[str, str]]] = {}  # parent -> {(child, kind)}
        self._lock = threading.Lock()

    # -- queries -----------------------------------------------------------

    def __contains__(self, identifier: InstanceIdentifier) -> bool:
        return str(identifier) in self._nodes

    def is_external(self, identifier: InstanceIdentifier) -> bool:
        return str(identifier) in self._external

    def nodes(self) -> set[str]:
        with self._lock:
            return set(self._nodes)

    def edges(self) -> set[tuple[str, str, str]]:
        with self._lock:
            return self._edges()

    def _edges(self) -> set[tuple[str, str, str]]:
        return {
            (parent, child, kind)
            for child, pairs in self._parents.items()
            for parent, kind in pairs
        }

    # -- event registration --------------------------------------------------

    def build(
        self,
        event: LineageEvent,
        upstream: Optional[InstanceIdentifier] = None,
        identifier: Optional[InstanceIdentifier] = None,
    ) -> dict:
        """The record a lifecycle event adds, built but not applied, so that
        a caller can finish the work that depends on the new identifier
        before the store changes, and ``commit`` it only if it succeeds.

        ``upstream`` is checked here and applied by ``commit``: the edge
        from it always enters the new node, which no edge leaves yet, so it
        closes no cycle. A reload, which makes no node, and a node that is
        its own upstream raise ``MalformedRecord``, as does an ``upstream``
        that is not an ``InstanceIdentifier``. A logged ``identifier``
        replaces the draw of a new node's identifier; one that is a node
        already or of another system raises ``MalformedRecord``. Nodes and
        edges are never removed, so these checks still hold at ``commit``;
        callers that build concurrently must serialize build and commit
        themselves.
        """
        if upstream is not None:
            if not isinstance(upstream, InstanceIdentifier):
                raise MalformedRecord(f"upstream must be an InstanceIdentifier, not {upstream!r}")
            if isinstance(event, Reloaded):
                raise MalformedRecord(f"a reload takes no upstream, not {upstream}")
        with self._lock:
            record = self._build_record(event, identifier)
        if upstream is not None and str(upstream) == record["identifier"]:
            raise MalformedRecord(f"{upstream} cannot be its own upstream")
        return record

    def commit(self, record: dict, upstream: Optional[str] = None) -> InstanceIdentifier:
        """Apply a record ``build`` returned and the ``branch`` edge from the
        text of the ``upstream`` it was built with, if any; returns the
        event's identifier. An upstream the store does not hold becomes an
        external node."""
        child = record["identifier"]
        with self._lock:
            for parent, edge in parents(record):
                self._nodes.add(parent)
                self._add_edge(parent, child, edge)
            if record["kind"] != "reloaded":
                self._nodes.add(child)
            if upstream is not None:
                if upstream not in self._nodes:
                    self._external.add(upstream)
                    self._nodes.add(upstream)
                self._add_edge(upstream, child, EDGE_BRANCH)
        return parse_identifier(child)

    def _fresh_id(self, system_id: str, logged: Optional[InstanceIdentifier]) -> str:
        """A new instance of ``system_id``: ``logged``, if it is one, or a draw."""
        if logged is not None:
            if logged.system_id != system_id or logged.is_system_node or logged in self:
                raise MalformedRecord(f"{logged} is not a new instance of {system_id}")
            return str(logged)
        while True:
            candidate = str(InstanceIdentifier(system_id, fresh_instance_id(self._rng)))
            if candidate not in self._nodes:
                return candidate

    def _fresh_system_token(self) -> str:
        if self._rng is None:
            return "ft-" + os.urandom(8).hex()
        return "ft-" + f"{self._rng.getrandbits(64):016x}"

    def _build_record(self, event: LineageEvent, logged: Optional[InstanceIdentifier]) -> dict:
        record = event_to_jsonable(event)
        if isinstance(event, Created):
            record["identifier"] = self._fresh_id(event.system_id, logged)
        elif isinstance(event, Reloaded):
            record["identifier"] = str(event.original)
        elif isinstance(event, Regenerated):
            if str(event.parent) not in self._nodes:
                raise UnknownParent(str(event.parent))
            record["identifier"] = self._fresh_id(event.parent.system_id, logged)
        elif isinstance(event, Merged):
            if len(set(event.constituents)) != len(event.constituents):
                raise DuplicateConstituents(
                    ", ".join(str(c) for c in event.constituents)
                )
            for constituent in event.constituents:
                if str(constituent) not in self._nodes:
                    raise UnknownConstituent(str(constituent))
            system = composite_system_id(c.system_id for c in event.constituents)
            record["identifier"] = self._fresh_id(system, logged)
        elif isinstance(event, FineTuned):
            record["base"] = str(InstanceIdentifier(event.base_system_id, SYSTEM_SENTINEL))
            if logged is None:
                logged = InstanceIdentifier(self._fresh_system_token(), SYSTEM_SENTINEL)
            elif not logged.is_system_node or logged in self or str(logged) == record["base"]:
                raise MalformedRecord(f"{logged} is not a new system node")
            record["identifier"] = str(logged)
        return record

    def _add_edge(self, parent: str, child: str, kind: str) -> None:
        self._parents.setdefault(child, set()).add((parent, kind))
        self._children.setdefault(parent, set()).add((child, kind))

    # -- traversal -----------------------------------------------------------

    def _closure(
        self, identifier: InstanceIdentifier, adjacency: dict[str, set[tuple[str, str]]]
    ) -> set[InstanceIdentifier]:
        start = str(identifier)
        if start not in self._nodes:
            raise UnknownIdentifier(start)
        seen: set[str] = set()
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for nxt, _kind in adjacency.get(current, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        seen.discard(start)
        return {parse_identifier(s) for s in seen}

    def ancestors(self, identifier: InstanceIdentifier) -> set[InstanceIdentifier]:
        with self._lock:
            return self._closure(identifier, self._parents)

    def descendants(self, identifier: InstanceIdentifier) -> set[InstanceIdentifier]:
        with self._lock:
            return self._closure(identifier, self._children)

    def validate_acyclic(self) -> bool:
        """True iff a topological order exists (Kahn's algorithm)."""
        with self._lock:
            indegree = {node: 0 for node in self._nodes}
            for child, pairs in self._parents.items():
                indegree[child] = len(pairs)
            queue = [node for node, deg in indegree.items() if deg == 0]
            visited = 0
            while queue:
                node = queue.pop()
                visited += 1
                for child, _kind in self._children.get(node, ()):
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        queue.append(child)
            return visited == len(self._nodes)

    # -- persistence -----------------------------------------------------------

    def state_jsonable(self) -> dict:
        with self._lock:
            return {
                "edges": sorted(list(edge) for edge in self._edges()),
                "external": sorted(self._external),
                "nodes": sorted(self._nodes),
            }
