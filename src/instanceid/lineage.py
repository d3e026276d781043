"""Instance lifecycle events and the ancestor/descendant DAG.

Identifiers are assigned on lifecycle events (create, reload, regenerate,
merge, fine-tune) and derivation edges accumulate in an append-only store.
Every mutation is funnelled through a single record-application path, so
replaying the newline-delimited event log reconstructs the store exactly.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Union

from .canonical import canonical_json_bytes, canonical_json_line, load_canonical, sha256
from .errors import (
    DuplicateConstituents,
    MalformedRecord,
    UnknownConstituent,
    UnknownIdentifier,
    UnknownParent,
)
from .identity import (
    SYSTEM_SENTINEL,
    InstanceIdentifier,
    fresh_instance_id,
    parse_identifier,
)

EDGE_BRANCH = "branch"
EDGE_CONSTITUENT = "constituent"
EDGE_BASE_SYSTEM = "base-system"


@dataclass(frozen=True)
class Created:
    system_id: str
    user_ref: str


@dataclass(frozen=True)
class Reloaded:
    original: InstanceIdentifier


@dataclass(frozen=True)
class Regenerated:
    parent: InstanceIdentifier
    branch_point: int = 0

    def __post_init__(self):
        if self.branch_point < 0:
            raise MalformedRecord("branch_point must be non-negative")


@dataclass(frozen=True)
class Merged:
    constituents: tuple[InstanceIdentifier, ...]

    def __post_init__(self):
        if len(self.constituents) < 2:
            raise MalformedRecord("merge needs at least two constituents")


@dataclass(frozen=True)
class FineTuned:
    base_system_id: str


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


def event_from_jsonable(body: Any) -> LineageEvent:
    if not isinstance(body, dict):
        raise MalformedRecord("event must be an object")
    try:
        kind = body["kind"]
        if kind == "created":
            if not isinstance(body["user_ref"], str):
                raise MalformedRecord(f"user_ref must be a string, not {body['user_ref']!r}")
            return Created(body["system_id"], body["user_ref"])
        if kind == "reloaded":
            return Reloaded(parse_identifier(body["original"]))
        if kind == "regenerated":
            return Regenerated(parse_identifier(body["parent"]), body["branch_point"])
        if kind == "merged":
            return Merged(tuple(parse_identifier(c) for c in body["constituents"]))
        if kind == "fine-tuned":
            return FineTuned(body["base_system_id"])
    except KeyError as exc:
        raise MalformedRecord(f"event missing field: {exc}") from exc
    raise MalformedRecord(f"unknown event kind: {body.get('kind')!r}")


class LineageStore:
    """Append-only DAG of instance derivations.

    Many concurrent readers are safe; writes serialize through one lock.
    Nodes and edges are never removed.
    """

    def __init__(self, rng: Optional[random.Random] = None):
        self._rng = rng
        self._nodes: set[str] = set()
        self._external: set[str] = set()
        self._parents: dict[str, set[tuple[str, str]]] = {}  # child -> {(parent, kind)}
        self._children: dict[str, set[tuple[str, str]]] = {}  # parent -> {(child, kind)}
        self._log: list[dict] = []
        self._lock = threading.Lock()

    # -- queries -----------------------------------------------------------

    def __contains__(self, identifier: InstanceIdentifier) -> bool:
        return str(identifier) in self._nodes

    def is_external(self, identifier: InstanceIdentifier) -> bool:
        return str(identifier) in self._external

    def nodes(self) -> set[str]:
        return set(self._nodes)

    def edges(self) -> set[tuple[str, str, str]]:
        out = set()
        for child, pairs in self._parents.items():
            for parent, kind in pairs:
                out.add((parent, child, kind))
        return out

    def event_count(self) -> int:
        return len(self._log)

    # -- event registration --------------------------------------------------

    def register(
        self,
        event: LineageEvent,
        at: int = 0,
        forced: Optional[InstanceIdentifier] = None,
    ) -> InstanceIdentifier:
        """Apply a lifecycle event; returns the identifier it resolves to.

        ``forced`` pins the generated identifier and exists for replay; live
        callers leave it unset.
        """
        with self._lock:
            record = self._build_record(event, at, forced)
            return self._apply(record)

    def link_external_parent(
        self, parent: InstanceIdentifier, child: InstanceIdentifier, at: int = 0
    ) -> None:
        """Record a cross-deployer derivation: stub parent node + branch edge."""
        with self._lock:
            if str(child) not in self._nodes:
                raise UnknownIdentifier(str(child))
            if str(parent) in self._nodes and parent in self._closure(child, self._children):
                raise UnknownParent(f"{parent} descends from {child}; edge would cycle")
            record = {
                "at": at,
                "kind": "external-link",
                "parent": str(parent),
                "child": str(child),
            }
            self._apply(record)

    def apply_record(self, record: dict) -> InstanceIdentifier:
        """Replay one persisted record (the registry's replay path)."""
        with self._lock:
            return self._apply(dict(record))

    def _fresh_id(self, system_id: str) -> InstanceIdentifier:
        while True:
            candidate = InstanceIdentifier(system_id, fresh_instance_id(self._rng))
            if str(candidate) not in self._nodes:
                return candidate

    def _fresh_system_token(self) -> str:
        if self._rng is None:
            import os

            return "ft-" + os.urandom(8).hex()
        return "ft-" + f"{self._rng.getrandbits(64):016x}"

    def _build_record(
        self, event: LineageEvent, at: int, forced: Optional[InstanceIdentifier]
    ) -> dict:
        record = dict(event_to_jsonable(event))
        record["at"] = at
        if isinstance(event, Created):
            ident = forced or self._fresh_id(event.system_id)
            record["identifier"] = str(ident)
        elif isinstance(event, Reloaded):
            record["identifier"] = str(event.original)
        elif isinstance(event, Regenerated):
            if str(event.parent) not in self._nodes:
                raise UnknownParent(str(event.parent))
            ident = forced or self._fresh_id(event.parent.system_id)
            record["identifier"] = str(ident)
        elif isinstance(event, Merged):
            if len(set(event.constituents)) != len(event.constituents):
                raise DuplicateConstituents(
                    ", ".join(str(c) for c in event.constituents)
                )
            for constituent in event.constituents:
                if str(constituent) not in self._nodes:
                    raise UnknownConstituent(str(constituent))
            system = composite_system_id(c.system_id for c in event.constituents)
            ident = forced or self._fresh_id(system)
            record["identifier"] = str(ident)
        elif isinstance(event, FineTuned):
            new_system = forced.system_id if forced else self._fresh_system_token()
            record["identifier"] = f"{new_system}{':'}{SYSTEM_SENTINEL}"
            record["base"] = f"{event.base_system_id}{':'}{SYSTEM_SENTINEL}"
        return record

    def _add_node(self, identifier: str, external: bool = False) -> None:
        self._nodes.add(identifier)
        if external:
            self._external.add(identifier)

    def _add_edge(self, parent: str, child: str, kind: str) -> None:
        self._parents.setdefault(child, set()).add((parent, kind))
        self._children.setdefault(parent, set()).add((child, kind))

    def _apply(self, record: dict) -> InstanceIdentifier:
        kind = record["kind"]
        ident = parse_identifier(record["identifier"]) if "identifier" in record else None
        if kind == "created":
            self._add_node(record["identifier"])
        elif kind == "reloaded":
            pass  # identifier retained; no node, no edge
        elif kind == "regenerated":
            if record["parent"] not in self._nodes:
                raise UnknownParent(record["parent"])
            self._add_node(record["identifier"])
            self._add_edge(record["parent"], record["identifier"], EDGE_BRANCH)
        elif kind == "merged":
            for constituent in record["constituents"]:
                if constituent not in self._nodes:
                    raise UnknownConstituent(constituent)
            self._add_node(record["identifier"])
            for constituent in record["constituents"]:
                self._add_edge(constituent, record["identifier"], EDGE_CONSTITUENT)
        elif kind == "fine-tuned":
            self._add_node(record["base"])
            self._add_node(record["identifier"])
            self._add_edge(record["base"], record["identifier"], EDGE_BASE_SYSTEM)
        elif kind == "external-link":
            if record["child"] not in self._nodes:
                raise UnknownIdentifier(record["child"])
            if record["parent"] not in self._nodes:
                self._add_node(record["parent"], external=True)
            self._add_edge(record["parent"], record["child"], EDGE_BRANCH)
            ident = parse_identifier(record["child"])
        else:
            raise MalformedRecord(f"unknown lineage record kind {kind!r}")
        self._log.append(record)
        return ident

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
        return self._closure(identifier, self._parents)

    def descendants(self, identifier: InstanceIdentifier) -> set[InstanceIdentifier]:
        return self._closure(identifier, self._children)

    def validate_acyclic(self) -> bool:
        """True iff a topological order exists (Kahn's algorithm)."""
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

    def log_records(self) -> list[dict]:
        return [dict(r) for r in self._log]

    def to_log_lines(self) -> bytes:
        return b"".join(canonical_json_line(record) for record in self._log)

    @classmethod
    def from_log_lines(cls, data: bytes, rng: Optional[random.Random] = None) -> "LineageStore":
        store = cls(rng=rng)
        for line in data.splitlines():
            if line.strip():
                store._apply(load_canonical(line))
        return store

    def state_jsonable(self) -> dict:
        return {
            "edges": sorted(list(edge) for edge in self.edges()),
            "external": sorted(self._external),
            "nodes": sorted(self._nodes),
        }

    def state_bytes(self) -> bytes:
        return canonical_json_bytes(self.state_jsonable())


# Spec-surface functional aliases.

def register_event(
    store: LineageStore, event: LineageEvent, at: int = 0
) -> InstanceIdentifier:
    return store.register(event, at)


def ancestors(store: LineageStore, identifier: InstanceIdentifier) -> set[InstanceIdentifier]:
    return store.ancestors(identifier)


def descendants(store: LineageStore, identifier: InstanceIdentifier) -> set[InstanceIdentifier]:
    return store.descendants(identifier)


def validate_acyclic(store: LineageStore) -> bool:
    return store.validate_acyclic()
