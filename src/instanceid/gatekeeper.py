"""Service-provider policy engine: verify presented IDs, gate access.

Rules are an ordered list; the first match wins (firewall convention). No
match, or a rule that requires nothing, allows. A caller with no ID gets the
rule's ``on_missing``: allow or deny with ``no-id``, or throttle with
``no-id``, ``rate-limit`` by a token bucket per transport address. Showing an
ID bypasses that limiter, which is exactly the incentive it exists to create.
Its buckets live in an immutable hash trie that shares structure between
versions: a throttled decision copies one leaf of at most 32 buckets and the
32-slot nodes above it, so it costs the same however many buckets are held
(up to one level more per 32-fold growth), and the limiter it returns is
never changed afterwards, so threads may share it.
A presented ID is checked in this order; the first check that fails denies:

1. the ID or view, then the manifest if one is shown, must verify at the
   request time (never at a time the presenter wrote, which a revoked key's
   holder could backdate), and the manifest must be by the ID's author and
   name the ID and the shown output, else ``unverified`` (so no other
   trusted author can bind an output to the ID); a ``verified-id`` rule
   needs a manifest, the binding of the ID to the output, else
   ``no-manifest``;
2. a ``certification`` rule needs a revealed ``cert:<name>`` property
   attribute, else ``no-certification``;
3. the incident threshold's scope must hold at most ``max_count`` reports,
   else ``incident-threshold``; an unreachable registry gives
   ``registry-unavailable``, allowed only when ``evaluate`` has ``fail_open``.

An ``id`` or ``certification`` rule asks for no manifest, so it is a bearer
check: whoever shows a view that verifies passes it, a view replayed by
someone other than the instance included. Only a ``verified-id`` rule asks
for a manifest by the ID's author that binds the shown output.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Mapping, Optional, Union

from .canonical import b64u
from .disclosure import DisclosedView, verify_view
from .errors import MalformedRecord, NoAuthorInfo, RegistryUnavailable
from .identity import AttributeCategory, AuthorRef, InstanceIdentifier, is_attribute_name
from .incidents import OPEN_WINDOW, IncidentScope
from .verifiability import (
    Manifest,
    SignedId,
    TrustStore,
    manifest_hash,
    verify_id,
    verify_manifest,
)

REQUIREMENT_KINDS = ("none", "id", "verified-id", "certification")
ON_MISSING_KINDS = ("allow", "rate-limit", "deny")


@dataclass(frozen=True)
class RateLimit:
    """requests per window (seconds); integral so admission is exact."""

    requests: int
    window: int

    def __post_init__(self):
        rate = (self.requests, self.window)
        if not all(type(n) is int and n > 0 for n in rate):
            raise MalformedRecord(f"rate must be two positive integers, not {rate!r}")


@dataclass(frozen=True)
class Requirement:
    kind: str
    cert: Optional[str] = None

    def __post_init__(self):
        if self.kind not in REQUIREMENT_KINDS:
            raise MalformedRecord(f"unknown requirement {self.kind!r}")
        named = isinstance(self.cert, str) and is_attribute_name(f"cert:{self.cert}")
        if not (named if self.kind == "certification" else self.cert is None):
            raise MalformedRecord(f"bad cert {self.cert!r} for a {self.kind!r} requirement")

    @classmethod
    def none(cls) -> "Requirement":
        return cls("none")

    @classmethod
    def id_required(cls) -> "Requirement":
        return cls("id")

    @classmethod
    def verified_id(cls) -> "Requirement":
        return cls("verified-id")

    @classmethod
    def certification(cls, cert: str) -> "Requirement":
        return cls("certification", cert)


@dataclass(frozen=True)
class OnMissing:
    kind: str
    rate: Optional[RateLimit] = None

    def __post_init__(self):
        if self.kind not in ON_MISSING_KINDS:
            raise MalformedRecord(f"unknown on_missing {self.kind!r}")
        if (self.kind == "rate-limit") != (self.rate is not None):
            raise MalformedRecord("rate-limit needs a rate")

    @classmethod
    def allow(cls) -> "OnMissing":
        return cls("allow")

    @classmethod
    def deny(cls) -> "OnMissing":
        return cls("deny")

    @classmethod
    def rate_limit(cls, requests: int, window: int) -> "OnMissing":
        return cls("rate-limit", RateLimit(requests, window))


@dataclass(frozen=True)
class IncidentThreshold:
    scope_kind: str  # resolved against the presented identifier
    max_count: int

    def __post_init__(self):
        if self.scope_kind not in ("instance", "system", "systems"):
            raise MalformedRecord(f"bad threshold scope {self.scope_kind!r}")
        if type(self.max_count) is not int or self.max_count < 0:
            raise MalformedRecord(f"threshold must be an integer >= 0, not {self.max_count!r}")


@dataclass(frozen=True)
class PolicyRule:
    action: str  # fnmatch pattern over the action token
    threshold: int = 0  # rule applies when magnitude >= threshold
    requirement: Requirement = Requirement.none()
    on_missing: OnMissing = OnMissing.allow()
    incident_threshold: Optional[IncidentThreshold] = None

    def __post_init__(self):
        if not isinstance(self.action, str):
            raise MalformedRecord(f"action must be a string, not {self.action!r}")
        if type(self.threshold) is not int:
            raise MalformedRecord(f"threshold must be an integer, not {self.threshold!r}")

    def matches(self, ctx: "RequestContext") -> bool:
        return fnmatchcase(ctx.action, self.action) and ctx.magnitude >= self.threshold


@dataclass(frozen=True)
class Presented:
    """What the caller shows: an ID artifact, optionally an output-bound manifest."""

    id_artifact: Union[SignedId, DisclosedView]
    manifest: Optional[Manifest] = None
    output: Optional[bytes] = None

    @property
    def identifier(self) -> InstanceIdentifier:
        if isinstance(self.id_artifact, SignedId):
            return self.id_artifact.doc.identifier
        return self.id_artifact.identifier

    @property
    def author(self) -> AuthorRef:
        if isinstance(self.id_artifact, SignedId):
            return self.id_artifact.doc.author
        return self.id_artifact.author


@dataclass(frozen=True)
class RequestContext:
    action: str
    magnitude: int
    unit: str
    timestamp: int
    caller: str  # transport address; keys the no-ID limiter
    presented: Optional[Presented] = None

    def __post_init__(self):
        if self.magnitude < 0:
            raise MalformedRecord("magnitude must be non-negative")


class GateVerdict:
    ALLOW = "allow"
    THROTTLED = "throttled"
    DENIED = "denied"


@dataclass(frozen=True)
class Decision:
    verdict: str
    reasons: tuple[str, ...] = ()
    admitted: bool = True

    def __post_init__(self):
        if self.verdict in (GateVerdict.DENIED, GateVerdict.THROTTLED) and not self.reasons:
            raise MalformedRecord("denied/throttled decisions must carry a reason")


# -- token-bucket rate limiter -------------------------------------------------


@dataclass(frozen=True, slots=True)
class Bucket:
    tokens: int
    window_start: int


LimiterState = Mapping[str, Bucket]

_BITS = 5
_FANOUT = 1 << _BITS  # children per trie node, and the most buckets a leaf holds
_MASK = _FANOUT - 1
_HASH_BITS = sys.hash_info.width  # past this depth every key of a leaf shares one hash


class _BucketTrie(LimiterState):
    """An immutable ``LimiterState`` that shares structure between versions.

    A hash trie: a node is a tuple of ``_FANOUT`` children indexed by the
    next ``_BITS`` bits of the key's hash, and a leaf is a dict of at most
    ``_FANOUT`` buckets, split into a node when it outgrows that. A version
    made by ``_with`` copies one leaf and the nodes on the path to it, and
    shares everything else with the version it came from. No version is
    changed once made, so any number of threads can read one.
    """

    __slots__ = ("_root", "_len")

    def __init__(self, buckets: LimiterState):
        leaf = dict(buckets)
        self._root = _settle(leaf, 0)
        self._len = len(leaf)

    def _path(self, key: str) -> list:
        """The nodes from the root down to ``key``'s leaf, the leaf last."""
        node, h = self._root, hash(key)
        path = [node]
        while type(node) is tuple:
            node = node[h & _MASK]
            h >>= _BITS
            path.append(node)
        return path

    def __getitem__(self, key: str) -> Bucket:
        return self._path(key)[-1][key]

    def __iter__(self):
        nodes = [self._root]
        while nodes:
            node = nodes.pop()
            if type(node) is tuple:
                nodes.extend(node)
            else:
                yield from node

    def __len__(self) -> int:
        return self._len

    def _with(self, path: list, key: str, bucket: Bucket) -> "_BucketTrie":
        """A new version holding ``bucket`` at ``key``, whose ``_path`` is
        ``path``: the leaf and the nodes above it are copied, every other
        child is shared."""
        leaf = {**path[-1], key: bucket}
        new = object.__new__(_BucketTrie)
        new._len = self._len + (len(leaf) > len(path[-1]))
        node = _settle(leaf, (len(path) - 1) * _BITS)
        h = hash(key)
        for depth in range(len(path) - 2, -1, -1):
            children = list(path[depth])
            children[(h >> depth * _BITS) & _MASK] = node
            node = tuple(children)
        new._root = node
        return new


def _settle(leaf: dict[str, Bucket], shift: int):
    """``leaf`` itself, or a node of leaves split on the hash bits from
    ``shift`` up if it holds more than ``_FANOUT`` buckets."""
    if len(leaf) <= _FANOUT or shift >= _HASH_BITS:
        return leaf
    children = [{} for _ in range(_FANOUT)]
    for key, bucket in leaf.items():
        children[(hash(key) >> shift) & _MASK][key] = bucket
    return tuple(_settle(child, shift + _BITS) for child in children)


def rate_limiter_admit(
    state: LimiterState, key: str, rate: RateLimit, now: int
) -> tuple[bool, LimiterState]:
    """Admit iff a token is available; buckets refill at window boundaries,
    so exactly ``rate.requests`` requests pass per window per key.

    ``state`` is never mutated. The returned limiter is a new, immutable
    version, safe to share across threads, that differs from ``state`` in
    ``key``'s bucket alone. It copies one leaf of at most 32 buckets and one
    32-slot node per trie level, so one call costs the same however many
    buckets are held, up to one level more per 32-fold growth (two levels at
    5,000 buckets). A ``state`` that is not such a version, such as a dict,
    is copied into one first, once."""
    if not isinstance(state, _BucketTrie):
        state = _BucketTrie(state)
    path = state._path(key)
    bucket = path[-1].get(key)
    if bucket is None or now - bucket.window_start >= rate.window:
        tokens = rate.requests
        start = now if bucket is None else now - (now - bucket.window_start) % rate.window
    else:
        tokens, start = bucket.tokens, bucket.window_start
    admitted = tokens > 0
    bucket = Bucket(tokens=tokens - 1 if admitted else tokens, window_start=start)
    return admitted, state._with(path, key, bucket)


# -- evaluation ------------------------------------------------------------------


def _denied(reason: str) -> Decision:
    return Decision(GateVerdict.DENIED, reasons=(reason,), admitted=False)


def _judge_presented(
    rule: PolicyRule,
    ctx: RequestContext,
    trust_store: TrustStore,
    registry_client,
    fail_open: bool,
) -> Decision:
    """Decide on a presented ID by the checks of the module docstring, in order."""
    presented, at = ctx.presented, ctx.timestamp
    artifact, manifest = presented.id_artifact, presented.manifest
    verify = verify_id if isinstance(artifact, SignedId) else verify_view
    if not verify(artifact, trust_store, at).ok or (manifest is not None and (
        manifest.identifier != presented.identifier
        or manifest.author.author_id != presented.author.author_id
        or presented.output is None
        or not verify_manifest(manifest, presented.output, trust_store, at=at).ok
    )):
        return _denied("unverified")
    if manifest is None and rule.requirement.kind == "verified-id":
        return _denied("no-manifest")

    if rule.requirement.kind == "certification":
        if isinstance(artifact, SignedId):
            attributes = artifact.doc.attributes
        else:
            attributes = (entry.attribute for entry in artifact.revealed)
        name = f"cert:{rule.requirement.cert}"
        if not any(
            attr.name == name and attr.category is AttributeCategory.PROPERTY
            for attr in attributes
        ):
            return _denied("no-certification")

    threshold = rule.incident_threshold
    if threshold is not None:
        identifier = presented.identifier
        kind = threshold.scope_kind
        scope = IncidentScope(kind, str(identifier) if kind == "instance" else identifier.system_id)
        try:
            reports = registry_client.query_incidents(scope, OPEN_WINDOW)
        except RegistryUnavailable:
            if fail_open:
                return Decision(GateVerdict.ALLOW, reasons=("registry-unavailable",))
            return _denied("registry-unavailable")
        if len(reports) > threshold.max_count:
            return _denied("incident-threshold")
    return Decision(GateVerdict.ALLOW)


def evaluate(
    rules: list[PolicyRule],
    ctx: RequestContext,
    trust_store: TrustStore,
    registry_client,
    limiter: LimiterState,
    *,
    fail_open: bool = False,
) -> tuple[Decision, LimiterState]:
    """Apply the first matching rule; pure in (policy, ctx, verification
    results, registry responses, limiter state).

    The mapping passed in is never mutated. It is returned as is when no
    bucket changes, and a throttled decision returns a new, immutable mapping
    from ``rate_limiter_admit``, at a cost that does not grow with it."""
    rule = next((r for r in rules if r.matches(ctx)), None)
    if rule is None or rule.requirement.kind == "none":
        decision = Decision(GateVerdict.ALLOW)
    elif ctx.presented is not None:
        decision = _judge_presented(rule, ctx, trust_store, registry_client, fail_open)
    elif rule.on_missing.kind == "allow":
        decision = Decision(GateVerdict.ALLOW, reasons=("no-id",))
    elif rule.on_missing.kind == "deny":
        decision = _denied("no-id")
    else:
        admitted, limiter = rate_limiter_admit(
            limiter, f"addr:{ctx.caller}", rule.on_missing.rate, ctx.timestamp
        )
        decision = Decision(GateVerdict.THROTTLED, ("no-id", "rate-limit"), admitted)
    return decision, limiter


def flag_and_notify(ctx: RequestContext, reason: str) -> dict:
    """Build the deployer notification for a flagged interaction.

    Addressed to the presented ID's author; carries manifest hashes as
    evidence when the caller bound outputs.
    """
    if ctx.presented is None:
        raise NoAuthorInfo("no ID presented")
    evidence = []
    if ctx.presented.manifest is not None:
        evidence.append(b64u(manifest_hash(ctx.presented.manifest)))
    return {
        "at": ctx.timestamp,
        "author": ctx.presented.author.author_id,
        "evidence": evidence,
        "identifier": str(ctx.presented.identifier),
        "reason": reason,
    }
