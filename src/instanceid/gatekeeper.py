"""Service-provider policy engine: verify presented IDs, gate access.

Rules are an ordered list; the first match wins (firewall convention).
A matching rule can require an ID, full output-bound verification, or a
named certification, throttle or refuse ID-less callers, and refuse
instances with too many prior incidents. ID-less rate limiting keys on the
caller's transport address; presenting a verified ID bypasses that limiter,
which is exactly the incentive the limiter exists to create.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fnmatch import fnmatchcase
from typing import Any, Mapping, Optional, Union

from .canonical import b64u
from .disclosure import DisclosedView, PartyClass, verify_view
from .errors import MalformedRecord, NoAuthorInfo, RegistryUnavailable
from .identity import AttributeCategory, InstanceIdentifier
from .registry import IncidentScope, TimeWindow
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
        if self.requests <= 0 or self.window <= 0:
            raise MalformedRecord("rate must be positive")


@dataclass(frozen=True)
class Requirement:
    kind: str
    cert: Optional[str] = None

    def __post_init__(self):
        if self.kind not in REQUIREMENT_KINDS:
            raise MalformedRecord(f"unknown requirement {self.kind!r}")
        if (self.kind == "certification") != (self.cert is not None):
            raise MalformedRecord("certification requirement needs a cert name")

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
        if self.max_count < 0:
            raise MalformedRecord("threshold must be non-negative")


@dataclass(frozen=True)
class PolicyRule:
    action: str  # fnmatch pattern over the action token
    threshold: int = 0  # rule applies when magnitude >= threshold
    requirement: Requirement = Requirement.none()
    on_missing: OnMissing = OnMissing.allow()
    incident_threshold: Optional[IncidentThreshold] = None

    def matches(self, ctx: "RequestContext") -> bool:
        return fnmatchcase(ctx.action, self.action) and ctx.magnitude >= self.threshold

    def to_jsonable(self) -> dict:
        return {
            "action": self.action,
            "incident_threshold": (
                {
                    "max": self.incident_threshold.max_count,
                    "scope": self.incident_threshold.scope_kind,
                }
                if self.incident_threshold
                else None
            ),
            "on_missing": {
                "kind": self.on_missing.kind,
                "rate": (
                    {
                        "requests": self.on_missing.rate.requests,
                        "window": self.on_missing.rate.window,
                    }
                    if self.on_missing.rate
                    else None
                ),
            },
            "requirement": {"cert": self.requirement.cert, "kind": self.requirement.kind},
            "threshold": self.threshold,
        }

    @classmethod
    def from_jsonable(cls, body: Any) -> "PolicyRule":
        try:
            on_missing_body = body["on_missing"]
            rate = on_missing_body.get("rate")
            return cls(
                action=body["action"],
                threshold=body.get("threshold", 0),
                requirement=Requirement(
                    body["requirement"]["kind"], body["requirement"].get("cert")
                ),
                on_missing=OnMissing(
                    on_missing_body["kind"],
                    RateLimit(rate["requests"], rate["window"]) if rate else None,
                ),
                incident_threshold=(
                    IncidentThreshold(
                        body["incident_threshold"]["scope"],
                        body["incident_threshold"]["max"],
                    )
                    if body.get("incident_threshold")
                    else None
                ),
            )
        except (KeyError, TypeError) as exc:
            raise MalformedRecord(f"bad policy rule: {exc}") from exc


def policy_from_jsonable(body: Any) -> list[PolicyRule]:
    return [PolicyRule.from_jsonable(item) for item in body["rules"]]


def policy_to_jsonable(rules: list[PolicyRule]) -> dict:
    return {"rules": [rule.to_jsonable() for rule in rules]}


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
    notify: Optional[dict] = None

    def __post_init__(self):
        if self.verdict in (GateVerdict.DENIED, GateVerdict.THROTTLED) and not self.reasons:
            raise MalformedRecord("denied/throttled decisions must carry a reason")


@dataclass(frozen=True)
class GatekeeperConfig:
    fail_open: bool = False  # registry unreachable: deny (default) or allow


# -- token-bucket rate limiter -------------------------------------------------


@dataclass(frozen=True)
class Bucket:
    tokens: int
    window_start: int


LimiterState = Mapping[str, Bucket]


def rate_limiter_admit(
    state: LimiterState, key: str, rate: RateLimit, now: int
) -> tuple[bool, dict[str, Bucket]]:
    """Admit iff a token is available; buckets refill at window boundaries,
    so exactly ``rate.requests`` requests pass per window per key."""
    bucket = state.get(key)
    if bucket is None:
        bucket = Bucket(tokens=rate.requests, window_start=now)
    elif now - bucket.window_start >= rate.window:
        elapsed_windows = (now - bucket.window_start) // rate.window
        bucket = Bucket(
            tokens=rate.requests,
            window_start=bucket.window_start + elapsed_windows * rate.window,
        )
    admitted = bucket.tokens > 0
    if admitted:
        bucket = replace(bucket, tokens=bucket.tokens - 1)
    new_state = dict(state)
    new_state[key] = bucket
    return admitted, new_state


# -- evaluation ------------------------------------------------------------------


def _verify_presented(
    presented: Presented,
    requirement: Requirement,
    trust_store: TrustStore,
    at: int,
) -> Optional[str]:
    """None when acceptable, else the refusal reason token.

    The ID or view and the manifest are checked at ``at``, the request
    time, never at a time the presenter wrote into them: a holder of a
    revoked key could otherwise backdate fresh artifacts to before the
    revocation."""
    artifact = presented.id_artifact
    if isinstance(artifact, SignedId):
        report = verify_id(artifact, trust_store, at)
    else:
        report = verify_view(artifact, trust_store, at)
    if not report.ok:
        return "unverified"
    if presented.manifest is not None:
        if presented.manifest.identifier != presented.identifier:
            return "unverified"
        if (
            presented.output is None
            or not verify_manifest(
                presented.manifest, presented.output, trust_store, at=at
            ).ok
        ):
            return "unverified"
    elif requirement.kind == "verified-id":
        # full verification binds the ID to the presented output
        return "no-manifest"
    return None


def _has_certification(presented: Presented, cert: str) -> bool:
    name = f"cert:{cert}"
    artifact = presented.id_artifact
    if isinstance(artifact, SignedId):
        attrs = artifact.doc.attributes
    else:
        attrs = tuple(entry.attribute for entry in artifact.revealed)
    return any(
        attr.name == name and attr.category is AttributeCategory.PROPERTY
        for attr in attrs
    )


def _resolve_threshold_scope(
    threshold: IncidentThreshold, presented: Presented
) -> IncidentScope:
    identifier = presented.identifier
    if threshold.scope_kind == "instance":
        return IncidentScope.instance(identifier)
    if threshold.scope_kind == "system":
        return IncidentScope.system(identifier.system_id)
    return IncidentScope.systems(identifier.system_id)


def evaluate(
    rules: list[PolicyRule],
    ctx: RequestContext,
    trust_store: TrustStore,
    registry_client,
    limiter: LimiterState,
    config: GatekeeperConfig = GatekeeperConfig(),
) -> tuple[Decision, LimiterState]:
    """Apply the first matching rule; pure in (policy, ctx, verification
    results, registry responses, limiter state).

    The mapping passed in is never mutated. It is returned as is when no
    bucket changes, and a throttled decision returns a new mapping."""
    rule = next((r for r in rules if r.matches(ctx)), None)
    if rule is None or rule.requirement.kind == "none":
        return Decision(GateVerdict.ALLOW), limiter

    if ctx.presented is None:
        if rule.on_missing.kind == "allow":
            return Decision(GateVerdict.ALLOW, reasons=("no-id",)), limiter
        if rule.on_missing.kind == "deny":
            return (
                Decision(GateVerdict.DENIED, reasons=("no-id",), admitted=False),
                limiter,
            )
        admitted, limiter = rate_limiter_admit(
            limiter, f"addr:{ctx.caller}", rule.on_missing.rate, ctx.timestamp
        )
        return (
            Decision(
                GateVerdict.THROTTLED,
                reasons=("no-id", "rate-limit"),
                admitted=admitted,
            ),
            limiter,
        )

    refusal = _verify_presented(ctx.presented, rule.requirement, trust_store, ctx.timestamp)
    if refusal is not None:
        return (
            Decision(GateVerdict.DENIED, reasons=(refusal,), admitted=False),
            limiter,
        )

    if rule.requirement.kind == "certification" and not _has_certification(
        ctx.presented, rule.requirement.cert
    ):
        return (
            Decision(
                GateVerdict.DENIED, reasons=("no-certification",), admitted=False
            ),
            limiter,
        )

    if rule.incident_threshold is not None:
        scope = _resolve_threshold_scope(rule.incident_threshold, ctx.presented)
        try:
            reports = registry_client.query_incidents(scope, TimeWindow())
        except RegistryUnavailable:
            if config.fail_open:
                return (
                    Decision(GateVerdict.ALLOW, reasons=("registry-unavailable",)),
                    limiter,
                )
            return (
                Decision(
                    GateVerdict.DENIED,
                    reasons=("registry-unavailable",),
                    admitted=False,
                ),
                limiter,
            )
        if len(reports) > rule.incident_threshold.max_count:
            return (
                Decision(
                    GateVerdict.DENIED,
                    reasons=("incident-threshold",),
                    admitted=False,
                ),
                limiter,
            )

    return Decision(GateVerdict.ALLOW), limiter


def flag_and_notify(ctx: RequestContext, reason: str) -> dict:
    """Build the deployer notification for a flagged interaction.

    Addressed to the presented ID's author; carries manifest hashes as
    evidence when the caller bound outputs.
    """
    if ctx.presented is None:
        raise NoAuthorInfo("no ID presented")
    artifact = ctx.presented.id_artifact
    author = artifact.doc.author if isinstance(artifact, SignedId) else artifact.author
    if author is None:
        raise NoAuthorInfo("author not disclosed in the presented view")
    evidence = []
    if ctx.presented.manifest is not None:
        evidence.append(b64u(manifest_hash(ctx.presented.manifest)))
    return {
        "at": ctx.timestamp,
        "author": author.author_id,
        "evidence": evidence,
        "identifier": str(ctx.presented.identifier),
        "reason": reason,
    }
