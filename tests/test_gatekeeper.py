"""Policy evaluation, token-bucket arithmetic, fail-closed behavior."""

import random
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instanceid import (
    Attribute,
    AttributeCategory,
    AttributeSpecificity,
    Created,
    Decision,
    DisclosurePolicy,
    GatekeeperConfig,
    GateVerdict,
    IncidentReport,
    IncidentThreshold,
    InProcessClient,
    OnMissing,
    PartyClass,
    PolicyRule,
    Presented,
    RateLimit,
    Registry,
    RegistryServer,
    RequestContext,
    Requirement,
    Severity,
    SimClock,
    UnavailableClient,
    create_manifest,
    evaluate,
    flag_and_notify,
    rate_limiter_admit,
    redact,
)
from instanceid.disclosure import DisclosedView
from instanceid.errors import NoAuthorInfo
from instanceid.gatekeeper import Bucket, policy_from_jsonable, policy_to_jsonable

from helpers import fixed_keypair, trust_for

KEYPAIR = fixed_keypair("acme", "k1")
TRUST = trust_for(KEYPAIR)
NOW = 50_000


def make_registry():
    clock = SimClock(NOW)
    registry = Registry("acme", clock=clock, rng=random.Random(3))
    registry.install_key(KEYPAIR)
    return registry, InProcessClient(RegistryServer(registry)), clock


def agent_presented(registry, clock, cert=None, with_manifest=True, output=b"payload"):
    attrs = []
    if cert:
        attrs.append(
            Attribute.inline_bytes(
                f"cert:{cert}", b"attested",
                AttributeCategory.PROPERTY, AttributeSpecificity.INSTANCE,
            )
        )
    signed = registry.issue(Created("sys-a", "user-1"), attrs)
    view = redact(signed, registry.disclosure_policy, PartyClass.SERVICE_PROVIDER)
    manifest = None
    if with_manifest:
        manifest = create_manifest(signed.doc.identifier, output, None, KEYPAIR, clock.now())
    return signed, Presented(view, manifest, output if with_manifest else None)


def ctx_for(presented, action="transfer-funds", magnitude=5000, caller="addr-1"):
    return RequestContext(
        action=action, magnitude=magnitude, unit="usd",
        timestamp=NOW, caller=caller, presented=presented,
    )


# -- rate limiter -----------------------------------------------------------------


def test_bucket_admits_rate_then_refuses():
    rate = RateLimit(2, 60)
    state = {}
    decisions = []
    for t in (0, 10, 20):
        ok, state = rate_limiter_admit(state, "k", rate, NOW + t)
        decisions.append(ok)
    assert decisions == [True, True, False]


def test_bucket_refills_after_full_window():
    rate = RateLimit(2, 60)
    state = {}
    for t in (0, 1, 2):
        _, state = rate_limiter_admit(state, "k", rate, NOW + t)
    ok, state = rate_limiter_admit(state, "k", rate, NOW + 60)
    assert ok
    ok2, state = rate_limiter_admit(state, "k", rate, NOW + 61)
    assert ok2
    ok3, _ = rate_limiter_admit(state, "k", rate, NOW + 62)
    assert not ok3


def test_buckets_keyed_independently():
    rate = RateLimit(1, 60)
    state = {}
    ok_a, state = rate_limiter_admit(state, "a", rate, NOW)
    ok_b, state = rate_limiter_admit(state, "b", rate, NOW)
    ok_a2, _ = rate_limiter_admit(state, "a", rate, NOW + 1)
    assert (ok_a, ok_b, ok_a2) == (True, True, False)


def test_limiter_is_pure():
    rate = RateLimit(1, 60)
    state = {}
    _, new_state = rate_limiter_admit(state, "k", rate, NOW)
    assert state == {}
    assert "k" in new_state


# -- evaluate: missing-ID paths -------------------------------------------------------


RULES_RATELIMIT = [
    PolicyRule(
        action="transfer-funds",
        threshold=1000,
        requirement=Requirement.verified_id(),
        on_missing=OnMissing.rate_limit(2, 60),
    )
]


def test_no_id_above_threshold_is_throttled():
    registry, client, _ = make_registry()
    decision, limiter = evaluate(RULES_RATELIMIT, ctx_for(None), TRUST, client, {})
    assert decision.verdict == GateVerdict.THROTTLED
    assert decision.admitted
    assert "no-id" in decision.reasons and "rate-limit" in decision.reasons


def test_no_id_below_threshold_allows():
    registry, client, _ = make_registry()
    ctx = ctx_for(None, magnitude=999)
    decision, _ = evaluate(RULES_RATELIMIT, ctx, TRUST, client, {})
    assert decision.verdict == GateVerdict.ALLOW


def test_no_id_deny_and_allow_modes():
    registry, client, _ = make_registry()
    deny_rules = [
        PolicyRule("transfer-funds", 0, Requirement.id_required(), OnMissing.deny())
    ]
    decision, _ = evaluate(deny_rules, ctx_for(None), TRUST, client, {})
    assert decision.verdict == GateVerdict.DENIED and not decision.admitted
    allow_rules = [
        PolicyRule("transfer-funds", 0, Requirement.id_required(), OnMissing.allow())
    ]
    decision, _ = evaluate(allow_rules, ctx_for(None), TRUST, client, {})
    assert decision.verdict == GateVerdict.ALLOW


def test_verified_id_bypasses_no_id_limiter():
    registry, client, clock = make_registry()
    _, presented = agent_presented(registry, clock)
    limiter = {}
    # exhaust the caller-address bucket with ID-less traffic
    for _ in range(3):
        _, limiter = evaluate(RULES_RATELIMIT, ctx_for(None), TRUST, client, limiter)
    decision, limiter = evaluate(
        RULES_RATELIMIT, ctx_for(presented), TRUST, client, limiter
    )
    assert decision.verdict == GateVerdict.ALLOW


# -- evaluate: verification paths ---------------------------------------------------------


def test_unverified_presentation_denied():
    registry, client, clock = make_registry()
    _, presented = agent_presented(registry, clock)
    body = presented.id_artifact.to_jsonable()
    body["created_at"] += 1
    tampered = Presented(
        DisclosedView.from_jsonable(body), presented.manifest, presented.output
    )
    decision, _ = evaluate(RULES_RATELIMIT, ctx_for(tampered), TRUST, client, {})
    assert decision.verdict == GateVerdict.DENIED
    assert "unverified" in decision.reasons


def test_verified_id_requirement_demands_manifest():
    registry, client, clock = make_registry()
    _, presented = agent_presented(registry, clock, with_manifest=False)
    decision, _ = evaluate(RULES_RATELIMIT, ctx_for(presented), TRUST, client, {})
    assert decision.verdict == GateVerdict.DENIED
    assert "no-manifest" in decision.reasons


def test_manifest_with_foreign_output_denied():
    registry, client, clock = make_registry()
    _, presented = agent_presented(registry, clock, output=b"genuine")
    replayed = Presented(presented.id_artifact, presented.manifest, b"attacker output")
    decision, _ = evaluate(RULES_RATELIMIT, ctx_for(replayed), TRUST, client, {})
    assert decision.verdict == GateVerdict.DENIED
    assert "unverified" in decision.reasons


def test_signed_id_accepted_directly():
    registry, client, clock = make_registry()
    signed, _ = agent_presented(registry, clock, with_manifest=False)
    rules = [PolicyRule("transfer-funds", 0, Requirement.id_required(), OnMissing.deny())]
    decision, _ = evaluate(
        rules, ctx_for(Presented(signed)), TRUST, client, {}
    )
    assert decision.verdict == GateVerdict.ALLOW


@pytest.mark.parametrize("artifact", ["view", "signed-id"])
def test_revoked_key_cannot_pass_the_gate_with_backdated_artifacts(artifact):
    # the key holder signs a fresh ID and manifest dated before the revocation
    clock = SimClock(NOW - 1000)
    registry = Registry("acme", clock=clock, rng=random.Random(3))
    registry.install_key(KEYPAIR)
    signed, presented = agent_presented(registry, clock)
    if artifact == "signed-id":
        presented = Presented(signed, presented.manifest, presented.output)
    client = InProcessClient(RegistryServer(registry))
    revoked = trust_for(KEYPAIR)
    revoked.revoke_key("acme", "k1", NOW - 100)
    decision, _ = evaluate(RULES_RATELIMIT, ctx_for(presented), revoked, client, {})
    assert decision.verdict == GateVerdict.DENIED
    assert decision.reasons == ("unverified",)
    # a revocation after the request time does not affect it
    later = trust_for(KEYPAIR)
    later.revoke_key("acme", "k1", NOW + 100)
    decision, _ = evaluate(RULES_RATELIMIT, ctx_for(presented), later, client, {})
    assert decision.verdict == GateVerdict.ALLOW


def test_evaluate_never_mutates_the_limiter_passed_in():
    registry, client, clock = make_registry()
    _, presented = agent_presented(registry, clock)
    deny_rules = [PolicyRule("transfer-funds", 0, Requirement.id_required(), OnMissing.deny())]
    buckets = {"addr:addr-1": Bucket(tokens=1, window_start=NOW)}
    limiter = MappingProxyType(buckets)  # read-only: any write raises
    for rules, ctx in (
        (RULES_RATELIMIT, ctx_for(presented)),  # allow
        (deny_rules, ctx_for(None)),  # deny
    ):
        _, returned = evaluate(rules, ctx, TRUST, client, limiter)
        assert returned is limiter  # no bucket changed, nothing copied
    decision, returned = evaluate(RULES_RATELIMIT, ctx_for(None), TRUST, client, limiter)
    assert decision.verdict == GateVerdict.THROTTLED and decision.admitted
    assert returned["addr:addr-1"].tokens == 0
    assert buckets == {"addr:addr-1": Bucket(tokens=1, window_start=NOW)}


# -- certification -------------------------------------------------------------------------


CERT_RULES = [
    PolicyRule(
        action="interact",
        requirement=Requirement.certification("no-prompt-injection"),
        on_missing=OnMissing.deny(),
    )
]


def test_certified_agent_allowed():
    registry, client, clock = make_registry()
    _, presented = agent_presented(registry, clock, cert="no-prompt-injection")
    decision, _ = evaluate(CERT_RULES, ctx_for(presented, action="interact"), TRUST, client, {})
    assert decision.verdict == GateVerdict.ALLOW


def test_uncertified_agent_denied():
    registry, client, clock = make_registry()
    _, presented = agent_presented(registry, clock)
    decision, _ = evaluate(CERT_RULES, ctx_for(presented, action="interact"), TRUST, client, {})
    assert decision.verdict == GateVerdict.DENIED
    assert "no-certification" in decision.reasons


def test_hidden_certification_does_not_count():
    registry, client, clock = make_registry()
    registry.disclosure_policy = DisclosurePolicy(rules={})  # hide everything
    _, presented = agent_presented(registry, clock, cert="no-prompt-injection")
    decision, _ = evaluate(CERT_RULES, ctx_for(presented, action="interact"), TRUST, client, {})
    assert decision.verdict == GateVerdict.DENIED
    assert "no-certification" in decision.reasons


# -- incident thresholds ---------------------------------------------------------------------


def test_incident_threshold_denies_over_limit():
    registry, client, clock = make_registry()
    signed, presented = agent_presented(registry, clock)
    for index in range(3):
        registry.report_incident(
            IncidentReport(f"r{index}", signed.doc.identifier, "service.x",
                           Severity.MAJOR, "x", clock.now())
        )
    rules = [
        PolicyRule(
            "transfer-funds", 0, Requirement.verified_id(), OnMissing.deny(),
            incident_threshold=IncidentThreshold("instance", 2),
        )
    ]
    decision, _ = evaluate(rules, ctx_for(presented), TRUST, client, {})
    assert decision.verdict == GateVerdict.DENIED
    assert "incident-threshold" in decision.reasons

    lenient = [
        PolicyRule(
            "transfer-funds", 0, Requirement.verified_id(), OnMissing.deny(),
            incident_threshold=IncidentThreshold("instance", 3),
        )
    ]
    decision, _ = evaluate(lenient, ctx_for(presented), TRUST, client, {})
    assert decision.verdict == GateVerdict.ALLOW


def test_registry_unavailable_fails_closed_by_default():
    registry, _, clock = make_registry()
    _, presented = agent_presented(registry, clock)
    rules = [
        PolicyRule(
            "transfer-funds", 0, Requirement.verified_id(), OnMissing.deny(),
            incident_threshold=IncidentThreshold("instance", 2),
        )
    ]
    decision, _ = evaluate(rules, ctx_for(presented), TRUST, UnavailableClient(), {})
    assert decision.verdict == GateVerdict.DENIED
    assert "registry-unavailable" in decision.reasons

    decision, _ = evaluate(
        rules, ctx_for(presented), TRUST, UnavailableClient(), {},
        config=GatekeeperConfig(fail_open=True),
    )
    assert decision.verdict == GateVerdict.ALLOW


# -- notifications ------------------------------------------------------------------------------


def test_flag_and_notify_payload():
    registry, _, clock = make_registry()
    signed, presented = agent_presented(registry, clock)
    ctx = ctx_for(presented)
    payload = flag_and_notify(ctx, "malfunction")
    assert payload["author"] == "acme"
    assert payload["identifier"] == str(signed.doc.identifier)
    assert payload["reason"] == "malfunction"
    assert payload["at"] == ctx.timestamp
    assert len(payload["evidence"]) == 1

    second = flag_and_notify(
        RequestContext("a", 0, "none", ctx.timestamp + 5, "addr", presented),
        "malfunction",
    )
    assert second["author"] == payload["author"]
    assert second["at"] != payload["at"]


def test_flag_and_notify_requires_author_info():
    registry, _, clock = make_registry()
    with pytest.raises(NoAuthorInfo):
        flag_and_notify(ctx_for(None), "malfunction")
    _, presented = agent_presented(registry, clock)
    body = presented.id_artifact.to_jsonable()
    body["author"] = None
    anonymous = Presented(DisclosedView.from_jsonable(body))
    with pytest.raises(NoAuthorInfo):
        flag_and_notify(ctx_for(anonymous), "malfunction")


# -- properties -----------------------------------------------------------------------------------


def test_evaluate_is_deterministic():
    registry, client, clock = make_registry()
    _, presented = agent_presented(registry, clock)
    ctx = ctx_for(presented)
    first = evaluate(RULES_RATELIMIT, ctx, TRUST, client, {})
    second = evaluate(RULES_RATELIMIT, ctx, TRUST, client, {})
    assert first == second


@given(
    base_threshold=st.integers(0, 10_000),
    raise_by=st.integers(1, 10_000),
    magnitude=st.integers(0, 20_000),
)
@settings(max_examples=80, deadline=None)
def test_monotone_strictness(base_threshold, raise_by, magnitude):
    """Raising a threshold never turns Allow into Denied below the old one."""
    if magnitude >= base_threshold:
        return  # property quantifies over contexts below the old threshold
    client = UnavailableClient()
    ctx = RequestContext("transfer-funds", magnitude, "usd", NOW, "addr", None)
    old_rules = [
        PolicyRule("transfer-funds", base_threshold, Requirement.id_required(), OnMissing.deny())
    ]
    new_rules = [
        PolicyRule(
            "transfer-funds", base_threshold + raise_by,
            Requirement.id_required(), OnMissing.deny(),
        )
    ]
    old_decision, _ = evaluate(old_rules, ctx, TRUST, client, {})
    new_decision, _ = evaluate(new_rules, ctx, TRUST, client, {})
    if old_decision.verdict == GateVerdict.ALLOW:
        assert new_decision.verdict == GateVerdict.ALLOW


def test_gatekeeper_never_accepts_what_verification_rejects():
    """Composition over the adversarial matrix: gate must deny them all."""
    registry, client, clock = make_registry()
    signed, honest = agent_presented(registry, clock, output=b"out")
    attacker = fixed_keypair("mallory", "mk1")
    adversarial = []

    body = honest.id_artifact.to_jsonable()
    body["entries"][0]["digest"] = body["entries"][1]["digest"]
    adversarial.append(Presented(DisclosedView.from_jsonable(body), honest.manifest, b"out"))

    from instanceid import KeyPair, sign_id

    spoofed = sign_id(signed.doc, KeyPair("acme", "mk1", attacker.private))
    adversarial.append(Presented(spoofed, honest.manifest, b"out"))

    adversarial.append(Presented(honest.id_artifact, honest.manifest, b"not the output"))

    for presented in adversarial:
        decision, _ = evaluate(RULES_RATELIMIT, ctx_for(presented), TRUST, client, {})
        assert decision.verdict == GateVerdict.DENIED


def test_policy_file_round_trip():
    rules = [
        PolicyRule(
            "transfer-funds", 1000, Requirement.verified_id(),
            OnMissing.rate_limit(2, 60), IncidentThreshold("system", 5),
        ),
        PolicyRule("place-call", 0, Requirement.certification("no-prompt-injection"),
                   OnMissing.deny()),
        PolicyRule("*", 0, Requirement.none(), OnMissing.allow()),
    ]
    body = policy_to_jsonable(rules)
    assert policy_from_jsonable(body) == rules
