"""Policy evaluation, token-bucket arithmetic, fail-closed behavior."""

import itertools
import random
import tracemalloc
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
    create_manifest,
    evaluate,
    flag_and_notify,
    rate_limiter_admit,
    redact,
)
from instanceid.disclosure import DisclosedView
from instanceid.errors import MalformedRecord, NoAuthorInfo
from instanceid.gatekeeper import Bucket

from helpers import UnavailableClient, fixed_keypair, trust_for

KEYPAIR = fixed_keypair("acme", "k1")
TRUST = trust_for(KEYPAIR)
SECOND_AUTHOR = fixed_keypair("mallory", "m1")
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


def reference_admit(state, key, rate, now):
    """The limiter as a plain dict, copied whole on every call: the model
    the structure-sharing limiter must agree with."""
    bucket = state.get(key)
    if bucket is None:
        bucket = Bucket(rate.requests, now)
    elif now - bucket.window_start >= rate.window:
        elapsed = (now - bucket.window_start) // rate.window
        bucket = Bucket(rate.requests, bucket.window_start + elapsed * rate.window)
    admitted = bucket.tokens > 0
    if admitted:
        bucket = Bucket(bucket.tokens - 1, bucket.window_start)
    return admitted, {**state, key: bucket}


@given(
    start=st.sampled_from(["dict", "read-only", "returned"]),
    filler=st.integers(0, 100),
    steps=st.lists(
        st.tuples(
            st.sampled_from([f"addr:{n}" for n in range(10)]),
            st.sampled_from([RateLimit(1, 10), RateLimit(2, 60), RateLimit(3, 7)]),
            st.integers(0, 30),  # seconds since the previous step
        ),
        max_size=40,
    ),
)
@settings(max_examples=150, deadline=None)
def test_limiter_agrees_with_the_copying_model_and_keeps_every_version(start, filler, steps):
    model = {f"fill:{n}": Bucket(n % 3, NOW - n) for n in range(filler)}
    if start == "returned":  # the limiter's own type, as rate_limiter_admit returns it
        _, state = rate_limiter_admit(model, "fill:last", RateLimit(2, 60), NOW)
        _, model = reference_admit(model, "fill:last", RateLimit(2, 60), NOW)
    else:
        state = dict(model) if start == "dict" else MappingProxyType(dict(model))
    versions = [(state, model)]
    now = NOW
    for key, rate, pause in steps:
        now += pause
        admitted, state = rate_limiter_admit(state, key, rate, now)
        want_admitted, model = reference_admit(model, key, rate, now)
        assert admitted == want_admitted
        assert dict(state) == model and len(state) == len(model)
        versions.append((state, model))
    for version, contents in versions:  # no update changed an earlier version
        assert dict(version) == contents and len(version) == len(contents)


@pytest.fixture(scope="module")
def large_limiter():
    """A limiter of 100,000 buckets, as rate_limiter_admit returns it."""
    buckets = {f"addr:{n}": Bucket(5, NOW) for n in range(99_999)}
    _, limiter = rate_limiter_admit(buckets, "addr:99999", RateLimit(5, 60), NOW)
    return limiter


@pytest.mark.parametrize("key", ["addr:7", "addr:new"])
def test_one_admit_allocates_a_leaf_not_a_copy_of_every_bucket(large_limiter, key):
    tracemalloc.start()
    try:
        _, limiter = rate_limiter_admit(large_limiter, key, RateLimit(5, 60), NOW)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # a copy of 100,000 buckets' dict takes several MiB
    assert limiter[key] == Bucket(4, NOW) and large_limiter.get("addr:new") is None
    assert len(limiter) == 100_000 + (key == "addr:new") and len(large_limiter) == 100_000


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


def test_evaluate_changes_one_bucket_of_a_large_read_only_limiter():
    buckets = {f"addr:other-{n}": Bucket(n % 3, NOW) for n in range(999)}
    buckets["addr:addr-1"] = Bucket(2, NOW)
    before = dict(buckets)
    limiter = MappingProxyType(buckets)
    decision, returned = evaluate(
        RULES_RATELIMIT, ctx_for(None), TRUST, UnavailableClient(), limiter
    )
    assert decision.verdict == GateVerdict.THROTTLED and decision.admitted
    assert buckets == before
    assert returned == {**buckets, "addr:addr-1": Bucket(1, NOW)} and len(returned) == 1000


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
        fail_open=True,
    )
    assert decision.verdict == GateVerdict.ALLOW


# -- decision matrix --------------------------------------------------------------------------


def matrix_presentations():
    """Each kind of presentation the gate tells apart, by name.

    Every shown instance runs under sys-a. The three that can pass
    verification hold two incidents each, and an instance under sys-ab holds
    two more, so an instance scope counts 2, a system scope 6 and a systems
    (prefix) scope 8. The matrix trusts a second author, who can sign a
    manifest that names the shown ID and output but binds nothing to an ID
    it did not issue."""
    registry, client, clock = make_registry()
    signed, view = agent_presented(registry, clock, cert="no-prompt-injection", output=b"out")
    other, _ = agent_presented(registry, clock, with_manifest=False)
    behaviour = Attribute.inline_bytes(
        "cert:no-prompt-injection", b"attested",
        AttributeCategory.BEHAVIOUR, AttributeSpecificity.INSTANCE,
    )
    not_property = registry.issue(Created("sys-a", "user-1"), [behaviour])
    neighbour = registry.issue(Created("sys-ab", "user-1"))
    registry.disclosure_policy = DisclosurePolicy(rules={})  # hide everything
    hidden_signed, hidden = agent_presented(
        registry, clock, cert="no-prompt-injection", output=b"out"
    )
    for subject in (signed, not_property, hidden_signed, neighbour):
        for index in range(2):
            registry.report_incident(
                IncidentReport(f"{subject.doc.identifier.instance_id}-{index}",
                               subject.doc.identifier, "service.x", Severity.MAJOR,
                               "x", clock.now())
            )
    body = view.id_artifact.to_jsonable()
    body["created_at"] += 1
    foreign = create_manifest(other.doc.identifier, b"out", None, KEYPAIR, clock.now())
    by_another = create_manifest(signed.doc.identifier, b"out", None, SECOND_AUTHOR, clock.now())
    shown = {
        "nothing": None,
        "signed-id": Presented(signed, view.manifest, b"out"),
        "view": view,
        "tampered-view": Presented(DisclosedView.from_jsonable(body), view.manifest, b"out"),
        "other-output": Presented(view.id_artifact, view.manifest, b"other"),
        "foreign-manifest": Presented(view.id_artifact, foreign, b"out"),
        "foreign-author": Presented(view.id_artifact, by_another, b"out"),
        "no-output": Presented(view.id_artifact, view.manifest),
        "no-manifest": Presented(view.id_artifact),
        "hidden-cert": hidden,
        "behaviour-cert": Presented(
            not_property,
            create_manifest(not_property.doc.identifier, b"out", None, KEYPAIR, clock.now()),
            b"out",
        ),
    }
    return client, shown


MATRIX_REQUIREMENTS = {
    "none": Requirement.none(),
    "id": Requirement.id_required(),
    "verified-id": Requirement.verified_id(),
    "certification": Requirement.certification("no-prompt-injection"),
}
MATRIX_ON_MISSING = {  # on_missing, the limiter passed in (read-only)
    "allow": (OnMissing.allow(), MappingProxyType({})),
    "deny": (OnMissing.deny(), MappingProxyType({})),
    "rate-limit": (OnMissing.rate_limit(2, 60), MappingProxyType({})),
    "exhausted": (
        OnMissing.rate_limit(2, 60),
        MappingProxyType({"addr:addr-1": Bucket(tokens=0, window_start=NOW)}),
    ),
}
MATRIX_THRESHOLDS = {  # incident threshold, and whether the registry answers
    "none": (None, True),
    "under-instance": (IncidentThreshold("instance", 2), True),
    "over-instance": (IncidentThreshold("instance", 1), True),
    "under-system": (IncidentThreshold("system", 6), True),
    "over-system": (IncidentThreshold("system", 5), True),
    "over-systems": (IncidentThreshold("systems", 7), True),
    "unavailable": (IncidentThreshold("instance", 2), False),
}


def expected_decision(requirement, shown, on_missing, threshold, fail_open):
    """(verdict, reasons, admitted) by the documented check order."""
    def denied(reason):
        return GateVerdict.DENIED, (reason,), False

    if requirement == "none":
        return GateVerdict.ALLOW, (), True
    if shown == "nothing":
        return {
            "allow": (GateVerdict.ALLOW, ("no-id",), True),
            "deny": denied("no-id"),
            "rate-limit": (GateVerdict.THROTTLED, ("no-id", "rate-limit"), True),
            "exhausted": (GateVerdict.THROTTLED, ("no-id", "rate-limit"), False),
        }[on_missing]
    if shown in ("tampered-view", "other-output", "foreign-manifest", "foreign-author",
                 "no-output"):
        return denied("unverified")
    if shown == "no-manifest" and requirement == "verified-id":
        return denied("no-manifest")
    if shown in ("hidden-cert", "behaviour-cert") and requirement == "certification":
        return denied("no-certification")
    if threshold == "unavailable":
        if fail_open:
            return GateVerdict.ALLOW, ("registry-unavailable",), True
        return denied("registry-unavailable")
    if threshold.startswith("over"):
        return denied("incident-threshold")
    return GateVerdict.ALLOW, (), True


def test_decision_matrix():
    client, shown = matrix_presentations()
    trust = trust_for(KEYPAIR, SECOND_AUTHOR)
    wrong = []
    for requirement, show, missing, threshold, fail_open in itertools.product(
        MATRIX_REQUIREMENTS, shown, MATRIX_ON_MISSING, MATRIX_THRESHOLDS, (False, True)
    ):
        on_missing, limiter = MATRIX_ON_MISSING[missing]
        incident_threshold, reachable = MATRIX_THRESHOLDS[threshold]
        rules = [PolicyRule("transfer-funds", 0, MATRIX_REQUIREMENTS[requirement],
                            on_missing, incident_threshold)]
        decision, returned = evaluate(
            rules, ctx_for(shown[show]), trust, client if reachable else UnavailableClient(),
            limiter, fail_open=fail_open,
        )
        case = (requirement, show, missing, threshold, fail_open)
        want = expected_decision(*case)
        if (decision.verdict, decision.reasons, decision.admitted) != want:
            wrong.append((case, decision, want))
        if want[0] == GateVerdict.THROTTLED:
            tokens = 1 if missing == "rate-limit" else 0
            if returned is limiter or returned["addr:addr-1"] != Bucket(tokens, NOW):
                wrong.append((case, "bucket", dict(returned)))
        elif returned is not limiter:
            wrong.append((case, "limiter replaced", dict(returned)))
    assert not wrong, wrong[:5]


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
    with pytest.raises(MalformedRecord):  # a view names its author, or does not exist
        DisclosedView.from_jsonable(body)


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

