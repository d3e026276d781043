"""Redacted views: completeness, binding mutations, structural hiding."""

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instanceid import (
    AttributeMatcher,
    DisclosedView,
    DisclosurePolicy,
    PartyClass,
    Verdict,
    redact,
    verify_view,
)
from instanceid.canonical import b64u, b64u_decode, load_canonical
from instanceid.disclosure import HiddenEntry, RevealedEntry, view_signing_bytes
from instanceid.errors import InvalidDocument, MalformedRecord
from instanceid.identity import digest_form_bytes

from helpers import fixed_keypair, random_signed, trust_for, view_mutations

KEYPAIR = fixed_keypair("acme", "k1")
TRUST = trust_for(KEYPAIR)


def reveal_all_policy():
    return DisclosurePolicy(rules={party: (AttributeMatcher(),) for party in PartyClass})


def signed_with(seed, n_attrs=4):
    return random_signed(random.Random(seed), KEYPAIR, n_attrs=n_attrs, n_links=1)


# -- redact ----------------------------------------------------------------------


def test_reveal_all_to_auditor_hides_nothing():
    signed = signed_with(1)
    policy = DisclosurePolicy(rules={PartyClass.AUDITOR: (AttributeMatcher(),)})
    view = redact(signed, policy, PartyClass.AUDITOR)
    assert view.hidden == ()
    assert len(view.revealed) == len(signed.doc.attributes)


def test_named_attribute_hidden_from_service_provider():
    from instanceid import (
        Attribute,
        AttributeCategory,
        AttributeSpecificity,
        IdDocument,
        add_attribute,
        parse_identifier,
        sign_id,
    )

    doc = IdDocument(parse_identifier("s:i"), 50, KEYPAIR.author_ref())
    doc = add_attribute(
        doc,
        Attribute.inline_bytes(
            "system-prompt", b"secret sauce", AttributeCategory.CONTEXT,
            AttributeSpecificity.INSTANCE,
        ),
    )
    doc = add_attribute(
        doc,
        Attribute.linked(
            "system-card", "https://x/card", AttributeCategory.PROPERTY,
            AttributeSpecificity.SYSTEM,
        ),
    )
    signed = sign_id(doc, KEYPAIR)
    policy = DisclosurePolicy(
        rules={PartyClass.SERVICE_PROVIDER: (AttributeMatcher(name="system-card"),)}
    )
    view = redact(signed, policy, PartyClass.SERVICE_PROVIDER)
    assert [e.name for e in view.hidden] == ["system-prompt"]
    assert [e.attribute.name for e in view.revealed] == ["system-card"]
    assert verify_view(view, TRUST, 50).ok


def test_unknown_party_class_defaults_to_deny():
    signed = signed_with(2)
    policy = DisclosurePolicy(rules={PartyClass.AUDITOR: (AttributeMatcher(),)})
    view = redact(signed, policy, PartyClass.PUBLIC)
    assert view.revealed == ()
    assert len(view.hidden) == len(signed.doc.attributes)


def test_policy_rules_are_a_read_only_copy():
    given_rules = {PartyClass.AUDITOR: [AttributeMatcher()]}
    policy = DisclosurePolicy(rules=given_rules)
    with pytest.raises(TypeError):
        policy.rules[PartyClass.PUBLIC] = (AttributeMatcher(),)
    with pytest.raises(TypeError):
        del policy.rules[PartyClass.AUDITOR]
    given_rules[PartyClass.PUBLIC] = [AttributeMatcher()]
    given_rules[PartyClass.AUDITOR].clear()
    assert dict(policy.rules) == {PartyClass.AUDITOR: (AttributeMatcher(),)}
    signed = signed_with(4)
    assert redact(signed, policy, PartyClass.PUBLIC).revealed == ()
    assert len(redact(signed, policy, PartyClass.AUDITOR).revealed) == len(signed.doc.attributes)


def test_redact_does_not_verify():
    signed = signed_with(3)
    tampered_body = signed.to_jsonable()
    tampered_body["doc"]["created_at"] += 1
    from instanceid import SignedId

    tampered = SignedId.from_jsonable(tampered_body)
    # verifying is the caller's responsibility; the view of a bad ID fails verify_view
    view = redact(tampered, reveal_all_policy(), PartyClass.AUDITOR)
    assert not verify_view(view, TRUST, tampered.doc.created_at).ok


# -- verify_view ---------------------------------------------------------------------


def test_honest_redaction_verifies():
    signed = signed_with(4)
    for party in PartyClass:
        view = redact(signed, reveal_all_policy(), party)
        assert verify_view(view, TRUST, signed.doc.created_at).ok


def test_altered_revealed_payload_is_digest_mismatch():
    signed = signed_with(5)
    view = redact(signed, reveal_all_policy(), PartyClass.AUDITOR)
    body = view.to_jsonable()
    for entry in body["entries"]:
        if entry["kind"] == "revealed" and "inline" in entry["attribute"]:
            data = bytearray(b64u_decode(entry["attribute"]["inline"]["data"]))
            data[0] ^= 0x01
            entry["attribute"]["inline"]["data"] = b64u(bytes(data))
            break
    else:
        pytest.fail("no inline revealed attribute to alter")
    mutated = DisclosedView.from_jsonable(body)
    # the signing bytes take each carried commitment as it is; verify_view
    # binds the revealed content to it first
    assert view_signing_bytes(mutated) == digest_form_bytes(signed.doc)
    assert verify_view(mutated, TRUST, 0).verdict is Verdict.DIGEST_MISMATCH


def test_swapped_hidden_digests_fail():
    signed = signed_with(6, n_attrs=4)
    view = redact(signed, DisclosurePolicy(rules={}), PartyClass.PUBLIC)
    body = view.to_jsonable()
    body["entries"][0]["digest"], body["entries"][1]["digest"] = (
        body["entries"][1]["digest"],
        body["entries"][0]["digest"],
    )
    mutated = DisclosedView.from_jsonable(body)
    verdict = verify_view(mutated, TRUST, 0).verdict
    assert verdict in (Verdict.BAD_SIGNATURE, Verdict.DIGEST_MISMATCH)


def test_author_hidden_view_cannot_verify():
    signed = signed_with(7)
    view = redact(signed, reveal_all_policy(), PartyClass.AUDITOR)
    body = view.to_jsonable()
    body["author"] = None
    with pytest.raises(MalformedRecord):
        DisclosedView.from_jsonable(body)


def test_view_construction_checks_its_invariants():
    view = redact(signed_with(10), reveal_all_policy(), PartyClass.AUDITOR)
    first = view.entries[0]
    unsalted = RevealedEntry(replace(first.attribute, salt=None), first.digest)
    for defect in (
        {"author": None},
        {"entries": view.entries + (HiddenEntry(first.attribute.name, first.digest),)},
        {"entries": (unsalted,) + view.entries[1:]},
    ):
        with pytest.raises(InvalidDocument):
            replace(view, **defect)


# -- completeness property -------------------------------------------------------------


@st.composite
def policies(draw):
    rules = {}
    for party in draw(st.sets(st.sampled_from(list(PartyClass)), max_size=4)):
        matchers = []
        for _ in range(draw(st.integers(0, 2))):
            matchers.append(
                AttributeMatcher(
                    name=draw(st.sampled_from([None, "attr-*", "attr-1-*", "zzz"]))
                )
            )
        rules[party] = tuple(matchers)
    return DisclosurePolicy(rules=rules)


@given(
    seed=st.integers(0, 10**6),
    policy=policies(),
    party=st.sampled_from(list(PartyClass)),
)
@settings(max_examples=60, deadline=None)
def test_completeness_every_honest_redaction_verifies(seed, policy, party):
    signed = random_signed(random.Random(seed), KEYPAIR, n_attrs=3)
    view = redact(signed, policy, party)
    assert verify_view(view, TRUST, signed.doc.created_at).ok
    names = {e.attribute.name for e in view.revealed} | {e.name for e in view.hidden}
    assert names == set(signed.doc.attribute_names())


# -- binding mutation matrix --------------------------------------------------------------


def test_binding_mutation_matrix_100_percent_detection():
    labels_seen = set()
    for seed in range(12):
        signed = random_signed(random.Random(700 + seed), KEYPAIR, n_attrs=4)
        policy = DisclosurePolicy(
            rules={PartyClass.AUDITOR: (AttributeMatcher(name="attr-0-*"),
                                        AttributeMatcher(name="attr-1-*"))}
        )
        view = redact(signed, policy, PartyClass.AUDITOR)
        assert verify_view(view, TRUST, 0).ok
        body = view.to_jsonable()
        for label, mutated_body in view_mutations(body):
            labels_seen.add(label)
            try:
                mutated = DisclosedView.from_jsonable(mutated_body)
            except MalformedRecord:
                continue  # structurally rejected counts as detected
            report = verify_view(mutated, TRUST, 0)
            assert not report.ok, f"mutation {label} went undetected"
    assert len(labels_seen) >= 10


# -- hiding & order ---------------------------------------------------------------------


def test_hidden_entries_reveal_only_name_and_digest():
    signed = signed_with(8)
    view = redact(signed, DisclosurePolicy(rules={}), PartyClass.PUBLIC)
    body = load_canonical(view.to_bytes())
    for entry in body["entries"]:
        assert entry["kind"] == "hidden"
        assert set(entry) == {"digest", "kind", "name"}


def test_entry_order_matches_document_order():
    signed = signed_with(9, n_attrs=5)
    policy = DisclosurePolicy(
        rules={PartyClass.AUDITOR: (AttributeMatcher(name="attr-[02]*"),)}
    )
    view = redact(signed, policy, PartyClass.AUDITOR)
    names = [
        e.attribute.name if hasattr(e, "attribute") else e.name for e in view.entries
    ]
    assert names == signed.doc.attribute_names()
    round_tripped = DisclosedView.from_bytes(view.to_bytes())
    assert round_tripped == view
