#!/usr/bin/env python3
"""Regenerate the cross-implementation fixture files under tests/fixtures/.

Keys derive from fixed seeds, clocks are constants, and salts are explicit,
so every run reproduces the same bytes. The vectors file pairs each artifact
with its expected verdict so an independent implementation can cross-check
bit-exactly.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import replace

from instanceid import (
    Attribute,
    AttributeCategory,
    AttributeSpecificity,
    AttributeMatcher,
    DisclosurePolicy,
    IdDocument,
    KeyPair,
    PartyClass,
    add_attribute,
    create_manifest,
    parse_identifier,
    redact,
    sign_id,
)
from instanceid.canonical import canonical_json_bytes, sha256
from instanceid.identity import Link
from instanceid.verifiability import TrustStore

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

AUTHOR_SEED = sha256(b"fixture-key:acme:k1")
ATTACKER_SEED = sha256(b"fixture-key:mallory:mk1")
CREATED_AT = 1_700_000_000


def build():
    FIXTURES.mkdir(exist_ok=True)
    author = KeyPair.generate("acme", "k1", seed=AUTHOR_SEED)
    attacker = KeyPair.generate("mallory", "mk1", seed=ATTACKER_SEED)

    trust = TrustStore()
    trust.register_key("acme", author.public_key())
    trust.register_key("mallory", attacker.public_key())
    (FIXTURES / "trust_store.json").write_bytes(trust.to_bytes())

    doc = IdDocument(parse_identifier("gpt4-0409:inst-00a1"), CREATED_AT, author.author_ref())
    doc = add_attribute(
        doc,
        Attribute.linked(
            "system-card",
            "https://example.test/system-card",
            AttributeCategory.PROPERTY,
            AttributeSpecificity.SYSTEM,
            salt=bytes(range(16)),
        ),
    )
    doc = add_attribute(
        doc,
        Attribute.inline_bytes(
            "system-prompt",
            b"You are a helpful concierge.",
            AttributeCategory.CONTEXT,
            AttributeSpecificity.INSTANCE,
            media_type="text/plain",
            salt=bytes(range(16, 32)),
        ),
    )
    doc = add_attribute(
        doc,
        Attribute.inline_bytes(
            "cert:no-prompt-injection",
            b"attested",
            AttributeCategory.PROPERTY,
            AttributeSpecificity.INSTANCE,
            media_type="text/plain",
            salt=bytes(range(32, 48)),
        ),
    )
    doc = replace(doc, links=(Link("ancestor", parse_identifier("gpt4-0409:inst-0001")),))

    honest = sign_id(doc, author)
    (FIXTURES / "honest_signed_id.json").write_bytes(honest.to_bytes())

    # tampering: one payload byte altered after signing
    tampered_body = honest.to_jsonable()
    tampered_body["doc"]["attributes"][1]["inline"]["data"] = (
        tampered_body["doc"]["attributes"][1]["inline"]["data"][:-1] + "A"
    )
    (FIXTURES / "tampered_signed_id.json").write_bytes(
        canonical_json_bytes(tampered_body)
    )

    # ID spoofing: attacker signs a document claiming acme authored it
    spoofed = sign_id(doc, KeyPair("acme", "mk1", attacker.private))
    (FIXTURES / "spoofed_signed_id.json").write_bytes(spoofed.to_bytes())

    policy = DisclosurePolicy(
        rules={
            PartyClass.SERVICE_PROVIDER: (
                AttributeMatcher(name="cert:*"),
                AttributeMatcher(name="system-card"),
            ),
            PartyClass.AUDITOR: (AttributeMatcher(),),
        }
    )
    view = redact(honest, policy, PartyClass.SERVICE_PROVIDER)
    (FIXTURES / "service_provider_view.json").write_bytes(view.to_bytes())

    m0 = create_manifest(doc.identifier, b"first output", None, author, CREATED_AT + 1)
    m1 = create_manifest(doc.identifier, b"second output", m0, author, CREATED_AT + 2)
    (FIXTURES / "manifest_chain.json").write_bytes(
        canonical_json_bytes([m0.to_jsonable(), m1.to_jsonable()])
    )

    vectors = {
        "at": CREATED_AT,
        "artifacts": [
            {"expect": "verified", "file": "honest_signed_id.json", "kind": "signed-id"},
            {"expect": "bad-signature", "file": "tampered_signed_id.json", "kind": "signed-id"},
            {"expect": "unknown-key", "file": "spoofed_signed_id.json", "kind": "signed-id"},
            {"expect": "verified", "file": "service_provider_view.json", "kind": "view"},
        ],
        "manifest_outputs": ["first output", "second output"],
        "view_sha256": sha256(view.to_bytes()).hex(),
    }
    (FIXTURES / "vectors.json").write_text(json.dumps(vectors, indent=2, sort_keys=True))
    print(f"wrote fixtures to {FIXTURES}")


if __name__ == "__main__":
    build()
