"""Signature verdicts, key lifecycle, manifests, fixture vectors."""

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from instanceid import (
    AuthorRef,
    KeyPair,
    Manifest,
    SignedId,
    TrustStore,
    Verdict,
    create_manifest,
    manifest_hash,
    parse_identifier,
    sign_id,
    verify_id,
    verify_manifest,
)
from instanceid.canonical import ZERO_DIGEST, canonical_json_bytes, load_canonical
from instanceid.disclosure import DisclosedView, verify_view
from instanceid.errors import (
    AlreadyRevoked,
    ChainAuthorMismatch,
    ChainIdentifierMismatch,
    DuplicateKeyId,
    MalformedRecord,
    UnknownKey,
)
from instanceid.identity import digest_form_bytes
from instanceid.verifiability import Signature

import gen_fixtures
from helpers import fixed_keypair, random_document, random_signed, trust_for

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def keypair():
    return fixed_keypair("acme", "k1")


@pytest.fixture
def trust(keypair):
    return trust_for(keypair)


# -- sign / verify --------------------------------------------------------------


def test_sign_verify_round_trip(keypair, trust):
    signed = random_signed(random.Random(1), keypair)
    assert verify_id(signed, trust, signed.doc.created_at).ok


def test_document_change_invalidates(keypair, trust):
    signed = random_signed(random.Random(2), keypair)
    altered = SignedId(
        doc=replace(signed.doc, created_at=signed.doc.created_at + 1),
        signature=signed.signature,
    )
    assert verify_id(altered, trust, 0).verdict is Verdict.BAD_SIGNATURE


def test_signature_bytes_alteration_detected(keypair, trust):
    signed = random_signed(random.Random(3), keypair)
    sig = bytearray(signed.signature.value)
    sig[0] ^= 0xFF
    altered = SignedId(
        doc=signed.doc,
        signature=Signature(signed.signature.key_id, bytes(sig)),
    )
    assert verify_id(altered, trust, 0).verdict is Verdict.BAD_SIGNATURE


def test_id_spoofing_with_attacker_key(keypair, trust):
    attacker = fixed_keypair("mallory", "mk1")
    trust.register_key("mallory", attacker.public_key())
    # doc claims acme authorship but the signature comes from mallory's key
    doc = random_document(random.Random(4), AuthorRef(keypair.author_id, keypair.key_id))
    spoofed = sign_id(doc, KeyPair("acme", "mk1", attacker.private))
    verdict = verify_id(spoofed, trust, 0).verdict
    assert verdict in (Verdict.UNKNOWN_KEY, Verdict.BAD_SIGNATURE)
    # same key_id as a real acme key: signature check must fail instead
    spoofed_collide = sign_id(doc, KeyPair("acme", "k1", attacker.private))
    assert verify_id(spoofed_collide, trust, 0).verdict is Verdict.BAD_SIGNATURE


def test_unknown_author(keypair):
    signed = random_signed(random.Random(5), keypair)
    assert verify_id(signed, TrustStore(), 0).verdict is Verdict.UNKNOWN_AUTHOR


def test_verify_under_other_authors_store(keypair):
    other = fixed_keypair("other", "k1")
    store = trust_for(other)
    signed = random_signed(random.Random(6), keypair)
    assert not verify_id(signed, store, 0).ok


# -- key lifecycle ---------------------------------------------------------------


def test_revocation_timeline(keypair, trust):
    signed = random_signed(random.Random(7), keypair)
    trust.revoke_key("acme", "k1", at=1000)
    assert verify_id(signed, trust, 1500).verdict is Verdict.REVOKED_KEY
    # issuance-time semantics: before the revocation instant the key was active
    assert verify_id(signed, trust, 999).ok


def test_key_registry_errors(keypair):
    trust = trust_for(keypair)
    with pytest.raises(DuplicateKeyId):
        trust.register_key("acme", keypair.public_key())
    with pytest.raises(UnknownKey):
        trust.revoke_key("acme", "ghost", 0)
    trust.revoke_key("acme", "k1", 10)
    with pytest.raises(AlreadyRevoked):
        trust.revoke_key("acme", "k1", 20)


def test_trust_store_file_round_trip(keypair):
    trust = trust_for(keypair, fixed_keypair("beta", "b1"))
    trust.revoke_key("beta", "b1", 77)
    data = canonical_json_bytes(trust.to_jsonable())
    restored = TrustStore.from_jsonable(load_canonical(data))
    assert canonical_json_bytes(restored.to_jsonable()) == data
    assert restored.lookup("beta", "b1").revoked_at == 77


_ENTRY = trust_for(fixed_keypair()).to_jsonable()["authors"]["acme"][0]


@pytest.mark.parametrize(
    "body",
    [
        {"authors": []},
        {"authors": {"acme": {}}},
        {"authors": {"acme": ["k1"]}},
        {"authors": {"acme": [_ENTRY, _ENTRY]}},
        {},
        [],
    ],
)
def test_trust_store_rejects_malformed_shapes(body):
    with pytest.raises(MalformedRecord):
        TrustStore.from_jsonable(body)


@pytest.mark.parametrize(
    "status, revoked_at",
    [("bogus", "x"), ("revoked", "x"), ("revoked", None), ("revoked", True), ("active", 5)],
)
def test_trust_store_rejects_inconsistent_key_status(status, revoked_at):
    # accepted, such an entry used to raise TypeError later, inside verification
    body = {"authors": {"acme": [{**_ENTRY, "revoked_at": revoked_at, "status": status}]}}
    with pytest.raises(MalformedRecord):
        TrustStore.from_jsonable(body)


# -- manifests ----------------------------------------------------------------------


def test_manifest_genesis(keypair, trust):
    ident = parse_identifier("s:i1")
    m0 = create_manifest(ident, b"out", None, keypair, 100)
    assert m0.seq == 0
    assert m0.prev_manifest_hash == ZERO_DIGEST
    assert verify_manifest(m0, b"out", trust, 100).ok


def test_manifest_chain_links(keypair):
    ident = parse_identifier("s:i1")
    m0 = create_manifest(ident, b"a", None, keypair, 100)
    m1 = create_manifest(ident, b"b", m0, keypair, 101)
    assert m1.seq == 1
    assert m1.prev_manifest_hash == manifest_hash(m0)


def test_manifest_chain_mismatches(keypair):
    ident = parse_identifier("s:i1")
    m0 = create_manifest(ident, b"a", None, keypair, 100)
    with pytest.raises(ChainIdentifierMismatch):
        create_manifest(parse_identifier("s:i2"), b"b", m0, keypair, 101)
    other = fixed_keypair("other", "k9")
    with pytest.raises(ChainAuthorMismatch):
        create_manifest(ident, b"b", m0, other, 101)


def test_instance_spoofing_detected(keypair, trust):
    ident = parse_identifier("s:i1")
    manifest = create_manifest(ident, b"genuine output", None, keypair, 100)
    report = verify_manifest(manifest, b"attacker output", trust, 100)
    assert report.verdict is Verdict.OUTPUT_MISMATCH


def test_forged_manifest_signature(keypair, trust):
    ident = parse_identifier("s:i1")
    manifest = create_manifest(ident, b"out", None, keypair, 100)
    forged = replace(
        manifest,
        signature=Signature("k1", bytes(64)),
    )
    assert verify_manifest(forged, b"out", trust, 100).verdict is Verdict.BAD_SIGNATURE


def _chain(keypair, n=3, ident="s:i1", start=100):
    identifier = parse_identifier(ident)
    chain = []
    prev = None
    for index in range(n):
        prev = create_manifest(identifier, f"out-{index}".encode(), prev, keypair, start + index)
        chain.append(prev)
    return chain


def test_backdated_manifest_is_checked_at_the_callers_time(keypair, trust):
    trust.revoke_key(keypair.author_id, keypair.key_id, 1000)
    chain = _chain(keypair, 2, start=10)  # signed after the revocation, dated before it
    assert verify_manifest(chain[0], b"out-0", trust, 5000).verdict is Verdict.REVOKED_KEY


def test_manifest_serialization_round_trip(keypair):
    manifest = _chain(keypair, 2)[1]
    data = canonical_json_bytes(manifest.to_jsonable())
    assert Manifest.from_jsonable(load_canonical(data)) == manifest


# -- bridge to disclosure -----------------------------------------------------------


def test_signature_covers_digest_form_only(keypair, trust):
    """Redacting payloads must not disturb the signed bytes."""
    from instanceid import DisclosurePolicy, PartyClass, redact
    from instanceid.disclosure import view_signing_bytes

    signed = random_signed(random.Random(9), keypair, n_attrs=4)
    view = redact(signed, DisclosurePolicy(rules={}), PartyClass.PUBLIC)
    assert len(view.hidden) == 4
    assert view_signing_bytes(view) == digest_form_bytes(signed.doc)


# -- fixture vectors -----------------------------------------------------------------


def test_fixture_vectors():
    vectors = json.loads((FIXTURES / "vectors.json").read_text())
    trust = TrustStore.from_jsonable(load_canonical((FIXTURES / "trust_store.json").read_bytes()))
    at = vectors["at"]
    for entry in vectors["artifacts"]:
        raw = (FIXTURES / entry["file"]).read_bytes()
        if entry["kind"] == "signed-id":
            report = verify_id(SignedId.from_jsonable(load_canonical(raw)), trust, at)
        else:
            report = verify_view(DisclosedView.from_jsonable(load_canonical(raw)), trust, at)
        assert report.verdict.value == entry["expect"], entry["file"]


def test_fixture_manifest_chain():
    vectors = json.loads((FIXTURES / "vectors.json").read_text())
    trust = TrustStore.from_jsonable(load_canonical((FIXTURES / "trust_store.json").read_bytes()))
    chain_body = json.loads((FIXTURES / "manifest_chain.json").read_text())
    chain = [Manifest.from_jsonable(item) for item in chain_body]
    for manifest, output in zip(chain, vectors["manifest_outputs"]):
        assert verify_manifest(manifest, output.encode(), trust, vectors["at"]).ok


def test_fixtures_regenerate_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setattr(gen_fixtures, "FIXTURES", tmp_path)
    gen_fixtures.build()
    names = sorted(path.name for path in FIXTURES.iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


def test_malformed_manifest_rejected():
    with pytest.raises(MalformedRecord):
        Manifest.from_jsonable(load_canonical(b"{\"not\": \"a manifest\"}"))
