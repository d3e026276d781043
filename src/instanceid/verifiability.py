"""Signatures, trust store, and output-bound manifests.

Three defenses: author signatures catch forged authorship, signature
integrity over canonical bytes catches in-transit modification, and
output-hash manifests catch a genuine ID replayed next to someone else's
output. Each manifest records its place in an extended interaction (``seq``
and ``prev_manifest_hash``, which ``create_manifest`` links and checks), but
nothing in this package reads those links yet: they await a reader once the
registry log records manifest heads (ROADMAP item 3).

Verification failures are verdicts in a :class:`VerificationReport`, never
exceptions: an attacker-supplied artifact is an expected input. Decoding
refuses a malformed artifact with ``MalformedRecord`` (each type checks its
structure when built), so verdicts judge only commitments, keys, signatures
and times.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, replace
from typing import Any, Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from .canonical import (
    DIGEST_SIZE,
    SIGNATURE_SUITE,
    ZERO_DIGEST,
    _check_suite,
    b64u,
    b64u_decode,
    canonical_json_bytes,
    sha256,
)
from .errors import (
    AlreadyRevoked,
    ChainAuthorMismatch,
    ChainIdentifierMismatch,
    DuplicateKeyId,
    MalformedRecord,
    UnknownKey,
    decoding,
)
from .identity import (
    AuthorRef,
    IdDocument,
    InstanceIdentifier,
    digest_form_bytes,
    doc_from_jsonable,
    doc_to_jsonable,
    is_token,
    parse_identifier,
)


@dataclass(frozen=True)
class PublicKey:
    key_id: str
    public: bytes

    def __post_init__(self):
        if not is_token(self.key_id):
            raise MalformedRecord(f"bad key_id token: {self.key_id!r}")
        if len(self.public) != 32:
            raise MalformedRecord("ed25519 public key must be 32 bytes")

    def to_jsonable(self) -> dict:
        return {"key_id": self.key_id, "public": b64u(self.public), "suite": SIGNATURE_SUITE}

    @classmethod
    @decoding("public key")
    def from_jsonable(cls, body: Any) -> "PublicKey":
        _check_suite(body["suite"], SIGNATURE_SUITE)
        return cls(body["key_id"], b64u_decode(body["public"]))


@dataclass(frozen=True)
class KeyPair:
    """Private signing key held by an author; never serialized with state."""

    author_id: str
    key_id: str
    private: Ed25519PrivateKey

    @classmethod
    def generate(
        cls, author_id: str, key_id: str, seed: Optional[bytes] = None
    ) -> "KeyPair":
        """Fresh keypair; a 32-byte seed makes generation deterministic."""
        if seed is None:
            private = Ed25519PrivateKey.generate()
        else:
            if len(seed) != 32:
                raise MalformedRecord("ed25519 seed must be 32 bytes")
            private = Ed25519PrivateKey.from_private_bytes(seed)
        return cls(author_id=author_id, key_id=key_id, private=private)

    def public_key(self) -> PublicKey:
        raw = self.private.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
        return PublicKey(key_id=self.key_id, public=raw)

    def sign(self, message: bytes) -> bytes:
        return self.private.sign(message)


@dataclass(frozen=True)
class KeyRecord:
    """A public key, revoked at an integer time or (``None``) active.

    The JSON form also writes the ``status`` derived from ``revoked_at``;
    decoding refuses a status that disagrees with it."""

    key: PublicKey
    revoked_at: Optional[int] = None

    @property
    def status(self) -> str:
        return "active" if self.revoked_at is None else "revoked"

    def to_jsonable(self) -> dict:
        return {**self.key.to_jsonable(), "revoked_at": self.revoked_at, "status": self.status}

    @classmethod
    @decoding("key record")
    def from_jsonable(cls, body: Any) -> "KeyRecord":
        record = cls(PublicKey.from_jsonable(body), body["revoked_at"])
        valid = record.revoked_at is None or type(record.revoked_at) is int
        if not valid or body["status"] != record.status:
            raise MalformedRecord(
                f"bad key status {body['status']!r} with revoked_at {record.revoked_at!r}"
            )
        return record

    def active_at(self, at: int) -> bool:
        return self.revoked_at is None or at < self.revoked_at


class TrustStore:
    """author_id -> key directory. Single writer, many readers; revocation
    is permanent and timestamped."""

    def __init__(self):
        self._authors: dict[str, dict[str, KeyRecord]] = {}
        self._lock = threading.Lock()

    def register_key(self, author_id: str, key: PublicKey) -> None:
        self.add_record(author_id, KeyRecord(key))

    def add_record(self, author_id: str, record: KeyRecord) -> None:
        """Add a key with the status it already has (say, from a listing)."""
        if not is_token(author_id):
            raise MalformedRecord(f"bad author_id token: {author_id!r}")
        with self._lock:
            keys = self._authors.setdefault(author_id, {})
            if record.key.key_id in keys:
                raise DuplicateKeyId(f"{author_id}/{record.key.key_id}")
            keys[record.key.key_id] = record

    def revoke_key(self, author_id: str, key_id: str, at: int) -> None:
        with self._lock:
            record = self._authors.get(author_id, {}).get(key_id)
            if record is None:
                raise UnknownKey(f"{author_id}/{key_id}")
            if record.revoked_at is not None:
                raise AlreadyRevoked(f"{author_id}/{key_id}")
            self._authors[author_id][key_id] = KeyRecord(record.key, at)

    def has_author(self, author_id: str) -> bool:
        return author_id in self._authors

    def lookup(self, author_id: str, key_id: str) -> Optional[KeyRecord]:
        return self._authors.get(author_id, {}).get(key_id)

    def to_jsonable(self) -> dict:
        return {
            "authors": {
                author_id: [keys[key_id].to_jsonable() for key_id in sorted(keys)]
                for author_id, keys in sorted(self._authors.items())
            }
        }

    @decoding("trust store")
    def add_listing(self, body: Any) -> None:
        """Add each key record of a listing in the JSON form, with the status
        it has there; a key this store already holds is refused. Records
        before a refused one stay added."""
        for author_id, entries in body["authors"].items():
            if not isinstance(entries, list):
                raise MalformedRecord(f"keys of {author_id!r} must be a list")
            for entry in entries:
                try:
                    self.add_record(author_id, KeyRecord.from_jsonable(entry))
                except DuplicateKeyId as exc:  # a domain error, which the guard passes
                    raise MalformedRecord(f"repeated key {exc}") from exc

    @classmethod
    def from_jsonable(cls, body: Any) -> "TrustStore":
        store = cls()
        store.add_listing(body)
        return store


@dataclass(frozen=True)
class Signature:
    """An ed25519 signature by the key ``key_id``; the JSON form names the
    suite, and decoding refuses any other."""

    key_id: str
    value: bytes

    def __post_init__(self):
        if not is_token(self.key_id):
            raise MalformedRecord(f"bad signature key_id: {self.key_id!r}")

    def to_jsonable(self) -> dict:
        return {"key_id": self.key_id, "sig": b64u(self.value), "suite": SIGNATURE_SUITE}

    @classmethod
    @decoding("signature")
    def from_jsonable(cls, body: Any) -> "Signature":
        _check_suite(body["suite"], SIGNATURE_SUITE)
        return cls(body["key_id"], b64u_decode(body["sig"]))


@dataclass(frozen=True)
class SignedId:
    doc: IdDocument
    signature: Signature

    def to_jsonable(self) -> dict:
        return {"doc": doc_to_jsonable(self.doc), "signature": self.signature.to_jsonable()}

    @classmethod
    @decoding("signed id")
    def from_jsonable(cls, body: Any) -> "SignedId":
        return cls(
            doc=doc_from_jsonable(body["doc"]),
            signature=Signature.from_jsonable(body["signature"]),
        )


class Verdict(enum.Enum):
    VERIFIED = "verified"
    BAD_SIGNATURE = "bad-signature"
    UNKNOWN_AUTHOR = "unknown-author"
    UNKNOWN_KEY = "unknown-key"
    REVOKED_KEY = "revoked-key"
    OUTPUT_MISMATCH = "output-mismatch"
    DIGEST_MISMATCH = "digest-mismatch"


@dataclass(frozen=True)
class VerificationReport:
    verdict: Verdict
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict is Verdict.VERIFIED


def _verify_signature(
    author: AuthorRef,
    signature: Signature,
    message: bytes,
    trust_store: TrustStore,
    at: int,
) -> VerificationReport:
    """Shared verdict logic: author lookup, key activity at ``at``, ed25519."""
    if not trust_store.has_author(author.author_id):
        return VerificationReport(Verdict.UNKNOWN_AUTHOR, author.author_id)
    record = trust_store.lookup(author.author_id, signature.key_id)
    if record is None:
        return VerificationReport(
            Verdict.UNKNOWN_KEY, f"{author.author_id}/{signature.key_id}"
        )
    if not record.active_at(at):
        return VerificationReport(
            Verdict.REVOKED_KEY, f"revoked at {record.revoked_at}"
        )
    try:
        Ed25519PublicKey.from_public_bytes(record.key.public).verify(
            signature.value, message
        )
    except (InvalidSignature, ValueError):
        return VerificationReport(Verdict.BAD_SIGNATURE)
    return VerificationReport(Verdict.VERIFIED)


def sign_id(doc: IdDocument, keypair: KeyPair) -> SignedId:
    """Detached signature over the digest-form canonical bytes.

    Any key given signs; ``Registry.active_keypair`` decides which may."""
    message = digest_form_bytes(doc)
    return SignedId(
        doc=doc,
        signature=Signature(keypair.key_id, keypair.sign(message)),
    )


def verify_id(signed: SignedId, trust_store: TrustStore, at: int) -> VerificationReport:
    """Check the signature under an author key active at ``at``.

    ``at`` is the verifier's own time, never the ``created_at`` the signer
    wrote, which the holder of a revoked key could backdate. An earlier
    ``at`` asks whether the key was active then, as when attributing a past
    signing whose time is known from elsewhere.
    """
    return _verify_signature(
        signed.doc.author, signed.signature, digest_form_bytes(signed.doc), trust_store, at
    )


# -- manifests ---------------------------------------------------------------


@dataclass(frozen=True)
class Manifest:
    """Signed binding of one output's hash to an identifier, chainable."""

    identifier: InstanceIdentifier
    author: AuthorRef
    output_hash: bytes
    seq: int
    prev_manifest_hash: bytes
    issued_at: int
    signature: Signature

    def __post_init__(self):
        if len(self.output_hash) != DIGEST_SIZE:
            raise MalformedRecord("output_hash must be 32 bytes")
        if len(self.prev_manifest_hash) != DIGEST_SIZE:
            raise MalformedRecord("prev_manifest_hash must be 32 bytes")
        if type(self.seq) is not int or self.seq < 0 or type(self.issued_at) is not int:
            raise MalformedRecord(f"bad seq {self.seq!r} or issued_at {self.issued_at!r}")
        if self.seq == 0 and self.prev_manifest_hash != ZERO_DIGEST:
            raise MalformedRecord("genesis manifest must use the zero sentinel")

    def _body_jsonable(self) -> dict:
        return {
            "author": self.author.to_jsonable(),
            "identifier": str(self.identifier),
            "issued_at": self.issued_at,
            "output_hash": b64u(self.output_hash),
            "prev_manifest_hash": b64u(self.prev_manifest_hash),
            "seq": self.seq,
        }

    def signing_bytes(self) -> bytes:
        return canonical_json_bytes(self._body_jsonable())

    def to_jsonable(self) -> dict:
        body = self._body_jsonable()
        body["signature"] = self.signature.to_jsonable()
        return body

    @classmethod
    @decoding("manifest")
    def from_jsonable(cls, body: Any) -> "Manifest":
        return cls(
            identifier=parse_identifier(body["identifier"]),
            author=AuthorRef.from_jsonable(body["author"]),
            output_hash=b64u_decode(body["output_hash"]),
            seq=body["seq"],
            prev_manifest_hash=b64u_decode(body["prev_manifest_hash"]),
            issued_at=body["issued_at"],
            signature=Signature.from_jsonable(body["signature"]),
        )


def manifest_hash(manifest: Manifest) -> bytes:
    """Hash of the full canonical manifest (signature included): the chain link."""
    return sha256(canonical_json_bytes(manifest.to_jsonable()))


def create_manifest(
    identifier: InstanceIdentifier,
    output: bytes,
    prev: Optional[Manifest],
    keypair: KeyPair,
    at: int,
) -> Manifest:
    if prev is not None:
        if prev.author.author_id != keypair.author_id:
            raise ChainAuthorMismatch(
                f"{prev.author.author_id} != {keypair.author_id}"
            )
        if prev.identifier != identifier:
            raise ChainIdentifierMismatch(f"{prev.identifier} != {identifier}")
    seq = 0 if prev is None else prev.seq + 1
    prev_hash = ZERO_DIGEST if prev is None else manifest_hash(prev)
    unsigned = Manifest(
        identifier=identifier,
        author=AuthorRef(keypair.author_id, keypair.key_id),
        output_hash=sha256(output),
        seq=seq,
        prev_manifest_hash=prev_hash,
        issued_at=at,
        signature=Signature(keypair.key_id, b""),
    )
    signature = Signature(keypair.key_id, keypair.sign(unsigned.signing_bytes()))
    return replace(unsigned, signature=signature)


def verify_manifest(
    manifest: Manifest,
    output: bytes,
    trust_store: TrustStore,
    at: int,
) -> VerificationReport:
    """Signature must verify under a key active at ``at``, the caller's time
    (never ``issued_at``, which a revoked key's holder can backdate), and the
    presented output must hash to the binding."""
    report = _verify_signature(
        manifest.author,
        manifest.signature,
        manifest.signing_bytes(),
        trust_store,
        at,
    )
    if not report.ok:
        return report
    if sha256(output) != manifest.output_hash:
        return VerificationReport(
            Verdict.OUTPUT_MISMATCH, "output does not match the bound hash"
        )
    return VerificationReport(Verdict.VERIFIED)
