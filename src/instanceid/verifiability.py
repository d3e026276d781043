"""Signatures, trust store, and output-bound manifests.

Three defenses: author signatures catch forged authorship, signature
integrity over canonical bytes catches in-transit modification, and
output-hash manifests catch a genuine ID replayed next to someone else's
output. Manifests chain via previous-manifest hashes to cover an extended
interaction.

Verification failures are verdicts in a :class:`VerificationReport`, never
exceptions: an attacker-supplied artifact is an expected input.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, replace
from typing import Any, Optional, Sequence

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
    b64u,
    b64u_decode,
    canonical_json_bytes,
    load_canonical,
    sha256,
)
from .errors import (
    AlreadyRevoked,
    ChainAuthorMismatch,
    ChainIdentifierMismatch,
    DuplicateKeyId,
    InvalidDocument,
    MalformedRecord,
    RevokedKey,
    UnknownKey,
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
    suite: str
    key_id: str
    public: bytes

    def __post_init__(self):
        if self.suite != SIGNATURE_SUITE:
            raise MalformedRecord(f"unsupported signature suite: {self.suite!r}")
        if not is_token(self.key_id):
            raise MalformedRecord(f"bad key_id token: {self.key_id!r}")
        if len(self.public) != 32:
            raise MalformedRecord("ed25519 public key must be 32 bytes")


@dataclass(frozen=True)
class KeyPair:
    """Private signing key held by an author; never serialized with state."""

    author_id: str
    key_id: str
    private: Ed25519PrivateKey
    suite: str = SIGNATURE_SUITE

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
        return PublicKey(suite=self.suite, key_id=self.key_id, public=raw)

    def author_ref(self) -> AuthorRef:
        return AuthorRef(self.author_id, self.key_id)

    def sign(self, message: bytes) -> bytes:
        return self.private.sign(message)


KEY_ACTIVE = "active"
KEY_REVOKED = "revoked"


@dataclass(frozen=True)
class KeyRecord:
    key: PublicKey
    status: str = KEY_ACTIVE
    revoked_at: Optional[int] = None

    def active_at(self, at: int) -> bool:
        return self.status == KEY_ACTIVE or (
            self.revoked_at is not None and at < self.revoked_at
        )


class TrustStore:
    """author_id -> key directory. Single writer, many readers; revocation
    is permanent and timestamped."""

    def __init__(self):
        self._authors: dict[str, dict[str, KeyRecord]] = {}
        self._lock = threading.Lock()

    def register_key(self, author_id: str, key: PublicKey) -> None:
        with self._lock:
            keys = self._authors.setdefault(author_id, {})
            if key.key_id in keys:
                raise DuplicateKeyId(f"{author_id}/{key.key_id}")
            keys[key.key_id] = KeyRecord(key=key)

    def revoke_key(self, author_id: str, key_id: str, at: int) -> None:
        with self._lock:
            record = self._authors.get(author_id, {}).get(key_id)
            if record is None:
                raise UnknownKey(f"{author_id}/{key_id}")
            if record.status == KEY_REVOKED:
                raise AlreadyRevoked(f"{author_id}/{key_id}")
            self._authors[author_id][key_id] = KeyRecord(
                key=record.key, status=KEY_REVOKED, revoked_at=at
            )

    def has_author(self, author_id: str) -> bool:
        return author_id in self._authors

    def lookup(self, author_id: str, key_id: str) -> Optional[KeyRecord]:
        return self._authors.get(author_id, {}).get(key_id)

    def records(self) -> dict[str, dict[str, KeyRecord]]:
        return {author: dict(keys) for author, keys in self._authors.items()}

    def to_jsonable(self) -> dict:
        authors: dict[str, list[dict]] = {}
        for author_id in sorted(self._authors):
            entries = []
            for key_id in sorted(self._authors[author_id]):
                record = self._authors[author_id][key_id]
                entries.append(
                    {
                        "key_id": record.key.key_id,
                        "public": b64u(record.key.public),
                        "revoked_at": record.revoked_at,
                        "status": record.status,
                        "suite": record.key.suite,
                    }
                )
            authors[author_id] = entries
        return {"authors": authors}

    @classmethod
    def from_jsonable(cls, body: Any) -> "TrustStore":
        store = cls()
        try:
            for author_id, entries in body["authors"].items():
                for entry in entries:
                    key = PublicKey(
                        suite=entry["suite"],
                        key_id=entry["key_id"],
                        public=b64u_decode(entry["public"]),
                    )
                    store._authors.setdefault(author_id, {})[key.key_id] = KeyRecord(
                        key=key,
                        status=entry["status"],
                        revoked_at=entry["revoked_at"],
                    )
        except (KeyError, TypeError) as exc:
            raise MalformedRecord(f"bad trust store: {exc}") from exc
        return store

    def to_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_jsonable())

    @classmethod
    def from_bytes(cls, data: bytes) -> "TrustStore":
        return cls.from_jsonable(load_canonical(data))


@dataclass(frozen=True)
class Signature:
    suite: str
    key_id: str
    value: bytes

    def to_jsonable(self) -> dict:
        return {"key_id": self.key_id, "sig": b64u(self.value), "suite": self.suite}

    @classmethod
    def from_jsonable(cls, body: Any) -> "Signature":
        try:
            return cls(body["suite"], body["key_id"], b64u_decode(body["sig"]))
        except (KeyError, TypeError) as exc:
            raise MalformedRecord(f"bad signature: {exc}") from exc


@dataclass(frozen=True)
class SignedId:
    doc: IdDocument
    signature: Signature

    def to_jsonable(self) -> dict:
        return {"doc": doc_to_jsonable(self.doc), "signature": self.signature.to_jsonable()}

    @classmethod
    def from_jsonable(cls, body: Any) -> "SignedId":
        if not isinstance(body, dict) or "doc" not in body or "signature" not in body:
            raise MalformedRecord("signed id must carry doc and signature")
        return cls(
            doc=doc_from_jsonable(body["doc"]),
            signature=Signature.from_jsonable(body["signature"]),
        )

    def to_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_jsonable())

    @classmethod
    def from_bytes(cls, data: bytes) -> "SignedId":
        return cls.from_jsonable(load_canonical(data))


class Verdict(enum.Enum):
    VERIFIED = "verified"
    BAD_SIGNATURE = "bad-signature"
    UNKNOWN_AUTHOR = "unknown-author"
    UNKNOWN_KEY = "unknown-key"
    REVOKED_KEY = "revoked-key"
    OUTPUT_MISMATCH = "output-mismatch"
    BROKEN_CHAIN = "broken-chain"
    DIGEST_MISMATCH = "digest-mismatch"
    MALFORMED = "malformed"


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
    if signature.suite != record.key.suite:
        return VerificationReport(Verdict.BAD_SIGNATURE, "suite mismatch")
    try:
        Ed25519PublicKey.from_public_bytes(record.key.public).verify(
            signature.value, message
        )
    except (InvalidSignature, ValueError):
        return VerificationReport(Verdict.BAD_SIGNATURE)
    return VerificationReport(Verdict.VERIFIED)


def sign_id(
    doc: IdDocument, keypair: KeyPair, trust_store: Optional[TrustStore] = None
) -> SignedId:
    """Detached signature over the digest-form canonical bytes.

    When a trust store is supplied the key must still be active in it.
    """
    if trust_store is not None:
        record = trust_store.lookup(keypair.author_id, keypair.key_id)
        if record is not None and record.status == KEY_REVOKED:
            raise RevokedKey(f"{keypair.author_id}/{keypair.key_id}")
    message = digest_form_bytes(doc)
    return SignedId(
        doc=doc,
        signature=Signature(keypair.suite, keypair.key_id, keypair.sign(message)),
    )


def verify_id(signed: SignedId, trust_store: TrustStore, at: int) -> VerificationReport:
    """Check the signature under an author key active at ``at``.

    ``at`` is the issuance reference time: artifacts signed before a key
    compromise remain attributable (certificate practice).
    """
    try:
        message = digest_form_bytes(signed.doc)
    except InvalidDocument as exc:
        return VerificationReport(Verdict.MALFORMED, str(exc))
    return _verify_signature(
        signed.doc.author, signed.signature, message, trust_store, at
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
        if self.seq < 0:
            raise MalformedRecord("seq must be non-negative")
        if self.seq == 0 and self.prev_manifest_hash != ZERO_DIGEST:
            raise MalformedRecord("genesis manifest must use the zero sentinel")

    def _body_jsonable(self) -> dict:
        return {
            "author": {"author_id": self.author.author_id, "key_id": self.author.key_id},
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
    def from_jsonable(cls, body: Any) -> "Manifest":
        try:
            return cls(
                identifier=parse_identifier(body["identifier"]),
                author=AuthorRef(body["author"]["author_id"], body["author"]["key_id"]),
                output_hash=b64u_decode(body["output_hash"]),
                seq=body["seq"],
                prev_manifest_hash=b64u_decode(body["prev_manifest_hash"]),
                issued_at=body["issued_at"],
                signature=Signature.from_jsonable(body["signature"]),
            )
        except MalformedRecord:
            raise
        except (KeyError, TypeError, ValueError, InvalidDocument) as exc:
            raise MalformedRecord(f"bad manifest: {exc}") from exc

    def to_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_jsonable())

    @classmethod
    def from_bytes(cls, data: bytes) -> "Manifest":
        return cls.from_jsonable(load_canonical(data))


def manifest_hash(manifest: Manifest) -> bytes:
    """Hash of the full canonical manifest (signature included): the chain link."""
    return sha256(manifest.to_bytes())


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
        author=keypair.author_ref(),
        output_hash=sha256(output),
        seq=seq,
        prev_manifest_hash=prev_hash,
        issued_at=at,
        signature=Signature(keypair.suite, keypair.key_id, b""),
    )
    signature = Signature(
        keypair.suite, keypair.key_id, keypair.sign(unsigned.signing_bytes())
    )
    return replace(unsigned, signature=signature)


def verify_manifest(
    manifest: Manifest,
    output: bytes,
    trust_store: TrustStore,
    at: Optional[int] = None,
) -> VerificationReport:
    """Signature must verify under a key active at ``at`` (by default the
    manifest's own ``issued_at``) and the presented output must hash to the
    binding."""
    report = _verify_signature(
        manifest.author,
        manifest.signature,
        manifest.signing_bytes(),
        trust_store,
        manifest.issued_at if at is None else at,
    )
    if not report.ok:
        return report
    if sha256(output) != manifest.output_hash:
        return VerificationReport(
            Verdict.OUTPUT_MISMATCH, "output does not match the bound hash"
        )
    return VerificationReport(Verdict.VERIFIED)


def verify_chain(
    manifests: Sequence[Manifest], trust_store: TrustStore
) -> VerificationReport:
    """A chain verifies iff it is exactly a run of iterated create_manifest."""
    if not manifests:
        return VerificationReport(Verdict.BROKEN_CHAIN, "empty chain")
    head = manifests[0]
    for position, manifest in enumerate(manifests):
        if manifest.identifier != head.identifier:
            return VerificationReport(
                Verdict.BROKEN_CHAIN, f"identifier mismatch at seq {position}"
            )
        if manifest.author != head.author:
            return VerificationReport(
                Verdict.BROKEN_CHAIN, f"author mismatch at seq {position}"
            )
        if manifest.seq != position:
            return VerificationReport(
                Verdict.BROKEN_CHAIN,
                f"expected seq {position}, found {manifest.seq}",
            )
        expected_prev = (
            ZERO_DIGEST if position == 0 else manifest_hash(manifests[position - 1])
        )
        if manifest.prev_manifest_hash != expected_prev:
            return VerificationReport(
                Verdict.BROKEN_CHAIN, f"previous-hash link broken at seq {position}"
            )
        report = _verify_signature(
            manifest.author,
            manifest.signature,
            manifest.signing_bytes(),
            trust_store,
            manifest.issued_at,
        )
        if not report.ok:
            return report
    return VerificationReport(Verdict.VERIFIED)


# Spec-surface functional aliases.

def register_key(trust_store: TrustStore, author_id: str, key: PublicKey) -> None:
    trust_store.register_key(author_id, key)


def revoke_key(trust_store: TrustStore, author_id: str, key_id: str, at: int) -> None:
    trust_store.revoke_key(author_id, key_id, at)
