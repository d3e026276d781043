"""Verifiable redacted views: different party classes see different subsets.

Hidden attributes appear only as (name, salted digest) commitments; the
original signature still verifies because it covers the digest form, which
is reconstructible from any honest redaction. A policy maps each party class
to attribute matchers; unlisted party classes get nothing (default deny). A
view checks its structure when it is built, so decoding refuses a malformed
one with ``MalformedRecord``, and :func:`verify_view` judges only the
revealed commitments and the signature.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fnmatch import fnmatchcase
from types import MappingProxyType
from typing import Any, Mapping, Optional, Union

from .canonical import b64u, b64u_decode
from .errors import InvalidDocument, MalformedRecord, decoding
from .identity import (
    Attribute,
    AttributeCategory,
    AttributeSpecificity,
    AuthorRef,
    InstanceIdentifier,
    Link,
    attribute_digest,
    digest_form,
    header_from_jsonable,
    header_jsonable,
    is_attribute_name,
)
from .verifiability import (
    Signature,
    SignedId,
    TrustStore,
    VerificationReport,
    Verdict,
    _verify_signature,
)


class PartyClass(enum.Enum):
    USER = "user"
    SERVICE_PROVIDER = "service-provider"
    INSTANCE = "instance"
    AUDITOR = "auditor"
    REGULATOR = "regulator"
    PUBLIC = "public"


@dataclass(frozen=True)
class AttributeMatcher:
    """All present constraints must hold; an empty matcher matches everything."""

    name: Optional[str] = None  # fnmatch pattern over the attribute name
    category: Optional[AttributeCategory] = None
    specificity: Optional[AttributeSpecificity] = None

    def __post_init__(self):
        if self.name is not None and not isinstance(self.name, str):
            raise MalformedRecord(f"matcher name must be a string or null, not {self.name!r}")

    def matches(self, attr: Attribute) -> bool:
        if self.name is not None and not fnmatchcase(attr.name, self.name):
            return False
        if self.category is not None and attr.category is not self.category:
            return False
        if self.specificity is not None and attr.specificity is not self.specificity:
            return False
        return True


@dataclass(frozen=True)
class DisclosurePolicy:
    """party class -> matchers revealing an attribute; default-deny otherwise.

    ``rules`` is a read-only copy of the mapping given, with each party's
    matchers in a tuple, so a policy never changes once built: a view
    redacted under it stays the view it gives."""

    rules: Mapping[PartyClass, tuple[AttributeMatcher, ...]]

    def __post_init__(self):
        rules = {party: tuple(matchers) for party, matchers in self.rules.items()}
        object.__setattr__(self, "rules", MappingProxyType(rules))

    def allows(self, party: PartyClass, attr: Attribute) -> bool:
        matchers = self.rules.get(party)
        if not matchers:
            return False
        return any(matcher.matches(attr) for matcher in matchers)


@dataclass(frozen=True)
class RevealedEntry:
    attribute: Attribute  # salt included; needed to recompute the commitment
    digest: bytes


@dataclass(frozen=True)
class HiddenEntry:
    name: str
    digest: bytes

    def __post_init__(self):
        if not is_attribute_name(self.name):
            raise InvalidDocument(f"bad attribute name: {self.name!r}")


ViewEntry = Union[RevealedEntry, HiddenEntry]


@dataclass(frozen=True)
class DisclosedView:
    """A redaction of a signed ID; entries keep document order so the
    signing bytes can be reconstructed.

    Construction raises :class:`InvalidDocument` unless ``created_at`` is a
    non-negative integer, the author is an :class:`AuthorRef`, entry names
    are unique, and every revealed attribute has a salt. As for documents,
    the JSON form writes ``HASH_SUITE`` and decoding refuses any other."""

    identifier: InstanceIdentifier
    author: AuthorRef
    created_at: int
    entries: tuple[ViewEntry, ...]
    links: tuple[Link, ...]
    signature: Signature

    def __post_init__(self):
        if type(self.created_at) is not int or self.created_at < 0:
            raise InvalidDocument(f"bad view created_at: {self.created_at!r}")
        if not isinstance(self.author, AuthorRef):
            raise InvalidDocument(f"view author must be an AuthorRef, not {self.author!r}")
        names = [e.attribute.name if isinstance(e, RevealedEntry) else e.name
                 for e in self.entries]
        if len(set(names)) != len(names):
            raise InvalidDocument("duplicate attribute names")
        if any(entry.attribute.salt is None for entry in self.revealed):
            raise InvalidDocument("revealed attribute without salt")

    @property
    def revealed(self) -> tuple[RevealedEntry, ...]:
        return tuple(e for e in self.entries if isinstance(e, RevealedEntry))

    @property
    def hidden(self) -> tuple[HiddenEntry, ...]:
        return tuple(e for e in self.entries if isinstance(e, HiddenEntry))

    def revealed_attribute(self, name: str) -> Attribute:
        for entry in self.revealed:
            if entry.attribute.name == name:
                return entry.attribute
        raise KeyError(name)

    def to_jsonable(self) -> dict:
        entries = []
        for entry in self.entries:
            if isinstance(entry, RevealedEntry):
                entries.append(
                    {
                        "attribute": entry.attribute.to_jsonable(),
                        "digest": b64u(entry.digest),
                        "kind": "revealed",
                    }
                )
            else:
                # structurally nothing but the commitment leaves the redactor
                entries.append(
                    {
                        "digest": b64u(entry.digest),
                        "kind": "hidden",
                        "name": entry.name,
                    }
                )
        body = header_jsonable(self)
        body["entries"] = entries
        body["signature"] = self.signature.to_jsonable()
        return body

    @classmethod
    @decoding("disclosed view")
    def from_jsonable(cls, body: Any) -> "DisclosedView":
        header = header_from_jsonable(body)
        entries: list[ViewEntry] = []
        for item in body["entries"]:
            if item["kind"] == "revealed":
                attr = Attribute.from_jsonable(item["attribute"])
                entries.append(RevealedEntry(attr, b64u_decode(item["digest"])))
            elif item["kind"] == "hidden":
                entries.append(HiddenEntry(item["name"], b64u_decode(item["digest"])))
            else:
                raise MalformedRecord(f"unknown entry kind {item['kind']!r}")
        return cls(
            **header,
            entries=tuple(entries),
            signature=Signature.from_jsonable(body["signature"]),
        )


def redact(signed: SignedId, policy: DisclosurePolicy, party: PartyClass) -> DisclosedView:
    """Produce the view ``party`` is entitled to under ``policy``.

    The signature is carried unchanged and nothing is verified here: a
    redaction of a bad ID is a view that fails :func:`verify_view`.
    """
    entries: list[ViewEntry] = []
    for attr in signed.doc.attributes:
        digest = attribute_digest(attr)
        if policy.allows(party, attr):
            entries.append(RevealedEntry(attr, digest))
        else:
            entries.append(HiddenEntry(attr.name, digest))
    return DisclosedView(
        identifier=signed.doc.identifier,
        author=signed.doc.author,
        created_at=signed.doc.created_at,
        entries=tuple(entries),
        links=signed.doc.links,
        signature=signed.signature,
    )


def view_signing_bytes(view: DisclosedView) -> bytes:
    """Rebuild the digest-form canonical bytes the original signature covers.

    Every entry gives its carried commitment, in entry (= document) order, to
    the builder of the signing input. So these bytes trust the carried
    digests; :func:`verify_view` binds revealed content to them first.
    """
    return digest_form(view, [
        (entry.attribute.name if isinstance(entry, RevealedEntry) else entry.name, entry.digest)
        for entry in view.entries
    ])


def verify_view(
    view: DisclosedView, trust_store: TrustStore, at: int
) -> VerificationReport:
    """Compare each revealed commitment, recomputed, with the carried digest,
    then check the signature over the rebuilt signing bytes. Altered revealed
    content surfaces as a digest mismatch before the signature is consulted."""
    for entry in view.revealed:
        if attribute_digest(entry.attribute) != entry.digest:
            return VerificationReport(
                Verdict.DIGEST_MISMATCH, f"attribute {entry.attribute.name!r}"
            )
    return _verify_signature(view.author, view.signature, view_signing_bytes(view), trust_store, at)
