"""The ID container: identifier grammar, attribute model, canonical bytes.

An identifier is the two-part string ``system_id:instance_id``. A document
wraps an identifier with typed attributes and relation links; its canonical
byte form (and the digest form used as the signing input) are defined here.
All types are immutable values; "mutation" returns a new value.
"""

from __future__ import annotations

import enum
import functools
import os
import random
import re
from dataclasses import dataclass, replace
from typing import Any, Iterable, Optional

from .canonical import (
    HASH_SUITE,
    b64u,
    b64u_decode,
    canonical_json_bytes,
    sha256,
)
from .errors import DuplicateAttributeName, InvalidDocument, MalformedIdentifier, decoding

SEPARATOR = ":"
SYSTEM_SENTINEL = "_system"  # instance slot for system-level (fine-tune) nodes
SALT_SIZE = 16

# Tokens: lowercase alphanumerics plus ._- , 128 chars max, no leading punctuation.
_TOKEN_RE = re.compile(r"[a-z0-9][a-z0-9._-]{0,127}\Z")
# Attribute names additionally allow ':' after the first char (e.g. "cert:<name>").
_NAME_RE = re.compile(r"[a-z0-9][a-z0-9._:-]{0,127}\Z")

LINK_RELATIONS = (
    "ancestor",
    "descendant",
    "constituent",
    "base-system",
    "upstream-deployer",
)


def is_token(text: str) -> bool:
    return isinstance(text, str) and bool(_TOKEN_RE.match(text))


def is_attribute_name(text: str) -> bool:
    return isinstance(text, str) and bool(_NAME_RE.match(text))


@dataclass(frozen=True, order=True)
class InstanceIdentifier:
    """``system_id:instance_id`` — names one instance of one system."""

    system_id: str
    instance_id: str

    def __post_init__(self):
        if not is_token(self.system_id):
            raise MalformedIdentifier(f"bad system_id token: {self.system_id!r}")
        if not is_token(self.instance_id) and self.instance_id != SYSTEM_SENTINEL:
            raise MalformedIdentifier(f"bad instance_id token: {self.instance_id!r}")

    def __str__(self) -> str:
        return f"{self.system_id}{SEPARATOR}{self.instance_id}"

    @property
    def is_system_node(self) -> bool:
        return self.instance_id == SYSTEM_SENTINEL


def parse_identifier(text: str) -> InstanceIdentifier:
    """Split on the first ``:`` and validate both tokens.

    Decoding a reply or a log parses the same identifiers again and again,
    so the split and the validated ``InstanceIdentifier`` (an immutable
    value, so a hit equals a fresh parse) are memoised for the ``1 << 14``
    most recently used texts, each at most 257 characters (~13 MB at most
    in CPython 3.11). Only a ``str`` holding the separator reaches the
    memo, and it keeps no failed parse, so every call on bad input raises
    ``MalformedIdentifier``.
    """
    if not isinstance(text, str) or SEPARATOR not in text:
        raise MalformedIdentifier(f"missing separator in {text!r}")
    return _split_identifier(text)


@functools.lru_cache(maxsize=1 << 14)
def _split_identifier(text: str) -> InstanceIdentifier:
    system_id, _, instance_id = text.partition(SEPARATOR)
    return InstanceIdentifier(system_id, instance_id)


def fresh_instance_id(rng: Optional[random.Random] = None) -> str:
    """128-bit random value, hex-encoded (no embedded information)."""
    if rng is None:
        return os.urandom(16).hex()
    return f"{rng.getrandbits(128):032x}"


class AttributeCategory(enum.Enum):
    BEHAVIOUR = "behaviour"
    PROPERTY = "property"
    CONTEXT = "context"
    RELATIONSHIP = "relationship"


@functools.total_ordering
class AttributeSpecificity(enum.Enum):
    """How widely an attribute applies, narrowest first."""

    INSTANCE = "instance"
    INSTANCE_CLASS = "instance-class"
    USER = "user"
    PARTY_CLASS = "party-class"
    SYSTEM = "system"
    SYSTEMS = "systems"

    @property
    def rank(self) -> int:
        return _SPECIFICITY_ORDER.index(self)

    def __lt__(self, other: object):
        if not isinstance(other, AttributeSpecificity):
            return NotImplemented
        return self.rank < other.rank


_SPECIFICITY_ORDER = [
    AttributeSpecificity.INSTANCE,
    AttributeSpecificity.INSTANCE_CLASS,
    AttributeSpecificity.USER,
    AttributeSpecificity.PARTY_CLASS,
    AttributeSpecificity.SYSTEM,
    AttributeSpecificity.SYSTEMS,
]


@dataclass(frozen=True)
class InlinePayload:
    data: bytes
    media_type: str = "application/octet-stream"

    def __post_init__(self):
        if not isinstance(self.data, bytes):
            raise InvalidDocument("inline payload must be bytes")
        if not self.media_type or not self.media_type.isascii():
            raise InvalidDocument("media_type must be a non-empty ASCII token")


@dataclass(frozen=True)
class Attribute:
    """One named piece of information; payload is inline bytes or a link.

    The salt feeds the disclosure commitment; a document assigns one at
    insert time when the attribute arrives without.
    """

    name: str
    category: AttributeCategory
    specificity: AttributeSpecificity
    inline: Optional[InlinePayload] = None
    link: Optional[str] = None
    salt: Optional[bytes] = None

    def __post_init__(self):
        if not is_attribute_name(self.name):
            raise InvalidDocument(f"bad attribute name: {self.name!r}")
        if (self.inline is None) == (self.link is None):
            raise InvalidDocument("exactly one of inline/link must be present")
        if self.link is not None and not (isinstance(self.link, str) and self.link):
            raise InvalidDocument("link must be a non-empty URI string")
        if self.salt is not None and len(self.salt) != SALT_SIZE:
            raise InvalidDocument(f"salt must be {SALT_SIZE} bytes")

    @classmethod
    def inline_bytes(
        cls,
        name: str,
        data: bytes,
        category: AttributeCategory,
        specificity: AttributeSpecificity,
        media_type: str = "application/octet-stream",
        salt: Optional[bytes] = None,
    ) -> "Attribute":
        return cls(name, category, specificity, InlinePayload(data, media_type), None, salt)

    @classmethod
    def linked(
        cls,
        name: str,
        uri: str,
        category: AttributeCategory,
        specificity: AttributeSpecificity,
        salt: Optional[bytes] = None,
    ) -> "Attribute":
        return cls(name, category, specificity, None, uri, salt)

    def payload_jsonable(self) -> dict:
        """Payload part of the canonical encoding (salt excluded)."""
        body: dict[str, Any] = {
            "category": self.category.value,
            "name": self.name,
            "specificity": self.specificity.value,
        }
        if self.inline is not None:
            body["inline"] = {
                "data": b64u(self.inline.data),
                "media_type": self.inline.media_type,
            }
        else:
            body["link"] = self.link
        return body

    def to_jsonable(self) -> dict:
        body = self.payload_jsonable()
        body["salt"] = b64u(self.salt) if self.salt is not None else None
        return body

    @classmethod
    @decoding("attribute")
    def from_jsonable(cls, body: Any) -> "Attribute":
        inline = None
        if "inline" in body:
            inline = InlinePayload(
                data=b64u_decode(body["inline"]["data"]),
                media_type=body["inline"]["media_type"],
            )
        return cls(
            body["name"],
            AttributeCategory(body["category"]),
            AttributeSpecificity(body["specificity"]),
            inline,
            body.get("link"),
            b64u_decode(body["salt"]) if body.get("salt") is not None else None,
        )


def attribute_digest(attr: Attribute) -> bytes:
    """Salted commitment: sha256(salt || canonical payload encoding)."""
    if attr.salt is None:
        raise InvalidDocument(f"attribute {attr.name!r} has no salt")
    return sha256(attr.salt + canonical_json_bytes(attr.payload_jsonable()))


@dataclass(frozen=True)
class AuthorRef:
    """Claimed author: a deployer name plus the key it signs with."""

    author_id: str
    key_id: str

    def __post_init__(self):
        if not is_token(self.author_id):
            raise InvalidDocument(f"bad author_id token: {self.author_id!r}")
        if not is_token(self.key_id):
            raise InvalidDocument(f"bad key_id token: {self.key_id!r}")

    def to_jsonable(self) -> dict:
        return {"author_id": self.author_id, "key_id": self.key_id}

    @classmethod
    @decoding("author")
    def from_jsonable(cls, body: Any) -> "AuthorRef":
        return cls(body["author_id"], body["key_id"])


@dataclass(frozen=True)
class Link:
    relation: str
    target: InstanceIdentifier

    def __post_init__(self):
        if self.relation not in LINK_RELATIONS:
            raise InvalidDocument(f"unknown link relation: {self.relation!r}")

    def to_jsonable(self) -> dict:
        return {"relation": self.relation, "target": str(self.target)}

    @classmethod
    @decoding("link")
    def from_jsonable(cls, body: Any) -> "Link":
        return cls(body["relation"], parse_identifier(body["target"]))


@dataclass(frozen=True)
class IdDocument:
    """Container for an identifier plus attributes and relation links."""

    identifier: InstanceIdentifier
    created_at: int
    author: AuthorRef
    attributes: tuple[Attribute, ...] = ()
    links: tuple[Link, ...] = ()
    hash_suite: str = HASH_SUITE

    def __post_init__(self):
        if not isinstance(self.created_at, int) or self.created_at < 0:
            raise InvalidDocument("created_at must be a non-negative integer")
        if self.hash_suite != HASH_SUITE:
            raise InvalidDocument(f"unsupported hash suite: {self.hash_suite!r}")

    def attribute(self, name: str) -> Attribute:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise KeyError(name)

    def attribute_names(self) -> list[str]:
        return [attr.name for attr in self.attributes]


def new_id_document(
    identifier: InstanceIdentifier, author: AuthorRef, created_at: int
) -> IdDocument:
    return IdDocument(identifier=identifier, created_at=created_at, author=author)


def add_attribute(
    doc: IdDocument, attr: Attribute, rng: Optional[random.Random] = None
) -> IdDocument:
    """Append an attribute, assigning a fresh salt if it arrives without one."""
    if attr.name in doc.attribute_names():
        raise DuplicateAttributeName(attr.name)
    if attr.salt is None:
        salt = bytes(rng.getrandbits(8) for _ in range(SALT_SIZE)) if rng else os.urandom(SALT_SIZE)
        attr = replace(attr, salt=salt)
    if any(existing.salt == attr.salt for existing in doc.attributes):
        raise InvalidDocument(f"salt reuse on attribute {attr.name!r}")
    return replace(doc, attributes=doc.attributes + (attr,))


def add_link(doc: IdDocument, relation: str, target: InstanceIdentifier) -> IdDocument:
    if target == doc.identifier:
        raise InvalidDocument("link may not target the document's own identifier")
    return replace(doc, links=doc.links + (Link(relation, target),))


def validate_document(doc: IdDocument) -> None:
    """Raise :class:`InvalidDocument` unless every invariant holds."""
    names = doc.attribute_names()
    if len(set(names)) != len(names):
        raise InvalidDocument("duplicate attribute names")
    salts = [attr.salt for attr in doc.attributes]
    if any(salt is None for salt in salts):
        raise InvalidDocument("attribute without salt")
    if len(set(salts)) != len(salts):
        raise InvalidDocument("duplicate attribute salts")
    for link in doc.links:
        if link.target == doc.identifier:
            raise InvalidDocument("self-targeting link")


def doc_to_jsonable(doc: IdDocument) -> dict:
    return {
        "attributes": [attr.to_jsonable() for attr in doc.attributes],
        "author": doc.author.to_jsonable(),
        "created_at": doc.created_at,
        "hash_suite": doc.hash_suite,
        "identifier": str(doc.identifier),
        "links": [link.to_jsonable() for link in doc.links],
    }


def canonical_bytes(doc: IdDocument) -> bytes:
    """Deterministic full serialization (payloads and salts included)."""
    validate_document(doc)
    return canonical_json_bytes(doc_to_jsonable(doc))


def digest_form(
    identifier: InstanceIdentifier,
    author: AuthorRef,
    created_at: int,
    digests: Iterable[tuple[str, bytes]],
    links: Iterable[Link],
    hash_suite: str,
) -> bytes:
    """Canonical bytes of the digest form: the one builder of signing input.

    Only (name, digest) per attribute: category, specificity, and payload
    are all inside the salted commitment, so a redacted view rebuilds these
    bytes from its hidden (name, digest) pairs alone, with this function.
    """
    return canonical_json_bytes(
        {
            "attributes": [{"digest": b64u(digest), "name": name} for name, digest in digests],
            "author": author.to_jsonable(),
            "created_at": created_at,
            "hash_suite": hash_suite,
            "identifier": str(identifier),
            "links": [link.to_jsonable() for link in links],
        }
    )


def digest_form_bytes(doc: IdDocument) -> bytes:
    """The signing input: payloads replaced by their salted digests.

    Redacting a payload later does not disturb these bytes, which is what
    lets disclosure-redacted views keep the original signature.
    """
    validate_document(doc)
    return digest_form(
        doc.identifier,
        doc.author,
        doc.created_at,
        [(attr.name, attribute_digest(attr)) for attr in doc.attributes],
        doc.links,
        doc.hash_suite,
    )


@decoding("document")
def doc_from_jsonable(body: Any) -> IdDocument:
    doc = IdDocument(
        identifier=parse_identifier(body["identifier"]),
        created_at=body["created_at"],
        author=AuthorRef.from_jsonable(body["author"]),
        attributes=tuple(Attribute.from_jsonable(a) for a in body["attributes"]),
        links=tuple(Link.from_jsonable(l) for l in body["links"]),
        hash_suite=body["hash_suite"],
    )
    validate_document(doc)
    return doc
