"""The ID container: identifier grammar, attribute model, canonical bytes.

An identifier is the two-part string ``system_id:instance_id``. A document
wraps an identifier with typed attributes and relation links; its canonical
byte form (and the digest form used as the signing input) are defined here.
A document, its digest form and a disclosed view share one header,
``{author, created_at, hash_suite, identifier, links}``, which has one
codec: :func:`header_jsonable` writes it and :func:`header_from_jsonable`
reads it. All types are immutable values; "mutation" returns a new value.
"""

from __future__ import annotations

import enum
import functools
import os
import random
import re
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Any, Iterable, Optional

from .canonical import (
    HASH_SUITE,
    _check_suite,
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


@dataclass(frozen=True, order=True, slots=True)
class InstanceIdentifier:
    """``system_id:instance_id`` — names one instance of one system.

    The ``system_id:instance_id`` text is made once, when the identifier is
    built, and ``str`` returns that one object each time, so the documents,
    lineage nodes and index scopes keyed by it share one string. It is not
    a field to compare, order, hash or show: those see the two tokens."""

    system_id: str
    instance_id: str
    _text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_token(self.system_id):
            raise MalformedIdentifier(f"bad system_id token: {self.system_id!r}")
        if not is_token(self.instance_id) and self.instance_id != SYSTEM_SENTINEL:
            raise MalformedIdentifier(f"bad instance_id token: {self.instance_id!r}")
        object.__setattr__(self, "_text", f"{self.system_id}{SEPARATOR}{self.instance_id}")

    def __str__(self) -> str:
        return self._text

    @property
    def is_system_node(self) -> bool:
        return self.instance_id == SYSTEM_SENTINEL


SHARED_TEXTS = 1 << 12  # texts the shared-text memo keeps, most recently used first
# a longer text is not shared; the longest incident-db link a registry
# formats, from a 128-character author and system id, has 298
SHARED_TEXT_CHARS = 512


def shared_text(text: Any) -> Any:
    """``text``, or an equal ``str`` returned for it before: the one object
    that every record decoded with this text holds.

    Author and key ids, attribute names, media types, links, system ids and
    reporters repeat across thousands of decoded records with only a handful
    of distinct values, and the JSON decoder makes a new string for each.
    Only an exact ``str`` of at most ``SHARED_TEXT_CHARS`` characters
    reaches the memo, which keeps the ``SHARED_TEXTS`` most recently used
    (~2.7 MB at most in CPython 3.11 for ASCII texts); anything else comes
    back as it is, for the caller's checks to refuse as before.
    """
    if type(text) is str and len(text) <= SHARED_TEXT_CHARS:
        return _shared_text(text)
    return text


@functools.lru_cache(maxsize=SHARED_TEXTS)
def _shared_text(text: str) -> str:
    return text


def parse_identifier(text: str) -> InstanceIdentifier:
    """Split on the first ``:`` and validate both tokens.

    Decoding a reply or a log parses the same identifiers again and again,
    so the split and the validated ``InstanceIdentifier`` (an immutable
    value, so a hit equals a fresh parse) are memoised for the ``1 << 14``
    most recently used texts, each at most 257 characters (~13.5 MB at
    most in CPython 3.11). Only a ``str`` holding the separator reaches the
    memo, and it keeps no failed parse, so every call on bad input raises
    ``MalformedIdentifier``.
    """
    if not isinstance(text, str) or SEPARATOR not in text:
        raise MalformedIdentifier(f"missing separator in {text!r}")
    return _split_identifier(text)


@functools.lru_cache(maxsize=1 << 14)
def _split_identifier(text: str) -> InstanceIdentifier:
    system_id, _, instance_id = text.partition(SEPARATOR)
    identifier = InstanceIdentifier(shared_text(system_id), instance_id)
    if type(text) is str:  # str() gives the memo's key, never a str subclass
        object.__setattr__(identifier, "_text", text)
    return identifier


def fresh_instance_id(rng: Optional[random.Random] = None) -> str:
    """128-bit random value, hex-encoded (no embedded information)."""
    if rng is None:
        return os.urandom(16).hex()
    return f"{rng.getrandbits(128):032x}"


def fresh_salt(rng: Optional[random.Random] = None) -> bytes:
    """A new attribute salt: ``SALT_SIZE`` draws of ``rng.getrandbits(8)``,
    or ``os.urandom`` bytes without an ``rng``. ``add_attribute`` and
    ``Registry.issue`` both draw salts here."""
    if rng is None:
        return os.urandom(SALT_SIZE)
    return bytes(map(rng.getrandbits, repeat(8, SALT_SIZE)))


class AttributeCategory(enum.Enum):
    BEHAVIOUR = "behaviour"
    PROPERTY = "property"
    CONTEXT = "context"
    RELATIONSHIP = "relationship"


class AttributeSpecificity(enum.Enum):
    """How widely an attribute applies, narrowest first."""

    INSTANCE = "instance"
    INSTANCE_CLASS = "instance-class"
    USER = "user"
    PARTY_CLASS = "party-class"
    SYSTEM = "system"
    SYSTEMS = "systems"


@dataclass(frozen=True, slots=True)
class InlinePayload:
    data: bytes
    media_type: str = "application/octet-stream"

    def __post_init__(self):
        if not isinstance(self.data, bytes):
            raise InvalidDocument("inline payload must be bytes")
        if not self.media_type or not self.media_type.isascii():
            raise InvalidDocument("media_type must be a non-empty ASCII token")


@dataclass(frozen=True, slots=True)
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
                media_type=shared_text(body["inline"]["media_type"]),
            )
        return cls(
            shared_text(body["name"]),
            AttributeCategory(body["category"]),
            AttributeSpecificity(body["specificity"]),
            inline,
            shared_text(body.get("link")),
            b64u_decode(body["salt"]) if body.get("salt") is not None else None,
        )


def attribute_digest(attr: Attribute) -> bytes:
    """Salted commitment of a document's or view's attribute (each carries a
    salt): sha256(salt || canonical payload encoding)."""
    return sha256(attr.salt + canonical_json_bytes(attr.payload_jsonable()))


@dataclass(frozen=True, slots=True)
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
        return cls(shared_text(body["author_id"]), shared_text(body["key_id"]))


@dataclass(frozen=True, slots=True)
class Link:
    relation: str
    target: InstanceIdentifier

    def __post_init__(self):
        if self.relation not in LINK_RELATIONS:
            raise InvalidDocument(f"unknown link relation: {self.relation!r}")
        if not isinstance(self.target, InstanceIdentifier):
            raise InvalidDocument(f"link target must be an InstanceIdentifier, not {self.target!r}")

    def to_jsonable(self) -> dict:
        return {"relation": self.relation, "target": str(self.target)}

    @classmethod
    @decoding("link")
    def from_jsonable(cls, body: Any) -> "Link":
        return cls(body["relation"], parse_identifier(body["target"]))


@dataclass(frozen=True, slots=True)
class IdDocument:
    """Container for an identifier plus attributes and relation links.

    Construction raises :class:`InvalidDocument` unless ``created_at`` is a
    non-negative integer, attribute names are unique, every attribute has a
    salt, no two salts are equal, and no link targets the document's own
    identifier. The hash suite is always ``HASH_SUITE``: the JSON form writes
    it, and decoding refuses any other."""

    identifier: InstanceIdentifier
    created_at: int
    author: AuthorRef
    attributes: tuple[Attribute, ...] = ()
    links: tuple[Link, ...] = ()

    def __post_init__(self):
        if type(self.created_at) is not int or self.created_at < 0:
            raise InvalidDocument("created_at must be a non-negative integer")
        names = self.attribute_names()
        if len(set(names)) != len(names):
            raise InvalidDocument("duplicate attribute names")
        salts = [attr.salt for attr in self.attributes]
        if None in salts:
            raise InvalidDocument("attribute without salt")
        if len(set(salts)) != len(salts):
            raise InvalidDocument("duplicate attribute salts")
        if any(link.target == self.identifier for link in self.links):
            raise InvalidDocument("link may not target the document's own identifier")

    def attribute_names(self) -> list[str]:
        return [attr.name for attr in self.attributes]


def add_attribute(
    doc: IdDocument, attr: Attribute, rng: Optional[random.Random] = None
) -> IdDocument:
    """Append an attribute, assigning a fresh salt if it arrives without one."""
    if attr.name in doc.attribute_names():
        raise DuplicateAttributeName(attr.name)
    if attr.salt is None:
        attr = replace(attr, salt=fresh_salt(rng))
    return replace(doc, attributes=doc.attributes + (attr,))


def header_jsonable(carrier: Any) -> dict:
    """The header of ``carrier``, an ``IdDocument`` or a ``DisclosedView``."""
    return {
        "author": carrier.author.to_jsonable(),
        "created_at": carrier.created_at,
        "hash_suite": HASH_SUITE,
        "identifier": str(carrier.identifier),
        "links": [link.to_jsonable() for link in carrier.links],
    }


def header_from_jsonable(body: Any) -> dict:
    """The header of ``body`` as its carrier's keyword arguments, under the
    caller's :class:`decoding` guard; a suite but ``HASH_SUITE`` fails first."""
    _check_suite(body["hash_suite"], HASH_SUITE)
    return {
        "identifier": parse_identifier(body["identifier"]),
        "author": AuthorRef.from_jsonable(body["author"]),
        "created_at": body["created_at"],
        "links": tuple(Link.from_jsonable(l) for l in body["links"]),
    }


def doc_to_jsonable(doc: IdDocument) -> dict:
    body = header_jsonable(doc)
    body["attributes"] = [attr.to_jsonable() for attr in doc.attributes]
    return body


def canonical_bytes(doc: IdDocument) -> bytes:
    """Deterministic full serialization (payloads and salts included)."""
    return canonical_json_bytes(doc_to_jsonable(doc))


def digest_form(carrier: Any, digests: Iterable[tuple[str, bytes]]) -> bytes:
    """Canonical bytes of the digest form of ``carrier``'s header and
    ``digests``: the one builder of signing input.

    Only (name, digest) per attribute: category, specificity, and payload
    are all inside the salted commitment, so a redacted view rebuilds these
    bytes from its hidden (name, digest) pairs alone, with this function.
    """
    body = header_jsonable(carrier)
    body["attributes"] = [{"digest": b64u(digest), "name": name} for name, digest in digests]
    return canonical_json_bytes(body)


def digest_form_bytes(doc: IdDocument) -> bytes:
    """The signing input: payloads replaced by their salted digests.

    Redacting a payload later does not disturb these bytes, which is what
    lets disclosure-redacted views keep the original signature.

    Signing is most of what an issued document costs: of ~85-90 us per
    ``Registry.issue`` (CPython 3.11, one core of a 2-vCPU Xeon VM), these
    bytes take ~15 us and the Ed25519 signature over them ~34 us.
    """
    return digest_form(doc, [(attr.name, attribute_digest(attr)) for attr in doc.attributes])


@decoding("document")
def doc_from_jsonable(body: Any) -> IdDocument:
    return IdDocument(
        **header_from_jsonable(body),
        attributes=tuple(Attribute.from_jsonable(a) for a in body["attributes"]),
    )
