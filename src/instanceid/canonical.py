"""Canonical byte serialization: the exact form that gets hashed and signed.

Rules: UTF-8 JSON, object keys sorted by byte value, no insignificant
whitespace, integers in shortest decimal form, binary fields base64url
without padding. Floats are rejected outright so the byte form can never
drift between platforms. Keys must be ASCII so Python's code-point sort
coincides with byte-value sort.

For documents whose keys are ASCII and whose numbers are integers of
magnitude below 2**53, these bytes are exactly the RFC 8785 JSON
Canonicalization Scheme (JCS) form, so any JCS implementation rebuilds them.
"""

from __future__ import annotations

import base64
import hashlib
import json
import re
from typing import Any

from .errors import MalformedRecord, decoding

DIGEST_SIZE = 32
ZERO_DIGEST = b"\x00" * DIGEST_SIZE
HASH_SUITE = "sha-256"
SIGNATURE_SUITE = "ed25519"


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def b64u(data: bytes) -> str:
    """base64url without padding."""
    return base64.urlsafe_b64encode(data).rstrip(b"=").decode("ascii")


@decoding("base64url")
def b64u_decode(text: str) -> bytes:
    if "=" in text:
        raise MalformedRecord(f"not unpadded base64url: {text!r}")
    return base64.urlsafe_b64decode(text + "=" * (-len(text) % 4))


# Container items of exactly these types are canonical as they stand (Python
# writes an int in shortest decimal form) and cost no call; any other item,
# a subclass included, takes the checks below.
_LEAF_TYPES = frozenset({str, int, bool, type(None)})


def _check_value(value: Any) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str) or not key.isascii():
                raise MalformedRecord(f"non-ASCII or non-string key: {key!r}")
            if type(item) not in _LEAF_TYPES:
                _check_value(item)
    elif isinstance(value, list):
        for item in value:
            if type(item) not in _LEAF_TYPES:
                _check_value(item)
    elif isinstance(value, float):
        raise MalformedRecord("floats are not canonical-serializable")
    elif not (value is None or isinstance(value, (bool, int, str))):
        raise MalformedRecord(f"type {type(value).__name__} is not canonical-serializable")


def canonical_json_bytes(value: Any) -> bytes:
    _check_value(value)
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def canonical_json_line(value: Any) -> bytes:
    return canonical_json_bytes(value) + b"\n"


# A \uD800-\uDFFF escape: the only way JSON text can spell a surrogate once
# its bytes have decoded strictly. Canonical bytes never hold one, since they
# write every character unescaped except the control characters.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


@decoding("JSON")
def load_canonical(data: bytes | bytearray | str) -> Any:
    """Parse JSON text or bytes (UTF-8, -16 or -32, a UTF-8 BOM allowed, as
    ``json.loads`` reads them), refusing a lone surrogate, which canonical
    bytes cannot hold. Only text with a surrogate escape is re-encoded to
    find one; other text costs a search for a backslash and, if one is
    found, a regex scan."""
    text = data if isinstance(data, str) else data.decode(json.detect_encoding(data))
    value = json.loads(text)
    if "\\" in text and _SURROGATE_ESCAPE.search(text):
        json.dumps(value, ensure_ascii=False).encode("utf-8")  # raises on a lone surrogate
    return value
