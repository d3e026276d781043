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
from typing import Any

from .errors import MalformedRecord

DIGEST_SIZE = 32
ZERO_DIGEST = b"\x00" * DIGEST_SIZE
HASH_SUITE = "sha-256"
SIGNATURE_SUITE = "ed25519"


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def b64u(data: bytes) -> str:
    """base64url without padding."""
    return base64.urlsafe_b64encode(data).rstrip(b"=").decode("ascii")


def b64u_decode(text: str) -> bytes:
    if not isinstance(text, str) or "=" in text:
        raise MalformedRecord(f"not unpadded base64url: {text!r}")
    pad = -len(text) % 4
    try:
        return base64.urlsafe_b64decode(text + "=" * pad)
    except (ValueError, TypeError) as exc:
        raise MalformedRecord(f"bad base64url: {exc}") from exc


def _check_value(value: Any) -> None:
    if value is None or isinstance(value, (bool, int, str)):
        if isinstance(value, int) and not isinstance(value, bool):
            # shortest-decimal requirement is automatic for python ints
            return
        return
    if isinstance(value, float):
        raise MalformedRecord("floats are not canonical-serializable")
    if isinstance(value, list):
        for item in value:
            _check_value(item)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str) or not key.isascii():
                raise MalformedRecord(f"non-ASCII or non-string key: {key!r}")
            _check_value(item)
        return
    raise MalformedRecord(f"type {type(value).__name__} is not canonical-serializable")


def canonical_json_bytes(value: Any) -> bytes:
    _check_value(value)
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def canonical_json_line(value: Any) -> bytes:
    return canonical_json_bytes(value) + b"\n"


def load_canonical(data: bytes | str) -> Any:
    """Parse JSON produced by :func:`canonical_json_bytes` (or any JSON)."""
    try:
        return json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
        raise MalformedRecord(f"invalid JSON: {exc}") from exc
