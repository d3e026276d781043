"""Exception types shared across the protocol suite, and the decoding guard.

Verification failures are *verdicts*, not exceptions (see ``verifiability``);
exceptions are reserved for contract violations and unavailable resources.
Every reader of outside input runs under :class:`decoding`, so it raises
``MalformedRecord`` for input that does not decode and nothing else.
"""

import functools


class ProtocolError(Exception):
    """Base class for every error raised by this package."""


class MalformedIdentifier(ProtocolError):
    """Identifier string violates the two-part token grammar."""


class MalformedRecord(ProtocolError):
    """A serialized artifact could not be decoded into a valid value."""


class InvalidDocument(ProtocolError):
    """An ID document violates one of its structural invariants."""


# The one list of what "this input does not decode" raises: a missing key, a
# wrong type, a bad enum value or base64 text, a broken invariant, or JSON
# nested too deep to parse. Domain errors such as UnknownKey are not in it.
_UNDECODABLE = (
    AttributeError, KeyError, TypeError, ValueError, RecursionError,
    InvalidDocument, MalformedIdentifier,
)


class decoding:
    """Turn each exception that means "does not decode" into MalformedRecord.

    Decoders of one input take it as a decorator, ``@decoding("what")``; the
    wrapper passes positional arguments only and costs one call frame and a
    ``try``. Other readers and endpoints wrap their decoding step in ``with
    decoding("what"):``, never the call the decoded values feed, so a fault
    inside that call is not reported as bad input.
    """

    def __init__(self, what: str):
        self.what = what

    def __enter__(self) -> None:
        pass

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and issubclass(exc_type, _UNDECODABLE):
            raise MalformedRecord(f"bad {self.what}: {exc}") from exc

    def __call__(self, decoder):
        what = self.what

        @functools.wraps(decoder)
        def guarded(*args):
            try:
                return decoder(*args)
            except _UNDECODABLE as exc:
                raise MalformedRecord(f"bad {what}: {exc}") from exc

        return guarded


class DuplicateAttributeName(ProtocolError):
    """Attribute with this name already present in the document."""


# -- lineage ---------------------------------------------------------------

class UnknownIdentifier(ProtocolError):
    """Identifier not present in the store."""


class UnknownParent(ProtocolError):
    """Branch parent missing from the lineage store."""


class UnknownConstituent(ProtocolError):
    """Merge constituent missing from the lineage store."""


class DuplicateConstituents(ProtocolError):
    """Merge constituents must be distinct."""


# -- keys ------------------------------------------------------------------

class DuplicateKeyId(ProtocolError):
    """key_id already registered for this author."""


class UnknownKey(ProtocolError):
    """No such key registered for this author."""


class AlreadyRevoked(ProtocolError):
    """Revocation is permanent; a key cannot be revoked twice."""


class NoActiveKey(ProtocolError):
    """The registry has no active signing key installed."""


# -- manifests -------------------------------------------------------------

class ChainAuthorMismatch(ProtocolError):
    """Previous manifest in a chain was signed by a different author."""


class ChainIdentifierMismatch(ProtocolError):
    """Previous manifest in a chain binds a different identifier."""


# -- registry --------------------------------------------------------------

class NotFound(ProtocolError):
    """Record absent, possibly past its retention horizon (detail='expired')."""

    def __init__(self, message: str, detail: str = "unknown"):
        super().__init__(message)
        self.detail = detail


class DuplicateReportId(ProtocolError):
    """Incident report_id already used."""


class RegistryUnavailable(ProtocolError):
    """The registry cannot be reached over the configured transport."""


# -- gatekeeper ------------------------------------------------------------

class NoAuthorInfo(ProtocolError):
    """A notification goes to the presented ID's author, and no ID was presented."""


# -- harness ---------------------------------------------------------------

class ConfigInvalid(ProtocolError):
    """Simulation configuration violates its invariants."""
