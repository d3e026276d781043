"""Shared builders for the test suite: deterministic keys, random documents,
and a client for a registry that cannot be reached."""

from __future__ import annotations

import hashlib
import random
import string
from dataclasses import replace

from instanceid import (
    Attribute,
    AttributeCategory,
    AttributeSpecificity,
    AuthorRef,
    IdDocument,
    IncidentReport,
    InstanceIdentifier,
    KeyPair,
    SignedId,
    TrustStore,
    add_attribute,
    sign_id,
)
from instanceid.errors import RegistryUnavailable
from instanceid.identity import Link
from instanceid.service import BaseClient

TOKEN_ALPHABET = string.ascii_lowercase + string.digits
TOKEN_TAIL = TOKEN_ALPHABET + "._-"

# (field, value): one value per row that an incident report must refuse,
# whether it arrives in a JSON body or as a constructor argument
MALFORMED_REPORT_FIELDS = [
    ("occurred_at", "x"),
    ("occurred_at", True),
    ("occurred_at", None),
    ("report_id", 7),
    ("reporter", ["service", "x"]),
    ("description", None),
    ("user_ref", 3),
]


class Text(str):
    """A str subclass, as a report built by a caller rather than by JSON may hold."""


def report_row(report: IncidentReport) -> list:
    """The report's row of a ``query-incidents`` table: the values of its
    JSON object in field order."""
    body = report.to_jsonable()
    return [body[name] for name in IncidentReport._fields]


class UnavailableClient(BaseClient):
    """Stands in for a registry that cannot be reached (fail-mode testing)."""

    def request(self, endpoint: str, body: dict) -> dict:
        raise RegistryUnavailable("registry configured as unavailable")


def fixed_keypair(author_id: str = "acme", key_id: str = "k1") -> KeyPair:
    seed = hashlib.sha256(f"test-key:{author_id}:{key_id}".encode()).digest()
    return KeyPair.generate(author_id, key_id, seed=seed)


def trust_for(*keypairs: KeyPair) -> TrustStore:
    store = TrustStore()
    for keypair in keypairs:
        store.register_key(keypair.author_id, keypair.public_key())
    return store


def random_token(rng: random.Random, max_tail: int = 12) -> str:
    head = rng.choice(TOKEN_ALPHABET)
    tail = "".join(rng.choice(TOKEN_TAIL) for _ in range(rng.randint(0, max_tail)))
    return head + tail


def random_identifier(rng: random.Random) -> InstanceIdentifier:
    return InstanceIdentifier(random_token(rng), random_token(rng))


def random_attribute(rng: random.Random, name: str | None = None) -> Attribute:
    if name is None:
        name = f"{random_token(rng)}-{rng.randrange(10**6)}"
    category = rng.choice(list(AttributeCategory))
    specificity = rng.choice(list(AttributeSpecificity))
    salt = bytes(rng.getrandbits(8) for _ in range(16))
    if rng.random() < 0.5:
        data = bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 24)))
        return Attribute.inline_bytes(name, data, category, specificity, salt=salt)
    return Attribute.linked(name, f"https://example.test/{name}", category, specificity, salt=salt)


def random_document(
    rng: random.Random,
    author: AuthorRef,
    n_attrs: int = 3,
    n_links: int = 0,
) -> IdDocument:
    doc = IdDocument(random_identifier(rng), rng.randint(0, 10**9), author)
    for index in range(n_attrs):
        doc = add_attribute(doc, random_attribute(rng, name=f"attr-{index}-{random_token(rng)}"))
    links = tuple(
        Link(rng.choice(["ancestor", "constituent"]), random_identifier(rng))
        for _ in range(n_links)
    )
    return replace(doc, links=links)


def random_signed(
    rng: random.Random, keypair: KeyPair, n_attrs: int = 3, n_links: int = 0
) -> SignedId:
    doc = random_document(rng, AuthorRef(keypair.author_id, keypair.key_id), n_attrs, n_links)
    return sign_id(doc, keypair)


# -- incident corpus + independent filter oracle ------------------------------------


def seed_incident_corpus(
    registry, clock, rng, n_reports=200, n_systems=3, n_instances=20, n_users=5
):
    from instanceid import Created, IncidentReport, Severity

    systems = [f"sys-{chr(ord('a') + i)}" for i in range(n_systems)]
    users = [f"user-{i}" for i in range(n_users)]
    identifiers = []
    for index in range(n_instances):
        system = systems[index % n_systems]
        signed = registry.issue(Created(system, users[index % n_users]))
        identifiers.append(signed.doc.identifier)
    reporters = ["service.alpha", "service.beta", "hospital.general", "user.client-3"]
    reports = []
    for index in range(n_reports):
        report = IncidentReport(
            report_id=f"r-{index:04d}",
            identifier=rng.choice(identifiers),
            reporter=rng.choice(reporters),
            severity=rng.choice(list(Severity)),
            description=f"incident {index}",
            occurred_at=clock.now() - rng.randint(0, 5000),
            user_ref=rng.choice(users + [None]),
        )
        registry.report_incident(report)
        reports.append(report)
    return identifiers, reports


def brute_force_incident_filter(reports, scope, window, horizon):
    """Independent oracle: plain linear filter mirroring the scope semantics."""
    hits = []
    for report in reports:
        if report.occurred_at < horizon:
            continue
        if window.start is not None and report.occurred_at < window.start:
            continue
        if window.end is not None and report.occurred_at > window.end:
            continue
        identifier = str(report.identifier)
        system = report.identifier.system_id
        if scope.kind == "instance" and identifier != scope.value:
            continue
        if scope.kind == "user" and report.user_ref != scope.value:
            continue
        if scope.kind == "system" and system != scope.value:
            continue
        if scope.kind == "systems" and not system.startswith(scope.value):
            continue
        if scope.kind == "party-class" and report.reporter.split(".", 1)[0] != scope.value:
            continue
        hits.append(report)
    return sorted(hits, key=lambda r: (r.occurred_at, r.report_id))


# -- disclosure mutation matrix -------------------------------------------------------


def view_mutations(body):
    """Yield (label, mutated view jsonable); every one must break verification."""
    import json as _json

    from instanceid.canonical import b64u, b64u_decode

    revealed = [i for i, e in enumerate(body["entries"]) if e["kind"] == "revealed"]
    hidden = [i for i, e in enumerate(body["entries"]) if e["kind"] == "hidden"]

    def clone():
        return _json.loads(_json.dumps(body))

    if revealed:
        idx = revealed[0]
        entry = body["entries"][idx]

        mutated = clone()
        if "inline" in entry["attribute"]:
            data = bytearray(b64u_decode(entry["attribute"]["inline"]["data"]))
            data[0] ^= 0x01
            mutated["entries"][idx]["attribute"]["inline"]["data"] = b64u(bytes(data))
        else:
            mutated["entries"][idx]["attribute"]["link"] += "x"
        yield "revealed-payload", mutated

        mutated = clone()
        salt = bytearray(b64u_decode(entry["attribute"]["salt"]))
        salt[0] ^= 0x01
        mutated["entries"][idx]["attribute"]["salt"] = b64u(bytes(salt))
        yield "revealed-salt", mutated

        mutated = clone()
        mutated["entries"][idx]["attribute"]["name"] = "renamed-attr"
        yield "revealed-name", mutated

        mutated = clone()
        digest = bytearray(b64u_decode(entry["digest"]))
        digest[0] ^= 0x01
        mutated["entries"][idx]["digest"] = b64u(bytes(digest))
        yield "revealed-carried-digest", mutated

        mutated = clone()
        category = mutated["entries"][idx]["attribute"]["category"]
        mutated["entries"][idx]["attribute"]["category"] = (
            "context" if category != "context" else "property"
        )
        yield "revealed-category", mutated

    if hidden:
        idx = hidden[0]
        mutated = clone()
        digest = bytearray(b64u_decode(mutated["entries"][idx]["digest"]))
        digest[-1] ^= 0x80
        mutated["entries"][idx]["digest"] = b64u(bytes(digest))
        yield "hidden-digest", mutated

        mutated = clone()
        mutated["entries"][idx]["name"] = "renamed-hidden"
        yield "hidden-name", mutated

        mutated = clone()
        del mutated["entries"][idx]
        yield "hidden-dropped", mutated

    if len(body["entries"]) >= 2:
        mutated = clone()
        mutated["entries"] = mutated["entries"][::-1]
        yield "entries-reordered", mutated

    mutated = clone()
    mutated["created_at"] += 1
    yield "created-at", mutated

    mutated = clone()
    mutated["identifier"] = "evil:clone"
    yield "identifier", mutated

    mutated = clone()
    mutated["author"]["author_id"] = "mallory"
    yield "author", mutated
