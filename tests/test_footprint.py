"""What a registry keeps per record: no value with a ``__dict__`` of its own,
one string for each text that records repeat, and a replay whose peak
holds no copy of the log's lines."""

import gc
import random
import tracemalloc

import pytest

from instanceid import (
    Attribute,
    AttributeCategory,
    AttributeSpecificity,
    Created,
    IncidentReport,
    IncidentScope,
    PartyClass,
    Registry,
    Severity,
    SimClock,
    redact,
)
from instanceid import identity
from instanceid.identity import SHARED_TEXTS, shared_text
from instanceid.incidents import OPEN_WINDOW

from helpers import Text, fixed_keypair
from test_pins import every_record_kind_registry

LOG_KINDS = {"register-key", "revoke-key", "issue", "incident", "shutdown"}


def long_lived_values(registry: Registry) -> dict:
    """One of each value a registry keeps, by name."""
    signed = next(s for s in registry.documents.values() if s.doc.links)
    card = next(s for s in registry.documents.values() if len(s.doc.attributes) > 2)
    inline = next(a for a in card.doc.attributes if a.inline is not None)
    view = redact(card, registry.disclosure_policy, PartyClass.SERVICE_PROVIDER)
    entries = {type(entry).__name__: entry for entry in view.entries}
    assert set(entries) == {"RevealedEntry", "HiddenEntry"}
    key_record = registry.trust.lookup("acme", "k1")
    report = registry.incidents[0]
    records = {record.kind: record for record in registry._log}
    assert set(records) == LOG_KINDS
    return {
        "identifier": signed.doc.identifier,
        "document": signed.doc,
        "attribute": inline,
        "payload": inline.inline,
        "link": signed.doc.links[0],
        "author": signed.doc.author,
        "signature": signed.signature,
        "signed": signed,
        "public-key": key_record.key,
        "key-record": key_record,
        "view": view,
        **entries,
        "report": report,
        "scope": IncidentScope.instance(report.identifier),
        "window": OPEN_WINDOW,
        **{f"{kind}-record": record for kind, record in records.items()},
    }


def test_no_long_lived_value_has_a_dict_of_its_own():
    live = every_record_kind_registry()
    replayed = Registry.replay(live.log_lines(), "acme", clock=live.clock)
    for registry in (live, replayed):
        for name, value in long_lived_values(registry).items():
            assert not hasattr(value, "__dict__"), name


def repeating_registry(n_issues: int = 300, n_reports: int = 300) -> Registry:
    """A registry whose author, key, attribute names, media types, links,
    systems and reporters repeat across its documents and reports."""
    clock = SimClock(1_000_000)
    rng = random.Random(3)
    registry = Registry("acme", clock=clock, rng=rng)
    registry.install_key(fixed_keypair("acme", "k1"))
    card = Attribute.inline_bytes(
        "system-card", b"card", AttributeCategory.PROPERTY, AttributeSpecificity.SYSTEM,
        media_type="text/markdown",
    )
    cert = Attribute.linked(
        "cert:safety", "https://certs.example/safety", AttributeCategory.PROPERTY,
        AttributeSpecificity.INSTANCE,
    )
    identifiers = [
        registry.issue(Created(f"sys-{i % 3}", f"user-{i}"), [card, cert]).doc.identifier
        for i in range(n_issues)
    ]
    for i in range(n_reports):
        clock.advance()
        registry.report_incident(IncidentReport(
            f"r-{i:04d}", rng.choice(identifiers), f"service.r{i % 4}", Severity.MINOR,
            f"incident {i}", clock.now(),
        ))
    return registry


@pytest.fixture(scope="module")
def repeating_log() -> bytes:
    return repeating_registry().log_lines()


def test_a_replay_holds_one_string_for_each_repeated_text(repeating_log):
    replayed = Registry.replay(repeating_log, "acme", clock=SimClock(1_000_000))
    first, second = [
        s for s in replayed.documents.values() if s.doc.identifier.system_id == "sys-1"
    ][:2]
    assert first.doc.author.author_id is second.doc.author.author_id
    assert first.doc.author.key_id is second.doc.author.key_id is first.signature.key_id
    assert first.signature.key_id is second.signature.key_id
    assert first.doc.identifier.system_id is second.doc.identifier.system_id
    names = [(a.name, b.name) for a, b in zip(first.doc.attributes, second.doc.attributes)]
    assert len(names) == 4 and all(a is b for a, b in names)
    for a, b in zip(first.doc.attributes, second.doc.attributes):
        if a.inline is not None:
            assert a.inline.media_type is b.inline.media_type
        else:
            assert a.link is b.link
    assert {a.inline.media_type for a in first.doc.attributes if a.inline} == {
        "text/plain", "text/markdown"}

    lineage = [r.lineage for r in replayed._log if r.kind == "issue"]
    assert len(lineage) == 300
    assert lineage[1]["system_id"] is lineage[4]["system_id"] is first.doc.identifier.system_id

    identifier = first.doc.identifier
    text = identifier.__str__()
    assert str(identifier) is text and str(identifier) is text
    key = next(k for k, s in replayed.documents.items() if s is first)
    node = next(r["identifier"] for r in lineage if r["identifier"] == text)
    assert key is text and node is text

    by_reporter = {}
    for report in replayed.incidents:
        held = by_reporter.setdefault(report.reporter, report.reporter)
        assert report.reporter is held
    assert len(by_reporter) == 4


def test_the_shared_text_memo_stays_within_its_constant():
    for i in range(SHARED_TEXTS + 100):
        assert shared_text(f"text-{i}") == f"text-{i}"
        assert identity._shared_text.cache_info().currsize <= SHARED_TEXTS
    assert identity._shared_text.cache_info().maxsize == SHARED_TEXTS
    subclass, long_text = Text("sys-a"), "x" * (identity.SHARED_TEXT_CHARS + 1)
    for other in (subclass, long_text, b"sys-a", None, 5, ["sys-a"]):
        assert shared_text(other) is other
    assert shared_text(long_text.upper()) is not shared_text(long_text.upper())


def test_replay_peak_holds_no_copy_of_the_log(repeating_log):
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        replayed = Registry.replay(repeating_log, "acme", clock=SimClock(1_000_000))
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(replayed.incidents) == 300
    assert peak - kept < len(repeating_log) / 2, (peak - base, kept - base, len(repeating_log))
