"""Byte-level pins of observable behaviour: scenario traces and registry logs.

The expected hashes were taken from the code before the wire codec was
consolidated; a refactor that changes any byte a deployer signs, logs or
serves shows up here.
"""

import hashlib
import random

import pytest

from instanceid import (
    Attribute,
    AttributeCategory,
    AttributeSpecificity,
    Created,
    FineTuned,
    IncidentReport,
    Merged,
    Regenerated,
    Registry,
    Reloaded,
    Severity,
    SimClock,
    parse_identifier,
)
from instanceid.harness import SCENARIOS, SimConfig

from helpers import fixed_keypair

TRACE_SHA256 = {
    ("shutdown", 1):
        "1d19fc737cd1b37646fe374f7c7cc4d0e9d378cf9dabaa0551965e8fa8f6af83",
    ("shutdown", 7):
        "6df6a79478daba8c944c668ccdecdc187267ae8a448fa3179b1ac846694832d2",
    ("shutdown", 21):
        "dc9c7bdfa4681f9a9651af212b607759d2b73a9531c1edc82440c9cc5f965343",
    ("certification", 1):
        "feafc836c58d00ea0f76ad9c0430ca2276cee9596c819c4b5a79c8101bc9eda7",
    ("certification", 7):
        "c49bee9962201a0f4bd65eba57c8acea4052f664342c37ee5baa7e85d24671a2",
    ("certification", 21):
        "7cc9dbca66ebb2f9c58bd86dc825edbbf5a9cf4d418fb2f3b0a864ed09b52906",
    ("scam", 1):
        "d3765e0e9aebbd0a9f5b77971017e2d379881eac5f587fd365e4975d1497a078",
    ("scam", 7):
        "91221b225ab0982fae0645dd667aa0562fcace8e7aee49fabecebbcae1dad71c",
    ("scam", 21):
        "a4a834fecaa616033ef1452813e5ba40b1cd056bcaedb4df0c8bc66c9653f01b",
}

LOG_SHA256 = "a958bf60b854c4f3cd0cf4d2efc3d4466610ac5afffb9d21f2e1f6c56fa69ee0"
STATE_SHA256 = "27d0da1ccf516271610ca639528caf3925c6d5791c1264a046217ae80ba687e5"


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
@pytest.mark.parametrize("name, seed", sorted(TRACE_SHA256))
def test_scenario_trace_hash_is_pinned(name, seed, transport):
    trace = SCENARIOS[name](SimConfig(seed=seed), transport=transport)
    assert trace.sha256_hex() == TRACE_SHA256[(name, seed)]


def every_record_kind_registry() -> Registry:
    """A seeded registry whose log holds every record kind."""
    clock = SimClock(1_000_000)
    registry = Registry("acme", clock=clock, rng=random.Random(42))
    registry.install_key(fixed_keypair("acme", "k1"))
    registry.register_foreign_key("beta", fixed_keypair("beta", "b1").public_key())
    clock.advance()
    registry.revoke_key("beta", "b1")
    card = Attribute.inline_bytes(
        "system-card", b"card", AttributeCategory.PROPERTY, AttributeSpecificity.SYSTEM,
        media_type="text/plain", salt=bytes(range(16)),
    )
    cert = Attribute.linked(
        "cert:safety", "https://certs.example/safety", AttributeCategory.PROPERTY,
        AttributeSpecificity.INSTANCE,
    )
    root = registry.issue(Created("sys-a", "user-1"), [card, cert], nonce="n0").doc.identifier
    other = registry.issue(Created("sys-b", "")).doc.identifier
    clock.advance()
    child = registry.issue(Regenerated(root, branch_point=3)).doc.identifier
    registry.issue(Merged((child, other)))
    registry.issue(FineTuned("sys-a"))
    registry.issue(Reloaded(root), nonce="n1")
    registry.issue(
        Created("sys-c", "user-2"), upstream=parse_identifier("other:ffff0000aaaa1111")
    )
    clock.advance()
    registry.report_incident(
        IncidentReport("r1", child, "service.x", Severity.MAJOR, "x", clock.now(), "user-1")
    )
    registry.report_incident(
        IncidentReport("r2", root, "auditor.y", Severity.INFO, "y", clock.now())
    )
    registry.mark_shutdown(child, "tested")
    return registry


def test_registry_log_and_state_bytes_are_pinned():
    registry = every_record_kind_registry()
    log = registry.log_lines()
    assert hashlib.sha256(log).hexdigest() == LOG_SHA256
    assert hashlib.sha256(registry.canonical_state_bytes()).hexdigest() == STATE_SHA256
    replayed = Registry.replay(log, "acme", clock=registry.clock)
    assert replayed.log_lines() == log
    assert replayed.canonical_state_bytes() == registry.canonical_state_bytes()
