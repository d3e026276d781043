"""``gate-mixed``: a service provider gating requests in-process.

One rule: ``verified-id`` with ``on_missing=rate_limit(5, 60)`` and an
instance incident threshold of 3, checked against a registry of 1k
instances and 1k incidents reached through ``InProcessClient``. Traffic:

* 75% from 64 recurring agents, each showing the same redacted
  SERVICE_PROVIDER view with a fresh chained manifest; the agents hold 0
  to 6 preloaded incidents, each count on the same number of agents for
  every seed, so the share above the threshold does not vary by seed;
* 5% showing a view whose revealed ``incident-db`` attribute was altered;
* 20% ID-less callers from a pool of 5,000 addresses, half of them from 16
  hot addresses so that some exhaust their bucket.

Each block of 20 requests holds exactly this mix in shuffled order.

The limiter is warmed with the whole address pool during set-up. Each
request (with its fresh manifest) is built just before it is sent, outside
the timed call, so only ``evaluate`` is timed; their number grows with the
run, so set-up time excludes them.
"""

from __future__ import annotations

import random
from dataclasses import replace
from time import perf_counter
from typing import Callable

import instanceid.gatekeeper as gk
from instanceid import (
    Created,
    IncidentReport,
    IncidentThreshold,
    InProcessClient,
    OnMissing,
    PartyClass,
    PolicyRule,
    Presented,
    Registry,
    RegistryServer,
    RequestContext,
    Requirement,
    Severity,
    SimClock,
    TrustStore,
    create_manifest,
)
from instanceid.disclosure import RevealedEntry
from instanceid.registry import INCIDENT_DB_ATTRIBUTE

from .common import EPOCH, Meter, lapped, no_lap, seeded_keypair

N_INSTANCES = 1_000
N_INCIDENTS = 1_000
N_SYSTEMS = 4
N_AGENTS = 64
MAX_AGENT_INCIDENTS = 6
N_ADDRESSES = 5_000
HOT_ADDRESSES = 16
# requests per block of 20; half of the ID-less ones from the hot addresses
MIX = {"agent": 15, "tampered": 1, "noid-hot": 2, "noid": 2}
THRESHOLD = 3
RATE = (5, 60)
DECISIONS_PER_SECOND = 50  # logical clock: requests per simulated second
REPORTER_CLASSES = ("service-provider", "user", "auditor", "instance")
WARM_AT = EPOCH - 3600

ALLOW = ("allow", (), True)
DENIED_THRESHOLD = ("denied", ("incident-threshold",), False)
DENIED_UNVERIFIED = ("denied", ("unverified",), False)


def plan(seed: int) -> dict:
    """Everything set-up builds, as plain data drawn from the seed."""
    rng = random.Random(f"gate-mixed/{seed}")
    instances = [
        {"system": f"gsys-{rng.randrange(N_SYSTEMS)}", "user_ref": f"user-{i:05d}"}
        for i in range(N_INSTANCES)
    ]
    agents = rng.sample(range(N_INSTANCES), N_AGENTS)
    agent_counts = [n % (MAX_AGENT_INCIDENTS + 1) for n in range(N_AGENTS)]
    rng.shuffle(agent_counts)
    others = sorted(set(range(N_INSTANCES)) - set(agents))
    targets = [a for a, n in zip(agents, agent_counts) for _ in range(n)]
    targets += [rng.choice(others) for _ in range(N_INCIDENTS - len(targets))]
    rng.shuffle(targets)
    incidents = [
        {
            "occurred_at": EPOCH - rng.randrange(30 * 86400),
            "reporter": f"{rng.choice(REPORTER_CLASSES)}.r{rng.randrange(100)}",
            "severity": rng.choice([s.value for s in Severity]),
            "target": target,
        }
        for target in targets
    ]
    return {
        "agent_counts": agent_counts,
        "agents": agents,
        "incidents": incidents,
        "instances": instances,
        "key_seed": rng.randbytes(32).hex(),
        "registry_seed": rng.getrandbits(64),
        "stream_seed": rng.getrandbits(64),
    }


def address(index: int) -> str:
    return f"198.18.{index >> 8}.{index & 255}"


def request_stream(stream_seed: int):
    """Endless (kind, agent slot, address index) triples, in shuffled blocks
    that each hold the exact traffic mix."""
    rng = random.Random(stream_seed)
    while True:
        block = [kind for kind, count in MIX.items() for _ in range(count)]
        rng.shuffle(block)
        for kind in block:
            if kind == "noid-hot":
                yield "noid", None, rng.randrange(HOT_ADDRESSES)
            elif kind == "noid":
                yield kind, None, rng.randrange(N_ADDRESSES)
            else:
                yield kind, rng.randrange(N_AGENTS), None


class ShadowLimiter:
    """The benchmark's own token count per address: ``requests`` tokens per
    window, windows anchored at an address's first request."""

    def __init__(self, requests: int, window: int):
        self.requests = requests
        self.window = window
        self.buckets: dict[str, tuple[int, int]] = {}  # addr -> (window start, used)

    def admit(self, addr: str, now: int) -> bool:
        start, used = self.buckets.get(addr, (now, 0))
        if now - start >= self.window:
            start += (now - start) // self.window * self.window
            used = 0
        admitted = used < self.requests
        self.buckets[addr] = (start, used + admitted)
        return admitted


def tamper(view):
    """Alter the revealed incident-db link; its commitment no longer matches."""
    entries = tuple(
        replace(e, attribute=replace(e.attribute, link=e.attribute.link + "&x=1"))
        if isinstance(e, RevealedEntry) and e.attribute.name == INCIDENT_DB_ATTRIBUTE
        else e
        for e in view.entries
    )
    return replace(view, entries=entries)


class GateMixed:
    name = "gate-mixed"
    latency_kind = "all"
    setup_reps = 9

    def __init__(self, seed: int, lap: Callable[[], None] = no_lap):
        self.plan = plan(seed)
        p = self.plan
        self.keypair = seeded_keypair(random.Random(p["key_seed"]), "dep-gate")
        self.registry = Registry(
            "dep-gate", clock=SimClock(EPOCH), rng=random.Random(p["registry_seed"])
        )
        self.registry.install_key(self.keypair)
        idents = [
            self.registry.issue(Created(i["system"], i["user_ref"])).doc.identifier
            for i in lapped(p["instances"], lap)
        ]
        for n, inc in enumerate(lapped(p["incidents"], lap)):
            self.registry.report_incident(
                IncidentReport(
                    report_id=f"rep-{n}",
                    identifier=idents[inc["target"]],
                    reporter=inc["reporter"],
                    severity=Severity(inc["severity"]),
                    description="preloaded",
                    occurred_at=inc["occurred_at"],
                )
            )
        self.client = InProcessClient(RegistryServer(self.registry))
        self.trust = TrustStore()
        self.trust.register_key("dep-gate", self.keypair.public_key())
        self.rules = [
            PolicyRule(
                action="*",
                requirement=Requirement.verified_id(),
                on_missing=OnMissing.rate_limit(*RATE),
                incident_threshold=IncidentThreshold("instance", THRESHOLD),
            )
        ]
        self.agents = [idents[i] for i in p["agents"]]
        self.views = [
            self.client.get_view(ident, PartyClass.SERVICE_PROVIDER) for ident in self.agents
        ]
        self.agent_expected = [
            DENIED_THRESHOLD if count > THRESHOLD else ALLOW for count in p["agent_counts"]
        ]
        self.tampered = []
        for ident, view in zip(self.agents, self.views):
            output = f"tampered:{ident}".encode()
            manifest = create_manifest(ident, output, None, self.keypair, WARM_AT)
            self.tampered.append(Presented(tamper(view), manifest, output))
        self.chains = [None] * N_AGENTS
        self.shadow = ShadowLimiter(*RATE)
        self.limiter: dict = {}
        self.stream = request_stream(p["stream_seed"])
        self.issued = 0
        for index in lapped(range(N_ADDRESSES), lap):
            ctx = self._context(address(index), WARM_AT, None)
            self.shadow.admit(ctx.caller, WARM_AT)
            _, self.limiter = gk.evaluate(
                self.rules, ctx, self.trust, self.client, self.limiter
            )

    def _context(self, caller: str, at: int, presented) -> RequestContext:
        return RequestContext("call-api", 1, "request", at, caller, presented)

    def ops(self):
        """Endless requests as (kind, context, expected outcome). They must
        run in the order they are made: the shadow limiter advances as each
        one is made."""
        for kind, slot, addr_index in self.stream:
            at = EPOCH + self.issued // DECISIONS_PER_SECOND
            caller = f"agent-{slot}" if slot is not None else address(addr_index)
            self.issued += 1
            if kind == "agent":
                ident = self.agents[slot]
                output = f"output:{ident}:{self.issued}".encode()
                manifest = create_manifest(ident, output, self.chains[slot], self.keypair, at)
                self.chains[slot] = manifest
                ctx = self._context(caller, at, Presented(self.views[slot], manifest, output))
                yield "id", ctx, self.agent_expected[slot]
            elif kind == "tampered":
                yield "id", self._context(caller, at, self.tampered[slot]), DENIED_UNVERIFIED
            else:
                admitted = self.shadow.admit(caller, at)
                expected = ("throttled", ("no-id", "rate-limit"), admitted)
                yield "noid", self._context(caller, at, None), expected

    def step(self, op, meter: Meter):
        kind, ctx, expected = op
        start = perf_counter()
        decision, self.limiter = gk.evaluate(
            self.rules, ctx, self.trust, self.client, self.limiter
        )
        spent = perf_counter() - start
        meter.sample("all", spent)
        meter.sample(kind, spent)
        got = (decision.verdict, decision.reasons, decision.admitted)
        if got != expected:
            meter.fail(f"{ctx.caller} at {ctx.timestamp}: got {got}, expected {expected}")
        return spent, 1

    def details(self, meter: Meter) -> dict:
        out = {}
        for name, kind in (("gate_id_p50_us", "id"), ("gate_noid_p50_us", "noid")):
            value, count = meter.p(kind, 0.5)
            out[name] = ("us", value, count)
        return out

    def registries(self) -> list:
        return [self.registry]

    def limiter_keys(self) -> int:
        return len(self.limiter)

    def close(self) -> None:
        pass
