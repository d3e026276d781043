"""``registry-tcp``: a deployer registry serving writes beside reads over TCP.

The registry serves through ``TcpRegistryServer`` on a thread of this
process; the client is ``TcpClient`` as shipped (one connection per
request). Set-up preloads 10k instances over 8 systems and 10k incidents
through the public ``Registry`` API. The mix is 20% ``issue``, 30%
``report_incident``, 30% ``query_incidents`` (instance scope 24%, system 3%,
party-class 3%) and 20% ``get_id``.

Writes grow the registry, and the incident scan is linear in its size. So
that every run measures the same work on the same sizes, whatever the
program's speed and the run's length, operations come in epochs of
EPOCH_BLOCKS mix blocks, and before each epoch after the first the registry
is put back to its preloaded state with ``Registry.replay`` of the log
saved at the end of set-up. The reset is neither timed nor traced.
"""

from __future__ import annotations

import gc
import itertools
import random
from time import perf_counter
from typing import Callable

import instanceid.verifiability as verifiability
from instanceid import (
    Created,
    IncidentReport,
    IncidentScope,
    Registry,
    RegistryServer,
    Severity,
    SimClock,
    TcpClient,
    TcpRegistryServer,
    TrustStore,
)

from .common import EPOCH, Meter, lapped, no_lap, seeded_keypair

N_SYSTEMS = 8
N_INSTANCES = 10_000
N_INCIDENTS = 10_000
REPORTER_CLASSES = ("service-provider", "user", "auditor", "instance")
# operations per block of 100; each block is shuffled, so every seed runs
# the same mix and only the order differs
MIX = {
    "issue": 20,
    "report": 30,
    "query-instance": 24,
    "query-system": 3,
    "query-party": 3,
    "get_id": 20,
}
OP_KINDS = ("issue", "report", "query", "get_id")
# mix blocks per epoch; an epoch adds 600 incidents and 400 instances
EPOCH_BLOCKS = 20
AUTHOR = "dep-reg"


def system(index: int) -> str:
    return f"rsys-{index}"


def incident(rng: random.Random, target: int) -> dict:
    return {
        "occurred_at": EPOCH - rng.randrange(30 * 86400),
        "reporter": f"{rng.choice(REPORTER_CLASSES)}.r{rng.randrange(100)}",
        "severity": rng.choice([s.value for s in Severity]),
        "target": target,
    }


def plan(seed: int) -> dict:
    rng = random.Random(f"registry-tcp/{seed}")
    instances = [
        {"system": rng.randrange(N_SYSTEMS), "user_ref": f"user-{i:05d}"}
        for i in range(N_INSTANCES)
    ]
    incidents = [incident(rng, rng.randrange(N_INSTANCES)) for _ in range(N_INCIDENTS)]
    return {
        "incidents": incidents,
        "instances": instances,
        "key_seed": rng.randbytes(32).hex(),
        "registry_seed": rng.getrandbits(64),
        "stream_seed": rng.getrandbits(64),
    }


def epoch_ops(rng: random.Random, epoch: int):
    """One epoch of operations as plain data; instance indices refer to the
    preloaded instances followed by those issued earlier in the epoch."""
    n_instances = N_INSTANCES
    serial = 0
    for _ in range(EPOCH_BLOCKS):
        block = [kind for kind, count in MIX.items() for _ in range(count)]
        rng.shuffle(block)
        for kind in block:
            serial += 1
            if kind == "issue":
                user_ref = f"user-e{epoch}-{serial}"
                yield {"kind": kind, "system": rng.randrange(N_SYSTEMS), "user_ref": user_ref}
                n_instances += 1
            elif kind == "report":
                report_id = f"run-{epoch}-{serial}"
                yield {"kind": kind, "id": report_id, **incident(rng, rng.randrange(n_instances))}
            elif kind == "query-system":
                yield {"kind": kind, "system": rng.randrange(N_SYSTEMS)}
            elif kind == "query-party":
                yield {"kind": kind, "class": rng.choice(REPORTER_CLASSES)}
            else:  # query-instance, get_id
                yield {"kind": kind, "target": rng.randrange(n_instances)}


class Tally:
    """The benchmark's own incident counts per instance, system and class."""

    def __init__(self):
        self.instance: dict[int, int] = {}
        self.system: dict[str, int] = {}
        self.party: dict[str, int] = {}

    def add(self, target: int, system_id: str, reporter: str) -> None:
        self.instance[target] = self.instance.get(target, 0) + 1
        self.system[system_id] = self.system.get(system_id, 0) + 1
        cls = reporter.split(".", 1)[0]
        self.party[cls] = self.party.get(cls, 0) + 1

    def copy(self) -> "Tally":
        out = Tally()
        out.instance, out.system, out.party = dict(self.instance), dict(self.system), dict(self.party)
        return out


class RegistryTcp:
    name = "registry-tcp"
    latency_kind = "all"
    setup_reps = 3

    def __init__(self, seed: int, lap: Callable[[], None] = no_lap):
        self.plan = plan(seed)
        p = self.plan
        self.keypair = seeded_keypair(random.Random(p["key_seed"]), AUTHOR)
        self.registry = Registry(
            AUTHOR, clock=SimClock(EPOCH), rng=random.Random(p["registry_seed"])
        )
        self.registry.install_key(self.keypair)
        self.trust = TrustStore()
        self.trust.register_key(AUTHOR, self.keypair.public_key())
        self.idents = [
            self.registry.issue(Created(system(i["system"]), i["user_ref"])).doc.identifier
            for i in lapped(p["instances"], lap)
        ]
        self.tally = Tally()
        for n, inc in enumerate(lapped(p["incidents"], lap)):
            self.registry.report_incident(self._report(f"pre-{n}", inc))
            self.tally.add(inc["target"], self.idents[inc["target"]].system_id, inc["reporter"])
        self.preloaded = self.registry.log_lines(), self.tally.copy()
        self._serve()
        self.stream = self._epochs()

    def _serve(self) -> None:
        self.server = TcpRegistryServer(RegistryServer(self.registry)).start()
        self.client = TcpClient(*self.server.address)

    def _epochs(self):
        rng = random.Random(self.plan["stream_seed"])
        for epoch in itertools.count():
            if epoch:
                self._reset(epoch)
            yield from epoch_ops(rng, epoch)

    def _reset(self, epoch: int) -> None:
        """Serve a registry replayed from the preloaded log. Its generator
        is seeded per epoch, so identifiers issued in different epochs
        differ."""
        self.server.stop()
        # free the old registry first, so that peak memory stays that of one
        self.server = self.client = self.registry = None
        gc.collect()
        log, tally = self.preloaded
        rng = random.Random(f"{self.plan['registry_seed']}/{epoch}")
        self.registry = Registry.replay(log, AUTHOR, clock=SimClock(EPOCH), rng=rng)
        self.registry.install_key(self.keypair)
        del self.idents[N_INSTANCES:]
        self.tally = tally.copy()
        self._serve()
        gc.collect()

    def _report(self, report_id: str, inc: dict) -> IncidentReport:
        return IncidentReport(
            report_id=report_id,
            identifier=self.idents[inc["target"]],
            reporter=inc["reporter"],
            severity=Severity(inc["severity"]),
            description="benchmark report",
            occurred_at=inc["occurred_at"],
        )

    def ops(self):
        return self.stream

    def step(self, op, meter: Meter):
        kind = op["kind"]
        client = self.client
        if kind == "issue":
            event = Created(system(op["system"]), op["user_ref"])
            start = perf_counter()
            signed = client.issue(event)
            spent = perf_counter() - start
            with meter.untraced():
                self.idents.append(signed.doc.identifier)
                report = verifiability.verify_id(signed, self.trust, signed.doc.created_at)
            if not report.ok or signed.doc.identifier.system_id != event.system_id:
                meter.fail(f"issued {signed.doc.identifier}: {report.verdict.value}")
        elif kind == "report":
            report = self._report(op["id"], op)
            start = perf_counter()
            client.report_incident(report)
            spent = perf_counter() - start
            self.tally.add(op["target"], report.identifier.system_id, op["reporter"])
        elif kind == "get_id":
            ident = self.idents[op["target"]]
            start = perf_counter()
            signed = client.get_id(ident)
            spent = perf_counter() - start
            if signed.doc.identifier != ident:
                meter.fail(f"get_id({ident}) returned {signed.doc.identifier}")
        else:
            if kind == "query-instance":
                scope = IncidentScope.instance(self.idents[op["target"]])
                expected = self.tally.instance.get(op["target"], 0)
            elif kind == "query-system":
                scope = IncidentScope.system(system(op["system"]))
                expected = self.tally.system.get(scope.value, 0)
            else:
                scope = IncidentScope.party_class(op["class"])
                expected = self.tally.party.get(scope.value, 0)
            start = perf_counter()
            reports = client.query_incidents(scope)
            spent = perf_counter() - start
            if len(reports) != expected:
                meter.fail(f"query {scope}: {len(reports)} reports, expected {expected}")
            kind = "query"
        meter.sample("all", spent)
        meter.sample(kind, spent)
        return spent, 1

    def details(self, meter: Meter) -> dict:
        out = {}
        for kind in OP_KINDS:
            value, count = meter.p(kind, 0.5)
            out[f"{kind}_p50_us"] = ("us", value, count)
        return out

    def registries(self) -> list:
        return [self.registry]

    def limiter_keys(self) -> int:
        return 0

    def close(self) -> None:
        self.server.stop()
