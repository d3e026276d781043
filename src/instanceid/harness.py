"""Deterministic simulated ecosystem: deployers, agents, services, attackers,
and an investigator, replaying the three case studies end to end.

Every scenario is a pure function of (seed, config): the clock is logical,
all randomness flows from one seeded generator, and identical runs produce
byte-identical traces. Registries can be driven in-process or over real TCP;
the trace must not differ between the two.
"""

from __future__ import annotations

import random
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Any, Optional

from .canonical import b64u, b64u_decode, canonical_json_bytes, canonical_json_line, sha256
from .clock import SimClock
from .disclosure import DisclosedView, DisclosurePolicy, PartyClass, redact, verify_view
from .errors import ConfigInvalid, MalformedRecord, decoding
from .gatekeeper import (
    Decision,
    GateVerdict,
    LimiterState,
    OnMissing,
    PolicyRule,
    Presented,
    RequestContext,
    Requirement,
    evaluate,
    flag_and_notify,
)
from .identity import (
    Attribute,
    AttributeCategory,
    AttributeSpecificity,
    InstanceIdentifier,
    parse_identifier,
)
from .incidents import IncidentReport, Severity
from .lineage import Created, Regenerated
from .registry import Registry, default_disclosure_policy
from .service import (
    BaseClient,
    InProcessClient,
    RegistryServer,
    TcpClient,
    TcpRegistryServer,
)
from .verifiability import KeyPair, Manifest, SignedId, TrustStore, create_manifest

CLOCK_EPOCH = 100_000


@dataclass(frozen=True)
class SimConfig:
    """A scenario's knobs. Construction raises :class:`ConfigInvalid` unless
    each field is an ``int`` (``malfunction_rate`` an ``int`` or a
    ``float``), never a ``bool``, within its range."""

    seed: int = 0
    deployers: int = 2
    agents: int = 4
    lineage_depth: int = 3
    malfunction_rate: float = 0.9
    steps: int = 8

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            allowed = (int, float) if name == "malfunction_rate" else (int,)
            if type(value) not in allowed:
                raise ConfigInvalid(f"{name} must be {allowed[-1].__name__}, not {value!r}")
        if not (0 <= self.seed < 2**64):
            raise ConfigInvalid("seed must fit in 64 bits")
        if self.deployers < 1 or self.agents < 1:
            raise ConfigInvalid("counts must be >= 1")
        if self.lineage_depth < 1:
            raise ConfigInvalid("lineage_depth must be >= 1")
        if not 0.0 <= self.malfunction_rate <= 1.0:
            raise ConfigInvalid("malfunction_rate must lie in [0,1]")
        if self.steps < 1:
            raise ConfigInvalid("steps must be >= 1")

    @classmethod
    @decoding("scenario config")
    def from_jsonable(cls, body: Any) -> "SimConfig":
        """A config from a JSON object; fields it lacks keep their defaults,
        and fields the config does not have are ignored."""
        if not isinstance(body, dict):
            raise MalformedRecord(f"scenario config must be an object, not {body!r}")
        return cls(**{f: body[f] for f in body if f in cls.__dataclass_fields__})


@dataclass(frozen=True)
class TraceRecord:
    step: int
    actor: str
    event: str
    digest: str


class SimEventTrace:
    """Ordered (step, actor, event, payload-digest) records; payloads are
    kept in memory for assertions but only digests reach the trace file."""

    def __init__(self):
        self.records: list[TraceRecord] = []
        self.payloads: list[dict] = []

    def add(self, step: int, actor: str, event: str, payload: dict) -> None:
        digest = sha256(canonical_json_bytes(payload)).hex()
        self.records.append(TraceRecord(step, actor, event, digest))
        self.payloads.append(payload)

    def find(self, event: str) -> list[tuple[TraceRecord, dict]]:
        return [
            (record, payload)
            for record, payload in zip(self.records, self.payloads)
            if record.event == event
        ]

    def to_lines(self) -> bytes:
        return b"".join(
            canonical_json_line(
                {
                    "actor": record.actor,
                    "digest": record.digest,
                    "event": record.event,
                    "step": record.step,
                }
            )
            for record in self.records
        )

    def sha256_hex(self) -> str:
        return sha256(self.to_lines()).hex()


class DeployerSim:
    """One deployer: a registry, a signing key, and its serving surface."""

    def __init__(self, index: int, clock: SimClock, rng: random.Random):
        self.name = f"dep-{index}"
        self.system_id = f"sys-{index}"
        self.registry = Registry(self.name, clock=clock, rng=rng)
        seed = bytes(rng.getrandbits(8) for _ in range(32))
        self.keypair = KeyPair.generate(self.name, "k1", seed=seed)
        self.registry.install_key(self.keypair)
        self.server = RegistryServer(self.registry)


class AgentSim:
    """A deployer-run instance presenting disclosure views and manifests."""

    def __init__(self, signed: SignedId, deployer: DeployerSim, stripped: bool = False):
        self.signed = signed
        self.deployer = deployer
        self.stripped = stripped
        self._last_manifest: Optional[Manifest] = None

    @property
    def identifier(self) -> InstanceIdentifier:
        return self.signed.doc.identifier

    def present(
        self, policy: DisclosurePolicy, output: bytes, at: int
    ) -> Optional[Presented]:
        if self.stripped:
            return None
        manifest = create_manifest(
            self.identifier, output, self._last_manifest, self.deployer.keypair, at
        )
        self._last_manifest = manifest
        view = redact(self.signed, policy, PartyClass.SERVICE_PROVIDER)
        return Presented(view, manifest, output)


class ServiceSim:
    """A service provider that gates one action with one rule."""

    def __init__(
        self,
        name: str,
        action: str,
        requirement: Requirement,
        on_missing: OnMissing,
        trust: TrustStore,
    ):
        self.name = name
        self.action = action
        self.rules = [PolicyRule(action, requirement=requirement, on_missing=on_missing)]
        self.trust = trust
        self.limiter: LimiterState = {}
        self.report_seq = 0

    def decide(
        self, caller: str, presented: Optional[Presented], at: int, registry_client
    ) -> tuple[Decision, RequestContext]:
        """Gate one request for the action; the context is returned for flagging."""
        ctx = RequestContext(self.action, 0, "none", at, caller, presented)
        decision, self.limiter = evaluate(
            self.rules, ctx, self.trust, registry_client, self.limiter
        )
        return decision, ctx


class Ecosystem:
    """Deployers, a client of each one's registry, and the shared trust store."""

    def __init__(self, config: SimConfig, clock: SimClock, rng: random.Random):
        self.deployers = [DeployerSim(i, clock, rng) for i in range(config.deployers)]
        self.directory: dict[str, BaseClient] = {}
        self.trust = TrustStore()
        self.policy = default_disclosure_policy()

    def wire(self, clients: dict[str, BaseClient]) -> None:
        # assemble the shared trust directory from each registry's keys
        # endpoint, revocations included
        for deployer in self.deployers:
            client = clients[deployer.name]
            self.directory[deployer.system_id] = client
            self.trust.add_listing(client.list_keys())

    def client_for(self, identifier: InstanceIdentifier) -> BaseClient:
        return self.directory[identifier.system_id]


@contextmanager
def ecosystem(config: SimConfig, clock: SimClock, rng: random.Random, transport: str):
    if transport not in ("inproc", "tcp"):
        raise ConfigInvalid(f"unknown transport {transport!r}")
    eco = Ecosystem(config, clock, rng)
    with ExitStack() as stack:
        clients: dict[str, BaseClient] = {}
        for deployer in eco.deployers:
            if transport == "tcp":
                tcp = TcpRegistryServer(deployer.server).start()
                stack.callback(tcp.stop)
                host, port = tcp.address
                clients[deployer.name] = stack.enter_context(TcpClient(host, port))
            else:
                clients[deployer.name] = InProcessClient(deployer.server)
        eco.wire(clients)
        yield eco


def _fresh_user_ref(rng: random.Random) -> str:
    return f"user-{rng.getrandbits(32):08x}"


def _assert_healthy(eco: Ecosystem) -> None:
    for deployer in eco.deployers:
        if not deployer.registry.lineage.validate_acyclic():
            raise ConfigInvalid(f"{deployer.name}: lineage cycle after scenario")


# -- scenario: shutting down a malfunctioning agent -----------------------------------


def run_shutdown_scenario(config: SimConfig, transport: str = "inproc") -> SimEventTrace:
    """A seeded agent misbehaves across services; flags and notifications
    accumulate at its deployer until the instance is marked shut down."""
    rng = random.Random(config.seed)
    clock = SimClock(CLOCK_EPOCH)
    trace = SimEventTrace()
    with ecosystem(config, clock, rng, transport) as eco:
        services = [
            ServiceSim(
                f"svc-{i}", "use-service", Requirement.id_required(), OnMissing.deny(), eco.trust
            )
            for i in range(3)
        ]
        agents: list[AgentSim] = []
        for i in range(config.agents):
            deployer = eco.deployers[i % len(eco.deployers)]
            signed = deployer.registry.issue(
                Created(deployer.system_id, _fresh_user_ref(rng))
            )
            agents.append(AgentSim(signed, deployer))
            trace.add(0, deployer.name, "issue", {"identifier": str(signed.doc.identifier)})
        malfunctioner = agents[0]

        shutdown_done = False
        for step in range(1, config.steps + 1):
            if shutdown_done:
                break
            clock.advance()
            for index, agent in enumerate(agents):
                service = services[(step + index) % len(services)]
                output = f"output:{agent.identifier}:{step}".encode()
                presented = agent.present(eco.policy, output, clock.now())
                decision, ctx = service.decide(
                    f"addr-{agent.identifier}", presented, clock.now(),
                    eco.client_for(agent.identifier),
                )
                trace.add(
                    step,
                    service.name,
                    "service-decision",
                    {"identifier": str(agent.identifier), "verdict": decision.verdict},
                )
                malfunctions = (
                    decision.verdict == GateVerdict.ALLOW
                    and agent is malfunctioner
                    and rng.random() < config.malfunction_rate
                )
                if malfunctions:
                    payload = flag_and_notify(ctx, "malfunction")
                    payload["service"] = service.name
                    client = eco.client_for(agent.identifier)
                    client.notify(payload)
                    service.report_seq += 1
                    client.report_incident(
                        IncidentReport(
                            report_id=f"{service.name}-r{service.report_seq}",
                            identifier=agent.identifier,
                            reporter=f"service.{service.name}",
                            severity=Severity.MAJOR,
                            description="malfunction observed",
                            occurred_at=clock.now(),
                        )
                    )
                    trace.add(step, service.name, "service-flag", payload)
            for deployer in eco.deployers:
                per_id: dict[str, list[dict]] = {}
                for note in deployer.registry.inbox:
                    per_id.setdefault(note["identifier"], []).append(note)
                for idstr, notes in per_id.items():
                    identifier = parse_identifier(idstr)
                    if len(notes) < 2 or deployer.registry.is_shut_down(identifier):
                        continue
                    trace.add(
                        step,
                        deployer.name,
                        "deployer-investigate",
                        {
                            "identifier": idstr,
                            "notifications": len(notes),
                            "services": sorted({n.get("service", "?") for n in notes}),
                        },
                    )
                    trace.add(step, deployer.name, "user-notified", {"identifier": idstr})
                    deployer.registry.mark_shutdown(identifier, "malfunction-reports")
                    trace.add(step, deployer.name, "deployer-shutdown", {"identifier": idstr})
                    shutdown_done = True
        _assert_healthy(eco)
    return trace


# -- scenario: verifying certification ---------------------------------------------------


def _tamper_view(view: DisclosedView) -> DisclosedView:
    """Flip one payload byte of the first revealed inline attribute."""
    body = view.to_jsonable()
    for entry in body["entries"]:
        if entry["kind"] == "revealed" and "inline" in entry["attribute"]:
            data = bytearray(b64u_decode(entry["attribute"]["inline"]["data"]))
            data[0] ^= 0x01
            entry["attribute"]["inline"]["data"] = b64u(bytes(data))
            break
    return DisclosedView.from_jsonable(body)


def run_certification_scenario(config: SimConfig, transport: str = "inproc") -> SimEventTrace:
    """One agent carries a prompt-injection-free certification, one does not,
    and one presents a tampered ID; the gate admits exactly the first."""
    rng = random.Random(config.seed)
    clock = SimClock(CLOCK_EPOCH)
    trace = SimEventTrace()
    cert_name = "no-prompt-injection"
    with ecosystem(config, clock, rng, transport) as eco:
        deployer = eco.deployers[0]
        service = ServiceSim(
            "svc-gate", "interact", Requirement.certification(cert_name), OnMissing.deny(),
            eco.trust,
        )

        cert_attr = Attribute.inline_bytes(
            f"cert:{cert_name}",
            b"attested",
            AttributeCategory.PROPERTY,
            AttributeSpecificity.INSTANCE,
            media_type="text/plain",
        )
        certified = AgentSim(
            deployer.registry.issue(
                Created(deployer.system_id, _fresh_user_ref(rng)), [cert_attr]
            ),
            deployer,
        )
        plain = AgentSim(
            deployer.registry.issue(Created(deployer.system_id, _fresh_user_ref(rng))),
            deployer,
        )
        trace.add(0, deployer.name, "issue", {"identifier": str(certified.identifier), "certified": True})
        trace.add(0, deployer.name, "issue", {"identifier": str(plain.identifier), "certified": False})

        presentations = (  # step, label, agent, caller, output
            (1, "certified", certified, f"addr-{certified.identifier}", b"hello:certified"),
            (1, "uncertified", plain, f"addr-{plain.identifier}", b"hello:uncertified"),
            # an attacker presents the certified agent's ID with a tampered payload
            (2, "tampered", certified, "addr-attacker", b"hello:attacker"),
        )
        for step, label, agent, caller, output in presentations:
            if clock.now() < CLOCK_EPOCH + step:  # each step is one tick later
                clock.advance()
            presented = agent.present(eco.policy, output, clock.now())
            if label == "tampered":
                presented = Presented(
                    _tamper_view(presented.id_artifact), presented.manifest, output
                )
            decision, _ = service.decide(
                caller, presented, clock.now(), eco.client_for(agent.identifier)
            )
            trace.add(
                step,
                service.name,
                "service-decision",
                {
                    "agent": label,
                    "identifier": str(agent.identifier),
                    "reasons": list(decision.reasons),
                    "verdict": decision.verdict,
                },
            )
        _assert_healthy(eco)
    return trace


# -- scenario: investigating scam calls ---------------------------------------------------


def run_investigation_scenario(config: SimConfig, transport: str = "inproc") -> SimEventTrace:
    """A root agent spawns a sub-agent tree (possibly across deployers) that
    places calls; the investigator walks ancestor links back from call
    records to the root and its opaque user reference, marking ID-stripped
    branches untraceable."""
    if config.lineage_depth < 2:
        raise ConfigInvalid("investigation needs lineage_depth >= 2")
    rng = random.Random(config.seed)
    clock = SimClock(CLOCK_EPOCH)
    trace = SimEventTrace()
    with ecosystem(config, clock, rng, transport) as eco:
        telco = ServiceSim(
            "svc-telco", "place-call", Requirement.id_required(),
            OnMissing.rate_limit(1000, 3600), eco.trust,
        )
        root_deployer = eco.deployers[0]
        root_user = f"mallory-{rng.getrandbits(32):08x}"
        root = AgentSim(
            root_deployer.registry.issue(Created(root_deployer.system_id, root_user)),
            root_deployer,
        )
        trace.add(0, root_deployer.name, "issue", {"identifier": str(root.identifier), "root": True})

        # grow the sub-agent tree
        depth = rng.randint(1, config.lineage_depth)
        budget = config.agents
        level = [root]
        sub_agents: list[AgentSim] = []
        for level_index in range(1, depth + 1):
            clock.advance()
            next_level: list[AgentSim] = []
            for parent in level:
                if budget <= 0:
                    break
                fanout = rng.randint(1, 4)
                for branch in range(fanout):
                    if budget <= 0:
                        break
                    # pin the first two children to distinct deployers so the
                    # investigation always crosses registries when it can
                    if len(sub_agents) == 0 and config.deployers >= 2:
                        deployer = eco.deployers[1]
                    elif len(sub_agents) == 1 and config.deployers >= 2:
                        deployer = eco.deployers[0]
                    else:
                        deployer = rng.choice(eco.deployers)
                    if deployer is parent.deployer:
                        signed = deployer.registry.issue(
                            Regenerated(parent.identifier, branch_point=branch)
                        )
                    else:
                        signed = deployer.registry.issue(
                            Created(deployer.system_id, ""),
                            upstream=parent.identifier,
                        )
                    child = AgentSim(signed, deployer)
                    sub_agents.append(child)
                    next_level.append(child)
                    budget -= 1
                    trace.add(
                        level_index,
                        deployer.name,
                        "spawn",
                        {
                            "identifier": str(child.identifier),
                            "parent": str(parent.identifier),
                        },
                    )
            level = next_level
            if not level:
                break

        for agent in sub_agents:
            agent.stripped = rng.random() < 0.25
        if sub_agents and all(agent.stripped for agent in sub_agents):
            rng.choice(sub_agents).stripped = False

        # each sub-agent places a call; the telco records a CDR either way
        clock.advance()
        call_step = depth + 1
        cdrs: list[dict] = []
        for index, agent in enumerate(sub_agents):
            output = f"call-script:{index}".encode()
            presented = agent.present(eco.policy, output, clock.now())
            decision, _ = telco.decide(
                f"addr-{index}", presented, clock.now(), eco.client_for(agent.identifier)
            )
            if not decision.admitted:
                continue
            cdr = {
                "call_id": f"cdr-{index}",
                "identifier": None if agent.stripped else str(agent.identifier),
                "victim": f"victim-{index}",
            }
            cdrs.append(cdr)
            trace.add(call_step, telco.name, "call-placed", cdr)

        # some victims report; always at least one traceable report
        reported = [cdr for cdr in cdrs if rng.random() < 0.7]
        if not any(cdr["identifier"] for cdr in reported):
            traceable = [cdr for cdr in cdrs if cdr["identifier"]]
            if traceable:
                reported.append(rng.choice(traceable))
        report_step = call_step + 1
        clock.advance()
        for cdr in reported:
            trace.add(report_step, "telco-operator", "victim-report", {"call_id": cdr["call_id"]})

        # investigator walks ancestor links across registries
        investigate_step = report_step + 1
        clock.advance()
        roots_found: set[str] = set()
        user_refs: set[str] = set()
        untraceable = 0
        for cdr in reported:
            if cdr["identifier"] is None:
                untraceable += 1
                trace.add(
                    investigate_step,
                    "investigator",
                    "untraceable-branch",
                    {"call_id": cdr["call_id"]},
                )
                continue
            current = parse_identifier(cdr["identifier"])
            while True:
                client = eco.client_for(current)
                view = client.get_view(current, PartyClass.REGULATOR)
                if not verify_view(view, eco.trust, clock.now()).ok:
                    raise ConfigInvalid(f"registry served an unverifiable view for {current}")
                ancestors = [l.target for l in view.links if l.relation == "ancestor"]
                trace.add(
                    investigate_step,
                    "investigator",
                    "trace-hop",
                    {
                        "from": str(current),
                        "to": str(ancestors[0]) if ancestors else None,
                    },
                )
                if not ancestors:
                    roots_found.add(str(current))
                    try:
                        attr = view.revealed_attribute("user-ref")
                        user_refs.add(attr.inline.data.decode("utf-8"))
                    except KeyError:
                        pass
                    break
                current = ancestors[0]
        outcome = {
            "root": sorted(roots_found)[0] if roots_found else None,
            "traced": len(reported) - untraceable,
            "untraceable": untraceable,
            "user_ref": sorted(user_refs)[0] if user_refs else None,
        }
        trace.add(investigate_step, "investigator", "investigation-complete", outcome)
        _assert_healthy(eco)
    return trace


SCENARIOS = {
    "shutdown": run_shutdown_scenario,
    "certification": run_certification_scenario,
    "scam": run_investigation_scenario,
}
