"""``investigate``: walking lineage from an incident back to a root instance.

Two deployer registries serve over TCP. Set-up builds a seeded forest: 64
roots with ``user-ref`` set, each growing a sub-agent tree whose leaves all
sit at the root's depth (4 to 8, one fifth of the roots each). About 40%
of the nodes on a level have two children and the rest one; a third of the
edges cross deployers via ``issue(..., upstream=parent)``, the rest use
``Regenerated``. The seed picks which nodes branch and which edges cross,
not how many, so every seed builds a forest of the same size. A walk starts
at a leaf: one ``get_lineage(leaf, "ancestors")``, then on every node up to
the root ``get_view(REGULATOR)``, ``verify_view`` and a step along the
``ancestor`` link, switching registry by the system the target belongs to.

Walk depths cycle through the five depth classes in shuffled blocks, so the
median walk is a depth-6 walk whatever the seed.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Callable

import instanceid.disclosure as disclosure
from instanceid import (
    Created,
    PartyClass,
    Regenerated,
    Registry,
    RegistryServer,
    SimClock,
    TcpClient,
    TcpRegistryServer,
    TrustStore,
)

from .common import EPOCH, Meter, lapped, no_lap, seeded_keypair

N_ROOTS = 64
DEPTHS = (4, 5, 6, 7, 8)
SYSTEMS_PER_DEPLOYER = 4
CROSS_SHARE = 1 / 3
TWO_CHILDREN = 0.4
DEPLOYERS = ("dep-a", "dep-b")


def system(deployer: int, index: int) -> str:
    return f"{DEPLOYERS[deployer]}-sys{index}"


class Owed:
    """Whole counts from fractional shares, carrying the remainders over
    from level to level, so that the counts do not depend on the seed."""

    def __init__(self):
        self.carry: dict[str, float] = {}

    def take(self, what: str, share: float) -> int:
        total = self.carry.get(what, 0.0) + share
        count = int(total)
        self.carry[what] = total - count
        return count


def plan(seed: int) -> dict:
    """The forest as a node list in issue order (parents before children)."""
    rng = random.Random(f"investigate/{seed}")
    owed = Owed()
    nodes = []  # {deployer, system, parent, root, depth, cross, user_ref}
    for r in range(N_ROOTS):
        deployer = rng.randrange(len(DEPLOYERS))
        nodes.append(
            {
                "cross": False,
                "depth": 0,
                "deployer": deployer,
                "parent": None,
                "root": r,
                "system": system(deployer, rng.randrange(SYSTEMS_PER_DEPLOYER)),
                "user_ref": f"user-{r}-{rng.getrandbits(32):08x}",
            }
        )
        level = [len(nodes) - 1]
        for depth in range(1, DEPTHS[r % len(DEPTHS)] + 1):
            twins = set(rng.sample(level, owed.take("twins", TWO_CHILDREN * len(level))))
            parents = [parent for parent in level for _ in range(2 if parent in twins else 1)]
            crossing = set(
                rng.sample(range(len(parents)), owed.take("cross", CROSS_SHARE * len(parents)))
            )
            next_level = []
            for n, parent in enumerate(parents):
                p = nodes[parent]
                cross = n in crossing
                deployer = 1 - p["deployer"] if cross else p["deployer"]
                nodes.append(
                    {
                        "cross": cross,
                        "depth": depth,
                        "deployer": deployer,
                        "parent": parent,
                        "root": r,
                        "system": (
                            system(deployer, rng.randrange(SYSTEMS_PER_DEPLOYER))
                            if cross
                            else p["system"]
                        ),
                        "user_ref": "",
                    }
                )
                next_level.append(len(nodes) - 1)
            level = next_level
    return {
        "key_seeds": [rng.randbytes(32).hex() for _ in DEPLOYERS],
        "nodes": nodes,
        "registry_seeds": [rng.getrandbits(64) for _ in DEPLOYERS],
        "walk_seed": rng.getrandbits(64),
    }


def leaves_by_class(nodes: list[dict]) -> list[list[int]]:
    """Leaf node indices grouped by their root's depth class."""
    groups: list[list[int]] = [[] for _ in DEPTHS]
    for index, node in enumerate(nodes):
        if node["depth"] == DEPTHS[node["root"] % len(DEPTHS)]:
            groups[node["root"] % len(DEPTHS)].append(index)
    return groups


def walk_stream(walk_seed: int, groups: list[list[int]]):
    """Endless leaf indices; every block of five covers each depth class once."""
    rng = random.Random(walk_seed)
    while True:
        block = list(range(len(DEPTHS)))
        rng.shuffle(block)
        for cls in block:
            yield rng.choice(groups[cls])


class Investigate:
    name = "investigate"
    latency_kind = "hop"
    setup_reps = 15

    def __init__(self, seed: int, lap: Callable[[], None] = no_lap):
        self.plan = plan(seed)
        p = self.plan
        self.trust = TrustStore()
        self.registries_ = []
        for name, key_seed, reg_seed in zip(DEPLOYERS, p["key_seeds"], p["registry_seeds"]):
            keypair = seeded_keypair(random.Random(key_seed), name)
            registry = Registry(name, clock=SimClock(EPOCH), rng=random.Random(reg_seed))
            registry.install_key(keypair)
            self.trust.register_key(name, keypair.public_key())
            self.registries_.append(registry)
        nodes = p["nodes"]
        self.root_nodes = [i for i, node in enumerate(nodes) if node["parent"] is None]
        self.idents = []
        for node in lapped(nodes, lap):
            registry = self.registries_[node["deployer"]]
            if node["parent"] is None:
                event, upstream = Created(node["system"], node["user_ref"]), None
            elif node["cross"]:
                event = Created(node["system"], node["user_ref"])
                upstream = self.idents[node["parent"]]
            else:
                event, upstream = Regenerated(self.idents[node["parent"]]), None
            self.idents.append(registry.issue(event, upstream=upstream).doc.identifier)
        self.servers = []
        self.clients = {}
        for index, registry in enumerate(self.registries_):
            server = TcpRegistryServer(RegistryServer(registry)).start()
            self.servers.append(server)
            client = TcpClient(*server.address)
            for s in range(SYSTEMS_PER_DEPLOYER):
                self.clients[system(index, s)] = client
        self.stream = walk_stream(p["walk_seed"], leaves_by_class(nodes))

    def expected_lineage(self, leaf: int) -> list:
        """Ancestors the leaf's own registry knows: up to and including the
        first parent held by the other deployer, which it marks external."""
        nodes = self.plan["nodes"]
        out = []
        current = leaf
        while nodes[current]["parent"] is not None:
            parent = nodes[current]["parent"]
            external = nodes[current]["cross"]
            out.append((self.idents[parent], external))
            if external:
                break
            current = parent
        return sorted(out, key=lambda pair: str(pair[0]))

    def ops(self):
        return self.stream

    def step(self, leaf: int, meter: Meter):
        nodes = self.plan["nodes"]
        ident = self.idents[leaf]
        start = perf_counter()
        lineage = self.clients[ident.system_id].get_lineage(ident, "ancestors")
        spent = perf_counter() - start
        if lineage != self.expected_lineage(leaf):
            meter.fail(f"get_lineage({ident}) disagrees with the recorded ancestors")
        current, node, hops = ident, leaf, 0
        while True:
            start = perf_counter()
            view = self.clients[current.system_id].get_view(current, PartyClass.REGULATOR)
            report = disclosure.verify_view(view, self.trust, view.created_at)
            ancestors = [link.target for link in view.links if link.relation == "ancestor"]
            hop = perf_counter() - start
            meter.sample("hop", hop)
            spent += hop
            hops += 1
            parent = nodes[node]["parent"]
            if not report.ok or view.identifier != current:
                meter.fail(f"view of {current}: {report.verdict.value}")
                return spent, hops
            if not ancestors:
                break
            if parent is None or ancestors[0] != self.idents[parent]:
                meter.fail(f"{current}: ancestor link {ancestors[0]} is not the recorded parent")
                return spent, hops
            current, node = ancestors[0], parent
        root = self.root_nodes[nodes[leaf]["root"]]
        found = view.revealed_attribute("user-ref").inline.data.decode()
        if node != root or found != nodes[root]["user_ref"]:
            meter.fail(f"walk from {ident} ended at {current} with user-ref {found!r}")
        meter.sample("walk", spent)
        return spent, hops

    def details(self, meter: Meter) -> dict:
        value, count = meter.p("walk", 0.5)
        return {"walk_p50_us": ("us", value, count)}

    def registries(self) -> list:
        return self.registries_

    def limiter_keys(self) -> int:
        return 0

    def close(self) -> None:
        for server in self.servers:
            server.stop()
