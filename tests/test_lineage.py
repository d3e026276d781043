"""Lifecycle events, DAG traversal against an independent closure oracle."""

import random

import pytest

from instanceid import (
    Created,
    FineTuned,
    InstanceIdentifier,
    LineageStore,
    Merged,
    Regenerated,
    Registry,
    Reloaded,
    SimClock,
    parse_identifier,
)
from instanceid.errors import (
    DuplicateConstituents,
    MalformedRecord,
    UnknownConstituent,
    UnknownIdentifier,
    UnknownParent,
)
from instanceid.lineage import composite_system_id

from helpers import fixed_keypair


def transitive_closure(pairs):
    """Independent oracle: iterate relation composition to a fixpoint."""
    closure = set(pairs)
    while True:
        extended = closure | {
            (a, d) for (a, b) in closure for (c, d) in closure if b == c
        }
        if extended == closure:
            return closure
        closure = extended


def grow_random_dag(rng, n_events=60):
    """Drive the store through random events; returns (store, instance ids)."""
    store = LineageStore(rng=rng)
    identifiers = []
    for step in range(n_events):
        roll = rng.random()
        if roll < 0.35 or len(identifiers) < 2:
            ident = store.commit(store.build(Created(f"sys-{rng.randint(0, 3)}", f"u{step}")))
        elif roll < 0.6:
            parent = rng.choice(identifiers)
            ident = store.commit(store.build(Regenerated(parent, branch_point=step)))
        elif roll < 0.75:
            count = min(len(identifiers), rng.randint(2, 3))
            constituents = tuple(rng.sample(identifiers, count))
            ident = store.commit(store.build(Merged(constituents)))
        elif roll < 0.9:
            ident = store.commit(store.build(Reloaded(rng.choice(identifiers))))
            continue  # nothing new to track
        else:
            ident = store.commit(store.build(FineTuned(f"sys-{rng.randint(0, 3)}")))
        identifiers.append(ident)
    return store, identifiers


# -- event registration ------------------------------------------------------------


def test_created_twice_yields_distinct_fresh_ids():
    store = LineageStore(rng=random.Random(1))
    first = store.commit(store.build(Created("s", "u1")))
    second = store.commit(store.build(Created("s", "u2")))
    assert first != second
    assert first.system_id == second.system_id == "s"


def test_reloaded_retains_identifier_and_leaves_store_unchanged():
    store = LineageStore(rng=random.Random(2))
    original = store.commit(store.build(Created("s", "u")))
    nodes, edges = store.nodes(), store.edges()
    returned = store.commit(store.build(Reloaded(original)))
    assert returned == original
    assert store.nodes() == nodes
    assert store.edges() == edges


def test_regenerated_creates_branch_edge_under_parent_system():
    store = LineageStore(rng=random.Random(3))
    parent = store.commit(store.build(Created("s", "u")))
    child = store.commit(store.build(Regenerated(parent, branch_point=4)))
    assert child.system_id == "s"
    assert child != parent
    assert (str(parent), str(child), "branch") in store.edges()


def test_merged_links_constituents():
    store = LineageStore(rng=random.Random(4))
    a = store.commit(store.build(Created("s", "u")))
    b = store.commit(store.build(Created("s", "u")))
    merged = store.commit(store.build(Merged((a, b))))
    assert (str(a), str(merged), "constituent") in store.edges()
    assert (str(b), str(merged), "constituent") in store.edges()
    assert merged.system_id == composite_system_id(["s", "s"])


def test_composite_system_id_order_independent():
    assert composite_system_id(["x", "y"]) == composite_system_id(["y", "x"])
    assert composite_system_id(["x"]) != composite_system_id(["y"])


def test_fine_tuned_creates_system_nodes_and_link():
    store = LineageStore(rng=random.Random(5))
    ident = store.commit(store.build(FineTuned("base-sys")))
    assert ident.is_system_node
    assert ident.system_id.startswith("ft-")
    assert ("base-sys:_system", str(ident), "base-system") in store.edges()


def test_register_errors():
    store = LineageStore(rng=random.Random(6))
    a = store.commit(store.build(Created("s", "u")))
    ghost = InstanceIdentifier("s", "nonexistent0000")
    with pytest.raises(UnknownParent):
        store.commit(store.build(Regenerated(ghost)))
    with pytest.raises(UnknownConstituent):
        store.commit(store.build(Merged((a, ghost))))
    with pytest.raises(DuplicateConstituents):
        store.commit(store.build(Merged((a, a))))


def test_external_link_adds_stub():
    store = LineageStore(rng=random.Random(7))
    upstream = parse_identifier("othersys:deadbeef00000000")
    record = store.build(Created("s", "u"), upstream=upstream)
    child = store.commit(record, str(upstream))
    assert store.is_external(upstream)
    assert (str(upstream), str(child), "branch") in store.edges()
    # an upstream the store already holds gets the edge but is not external
    record = store.build(Created("s", "u"), upstream=child)
    grandchild = store.commit(record, str(child))
    assert not store.is_external(child)
    assert (str(child), str(grandchild), "branch") in store.edges()


def test_an_upstream_that_descends_from_the_event_instance_is_refused():
    """A reload takes no upstream at all, and a new node is not its own
    upstream, so no upstream edge can close a cycle."""
    store = LineageStore(rng=random.Random(7))
    a = store.commit(store.build(Created("s", "u")))
    b = store.commit(store.build(Regenerated(a)))
    nodes, edges = store.nodes(), store.edges()
    with pytest.raises(MalformedRecord, match="reload takes no upstream"):
        store.build(Reloaded(a), upstream=b)
    new = parse_identifier("s:0123")
    with pytest.raises(MalformedRecord, match="its own upstream"):
        store.build(Created("s", "u"), upstream=new, identifier=new)
    assert store.nodes() == nodes
    assert store.edges() == edges


@pytest.mark.parametrize("upstream", ["not an id", "othersys:deadbeef", 5, ["othersys:x"]])
def test_an_upstream_that_is_not_an_identifier_is_refused(upstream):
    """Only an ``InstanceIdentifier`` becomes an external node, so every
    node parses and a walk never meets one that does not."""
    store = LineageStore(rng=random.Random(7))
    store.commit(store.build(Created("s", "u")))
    nodes, edges = store.nodes(), store.edges()
    with pytest.raises(MalformedRecord, match="upstream must be an InstanceIdentifier"):
        store.build(Created("s", "u"), upstream=upstream)
    assert store.nodes() == nodes
    assert store.edges() == edges


# -- traversal ---------------------------------------------------------------------


def test_ancestors_trivial_cases():
    store = LineageStore(rng=random.Random(8))
    root = store.commit(store.build(Created("s", "u")))
    assert store.ancestors(root) == set()
    mid = store.commit(store.build(Regenerated(root)))
    leaf = store.commit(store.build(Regenerated(mid)))
    assert store.ancestors(leaf) == {root, mid}
    assert store.descendants(leaf) == set()


def test_descendants_star():
    store = LineageStore(rng=random.Random(9))
    root = store.commit(store.build(Created("s", "u")))
    branches = {store.commit(store.build(Regenerated(root))) for _ in range(5)}
    assert store.descendants(root) == branches


def test_unknown_identifier_raises():
    store = LineageStore(rng=random.Random(10))
    with pytest.raises(UnknownIdentifier):
        store.ancestors(parse_identifier("s:nope"))


def test_traversal_matches_brute_force_closure():
    # derived oracle: reachability via repeated relation composition
    for seed in range(8):
        rng = random.Random(seed)
        store, identifiers = grow_random_dag(rng, n_events=50)
        closure = transitive_closure(
            {(child, parent) for (parent, child, _kind) in store.edges()}
        )
        for ident in identifiers:
            expected_up = {
                parse_identifier(p) for (c, p) in closure if c == str(ident)
            }
            assert store.ancestors(ident) == expected_up
            expected_down = {
                parse_identifier(c) for (c, p) in closure if p == str(ident)
            }
            assert store.descendants(ident) == expected_down


def test_ancestor_descendant_duality():
    for seed in range(5):
        store, identifiers = grow_random_dag(random.Random(100 + seed), n_events=40)
        for a in identifiers:
            for b in store.ancestors(a):
                assert a in store.descendants(b)


# -- structural invariants ------------------------------------------------------------


def test_validate_acyclic_cases():
    empty = LineageStore()
    assert empty.validate_acyclic()

    chain = LineageStore(rng=random.Random(11))
    a = chain.commit(chain.build(Created("s", "u")))
    b = chain.commit(chain.build(Regenerated(a)))
    chain.commit(chain.build(Regenerated(b)))
    assert chain.validate_acyclic()

    broken = LineageStore(rng=random.Random(12))
    x = broken.commit(broken.build(Created("s", "u")))
    y = broken.commit(broken.build(Regenerated(x)))
    broken._add_edge(str(y), str(x), "branch")  # corrupt: inject a 2-cycle
    assert not broken.validate_acyclic()


def test_every_event_preserves_acyclicity_and_freshness():
    for seed in range(10):
        rng = random.Random(200 + seed)
        store = LineageStore(rng=rng)
        seen = set()
        identifiers = []
        for step in range(120):
            before_nodes = store.nodes()
            before_edges = store.edges()
            roll = rng.random()
            if roll < 0.4 or len(identifiers) < 2:
                ident = store.commit(store.build(Created("s", f"u{step}")))
            elif roll < 0.7:
                ident = store.commit(store.build(Regenerated(rng.choice(identifiers))))
            elif roll < 0.85:
                ident = store.commit(store.build(Merged(tuple(rng.sample(identifiers, 2)))))
            else:
                ident = store.commit(store.build(Reloaded(rng.choice(identifiers))))
                assert str(ident) in seen  # reload is the one non-fresh case
                continue
            assert str(ident) not in seen, "freshness violated"
            seen.add(str(ident))
            identifiers.append(ident)
            # monotone: nothing removed
            assert before_nodes <= store.nodes()
            assert before_edges <= store.edges()
            assert store.validate_acyclic()


def test_branch_independence():
    store = LineageStore(rng=random.Random(13))
    root = store.commit(store.build(Created("s", "u")))
    branch_a = store.commit(store.build(Regenerated(root)))
    branch_b = store.commit(store.build(Regenerated(root)))
    edges_b_before = {
        edge for edge in store.edges() if str(branch_b) in (edge[0], edge[1])
    }
    for _ in range(10):
        store.commit(store.build(Regenerated(branch_a)))
    edges_b_after = {
        edge for edge in store.edges() if str(branch_b) in (edge[0], edge[1])
    }
    assert edges_b_before == edges_b_after


# -- persistence ---------------------------------------------------------------------


def test_log_replay_reconstructs_state():
    # the registry log is the only lineage log: replaying it rebuilds the DAG
    rng = random.Random(14)
    clock = SimClock(0)
    registry = Registry("acme", clock=clock, rng=random.Random(15))
    registry.install_key(fixed_keypair("acme", "k1"))
    identifiers = []
    for step in range(80):
        clock.advance()
        roll = rng.random()
        if roll < 0.35 or len(identifiers) < 2:
            upstream = parse_identifier(f"up:{step:04d}") if rng.random() < 0.3 else None
            event = Created(f"sys-{rng.randint(0, 3)}", f"u{step}")
            signed = registry.issue(event, upstream=upstream)
        elif roll < 0.6:
            signed = registry.issue(Regenerated(rng.choice(identifiers), branch_point=step))
        elif roll < 0.75:
            count = min(len(identifiers), rng.randint(2, 3))
            signed = registry.issue(Merged(tuple(rng.sample(identifiers, count))))
        elif roll < 0.9:
            registry.issue(Reloaded(rng.choice(identifiers)))
            continue
        else:
            signed = registry.issue(FineTuned(f"sys-{rng.randint(0, 3)}"))
        identifiers.append(signed.doc.identifier)
    assert any(registry.lineage.is_external(parse_identifier(f"up:{n:04d}")) for n in range(80))

    replayed = Registry.replay(registry.log_lines(), "acme", clock=clock)
    assert replayed.lineage.state_jsonable() == registry.lineage.state_jsonable()
    assert replayed.log_lines() == registry.log_lines()
