"""Scenario replays: outcomes, determinism, transport equivalence."""

import random

import pytest

from instanceid import Created, InProcessClient, SimClock, Verdict, verify_id
from instanceid.errors import ConfigInvalid
from instanceid.harness import (
    SCENARIOS,
    Ecosystem,
    SimConfig,
    run_certification_scenario,
    run_investigation_scenario,
    run_shutdown_scenario,
)


# -- shutdown -----------------------------------------------------------------------


def test_shutdown_default_config_ends_in_shutdown():
    trace = run_shutdown_scenario(SimConfig(seed=7))
    assert trace.records[-1].event == "deployer-shutdown"
    investigation = trace.find("deployer-investigate")
    assert investigation, "no deployer investigation recorded"
    payload = investigation[0][1]
    assert payload["notifications"] >= 2
    assert len(payload["services"]) >= 2
    flagged = {p["identifier"] for _, p in trace.find("service-flag")}
    assert payload["identifier"] in flagged
    shut = trace.find("deployer-shutdown")[0][1]["identifier"]
    assert shut == payload["identifier"]
    assert trace.find("user-notified")


def test_shutdown_zero_malfunction_rate_is_quiet():
    trace = run_shutdown_scenario(SimConfig(seed=7, malfunction_rate=0.0))
    assert trace.find("service-flag") == []
    assert trace.find("deployer-shutdown") == []


def test_shutdown_trace_deterministic():
    first = run_shutdown_scenario(SimConfig(seed=21))
    second = run_shutdown_scenario(SimConfig(seed=21))
    assert first.to_lines() == second.to_lines()
    assert first.sha256_hex() == second.sha256_hex()
    different = run_shutdown_scenario(SimConfig(seed=22))
    assert different.sha256_hex() != first.sha256_hex()


def test_shutdown_transport_equivalence():
    config = SimConfig(seed=7)
    inproc = run_shutdown_scenario(config, transport="inproc")
    tcp = run_shutdown_scenario(config, transport="tcp")
    assert inproc.to_lines() == tcp.to_lines()


# -- certification ------------------------------------------------------------------


def test_certification_decisions():
    trace = run_certification_scenario(SimConfig(seed=3))
    decisions = {p["agent"]: p for _, p in trace.find("service-decision")}
    assert decisions["certified"]["verdict"] == "allow"
    assert decisions["uncertified"]["verdict"] == "denied"
    assert decisions["uncertified"]["reasons"] == ["no-certification"]
    assert decisions["tampered"]["verdict"] == "denied"
    assert decisions["tampered"]["reasons"] == ["unverified"]


def test_certification_deterministic():
    first = run_certification_scenario(SimConfig(seed=3))
    second = run_certification_scenario(SimConfig(seed=3))
    assert first.to_lines() == second.to_lines()


# -- investigation ------------------------------------------------------------------


def test_investigation_recovers_root_across_deployers():
    config = SimConfig(seed=11, deployers=3, agents=12, lineage_depth=3)
    trace = run_investigation_scenario(config)
    outcome = trace.find("investigation-complete")[0][1]
    issued_root = trace.find("issue")[0][1]["identifier"]
    assert outcome["root"] == issued_root
    assert outcome["user_ref"].startswith("mallory-")
    assert outcome["traced"] >= 1
    # the ecosystem spans >= 2 registries (root deployer plus spawn deployers)
    spawns = trace.find("spawn")
    involved = {r.actor for r, _ in spawns} | {r.actor for r, _ in trace.find("issue")}
    assert len(involved) >= 2
    if len(spawns) >= 2:
        assert len({r.actor for r, _ in spawns}) >= 2


def test_investigation_marks_stripped_branches_untraceable():
    config = SimConfig(seed=2, deployers=3, agents=12, lineage_depth=3)
    trace = run_investigation_scenario(config)
    outcome = trace.find("investigation-complete")[0][1]
    assert outcome["untraceable"] >= 1
    assert len(trace.find("untraceable-branch")) == outcome["untraceable"]
    assert outcome["root"] == trace.find("issue")[0][1]["identifier"]


def test_investigation_single_deployer_depth_one():
    config = SimConfig(seed=0, deployers=1, agents=8, lineage_depth=2)
    trace = run_investigation_scenario(config)
    assert max(r.step for r, _ in trace.find("spawn")) == 1  # tree of depth 1
    outcome = trace.find("investigation-complete")[0][1]
    assert outcome["root"] == trace.find("issue")[0][1]["identifier"]
    edge_hops = [p for _, p in trace.find("trace-hop") if p["to"] is not None]
    assert len(edge_hops) == outcome["traced"]  # one hop per traced call


def test_investigation_requires_depth_two_config():
    with pytest.raises(ConfigInvalid):
        run_investigation_scenario(SimConfig(seed=1, lineage_depth=1))


def test_investigation_transport_equivalence():
    config = SimConfig(seed=11, deployers=2, agents=8, lineage_depth=3)
    inproc = run_investigation_scenario(config, transport="inproc")
    tcp = run_investigation_scenario(config, transport="tcp")
    assert inproc.to_lines() == tcp.to_lines()


# -- config validation -----------------------------------------------------------------


@pytest.mark.parametrize(
    "bad",
    [
        {"seed": -1},
        {"deployers": 0},
        {"agents": 0},
        {"malfunction_rate": 1.5},
        {"steps": 0},
        {"lineage_depth": 0},
        {"seed": "x"},
        {"seed": True},
        {"deployers": 2.5},
        {"agents": None},
        {"steps": 2.0},
        {"lineage_depth": False},
        {"malfunction_rate": "a"},
        {"malfunction_rate": True},
    ],
)
def test_config_invalid(bad):
    with pytest.raises(ConfigInvalid):
        SimConfig(**bad)


def test_config_takes_an_integer_malfunction_rate():
    assert SimConfig(malfunction_rate=1).malfunction_rate == 1


def test_scenario_registry_names():
    assert set(SCENARIOS) == {"shutdown", "certification", "scam"}


# -- shared trust directory -------------------------------------------------------------


def test_wire_keeps_revocations_in_the_shared_trust_directory():
    clock = SimClock(1_000)
    eco = Ecosystem(SimConfig(deployers=2), clock, random.Random(5))
    revoked, live = eco.deployers
    signed = revoked.registry.issue(Created(revoked.system_id, "u"))
    clock.advance(10)
    revoked.registry.revoke_key(revoked.name, "k1")
    eco.wire({d.name: InProcessClient(d.server) for d in eco.deployers})
    record = eco.trust.lookup(revoked.name, "k1")
    assert (record.status, record.revoked_at) == ("revoked", clock.now())
    assert eco.trust.lookup(live.name, "k1").status == "active"
    assert verify_id(signed, eco.trust, clock.now()).verdict is Verdict.REVOKED_KEY
    assert verify_id(signed, eco.trust, clock.now() - 1).ok
