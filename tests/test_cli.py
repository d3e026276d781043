"""CLI exit codes and machine-readable output."""

import json
import random
import socket
from pathlib import Path

import pytest
from click.testing import CliRunner

from instanceid import (
    AuthorRef,
    Created,
    DisclosurePolicy,
    IdDocument,
    IncidentReport,
    PartyClass,
    Regenerated,
    Registry,
    Severity,
    SimClock,
    parse_identifier,
    redact,
    sign_id,
)
import instanceid.service
from instanceid.canonical import canonical_json_bytes
from instanceid.cli import main

from helpers import fixed_keypair, trust_for

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def runner():
    return CliRunner()


def test_verify_honest_fixture_exits_zero(runner):
    result = runner.invoke(
        main,
        [
            "id", "verify", str(FIXTURES / "honest_signed_id.json"),
            "--trust-store", str(FIXTURES / "trust_store.json"),
        ],
    )
    assert result.exit_code == 0, result.output
    assert "verified" in result.output


def test_verify_tampered_fixture_exits_one(runner):
    result = runner.invoke(
        main,
        [
            "id", "verify", str(FIXTURES / "tampered_signed_id.json"),
            "--trust-store", str(FIXTURES / "trust_store.json"),
        ],
    )
    assert result.exit_code == 1
    assert "bad-signature" in result.output


def test_verify_view_fixture(runner):
    result = runner.invoke(
        main,
        [
            "id", "verify", str(FIXTURES / "service_provider_view.json"),
            "--trust-store", str(FIXTURES / "trust_store.json"),
            "--format", "canonical",
        ],
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["verdict"] == "verified"


_ACME_KEY = json.loads((FIXTURES / "trust_store.json").read_text())["authors"]["acme"][0]


@pytest.mark.parametrize(
    "trust_body",
    [
        {"authors": []},
        {"authors": {"acme": [{**_ACME_KEY, "revoked_at": "x", "status": "bogus"}]}},
    ],
)
def test_verify_rejects_malformed_trust_store(runner, tmp_path, trust_body):
    trust_path = tmp_path / "trust.json"
    trust_path.write_text(json.dumps(trust_body))
    result = runner.invoke(
        main,
        [
            "id", "verify", str(FIXTURES / "honest_signed_id.json"),
            "--trust-store", str(trust_path),
        ],
    )
    assert result.exit_code == 1
    assert "malformed input" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_author_less_view_file_is_refused(runner, tmp_path):
    body = json.loads((FIXTURES / "service_provider_view.json").read_text())
    body["author"] = None
    view_path = tmp_path / "view.json"
    view_path.write_text(json.dumps(body))
    verify = ["verify", str(view_path), "--trust-store", str(FIXTURES / "trust_store.json")]
    for args in (verify, ["inspect", str(view_path)]):
        result = runner.invoke(main, ["id", *args])
        assert result.exit_code == 1, args
        assert "malformed" in result.output


@pytest.mark.parametrize("artifact", ["signed-id", "view"])
def test_verify_without_at_uses_the_time_of_verification(runner, tmp_path, artifact):
    """A key revoked at 1000 cannot sign a document dated 10 that verifies now."""
    keypair = fixed_keypair("acme", "k1")
    trust = trust_for(keypair)
    trust.revoke_key("acme", "k1", 1000)
    doc = IdDocument(parse_identifier("sys-a:i1"), 10, AuthorRef(keypair.author_id, keypair.key_id))
    signed = sign_id(doc, keypair)
    if artifact == "view":
        signed = redact(signed, DisclosurePolicy(rules={}), PartyClass.PUBLIC)
    artifact_path, trust_path = tmp_path / "artifact.json", tmp_path / "trust.json"
    artifact_path.write_bytes(canonical_json_bytes(signed.to_jsonable()))
    trust_path.write_bytes(canonical_json_bytes(trust.to_jsonable()))
    verify = ["id", "verify", str(artifact_path), "--trust-store", str(trust_path)]

    result = runner.invoke(main, verify)
    assert result.exit_code == 1
    assert "revoked-key" in result.output
    result = runner.invoke(main, [*verify, "--at", "10"])
    assert result.exit_code == 0, result.output
    assert "verified" in result.output


def test_usage_error_exits_two(runner):
    result = runner.invoke(main, ["id", "verify", "--no-such-flag"])
    assert result.exit_code == 2


def test_inspect_summarizes(runner):
    result = runner.invoke(main, ["id", "inspect", str(FIXTURES / "honest_signed_id.json")])
    assert result.exit_code == 0
    summary = json.loads(result.output)
    assert summary["identifier"] == "gpt4-0409:inst-00a1"
    assert "system-card" in summary["attributes"]


def test_inspect_canonical_emits_exact_bytes(runner):
    raw = (FIXTURES / "honest_signed_id.json").read_bytes()
    result = runner.invoke(
        main, ["id", "inspect", str(FIXTURES / "honest_signed_id.json"), "--format", "canonical"]
    )
    assert result.output.strip() == raw.decode("utf-8").strip()


def test_scenario_runs_are_byte_identical(runner, tmp_path):
    out1, out2 = tmp_path / "a.trace", tmp_path / "b.trace"
    r1 = runner.invoke(main, ["scenario", "scam", "--seed", "7", "--out", str(out1)])
    r2 = runner.invoke(main, ["scenario", "scam", "--seed", "7", "--out", str(out2)])
    assert r1.exit_code == 0 and r2.exit_code == 0, r1.output + r2.output
    assert out1.read_bytes() == out2.read_bytes()
    assert r1.output == r2.output  # includes the trace sha256


def test_scenario_canonical_output(runner):
    result = runner.invoke(
        main, ["scenario", "certification", "--seed", "3", "--format", "canonical"]
    )
    assert result.exit_code == 0
    lines = [json.loads(line) for line in result.output.splitlines() if line]
    assert all(set(line) == {"actor", "digest", "event", "step"} for line in lines)


def test_scenario_config_file(runner, tmp_path):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"seed": 5, "agents": 3, "steps": 4}))
    result = runner.invoke(main, ["scenario", "shutdown", "--config", str(config)])
    assert result.exit_code == 0


@pytest.mark.parametrize(
    "body", ['{"seed": "x"}', "[]", '{"agents": true}', '{"steps": 2.0}', "{"],
    ids=["seed-not-an-integer", "list", "agents-boolean", "steps-float", "not-json"],
)
def test_scenario_rejects_a_malformed_config_file(runner, tmp_path, body):
    config = tmp_path / "sim.json"
    config.write_text(body)
    result = runner.invoke(main, ["scenario", "shutdown", "--config", str(config)])
    assert result.exit_code == 1
    assert "error:" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_scenario_rejects_a_seed_out_of_range(runner):
    result = runner.invoke(main, ["scenario", "shutdown", "--seed", "-1"])
    assert result.exit_code == 1
    assert "error: seed must fit in 64 bits" in result.output
    assert isinstance(result.exception, SystemExit)


def test_scenario_rejects_unknown_name(runner):
    result = runner.invoke(main, ["scenario", "heist", "--seed", "1"])
    assert result.exit_code == 2


def _write_log(tmp_path) -> Path:
    import time

    clock = SimClock(int(time.time()))  # recent: inside the replay retention horizon
    registry = Registry("acme", clock=clock, rng=random.Random(4))
    registry.install_key(fixed_keypair("acme", "k1"))
    root = registry.issue(Created("sys-a", "user-1")).doc.identifier
    child = registry.issue(Regenerated(root)).doc.identifier
    registry.report_incident(
        IncidentReport("r1", root, "service.x", Severity.MAJOR, "spam", clock.now())
    )
    log = tmp_path / "registry.log"
    log.write_bytes(registry.log_lines())
    return log, root, child


def test_lineage_trace_from_log(runner, tmp_path):
    log, root, child = _write_log(tmp_path)
    result = runner.invoke(
        main,
        ["lineage", "trace", str(child), "--direction", "ancestors",
         "--log", str(log)],
    )
    assert result.exit_code == 0
    assert str(root) in result.output
    missing = runner.invoke(
        main,
        ["lineage", "trace", "sys-a:ghost00", "--log", str(log)],
    )
    assert missing.exit_code == 1


def test_incidents_query_from_log(runner, tmp_path):
    log, root, _ = _write_log(tmp_path)
    result = runner.invoke(
        main,
        ["incidents", "query", "--scope", "system", "--value", "sys-a",
         "--log", str(log), "--format", "canonical"],
    )
    assert result.exit_code == 0
    report = json.loads(result.output.splitlines()[0])
    assert report["report_id"] == "r1"
    empty = runner.invoke(
        main,
        ["incidents", "query", "--scope", "system", "--value", "other",
         "--log", str(log)],
    )
    assert empty.exit_code == 0 and empty.output.strip() == ""


def test_incidents_query_canonical_prints_canonical_bytes(runner, tmp_path):
    import time

    clock = SimClock(int(time.time()))
    registry = Registry("acme", clock=clock, rng=random.Random(4))
    registry.install_key(fixed_keypair("acme", "k1"))
    root = registry.issue(Created("sys-a", "user-1")).doc.identifier
    report = IncidentReport(
        "r1", root, "service.x", Severity.MAJOR, "café — déjà", clock.now()
    )
    registry.report_incident(report)
    log = tmp_path / "registry.log"
    log.write_bytes(registry.log_lines())
    result = runner.invoke(
        main,
        ["incidents", "query", "--scope", "instance", "--value", str(root),
         "--log", str(log), "--format", "canonical"],
    )
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == canonical_json_bytes(report.to_jsonable()) + b"\n"
    assert "café — déjà".encode() in result.stdout_bytes


def test_incidents_query_refuses_the_instance_class_scope(runner, tmp_path):
    log, _, _ = _write_log(tmp_path)
    result = runner.invoke(
        main,
        ["incidents", "query", "--scope", "instance-class", "--value", "x",
         "--log", str(log)],
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("line", [b'{"kind":"shutdown"}\n', b"[]\n"])
@pytest.mark.parametrize(
    "command",
    [
        ["lineage", "trace", "sys-a:x"],
        ["incidents", "query", "--scope", "system", "--value", "sys-a"],
    ],
)
def test_log_commands_reject_a_malformed_log(runner, tmp_path, command, line):
    log = tmp_path / "registry.log"
    log.write_bytes(line)
    result = runner.invoke(main, command + ["--log", str(log)])
    assert result.exit_code == 1
    assert "error:" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("file_field", ["log_file", "key_file"])
def test_registry_serve_rejects_a_malformed_log_or_key_file(runner, tmp_path, file_field):
    bad = tmp_path / "bad"
    bad.write_bytes(b'{"kind":"shutdown"}\n')
    config = tmp_path / "registry.json"
    config.write_text(json.dumps(
        {"author_id": "acme", "listen": "127.0.0.1:0", file_field: str(bad)}
    ))
    env = {f"INSTANCEID_{name}": None for name in ("LISTEN", "LOG_FILE", "KEY_FILE")}
    result = runner.invoke(main, ["registry", "serve", "--config", str(config)], env=env)
    assert result.exit_code == 1
    assert "error:" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_registry_serve_rejects_a_bad_listen_address(runner, tmp_path):
    config = tmp_path / "registry.json"
    config.write_text('{"author_id": "acme", "listen": "127.0.0.1:abc"}')
    result = runner.invoke(main, ["registry", "serve", "--config", str(config)],
                           env={"INSTANCEID_LISTEN": None})
    assert result.exit_code == 1
    assert "bad config" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def _failed_with(result, prefix: str) -> None:
    """The command exited 1 with one ``<prefix>: ...`` line on stderr, and
    no exception but that exit escaped it."""
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith(f"{prefix}: "), result.stderr
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "args, prefix",
    [
        (["id", "inspect", "{dir}"], "malformed artifact"),
        (["id", "verify", "{dir}", "--trust-store", "{trust}"], "malformed input"),
        (["id", "verify", "{signed}", "--trust-store", "{dir}"], "malformed input"),
        (["lineage", "trace", "sys-a:x", "--log", "{dir}"], "error"),
        (["incidents", "query", "--scope", "system", "--value", "sys-a", "--log", "{dir}"],
         "error"),
    ],
    ids=["inspect", "verify-artifact", "verify-trust-store", "lineage-trace", "incidents-query"],
)
def test_read_commands_report_a_directory_given_as_a_file(runner, tmp_path, args, prefix):
    paths = {"dir": str(tmp_path), "trust": str(FIXTURES / "trust_store.json"),
             "signed": str(FIXTURES / "honest_signed_id.json")}
    _failed_with(runner.invoke(main, [arg.format(**paths) for arg in args]), prefix)


def test_scenario_reports_an_unwritable_out_path(runner, tmp_path):
    out = tmp_path / "missing" / "f"
    result = runner.invoke(main, ["scenario", "shutdown", "--seed", "1", "--out", str(out)])
    _failed_with(result, "error")


def test_log_commands_take_no_author_option(runner, tmp_path):
    log, root, _ = _write_log(tmp_path)
    for command in (["lineage", "trace", str(root)],
                    ["incidents", "query", "--scope", "system", "--value", "sys-a"]):
        result = runner.invoke(main, [*command, "--log", str(log), "--author", "acme"])
        assert result.exit_code == 2, command


def _serve(runner, monkeypatch, tmp_path, **fields):
    """``registry serve`` of a config with ``fields``, whose accept loop
    stops at once as if interrupted."""
    def interrupted(self, poll_interval=0.5):
        raise KeyboardInterrupt

    monkeypatch.setattr(instanceid.service.TcpRegistryServer, "serve_forever", interrupted)
    config = tmp_path / "registry.json"
    config.write_text(json.dumps({"author_id": "acme", "listen": "127.0.0.1:0", **fields}))
    env = {f"INSTANCEID_{name}": None for name in ("LISTEN", "LOG_FILE", "KEY_FILE")}
    return runner.invoke(main, ["registry", "serve", "--config", str(config)], env=env)


def test_registry_serve_writes_its_log_when_interrupted(runner, monkeypatch, tmp_path):
    log = tmp_path / "registry.log"
    result = _serve(runner, monkeypatch, tmp_path, log_file=str(log))
    assert result.exit_code == 0, result.output
    assert result.stdout.startswith("serving acme on 127.0.0.1:")
    assert log.read_bytes().count(b"\n") == 1  # the key it installed


def test_registry_serve_reports_an_unwritable_log(runner, monkeypatch, tmp_path):
    result = _serve(runner, monkeypatch, tmp_path, log_file=str(tmp_path / "missing" / "log"))
    assert result.stdout.startswith("serving acme on 127.0.0.1:")
    _failed_with(result, "error")


def test_registry_serve_reports_a_port_held_by_another_socket(runner, monkeypatch, tmp_path):
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        port = held.getsockname()[1]
        result = _serve(runner, monkeypatch, tmp_path, listen=f"127.0.0.1:{port}")
    _failed_with(result, "error")
    assert "Address already in use" in result.stderr
