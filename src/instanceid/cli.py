"""Command-line tool: scenario replays, registry serving, artifact checks.

Exit codes: 0 success or ``verified``; 1 a failed verification, or input,
a file or a socket that the command cannot use (a malformed or unreadable
artifact, log or config, an unwritable output, a port that cannot be
bound), reported as one ``<prefix>: <detail>`` line on stderr; 2 a usage
error.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import click

from .canonical import canonical_json_bytes, canonical_json_line, load_canonical
from .clock import SystemClock
from .disclosure import DisclosedView, verify_view
from .errors import ProtocolError
from .harness import SCENARIOS, SimConfig
from .identity import parse_identifier
from .incidents import SCOPE_KINDS, IncidentScope, TimeWindow
from .registry import Registry
from .service import (
    RegistryServer,
    ServiceConfig,
    TcpRegistryServer,
    load_keypair_file,
    save_keypair_file,
)
from .verifiability import KeyPair, SignedId, TrustStore, verify_id


@click.group()
def main():
    """Verifiable instance IDs: inspect, verify, serve, simulate."""


@contextmanager
def _failing(prefix: str):
    """Report a ``ProtocolError`` or ``OSError`` raised in the block as one
    ``<prefix>: <detail>`` line on stderr, and exit 1."""
    try:
        yield
    except (ProtocolError, OSError) as exc:
        click.echo(f"{prefix}: {exc}", err=True)
        sys.exit(1)


def _load_artifact(path: str):
    data = Path(path).read_bytes()
    body = load_canonical(data)
    if isinstance(body, dict) and "entries" in body:
        return DisclosedView.from_jsonable(body)
    return SignedId.from_jsonable(body)


@main.group("id")
def id_group():
    """Operate on signed ID and disclosed-view files."""


@id_group.command("inspect")
@click.argument("file", type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(["pretty", "canonical"]), default="pretty")
def id_inspect(file, fmt):
    """Print the contents of a signed ID (or view) file."""
    with _failing("malformed artifact"):
        artifact = _load_artifact(file)
    if isinstance(artifact, SignedId):
        doc = artifact.doc
        summary = {
            "attributes": doc.attribute_names(),
            "author": doc.author.author_id,
            "created_at": doc.created_at,
            "identifier": str(doc.identifier),
            "links": [f"{l.relation}->{l.target}" for l in doc.links],
        }
    else:
        summary = {
            "author": artifact.author.author_id,
            "created_at": artifact.created_at,
            "hidden": [e.name for e in artifact.hidden],
            "identifier": str(artifact.identifier),
            "revealed": [e.attribute.name for e in artifact.revealed],
        }
    if fmt == "canonical":
        click.echo(canonical_json_bytes(artifact.to_jsonable()).decode("utf-8"))
    else:
        click.echo(json.dumps(summary, indent=2, sort_keys=True))


@id_group.command("verify")
@click.argument("file", type=click.Path(exists=True))
@click.option("--trust-store", "trust_path", required=True, type=click.Path(exists=True))
@click.option("--at", "at", type=int, default=None,
              help="verification time (default: now); an earlier time checks a past signing")
@click.option("--format", "fmt", type=click.Choice(["pretty", "canonical"]), default="pretty")
def id_verify(file, trust_path, at, fmt):
    """Verify a signed ID or a disclosed view against a trust store."""
    with _failing("malformed input"):
        artifact = _load_artifact(file)
        trust = TrustStore.from_jsonable(load_canonical(Path(trust_path).read_bytes()))
    verify = verify_id if isinstance(artifact, SignedId) else verify_view
    report = verify(artifact, trust, SystemClock().now() if at is None else at)
    if fmt == "canonical":
        click.echo(canonical_json_line({"detail": report.detail, "verdict": report.verdict.value}),
                   nl=False)
    else:
        click.echo(f"{report.verdict.value}" + (f" ({report.detail})" if report.detail else ""))
    sys.exit(0 if report.ok else 1)


@main.group("lineage")
def lineage_group():
    """Query lineage reconstructed from a registry event log."""


def _registry_from_log(log_path: str) -> Registry:
    # a read-only query never signs, so the registry's author id is moot
    return Registry.replay(Path(log_path).read_bytes(), "registry", clock=SystemClock())


@lineage_group.command("trace")
@click.argument("identifier")
@click.option("--direction", type=click.Choice(["ancestors", "descendants"]), default="ancestors")
@click.option("--log", "log_path", required=True, type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(["pretty", "canonical"]), default="pretty")
def lineage_trace(identifier, direction, log_path, fmt):
    """List ancestors or descendants of IDENTIFIER."""
    with _failing("error"):
        registry = _registry_from_log(log_path)
        related = registry.get_lineage(parse_identifier(identifier), direction)
    for ident, external in related:
        if fmt == "canonical":
            click.echo(canonical_json_line({"external": external, "identifier": str(ident)}),
                       nl=False)
        else:
            marker = " [external]" if external else ""
            click.echo(f"{ident}{marker}")


@main.group("incidents")
def incidents_group():
    """Query the incident database from a registry event log."""


@incidents_group.command("query")
@click.option("--scope", "scope_kind", required=True, type=click.Choice(SCOPE_KINDS))
@click.option("--value", required=True)
@click.option("--log", "log_path", required=True, type=click.Path(exists=True))
@click.option("--start", type=int, default=None)
@click.option("--end", type=int, default=None)
@click.option("--format", "fmt", type=click.Choice(["pretty", "canonical"]), default="pretty")
def incidents_query(scope_kind, value, log_path, start, end, fmt):
    """List incident reports matching a scope."""
    with _failing("error"):
        registry = _registry_from_log(log_path)
        reports = registry.query_incidents(
            IncidentScope(scope_kind, value), TimeWindow(start, end)
        )
    for report in reports:
        if fmt == "canonical":
            click.echo(canonical_json_bytes(report.to_jsonable()))
        else:
            click.echo(
                f"{report.occurred_at} {report.report_id} {report.identifier} "
                f"{report.severity.value}: {report.description}"
            )


@main.group("registry")
def registry_group():
    """Run the deployer registry service."""


@registry_group.command("serve")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
def registry_serve(config_path):
    """Serve the registry endpoints over TCP until interrupted."""
    with _failing("bad config"):
        config = ServiceConfig.from_file(config_path)
    with _failing("error"):
        if config.log_file and Path(config.log_file).exists():
            registry = Registry.replay(
                Path(config.log_file).read_bytes(), config.author_id, retention=config.retention
            )
        else:
            registry = Registry(config.author_id, retention=config.retention)
        if config.key_file and Path(config.key_file).exists():
            keypair = load_keypair_file(config.key_file)
        else:
            keypair = KeyPair.generate(config.author_id, "k1")
            if config.key_file:
                save_keypair_file(config.key_file, keypair)
        registry.install_key(keypair)
        server = TcpRegistryServer(RegistryServer(registry), config.host, config.port)
    host, port = server.address
    click.echo(f"serving {config.author_id} on {host}:{port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        # after stop() no handler is left to apply a mutation the log would miss
        server.stop()
        if config.log_file:
            with _failing("error"):
                Path(config.log_file).write_bytes(registry.log_lines())


@main.command("scenario")
@click.argument("name", type=click.Choice(sorted(SCENARIOS)))
@click.option("--seed", type=int, default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--transport", type=click.Choice(["inproc", "tcp"]), default="inproc")
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["pretty", "canonical"]), default="pretty")
def scenario(name, seed, config_path, transport, out_path, fmt):
    """Replay a simulated-ecosystem scenario deterministically."""
    with _failing("error"):
        config = SimConfig()
        if config_path:
            config = SimConfig.from_jsonable(load_canonical(Path(config_path).read_bytes()))
        if seed is not None:
            config = replace(config, seed=seed)
    with _failing("scenario failed"):
        trace = SCENARIOS[name](config, transport=transport)
    lines = trace.to_lines()
    if out_path:
        with _failing("error"):
            Path(out_path).write_bytes(lines)
        click.echo(f"{len(trace.records)} events  sha256={trace.sha256_hex()}")
    elif fmt == "canonical":
        click.echo(lines.decode("utf-8"), nl=False)
    else:
        for record in trace.records:
            click.echo(f"[{record.step:>3}] {record.actor:<16} {record.event}")
        click.echo(f"sha256={trace.sha256_hex()}")


if __name__ == "__main__":
    main()
