"""Wire surface of the registry: endpoint dispatch, TCP transport, config.

One route per verb, canonical JSON bodies, newline-delimited over the byte
stream. The in-process client and the TCP client run requests through the
same handler, so a simulation produces identical traces on either transport.
A request line, envelope or body that cannot be decoded gets a
``MalformedRecord`` reply on either transport; over TCP the connection stays
open for the next request.

TCP connections are persistent, as in HTTP/1.1 (RFC 9112 section 9.3):
``TcpClient`` keeps one per calling thread, checks it for staleness before
reuse and sends each request at most once, never retrying (RFC 9110 section
9.2.2); ``TcpRegistryServer.stop()`` ends every open connection and releases
the registry.
"""

from __future__ import annotations

import os
import select
import socket
import socketserver
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from . import errors
from .canonical import b64u, b64u_decode, canonical_json_line, load_canonical
from .disclosure import PartyClass
from .errors import MalformedRecord, ProtocolError, RegistryUnavailable
from .identity import Attribute, InstanceIdentifier, parse_identifier
from .lineage import event_from_jsonable, event_to_jsonable, LineageEvent
from .registry import (
    IncidentReport,
    IncidentScope,
    Registry,
    RetentionConfig,
    TimeWindow,
)
from .verifiability import PublicKey, SignedId

ENDPOINTS = (
    "issue",
    "report-incident",
    "query-incidents",
    "get-id",
    "get-lineage",
    "keys",
    "notify",
)

_ERROR_TYPES = {
    name: obj
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, ProtocolError)
}


@contextmanager
def _decoding(endpoint: str):
    """Report a request body that does not decode as ``MalformedRecord``.

    Wrap only the decoding of a body, never the registry call, so that a
    fault inside ``Registry`` is not relabelled as bad input."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedRecord(f"bad {endpoint} body: {exc!r}") from exc


class RegistryServer:
    """Transport-agnostic endpoint dispatch over one registry."""

    def __init__(self, registry: Registry):
        self.registry = registry

    def handle(self, request: Any) -> dict:
        try:
            if not isinstance(request, dict):
                raise MalformedRecord("request must be an object")
            endpoint = request.get("endpoint")
            body = request.get("body", {})
            if endpoint not in ENDPOINTS:
                raise MalformedRecord(f"unknown endpoint {endpoint!r}")
            if not isinstance(body, dict):
                raise MalformedRecord(f"{endpoint} body must be an object")
            handler = getattr(self, "_do_" + endpoint.replace("-", "_"))
            return {"body": handler(body), "ok": True}
        except ProtocolError as exc:
            reply = {"detail": str(exc), "error": type(exc).__name__, "ok": False}
            if isinstance(exc, errors.NotFound):
                reply["detail"] = exc.detail
            return reply

    def _do_issue(self, body: dict) -> dict:
        from .identity import _attr_from_jsonable

        with _decoding("issue"):
            event = event_from_jsonable(body["event"])
            attributes = tuple(_attr_from_jsonable(a) for a in body.get("attributes", []))
            upstream = (
                parse_identifier(body["upstream"]) if body.get("upstream") else None
            )
            nonce = _text(body["nonce"], "nonce") if body.get("nonce") is not None else None
        signed = self.registry.issue(event, attributes, nonce=nonce, upstream=upstream)
        return {"signed": signed.to_jsonable()}

    def _do_report_incident(self, body: dict) -> dict:
        with _decoding("report-incident"):
            report = IncidentReport.from_jsonable(body["report"])
        self.registry.report_incident(report)
        return {}

    def _do_query_incidents(self, body: dict) -> dict:
        with _decoding("query-incidents"):
            scope = IncidentScope.from_jsonable(body["scope"])
            window = TimeWindow.from_jsonable(body.get("window"))
        reports = self.registry.query_incidents(scope, window)
        return {"reports": [report.to_jsonable() for report in reports]}

    def _do_get_id(self, body: dict) -> dict:
        with _decoding("get-id"):
            identifier = parse_identifier(body["identifier"])
            party = PartyClass(body["party"]) if body.get("party") else None
        if party is not None:
            view = self.registry.get_view(identifier, party)
            return {"view": view.to_jsonable()}
        return {"signed": self.registry.get_id(identifier).to_jsonable()}

    def _do_get_lineage(self, body: dict) -> dict:
        with _decoding("get-lineage"):
            identifier = parse_identifier(body["identifier"])
            direction = body["direction"]
        related = self.registry.get_lineage(identifier, direction)
        return {
            "items": [
                {"external": external, "identifier": str(ident)}
                for ident, external in related
            ]
        }

    def _do_keys(self, body: dict) -> dict:
        op = body.get("op", "list")
        if op == "list":
            return self.registry.trust.to_jsonable()
        if op == "register":
            with _decoding("keys"):
                author_id = _text(body["author_id"], "author_id")
                key = PublicKey(
                    suite=body["key"]["suite"],
                    key_id=body["key"]["key_id"],
                    public=b64u_decode(body["key"]["public"]),
                )
            self.registry.register_foreign_key(author_id, key)
            return {}
        if op == "revoke":
            with _decoding("keys"):
                author_id = _text(body["author_id"], "author_id")
                key_id = _text(body["key_id"], "key_id")
                at = body.get("at")
                if at is not None and (not isinstance(at, int) or isinstance(at, bool)):
                    raise MalformedRecord(f"revocation time must be an integer, not {at!r}")
            self.registry.revoke_key(author_id, key_id, at)
            return {}
        raise MalformedRecord(f"unknown keys op {op!r}")

    def _do_notify(self, body: dict) -> dict:
        with _decoding("notify"):
            payload = body["payload"]
        self.registry.notify(payload)
        return {}


def _text(value: Any, field: str) -> str:
    if not isinstance(value, str):
        raise MalformedRecord(f"{field} must be a string, not {value!r}")
    return value


class BaseClient:
    """Convenience verbs shared by both transports."""

    def request(self, endpoint: str, body: dict) -> dict:
        raise NotImplementedError

    def _roundtrip(self, endpoint: str, body: dict) -> dict:
        reply = self.request(endpoint, body)
        if reply.get("ok"):
            return reply["body"]
        error_cls = _ERROR_TYPES.get(reply.get("error", ""), ProtocolError)
        detail = reply.get("detail", "")
        if error_cls is errors.NotFound:
            raise errors.NotFound("not found", detail=detail)
        raise error_cls(detail)

    def issue(self, event: LineageEvent, attributes=(), nonce=None, upstream=None) -> SignedId:
        body: dict[str, Any] = {"event": event_to_jsonable(event)}
        if attributes:
            attrs = []
            for attr in attributes:
                item = attr.payload_jsonable()
                item["salt"] = b64u(attr.salt) if attr.salt is not None else None
                attrs.append(item)
            body["attributes"] = attrs
        if nonce is not None:
            body["nonce"] = nonce
        if upstream is not None:
            body["upstream"] = str(upstream)
        reply = self._roundtrip("issue", body)
        return SignedId.from_jsonable(reply["signed"])

    def report_incident(self, report: IncidentReport) -> None:
        self._roundtrip("report-incident", {"report": report.to_jsonable()})

    def query_incidents(self, scope: IncidentScope, window: TimeWindow = TimeWindow()):
        reply = self._roundtrip(
            "query-incidents",
            {"scope": scope.to_jsonable(), "window": window.to_jsonable()},
        )
        return [IncidentReport.from_jsonable(item) for item in reply["reports"]]

    def get_id(self, identifier: InstanceIdentifier) -> SignedId:
        reply = self._roundtrip("get-id", {"identifier": str(identifier)})
        return SignedId.from_jsonable(reply["signed"])

    def get_view(self, identifier: InstanceIdentifier, party: PartyClass):
        from .disclosure import DisclosedView

        reply = self._roundtrip(
            "get-id", {"identifier": str(identifier), "party": party.value}
        )
        return DisclosedView.from_jsonable(reply["view"])

    def get_lineage(self, identifier: InstanceIdentifier, direction: str):
        reply = self._roundtrip(
            "get-lineage", {"direction": direction, "identifier": str(identifier)}
        )
        return [
            (parse_identifier(item["identifier"]), item["external"])
            for item in reply["items"]
        ]

    def list_keys(self) -> dict:
        return self._roundtrip("keys", {"op": "list"})

    def notify(self, payload: dict) -> None:
        self._roundtrip("notify", {"payload": payload})


class InProcessClient(BaseClient):
    def __init__(self, server: RegistryServer):
        self._server = server

    def request(self, endpoint: str, body: dict) -> dict:
        # serialize through canonical bytes so both transports see identical shapes
        raw = canonical_json_line({"body": body, "endpoint": endpoint})
        reply = self._server.handle(load_canonical(raw))
        return load_canonical(canonical_json_line(reply))


class _TcpHandler(socketserver.StreamRequestHandler):
    def handle(self):
        try:
            while True:
                line = self.rfile.readline()
                if not line:
                    return
                if not line.strip():
                    continue
                try:
                    request = load_canonical(line)
                except MalformedRecord as exc:
                    reply = {"detail": str(exc), "error": "MalformedRecord", "ok": False}
                else:
                    reply = self.server.registry_server.handle(request)
                # one sendall per reply: Nagle's algorithm has nothing to hold back
                self.wfile.write(canonical_json_line(reply))
        except OSError:
            # the client dropped the connection (a timed-out request), or
            # stop() shut it down
            return


class TcpRegistryServer(socketserver.ThreadingTCPServer):
    """Newline-delimited canonical JSON over TCP; one request per line.

    Each connection is served by its own handler thread, which answers its
    lines in order until the client closes it. ``stop()`` closes the
    listening socket, shuts down every open connection, joins their handler
    threads and drops the registry: a stopped server keeps nothing of the
    registry alive, even while clients still hold their connections.
    """

    allow_reuse_address = True

    def __init__(self, registry_server: RegistryServer, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _TcpHandler)
        self.registry_server: Optional[RegistryServer] = registry_server
        self._thread: Optional[threading.Thread] = None
        self._handlers: dict[socket.socket, threading.Thread] = {}
        self._handlers_lock = threading.Lock()

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def start(self) -> "TcpRegistryServer":
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def process_request(self, request, client_address) -> None:
        """Serve one accepted connection on a new daemon handler thread.

        ``ThreadingMixIn`` joins only non-daemon handler threads in
        ``server_close()``; a non-daemon thread blocked on a connection that
        its client never closes would keep the interpreter from exiting.
        The threads are daemons, so ``stop()`` joins them itself.
        """
        thread = threading.Thread(
            target=self.process_request_thread, args=(request, client_address), daemon=True
        )
        with self._handlers_lock:
            self._handlers[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:
        with self._handlers_lock:
            self._handlers.pop(request, None)
        super().shutdown_request(request)

    def stop(self) -> None:
        if self._thread is not None:
            self.shutdown()
            self._thread.join()
        # refuse new connections, then end the open ones
        self.server_close()
        with self._handlers_lock:
            handlers = list(self._handlers.items())
        for conn, _ in handlers:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # its handler closed it meanwhile
        for _, thread in handlers:
            thread.join()
        self.registry_server = None


class TcpClient(BaseClient):
    """Client of a ``TcpRegistryServer`` holding one persistent connection
    per calling thread.

    A thread opens its connection on first use and sends its later requests
    on it, so threads sharing a client never interleave lines on one socket
    and never wait on a lock. Before reuse, a zero-timeout poll checks the
    connection; one the server has closed, or one holding unread bytes, is
    closed and replaced. A request is sent at most once: when sending it or
    reading its reply fails, times out or meets the end of the stream, the
    connection is dropped, so that a late reply cannot answer a later
    request, and ``RegistryUnavailable`` is raised. The request is never
    resent. ``close()`` closes every connection the client has opened, from
    any thread; the client is a context manager that calls it.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()
        self._opened: list[socket.socket] = []
        self._opened_lock = threading.Lock()

    def __enter__(self) -> "TcpClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        with self._opened_lock:
            opened, self._opened = self._opened, []
        for conn in opened:
            conn.close()

    def request(self, endpoint: str, body: dict) -> dict:
        payload = canonical_json_line({"body": body, "endpoint": endpoint})
        conn = self._connection()
        try:
            conn.sendall(payload)
            line = _read_line(conn)
        except OSError as exc:
            self._drop(conn)
            raise RegistryUnavailable(f"{self.host}:{self.port}: {exc}") from exc
        if not line:
            self._drop(conn)
            raise RegistryUnavailable(f"{self.host}:{self.port} closed the stream")
        return load_canonical(line)

    def _connection(self) -> socket.socket:
        """This thread's connection, opened if it has none or a stale one."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            if not _stale(conn):
                return conn
            self._drop(conn)
        try:
            conn = socket.create_connection((self.host, self.port), self.timeout)
        except OSError as exc:
            raise RegistryUnavailable(f"{self.host}:{self.port}: {exc}") from exc
        with self._opened_lock:
            self._opened.append(conn)
        self._local.conn = conn
        return conn

    def _drop(self, conn: socket.socket) -> None:
        self._local.conn = None
        with self._opened_lock:
            if conn in self._opened:
                self._opened.remove(conn)
        conn.close()


def _stale(conn: socket.socket) -> bool:
    """True if ``conn`` is closed, or is readable while no request is out:
    the server closed it, or bytes are waiting that answer nothing."""
    if conn.fileno() == -1:
        return True
    # poll, not select: select fails for descriptors above FD_SETSIZE
    poller = select.poll()
    poller.register(conn, select.POLLIN)
    return bool(poller.poll(0))


def _read_line(conn: socket.socket) -> bytes:
    """One reply line, or b"" if the stream ends before its newline."""
    chunks = []
    while True:
        chunk = conn.recv(65536)
        if not chunk:
            return b""
        chunks.append(chunk)
        if chunk.endswith(b"\n"):
            return b"".join(chunks)


class UnavailableClient(BaseClient):
    """Stands in for a registry that cannot be reached (fail-mode testing)."""

    def request(self, endpoint: str, body: dict) -> dict:
        raise RegistryUnavailable("registry configured as unavailable")


@dataclass
class ServiceConfig:
    """Registry service configuration; env vars override file values."""

    author_id: str
    host: str = "127.0.0.1"
    port: int = 7710
    retention_documents: int = RetentionConfig.documents
    retention_incidents: int = RetentionConfig.incidents
    key_file: Optional[str] = None
    log_file: Optional[str] = None

    ENV_PREFIX = "INSTANCEID_"

    @classmethod
    def from_file(cls, path: str | Path, env: Optional[dict] = None) -> "ServiceConfig":
        env = os.environ if env is None else env
        body = load_canonical(Path(path).read_bytes())
        listen = env.get(cls.ENV_PREFIX + "LISTEN", body.get("listen", "127.0.0.1:7710"))
        host, _, port = listen.rpartition(":")
        retention = body.get("retention", {})
        return cls(
            author_id=env.get(cls.ENV_PREFIX + "AUTHOR_ID", body["author_id"]),
            host=host or "127.0.0.1",
            port=int(port),
            retention_documents=int(
                env.get(
                    cls.ENV_PREFIX + "RETENTION_DOCUMENTS",
                    retention.get("documents", RetentionConfig.documents),
                )
            ),
            retention_incidents=int(
                env.get(
                    cls.ENV_PREFIX + "RETENTION_INCIDENTS",
                    retention.get("incidents", RetentionConfig.incidents),
                )
            ),
            key_file=env.get(cls.ENV_PREFIX + "KEY_FILE", body.get("key_file")),
            log_file=env.get(cls.ENV_PREFIX + "LOG_FILE", body.get("log_file")),
        )

    def retention(self) -> RetentionConfig:
        return RetentionConfig(self.retention_documents, self.retention_incidents)


def load_keypair_file(path: str | Path):
    """Key file: canonical JSON {author_id, key_id, suite, private(b64u)}."""
    from .verifiability import KeyPair

    body = load_canonical(Path(path).read_bytes())
    try:
        return KeyPair.generate(
            body["author_id"], body["key_id"], seed=b64u_decode(body["private"])
        )
    except KeyError as exc:
        raise MalformedRecord(f"key file missing field {exc}") from exc


def save_keypair_file(path: str | Path, keypair) -> None:
    from cryptography.hazmat.primitives.serialization import (
        Encoding,
        NoEncryption,
        PrivateFormat,
    )

    raw = keypair.private.private_bytes(
        Encoding.Raw, PrivateFormat.Raw, NoEncryption()
    )
    Path(path).write_bytes(
        canonical_json_line(
            {
                "author_id": keypair.author_id,
                "key_id": keypair.key_id,
                "private": b64u(raw),
                "suite": keypair.suite,
            }
        )
    )
