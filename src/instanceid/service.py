"""Wire surface of the registry: endpoint dispatch, TCP transport, config.

One route per verb, canonical JSON bodies, newline-delimited over the byte
stream. The in-process client and the TCP client hand the same handler the
same canonical request line; it decodes the line with ``load_canonical``
and returns the reply line as bytes, which both clients decode with
``load_canonical``. So one path runs from request bytes to reply bytes on
either transport, and a simulation produces identical traces on both. A
``query-incidents`` reply body is one flat table of report fields,
``{"reports": [f1, ..., f7, f1, ..., f7, ...]}``, each report's seven fields
in ``IncidentReport`` field order. The server sends the table
``Registry.incident_rows`` returns: the reports' rows, encoded once each,
joined with commas, so it reads no report. The client decodes the whole
table in one checked pass (``IncidentReport.from_table``), so one bad field
refuses the whole reply. On a replayed 10k-report registry, ``handle``
answers a 2,503-report party-class query (299 KB) in 0.12-0.21 ms (median
of 200 in each of five runs on a shared 2-vCPU VM; Python 3.11).
A request line, envelope or body that cannot be decoded, a bad identifier
included, gets a ``MalformedRecord`` reply on either transport; over TCP the
connection stays open for the next request. ``keys`` only lists the trust
store: any client can reach it, so keys change only through the registry's
own calls (``install_key``, ``register_foreign_key``, ``revoke_key``).

A ``get-id`` reply for a party is served from a memo of encoded views: it
maps (identifier text, party class) to the ``SignedId`` and the
``DisclosurePolicy`` the view was redacted from and the encoded
``{"view": ...}`` body. Every request still asks ``Registry.get_id`` first,
so an unknown or expired document gets ``NotFound`` as before; the stored
bytes are served only when that ``SignedId`` and the registry's current
policy are the very objects (``is``) they were made from, else the view is
redacted and encoded again and replaces the entry. Both are immutable
(``DisclosurePolicy.rules`` is a read-only mapping), so a hit is the reply
a fresh redaction gives. The memo keeps the ``1 << 12`` most recently
served views of at most 4 KiB each (a larger one is served unstored). When
it is full, the oldest view leaves before a new one enters, so it never
holds more. Besides the documents and policies it shares with the registry
it holds at most ~19 MB in CPython 3.11; views of ~0.7 KB, as the
``investigate`` benchmark's, take ~4 MB. A lock guards it, so concurrent
handler threads never iterate it while another thread changes it.

TCP connections are persistent, as in HTTP/1.1 (RFC 9112 section 9.3):
``TcpClient`` keeps one per calling thread, checks it for staleness before
reuse and sends each request at most once, never retrying (RFC 9110 section
9.2.2); ``TcpRegistryServer.stop()`` ends every open connection and releases
the registry. The server closes a connection that sends no request for
``_TcpHandler.timeout`` seconds, which a client finds stale before its next
request and replaces, and closes unserved any connection beyond
``_MAX_CONNECTIONS`` open at once, whose request gets
``RegistryUnavailable``.
"""

from __future__ import annotations

import os
import select
import socket
import socketserver
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from . import errors
from .canonical import (
    SIGNATURE_SUITE, _check_suite, b64u, b64u_decode, canonical_json_bytes, canonical_json_line,
    load_canonical,
)
from .disclosure import DisclosedView, DisclosurePolicy, PartyClass, redact
from .errors import MalformedRecord, ProtocolError, RegistryUnavailable, decoding
from .identity import Attribute, InstanceIdentifier, parse_identifier
from .incidents import OPEN_WINDOW, IncidentReport, IncidentScope, TimeWindow
from .lineage import event_from_jsonable, event_to_jsonable, LineageEvent
from .registry import Registry, RetentionConfig
from .verifiability import KeyPair, SignedId

ENDPOINTS = (
    "issue",
    "report-incident",
    "query-incidents",
    "get-id",
    "get-lineage",
    "keys",
    "notify",
)

_ACCEPT_POLL_S = 0.05

_VIEW_MEMO_SIZE = 1 << 12  # encoded views kept, most recently served first
_VIEW_MEMO_MAX_BYTES = 1 << 12  # a longer view is served without being kept

_ERROR_TYPES = {
    name: obj
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, ProtocolError)
}


class RegistryServer:
    """Transport-agnostic endpoint dispatch over one registry."""

    def __init__(self, registry: Registry):
        self.registry = registry
        # (identifier text, party) -> (signed, policy, encoded {"view": ...})
        self._views: OrderedDict[
            tuple[str, PartyClass], tuple[SignedId, DisclosurePolicy, bytes]
        ] = OrderedDict()
        self._views_lock = threading.Lock()

    def handle(self, line: bytes) -> bytes:
        """Answer one request line with its reply line: the canonical bytes
        of ``{"body": ..., "ok": true}`` or of an error reply, ending in a
        newline. Each ``_do_*`` handler returns its body encoded."""
        try:
            request = load_canonical(line)
            with decoding("request"):
                endpoint = request.get("endpoint")
                body = request.get("body", {})
            if endpoint not in ENDPOINTS:
                raise MalformedRecord(f"unknown endpoint {endpoint!r}")
            handler = getattr(self, "_do_" + endpoint.replace("-", "_"))
            encoded = handler(body)
        except ProtocolError as exc:
            return _error_line(exc)
        # the canonical form of {"body": ..., "ok": true}: keys in that order
        return b"".join((b'{"body":', encoded, b',"ok":true}\n'))

    def _do_issue(self, body: dict) -> bytes:
        with decoding("issue body"):
            event = event_from_jsonable(body["event"])
            attributes = tuple(Attribute.from_jsonable(a) for a in body.get("attributes", []))
            upstream = body.get("upstream")
            if upstream is not None:
                upstream = parse_identifier(upstream)
        signed = self.registry.issue(event, attributes, nonce=body.get("nonce"), upstream=upstream)
        return canonical_json_bytes({"signed": signed.to_jsonable()})

    def _do_report_incident(self, body: dict) -> bytes:
        with decoding("report-incident body"):
            report = IncidentReport.from_jsonable(body["report"])
        self.registry.report_incident(report)
        return canonical_json_bytes({})

    def _do_query_incidents(self, body: dict) -> bytes:
        with decoding("query-incidents body"):
            scope = IncidentScope.from_jsonable(body["scope"])
            window = TimeWindow.from_jsonable(body.get("window"))
        return b"".join((b'{"reports":[', self.registry.incident_rows(scope, window), b"]}"))

    def _do_get_id(self, body: dict) -> bytes:
        with decoding("get-id body"):
            text = body["identifier"]
            identifier = parse_identifier(text)
            party = body.get("party")
            if party is not None:
                party = PartyClass(party)
        signed = self.registry.get_id(identifier)
        if party is None:
            return canonical_json_bytes({"signed": signed.to_jsonable()})
        return self._view_bytes((text, party), signed)

    def _view_bytes(self, key: tuple[str, PartyClass], signed: SignedId) -> bytes:
        """The encoded ``{"view": ...}`` body of ``signed`` for ``key``'s
        party, from the memo if it was made from ``signed`` under the
        registry's current policy."""
        policy = self.registry.disclosure_policy
        with self._views_lock:
            held = self._views.get(key)
            if held is not None and held[0] is signed and held[1] is policy:
                self._views.move_to_end(key)
                return held[2]
        encoded = canonical_json_bytes({"view": redact(signed, policy, key[1]).to_jsonable()})
        if len(encoded) <= _VIEW_MEMO_MAX_BYTES:
            with self._views_lock:
                if key not in self._views and len(self._views) >= _VIEW_MEMO_SIZE:
                    self._views.popitem(last=False)
                self._views[key] = (signed, policy, encoded)
                self._views.move_to_end(key)
        return encoded

    def _do_get_lineage(self, body: dict) -> bytes:
        with decoding("get-lineage body"):
            identifier = parse_identifier(body["identifier"])
            direction = body["direction"]
        related = self.registry.get_lineage(identifier, direction)
        items = [{"external": external, "identifier": str(ident)} for ident, external in related]
        return canonical_json_bytes({"items": items})

    def _do_keys(self, body: dict) -> bytes:
        with decoding("keys body"):
            op = body.get("op", "list")
        if op != "list":
            raise MalformedRecord(f"unknown keys op {op!r}")
        return canonical_json_bytes(self.registry.trust.to_jsonable())

    def _do_notify(self, body: dict) -> bytes:
        with decoding("notify body"):
            payload = body["payload"]
            parse_identifier(payload["identifier"])
        self.registry.notify(payload)
        return canonical_json_bytes({})


def _error_line(exc: ProtocolError) -> bytes:
    """The reply line that reports ``exc`` to the client."""
    detail = exc.detail if isinstance(exc, errors.NotFound) else str(exc)
    return canonical_json_line({"detail": detail, "error": type(exc).__name__, "ok": False})


class BaseClient:
    """Convenience verbs shared by both transports."""

    def request(self, endpoint: str, body: dict) -> dict:
        raise NotImplementedError

    def _roundtrip(self, endpoint: str, body: dict) -> dict:
        reply = self.request(endpoint, body)
        with decoding(f"{endpoint} reply"):
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
            body["attributes"] = [attr.to_jsonable() for attr in attributes]
        if nonce is not None:
            body["nonce"] = nonce
        if upstream is not None:
            body["upstream"] = str(upstream)
        reply = self._roundtrip("issue", body)
        with decoding("issue reply"):
            return SignedId.from_jsonable(reply["signed"])

    def report_incident(self, report: IncidentReport) -> None:
        self._roundtrip("report-incident", {"report": report.to_jsonable()})

    def query_incidents(self, scope: IncidentScope, window: TimeWindow = OPEN_WINDOW):
        reply = self._roundtrip(
            "query-incidents",
            {"scope": scope.to_jsonable(), "window": window.to_jsonable()},
        )
        with decoding("query-incidents reply"):
            return IncidentReport.from_table(reply["reports"])

    def get_id(self, identifier: InstanceIdentifier) -> SignedId:
        reply = self._roundtrip("get-id", {"identifier": str(identifier)})
        with decoding("get-id reply"):
            return SignedId.from_jsonable(reply["signed"])

    def get_view(self, identifier: InstanceIdentifier, party: PartyClass) -> DisclosedView:
        reply = self._roundtrip(
            "get-id", {"identifier": str(identifier), "party": party.value}
        )
        with decoding("get-id reply"):
            return DisclosedView.from_jsonable(reply["view"])

    def get_lineage(self, identifier: InstanceIdentifier, direction: str):
        reply = self._roundtrip(
            "get-lineage", {"direction": direction, "identifier": str(identifier)}
        )
        with decoding("get-lineage reply"):
            items = reply["items"]
            if not isinstance(items, list):
                raise MalformedRecord(f"items must be a list, not {type(items).__name__}")
            related = [(parse_identifier(item["identifier"]), item["external"]) for item in items]
            if any(type(external) is not bool for _, external in related):
                raise MalformedRecord("every external marker must be a boolean")
            return related

    def list_keys(self) -> dict:
        return self._roundtrip("keys", {"op": "list"})

    def notify(self, payload: dict) -> None:
        self._roundtrip("notify", {"payload": payload})


class InProcessClient(BaseClient):
    """Client calling a ``RegistryServer`` in this process: it sends the
    request line a ``TcpClient`` sends and decodes the reply line as that
    client does, with ``load_canonical``."""

    def __init__(self, server: RegistryServer):
        self._server = server

    def request(self, endpoint: str, body: dict) -> dict:
        line = canonical_json_line({"body": body, "endpoint": endpoint})
        return load_canonical(self._server.handle(line))


_MAX_LINE = 1 << 20  # bytes per request line, its newline included
_MAX_CONNECTIONS = 256  # open at once; each holds a handler thread


class _TcpHandler(socketserver.StreamRequestHandler):
    # seconds a connection may wait for its next line, or for the client to
    # take a reply; setup() applies it to the connection
    timeout = 60.0

    def handle(self):
        try:
            while True:
                line = self.rfile.readline(_MAX_LINE + 1)
                if not line:
                    return
                if len(line) > _MAX_LINE:  # reply, then close: the rest is unframed
                    self.wfile.write(_error_line(MalformedRecord("request line too long")))
                    return
                if not line.strip():
                    continue
                # one sendall per reply: Nagle's algorithm has nothing to hold back
                self.wfile.write(self.server.registry_server.handle(line))
        except OSError:
            # the client dropped the connection (a timed-out request), or
            # stop() shut it down
            return


class TcpRegistryServer(socketserver.ThreadingTCPServer):
    """Newline-delimited canonical JSON over TCP; one request per line.

    Each connection is served by its own handler thread, which answers its
    lines in order until the client closes it or leaves it idle for
    ``_TcpHandler.timeout`` seconds. A connection accepted while
    ``_MAX_CONNECTIONS`` are open is closed and never served. ``stop()``
    closes the listening socket, shuts down every open connection, joins
    their handler threads and drops the registry: a stopped server keeps
    nothing of the registry alive, even while clients still hold their
    connections.
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
        # stop() waits for the accept loop's next poll; keep that wait short
        self._thread = threading.Thread(
            target=self.serve_forever, args=(_ACCEPT_POLL_S,), daemon=True
        )
        self._thread.start()
        return self

    def process_request(self, request, client_address) -> None:
        """Serve one accepted connection on a new daemon handler thread.

        ``ThreadingMixIn`` joins only non-daemon handler threads in
        ``server_close()``; a non-daemon thread blocked on a connection that
        its client never closes would keep the interpreter from exiting.
        The threads are daemons, so ``stop()`` joins them itself. A
        connection beyond ``_MAX_CONNECTIONS`` gets no thread: it is closed.
        """
        # only the accept loop adds handlers, so none is added past the cap
        if len(self._handlers) >= _MAX_CONNECTIONS:
            self.shutdown_request(request)
            return
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
    closed and replaced. ``timeout`` bounds a whole request, from opening
    the connection to the end of the reply line, however slowly the server
    sends it. A request is sent at most once: when sending it or
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
        deadline = time.monotonic() + self.timeout
        conn = self._connection()
        try:
            _time_left(conn, deadline)
            conn.sendall(payload)
            line = _read_line(conn, deadline)
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


def _time_left(conn: socket.socket, deadline: float) -> None:
    """Let ``conn``'s next operation wait only until ``deadline``."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    conn.settimeout(left)


def _read_line(conn: socket.socket, deadline: float) -> bytes:
    """One reply line, or b"" if the stream ends before its newline; raises
    ``TimeoutError`` if the line is not complete by ``deadline``, however
    the server spaces its bytes."""
    chunks = []
    while True:
        _time_left(conn, deadline)
        chunk = conn.recv(65536)
        if not chunk:
            return b""
        chunks.append(chunk)
        if chunk.endswith(b"\n"):
            return b"".join(chunks)


@dataclass
class ServiceConfig:
    """Registry service configuration; env vars override file values."""

    author_id: str
    host: str = "127.0.0.1"
    port: int = 7710
    retention: RetentionConfig = RetentionConfig()
    key_file: Optional[str] = None
    log_file: Optional[str] = None

    ENV_PREFIX = "INSTANCEID_"

    def __post_init__(self):
        if type(self.port) is not int or not 0 <= self.port <= 65535:
            raise MalformedRecord(f"port must be in 0-65535, not {self.port!r}")
        for path in (self.key_file, self.log_file):
            if path is not None and not isinstance(path, str):
                raise MalformedRecord(f"key and log files must be strings or null, not {path!r}")

    @classmethod
    def from_file(cls, path: str | Path, env: Optional[dict] = None) -> "ServiceConfig":
        env = os.environ if env is None else env
        body = load_canonical(Path(path).read_bytes())
        with decoding("service config"):
            listen = env.get(cls.ENV_PREFIX + "LISTEN", body.get("listen", "127.0.0.1:7710"))
            host, _, port = listen.rpartition(":")
            if host != host.strip():
                raise MalformedRecord(f"listen host has surrounding whitespace: {host!r}")
            retention = body.get("retention", {})
            for field in ("documents", "incidents"):
                text = env.get(f"{cls.ENV_PREFIX}RETENTION_{field.upper()}")
                if text is not None:  # only environment values are strings
                    retention = {**retention, field: _digits(text, f"retention {field}")}
            return cls(
                author_id=env.get(cls.ENV_PREFIX + "AUTHOR_ID", body["author_id"]),
                host=host or "127.0.0.1",
                port=_digits(port, "port"),
                retention=RetentionConfig(
                    retention.get("documents", RetentionConfig.documents),
                    retention.get("incidents", RetentionConfig.incidents),
                ),
                key_file=env.get(cls.ENV_PREFIX + "KEY_FILE", body.get("key_file")),
                log_file=env.get(cls.ENV_PREFIX + "LOG_FILE", body.get("log_file")),
            )


def _digits(text: str, what: str) -> int:
    """``text`` as an int if it is ASCII digits only; ``int()`` would also
    take signs, underscores, surrounding spaces and non-ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise MalformedRecord(f"{what} must be ASCII digits, not {text!r}")
    return int(text)


@decoding("key file")
def load_keypair_file(path: str | Path):
    """Key file: canonical JSON {author_id, key_id, suite, private(b64u)};
    the suite must be ``ed25519``, the only one this package signs with."""
    body = load_canonical(Path(path).read_bytes())
    _check_suite(body["suite"], SIGNATURE_SUITE)
    return KeyPair.generate(body["author_id"], body["key_id"], seed=b64u_decode(body["private"]))


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
                "suite": SIGNATURE_SUITE,
            }
        )
    )
