"""The HTTP transport under the service and the fleet's forwarding hop.

What a kept-alive verdict costs on the wire is decided here, not in
``ChopService.handle()``: every response must leave the handler in one
write on a ``TCP_NODELAY`` socket (two writes stall on the peer's
delayed ACK), a worker must reuse its loopback connections to the
owner instead of connecting per hop, a pooled connection the owner
closed while idle must be retried exactly once, and a broken or stalled
client must cost one bounded, counted request — never a traceback and a
pinned thread.
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.experiments import experiment1_session
from repro.io.project import project_fingerprint, session_to_dict
from repro.obs.metrics import MetricsRegistry
from repro.service import ChopService, make_server
from repro.service.fleet import (
    MAX_IDLE_PER_PEER,
    FleetRouter,
    bind_public_socket,
    server_over,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def project_doc():
    return session_to_dict(
        experiment1_session(package_number=2, partition_count=2)
    )


def start(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


def stop(server):
    server.shutdown()
    server.server_close()


def with_deadline(server, seconds):
    """Give a server's handler a short read deadline (tests only)."""
    server.RequestHandlerClass = type(
        "ShortDeadline", (server.RequestHandlerClass,), {"timeout": seconds}
    )
    return server


def raw_exchange(port, request, timeout=10.0):
    """Send raw bytes; return everything the server sends until EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def parse(raw):
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return status, headers, body


@pytest.fixture()
def single():
    service = ChopService(workers=1, registry=MetricsRegistry())
    server = start(make_server(service, "127.0.0.1", 0))
    try:
        yield service, server
    finally:
        stop(server)
        service.close()


# ----------------------------------------------------------------------
# one write per response, Nagle off
# ----------------------------------------------------------------------
class TestOneWrite:
    def test_each_response_is_one_write_on_a_nodelay_socket(self, single):
        service, server = single
        writes, nodelay = [], []

        class Counting:
            def __init__(self, inner):
                self.inner = inner

            def write(self, data):
                writes.append(len(data))
                return self.inner.write(data)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        base = server.RequestHandlerClass

        class Recording(base):
            def setup(self):
                super().setup()
                nodelay.append(self.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY))
                self.wfile = Counting(self.wfile)

        server.RequestHandlerClass = Recording
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=10)
        try:
            requests = [
                ("GET", "/healthz", None),
                ("POST", "/projects", b"{not json"),  # a 400
                ("GET", "/metrics?format=prometheus", None),  # text
                ("GET", "/metrics", None),  # a large JSON body
            ]
            for method, path, body in requests:
                conn.request(method, path, body=body)
                response = conn.getresponse()
                data = response.read()
                assert int(response.getheader("Content-Length")) == len(data)
                assert not response.will_close
        finally:
            conn.close()
        assert len(writes) == len(requests)
        assert nodelay and all(nodelay)


# ----------------------------------------------------------------------
# malformed requests and the read deadline
# ----------------------------------------------------------------------
class TestMalformedAndStalled:
    @pytest.mark.parametrize("declared", ["abc", "-5", "1_0"])
    def test_malformed_content_length_is_a_400(self, single, declared,
                                               capfd):
        service, server = single
        raw = raw_exchange(
            server.server_address[1],
            b"POST /projects HTTP/1.1\r\nHost: x\r\n"
            + f"Content-Length: {declared}\r\n\r\n".encode(),
        )
        status, headers, body = parse(raw)
        assert status == 400
        assert headers["Connection"] == "close"
        payload = json.loads(body)
        assert payload["type"] == "bad_request"
        assert declared in payload["error"]
        routes = service.metrics.snapshot()["routes"]
        assert routes["(malformed)"]["count"] == 1
        assert "Traceback" not in capfd.readouterr().err

    def test_half_open_connections_give_their_threads_back(self, single):
        _service, server = single
        with_deadline(server, 0.3)
        before = set(threading.enumerate())
        socks = []
        for _ in range(5):
            sock = socket.create_connection(
                ("127.0.0.1", server.server_address[1]), 10)
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost:")  # never ends
            socks.append(sock)
        try:
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                handlers = set(threading.enumerate()) - before
                if len(handlers) >= 5:
                    break
                time.sleep(0.01)
            assert len(handlers) >= 5
            for sock in socks:
                assert sock.recv(1024) == b""  # the server hung up
            for thread in handlers:
                thread.join(5)
            assert not any(thread.is_alive() for thread in handlers)
        finally:
            for sock in socks:
                sock.close()

    def test_stalled_body_is_a_408(self, single):
        service, server = single
        with_deadline(server, 0.3)
        raw = raw_exchange(
            server.server_address[1],
            b"POST /projects HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 100\r\n\r\n{\"a\"",
        )
        status, headers, body = parse(raw)
        assert status == 408
        assert headers["Connection"] == "close"
        assert json.loads(body)["type"] == "request_timeout"
        assert service.metrics.snapshot()["routes"]["(timeout)"]["count"] == 1


# ----------------------------------------------------------------------
# kept-alive forwarding
# ----------------------------------------------------------------------
class TwoWorkers:
    """An in-process two-worker fleet: a public listener on the front
    worker and an internal listener on the worker that owns the
    project, so every project request the front accepts is forwarded."""

    def __init__(self, document):
        owner = int(project_fingerprint(document)[:16], 16) % 2
        front = 1 - owner
        socks = [bind_public_socket("127.0.0.1", 0) for _ in range(2)]
        ports = tuple(sock.getsockname()[1] for sock in socks)
        self.routers = [
            FleetRouter(index=i, internal_ports=ports, public_port=0)
            for i in range(2)
        ]
        self.services = [
            ChopService(workers=1, registry=MetricsRegistry(),
                        fleet=router)
            for router in self.routers
        ]
        self.front = self.routers[front]
        self.owner = owner
        self.internal = start(
            server_over(socks[owner], self.services[owner], internal=True))
        socks[front].close()
        self.public = start(
            make_server(self.services[front], "127.0.0.1", 0))

    def close(self):
        for server in (self.public, self.internal):
            stop(server)
        for service, router in zip(self.services, self.routers):
            service.close()
            router.close()


@pytest.fixture()
def fleet(project_doc):
    pair = TwoWorkers(project_doc)
    try:
        yield pair
    finally:
        pair.close()


class TestForwarding:
    def test_forwarded_checks_share_one_connection(self, fleet,
                                                   project_doc):
        conn = http.client.HTTPConnection(
            "127.0.0.1", fleet.public.server_address[1], timeout=60)
        try:
            conn.request("POST", "/projects",
                         body=json.dumps(project_doc).encode())
            response = conn.getresponse()
            project_id = json.loads(response.read())["project_id"]
            assert response.getheader("X-Chop-Worker") == str(fleet.owner)
            for _ in range(5):
                conn.request("POST", f"/projects/{project_id}/check",
                             body=b"{}")
                response = conn.getresponse()
                assert response.status == 200
                assert "feasible" in json.loads(response.read())["result"]
                assert response.getheader("X-Chop-Worker") == str(
                    fleet.owner)
        finally:
            conn.close()
        stats = fleet.front.stats()
        assert stats["forwarded"] == 6
        assert stats["forward_connects"] == 1
        assert stats["forward_failures"] == 0

    def test_connection_the_owner_closed_is_retried_once(self, fleet,
                                                         project_doc):
        with_deadline(fleet.internal, 0.2)
        body = json.dumps(project_doc).encode()
        status, _payload, route, headers = fleet.front.forward(
            fleet.owner, "POST", "/projects", body)
        assert (status, route) == (201, "(forwarded)")
        assert headers["X-Chop-Worker"] == str(fleet.owner)
        time.sleep(0.6)  # the owner's read deadline closes the idle socket
        status, _payload, _route, _headers = fleet.front.forward(
            fleet.owner, "POST", "/projects", body)
        assert status == 200
        stats = fleet.front.stats()
        assert stats["forward_connects"] == 2
        assert stats["forwarded"] == 2
        assert stats["forward_failures"] == 0

    def test_concurrent_forwards_share_the_pool_safely(self, fleet):
        """More threads than cores, a tiny switch interval: every
        forward answers, every counter adds up, and no connection is
        ever handed to two threads (their responses would interleave)."""
        threads, per_thread = 8, 25
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def worker():
                for _ in range(per_thread):
                    status, payload, _route, _headers = fleet.front.forward(
                        fleet.owner, "GET", "/healthz", None)
                    results.append((status, payload.get("status")))

            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(60)
            assert not any(thread.is_alive() for thread in pool)
        finally:
            sys.setswitchinterval(interval)
        assert results == [(200, "ok")] * (threads * per_thread)
        stats = fleet.front.stats()
        assert stats["forwarded"] == threads * per_thread
        assert stats["forward_failures"] == 0
        assert 1 <= stats["forward_connects"] <= threads
        assert len(fleet.front._idle[fleet.owner]) <= MAX_IDLE_PER_PEER


class ScriptedPeer:
    """A loopback listener that answers each request with the next
    scripted reply: ``(raw_bytes, then)`` where ``then`` is ``"keep"``
    (leave the connection open), ``"reset"`` (abort it with a TCP RST)
    or ``"die"`` (close it and the listener)."""

    OK = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
          b"Content-Length: 12\r\n\r\n{\"ok\": true}")

    def __init__(self, script):
        self.script = list(script)
        self.accepted = 0
        self.listener = bind_public_socket("127.0.0.1", 0)
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while self.script:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.accepted += 1
            with conn:
                while self.script and self._read_request(conn):
                    reply, then = self.script.pop(0)
                    conn.sendall(reply)
                    if then == "die":
                        self.listener.close()
                        return
                    if then == "reset":
                        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                        struct.pack("ii", 1, 0))
                        break
        self.listener.close()

    @staticmethod
    def _read_request(conn):
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(65536)
            if not chunk:
                return False
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(body) < length:
            body += conn.recv(65536)
        return True

    def router(self):
        return FleetRouter(index=0, internal_ports=(1, self.port),
                           public_port=0, forward_timeout_s=5.0)


class TestForwardFailures:
    def test_dead_owner_is_a_502_counted_once(self):
        peer = ScriptedPeer([(ScriptedPeer.OK, "die")])
        router = peer.router()
        try:
            assert router.forward(1, "GET", "/projects/abc", None)[0] == 200
            peer.thread.join(5)
            status, payload, route, _headers = router.forward(
                1, "GET", "/projects/abc", None)
            assert status == 502
            assert payload["type"] == "fleet_forward"
            assert route == "(forwarded)"
            stats = router.stats()
            assert stats["forward_failures"] == 1
            assert stats["forwarded"] == 1
            assert stats["forward_connects"] == 1
        finally:
            router.close()

    def test_failure_after_response_bytes_is_not_retried(self):
        # A reset in the middle of the headers is the same error class
        # as a stale connection's, but the owner had started answering:
        # the request was read, so it must not be sent twice.
        peer = ScriptedPeer([
            (ScriptedPeer.OK, "keep"),
            (b"HTTP/1.1 200 OK\r\nContent-Le", "reset"),
            (ScriptedPeer.OK, "keep"),  # only a retry would reach this
        ])
        router = peer.router()
        try:
            assert router.forward(1, "GET", "/projects/abc", None)[0] == 200
            status, payload, _route, _headers = router.forward(
                1, "GET", "/projects/abc", None)
            assert status == 502
            assert payload["type"] == "fleet_forward"
            assert peer.accepted == 1
            assert router.stats()["forward_connects"] == 1
            assert router.stats()["forward_failures"] == 1
        finally:
            router.close()
            peer.listener.close()


def test_cli_import_loads_no_serving_code():
    """A CLI check never pays for the HTTP stack it does not use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    probe = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, repro.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'http' or m == 'urllib.request' "
            "or m.startswith('repro.service')))",
        ],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        timeout=60,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"
