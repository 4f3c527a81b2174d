"""HTTP side of the benchmark: the server process and the load client.

``Server`` runs ``python -m repro.cli serve`` as a subprocess and stops
it (SIGTERM, then SIGKILL) on ``close``.  ``Client`` is one persistent
``http.client`` connection that reconnects whenever the server closes
it.  ``open_loop`` replays a schedule of due times over at most two
connections, one thread each, timing every request from when it was
due.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import child_env, proc_children, proc_peak_rss_mb, workdir
from stats import Request

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
REQUEST_TIMEOUT_S = 30.0
#: The load generator's connections, one thread each.
CONNECTIONS = 2


class Server:
    """One ``repro.cli serve`` process on an ephemeral port."""

    def __init__(self, procs: int = 1) -> None:
        log = os.path.join(workdir("serve"), f"serve-{os.getpid()}.log")
        self._log = open(log, "ab")
        argv = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--procs", str(procs), "--drain-timeout", "5"]
        self.proc = subprocess.Popen(
            argv, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._log, stdin=subprocess.DEVNULL,
        )
        try:
            self.port = self._await_banner()
        except BaseException:
            self.close()
            raise

    def _await_banner(self) -> int:
        # The banner prints once every worker is ready; it carries the
        # bound port.
        deadline = time.monotonic() + START_TIMEOUT_S
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode("utf-8", "replace")
                match = re.search(r"http://[\d.]+:(\d+)", line)
                if match:
                    return int(match.group(1))
                if not line:
                    break
            if self.proc.poll() is not None:
                break
        raise RuntimeError("server did not print its banner")

    def pids(self) -> List[int]:
        return [self.proc.pid] + proc_children(self.proc.pid)

    def peak_rss_mb(self) -> float:
        """The largest server process's peak RSS."""
        return max(proc_peak_rss_mb(pid) for pid in self.pids())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


class Client:
    """One persistent connection; reconnects when the server closes it."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: Optional[http.client.HTTPConnection] = None
        self.reused = False
        self.connects = 0
        #: X-Chop-Worker of the last response: in a fleet, the worker
        #: that owns the project the request addressed.
        self.last_worker: Optional[str] = None

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, Any]:
        """Send one request; returns (status, decoded JSON body).

        A request that fails on a kept-alive connection is retried once
        on a fresh one: the server may have closed it while idle.
        """
        for attempt in (0, 1):
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
                self.conn.connect()
                # http.client writes the headers and the body in two
                # sends; without TCP_NODELAY the body waits on the
                # server's delayed ACK (~40 ms) on a kept-alive
                # connection, a stall of this client and not the server.
                self.conn.sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.connects += 1
                self.reused = False
            try:
                headers = {"Content-Type": "application/json"} if body else {}
                self.conn.request(method, path, body=body, headers=headers)
                resp = self.conn.getresponse()
                data = resp.read()
            except (http.client.RemoteDisconnected, ConnectionResetError,
                    BrokenPipeError):
                retry = self.reused and attempt == 0
                self.close()
                if retry:
                    continue
                raise
            self.last_worker = resp.getheader("X-Chop-Worker")
            if resp.will_close:
                self.close()
            else:
                self.reused = True
            text = data.decode("utf-8")
            payload = json.loads(text) if text[:1] in "{[" else text
            return resp.status, payload
        raise AssertionError("unreachable")

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


Action = Callable[[Client, Request], None]


def open_loop(
    port: int,
    requests: List[Request],
    action: Action,
) -> Dict[str, int]:
    """Replay ``requests`` (sorted by due time) open-loop.

    Each of CONNECTIONS threads takes the next request in due order,
    sleeps until it is due, sends it and records sent/done; a request
    that raises is marked failed with its error.  Returns connection
    counters.
    """
    lock = threading.Lock()
    cursor = iter(requests)
    clients = [Client(port) for _ in range(CONNECTIONS)]

    def worker(client: Client) -> None:
        while True:
            with lock:
                req = next(cursor, None)
            if req is None:
                return
            delay = req.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            req.sent = time.perf_counter()
            try:
                action(client, req)
                req.ok = not req.error
            except Exception as exc:  # a failed request, not a crash
                req.error = f"{type(exc).__name__}: {exc}"
                req.ok = False
            req.done = time.perf_counter()

    threads = [threading.Thread(target=worker, args=(c,), daemon=True)
               for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for client in clients:
        client.close()
    return {"connects": sum(c.connects for c in clients)}
