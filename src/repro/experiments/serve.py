"""The observability plane's HTTP face: /metrics, /events, /state.json.

A stdlib-only :class:`~http.server.ThreadingHTTPServer` wrapped around a
:class:`~repro.experiments.monitor.CampaignMonitor`. Endpoints:

``GET /metrics``
    Prometheus text exposition (version 0.0.4) of the monitor's
    counters and live gauges — progress, ETA, throughput, worker
    liveness, component shares, host CPU/RSS.

``GET /events``
    Server-Sent Events over the store's campaign log: one
    ``id: SEQ`` / ``data: {json}`` frame per ``ledger`` row, replaying
    the log from its start and then following new rows (polled every
    ``POLL_S``). The SSE id is the row's ``seq``, so the
    ``Last-Event-ID`` request header — or ``?after=N`` for curl —
    resumes at ``WHERE seq > N``: exactly after the last frame the
    client saw, across a ``--resume`` too. Comment keepalives
    (``: keepalive``) flow while the stream is idle so proxies do not
    reap the connection.

``GET /state.json``
    The full monitor snapshot (grid, running cells, workers,
    components, ETA) as one JSON object — what ``repro watch --url``
    polls.

The server binds ``127.0.0.1`` on an ephemeral port by default (bind to
port 0, read the real port back), runs handler threads as daemons, and
is observation-only: nothing here can write to the campaign. Slow or
dead clients cost one daemon thread each and are reaped on their next
write (``BrokenPipeError``), never stalling the runner — the runner
does not even know the server exists; it only writes its store.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..telemetry.metrics import render_prometheus
from .monitor import CampaignMonitor

__all__ = ["MonitorServer", "parse_serve_spec"]

#: idle time between SSE keepalive comments.
KEEPALIVE_S = 5.0

#: how often an SSE stream looks for new log rows.
POLL_S = 0.2

#: how long :meth:`MonitorServer.stop` waits for SSE streams to finish.
STOP_GRACE_S = 2.0


def parse_serve_spec(spec: str) -> Tuple[str, int]:
    """Parse ``--serve`` values: ``:0``, ``8765``, ``host:port``.

    A bare port (or ``:port``) binds loopback; an explicit host widens
    exposure deliberately. Port 0 asks the OS for an ephemeral port.
    """
    spec = spec.strip()
    host, sep, port_s = spec.rpartition(":")
    if not sep:
        host, port_s = "", spec
    host = host or "127.0.0.1"
    try:
        port = int(port_s)
    except ValueError:
        raise ValueError(
            f"invalid --serve spec {spec!r}: want PORT, :PORT, or HOST:PORT"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"invalid --serve port {port}")
    return host, port


class _Handler(BaseHTTPRequestHandler):
    """One request against the monitor. The server injects ``monitor``."""

    server_version = "repro-monitor/1"
    protocol_version = "HTTP/1.1"

    # handler threads must never crash the server on client disconnects.
    def handle_one_request(self) -> None:  # pragma: no cover - dispatch shim
        try:
            super().handle_one_request()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def log_message(self, fmt, *args) -> None:
        pass  # HTTP access noise has no place on the campaign's stderr

    server: "_Server"

    @property
    def monitor(self) -> CampaignMonitor:
        return self.server.monitor

    def do_GET(self) -> None:
        parsed = urlparse(self.path)
        if parsed.path == "/metrics":
            self._send_metrics()
        elif parsed.path == "/state.json":
            self._send_state()
        elif parsed.path == "/events":
            self._send_events(parsed)
        elif parsed.path == "/":
            self._send_index()
        else:
            self._send_plain(404, "not found\n")

    # -- endpoints -------------------------------------------------------------

    def _send_metrics(self) -> None:
        body = render_prometheus(self.monitor.metrics_snapshot())
        self._send_plain(
            200, body, content_type="text/plain; version=0.0.4; charset=utf-8"
        )

    def _send_state(self) -> None:
        body = json.dumps(self.monitor.state(), sort_keys=True) + "\n"
        self._send_plain(200, body, content_type="application/json")

    def _send_index(self) -> None:
        self._send_plain(
            200,
            "repro campaign monitor\n"
            "  GET /metrics     Prometheus text exposition\n"
            "  GET /events      SSE ledger stream (Last-Event-ID resume)\n"
            "  GET /state.json  live state snapshot\n",
        )

    def _send_events(self, parsed) -> None:
        after = _resume_point(self.headers.get("Last-Event-ID"), parsed)
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # SSE is unbounded: no Content-Length, so the connection closes
        # when the stream does.
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        server = self.server
        with server.streams:
            server.open_streams += 1
        try:
            self._follow(after)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; the daemon thread unwinds
        finally:
            with server.streams:
                server.open_streams -= 1
                server.streams.notify_all()

    def _follow(self, after: int) -> None:
        """Stream log rows past ``after`` until the server stops.

        The stop flag is read *before* each poll, so the last poll after
        a stop still sends every row the campaign wrote.
        """
        quiet_since = time.monotonic()
        while True:
            stopping = self.server.stopping
            rows = self.monitor.events_after(after)
            for seq, record in rows:
                frame = (
                    f"id: {seq}\n"
                    f"data: {json.dumps(record, sort_keys=True)}\n\n"
                )
                self.wfile.write(frame.encode("utf-8"))
                after = seq
            if rows:
                quiet_since = time.monotonic()
            elif time.monotonic() - quiet_since >= KEEPALIVE_S:
                self.wfile.write(b": keepalive\n\n")
                quiet_since = time.monotonic()
            self.wfile.flush()
            if stopping:
                return
            if not rows:
                time.sleep(POLL_S)

    # -- plumbing --------------------------------------------------------------

    def _send_plain(
        self, code: int, body: str, content_type: str = "text/plain"
    ) -> None:
        data = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        try:
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass


def _resume_point(header: Optional[str], parsed) -> int:
    """Resolve the SSE resume id: Last-Event-ID header, else ?after=N."""
    for raw in (header, *parse_qs(parsed.query).get("after", ())):
        if raw is None:
            continue
        try:
            return max(0, int(raw))
        except ValueError:
            continue
    return 0


class _Server(ThreadingHTTPServer):
    """The HTTP server, carrying the monitor its handlers read."""

    daemon_threads = True

    def __init__(self, address, monitor: CampaignMonitor) -> None:
        super().__init__(address, _Handler)
        self.monitor = monitor
        self.stopping = False
        #: open SSE streams, which :meth:`MonitorServer.stop` lets send
        #: their last rows.
        self.streams = threading.Condition()
        self.open_streams = 0


class MonitorServer:
    """Serve a :class:`CampaignMonitor` over HTTP on a daemon thread.

    ``port=0`` (the default) binds an ephemeral port; the bound address
    is available as :attr:`host`/:attr:`port`/:attr:`url` after
    :meth:`start`. Context-manager use stops the server on exit.
    """

    def __init__(
        self,
        monitor: CampaignMonitor,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.monitor = monitor
        self._httpd = _Server((host, port), monitor)
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MonitorServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.25},
            name="monitor-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving; open SSE streams first send the rows written
        up to now (waiting at most ``STOP_GRACE_S`` for them)."""
        httpd = self._httpd
        httpd.stopping = True
        httpd.shutdown()
        with httpd.streams:
            httpd.streams.wait_for(
                lambda: httpd.open_streams == 0, timeout=STOP_GRACE_S
            )
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def __enter__(self) -> "MonitorServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
