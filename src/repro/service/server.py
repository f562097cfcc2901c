"""JSONL-over-TCP front-end for the query broker, plus its client.

Wire protocol — one JSON object per line, both directions:

* request: ``{"op": "characterize", "kernel": "mahony", "arch": "m33"}``
  (any :func:`repro.service.queries.parse_request` op, plus ``ping`` and
  ``stats``), optionally wrapped in the v2 envelope — ``"v": 2`` plus an
  ``"options"`` object (priority / timeout / cache policy).
* response: ``{"ok": true, ...answer payload...}`` or, on failure,
  ``{"ok": false, "error": "<message>"}`` for v1 requests and
  ``{"v": 2, "ok": false, "error": {"code", "message", "retry_after",
  "type"}}`` for v2 (see :mod:`repro.service.errors`).

The server is an :class:`~repro.service.aio.AsyncServiceServer` hosted
in one background thread: connections are event-loop coroutines instead
of one blocking thread each, while coalescing, sharding, admission, and
backpressure all live in the broker / shard pool behind it — many
simultaneous connections asking the same question still cost one solve.

``repro serve`` runs :class:`ServiceServer`; ``repro query`` uses
:class:`ServiceClient` (or any tool that can speak line-delimited JSON
over a socket, e.g. ``nc``).
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from typing import Optional, Tuple, Union

from repro.service.aio import AsyncServiceServer
from repro.service.errors import (
    ServiceError,
    ServiceOverloaded,
    ServiceTimeout,
    error_from_record,
)
from repro.service.queries import (
    Query,
    QueryOptions,
    WIRE_VERSION,
    request_of,
)

#: Default TCP port for ``repro serve`` / ``repro query``.
DEFAULT_PORT = 7453


class ServiceServer:
    """Serve a broker or shard pool over line-delimited JSON on TCP.

    A synchronous shell around :class:`AsyncServiceServer`: the
    constructor binds the socket eagerly (so :attr:`address` is valid
    immediately), :meth:`start` runs the event loop in a background
    thread, :meth:`stop` shuts it down and joins.  The ``repro serve``
    command and the context-manager surface are unchanged from the
    thread-per-connection original.

    Args:
        broker: The answering :class:`~repro.service.broker.ServiceBroker`
            or :class:`~repro.service.shard.ShardPool`.
        host: Bind address; keep the localhost default unless you mean
            to expose the service.
        port: Bind port; 0 picks a free ephemeral port (read it back
            from :attr:`address`).
    """

    def __init__(self, broker, host: str = "127.0.0.1", port: int = 0):
        self.broker = broker
        self._aio = AsyncServiceServer(broker, host=host, port=port)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The actually bound (host, port) pair."""
        return self._aio.address

    def start(self) -> Tuple[str, int]:
        """Serve in a background thread; returns the bound address."""
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-service-server", daemon=True
        )
        self._thread.start()
        return self.address

    def _run_loop(self) -> None:
        """Thread body: run the asyncio server until stop is requested."""
        asyncio.run(self._aio.serve())

    def stop(self) -> None:
        """Stop serving and join the server thread (broker left running).

        Safe to call before :meth:`start` (just closes the socket) and
        robust to the start/stop race: keeps requesting shutdown until
        the loop thread actually exits.
        """
        if self._thread is None:
            self._aio.close_socket()
            return
        while self._thread.is_alive():
            self._aio.request_stop()
            self._thread.join(0.05)
        self._thread = None

    def __enter__(self) -> "ServiceServer":
        """Context-manager entry: start serving in the background."""
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: stop the server."""
        self.stop()


class ServiceClient:
    """A persistent JSONL connection to a :class:`ServiceServer`.

    Args:
        host: Server address.
        port: Server port.
        timeout: Default socket timeout in seconds for connect and
            replies; :meth:`query` and :meth:`ask` can override it
            per call, so a dead server raises instead of hanging a
            blocking ``recv`` forever.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 timeout: float = 60.0):
        self._timeout = timeout
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("r", encoding="utf-8")

    def query(self, request: dict, timeout: Optional[float] = None) -> dict:
        """Send one raw request dict, return the decoded response dict.

        ``timeout`` overrides the connection default for this exchange
        only; expiry raises :class:`ServiceTimeout` (the connection is
        left in an indeterminate mid-reply state — reconnect after).
        """
        effective = self._timeout if timeout is None else timeout
        self._sock.settimeout(effective)
        try:
            self._sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
            line = self._rfile.readline()
        except socket.timeout:
            raise ServiceTimeout(
                f"no response within {effective}s"
            ) from None
        finally:
            self._sock.settimeout(self._timeout)
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def ask(
        self,
        request: Union[dict, Query],
        options: Optional[QueryOptions] = None,
        timeout: Optional[float] = None,
    ) -> dict:
        """Send one query in the v2 envelope; raise typed errors.

        Accepts a raw request dict or a query dataclass.  ``options``
        (when given) ride in the envelope's ``"options"`` object; the
        socket deadline defaults to ``options.timeout``.  Failures
        re-raise the server's typed class
        (:func:`repro.service.errors.error_from_record`) instead of
        handing back an ``ok: false`` dict.
        """
        wire = dict(request) if isinstance(request, dict) else request_of(request)
        wire["v"] = WIRE_VERSION
        if options is not None:
            merged = dict(wire.get("options") or {})
            merged.update(options.validated().as_wire())
            if merged:
                wire["options"] = merged
        if timeout is None and options is not None:
            timeout = options.timeout
        response = self.query(wire, timeout=timeout)
        if response.get("ok"):
            return response
        error = response.get("error")
        if isinstance(error, dict):
            raise error_from_record(error)
        raise ServiceError(str(error))

    def ask_with_retry(
        self,
        request: Union[dict, Query],
        options: Optional[QueryOptions] = None,
        retries: int = 3,
        backoff: float = 0.05,
        timeout: Optional[float] = None,
    ) -> dict:
        """:meth:`ask`, retrying shed queries with exponential backoff.

        Only :class:`ServiceOverloaded` is retried — it is the one
        typed error where waiting helps.  Each attempt sleeps the
        server's ``retry_after`` hint when present, else
        ``backoff * 2**attempt``.  The final attempt's error
        propagates.
        """
        attempt = 0
        while True:
            try:
                return self.ask(request, options=options, timeout=timeout)
            except ServiceOverloaded as exc:
                if attempt >= retries:
                    raise
                delay = exc.retry_after
                if delay is None:
                    delay = backoff * (2 ** attempt)
                time.sleep(delay)
                attempt += 1

    def ping(self) -> bool:
        """True when the server answers a ping."""
        return bool(self.query({"op": "ping"}).get("pong"))

    def stats(self) -> dict:
        """The server-side broker's counters."""
        return self.query({"op": "stats"})["stats"]

    def close(self) -> None:
        """Close the connection."""
        self._rfile.close()
        self._sock.close()

    def __enter__(self) -> "ServiceClient":
        """Context-manager entry: the connected client."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: close the connection."""
        self.close()
