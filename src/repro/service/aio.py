"""The asyncio JSONL front-end over the served broker.

The original server spent one OS thread per connection just to block on
``broker.ask``.  This front-end replaces that with a single event loop:
connections are coroutines, a query is submitted inline on the loop
(the served :class:`~repro.service.shard.ShardPool` sheds rather than
blocks, so submit returns at once), its wait for the ticket is an
awaited future bridged from the dispatcher thread's done-callback, and
slow clients cost a task, not a thread.  Framing is unchanged — one
JSON object per line in both directions — so every existing client
keeps working.

Envelope versioning (see ``docs/service.md``):

* **v1** (no ``"v"`` field): responses keep the legacy shape —
  ``{"ok": true, ...payload...}`` on success and
  ``{"ok": false, "error": "<TypeName>: <message>"}`` with a *string*
  error on failure, byte-compatible with the pre-asyncio server.
* **v2** (``"v": 2``): responses echo ``"v": 2`` and failures carry a
  structured record — ``{"code", "message", "retry_after", "type"}``
  (:func:`repro.service.errors.error_record`) — which
  :class:`~repro.service.server.ServiceClient` re-raises as the typed
  exception class.

:class:`~repro.service.server.ServiceServer` hosts this loop in a
background thread, so the synchronous ``start()``/``stop()`` surface
(and ``repro serve``) is unchanged.
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Optional, Tuple

from repro.service.errors import ServiceTimeout, error_record
from repro.service.queries import WIRE_VERSION, parse_request

__all__ = ["AsyncServiceServer", "shape_error", "shape_ok"]


def shape_ok(version: int, payload: dict) -> dict:
    """A success response in the request's envelope version."""
    if version >= WIRE_VERSION:
        return {"v": WIRE_VERSION, "ok": True, **payload}
    return {"ok": True, **payload}


def shape_error(version: int, exc: BaseException) -> dict:
    """A failure response in the request's envelope version.

    v1 keeps the legacy flat string; v2 serializes the typed record.
    """
    if version >= WIRE_VERSION:
        return {"v": WIRE_VERSION, "ok": False, "error": error_record(exc)}
    return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


class AsyncServiceServer:
    """Serve a :class:`~repro.service.shard.ShardPool` over asyncio JSONL.

    Args:
        target: The answering :class:`~repro.service.shard.ShardPool`;
            its ``submit`` runs on the event loop, so it must not block.
        host: Bind address; keep the localhost default unless you mean
            to expose the service.
        port: Bind port; 0 picks a free ephemeral port (read it back
            from :attr:`address`).

    The listening socket is bound eagerly in the constructor, so
    :attr:`address` is valid before (and without) :meth:`serve` — the
    thread-hosting wrapper relies on this to report the bound port
    synchronously.
    """

    def __init__(self, target, host: str = "127.0.0.1", port: int = 0):
        self.target = target
        self._sock = socket.create_server(
            (host, port), reuse_port=False, backlog=128
        )
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The actually bound (host, port) pair."""
        name = self._sock.getsockname()
        return name[0], name[1]

    def close_socket(self) -> None:
        """Close the listening socket (for stop-before-serve cleanup)."""
        self._sock.close()

    def request_stop(self) -> None:
        """Ask a running :meth:`serve` to shut down (thread-safe)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    async def serve(self) -> None:
        """Accept and serve connections until :meth:`request_stop`."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(self._handle, sock=self._sock)
        try:
            async with server:
                await self._stop.wait()
        finally:
            self._loop = None
            self._stop = None

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One connection: read request lines, write response lines."""
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                response = await self.answer_line(line)
                writer.write((json.dumps(response) + "\n").encode("utf-8"))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop shutdown cancelled this connection mid-read.  Exit
            # normally: letting the cancellation escape makes 3.11's
            # stream callback log it as an "Exception in callback".
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def answer_line(self, line: str) -> dict:
        """Answer one request line; errors become shaped responses."""
        version = 1
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            raw_version = request.get("v", 1)
            version = raw_version if isinstance(raw_version, int) else 1
            op = request.get("op")
            if op == "ping":
                return shape_ok(version, {"pong": True})
            if op == "stats":
                return shape_ok(version, {"stats": self.target.stats()})
            payload = await self._ask(request)
            return shape_ok(version, payload)
        except Exception as exc:
            return shape_error(version, exc)

    async def _ask(self, request: dict) -> dict:
        """Parse, submit, and await one query without blocking the loop.

        Parsing, validation and submission run inline: the pool sheds
        instead of blocking, so ``submit`` returns at once.  The
        ticket's answer is bridged to an awaitable future by its
        done-callback, honoring the query's own options timeout.
        """
        query = parse_request(request)
        ticket = self.target.submit(query)
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()

        def _deliver(done_ticket) -> None:
            def _set() -> None:
                if future.cancelled():
                    return
                if done_ticket.error is not None:
                    future.set_exception(done_ticket.error)
                else:
                    future.set_result(done_ticket.payload)

            try:
                loop.call_soon_threadsafe(_set)
            except RuntimeError:
                # The loop shut down while the answer was in flight;
                # nobody is left to await the future.
                pass

        ticket.add_done_callback(_deliver)
        timeout = query.options.timeout
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            raise ServiceTimeout(
                f"no answer for {ticket.kind} query within {timeout}s"
            ) from None
