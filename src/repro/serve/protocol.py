"""JSON-lines socket front end for :class:`~repro.serve.service.SchedulerService`.

One request per line, one response per line, UTF-8 JSON.  The envelope is
``{"ok": true, ...payload}`` on success and ``{"ok": false, "error": msg}``
on failure — a malformed request never kills the connection, let alone the
service.  Operations:

========================  ====================================================
``{"op": "submit", "job": {...}}``   admit a job (``num_tasks``, ``cpu_need``,
                                     ``mem_requirement``, ``execution_time``,
                                     optional ``job_id``/``submit_time``)
``{"op": "status", "job_id": N}``    ledger view of one job
``{"op": "cancel", "job_id": N}``    withdraw a job
``{"op": "metrics"}``                one metrics snapshot (counters, latency
                                     quantiles, mergeable accumulator bundle)
``{"op": "metrics-prom"}``           the same metrics in Prometheus text
                                     exposition format (plus engine phase
                                     timings when telemetry is enabled)
``{"op": "stream-metrics", "interval": s, "count": n}``
                                     ``n`` snapshot lines, ``s`` seconds apart
                                     — the live metrics stream
``{"op": "drain"}``                  block until every admitted job completed
``{"op": "ping"}``                   liveness check
``{"op": "shutdown"}``               stop accepting work and close the server
========================  ====================================================

The transport is a local TCP socket (``127.0.0.1`` by default, ephemeral
port when ``port=0``) so clients need nothing but a socket and a JSON
encoder — see ``tests/serve/test_service.py`` for a minimal client.  The
soak harness (:mod:`repro.obs.soak`) is the canonical long-lived client:
it scrapes ``metrics`` and ``metrics-prom`` over this protocol for the
whole run, so a soak passing also certifies the socket front end under
sustained load.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, TypeVar

from ..exceptions import ReproError
from ..obs.prometheus import PROMETHEUS_CONTENT_TYPE
from ..obs.tracing import trace_span
from .service import SchedulerService

__all__ = ["ServiceServer"]

_N = TypeVar("_N", int, float)

#: Cap on one request line (1 MiB) — a runaway client cannot balloon memory.
_MAX_LINE_BYTES = 1 << 20

#: Largest magnitude accepted for a numeric request field: beyond 2**53 a
#: float no longer resolves one second (or one task), so engine clock
#: arithmetic would silently absorb what is added to it.
_MAX_NUMBER = float(1 << 53)


def _number(value: Any, kind: Callable[[Any], _N]) -> _N:
    """``kind(value)`` for a finite, non-negative JSON number in range.

    ``json.loads`` accepts ``NaN`` / ``Infinity`` and any exponent, and
    ``int(inf)`` raises ``OverflowError``; every refusal here is a
    ``TypeError`` / ``ValueError`` the op handlers already answer.
    """
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    if not 0.0 <= float(value) <= _MAX_NUMBER:  # False for NaN as well
        raise ValueError(f"{value!r} is not a finite number in [0, 2**53]")
    return kind(value)


class ServiceServer:
    """Serve a :class:`SchedulerService` over a local JSON-lines socket."""

    def __init__(
        self,
        service: SchedulerService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._closed = asyncio.Event()

    @property
    def address(self) -> Tuple[str, int]:
        """Actual ``(host, port)`` once started (resolves ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise ReproError("server is not running")
        host, port = self._server.sockets[0].getsockname()[:2]
        return str(host), int(port)

    async def start(self) -> Tuple[str, int]:
        """Bind the socket and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            limit=_MAX_LINE_BYTES,
        )
        return self.address

    async def serve_until_shutdown(self) -> None:
        """Block until a client issues ``{"op": "shutdown"}`` (or `close`)."""
        await self._closed.wait()

    async def close(self) -> None:
        """Stop accepting connections and release the socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._closed.set()

    # ------------------------------------------------------------- plumbing --
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._closed.is_set():
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(writer, {"ok": False, "error": "line too long"})
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                stop = await self._dispatch_line(text, writer)
                if stop:
                    break
        except ConnectionError:
            pass  # the client vanished mid-reply: nobody left to answer
        finally:
            writer.close()

    async def _dispatch_line(
        self, text: str, writer: asyncio.StreamWriter
    ) -> bool:
        """Handle one request line; True when the connection should close."""
        try:
            request = json.loads(text)
        except json.JSONDecodeError as error:
            await self._send(writer, {"ok": False, "error": f"invalid json: {error}"})
            return False
        if not isinstance(request, dict):
            await self._send(
                writer, {"ok": False, "error": "request must be a json object"}
            )
            return False
        op = request.get("op")
        with trace_span(f"serve.request.{op}", self.service.telemetry):
            return await self._dispatch_op(op, request, writer)

    async def _dispatch_op(
        self, op: Any, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> bool:
        try:
            if op == "submit":
                return await self._op_submit(request, writer)
            if op == "status":
                return await self._op_status(request, writer)
            if op == "cancel":
                return await self._op_cancel(request, writer)
            if op == "metrics":
                await self._send(
                    writer, {"ok": True, "metrics": self.service.metrics_snapshot()}
                )
                return False
            if op == "metrics-prom":
                await self._send(
                    writer,
                    {
                        "ok": True,
                        "content_type": PROMETHEUS_CONTENT_TYPE,
                        "prom": self.service.prometheus_text(),
                    },
                )
                return False
            if op == "stream-metrics":
                return await self._op_stream_metrics(request, writer)
            if op == "drain":
                await self.service.drain()
                await self._send(writer, {"ok": True, "drained": True})
                return False
            if op == "ping":
                await self._send(writer, {"ok": True, "pong": True})
                return False
            if op == "shutdown":
                await self._send(
                    writer, {"ok": True, "metrics": self.service.metrics_snapshot()}
                )
                self._closed.set()
                return True
            await self._send(writer, {"ok": False, "error": f"unknown op {op!r}"})
            return False
        except ReproError as error:
            await self._send(writer, {"ok": False, "error": str(error)})
            return False

    async def _op_submit(
        self, request: Mapping[str, Any], writer: asyncio.StreamWriter
    ) -> bool:
        job = request.get("job")
        if not isinstance(job, dict):
            await self._send(
                writer, {"ok": False, "error": "submit needs a 'job' object"}
            )
            return False
        try:
            outcome = await self.service.submit(
                num_tasks=_number(job["num_tasks"], int),
                cpu_need=_number(job["cpu_need"], float),
                mem_requirement=_number(job["mem_requirement"], float),
                execution_time=_number(job["execution_time"], float),
                job_id=(_number(job["job_id"], int) if "job_id" in job else None),
                submit_time=(
                    _number(job["submit_time"], float) if "submit_time" in job else None
                ),
            )
        except (KeyError, TypeError, ValueError) as error:
            await self._send(
                writer, {"ok": False, "error": f"bad job fields: {error!r}"}
            )
            return False
        await self._send(writer, {"ok": True, **outcome})
        return False

    async def _op_status(
        self, request: Mapping[str, Any], writer: asyncio.StreamWriter
    ) -> bool:
        job_id = request.get("job_id")
        if not isinstance(job_id, int):
            await self._send(
                writer, {"ok": False, "error": "status needs an integer 'job_id'"}
            )
            return False
        await self._send(writer, {"ok": True, **await self.service.status(job_id)})
        return False

    async def _op_cancel(
        self, request: Mapping[str, Any], writer: asyncio.StreamWriter
    ) -> bool:
        job_id = request.get("job_id")
        if not isinstance(job_id, int):
            await self._send(
                writer, {"ok": False, "error": "cancel needs an integer 'job_id'"}
            )
            return False
        await self._send(writer, {"ok": True, **await self.service.cancel(job_id)})
        return False

    async def _op_stream_metrics(
        self, request: Mapping[str, Any], writer: asyncio.StreamWriter
    ) -> bool:
        try:
            count = _number(request.get("count", 1), int)
            interval = _number(request.get("interval", 1.0), float)
        except (TypeError, ValueError) as error:
            await self._send(writer, {"ok": False, "error": f"bad fields: {error!r}"})
            return False
        if count < 1:
            await self._send(writer, {"ok": False, "error": "need count >= 1"})
            return False
        for index in range(count):
            await self._send(
                writer,
                {
                    "ok": True,
                    "sequence": index,
                    "metrics": self.service.metrics_snapshot(),
                },
            )
            if index + 1 < count:
                await asyncio.sleep(interval)
        return False

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, payload: Dict[str, Any]) -> None:
        writer.write((json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"))
        await writer.drain()
