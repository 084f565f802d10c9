"""Hostile bytes on the JSON-lines socket: one error reply or a clean close.

One table of raw request lines, each sent to a live :class:`ServiceServer`
on a :class:`SimulatedClock`.  Every case must end in exactly one
``{"ok": false, ...}`` reply (``error``), no reply at all (``silent``) or a
closed connection after at most one such reply (``close``); nothing may
reach the event loop's exception handler; a connection that stayed open must
still answer ``ping``; and a *second* connection must then submit and drain
a valid job — the service, not just the socket, survived.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.core.clock import SimulatedClock
from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig
from repro.serve import SchedulerService, ServiceServer

JOB = dict(num_tasks=1, cpu_need=0.5, mem_requirement=0.2, execution_time=100.0)
NUMERIC_JOB_FIELDS = (*JOB, "job_id", "submit_time")


def line(request: Any) -> bytes:
    """One request line; ``json.dumps`` spells nan / inf as ``NaN`` / ``Infinity``."""
    return (json.dumps(request) + "\n").encode("utf-8")


def submit(**overrides: Any) -> bytes:
    return line({"op": "submit", "job": {**JOB, **overrides}})


#: (case id, bytes to send, expected outcome, close our end right after sending)
CASES: List[Tuple[str, bytes, str, bool]] = [
    (f"submit-{field}-{label}", submit(**{field: value}), "error", False)
    for field in NUMERIC_JOB_FIELDS
    for label, value in (
        ("nan", math.nan), ("infinity", math.inf), ("1e308", 1e308), ("negative", -1),
    )
] + [
    ("submit-job_id-true", submit(job_id=True), "error", False),
    ("submit-job-not-an-object", line({"op": "submit", "job": [1, 2]}), "error", False),
    ("stream-count-infinity", line({"op": "stream-metrics", "count": math.inf}), "error", False),
    ("stream-count-1e308", line({"op": "stream-metrics", "count": 1e308}), "error", False),
    ("stream-interval-nan", line({"op": "stream-metrics", "interval": math.nan}), "error", False),
    ("stream-interval-negative", line({"op": "stream-metrics", "interval": -1.0}), "error", False),
    ("status-job_id-infinity", line({"op": "status", "job_id": math.inf}), "error", False),
    ("op-is-a-list", line({"op": ["x"]}), "error", False),
    ("json-array", line([1, 2, 3]), "error", False),
    ("invalid-utf8", b"\xff\xfe{\"op\": \"ping\"\xc3\n", "error", False),
    ("empty-line", b"\n", "silent", False),
    ("whitespace-line", b"   \t\r\n", "silent", False),
    ("oversized-line", b"{\"op\": \"" + b"x" * ((1 << 20) + 16) + b"\"}\n", "close", False),
    ("truncated-line-then-close", b"{\"op\": \"pi", "close", True),
    ("disconnect-with-drain-pending", submit(submit_time=0.0) + line({"op": "drain"}), "close", True),
]


async def _converse(
    host: str, port: int, payload: bytes, hang_up: bool
) -> Tuple[List[Dict[str, Any]], bool]:
    """Send ``payload`` (then a ping, unless hanging up); replies before the
    pong, and whether the pong arrived (the connection stayed open)."""
    reader, writer = await asyncio.open_connection(host, port)
    replies: List[Dict[str, Any]] = []
    answered = False
    try:
        writer.write(payload)
        if hang_up:
            return replies, answered
        writer.write(line({"op": "ping"}))
        await writer.drain()
        while True:
            raw = await asyncio.wait_for(reader.readline(), timeout=10.0)
            if not raw:
                break
            reply = json.loads(raw)
            if reply == {"ok": True, "pong": True}:
                answered = True
                break
            replies.append(reply)
    except ConnectionError:
        pass  # the server hung up on bytes still in flight: a close
    finally:
        writer.close()
    return replies, answered


async def _session(payload: bytes, hang_up: bool):
    unhandled: List[Dict[str, Any]] = []
    asyncio.get_running_loop().set_exception_handler(
        lambda _loop, context: unhandled.append(context)
    )
    service = SchedulerService(Cluster(2, 4, 8.0), "fcfs", config=SimulationConfig())
    await service.start(clock=SimulatedClock())
    server = ServiceServer(service, port=0)
    host, port = await server.start()

    replies, answered = await _converse(host, port, payload, hang_up)

    # The service survived: a second connection submits and drains a job.
    reader, writer = await asyncio.open_connection(host, port)
    second: List[Optional[Dict[str, Any]]] = []
    for request in ({"op": "submit", "job": JOB}, {"op": "drain"}):
        writer.write(line(request))
        await writer.drain()
        second.append(json.loads(await asyncio.wait_for(reader.readline(), timeout=10.0)))
    writer.close()
    await server.close()
    await service.shutdown()
    await asyncio.sleep(0.01)  # let connection callbacks finish and report
    return replies, answered, second, unhandled


@pytest.mark.parametrize(
    "payload, expected, hang_up",
    [pytest.param(*case[1:], id=case[0]) for case in CASES],
)
def test_hostile_line_gets_one_error_reply_or_a_clean_close(payload, expected, hang_up):
    replies, answered, second, unhandled = asyncio.run(_session(payload, hang_up))
    assert unhandled == []
    assert all(reply["ok"] is False and reply["error"] for reply in replies)
    if expected == "error":
        assert len(replies) == 1 and answered
    elif expected == "silent":
        assert replies == [] and answered
    else:
        assert len(replies) <= 1 and not answered
    submitted, drained = second
    assert submitted["ok"] and submitted["accepted"]
    assert drained == {"ok": True, "drained": True}
