"""The live asyncio service: submit/status/cancel, metrics, socket protocol.

Live-mode tests drive the service under a :class:`SimulatedClock` with
explicit submit times, so the asyncio driver steps the engine
deterministically (no real waiting, no wall-clock dependence) and
assertions can be exact.  Load-sensitive admission policies are exercised
through the synchronous replay path, where intake order is fully
deterministic; the live path covers the time-based token bucket.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.clock import SimulatedClock
from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig
from repro.core.job import JobSpec
from repro.core.observers import SimEvent
from repro.exceptions import ConfigurationError, ReproError
from repro.metrics import DEFAULT_RELATIVE_ERROR
from repro.platform import TraceNodeEventSource
from repro.serve import (
    BoundedQueuePolicy,
    LoadThresholdPolicy,
    SchedulerService,
    ServiceServer,
    TokenBucketPolicy,
)
from repro.serve.service import ServiceJobRecord, ServiceMetrics, _ServiceObserver
from repro.traces import CallableTraceSource, LublinTraceSource
from repro.traces.transforms import RescaleLoad

CLUSTER = Cluster(2, 4, 8.0)

#: A light job: half a node of CPU, a fifth of its memory, 100 s of work.
JOB = dict(num_tasks=1, cpu_need=0.5, mem_requirement=0.2, execution_time=100.0)

#: A job that monopolizes one node: memory is rigid, so 0.9 + 0.9 > 1.0
#: forbids co-residency and two of these saturate the two-node cluster.
SATURATING = dict(
    num_tasks=1, cpu_need=1.0, mem_requirement=0.9, execution_time=500.0
)


def _service(algorithm="greedy-pmtn-migr", **kwargs):
    kwargs.setdefault("config", SimulationConfig())
    return SchedulerService(CLUSTER, algorithm, **kwargs)


def _burst(count, job=SATURATING, gap=0.0):
    """A trace source of ``count`` identical jobs, ``gap`` seconds apart."""
    specs = [
        JobSpec(
            job_id=index,
            submit_time=index * gap,
            num_tasks=job["num_tasks"],
            cpu_need=job["cpu_need"],
            mem_requirement=job["mem_requirement"],
            execution_time=job["execution_time"],
        )
        for index in range(count)
    ]
    return CallableTraceSource(factory=lambda cluster: list(specs), key="burst")


class TestLiveLifecycle:
    def test_submit_run_complete(self):
        async def scenario():
            service = _service()
            await service.start(clock=SimulatedClock(), start_time=0.0)
            outcome = await service.submit(submit_time=0.0, **JOB)
            assert outcome == {"job_id": 0, "accepted": True, "reason": ""}
            await service.drain()
            status = await service.status(0)
            result = await service.shutdown()
            return status, result, service

        status, result, service = asyncio.run(scenario())
        assert status["state"] == "completed"
        assert status["first_start_time"] == 0.0
        assert status["completion_time"] == 100.0
        assert result.num_jobs == 1
        assert service.metrics.completions == 1
        assert service.metrics.placements >= 1

    def test_drain_right_after_submit_waits_for_completion(self):
        # A drain issued in the same event-loop tick as the submit must not
        # observe the stale idle flag and return before the job ran.
        async def scenario():
            service = _service()
            await service.start(clock=SimulatedClock())
            await service.submit(submit_time=0.0, **JOB)
            await service.drain()
            return await service.status(0)

        assert asyncio.run(scenario())["state"] == "completed"

    def test_sequential_submissions_auto_assign_ids(self):
        async def scenario():
            service = _service()
            await service.start(clock=SimulatedClock())
            first = await service.submit(submit_time=0.0, **JOB)
            second = await service.submit(submit_time=50.0, **JOB)
            await service.drain()
            await service.shutdown()
            return first, second, service

        first, second, service = asyncio.run(scenario())
        assert (first["job_id"], second["job_id"]) == (0, 1)
        assert service.metrics.accepted == 2
        assert service.metrics.completions == 2

    def test_submit_time_never_goes_backwards(self):
        async def scenario():
            service = _service()
            await service.start(clock=SimulatedClock(), start_time=0.0)
            await service.submit(submit_time=100.0, **JOB)
            # An out-of-order client timestamp is clamped, not fatal.
            outcome = await service.submit(submit_time=20.0, **JOB)
            assert outcome["accepted"]
            status = await service.status(1)
            await service.drain()
            await service.shutdown()
            return status

        assert asyncio.run(scenario())["submit_time"] == 100.0

    def test_cancel_pending_and_unknown(self):
        async def scenario():
            service = _service()
            await service.start(clock=SimulatedClock())
            for _ in range(2):
                await service.submit(submit_time=0.0, **SATURATING)
            queued = await service.submit(submit_time=0.0, **SATURATING)
            cancelled = await service.cancel(queued["job_id"])
            again = await service.cancel(queued["job_id"])
            missing = await service.cancel(999)
            status = await service.status(queued["job_id"])
            await service.drain()
            await service.shutdown()
            return cancelled, again, missing, status, service

        cancelled, again, missing, status, service = asyncio.run(scenario())
        assert cancelled == {"job_id": 2, "cancelled": True}
        # The submission is still queued in the engine; a second cancel must
        # not be counted (or trimmed from the ledger) twice.
        assert again == {"job_id": 2, "cancelled": False}
        assert missing == {"job_id": 999, "cancelled": False}
        assert status["state"] == "cancelled"
        assert service.metrics.cancelled == 1
        assert service.metrics.completions == 2

    def test_latency_sketches_run_at_the_default_relative_error(self):
        metrics = _service().metrics
        assert metrics.queue_latency.relative_error == DEFAULT_RELATIVE_ERROR
        assert metrics.jct.relative_error == DEFAULT_RELATIVE_ERROR

    def test_ledger_forgets_the_oldest_terminal_jobs(self, monkeypatch):
        import repro.serve.service as service_module

        monkeypatch.setattr(service_module, "_LEDGER_LIMIT", 2)

        async def scenario():
            service = _service()
            await service.start(clock=SimulatedClock())
            for _ in range(4):
                await service.submit(submit_time=0.0, **JOB)
            await service.drain()
            states = [(await service.status(job_id))["state"] for job_id in range(4)]
            await service.shutdown()
            return states

        assert asyncio.run(scenario()) == ["unknown", "unknown", "completed", "completed"]

    def test_status_of_never_seen_job(self):
        async def scenario():
            service = _service()
            await service.start(clock=SimulatedClock())
            status = await service.status(42)
            await service.shutdown()
            return status

        assert asyncio.run(scenario()) == {"job_id": 42, "state": "unknown"}

    def test_infeasible_job_rejected_not_fatal(self):
        async def scenario():
            service = _service()
            await service.start(clock=SimulatedClock())
            # Three full-memory tasks can never fit on two nodes.
            outcome = await service.submit(
                submit_time=0.0, num_tasks=3, cpu_need=0.5,
                mem_requirement=1.0, execution_time=10.0,
            )
            follow_up = await service.submit(submit_time=1.0, **JOB)
            await service.drain()
            await service.shutdown()
            return outcome, follow_up, service

        outcome, follow_up, service = asyncio.run(scenario())
        assert not outcome["accepted"]
        assert "infeasible" in outcome["reason"]
        assert follow_up["accepted"]
        assert service.metrics.rejected == 1
        assert service.metrics.completions == 1

    def test_invalid_job_fields_rejected(self):
        async def scenario():
            service = _service()
            await service.start(clock=SimulatedClock())
            bad_tasks = await service.submit(
                submit_time=0.0, num_tasks=0, cpu_need=0.5,
                mem_requirement=0.2, execution_time=10.0,
            )
            bad_memory = await service.submit(
                submit_time=0.0, num_tasks=1, cpu_need=0.5,
                mem_requirement=2.0, execution_time=10.0,
            )
            await service.shutdown()
            return bad_tasks, bad_memory

        bad_tasks, bad_memory = asyncio.run(scenario())
        assert not bad_tasks["accepted"]
        assert "num_tasks" in bad_tasks["reason"]
        assert not bad_memory["accepted"]
        assert "mem_requirement" in bad_memory["reason"]

    def test_service_is_single_use(self):
        async def scenario():
            service = _service()
            await service.start(clock=SimulatedClock())
            await service.shutdown()
            with pytest.raises(ReproError, match="already used"):
                await service.start(clock=SimulatedClock())
            with pytest.raises(ReproError, match="not live"):
                await service.submit(submit_time=0.0, **JOB)

        asyncio.run(scenario())

    def test_live_after_replay_rejected(self):
        from repro.traces import LublinTraceSource

        service = _service(config=SimulationConfig(streaming_metrics=True))
        service.replay(LublinTraceSource(num_jobs=5, seed=3), keep_result=False)

        async def scenario():
            with pytest.raises(ReproError, match="already used"):
                await service.start(clock=SimulatedClock())

        asyncio.run(scenario())


class TestAdmissionIntegration:
    def test_token_bucket_rejects_live(self):
        # The token bucket depends only on time and its own state, so its
        # live-mode decisions are deterministic regardless of driver timing.
        async def scenario():
            service = _service(admission=TokenBucketPolicy(rate=1.0, burst=2.0))
            await service.start(clock=SimulatedClock())
            outcomes = [
                await service.submit(submit_time=0.0, **JOB) for _ in range(3)
            ]
            status = await service.status(2)
            await service.drain()
            await service.shutdown()
            return outcomes, status, service

        outcomes, status, service = asyncio.run(scenario())
        assert [outcome["accepted"] for outcome in outcomes] == [True, True, False]
        assert outcomes[2]["reason"] == "rate-limited"
        assert status["state"] == "rejected"
        assert status["reason"] == "rate-limited"
        assert service.metrics.rejected == 1
        assert service.metrics.completions == 2

    def test_admission_spec_dict_plumbing(self):
        service = _service(admission={"type": "load-threshold", "max_load": 0.5})
        assert isinstance(service.admission, LoadThresholdPolicy)
        assert service.admission.max_load == 0.5
        with pytest.raises(ConfigurationError):
            _service(admission={"type": "vip-lane"})

    # Intake-time decisions run while the previous arrival is still pending
    # (it is placed later in the same engine step), so every decision after
    # the first sees at least one pending job; true queueing shows up on top
    # of that.  These two tests use the rigid batch scheduler: a preemptive
    # one would timeshare the backlog instead of queueing it.  With two
    # saturating jobs running, arrivals 2 and 3 stay queued, so job 4's
    # decision sees pending == 2.

    def test_bounded_queue_reject_in_replay(self):
        service = _service(
            "fcfs", admission=BoundedQueuePolicy(max_pending=2, mode="reject")
        )
        report = service.replay(_burst(5, gap=10.0), keep_result=False)
        assert report.submitted == 5
        assert report.accepted == 4
        assert report.rejected == 1
        assert report.shed == 0
        assert report.completions == 4

    def test_bounded_queue_shed_in_replay(self):
        service = _service(
            "fcfs", admission=BoundedQueuePolicy(max_pending=2, mode="shed")
        )
        report = service.replay(_burst(5, gap=10.0), keep_result=False)
        assert report.submitted == 5
        # Job 4 displaces the oldest queued job (job 2) instead of being
        # turned away: everyone is admitted, one victim never runs.
        assert report.accepted == 5
        assert report.rejected == 0
        assert report.shed == 1
        assert report.completions == 4

    def test_load_threshold_in_replay(self):
        service = _service(admission={"type": "load-threshold", "max_load": 0.5})
        report = service.replay(
            _burst(4, job=dict(JOB, cpu_need=0.8)), keep_result=False
        )
        # Total capacity is 2.0 nodes; each accepted job offers 0.8 CPU.
        # The threshold trips once resident load reaches 0.8 (two jobs).
        assert report.submitted == 4
        assert report.accepted == 2
        assert report.rejected == 2
        assert report.completions == 2


class TestMetricsSnapshot:
    def test_snapshot_shape_and_latency(self):
        async def scenario():
            service = _service()
            await service.start(clock=SimulatedClock())
            await service.submit(submit_time=0.0, **JOB)
            await service.drain()
            snapshot = service.metrics_snapshot()
            await service.shutdown()
            return snapshot

        snapshot = asyncio.run(scenario())
        assert snapshot["submitted"] == snapshot["accepted"] == 1
        assert snapshot["completions"] == 1
        assert snapshot["placements"] >= 1
        # The job started the instant it was submitted: zero queue latency.
        assert snapshot["queue_latency"]["p50"] == 0.0
        assert snapshot["queue_latency"]["max"] == 0.0
        assert "bundle" in snapshot
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_bundles_merge_across_services(self):
        from repro.metrics import merge_bundles

        async def scenario():
            service = _service()
            await service.start(clock=SimulatedClock())
            await service.submit(submit_time=0.0, **JOB)
            await service.drain()
            await service.shutdown()
            return service

        first = asyncio.run(scenario())
        second = asyncio.run(scenario())
        merged = merge_bundles([first.metrics.bundle(), second.metrics.bundle()])
        assert merged["completions"].total == 2.0
        assert merged["queue_latency"].count == 2


class TestNodeFailures:
    """A failure kill requeues the job: it is not a preemption, and its
    restart is not a second queue-latency sample."""

    @pytest.mark.parametrize("algorithm", ["fcfs", "greedy-pmtn-migr"])
    def test_replay_counts_engine_preemptions_and_one_latency_per_job(self, algorithm):
        # Node i % 8 is down for 900 s of every 2000 s.
        outages = [(2000.0 * i + d, i % 8, s) for i in range(40) for d, s in ((0, "down"), (900, "up"))]
        service = SchedulerService(
            Cluster(8, 4, 8.0),
            algorithm,
            config=SimulationConfig(node_events=TraceNodeEventSource(events_list=tuple(outages))),
        )
        report = service.replay(
            LublinTraceSource(num_jobs=60, seed=3).transformed(RescaleLoad(target_load=0.9))
        )
        costs, metrics = report.result.costs, service.metrics
        assert costs.failure_job_kills > 0
        assert metrics.preemptions == costs.preemption_count
        assert metrics.queue_latency.count == report.completions == 60
        assert metrics.starts == 60 + costs.failure_job_kills

    def test_killed_job_is_pending_until_it_restarts(self):
        metrics, ledger = ServiceMetrics(), {0: ServiceJobRecord(job_id=0, submit_time=0.0)}
        observer = _ServiceObserver(metrics, ledger)
        spec = JobSpec(0, 0.0, 1, 0.5, 0.2, 100.0)
        states = []
        for kind, time in (("start", 0.0), ("failure-kill", 50.0), ("start", 500.0), ("complete", 600.0)):
            observer.on_event(SimEvent(kind, time, spec, (0,), 1.0))
            states.append(ledger[0].state)
        assert states == ["running", "pending", "running", "completed"]
        assert ledger[0].first_start_time == 0.0
        assert (metrics.starts, metrics.preemptions, metrics.queue_latency.count) == (2, 0, 1)


class TestSocketProtocol:
    @staticmethod
    async def _roundtrip(reader, writer, request):
        writer.write((json.dumps(request) + "\n").encode("utf-8"))
        await writer.drain()
        return json.loads(await reader.readline())

    def test_full_session_over_the_socket(self):
        async def scenario():
            service = _service()
            await service.start(clock=SimulatedClock())
            server = ServiceServer(service, port=0)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            call = self._roundtrip

            replies = {}
            replies["ping"] = await call(reader, writer, {"op": "ping"})
            replies["submit"] = await call(
                reader, writer,
                {"op": "submit", "job": {**JOB, "submit_time": 0.0}},
            )
            replies["drain"] = await call(reader, writer, {"op": "drain"})
            replies["status"] = await call(
                reader, writer, {"op": "status", "job_id": 0}
            )
            replies["metrics"] = await call(reader, writer, {"op": "metrics"})
            # Streamed snapshots: two lines, no waiting between them.
            writer.write(
                (json.dumps(
                    {"op": "stream-metrics", "count": 2, "interval": 0.0}
                ) + "\n").encode("utf-8")
            )
            await writer.drain()
            replies["stream"] = [
                json.loads(await reader.readline()) for _ in range(2)
            ]
            replies["not_object"] = await call(reader, writer, None)  # null line
            replies["unknown_op"] = await call(reader, writer, {"op": "warp"})
            replies["bad_submit"] = await call(
                reader, writer, {"op": "submit", "job": {"num_tasks": 1}}
            )
            replies["cancel_missing"] = await call(
                reader, writer, {"op": "cancel", "job_id": 5}
            )
            replies["shutdown"] = await call(reader, writer, {"op": "shutdown"})
            writer.close()
            await server.serve_until_shutdown()
            await server.close()
            await service.shutdown()
            return replies

        replies = asyncio.run(scenario())
        assert replies["ping"] == {"ok": True, "pong": True}
        assert replies["submit"]["ok"] and replies["submit"]["accepted"]
        assert replies["submit"]["job_id"] == 0
        assert replies["drain"] == {"ok": True, "drained": True}
        assert replies["status"]["state"] == "completed"
        assert replies["metrics"]["metrics"]["completions"] == 1
        assert [line["sequence"] for line in replies["stream"]] == [0, 1]
        assert all(line["ok"] for line in replies["stream"])
        assert not replies["not_object"]["ok"]
        assert "error" in replies["not_object"]
        assert not replies["unknown_op"]["ok"]
        assert "warp" in replies["unknown_op"]["error"]
        assert not replies["bad_submit"]["ok"]
        assert replies["cancel_missing"] == {
            "ok": True, "job_id": 5, "cancelled": False,
        }
        assert replies["shutdown"]["ok"]
        assert replies["shutdown"]["metrics"]["completions"] == 1

    def test_concurrent_clients(self):
        async def scenario():
            service = _service()
            await service.start(clock=SimulatedClock())
            server = ServiceServer(service, port=0)
            host, port = await server.start()

            async def client(job_id):
                reader, writer = await asyncio.open_connection(host, port)
                reply = await self._roundtrip(
                    reader, writer,
                    {"op": "submit",
                     "job": {**JOB, "job_id": job_id, "submit_time": 0.0}},
                )
                writer.close()
                return reply

            replies = await asyncio.gather(*(client(i) for i in range(5)))
            await service.drain()
            await server.close()
            await service.shutdown()
            return replies, service

        replies, service = asyncio.run(scenario())
        assert sorted(reply["job_id"] for reply in replies) == [0, 1, 2, 3, 4]
        assert all(reply["accepted"] for reply in replies)
        assert service.metrics.completions == 5

    def test_address_requires_running_server(self):
        server = ServiceServer(_service())
        with pytest.raises(ReproError, match="not running"):
            server.address
