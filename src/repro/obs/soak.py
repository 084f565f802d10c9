"""Long-haul soak harness for the serving stack.

``repro-dfrs soak`` runs the *whole* serve deployment — live
:class:`~repro.serve.service.SchedulerService`, JSON-lines
:class:`~repro.serve.protocol.ServiceServer` on a real socket, accelerated
:class:`~repro.core.clock.WallClock` — for a configured wall-clock budget,
feeding it a trace paced to the accelerated clock exactly as a live client
would.  While the service runs, a scraper coroutine periodically connects
like any monitoring agent and pulls the ``metrics`` and ``metrics-prom``
ops plus this process's RSS into a JSON-lines health log; at the end the
harness asserts the three health invariants a long-haul deployment must
hold:

* **flat memory** — the least-squares slope of RSS over wall time stays
  under ``max_rss_slope_mb_per_min`` (a leaky recorder or unbounded ledger
  shows up here long before OOM);
* **sustained throughput** — placements per wall second stay above
  ``min_placements_per_sec`` (a degrading scheduler hot loop shows up as a
  sagging rate);
* **bounded backlog** — the instantaneous queue depth never exceeds
  ``max_queue_depth`` (admission plus capacity keep up with offered load).

The result is a :class:`SoakReport`: every sample, every violation, and a
JSON payload (written by ``repro-dfrs soak --bench-json``).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.clock import WallClock
from ..core.cluster import Cluster
from ..core.engine import SimulationConfig
from ..exceptions import ConfigurationError
from ..serve.loadtest import peak_rss_mb
from ..serve.protocol import ServiceServer
from ..serve.service import SchedulerService
from ..traces.source import JobSource

__all__ = ["SoakConfig", "SoakReport", "run_soak"]


def current_rss_mb() -> Optional[float]:
    """Resident set size of this process right now, in MiB.

    Reads ``/proc/self/statm`` (Linux); falls back to the peak-RSS
    high-water mark elsewhere, which degrades the slope check to a
    monotone-but-safe approximation.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        import resource  # local import: POSIX-only, like peak_rss_mb

        page_size = resource.getpagesize()
        return pages * page_size / (1024.0 * 1024.0)
    except (OSError, ValueError, ImportError, IndexError):
        return peak_rss_mb()


def rss_slope_mb_per_min(samples: List[Tuple[float, float]]) -> float:
    """Least-squares slope of ``(wall_seconds, rss_mb)`` samples, MB/minute.

    Fewer than two samples (or zero wall-time variance) slope 0.0 — a soak
    too short to measure is reported flat, not failing.
    """
    n = len(samples)
    if n < 2:
        return 0.0
    mean_t = sum(t for t, _ in samples) / n
    mean_r = sum(r for _, r in samples) / n
    var_t = sum((t - mean_t) ** 2 for t, _ in samples)
    if var_t <= 0.0:
        return 0.0
    cov = sum((t - mean_t) * (r - mean_r) for t, r in samples)
    return cov / var_t * 60.0


@dataclass(frozen=True)
class SoakConfig:
    """Knobs of one soak run; defaults match the CI smoke."""

    #: Simulated seconds per wall second — the soak's time compression.
    acceleration: float = 3600.0
    #: Wall-clock budget; the feeder stops submitting at this point and the
    #: run drains.  The trace ending earlier also ends the run.
    wall_seconds: float = 60.0
    #: Seconds between health scrapes.
    scrape_interval_seconds: float = 2.0
    #: Cap on the post-budget drain (None = wait for every admitted job;
    #: a timed-out drain is reported, not a health violation — long tails
    #: are a property of the trace, not of the serving stack).
    max_drain_seconds: Optional[float] = None
    #: Health invariants (see module docstring).
    max_rss_slope_mb_per_min: float = 30.0
    min_placements_per_sec: float = 1.0
    max_queue_depth: int = 10_000
    #: SLO factor forwarded to the service.
    slo_factor: float = 10.0

    def __post_init__(self) -> None:
        if self.acceleration <= 0.0:
            raise ConfigurationError(
                f"acceleration must be > 0, got {self.acceleration}"
            )
        if self.wall_seconds <= 0.0:
            raise ConfigurationError(
                f"wall_seconds must be > 0, got {self.wall_seconds}"
            )
        if self.scrape_interval_seconds <= 0.0:
            raise ConfigurationError(
                f"scrape_interval_seconds must be > 0, got "
                f"{self.scrape_interval_seconds}"
            )


@dataclass
class SoakReport:
    """Everything one soak run measured."""

    algorithm: str
    workload: str
    nodes: int
    acceleration: float
    wall_seconds: float
    sim_seconds: float
    submitted: int
    accepted: int
    placements: int
    completions: int
    placements_per_wall_sec: float
    #: One dict per scrape: wall/sim time, rss, counters, queue depth.
    samples: List[Dict[str, Any]] = field(default_factory=list)
    #: Human-readable invariant violations; empty == healthy.
    violations: List[str] = field(default_factory=list)
    rss_slope_mb_per_min: float = 0.0
    max_queue_depth_seen: int = 0
    final_rss_mb: Optional[float] = None
    slo_attainment: float = 1.0
    #: Last scraped Prometheus page (proves the metrics-prom op stayed up).
    prometheus: Optional[str] = None
    #: False when the post-budget drain hit ``max_drain_seconds``.
    drained: bool = True

    @property
    def healthy(self) -> bool:
        return not self.violations

    def bench_payload(self) -> Dict[str, Any]:
        """The ``soak --bench-json`` entry."""
        return {
            "benchmark": "serve-soak",
            "algorithm": self.algorithm,
            "workload": self.workload,
            "nodes": self.nodes,
            "acceleration": self.acceleration,
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "jobs_submitted": self.submitted,
            "jobs_accepted": self.accepted,
            "placements": self.placements,
            "completions": self.completions,
            "placements_per_wall_sec": self.placements_per_wall_sec,
            "samples": len(self.samples),
            "rss_slope_mb_per_min": self.rss_slope_mb_per_min,
            "max_queue_depth": self.max_queue_depth_seen,
            "peak_rss_mb": peak_rss_mb(),
            "slo_attainment": self.slo_attainment,
            "drained": self.drained,
            "healthy": self.healthy,
            "violations": list(self.violations),
        }


async def _scrape(
    host: str, port: int, op: str
) -> Dict[str, Any]:
    """One JSON-lines request against the running soak server."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write((json.dumps({"op": op}) + "\n").encode("utf-8"))
        await writer.drain()
        line = await reader.readline()
    finally:
        writer.close()
    reply = json.loads(line.decode("utf-8"))
    assert isinstance(reply, dict)
    if not reply.get("ok"):
        raise ConfigurationError(
            f"soak scrape op {op!r} failed: {reply.get('error')!r}"
        )
    return reply


async def _run_soak_async(
    cluster: Cluster,
    algorithm: str,
    source: JobSource,
    config: SoakConfig,
    engine_config: Optional[SimulationConfig],
    health_log: Optional[str],
    on_sample: Optional[Any],
) -> SoakReport:
    service = SchedulerService(
        cluster,
        algorithm,
        config=engine_config
        or SimulationConfig(streaming_metrics=True),
        slo_factor=config.slo_factor,
    )
    clock = WallClock(config.acceleration)
    specs = iter(source.jobs(cluster))
    try:
        first = next(specs)
    except StopIteration:
        raise ConfigurationError("soak trace is empty") from None
    await service.start(clock=clock, start_time=first.submit_time)
    server = ServiceServer(service, host="127.0.0.1", port=0)
    host, port = await server.start()

    loop = asyncio.get_running_loop()
    deadline = loop.time() + config.wall_seconds
    samples: List[Dict[str, Any]] = []
    rss_series: List[Tuple[float, float]] = []
    log_handle = open(health_log, "w", encoding="utf-8") if health_log else None
    prometheus: Optional[str] = None
    stop_scraping = asyncio.Event()

    async def feeder() -> None:
        spec: Optional[Any] = first
        while spec is not None and loop.time() < deadline:
            delay = clock.wall_seconds_until(spec.submit_time)
            if delay > 0.0:
                # Cap each sleep at the remaining budget so trace gaps past
                # the deadline end the feed instead of overshooting it.
                remaining = deadline - loop.time()
                if remaining <= 0.0:
                    break
                await asyncio.sleep(min(delay, remaining))
                if clock.now() < spec.submit_time:
                    continue
            await service.submit(
                num_tasks=spec.num_tasks,
                cpu_need=spec.cpu_need,
                mem_requirement=spec.mem_requirement,
                execution_time=spec.execution_time,
                job_id=spec.job_id,
                submit_time=max(spec.submit_time, clock.now()),
            )
            spec = next(specs, None)

    async def scraper() -> None:
        nonlocal prometheus
        while not stop_scraping.is_set():
            try:
                await asyncio.wait_for(
                    stop_scraping.wait(),
                    timeout=config.scrape_interval_seconds,
                )
                break
            except asyncio.TimeoutError:
                pass
            metrics = (await _scrape(host, port, "metrics"))["metrics"]
            prom_reply = await _scrape(host, port, "metrics-prom")
            prometheus = prom_reply["prom"]
            wall = service.wall_seconds()
            rss = current_rss_mb()
            sample = {
                "wall_seconds": wall,
                "sim_time": metrics["sim_time"],
                "rss_mb": rss,
                "submitted": metrics["submitted"],
                "accepted": metrics["accepted"],
                "placements": metrics["placements"],
                "completions": metrics["completions"],
                "queue_depth": metrics["queue_depth"],
                "placements_per_wall_sec": metrics["placements_per_wall_sec"],
                "slo_attainment": metrics["slo_attainment"],
                "prom_bytes": len(prometheus),
            }
            samples.append(sample)
            if rss is not None:
                rss_series.append((wall, rss))
            if log_handle is not None:
                log_handle.write(json.dumps(sample, sort_keys=True) + "\n")
                log_handle.flush()
            if on_sample is not None:
                on_sample(sample)

    feed_task = loop.create_task(feeder())
    scrape_task = loop.create_task(scraper())
    drained = True
    try:
        await asyncio.wait_for(
            feed_task, timeout=config.wall_seconds + 60.0
        )
        # Budget reached (or trace exhausted): drain what was admitted so
        # completion counters are meaningful, then stop scraping.
        if config.max_drain_seconds is None:
            await service.drain()
        else:
            try:
                await asyncio.wait_for(
                    service.drain(), timeout=config.max_drain_seconds
                )
            except asyncio.TimeoutError:
                drained = False
    finally:
        stop_scraping.set()
        await scrape_task
        if log_handle is not None:
            log_handle.close()
        await server.close()
    snapshot = service.metrics_snapshot()
    await service.shutdown()

    wall = service.wall_seconds()
    report = SoakReport(
        algorithm=algorithm,
        workload=source.default_name(),
        nodes=cluster.num_nodes,
        acceleration=config.acceleration,
        wall_seconds=wall,
        sim_seconds=float(snapshot["sim_time"]),
        submitted=int(snapshot["submitted"]),
        accepted=int(snapshot["accepted"]),
        placements=int(snapshot["placements"]),
        completions=int(snapshot["completions"]),
        placements_per_wall_sec=(
            float(snapshot["placements"]) / wall if wall > 0.0 else 0.0
        ),
        samples=samples,
        rss_slope_mb_per_min=rss_slope_mb_per_min(rss_series),
        max_queue_depth_seen=max(
            (int(s["queue_depth"]) for s in samples), default=0
        ),
        final_rss_mb=rss_series[-1][1] if rss_series else None,
        slo_attainment=float(snapshot["slo_attainment"]),
        prometheus=prometheus,
        drained=drained,
    )
    _check_invariants(report, config)
    return report


def _check_invariants(report: SoakReport, config: SoakConfig) -> None:
    if report.rss_slope_mb_per_min > config.max_rss_slope_mb_per_min:
        report.violations.append(
            f"rss slope {report.rss_slope_mb_per_min:.2f} MB/min exceeds "
            f"bound {config.max_rss_slope_mb_per_min:.2f}"
        )
    if report.placements_per_wall_sec < config.min_placements_per_sec:
        report.violations.append(
            f"placement rate {report.placements_per_wall_sec:.2f}/s below "
            f"floor {config.min_placements_per_sec:.2f}/s"
        )
    if report.max_queue_depth_seen > config.max_queue_depth:
        report.violations.append(
            f"queue depth peaked at {report.max_queue_depth_seen}, above "
            f"ceiling {config.max_queue_depth}"
        )


def run_soak(
    cluster: Cluster,
    algorithm: str,
    source: JobSource,
    *,
    config: Optional[SoakConfig] = None,
    engine_config: Optional[SimulationConfig] = None,
    health_log: Optional[str] = None,
    on_sample: Optional[Any] = None,
) -> SoakReport:
    """Run one soak (see module docstring) and return its report.

    ``health_log`` appends one JSON line per scrape; ``on_sample`` is an
    optional callback receiving each sample dict as it lands (the CLI's
    progress line).  The caller decides what a non-healthy report means —
    the CI smoke fails on it, exploratory runs just print the violations.
    """
    return asyncio.run(
        _run_soak_async(
            cluster,
            algorithm,
            source,
            config or SoakConfig(),
            engine_config,
            health_log,
            on_sample,
        )
    )
