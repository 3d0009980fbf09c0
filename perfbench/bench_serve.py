"""``serve``: open-loop Poisson traffic against a live one-shard cluster.

One generator thread submits seeded ONT-HG002-shape tasks (cycled in a
seeded order) to ``ClusterService(ClusterConfig(shards=1,
serve=ServeConfig(engine="vector")))`` on a seeded Poisson schedule, at
the three fixed rates of :data:`bench_common.SERVE_RATES`, each against
a freshly started cluster.  A request's latency runs from its *due*
time to its future resolving, so a stalled generator or server charges
the wait to every request behind it.  A closed-loop phase measures the
saturation throughput.  The traced run also searches for the highest
offered rate whose tail latency stays within
:data:`bench_common.SERVE_LIMIT_MS` with no failed request and no
growing backlog.
"""

from __future__ import annotations

import functools
import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.align.types import AlignmentResult, AlignmentTask
from repro.api import (
    ClusterConfig,
    ClusterService,
    RequestRejected,
    ServeConfig,
    ShardFailedError,
    align_tasks,
)
from repro.bench import cache as bench_cache

import bench_common as common
from bench_trace import Tracer

DATASET = "ONT-HG002"
SETUP_REPEATS = 3
#: Tasks sent one at a time through every new cluster before it is
#: measured (one at a time, so the warm-up leaves no burst in the
#: cluster's queue-depth and batch-occupancy telemetry).
WARMUP_TASKS = 4
#: A probe whose completion lag grows faster than this has a backlog.
BACKLOG_MAX_MS_PER_S = 50.0
#: Rate multiplier per step of the capacity search (uncapped).
STEP = 1.15
#: Halvings of the bracket once the search outcome has flipped.
BISECTIONS = 1
#: The untraced run's phases in order, and the share of ``--seconds``
#: each one lasts.  The saturation phase (which carries the gated
#: throughput) and ``mid`` (the headline latency) recur across the whole
#: run, so that a slow stretch of a shared machine weighs on them less.
SCHEDULE = ("mid", "saturate", "low", "mid", "saturate", "high", "mid", "saturate", "mid")
SHARES = {"low": 0.08, "mid": 0.06, "high": 0.08, "saturate": 0.2}
#: Share of ``--seconds`` per rate level in the traced run (plus one
#: untraced ``mid`` level for the overhead).
TRACED_SHARE = 0.2
#: Share of ``--seconds`` per capacity probe.
PROBE_SHARE = 1 / 15
#: Requests kept outstanding by the closed-loop saturation phase.
SATURATION_WINDOW = 64
#: How long after the last send a request may stay unresolved before it
#: counts as a failure.
DRAIN_TIMEOUT_S = 60.0
#: A probe stops sending once one request is this late (it has failed).
ABORT_MS = 4 * common.SERVE_LIMIT_MS


#: Units of the per-level layer metrics (the rest are counts).
LAYER_UNITS = {
    "serve.p50_ms": "ms",
    "serve.tail_ms": "ms",
    "serve.cluster.submit_us.p50": "us",
    "serve.cluster.submit_us.p99": "us",
    "serve.service.wait_ms.p50": "ms",
    "serve.service.wait_ms.p99": "ms",
    "serve.service.latency_ms.p50": "ms",
    "serve.service.latency_ms.p99": "ms",
    "serve.cluster.front_ms.p50": "ms",
    "serve.service.batch_occupancy": "tasks",
    "serve.service.lane_occupancy": "fraction",
    "serve.engine_only_ms": "ms",
    "serve.loadgen.send_lag_ms.p99": "ms",
    "serve.backlog_ms_per_s": "ms/s",
}


def start_cluster(pool: Sequence[AlignmentTask], tracer: Optional[Tracer]) -> ClusterService:
    """Start a cluster and drain a few warm-up requests through it."""
    cluster = ClusterService(
        ClusterConfig(shards=common.SERVE_SHARDS, serve=ServeConfig(engine="vector"))
    )
    with common.span(tracer, "serve.cluster.start"):
        cluster.start()
    with common.span(tracer, "serve.cluster.warmup"):
        for task in pool[:WARMUP_TASKS]:
            cluster.submit(task).result()
    return cluster


@dataclass
class Level:
    """Outcome of one open-loop run at one offered rate."""

    rate: float
    latency_ms: List[float] = field(default_factory=list)
    lag_ms: List[float] = field(default_factory=list)
    submit_us: List[float] = field(default_factory=list)
    failures: Dict[str, int] = field(default_factory=dict)
    sent: int = 0
    aborted: bool = False
    backlog_ms_per_s: float = 0.0
    telemetry: Dict = field(default_factory=dict)
    requests: List[int] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def tail(self):
        return common.tail(self.latency_ms)

    def passes(self) -> bool:
        """Meets the latency limit with no failure and no growing backlog."""
        return (
            not self.aborted
            and self.failed == 0
            and self.tail()[1] <= common.SERVE_LIMIT_MS
            and self.backlog_ms_per_s <= BACKLOG_MAX_MS_PER_S
        )


def open_loop(
    cluster: ClusterService,
    pool: Sequence[AlignmentTask],
    expected: Sequence[AlignmentResult],
    order: Sequence[int],
    rate: float,
    seconds: float,
    rng: random.Random,
    tracer: Optional[Tracer],
    abort: bool = False,
) -> Level:
    """Send one Poisson schedule from one thread, drain, shut down."""
    due: List[float] = []
    t = rng.expovariate(rate)
    while t < seconds:
        due.append(t)
        t += rng.expovariate(rate)
    n = len(due)
    level = Level(rate=rate)
    targets = [0] * n
    done = [0] * n
    futures: List[Optional[object]] = [None] * n
    errors: List[Optional[BaseException]] = [None] * n
    stop = threading.Event()
    parent = tracer.current() if tracer is not None else None

    def on_done(i: int, future) -> None:
        now = time.perf_counter_ns()
        done[i] = now
        if abort and now - targets[i] > ABORT_MS * 1e6:
            stop.set()

    def generate() -> None:
        base = time.perf_counter_ns() + 20_000_000
        for i, offset in enumerate(due):
            if stop.is_set():
                break
            target = base + int(offset * 1e9)
            targets[i] = target
            delay = target - time.perf_counter_ns()
            if delay > 0:
                time.sleep(delay / 1e9)
            sent = time.perf_counter_ns()
            level.lag_ms.append((sent - target) / 1e6)
            task = pool[order[i % len(order)]]
            try:
                if tracer is not None:
                    with tracer.span("serve.cluster.submit", request_id=i):
                        future = cluster.submit(task)
                else:
                    future = cluster.submit(task)
            except Exception as exc:  # counted as a failed request below
                errors[i] = exc
                level.sent = i + 1
                continue
            level.submit_us.append((time.perf_counter_ns() - sent) / 1e3)
            futures[i] = future
            level.sent = i + 1
            future.add_done_callback(functools.partial(on_done, i))

    generator = threading.Thread(target=generate, name="perfbench-loadgen")
    generator.start()
    generator.join()
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    for future in futures:
        if future is not None:
            try:
                future.exception(timeout=max(0.0, deadline - time.monotonic()))
            except Exception:
                break
    unresolved = {i for i, f in enumerate(futures) if f is not None and not f.done()}
    cluster.shutdown(wait=True)
    level.telemetry = cluster.telemetry_summary()
    level.aborted = stop.is_set()

    failures: Dict[str, int] = {}
    points = []
    for i in range(level.sent):
        future = futures[i]
        error = errors[i]
        kind = None
        if i in unresolved:
            kind = "unresolved"
        elif error is None:
            error = future.exception()
        if kind is None and error is not None:
            if isinstance(error, RequestRejected):
                kind = "rejected"
            elif isinstance(error, ShardFailedError):
                kind = "shard_failed"
            else:
                kind = f"error:{type(error).__name__}"
        if kind is None and future.result() != expected[order[i % len(order)]]:
            kind = "mismatch"
        if kind is not None:
            failures[kind] = failures.get(kind, 0) + 1
            level.latency_ms.append(math.inf)
            continue
        latency = (done[i] - targets[i]) / 1e6
        level.latency_ms.append(latency)
        points.append((due[i], latency))
        if tracer is not None:
            tracer.record("serve.request", targets[i], done[i], parent, request_id=i)
    level.failures = failures
    if len(points) >= 2:
        x, y = np.array(points).T
        level.backlog_ms_per_s = float(np.polyfit(x, y, 1)[0])
    level.requests = [order[i % len(order)] for i in range(level.sent)]
    return level


def run(result: common.Result, seconds: float, tracer: Optional[Tracer]) -> None:
    spec = common.seeded_spec(DATASET, result.seed)
    setups: List[float] = []
    setup_host = common.HostSpeed()
    cluster = None
    for _ in range(SETUP_REPEATS):
        if cluster is not None:
            cluster.shutdown(wait=True)
        start = time.perf_counter()
        with common.span(tracer, "bench.setup"):
            pool = bench_cache.build_workload(spec)
            cluster = start_cluster(pool, tracer)
        setups.append(time.perf_counter() - start)
        setup_host.sample()

    expected = align_tasks(pool, engine="vector")
    rng = random.Random(f"serve-{result.seed}")
    order = list(range(len(pool)))
    rng.shuffle(order)
    mean_cells = sum(r.cells_computed for r in expected) / len(expected)

    if tracer is None:
        host = common.HostSpeed()
        levels, saturation = _interleaved(result, cluster, pool, expected, order, seconds, host)
        result.metric("serve_saturation_rps", saturation, "req/s")
        rate = saturation * mean_cells / 1e6
        common.report_speed(result, setup_host, host, common.median(setups), rate)
    else:
        levels = _traced(result, tracer, cluster, pool, expected, order, seconds)
        result.metric("setup_wall_s", common.median(setups), "s")

    for name, level in levels.items():
        label, value, n = level.tail()
        result.metric(f"serve_p50_ms.{name}", common.median(level.latency_ms), "ms")
        result.metric(f"serve_tail_ms.{name}", value, "ms")
        result.notes[f"serve_tail_ms.{name}"] = f"{label} of {n} requests"

    result.metric("peak_rss_mb", common.peak_rss_mb(), "MB")
    result.notes["workload"] = (
        f"{DATASET} seed {result.seed}: {len(pool)} tasks, "
        f"{mean_cells:.0f} DP cells per request"
    )


def _traced(result, tracer: Tracer, cluster, pool, expected, order, seconds: float):
    """The traced schedule: each rate level once, traced; the ``mid``
    level again untraced for the overhead; then, untraced, the capacity
    search (too noisy on a shared 2-core box to gate, so it is reported
    here as a per-layer figure)."""
    levels: Dict[str, Level] = {}
    for name, rate in common.SERVE_RATES.items():
        with tracer.span(f"serve.level.{name}"):
            levels[name] = open_loop(
                cluster or start_cluster(pool, None), pool, expected, order, rate,
                seconds * TRACED_SHARE, random.Random(f"serve-{result.seed}-{name}"), tracer,
            )
        cluster = None
        _count(result, levels[name], name)
    _layers(result, tracer, levels, pool)

    tracer.enabled = False
    untraced = open_loop(
        start_cluster(pool, None), pool, expected, order, common.SERVE_RATES["mid"],
        seconds * TRACED_SHARE, random.Random(f"serve-{result.seed}-mid"), None,
    )
    _count(result, untraced, "mid-untraced")
    result.metric(
        "trace.overhead_frac",
        common.median(levels["mid"].latency_ms) / common.median(untraced.latency_ms) - 1.0,
        "fraction",
    )
    completed, span_s = saturate(pool, expected, order, seconds * SHARES["saturate"], result)
    max_rps, probes = _capacity(
        result, pool, expected, order, 0.9 * completed / span_s, seconds * PROBE_SHARE
    )
    tracer.enabled = True
    result.metric("serve.max_rps", max_rps, "req/s")
    result.notes["capacity probes (rps, pass)"] = probes
    return levels


def _interleaved(result, cluster, pool, expected, order, seconds: float, host):
    """The untraced schedule: rate levels and saturation phases in turn,
    each level's latencies and the saturation counts pooled over their
    segments, with the host's reference job between phases (when no
    cluster runs)."""
    segments: Dict[str, List[Level]] = {name: [] for name in common.SERVE_RATES}
    completed, counted_s, measured_s = 0, 0.0, 0.0
    for index, phase in enumerate(SCHEDULE):
        measured_s += seconds * SHARES[phase]
        if phase == "saturate":
            count, span_s = saturate(pool, expected, order, seconds * SHARES[phase], result)
            completed += count
            counted_s += span_s
        else:
            level = open_loop(
                cluster or start_cluster(pool, None), pool, expected, order,
                common.SERVE_RATES[phase], seconds * SHARES[phase],
                random.Random(f"serve-{result.seed}-{phase}-{index}"), None,
            )
            cluster = None
            _count(result, level, phase)
            segments[phase].append(level)
        host.keep_up(measured_s)
    levels = {
        name: Level(
            rate=common.SERVE_RATES[name],
            latency_ms=[x for level in group for x in level.latency_ms],
        )
        for name, group in segments.items()
    }
    return levels, completed / counted_s


def _count(result: common.Result, level: Level, name: str) -> None:
    """Every sent request is one checked operation."""
    for kind, count in level.failures.items():
        for _ in range(count):
            result.check(False, f"{name} @ {level.rate:g} rps: {kind}")
    for _ in range(level.sent - level.failed):
        result.check(True, "")


def saturate(
    pool: Sequence[AlignmentTask],
    expected: Sequence[AlignmentResult],
    order: Sequence[int],
    seconds: float,
    result: common.Result,
) -> Tuple[int, float]:
    """Closed-loop saturation phase on a fresh cluster.

    Keeps :data:`SATURATION_WINDOW` requests outstanding for ``seconds``
    and returns the completions counted after the first fifth of the
    window, with the length of the counted stretch in seconds.
    """
    cluster = start_cluster(pool, None)
    slots = threading.Semaphore(SATURATION_WINDOW)
    finished: List[int] = []

    def on_done(future) -> None:
        finished.append(time.perf_counter_ns())
        slots.release()

    futures = []
    start = time.perf_counter_ns()
    end = start + int(seconds * 1e9)
    while time.perf_counter_ns() < end:
        slots.acquire()
        future = cluster.submit(pool[order[len(futures) % len(order)]])
        futures.append(future)
        future.add_done_callback(on_done)
    cluster.shutdown(wait=True)
    for i, future in enumerate(futures):
        ok = future.exception() is None and future.result() == expected[order[i % len(order)]]
        result.check(ok, f"saturation request {i}: wrong or failed result")
    counted_from = start + (end - start) // 5
    counted = sum(1 for t in finished if counted_from <= t < end)
    return counted, (end - counted_from) / 1e9


def _capacity(result, pool, expected, order, start_rate: float, probe_s: float):
    """Highest passing Poisson rate, searched without an upper cap.

    Steps by :data:`STEP` from ``start_rate`` (up while probes pass,
    down while they fail) until the outcome flips, then bisects the
    bracket :data:`BISECTIONS` times.
    """
    probes = []

    def probe(rate: float) -> bool:
        level = open_loop(
            start_cluster(pool, None), pool, expected, order, rate, probe_s,
            random.Random(f"probe-{result.seed}-{rate:.3f}"), None, abort=True,
        )
        _count(result, level, "probe")
        ok = level.passes()
        probes.append((round(rate, 1), ok))
        return ok

    going_up = probe(start_rate)
    lo, hi = (start_rate, None) if going_up else (0.0, start_rate)
    rate = start_rate
    while hi is None or lo == 0.0:
        rate = rate * STEP if going_up else rate / STEP
        if rate < 1.0:
            return 0.0, probes
        if probe(rate):
            lo = rate
        else:
            hi = rate
    for _ in range(BISECTIONS):
        mid = (lo + hi) / 2
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return lo, probes


def _layers(result, tracer: Tracer, levels: Dict[str, Level], pool) -> None:
    """Per-layer figures, one set per rate level."""
    setups = [s for s in tracer.spans if s.name == "bench.setup"]
    starts = tracer.select("serve.cluster", setups)
    result.metric(
        "serve.cluster.start_s", sum(s.duration_s for s in starts) / len(setups), "s"
    )
    for name, level in levels.items():
        tel = level.telemetry
        submit = sorted(level.submit_us)
        client_p50 = common.median(level.latency_ms)
        engine_ms = _engine_only_ms(pool, level.requests)
        admission = tel.get("admission", {})
        values = {
            "serve.p50_ms": client_p50,
            "serve.tail_ms": level.tail()[1],
            "serve.cluster.submit_us.p50": common.nearest_rank(submit, 50),
            "serve.cluster.submit_us.p99": common.nearest_rank(submit, 99),
            "serve.service.wait_ms.p50": tel["wait_ms"]["p50_ms"],
            "serve.service.wait_ms.p99": tel["wait_ms"]["p99_ms"],
            "serve.service.latency_ms.p50": tel["latency_ms"]["p50_ms"],
            "serve.service.latency_ms.p99": tel["latency_ms"]["p99_ms"],
            "serve.cluster.front_ms.p50": client_p50 - tel["latency_ms"]["p50_ms"],
            "serve.service.batch_occupancy": tel["mean_batch_occupancy"],
            "serve.service.lane_occupancy": tel["lane_occupancy"]["mean"],
            "serve.cluster.queue_depth_max": tel["queue_depth"]["max"],
            "serve.engine_only_ms": engine_ms,
            "serve.loadgen.send_lag_ms.p99": common.nearest_rank(sorted(level.lag_ms), 99),
            "serve.backlog_ms_per_s": level.backlog_ms_per_s,
            "serve.requests": level.sent,
            "serve.failed": level.failed,
            "serve.rejected": admission.get("rejected", 0),
            "serve.shed": admission.get("shed", 0),
            "serve.crashes": tel.get("faults", {}).get("crashes", 0),
        }
        for metric, value in values.items():
            result.metric(f"{metric}.{name}", value, LAYER_UNITS.get(metric, "count"))


def _engine_only_ms(pool, requests: Sequence[int]) -> float:
    """Engine time per request for the level's request sequence, cut
    into ``max_batch_size`` batches and aligned directly."""
    size = ServeConfig(engine="vector").max_batch_size
    start = time.perf_counter()
    for offset in range(0, len(requests), size):
        align_tasks([pool[i] for i in requests[offset:offset + size]], engine="vector")
    return (time.perf_counter() - start) * 1000.0 / max(len(requests), 1)
