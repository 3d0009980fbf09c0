"""``align``: the ``vector`` engine over whole datasets (offline alignment).

One operation is a pass over the representative trio -- HiFi-HG005,
CLR-HG002 and ONT-HG002 shapes -- with one
``Session(dataset=..., engine="vector").align()`` call per dataset, each
call taking the whole dataset.  Sessions are fresh per pass and
load their tasks from the workload cache before the timer starts.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional

from repro.align.reference import reference_align
from repro.api import Session
from repro.bench import cache as bench_cache
from repro.bench.cache import WorkloadCache

import bench_common as common
from bench_trace import Tracer

DATASETS = ("HiFi-HG005", "CLR-HG002", "ONT-HG002")
SETUP_REPEATS = 3
#: Tasks per dataset checked against the scalar oracle, outside the timer.
ORACLE_SAMPLE = 3


def run(result: common.Result, seconds: float, tracer: Optional[Tracer]) -> None:
    specs = [common.seeded_spec(name, result.seed) for name in DATASETS]
    cache_dir = str(common.OUT_DIR / "cache")

    setups: List[float] = []
    setup_host = common.HostSpeed()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with common.span(tracer, "bench.setup"):
            for spec in specs:
                WorkloadCache(cache_dir).store(spec, bench_cache.build_workload(spec))
        setups.append(time.perf_counter() - start)
        setup_host.sample()

    reference = None
    cells = 0

    def one_pass(span_tracer: Optional[Tracer]) -> float:
        nonlocal reference, cells
        sessions = [
            Session(dataset=spec, cache_dir=cache_dir, engine="vector") for spec in specs
        ]
        for session in sessions:
            session.workload()
        start = time.perf_counter()
        with common.span(span_tracer, "align.pass"):
            outcomes = [session.align().results for session in sessions]
        wall = time.perf_counter() - start
        if reference is None:
            reference = outcomes
            cells = sum(r.cells_computed for results in outcomes for r in results)
        result.check(outcomes == reference, "align results differ from the first pass")
        return wall

    passes: List[float] = []
    host = common.HostSpeed() if tracer is None else None
    if tracer is not None:
        tracer.enabled = False
    common.timed_loop(
        seconds / 2 if tracer is not None else seconds,
        lambda: passes.append(one_pass(None)),
        host,
    )
    if tracer is not None:
        tracer.enabled = True
        common.timed_loop(seconds / 2, lambda: one_pass(tracer))
        tracer.enabled = False

    # Read before the oracle check: the scalar oracle keeps a whole DP
    # table, so on a seed that samples a long task it would set the peak.
    result.metric("peak_rss_mb", common.peak_rss_mb(), "MB")
    _check_oracle(result, specs, cache_dir, reference)

    pass_s = common.median(passes)
    label, tail_s, n = common.tail(passes)
    rate = cells * len(passes) / sum(passes) / 1e6
    common.report_speed(result, setup_host, host, common.median(setups), rate)
    result.metric("align_mcells_per_s", rate, "Mcells/s")
    result.metric("align_pass_ms", pass_s * 1000.0, "ms")
    result.metric("align_pass_tail_ms", tail_s * 1000.0, "ms")
    result.notes["align_pass_tail_ms"] = f"{label} of {n} passes"
    tasks = sum(len(r) for r in reference)
    result.notes["workload"] = f"{'+'.join(DATASETS)} seed {result.seed}: {tasks} tasks, {cells} DP cells"
    if tracer is not None:
        _layers(result, tracer, reference, pass_s)


def _check_oracle(result, specs, cache_dir, reference) -> None:
    """A seeded sample of tasks per dataset against the scalar oracle."""
    rng = random.Random(result.seed)
    for spec, results in zip(specs, reference):
        tasks = WorkloadCache(cache_dir).tasks(spec)
        for index in rng.sample(range(len(tasks)), ORACLE_SAMPLE):
            task = tasks[index]
            expected = reference_align(task.ref, task.query, task.scoring)
            result.check(
                results[index] == expected,
                f"{spec.name} task {index}: vector {results[index]} != oracle {expected}",
            )


def _layers(result, tracer: Tracer, reference, untraced_s: float) -> None:
    passes = [s for s in tracer.spans if s.name == "align.pass"]
    per_pass = 1.0 / len(passes)
    self_ns = tracer.self_ns()
    engine = tracer.select("align.engine", passes)
    flat = [r for results in reference for r in results]
    result.metric(
        "api.session_self_s",
        sum(self_ns[s.id] for s in tracer.select("api.Session", passes)) / 1e9 * per_pass,
        "s",
    )
    result.metric("align.engine_s", sum(s.duration_s for s in engine) * per_pass, "s")
    result.metric("align.engine_calls", len(engine) * per_pass, "count")
    result.metric("align.tasks", len(flat), "count")
    result.metric("align.cells", sum(r.cells_computed for r in flat), "count")
    result.metric("align.antidiagonals", sum(r.antidiagonals_processed for r in flat), "count")
    result.metric("align.terminated_frac", sum(r.terminated for r in flat) / len(flat), "fraction")
    pass_s = sum(s.duration_s for s in passes) * per_pass
    result.metric("trace.overhead_frac", pass_s / untraced_s - 1.0, "fraction")
