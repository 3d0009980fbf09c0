"""``figure``: one cold reproduction of the ONT-HG002 cells of Figure 8.

One operation is a fresh ``Session`` over the seeded ONT-HG002 workload,
loaded from the benchmark's workload cache (so no alignment profile
survives from an earlier operation), followed by ``compare("mm2")`` and
``compare("diff")``.  Set-up builds the workload and fills the cache.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

from repro.api import Session
from repro.baselines.aligner import CpuAligner
from repro.bench import cache as bench_cache
from repro.bench.cache import WorkloadCache

import bench_common as common
from bench_layers import figure_kernels, kernel_key
from bench_trace import Tracer

DATASET = "ONT-HG002"
SETUP_REPEATS = 3


def _baseline_cells() -> Dict[str, Dict[str, float]]:
    """The ONT-HG002 cells of the recorded figure baseline."""
    with open(common.ROOT / "benchmarks" / "baseline.json", encoding="utf-8") as fh:
        suites = json.load(fh)["suites"]
    out: Dict[str, Dict[str, float]] = {}
    for suite in ("mm2", "diff"):
        cells = {"CPU": suites[suite]["cpu_time_ms"][DATASET]}
        for kernel, by_dataset in suites[suite]["speedups"].items():
            cells[kernel] = by_dataset[DATASET]
        out[suite] = cells
    return out


def run(result: common.Result, seconds: float, tracer: Optional[Tracer]) -> None:
    spec = common.seeded_spec(DATASET, result.seed)
    cache_dir = str(common.OUT_DIR / "cache")

    setups: List[float] = []
    setup_host = common.HostSpeed()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with common.span(tracer, "bench.setup"):
            WorkloadCache(cache_dir).store(spec, bench_cache.build_workload(spec))
        setups.append(time.perf_counter() - start)
        setup_host.sample()

    reference = None
    cells = 0

    def one_run(span_tracer: Optional[Tracer]) -> None:
        nonlocal reference, cells
        with common.span(span_tracer, "figure.run"):
            session = Session(dataset=spec, cache_dir=cache_dir)
            mm2 = session.compare("mm2")
            diff = session.compare("diff")
        outcome = {"mm2": mm2.to_dict(), "diff": diff.to_dict()}
        if reference is None:
            reference = outcome
            cells = int(CpuAligner().total_cells(session.workload()))
        result.check(outcome == reference, "figure outcome differs from the first run")

    host = common.HostSpeed() if tracer is None else None
    if tracer is None:
        walls = common.timed_loop(seconds, lambda: one_run(None), host)
    else:
        tracer.enabled = False
        walls = common.timed_loop(seconds / 2, lambda: one_run(None))
        tracer.enabled = True
        common.timed_loop(seconds / 2, lambda: one_run(tracer))

    if result.seed == common.DEFAULT_SEED:
        _check_baseline(result, reference)

    figure_s = common.median(walls)
    label, tail_s, n = common.tail(walls)
    # Over every run's time, not one median run: a run takes ~10 s, so a
    # median of three would rest on one 10-s stretch of a drifting CPU.
    rate = cells * len(walls) / sum(walls) / 1e6
    common.report_speed(result, setup_host, host, common.median(setups), rate)
    result.metric("peak_rss_mb", common.peak_rss_mb(), "MB")
    result.metric("figure_s", figure_s, "s")
    result.metric("figure_tail_s", tail_s, "s")
    result.notes["figure_tail_s"] = f"{label} of {n} figure runs"
    result.notes["workload"] = f"{DATASET} seed {result.seed}: {cells} DP cells"
    agatha = reference["mm2"]["AGAThA"]["speedup_vs_cpu"]
    result.notes["AGAThA speedup_vs_cpu (mm2)"] = agatha
    if tracer is not None:
        _layers(result, tracer, figure_s)


def _check_baseline(result: common.Result, outcome: Dict) -> None:
    for suite, cells in _baseline_cells().items():
        for kernel, expected in cells.items():
            got = outcome[suite][kernel][
                "time_ms" if kernel == "CPU" else "speedup_vs_cpu"
            ]
            result.check(
                got == expected,
                f"{suite}/{kernel}: {got!r} != baseline {expected!r}",
            )


def _layers(result: common.Result, tracer: Tracer, untraced_s: float) -> None:
    """Per-layer figures of the traced runs, per figure run."""
    runs = [s for s in tracer.spans if s.name == "figure.run"]
    per_run = 1.0 / len(runs)
    self_ns = tracer.self_ns()

    def self_s(prefix: str) -> float:
        return sum(self_ns[s.id] for s in tracer.select(prefix, runs)) / 1e9 * per_run

    def total_s(prefix: str) -> float:
        spans = tracer.outermost(tracer.select(prefix, runs))
        return sum(s.duration_s for s in spans) * per_run

    def calls(prefix: str) -> float:
        return len(tracer.select(prefix, runs)) * per_run

    result.metric("api.session_self_s", self_s("api.Session"), "s")
    result.metric("baselines.cpu_anchor_self_s", self_s("baselines.cpu_anchor"), "s")
    result.metric("align.scalar_profile_s", total_s("align.scalar_profile"), "s")
    result.metric("align.scalar_profile_calls", calls("align.scalar_profile"), "count")
    result.metric("align.prime_s", total_s("align.prime"), "s")
    result.metric("align.prime_calls", calls("align.prime"), "count")
    result.metric(
        "align.prime_tasks",
        sum(s.args["tasks"] for s in tracer.select("align.prime", runs)) * per_run,
        "count",
    )
    result.metric("kernels.simulate_self_s", self_s("kernels.simulate"), "s")
    for key in sorted({kernel_key(k) for k in figure_kernels()}):
        result.metric(f"kernels.simulate_self_s.{key}", self_s(f"kernels.simulate.{key}"), "s")
    result.metric("gpusim.execute_s", total_s("gpusim.execute"), "s")
    run_s = sum(s.duration_s for s in runs) * per_run
    result.metric("figure.run_s", run_s, "s")
    result.metric("figure.unaccounted_s", sum(self_ns[s.id] for s in runs) / 1e9 * per_run, "s")
    result.metric("trace.overhead_frac", run_s / untraced_s - 1.0, "fraction")
