"""Shared pieces of the benchmark: seeded workloads, statistics, records.

Every workload derives its inputs from the benchmark ``--seed`` through
:func:`seeded_spec`.  Seed 0 (the default) is the dataset registry
itself, so the ``figure`` workload can be checked against the recorded
``benchmarks/baseline.json``.  Any other seed draws a new dataset of the
same technology shape and cuts it to the DP-cell budget of the seed-0
dataset, so that every seed asks for the same amount of work and the
figures compare across seeds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.align.scoring import ScoringScheme
from repro.align.types import AlignmentTask
from repro.api import align_tasks
from repro.bench import cache as bench_cache
from repro.io.datasets import DatasetSpec, get_dataset_spec

#: Checkout root (the parent of this benchmark's directory).
ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes lives here (workload cache, traces, records).
OUT_DIR = ROOT / ".perfbench"

#: The seed whose workloads are the dataset registry's own.
DEFAULT_SEED = 0

#: In-band DP cells of each registry dataset at seed 0 (Z-drop applied),
#: the work budget every other seed's dataset is cut to.
CELL_BUDGETS = {
    "ONT-HG002": 3_010_210,
    "CLR-HG002": 2_156_832,
    "HiFi-HG005": 5_825_979,
}

#: Tasks aligned per step while counting cells towards a budget.
CUT_CHUNK = 64

#: The ``serve`` workload's cluster size and its fixed offered rates
#: (req/s): about 1/5, 2/5 and 3/5 of its capacity (480-600 req/s on a
#: shared 2-core x86-64 VM).
SERVE_SHARDS = 1
SERVE_RATES = {"low": 100.0, "mid": 200.0, "high": 300.0}
#: Latency limit on the tail percentile of the ``serve`` workload.
SERVE_LIMIT_MS = 250.0


@dataclasses.dataclass(frozen=True)
class BudgetedDataset:
    """A seeded dataset cut to a fixed DP-cell budget.

    Implements the structural workload hooks of :mod:`repro.bench.cache`
    (``name``, ``scoring``, ``build_tasks``), so sessions and the
    workload cache treat it like any registered workload.  The read set
    is drawn with ``base``'s shape, doubled until it holds the budget,
    and the task list is cut at the shortest prefix whose cells (counted
    with the ``vector`` engine) reach ``cell_budget``.
    """

    name: str
    scoring: ScoringScheme
    base: DatasetSpec
    cell_budget: int

    def build_tasks(self) -> Tuple[AlignmentTask, ...]:
        spec = self.base
        while True:
            tasks = bench_cache.build_workload(spec)
            total = 0
            for start in range(0, len(tasks), CUT_CHUNK):
                chunk = align_tasks(tasks[start:start + CUT_CHUNK], engine="vector")
                for offset, outcome in enumerate(chunk):
                    total += outcome.cells_computed
                    if total >= self.cell_budget:
                        return tuple(tasks[:start + offset + 1])
            spec = dataclasses.replace(spec, num_reads=2 * spec.num_reads)


def seeded_spec(name: str, seed: int):
    """The workload spec of registry dataset ``name`` under ``seed``."""
    base = get_dataset_spec(name)
    if seed == DEFAULT_SEED:
        return base
    drawn = dataclasses.replace(
        base, seed=base.seed + 7919 * seed, num_reads=2 * base.num_reads
    )
    return BudgetedDataset(
        name=name, scoring=base.scoring, base=drawn, cell_budget=CELL_BUDGETS[name]
    )


def span(tracer, name: str, **args):
    """A tracer span, or a no-op context when the run is untraced."""
    return tracer.span(name, **args) if tracer is not None else contextlib.nullcontext()


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile of sorted values (nearest-rank)."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: Sequence[float]) -> Tuple[str, float, int]:
    """The highest percentile (at most p99) with >= 10 samples beyond it.

    Returns ``(label, value, n)``.  With fewer than 11 samples no
    percentile qualifies and the maximum is reported (label ``"max"``).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return "max", ordered[-1], n
    rank = min(math.ceil(0.99 * n), n - 10)
    return f"p{100.0 * rank / n:.3g}", ordered[rank - 1], n


def timed_loop(seconds: float, operation, host: "HostSpeed | None" = None) -> List[float]:
    """Run ``operation`` until its runs have taken ``seconds`` (finishing
    the run in progress, and running at least once); its wall times.
    With ``host``, the reference job is interleaved between the runs."""
    walls: List[float] = []
    while not walls or sum(walls) < seconds:
        start = time.perf_counter()
        operation()
        walls.append(time.perf_counter() - start)
        if host is not None:
            host.keep_up(sum(walls))
    return walls


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: Wall time of one reference job at the speed every gated time is
#: stated at.
REFERENCE_JOB_S = 0.1
#: Share of a run's measured time spent re-running the reference job.
REFERENCE_SHARE = 0.08
#: Reference jobs after each set-up, which is too short for a share.
SETUP_REFERENCE_JOBS = 2


def reference_job() -> float:
    """Fixed work that runs no program code; its wall time in seconds.

    An interpreted loop and NumPy calls on small arrays, in about equal
    parts: the work the interpreter does for every workload.  (A sweep
    over a large array, tried as a third part, followed the workloads'
    speed less closely than these two.)
    """
    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i % 7
    small = np.arange(64, dtype=np.int32)
    for i in range(12_000):
        total += int(np.maximum(small + i, small >> 1).max())
    return time.perf_counter() - start


class HostSpeed:
    """How much slower than the reference speed the host runs now.

    The benchmark shares a host whose CPU speed moves by up to 1.8x between
    minutes, for every workload at once.  The reference job runs between
    the measured operations, for :data:`REFERENCE_SHARE` of their time, so
    its samples span the same minutes; the gated times are divided by
    :attr:`slowdown` (rates multiplied), which cancels the host's speed
    and keeps the program's.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def keep_up(self, measured_s: float) -> None:
        """Run the reference job until its samples add up to the share of
        ``measured_s`` (at least once)."""
        while not self.samples or sum(self.samples) < REFERENCE_SHARE * measured_s:
            self.samples.append(reference_job())

    def sample(self) -> None:
        """Run the reference job :data:`SETUP_REFERENCE_JOBS` times."""
        self.samples.extend(reference_job() for _ in range(SETUP_REFERENCE_JOBS))

    @property
    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / REFERENCE_JOB_S


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def report_speed(
    result: "Result",
    setup_host: HostSpeed,
    host: "HostSpeed | None",
    setup_s: float,
    mcells_per_s: float,
) -> None:
    """``setup_s`` and ``mcells_per_s`` as measured and, with ``host``
    (untraced runs), at the reference speed: the gated figures.  Set-up
    is scaled by the reference jobs run between the set-ups, the rate by
    those run between the measured operations."""
    result.metric("setup_wall_s", setup_s, "s")
    result.metric("mcells_per_wall_s", mcells_per_s, "Mcells/s")
    if host is None:
        return
    result.metric("setup_s", setup_s / setup_host.slowdown, "s")
    result.metric("mcells_per_s", mcells_per_s * host.slowdown, "Mcells/s")
    result.metric("host_slowdown.setup", setup_host.slowdown, "x")
    result.metric("host_slowdown", host.slowdown, "x")
    result.notes["host_slowdown"] = (
        f"mean of {len(host.samples)} reference jobs (set-up: "
        f"{len(setup_host.samples)}) / {REFERENCE_JOB_S} s"
    )


# ----------------------------------------------------------------------
# run environment and result output
# ----------------------------------------------------------------------
def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "serve_shards": SERVE_SHARDS,
        "serve_rates_rps": SERVE_RATES,
    }


class Result:
    """What one run measured: metrics, check outcomes and annotations."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.notes: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.env: Dict[str, object] = {}

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; a false ``ok`` is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def emit(self, units: Dict[str, str]) -> None:
        """Print the human report, save the record, print the result line
        with the metrics named in ``units`` (name -> declared unit)."""
        for name, (value, unit) in self.metrics.items():
            print(f"{name:44s} {value:14.6g} {unit}")
        for name, value in self.notes.items():
            print(f"# {name}: {value}")
        print(f"# error_rate: {self.failed / max(self.attempted, 1):.6g} "
              f"({self.failed} of {self.attempted} operations failed)")
        for error in self.errors:
            print(f"# FAILED: {error}")
        print(f"# env: {json.dumps(self.env, sort_keys=True)}")
        missing = [n for n in units if n not in self.metrics]
        wrong = [n for n, u in units.items() if n in self.metrics and self.metrics[n][1] != u]
        if missing or wrong:
            raise RuntimeError(f"no value for {missing}; unit differs for {wrong}")
        line = {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                n: {"value": _finite(self.metrics[n][0]), "unit": u}
                for n, u in units.items()
            },
        }
        record = dict(line, workload=self.workload, seed=self.seed,
                      trace=self.trace, env=self.env, notes=self.notes,
                      all_metrics={k: v[0] for k, v in self.metrics.items()})
        path = OUT_DIR / "results" / f"{self.workload}-seed{self.seed}-trace{int(self.trace)}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
        print(json.dumps(line))


def _finite(value: float):
    """``value``, or ``None`` for the infinite latency of a failed request
    (JSON has no infinity)."""
    return value if math.isfinite(value) else None
