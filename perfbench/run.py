"""Benchmark entry point: ``python3 perfbench/run.py --workload <name>``.

Runs one workload (``figure``, ``align`` or ``serve``; see README.md)
against the checkout this file sits in, prints every metric by name with
its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or
its per-layer metrics (``--trace 1``; the traced run also writes a
Chrome trace to ``.perfbench/traces/``).  The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("figure", "align", "serve")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Benchmark the checkout's own sources, never an installed copy.
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2

    import bench_common as common
    import bench_layers
    from bench_trace import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    result = common.Result(args.workload, args.seed, bool(args.trace))
    tracer = None
    if args.trace:
        tracer = Tracer()
        bench_layers.install(tracer)
    module = importlib.import_module(f"bench_{args.workload}")
    started = time.perf_counter()
    try:
        module.run(result, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    result.notes["run_s"] = round(time.perf_counter() - started, 3)
    result.env = common.environment()
    if tracer is not None:
        bench_layers.setup_metrics(result, tracer)
        path = common.OUT_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.write_chrome(path)
        result.notes["trace"] = f"{path.relative_to(ROOT)} ({len(tracer.spans)} spans)"
        # A layer the workload never calls reads 0 (no calls, no time).
        for name, unit in units.items():
            if name not in result.metrics:
                result.metric(name, 0.0, unit)
    result.emit(units)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
