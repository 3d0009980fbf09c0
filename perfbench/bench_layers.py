"""The runtime wrappers of the traced run: one span per call into a layer.

Each wrapper patches a public callable at the name where the program
looks it up, so the calls the program makes itself are the ones seen:

=========================  ==================================================
span                       callable
=========================  ==================================================
``bench.build_workload``   ``repro.bench.cache.build_workload``
``api.Session.compare``    ``repro.api.session.Session.compare``
``api.Session.align``      ``repro.api.session.Session.align``
``align.engine``           ``repro.api.session.align_tasks``
``baselines.cpu_anchor``   ``repro.baselines.aligner.CpuAligner.time_ms``
``align.scalar_profile``   ``antidiagonal_align`` in ``repro.align.antidiagonal``
                           and in every module that bound it at import
``align.prime``            the callable ``KernelConfig.scoring_align`` returns
``kernels.simulate.<k>``   ``simulate`` of each kernel class of the ``mm2`` and
                           ``diff`` suites, named ``<name>.<target>``
``gpusim.execute``         ``repro.gpusim.executor.GpuExecutor.execute``
=========================  ==================================================

The ``serve`` spans (submit, request lifetime, cluster start) are
recorded by the load generator itself, around its own calls.
"""

from __future__ import annotations

import sys
from typing import Any, List

from bench_trace import Tracer


def _tasks(tasks: Any, *args: Any, **kwargs: Any) -> dict:
    return {"tasks": len(tasks)}


def _method_tasks(owner: Any, tasks: Any, *args: Any, **kwargs: Any) -> dict:
    return _tasks(tasks)


def _kernel_span(kernel: Any, *args: Any) -> str:
    return f"kernels.simulate.{kernel_key(kernel)}"


def kernel_key(kernel: Any) -> str:
    return f"{kernel.name}.{kernel.target}"


def figure_kernels() -> List[Any]:
    """The kernel instances of the two suites a figure run compares."""
    from repro.api.suites import build_suite

    return [k for suite in ("mm2", "diff") for k in build_suite(suite).values()]


def install(tracer: Tracer) -> None:
    """Wrap every layer callable of the table above."""
    import repro.align.antidiagonal
    import repro.api.session
    import repro.bench.cache
    from repro.baselines.aligner import CpuAligner
    from repro.gpusim.executor import GpuExecutor
    from repro.kernels.base import KernelConfig

    tracer.wrap(repro.bench.cache, "build_workload", "bench.build_workload")
    session = repro.api.session.Session
    tracer.wrap(session, "compare", "api.Session.compare")
    tracer.wrap(session, "align", "api.Session.align")
    tracer.wrap(repro.api.session, "align_tasks", "align.engine", count=_tasks)
    tracer.wrap(CpuAligner, "time_ms", "baselines.cpu_anchor", count=_method_tasks)
    scalar = repro.align.antidiagonal.antidiagonal_align
    for module in list(sys.modules.values()):
        if (
            getattr(module, "__name__", "").startswith("repro.")
            and getattr(module, "antidiagonal_align", None) is scalar
        ):
            tracer.wrap(module, "antidiagonal_align", "align.scalar_profile")

    original_scoring_align = KernelConfig.scoring_align

    def scoring_align(config: KernelConfig) -> Any:
        align = original_scoring_align(config)

        def primed(tasks: Any, *args: Any, **kwargs: Any) -> Any:
            with tracer.span("align.prime", tasks=len(tasks)):
                return align(tasks, *args, **kwargs)

        return primed

    tracer.patch(KernelConfig, "scoring_align", scoring_align)
    for cls in {type(k) for k in figure_kernels()}:
        tracer.wrap(cls, "simulate", _kernel_span, count=_method_tasks)
    tracer.wrap(GpuExecutor, "execute", "gpusim.execute")


def setup_metrics(result: Any, tracer: Tracer) -> None:
    """Workload-build time per set-up, from the ``bench.setup`` spans."""
    setups = [s for s in tracer.spans if s.name == "bench.setup"]
    builds = tracer.outermost(tracer.select("bench.build_workload", setups))
    result.metric(
        "bench.build_workload_s", sum(s.duration_s for s in builds) / len(setups), "s"
    )
