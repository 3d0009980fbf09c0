"""``repro.api`` -- the public surface of the reproduction.

One import gives the session façade, the typed result objects and the
three extension registries::

    from repro.api import Session

    session = Session(dataset="ONT-HG002")      # engine="batch", suite="mm2"
    outcome = session.align()                   # AlignmentOutcome
    table = session.compare()                   # ComparisonOutcome
    record = session.run_figure("quick")        # BenchRecord

Extension points (see DESIGN.md, "The public API layer"):

* :func:`register_engine` -- new workload-scoring backends, usable via
  ``Session(engine=...)`` and ``LongReadMapper(engine=...)``;
* :func:`register_kernel` -- new simulated GPU kernels;
* :func:`register_suite` -- new kernel line-ups, which automatically
  appear in ``python -m repro.bench --suites`` and in figure records.

Engine calls take their tuning as a typed :class:`EngineOptions`, and
every engine can be driven through a streaming handle:
:func:`open_batch` returns an :class:`InFlightBatch` that steps slice by
slice and admits new tasks into lanes freed by compaction
(:func:`supports_streaming` reports which engines stream natively; the
rest are adapted through :class:`OneShotBatch`).  docs/ENGINES.md
documents the contract.

The online serving layer (:mod:`repro.serve`) is re-exported here too:
:class:`ServeConfig` and :class:`AlignmentService` (reachable through
:meth:`Session.serve`), the :class:`LoadGenerator`/:class:`RequestTrace`
load-generation pair, and the :func:`replay` virtual-clock drain with
its :func:`serve_bench_record` record builder.  The sharded cluster
rides along: :class:`ClusterConfig`/:class:`ClusterService` (reachable
through ``Session.serve(shards=N)``), the deterministic
:class:`ShardRouter`, :func:`cluster_replay`, and the bounded-admission
pieces (:class:`AdmissionController`, :class:`RequestRejected`,
:class:`ShardFailedError`) -- plus the elastic/chaos surface:
:class:`ScalePlan` resize schedules, the :class:`FaultPlan` fault types
(:class:`CrashFault`, :class:`DelayFault`, :class:`DropFault`,
:class:`DuplicateFault`) and :class:`AutotuneConfig` router autotuning.

Everything exported here is covered by the public-API snapshot test
(``tests/api/test_public_surface.py``) and the deprecation policy: old
entry points keep working for one release as shims that emit a single
``DeprecationWarning`` and delegate to this package.
"""

from repro.api.registry import Registry, RegistryError
from repro.api.engines import (
    ENGINES,
    AlignmentEngine,
    EngineOptions,
    InFlightBatch,
    OneShotBatch,
    SliceStats,
    align_tasks,
    engine_names,
    get_engine,
    open_batch,
    register_engine,
    supports_streaming,
)
from repro.api.suites import (
    ABLATION_LADDER,
    KERNELS,
    SUITES,
    KernelFactory,
    SuiteEntry,
    SuiteSpec,
    build_suite,
    get_kernel,
    get_suite,
    kernel_names,
    register_kernel,
    register_suite,
    suite_names,
)
from repro.api.results import (
    AlignmentOutcome,
    ComparisonOutcome,
    CpuSummary,
    KernelSummary,
    MappingOutcome,
    SimulationOutcome,
)
from repro.api.compare import compare_suite
from repro.api.session import Session

# Serving layer (imported from concrete submodules so a direct
# ``import repro.serve`` never races this package's initialisation).
from repro.serve.config import ServeConfig
from repro.serve.loadgen import LoadGenerator, RequestTrace
from repro.serve.queueing import AdmissionController, RequestRejected
from repro.serve.scheduler import ServeReport, replay
from repro.serve.service import AlignmentService
from repro.serve.telemetry import serve_bench_record
from repro.serve.autotune import AutotuneConfig, autotune_router
from repro.serve.faults import (
    CrashFault,
    DelayFault,
    DropFault,
    DuplicateFault,
    FaultPlan,
)
from repro.serve.cluster import (
    ClusterConfig,
    ClusterReport,
    ClusterService,
    ScalePlan,
    ShardFailedError,
    ShardRouter,
    cluster_replay,
)

# Record builder for wall-clock engine studies (BENCH_sliced.json);
# imported from the concrete submodule for the same reason as above.
from repro.bench.records import engine_bench_record

#: Workload-registry names re-exported lazily: the workloads package
#: imports this package's registry machinery, so an eager import here
#: would be a cycle.  Attribute access triggers the one-time import
#: (which also registers the built-in workloads).
_WORKLOAD_EXPORTS = (
    "WorkloadSpec",
    "WORKLOADS",
    "register_workload",
    "get_workload",
    "workload_names",
    "resolve_spec",
    "FastaWorkloadSpec",
    "AdversarialWorkloadSpec",
)


def __getattr__(name: str):
    if name in _WORKLOAD_EXPORTS:
        import repro.workloads as _workloads

        return getattr(_workloads, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    # façade
    "Session",
    # registries
    "Registry",
    "RegistryError",
    "ENGINES",
    "KERNELS",
    "SUITES",
    "AlignmentEngine",
    "EngineOptions",
    "InFlightBatch",
    "OneShotBatch",
    "SliceStats",
    "KernelFactory",
    "SuiteEntry",
    "SuiteSpec",
    "ABLATION_LADDER",
    "register_engine",
    "get_engine",
    "engine_names",
    "supports_streaming",
    "open_batch",
    "register_kernel",
    "get_kernel",
    "kernel_names",
    "register_suite",
    "get_suite",
    "suite_names",
    "build_suite",
    # workflows
    "align_tasks",
    "compare_suite",
    # serving
    "ServeConfig",
    "AlignmentService",
    "ServeReport",
    "LoadGenerator",
    "RequestTrace",
    "replay",
    "serve_bench_record",
    "AdmissionController",
    "RequestRejected",
    "ClusterConfig",
    "ClusterReport",
    "ClusterService",
    "ScalePlan",
    "ShardFailedError",
    "ShardRouter",
    "cluster_replay",
    "AutotuneConfig",
    "autotune_router",
    "FaultPlan",
    "CrashFault",
    "DelayFault",
    "DropFault",
    "DuplicateFault",
    "engine_bench_record",
    # workloads (lazily re-exported from repro.workloads)
    "WorkloadSpec",
    "WORKLOADS",
    "register_workload",
    "get_workload",
    "workload_names",
    "resolve_spec",
    "FastaWorkloadSpec",
    "AdversarialWorkloadSpec",
    # typed results
    "AlignmentOutcome",
    "MappingOutcome",
    "SimulationOutcome",
    "ComparisonOutcome",
    "KernelSummary",
    "CpuSummary",
]
