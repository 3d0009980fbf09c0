"""Simulated GPU alignment kernels: AGAThA and the Section 5.2 baselines.

All kernels share the :class:`~repro.kernels.base.GuidedKernel` interface:
``run(tasks)`` yields alignment scores (exact kernels reproduce the scalar
oracle bit for bit), ``simulate(tasks, device)`` yields the cost-model
execution statistics the benchmark harness compares.

=================  =====================================  ==========================
kernel             parallelisation                        guiding
=================  =====================================  ==========================
``Gasal2Kernel``   inter-query (1 thread / alignment)     banding (+ exact guiding
                                                          in the MM2-target variant)
``SALoBaKernel``   intra-query (subwarp / alignment,      banding (+ exact guiding
                   horizontal chunks)                     in the MM2-target variant)
``BaselineExact``  SALoBa MM2-target under its ablation   exact guiding, no AGAThA
``Kernel``         name ("Baseline")                      schemes
``ManymapKernel``  anti-diagonal-wise, warp / alignment   exact (MM2) or inexact
                                                          (Diff) termination
``LoganKernel``    anti-diagonal-wise, warp / alignment   X-drop, adaptive band
``AgathaKernel``   intra-query + the four AGAThA schemes  exact guiding
=================  =====================================  ==========================
"""

from repro.kernels.base import GuidedKernel, KernelConfig, prime_profiles
from repro.kernels.saloba import SALoBaKernel, BaselineExactKernel
from repro.kernels.gasal2 import Gasal2Kernel
from repro.kernels.manymap import ManymapKernel
from repro.kernels.logan import LoganKernel
from repro.kernels.agatha import AgathaKernel

__all__ = [
    "GuidedKernel",
    "KernelConfig",
    "prime_profiles",
    "SALoBaKernel",
    "BaselineExactKernel",
    "Gasal2Kernel",
    "ManymapKernel",
    "LoganKernel",
    "AgathaKernel",
]
