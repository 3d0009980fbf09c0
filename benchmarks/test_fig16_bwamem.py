"""Figure 16 -- applying AGAThA to BWA-MEM's guided alignment.

The same kernels run with BWA-MEM's much smaller band width and
termination threshold; the speedup gap over SALoBa shrinks (smaller
workloads and less imbalance) but AGAThA stays well ahead of the CPU.
"""

import pytest

from repro.baselines.aligner import BwaMemCpuAligner
from repro.io.datasets import DATASET_REGISTRY, build_dataset
from repro.kernels import AgathaKernel, SALoBaKernel, prime_profiles
from repro.pipeline.experiment import geometric_mean
from repro.align.scoring import preset

from bench_utils import REPRESENTATIVE_DATASETS, print_figure

#: BWA-MEM guided-alignment parameters (scaled band, as with the Minimap2
#: presets used elsewhere in the harness).
BWA_SCHEME = preset("bwa-mem", band_width=32, zdrop=60)


def bwa_tasks(name):
    """Re-derive a dataset's extension tasks under BWA-MEM's parameters."""
    from repro.pipeline.mapper import LongReadMapper

    spec = DATASET_REGISTRY[name]
    reference, reads = build_dataset(spec)
    mapper = LongReadMapper(reference, BWA_SCHEME)
    return mapper.workload([r.sequence for r in reads])


@pytest.mark.benchmark(group="fig16")
def test_fig16_bwamem(benchmark, hardware):
    device, cpu = hardware

    def run():
        table = {}
        for name in REPRESENTATIVE_DATASETS:
            tasks = bwa_tasks(name)
            prime_profiles(tasks)
            cpu_ms = BwaMemCpuAligner(cpu).time_ms(tasks)
            saloba = SALoBaKernel(target="mm2").simulate(tasks, device).time_ms
            agatha = AgathaKernel().simulate(tasks, device).time_ms
            table[name] = {
                "SALoBa": cpu_ms / saloba,
                "AGAThA": cpu_ms / agatha,
            }
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[name, row["SALoBa"], row["AGAThA"]] for name, row in table.items()]
    geo_saloba = geometric_mean([row["SALoBa"] for row in table.values()])
    geo_agatha = geometric_mean([row["AGAThA"] for row in table.values()])
    rows.append(["GeoMean", geo_saloba, geo_agatha])
    print_figure(
        "Figure 16: speedup over BWA-MEM (CPU)", ["dataset", "SALoBa", "AGAThA"], rows
    )

    # Shape: AGAThA keeps a clear gap over SALoBa and a large speedup over
    # the CPU even with the small band / threshold (paper reports ~15x).
    assert geo_agatha > geo_saloba
    assert geo_agatha > 5.0
