"""Micro-benchmarks of the hot substrate paths.

These are conventional pytest-benchmark timings (many rounds) of the inner
loops everything else stands on: the cache model, counter accounting,
quantum execution, code-map resolution, and sample-file I/O.
"""

from repro.hardware.cache import CacheGeometry, StatisticalCacheModel
from repro.hardware.counters import CounterBank, CounterConfig
from repro.hardware.cpu import CPU
from repro.hardware.events import EventCounts, GLOBAL_POWER_EVENTS
from repro.hardware.memory import WorkingSet
from repro.profiling.model import RawSample
from repro.profiling.samplefile import SampleFileReader, SampleFileWriter
from repro.viprof.codemap import CodeMapIndex, CodeMapRecord, CodeMapWriter
from tests.conftest import make_tiny_workload


def test_cache_statistical_model(benchmark):
    model = StatisticalCacheModel(CacheGeometry.paper_l2(), seed=3)
    ws = WorkingSet(base=0, size=1 << 24, locality=0.7, seed=3)
    benchmark(model.misses_for, ws, 2000)


def test_counter_bank_consume(benchmark):
    bank = CounterBank()
    bank.program(CounterConfig(event=GLOBAL_POWER_EVENTS, period=90_000))
    counts = EventCounts(cycles=2_000, instructions=1_500)

    def consume():
        bank.consume_all(counts, kernel_mode=False)

    benchmark(consume)


def test_cpu_quantum_execution(benchmark):
    cpu = CPU()
    cpu.counters.program(
        CounterConfig(event=GLOBAL_POWER_EVENTS, period=90_000)
    )
    cpu.nmi.register(lambda f: 1100)
    counts = EventCounts(cycles=2_000, instructions=1_500)
    benchmark(cpu.execute, 0x6080_0000, 0x800, counts)


def test_codemap_backward_resolution(benchmark, tmp_path):
    writer = CodeMapWriter(tmp_path)
    for epoch in range(60):
        writer.write(
            epoch,
            [
                CodeMapRecord(
                    address=0x6080_0000 + epoch * 0x10000 + i * 0x400,
                    size=0x400, tier="O1", name=f"m{epoch}_{i}",
                )
                for i in range(20)
            ],
        )
    idx = CodeMapIndex.load_dir(tmp_path)
    # Worst case: epoch-0 address queried from epoch 59.
    benchmark(idx.resolve, 59, 0x6080_0000 + 0x10)


def test_samplefile_write_throughput(benchmark, tmp_path):
    samples = [
        RawSample(
            pc=0x6080_0000 + i, event_name="GLOBAL_POWER_EVENTS",
            task_id=1000, kernel_mode=False, cycle=i, epoch=3,
        )
        for i in range(1000)
    ]
    counter = iter(range(10_000_000))

    def write_batch():
        path = tmp_path / f"b{next(counter)}.samples"
        with SampleFileWriter(path, "GLOBAL_POWER_EVENTS", 90_000) as w:
            for s in samples:
                w.write(s)

    benchmark(write_batch)


def test_samplefile_read_throughput(benchmark, tmp_path):
    path = tmp_path / "r.samples"
    with SampleFileWriter(path, "GLOBAL_POWER_EVENTS", 90_000) as w:
        for i in range(5000):
            w.write(
                RawSample(
                    pc=i, event_name="GLOBAL_POWER_EVENTS", task_id=1,
                    kernel_mode=False, cycle=i,
                )
            )
    benchmark(lambda: list(SampleFileReader(path)))


def test_report_aggregation(benchmark):
    from repro.profiling.model import RawSample, ResolvedSample
    from repro.profiling.report import build_report

    samples = [
        ResolvedSample(
            raw=RawSample(
                pc=i, event_name="GLOBAL_POWER_EVENTS", task_id=1,
                kernel_mode=False, cycle=i,
            ),
            image=f"img{i % 7}",
            symbol=f"sym{i % 97}",
        )
        for i in range(5000)
    ]
    benchmark(build_report, samples)


def test_profile_diff(benchmark):
    from repro.metrics.analyze import analyze
    from repro.metrics.build import summary_from_report
    from repro.profiling.model import RawSample, ResolvedSample
    from repro.profiling.report import build_report

    def mk(shift):
        samples = [
            ResolvedSample(
                raw=RawSample(
                    pc=i, event_name="GLOBAL_POWER_EVENTS", task_id=1,
                    kernel_mode=False, cycle=i,
                ),
                image="JIT.App",
                symbol=f"m{(i + shift) % 200}",
            )
            for i in range(3000)
        ]
        return build_report(samples)

    before, after = mk(0), mk(37)
    benchmark(
        lambda: analyze(
            summary_from_report(before), summary_from_report(after)
        )
    )


def test_timeline_build(benchmark):
    from repro.analysis.timeline import build_timeline
    from repro.profiling.model import RawSample, ResolvedSample

    samples = [
        ResolvedSample(
            raw=RawSample(
                pc=i, event_name="GLOBAL_POWER_EVENTS", task_id=1,
                kernel_mode=False, cycle=i * 997,
            ),
            image="JIT.App",
            symbol=f"m{i % 50}",
        )
        for i in range(4000)
    ]
    benchmark(build_timeline, samples, 100_000)


def test_engine_simulation_rate(benchmark):
    """Cycles simulated per wall second for an unprofiled machine — the
    number that sets the cost of every experiment above."""
    from repro.system.api import base_run

    wl = make_tiny_workload(base_time_s=0.3)

    def run():
        return base_run(wl, noise=False).wall_cycles

    cycles = benchmark(run)
    assert cycles > 0
