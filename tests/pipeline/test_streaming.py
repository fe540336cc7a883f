"""Constant-memory guarantee: the pipeline resolves a 100k-sample file
without ever materializing the sample list."""

import tracemalloc

from repro.os.kernel import Kernel
from repro.pipeline import DirectorySource, opreport_chain, run_pipeline
from repro.profiling.model import RawSample
from repro.profiling.samplefile import SampleFileReader, SampleFileWriter

EV = "GLOBAL_POWER_EVENTS"
N_SAMPLES = 100_000

#: Generous ceiling for peak *additional* heap during the streaming pass.
#: The materialized equivalent (100k RawSample dataclasses plus the list)
#: is well over 10 MB; the stream should stay around one decode chunk.
PEAK_BYTES_LIMIT = 4 * 1024 * 1024

#: Ceiling for iterating one reader record by record: one decode chunk's
#: bytes (~0.9 MiB) plus the Python records of one slice of it.
#: Materializing a whole chunk's records peaks near 6 MB.
PER_RECORD_PEAK_LIMIT = 3 * 1024 * 1024


def write_big_file(sample_dir, kernel):
    sample_dir.mkdir()
    pcs = [
        kernel.kernel_pc("schedule"),
        kernel.kernel_pc("do_page_fault"),
        kernel.kernel_pc("handle_mm_fault"),
    ]
    with SampleFileWriter(sample_dir / f"{EV}.samples", EV, 1000) as w:
        for i in range(N_SAMPLES):
            w.write(
                RawSample(
                    pc=pcs[i % len(pcs)], event_name=EV, task_id=1,
                    kernel_mode=True, cycle=i,
                )
            )


class TestConstantMemoryStreaming:
    def test_100k_samples_stream_within_memory_bound(self, tmp_path):
        kernel = Kernel()
        sample_dir = tmp_path / "samples"
        write_big_file(sample_dir, kernel)

        source = DirectorySource(sample_dir)
        chain = opreport_chain(kernel)

        tracemalloc.start()
        try:
            report = run_pipeline(source, chain, events=(EV,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        assert report.totals[EV] == N_SAMPLES
        assert sum(s.hits for s in chain.stats()) == N_SAMPLES
        assert peak < PEAK_BYTES_LIMIT, (
            f"streaming pass peaked at {peak} bytes "
            f"(limit {PEAK_BYTES_LIMIT})"
        )

    def test_per_record_reader_holds_one_slice_of_records(self, tmp_path):
        """Iterating a reader record by record builds Python objects for
        one bounded slice of a decode chunk at a time, not for the whole
        32,768-record chunk."""
        kernel = Kernel()
        sample_dir = tmp_path / "samples"
        write_big_file(sample_dir, kernel)
        path = sample_dir / f"{EV}.samples"

        tracemalloc.start()
        try:
            n = sum(1 for _ in SampleFileReader(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        assert n == N_SAMPLES
        assert peak < PER_RECORD_PEAK_LIMIT, (
            f"per-record iteration peaked at {peak} bytes "
            f"(limit {PER_RECORD_PEAK_LIMIT})"
        )

    def test_aggregator_state_is_per_symbol_not_per_sample(self, tmp_path):
        kernel = Kernel()
        sample_dir = tmp_path / "samples"
        write_big_file(sample_dir, kernel)
        report = run_pipeline(
            DirectorySource(sample_dir), opreport_chain(kernel), events=(EV,)
        )
        # 100k samples over three PCs collapse to three rows.
        assert len(report.rows) == 3
        assert sorted(r.count(EV) for r in report.rows) == [
            33333, 33333, 33334,
        ]
