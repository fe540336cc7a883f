"""Offline summaries walk each distinct heap (epoch, pc) exactly once."""

from collections import Counter

from repro.metrics.build import derive_summary
from repro.oprofile.archive import SessionStore
from repro.profiling.record_codec import open_sample_record_file
from repro.system.api import viprof_profile
from repro.viprof.codemap import CodeMapIndex
from tests.conftest import make_tiny_workload


def test_each_distinct_heap_pc_is_walked_once(tmp_path, monkeypatch):
    run = viprof_profile(
        make_tiny_workload(base_time_s=0.25), period=5_000,
        session_dir=tmp_path / "run", noise=False,
    )
    session = SessionStore(tmp_path / "store").archive(run, "s").path
    reg = run.viprof_session.daemon.registrations[0]
    heap: Counter = Counter()
    for path in sorted((session / "samples").glob("*.samples")):
        with open_sample_record_file(path) as reader:
            for rec in reader:
                s = rec.sample
                if (
                    not s.kernel_mode
                    and s.task_id == reg.task_id
                    and reg.covers(s.pc)
                ):
                    heap[(s.epoch, s.pc)] += 1
    assert sum(heap.values()) > len(heap)  # repeated keys exist

    asked: Counter = Counter()
    resolve_run = CodeMapIndex.resolve_run

    def spy(self, epoch, addrs, backward=True):
        addrs = list(addrs)
        assert addrs == sorted(addrs)
        asked.update((epoch, pc) for pc in addrs)
        return resolve_run(self, epoch, addrs, backward)

    monkeypatch.setattr(CodeMapIndex, "resolve_run", spy)
    summary = derive_summary(session)
    assert summary.panel("layers")["jit"] == sum(heap.values())
    assert asked == Counter(heap.keys())
