"""Unit tests for the arc-recording call-graph profiler."""

from repro.pipeline.callgraph import CallArc, CallGraphRecorder

A = ("app", "f")
B = ("libc", "memset")
C = ("vm", "gc")


class TestCallGraphRecorder:
    def test_record_arc(self):
        r = CallGraphRecorder()
        r.record(A, B, "EV")
        assert r.arcs[CallArc(A, B)]["EV"] == 1

    def test_root_frame_records_self_only(self):
        r = CallGraphRecorder()
        r.record(None, A, "EV")
        assert not r.arcs
        assert r.self_samples[A]["EV"] == 1

    def test_top_arcs_sorted(self):
        r = CallGraphRecorder()
        for _ in range(3):
            r.record(A, B, "EV")
        r.record(A, C, "EV")
        top = r.top_arcs("EV")
        assert top[0] == (CallArc(A, B), 3)
        assert top[1] == (CallArc(A, C), 1)

    def test_top_arcs_filters_event(self):
        r = CallGraphRecorder()
        r.record(A, B, "EV1")
        assert r.top_arcs("EV2") == []

    def test_arcs_from_and_into(self):
        r = CallGraphRecorder()
        r.record(A, B, "EV")
        r.record(C, B, "EV")
        assert len(r.arcs_into(B)) == 2
        assert len(r.arcs_from(A)) == 1

    def test_format_table(self):
        r = CallGraphRecorder()
        r.record(A, B, "EV")
        txt = r.format_table("EV")
        assert "app:f -> libc:memset" in txt
