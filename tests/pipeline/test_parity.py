"""Golden parity: the streaming pipeline's reports must be byte-identical
to the legacy batch resolvers' output.

The fixtures under ``tests/fixtures/golden/`` were captured from the
pre-pipeline resolver implementations (subclass-override ``OpReport``/
``ViprofReport`` and a hand-rolled per-domain Xen resolver) on seeded,
deterministic runs.  These tests regenerate the same reports through the
stage-composition pipeline and compare bytes — any drift in resolution
order, tie-breaking, or formatting fails loudly.
"""

from pathlib import Path

import pytest

from repro.system.api import viprof_profile
from repro.system.experiment import run_case_study
from repro.workloads import by_name
from repro.xen import GuestSpec, MultiStackEngine

GOLDEN = Path(__file__).resolve().parents[1] / "fixtures" / "golden"


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


class TestGoldenParity:
    def test_viprof_report_matches_legacy_bytes(self, tmp_path):
        r = viprof_profile(
            by_name("fop"), period=90_000, time_scale=0.1, seed=7,
            session_dir=tmp_path,
        )
        vr = r.viprof_report()
        s = vr.jit_stats
        text = vr.report.format_table(limit=15) + "\n"
        text += (
            f"{s.jit_samples} JIT samples, "
            f"{100 * s.resolution_rate:.1f}% resolved\n"
        )
        assert text == golden("report_fop.txt")

    def test_case_study_matches_legacy_bytes(self, tmp_path):
        cs = run_case_study(
            "fop", period=90_000, time_scale=0.08, seed=7, limit=12,
            session_dir=tmp_path,
        )
        assert cs.side_by_side() + "\n" == golden("case_study_fop.txt")

    def test_xen_reports_match_legacy_bytes(self, tmp_path):
        engine = MultiStackEngine(
            [GuestSpec(by_name("fop")), GuestSpec(by_name("ps"), weight=512)],
            period=30_000, time_scale=0.08, session_dir=tmp_path, seed=7,
        )
        res = engine.run()
        text = res.unified_report().format_table() + "\n"
        text += "== dom0 ==\n" + res.domain_report(0).format_table() + "\n"
        text += "== dom1 ==\n" + res.domain_report(1).format_table() + "\n"
        assert text == golden("xen_unified.txt")


class TestBatchStreamEquivalence:
    """In-process cross-check: resolving one-by-one through ``resolve()``
    and aggregating by hand must equal the streaming ``generate()``."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        return viprof_profile(
            by_name("fop"), period=90_000, time_scale=0.12, seed=11,
            session_dir=tmp_path_factory.mktemp("batch-stream"),
        )

    def test_reports_identical(self, run):
        vr = run.viprof_report()
        post = vr.post
        streamed = vr.report

        from repro.profiling.report import build_report

        batch = build_report(
            [post.resolve(s) for s in post.read_samples()],
            events=post.event_names(),
        )
        assert batch.events == streamed.events
        assert batch.totals == streamed.totals
        assert [
            (r.image, r.symbol, r.counts) for r in batch.sorted_rows()
        ] == [
            (r.image, r.symbol, r.counts) for r in streamed.sorted_rows()
        ]
        assert batch.format_table() == streamed.format_table()
