"""Shape tests for the paper's figures at reduced scale.

These assert the *qualitative* results the paper reports — who wins, in
which direction the trends run — on scaled-down runs so they stay fast.
The full-scale reproductions live in benchmarks/.
"""

import pytest

from repro.jvm.machine import JIT_APP_IMAGE_LABEL
from repro.jvm.bootimage import RVM_MAP_IMAGE_LABEL
from repro.system.experiment import run_case_study, run_overhead_matrix
from repro.workloads import by_name

SCALE = 0.06  # ~0.5 M - 9 M workload cycles per run


@pytest.fixture(scope="module")
def case_study(tmp_path_factory):
    return run_case_study(
        "ps", time_scale=0.25, limit=30,
        session_dir=tmp_path_factory.mktemp("case-study"),
    )


class TestFigure1Shape:
    def test_viprof_resolves_jit_and_vm(self, case_study):
        table = case_study.viprof_table
        assert JIT_APP_IMAGE_LABEL in table
        assert RVM_MAP_IMAGE_LABEL in table
        assert "edu.unm.cs.oal.dacapo.javaPostScript" in table

    def test_oprofile_shows_anonymous_regions(self, case_study):
        table = case_study.oprofile_table
        assert "anon (range:0x" in table
        assert "RVM.code.image" in table
        assert "(no symbols)" in table
        assert JIT_APP_IMAGE_LABEL not in table

    def test_both_see_native_layer(self, case_study):
        assert "libc" in case_study.viprof_table
        assert "libc" in case_study.oprofile_table

    def test_figure1_vm_symbols_appear(self, case_study):
        # At least some of the exact Figure 1 VM-internal frames.
        hits = sum(
            name in case_study.viprof_table
            for name in (
                "com.ibm.jikesrvm.classloader.VM_NormalMethod",
                "com.ibm.jikesrvm.opt.VM_OptCompiledMethod.createCodePatchMaps",
                "org.mmtk",
                "com.ibm.jikesrvm.opt.VM_OptGenericGCMapIterator",
            )
        )
        assert hits >= 1

    def test_sample_volumes_comparable(self, case_study):
        v = case_study.viprof_run
        o = case_study.oprofile_run
        nv = v.daemon_stats.samples_logged
        no = o.daemon_stats.samples_logged
        assert abs(nv - no) / max(nv, no) < 0.15


class TestFigure2Shape:
    @pytest.fixture(scope="class")
    def matrix(self):
        suite = [by_name(n) for n in ("fop", "ps", "antlr")]
        return run_overhead_matrix(suite, time_scale=SCALE)

    def test_overhead_grows_with_frequency(self, matrix):
        for name in ("fop", "ps", "antlr"):
            s45 = matrix.cell(name, "viprof", 45_000).slowdown
            s450 = matrix.cell(name, "viprof", 450_000).slowdown
            assert s45 > s450, name

    def test_average_overhead_moderate_at_90k(self, matrix):
        avg_v = matrix.average_slowdown("viprof", 90_000)
        avg_o = matrix.average_slowdown("oprofile", 90_000)
        # ~5 % band at the paper's scale; scaled runs amortize less, so
        # allow up to ~15 %.
        assert 1.0 < avg_o < 1.15
        assert 1.0 < avg_v < 1.18
        # VIProf ≈ OProfile on average (paper: "negligible overhead to what
        # Oprofile already introduces").
        assert abs(avg_v - avg_o) < 0.05

    def test_viprof450_is_cheapest(self, matrix):
        for name in ("fop", "ps", "antlr"):
            s450 = matrix.cell(name, "viprof", 450_000).slowdown
            s90 = matrix.cell(name, "viprof", 90_000).slowdown
            assert s450 < s90

    def test_format_figure2_table(self, matrix):
        txt = matrix.format_figure2()
        assert "VIProf 45K" in txt and "Average" in txt


class TestFigure3Shape:
    def test_base_times_ordered_like_paper(self):
        from repro.system.api import base_run

        fop = base_run(by_name("fop"), time_scale=SCALE)
        hsqldb = base_run(by_name("hsqldb"), time_scale=SCALE)
        # hsqldb (43 s) runs ~13x longer than fop (3.2 s); scaled runs
        # preserve the ratio.
        assert hsqldb.seconds / fop.seconds == pytest.approx(
            43.0 / 3.2, rel=0.15
        )
