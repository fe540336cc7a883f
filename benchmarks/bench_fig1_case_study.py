"""Figure 1 — the DaCapo ``ps`` case study.

Paper artifact: side-by-side ``opreport``-style listings of the same run
under VIProf (top) and stock OProfile (bottom), two event columns
(GLOBAL_POWER_EVENTS time %, BSQ_CACHE_REFERENCE L2-miss %).

Expected shape (all asserted below):

* VIProf resolves ``RVM.map`` VM-internal methods and ``JIT.App``
  application methods by name — including the paper's
  ``...javaPostScript.red.scanner.Scanner.parseLine`` frame;
* OProfile shows the same execution as ``RVM.code.image (no symbols)``
  plus anonymous heap ranges;
* both agree on the native layer (``libc`` memset etc.).
"""

from benchmarks.conftest import publish
from repro.system.experiment import run_case_study


def test_figure1_case_study(benchmark, results_dir, scale, tmp_path):
    result = benchmark.pedantic(
        lambda: run_case_study(
            "ps", period=90_000, time_scale=scale, limit=14,
            session_dir=tmp_path,
        ),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "figure1_case_study.txt", result.side_by_side())

    v, o = result.viprof_table, result.oprofile_table

    # VIProf (top half of Figure 1): full vertical resolution.
    assert "RVM.map" in v
    assert "JIT.App" in v
    assert "edu.unm.cs.oal.dacapo.javaPostScript" in v
    assert "libc" in v + o

    # OProfile (bottom half): JIT and VM opaque.
    assert "RVM.code.image" in o
    assert "anon (range:0x" in o
    assert "(no symbols)" in o
    assert "JIT.App" not in o

    # VIProf's resolution is essentially lossless.
    stats = result.viprof_run.viprof_report().jit_stats
    assert stats.resolution_rate > 0.98
