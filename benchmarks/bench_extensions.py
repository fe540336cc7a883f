"""Benchmarks for the implemented future-work extensions (paper §5) and
the annotation capability.

* Multi-stack XenoProf profiling: two guest stacks under the hypervisor,
  domain-tagged samples, per-domain and unified resolution.
* Profile-guided optimization: VIProf profile → hot-set → direct-tier
  compilation → throughput gain at equal work budget.
* JIT annotation: bytecode-granularity histograms inside hot methods.
"""

from benchmarks.conftest import publish
from repro.pgo import run_pgo_experiment
from repro.workloads import by_name
from repro.xen import GuestSpec, MultiStackEngine


def test_multistack_xenoprof(benchmark, results_dir, scale, tmp_path):
    def run():
        engine = MultiStackEngine(
            [
                GuestSpec(by_name("fop")),
                GuestSpec(by_name("ps"), weight=512),
            ],
            period=45_000,
            time_scale=min(scale, 0.5),  # two full stacks; cap the cost
            session_dir=tmp_path,
        )
        return engine.run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        f"world switches: {result.hypervisor.world_switches}",
        f"samples: {len(result.buffer)} "
        f"(xen share {100 * result.xen_share():.2f}%)",
        f"per-domain: {dict(sorted(result.buffer.per_domain.items()))}",
        "",
        "=== unified cross-stack profile (top 12) ===",
        result.unified_report().format_table(limit=12),
    ]
    publish(results_dir, "extension_xenoprof.txt", "\n".join(lines))

    # Both domains sampled; both resolve their own JIT methods.
    assert set(result.buffer.per_domain) == {0, 1}
    for did in (0, 1):
        rep = result.domain_report(did)
        assert any(r.image == "JIT.App" for r in rep.rows), did
    # The weighted domain (ps, weight 512, larger budget) got more CPU.
    d = {g.domain.name: g.domain.cpu_cycles for g in result.guests.values()}
    assert d["ps"] > d["fop"]
    # The unified report separates the stacks.
    images = {r.image for r in result.unified_report().rows}
    assert any(i.startswith("dom0:") for i in images)
    assert any(i.startswith("dom1:") for i in images)


def test_profile_guided_optimization(benchmark, results_dir, scale):
    result = benchmark.pedantic(
        lambda: run_pgo_experiment(
            lambda: by_name("ps"), time_scale=min(scale, 0.5)
        ),
        rounds=1,
        iterations=1,
    )
    publish(
        results_dir,
        "extension_pgo.txt",
        result.format_summary()
        + f"\ncompilation events: {result.baseline_compilations} -> "
        f"{result.guided_compilations}",
    )
    assert result.hot_methods > 5
    assert result.throughput_gain > 1.03
    assert result.guided_compilations < result.baseline_compilations


def test_jit_annotation(benchmark, results_dir, scale):
    from repro.system.api import viprof_profile

    def run():
        r = viprof_profile(
            by_name("ps"), period=20_000, time_scale=min(scale, 0.5)
        )
        vr = r.viprof_report()
        hot = next(
            row for row in vr.report.sorted_rows() if row.image == "JIT.App"
        )
        return vr.post.annotate_jit(hot.symbol, bucket_bytes=64)

    ann = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(results_dir, "extension_annotation.txt", ann.format_table(limit=20))

    assert ann.rows, "no annotated buckets for the hottest JIT method"
    assert all(r.bytecode_index is not None for r in ann.rows)
    assert ann.unknown_offset_samples == 0
