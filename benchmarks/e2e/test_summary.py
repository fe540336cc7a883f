"""The tail-percentile rule and per-layer arithmetic."""

from __future__ import annotations

from benchmarks.e2e.summary import end_to_end, per_layer, tail_percentile


def test_tail_is_the_highest_percentile_with_ten_ops_beyond_it():
    assert tail_percentile([1.0] * 19) is None
    assert tail_percentile([float(i) for i in range(1, 21)]) == (50.0, 10.0)
    assert tail_percentile([float(i) for i in range(1, 46)]) == (75.0, 34.0)
    assert tail_percentile([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert tail_percentile([float(i) for i in range(1, 1001)]) == (99.0, 990.0)


def test_per_layer_takes_per_op_medians_and_summed_ratios():
    layers = {
        0: {"system.run": [1, 2.0], "viprof.map_load": [2, 0.1],
            "viprof.arena_opens": [1, 0.0], "work.samples": [10, 0.0]},
        2: {"system.run": [1, 4.0], "viprof.map_load": [2, 0.3],
            "viprof.arena_opens": [2, 0.0], "work.samples": [10, 0.0]},
    }
    out = per_layer(layers)
    assert out["system.self_s"] == 3.0
    assert out["viprof.map_load_s"] == 0.2
    assert out["viprof.arena_hit_ratio"] == 0.75
    assert out["pipeline.samples"] == 10
    assert out["hardware.quanta"] == 0
    assert out["pipeline.cache_hit_ratio"] == 0.0


def test_op_min_norm_divides_the_fastest_op_by_the_fastest_probe():
    out = end_to_end(0.5, [2.0, 1.0, 3.0], [0.02, 0.01, 0.04], 2048)
    assert out == {"setup_s": 0.5, "op_min_norm": 100.0, "peak_rss_mb": 2.0}
