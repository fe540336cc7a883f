"""End-to-end benchmark of the whole VIProf path, from workload
simulation to the rendered report.  See ``README.md`` here; run it with
``python -m benchmarks.e2e --seed 7``."""
