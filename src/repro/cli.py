"""Command-line interface (the ``viprof`` console script).

Subcommands::

    viprof list                          # available benchmarks
    viprof report ps [--scale S] [...]   # run + print a VIProf profile
    viprof report ps --json              # the run's SessionSummary document
    viprof case-study [--benchmark ps]   # Figure 1 side-by-side
    viprof overhead [--benchmarks ...]   # Figure 2/3 sweep
    viprof breakdown ps                  # overhead decomposition
    viprof annotate ps [--method NAME]   # within-method (bytecode) histogram
    viprof diff ps --period 45000 90000  # analyze one benchmark at two
                                         #   periods (never gates)
    viprof diff A/ B/                    # analyze two existing sessions
    viprof analyze A B [--config F]      # session comparison + regression
                                         #   gates (--fail-on-regression)
    viprof pgo ps                        # profile-guided optimization demo
    viprof xen fop ps                    # multi-stack XenoProf demo
    viprof xen --fleet 8 --per-domain    # many-guest fleet: per-domain
                                         #   panels + merged rollup
                                         #   (--summary-out writes it)
    viprof report fop ps --per-domain    # same fleet view over named
                                         #   benchmarks as guest domains
    viprof lint SESSION...               # static artifact integrity check
                                         #   (dirs/globs, --workers N,
                                         #    --cache F, --baseline F,
                                         #    --fail-on SEV, --format sarif)
    viprof recover SESSION_DIR           # salvage a crash-damaged session
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.analysis.overhead import decompose_overhead
from repro.errors import ProfilerError
from repro.pipeline.parallel import resolve_workers
from repro.system.api import base_run, oprofile_profile, viprof_profile
from repro.system.experiment import run_case_study, run_overhead_matrix
from repro.workloads import by_name, paper_suite

__all__ = ["main"]


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", type=float, default=0.25,
                   help="fraction of paper-scale run length (default 0.25)")
    p.add_argument("--period", type=int, default=90_000,
                   help="sampling period in cycles (default 90000)")
    p.add_argument("--seed", type=int, default=7)


def _worker_count(text: str) -> int | str:
    """``--workers`` value: ``auto`` or a count of at least 1; anything
    else is a usage error."""
    if text == "auto":
        return text
    try:
        return resolve_workers(int(text))
    except (ValueError, ProfilerError):
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or an integer >= 1, got {text!r}"
        ) from None


@contextmanager
def _session_dir(benchmark: str) -> Iterator[Path]:
    """A session directory for one command's runs, removed afterwards."""
    with tempfile.TemporaryDirectory(prefix=f"viprof-{benchmark}-") as tmp:
        yield Path(tmp)


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.workloads.specjvm98 import (
        compress, db, jack, javac, jess, mpegaudio, mtrt,
    )

    print(f"{'name':<12}{'base (s)':>9}  description")
    for wl in paper_suite():
        print(f"{wl.name:<12}{wl.base_time_s:>9.2f}  {wl.description}")
    print("\nIndividual JVM98 programs:")
    for f in (compress, jess, db, javac, mpegaudio, mtrt, jack):
        wl = f()
        print(f"{wl.name:<12}{wl.base_time_s:>9.2f}  {wl.description}")
    return 0


def _format_stage_stats(stats: dict) -> str:
    """Render a resolver chain's per-stage counters as aligned rows.

    Stages running in degraded (post-salvage) mode get one extra row per
    degradation counter, so a recovered session's losses are visible in
    the same table as its hits.
    """
    lines = [f"{'stage':<16}{'hits':>8}{'misses':>8}"]
    for entry in stats["stages"]:
        lines.append(
            f"{entry['stage']:<16}{entry['hits']:>8}{entry['misses']:>8}"
        )
        for key, value in (entry.get("degraded") or {}).items():
            lines.append(f"  degraded: {key} = {value}")
    return "\n".join(lines)


def _run_fleet_report(
    workloads: list,
    args: argparse.Namespace,
    workers: int | str = 1,
    summary_out: str | None = None,
) -> int:
    """Shared fleet engine of ``report --per-domain`` and ``xen --fleet``:
    run the guests, resolve per domain, print the cross-domain view."""
    import json

    from repro.metrics.fleet import (
        domain_summary,
        fleet_report_doc,
        fleet_rollup,
    )
    from repro.xen.fleet import run_fleet

    with tempfile.TemporaryDirectory(prefix="xenoprof-") as tmp:
        fs = run_fleet(
            workloads, period=args.period, time_scale=args.scale,
            session_dir=tmp, seed=args.seed,
        )
        summaries = {}
        for did in fs.domain_ids:
            drep, dchain = fs.domain_resolve(did)
            summaries[did] = domain_summary(
                did,
                drep,
                stats=dchain.stats_dict(),
                meta={"workload": fs.result.guests[did].domain.name},
            )
        rollup = fleet_rollup(summaries)
        if summary_out:
            rollup.save(summary_out)
        if args.json:
            doc = fleet_report_doc(summaries, rollup, top_n=args.rows)
            print(json.dumps(doc, indent=2, sort_keys=True))
            return 0
        report, chain = fs.resolve(workers=workers)
    print(f"fleet: {len(fs.domain_ids)} domains, "
          f"{len(fs.result.buffer)} samples, "
          f"{100 * fs.result.xen_share():.2f}% in the hypervisor\n")
    for did in fs.domain_ids:
        s = summaries[did]
        name = s.meta.get("workload", "?")
        print(f"== dom{did} ({name}): {s.total_samples} samples ==")
        layers = s.panel("layers")
        if layers:
            parts = ", ".join(
                f"{k}={v}" for k, v in sorted(layers.items()) if k != "total"
            )
            print(f"   layers: {parts}")
        for e in s.symbols[: args.rows]:
            counts = ", ".join(f"{ev}={n}" for ev, n in sorted(e.counts.items()))
            print(f"   {e.image:<14} {e.symbol}  ({counts})")
        print()
    print("== fleet rollup ==")
    print(report.format_table(limit=args.rows))
    print("\nresolution stages:")
    print(_format_stage_stats(chain.stats_dict()))
    if summary_out:
        print(f"\nwrote {summary_out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.per_domain or len(args.benchmark) > 1:
        return _run_fleet_report(
            [by_name(n) for n in args.benchmark], args, workers=args.workers
        )
    with _session_dir(args.benchmark[0]) as session_dir:
        result = viprof_profile(
            by_name(args.benchmark[0]), period=args.period,
            time_scale=args.scale, seed=args.seed, session_dir=session_dir,
        )
        vr = result.viprof_report(workers=args.workers)
    if args.json:
        from repro.metrics.build import summary_from_run

        print(summary_from_run(result, vr).to_canonical_json(), end="")
        return 0
    print(vr.report.format_table(limit=args.rows))
    s = vr.jit_stats
    print(f"\n{s.jit_samples} JIT samples, "
          f"{100 * s.resolution_rate:.1f}% resolved")
    print("\nresolution stages:")
    print(_format_stage_stats(vr.stage_stats))
    return 0


def _cmd_case_study(args: argparse.Namespace) -> int:
    with _session_dir(args.benchmark) as session_dir:
        result = run_case_study(
            args.benchmark, period=args.period, time_scale=args.scale,
            seed=args.seed, limit=args.rows, session_dir=session_dir,
        )
    print(result.side_by_side())
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    workloads = (
        [by_name(n) for n in args.benchmarks] if args.benchmarks else None
    )
    matrix = run_overhead_matrix(
        workloads, time_scale=args.scale, seed=args.seed
    )
    print(matrix.format_figure2())
    print()
    print(matrix.format_figure3())
    return 0


def _cmd_breakdown(args: argparse.Namespace) -> int:
    wl = args.benchmark
    base = base_run(by_name(wl), time_scale=args.scale, seed=args.seed)
    for profiler, runner in (
        ("oprofile", oprofile_profile),
        ("viprof", viprof_profile),
    ):
        with _session_dir(wl) as session_dir:
            run = runner(
                by_name(wl), period=args.period,
                time_scale=args.scale, seed=args.seed, session_dir=session_dir,
            )
        print(decompose_overhead(base, run).format_row())
    return 0


def _cmd_annotate(args: argparse.Namespace) -> int:
    with _session_dir(args.benchmark) as session_dir:
        result = viprof_profile(
            by_name(args.benchmark), period=args.period,
            time_scale=args.scale, seed=args.seed, session_dir=session_dir,
        )
        vr = result.viprof_report()
        method = args.method
        if method is None:
            method = next(
                r.symbol for r in vr.report.sorted_rows()
                if r.image == "JIT.App"
            )
        ann = vr.post.annotate_jit(method, bucket_bytes=args.bucket)
    print(ann.format_table(limit=args.rows))
    hot = ann.hottest("GLOBAL_POWER_EVENTS")
    if hot is not None:
        print(f"\nhottest bucket: offset {hot.offset} "
              f"(~bytecode {hot.bytecode_index})")
    return 0


def _run_analyze(
    a: str,
    b: str,
    config_path: str | None,
    event: str | None,
    as_json: bool,
    rows: int,
    fail_on_regression: bool,
    summaries: tuple | None = None,
) -> int:
    """Shared engine of ``viprof analyze`` and both ``diff`` forms.

    ``a`` and ``b`` are input paths, or only labels when ``summaries``
    holds the pair already built.  Exit codes: 0 clean, 2 on unusable
    inputs/config, 3 when ``fail_on_regression`` and a gate tripped.
    """
    from repro.errors import AnalysisError
    from repro.metrics import analyze, load_config, load_input

    try:
        config = load_config(config_path) if config_path else None
        before, after = summaries or (load_input(a), load_input(b))
        result = analyze(
            before, after,
            config=config, event=event, a_label=a, b_label=b,
        )
    except AnalysisError as e:
        print(f"viprof analyze: {e}", file=sys.stderr)
        return 2
    if as_json:
        print(result.to_json(), end="")
    else:
        print(result.format_table(limit=rows))
    if fail_on_regression and not result.ok:
        return 3
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    return _run_analyze(
        args.a, args.b, args.config, args.event, args.json, args.rows,
        args.fail_on_regression,
    )


def _cmd_diff(args: argparse.Namespace) -> int:
    """Compare two sessions/summaries, or one benchmark profiled at two
    periods; either way ``analyze`` prints the comparison, ungated."""
    from repro.metrics.build import summary_from_run

    if len(args.target) == 2:
        a, b = args.target
        return _run_analyze(
            a, b, args.config, None, False, args.rows,
            fail_on_regression=False,
        )
    if len(args.target) != 1:
        print(
            "viprof diff: expected one benchmark name or two "
            "session/summary paths",
            file=sys.stderr,
        )
        return 2
    benchmark = args.target[0]
    summaries = []
    for period in args.period:
        with _session_dir(benchmark) as session_dir:
            run = viprof_profile(
                by_name(benchmark), period=period,
                time_scale=args.scale, seed=args.seed, session_dir=session_dir,
            )
            summaries.append(summary_from_run(run, run.viprof_report()))
    p_before, p_after = args.period
    return _run_analyze(
        f"period {p_before}", f"period {p_after}", args.config, None, False,
        args.rows, fail_on_regression=False, summaries=tuple(summaries),
    )


def _cmd_pgo(args: argparse.Namespace) -> int:
    from repro.pgo import run_pgo_experiment

    result = run_pgo_experiment(
        lambda: by_name(args.benchmark), time_scale=args.scale,
        period=args.period, seed=args.seed,
    )
    print(result.format_summary())
    print(f"compilation events: {result.baseline_compilations} -> "
          f"{result.guided_compilations}")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.analysis.timeline import build_timeline

    with _session_dir(args.benchmark) as session_dir:
        result = viprof_profile(
            by_name(args.benchmark), period=args.period,
            time_scale=args.scale, seed=args.seed, session_dir=session_dir,
        )
        post = result.viprof_report().post
        tl = build_timeline(post.resolved_samples(), window_cycles=args.window)
    print(tl.format_table(top=args.top))
    transitions = tl.transitions(min_divergence=args.divergence)
    print(f"\nphase transitions at windows: {transitions or 'none'}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.statcheck import analyzer

    return analyzer.run(args)


def _cmd_index(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.errors import ReproError
    from repro.viprof.arena import (
        ArenaError,
        CodeMapArena,
        build_arena,
    )

    session_dir = Path(args.session_dir)
    map_dir = session_dir / "jit-maps"
    if not map_dir.is_dir():
        print(
            f"viprof index: {session_dir}: not a session directory "
            "(no jit-maps/ subdirectory)",
            file=sys.stderr,
        )
        return 2

    if args.check:
        try:
            arena = CodeMapArena.open_fresh(map_dir)
        except ArenaError as e:
            print(f"viprof index: {e}", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(arena.info(), indent=2, sort_keys=True))
        else:
            print(
                f"{arena.path}: fresh ({arena.records} records, "
                f"epochs {list(arena.epochs)})"
            )
        arena.close()
        return 0

    if not args.force:
        try:
            arena = CodeMapArena.open_fresh(map_dir)
        except ArenaError:
            pass
        else:
            if args.json:
                print(json.dumps(arena.info(), indent=2, sort_keys=True))
            else:
                print(f"{arena.path}: already fresh (use --force to rebuild)")
            arena.close()
            return 0
    try:
        path = build_arena(map_dir)
    except ReproError as e:
        print(f"viprof index: {e}", file=sys.stderr)
        return 2
    if path is None:
        print(
            f"viprof index: {map_dir}: no epoch map files to compile",
            file=sys.stderr,
        )
        return 2
    arena = CodeMapArena.open(path)
    if args.json:
        print(json.dumps(arena.info(), indent=2, sort_keys=True))
    else:
        print(
            f"wrote {path} ({path.stat().st_size} bytes, "
            f"{arena.records} records, epochs {list(arena.epochs)})"
        )
    arena.close()
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ReproError
    from repro.viprof.salvage import salvage_session

    try:
        manifest = salvage_session(args.session_dir, dry_run=args.dry_run)
    except ReproError as e:
        print(f"viprof recover: {e}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(manifest.to_dict(), indent=2, sort_keys=True))
        return 0
    verb = "would salvage" if args.dry_run else "salvaged"
    print(f"{verb} {args.session_dir}")
    for f in manifest.sample_files:
        line = f"  {f.path}: {f.action}, {f.records_kept} records kept"
        if f.bytes_dropped:
            line += f", {f.bytes_dropped} bytes dropped"
        print(line)
    for m in manifest.maps:
        line = f"  {m.path}: {m.action} (epoch {m.epoch})"
        if m.reason:
            line += f" -- {m.reason}"
        print(line)
    print(f"  top epoch: {manifest.top_epoch}")
    quarantined = (
        ", ".join(str(e) for e in manifest.quarantined_epochs) or "none"
    )
    print(f"  quarantined epochs: {quarantined}")
    if not manifest.damaged:
        print("  session was intact; nothing repaired")
    return 0


def _cmd_xen(args: argparse.Namespace) -> int:
    from repro.xen import GuestSpec, MultiStackEngine

    if args.fleet:
        from repro.workloads.fleet import fleet_workloads

        workloads = fleet_workloads(args.fleet, seed=args.seed)
    else:
        if not args.benchmarks:
            print(
                "viprof xen: name at least one benchmark or pass --fleet N",
                file=sys.stderr,
            )
            return 2
        workloads = [by_name(n) for n in args.benchmarks]
    if args.fleet or args.per_domain or args.summary_out:
        return _run_fleet_report(
            workloads, args, workers=args.workers,
            summary_out=args.summary_out,
        )
    with tempfile.TemporaryDirectory(prefix="xenoprof-") as tmp:
        engine = MultiStackEngine(
            [GuestSpec(wl) for wl in workloads],
            period=args.period, time_scale=args.scale,
            session_dir=tmp, seed=args.seed,
        )
        result = engine.run()
        report = result.unified_report()
    print(f"{len(result.buffer)} samples, "
          f"{100 * result.xen_share():.2f}% in the hypervisor, "
          f"{result.hypervisor.world_switches} world switches\n")
    print(report.format_table(limit=args.rows))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="viprof",
        description="VIProf reproduction: vertically integrated profiling "
        "on a simulated full system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available benchmarks")

    p = sub.add_parser("report", help="profile a benchmark with VIProf")
    p.add_argument("benchmark", nargs="+",
                   help="benchmark name; several names (or --per-domain) "
                        "run them as concurrent guest domains and print "
                        "the cross-domain fleet view")
    p.add_argument("--per-domain", action="store_true",
                   help="run the named benchmark(s) as guest domains under "
                        "the hypervisor and report per-domain panels plus "
                        "the merged fleet rollup")
    p.add_argument("--rows", type=int, default=15)
    p.add_argument("--json", action="store_true",
                   help="emit the run's summary (symbol counts plus "
                        "resolution, collection, daemon and GC panels) "
                        "as canonical JSON, an analyze input")
    p.add_argument("--workers", type=_worker_count, default="1",
                   help="shard sample resolution across N worker "
                        "processes, or 'auto' to size the pool from the "
                        "machine's core count (same output, faster; "
                        "default 1)")
    _add_run_args(p)

    p = sub.add_parser("case-study", help="Figure 1 side-by-side")
    p.add_argument("--benchmark", default="ps")
    p.add_argument("--rows", type=int, default=14)
    _add_run_args(p)

    p = sub.add_parser("overhead", help="Figure 2/3 overhead sweep")
    p.add_argument("--benchmarks", nargs="*", default=None)
    _add_run_args(p)

    p = sub.add_parser("breakdown", help="overhead decomposition")
    p.add_argument("benchmark")
    _add_run_args(p)

    p = sub.add_parser("annotate", help="within-method sample histogram")
    p.add_argument("benchmark")
    p.add_argument("--method", default=None,
                   help="JIT method name (default: hottest)")
    p.add_argument("--bucket", type=int, default=64)
    p.add_argument("--rows", type=int, default=20)
    _add_run_args(p)

    p = sub.add_parser(
        "diff",
        help="analyze one benchmark across two periods, or two existing "
        "sessions/summaries (never gates)",
    )
    p.add_argument("target", nargs="+", metavar="BENCHMARK|PATH",
                   help="one benchmark name, or two session directories / "
                        "summary JSON files")
    p.add_argument("--period", nargs=2, type=int, metavar=("BEFORE", "AFTER"),
                   default=[45_000, 90_000])
    p.add_argument("--config", default=None,
                   help="analysis config (TOML/JSON); its gates are "
                        "listed but never fail the diff")
    p.add_argument("--rows", type=int, default=12)
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser(
        "analyze",
        help="compare two sessions/summaries and gate on regressions",
    )
    p.add_argument("a", help="baseline: session dir, or summary.json "
                             "or report --json file")
    p.add_argument("b", help="candidate (same flavors as the baseline)")
    p.add_argument("--config", default=None,
                   help="TOML/JSON analysis config (panels + regression "
                        "thresholds); default gates symbol shares and "
                        "layer shares")
    p.add_argument("--event", default=None,
                   help="event to compare symbol shares on (default: "
                        "first common event)")
    p.add_argument("--json", action="store_true",
                   help="emit the full analysis as canonical JSON "
                        "(byte-stable across runs)")
    p.add_argument("--rows", type=int, default=15)
    p.add_argument("--fail-on-regression", action="store_true",
                   help="exit 3 when any configured gate trips")

    p = sub.add_parser("pgo", help="profile-guided optimization demo")
    p.add_argument("benchmark")
    _add_run_args(p)

    p = sub.add_parser("xen", help="multi-stack XenoProf demo")
    p.add_argument("benchmarks", nargs="*",
                   help="guest benchmarks (omit with --fleet N)")
    p.add_argument("--rows", type=int, default=14)
    p.add_argument("--fleet", type=int, default=0, metavar="N",
                   help="run a synthetic N-guest fleet (staggered "
                        "steady/bursty/recompile-heavy profiles) instead "
                        "of named benchmarks")
    p.add_argument("--per-domain", action="store_true",
                   help="print per-domain panels plus the fleet rollup")
    p.add_argument("--summary-out", default=None, metavar="PATH",
                   help="write the merged fleet rollup as summary JSON")
    p.add_argument("--json", action="store_true",
                   help="emit the cross-domain fleet document as JSON")
    p.add_argument("--workers", type=_worker_count, default="1",
                   help="shard fleet resolution across N worker processes "
                        "('auto' sizes from core count; default 1)")
    _add_run_args(p)

    p = sub.add_parser(
        "lint", help="statically verify a session's profile artifacts"
    )
    from repro.statcheck import analyzer as _lint_analyzer

    _lint_analyzer.configure_parser(p)

    p = sub.add_parser(
        "recover",
        help="salvage a crash-damaged session directory (truncate torn "
        "sample files, quarantine malformed maps, write salvage.json)",
    )
    p.add_argument("session_dir")
    p.add_argument("--dry-run", action="store_true",
                   help="diagnose only; do not modify the session")
    p.add_argument("--json", action="store_true",
                   help="emit the salvage manifest as JSON")

    p = sub.add_parser(
        "index",
        help="compile a session's epoch code maps into the zero-copy "
        "mmap arena (jit-maps.arena) used by viprof report",
    )
    p.add_argument("session_dir")
    p.add_argument("--check", action="store_true",
                   help="verify only: exit 0 if a fresh arena exists, "
                        "1 if it is missing, corrupt, or stale")
    p.add_argument("--force", action="store_true",
                   help="rebuild even when the existing arena is fresh")
    p.add_argument("--json", action="store_true",
                   help="emit the arena inspection payload as JSON")

    p = sub.add_parser("timeline", help="phase-behaviour timeline")
    p.add_argument("benchmark")
    p.add_argument("--window", type=int, default=2_000_000,
                   help="window size in cycles")
    p.add_argument("--top", type=int, default=2)
    p.add_argument("--divergence", type=float, default=0.4)
    _add_run_args(p)

    args = parser.parse_args(argv)
    handler = {
        "list": _cmd_list,
        "report": _cmd_report,
        "case-study": _cmd_case_study,
        "overhead": _cmd_overhead,
        "breakdown": _cmd_breakdown,
        "annotate": _cmd_annotate,
        "diff": _cmd_diff,
        "analyze": _cmd_analyze,
        "pgo": _cmd_pgo,
        "xen": _cmd_xen,
        "timeline": _cmd_timeline,
        "lint": _cmd_lint,
        "recover": _cmd_recover,
        "index": _cmd_index,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # `viprof ... | head` closed the pipe: exit quietly like any
        # Unix tool.  Point stdout at devnull so the interpreter's
        # final flush does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
