"""Artifact-analyzer front end (drives ``viprof lint``).

Fleet-scale: ``viprof lint`` accepts any number of session directories
(or shell-style globs), lints them in parallel worker processes, and
keeps an incremental cache keyed by session content hash so unchanged
sessions are never re-analyzed.  Findings can be gated (``--fail-on``),
baselined (``--baseline`` / ``--write-baseline``,
:mod:`repro.statcheck.baseline`), and rendered as text, JSON, or SARIF
for CI ingestion (:mod:`repro.statcheck.sarif`).

Importable API (:func:`lint_session`, :func:`lint_sessions`) for tests
and tooling; :func:`main` backs both the ``viprof lint`` subcommand and
``python -m repro.statcheck.analyzer``.
"""

from __future__ import annotations

import argparse
import glob as _glob
import hashlib
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import StatCheckError
from repro.statcheck import baseline as _baseline
from repro.statcheck.artifacts import load_session
from repro.statcheck.findings import Finding, FindingReport, Severity
from repro.statcheck.rules import all_rules, run_rules

__all__ = ["lint_session", "lint_sessions", "main"]

#: Bump to invalidate every cache entry when lint semantics change in a
#: way the rule-id key cannot see (artifact loading, finding fields...).
#: 2: VP103 reads a live session's registration from ``summary.json``,
#: and malformed maps are worded by the one map parser.
CACHE_SCHEMA = 2


def lint_session(
    session_dir: Path | str,
    rule_ids: Iterable[str] | None = None,
) -> FindingReport:
    """Statically verify one session directory; returns all findings."""
    return run_rules(load_session(session_dir), rule_ids=rule_ids)


# ----------------------------------------------------------------------
# fleet path: many sessions, worker processes, incremental cache
# ----------------------------------------------------------------------


def expand_session_args(patterns: Sequence[str]) -> list[Path]:
    """Expand globs and dedupe; order is the command-line order (glob
    matches sorted).  A glob matching nothing is a usage error — a fleet
    sweep silently linting zero sessions must not report success."""
    out: list[Path] = []
    seen: set[str] = set()
    for pat in patterns:
        if _glob.has_magic(pat):
            matches = sorted(p for p in _glob.glob(pat) if Path(p).is_dir())
            if not matches:
                raise StatCheckError(
                    f"{pat}: no session directories match this pattern"
                )
            candidates = [Path(m) for m in matches]
        else:
            candidates = [Path(pat)]
        for p in candidates:
            key = p.resolve().as_posix() if p.exists() else str(p)
            if key not in seen:
                seen.add(key)
                out.append(p)
    return out


def _session_content_hash(session_dir: Path) -> str:
    """Content hash over every file in the session (names + bytes)."""
    h = hashlib.sha256()
    for p in sorted(session_dir.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(session_dir).as_posix().encode())
            h.update(b"\0")
            h.update(p.read_bytes())
            h.update(b"\0")
    return h.hexdigest()


def _rules_cache_key(rule_ids: Iterable[str] | None) -> str:
    selected = (
        ",".join(sorted(rule_ids))
        if rule_ids is not None
        else "*" + ",".join(r.rule_id for r in all_rules())
    )
    return f"s{CACHE_SCHEMA}:{selected}"


def _load_cache(path: Path) -> dict:
    empty = {"version": CACHE_SCHEMA, "sessions": {}}
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return empty  # missing/corrupt cache: just a cold start
    if (
        not isinstance(doc, dict)
        or doc.get("version") != CACHE_SCHEMA
        or not isinstance(doc.get("sessions"), dict)
    ):
        return empty
    return doc


def _lint_session_worker(
    payload: tuple[str, tuple[str, ...] | None],
) -> list[dict]:
    """Worker entry: lint one session, return findings as plain dicts
    (picklable, and the same shape the cache stores)."""
    session_dir, rule_ids = payload
    report = lint_session(
        session_dir, rule_ids=list(rule_ids) if rule_ids else None
    )
    return [f.to_dict() for f in report]


def lint_sessions(
    session_dirs: Sequence[Path | str],
    rule_ids: Iterable[str] | None = None,
    workers: int = 1,
    cache_path: Path | str | None = None,
) -> FindingReport:
    """Lint many sessions; returns one merged report in input order.

    ``workers > 1`` fans sessions out over a process pool (fork-first,
    mirroring the shard-resolution pool in ``pipeline/parallel.py``);
    findings are merged in session order, so the output is identical to
    a sequential run.  ``cache_path`` enables the incremental cache:
    a session whose content hash and rule selection match a cached entry
    is not re-linted.
    """
    dirs = [Path(d) for d in session_dirs]
    rule_key = _rules_cache_key(rule_ids)
    rule_tuple = tuple(rule_ids) if rule_ids is not None else None

    cache: dict | None = None
    hashes: dict[int, str] = {}
    results: dict[int, list[Finding]] = {}
    if cache_path is not None:
        cache = _load_cache(Path(cache_path))
        for i, d in enumerate(dirs):
            if not d.is_dir():
                continue  # let the real load path produce the error
            h = _session_content_hash(d)
            hashes[i] = h
            entry = cache["sessions"].get(d.resolve().as_posix())
            if (
                isinstance(entry, dict)
                and entry.get("hash") == h
                and entry.get("rules") == rule_key
                and isinstance(entry.get("findings"), list)
            ):
                results[i] = [
                    Finding.from_dict(f) for f in entry["findings"]
                ]

    to_run = [i for i in range(len(dirs)) if i not in results]
    raw: dict[int, list[dict]] = {}
    if workers > 1 and len(to_run) > 1:
        method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        ctx = multiprocessing.get_context(method)
        payloads = [(str(dirs[i]), rule_tuple) for i in to_run]
        with ProcessPoolExecutor(
            max_workers=min(workers, len(to_run)), mp_context=ctx
        ) as pool:
            for i, dicts in zip(to_run, pool.map(_lint_session_worker, payloads)):
                raw[i] = dicts
    else:
        for i in to_run:
            raw[i] = _lint_session_worker((str(dirs[i]), rule_tuple))

    for i, dicts in raw.items():
        results[i] = [Finding.from_dict(f) for f in dicts]

    if cache is not None and cache_path is not None:
        for i in to_run:
            if i in hashes:
                cache["sessions"][dirs[i].resolve().as_posix()] = {
                    "hash": hashes[i],
                    "rules": rule_key,
                    "findings": [f.to_dict() for f in results[i]],
                }
        Path(cache_path).write_text(
            json.dumps(cache, indent=2) + "\n", encoding="utf-8"
        )

    merged = FindingReport()
    for i in range(len(dirs)):
        merged.findings.extend(results[i])
    return merged


# ----------------------------------------------------------------------
# command-line front end
# ----------------------------------------------------------------------


def _format_rule_table() -> str:
    lines = [f"{'id':<7}{'name':<22}{'severity':<9} description"]
    for r in all_rules():
        lines.append(
            f"{r.rule_id:<7}{r.name:<22}{r.severity.value:<9} "
            f"{r.description}"
        )
    return "\n".join(lines)


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Install the lint options (shared by ``viprof lint`` and ``-m``)."""
    parser.add_argument(
        "session_dirs", nargs="*", metavar="SESSION", default=[],
        help="session directories or globs (live or archived)",
    )
    parser.add_argument(
        "--rules", default=None, metavar="ID[,ID...]",
        help="run only these comma-separated rule ids (default: all)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="lint sessions in N parallel worker processes (default: 1)",
    )
    parser.add_argument(
        "--cache", default=None, metavar="FILE",
        help="incremental cache file: sessions whose content hash is "
        "unchanged are not re-linted",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="suppress the findings recorded in this baseline file",
    )
    parser.add_argument(
        "--write-baseline", default=None, metavar="FILE",
        help="record the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit findings as JSON (alias for --format json)",
    )
    parser.add_argument(
        "--fail-on", choices=[s.value for s in Severity], default="error",
        help="lowest severity that makes the exit code nonzero",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )


def _sarif_text(
    report: FindingReport, session_dirs: Sequence[Path]
) -> str:
    from repro.statcheck.sarif import report_to_sarif

    rules_meta = [
        {
            "id": r.rule_id,
            "name": r.name,
            "description": r.description,
            "severity": r.severity,
        }
        for r in all_rules()
    ]
    doc = report_to_sarif(
        report,
        "viprof-lint",
        rules_meta,
        fingerprint=lambda f: _baseline.finding_fingerprint(
            f, session_dirs
        ),
    )
    return json.dumps(doc, indent=2)


def run(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if args.list_rules:
        print(_format_rule_table())
        return 0
    if not args.session_dirs:
        print(
            "viprof lint: at least one session dir (or glob) is "
            "required unless --list-rules",
            file=sys.stderr,
        )
        return 2
    rule_ids = None
    if args.rules is not None:
        rule_ids = [r.strip() for r in args.rules.split(",") if r.strip()]
        if not rule_ids:
            print(
                "viprof lint: --rules given but no rule ids named",
                file=sys.stderr,
            )
            return 2
    if args.workers < 1:
        print("viprof lint: --workers must be >= 1", file=sys.stderr)
        return 2
    try:
        dirs = expand_session_args(args.session_dirs)
        report = lint_sessions(
            dirs,
            rule_ids=rule_ids,
            workers=args.workers,
            cache_path=args.cache,
        )
    except StatCheckError as e:
        print(f"viprof lint: {e}", file=sys.stderr)
        return 2

    if args.write_baseline:
        n = _baseline.write_baseline(args.write_baseline, report, dirs)
        print(
            f"baseline: recorded {n} finding(s) to {args.write_baseline}"
        )
        return 0

    suppressed = 0
    if args.baseline:
        try:
            fingerprints = _baseline.load_baseline(args.baseline)
        except StatCheckError as e:
            print(f"viprof lint: {e}", file=sys.stderr)
            return 2
        report, suppressed = _baseline.apply_baseline(
            report, fingerprints, dirs
        )

    fmt = "json" if args.json else args.format
    if fmt == "json":
        print(report.format_json())
    elif fmt == "sarif":
        print(_sarif_text(report, dirs))
    else:
        print(report.format_text())
        if suppressed:
            print(f"{suppressed} baselined finding(s) suppressed")
    return report.exit_code(fail_on=Severity(args.fail_on))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="viprof lint",
        description="statically verify VIProf sessions' profile "
        "artifacts (code maps, sample files, metadata) — accepts many "
        "sessions, parallel workers, an incremental cache, baselines, "
        "and SARIF output",
    )
    configure_parser(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
