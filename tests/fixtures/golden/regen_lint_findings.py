#!/usr/bin/env python
"""Regenerate ``lint_findings.json`` — the golden findings of every lint
fixture session.

The fixture holds the full findings, in report order, of 21 targets:

* the four checked-in sessions under ``tests/fixtures/`` (linted at
  their root; the fleet session's sub-session load findings propagate);
* a freshly generated clean session and its six seeded corruptions
  (``python -m repro.statcheck.fixtures``);
* the damaged-and-salvaged session (``--damaged``);
* both fleet corruptions and the damaged fleet session
  (``--fleet-damaged``), each at its root and in each ``dom<N>``.

Every finding is stored as severity, rule id, artifact, location and
message, with the linted session directory replaced by ``<session>`` in
every field (some messages embed absolute map paths).
``tests/statcheck/test_golden_findings.py`` regenerates the sessions and
compares, so a change to how statcheck reads a session cannot move a
finding unnoticed.

Run from the repo root::

    PYTHONPATH=src python tests/fixtures/golden/regen_lint_findings.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.statcheck.analyzer import lint_session  # noqa: E402
from repro.statcheck.fixtures import (  # noqa: E402
    CORRUPTIONS,
    FLEET_CORRUPTIONS,
    write_all_fixtures,
    write_damaged_fixture_session,
    write_fleet_damaged_fixture_session,
    write_fleet_fixture_session,
)

GOLDEN = HERE / "lint_findings.json"
FIXTURES = REPO_ROOT / "tests" / "fixtures"

#: The checked-in fixture sessions, linted in place.
CHECKED_IN = (
    "lint-session",
    "lint-session-batched",
    "lint-session-damaged",
    "lint-session-fleet-damaged",
)

#: Guest domains of the generated fleet sessions.
FLEET_DOMAINS = (1, 2)

PLACEHOLDER = "<session>"


def lint_target(session_dir: Path) -> list[dict[str, str]]:
    """``session_dir``'s findings in report order, its path replaced by
    :data:`PLACEHOLDER`."""
    path = str(session_dir)

    def scrub(value: str) -> str:
        return value.replace(path, PLACEHOLDER)

    return [
        {k: scrub(v) for k, v in f.to_dict().items()}
        for f in lint_session(session_dir)
    ]


def lint_targets(work: Path) -> dict[str, list[dict[str, str]]]:
    """Generate every fixture session under ``work`` and lint all 21
    targets, keyed by target name."""
    targets: dict[str, Path] = {
        f"checked-in/{name}": FIXTURES / name for name in CHECKED_IN
    }
    for name, path in write_all_fixtures(work / "single").items():
        targets[f"generated/{name}"] = path
    targets["generated/damaged"] = write_damaged_fixture_session(
        work / "damaged"
    )
    fleets = {
        f"fleet-{c}": write_fleet_fixture_session(work / f"fleet-{c}", c)
        for c in FLEET_CORRUPTIONS
    }
    fleets["fleet-damaged"] = write_fleet_damaged_fixture_session(
        work / "fleet-damaged"
    )
    for name, root in fleets.items():
        targets[f"generated/{name}"] = root
        for did in FLEET_DOMAINS:
            targets[f"generated/{name}/dom{did}"] = root / f"dom{did}"
    assert len(targets) == len(CHECKED_IN) + 1 + len(CORRUPTIONS) + 1 + 9
    return {name: lint_target(path) for name, path in targets.items()}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="lint-golden-") as tmp:
        doc = {"targets": lint_targets(Path(tmp))}
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    n = sum(len(v) for v in doc["targets"].values())
    print(f"wrote {GOLDEN} ({len(doc['targets'])} targets, {n} findings)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
