#!/usr/bin/env python
"""Regenerate ``session_hashes.json`` — the golden per-file digests of two
seeded, deterministic profiling sessions.

The fixture was captured from the **per-sample** write path (pre-batching);
``tests/system/test_golden_session.py`` replays the same runs through the
current collection path and asserts every session file hashes identically,
which pins the batched writers to byte parity with the sequential ones.

Run from the repo root::

    PYTHONPATH=src python tests/fixtures/golden/regen_session_hashes.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.system.api import viprof_profile  # noqa: E402
from repro.workloads import by_name  # noqa: E402
from repro.xen import GuestSpec, MultiStackEngine  # noqa: E402

VIPROF_PARAMS = dict(period=90_000, time_scale=0.1, seed=7)
XEN_PARAMS = dict(period=30_000, time_scale=0.08, seed=7)


def hash_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by POSIX relative path."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def viprof_session_hashes() -> dict[str, str]:
    with tempfile.TemporaryDirectory(prefix="viprof-fop-") as session_dir:
        viprof_profile(
            by_name("fop"), **VIPROF_PARAMS, session_dir=Path(session_dir)
        )
        return hash_tree(Path(session_dir))


def xen_session_hashes() -> dict[str, str]:
    with tempfile.TemporaryDirectory(prefix="xenoprof-") as session_dir:
        engine = MultiStackEngine(
            [GuestSpec(by_name("fop")), GuestSpec(by_name("ps"), weight=512)],
            **XEN_PARAMS,
            session_dir=session_dir,
        )
        result = engine.run()
        result.save_samples()
        return hash_tree(result.session_dir)


def main() -> int:
    payload = {
        "viprof_fop": {"params": VIPROF_PARAMS, "files": viprof_session_hashes()},
        "xen_fop_ps": {"params": XEN_PARAMS, "files": xen_session_hashes()},
    }
    out = HERE / "session_hashes.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
