"""Engine-level golden parity: batched sessions hash like the fixtures.

``tests/fixtures/golden/session_hashes.json`` holds per-file sha256
digests of two seeded deterministic sessions captured from the
**per-sample** write path (see ``tests/fixtures/golden/
regen_session_hashes.py``).  Replaying the same runs through the current
(batched) collection path must reproduce every session file byte for
byte — sample files, jit maps, everything the session directory holds.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.system.api import viprof_profile
from repro.workloads import by_name
from repro.xen import GuestSpec, MultiStackEngine

GOLDEN = (
    Path(__file__).resolve().parents[1]
    / "fixtures" / "golden" / "session_hashes.json"
)


def hash_tree(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(
            p.read_bytes()
        ).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_viprof_session_matches_golden(golden, tmp_path):
    params = golden["viprof_fop"]["params"]
    viprof_profile(
        by_name("fop"),
        period=params["period"],
        time_scale=params["time_scale"],
        seed=params["seed"],
        session_dir=tmp_path,
    )
    assert hash_tree(tmp_path) == golden["viprof_fop"]["files"]


def test_xen_session_matches_golden(golden, tmp_path):
    params = golden["xen_fop_ps"]["params"]
    engine = MultiStackEngine(
        [GuestSpec(by_name("fop")), GuestSpec(by_name("ps"), weight=512)],
        period=params["period"],
        time_scale=params["time_scale"],
        session_dir=tmp_path,
        seed=params["seed"],
    )
    result = engine.run()
    result.save_samples()
    assert hash_tree(result.session_dir) == golden["xen_fop_ps"]["files"]
