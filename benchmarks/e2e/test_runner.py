"""The op loop: failures are counted, not fatal, and temp files stay
inside the op's own directory."""

from __future__ import annotations

import tempfile
from pathlib import Path
from types import SimpleNamespace

from benchmarks.e2e.runner import run_ops


class Flaky:
    """Op 2 returns a corrupted output, op 4 raises."""

    name = "flaky"

    def __init__(self) -> None:
        self.calls = 0
        self.tempdirs: list[str] = []

    def op(self):
        self.calls += 1
        self.tempdirs.append(tempfile.mkdtemp())
        if self.calls == 4:
            raise RuntimeError("boom")
        return self.calls

    def inspect(self, out):
        return SimpleNamespace(
            digest="corrupt" if out == 2 else "ref", work={"n": 1}, problems=[]
        )


def test_failed_ops_count_toward_error_rate_and_do_not_abort(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)
    wl = Flaky()
    records = run_ops(wl, tmp_path, "ref", max_ops=5, seconds=None)

    assert [r.ok for r in records] == [True, False, True, False, True]
    assert [r.completed for r in records] == [True, True, True, False, True]
    assert "digest corrupt" in records[1].problems[0]
    assert "RuntimeError: boom" in records[3].problems[0]
    # Each op ran in its own temp dir under the scratch dir, removed after.
    assert len(set(wl.tempdirs)) == 5
    for d in map(Path, wl.tempdirs):
        assert d.parent.parent == tmp_path
        assert not d.parent.exists()
