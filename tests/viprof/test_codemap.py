"""Unit tests for epoch code maps and backward resolution."""

import re

import pytest

from repro.errors import CodeMapError
from repro.viprof.codemap import (
    CodeMap,
    CodeMapIndex,
    CodeMapRecord,
    CodeMapWriter,
    map_files,
    parse_map,
)


def rec(addr, size=0x100, name="a.B.m", tier="baseline"):
    return CodeMapRecord(address=addr, size=size, tier=tier, name=name)


class TestCodeMapRecord:
    def test_validation(self):
        with pytest.raises(CodeMapError):
            rec(0)
        with pytest.raises(CodeMapError):
            CodeMapRecord(address=0x1000, size=0, tier="O1", name="x")

    def test_contains(self):
        r = rec(0x1000, 0x100)
        assert r.contains(0x1000)
        assert r.contains(0x10FF)
        assert not r.contains(0x1100)

    def test_line_roundtrip(self):
        r = CodeMapRecord(
            address=0x60812340, size=0x420, tier="O1",
            name="org.example.app.Scanner.parseLine",
        )
        assert CodeMapRecord.from_line(r.to_line()) == r

    def test_name_with_spaces_roundtrips(self):
        r = CodeMapRecord(
            address=0x1000, size=0x10, tier="O0", name="weird name (x)"
        )
        assert CodeMapRecord.from_line(r.to_line()) == r

    def test_malformed_line_rejected(self):
        with pytest.raises(CodeMapError, match="malformed"):
            CodeMapRecord.from_line("not a map line")

    def test_moved_flag_roundtrips(self):
        r = CodeMapRecord(
            address=0x6081_0000, size=0x420, tier="O1",
            name="org.example.app.Scanner.parseLine", moved=True,
        )
        assert "/M" in r.to_line()
        assert CodeMapRecord.from_line(r.to_line()) == r

    def test_unmoved_record_keeps_legacy_format(self):
        r = CodeMapRecord(address=0x1000, size=0x10, tier="O0", name="m")
        assert "/M" not in r.to_line()
        legacy = CodeMapRecord.from_line(r.to_line())
        assert legacy.moved is False


class TestCodeMapWriterAndLoad:
    def test_write_and_load(self, tmp_path):
        w = CodeMapWriter(tmp_path)
        path = w.write(3, [rec(0x2000), rec(0x1000, name="c.D.n")])
        cm = CodeMap.load(path)
        assert cm.epoch == 3
        assert len(cm) == 2
        assert cm.records[0].address == 0x1000  # sorted

    def test_duplicate_epoch_rejected(self, tmp_path):
        w = CodeMapWriter(tmp_path)
        w.write(1, [rec(0x1000)])
        with pytest.raises(CodeMapError, match="already written"):
            w.write(1, [rec(0x2000)])

    def test_negative_epoch_rejected(self, tmp_path):
        with pytest.raises(CodeMapError):
            CodeMapWriter(tmp_path).write(-1, [])

    def test_empty_map_allowed(self, tmp_path):
        w = CodeMapWriter(tmp_path)
        cm = CodeMap.load(w.write(0, []))
        assert len(cm) == 0

    def test_stats(self, tmp_path):
        w = CodeMapWriter(tmp_path)
        w.write(0, [rec(0x1000)])
        w.write(1, [rec(0x2000), rec(0x3000)])
        assert w.maps_written == 2
        assert w.records_written == 3

    def test_overlapping_records_rejected_on_load(self, tmp_path):
        with pytest.raises(CodeMapError, match="overlap"):
            CodeMap(0, [rec(0x1000, 0x200), rec(0x1100, 0x100, name="x.Y.z")])

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "jit-map.00009"
        p.write_text("bogus\n")
        with pytest.raises(CodeMapError, match="bad header"):
            CodeMap.load(p)


class TestCodeMapIndex:
    def build_index(self, tmp_path):
        w = CodeMapWriter(tmp_path)
        # Epoch 0: method M at 0x1000; method N at 0x5000.
        w.write(0, [rec(0x1000, 0x100, "M"), rec(0x5000, 0x100, "N")])
        # Epoch 1: M moved to 0x2000 (0x1000 is stale).
        w.write(1, [rec(0x2000, 0x100, "M")])
        # Epoch 2: new method P compiled at 0x1000 (address recycled!).
        w.write(2, [rec(0x1000, 0x100, "P")])
        return CodeMapIndex.load_dir(tmp_path)

    def test_load_dir(self, tmp_path):
        idx = self.build_index(tmp_path)
        assert idx.epochs == (0, 1, 2)

    def test_resolve_in_own_epoch(self, tmp_path):
        idx = self.build_index(tmp_path)
        record, epoch = idx.resolve(2, 0x1050)
        assert record.name == "P" and epoch == 2

    def test_backward_traversal(self, tmp_path):
        idx = self.build_index(tmp_path)
        # N never moved after epoch 0: a sample in epoch 2 at N's address
        # must walk back to epoch 0.
        record, epoch = idx.resolve(2, 0x5010)
        assert record.name == "N" and epoch == 0

    def test_epoch_scoping_prevents_future_maps(self, tmp_path):
        idx = self.build_index(tmp_path)
        # A sample from epoch 0 at 0x1000 is M, not P (epoch 2 is later).
        record, epoch = idx.resolve(0, 0x1040)
        assert record.name == "M" and epoch == 0

    def test_address_recycling_resolves_most_recent(self, tmp_path):
        idx = self.build_index(tmp_path)
        # Sample in epoch 1 at 0x1000: not in map 1, map 0 has M.
        record, epoch = idx.resolve(1, 0x1000)
        assert record.name == "M"

    def test_unknown_address_returns_none(self, tmp_path):
        idx = self.build_index(tmp_path)
        assert idx.resolve(2, 0x9999_0000) is None

    def test_epoch_beyond_maps_clamped(self, tmp_path):
        idx = self.build_index(tmp_path)
        record, _ = idx.resolve(50, 0x1020)
        assert record.name == "P"

    def test_negative_epoch_searches_from_latest(self, tmp_path):
        idx = self.build_index(tmp_path)
        record, _ = idx.resolve(-1, 0x1020)
        assert record.name == "P"

    def test_empty_index(self, tmp_path):
        idx = CodeMapIndex.load_dir(tmp_path)
        assert idx.resolve(0, 0x1000) is None

    def test_missing_epoch_files_skipped(self, tmp_path):
        w = CodeMapWriter(tmp_path)
        w.write(0, [rec(0x1000, 0x100, "M")])
        w.write(5, [rec(0x2000, 0x100, "Q")])
        idx = CodeMapIndex.load_dir(tmp_path)
        record, epoch = idx.resolve(5, 0x1050)
        assert record.name == "M" and epoch == 0

    def test_filename_epoch_mismatch_rejected(self, tmp_path):
        w = CodeMapWriter(tmp_path)
        p = w.write(3, [rec(0x1000)])
        p.rename(tmp_path / "jit-map.00007")
        with pytest.raises(CodeMapError, match="filename epoch"):
            CodeMapIndex.load_dir(tmp_path)

    def test_undecodable_map_rejected(self, tmp_path):
        p = CodeMapWriter(tmp_path).write(0, [rec(0x1000)])
        p.write_bytes(p.read_bytes() + b"\xff\n")
        with pytest.raises(CodeMapError, match="jit-map.00000.*UTF-8"):
            CodeMapIndex.load_dir(tmp_path)

    def test_non_map_files_ignored(self, tmp_path):
        w = CodeMapWriter(tmp_path)
        w.write(0, [rec(0x1000)])
        (tmp_path / "README").write_text("not a map")
        idx = CodeMapIndex.load_dir(tmp_path)
        assert idx.epochs == (0,)


class TestWalkPurity:
    """The backward walk keeps no state between calls: repeated and
    ablated walks are pure functions of ``(epoch, addr, backward)``."""

    def index(self) -> CodeMapIndex:
        return CodeMapIndex({
            0: CodeMap(0, [rec(0x1000, 0x10, "m.zero", "O1")]),
            1: CodeMap(1, [rec(0x2000, 0x10, "m.one", "O1")]),
            3: CodeMap(3, [rec(0x3000, 0x10, "m.three", "O1")]),
        })

    def test_repeated_walks_match_fresh_index(self):
        warm = self.index()
        for _ in range(2):  # the second round repeats every walk
            for epoch in (0, 1, 2, 3, 9):
                for addr in (0x1008, 0x2008, 0x3008, 0x9999):
                    fresh = self.index().resolve(epoch, addr)
                    assert warm.resolve(epoch, addr) == fresh

    def test_ablation_keys_separately(self):
        idx = self.index()
        assert idx.resolve(3, 0x1008, backward=True) is not None
        # Same (top, addr) with backward=False is a different walk.
        assert idx.resolve(3, 0x1008, backward=False) is None


class TestParseMap:
    """The one map parser: tolerant, and strict through CodeMap.load."""

    def write(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_keeps_going_past_every_problem(self, tmp_path):
        p = self.write(
            tmp_path, "jit-map.00009",
            "# viprof code map epoch 3\n"
            + rec(0x1000).to_line() + "\n"
            "garbage\n"
            + rec(0x2000).to_line() + "\n",
        )
        epoch, records, problems = parse_map(p)
        assert epoch == 3
        assert [r.address for r in records] == [0x1000, 0x2000]
        assert problems == [
            ("line 1", "filename epoch 9 != header epoch 3"),
            ("line 3", "malformed code-map line: 'garbage'"),
        ]
        with pytest.raises(CodeMapError) as e:
            CodeMap.load(p)
        assert str(e.value) == (
            f"{p}: epoch 3: line 1: filename epoch 9 != header epoch 3"
        )

    def test_strict_malformed_line_wording(self, tmp_path):
        # Salvage manifests record this text; it must not drift.
        p = self.write(
            tmp_path, "jit-map.00001", "# viprof code map epoch 1\n0x6"
        )
        with pytest.raises(CodeMapError) as e:
            CodeMap.load(p)
        assert str(e.value) == (
            f"{p}: epoch 1: line 2: malformed code-map line: '0x6'"
        )

    @pytest.mark.parametrize("blob, problem", [
        (b"", ("line 1", "empty map file")),
        (b"bogus\n", ("line 1", "bad header 'bogus'")),
        (b"\xff\n", ("-", "unreadable map file: not UTF-8 text")),
    ])
    def test_unusable_file_has_no_epoch(self, tmp_path, blob, problem):
        p = tmp_path / "jit-map.00000"
        p.write_bytes(blob)
        epoch, records, problems = parse_map(p)
        assert (epoch, records, len(problems)) == (None, [], 1)
        assert problems[0][0] == problem[0]
        assert problems[0][1].startswith(problem[1])
        strict = re.escape(f"{p}: {problem[1]}")
        with pytest.raises(CodeMapError, match=strict):
            CodeMap.load(p)

    def test_map_files_lists_only_maps(self, tmp_path):
        w = CodeMapWriter(tmp_path)
        w.write(2, [rec(0x1000)])
        w.write(0, [rec(0x1000)])
        (tmp_path / "README").write_text("not a map")
        (tmp_path / "jit-map.7").write_text("short name")
        (tmp_path / "quarantine").mkdir()
        (tmp_path / "quarantine" / "jit-map.00001").write_text("torn")
        assert map_files(tmp_path) == [
            (0, tmp_path / "jit-map.00000"),
            (2, tmp_path / "jit-map.00002"),
        ]
