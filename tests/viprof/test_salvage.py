"""Salvage's scan for the newest sample epoch, on torn sample files.

A dry run diagnoses a torn file without truncating it, so the epoch scan
reads only the whole records in front of the tear, in either record
layout.
"""

import pytest

from repro.profiling.model import RawSample
from repro.profiling.record_codec import CORE_CODEC, DOMAIN_CODEC, RecordFileWriter
from repro.viprof import salvage
from repro.viprof.salvage import ACTION_TRUNCATED, salvage_session

EV = "GLOBAL_POWER_EVENTS"
#: The epoch tags of the file's whole records: the newest is the last.
EPOCHS = [0, 2, 1, 3, 3, 2, 5, 4, 1, 7]


def write_torn_session(root, codec):
    samples = root / "samples"
    samples.mkdir(parents=True)
    path = samples / f"{EV}.samples"
    raws = [
        RawSample(
            pc=0x1000 + 4 * i, event_name=EV, task_id=7, kernel_mode=False,
            cycle=100 * i, epoch=epoch,
        )
        for i, epoch in enumerate(EPOCHS)
    ]
    with RecordFileWriter(path, codec, EV, 90_000) as w:
        w.write_batch(raws, [1] * len(raws) if codec.has_domain else None)
    # A crash mid-spill: the start of one more record, with a newer epoch
    # that never fully reached the disk.
    tail = codec.pack(
        RawSample(pc=0x9000, event_name=EV, task_id=7, kernel_mode=False,
                  cycle=99_999, epoch=50),
        1 if codec.has_domain else None,
    )
    with open(path, "ab") as fh:
        fh.write(tail[: codec.record_size - 3])
    return path


@pytest.mark.parametrize("codec", [CORE_CODEC, DOMAIN_CODEC], ids=["vprs", "xprs"])
@pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "repair"])
@pytest.mark.parametrize("scan_records", [32768, 4, 3])
def test_top_epoch_from_last_whole_record(
    tmp_path, monkeypatch, codec, dry_run, scan_records
):
    monkeypatch.setattr(salvage, "_EPOCH_SCAN_RECORDS", scan_records)
    path = write_torn_session(tmp_path, codec)
    size = path.stat().st_size

    manifest = salvage_session(tmp_path, dry_run=dry_run)

    (entry,) = manifest.sample_files
    assert entry.action == ACTION_TRUNCATED
    assert entry.records_kept == len(EPOCHS)
    assert manifest.top_epoch == max(EPOCHS) == EPOCHS[-1]
    # No map survived, so every epoch the samples reached is a barrier.
    assert manifest.quarantined_epochs == tuple(range(max(EPOCHS) + 1))
    if dry_run:
        assert path.stat().st_size == size
    else:
        assert path.stat().st_size == size - (codec.record_size - 3)
