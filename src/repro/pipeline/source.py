"""Sample sources — the streaming input side of the resolution pipeline.

A *source* is anything iterable that yields :class:`PipelineSample`: the
core sample record plus the optional domain tag.  Sources never
materialize the sample stream; files are decoded chunk by chunk through
the shared record codec (:mod:`repro.profiling.record_codec`), so the
pipeline's memory use is constant in the number of samples.

Three sources cover every consumer in the tree:

* :class:`DirectorySource` — a session's per-event sample files
  (``opreport``/VIProf post-processing, any codec mix);
* :func:`file_source` — one sample file of any registered format;
* :func:`iter_pipeline_samples` — adapts in-memory streams
  (:class:`~repro.profiling.model.RawSample` iterables, XenoProf buffers)
  into the pipeline's sample shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import ProfilerError
from repro.profiling.model import RawSample
from repro.profiling.record_codec import open_sample_record_file

__all__ = [
    "PipelineSample",
    "as_pipeline_sample",
    "iter_pipeline_samples",
    "sample_key",
    "file_source",
    "DirectorySource",
]


@dataclass(frozen=True, slots=True)
class PipelineSample:
    """One sample flowing through the pipeline.

    ``domain_id`` is None for single-stack profiles; multi-stack (Xen)
    streams tag each sample with the domain that was running, and the
    domain-dispatch stage routes on it.
    """

    raw: RawSample
    domain_id: int | None = None


def as_pipeline_sample(obj: object) -> PipelineSample:
    """Coerce a raw sample, a domain-tagged sample (anything with ``raw``
    and ``domain_id`` attributes, e.g. ``XenoSample``), or an existing
    :class:`PipelineSample` into the pipeline's sample shape."""
    if isinstance(obj, PipelineSample):
        return obj
    if isinstance(obj, RawSample):
        return PipelineSample(raw=obj)
    raw = getattr(obj, "raw", None)
    if isinstance(raw, RawSample):
        return PipelineSample(raw=raw, domain_id=getattr(obj, "domain_id", None))
    raise ProfilerError(f"cannot adapt {obj!r} into a pipeline sample")


def sample_key(sample: PipelineSample) -> tuple:
    """The sample's resolution key, ``(pc, epoch, kernel_mode, task_id,
    domain_id)``: everything any stage reads from a sample.  ``cycle``
    and ``event_name`` are not in it, because no stage reads them.

    **Why grouping by key is sound.**  The pipeline resolves each
    distinct key once and counts the result for every sample that shares
    it (:meth:`~repro.pipeline.resolver.ResolverChain.resolve_groups`).
    That is exact because every input a stage consults is immutable
    during a post-processing pass: symbol tables, VMA sets and boot-image
    maps are the session's final snapshot, and the epoch code maps are
    immutable *per epoch* — the backward epoch walk for ``(epoch, pc)``
    can never change once the session's maps are on disk.  The one
    time-varying input the profiler tracks (which JIT method occupied an
    address) is exactly what the epoch stamp captures, so with ``epoch``
    in the key even an ``(unresolved jit)`` verdict is final: map *e* and
    everything below it will never gain the address.  ``domain_id`` keeps
    multi-stack (Xen) streams from aliasing across guests.
    """
    raw = sample.raw
    return (raw.pc, raw.epoch, raw.kernel_mode, raw.task_id, sample.domain_id)


def iter_pipeline_samples(samples: Iterable[object]) -> Iterator[PipelineSample]:
    """Stream any mix of sample shapes as :class:`PipelineSample`."""
    for s in samples:
        yield as_pipeline_sample(s)


def file_source(path: Path | str) -> Iterator[PipelineSample]:
    """Stream one sample file of any registered codec (magic-sniffed).

    The reader is a context manager; its handle is released as soon as
    the file is drained (or the generator is closed early).
    """
    with open_sample_record_file(path) as reader:
        for record in reader:
            yield PipelineSample(raw=record.sample, domain_id=record.domain_id)


class DirectorySource:
    """Streams every sample from a session's per-event sample files.

    Files are visited in sorted name order and decoded through the codec
    registry, so a directory may mix core and domain-tagged files.  The
    source is re-iterable; each iteration re-opens the files.
    """

    def __init__(self, sample_dir: Path | str) -> None:
        self.sample_dir = Path(sample_dir)
        if not self.sample_dir.is_dir():
            raise ProfilerError(f"no sample directory {self.sample_dir}")

    def paths(self) -> list[Path]:
        paths = sorted(self.sample_dir.glob("*.samples"))
        if not paths:
            raise ProfilerError(f"no sample files in {self.sample_dir}")
        return paths

    def __iter__(self) -> Iterator[PipelineSample]:
        for path in self.paths():
            yield from file_source(path)

    def event_names(self) -> tuple[str, ...]:
        """Event column order: the time event first (as the paper's tables
        print it), then the rest alphabetically."""
        names = []
        for p in self.paths():
            with open_sample_record_file(p) as reader:
                names.append(reader.event_name)
        return tuple(
            sorted(names, key=lambda n: (n != "GLOBAL_POWER_EVENTS", n))
        )
