"""Stock OProfile post-processing (``opreport``).

A thin composition over the streaming pipeline (:mod:`repro.pipeline`):
the session's sample files stream through the stock resolver chain —
kernel PCs against the ``vmlinux`` symbol table, then user PCs through
the owning task's VMA set (file-backed mappings through their image's
ELF symbols, anonymous mappings to an ``anon (range:...)`` label with
``(no symbols)``).

That last line is the paper's Figure 1 (bottom): the JVM heap — all JIT
code — and any stripped images stay opaque.  VIProf's post-processor
(:mod:`repro.viprof.postprocess`) composes a longer chain; the resolution
logic itself lives in :mod:`repro.pipeline.stages`, not here.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.os.kernel import Kernel
from repro.pipeline import opreport_chain
from repro.pipeline.aggregate import run_pipeline
from repro.pipeline.resolver import ResolverChain
from repro.pipeline.source import DirectorySource, as_pipeline_sample
from repro.pipeline.stages import UNKNOWN_IMAGE
from repro.profiling.model import RawSample, ResolvedSample
from repro.profiling.report import ProfileReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.profiling.annotate import SymbolAnnotation

__all__ = ["OpReport", "UNKNOWN_IMAGE"]


class OpReport:
    """Post-processor over a directory of per-event sample files.

    ``self.chain`` is the resolver chain the report is built from;
    subclasses override :meth:`_build_chain` (not resolution methods) to
    extend resolution, and the chain's per-stage counters
    (``self.chain.stats_dict()``) travel with every report flavour.
    """

    def __init__(self, kernel: Kernel, sample_dir: Path | str) -> None:
        self.kernel = kernel
        self.source = DirectorySource(sample_dir)
        self.sample_dir = self.source.sample_dir
        self.chain = self._build_chain()

    def _build_chain(self) -> ResolverChain:
        """Stock opreport resolution: kernel symbols, then task VMAs."""
        return opreport_chain(self.kernel)

    # ------------------------------------------------------------------

    def iter_samples(self) -> Iterator[RawSample]:
        """Stream every sample from every event file, in file order."""
        for ps in self.source:
            yield ps.raw

    def read_samples(self) -> list[RawSample]:
        """Load every sample from every event file, in file order.

        Prefer :meth:`iter_samples` / :meth:`resolved_samples` — this
        materializes the whole stream and exists for callers that need
        random access.
        """
        return list(self.iter_samples())

    def event_names(self) -> tuple[str, ...]:
        """Event column order: the time event first (as the paper's tables
        print it), then the rest alphabetically."""
        return self.source.event_names()

    # ------------------------------------------------------------------

    def resolve(self, sample: RawSample) -> ResolvedSample:
        """Symbolize one sample through the report's resolver chain."""
        return self.chain.resolve(as_pipeline_sample(sample))

    def resolved_samples(self) -> Iterator[ResolvedSample]:
        """Stream the session's samples through the resolver chain."""
        return self.chain.resolve_stream(self.source)

    # ------------------------------------------------------------------

    def annotate(
        self,
        image: str,
        symbol: str,
        bucket_bytes: int = 16,
        expansion: int | None = None,
    ) -> "SymbolAnnotation":
        """Within-symbol offset histogram (``opannotate``).

        See :func:`repro.profiling.annotate.annotate_symbol`.
        """
        from repro.profiling.annotate import annotate_symbol

        return annotate_symbol(
            self.resolved_samples(), image, symbol,
            bucket_bytes=bucket_bytes, expansion=expansion,
        )

    def generate(
        self,
        events: tuple[str, ...] | None = None,
        pid: int | None = None,
        workers: int | str = 1,
    ) -> ProfileReport:
        """Build the symbol-level report in one streaming pass.

        Args:
            events: column order; defaults to the on-disk event order.
            pid: restrict to one task (``opreport`` image separation);
                kernel-mode samples are kept, as OProfile does.
            workers: shard the session's sample files across this many
                worker processes (output is byte-identical to ``1``);
                ``"auto"`` sizes the pool from the machine's core count.
                The ``pid`` filter reaches every worker.
        """
        return run_pipeline(
            self.source,
            self.chain,
            events=events or self.event_names(),
            workers=workers,
            pid=pid,
        )
