"""Per-process virtual address spaces.

An :class:`AddressSpace` is an ordered, non-overlapping set of
:class:`VMA` records.  This is the structure OProfile's kernel side walks on
every sample: given a PC it finds the covering VMA, and from it either an
``(image, offset)`` pair (file-backed mapping) or an *anonymous region* —
the case that defeats stock OProfile when the region holds JIT code.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum

from repro.errors import AddressSpaceError
from repro.os.binary import BinaryImage

__all__ = ["VmaKind", "VMA", "AddressSpace", "PAGE_SIZE"]

PAGE_SIZE = 0x1000


class VmaKind(Enum):
    """Why a region exists; determines how a profiler labels samples in it."""

    FILE = "file"  # backed by a binary image (exe / shared library)
    ANON = "anon"  # anonymous mmap (JVM heap lives here)
    STACK = "stack"
    VDSO = "vdso"


def _page_align_down(x: int) -> int:
    return x & ~(PAGE_SIZE - 1)


def _page_align_up(x: int) -> int:
    return (x + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


@dataclass(frozen=True, slots=True)
class VMA:
    """One virtual memory area: ``[start, end)``.

    ``image`` and ``image_offset`` are set for FILE mappings only:
    an address ``a`` inside the VMA corresponds to image offset
    ``a - start + image_offset``.
    """

    start: int
    end: int
    kind: VmaKind
    image: BinaryImage | None = None
    image_offset: int = 0

    def __post_init__(self) -> None:
        if self.start % PAGE_SIZE or self.end % PAGE_SIZE:
            raise AddressSpaceError(
                f"VMA [{self.start:#x},{self.end:#x}) not page aligned"
            )
        if self.end <= self.start:
            raise AddressSpaceError(f"empty VMA [{self.start:#x},{self.end:#x})")
        if self.kind is VmaKind.FILE and self.image is None:
            raise AddressSpaceError("FILE VMA requires an image")
        if self.kind is not VmaKind.FILE and self.image is not None:
            raise AddressSpaceError(f"{self.kind} VMA must not carry an image")

    @property
    def size(self) -> int:
        return self.end - self.start

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end

    def to_image_offset(self, addr: int) -> int:
        if not self.contains(addr):
            raise AddressSpaceError(
                f"address {addr:#x} outside VMA [{self.start:#x},{self.end:#x})"
            )
        return addr - self.start + self.image_offset

    def label(self) -> str:
        """The name opreport would print for this region."""
        if self.kind is VmaKind.FILE:
            assert self.image is not None
            return self.image.name
        if self.kind is VmaKind.ANON:
            return f"anon (range:{self.start:#x}-{self.end:#x})"
        return self.kind.value


class AddressSpace:
    """Sorted set of non-overlapping VMAs with O(log n) lookup."""

    def __init__(self) -> None:
        self._vmas: list[VMA] = []
        self._starts: list[int] = []

    def __len__(self) -> int:
        return len(self._vmas)

    def __iter__(self):
        return iter(self._vmas)

    @property
    def vmas(self) -> tuple[VMA, ...]:
        return tuple(self._vmas)

    def map(
        self,
        start: int,
        size: int,
        kind: VmaKind,
        image: BinaryImage | None = None,
        image_offset: int = 0,
    ) -> VMA:
        """Install a mapping; ``start`` is page-aligned down and the length
        page-aligned up, mirroring ``mmap`` semantics.

        Raises:
            AddressSpaceError: if the new region overlaps an existing VMA.
        """
        a_start = _page_align_down(start)
        a_end = _page_align_up(start + size)
        vma = VMA(a_start, a_end, kind, image, image_offset)
        i = bisect.bisect_left(self._starts, a_start)
        if i > 0 and self._vmas[i - 1].end > a_start:
            raise AddressSpaceError(
                f"mapping [{a_start:#x},{a_end:#x}) overlaps "
                f"[{self._vmas[i-1].start:#x},{self._vmas[i-1].end:#x})"
            )
        if i < len(self._vmas) and self._vmas[i].start < a_end:
            raise AddressSpaceError(
                f"mapping [{a_start:#x},{a_end:#x}) overlaps "
                f"[{self._vmas[i].start:#x},{self._vmas[i].end:#x})"
            )
        self._vmas.insert(i, vma)
        self._starts.insert(i, a_start)
        return vma

    def unmap(self, vma: VMA) -> None:
        try:
            i = self._vmas.index(vma)
        except ValueError:
            raise AddressSpaceError(
                f"VMA [{vma.start:#x},{vma.end:#x}) not mapped"
            ) from None
        del self._vmas[i]
        del self._starts[i]

    def resolve(self, addr: int) -> VMA | None:
        """Return the VMA covering ``addr``, or None if unmapped."""
        i = bisect.bisect_right(self._starts, addr) - 1
        if i < 0:
            return None
        vma = self._vmas[i]
        return vma if vma.contains(addr) else None
