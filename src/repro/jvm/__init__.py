"""A Jikes-RVM-like Java virtual machine substrate.

The profiler-relevant properties of Jikes RVM 2.4.4, all reproduced here:

* **compile-only execution** — every method is baseline-compiled on first
  invocation, then recompiled at rising optimization levels by the adaptive
  optimization system (:mod:`repro.jvm.adaptive`, :mod:`repro.jvm.compiler`);
* **code lives in the garbage-collected heap** — code bodies are bump-
  allocated in the nursery and *move* when the copying collector runs
  (:mod:`repro.jvm.heap`, :mod:`repro.jvm.gc`); surviving bodies are promoted
  to the mature space where they stop moving (until a rare major GC);
* **the VM itself is written in Java** and executes out of a *boot image*
  that is opaque to system profilers but described by an internal map file,
  ``RVM.map`` (:mod:`repro.jvm.bootimage`);
* each garbage collection closes a **GC epoch** — the unit VIProf uses to
  version its code maps.

:mod:`repro.jvm.machine` ties these together into :class:`JikesVM`, which
executes a workload as a deterministic stream of activity runs and fires
the agent hooks VIProf attaches to.
"""

from repro.jvm.model import JavaMethod, MethodId
from repro.jvm.compiler import CodeBody, CompilerTier, JitCompiler
from repro.jvm.heap import Heap, Space
from repro.jvm.gc import CopyingCollector, GcStats
from repro.jvm.adaptive import AdaptiveSystem, RecompilationLadder
from repro.jvm.bootimage import BootImage, RvmMap, RvmMapEntry, build_boot_image
from repro.jvm.machine import JikesVM, StepKind, VmHooks, VmRun

__all__ = [
    "JavaMethod",
    "MethodId",
    "CodeBody",
    "CompilerTier",
    "JitCompiler",
    "Heap",
    "Space",
    "CopyingCollector",
    "GcStats",
    "AdaptiveSystem",
    "RecompilationLadder",
    "BootImage",
    "RvmMap",
    "RvmMapEntry",
    "build_boot_image",
    "JikesVM",
    "VmHooks",
    "VmRun",
    "StepKind",
]
