"""Layer spans for the traced run, recorded from outside the program.

The benchmark wraps public calls at each layer boundary (the hook table
below) for the duration of a traced op and removes the wrappers again
afterwards, so untraced ops run the program exactly as shipped.  Each
wrapper opens a span named after the layer's module; a span records its
name, start, end, parent and op id, and its *self time* is its duration
minus the time its direct children cover.

Hot boundaries (one call per simulated quantum or per resolved bucket)
are not kept one by one: each is rolled up as ``(count, seconds)`` under
its nearest kept ancestor, which holds a traced ``sweep`` op to a few
thousand spans instead of a million.  Self time is exact either way,
because it is accumulated on the span stack as spans close.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

__all__ = ["Hook", "HOOKS", "Tracer", "installed", "silent_hooks"]


class Tracer:
    """In-memory span recorder with per-op, per-layer self times."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.op: int | None = None
        #: kept spans: ``[id, name, start, end, parent_id, op]``
        self.spans: list[list] = []
        #: hot spans: ``(parent_id, name) -> [count, seconds]``
        self.rollups: dict[tuple[int | None, str], list] = {}
        #: ``op -> name -> [count, self_seconds]``
        self.layers: dict[int | None, dict[str, list]] = {}
        # open spans: [name, start, child_seconds, anchor_id, hot]
        self._stack: list[list] = []
        self._next_id = 0

    # -- ops ------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        """Open op ``op``'s root span (named ``op``)."""
        self.op = op
        self.layers[op] = {}
        self.enter("op")

    def end_op(self) -> None:
        self.exit()
        self.op = None

    # -- spans and counters ---------------------------------------------

    def enter(self, name: str, hot: bool = False) -> None:
        if hot:
            anchor = self._stack[-1][3] if self._stack else None
        else:
            anchor = self._next_id
            self._next_id += 1
        self._stack.append([name, self.clock(), 0.0, anchor, hot])

    def exit(self) -> None:
        name, start, child, anchor, hot = self._stack.pop()
        end = self.clock()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        acc = self._layer(name)
        acc[0] += 1
        acc[1] += duration - child
        if hot:
            rolled = self.rollups.get((anchor, name))
            if rolled is None:
                self.rollups[(anchor, name)] = [1, duration]
            else:
                rolled[0] += 1
                rolled[1] += duration
        else:
            parent_id = parent[3] if parent is not None else None
            self.spans.append([anchor, name, start, end, parent_id, self.op])

    def count(self, name: str, n: int = 1) -> None:
        self._layer(name)[0] += n

    def _layer(self, name: str) -> list:
        per_op = self.layers.setdefault(self.op, {})
        acc = per_op.get(name)
        if acc is None:
            acc = per_op[name] = [0, 0.0]
        return acc

    # -- output ---------------------------------------------------------

    def write(self, path: Path, meta: dict) -> None:
        """Dump every span, rollup and per-op layer total as JSON."""
        doc = {
            **meta,
            "span_fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "rollups": [
                [parent, name, n, seconds]
                for (parent, name), (n, seconds) in self.rollups.items()
            ],
            "layers": {
                str(op): {
                    name: {"count": n, "self_s": s}
                    for name, (n, s) in sorted(per_op.items())
                }
                for op, per_op in self.layers.items()
            },
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


class _TracedIterator:
    """Opens one span around every ``next()`` of a wrapped iterator."""

    __slots__ = ("_it", "_tracer", "_name", "_hot")

    def __init__(self, it, tracer: Tracer, name: str, hot: bool) -> None:
        self._it = it
        self._tracer = tracer
        self._name = name
        self._hot = hot

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self):
        self._tracer.enter(self._name, self._hot)
        try:
            return next(self._it)
        finally:
            self._tracer.exit()


@dataclass(frozen=True)
class Hook:
    """One wrapped call.

    ``target`` is ``"module:Owner.attr"`` (or ``"module:function"``), the
    name as its callers look it up.  ``kind`` is ``"span"``, ``"hot"`` (a
    rolled-up span) or ``"count"`` (a call counter, no timing).
    ``iterate`` times each ``next()`` of the returned iterator instead of
    the call.  ``sized`` names a counter fed with the result's size (an
    int result, or ``len`` of it).  ``on`` lists the workloads on which
    the hook must fire; a traced run that leaves one silent is incorrect.
    """

    target: str
    name: str
    kind: str = "span"
    iterate: bool = False
    sized: str | None = None
    on: tuple[str, ...] = ()


_SIM = ("sweep", "profile")
_RESOLVE = ("profile", "report-1m")
_FLEET = ("fleet-16",)
_AGENT_HOOKS = (
    "on_startup", "on_compile", "on_code_move", "pre_gc", "post_gc", "on_exit",
)

HOOKS: tuple[Hook, ...] = (
    # simulator
    Hook("repro.system.engine:SystemEngine.run", "system.run", on=_SIM),
    Hook("repro.hardware.cpu:CPU.execute", "hardware.execute", "hot", on=_SIM),
    Hook("repro.hardware.interrupts:NMILine.raise_nmi", "hardware.nmis",
         "count", on=_SIM),
    Hook("repro.jvm.machine:JikesVM.run", "jvm.step", "hot", iterate=True,
         on=_SIM),
    Hook("repro.jvm.gc:CopyingCollector.collect", "jvm.gcs", "count", on=_SIM),
    Hook("repro.jvm.compiler:JitCompiler.make_body", "jvm.compiles", "count",
         on=_SIM),
    Hook("repro.os.scheduler:Scheduler.pick", "os.sched", "hot", on=_SIM),
    # collection
    Hook("repro.oprofile.daemon:OprofileDaemon.wakeup", "oprofile.wakeup",
         on=_SIM),
    Hook("repro.oprofile.kmodule:SampleBuffer.drain", "oprofile.drains",
         "count", sized="oprofile.records", on=_SIM),
    *(
        Hook(f"repro.viprof.vm_agent:ViprofVmAgent.{m}", "viprof.agent", "hot",
             on=_SIM)
        for m in _AGENT_HOOKS
    ),
    Hook("repro.viprof.session:ViprofSession.stop", "viprof.stop", on=_SIM),
    Hook("repro.viprof.arena:build_arena", "viprof.arena_build", on=_SIM),
    Hook("repro.profiling.record_codec:RecordFileWriter.write_batch",
         "profiling.write", sized="profiling.records_written", on=_SIM),
    Hook("repro.profiling.record_codec:RecordFileWriter.flush",
         "profiling.write", on=_SIM),
    # post-processing
    Hook("repro.viprof.codemap:CodeMapIndex.load_dir", "viprof.map_load",
         on=_RESOLVE + _FLEET),
    Hook("repro.viprof.arena:CodeMapArena.open_fresh", "viprof.arena_opens",
         "count", on=_RESOLVE),
    Hook("repro.profiling.record_codec:RecordFileReader.iter_field_chunks",
         "profiling.decode", iterate=True, on=_RESOLVE + _FLEET),
    Hook("repro.pipeline.parallel:consume_source", "pipeline.resolve",
         on=_RESOLVE + _FLEET),
    Hook("repro.pipeline.resolver:ResolverChain.resolve_key_run",
         "pipeline.walk", "hot", on=_RESOLVE),
    # The per-sample path the Xen chain falls back to.  No workload must
    # fire it: removing that fallback is a planned optimisation.
    Hook("repro.pipeline.resolver:ResolverChain.resolve",
         "pipeline.scalar_resolves", "count"),
    Hook("repro.profiling.report:ProfileReport.format_table",
         "profiling.render", on=_RESOLVE + _FLEET),
    # fleet
    Hook("repro.xen.fleet:FleetSession.resolve", "xen.fleet_resolve",
         on=_FLEET),
    Hook("repro.xen.fleet:FleetSession.domain_resolve", "xen.domain_resolve",
         on=_FLEET),
    Hook("repro.metrics.fleet:domain_summary", "metrics.summary", on=_FLEET),
)


def _owner_and_attr(target: str) -> tuple[object, str]:
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise LookupError(f"hook target {target} is not defined there")
    return owner, attr


def _wrap(fn: Callable, tracer: Tracer, hook: Hook) -> Callable:
    name, sized = hook.name, hook.sized

    def feed(result) -> None:
        if sized is not None:
            tracer.count(sized, result if isinstance(result, int) else len(result))

    if hook.kind == "count":
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.count(name)
            feed(result)
            return result

        return functools.wraps(fn)(counted)

    hot = hook.kind == "hot"
    if hook.iterate:
        def iterated(*args, **kwargs):
            return _TracedIterator(fn(*args, **kwargs), tracer, name, hot)

        return functools.wraps(fn)(iterated)

    def spanned(*args, **kwargs):
        tracer.enter(name, hot)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        feed(result)
        return result

    return functools.wraps(fn)(spanned)


@contextmanager
def installed(
    tracer: Tracer, hooks: tuple[Hook, ...] = HOOKS
) -> Iterator[None]:
    """Wrap every hook target for the duration of the block."""
    undo: list[tuple[object, str, object]] = []
    try:
        for hook in hooks:
            owner, attr = _owner_and_attr(hook.target)
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_wrap(raw.__func__, tracer, hook))
            else:
                wrapped = _wrap(raw, tracer, hook)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, raw))
        yield
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


def silent_hooks(
    workload: str, layers: dict[int | None, dict[str, list]],
    hooks: tuple[Hook, ...] = HOOKS,
) -> list[str]:
    """Hook names that should have fired on ``workload`` but never did."""
    fired = {name for per_op in layers.values() for name, acc in per_op.items()
             if acc[0]}
    return sorted({h.name for h in hooks if workload in h.on} - fired)
