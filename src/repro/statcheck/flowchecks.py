"""Dataflow-powered self-lint rules SL205–SL209.

These are the project-specific source checks that need more than a flat
AST walk: path-sensitive handle tracking (SL205), reachability from the
shard-pool dispatch sites (SL206), constant folding (SL207), per-class
field accounting (SL208), and a cross-file registry bijection (SL209).
SL205 runs on the CFGs built by :mod:`repro.statcheck.dataflow`; the
rest are flow-insensitive module passes.  All are wired into
:mod:`repro.statcheck.selflint`, which owns file iteration, rule
selection and reporting.

Precision stance (shared with :mod:`~repro.statcheck.dataflow`): a rule
here must hold on the real tree with **zero false positives** — CI gates
on it — so every approximation errs toward silence.  A handle that
escapes (stored on ``self``, returned, passed to a callee) is someone
else's to close; a worker we cannot prove reaches a mutable global is
not flagged; a format string we cannot fold is skipped.
"""

from __future__ import annotations

import ast
import re
import struct
from typing import Iterable

from repro.statcheck.dataflow import (
    Block,
    Header,
    build_cfg,
    iter_functions,
    run_forward,
)
from repro.statcheck.findings import Finding, Severity

__all__ = [
    "check_resource_leaks",
    "check_fork_shared_state",
    "check_codec_consistency",
    "check_counter_accounting",
    "collect_fire_calls",
    "check_fault_point_sites",
]


def _finding(
    severity: Severity, rule_id: str, rel: str, lineno: int, msg: str
) -> Finding:
    return Finding(
        severity=severity,
        rule_id=rule_id,
        artifact=rel,
        location=f"line {lineno}",
        message=msg,
    )


# ======================================================================
# SL205 — resource-leak: handles reach close() or `with` on all paths
# ======================================================================

#: Callables whose return value is a handle the caller must close.
#: Bare names (``open(...)``) and attribute calls (``path.open(...)``,
#: ``os.fdopen(...)``) both match on the final identifier.
_HANDLE_CALLS = frozenset(
    {
        "open",
        "fdopen",
        "open_sample_record_file",
        "RecordFileReader",
        "RecordFileWriter",
        "SampleFileReader",
        "SampleFileWriter",
    }
)


def _call_name(node: ast.expr) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    f = node.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


def _acquires_handle(value: ast.expr | None) -> bool:
    return _call_name(value) in _HANDLE_CALLS if value is not None else False


def _scan_uses(live: dict[str, int], node: ast.AST) -> None:
    """Apply one expression/statement's effect on the live-handle map.

    * ``x.close()`` (and ``x.__exit__``) kill ``x`` — it is now closed.
    * Any *bare* occurrence of a live name — returned, yielded, passed as
      an argument, stored into an attribute/container, compared — is an
      escape: ownership may have transferred, so we stop tracking rather
      than report a false leak.  Attribute-receiver position (``x.read()``,
      ``x.closed``) is not an escape: the handle stays put.
    """
    receivers: set[int] = set()
    closed: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            receivers.add(id(n.value))
            if n.attr in ("close", "__exit__"):
                closed.add(n.value.id)
    for name in closed:
        live.pop(name, None)
    for n in ast.walk(node):
        if (
            isinstance(n, ast.Name)
            and id(n) not in receivers
            and n.id in live
        ):
            live.pop(n.id, None)


def _kill_target_names(live: dict[str, int], target: ast.AST) -> None:
    for n in ast.walk(target):
        if isinstance(n, ast.Name):
            live.pop(n.id, None)


def _apply_assign(live: dict[str, int], node: ast.stmt) -> None:
    """Assignments: rebinding kills, acquiring gens, the value may escape
    other live handles.  ``a, b = open(p), True`` pairs element-wise."""
    if isinstance(node, ast.AnnAssign):
        pairs = (
            [(node.target, node.value)] if node.value is not None else []
        )
        value_nodes = [node.value] if node.value is not None else []
        plain_targets = [node.target]
    elif isinstance(node, ast.AugAssign):
        _scan_uses(live, node.value)
        _kill_target_names(live, node.target)
        return
    else:
        assert isinstance(node, ast.Assign)
        value_nodes = [node.value]
        plain_targets = list(node.targets)
        pairs = []
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Tuple)
            and isinstance(node.value, ast.Tuple)
            and len(node.targets[0].elts) == len(node.value.elts)
        ):
            pairs = list(zip(node.targets[0].elts, node.value.elts))
        else:
            pairs = [(t, node.value) for t in node.targets]
    for v in value_nodes:
        _scan_uses(live, v)
    for t in plain_targets:
        if not isinstance(t, ast.Name):
            _scan_uses(live, t)  # e.g. self._fh = ... subscript targets
    for t, v in pairs:
        if isinstance(t, ast.Name):
            live.pop(t.id, None)
            if _acquires_handle(v):
                live[t.id] = node.lineno
        else:
            _kill_target_names(live, t)


def _finally_closed_names(finally_body: list) -> set[str]:
    """Names that get a ``.close()`` anywhere in a ``finally`` body: the
    cleanup is trusted wholesale (even under a condition — the condition
    encodes ownership we cannot see)."""
    closed: set[str] = set()
    for stmt in finally_body:
        for n in ast.walk(stmt):
            if (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr == "close"
                and isinstance(n.func.value, ast.Name)
            ):
                closed.add(n.func.value.id)
    return closed


def _apply_element(live: dict[str, int], el) -> None:
    if isinstance(el, Header):
        node = el.node
        if isinstance(node, (ast.With, ast.AsyncWith)):
            # `with`-managed handles close themselves; every name in the
            # header (manager or alias) is accounted for.
            for e in el.exprs:
                for n in ast.walk(e):
                    if isinstance(n, ast.Name):
                        live.pop(n.id, None)
            return
        for e in el.exprs:
            _scan_uses(live, e)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            _kill_target_names(live, node.target)
        return
    node = el
    if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        # A nested scope capturing the handle may close or keep it.
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                live.pop(n.id, None)
        return
    if isinstance(node, ast.Delete):
        for t in node.targets:
            _kill_target_names(live, t)
        return
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        _apply_assign(live, node)
        return
    _scan_uses(live, node)


def _leak_transfer(blk: Block, facts: frozenset) -> frozenset:
    live: dict[str, int] = dict(facts)
    if blk.finally_body:
        for name in _finally_closed_names(blk.finally_body):
            live.pop(name, None)
    for el in blk.elements:
        _apply_element(live, el)
    return frozenset(live.items())


def check_resource_leaks(tree: ast.AST, rel: str) -> list[Finding]:
    """SL205: every locally-opened handle reaches ``close()``/``with``
    on every path to the function exit (normal or ``raise``)."""
    findings: list[Finding] = []
    for fn in iter_functions(tree):
        cfg = build_cfg(fn)
        ins = run_forward(cfg, _leak_transfer)
        for name, lineno in sorted(
            ins[cfg.exit], key=lambda item: (item[1], item[0])
        ):
            findings.append(
                _finding(
                    Severity.ERROR, "SL205", rel, lineno,
                    f"handle {name!r} opened in {fn.name!r} may not be "
                    "closed on every path to the function exit — use "
                    "'with', or close() in a finally",
                )
            )
    return findings


# ======================================================================
# SL206 — fork-shared-mutable-state in pool workers
# ======================================================================

_MUTABLE_FACTORIES = frozenset(
    {
        "list", "dict", "set", "bytearray",
        "defaultdict", "Counter", "deque", "OrderedDict",
    }
)

#: Methods that dispatch a callable into another process (the shard pool
#: in pipeline/parallel.py uses ``Executor.map``/``submit``).
_DISPATCH_METHODS = frozenset(
    {"map", "imap", "imap_unordered", "starmap", "submit", "apply_async"}
)


def _is_mutable_binding(value: ast.expr) -> bool:
    if isinstance(
        value,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp),
    ):
        return True
    return _call_name(value) in _MUTABLE_FACTORIES


def _locally_bound_names(fn) -> set[str]:
    a = fn.args
    bound = {
        arg.arg
        for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs]
    }
    if a.vararg:
        bound.add(a.vararg.arg)
    if a.kwarg:
        bound.add(a.kwarg.arg)
    declared_global: set[str] = set()
    for n in ast.walk(fn):
        if isinstance(n, ast.Name) and isinstance(
            n.ctx, (ast.Store, ast.Del)
        ):
            bound.add(n.id)
        elif isinstance(n, ast.Global):
            declared_global.update(n.names)
    return bound - declared_global


def check_fork_shared_state(tree: ast.AST, rel: str) -> list[Finding]:
    """SL206: a worker function handed to a process pool (or any callee
    it reaches in the same module) must not read module-level mutable
    state — under fork each shard gets a silently diverging copy."""
    mutable_globals: dict[str, int] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            targets = [stmt.target] if stmt.value is not None else []
            value = stmt.value
        else:
            continue
        if value is not None and _is_mutable_binding(value):
            for t in targets:
                if t.id != "__all__":
                    mutable_globals[t.id] = stmt.lineno
    if not mutable_globals:
        return []

    funcs = {
        n.name: n
        for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    workers: set[str] = {
        name for name in funcs if name.endswith("_worker")
    }
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        f = n.func
        if (
            isinstance(f, ast.Attribute)
            and f.attr in _DISPATCH_METHODS
            and n.args
            and isinstance(n.args[0], ast.Name)
            and n.args[0].id in funcs
        ):
            workers.add(n.args[0].id)
        if _call_name(n) == "Process":
            for kw in n.keywords:
                if (
                    kw.arg == "target"
                    and isinstance(kw.value, ast.Name)
                    and kw.value.id in funcs
                ):
                    workers.add(kw.value.id)
    if not workers:
        return []

    # Transitive closure over same-module calls: remember which worker
    # entry point first reached each function, for the message.
    via: dict[str, str] = {}
    stack = [(w, w) for w in sorted(workers)]
    while stack:
        fname, root = stack.pop()
        if fname in via:
            continue
        via[fname] = root
        for n in ast.walk(funcs[fname]):
            if (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name)
                and n.func.id in funcs
            ):
                stack.append((n.func.id, root))

    findings: list[Finding] = []
    for fname in sorted(via):
        fn = funcs[fname]
        local = _locally_bound_names(fn)
        reported: set[str] = set()
        for n in ast.walk(fn):
            if (
                isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)
                and n.id in mutable_globals
                and n.id not in local
                and n.id not in reported
            ):
                reported.add(n.id)
                root = via[fname]
                path = (
                    f"worker {root!r}"
                    if fname == root
                    else f"{fname!r} (reached from worker {root!r})"
                )
                findings.append(
                    _finding(
                        Severity.ERROR, "SL206", rel, n.lineno,
                        f"{path} reads module-level mutable {n.id!r} "
                        f"(defined line {mutable_globals[n.id]}): "
                        "fork-dispatched shard workers must not share "
                        "mutable module state",
                    )
                )
    return findings


# ======================================================================
# SL207 — codec consistency: struct formats, record sizes, magics
# ======================================================================

_STRUCT_CALLS = frozenset(
    {"Struct", "calcsize", "pack", "unpack", "iter_unpack",
     "unpack_from", "pack_into"}
)

_SIZE_SUFFIX = "_RECORD_SIZE"
_FORMAT_SUFFIX = "_RECORD_FORMAT"


def _fold_constants(tree: ast.Module) -> dict[str, tuple[frozenset, int]]:
    """Constant-fold module-level str/bytes/int bindings.

    Each name maps to the *set* of values it may hold (an ``IfExp``
    contributes both arms) plus its definition line.  Unfoldable values
    drop the name entirely — absence means "don't check", never "0"."""
    env: dict[str, tuple[frozenset, int]] = {}

    def fold(node: ast.expr) -> frozenset | None:
        if isinstance(node, ast.Constant):
            v = node.value
            if isinstance(v, (str, bytes)) or (
                isinstance(v, int) and not isinstance(v, bool)
            ):
                return frozenset([v])
            return None
        if isinstance(node, ast.Name):
            entry = env.get(node.id)
            return entry[0] if entry else None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left, right = fold(node.left), fold(node.right)
            if left is None or right is None:
                return None
            out = set()
            for a in left:
                for b in right:
                    if type(a) is not type(b):
                        return None
                    out.add(a + b)
            return frozenset(out)
        if isinstance(node, ast.IfExp):
            body, orelse = fold(node.body), fold(node.orelse)
            if body is None or orelse is None:
                return None
            return body | orelse
        return None

    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            name, value = stmt.targets[0].id, stmt.value
        elif (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.value is not None
        ):
            name, value = stmt.target.id, stmt.value
        else:
            continue
        folded = fold(value)
        if folded is not None:
            env[name] = (folded, stmt.lineno)
    return env


def check_codec_consistency(tree: ast.Module, rel: str) -> list[Finding]:
    """SL207: every foldable struct format string parses; declared
    ``*_RECORD_SIZE`` constants equal ``struct.calcsize`` of their
    ``*_RECORD_FORMAT`` twin; record magics are exactly 4 bytes."""
    findings: list[Finding] = []
    env = _fold_constants(tree)

    def err(lineno: int, msg: str) -> None:
        findings.append(_finding(Severity.ERROR, "SL207", rel, lineno, msg))

    # (a) every constant-foldable struct format must parse.
    def fold_expr(node: ast.expr) -> frozenset | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return frozenset([node.value])
        if isinstance(node, ast.Name):
            entry = env.get(node.id)
            return entry[0] if entry else None
        return None

    for n in ast.walk(tree):
        if not (isinstance(n, ast.Call) and _call_name(n) in _STRUCT_CALLS):
            continue
        if not n.args:
            continue
        candidates = fold_expr(n.args[0])
        for fmt in sorted(candidates or (), key=repr):
            if not isinstance(fmt, str):
                continue
            try:
                struct.calcsize(fmt)
            except struct.error as e:
                err(
                    n.lineno,
                    f"struct format {fmt!r} does not parse: {e}",
                )

    # (b) *_RECORD_SIZE <-> *_RECORD_FORMAT cross-check, both directions.
    by_public: dict[str, str] = {
        name.lstrip("_"): name for name in env
    }
    for public, name in sorted(by_public.items()):
        values, lineno = env[name]
        if public.endswith(_SIZE_SUFFIX):
            prefix = public[: -len(_SIZE_SUFFIX)]
            fmt_name = by_public.get(prefix + _FORMAT_SUFFIX)
            if fmt_name is None:
                err(
                    lineno,
                    f"{name} declares a record size but no "
                    f"{prefix}{_FORMAT_SUFFIX} constant exists to "
                    "cross-check it against",
                )
                continue
            declared = {v for v in values if isinstance(v, int)}
            for fmt in sorted(env[fmt_name][0], key=repr):
                if not isinstance(fmt, str):
                    continue
                try:
                    actual = struct.calcsize(fmt)
                except struct.error:
                    continue  # reported by (a) at the use site
                if actual not in declared:
                    err(
                        lineno,
                        f"{name} = {sorted(declared)} disagrees with "
                        f"struct.calcsize({fmt_name} = {fmt!r}) = {actual}",
                    )
        elif public.endswith(_FORMAT_SUFFIX):
            prefix = public[: -len(_FORMAT_SUFFIX)]
            if by_public.get(prefix + _SIZE_SUFFIX) is None:
                err(
                    lineno,
                    f"{name} declares a record layout but no "
                    f"{prefix}{_SIZE_SUFFIX} constant pins its size — "
                    "readers cannot cheaply validate record alignment",
                )

    # (c) record magics are exactly 4 bytes (the header reserves 4).
    for public, name in sorted(by_public.items()):
        if "MAGIC" not in public.upper():
            continue
        values, lineno = env[name]
        for v in values:
            if isinstance(v, bytes) and len(v) != 4:
                err(
                    lineno,
                    f"magic constant {name} = {v!r} is {len(v)} bytes; "
                    "record headers reserve exactly 4",
                )
    for n in ast.walk(tree):
        if not (isinstance(n, ast.Call) and _call_name(n) == "RecordCodec"):
            continue
        for kw in n.keywords:
            if kw.arg != "magic":
                continue
            folded = None
            if isinstance(kw.value, ast.Constant):
                folded = frozenset([kw.value.value])
            elif isinstance(kw.value, ast.Name):
                entry = env.get(kw.value.id)
                folded = entry[0] if entry else None
            for v in folded or ():
                if isinstance(v, bytes) and len(v) != 4:
                    err(
                        n.lineno,
                        f"RecordCodec magic {v!r} is {len(v)} bytes; "
                        "record headers reserve exactly 4",
                    )
    return findings


# ======================================================================
# SL208 — counter accounting: merge() and the export dict cover every
# counter a stats class maintains
# ======================================================================

_EXPORT_METHODS = ("stats_dict", "as_dict", "to_dict")


def _class_counters(cls: ast.ClassDef, methods: dict) -> dict[str, int]:
    counters: dict[str, int] = {}
    for stmt in cls.body:
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and isinstance(stmt.annotation, ast.Name)
            and stmt.annotation.id == "int"
            and isinstance(stmt.value, ast.Constant)
            and type(stmt.value.value) is int
        ):
            counters[stmt.target.id] = stmt.lineno
    init = methods.get("__init__")
    if init is not None:
        for n in ast.walk(init):
            target = None
            if isinstance(n, ast.Assign) and len(n.targets) == 1:
                target, value = n.targets[0], n.value
            elif isinstance(n, ast.AnnAssign) and n.value is not None:
                target, value = n.target, n.value
            else:
                continue
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and isinstance(value, ast.Constant)
                and type(value.value) is int
            ):
                counters[target.attr] = n.lineno
    # Anything incremented on self outside merge() is a counter even if
    # its initializer is not a literal int.
    for mname, m in methods.items():
        if mname == "merge":
            continue
        for n in ast.walk(m):
            if (
                isinstance(n, ast.AugAssign)
                and isinstance(n.op, ast.Add)
                and isinstance(n.target, ast.Attribute)
                and isinstance(n.target.value, ast.Name)
                and n.target.value.id == "self"
            ):
                counters.setdefault(n.target.attr, n.lineno)
    return counters


#: Function names in SL208's bulk-accounting scope: the columnar/batch
#: resolution layer's group-at-a-time functions, where a counter bump by a
#: literal constant at the top level of the function means the group size
#: was silently dropped from the accounting.
_BULK_NAME_RE = re.compile(r"column|bulk|batch|_(?:many|runs?|group)$")

#: Attribute names SL208 treats as sample/event counters in bulk scope.
_COUNTER_ATTR_RE = re.compile(
    r"hits|misses|samples|unresolved|blocked|lookups|steps|seen|written"
)


def _check_bulk_counter_bumps(tree: ast.AST, rel: str) -> list[Finding]:
    """SL208 (bulk scope): in a columnar/batch/bulk function, a counter
    attribute incremented by a literal constant *outside any loop* is an
    error — the function processes a whole group per call, so a flat
    ``+= 1`` under-counts by the group size.  Per-item bumps inside loops
    are exact and stay legal."""
    findings: list[Finding] = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _BULK_NAME_RE.search(fn.name):
            continue

        def scan(nodes, in_loop: bool) -> None:
            for node in nodes:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue  # nested defs get their own pass
                if (
                    not in_loop
                    and isinstance(node, ast.AugAssign)
                    and isinstance(node.op, ast.Add)
                    and isinstance(node.target, ast.Attribute)
                    and _COUNTER_ATTR_RE.search(node.target.attr)
                    and isinstance(node.value, ast.Constant)
                    and type(node.value.value) is int
                ):
                    findings.append(
                        _finding(
                            Severity.ERROR, "SL208", rel, node.lineno,
                            f"bulk function {fn.name}() bumps counter "
                            f"{node.target.attr!r} by a literal "
                            f"{node.value.value} outside any loop: scale "
                            "the bump by the group size or count per "
                            "item inside the loop",
                        )
                    )
                loops_here = in_loop or isinstance(
                    node, (ast.For, ast.AsyncFor, ast.While)
                )
                for child in ast.iter_child_nodes(node):
                    scan([child], loops_here)

        scan(fn.body, False)
    return findings


def check_counter_accounting(tree: ast.AST, rel: str) -> list[Finding]:
    """SL208: in any class with a ``merge()``, every counter field must
    be merged, and must appear in the stats-export method when the class
    has one — a counter dropped from either silently under-reports.
    Additionally, columnar/batch/bulk functions must scale top-level
    counter bumps by the group size (:func:`_check_bulk_counter_bumps`)."""
    findings: list[Finding] = _check_bulk_counter_bumps(tree, rel)
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = {
            m.name: m
            for m in cls.body
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        merge = methods.get("merge")
        if merge is None:
            continue
        counters = _class_counters(cls, methods)
        if not counters:
            continue
        merge_attrs = {
            a.attr for a in ast.walk(merge) if isinstance(a, ast.Attribute)
        }
        export_name = next(
            (m for m in _EXPORT_METHODS if m in methods), None
        )
        export_attrs = (
            {
                a.attr
                for a in ast.walk(methods[export_name])
                if isinstance(a, ast.Attribute)
            }
            if export_name is not None
            else None
        )
        for fld in sorted(counters):
            if fld not in merge_attrs:
                findings.append(
                    _finding(
                        Severity.ERROR, "SL208", rel, merge.lineno,
                        f"{cls.name}.merge() never touches counter "
                        f"{fld!r} (line {counters[fld]}): cross-shard "
                        "totals silently drop it",
                    )
                )
            if export_attrs is not None and fld not in export_attrs:
                findings.append(
                    _finding(
                        Severity.ERROR, "SL208", rel,
                        methods[export_name].lineno,
                        f"{cls.name}.{export_name}() omits counter "
                        f"{fld!r} (line {counters[fld]}): the exported "
                        "stats under-report",
                    )
                )
    return findings


# ======================================================================
# SL209 — fault-point coverage: registry names <-> fire() sites
# ======================================================================


def _registry():
    # Runtime import: the registry is data, and importing it here keeps
    # the linted tree and the canonical point list from drifting apart.
    from repro.faults import injector

    return injector


def collect_fire_calls(
    tree: ast.AST, rel: str
) -> tuple[dict[str, int], list[Finding]]:
    """Scan one module for ``fire(...)`` call sites.

    Returns the resolved point names (name -> first call line) plus the
    per-file findings: firing a name missing from the registry is an
    ERROR (the crash-matrix test will never exercise it), and an
    argument we cannot resolve statically is a WARNING."""
    injector = _registry()
    registered = set(injector.ALL_FAULT_POINT_NAMES) | set(
        injector.ALL_GUEST_FAULT_POINT_NAMES
    )
    fired: dict[str, int] = {}
    findings: list[Finding] = []
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        f = n.func
        is_fire = (isinstance(f, ast.Name) and f.id == "fire") or (
            isinstance(f, ast.Attribute) and f.attr == "fire"
        )
        if not is_fire or not n.args:
            continue
        a0 = n.args[0]
        name = None
        if isinstance(a0, ast.Constant) and isinstance(a0.value, str):
            name = a0.value
        elif isinstance(a0, ast.Name):
            name = getattr(injector, a0.id, None)
        elif isinstance(a0, ast.Attribute):
            name = getattr(injector, a0.attr, None)
        if isinstance(name, str):
            fired.setdefault(name, n.lineno)
            if name not in registered:
                findings.append(
                    _finding(
                        Severity.ERROR, "SL209", rel, n.lineno,
                        f"fire({name!r}) names no registered fault "
                        "point: the crash matrix will never exercise "
                        "this site (register it in repro.faults."
                        "injector.FAULT_POINTS or GUEST_FAULT_POINTS)",
                    )
                )
        else:
            findings.append(
                _finding(
                    Severity.WARNING, "SL209", rel, n.lineno,
                    "fire() argument cannot be resolved statically; "
                    "use a string literal or a repro.faults.injector "
                    "constant so coverage can be checked",
                )
            )
    return fired, findings


def check_fault_point_sites(
    fires_by_file: dict[str, tuple[str, dict[str, int]]]
) -> list[Finding]:
    """Cross-file half of SL209: every registered :class:`FaultPoint`
    whose declared site module was linted must actually ``fire()`` its
    name there.

    ``fires_by_file`` maps each linted file's absolute posix path to
    ``(artifact-label, fired-names)`` as collected per file."""
    injector = _registry()
    findings: list[Finding] = []
    for point in (*injector.FAULT_POINTS, *injector.GUEST_FAULT_POINTS):
        parts = point.site.split(".")
        target: tuple[str, dict[str, int]] | None = None
        for k in range(len(parts), 0, -1):
            suffix = "/" + "/".join(parts[:k]) + ".py"
            hits = sorted(
                path for path in fires_by_file if path.endswith(suffix)
            )
            if hits:
                target = fires_by_file[hits[0]]
                break
        if target is None:
            continue  # site module outside the linted roots
        rel, fired = target
        if point.name not in fired:
            findings.append(
                Finding(
                    severity=Severity.ERROR,
                    rule_id="SL209",
                    artifact=rel,
                    location=point.site,
                    message=(
                        f"registered fault point {point.name!r} is never "
                        "fire()d in its declared site module: recovery "
                        "coverage claims a crash site that does not exist"
                    ),
                )
            )
    return findings
