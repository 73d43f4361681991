"""Host-time tracing of the storage stack from outside ``src/``.

:class:`Tracer` wraps the public entry points of each layer (the
:data:`TARGETS` table) by replacing class and module attributes while it is
installed.  Each wrapped call inside the timed phase records a span -- span
id, name, start, end, parent span id, operation id -- kept in memory and
written out once at the end.  A layer's self time is its spans' durations
minus the time covered by their child spans.

The wrappers observe only: they pass arguments and results through
untouched, so a traced run computes exactly what an untraced run does (the
benchmark asserts this on every traced run).  Outside :meth:`Tracer.activate`
they cost one flag test.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.workloads import quantile

Measure = Callable[[tuple, Any, Any], float]
Probe = Callable[[tuple], Any]

SPAN_COLUMNS = ("span_id", "name", "start_s", "end_s", "parent", "op")


def _len_arg(args: tuple, result: Any, before: Any) -> float:
    return len(args[1])


def _len_first(args: tuple, result: Any, before: Any) -> float:
    return len(args[0])


def _len_result(args: tuple, result: Any, before: Any) -> float:
    return len(result)


def _not_none(args: tuple, result: Any, before: Any) -> float:
    return 1 if result is not None else 0


def _high_priority(args: tuple, result: Any, before: Any) -> float:
    return 1 if result.high_priority else 0


def _pool_state(args: tuple) -> Tuple[float, int, int, int]:
    pool = args[0].pool
    return (pool.bg_drained_s, pool.completed_jobs, len(pool.active),
            len(pool.queue))


def _unchanged(args: tuple, result: Any, before: Any) -> float:
    return 1 if _pool_state(args) == before else 0


#: (span name, module, owner attribute path, attribute, span?, measure, probe).
#: ``span=False`` entries only count calls (and the measure) without a span;
#: they sit on hot inner calls whose time belongs to the caller's layer.
TARGETS: List[Tuple[str, str, str, str, bool, Optional[Measure], Optional[Probe]]] = [
    ("db.put", "repro.db.iamdb", "IamDB", "put", True, None, None),
    ("db.get", "repro.db.iamdb", "IamDB", "get", True, None, None),
    ("db.scan", "repro.db.iamdb", "IamDB", "scan", True, _len_result, None),
    ("db.quiesce", "repro.db.iamdb", "IamDB", "quiesce", True, None, None),
    ("memtable.add", "repro.memtable.memtable", "Memtable", "add", True, None, None),
    ("storage.wal.append", "repro.storage.wal", "WriteAheadLog", "append",
     True, None, None),
    ("storage.pacing.gate", "repro.core.engine", "EngineBase", "write_gate",
     True, None, None),
    ("storage.pacing.gate", "repro.lsm.leveled", "LeveledLsm", "write_gate",
     True, None, None),
    ("storage.background.pump", "repro.storage.runtime", "Runtime", "pump",
     True, _unchanged, _pool_state),
    ("storage.background.stall", "repro.storage.runtime", "Runtime",
     "stall_on", True, None, None),
    ("storage.background.quiesce", "repro.storage.runtime", "Runtime",
     "quiesce", True, None, None),
    ("storage.background.submit", "repro.storage.runtime", "Runtime",
     "submit_job", False, _high_priority, None),
    ("storage.background.offer", "repro.core.lsa", "LsaTree",
     "pick_background_job", False, _not_none, None),
    ("storage.background.offer", "repro.lsm.leveled", "LeveledLsm",
     "pick_background_job", False, _not_none, None),
    ("storage.manifest.checkpoint", "repro.storage.manifest", "Manifest",
     "checkpoint", True, None, None),
    ("storage.manifest.state", "repro.core.lsa", "LsaTree", "checkpoint_state",
     True, None, None),
    ("storage.manifest.state", "repro.lsm.leveled", "LeveledLsm",
     "checkpoint_state", True, None, None),
    ("storage.manifest.snapshot", "repro.table.mstable", "MSTable", "snapshot",
     False, None, None),
    ("table.build", "repro.table.mstable", "MSTable", "build", True, None, None),
    ("table.append", "repro.table.mstable", "MSTable", "append_sequence",
     True, _len_arg, None),
    ("table.merge", "repro.core.lsa", "", "merge_runs", True, None, None),
    ("table.merge", "repro.lsm.leveled", "", "merge_runs", True, None, None),
    ("table.scan", "repro.db.iamdb", "", "planned_scan", True, None, None),
    ("table.scan", "repro.db.iamdb", "", "merge_scan", True, None, None),
    ("filters.build", "repro.filters.bloom", "BloomFilter", "build", True,
     _len_first, None),
    ("core.get", "repro.core.lsa", "LsaTree", "get", True, None, None),
    ("core.scan_plan", "repro.core.lsa", "LsaTree", "scan_plan", True, None, None),
    ("lsm.get", "repro.lsm.leveled", "LeveledLsm", "get", True, None, None),
    ("cluster.put", "repro.cluster.cluster", "ClusterDB", "put", True, None, None),
    ("cluster.router.put", "repro.cluster.router", "Router", "put", True, None, None),
    ("objstore.mirror", "repro.objstore.tiering", "ObjStoreTier",
     "on_checkpoint", True, None, None),
]

#: Per-layer self-time metric -> the span names whose self time it sums.
#: Every span name in TARGETS appears exactly once, so the host_s metrics
#: add up to the traced time (see ``trace.coverage``).
HOST_S: Dict[str, Tuple[str, ...]] = {
    "db.host_s": ("db.put", "db.get", "db.scan", "db.quiesce"),
    "memtable.host_s": ("memtable.add",),
    "storage.wal.host_s": ("storage.wal.append",),
    "storage.pacing.host_s": ("storage.pacing.gate",),
    "storage.background.pump.host_s": ("storage.background.pump",
                                       "storage.background.stall",
                                       "storage.background.quiesce"),
    "storage.manifest.checkpoint.host_s": ("storage.manifest.checkpoint",
                                           "storage.manifest.state"),
    "table.build.host_s": ("table.build", "table.append"),
    "table.merge.host_s": ("table.merge",),
    "table.scan.host_s": ("table.scan",),
    "filters.build.host_s": ("filters.build",),
    "core.get.host_s": ("core.get",),
    "core.scan_plan.host_s": ("core.scan_plan",),
    "lsm.get.host_s": ("lsm.get",),
    "cluster.router.host_s": ("cluster.put", "cluster.router.put"),
    "objstore.host_s": ("objstore.mirror",),
}

#: Call counts: metric -> span name.
CALLS: Dict[str, str] = {
    "db.put.calls": "db.put",
    "db.get.calls": "db.get",
    "db.scan.calls": "db.scan",
    "memtable.add.calls": "memtable.add",
    "storage.wal.append.calls": "storage.wal.append",
    "storage.pacing.gate.calls": "storage.pacing.gate",
    "storage.background.pump.calls": "storage.background.pump",
    "storage.manifest.checkpoint.calls": "storage.manifest.checkpoint",
    "table.build.calls": "table.append",
    "storage.manifest.snapshot_nodes": "storage.manifest.snapshot",
}

#: Measured amounts: metric -> span name whose measure it sums.
AMOUNTS: Dict[str, str] = {
    "table.records_built": "table.append",
    "filters.keys_added": "filters.build",
    "storage.background.flush_jobs": "storage.background.submit",
    "storage.background.compaction_jobs": "storage.background.offer",
}


class Tracer:
    """In-memory span recorder over the wrapped layer entry points."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.self_s: List[float] = []
        self.calls: List[int] = []
        self.amount: List[float] = []
        #: Flat span records, SPAN_COLUMNS per span, appended at span end.
        self.spans = array("d")
        #: Index of the phase operation in flight (set by the phase loop).
        self.current_op: List[int] = [-1]
        self._active = [False]
        self._stack: List[int] = []
        self._child: List[float] = []
        self._ids = itertools.count()
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------- install
    def install(self) -> "Tracer":
        """Wrap every target; call before the stores are built, because
        engines keep bound methods (the compaction provider) from init."""
        for name, module, owner_name, attr, span, measure, probe in TARGETS:
            owner: Any = importlib.import_module(module)
            if owner_name:
                owner = getattr(owner, owner_name)
            self.wrap(owner, attr, name, span=span, measure=measure, probe=probe)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def _slot(self, name: str) -> int:
        nid = self._index.get(name)
        if nid is None:
            nid = len(self.names)
            self._index[name] = nid
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
            self.amount.append(0.0)
        return nid

    def wrap(self, owner: Any, attr: str, name: str, *, span: bool = True,
             measure: Optional[Measure] = None,
             probe: Optional[Probe] = None) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) by a wrapper."""
        raw = vars(owner)[attr]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        nid = self._slot(name)
        wrapper = functools.wraps(fn)(
            self._span_wrapper(fn, nid, measure, probe) if span
            else self._count_wrapper(fn, nid, measure))
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        self._undo.append((owner, attr, raw))

    def _count_wrapper(self, fn: Callable, nid: int,
                       measure: Optional[Measure]) -> Callable:
        active, calls, amount = self._active, self.calls, self.amount

        def wrapper(*args: Any, **kw: Any) -> Any:
            result = fn(*args, **kw)
            if active[0]:
                calls[nid] += 1
                if measure is not None:
                    amount[nid] += measure(args, result, None)
            return result
        return wrapper

    def _span_wrapper(self, fn: Callable, nid: int, measure: Optional[Measure],
                      probe: Optional[Probe]) -> Callable:
        active, stack, child = self._active, self._stack, self._child
        spans, self_s, calls, amount = self.spans, self.self_s, self.calls, self.amount
        current_op, ids, clock = self.current_op, self._ids, time.perf_counter

        def wrapper(*args: Any, **kw: Any) -> Any:
            if not active[0]:
                return fn(*args, **kw)
            sid = next(ids)
            parent = stack[-1] if stack else -1
            before = probe(args) if probe is not None else None
            stack.append(sid)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                inner = child.pop()
                dur = t1 - t0
                self_s[nid] += dur - inner
                calls[nid] += 1
                if child:
                    child[-1] += dur
                spans.extend((sid, nid, t0, t1, parent, current_op[0]))
            if measure is not None:
                amount[nid] += measure(args, result, before)
            return result
        return wrapper

    # -------------------------------------------------------------- recording
    def activate(self) -> None:
        self._active[0] = True

    def deactivate(self) -> None:
        self._active[0] = False

    def span_table(self) -> np.ndarray:
        """Spans as an (n, 6) array in SPAN_COLUMNS order, by span id."""
        table = np.frombuffer(self.spans, dtype=np.float64).reshape(-1, 6)
        return table[np.argsort(table[:, 0], kind="stable")]

    def write(self, path: Path) -> None:
        """Write the spans and the name table to ``path`` (numpy .npz)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, spans=self.span_table(), names=np.array(self.names),
                 columns=np.array(SPAN_COLUMNS))

    # ---------------------------------------------------------------- rollup
    def _get(self, values: List[Any], name: str) -> Any:
        nid = self._index.get(name)
        return values[nid] if nid is not None else 0

    def durations_us(self, name: str) -> np.ndarray:
        nid = self._index.get(name)
        if nid is None or not self.spans:
            return np.zeros(0)
        table = np.frombuffer(self.spans, dtype=np.float64).reshape(-1, 6)
        rows = table[table[:, 1] == nid]
        return np.sort(rows[:, 3] - rows[:, 2]) * 1e6

    def layer_metrics(self, phase_host_s: float) -> Dict[str, float]:
        """The host-side per-layer metrics of the traced phase."""
        out: Dict[str, float] = {}
        for metric, names in HOST_S.items():
            out[metric] = sum(self._get(self.self_s, n) for n in names)
        for metric, name in CALLS.items():
            out[metric] = self._get(self.calls, name)
        for metric, name in AMOUNTS.items():
            out[metric] = self._get(self.amount, name)
        for op in ("put", "get", "scan"):
            d = self.durations_us(f"db.{op}").tolist()
            out[f"db.{op}.host_us_p50"] = quantile(d, 0.50)
            out[f"db.{op}.host_us_p99"] = quantile(d, 0.99)
        scans = self._get(self.calls, "db.scan")
        out["db.scan.rows_per_call"] = (
            self._get(self.amount, "db.scan") / scans if scans else 0.0)
        pumps = self._get(self.calls, "storage.background.pump")
        out["storage.background.pump.idle_ratio"] = (
            self._get(self.amount, "storage.background.pump") / pumps
            if pumps else 0.0)
        traced = sum(self.self_s)
        out["trace.coverage"] = traced / phase_host_s if phase_host_s > 0 else 0.0
        return out
