"""Stall attribution: blame classes over structured stall reasons.

The storage stack already records *why* every foreground wait happened --
``BackgroundPool.wait_for`` and the engine write gates tag each stall with
a reason string ("memtable-rotation", "l0-stop", "wait:compact:L2", ...).
This module rolls those reasons up into a small fixed set of **blame
classes** so timelines, ``stats()`` and the trace summary can answer "who
ate my throughput?" without a per-reason legend:

* ``write-gate``  -- soft admission slowdowns ("slowdown:<band>") and the
  fault-injection degraded gate.  These are *gate delays* (the write is
  admitted late, the clock advances inline), tracked separately from hard
  stalls in :class:`~repro.metrics.amplification.MetricsRegistry`.
* ``pacing``      -- token-bucket admission at the sustainable ingest rate
  ("pace:<mechanism>"); the stability scheduler's smooth replacement for
  LevelDB/RocksDB's cliff-edge slowdown bands.
* ``flush-wait``  -- blocked on a memtable flush ("memtable-rotation",
  "explicit-flush").
* ``l0-stop``     -- the hard L0 write stop (leveled engines).
* ``pool-queue``  -- waiting for a specific background job to drain
  ("wait:<job>").
* ``network``     -- cluster router admission and link pacing.
* ``objstore``    -- queued behind the shared object store's request
  channel ("objstore-append" for durable log/object uploads,
  "objstore-fetch" for bootstrap gets and cache fills).
* ``other``       -- any reason the map does not recognize (kept visible,
  never silently dropped).  Structured prefixes ("wait:", "pace:",
  "slowdown:") always land in their named class, so new emit sites that
  follow the prefix convention can never silently grow this bucket.

Everything here is pure bookkeeping over snapshots -- observation-only by
registry prefix (see ``repro.check.effects.registry``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

if TYPE_CHECKING:  # no runtime import: amplification imports this module
    from repro.metrics.amplification import StallStat

#: The fixed blame classes, in report order.
STALL_CLASSES: Tuple[str, ...] = (
    "write-gate", "pacing", "flush-wait", "l0-stop", "pool-queue", "network",
    "objstore", "other",
)

#: (count, total_s, max_s) -- the wire form of one reason's aggregate.
StallTriple = Tuple[int, float, float]


def classify_stall_reason(reason: str) -> str:
    """Map one structured stall reason to its blame class."""
    if reason in ("memtable-rotation", "explicit-flush"):
        return "flush-wait"
    if reason == "l0-stop":
        return "l0-stop"
    if reason in ("router-admission", "net-link"):
        return "network"
    if reason.startswith("objstore"):
        return "objstore"
    if reason.startswith("wait:"):
        return "pool-queue"
    if reason.startswith("pace:"):
        return "pacing"
    if reason.startswith("slowdown:") or reason == "fault-degraded":
        return "write-gate"
    return "other"


class StallBreakdown:
    """Per-class and per-reason aggregate of stalls + gate delays.

    Built from snapshot-style ``reason -> (count, total_s, max_s)`` maps so
    the same code serves a live registry, a single snapshot, and a merged
    cluster snapshot.  ``total_s`` is hard stalls *plus* soft gate delays;
    the two components stay separately visible because the paper's
    stability argument treats "writes blocked" and "writes paced"
    differently (Luo & Carey's stop vs slowdown distinction).
    """

    __slots__ = ("classes", "reasons", "stall_s", "gate_delay_s")

    def __init__(self,
                 stalls: Mapping[str, StallTriple],
                 gate_delays: Mapping[str, StallTriple]) -> None:
        self.reasons: Dict[str, StallTriple] = {}
        self.classes: Dict[str, StallTriple] = {
            cls: (0, 0.0, 0.0) for cls in STALL_CLASSES}
        self.stall_s = 0.0
        self.gate_delay_s = 0.0
        for reason, triple in sorted(stalls.items()):
            self._add(reason, triple)
            self.stall_s += triple[1]
        for reason, triple in sorted(gate_delays.items()):
            self._add(reason, triple)
            self.gate_delay_s += triple[1]

    def _add(self, reason: str, triple: StallTriple) -> None:
        prev = self.reasons.get(reason, (0, 0.0, 0.0))
        self.reasons[reason] = (prev[0] + triple[0], prev[1] + triple[1],
                                max(prev[2], triple[2]))
        cls = classify_stall_reason(reason)
        cprev = self.classes[cls]
        self.classes[cls] = (cprev[0] + triple[0], cprev[1] + triple[1],
                             max(cprev[2], triple[2]))

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_metrics(cls, stalls: Mapping[str, "StallStat"],
                     gate_delays: Mapping[str, "StallStat"]) -> "StallBreakdown":
        """Build from live :class:`StallStat` maps (a registry's fields)."""
        return cls(
            {r: (st.count, st.total_s, st.max_s) for r, st in stalls.items()},
            {r: (st.count, st.total_s, st.max_s)
             for r, st in gate_delays.items()},
        )

    @classmethod
    def from_snapshot(cls, snap: Mapping[str, object]) -> "StallBreakdown":
        """Build from a (possibly merged) registry snapshot dict."""
        def _triples(key: str) -> Dict[str, StallTriple]:
            raw = snap.get(key)
            if not isinstance(raw, dict):
                return {}
            return {str(r): (int(t[0]), float(t[1]), float(t[2]))
                    for r, t in raw.items()}
        return cls(_triples("stalls"), _triples("gate_delays"))

    # ---------------------------------------------------------------- reports
    @property
    def total_s(self) -> float:
        """Hard stall seconds + soft gate-delay seconds."""
        return self.stall_s + self.gate_delay_s

    def class_seconds(self) -> Dict[str, float]:
        """Blamed seconds per class (all classes, zeros included)."""
        return {cls: self.classes[cls][1] for cls in STALL_CLASSES}

    def longest(self) -> Tuple[str, float]:
        """(reason, seconds) of the single longest stall/delay, or ("", 0)."""
        best_reason, best = "", 0.0
        for reason in sorted(self.reasons):
            m = self.reasons[reason][2]
            if m > best:
                best_reason, best = reason, m
        return best_reason, best

    def as_dict(self, sim_seconds: Optional[float] = None) -> Dict[str, object]:
        """JSON-able report; adds ``blamed_fraction`` when a duration given."""
        out: Dict[str, object] = {
            "total_s": self.total_s,
            "stall_s": self.stall_s,
            "gate_delay_s": self.gate_delay_s,
            "classes": {
                cls: {"count": trip[0], "total_s": trip[1], "max_s": trip[2]}
                for cls, trip in self.classes.items()},
            "reasons": {
                r: {"count": trip[0], "total_s": trip[1], "max_s": trip[2]}
                for r, trip in sorted(self.reasons.items())},
        }
        if sim_seconds is not None and sim_seconds > 0.0:
            out["blamed_fraction"] = self.total_s / sim_seconds
        return out
