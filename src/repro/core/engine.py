"""Engine interface shared by LSA/IAM and the baseline LSM engines.

An engine owns the on-disk structure.  The DB wrapper (:mod:`repro.db`) owns
the WAL and memtable and hands full memtables over through
:meth:`EngineBase.submit_flush`; everything below that line -- compaction
scheduling, reads, invariants -- is the engine's business.

Scheduling contract: the engine registers itself as the background pool's
*provider*; whenever a background thread goes idle the pool asks
:meth:`EngineBase.pick_background_job` for the next compaction.  Structural
mutation happens when a job activates (see :mod:`repro.storage.background`).

An engine file holds only its policy.  The machinery every engine shares
lives here: the write gate (:meth:`EngineBase.write_gate`, plus the L0
file-count gate and flush-to-L0 job of :class:`L0Engine`), the two
data-movement primitives (:meth:`EngineBase._gather_runs` reads compaction
inputs, :meth:`EngineBase._write_run` writes outputs; runs are cut with
:func:`repro.table.merge.split_run`), and the table walk
(:meth:`EngineBase._tables`) behind orphan GC and restore.
"""

from __future__ import annotations

import abc
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.common.errors import InvariantViolation
from repro.common.options import LsmOptions
from repro.common.records import Key, RecordTuple
from repro.storage.background import BackgroundJob
from repro.storage.pacing import (
    RateEstimator,
    TokenBucketPacer,
    degraded_extra_delay_s,
)
from repro.storage.runtime import Runtime
from repro.table.mstable import MSTable
from repro.check.effects.registry import effects, observation_only

if TYPE_CHECKING:  # pragma: no cover
    from repro.check.sanitizer import Sanitizer

#: Callable returning the live snapshot sequence numbers (for merge GC).
SnapshotProvider = Callable[[], Sequence[int]]

#: Token-bucket burst capacity as a fraction of the memtable; a quarter
#: memtable absorbs ordinary write bursts without engaging the pacer.
PACER_BURST_FRACTION = 0.25

#: Absolute burst cap in bytes.  A large burst lets L0 overshoot well past
#: the pressure point before any delay bites (the structure degrades, reads
#: slow down, windowed throughput swings); a dozen-write allowance is enough
#: to forgive blips while still braking the moment pressure persists.
PACER_BURST_BYTES = 1024.0

#: Sustainable-rate estimation window in memtables of user bytes.
PACER_WINDOW_MEMTABLES = 8


class EngineBase(abc.ABC):
    """Common surface of every storage engine in this repo."""

    name: str = "engine"
    #: The engine's options; every engine's options carry ``key_size`` and
    #: ``bloom_bits_per_key`` (:class:`repro.common.options.TreeOptions`).
    options: Any

    def __init__(self, runtime: Runtime) -> None:
        self.runtime = runtime
        self.snapshots_provider: SnapshotProvider = tuple
        #: Optional runtime sanitizer (attached by the DB wrapper when the
        #: debug layer is enabled; see :mod:`repro.check.sanitizer`).
        self.sanitizer: Optional["Sanitizer"] = None
        # No pacing until the engine calls :meth:`_init_scheduling`.
        self._pacer: Optional[TokenBucketPacer] = None
        self._rate_estimator: Optional[RateEstimator] = None
        runtime.pool.set_provider(self.pick_background_job)

    def _init_scheduling(self) -> None:
        """Attach the token-bucket pacer and its rate estimator.

        Called by each engine's constructor after its options are set (the
        pacer sizes its burst from :attr:`memtable_capacity`).
        """
        bandwidth = self.runtime.options.device.write_bandwidth
        capacity = max(1, self.memtable_capacity)
        burst = min(capacity * PACER_BURST_FRACTION, PACER_BURST_BYTES)
        self._pacer = TokenBucketPacer(burst, now=self.runtime.clock.now)
        self._rate_estimator = RateEstimator(
            bandwidth, window_bytes=PACER_WINDOW_MEMTABLES * capacity)

    @observation_only
    def _sanitize(self, event: str) -> None:
        """Run the structural sanitizer after ``event``, when attached."""
        if self.sanitizer is not None:
            self.sanitizer.after_structural_event(self, event)

    def _trace(self, cat: str, name: str, **args: object) -> None:
        """Emit a structural trace instant when tracing is enabled.

        Hot call sites should guard on ``self.runtime.tracer.enabled`` before
        building kwargs; this helper re-checks so cold sites can call it
        unconditionally.
        """
        tracer = self.runtime.tracer
        if tracer.enabled:
            tracer.instant(cat, name, **args)

    def _crash_point(self, site: str) -> None:
        """Fire the crash-point scheduler at an engine-internal site."""
        cp = self.runtime.crash_points
        if cp is not None:
            cp.reached(site)

    @effects("CLOCK_ADVANCE", "STATE_MUTATE")
    def _fault_gate(self, nbytes: int) -> float:
        """Degradation pacing while background jobs keep failing.

        Each consecutive job give-up (``pool.failed_streak``) halves the
        write rate, floored at 1/256 of device bandwidth: under a failing
        device the store slows down instead of crashing or running the
        structure unboundedly far past its thresholds.  Returns the added
        latency (0.0 on the clean path).
        """
        streak = self.runtime.pool.failed_streak
        if streak <= 0 or nbytes <= 0:
            return 0.0
        frac = max(2.0 ** -min(streak, 8), 1.0 / 256.0)
        bw = self.runtime.options.device.write_bandwidth
        extra = degraded_extra_delay_s(nbytes, bw, frac)
        if extra <= 0.0:
            return 0.0
        self.runtime.clock.advance(extra)
        self.runtime.metrics.bump("slowdown:fault-degraded")
        self.runtime.metrics.add_gate_delay("fault-degraded", extra)
        self._trace("gate", "fault-degraded", streak=streak, delay_s=extra)
        return extra

    def _pace_policy(self, sustainable: float) -> Tuple[bool, float]:
        """(pressure, admission rate) for the token bucket.

        The base engages only when work is actually queued behind the
        running jobs (the pool cannot keep up) and then admits at the
        observed sustainable rate.  Kept deliberately conservative:
        token-bucket delays are accounted as gate delays, so over-engaging
        the pacer would itself show up as instability.  :class:`L0Engine`
        keys both on its L0 file count instead.
        """
        return bool(self.runtime.pool.queue), sustainable

    @effects("CLOCK_ADVANCE", "STATE_MUTATE")
    def _token_pace(self, nbytes: int) -> float:
        """Token-bucket admission at the observed sustainable ingest rate.

        Replaces the legacy cliff-edge slowdown bands: instead of jumping
        from full speed to ``delayed_write_fraction`` of bandwidth past a
        trigger, writes are paced smoothly at the rate the background
        machinery has recently proven it can absorb
        (:class:`repro.storage.pacing.RateEstimator`), shaped by
        :meth:`_pace_policy`.  Only engages while the policy reports
        pressure; otherwise the bucket just refills.  Returns the added
        latency (0.0 on the clean path).
        """
        pacer = self._pacer
        estimator = self._rate_estimator
        if pacer is None or estimator is None or nbytes <= 0:
            return 0.0
        pool = self.runtime.pool
        metrics = self.runtime.metrics
        estimator.observe(pool.bg_drained_s, metrics.user_bytes)
        pressure, rate = self._pace_policy(estimator.rate())
        now = self.runtime.clock.now
        if not pressure:
            pacer.refill(now, rate)
            return 0.0
        delay = pacer.admit(nbytes, now, rate)
        if delay <= 0.0:
            return 0.0
        # The advance opens idle device time that the next pump() converts
        # into background progress via bg_grant: pacing *is* compaction
        # headroom, not dead waiting.
        self.runtime.clock.advance(delay)
        metrics.bump("pace:token-bucket")
        metrics.add_gate_delay("pace:token-bucket", delay)
        self._trace("gate", "pace:token-bucket", delay_s=delay, rate=rate)
        return delay

    # ------------------------------------------------------------------ write
    @property
    @abc.abstractmethod
    def memtable_capacity(self) -> int:
        """Bytes after which the DB rotates the memtable (Ct / write_buffer)."""

    @abc.abstractmethod
    def submit_flush(self, records: List[RecordTuple], nbytes: int) -> BackgroundJob:
        """Schedule the flush of a full (immutable) memtable."""

    @effects("CLOCK_ADVANCE", "STATE_MUTATE")
    def write_gate(self, nbytes: int) -> float:
        """Admit a user write: fault degradation, then token pacing.

        ``nbytes`` is the write's encoded size (pacing is by bytes).
        Returns the simulated latency spent gated (0.0 when unobstructed).
        """
        lat = self._fault_gate(nbytes)
        lat += self._token_pace(nbytes)
        return lat

    # ---------------------------------------------------------- data movement
    def _gather_runs(self, tables: Iterable[MSTable],
                     ) -> Tuple[List[List[RecordTuple]], float]:
        """Compaction input: every sequence of ``tables`` as a sorted run,
        in table then sequence order, and the background-read debt of
        consuming them (charged table by table, in the same order)."""
        runs: List[List[RecordTuple]] = []
        debt = 0.0
        for table in tables:
            debt += table.compaction_read_debt()
            runs.extend(seq.records for seq in table.sequences)
        return runs, debt

    def _write_run(self, records: List[RecordTuple], level: int,
                   table: Optional[MSTable] = None) -> Tuple[MSTable, float]:
        """Write one sorted run at ``level``: appended to ``table`` as a new
        sequence, or as a fresh single-sequence table when ``table`` is
        None or deleted.  Returns (the table written, device-time debt)."""
        opts = self.options
        if table is None or table.deleted:
            return MSTable.build(self.runtime, records, key_size=opts.key_size,
                                 bloom_bits_per_key=opts.bloom_bits_per_key,
                                 level=level)
        _, debt = table.append_sequence(records, level=level)
        return table, debt

    # ------------------------------------------------------------- background
    @abc.abstractmethod
    def pick_background_job(self) -> Optional[BackgroundJob]:
        """Offer the next compaction job, or None when nothing is demanded."""

    def quiesce(self) -> float:
        """Finish all background work; returns elapsed simulated time."""
        return self.runtime.pool.drain_all()

    # ------------------------------------------------------------------- read
    @abc.abstractmethod
    def get(self, key: Key, snapshot: Optional[int] = None) -> Tuple[Optional[RecordTuple], float]:
        """Newest visible on-disk version of ``key``; (record|None, latency)."""

    def multi_get(self, keys: Sequence[Key], snapshot: Optional[int] = None,
                  ) -> Tuple[List[Optional[RecordTuple]], List[float]]:
        """Batched :meth:`get`: ([record|None, ...], [latency, ...]).

        The base implementation is the scalar loop, so it is trivially
        charge-identical to a caller looping :meth:`get`.  Engines override
        it with vectorized planners that replay the same device charges in
        the same order (see :meth:`repro.core.lsa.LsaTree.multi_get`).
        Latencies are measured as per-key simulated-clock deltas.
        """
        clock = self.runtime.clock
        results: List[Optional[RecordTuple]] = []
        latencies: List[float] = []
        for key in keys:
            t0 = clock.now
            rec, _ = self.get(key, snapshot)
            results.append(rec)
            latencies.append(clock.now - t0)
        return results, latencies

    def _replay_probe_plans(self, probes: List[List[Tuple[int, range]]],
                            counters: List[int]) -> List[float]:
        """Phase B of a planned batch lookup: issue the per-key charges.

        ``probes[g]`` holds key ``g``'s planned ``(file_id, blocks)`` reads
        in scalar walk order; replaying them key by key, in request order,
        reproduces the scalar loop's device/cache/clock trajectory exactly.
        Returns per-key simulated latencies (clock deltas).
        """
        fg = self.runtime.fg_read_blocks
        clock = self.runtime.clock
        latencies = [0.0] * len(probes)
        for g, plist in enumerate(probes):
            if plist:
                t0 = clock.now
                for fid, blocks in plist:
                    fg(fid, blocks)
                latencies[g] = clock.now - t0
        if counters[0]:
            self.runtime.metrics.add_bloom_probes(counters[0], counters[1])
        return latencies

    @observation_only
    @abc.abstractmethod
    def scan_plan(self, lo_key: Optional[Key],
                  hi_key: Optional[Key]) -> List[object]:
        """Stream plan for the scan assembler and the DB iterator.

        A list of :mod:`repro.table.scan` stream states, one per
        independently-seeking component, in the same order as
        :meth:`scan_cursors`.  Engines without range reads raise
        :class:`repro.lsm.lsmtrie.ScansUnsupportedError`.
        """

    @abc.abstractmethod
    def scan_cursors(self, lo_key: Optional[Key],
                     hi_key: Optional[Key]) -> List[Iterable[RecordTuple]]:
        """Lazily-charging sorted iterators covering [lo, hi] (inclusive).

        One iterator per independently-seeking component (each L0 file, each
        deeper level), charging I/O -- with read-ahead -- as records are
        consumed.  The DB never reads through these: its scans and
        iterators run on :meth:`scan_plan`.  They feed only the frozen
        oracle :func:`repro.bench.reference.reference_scan` (and its lazy
        twin ``reference_iterate``) and the engine-internals tests.
        """

    # ------------------------------------------------------------- inspection
    @abc.abstractmethod
    def level_data_bytes(self) -> Dict[int, int]:
        """Live data bytes per level (the paper's D_j)."""

    @observation_only
    @abc.abstractmethod
    def check_invariants(self) -> None:
        """Raise InvariantViolation when the structure is inconsistent."""

    @observation_only
    @abc.abstractmethod
    def describe(self) -> Dict[str, object]:
        """Structure digest for reports and tests."""

    # --------------------------------------------------------------- recovery
    @abc.abstractmethod
    def checkpoint_state(self) -> object:
        """Durable structure snapshot for the manifest.

        Must be an *owned*, pure-data snapshot: no references to live nodes,
        tables or level lists (the manifest stores it verbatim, so aliasing
        would leak post-checkpoint mutations into recovery).
        """

    @abc.abstractmethod
    def restore_state(self, state: object) -> None:
        """Rebuild the structure from a manifest checkpoint.

        ``state`` is what :meth:`checkpoint_state` returned, or None to
        reset the engine to its pristine (empty) structure -- the crash
        path before any checkpoint exists.  Implementations release the
        files of the structure they replace (:meth:`_release_tables`);
        output files of abandoned in-flight jobs are swept separately by
        the DB's orphan collector.
        """

    @abc.abstractmethod
    def _tables(self) -> Iterator[MSTable]:
        """Every table the current structure references, in structure order."""

    def _release_tables(self) -> None:
        """Delete every table of the structure (the prologue of a restore)."""
        for table in self._tables():
            table.delete()

    def live_file_ids(self) -> Set[int]:
        """File ids referenced by the current structure (orphan-GC keep set)."""
        return {t.file_id for t in self._tables() if not t.deleted}


class L0Engine(EngineBase):
    """An engine that flushes memtables into an L0 of overlapping files.

    The leveled and FLSM engines share this write side: the memtable size,
    the flush-to-L0 job and the L0 gate -- a token-bucket ramp from the
    slowdown trigger toward the stop trigger, then a hard stall at the
    stop trigger -- all keyed on one :meth:`_l0_files` count.  An engine
    adds its own pending-compaction debt through
    :meth:`_pending_compaction_bytes` (0 unless overridden).
    """

    options: LsmOptions

    def __init__(self, options: LsmOptions, runtime: Runtime) -> None:
        super().__init__(runtime)
        self.options = options
        #: Levels an in-flight compaction reads or writes (see
        #: :meth:`_claim_job`).
        self._busy_levels: Set[int] = set()
        self._init_scheduling()

    @property
    def memtable_capacity(self) -> int:
        return self.options.memtable_bytes

    @abc.abstractmethod
    def _l0_files(self) -> int:
        """Files currently in L0 (what the L0 gate is keyed on)."""

    @abc.abstractmethod
    def _add_l0(self, table: MSTable) -> None:
        """Link a freshly flushed table into L0."""

    def submit_flush(self, records: List[RecordTuple], nbytes: int) -> BackgroundJob:
        def start() -> float:
            table, debt = self._write_run(records, 0)
            self._add_l0(table)
            return debt

        return self.runtime.submit_job("flush->L0", start, high_priority=True)

    def _claim_job(self, name: str, levels: Tuple[int, ...],
                   start: Callable[[], float]) -> BackgroundJob:
        """A compaction job holding ``levels`` busy until it completes."""
        self._busy_levels.update(levels)

        def done() -> None:
            self._busy_levels.difference_update(levels)

        return BackgroundJob(name, start, on_complete=done)

    # ------------------------------------------------------------ write gate
    @effects("CLOCK_ADVANCE", "DISK_CHARGE", "SPAN_BEGIN", "SPAN_END", "STATE_MUTATE")
    def write_gate(self, nbytes: int) -> float:
        """The shared admission (:meth:`EngineBase.write_gate`), then the
        hard L0 stop."""
        lat = self._fault_gate(nbytes)
        lat += self._token_pace(nbytes)
        lat += self._l0_stop_backstop(nbytes)
        return lat

    @effects("CLOCK_ADVANCE", "DISK_CHARGE", "SPAN_BEGIN", "SPAN_END", "STATE_MUTATE")
    def _l0_stop_backstop(self, nbytes: int) -> float:
        """Hard stall until an L0 compaction brings the file count down."""
        opts = self.options
        guard = 0
        stall_s = 0.0
        lat = 0.0
        while self._l0_files() >= opts.l0_stop_trigger:
            guard += 1
            if guard > 100_000:
                raise InvariantViolation("L0 stop stall did not converge")
            step = self.runtime.pool.step_drain()
            lat += step
            stall_s += step
            if step == 0.0 and not self.runtime.pool.busy:
                break
        if guard:
            self.runtime.metrics.bump("stall:l0-stop")
            if stall_s > 0.0:
                self.runtime.metrics.add_stall("l0-stop", stall_s)
                if self.runtime.tracer.enabled:
                    self._trace("stall", "stall", reason="l0-stop",
                                duration_s=stall_s)
        return lat

    def _pace_policy(self, sustainable: float) -> Tuple[bool, float]:
        rate = self._pace_rate(sustainable)
        return self._pace_pressure(), rate

    def _pace_pressure(self) -> bool:
        """Pace when L0 or pending debt crosses its slowdown trigger.

        Engaging earlier (at the compaction trigger) over-paces: YCSB's
        read-heavy phases drain debt through granted idle time on their
        own, and every pacer delay is an accounted gate delay.  The band
        thresholds mark where the structure demonstrably can't keep up.
        """
        opts = self.options
        if self._l0_files() >= opts.l0_slowdown_trigger:
            return True
        soft = opts.pending_compaction_soft_bytes
        return bool(soft and self._pending_compaction_bytes() > soft)

    def _pace_rate(self, sustainable: float) -> float:
        """Ramp the brake from the slowdown-band strength to the measured rate.

        At the slowdown trigger the bucket admits at
        ``bandwidth * delayed_write_fraction`` -- the rate of a LevelDB /
        RocksDB slowdown band, but smooth (burst-absorbed, no on/off cliff).  As
        L0 climbs toward the stop trigger (or debt doubles its soft
        limit), the admitted rate ramps linearly down to the estimator's
        sustainable rate, floored at ``delayed_write_fraction`` of the
        band rate so a cold estimate can never freeze admission.
        """
        opts = self.options
        bw = self.runtime.options.device.write_bandwidth
        frac = opts.delayed_write_fraction
        gentle = bw * frac
        n0 = self._l0_files()
        lo, hi = opts.l0_slowdown_trigger, opts.l0_stop_trigger - 1
        scale = 0.0
        if n0 >= lo:
            scale = min(1.0, (n0 - lo) / (hi - lo)) if hi > lo else 1.0
        soft = opts.pending_compaction_soft_bytes
        if soft:
            debt = self._pending_compaction_bytes()
            if debt > soft:
                scale = max(scale, min(1.0, (debt - soft) / soft))
        floor = min(max(sustainable, gentle * frac), gentle)
        return gentle + scale * (floor - gentle)

    def _pending_compaction_bytes(self) -> int:
        """Bytes of compaction work the structure owes (0: no debt signal)."""
        return 0
