"""The benchmark's workloads: set-up, seeded inputs, timed phase, checks.

Each workload is one closed-loop client on one thread.  :func:`build` makes
the store, preloads it and generates the seeded operation list (the set-up
the benchmark times as ``setup_s``); :func:`run_phase` drives the public API
(``IamDB.put/get/scan``, ``ClusterDB.put``) over that list; :func:`check_phase`
and :func:`check_store` then verify every output against a model of the
written keys.  Nothing here reads a host clock except the phase timer, so
everything simulated is a pure function of (workload, seed, scale).
"""

from __future__ import annotations

import bisect
import math
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench.calibrate import run_slice
from repro.bench.scale import KEY_SIZE, RECORD_BYTES, SSD_100G, VALUE_SIZE, make_db
from repro.cluster import ClusterDB, ClusterOptions
from repro.cluster.router import ROUTER_NODE
from repro.common.options import IamOptions
from repro.db.iamdb import IamDB
from repro.objstore.store import ObjStoreOptions
from repro.workloads.distributions import permute64, permute64_many
from repro.workloads.ycsb import YCSB_WORKLOADS, build_descriptor_stream

GET, PUT, SCAN = 0, 1, 2
Op = Tuple[Any, ...]

#: Records in the paper's SSD-100G hash load (26 MB, 6x the 4 MiB cache).
LOAD_RECORDS = SSD_100G.n_records
#: Phase sizes: a YCSB or cluster round takes 3-5 s on a 2-core host, so a
#: 15-second run medians 3-5 rounds (the load is the paper's whole §6.2 load);
#: ycsb-e's round is the longest because its simulated figures vary most
#: between seeds.
YCSB_A_OPS = 50_000
YCSB_E_RECORDS = 12_000
YCSB_E_OPS = 9_600
CLUSTER_PUTS = 30_000
#: Keys per WriteBatch when preloading (set-up only, never timed as phase).
PRELOAD_BATCH = 1000
#: Post-phase checks: scans compared against the model, absent-key probes.
CHECK_SCANS = 32
CHECK_ABSENT = 64
#: Keys per multi_get in the post-phase check (bounds the check's memory,
#: so peak_rss_mib reflects the store rather than the checker).
CHECK_BATCH = 4096
MAX_SCAN_LEN = 100
#: Operations between two calibration slices: about 40 ms of phase each, so
#: a slice (about 2.5 ms) samples the host's speed throughout the phase.
SLICE_EVERY = {"load": 500, "ycsb-a": 500, "ycsb-e": 50, "cluster-load": 400}

NAMES = ("load", "ycsb-a", "ycsb-e", "cluster-load")


@dataclass
class Case:
    """One workload instance: a built store plus the inputs of its phase."""

    name: str
    seed: int
    db: Any  # IamDB or ClusterDB
    preload: List[int]
    ops: List[Op]
    #: The phase ends with a quiesce (the loads); YCSB phases do not.
    quiesce: bool

    @property
    def clock(self) -> Any:
        return self.db.clock if isinstance(self.db, ClusterDB) else self.db.runtime.clock

    def nodes(self) -> List[IamDB]:
        """Every storage node whose counters make up the simulated figures."""
        if isinstance(self.db, ClusterDB):
            return [r.db for s in self.db.router.shards
                    for r in s.group.live_replicas()]
        return [self.db]


@dataclass
class Phase:
    """What one timed phase did."""

    host_s: float
    sim_s: float
    latencies: List[float]
    results: List[Any]
    errors: List[Tuple[int, str]]
    #: Host time of the calibration slices run between operations, and
    #: their number (see ``perfbench/calibrate.py``); not part of host_s.
    slice_s: float
    slices: int


def _key_base(seed: int) -> int:
    # Load keys are permute64 of a seed-salted counter; 2**31 seeds keep the
    # salted items below 2**63, where the absent-key probes live.
    return (seed % (1 << 31)) << 32


def _scaled(n: int, scale: float) -> int:
    return max(50, int(n * scale))


def _preload(db: IamDB, keys: Sequence[int]) -> None:
    for i in range(0, len(keys), PRELOAD_BATCH):
        batch = db.write_batch()
        for k in keys[i:i + PRELOAD_BATCH]:
            batch.put(k, VALUE_SIZE)
        batch.commit()
    db.quiesce()


def _ycsb_ops(workload: str, n_ops: int, n_records: int, seed: int) -> List[Op]:
    kinds = {"read": GET, "update": PUT, "insert": PUT, "scan": SCAN}
    out: List[Op] = []
    for d in build_descriptor_stream(YCSB_WORKLOADS[workload], n_ops,
                                     n_records, seed=seed):
        out.append((kinds[d[0]],) + tuple(d[1:]))
    return out


def make_cluster() -> ClusterDB:
    """4 shards x 2 replicas of I-1t on SSD-100G nodes, object store attached."""
    return ClusterDB(ClusterOptions(
        n_shards=4, n_replicas=2, engine="iam",
        engine_options=IamOptions(key_size=KEY_SIZE, background_threads=1),
        storage_options=SSD_100G.storage_options(),
        objstore=ObjStoreOptions()))


def build(name: str, seed: int, scale: float = 1.0) -> Case:
    """Set up one workload: store, preload and the seeded operation list."""
    if name == "load":
        base = _key_base(seed)
        n = _scaled(LOAD_RECORDS, scale)
        keys = permute64_many(range(base, base + n))
        return Case(name, seed, make_db("I-1t", SSD_100G), [],
                    [(PUT, k) for k in keys], quiesce=True)
    if name == "ycsb-a":
        n = _scaled(LOAD_RECORDS, scale)
        db = make_db("L", SSD_100G)
        preload = permute64_many(range(n))
        _preload(db, preload)
        return Case(name, seed, db, preload,
                    _ycsb_ops("A", _scaled(YCSB_A_OPS, scale), n, seed),
                    quiesce=False)
    if name == "ycsb-e":
        n = _scaled(YCSB_E_RECORDS, scale)
        db = make_db("I-1t", SSD_100G)
        preload = permute64_many(range(n))
        _preload(db, preload)
        return Case(name, seed, db, preload,
                    _ycsb_ops("E", _scaled(YCSB_E_OPS, scale), n, seed),
                    quiesce=False)
    if name == "cluster-load":
        base = _key_base(seed)
        keys = permute64_many(range(base, base + _scaled(CLUSTER_PUTS, scale)))
        return Case(name, seed, make_cluster(), [],
                    [(PUT, k) for k in keys], quiesce=True)
    raise ValueError(f"unknown workload {name!r}")


def run_phase(case: Case, current_op: List[int]) -> Phase:
    """Drive the operation list through the public API (the timed phase).

    ``current_op[0]`` is set to each operation's index, so a tracer can tag
    the spans an operation causes.
    """
    db = case.db
    clock = case.clock
    get, put, scan = db.get, db.put, db.scan
    ops = case.ops
    n = len(ops)
    latencies = [0.0] * n
    results: List[Any] = [None] * n
    errors: List[Tuple[int, str]] = []
    every = SLICE_EVERY[case.name]
    pc = time.perf_counter
    host_s = slice_s = 0.0
    sim0 = clock.now
    t0 = pc()
    for start in range(0, n, every):
        for i in range(start, min(n, start + every)):
            op = ops[i]
            current_op[0] = i
            s0 = clock.now
            try:
                kind = op[0]
                if kind == PUT:
                    put(op[1], VALUE_SIZE)
                elif kind == GET:
                    results[i] = get(op[1])
                else:
                    results[i] = scan(op[1], None, limit=op[2])
            except Exception as exc:  # counted in error_rate; the run goes on
                errors.append((i, repr(exc)))
            latencies[i] = clock.now - s0
        t1 = pc()
        host_s += t1 - t0
        run_slice()
        t0 = pc()
        slice_s += t0 - t1
    current_op[0] = -1
    if case.quiesce:
        try:
            db.quiesce()
        except Exception as exc:
            errors.append((n, repr(exc)))
    host_s += pc() - t0
    return Phase(host_s, clock.now - sim0, latencies, results, errors,
                 slice_s, -(-n // every))


# ------------------------------------------------------------ simulated figures
def counters(case: Case) -> Dict[str, float]:
    """Cumulative simulated counters, read through the public inspectors."""
    c: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        c[key] = c.get(key, 0) + value

    for db in case.nodes():
        st = db.stats()
        m = db.metrics
        leveled = db.engine.name in ("leveldb", "rocksdb")
        add("rotations", st["flushes"])
        for k in ("flushes", "appends", "merges", "splits", "combines"):
            add(k, 0 if leveled else st.get(k, 0))
        add("compactions", st.get("compactions", 0) if leveled else 0)
        add("rewritten", sum(b for lvl, b in m.level_write_bytes.items()
                             if lvl >= 1) if leveled else 0)
        add("wal_bytes", m.wal_bytes)
        add("gate_delay_s", m.total_gate_delay_s)
        add("stall_s", m.total_stall_s)
        add("manifest_bytes", db.manifest.nbytes)
        add("bloom_probes", m.bloom_probes)
        add("bloom_negatives", m.bloom_negatives)
        add("cache_hits", m.cache_hits)
        add("cache_misses", m.cache_misses)
        add("cache_inserts", db.runtime.cache.insertions)
        add("cache_evictions", db.runtime.cache.evictions)
        read, written, seeks = db.runtime.io_report()
        add("bytes_read", read)
        add("bytes_written", written)
        add("seeks", seeks)
    if isinstance(case.db, ClusterDB):
        st = case.db.stats()
        net = st["network"]
        opts = case.db.options.network
        c["messages"] = net["messages"]
        c["net_bytes"] = net["bytes_sent"]
        c["net_sim_s"] = (net["messages"] * opts.latency_s
                          + net["bytes_sent"] / opts.bandwidth)
        c["replication_bytes"] = sum(
            b for link, b in net["link_bytes"].items()
            if ROUTER_NODE not in tuple(int(x) for x in link.split("->")))
        store = st.get("objstore")
        o = case.db.options.objstore
        if store is not None and o is not None:
            c["obj_puts"] = store["puts"]
            c["obj_bytes_up"] = store["bytes_up"]
            c["obj_sim_s"] = (store["requests"] * o.latency_s
                              + (store["bytes_up"] + store["bytes_down"]
                                 + store["requests"] * o.request_bytes)
                              / o.bandwidth)
    return c


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    idx = math.ceil(q * len(sorted_values)) - 1
    return sorted_values[min(len(sorted_values) - 1, max(0, idx))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def live_keys(case: Case) -> List[int]:
    """The model: every key the set-up and the phase wrote, ascending."""
    live = set(case.preload)
    live.update(op[1] for op in case.ops if op[0] == PUT)
    return sorted(live)


def sim_metrics(case: Case, phase: Phase, before: Dict[str, float],
                n_live: int) -> Dict[str, float]:
    """Simulated end-to-end and per-layer figures of one phase.

    A pure function of (workload, seed, scale): two runs, traced or not,
    give byte-identical results.
    """
    after = counters(case)
    d = {k: after[k] - before.get(k, 0) for k in after}
    lat = sorted(phase.latencies)
    n_ops = len(case.ops)
    n_gets = sum(1 for op in case.ops if op[0] == GET)
    db = case.db
    out = {
        "sim_ops_per_s": _ratio(n_ops, phase.sim_s),
        "sim_mean_us": math.fsum(lat) / len(lat) * 1e6 if lat else 0.0,
        "sim_p99_us": quantile(lat, 0.99) * 1e6,
        "write_amp": db.write_amplification(),
        "space_amp": _ratio(db.space_used_bytes(), n_live * RECORD_BYTES),
        "db.rotations": d["rotations"],
        "storage.wal.bytes": d["wal_bytes"],
        "storage.pacing.delay_sim_s": d["gate_delay_s"],
        "storage.background.stall_sim_s": d["stall_s"],
        "storage.background.stall_frac": _ratio(d["stall_s"], phase.sim_s),
        "storage.manifest.bytes": d["manifest_bytes"],
        "filters.probes": d["bloom_probes"],
        "filters.negative_ratio": _ratio(d["bloom_negatives"], d["bloom_probes"]),
        "core.flushes": d["flushes"],
        "core.appends": d["appends"],
        "core.merges": d["merges"],
        "core.splits": d["splits"],
        "core.combines": d["combines"],
        "lsm.compactions": d["compactions"],
        "lsm.bytes_rewritten": d["rewritten"],
        "storage.pagecache.hit_ratio": _ratio(
            d["cache_hits"], d["cache_hits"] + d["cache_misses"]),
        "storage.pagecache.inserts": d["cache_inserts"],
        "storage.pagecache.evictions": d["cache_evictions"],
        "storage.simdisk.bytes_written": d["bytes_written"],
        "storage.simdisk.bytes_read": d["bytes_read"],
        "storage.simdisk.seeks": d["seeks"],
        "storage.simdisk.blocks_per_get": _ratio(
            d["cache_hits"] + d["cache_misses"], n_gets),
        "cluster.rpcs": d.get("messages", 0),
        "cluster.network.bytes": d.get("net_bytes", 0),
        "cluster.network.sim_s": d.get("net_sim_s", 0.0),
        "cluster.replication.bytes": d.get("replication_bytes", 0),
        "objstore.puts": d.get("obj_puts", 0),
        "objstore.bytes_up": d.get("obj_bytes_up", 0),
        "objstore.sim_s": d.get("obj_sim_s", 0.0),
    }
    return out


# ---------------------------------------------------------------------- checks
@dataclass
class CheckReport:
    attempted: int = 0
    failed: int = 0
    first_failures: Optional[List[str]] = None

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failures is None:
                self.first_failures = []
            if len(self.first_failures) < 10:
                self.first_failures.append(what)


def _expected_scan(base: List[int], extra: List[int], start: int,
                   n: int) -> List[int]:
    """The model's first ``n`` keys >= ``start`` over two ascending lists."""
    i = bisect.bisect_left(base, start)
    j = bisect.bisect_left(extra, start)
    return sorted(base[i:i + n] + extra[j:j + n])[:n]


def _scan_ok(rows: Any, expected: List[int]) -> bool:
    return (isinstance(rows, list)
            and [r[0] for r in rows] == expected
            and all(r[1] == VALUE_SIZE for r in rows))


def check_phase(case: Case, phase: Phase, report: CheckReport) -> None:
    """Every phase operation: it did not raise, and its output matches the
    model as of that operation (gets see the value, scans the next-N keys)."""
    failed_ops = {i for i, _ in phase.errors}
    for i, err in phase.errors:
        if i >= len(case.ops):
            report.record(False, f"quiesce raised {err}")
    has_scans = any(op[0] == SCAN for op in case.ops)
    base = sorted(case.preload)
    present = set(base)
    extra: List[int] = []  # keys the phase inserted so far (only for scans)
    for i, op in enumerate(case.ops):
        kind = op[0]
        if i in failed_ops:
            report.record(False, f"op {i} {op!r} raised")
        elif kind == GET:
            want = VALUE_SIZE if op[1] in present else None
            got = phase.results[i]
            report.record(got == want, f"op {i} get {op[1]}: {got!r} != {want!r}")
        elif kind == SCAN:
            want_keys = _expected_scan(base, extra, op[1], op[2])
            report.record(_scan_ok(phase.results[i], want_keys),
                          f"op {i} scan from {op[1]} limit {op[2]}")
        else:
            report.record(True, "")
        if kind == PUT and op[1] not in present:
            present.add(op[1])
            if has_scans:
                bisect.insort(extra, op[1])


def check_store(case: Case, keys: List[int], report: CheckReport) -> None:
    """After the phase: a batched multi_get of every written key, absent-key
    probes, sampled scans against the model, and the structural invariants."""
    db = case.db
    absent = [permute64((1 << 63) + j) for j in range(CHECK_ABSENT)]
    for i in range(0, len(keys), CHECK_BATCH):
        chunk = keys[i:i + CHECK_BATCH]
        for k, v in zip(chunk, db.multi_get(chunk)):
            report.record(v == VALUE_SIZE, f"multi_get {k}: {v!r}")
    for k, v in zip(absent, db.multi_get(absent)):
        report.record(v is None, f"multi_get absent {k}: {v!r}")
    rng = random.Random(f"{case.seed}:{case.name}:check")
    for s in range(CHECK_SCANS):
        if s % 2 == 0 and keys:
            start = keys[rng.randrange(len(keys))]
        else:
            start = rng.getrandbits(64)
        n = rng.randrange(1, MAX_SCAN_LEN + 1)
        try:
            rows = db.scan(start, None, limit=n)
        except Exception as exc:
            report.record(False, f"check scan from {start} raised {exc!r}")
            continue
        report.record(_scan_ok(rows, _expected_scan(keys, [], start, n)),
                      f"check scan from {start} limit {n}")
    try:
        db.check_invariants()
        report.record(True, "")
    except Exception as exc:
        report.record(False, f"check_invariants raised {exc!r}")
