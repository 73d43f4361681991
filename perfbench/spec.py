"""Metric and workload catalogue of the benchmark.

One place names every workload and metric.  ``BENCHMARK.json`` at the repo
root is :func:`benchmark_json` written out (``test_perfbench`` keeps the two
equal); the extra fields here -- each metric's layer, and for each per-layer
metric the end-to-end metric and workload it should move -- are the
benchmark's own documentation and are not part of that file's format.

Host figures (``ref_ops_per_s``, ``host_*``, ``*.host_s``, ``*.host_us_*``,
``setup_s``, ``peak_rss_mib``) compare only within one host: a change and its
parent are measured on the same machine, so no absolute floor carries over
from another machine.  Simulated figures (``sim_*``, ``write_amp``, ``space_amp`` and the
simulated per-layer counts) are deterministic per seed and identical on
every host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 15

#: name -> why the workload is in the benchmark (one line each).
WORKLOADS: Dict[str, str] = {
    "load": "IAM (I-1t) hash load of 92k unique puts, 6x the 4 MiB cache, "
            "quiesced: the write path alone (WAL, memtable, pacer, pump, "
            "flush, append compaction, manifest)",
    "ycsb-a": "LevelDB-style leveled engine (L), 50% get / 50% zipfian update "
              "over a preload 6x the cache: merges and cache misses beside "
              "reads, so a write gain that taxes reads shows",
    "ycsb-e": "IAM (I-1t), 95% scans of 1-100 rows / 5% inserts over 12k "
              "records that fit the cache: the multi-sequence read penalty "
              "of appends, write layers nearly idle",
    "cluster-load": "hash puts through a 4-shard x 2-replica IAM cluster with "
                    "the object store attached: the only workload that runs "
                    "router, network, replication and manifest log",
}


@dataclass(frozen=True)
class Metric:
    """One reported metric."""

    name: str
    unit: str
    better: str  # "higher" | "lower"
    layer: str
    doc: str
    #: End-to-end only: the share of the parent's median by which the
    #: metric may worsen before a change counts as a regression.
    bound: float = 0.0
    #: Per-layer only: (end-to-end metric, workload) pairs this metric
    #: should move.
    moves: Tuple[Tuple[str, str], ...] = ()
    #: Per-layer only: workloads on which the prediction is no change.
    holds: Tuple[str, ...] = ()


def _e2e(name: str, unit: str, better: str, bound: float, doc: str) -> Metric:
    return Metric(name, unit, better, "end_to_end", doc, bound=bound)


END_TO_END: List[Metric] = [
    _e2e("ref_ops_per_s", "ops/ref-s", "higher", 0.25,
         "operations per host second in the timed phase, rescaled to a host "
         "of reference speed by the calibration slices run between "
         "operations (perfbench/calibrate.py); median over the run's rounds"),
    _e2e("setup_s", "s", "lower", 0.25,
         "interpreter warm-up plus the median host time to build the store, "
         "preload it and generate the inputs, rescaled to the reference host "
         "like ref_ops_per_s by the run's calibration slices"),
    _e2e("peak_rss_mib", "MiB", "lower", 0.1,
         "peak resident memory of the run's worker process"),
    _e2e("sim_ops_per_s", "ops/sim-s", "higher", 0.25,
         "operations per simulated second (the paper's throughput axis)"),
    _e2e("sim_mean_us", "sim-us", "lower", 0.25,
         "mean simulated latency per operation in the phase (the median is "
         "0 on ycsb-e, whose cache-resident scans cost no simulated time)"),
    _e2e("sim_p99_us", "sim-us", "lower", 0.25,
         "99th-percentile simulated latency per operation (>=1k ops, so "
         ">=10 samples lie beyond it)"),
    _e2e("write_amp", "ratio", "lower", 0.1,
         "write_amplification() at the end of the phase, WAL excluded"),
    _e2e("space_amp", "ratio", "lower", 0.1,
         "device bytes per live user byte at the end of the phase"),
]

def _layer(name: str, unit: str, better: str, layer: str, doc: str,
           moves: Tuple[Tuple[str, str], ...], holds: Tuple[str, ...] = ()
           ) -> Metric:
    return Metric(name, unit, better, layer, doc, moves=moves, holds=holds)


_M_LOAD = (("ref_ops_per_s", "load"),)
_M_LOAD_CLUSTER = (("ref_ops_per_s", "load"), ("ref_ops_per_s", "cluster-load"))
_M_A = (("ref_ops_per_s", "ycsb-a"),)
_M_E = (("ref_ops_per_s", "ycsb-e"),)
_M_BG = (("ref_ops_per_s", "load"), ("ref_ops_per_s", "ycsb-a"),
         ("sim_p99_us", "load"), ("sim_p99_us", "ycsb-a"),
         ("sim_ops_per_s", "load"), ("sim_ops_per_s", "ycsb-a"))
_M_DISK = tuple((m, w) for w in WORKLOADS
                for m in ("write_amp", "sim_ops_per_s"))
_M_CLUSTER = (("ref_ops_per_s", "cluster-load"),
              ("sim_ops_per_s", "cluster-load"))
_M_OBJ = (("sim_p99_us", "cluster-load"), ("ref_ops_per_s", "cluster-load"))

PER_LAYER: List[Metric] = [
    # db: IamDB.put/get/scan/quiesce
    _layer("db.put.calls", "count", "lower", "db", "IamDB.put calls",
           _M_LOAD_CLUSTER),
    _layer("db.put.host_us_p50", "us", "lower", "db",
           "median host time of one IamDB.put, children included",
           _M_LOAD_CLUSTER),
    _layer("db.put.host_us_p99", "us", "lower", "db",
           "99th-percentile host time of one IamDB.put", _M_LOAD_CLUSTER),
    _layer("db.get.calls", "count", "lower", "db", "IamDB.get calls", _M_A),
    _layer("db.get.host_us_p50", "us", "lower", "db",
           "median host time of one IamDB.get", _M_A),
    _layer("db.get.host_us_p99", "us", "lower", "db",
           "99th-percentile host time of one IamDB.get", _M_A),
    _layer("db.scan.calls", "count", "lower", "db", "IamDB.scan calls", _M_E),
    _layer("db.scan.host_us_p50", "us", "lower", "db",
           "median host time of one IamDB.scan", _M_E),
    _layer("db.scan.host_us_p99", "us", "lower", "db",
           "99th-percentile host time of one IamDB.scan", _M_E),
    _layer("db.scan.rows_per_call", "rows", "higher", "db",
           "rows returned per IamDB.scan call", _M_E),
    _layer("db.rotations", "count", "lower", "db",
           "memtable rotations (flushes handed to the engine)", _M_LOAD),
    _layer("db.host_s", "s", "lower", "db",
           "self time in IamDB.put/get/scan/quiesce", _M_LOAD_CLUSTER + _M_E),
    # memtable
    _layer("memtable.add.calls", "count", "lower", "memtable",
           "Memtable.add calls", _M_LOAD),
    _layer("memtable.host_s", "s", "lower", "memtable",
           "self time in Memtable.add", _M_LOAD),
    # storage.wal
    _layer("storage.wal.append.calls", "count", "lower", "storage.wal",
           "WriteAheadLog.append calls", _M_LOAD + _M_A),
    _layer("storage.wal.host_s", "s", "lower", "storage.wal",
           "self time in WriteAheadLog.append", _M_LOAD + _M_A),
    _layer("storage.wal.bytes", "B", "lower", "storage.wal",
           "bytes appended to the WAL (simulated)",
           _M_LOAD + _M_A + (("sim_mean_us", "load"),)),
    # storage.pacing (engine.write_gate)
    _layer("storage.pacing.gate.calls", "count", "lower", "storage.pacing",
           "engine write_gate calls", _M_LOAD),
    _layer("storage.pacing.host_s", "s", "lower", "storage.pacing",
           "self time in engine write_gate", _M_LOAD),
    _layer("storage.pacing.delay_sim_s", "sim-s", "lower", "storage.pacing",
           "simulated write delay imposed by the pacer",
           (("sim_p99_us", "load"), ("sim_p99_us", "ycsb-a"))),
    # storage.background (Runtime.pump/stall_on/quiesce)
    _layer("storage.background.pump.calls", "count", "lower",
           "storage.background", "Runtime.pump calls", _M_BG),
    _layer("storage.background.pump.host_s", "s", "lower",
           "storage.background",
           "self time in Runtime.pump, stall_on and quiesce", _M_BG),
    _layer("storage.background.pump.idle_ratio", "ratio", "lower",
           "storage.background",
           "pumps that advanced no job, divided by all pumps", _M_BG),
    _layer("storage.background.flush_jobs", "count", "lower",
           "storage.background", "flush jobs submitted", _M_BG),
    _layer("storage.background.compaction_jobs", "count", "lower",
           "storage.background", "compaction jobs the engines offered",
           _M_BG),
    _layer("storage.background.stall_sim_s", "sim-s", "lower",
           "storage.background", "simulated foreground stall time", _M_BG),
    _layer("storage.background.stall_frac", "ratio", "lower",
           "storage.background",
           "stall time divided by the phase's simulated time", _M_BG),
    # storage.manifest (Manifest.checkpoint, engine.checkpoint_state)
    _layer("storage.manifest.checkpoint.calls", "count", "lower",
           "storage.manifest", "Manifest.checkpoint calls", _M_LOAD,
           ("ycsb-e",)),
    _layer("storage.manifest.checkpoint.host_s", "s", "lower",
           "storage.manifest",
           "self time in Manifest.checkpoint and engine checkpoint_state",
           _M_LOAD, ("ycsb-e",)),
    _layer("storage.manifest.snapshot_nodes", "count", "lower",
           "storage.manifest", "MSTable.snapshot calls made by checkpoints",
           _M_LOAD, ("ycsb-e",)),
    _layer("storage.manifest.bytes", "B", "lower", "storage.manifest",
           "bytes the manifest files grew by (simulated)", _M_LOAD,
           ("ycsb-e",)),
    # table (MSTable.build/append_sequence, merge_runs, planned_scan)
    _layer("table.build.calls", "count", "lower", "table",
           "MSTable.append_sequence calls (sequences written)", _M_LOAD),
    _layer("table.build.host_s", "s", "lower", "table",
           "self time in MSTable.build/append_sequence (block layout)",
           _M_LOAD),
    _layer("table.records_built", "count", "lower", "table",
           "records written into sequences", _M_LOAD),
    _layer("table.merge.host_s", "s", "lower", "table",
           "self time in merge_runs", _M_A),
    _layer("table.scan.host_s", "s", "lower", "table",
           "self time in planned_scan/merge_scan (scan assembly)", _M_E),
    # filters
    _layer("filters.build.host_s", "s", "lower", "filters",
           "self time in BloomFilter.build", _M_LOAD),
    _layer("filters.keys_added", "count", "lower", "filters",
           "keys hashed into bloom filters", _M_LOAD),
    _layer("filters.probes", "count", "lower", "filters",
           "bloom probes by reads (simulated)", _M_A),
    _layer("filters.negative_ratio", "ratio", "higher", "filters",
           "probes answered negative, divided by probes", _M_A),
    # core (lsa/iam)
    _layer("core.get.host_s", "s", "lower", "core",
           "self time in the IAM/LSA engine's get", _M_E),
    _layer("core.scan_plan.host_s", "s", "lower", "core",
           "self time in the IAM/LSA engine's scan_plan", _M_E),
    _layer("core.flushes", "count", "lower", "core",
           "IAM/LSA memtable flushes", (("write_amp", "load"),)),
    _layer("core.appends", "count", "lower", "core",
           "IAM/LSA append compactions", (("write_amp", "load"),)),
    _layer("core.merges", "count", "lower", "core",
           "IAM/LSA merge compactions", (("write_amp", "load"),)),
    _layer("core.splits", "count", "lower", "core", "IAM/LSA node splits",
           (("write_amp", "load"),)),
    _layer("core.combines", "count", "lower", "core",
           "IAM/LSA node combines", (("write_amp", "load"),)),
    # lsm (leveled)
    _layer("lsm.get.host_s", "s", "lower", "lsm",
           "self time in the leveled engine's get",
           (("ref_ops_per_s", "ycsb-a"),)),
    _layer("lsm.compactions", "count", "lower", "lsm",
           "leveled compactions (trivial moves included)",
           (("ref_ops_per_s", "ycsb-a"), ("write_amp", "ycsb-a"))),
    _layer("lsm.bytes_rewritten", "B", "lower", "lsm",
           "bytes the leveled engine wrote below L0",
           (("ref_ops_per_s", "ycsb-a"), ("write_amp", "ycsb-a"))),
    # storage.pagecache
    _layer("storage.pagecache.hit_ratio", "ratio", "higher",
           "storage.pagecache", "query block reads served by the cache",
           (("sim_p99_us", "ycsb-a"),), ("ycsb-e",)),
    _layer("storage.pagecache.inserts", "count", "lower", "storage.pagecache",
           "blocks inserted into the cache", (("sim_p99_us", "ycsb-a"),),
           ("ycsb-e",)),
    _layer("storage.pagecache.evictions", "count", "lower",
           "storage.pagecache", "blocks evicted from the cache",
           (("sim_p99_us", "ycsb-a"),), ("ycsb-e",)),
    # storage.simdisk
    _layer("storage.simdisk.bytes_written", "B", "lower", "storage.simdisk",
           "device bytes written", _M_DISK),
    _layer("storage.simdisk.bytes_read", "B", "lower", "storage.simdisk",
           "device bytes read", _M_DISK),
    _layer("storage.simdisk.seeks", "count", "lower", "storage.simdisk",
           "device seeks", _M_DISK),
    _layer("storage.simdisk.blocks_per_get", "blocks", "lower",
           "storage.simdisk", "query block lookups per get", _M_DISK),
    # cluster
    _layer("cluster.router.host_s", "s", "lower", "cluster",
           "self time in ClusterDB.put and Router.put (routing, network "
           "and replication fan-out)", _M_CLUSTER),
    _layer("cluster.rpcs", "count", "lower", "cluster",
           "network messages (requests, replication and acks)", _M_CLUSTER),
    _layer("cluster.network.bytes", "B", "lower", "cluster",
           "network bytes, framing included", _M_CLUSTER),
    _layer("cluster.network.sim_s", "sim-s", "lower", "cluster",
           "summed link service time of all messages", _M_CLUSTER),
    _layer("cluster.replication.bytes", "B", "lower", "cluster",
           "bytes sent between replicas", _M_CLUSTER),
    # objstore
    _layer("objstore.puts", "count", "lower", "objstore",
           "object-store puts", _M_OBJ),
    _layer("objstore.bytes_up", "B", "lower", "objstore",
           "bytes uploaded to the object store", _M_OBJ),
    _layer("objstore.sim_s", "sim-s", "lower", "objstore",
           "summed request service time on the store channel", _M_OBJ),
    _layer("objstore.host_s", "s", "lower", "objstore",
           "self time in ObjStoreTier.on_checkpoint (manifest mirroring)",
           _M_OBJ),
    # the benchmark itself
    _layer("trace.coverage", "ratio", "higher", "benchmark",
           "sum of layer self host_s, divided by the traced phase's wall "
           "time", ()),
    _layer("trace.overhead", "ratio", "lower", "benchmark",
           "traced over untraced phase time, each in calibration slices, "
           "minus 1", ()),
    _layer("host_ops_per_s", "ops/s", "higher", "benchmark",
           "operations per host wall second in the untraced round; it "
           "follows the host's drift, so it is reported but not bounded", ()),
    _layer("host.slice_us", "us", "lower", "benchmark",
           "mean host time of one calibration slice in the untraced round: "
           "the host's speed while the phase ran", ()),
]

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def benchmark_json() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
