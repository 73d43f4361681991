"""Batched read path vs the frozen scalar references: state-identical.

The vectorized read kernels -- :meth:`repro.db.iamdb.IamDB.multi_get`
(two-phase plan/replay batch lookups) and the planned scan assembler in
:mod:`repro.table.scanplan` -- must be *indistinguishable* from the seed
scalar walks in :mod:`repro.bench.reference` at every observable level:
returned records, the simulated clock, Bloom counters, and the page-cache
trajectory (insertions, evictions, LRU order).  Hypothesis drives both
sides of each pair with randomized MVCC workloads across every engine
that serves scans (iam, lsa, leveldb, rocksdb and flsm, whose scan plan
chains multi-fragment guards); a partly consumed ``iterate`` is held to
the lazy heap-merge oracle the same way.  Pinned tests cover the edge
cases batching is most likely to get wrong (duplicate keys in one batch,
snapshot boundaries, tombstones, mid-flush memtable rotation, empty
stores, FLSM guards with several fragments), and a 1-shard zero-cost
cluster proves the scatter-gather layer adds nothing.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.reference import (
    reference_cluster_read_loop,
    reference_iterate,
    reference_multi_get,
    reference_scan,
)
from repro.cluster import ClusterDB, ClusterOptions, NetworkOptions
from repro.db import iamdb
from repro.db.iamdb import PULL_SCAN_MAX_ROWS
from repro.table.scan import merge_scan
from repro.table.scanplan import planned_scan
from tests.conftest import make_tiny_db, tiny_iam_options, tiny_storage_options

#: A fixed, spread-out key pool (arbitrary points in the 64-bit key space).
KEY_POOL = [(0x9E3779B97F4A7C15 * (i + 1)) % 2 ** 64 for i in range(24)]

#: A compact pool (small ints) -- exercises the composite-sort fast path.
SMALL_POOL = list(range(24))

ENGINES = ("iam", "lsa", "leveldb", "rocksdb", "flsm")


def _observable_state(db):
    """Everything a read is allowed to change, frozen for comparison."""
    m = db.metrics
    pc = db.runtime.cache
    return (
        db.runtime.clock.now,
        m.bloom_probes,
        m.bloom_negatives,
        m.cache_hits,
        m.cache_misses,
        m.query_seeks,
        pc.insertions,
        pc.evictions,
        list(pc._lru.keys()),
    )


def _twin_dbs(engine, ops, pool, storage_kw=None):
    """Two identically-built DBs after the same randomized workload."""
    dbs = (make_tiny_db(engine, storage_kw=storage_kw),
           make_tiny_db(engine, storage_kw=storage_kw))
    for op, key_i, size in ops:
        key = pool[key_i % len(pool)]
        for db in dbs:
            if op == "delete":
                db.delete(key)
            else:
                db.put(key, size)
    return dbs


op = st.tuples(st.sampled_from(["put", "put", "put", "delete"]),
               st.integers(0, 23),
               st.integers(1, 200))

workload = st.lists(op, max_size=120)

#: Workloads long enough to build multi-chunk sequences on 64-byte blocks.
long_workload = st.lists(op, min_size=60, max_size=120)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(engine=st.sampled_from(ENGINES), ops=workload,
       small_keys=st.booleans(), quiesce=st.booleans(),
       batch=st.lists(st.integers(0, 23), min_size=1, max_size=40),
       snap_back=st.one_of(st.none(), st.integers(0, 60)))
def test_multi_get_matches_scalar_reference(engine, ops, small_keys,
                                            quiesce, batch, snap_back):
    pool = SMALL_POOL if small_keys else KEY_POOL
    db_ref, db_opt = _twin_dbs(engine, ops, pool)
    if quiesce:
        db_ref.quiesce()
        db_opt.quiesce()
    snapshot = None
    if snap_back is not None and db_ref._seq > 0:
        snapshot = max(1, db_ref._seq - snap_back)
    keys = [pool[i] for i in batch]
    want = reference_multi_get(db_ref, keys, snapshot)
    got = db_opt.multi_get(keys, snapshot)
    assert got == want
    assert _observable_state(db_opt) == _observable_state(db_ref)
    db_ref.close()
    db_opt.close()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(engine=st.sampled_from(ENGINES), ops=workload,
       small_keys=st.booleans(), quiesce=st.booleans(),
       lo_i=st.integers(0, 23), span=st.one_of(st.none(), st.integers(0, 23)),
       limit=st.one_of(st.none(), st.integers(1, 40)),
       snap_back=st.one_of(st.none(), st.integers(0, 60)))
def test_scan_matches_scalar_reference(engine, ops, small_keys, quiesce,
                                       lo_i, span, limit, snap_back):
    pool = SMALL_POOL if small_keys else KEY_POOL
    db_ref, db_opt = _twin_dbs(engine, ops, pool)
    if quiesce:
        db_ref.quiesce()
        db_opt.quiesce()
    snapshot = None
    if snap_back is not None and db_ref._seq > 0:
        snapshot = max(1, db_ref._seq - snap_back)
    lo = pool[lo_i]
    hi = None if span is None else lo + sorted(pool)[span] + 1
    want = reference_scan(db_ref, lo, hi, limit=limit, snapshot=snapshot)
    got = db_opt.scan(lo, hi, limit=limit, snapshot=snapshot)
    assert got == want
    assert _observable_state(db_opt) == _observable_state(db_ref)
    db_ref.close()
    db_opt.close()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(engine=st.sampled_from(ENGINES), ops=workload,
       small_keys=st.booleans(), quiesce=st.booleans(),
       lo_i=st.integers(0, 23), span=st.one_of(st.none(), st.integers(0, 23)),
       limit=st.one_of(st.none(), st.integers(1, 40)),
       snap_back=st.one_of(st.none(), st.integers(0, 60)))
def test_both_assemblers_match_scalar_reference(engine, ops, small_keys,
                                                quiesce, lo_i, span, limit,
                                                snap_back):
    # IamDB.scan picks one assembler by limit, so the DB-level test above
    # reaches only one per drawn case.  Run each directly on fresh streams
    # of identically built stores, as IamDB.scan would, and hold both to
    # the oracle: the planner's truncated plans and retries included.
    pool = SMALL_POOL if small_keys else KEY_POOL
    db_ref, db_plan = _twin_dbs(engine, ops, pool)
    db_pull = _twin_dbs(engine, ops, pool)[0]
    dbs = (db_ref, db_plan, db_pull)
    if quiesce:
        for db in dbs:
            db.quiesce()
    snapshot = None
    if snap_back is not None and db_ref._seq > 0:
        snapshot = max(1, db_ref._seq - snap_back)
    lo = pool[lo_i]
    hi = None if span is None else lo + sorted(pool)[span] + 1
    want = reference_scan(db_ref, lo, hi, limit=limit, snapshot=snapshot)
    for db, assemble in ((db_plan, planned_scan), (db_pull, merge_scan)):
        got = assemble(db._read_streams(lo, hi), snapshot=snapshot,
                       hi_key=hi, limit=limit)
        db.runtime.pump()
        assert got == want
        assert _observable_state(db) == _observable_state(db_ref)
    for db in dbs:
        db.close()


@pytest.mark.parametrize("limit, runs", [
    (PULL_SCAN_MAX_ROWS, "merge_scan"),
    (PULL_SCAN_MAX_ROWS + 1, "planned_scan"),
    (None, "planned_scan"),
])
def test_scan_dispatches_on_limit(monkeypatch, limit, runs):
    # Short scans take the pull assembler, long and unlimited ones the
    # planner; limit <= 0 takes neither.
    calls = []
    for name in ("merge_scan", "planned_scan"):
        real = getattr(iamdb, name)

        def spy(*args, _name=name, _real=real, **kw):
            calls.append(_name)
            return _real(*args, **kw)
        monkeypatch.setattr(iamdb, name, spy)
    db = make_tiny_db("iam")
    for k in range(300):
        db.put(k, 100)
    assert db.scan(0, None, limit=limit) == \
        [(k, 100) for k in range(300)][:limit]
    assert calls == [runs]
    calls.clear()
    assert db.scan(0, None, limit=0) == db.scan(0, None, limit=-3) == []
    assert calls == []
    db.close()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(engine=st.sampled_from(ENGINES), ops=long_workload,
       small_keys=st.booleans(), quiesce=st.booleans(),
       lo_i=st.one_of(st.none(), st.integers(0, 23)),
       span=st.one_of(st.none(), st.integers(0, 23)),
       take=st.integers(0, 30),
       snap_back=st.one_of(st.none(), st.integers(0, 60)))
def test_iterate_matches_lazy_reference(engine, ops, small_keys, quiesce,
                                        lo_i, span, take, snap_back):
    # Consuming ``take`` pairs must charge exactly what the lazy heap merge
    # charges for the same pairs -- nothing read ahead of the consumer.
    # 64-byte blocks put about one record in each, so a read-ahead chunk
    # ends inside a sequence and early pulls would show as extra charges.
    pool = SMALL_POOL if small_keys else KEY_POOL
    db_ref, db_opt = _twin_dbs(engine, ops, pool, dict(block_size=64))
    if quiesce:
        db_ref.quiesce()
        db_opt.quiesce()
    snapshot = None
    if snap_back is not None and db_ref._seq > 0:
        snapshot = max(1, db_ref._seq - snap_back)
    lo = None if lo_i is None else pool[lo_i]
    hi = None if span is None else (lo or 0) + sorted(pool)[span] + 1
    want = reference_iterate(db_ref, lo, hi, snapshot=snapshot)
    got = db_opt.iterate(lo, hi, snapshot=snapshot)
    for _ in range(take):
        # Lockstep: every pull must charge exactly when the oracle's does.
        assert next(got, None) == next(want, None)
        assert _observable_state(db_opt) == _observable_state(db_ref)
    db_ref.close()
    db_opt.close()


def test_flsm_multi_fragment_guard_reads_match_reference():
    # Enough unordered puts that FLSM's deeper guards hold several
    # fragments each: every planned scan and partial iterate walks guard
    # nodes whose fragments interleave in key order.
    db_ref, db_opt = make_tiny_db("flsm"), make_tiny_db("flsm")
    rng = random.Random(13)
    keys = [rng.randrange(1 << 40) for _ in range(500)]
    for i, k in enumerate(keys):
        for db in (db_ref, db_opt):
            db.put(k, 64 + i % 50)
    deeper = db_opt.engine.guards[1:]
    assert max(len(g.tables) for lvl in deeper for g in lvl) > 1
    ordered = sorted(keys)
    for _ in range(40):
        lo = ordered[rng.randrange(len(ordered))]
        hi = lo + rng.choice([1 << 30, 1 << 36, 1 << 40])
        limit = rng.choice([None, 1, 7, 30])
        snapshot = rng.choice([None, db_ref._seq // 2])
        assert db_opt.scan(lo, hi, limit=limit, snapshot=snapshot) == \
            reference_scan(db_ref, lo, hi, limit=limit, snapshot=snapshot)
        assert _observable_state(db_opt) == _observable_state(db_ref)
        take = rng.randrange(40)
        got = list(itertools.islice(db_opt.iterate(lo, hi), take))
        want = list(itertools.islice(reference_iterate(db_ref, lo, hi), take))
        assert got == want
        assert _observable_state(db_opt) == _observable_state(db_ref)
    db_ref.close()
    db_opt.close()


# ------------------------------------------------------------- pinned edges
def _loaded_pair(engine="iam", n=60, quiesce=True):
    db_ref, db_opt = make_tiny_db(engine), make_tiny_db(engine)
    for i in range(n):
        for db in (db_ref, db_opt):
            db.put(KEY_POOL[i % len(KEY_POOL)], 100 + i)
    if quiesce:
        db_ref.quiesce()
        db_opt.quiesce()
    return db_ref, db_opt


def _assert_batch_matches(db_ref, db_opt, keys, snapshot=None):
    want = reference_multi_get(db_ref, keys, snapshot)
    got = db_opt.multi_get(keys, snapshot)
    assert got == want
    assert _observable_state(db_opt) == _observable_state(db_ref)
    return got


def test_multi_get_duplicate_keys_in_batch():
    # The same key several times in one batch must produce one answer per
    # request slot -- and charge I/O exactly as many times as the scalar
    # walk would (the second lookup hits the warmed cache).
    db_ref, db_opt = _loaded_pair()
    k = KEY_POOL[3]
    got = _assert_batch_matches(db_ref, db_opt, [k, k, KEY_POOL[5], k, k])
    assert got[0] == got[1] == got[3] == got[4]
    db_ref.close()
    db_opt.close()


def test_multi_get_snapshot_boundary():
    # Exactly at the snapshot seq the version is visible; one below the
    # write it is not.  Run the same batch at seq, seq-1 and latest.
    db_ref, db_opt = make_tiny_db("iam"), make_tiny_db("iam")
    k = KEY_POOL[0]
    for db in (db_ref, db_opt):
        db.put(k, 111)
    seq_v1 = db_ref._seq
    for db in (db_ref, db_opt):
        db.put(k, 222)
        db.quiesce()
    for snap in (seq_v1, seq_v1 - 1, None):
        got = _assert_batch_matches(db_ref, db_opt, [k, k], snap)
        if snap == seq_v1:
            assert got == [111, 111]
        elif snap == seq_v1 - 1:
            assert got == [None, None]
        else:
            assert got == [222, 222]
    db_ref.close()
    db_opt.close()


def test_multi_get_tombstoned_keys():
    db_ref, db_opt = _loaded_pair(quiesce=False)
    dead = [KEY_POOL[2], KEY_POOL[7]]
    for db in (db_ref, db_opt):
        for k in dead:
            db.delete(k)
        db.quiesce()
    got = _assert_batch_matches(
        db_ref, db_opt, [dead[0], KEY_POOL[4], dead[1], KEY_POOL[9]])
    assert got[0] is None and got[2] is None
    assert got[1] is not None and got[3] is not None
    db_ref.close()
    db_opt.close()


def test_multi_get_mid_flush_rotation():
    # Keep writing until a memtable rotation is in flight (immutable
    # memtable present, flush not yet retired), then read through all
    # three tiers: active memtable, immutable, and on-disk sequences.
    db_ref, db_opt = _loaded_pair(quiesce=True)
    i = 0
    while db_ref.immutable is None and i < 4000:
        for db in (db_ref, db_opt):
            db.put(KEY_POOL[i % len(KEY_POOL)], 300 + i)
        i += 1
    assert db_ref.immutable is not None, "never caught a rotation in flight"
    assert db_opt.immutable is not None
    _assert_batch_matches(db_ref, db_opt, KEY_POOL)
    db_ref.close()
    db_opt.close()


def test_multi_get_empty_db_and_empty_batch():
    db_ref, db_opt = make_tiny_db("iam"), make_tiny_db("iam")
    assert db_opt.multi_get([]) == []
    got = _assert_batch_matches(db_ref, db_opt, KEY_POOL[:6])
    assert got == [None] * 6
    db_ref.close()
    db_opt.close()


def test_scan_empty_db():
    db_ref, db_opt = make_tiny_db("leveldb"), make_tiny_db("leveldb")
    assert db_opt.scan(KEY_POOL[0], None, limit=5) == \
        reference_scan(db_ref, KEY_POOL[0], None, limit=5) == []
    assert _observable_state(db_opt) == _observable_state(db_ref)
    db_ref.close()
    db_opt.close()


# ------------------------------------------------------ cluster scatter-gather
def _trivial_cluster_pair():
    cluster = ClusterDB(ClusterOptions(
        n_shards=1, n_replicas=1,
        engine_options=tiny_iam_options(),
        storage_options=tiny_storage_options(),
        network=NetworkOptions.zero()))
    bare = make_tiny_db("iam")
    return cluster, bare


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=workload, batch=st.lists(st.integers(0, 23), min_size=1,
                                    max_size=30))
def test_trivial_cluster_multi_get_equals_bare_db(ops, batch):
    # 1 shard, 1 replica, zero-cost fabric: the scatter-gather batch read
    # must return exactly the bare DB's values at the same simulated clock.
    cluster, bare = _trivial_cluster_pair()
    for op, key_i, size in ops:
        key = KEY_POOL[key_i]
        if op == "delete":
            cluster.delete(key)
            bare.delete(key)
        else:
            cluster.put(key, size)
            bare.put(key, size)
    keys = [KEY_POOL[i] for i in batch]
    assert cluster.multi_get(keys) == bare.multi_get(keys)
    assert cluster.clock.now == bare.runtime.clock.now
    cluster.close()
    bare.close()


def test_cluster_multi_get_matches_per_key_loop():
    # On a real (non-trivial) topology the batched scatter-gather must
    # return the same values as routing every key individually.
    opts = dict(engine_options=tiny_iam_options(),
                storage_options=tiny_storage_options())
    c_batch = ClusterDB(ClusterOptions(n_shards=4, n_replicas=2, **opts))
    c_loop = ClusterDB(ClusterOptions(n_shards=4, n_replicas=2, **opts))
    rng = random.Random(11)
    for _ in range(150):
        k = KEY_POOL[rng.randrange(len(KEY_POOL))]
        v = rng.randrange(1, 200)
        c_batch.put(k, v)
        c_loop.put(k, v)
    keys = [KEY_POOL[rng.randrange(len(KEY_POOL))] for _ in range(60)]
    keys += [2 ** 61 + 17]  # a key no one wrote
    assert c_batch.multi_get(keys) == reference_cluster_read_loop(c_loop, keys)
    c_batch.close()
    c_loop.close()
