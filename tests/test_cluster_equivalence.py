"""A trivial cluster is record-identical to a bare IamDB.

The equivalence contract behind the cluster layer: a 1-shard, 1-replica
cluster on a zero-cost network (no latency, infinite bandwidth, no framing)
adds *no* simulated work and *no* behavioural difference -- every per-op
result, the final KV state, the sequence counter and the simulated clock
itself must match a bare :class:`~repro.db.iamdb.IamDB` driven with the
same operations.  Hypothesis drives both with randomized mixed workloads.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from tests.conftest import tiny_iam_options, tiny_storage_options
from repro.cluster import ClusterDB, ClusterOptions, NetworkOptions
from repro.db.iamdb import IamDB

#: (op code, key index, size/limit) triples over a small shared key pool.
ops_strategy = st.lists(
    st.tuples(st.sampled_from(["put", "put", "put", "delete", "get", "scan"]),
              st.integers(0, 23),
              st.integers(1, 200)),
    max_size=80)

#: A fixed, spread-out key pool (arbitrary points in the 64-bit key space).
KEY_POOL = [(0x9E3779B97F4A7C15 * (i + 1)) % 2 ** 64 for i in range(24)]


def _pair():
    cluster = ClusterDB(ClusterOptions(
        n_shards=1, n_replicas=1,
        engine_options=tiny_iam_options(),
        storage_options=tiny_storage_options(),
        network=NetworkOptions.zero()))
    bare = IamDB("iam", engine_options=tiny_iam_options(),
                 storage_options=tiny_storage_options())
    return cluster, bare


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
@example(ops=[("put", i, 5) for i in range(24)]
         + [("scan", 0, 1), ("scan", 0, 10)])  # limit 0 and -1
def test_trivial_cluster_equals_bare_db(ops):
    cluster, bare = _pair()
    for op, key_i, size in ops:
        key = KEY_POOL[key_i]
        if op == "put":
            cluster.put(key, size)
            bare.put(key, size)
        elif op == "delete":
            cluster.delete(key)
            bare.delete(key)
        elif op == "get":
            assert cluster.get(key) == bare.get(key)
        else:
            lo = KEY_POOL[size % len(KEY_POOL)]
            limit = size % 10 - 1  # -1..8: empty asks included
            assert (cluster.scan(lo, None, limit=limit)
                    == bare.scan(lo, None, limit=limit))
    # Identical final state: KV contents, sequence counter, sim clock,
    # amplification accounting, space.
    assert cluster.scan() == bare.scan()
    leader = cluster.router.shards[0].group.leader.db
    assert leader._seq == bare._seq
    assert cluster.clock.now == bare.runtime.clock.now
    assert cluster.write_amplification() == bare.write_amplification()
    assert cluster.space_used_bytes() == bare.space_used_bytes()
    cluster.close()
    bare.close()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
def test_trivial_cluster_iterate_matches(ops):
    cluster, bare = _pair()
    for op, key_i, size in ops:
        key = KEY_POOL[key_i]
        if op in ("put", "scan", "get"):
            cluster.put(key, size)
            bare.put(key, size)
        else:
            cluster.delete(key)
            bare.delete(key)
    assert list(cluster.iterate()) == list(bare.iterate())
    cluster.close()
    bare.close()
