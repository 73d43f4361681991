"""Scan plans cost O(touched nodes), not O(nodes to the level's end).

Each engine's ``scan_plan`` hands the assembler one lazy chain per level:
a bisect to ``lo``, then each node (LSA/IAM node, leveled table, FLSM
guard) is drawn only when the chain reaches it.  A one-row scan from the
lowest key must therefore touch a bounded number of entries per level,
counted through a wrapped level list, where an eager plan walks every
node from ``lo`` to the end of each level.
"""

import pytest

from repro.bench.scale import SSD_100G, VALUE_SIZE, make_db
from repro.table.scan import merge_scan
from repro.workloads.distributions import permute64_many
from tests.conftest import make_tiny_db


class CountingLevel(list):
    """A level list that counts the entries it hands out."""

    touched = 0

    def __getitem__(self, i):
        got = super().__getitem__(i)
        CountingLevel.touched += len(got) if isinstance(i, slice) else 1
        return got

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


def _iam_store():
    db = make_db("I-1t", SSD_100G)
    keys = permute64_many(range(12_000))
    for i in range(0, len(keys), 1000):
        batch = db.write_batch()
        for k in keys[i:i + 1000]:
            batch.put(k, VALUE_SIZE)
        batch.commit()
    db.quiesce()
    return db, min(keys), db.engine.levels, range(1, db.engine.n + 1)


def _tiny_store(engine):
    db = make_tiny_db(engine)
    for k in range(3000):
        db.put((k * 7919) % 3000, 64)
    db.quiesce()
    eng = db.engine
    if engine == "flsm":
        return db, 0, eng.guards, range(len(eng.guards))
    return db, 0, eng.levels, range(1, len(eng.levels))


@pytest.mark.parametrize("build", [
    _iam_store,
    lambda: _tiny_store("leveldb"),
    lambda: _tiny_store("flsm"),
], ids=["iam", "leveldb", "flsm"])
def test_short_scan_touches_bounded_nodes_per_level(build):
    # The read path ``IamDB.scan`` runs for ``limit=1`` (the pull
    # assembler), without its closing background pump: engines may walk a
    # level there to pick compactions.
    db, lo, levels, level_ids = build()
    want = db.scan(lo, None, limit=1)
    longest = max(len(levels[i]) for i in level_ids)
    assert longest >= 32, "store too small to tell O(1) from O(level)"
    for i in level_ids:
        level = CountingLevel(levels[i])
        levels[i] = level
        CountingLevel.touched = 0
        assert merge_scan(db._read_streams(lo, None), limit=1) == want
        # One bisect to ``lo`` plus the few nodes a one-row scan reaches.
        bound = 2 * len(level).bit_length() + 4
        assert CountingLevel.touched <= bound, (i, len(level))
        levels[i] = list(level)
    db.close()
