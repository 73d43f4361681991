"""Scan-assembler crossover sweep: pull (``merge_scan``) vs planner.

``IamDB.scan`` runs the pull assembler for short scans and the vectorized
planner (``planned_scan``) for long ones; the switch point is
``repro.db.iamdb.PULL_SCAN_MAX_ROWS``.  This script re-derives it: for a
range of ``limit`` values it times both assemblers over the same fresh
scan streams on two store shapes and prints the pull/planned host-time
ratio (above 1: the planner is faster).

* ``leveled`` -- the ``repro perf`` ``read_scan`` store: a leveled (L)
  store over 12k compact keys, five versions per key, a tombstone tail;
* ``iam`` -- the ycsb-e store: I-1t preloaded with 12k hashed keys, whose
  appends leave several sequences per node.

Run: ``PYTHONPATH=src python benchmarks/perf/scan_crossover.py [--quick]``.
"""

from __future__ import annotations

import argparse
import random
import time
from typing import List, Tuple

from repro.bench.scale import SSD_100G, VALUE_SIZE, make_db
from repro.db.iamdb import IamDB
from repro.table.scan import merge_scan
from repro.table.scanplan import planned_scan
from repro.workloads.distributions import permute64_many

LIMITS = (1, 10, 30, 64, 100, 128, 160, 200, 256, 300, 400, 1000, 3000)


def leveled_store(n: int) -> Tuple[IamDB, List[int]]:
    db = make_db("L", SSD_100G)
    rng = random.Random(123)
    order = list(range(n))
    rng.shuffle(order)
    for k in order:
        db.put(k, 100 + (k % 64))
    for _ in range(4 * n):
        k = rng.randrange(n)
        if rng.random() < 0.12:
            db.delete(k)
        else:
            db.put(k, 100)
    db.quiesce()
    return db, list(range(n // 3))


def iam_store(n: int) -> Tuple[IamDB, List[int]]:
    db = make_db("I-1t", SSD_100G)
    keys = permute64_many(range(n))
    for i in range(0, n, 1000):
        batch = db.write_batch()
        for k in keys[i:i + 1000]:
            batch.put(k, VALUE_SIZE)
        batch.commit()
    db.quiesce()
    return db, sorted(keys)


def time_pair(db: IamDB, starts: List[int], limit: int,
              repeats: int) -> Tuple[float, float]:
    """Best-of-``repeats`` host seconds of (pull, planned) over every start.

    The two assemblers alternate within each repeat, so a drift in host
    speed hits both alike.
    """
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for i, fn in enumerate((merge_scan, planned_scan)):
            plans = [db._read_streams(lo, None) for lo in starts]
            t0 = time.perf_counter()
            for streams in plans:
                fn(streams, snapshot=None, hi_key=None, limit=limit)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best[0], best[1]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--quick", action="store_true",
                   help="fewer records and scans (noisier ratios)")
    args = p.parse_args()
    n = 6_000 if args.quick else 12_000
    n_scans = 20 if args.quick else 100
    print(f"{'limit':>6} {'leveled':>8} {'iam':>8}   (pull / planned host time)")
    shapes = [leveled_store(n), iam_store(n)]
    rng = random.Random(7)
    for limit in LIMITS:
        row = []
        for db, pool in shapes:
            starts = [rng.choice(pool) for _ in range(n_scans)]
            pull, plan = time_pair(db, starts, limit, 7)
            row.append(pull / plan)
        print(f"{limit:>6} " + " ".join(f"{r:>8.2f}" for r in row))
    for db, _ in shapes:
        db.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
