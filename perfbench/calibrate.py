"""Host-speed calibration slices, interleaved with a timed phase.

A shared host's speed drifts by 10-40% over minutes as its neighbours come
and go, and that drift, not the program, dominates the spread of a wall-clock
throughput between runs.  The phase therefore pauses every few operations
(``workloads.SLICE_EVERY``) to run :func:`run_slice`, a fixed piece of pure-Python
work that touches none of the program's code, and times it apart from the
phase.  The slices sample the host's speed at the same moments as the
operations do, so

    ref_ops_per_s = ops / phase_s * (mean slice_s / REF_SLICE_S)

is the phase's throughput on a host that runs one slice in ``REF_SLICE_S``:
the program's speed with the host's drift divided out.  A program change
moves it exactly as it moves the wall-clock rate on a steady host.  The
run's ``setup_s`` is rescaled by the same slices.

A slice allocates no object the cyclic garbage collector tracks (its
containers are made once, at import, and refilled in place), so it never
advances the collector's counters and cannot shift collections, whose cost
grows with the program's heap, into or out of the phase.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List

#: Nominal host time of one slice (about its time on a 2-core shared Xeon).
REF_SLICE_S = 0.0025
#: Keys inserted per slice.
SLICE_KEYS = 2048


class _Cell:
    __slots__ = ("key", "seq")

    def __init__(self) -> None:
        self.key = 0
        self.seq = 0

    def touch(self, key: int) -> None:
        self.key = key
        self.seq += 1


def _keys(n: int) -> List[int]:
    out, x = [], 0x9E3779B97F4A7C15
    for _ in range(n):  # xorshift64: fixed, well-spread keys
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        out.append(x >> 16)
    return out


_KEYS = _keys(SLICE_KEYS)
_SORTED: List[int] = []
_TABLE: Dict[int, int] = {}
_CELLS = [_Cell() for _ in range(64)]


def run_slice() -> int:
    """One fixed unit of interpreter work: sorted inserts, dict and attributes."""
    keys, lst, table, cells = _KEYS, _SORTED, _TABLE, _CELLS
    lst.clear()
    table.clear()
    for i in range(SLICE_KEYS):
        k = keys[i]
        lst.insert(bisect_left(lst, k), k)
        table[k] = i
        cells[i & 63].touch(k)
    total = 0
    for k in lst:
        total += table[k]
    return total
