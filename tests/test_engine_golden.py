"""Byte-identity proof for the live write admission and the planned reads.

Every engine (iam, lsa, leveldb, rocksdb, flsm, lsmtrie) runs a load and
a mixed workload -- plus fault-injected, tight-L0 and job give-up
variants -- on default options, then reads the store back: three ways
for the engines that scan, by ``multi_get`` and ``get`` for LSM-trie.  The digests (records, simulated clock, write amplification,
stall/gate-delay floats via ``float.hex``, job counts, read records and
the page-cache trajectory) must equal ``tests/data/engine_golden.json``,
which ``tests/engine_golden.py`` generated on the accepted reference tree.
"""

import json

import pytest

from tests.engine_golden import CASES, GOLDEN_PATH, run_digest


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


def test_golden_fixture_covers_all_cases(golden):
    assert sorted(golden) == sorted(CASES)


def test_flsm_tight_case_hits_the_l0_stop(golden):
    assert "l0-stop" in golden["flsm-tight"]["stalls"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_byte_identical(case, golden):
    assert run_digest(case) == golden[case], (
        f"{case!r} diverged from the golden reference")
