"""Self-tests of the benchmark (not part of the tier-1 suite).

Run from the repo root::

    python3 -m pytest perfbench -q

They check that ``BENCHMARK.json`` is the catalogue in ``spec.py``, that the
simulated figures are deterministic per seed and untouched by tracing, that
the output checks catch a wrong answer, that the per-layer blame lands on
the layer that got slower and on no other, and that a calibration slice
leaves the garbage collector's counters alone.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import spec  # noqa: E402
from perfbench.trace import HOST_S, Tracer  # noqa: E402
from perfbench.worker import E2E_SIM, canonical, run_round  # noqa: E402
from perfbench.workloads import NAMES  # noqa: E402

TINY = 0.02
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_catalogue() -> None:
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


def test_catalogue_is_well_formed() -> None:
    doc = spec.benchmark_json()
    assert set(doc["workloads"][0]) == {"name", "why"}
    assert tuple(spec.WORKLOADS) == NAMES
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER] + list(spec.WORKLOADS)
    assert len(names) == len(set(names))
    for m in spec.END_TO_END + spec.PER_LAYER:
        assert NAME_RE.match(m.name) and UNIT_RE.match(m.unit), m
        assert m.better in ("higher", "lower")
    for why in spec.WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why
    bounds = {m.name: m.bound for m in spec.END_TO_END}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for m in spec.PER_LAYER:
        for metric, workload in m.moves:
            assert metric in bounds and workload in spec.WORKLOADS, m
        assert set(m.holds) <= set(spec.WORKLOADS)


def test_reference_figures_cover_the_catalogue() -> None:
    ref = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    assert set(ref["workloads"]) == set(spec.WORKLOADS)
    for figures in ref["workloads"].values():
        assert set(figures["end_to_end"]) == {m.name for m in spec.END_TO_END}
        assert set(figures["per_layer"]) - {"seed"} == {m.name for m in spec.PER_LAYER}


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_sims_traced_or_not(name: str) -> None:
    plain = run_round(name, 7, TINY)
    with Tracer().install() as tracer:
        traced = run_round(name, 7, TINY, tracer=tracer)
    assert plain.failed == 0 and traced.failed == 0, plain.failures + traced.failures
    assert canonical(plain.sims) == canonical(traced.sims)
    other = run_round(name, 8, TINY)
    assert other.failed == 0, other.failures
    reported = (set(tracer.layer_metrics(traced.host_s))
                | (set(traced.sims) - set(E2E_SIM))
                | {"trace.overhead", "host_ops_per_s", "host.slice_us"})
    assert reported == {m.name for m in spec.PER_LAYER}


def test_other_seed_gives_other_inputs() -> None:
    assert canonical(run_round("load", 1, TINY).sims) != canonical(
        run_round("load", 2, TINY).sims)


def test_checks_catch_wrong_values(monkeypatch: pytest.MonkeyPatch) -> None:
    from repro.db.iamdb import IamDB

    real_scan = IamDB.scan

    def short_scan(self, *args, **kw):  # type: ignore[no-untyped-def]
        return real_scan(self, *args, **kw)[:-1]

    monkeypatch.setattr(IamDB, "scan", short_scan)
    assert run_round("ycsb-e", 7, TINY).failed > 0

    monkeypatch.setattr(IamDB, "scan", real_scan)
    monkeypatch.setattr(IamDB, "get", lambda self, key, snapshot=None: 1)
    assert run_round("ycsb-a", 7, TINY, store_check=False).failed > 0


def test_blame_lands_on_the_delayed_layer(monkeypatch: pytest.MonkeyPatch) -> None:
    """A fixed delay injected into Memtable.add shows up in memtable.host_s
    and in no other layer's self time."""
    from repro.memtable import memtable

    delay_s = 1e-3
    real_add = memtable.Memtable.add

    def slow_add(self, rec):  # type: ignore[no-untyped-def]
        end = time.perf_counter() + delay_s
        while time.perf_counter() < end:
            pass
        return real_add(self, rec)

    def traced_layers() -> dict:
        with Tracer().install() as tracer:
            r = run_round("load", 7, TINY, tracer=tracer, store_check=False)
        return tracer.layer_metrics(r.host_s)

    base = traced_layers()
    monkeypatch.setattr(memtable.Memtable, "add", slow_add)
    slow = traced_layers()
    injected = slow["memtable.add.calls"] * delay_s
    assert slow["memtable.add.calls"] == base["memtable.add.calls"] > 0
    assert slow["memtable.host_s"] - base["memtable.host_s"] >= 0.95 * injected
    for metric in HOST_S:
        if metric != "memtable.host_s":
            assert slow[metric] - base[metric] < 0.05 * injected, metric


def test_calibration_slice_leaves_the_collector_alone() -> None:
    """A slice must not advance the GC counters, or it would move
    collections (whose cost grows with the program's heap) into the phase."""
    import gc

    from perfbench.calibrate import run_slice

    run_slice()
    before = gc.get_count()
    run_slice()
    assert gc.get_count() == before


def test_run_fails_without_program_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "load", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
