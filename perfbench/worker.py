"""One benchmark process: set up, run timed rounds, check, report one JSON line.

``run.py`` starts this module in a fresh interpreter per mode, so imports,
numpy initialisation and peak memory never carry over between workloads or
between a traced and an untraced run.  The interpreter's warm-up (imports and
one small throwaway round) is counted in ``setup_s``, never in a phase.

Usage (from the repo root, with ``src`` on ``PYTHONPATH``)::

    python3 -m perfbench.worker --workload load --seed 1 --seconds 10 \
        [--traced --spans perfbench/out/load.spans.npz] [--max-rounds 1]
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from perfbench.calibrate import REF_SLICE_S

#: Scale of the throwaway warm-up round (imports, lazy paths, numpy).
WARMUP_SCALE = 0.02
#: Set-ups per timed run; setup_s is their median.
MIN_SETUPS = 3

E2E_SIM = ("sim_ops_per_s", "sim_mean_us", "sim_p99_us", "write_amp", "space_amp")


@dataclass
class Round:
    setup_s: float
    host_s: float
    #: Mean host time of one calibration slice during the phase.
    slice_s: float
    n_ops: int
    sims: Dict[str, float]
    attempted: int
    failed: int
    failures: List[str]


def canonical(sims: Dict[str, float]) -> str:
    """Byte-exact rendering of simulated figures (repr keeps every digit)."""
    return json.dumps(sims, sort_keys=True)


def run_round(name: str, seed: int, scale: float = 1.0, *,
              tracer: Any = None, store_check: bool = True) -> Round:
    """Set up, run and check one phase of ``name``."""
    from perfbench import workloads as w

    t0 = time.perf_counter()
    case = w.build(name, seed, scale)
    setup_s = time.perf_counter() - t0
    gc.collect()
    before = w.counters(case)
    if tracer is not None:
        tracer.activate()
    try:
        phase = w.run_phase(case, tracer.current_op if tracer is not None else [-1])
    finally:
        if tracer is not None:
            tracer.deactivate()
    keys = w.live_keys(case)
    sims = w.sim_metrics(case, phase, before, len(keys))
    report = w.CheckReport()
    w.check_phase(case, phase, report)
    if store_check:
        w.check_store(case, keys, report)
    return Round(setup_s, phase.host_s, phase.slice_s / phase.slices,
                 len(case.ops), sims, report.attempted,
                 report.failed, report.first_failures or [])


def measure(name: str, seed: int, seconds: float, *, traced: bool = False,
            max_rounds: Optional[int] = None, spans: Optional[Path] = None,
            t_start: Optional[float] = None) -> Dict[str, Any]:
    """Run rounds of ``name`` until about ``seconds`` of phase time."""
    if t_start is None:
        t_start = time.perf_counter()
    from perfbench import workloads as w  # timed: imports are warm-up

    tracer = None
    if traced:
        from perfbench.trace import Tracer
        tracer = Tracer().install()
    run_round(name, seed, WARMUP_SCALE, store_check=False)
    warm_s = time.perf_counter() - t_start

    rounds: List[Round] = []
    while True:
        # Only the first round's store gets the full post-phase check; the
        # later rounds replay the same inputs, and their simulated figures
        # must equal the first round's byte for byte.
        rounds.append(run_round(name, seed, tracer=None if rounds else tracer,
                                store_check=not rounds))
        gc.collect()
        elapsed = sum(r.host_s for r in rounds)
        if max_rounds is not None and len(rounds) >= max_rounds:
            break
        if elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            break
    setups = [r.setup_s for r in rounds]
    if max_rounds is None:  # the timed run, whose setup_s is reported
        while len(setups) < MIN_SETUPS:
            t0 = time.perf_counter()
            w.build(name, seed)
            setups.append(time.perf_counter() - t0)
            gc.collect()

    first = rounds[0]
    same = all(canonical(r.sims) == canonical(first.sims) for r in rounds)
    failures = [f for r in rounds for f in r.failures][:10]
    if not same:
        failures.append("rounds with identical inputs gave different simulated figures")
    e2e: Dict[str, float] = {
        "ref_ops_per_s": statistics.median(
            r.n_ops / r.host_s * r.slice_s / REF_SLICE_S for r in rounds),
        # Set-up runs no slices of its own; the phase's, a few seconds
        # later, rescale it to the same reference host.
        "setup_s": (warm_s + statistics.median(setups)) * REF_SLICE_S
                   / statistics.median(r.slice_s for r in rounds),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    e2e.update({k: first.sims[k] for k in E2E_SIM})
    out: Dict[str, Any] = {
        "correct": same and all(r.failed == 0 for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "failures": failures,
        "rounds": len(rounds),
        "phase_host_s": [r.host_s for r in rounds],
        "host_ops_per_s": [r.n_ops / r.host_s for r in rounds],
        "slice_s": [r.slice_s for r in rounds],
        "e2e": e2e,
        "sims": first.sims,
    }
    if tracer is not None:
        tracer.uninstall()
        layer = tracer.layer_metrics(first.host_s)
        layer.update({k: v for k, v in first.sims.items() if k not in E2E_SIM})
        out["layer"] = layer
        if spans is not None:
            tracer.write(spans)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--max-rounds", type=int, default=None)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, traced=args.traced,
                     max_rounds=args.max_rounds, spans=args.spans,
                     t_start=t_start)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
