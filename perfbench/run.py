"""The repo's benchmark: one workload, one seed, one JSON result line.

Usage, from the repo root::

    python3 perfbench/run.py --workload {load,ycsb-a,ycsb-e,cluster-load} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` runs the workload untraced in a fresh interpreter and reports
the end-to-end metrics.  ``--trace 1`` runs it twice more, each in its own
interpreter, one round each: untraced, then with every layer entry point
wrapped (see ``perfbench/trace.py``).  It reports the per-layer metrics,
asserts that both runs computed byte-identical simulated figures, and writes
the spans to ``perfbench/out/<workload>.spans.npz``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 only when every output check passed; a checkout without
the program's sources (``src/repro``) exits with 2 before measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.spec import END_TO_END, PER_LAYER, UNITS, WORKLOADS  # noqa: E402

#: Wall-clock budget of one invocation; the benchmark contract allows 180 s.
BUDGET_S = 170.0


def _worker(args: argparse.Namespace, deadline: float, *extra: str) -> Dict[str, Any]:
    env = dict(os.environ)
    env.pop("REPRO_SCALE", None)  # sizes are fixed by the benchmark
    env["PYTHONHASHSEED"] = "0"  # same str hashing, so same dict layouts, every run
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()),
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metrics(values: Dict[str, float], names: List[str]) -> Dict[str, Dict[str, Any]]:
    return {n: {"value": values[n], "unit": UNITS[n]} for n in names}


def main(argv: List[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S

    if args.trace == 0:
        res = _worker(args, deadline)
        out = {"correct": res["correct"], "attempted": res["attempted"],
               "failed": res["failed"],
               "metrics": _metrics(res["e2e"], [m.name for m in END_TO_END])}
        failures = res["failures"]
    else:
        spans = ROOT / "perfbench" / "out" / f"{args.workload}.spans.npz"
        plain = _worker(args, deadline, "--max-rounds", "1")
        traced = _worker(args, deadline, "--max-rounds", "1", "--traced",
                         "--spans", str(spans))
        same = json.dumps(plain["sims"], sort_keys=True) == json.dumps(
            traced["sims"], sort_keys=True)
        failures = plain["failures"] + traced["failures"]
        if not same:
            failures.append("traced and untraced runs gave different simulated figures")
        layer = dict(traced["layer"])
        # Phase times in slices, so host drift between the two runs cancels.
        layer["trace.overhead"] = (
            traced["phase_host_s"][0] / traced["slice_s"][0]
            / (plain["phase_host_s"][0] / plain["slice_s"][0]) - 1.0)
        layer["host_ops_per_s"] = plain["host_ops_per_s"][0]
        layer["host.slice_us"] = plain["slice_s"][0] * 1e6
        out = {"correct": plain["correct"] and traced["correct"] and same,
               "attempted": plain["attempted"] + traced["attempted"],
               "failed": plain["failed"] + traced["failed"],
               "metrics": _metrics(layer, [m.name for m in PER_LAYER])}
    for f in failures:
        print(f"perfbench: FAILED {f}", file=sys.stderr)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
