"""lbcut benchmark: run workloads, check every output, print metrics.

    python3 benchmarks/run.py --workload <name|all> --seed <n> [--seconds <s>] --trace <0|1>

Each workload runs in its own single-threaded child process (numpy/BLAS
threads pinned to 1), one at a time; there is no process pool.  One item is
one unit of user work run in a closed loop by one client (see workloads.py).

With --trace 0 the last line of standard output is a JSON object carrying
the end-to-end metrics: item speed relative to the frozen reference copy
benchmarks/v0/lbcut_v0, run interleaved with the package on the same inputs
(see worker.py), peak RSS and set-up time.  With --trace 1 it carries the
per-layer metrics of a traced run, whose spans are written to
benchmarks/out/.  Earlier lines are a human-readable table, including the
wall-clock items_per_s, item_p50_s, item_p90_s (when a run has at least 100
items), fail_ratio and the machine facts.  --seconds defaults to
run_seconds in BENCHMARK.json.

The exit code is non-zero when any output check or reach guard fails; when
the package cannot be imported from the checkout's src/, the run fails
without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["dp-dense-ties", "dp-long", "xval", "hard-families"]
CHILD_TIMEOUT_S = 170
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    env = dict(os.environ, **{k: "1" for k in PINNED})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out after {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def correct(res: dict) -> bool:
    return res["failed"] == 0 and not res["guards"]


def report(res: dict) -> None:
    """Human-readable lines for one workload's result."""
    print(f"== {res['workload']} seed={res['seed']} trace={res['trace']} "
          f"attempted={res['attempted']} failed={res['failed']}")
    for name, m in sorted({**res["metrics"], **res.get("info", {})}.items()):
        print(f"   {name:<38} {m['value']:>14.6g} {m['unit']}")
    for line in res["failures"] + [f"reach guard: {g}" for g in res["guards"]]:
        print(f"   FAIL {line.strip().splitlines()[-1]}")
    print(f"   machine {json.dumps(res['machine'])}")


def result_line(res: dict) -> dict:
    return {"correct": correct(res), "attempted": res["attempted"],
            "failed": res["failed"], "metrics": res["metrics"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="also write the results as JSON here")
    args = ap.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_child(name, args.seed, args.seconds, args.trace)
        if res is None:
            return 1
        report(res)
        results.append(res)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    ok = all(correct(r) for r in results)
    if args.workload == "all":
        print(json.dumps({"correct": ok, "workloads": [result_line(r) for r in results]}))
    else:
        print(json.dumps(result_line(results[0])))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
