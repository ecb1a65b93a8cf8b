"""Run the benchmark over several seeds and report each end-to-end metric's
spread (interquartile range over median) against its bound.

    python3 benchmarks/spread.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Uses the command and bounds in BENCHMARK.json (the command's run length
defaults to its run_seconds); one run at a time.  Exits non-zero when a run
fails or a spread is not within its bound.  The spreads of the wall-clock
items_per_s and item_p50_s are printed beside them and not gated.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FULL = ROOT / "benchmarks" / "out" / "last-run.json"
RAW = ("items_per_s", "item_p50_s")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workload", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    FULL.parent.mkdir(exist_ok=True)

    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    ok = True
    report = {}
    for name in args.workload:
        runs = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd + ["--out", str(FULL)], cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True)
            wall = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                print(proc.stdout[-2000:], file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            if set(res["metrics"]) != declared:
                print(f"{name} seed {seed}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(res['metrics']) ^ declared)}", file=sys.stderr)
                ok = False
            full = json.loads(FULL.read_text())[0]
            full["wall_s"] = wall
            runs.append(full)
            print(f"{name} seed {seed}: wall {wall:.1f}s "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
        summary = {}
        if len(runs) >= 2 and not args.trace:
            for metric in spec["end_to_end"]:
                values = [r["metrics"][metric["name"]]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                summary[metric["name"]] = {"median": med, "q1": q1, "q3": q3,
                                           "spread": spread, "bound": metric["bound"]}
                within = spread <= metric["bound"]
                ok &= within
                print(f"  {name} {metric['name']:<15} median {med:.6g} spread {spread:.3f} "
                      f"(bound {metric['bound']}, a third is {metric['bound'] / 3:.3f})"
                      f"{'' if within else '  OVER BOUND'}")
            # the wall-clock figures beside them, not gated
            for raw in RAW:
                values = [r["info"][raw]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                summary[raw] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
                print(f"  {name} {raw:<15} median {med:.6g} spread {(q3 - q1) / med:.3f} (not gated)")
        report[name] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
