"""Measure one workload in this process and print its result as one JSON line.

Started by run.py, one process per workload, with numpy/BLAS threads pinned
to 1.  The package under test is imported from the checkout's `src/` and
nowhere else.

Timing against a frozen reference.  On a shared host the speed of a core
drifts by 20-40% over tens of seconds, with the kind of work, so the
wall-clock figures of one run differ from the next one's by more than any
useful bound, and a fixed probe does not follow the drift of every workload.
An untraced run therefore runs every item twice, back to back on the same
seeded input: once with `lbcut` and once with `lbcut_v0` (`v0/lbcut_v0`), a
verbatim copy of `src/lbcut` without `cli.py`, frozen when the benchmark was
introduced and never edited since.  The order alternates from pair to pair.
Both runs of a pair do the same kind of work on the same machine state, so
their ratio follows the program and not the host; the bounded speed metrics
are these ratios.  The wall-clock figures are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE / "v0"))

import lbcut  # noqa: E402
import lbcut_v0  # noqa: E402
import lbcut_v0.formats  # noqa: E402
import numpy  # noqa: E402

if not Path(lbcut.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"lbcut was imported from {lbcut.__file__}, not from {SRC}")

from tracing import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, dp_stages  # noqa: E402

DEFAULT_SEED = 0
GOLDEN = HERE / "golden.json"
TRACE_DIR = HERE / "out"
REFUSED = (lbcut.BudgetExceeded, lbcut_v0.BudgetExceeded)

# set-up runs at least this often, and again until this much time is spent
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS = 3, 1.0, 20000

LAYER_SPANS = [
    "intervals.validate_model", "intervals.normalize",
    "dp.solve", "dp.dp_solve", "dp.compute_crossing_counts", "dp.extract_cut",
    "graph.min_st_cut", "graph.bfs_distances", "graph.verify_cut",
    "oracles.oracle_branch", "oracles.oracle_subset",
    "formats.parse_instance", "formats.serialize_reduction_output",
    "formats.load_reduction_output",
    "reductions_pw.gen_pw", "reductions_pw.forward_cut_pw", "reductions_pw.decode_pw",
    "reductions_fvs.gen_fvs", "reductions_fvs.forward_cut_fvs", "reductions_fvs.decode_fvs",
    "witnesses.build_pw_witness", "witnesses.verify_path_decomposition",
    "witnesses.verify_fvs",
]
LAYER_COUNTS = {
    "intervals.start_ties": "count", "dp.q": "count", "dp.lam": "count",
    "dp.table_cells": "count", "dp.fill_ops": "count", "dp.table_bytes": "B",
    "graph.n": "count", "graph.m": "count", "formats.bytes": "B",
    "reductions_pw.h_vertices": "count", "witnesses.bags": "count",
}


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "threads_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


@dataclass
class Side:
    """One way of running the pool: a library, its own inputs and a tracer.
    Only outputs of `lbcut` are checked."""

    name: str
    lib: object
    inputs: list
    tracer: object


@dataclass
class Log:
    """Per-item times of each side, failures and counts of one run."""

    times: dict = field(default_factory=dict)  # side name -> item times
    attempted: int = 0  # checked items
    failures: list = field(default_factory=list)
    guards: list = field(default_factory=list)
    counts: list = field(default_factory=list)  # of traced items only


def run_pairs(wl, sides, seconds, totals) -> Log:
    """Run pool inputs in turn, each once on both sides, until `seconds` of
    wall-clock time have passed.

    The two runs of a pair are back to back on the same pool index, in
    alternating order (AB, BA, AB, ...), so that neither side always runs
    first.  Only the items are timed; the checks (and, when tracing, the
    standalone stage calls) run between them with the item clock stopped.
    """
    log = Log({side.name: [] for side in sides})
    deadline = perf_counter() + seconds
    pair = 0
    while perf_counter() < deadline:
        idx = pair % len(sides[0].inputs)
        for side in sides if pair % 2 == 0 else sides[::-1]:
            tr, checked = side.tracer, side.lib is lbcut
            tr.item = pair
            rec, error = None, None
            start = perf_counter()
            try:
                with tr.span("bench.item"):
                    rec = wl.item(side.lib, side.inputs, idx, tr, totals)
            except REFUSED as exc:
                error = f"refused: {exc}"
            except Exception:  # an item that raises is counted and reported, the run goes on
                error = traceback.format_exc(limit=4)
            log.times[side.name].append(perf_counter() - start)
            log.attempted += checked
            if rec is not None and checked:
                if tr.enabled:
                    with tr.span("bench.stages"):
                        for inst, model, tables in rec.dp_runs:
                            dp_stages(inst, model, tables, tr)
                with tr.span("bench.check"):
                    try:
                        fails, guards, counts = wl.check(rec, tr, totals)
                    except Exception:
                        fails, guards, counts = [traceback.format_exc(limit=4)], [], {}
                log.guards.extend(guards)
                if tr.enabled:
                    log.counts.append(counts)
                if fails:
                    error = "; ".join(fails)
            if error is not None:
                log.failures.append(f"{side.name} item {pair}: {error}")
            tr.item = None
        pair += 1
    return log


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    tr = Tracer() if args.trace else NullTracer()

    setup_times = []
    while (len(setup_times) < SETUP_MIN_REPEATS
           or (sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS)):
        inputs = None
        start = perf_counter()
        inputs = wl.setup(lbcut, args.seed, tr)
        setup_times.append(perf_counter() - start)

    # one untimed, unchecked item first, so lazy imports and first-call costs
    # stay out of the timed phase; peak RSS is read before the reference
    # builds anything
    wl.item(lbcut, inputs, 0, NullTracer(), Counter())
    peak_mb = peak_rss_mb()
    if args.trace:
        sides = [Side("traced", lbcut, inputs, tr), Side("untraced", lbcut, inputs, NullTracer())]
    else:
        ref_inputs = wl.setup(lbcut_v0, args.seed, NullTracer())
        sides = [Side("lbcut", lbcut, inputs, tr), Side("lbcut_v0", lbcut_v0, ref_inputs, tr)]

    totals = Counter()
    log = run_pairs(wl, sides, args.seconds, totals)

    attempted, failed = log.attempted, len(log.failures)
    guards = log.guards
    if totals["dp.solves"] == 0 and args.workload.startswith("dp-"):
        guards.append("no DP solve completed")
    if args.seed == DEFAULT_SEED and hasattr(wl, "golden_costs"):
        golden = json.loads(GOLDEN.read_text()).get(args.workload)
        seen = wl.golden_costs()
        if golden is None or seen != golden[: len(seen)]:
            log.failures.append(f"costs {seen} differ from the golden list {golden}")
            failed = max(failed, 1)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "failures": log.failures[:5],
        "guards": sorted(set(guards))[:5],
        "machine": machine(),
        "costs": getattr(wl, "golden_costs", lambda: None)(),
    }
    if not args.trace:
        times, ref = log.times["lbcut"], log.times["lbcut_v0"]
        items_per_s = (attempted - failed) / sum(times)
        ref_items_per_s = len(ref) / sum(ref)
        result["metrics"] = {
            "rel_items_per_s": (items_per_s / ref_items_per_s, "x"),
            "rel_item_p50": (statistics.median(t / r for t, r in zip(times, ref)), "x"),
            "peak_rss_mb": (peak_mb, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        # wall-clock figures, not bounded: they move with the host's speed
        # (see the module docstring); fail_ratio is 0 on a correct run
        result["info"] = {
            "items_per_s": (items_per_s, "1/s"),
            "item_p50_s": (statistics.median(times), "s"),
            "v0_items_per_s": (ref_items_per_s, "1/s"),
            "v0_item_p50_s": (statistics.median(ref), "s"),
            "fail_ratio": (failed / attempted, "ratio"),
            "items": (attempted, "count"),
            "setup_repeats": (len(setup_times), "count"),
        }
        # p90 only when at least ten samples lie beyond it
        if attempted >= 100:
            result["info"]["item_p90_s"] = (statistics.quantiles(times, n=10)[-1], "s")
    else:
        per_item = tr.per_item_seconds()
        layer = {
            f"{name}_s": (statistics.median(per_item[name]) if name in per_item else 0.0, "s")
            for name in LAYER_SPANS
        }
        layer["intervals.induced_graph_s"] = (
            tr.setup_median("intervals.induced_graph"), "s")
        for name, unit in LAYER_COUNTS.items():
            layer[name] = (statistics.median(c.get(name, 0) for c in log.counts)
                           if log.counts else 0, unit)
        layer["dp.table_branch_ratio"] = (
            totals["dp.table_solves"] / totals["dp.solves"] if totals["dp.solves"] else 0.0,
            "ratio",
        )
        layer["oracles.answered_ratio"] = (
            totals["oracles.answered"] / totals["oracles.calls"] if totals["oracles.calls"] else 0.0,
            "ratio",
        )
        # traced over untraced median item time
        layer["trace.slowdown"] = (
            statistics.median(log.times["traced"]) / statistics.median(log.times["untraced"]),
            "x",
        )
        result["metrics"] = layer
        result["info"] = {}
        TRACE_DIR.mkdir(exist_ok=True)
        tr.dump(TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    for key in ("metrics", "info"):
        if key in result:
            result[key] = {k: {"value": v, "unit": u} for k, (v, u) in result[key].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
