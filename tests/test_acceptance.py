"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -rA` to see the PASS lines.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import lbcut
from lbcut.dp import dp_solve, extract_cut, monotonize_cut
from lbcut.errors import BudgetExceeded
from lbcut.graph import Instance, bfs_distances, verify_cut
from lbcut.intervals import IntervalModel, normalize
from lbcut.oracles import (
    OracleBudget,
    oracle_branch,
    oracle_subset,
    random_proper_interval_instance,
)
from lbcut.reductions_fvs import decode_fvs, forward_cut_fvs, gen_fvs
from lbcut.reductions_pw import decode_pw, forward_cut_pw, gen_pw
from lbcut.witnesses import (
    build_fvs_witness,
    build_pw_witness,
    verify_fvs,
    verify_path_decomposition,
)
from test_reductions_fvs import planted_mc_instance
from test_reductions_pw import planted_clique_instance


def report(num, text):
    print(f"PASS criterion {num}: {text}")


PW_CORPUS = [
    planted_clique_instance(4, 2, 2, seed=10),
    planted_clique_instance(5, 2, 3, seed=11),
    planted_clique_instance(6, 2, 4, seed=12),
    planted_clique_instance(5, 3, 2, seed=13),
    planted_clique_instance(6, 3, 3, seed=14),
    planted_clique_instance(7, 3, 3, seed=15),
]

FVS_CORPUS = [
    planted_mc_instance(2, 2, 1, seed=20),
    planted_mc_instance(2, 3, 3, seed=21),
    planted_mc_instance(2, 4, 4, seed=22),
    planted_mc_instance(3, 2, 3, seed=23),
    planted_mc_instance(3, 3, 5, seed=24),
    planted_mc_instance(3, 4, 6, seed=25),
]


dp_certification_log = []


def test_criterion_1_dp_oracle_equivalence():
    started = time.perf_counter()
    subset_checked = 0
    seed = 0
    while subset_checked < 500:
        seed += 1
        inst, model = random_proper_interval_instance(
            4 + seed % 7,
            density=(0.35, 0.6, 0.85)[seed % 3],
            beta_range=(1, 8),
            lambda_range=(1, 6),
            seed=seed,
        )
        if inst.graph.m > 14:
            continue
        cost, tables = dp_solve(inst, model)
        assert cost == oracle_subset(inst), f"seed {seed}"
        dp_certification_log.append((inst, model, cost, tables))
        subset_checked += 1

    branch_checked = 0
    seed = 0
    budget = OracleBudget(max_branch_nodes=60_000)
    while branch_checked < 200:
        seed += 1
        inst, model = random_proper_interval_instance(
            20 + (seed % 21),
            density=0.3,
            beta_range=(1, 5),
            lambda_range=(3, 8),
            seed=seed * 31 + 7,
        )
        cost, tables = dp_solve(inst, model)
        if cost > 4:
            continue  # the branch oracle is only tractable for small optima
        try:
            ob = oracle_branch(inst, budget)
        except BudgetExceeded:
            continue
        assert cost == ob, f"seed {seed}: dp={cost} branch={ob}"
        dp_certification_log.append((inst, model, cost, tables))
        branch_checked += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"criterion 1 took {elapsed:.1f}s"
    report(
        1,
        f"dp_solve == oracle_subset on {subset_checked} instances and "
        f"== oracle_branch on {branch_checked} instances in {elapsed:.1f}s",
    )


def test_criterion_2_cut_certification():
    assert dp_certification_log, "criterion 1 must run first"
    table_branch = 0
    for inst, model, cost, tables in dp_certification_log:
        cut = extract_cut(inst, model, tables)
        assert len(cut) == cost
        assert verify_cut(inst, cut).ok
        table_branch += tables.branch == "table"
    assert table_branch >= 20, "table branch barely exercised"
    report(
        2,
        f"extract_cut matched the dp cost and verified on all "
        f"{len(dp_certification_log)} runs ({table_branch} on the table branch)",
    )


def test_criterion_3_trim_equivalence():
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        inst, model = random_proper_interval_instance(
            8, density=0.35, beta_range=(1, 6), lambda_range=(2, 5), seed=seed * 13
        )
        if inst.graph.m > 14:
            continue
        s, e = model.starts, model.ends
        outside = [
            v for v in range(model.n) if e[v] < s[inst.s] or s[v] > e[inst.t]
        ]
        if not outside:
            continue
        norm = normalize(inst, model)
        if norm.graph.m > 14:
            continue
        trimmed = Instance(norm.graph, norm.s, norm.t, inst.beta, inst.lam)
        assert oracle_subset(trimmed) == oracle_subset(inst), f"seed {seed}"
        checked += 1
    report(3, f"trimming preserved the optimum on {checked} instances with outliers")


def test_criterion_4_monotonization():
    checked = 0
    seed = 0
    while checked < 200:
        seed += 1
        inst, model = random_proper_interval_instance(
            5 + seed % 6, density=(0.4, 0.7, 0.95)[seed % 3], seed=seed * 17
        )
        norm = normalize(inst, model)
        g, s, t = norm.graph, norm.s, norm.t
        rng = Random(seed)
        f = frozenset(e for e in g.edge_list() if rng.random() < 0.4)
        dist = bfs_distances(g.without_edges(f), s)[t]
        d = g.n + 2 if dist == math.inf else int(dist)
        out = monotonize_cut(norm, f, d)
        assert len(out) <= len(f)
        after = bfs_distances(g.without_edges(out), s)
        assert after[t] >= d
        vals = [after[v] for v in norm.order]
        assert all(a <= b for a, b in zip(vals, vals[1:])), f"seed {seed}"
        checked += 1
    report(4, f"monotonize_cut met all three postconditions on {checked} triples")


def test_criterion_5_pw_forward_direction():
    for cq, clique in PW_CORPUS:
        started = time.perf_counter()
        assert cq.k in (2, 3) and cq.graph.m <= 10
        out = gen_pw(cq)
        cut = forward_cut_pw(out, clique)
        assert len(cut) == 2 * cq.k * cq.k
        assert verify_cut(out.instance, cut).ok
        assert decode_pw(out, cut) == clique
        d = bfs_distances(out.instance.graph, out.instance.s)
        assert d[out.instance.t] <= out.instance.lam
        assert time.perf_counter() - started < 10
    report(
        5,
        f"forward cuts of size 2k^2 verified and decoded on {len(PW_CORPUS)} "
        "planted-clique instances (k in {2,3})",
    )


def test_criterion_6_fvs_forward_direction():
    for mc, clique in FVS_CORPUS:
        assert mc.k in (2, 3) and mc.nu <= 4
        out = gen_fvs(mc)
        cut = forward_cut_fvs(out, clique)
        expected = 2 * mc.k * (mc.nu - 1) * mc.graph.m + mc.graph.m - mc.k * (
            mc.k - 1
        ) // 2
        assert len(cut) == expected
        assert verify_cut(out.instance, cut).ok
        assert decode_fvs(out, cut) == clique
    report(
        6,
        f"forward cuts of size 2k(nu-1)m + m - C(k,2) verified and decoded on "
        f"{len(FVS_CORPUS)} multicolored instances",
    )


def test_criterion_7_witnesses():
    for mc, _ in FVS_CORPUS:
        out = gen_fvs(mc)
        w = build_fvs_witness(out)
        assert len(w) == 2 * mc.k + 2
        assert verify_fvs(out.instance.graph, w)
    for cq, _ in PW_CORPUS:
        out = gen_pw(cq)
        pd = build_pw_witness(out)
        verdict = verify_path_decomposition(out.instance.graph, pd)
        assert verdict.ok
        assert verdict.width <= 2 * cq.k + 11
    report(
        7,
        "FVS witnesses of size 2k+2 and path decompositions of width <= 2k+11 "
        f"validated on all {len(FVS_CORPUS)} + {len(PW_CORPUS)} generated instances",
    )


def test_criterion_8_backward_directions_out_of_desk_scale():
    # the backward directions would need exact solving at beta=2k^2,
    # lambda=8*eta+2n+1; both oracles refuse such sizes by budget, which is
    # why criteria 1-7 exercise the constructive guarantees instead
    cq, _ = PW_CORPUS[0]
    out = gen_pw(cq)
    assert out.instance.graph.m > OracleBudget().max_subset_edges
    with pytest.raises(BudgetExceeded):
        oracle_subset(out.instance)
    with pytest.raises(BudgetExceeded):
        oracle_branch(out.instance, OracleBudget(max_branch_nodes=500))
    report(
        8,
        "backward directions are out of oracle budgets by construction "
        f"(m={out.instance.graph.m}, lambda={out.instance.lam}); exercised "
        "instead by the forward-cut, decoder, and witness suites above",
    )


def test_criterion_9_runtime_envelope():
    def timed_solve(n, seed):
        inst, model = random_proper_interval_instance(
            n, density=0.5, lambda_range=(n // 3, n // 2), seed=seed
        )
        started = time.perf_counter()
        cost, tables = dp_solve(inst, model)
        elapsed = time.perf_counter() - started
        return elapsed, inst.graph.m

    times = {}
    for n in (50, 100, 200):
        runs = [timed_solve(n, seed) for seed in (1, 2, 3)]
        times[n] = (sorted(t for t, _ in runs)[1], max(m for _, m in runs))
    t200, _ = times[200]
    assert t200 < 60, f"n=200 solve took {t200:.1f}s"
    t50, m50 = times[50]
    envelope = max(t50, 1e-3) / (50**4 * max(m50, 1))
    for n in (100, 200):
        t, m = times[n]
        assert t <= 2 * envelope * n**4 * max(m, 1), (
            f"n={n}: {t:.4f}s exceeds the fitted n^4*m envelope"
        )
    report(
        9,
        f"n=200 solved in {t200 * 1000:.0f}ms; growth over n in (50,100,200) "
        "stayed within 2x of the fitted n^4*m trend",
    )


def test_table_branch_runtime_envelope():
    # criterion 9's seeds exit on "no-short-path"; this recipe reaches the
    # table: n=800 unit intervals at ~20 per unit length, terminals at start
    # ranks 10% and 90%, lam = dist(s,t) + 1
    n = 800
    times = []
    for seed in (1, 2, 3):
        rng = Random(seed)
        model = IntervalModel.unit(
            [Fraction(rng.randrange(40 * 1000), 1000) for _ in range(n)]
        )
        g = model.induced_graph()
        ranked = sorted(range(n), key=lambda v: (model.starts[v], v))
        s, t = ranked[n // 10], ranked[9 * n // 10]
        inst = Instance(g, s, t, g.m, int(bfs_distances(g, s)[t]) + 1)
        started = time.perf_counter()
        cost, tables = dp_solve(inst, model)
        times.append(time.perf_counter() - started)
        assert tables.branch == "table", f"seed {seed} took {tables.branch!r}"
    elapsed = sorted(times)[1]
    assert elapsed < 3, f"n=800 table-branch solve took {elapsed:.2f}s"
    report(
        "9 (table branch)",
        f"n=800 table-branch solve took {elapsed * 1000:.0f}ms (median of 3 seeds)",
    )


def test_table_branch_runtime_envelope_large():
    # the n=800 recipe at n=3200: ~20 starts per unit length, terminals at
    # start ranks 10% and 90%, lam = dist(s,t) + 1
    n = 3200
    times = []
    for seed in (1, 2, 3):
        rng = Random(seed)
        model = IntervalModel.unit(
            [Fraction(rng.randrange(160 * 1000), 1000) for _ in range(n)]
        )
        g = model.induced_graph()
        ranked = sorted(range(n), key=lambda v: (model.starts[v], v))
        s, t = ranked[n // 10], ranked[9 * n // 10]
        inst = Instance(g, s, t, g.m, int(bfs_distances(g, s)[t]) + 1)
        started = time.perf_counter()
        cost, tables = dp_solve(inst, model)
        times.append(time.perf_counter() - started)
        assert tables.branch == "table", f"seed {seed} took {tables.branch!r}"
    elapsed = sorted(times)[1]
    assert elapsed < 5, f"n=3200 table-branch solve took {elapsed:.2f}s"
    report(
        "9 (table branch, large)",
        f"n=3200 table-branch solve took {elapsed * 1000:.0f}ms (median of 3 seeds)",
    )


# The n=3200 recipe at n=12800 (q=10276, lam=537 for seed 1) and n=25600
# (q=20520, lam=1076), solved in a fresh interpreter so its peak RSS is the
# solve's own.  At n=12800 a dense (q+1) x q crossing matrix alone would
# take 845 MB, and at n=25600 q x (lam+1) tables T and S 177 MB each.
ENVELOPE_CHILD = """
import json, resource, sys, time
from fractions import Fraction
from random import Random
from lbcut.dp import dp_solve, extract_cut
from lbcut.graph import Instance, bfs_distances
from lbcut.intervals import IntervalModel

n, seed = int(sys.argv[1]), int(sys.argv[2])
rng = Random(seed)
model = IntervalModel.unit([Fraction(rng.randrange(n // 20 * 1000), 1000) for _ in range(n)])
g = model.induced_graph()
ranked = sorted(range(n), key=lambda v: (model.starts[v], v))
s, t = ranked[n // 10], ranked[9 * n // 10]
inst = Instance(g, s, t, g.m, int(bfs_distances(g, s)[t]) + 1)
started = time.perf_counter()
cost, tables = dp_solve(inst, model)
cut = extract_cut(inst, model, tables)
print(json.dumps({
    "seconds": time.perf_counter() - started,
    "branch": tables.branch,
    "q": len(tables.norm.order),
    "cost": cost,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def run_child(code, *args):
    """Run `code` in a fresh interpreter that imports this lbcut; return the
    JSON object on the last line of its output."""
    src = str(Path(lbcut.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def table_branch_envelope(n):
    """Solve and cut the n-vertex envelope recipe (~20 starts per unit,
    terminals at rank 10%/90%, lam = dist + 1, seed 1) in a child process;
    assert it takes the table branch in under 15 s and 512 MB."""
    out = run_child(ENVELOPE_CHILD, n, 1)
    assert out["branch"] == "table" and out["q"] > n * 25 // 32  # 10,000 at n=12800
    assert out["seconds"] < 15, f"n={n} solve took {out['seconds']:.1f}s"
    assert out["maxrss_mb"] < 512, f"n={n} solve peaked at {out['maxrss_mb']:.0f} MB"
    report(
        f"9 (table branch, n={n})",
        f"q={out['q']} solved and cut in {out['seconds']:.1f}s at "
        f"{out['maxrss_mb']:.0f} MB peak RSS",
    )


def test_table_branch_envelope_12800():
    # bounds are about 6x the time (~2.5 s) and 5x the peak RSS (~100 MB)
    # measured on a 2-vCPU host
    table_branch_envelope(12800)


def test_table_branch_envelope_25600():
    # bounds are about 2.5x the time (~6 s) and 3x the peak RSS (~175 MB)
    # measured on a 2-vCPU host
    table_branch_envelope(25600)


# A pathwidth-family source at the benchmark's size (n=8, m=16, k=3, so H
# has 88,715 vertices for seed 0), for the child processes below.
PW_SOURCE = """
import itertools, json, resource, sys, time
from random import Random
from lbcut.formats import load_reduction_output, serialize_reduction_output
from lbcut.graph import Graph
from lbcut.reductions_pw import CliqueInstance, gen_pw
from lbcut.witnesses import build_pw_witness, verify_path_decomposition

rng = Random(int(sys.argv[1]))
clique = sorted(rng.sample(range(8), 3))
edges = set(itertools.combinations(clique, 2))
rest = [e for e in itertools.combinations(range(8), 2) if e not in edges]
edges.update(rng.sample(rest, 16 - len(edges)))
cq = CliqueInstance(Graph(8, sorted(edges)), 3)
"""

# Generate, build and check the width-2k+11 witness, write the file and read
# it back, in a fresh interpreter so its peak RSS is the round trip's own.
PW_ROUND_TRIP_CHILD = PW_SOURCE + """
started = time.perf_counter()
out = gen_pw(cq)
verdict = verify_path_decomposition(out.instance.graph, build_pw_witness(out))
text = serialize_reduction_output(out)
back = load_reduction_output(text, source=cq)
print(json.dumps({
    "seconds": time.perf_counter() - started,
    "h_vertices": out.instance.graph.n,
    "ok": verdict.ok and back == out,
    "width": verdict.width,
    "bytes": len(text),
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def test_pw_round_trip_envelope():
    # bounds are about 5x the time (0.5-0.6 s) and 5x the peak RSS (~94 MB)
    # measured on a 2-vCPU host
    out = run_child(PW_ROUND_TRIP_CHILD, 0)
    assert out["ok"] and out["width"] <= 2 * 3 + 11 and out["h_vertices"] > 80000
    assert out["seconds"] < 3, f"PW round trip took {out['seconds']:.1f}s"
    assert out["maxrss_mb"] < 512, f"PW round trip peaked at {out['maxrss_mb']:.0f} MB"
    assert out["bytes"] < 2_000_000, f"PW file holds {out['bytes']} bytes"
    report(
        "7 (PW round trip)",
        f"H with {out['h_vertices']} vertices generated, certified and reloaded in "
        f"{out['seconds']:.1f}s at {out['maxrss_mb']:.0f} MB peak RSS",
    )


# The memory the width-2k+11 witness holds once built, as tracemalloc counts
# it: its bag tuples and the tuple of bags.
PW_BAGS_CHILD = PW_SOURCE + """
import gc, tracemalloc
out = gen_pw(cq)
gc.collect()
tracemalloc.start()
pd = build_pw_witness(out)
gc.collect()
print(json.dumps({"bags": len(pd.bags), "held_mb": tracemalloc.get_traced_memory()[0] / 2**20}))
"""


def test_pw_witness_memory():
    # 88,615 bags of ~15 ids: 14.2 MB as sorted tuples (87.2 MB as frozensets)
    out = run_child(PW_BAGS_CHILD, 0)
    assert out["bags"] > 80000
    assert out["held_mb"] < 30, f"PW witness holds {out['held_mb']:.1f} MB"
    report("7 (PW witness memory)", f"{out['bags']} bags held in {out['held_mb']:.1f} MB")
