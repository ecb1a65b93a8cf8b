"""The benchmark's workloads: seeded input generators, items and output checks.

Every workload builds its inputs from the seed alone (`setup`), then runs
items in a closed loop: the next item starts only after the previous one
finished.  The library is reached only through its public functions, each
call wrapped in a span named `<module>.<function>` when tracing is on.

`setup` and `item` take the library module to call, so the same work can be
run on the package under test (`lbcut`) and on the frozen reference copy
(`lbcut_v0`, see worker.py); each builds its own inputs from the same seed.
Checks and the standalone stage calls of a traced run use `lbcut` only.

Why each workload exists:

- dp-dense-ties: n=200 unit intervals, ~60% tied starts, table branch.
  Interval validation and tie splitting dominate a solve and the table fill
  is ~1% of it, so an `intervals` change shows here and a DP-kernel change
  does not.
- dp-long: n=600 distinct starts, lam ~170, table branch with ~40M cell
  updates and no ties.  A DP-kernel change shows here, not on dp-dense-ties.
- xval: n=30 and n=8 instances cross-checked between the DP and
  oracle_branch / oracle_subset.  The only workload that exercises `oracles`;
  oracle_branch takes about half of the item time, the DP solves and
  parsing the rest.
- hard-families: pathwidth (H ~89k vertices) and FVS generate-and-certify
  pipelines.  Reaches reductions, gadgets, witnesses and formats, and no
  interval code; memory-bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

import lbcut
import lbcut.formats


@dataclass
class Record:
    """What one item produced, kept only until its checks have run."""

    out: dict
    dp_runs: list = field(default_factory=list)  # (inst, model, tables) per solve


# ---------------------------------------------------------------------------
# generators


def unit_interval_text(lib, starts, lo: float, hi: float, tr) -> str:
    """Unit intervals at `starts` as instance text; s and t at start ranks lo
    and hi (fractions of n-1), lam = dist(s,t) + 1 and beta = m."""
    model = lib.IntervalModel.unit(starts)
    g = tr.call("intervals.induced_graph", model.induced_graph)
    n = model.n
    order = sorted(range(n), key=lambda v: (model.starts[v], v))
    s, t = order[round(lo * (n - 1))], order[round(hi * (n - 1))]
    dist = lib.bfs_distances(g, s)[t]
    if dist == float("inf"):
        raise RuntimeError("generator produced a disconnected s-t pair")
    return lib.formats.serialize_instance(lib.Instance(g, s, t, g.m, int(dist) + 1), model)


def gapped_starts(rng: Random, n: int, grid: int, lo: int, hi: int) -> list[Fraction]:
    """n distinct starts; consecutive gaps drawn from lo..hi steps of 1/grid.

    With hi < grid every gap is below the unit length, so the intervals form
    one connected chain."""
    pos, starts = 0, []
    for _ in range(n):
        starts.append(Fraction(pos, grid))
        pos += rng.randint(lo, hi)
    return starts


def planted_clique_source(lib, rng: Random, n: int, k: int, m: int):
    """Clique-search source with n vertices, m >= n edges and a planted
    k-clique; returns (CliqueInstance, clique as a sorted tuple)."""
    clique = tuple(sorted(rng.sample(range(n), k)))
    edges = set(itertools.combinations(clique, 2))
    rest = [e for e in itertools.combinations(range(n), 2) if e not in edges]
    edges.update(rng.sample(rest, m - len(edges)))
    return lib.CliqueInstance(lib.Graph(n, edges), k), clique


def planted_multicolored_source(lib, rng: Random, k: int, nu: int, extra: int):
    """k parts of nu vertices, one planted vertex per part joined into a
    clique, plus `extra` random edges across parts."""
    clique = tuple(part * nu + rng.randrange(nu) for part in range(k))
    edges = set(itertools.combinations(clique, 2))
    rest = [
        (u, v)
        for u, v in itertools.combinations(range(k * nu), 2)
        if u // nu != v // nu and (u, v) not in edges
    ]
    edges.update(rng.sample(rest, extra))
    return lib.MulticoloredCliqueInstance(lib.Graph(k * nu, edges), k, nu), clique


# ---------------------------------------------------------------------------
# shared DP helpers


def dp_counts(inst, tables) -> dict:
    """Per-solve counts; table sizes are computed from the arrays' shapes."""
    q = len(tables.norm.order) if tables.norm is not None else 0
    has_table = tables.T is not None
    return {
        "dp.q": q,
        "dp.lam": inst.lam,
        "dp.table_cells": tables.T.size if has_table else 0,
        "dp.fill_ops": q * q * max(inst.lam - 2, 0) if has_table else 0,
        "dp.table_bytes": (
            tables.T.nbytes + tables.S.nbytes + tables.crossing.prefix.nbytes
            if has_table else 0
        ),
    }


def dp_stages(inst, model, tables, tr) -> None:
    """Each stage of a solve once more, standalone, so its cost shows from
    outside.  Stages the solve did not reach are skipped."""
    g, s, t = inst.graph, inst.s, inst.t
    tr.call("intervals.validate_model", lbcut.validate_model, g, model)
    tr.call("graph.bfs_distances", lbcut.bfs_distances, g, s)
    if tables.branch != "no-short-path":
        tr.call("graph.min_st_cut", lbcut.min_st_cut, g, s, t)
    if tables.norm is not None:
        norm = tr.call("intervals.normalize", lbcut.normalize, inst, model)
        tr.call("dp.compute_crossing_counts", lbcut.compute_crossing_counts, norm)
    tr.call("dp.dp_solve", lbcut.dp_solve, inst, model)
    tr.call("dp.extract_cut", lbcut.extract_cut, inst, model, tables)


def add_counts(into: dict, more: dict) -> None:
    for key, value in more.items():
        into[key] = into.get(key, 0) + value


# ---------------------------------------------------------------------------
# workloads


class DpWorkload:
    """One item: `formats.parse_instance` on the instance text, then `dp.solve`."""

    pool_size: int

    def __init__(self):
        self.mincut: dict[int, int] = {}  # pool index -> max-flow value
        self.costs: dict[int, int] = {}  # pool index -> first cost seen

    def starts(self, rng: Random) -> list[Fraction]:
        raise NotImplementedError

    def setup(self, lib, seed: int, tr) -> list[str]:
        return [unit_interval_text(lib, self.starts(Random(f"{self.name}:{seed}:{i}")),
                                   0.1, 0.9, tr)
                for i in range(self.pool_size)]

    def item(self, lib, texts, idx, tr, totals) -> Record:
        parsed = tr.call("formats.parse_instance", lib.formats.parse_instance, texts[idx])
        inst, model = parsed.instance, parsed.model
        cost, cut, tables = tr.call("dp.solve", lib.solve, inst, model)
        return Record({"pool": idx, "cost": cost, "cut": cut, "bytes": len(texts[idx])},
                      [(inst, model, tables)])

    def check(self, rec: Record, tr, totals):
        (inst, model, tables), out = rec.dp_runs[0], rec.out
        cost, cut, pool = out["cost"], out["cut"], out["pool"]
        failures, guards = [], []
        if not tr.call("graph.verify_cut", lbcut.verify_cut, inst, cut).ok:
            failures.append("cut does not verify")
        if len(cut) != cost:
            failures.append(f"cut has {len(cut)} edges, cost is {cost}")
        if pool not in self.mincut:
            self.mincut[pool] = lbcut.min_st_cut(inst.graph, inst.s, inst.t)[0]
        if cost > self.mincut[pool]:
            failures.append(f"cost {cost} exceeds the max-flow value {self.mincut[pool]}")
        if self.costs.setdefault(pool, cost) != cost:
            failures.append(f"pool instance {pool} solved to {cost}, earlier {self.costs[pool]}")
        totals["dp.solves"] += 1
        totals["dp.table_solves"] += tables.branch == "table"
        if tables.branch != "table":
            guards.append(f"pool instance {pool} took the {tables.branch!r} branch")
        ties = model.n - len(set(model.starts))
        counts = {"intervals.start_ties": ties, "graph.n": inst.graph.n,
                  "graph.m": inst.graph.m, "formats.bytes": out["bytes"]}
        counts.update(dp_counts(inst, tables))
        return failures, guards, counts

    def golden_costs(self) -> list[int]:
        return [self.costs[i] for i in sorted(self.costs)]


class DpDenseTies(DpWorkload):
    name = "dp-dense-ties"
    pool_size = 6

    def starts(self, rng):
        # ~20 starts per unit length on a 1/8 grid over 10 units
        return [Fraction(rng.randint(0, 80), 8) for _ in range(200)]

    def check(self, rec, tr, totals):
        failures, guards, counts = super().check(rec, tr, totals)
        if counts["intervals.start_ties"] == 0:
            guards.append("instance has no tied start values")
        return failures, guards, counts


class DpLong(DpWorkload):
    name = "dp-long"
    pool_size = 3

    def starts(self, rng):
        # gaps of 1..4 eighths: ~3.2 starts per unit length, all distinct
        return gapped_starts(rng, 600, 8, 1, 4)


class Xval:
    """One item: an n=30 instance solved by the DP and by oracle_branch, and
    an n=8 instance (m <= 16) solved by the DP and by oracle_subset; each
    instance is parsed from its text first."""

    name = "xval"
    pool_size = 256

    def setup(self, lib, seed, tr):
        pool = []
        for i in range(self.pool_size):
            rng = Random(f"{self.name}:{seed}:{i}")
            # ~4 starts per unit length, cut cost 3-7.  Terminals at rank
            # 25%/75% keep the branching oracle's paths short: its time grows
            # like lam^cost, and a heavier tail would make items_per_s depend
            # on a few instances of the pool
            big = unit_interval_text(lib, gapped_starts(rng, 30, 16, 3, 5), 0.25, 0.75, tr)
            # gaps of at least 3/8 allow at most two neighbours on each side,
            # so m <= 16, the subset oracle's default cap
            small = unit_interval_text(lib, gapped_starts(rng, 8, 8, 3, 5), 0.0, 1.0, tr)
            pool.append((big, small))
        return pool

    def item(self, lib, pool, idx, tr, totals):
        rec = Record({})
        for text, oracle in zip(pool[idx], (lib.oracle_branch, lib.oracle_subset)):
            parsed = tr.call("formats.parse_instance", lib.formats.parse_instance, text)
            inst, model = parsed.instance, parsed.model
            cost, _, tables = tr.call("dp.solve", lib.solve, inst, model)
            totals["oracles.calls"] += 1
            answer = tr.call(f"oracles.{oracle.__name__}", oracle, inst)
            totals["oracles.answered"] += 1
            rec.dp_runs.append((inst, model, tables))
            rec.out[oracle.__name__] = (cost, answer)
        return rec

    def check(self, rec, tr, totals):
        failures, guards, counts = [], [], {}
        for name, (cost, answer) in rec.out.items():
            if cost != answer:
                failures.append(f"dp cost {cost} != {name} answer {answer}")
        if rec.out["oracle_branch"][0] < 2:
            guards.append(f"n=30 instance has cost {rec.out['oracle_branch'][0]} < 2")
        for inst, _, tables in rec.dp_runs:
            totals["dp.solves"] += 1
            totals["dp.table_solves"] += tables.branch == "table"
            add_counts(counts, {"graph.n": inst.graph.n, "graph.m": inst.graph.m})
            add_counts(counts, dp_counts(inst, tables))
        return failures, guards, counts


class HardFamilies:
    """One item: a gen_pw and a gen_fvs pipeline, each generate -> forward cut
    -> verify_cut -> witness build and check -> decode -> file round trip."""

    name = "hard-families"
    pool_size = 4
    K = 3

    def setup(self, lib, seed, tr):
        pool = []
        for i in range(self.pool_size):
            rng = Random(f"{self.name}:{seed}:{i}")
            pool.append((planted_clique_source(lib, rng, 8, self.K, 16),
                         planted_multicolored_source(lib, rng, self.K, 4, 6)))
        return pool

    def item(self, lib, pool, idx, tr, totals):
        (cq, clique), (mc, mclique) = pool[idx]
        out = tr.call("reductions_pw.gen_pw", lib.gen_pw, cq)
        cut = tr.call("reductions_pw.forward_cut_pw", lib.forward_cut_pw, out, clique)
        pw = {
            "cut_ok": tr.call("graph.verify_cut", lib.verify_cut, out.instance, cut).ok,
            "cut_size": len(cut) == out.instance.beta,
        }
        pd = tr.call("witnesses.build_pw_witness", lib.build_pw_witness, out)
        verdict = tr.call("witnesses.verify_path_decomposition",
                          lib.verify_path_decomposition, out.instance.graph, pd)
        pw["witness"] = verdict.ok and verdict.width <= 2 * cq.k + 11
        pw["decoded"] = tr.call("reductions_pw.decode_pw", lib.decode_pw, out, cut) == clique
        text = tr.call("formats.serialize_reduction_output",
                       lib.formats.serialize_reduction_output, out)
        back = tr.call("formats.load_reduction_output",
                       lib.formats.load_reduction_output, text, cq)
        pw["round_trip"] = back == out
        counts = {"reductions_pw.h_vertices": out.instance.graph.n,
                  "witnesses.bags": len(pd.bags), "formats.bytes": len(text),
                  "graph.n": out.instance.graph.n, "graph.m": out.instance.graph.m}
        del out, cut, pd, back, text

        out = tr.call("reductions_fvs.gen_fvs", lib.gen_fvs, mc)
        cut = tr.call("reductions_fvs.forward_cut_fvs", lib.forward_cut_fvs, out, mclique)
        fvs = {
            "cut_ok": tr.call("graph.verify_cut", lib.verify_cut, out.instance, cut).ok,
            "cut_size": len(cut) == out.instance.beta,
        }
        w = tr.call("witnesses.build_fvs_witness", lib.build_fvs_witness, out)
        fvs["witness"] = (tr.call("witnesses.verify_fvs", lib.verify_fvs, out.instance.graph, w)
                          and len(w) == 2 * mc.k + 2)
        fvs["decoded"] = tr.call("reductions_fvs.decode_fvs", lib.decode_fvs, out, cut) == mclique
        text = tr.call("formats.serialize_reduction_output",
                       lib.formats.serialize_reduction_output, out)
        back = tr.call("formats.load_reduction_output",
                       lib.formats.load_reduction_output, text, mc)
        fvs["round_trip"] = back == out
        add_counts(counts, {"formats.bytes": len(text), "graph.n": out.instance.graph.n,
                            "graph.m": out.instance.graph.m})
        return Record({"pw": pw, "fvs": fvs, "counts": counts})

    def check(self, rec, tr, totals):
        failures = [
            f"{family}: {what} check failed"
            for family in ("pw", "fvs")
            for what, ok in rec.out[family].items()
            if not ok
        ]
        return failures, [], rec.out["counts"]


WORKLOADS = {cls.name: cls for cls in (DpDenseTies, DpLong, Xval, HardFamilies)}
