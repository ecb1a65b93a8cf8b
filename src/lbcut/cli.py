"""Command-line interface.

Exit codes: 0 success / decision yes, 1 decision no, 2 usage or input
error (an input too large for the memory available included), 3 internal
verification failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import formats
from .dp import solve
from .errors import BudgetExceeded, InputError, InternalCheckError, LbcutError, ModelError
from .graph import verify_cut
from .oracles import OracleBudget, oracle_branch, oracle_subset, random_proper_interval_instance
from .reductions_fvs import (
    MulticoloredCliqueInstance,
    decode_fvs,
    forward_cut_fvs,
    gen_fvs,
)
from .reductions_pw import CliqueInstance, decode_pw, forward_cut_pw, gen_pw
from .witnesses import (
    build_fvs_witness,
    build_pw_witness,
    verify_fvs,
    verify_path_decomposition,
)

YES, NO, USAGE, INTERNAL = 0, 1, 2, 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except MemoryError:
        print("error: out of memory: the input is too large for this process", file=sys.stderr)
        return USAGE
    except InternalCheckError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return INTERNAL


def build_parser():
    p = argparse.ArgumentParser(prog="lbcut", description=__doc__)
    sub = p.add_subparsers(required=True)

    sp = sub.add_parser("solve", help="solve a length-bounded cut instance")
    sp.add_argument("file")
    sp.add_argument(
        "--mode",
        choices=["auto", "dp", "subset", "branch"],
        default="auto",
        help="auto uses the interval solver when interval lines are present",
    )
    sp.add_argument("--print-cut", action="store_true")
    sp.add_argument("--subset-cap", type=_integer, default=OracleBudget.max_subset_edges)
    sp.add_argument("--branch-cap", type=_integer, default=OracleBudget.max_branch_nodes)
    sp.set_defaults(func=cmd_solve)

    gp = sub.add_parser("gen", help="generate a hard instance family member")
    gsub = gp.add_subparsers(required=True)
    g1 = gsub.add_parser("pw", help="bounded pathwidth + max degree family")
    g1.add_argument("--source", required=True, help="`p graph` file")
    g1.add_argument("-k", type=_integer, required=True)
    g1.add_argument("-o", "--output", required=True)
    g1.add_argument("--pd", help="also write the path decomposition witness here")
    g1.set_defaults(func=cmd_gen_pw)
    g2 = gsub.add_parser("fvs", help="bounded feedback vertex number family")
    g2.add_argument("--source", required=True)
    g2.add_argument("-k", type=_integer, required=True)
    g2.add_argument("--nu", type=_integer, required=True)
    g2.add_argument("-o", "--output", required=True)
    g2.add_argument("--fvs", help="also write the feedback vertex witness here")
    g2.set_defaults(func=cmd_gen_fvs)

    fp = sub.add_parser("forward-cut", help="cut encoding a known clique")
    fsub = fp.add_subparsers(required=True)
    for fam in ("pw", "fvs"):
        f = fsub.add_parser(fam)
        f.add_argument("--instance", required=True, help="generated instance file")
        f.add_argument("--source", required=True)
        f.add_argument("-k", type=_integer, required=True)
        if fam == "fvs":
            f.add_argument("--nu", type=_integer, required=True)
        f.add_argument("--clique", required=True, help="comma-separated 1-indexed ids")
        f.add_argument("-o", "--output", required=True)
        f.set_defaults(func=cmd_forward_cut, family=fam)

    dp = sub.add_parser("decode", help="read a clique back out of a cut")
    dsub = dp.add_subparsers(required=True)
    for fam in ("pw", "fvs"):
        d = dsub.add_parser(fam)
        d.add_argument("--instance", required=True)
        d.add_argument("--source", required=True)
        d.add_argument("-k", type=_integer, required=True)
        if fam == "fvs":
            d.add_argument("--nu", type=_integer, required=True)
        d.add_argument("-f", "--cut", required=True)
        d.set_defaults(func=cmd_decode, family=fam)

    vp = sub.add_parser("verify", help="verify cuts and witnesses")
    vsub = vp.add_subparsers(required=True)
    v1 = vsub.add_parser("cut")
    v1.add_argument("file")
    v1.add_argument("-f", "--cut", required=True)
    v1.set_defaults(func=cmd_verify_cut)
    v2 = vsub.add_parser("fvs")
    v2.add_argument("file")
    v2.add_argument("-f", "--witness", required=True)
    v2.set_defaults(func=cmd_verify_fvs)
    v3 = vsub.add_parser("pathdecomp")
    v3.add_argument("file")
    v3.add_argument("-f", "--witness", required=True)
    v3.set_defaults(func=cmd_verify_pd)

    rp = sub.add_parser("random-pig", help="random proper interval instance")
    rp.add_argument("-n", type=_integer, required=True)
    rp.add_argument("--density", type=float, default=0.5)
    rp.add_argument("--beta-range", default="1:6")
    rp.add_argument("--lambda-range", default="2:6")
    rp.add_argument("--seed", type=_integer, default=0)
    rp.add_argument("-o", "--output", required=True)
    rp.set_defaults(func=cmd_random_pig)

    bp = sub.add_parser("bench", help="batch solver runs, TSV on stdout")
    bp.add_argument("files", nargs="+")
    bp.add_argument("--mode", choices=["auto", "dp", "subset", "branch"], default="auto")
    bp.add_argument("--jobs", type=_integer, default=1)
    bp.set_defaults(func=cmd_bench)

    return p


def _read(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}: line {line}: not UTF-8 text") from None


def _write(path, content):
    try:
        with open(path, "w") as fh:
            fh.write(content)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _solve_one(path, mode, budget):
    parsed = formats.parse_instance(_read(path))
    for w in parsed.warnings:
        print(f"warning: {path}: {w}", file=sys.stderr)
    inst, model = parsed.instance, parsed.model
    # solve rejects a bad model first; its message names the vertices with
    # the file's 1-based ids
    if mode == "auto":
        mode = "branch"
        if model is not None:
            try:
                cost, cut, _ = solve(inst, model)
                mode = "dp"
            except ModelError as exc:
                print(f"warning: {path}: interval model rejected: {exc.one_based()}",
                      file=sys.stderr)
    elif mode == "dp":
        if model is None:
            raise InputError("dp mode needs interval lines in the instance file")
        try:
            cost, cut, _ = solve(inst, model)
        except ModelError as exc:
            raise InputError(exc.one_based()) from None
    if mode == "subset":
        cost, cut = oracle_subset(inst, budget), None
    elif mode == "branch":
        cost, cut = oracle_branch(inst, budget), None
    verified = None
    if cut is not None:
        verified = bool(verify_cut(inst, cut))
        if not verified or len(cut) != cost:
            raise InternalCheckError("solver emitted an unverified cut")
    return inst, mode, cost, cut, verified


def cmd_solve(args) -> int:
    for option, cap in (("--subset-cap", args.subset_cap), ("--branch-cap", args.branch_cap)):
        if cap <= 0:
            raise InputError(f"{option} must be positive, got {cap}")
    budget = OracleBudget(max_subset_edges=args.subset_cap, max_branch_nodes=args.branch_cap)
    inst, mode, cost, cut, verified = _solve_one(args.file, args.mode, budget)
    decision = cost <= inst.beta
    print(f"method {mode}")
    print(f"cost {cost}")
    print(f"decision {'yes' if decision else 'no'}")
    if cut is not None:
        print(f"verified {'yes' if verified else 'no'}")
        if args.print_cut:
            print(formats.serialize_cut(cut), end="")
    return YES if decision else NO


def cmd_gen_pw(args) -> int:
    g = formats.parse_source_graph(_read(args.source))
    out = gen_pw(CliqueInstance(g, args.k))
    _write(args.output, formats.serialize_reduction_output(out))
    if args.pd:
        pd = build_pw_witness(out)
        verdict = verify_path_decomposition(out.instance.graph, pd)
        if not verdict:
            raise InternalCheckError(f"generated witness invalid: {verdict.kind}")
        _write(args.pd, formats.serialize_path_decomposition(pd))
    h = out.instance
    print(f"wrote {args.output}: n={h.graph.n} m={h.graph.m} beta={h.beta} lambda={h.lam}")
    return YES


def cmd_gen_fvs(args) -> int:
    g = formats.parse_source_graph(_read(args.source))
    out = gen_fvs(MulticoloredCliqueInstance(g, args.k, args.nu))
    _write(args.output, formats.serialize_reduction_output(out))
    if args.fvs:
        w = build_fvs_witness(out)
        if not verify_fvs(out.instance.graph, w):
            raise InternalCheckError("generated FVS witness invalid")
        _write(args.fvs, formats.serialize_fvs(w))
    h = out.instance
    print(f"wrote {args.output}: n={h.graph.n} m={h.graph.m} beta={h.beta} lambda={h.lam}")
    return YES


def _load_output(args):
    g = formats.parse_source_graph(_read(args.source))
    if args.family == "pw":
        source = CliqueInstance(g, args.k)
    else:
        source = MulticoloredCliqueInstance(g, args.k, args.nu)
    return formats.load_reduction_output(_read(args.instance), source)


def cmd_forward_cut(args) -> int:
    out = _load_output(args)
    clique = [_int_option(x, "--clique") - 1 for x in args.clique.split(",")]
    cut = (forward_cut_pw if args.family == "pw" else forward_cut_fvs)(out, clique)
    verdict = verify_cut(out.instance, cut)
    if not verdict:
        raise InternalCheckError("forward cut failed verification")
    _write(args.output, formats.serialize_cut(cut))
    print(f"wrote {args.output}: {len(cut)} edges, verified")
    return YES


def cmd_decode(args) -> int:
    out = _load_output(args)
    cut = formats.parse_cut(_read(args.cut), out.instance.graph)
    decoded = (decode_pw if args.family == "pw" else decode_fvs)(out, cut)
    if decoded is None:
        print("no clique found")
        return NO
    print("clique " + ",".join(str(v + 1) for v in decoded))
    return YES


def cmd_verify_cut(args) -> int:
    parsed = formats.parse_instance(_read(args.file))
    cut = formats.parse_cut(_read(args.cut), parsed.instance.graph)
    verdict = verify_cut(parsed.instance, cut)
    if verdict:
        print(f"valid {len(cut)}-edge cut (lambda={parsed.instance.lam})")
        return YES
    path = " ".join(str(v + 1) for v in verdict.witness)
    print(f"violated: path of length {len(verdict.witness) - 1}: {path}")
    return NO


def cmd_verify_fvs(args) -> int:
    parsed = formats.parse_instance(_read(args.file))
    w = formats.parse_fvs(_read(args.witness), parsed.instance.graph)
    if verify_fvs(parsed.instance.graph, w):
        print(f"valid feedback vertex set of size {len(w)}")
        return YES
    print("not a feedback vertex set: a cycle survives")
    return NO


def cmd_verify_pd(args) -> int:
    parsed = formats.parse_instance(_read(args.file))
    pd = formats.parse_path_decomposition(_read(args.witness), parsed.instance.graph)
    verdict = verify_path_decomposition(parsed.instance.graph, pd)
    if verdict:
        print(f"valid path decomposition of width {verdict.width}")
        return YES
    print(f"violation ({verdict.kind}): {verdict.witness}")
    return NO


def _integer(token):
    """An integer option, spelled `-?[0-9]+` as in the files; argparse
    reports a bad one as a usage error (exit 2)."""
    try:
        return formats.plain_int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer {token!r}") from None


def _int_option(token, option):
    """An integer in an option value; a bad one is a usage error (exit 2)."""
    try:
        return formats.plain_int(token)
    except ValueError:
        raise InputError(f"{option}: bad integer {token!r}") from None


def _parse_range(token, option):
    lo, _, hi = token.partition(":")
    lo, hi = _int_option(lo, option), _int_option(hi or lo, option)
    if lo > hi:
        raise InputError(f"{option}: empty range {token!r}")
    return lo, hi


def cmd_random_pig(args) -> int:
    beta_range = _parse_range(args.beta_range, "--beta-range")
    lambda_range = _parse_range(args.lambda_range, "--lambda-range")
    try:
        inst, model = random_proper_interval_instance(
            args.n, density=args.density, beta_range=beta_range,
            lambda_range=lambda_range, seed=args.seed,
        )
    except ValueError as exc:  # -n or --density out of range
        raise InputError(str(exc)) from None
    _write(args.output, formats.serialize_instance(inst, model))
    print(f"wrote {args.output}: n={inst.graph.n} m={inst.graph.m}")
    return YES


def _bench_row(task):
    index, path, mode = task
    started = time.perf_counter()
    try:
        inst, used, cost, cut, _ = _solve_one(path, mode, OracleBudget())
        elapsed = (time.perf_counter() - started) * 1000
        row = (
            f"{path}\t{inst.graph.n}\t{inst.graph.m}\t{inst.beta}\t{inst.lam}"
            f"\t{used}\t{cost}\t{'yes' if cost <= inst.beta else 'no'}\t{elapsed:.1f}"
        )
    except LbcutError as exc:
        elapsed = (time.perf_counter() - started) * 1000
        row = f"{path}\t-\t-\t-\t-\t{mode}\t{type(exc).__name__}\t-\t{elapsed:.1f}"
    return index, row


def cmd_bench(args) -> int:
    if args.jobs <= 0:
        raise InputError(f"--jobs must be positive, got {args.jobs}")
    tasks = [(i, path, args.mode) for i, path in enumerate(args.files)]
    print("file\tn\tm\tbeta\tlambda\tmethod\tcost\tdecision\ttime_ms")
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_bench_row, tasks))
    else:
        rows = [_bench_row(t) for t in tasks]
    for _, row in sorted(rows):  # merge order-stably by input index
        print(row)
    return YES


if __name__ == "__main__":
    sys.exit(main())
