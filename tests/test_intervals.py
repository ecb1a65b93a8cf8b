import itertools
import re
from bisect import bisect_right
from fractions import Fraction
from random import Random

import pytest

from lbcut.errors import ModelError
from lbcut.dp import _hop_distance
from lbcut.graph import INF, Graph, Instance, bfs_distances
from lbcut.intervals import (
    KEY_DENOMINATOR_LIMIT,
    IntervalModel,
    NormalizedInstance,
    _show,
    _umbrella_runs,
    normalize,
    validate_model,
)
from lbcut.oracles import random_proper_interval_instance


def unit_instance(starts, s, t, beta=3, lam=3):
    model = IntervalModel.unit(starts)
    return Instance(model.induced_graph(), s, t, beta, lam), model


class TestValidation:
    def test_adjacency_mismatch_rejected(self):
        model = IntervalModel.unit([0, Fraction(1, 2)])
        with pytest.raises(ModelError):
            validate_model(Graph(2), model)  # intervals overlap, graph has no edge

    def test_strict_containment_rejected(self):
        model = IntervalModel(
            (Fraction(0), Fraction(1)), (Fraction(3), Fraction(2))
        )
        with pytest.raises(ModelError):
            validate_model(model.induced_graph(), model)

    def test_empty_interval_named_after_a_point(self):
        # vertex 0 is the point [0, 0], which is not empty; vertex 1 is
        with pytest.raises(ModelError, match=re.escape("vertex 1: empty interval [2, 1]")):
            IntervalModel((Fraction(0), Fraction(2)), (Fraction(0), Fraction(1)))

    def test_equal_intervals_are_fine(self):
        model = IntervalModel.unit([0, 0, 2])
        validate_model(model.induced_graph(), model)

    @pytest.mark.parametrize(
        "starts, ends, outer, inner",
        [
            ((0, 1), (3, 2), 0, 1),  # later start, earlier end
            ((1, 0), (2, 3), 1, 0),
            ((0, 0), (1, 2), 1, 0),  # same start, longer interval
            ((0, 0), (2, 1), 0, 1),
            ((0, 1), (2, 2), 0, 1),  # same end, later start
        ],
    )
    def test_containment_names_the_containing_vertex(self, starts, ends, outer, inner):
        model = IntervalModel(
            tuple(Fraction(a) for a in starts), tuple(Fraction(b) for b in ends)
        )
        expected = (
            f"interval of {outer} [{starts[outer]},{ends[outer]}] strictly contains "
            f"interval of {inner} [{starts[inner]},{ends[inner]}]"
        )
        with pytest.raises(ModelError, match=re.escape(expected)):
            validate_model(model.induced_graph(), model)


def brute_pairs(model):
    """O(n^2) reference for IntervalModel.intersecting_pairs."""
    s, e = model.starts, model.ends
    return {
        (u, v)
        for u, v in itertools.combinations(range(model.n), 2)
        if s[u] <= e[v] and s[v] <= e[u]
    }


def strictly_contains(model, u, v):
    s, e = model.starts, model.ends
    return s[u] <= s[v] and e[v] <= e[u] and (s[u], e[u]) != (s[v], e[v])


def brute_fault(g, model):
    """O(n^2) reference for validate_model.

    Returns ("contains",) for a strict containment, else the smallest pair
    whose adjacency disagrees with the model, else None.
    """
    if any(
        strictly_contains(model, u, v)
        for u, v in itertools.permutations(range(model.n), 2)
    ):
        return ("contains",)
    mismatch = sorted(brute_pairs(model) ^ g.edges)
    return mismatch[0] if mismatch else None


def random_model(rng):
    """Small integer coordinates, so tied starts and touching ends are common;
    mixed lengths give strict containment, same-start/different-end included."""
    n = rng.randint(1, 9)
    starts = [rng.randint(0, 6) for _ in range(n)]
    if rng.random() < 0.5:
        lengths = [rng.randint(0, 2)] * n  # equal lengths: always proper
    else:
        lengths = [rng.randint(0, 3) for _ in range(n)]
    return IntervalModel(
        tuple(Fraction(a) for a in starts),
        tuple(Fraction(a + b) for a, b in zip(starts, lengths)),
    )


class TestSweepAgainstBruteForce:
    def test_intersecting_pairs_and_validation(self):
        seen = set()
        for seed in range(800):
            rng = Random(seed)
            model = random_model(rng)
            pairs = brute_pairs(model)
            swept = model.intersecting_pairs()
            assert sorted(swept) == sorted(pairs)  # no duplicates either
            assert model.induced_graph() == Graph(model.n, pairs)

            edges = set(pairs)
            non_edges = set(itertools.combinations(range(model.n), 2)) - edges
            change = rng.choice(["none", "add", "remove"])
            if change == "add" and non_edges:
                edges.add(rng.choice(sorted(non_edges)))
                seen.add("edge added")
            elif change == "remove" and edges:
                edges.remove(rng.choice(sorted(edges)))
                seen.add("edge removed")
            g = Graph(model.n, edges)

            s, e = model.starts, model.ends
            ordered_pairs = list(itertools.permutations(range(model.n), 2))
            if len(set(s)) < model.n:
                seen.add("tied starts")
            if any(s[u] == e[v] for u, v in ordered_pairs):
                seen.add("touching endpoints")
            if any(s[u] == s[v] and e[u] != e[v] for u, v in ordered_pairs):
                seen.add("same start, different end")

            fault = brute_fault(g, model)
            if fault is None:
                # the returned order is the umbrella order: by (start, -id),
                # every closed neighbourhood a run in it
                order = validate_model(g, model)
                assert order == sorted(range(model.n), key=lambda v: (s[v], -v))
                rank = {v: r for r, v in enumerate(order)}
                for v in range(g.n):
                    ranks = sorted(rank[w] for w in (v, *g.adj[v]))
                    assert ranks == list(range(ranks[0], ranks[-1] + 1))
                continue
            with pytest.raises(ModelError) as info:
                validate_model(g, model)
            message = str(info.value)
            if fault == ("contains",):
                seen.add("strict containment")
                named = re.match(r"interval of (\d+) .* interval of (\d+) ", message)
                outer, inner = map(int, named.groups())
                assert strictly_contains(model, outer, inner), message
            else:
                assert message.startswith(f"adjacency mismatch at {fault}"), message
        assert seen == {
            "tied starts",
            "touching endpoints",
            "edge added",
            "edge removed",
            "strict containment",
            "same start, different end",
        }


def fraction_validate_model(g, model):
    """Reference for validate_model: the version before integer keys.

    It sorts and sweeps the Fraction endpoints themselves and compares the
    m intersecting pairs of the sweep with g.edges.  Messages print the
    endpoints as validate_model does.
    """
    if model.n != g.n:
        raise ModelError(f"model has {model.n} intervals, graph has {g.n} vertices")
    s, e = model.starts, model.ends
    order = sorted(range(g.n - 1, -1, -1), key=s.__getitem__)  # stable: ties by -id
    for u, v in zip(order, order[1:]):
        if e[u] == e[v] if s[u] == s[v] else e[u] < e[v]:
            continue
        outer, inner = (v, u) if s[u] == s[v] and e[v] > e[u] else (u, v)
        raise ModelError(
            f"interval of {outer} [{_show(s[outer])},{_show(e[outer])}] strictly contains "
            f"interval of {inner} [{_show(s[inner])},{_show(e[inner])}]"
        )
    sorted_starts = [s[v] for v in order]
    pairs = set()
    for i, u in enumerate(order):
        for v in order[i + 1 : bisect_right(sorted_starts, e[u])]:
            pairs.add((u, v) if u < v else (v, u))
    mismatch = pairs.symmetric_difference(g.edges)
    if mismatch:
        u, v = min(mismatch)
        raise ModelError(
            f"adjacency mismatch at ({u}, {v}): intervals "
            f"[{_show(s[u])},{_show(e[u])}] vs [{_show(s[v])},{_show(e[v])}]"
        )
    return order


def same_as_reference(g, model) -> str:
    """Assert validate_model returns the reference's order, or raises its
    message (naming the same vertices); return which happened."""
    try:
        expected = fraction_validate_model(g, model)
    except ModelError as exc:
        with pytest.raises(ModelError) as info:
            validate_model(g, model)
        assert str(info.value) == str(exc)
        return "contains" if str(exc).startswith("interval of") else "mismatch"
    assert validate_model(g, model) == expected
    return "order"


def random_proper_model(rng):
    """Proper intervals of mixed lengths, with twins, in shuffled ids: starts
    and ends both strictly increasing over distinct intervals."""
    k = rng.randint(1, 12)
    den = rng.choice([1, 2, 3, 7, 8, 10, 1000])
    starts = sorted(rng.sample(range(20 * den + k), k))
    lengths = sorted(rng.sample(range(5 * den + k), k))
    intervals = [(Fraction(a, den), Fraction(a + b, den)) for a, b in zip(starts, lengths)]
    intervals += rng.choices(intervals, k=rng.randint(0, 3))  # twins
    rng.shuffle(intervals)
    return IntervalModel(tuple(a for a, _ in intervals), tuple(b for _, b in intervals))


def swapped(pairs, a, b):
    """`pairs` with edges a = (u, v) and b = (x, y) replaced by (u, y) and
    (x, v): every degree stays, so only the neighbours can give it away.
    None when the swap would make a self-loop or repeat an edge."""
    (u, v), (x, y) = a, b
    new = {tuple(sorted(e)) for e in ((u, y), (x, v))}
    if u == y or x == v or len(new) < 2 or new & pairs:
        return None
    return (pairs - {a, b}) | new


def broken(rng, model):
    """The model's graph with one edge flipped or two edges swapped, or a
    model in which one interval is moved, so that it may contain or miss
    its neighbours."""
    pairs = brute_pairs(model)
    change = rng.random()
    if change < 0.25 and len(pairs) >= 2:
        edges = swapped(pairs, *rng.sample(sorted(pairs), 2))
        if edges is not None:
            return Graph(model.n, edges), model
    if change < 0.5:
        flip = tuple(sorted(rng.sample(range(model.n), 2)))
        return Graph(model.n, pairs ^ {flip}), model
    v = rng.randrange(model.n)
    starts, ends = list(model.starts), list(model.ends)
    starts[v] -= Fraction(rng.randint(0, 4), 2)
    ends[v] += Fraction(rng.randint(0, 4), 2)
    return Graph(model.n, pairs), IntervalModel(tuple(starts), tuple(ends))


PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]


class TestAgainstFractionReference:
    def test_random_proper_models(self):
        for seed in range(300):
            model = random_proper_model(Random(seed))
            assert same_as_reference(Graph(model.n, brute_pairs(model)), model) == "order"

    def test_random_invalid_models(self):
        seen = []
        for seed in range(600):
            rng = Random(seed)
            model = random_proper_model(rng)
            if model.n >= 2:
                seen.append(same_as_reference(*broken(rng, model)))
        assert {"order", "contains", "mismatch"} <= set(seen)

    def test_degree_preserving_swap_is_a_mismatch(self):
        # two unit-interval paths 0-1-2 and 3-4-5; swapping (0, 1) and
        # (3, 4) for (0, 4) and (1, 3) keeps every degree
        model = IntervalModel.unit([0, 1, 2, 5, 6, 7])
        edges = swapped(brute_pairs(model), (0, 1), (3, 4))
        assert same_as_reference(Graph(6, edges), model) == "mismatch"

    @pytest.mark.parametrize("coordinate", ["1e-99999", "pairwise coprime"])
    def test_keys_past_the_limit_are_the_fractions(self, coordinate):
        if coordinate == "1e-99999":
            eps = Fraction("1e-99999")
            starts = (Fraction(0), eps, Fraction(1), Fraction(2))
        else:  # k + 1/p for the first 20 primes p: their product is past 2**64
            starts = tuple(Fraction(k * p + 1, p) for k, p in enumerate(PRIMES))
        model = IntervalModel.unit(starts)
        assert model.start_keys == model.starts and model.end_keys == model.ends
        assert all(type(x) is Fraction for x in model.start_keys + model.end_keys)
        g = Graph(model.n, brute_pairs(model))
        assert same_as_reference(g, model) == "order"
        u, v = min(g.edges)
        assert same_as_reference(Graph(g.n, g.edges - {(u, v)}), model) == "mismatch"
        ends = list(model.ends)
        ends[1] = model.ends[0]  # [start 1, end 0] lies inside interval 0
        assert same_as_reference(g, IntervalModel(model.starts, tuple(ends))) == "contains"

    def test_float_keys_past_the_limit_compare_exactly(self):
        # 1e-30 puts the common denominator past the limit, so the keys are
        # the values themselves; as float64, 2**60 + 1 would tie with 2**60
        model = IntervalModel((2**60 + 1, 2**60, 1e-30), (2**60 + 1, 2**60, 1e-30))
        assert model.start_keys == (2**60 + 1, 2**60, 1e-30)
        assert same_as_reference(Graph(3), model) == "order"

    def test_keys_scale_to_a_common_denominator(self):
        model = IntervalModel.unit([0, Fraction(1, 2), Fraction(-1, 3)])
        assert model.start_keys == (0, 3, -2) and model.end_keys == (6, 9, 4)
        at = IntervalModel.unit([Fraction(1, 2), Fraction(1, KEY_DENOMINATOR_LIMIT)])
        assert at.start_keys == (KEY_DENOMINATOR_LIMIT // 2, 1)
        past = IntervalModel.unit([Fraction(1, 3), Fraction(1, KEY_DENOMINATOR_LIMIT)])
        assert past.start_keys == past.starts


def huge_keys(model, kind):
    """`model` moved by 2**70 (int keys past int64) or by 1/(2**64 + 1)
    (Fraction keys: a common denominator past KEY_DENOMINATOR_LIMIT)."""
    shift = 2**70 if kind == "int" else Fraction(1, 2**64 + 1)
    return IntervalModel(tuple(a + shift for a in model.starts), tuple(b + shift for b in model.ends))


def test_umbrella_runs_against_brute_force():
    """The runs validation hands to the solver: lo[r] and hi[r] are the
    lowest and highest rank of the closed neighbourhood of rank r, the hi
    jumps from rank a to rank b >= a count dist(a, b) (inf when apart), and
    a corrupted model gets the reference's message, on small keys, int keys
    past int64 and Fraction keys alike."""
    seen = set()
    for seed in range(900):
        rng = Random(seed)
        kind = ("small", "int", "fraction")[seed % 3]
        model = random_proper_model(rng) if seed >= 3 else IntervalModel((), ())
        if kind != "small":
            model = huge_keys(model, kind)
        g = Graph(model.n, brute_pairs(model))
        order, rank, lo, hi = _umbrella_runs(g, model)
        s = model.starts
        assert order.tolist() == validate_model(g, model)
        assert order.tolist() == sorted(range(g.n), key=lambda v: (s[v], -v))
        for a, u in enumerate(order.tolist()):
            ranks = [rank[w] for w in (u, *g.adj[u])]
            assert (lo[a], hi[a]) == (min(ranks), max(ranks))
            dist = bfs_distances(g, u)
            for b in range(a, g.n):
                assert _hop_distance(hi, a, b) == dist[order[b]]
            if INF in dist:
                seen.add("apart")
        seen.add(f"n={g.n}" if g.n <= 2 else "n>2")
        if len(set(s)) < g.n:
            seen.add("tied starts")
        if len(set(zip(s, model.ends))) < g.n:
            seen.add("twins")
        if g.n and type(model.start_keys[0]) is Fraction:
            seen.add("Fraction keys")
        if g.n and max(map(abs, model.end_keys)) >= 2**63:
            seen.add("int keys past int64")
        if g.n >= 2:
            seen.add((kind, same_as_reference(*broken(rng, model))))
    assert seen == {
        "n=0", "n=1", "n=2", "n>2", "apart", "tied starts", "twins",
        "Fraction keys", "int keys past int64",
        *itertools.product(("small", "int", "fraction"), ("order", "contains", "mismatch")),
    }


def kept_model(model, kept):
    """The intervals of the kept vertices, in trimmed ids."""
    return IntervalModel(
        tuple(model.starts[v] for v in kept), tuple(model.ends[v] for v in kept)
    )


def trimmed(norm):
    """(trimmed norm, kept): `norm` on the subgraph that norm.ranked
    induces, relabeled densely in id order, and kept[v] the instance id of
    trimmed vertex v.  The trimmed instance as a graph of its own, for the
    checks that solve or repair it apart from the rest of the graph."""
    kept = sorted(norm.ranked)
    new = {v: i for i, v in enumerate(kept)}
    g = Graph(len(kept), [
        (new[u], new[w]) for u, w in norm.graph.edge_list() if u in new and w in new
    ])
    order = tuple(new[v] for v in norm.order)
    pos = [-1] * len(kept)
    for r, v in enumerate(order):
        pos[v] = r
    ranked = tuple(new[v] for v in norm.ranked)
    trim = NormalizedInstance(g, new[norm.s], new[norm.t], order, tuple(pos), ranked, norm.hi)
    return trim, kept


def is_umbrella(norm):
    """Every closed neighbourhood within norm.ranked is a run of
    consecutive ranks."""
    g, rank = norm.graph, {v: r for r, v in enumerate(norm.ranked)}
    for v in norm.ranked:
        ranks = sorted(rank[w] for w in (v, *g.adj[v]) if w in rank)
        if ranks != list(range(ranks[0], ranks[-1] + 1)):
            return False
    return True


class TestMirror:
    """Length-Bounded Cut is symmetric in s and t: when the model ranks t
    before s, normalize swaps the two names instead of reflecting the model,
    and the ranking stays validate_model's (start, -id) order."""

    def test_identity_when_ordered(self):
        inst, model = unit_instance([0, 1, 2], s=0, t=2)
        norm = normalize(inst, model)
        assert (norm.s, norm.t) == (0, 2) and norm.ranked == (0, 1, 2)

    def test_definition(self):
        # start(s) > start(t): the same ranking, with the terminal names swapped
        inst, model = unit_instance([5, 0, 2.5], s=0, t=1)
        norm = normalize(inst, model)
        assert (norm.s, norm.t) == (1, 0) and norm.ranked == (1, 2, 0)
        assert norm.order == (2,)

    def test_edge_set_preserved(self):
        for seed in range(20):
            inst, model = random_proper_interval_instance(9, seed=seed)
            flipped = Instance(inst.graph, inst.t, inst.s, inst.beta, inst.lam)
            norm, out = normalize(inst, model), normalize(flipped, model)
            assert out.graph == norm.graph and out.ranked == norm.ranked
            assert {out.s, out.t} == {inst.s, inst.t}


class TestCanonicalize:
    """The rank order `normalize` gives a model: ties by descending id."""

    def test_distinct_starts_keep_coordinates(self):
        inst, model = unit_instance([0, 1, 2], s=0, t=2)
        assert normalize(inst, model).order == (1,)

    def test_identical_intervals_keep_neighborhoods(self):
        inst, model = unit_instance([0, 0, Fraction(1, 2)], s=0, t=2)
        norm = normalize(inst, model)
        assert norm.ranked == (1, 0, 2) and norm.graph == inst.graph
        assert is_umbrella(norm)

    def test_touching_pairs_survive_tie_split(self):
        # two twins at 0, touched from below at -1 and above at +1
        inst, model = unit_instance([-1, 0, 0, 1], s=0, t=3)
        norm = normalize(inst, model)
        assert norm.ranked == (0, 2, 1, 3) and norm.graph == inst.graph
        assert is_umbrella(norm)

    def test_random_models_sorted_strictly(self):
        for seed in range(20):
            inst, model = random_proper_interval_instance(10, seed=seed)
            norm = normalize(inst, model)
            starts = [model.starts[v] for v in norm.order]
            assert all(a < b for a, b in zip(starts, starts[1:]))


class TestTrim:
    def test_identity_without_outliers(self):
        inst, model = unit_instance([0, Fraction(1, 2), 1], s=0, t=2)
        norm = normalize(inst, model)
        assert norm.graph == inst.graph and norm.ranked == (0, 1, 2)

    def test_left_outlier_removed(self):
        inst, model = unit_instance([-3, 0, Fraction(1, 2)], s=1, t=2)
        norm = normalize(inst, model)
        assert norm.ranked == (1, 2) and norm.pos == (-1, -1, -1)
        assert trimmed(norm)[0].graph.n == 2

    def test_terminals_never_trimmed(self):
        for seed in range(30):
            inst, model = random_proper_interval_instance(8, seed=seed)
            norm = normalize(inst, model)
            assert inst.s in norm.ranked and inst.t in norm.ranked
            trim, kept = trimmed(norm)
            validate_model(trim.graph, kept_model(model, kept))


class TestNormalize:
    def test_rank_tables_consistent(self):
        for seed in range(20):
            inst, model = random_proper_interval_instance(10, seed=seed)
            norm = normalize(inst, model)
            for r, v in enumerate(norm.order):
                assert norm.pos[v] == r
            assert norm.pos[norm.s] == -1 and norm.pos[norm.t] == -1
            assert norm.pos.count(-1) == model.n - len(norm.order)
            starts = [model.starts[v] for v in norm.order]
            assert starts == sorted(starts)
            # nothing outside the s..t span remains
            for v in norm.ranked:
                assert model.ends[v] >= model.starts[norm.s]
                assert model.starts[v] <= model.ends[norm.t]


class TestTieSplitContract:
    def test_random_proper_models(self):
        """normalize on seeded proper models: the kept intervals induce the
        trimmed graph, the ranking is validate_model's order restricted to
        the kept vertices, twins are ranked by (start, -id), and s is the
        terminal ranked first."""
        seen = set()
        for seed in range(1500):
            rng = Random(seed)
            model = random_model(rng)
            g = model.induced_graph()
            if model.n < 2 or brute_fault(g, model) is not None:
                continue
            s, t = rng.sample(range(model.n), 2)
            starts, ends = model.starts, model.ends
            pairs = list(itertools.permutations(range(model.n), 2))
            if len(set(starts)) < model.n:
                seen.add("tied starts")
            if any(starts[u] == ends[v] for u, v in pairs):
                seen.add("touching ends")
            if any(starts[u] == starts[v] == ends[u] for u, v in pairs):
                seen.add("point twins")

            norm = normalize(Instance(g, s, t, 1, 2), model)
            trim, kept = trimmed(norm)
            validate_model(trim.graph, kept_model(model, kept))
            assert is_umbrella(norm)
            umbrella = validate_model(g, model)
            assert norm.ranked == tuple(v for v in umbrella if v in kept)
            assert {norm.s, norm.t} == {s, t}
            assert norm.ranked.index(norm.s) < norm.ranked.index(norm.t)
            interior = [v for v in kept if v not in (s, t)]
            assert norm.order == tuple(sorted(interior, key=lambda v: (starts[v], -v)))
        assert seen == {"tied starts", "touching ends", "point twins"}


def coordinate_normalize(inst, model):
    """Reference for the rank rule, on coordinates: split tied starts by
    widening every end by slack/2 (slack the smallest gap between endpoint
    values) and staggering each group of twins down by 0, eps, 2 eps, ... in
    id order (eps = slack/(2K), K the largest group); swap the terminal
    names when start(s) > start(t); drop the vertices ending before s starts
    or starting after t ends.

    Returns (s, t, order, pos, kept), the first four like the fields of
    `NormalizedInstance`, and kept the sorted ids of the kept vertices.
    """
    s, t = inst.s, inst.t
    starts, ends = model.starts, model.ends
    if len(set(starts)) < model.n:
        boundary = sorted(set(starts) | set(ends))
        slack = min((b - a for a, b in zip(boundary, boundary[1:])), default=Fraction(1))
        groups = {}
        for v in range(model.n):
            groups.setdefault(starts[v], []).append(v)
        eps = slack / (2 * max(len(tied) for tied in groups.values()))
        shift = {v: level * eps for tied in groups.values() for level, v in enumerate(tied)}
        starts = tuple(a - shift[v] for v, a in enumerate(starts))
        ends = tuple(b + slack / 2 - shift[v] for v, b in enumerate(ends))
    if starts[s] > starts[t]:
        s, t = t, s
    keep = [v for v in range(model.n) if not (ends[v] < starts[s] or starts[v] > ends[t])]
    order = tuple(v for v in sorted(keep, key=starts.__getitem__) if v not in (s, t))
    pos = [-1] * model.n
    for r, v in enumerate(order):
        pos[v] = r
    return s, t, order, tuple(pos), keep


def proper_instances(count):
    """(inst, model) for the valid seeded `random_model`s among `count`,
    with random terminals s != t and lam in 1..n."""
    for seed in range(count):
        rng = Random(seed)
        model = random_model(rng)
        g = model.induced_graph()
        if model.n < 2 or brute_fault(g, model) is not None:
            continue
        s, t = rng.sample(range(model.n), 2)
        yield Instance(g, s, t, 1, rng.randint(1, model.n)), model


def twins(model, u, v):
    return (model.starts[u], model.ends[u]) == (model.starts[v], model.ends[v])


def test_rank_normalize_matches_coordinate_reference():
    seen = set()
    for inst, model in proper_instances(3000):
        norm = normalize(inst, model)
        ref = coordinate_normalize(inst, model)
        assert norm.graph is inst.graph
        assert (norm.s, norm.t, norm.order, norm.pos, sorted(norm.ranked)) == ref
        if len(set(model.starts)) < model.n:
            seen.add("tied starts")
        if twins(model, inst.s, inst.t):
            seen.add("twin terminals")
        if len(norm.ranked) < model.n:
            seen.add("trimmed")
        if norm.s != inst.s:
            seen.add("swapped terminals")
    assert seen == {"tied starts", "twin terminals", "trimmed", "swapped terminals"}


def test_normalize_is_symmetric_in_the_terminals():
    """Swapping s and t in the instance changes no field: the ranking is
    validate_model's order either way, and s is the terminal ranked first."""
    seen = set()
    for inst, model in proper_instances(3000):
        flipped = Instance(inst.graph, inst.t, inst.s, inst.beta, inst.lam)
        norm = normalize(inst, model)
        assert normalize(flipped, model) == norm
        if twins(model, inst.s, inst.t):
            seen.add("twin terminals")
        if len(norm.ranked) < model.n:
            seen.add("trimmed")
        if norm.s != inst.s:
            seen.add("swapped terminals")
    assert seen == {"twin terminals", "trimmed", "swapped terminals"}


def test_trim_is_a_rank_span():
    """norm.ranked is one run of validate_model's order, and it holds
    exactly the vertices the trim rule keeps: the ranks from s to t and the
    neighbours of s and t."""
    seen = set()
    for inst, model in proper_instances(1500):
        norm = normalize(inst, model)
        g, s, t = inst.graph, norm.s, norm.t
        umbrella = validate_model(g, model)
        rs, rt = umbrella.index(s), umbrella.index(t)
        keep = set(umbrella[rs : rt + 1]).union(g.adj[s], g.adj[t])
        assert set(norm.ranked) == keep
        lo = umbrella.index(norm.ranked[0])
        assert norm.ranked == tuple(umbrella[lo : lo + len(norm.ranked)])
        if lo > 0:
            seen.add("trimmed below s")
        if lo + len(norm.ranked) < model.n:
            seen.add("trimmed above t")
        if umbrella[lo] != s:
            seen.add("neighbours below s")
        if norm.ranked[-1] != t:
            seen.add("neighbours above t")
    assert seen == {"trimmed below s", "trimmed above t",
                    "neighbours below s", "neighbours above t"}


class TestOrderingModel:
    def test_model_of_the_ranking(self):
        """norm.ranked: distinct vertices, every closed neighbourhood a run
        of consecutive ranks, s before t, order the interior of ranked, and
        nothing outside the s..t span (a vertex ranked before s meets s,
        one ranked after t meets t)."""
        for inst, model in proper_instances(600):
            norm = normalize(inst, model)
            g, s, t = norm.graph, norm.s, norm.t
            assert is_umbrella(norm)
            assert len(set(norm.ranked)) == len(norm.ranked) <= g.n
            assert norm.order == tuple(v for v in norm.ranked if v not in (s, t))
            rs, rt = norm.ranked.index(s), norm.ranked.index(t)
            assert rs < rt
            assert all(g.has_edge(v, s) for v in norm.ranked[:rs])
            assert all(g.has_edge(v, t) for v in norm.ranked[rt + 1 :])


def test_trim_reads_an_unmirrored_model_as_its_mirror():
    # s = [5,6] lies right of t = [0,1]: [2.5,3.5] is between them, [7,8]
    # beyond s.  t is ranked first, so the names swap, and [7,8] lies
    # beyond the new t
    inst, model = unit_instance([5, 0, Fraction(5, 2), 7], s=0, t=1)
    norm = normalize(inst, model)
    assert (norm.s, norm.t) == (1, 0) and norm.ranked == (1, 2, 0)
    trim, kept = trimmed(norm)
    assert kept == [0, 1, 2]
    model2 = kept_model(model, kept)
    assert model2 == IntervalModel.unit([5, 0, Fraction(5, 2)])
    validate_model(trim.graph, model2)
