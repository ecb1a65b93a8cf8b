import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lbcut.errors import InputError
from lbcut.formats import (
    load_reduction_output,
    parse_cut,
    parse_fvs,
    parse_instance,
    parse_path_decomposition,
    parse_source_graph,
    serialize_cut,
    serialize_fvs,
    serialize_instance,
    serialize_path_decomposition,
    serialize_reduction_output,
    serialize_source_graph,
)
from lbcut.graph import Graph, Instance
from lbcut.oracles import random_proper_interval_instance
from lbcut.reductions_fvs import decode_fvs, forward_cut_fvs, gen_fvs
from lbcut.reductions_pw import decode_pw, forward_cut_pw, gen_pw
from lbcut.witnesses import PathDecomposition
from test_reductions_fvs import CASES as FVS_CASES
from test_reductions_pw import CASES as PW_CASES

MINIMAL = """
p lbc 2 1
s 1
t 2
b 1
l 1
e 1 2
"""


class TestParseInstance:
    def test_minimal(self):
        parsed = parse_instance(MINIMAL)
        assert parsed.instance.graph.m == 1
        assert parsed.instance.s == 0 and parsed.instance.t == 1
        assert parsed.model is None

    def test_interval_lines_build_a_model(self):
        text = MINIMAL + "i 1 0 1\ni 2 0.5 1.5\n"
        parsed = parse_instance(text)
        assert parsed.model.starts == (Fraction(0), Fraction(1, 2))
        assert parsed.model.ends == (Fraction(1), Fraction(3, 2))

    def test_fractional_coordinates(self):
        text = MINIMAL + "i 1 1/3 4/3\ni 2 0.25 1.25\n"
        parsed = parse_instance(text)
        assert parsed.model.starts[0] == Fraction(1, 3)

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ("e 1 2", "duplicate edge"),
            ("e 1 3", "out of range"),
            ("q 1", "unknown record"),
            ("i 1 x 1", "bad rational"),
        ],
    )
    def test_diagnostics_carry_line_numbers(self, mutation, message):
        with pytest.raises(InputError) as err:
            parse_instance(MINIMAL + mutation + "\n")
        assert message in str(err.value) and "line" in str(err.value)

    def test_missing_header_field(self):
        broken = "\n".join(
            line for line in MINIMAL.splitlines() if not line.startswith("b")
        )
        with pytest.raises(InputError, match="missing 'b'"):
            parse_instance(broken)

    def test_lambda_clamp_warns(self):
        parsed = parse_instance(MINIMAL.replace("l 1", "l 99"))
        assert parsed.instance.lam == 2
        assert any("lambda" in w for w in parsed.warnings)

    def test_round_trip_fuzz(self):
        for seed in range(25):
            inst, model = random_proper_interval_instance(9, seed=seed)
            text = serialize_instance(inst, model)
            parsed = parse_instance(text)
            assert parsed.instance == inst
            assert parsed.model == model
            assert serialize_instance(parsed.instance, parsed.model) == text

    @given(
        num=st.integers(min_value=-(10**6), max_value=10**6),
        den=st.integers(min_value=1, max_value=10**4),
    )
    @settings(max_examples=150, deadline=None)
    def test_rational_round_trip(self, num, den):
        from lbcut.formats import _fmt_rational, _parse_rational

        x = Fraction(num, den)
        assert _parse_rational(_fmt_rational(x), 1) == x


class TestAuxiliaryFormats:
    def test_source_graph_round_trip(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert parse_source_graph(serialize_source_graph(g)) == g

    def test_cut_round_trip(self):
        g = Graph(3, [(0, 1), (1, 2)])
        cut = frozenset([(0, 1)])
        assert parse_cut(serialize_cut(cut), g) == cut

    def test_cut_rejects_non_edges(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(InputError):
            parse_cut("e 2 3\n", g)

    def test_fvs_round_trip(self):
        g = Graph(5, [])
        w = frozenset([0, 3])
        assert parse_fvs(serialize_fvs(w), g) == w

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p graph 2 x\ne 1 2\n", "line 1: bad edge count 'x'"),
            ("p graph 3 9\ne 1 2\n", "p-line promises 9 edges, file has 1"),
            ("p graph 2 0\np graph 3 1\ne 1 2\n", "line 2: duplicate p-line"),
        ],
        ids=["m-not-integer", "m-mismatch", "two-p-lines"],
    )
    def test_source_graph_header_checked(self, text, message):
        with pytest.raises(InputError, match=message):
            parse_source_graph(text)

    def test_pd_round_trip(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        pd = PathDecomposition(
            tuple(frozenset(b) for b in [{0, 1}, {1, 2}, {2, 3}])
        )
        assert parse_path_decomposition(serialize_path_decomposition(pd), g) == pd


FUZZ_TOKENS = st.one_of(
    st.sampled_from(["1", "2", "3"]),  # ids valid under the headers below
    st.sampled_from(["graph", "lbc", "param", "role", "1/0", "1/2", "0.5", "nan", "1e3"]),
    st.integers(min_value=-2, max_value=6).map(str),
    st.text(max_size=3),
)
FUZZ_LINES = st.lists(
    st.tuples(
        st.sampled_from(["p", "s", "t", "b", "l", "e", "i", "c", "v", "x"]),
        st.integers(0, 4).flatmap(
            lambda k: st.lists(FUZZ_TOKENS, min_size=k, max_size=k)
        ),
    ).map(lambda rec: " ".join([rec[0], *rec[1]])),
    max_size=3,
)
FUZZ_HEADERS = ["", "p lbc 3 2\ns 1\nt 3\nb 1\nl 2\n", "p lbc 3 2\n", "p graph 3 2\n"]


@given(header=st.sampled_from(FUZZ_HEADERS), lines=FUZZ_LINES)
@settings(max_examples=400, deadline=None)
def test_parsers_raise_only_input_error(header, lines):
    # vertex counts stay small so a well-formed file never builds a huge graph
    text = header + "\n".join(lines)
    g = Graph(3, [(0, 1), (1, 2)])
    for parse in (parse_instance, parse_source_graph, lambda x: parse_cut(x, g)):
        try:
            parse(text)
        except InputError:
            pass


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (lambda x: parse_fvs(x, Graph(3)), "v 1\ncut 9\n", "line 2: expected `v <id>`"),
        (parse_source_graph, "p graph 2 1\ncx 1 2\ne 1 2\n",
         "line 2: unknown record type 'cx'"),
        (lambda x: parse_cut(x, Graph(3, [(0, 1)])), "c ok\ncut 1 2\n",
         "line 2: expected `e <u> <v>`"),
        (lambda x: parse_path_decomposition(x, Graph(3)), "B 1\nc ok\nclear 1\n",
         "line 3: expected `B <id> <id> ...`"),
    ],
    ids=["fvs-cut", "source-cx", "cut-cut", "pd-clear"],
)
def test_only_the_c_record_is_a_comment(parse, text, message):
    with pytest.raises(InputError, match=re.escape(message)):
        parse(text)


ROLED = "p lbc 3 2\ns 1\nt 3\nb 1\nl 2\ne 1 2\ne 2 3\nc role 1 s\nc role 2 p@1\nc role 3 t\n"


@pytest.mark.parametrize(
    "extra, message",
    [
        ("c param k \u00b2\n", "param k: bad integer '\u00b2'"),
        ("c role 3 s\n", "role of vertex 3: 's' is already carried by vertex 1"),
        ("c role 3 p@1\n", "role of vertex 3: 'p@1' is already carried by vertex 2"),
    ],
    ids=["param-superscript-two", "role-twice", "path-position-twice"],
)
def test_reduction_output_annotations_checked(extra, message):
    assert load_reduction_output(ROLED).paths == {"p": (0, 1, 2)}
    with pytest.raises(InputError, match=re.escape(message)):
        load_reduction_output(ROLED + extra)


@pytest.mark.parametrize(
    "extra, message",
    [
        ("c param k 3\nc param k 4\n", "line 9: param 'k' given twice"),
        ("c param k 3\nc param k 3\n", "line 9: param 'k' given twice"),
        ("c role 2 x y z\n", "line 8: expected `c role <id> <tag>`"),
    ],
    ids=["param-changed", "param-repeated", "role-extra-fields"],
)
def test_ambiguous_annotations_rejected(extra, message):
    with pytest.raises(InputError, match=re.escape(message)):
        parse_instance(MINIMAL + extra)


def test_param_values_may_hold_spaces():
    parsed = parse_instance(MINIMAL + "c param family two words\nc role 2 x\n")
    assert parsed.params == {"family": "two words"} and parsed.roles == {1: "x"}


ROLE_TAGS = st.sampled_from(["s", "t", "p@1", "p@2", "p@x", "@", "q"])
AUX_LINES = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["c", "cx", "v", "B", "e", "p", "x"]),
            st.integers(0, 4).flatmap(
                lambda k: st.lists(st.one_of(FUZZ_TOKENS, ROLE_TAGS), min_size=k, max_size=k)
            ),
        ).map(lambda rec: " ".join([rec[0], *rec[1]])),
        # "\u00b2" passes str.isdigit but not int()
        st.tuples(
            st.sampled_from(["k", "family"]),
            st.sampled_from(["3", "-2", "1_0", "x", "\u00b2"]),
        ).map(lambda rec: "c param %s %s" % rec),
        st.tuples(FUZZ_TOKENS, ROLE_TAGS).map(lambda rec: "c role %s %s" % rec),
    ),
    max_size=3,
)


@given(header=st.sampled_from(["", ROLED, "p lbc 3 2\n"]), lines=AUX_LINES)
@settings(max_examples=400, deadline=None)
def test_aux_parsers_raise_only_input_error(header, lines):
    text = header + "\n".join(lines)
    g = Graph(3, [(0, 1), (1, 2)])
    for parse in (
        lambda x: parse_fvs(x, g),
        lambda x: parse_path_decomposition(x, g),
        load_reduction_output,
    ):
        try:
            parse(text)
        except InputError:
            pass


def paths_equal_up_to_reversal(a, b):
    if a.keys() != b.keys():
        return False
    return all(b[tag] in (seq, tuple(reversed(seq))) for tag, seq in a.items())


class TestReductionRoundTrip:
    def test_pw_output_reloads_and_decodes(self):
        cq, clique = PW_CASES[0]
        out = gen_pw(cq)
        text = serialize_reduction_output(out)
        reloaded = load_reduction_output(text, source=cq)
        assert reloaded.instance == out.instance
        assert paths_equal_up_to_reversal(out.paths, reloaded.paths)
        cut = forward_cut_pw(reloaded, clique)
        assert decode_pw(reloaded, cut) == clique

    def test_fvs_output_reloads_and_decodes(self):
        mc, clique = FVS_CASES[1]
        out = gen_fvs(mc)
        reloaded = load_reduction_output(
            serialize_reduction_output(out), source=mc
        )
        assert reloaded.instance == out.instance
        assert paths_equal_up_to_reversal(out.paths, reloaded.paths)
        cut = forward_cut_fvs(reloaded, clique)
        assert decode_fvs(reloaded, cut) == clique
