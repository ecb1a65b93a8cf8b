import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lbcut.errors import InputError
from lbcut.formats import (
    _parse_rational,
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
from lbcut.intervals import IntervalModel
from lbcut.oracles import random_proper_interval_instance
from lbcut.reductions_fvs import decode_fvs, forward_cut_fvs, gen_fvs
from lbcut.reductions_pw import decode_pw, forward_cut_pw, gen_pw
from lbcut.witnesses import PathDecomposition, build_pw_witness
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
            ("e 2 2", "self-loop"),
            ("e 2 1", "line 8: duplicate edge (1, 2)"),  # ids 1-based, as in the file
            ("e 2 2", "line 8: self-loop at vertex 2"),
            ("e 1 3", "out of range"),
            ("q 1", "unknown record"),
            ("i 1 x 1", "bad rational"),
            ("i 1 2 1", "line 8: vertex 1: empty interval [2, 1]"),
            ("e 1 x", "line 8: bad vertex id 'x'"),
            ("e 1", "line 8: expected `e <u> <v>`"),
            ("e 1 2 2", "line 8: expected `e <u> <v>`"),
            ("e 0 1", "line 8: vertex id 0 out of range 1..2"),
            ("e 1 x\ne 1 1", "line 8: bad vertex id 'x'"),  # the first malformed line
        ],
    )
    def test_diagnostics_carry_line_numbers(self, mutation, message):
        with pytest.raises(InputError) as err:
            parse_instance(MINIMAL + mutation + "\n")
        assert message in str(err.value) and "line" in str(err.value)

    def test_edge_before_p_line(self):
        with pytest.raises(InputError, match="line 1: vertex id before the p-line"):
            parse_instance("e 1 2\n" + MINIMAL)

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
        from lbcut.formats import _fmt_rational

        x = Fraction(num, den)
        assert _parse_rational(_fmt_rational(x, 0), 1) == x

    def test_coordinate_past_int_string_limit(self):
        # two touching intervals, the second starting at a 5000-digit decimal
        inst = Instance(Graph(2, [(0, 1)]), 0, 1, 1, 1)
        model = IntervalModel((Fraction(0), Fraction("1e-5000")), (Fraction(1), Fraction(2)))
        text = serialize_instance(inst, model)
        assert "i 2 1e-5000 2" in text
        assert parse_instance(text).model == model
        tiny = IntervalModel((Fraction(0), Fraction(7, 2**20000)), (Fraction(1), Fraction(2)))
        with pytest.raises(InputError, match="^vertex 2: "):
            serialize_instance(inst, tiny)


RATIONAL_TOKENS = st.one_of(
    st.from_regex(r"-?[0-9]{1,25}\.[0-9]{1,25}", fullmatch=True),  # the plain decimals
    st.from_regex(r"-?[0-9]{1,25}", fullmatch=True),  # and integers read from digits
    st.from_regex(r"[-+]?[0-9]{1,12}/[0-9]{1,12}", fullmatch=True),
    st.from_regex(r"-?\d{1,4}(\.\d{1,4})?", fullmatch=True),  # any Unicode digits
    st.text(alphabet="0123456789-+./_eE", max_size=8),
)


@given(token=RATIONAL_TOKENS)
@example(token="-0.5")
@example(token=".5")
@example(token="5.")
@example(token="+1.5")
@example(token="1_0.5")
@example(token="\u0661.\u0665")  # Arabic-Indic digits: 1.5
@example(token="1e3")
@example(token="0/0")
@example(token="-0")
@settings(max_examples=400, deadline=None)
def test_parse_rational_agrees_with_fraction(token):
    # Fraction is the reference, except that it also reads `1_0` and
    # non-ASCII digits, which a file must not hold
    try:
        if not token.isascii() or "_" in token:
            raise ValueError(token)
        expected = Fraction(token)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(InputError) as err:
            _parse_rational(token, 7)
        assert str(err.value) == f"line 7: bad rational {token!r}"
    else:
        value = _parse_rational(token, 7)
        assert type(value) is Fraction and value == expected


NOT_PLAIN = {  # tokens int() or Fraction() would read, but a file must not hold
    "underscore": "1_2",
    "plus": "+1",
    "fullwidth": "\uff12",  # fullwidth 2
    "arabic-indic": "\u0661",  # Arabic-Indic 1
}


@pytest.mark.parametrize("token", list(NOT_PLAIN.values()), ids=list(NOT_PLAIN))
@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_instance, MINIMAL.replace("p lbc 2 1", "p lbc X 1"), "line 2: bad vertex count"),
        (parse_instance, MINIMAL.replace("p lbc 2 1", "p lbc 2 X"), "line 2: bad edge count"),
        (parse_instance, MINIMAL.replace("s 1", "s X"), "line 3: bad vertex id"),
        (parse_instance, MINIMAL.replace("t 2", "t X"), "line 4: bad vertex id"),
        (parse_instance, MINIMAL.replace("b 1", "b X"), "line 5: bad integer"),
        (parse_instance, MINIMAL.replace("l 1", "l X"), "line 6: bad integer"),
        (parse_instance, MINIMAL.replace("e 1 2", "e 1 X"), "line 7: bad vertex id"),
        (parse_instance, MINIMAL.replace("e 1 2", "e X 2"), "line 7: bad vertex id"),
        (parse_instance, MINIMAL + "c role X s\n", "line 8: bad vertex id"),
        (parse_instance, MINIMAL + "i X 0 1\n", "line 8: bad vertex id"),
        (parse_source_graph, "p graph X 0\n", "line 1: bad vertex count"),
        (parse_source_graph, "p graph 2 1\ne 1 X\n", "line 2: bad vertex id"),
        (lambda x: parse_cut(x, Graph(3, [(0, 1)])), "e X 2\n", "line 1: bad vertex id"),
        (lambda x: parse_fvs(x, Graph(3)), "v 1\nv X\n", "line 2: bad vertex id"),
        (lambda x: parse_path_decomposition(x, Graph(3)), "B 1 X\n", "line 1: bad vertex id"),
    ],
    ids=["p-n", "p-m", "s", "t", "b", "l", "e-second", "e-first", "role-id", "i-id",
         "source-p", "source-e", "cut", "fvs", "pd"],
)
def test_integer_tokens_are_plain_ascii(parse, text, message, token):
    # `t 1_2` once read as vertex 12, `e 2 \uff13` as vertex 3
    with pytest.raises(InputError) as err:
        parse(text.replace("X", token))
    assert str(err.value) == f"{message} {token!r}"


@pytest.mark.parametrize("token", ["1_0", "0.5_0", "1/1_0", "\uff10", "\u0661/2", "0.\u0665"])
@pytest.mark.parametrize(
    "text, line",
    [(MINIMAL + "i 1 0 1\ni 2 1/2 X\n", 9), (MINIMAL + "i 1 X 1\ni 2 0 1\n", 8)],
    ids=["end", "start"],
)
def test_rational_tokens_are_ascii_without_underscores(text, line, token):
    # `i 2 1/2 1_0` once read as end 10, and `\uff10` as 0
    with pytest.raises(InputError) as err:
        parse_instance(text.replace("X", token))
    assert str(err.value) == f"line {line}: bad rational {token!r}"


@pytest.mark.parametrize("token", list(NOT_PLAIN.values()), ids=list(NOT_PLAIN))
def test_path_positions_and_params_are_plain_ascii(token):
    for i in range(4):  # the u, first, last and v fields of a `c path` record
        ids = ["1", "2", "2", "3"]
        ids[i] = token
        with pytest.raises(InputError) as err:
            load_reduction_output(ROLED.replace("c path p 1 2 2 3", "c path p " + " ".join(ids)))
        assert str(err.value) == f"line 10: bad vertex id {token!r}"
    if token.isdigit():  # param values that look like integers are read as them
        with pytest.raises(InputError) as err:
            load_reduction_output(ROLED + f"c param k {token}\n")
        assert str(err.value) == f"line 11: bad integer {token!r}"


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_instance, "p lbc 4 3\ns 1\nt 4\nb 1\nl 3\ne 1 2\ne 3 4\ne 2 1\ne 2 3\n",
         "line 8: duplicate edge (1, 2)"),
        (parse_instance, "p lbc 4 3\ns 1\nt 4\nb 1\nl 3\ne 1 2\ne 3 3\ne 2 3\ne 3 4\n",
         "line 7: self-loop at vertex 3"),
        (parse_instance, "p lbc 4 3\ns 1\ne 1 2\nt 4\nb 1\ne 1 2\nl 3\ne 2 3\ne 3 4\n",
         "line 6: duplicate edge (1, 2)"),
        (parse_source_graph, "p graph 4 3\ne 1 2\ne 4 3\ne 3 4\ne 2 3\ne 1 4\n",
         "line 4: duplicate edge (3, 4)"),
        (parse_source_graph, "p graph 4 3\ne 1 2\ne 3 3\ne 2 3\ne 3 4\n",
         "line 3: self-loop at vertex 3"),
    ],
    ids=["instance-repeat", "instance-self-loop", "instance-repeat-between-scalars",
         "source-repeat", "source-self-loop"],
)
def test_graph_faults_name_their_own_line(parse, text, message):
    # later `e` lines follow the fault, so the last line is not the one named
    with pytest.raises(InputError) as err:
        parse(text)
    assert str(err.value) == message


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
            ("p graph -3 0\n", "line 1: negative vertex count -3"),
            ("p graph 2 -1\n", "line 1: negative edge count -1"),
            ("p graph 2 2\ne 1 2\ne 2 1\n", "line 3: duplicate edge"),
        ],
        ids=["m-not-integer", "m-mismatch", "two-p-lines", "n-negative", "m-negative",
             "repeated-edge"],
    )
    def test_source_graph_header_checked(self, text, message):
        with pytest.raises(InputError, match=message):
            parse_source_graph(text)

    def test_pd_round_trip(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        pd = PathDecomposition(((0, 1), (1, 2), (2, 3)))
        assert parse_path_decomposition(serialize_path_decomposition(pd), g) == pd

    def test_pd_round_trip_of_a_built_witness(self):
        out = gen_pw(PW_CASES[0][0])
        pd = build_pw_witness(out)
        assert parse_path_decomposition(serialize_path_decomposition(pd), out.instance.graph) == pd

    def test_pd_bags_read_in_any_order(self):
        pd = parse_path_decomposition("B 3 1 2\nB 2\n", Graph(3))
        assert pd.bags == ((0, 1, 2), (1,))


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


PATH_GRAPH = Graph(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (lambda x: parse_cut(x, PATH_GRAPH), "e 1 2\nc ok\ne 2 1\n",
         "line 3: duplicate edge (1, 2)"),
        (lambda x: parse_cut(x, PATH_GRAPH), "e 3 1\n",
         "line 1: (1, 3) is not an edge of the instance"),
        (lambda x: parse_cut(x, PATH_GRAPH), "e 2 3\ne 3 3\n", "line 2: self-loop at vertex 3"),
        (lambda x: parse_fvs(x, PATH_GRAPH), "v 1\nv 3\nv 1\n", "line 3: vertex 1 given twice"),
        (lambda x: parse_path_decomposition(x, PATH_GRAPH), "B 1 2\nB 2 3 2\n",
         "line 2: vertex 2 given twice in one bag"),
    ],
    ids=["cut-repeated-edge", "cut-non-edge", "cut-self-loop", "fvs-repeated-vertex",
         "pd-repeated-vertex"],
)
def test_repeated_records_rejected(parse, text, message):
    with pytest.raises(InputError, match=re.escape(message)):
        parse(text)


def test_repeated_bags_allowed():
    pd = parse_path_decomposition("B 1 2\nB 1 2\nB 2 3\n", PATH_GRAPH)
    assert pd.bags == ((0, 1), (0, 1), (1, 2))


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


ROLED = "p lbc 3 2\ns 1\nt 3\nb 1\nl 2\ne 1 2\ne 2 3\nc role 1 s\nc role 3 t\nc path p 1 2 2 3\n"


@pytest.mark.parametrize(
    "extra, message",
    [
        ("c param k \u00b2\n", "line 11: bad integer '\u00b2'"),
        ("c role 2 s\n", "line 11: role 's' is already carried by vertex 1"),
        ("c path q 1 2 2 3\n", "line 11: path 'q': vertex 2 is already on another path"),
    ],
    ids=["param-superscript-two", "role-twice", "path-position-twice"],
)
def test_reduction_output_annotations_checked(extra, message):
    assert load_reduction_output(ROLED).paths == {"p": (0, 1, 2)}
    with pytest.raises(InputError) as err:
        load_reduction_output(ROLED + extra)
    assert str(err.value) == message


# anchors 1, 3 and 5 on a 5-vertex path; records p (1-2-3) and q (3-4-5)
# on lines 13 and 14
PATHED = (
    "p lbc 5 4\ns 1\nt 5\nb 1\nl 4\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n"
    "c role 1 s\nc role 3 m\nc role 5 t\nc path p 1 2 2 3\nc path q 3 4 4 5\n"
)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("c path q 3 4 4 5", "c path q 3 4 4 6", "line 14: vertex id 6 out of range 1..5"),
        ("c path q 3 4 4 5", "c path q 3 4 3 5",
         "line 14: path 'q': first interior 4 after last 3"),
        ("c path q 3 4 4 5", "c path p 3 4 4 5", "line 14: path 'p' given twice"),
        ("c path q 3 4 4 5", "c path q 3 4 5 5",
         "line 14: path 'q': vertex 5 is already an anchor"),
        ("c path q 3 4 4 5", "c path q 3 2 2 1",
         "line 14: path 'q': vertex 2 is already on another path"),
        ("c path q 3 4 4 5", "c path q 2 4 4 5",
         "line 14: path 'q': endpoint 2 is not an anchor"),
        ("c path q 3 4 4 5", "c path q 1 4 4 5", "line 14: path 'q': (1, 4) is not an edge"),
        ("c path q 3 4 4 5", "c path q 3 4 5",
         "line 14: expected `c path <tag> <u> <first> <last> <v>`"),
        ("c path q 3 4 4 5", "c path q",
         "line 14: expected `c path <tag> <u> <first> <last> <v>`"),
        ("c role 3 m", "c role 3 p@1", "line 11: role tag 'p@1' holds '@'"),
        ("c path q 3 4 4 5", "c ok", "vertex 4 is neither an anchor nor on a path"),
    ],
    ids=["id-out-of-range", "first-after-last", "repeated-tag", "interior-is-anchor",
         "interiors-overlap", "endpoint-not-anchor", "not-an-edge", "field-count",
         "truncated-to-tag", "old-style-role", "uncovered-vertex"],
)
def test_path_record_faults_name_their_line(old, new, message):
    assert load_reduction_output(PATHED).paths == {"p": (0, 1, 2), "q": (2, 3, 4)}
    with pytest.raises(InputError) as err:
        load_reduction_output(PATHED.replace(old, new))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "extra, message",
    [
        ("c param k 3\nc param k 4\n", "line 9: param 'k' given twice"),
        ("c param k 3\nc param k 3\n", "line 9: param 'k' given twice"),
        ("c role 2 x y z\n", "line 8: expected `c role <id> <tag>`"),
        ("c role 2 x\nc role 2 y\n", "line 9: role of vertex 2 given twice"),
        ("c role 2\n", "line 8: expected `c role <id> <tag>`"),
        ("c role\n", "line 8: expected `c role <id> <tag>`"),
        ("c param k\n", "line 8: expected `c param <key> <value>`"),
        ("c param\n", "line 8: expected `c param <key> <value>`"),
        ("c path p\n", "line 8: expected `c path <tag> <u> <first> <last> <v>`"),
        ("c path\n", "line 8: expected `c path <tag> <u> <first> <last> <v>`"),
        ("l 2\n", "line 8: 'l' record given twice"),
        ("s 1\n", "line 8: 's' record given twice"),
        ("t 1\n", "line 8: 't' record given twice"),
        ("b 0\n", "line 8: 'b' record given twice"),
        ("i 1 0 1\ni 2 0.5 1.5\ni 1 0 2\n", "line 10: interval of vertex 1 given twice"),
    ],
    ids=["param-changed", "param-repeated", "role-extra-fields", "role-repeated",
         "role-truncated", "role-bare", "param-truncated", "param-bare", "path-truncated",
         "path-bare", "l-repeated", "s-repeated", "t-repeated", "b-repeated",
         "interval-repeated"],
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
        st.tuples(ROLE_TAGS, *[st.one_of(FUZZ_TOKENS, st.sampled_from(["0", "4"]))] * 4).map(
            lambda rec: "c path %s %s %s %s %s" % rec
        ),
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


@pytest.mark.parametrize(
    "gen, case", [(gen_pw, PW_CASES[0]), (gen_fvs, FVS_CASES[1])], ids=["pw", "fvs"]
)
def test_reload_keeps_the_role_index(gen, case):
    # vertex_by_role holds the anchors only, whether generated or reloaded
    source, _ = case
    out = gen(source)
    reloaded = load_reduction_output(serialize_reduction_output(out), source=source)
    assert reloaded.vertex_by_role == out.vertex_by_role
    assert not any("@" in tag for tag in out.vertex_by_role)


class TestReductionRoundTrip:
    def test_pw_output_reloads_and_decodes(self):
        cq, clique = PW_CASES[0]
        out = gen_pw(cq)
        text = serialize_reduction_output(out)
        reloaded = load_reduction_output(text, source=cq)
        assert reloaded == out and reloaded.paths == out.paths
        assert serialize_reduction_output(reloaded) == text
        cut = forward_cut_pw(reloaded, clique)
        assert decode_pw(reloaded, cut) == clique

    def test_fvs_output_reloads_and_decodes(self):
        mc, clique = FVS_CASES[1]
        out = gen_fvs(mc)
        text = serialize_reduction_output(out)
        reloaded = load_reduction_output(text, source=mc)
        assert reloaded == out and reloaded.paths == out.paths
        assert serialize_reduction_output(reloaded) == text
        cut = forward_cut_fvs(reloaded, clique)
        assert decode_fvs(reloaded, cut) == clique
