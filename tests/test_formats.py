import re
import tracemalloc
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from lbcut import formats
from lbcut.errors import InputError, ModelError
from lbcut.dp import solve
from lbcut.formats import (
    ParsedInstance,
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
from lbcut.graph import Graph, Instance, bfs_distances
from lbcut.intervals import IntervalModel
from lbcut.oracles import random_proper_interval_instance
from lbcut.reductions_fvs import decode_fvs, forward_cut_fvs, gen_fvs
from lbcut.reductions_pw import decode_pw, forward_cut_pw, gen_pw
from lbcut.witnesses import PathDecomposition, build_pw_witness
from test_dp import dp_pool
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
            (("b 1", "b -1"), "line 5: negative beta -1"),  # a record rewritten
            (("l 1", "l -1"), "line 6: negative lambda -1"),
        ],
    )
    def test_diagnostics_carry_line_numbers(self, mutation, message):
        if isinstance(mutation, tuple):
            text = MINIMAL.replace(*mutation, 1)
        else:
            text = MINIMAL + mutation + "\n"
        with pytest.raises(InputError) as err:
            parse_instance(text)
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


# a repeated edge at line 8, then a second `l` record at line 10
REPEAT_THEN_FAULT = "p lbc 4 3\ns 1\nt 4\nb 1\nl 3\ne 1 2\ne 2 3\ne 2 1\ne 3 4\nl 3\n"


@pytest.mark.parametrize(
    "parse, text, bulk, message",
    [
        (parse_instance, REPEAT_THEN_FAULT, True, "line 8: duplicate edge (1, 2)"),
        (parse_instance, REPEAT_THEN_FAULT.replace("\n", "\r\n"), False,
         "line 8: duplicate edge (1, 2)"),
        (parse_instance, REPEAT_THEN_FAULT.replace("b 1\n", "c no b record\n"), True,
         "line 8: duplicate edge (1, 2)"),
        (parse_source_graph, "p graph 4 3\ne 1 2\ne 2 3\ne 2 1\ne 3 4\nq 1\n", None,
         "line 4: duplicate edge (1, 2)"),
    ],
    ids=["instance-bulk", "instance-crlf", "instance-missing-b", "source"],
)
def test_a_repeated_edge_is_named_before_later_faults(parse, text, bulk, message):
    # the first faulty line in file order, as the line read meets it; a
    # bulk read hands the file to the line read (a source graph has none)
    if bulk is not None:
        assert (formats._RUN_START.search(text) is not None) == bulk
    with pytest.raises(InputError) as err:
        parse(text)
    assert str(err.value) == message


@pytest.mark.parametrize("count", [2, 4])
def test_serialize_refuses_a_model_of_another_size(count):
    # a 3-vertex path; a short model used to raise IndexError, and a long
    # one was cut to 3 `i` lines that read back as another valid model
    inst = Instance(Graph(3, [(0, 1), (1, 2)]), 0, 2, 1, 2)
    with pytest.raises(ModelError) as err:
        serialize_instance(inst, IntervalModel.unit(range(count)))
    assert str(err.value) == f"model has {count} intervals, graph has 3 vertices"


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



# The run reader against the per-line reader.  `e u  v` (two spaces) is a
# well-formed edge record that only the per-line reader takes, so the same
# file with every edge line written that way must parse alike: the same
# ParsedInstance, or an InputError with the same message.


def per_line_only(text: str) -> str:
    return re.sub(r"(?m)^(e \S+) ", r"\1  ", text)


def outcome(text: str):
    try:
        return parse_instance(text)
    except InputError as exc:
        return f"InputError: {exc}"


def _rewrite_mid(e: list[str], form: str) -> None:
    """Rewrite the middle edge line `e u v` as form.format(u=u, v=v)."""
    k = len(e) // 2
    _, u, v = e[k].split()
    e[k] = form.format(u=u, v=v)


EDGE_FAULTS = {  # (edge lines, n, lines after them) -> None, in place
    "none": lambda e, n, tail: None,
    "id-0": lambda e, n, tail: _rewrite_mid(e, "e 0 {v}"),
    "id-n+1": lambda e, n, tail: _rewrite_mid(e, f"e {{u}} {n + 1}"),
    "leading-zeros": lambda e, n, tail: _rewrite_mid(e, "e 00{u} 0{v}"),
    "19-digit-id": lambda e, n, tail: _rewrite_mid(e, "e {u:0>19} {v}"),
    "19-digit-past-n": lambda e, n, tail: _rewrite_mid(e, "e 1000000000000000000 {v}"),
    "repeat-in-run": lambda e, n, tail: e.insert(len(e) // 2, e[len(e) // 2]),
    "repeat-run-and-tail": lambda e, n, tail: tail.append(e[0]),
    "self-loop": lambda e, n, tail: _rewrite_mid(e, "e {u} {u}"),
}
LAYOUTS = {  # (header, edge lines, the rest) -> lines
    "plain": lambda head, e, tail: head + e + tail,
    "run-before-p-line": lambda head, e, tail: e + head + tail,
    "crlf": lambda head, e, tail: [line + "\r" for line in head + e + tail],
    # \x0c, \x85 and \u2028 end a line for splitlines, but not for re's ^
    "ff-nel-ls-comment": lambda head, e, tail: (
        head + ["c one\x0cc two\x85c three\u2028c four"] + e + tail),
}


@pytest.mark.parametrize("slice_chars", [64, None], ids=["64-char-slices", "default-slices"])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("fault", EDGE_FAULTS)
def test_edge_run_reader_matches_per_line_reader(monkeypatch, slice_chars, layout, fault):
    if slice_chars is not None:  # runs of several slices, faults past the first
        monkeypatch.setattr(formats, "_RUN_SLICE", slice_chars)
    for seed in range(3):
        inst, model = random_proper_interval_instance(12, seed=seed)
        n, m = inst.graph.n, inst.graph.m
        lines = serialize_instance(inst, model).splitlines()
        head, e, tail = lines[:5], lines[5:5 + m], lines[5 + m:]
        EDGE_FAULTS[fault](e, n, tail)
        text = "".join(line + "\n" for line in LAYOUTS[layout](head, e, tail))
        assert (formats._RUN_START.search(text) is None) == (layout == "crlf"), seed
        assert outcome(text) == outcome(per_line_only(text)), seed


def test_edge_run_reader_on_a_reduction_file():
    # a run of many default slices, then param, role and path records
    out = gen_pw(PW_CASES[0][0])
    text = serialize_reduction_output(out)
    assert text.index("\nc ") > 2 * formats._RUN_SLICE
    assert outcome(text) == outcome(per_line_only(text)) == parse_instance(text)
    e_line = text.splitlines()[5]
    repeated = text.replace("c role", f"{e_line}\nc role", 1)
    assert outcome(repeated) == outcome(per_line_only(repeated))
    assert "duplicate edge" in outcome(repeated)


def test_edge_run_reader_holds_one_slice_at_a_time():
    text = "e 1 2\n" * 100_000  # about 150 default slices
    eu, ev = [], []
    tracemalloc.start()
    try:
        assert formats._read_edge_run(text, 0, 2, eu, ev) == len(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (eu[-1], ev[-1], len(eu), len(ev)) == (0, 1, 100_000, 100_000)
    # beyond the lists it fills, about one slice's worth; one match over
    # the whole run would hold re's per-repeat state for every line
    assert peak - held < 2 << 20


# The interval run reader against the per-line reader: `i v  a b` (two
# spaces) is a well-formed interval record that only the per-line reader
# takes, so the same file with every interval line written that way must
# parse alike.


def per_line_intervals(text: str) -> str:
    return re.sub(r"(?m)^(i \S+) ", r"\1  ", text)


def _rewrite_interval(i: list[str], start=None, end=None, v=None) -> None:
    """Rewrite the middle interval line, each field by a function of its token."""
    k = len(i) // 2
    fields = i[k].split()[1:]
    for x, rewrite in enumerate((v, start, end)):
        if rewrite is not None:
            fields[x] = rewrite(fields[x])
    i[k] = "i " + " ".join(fields)


def _as_fraction(token: str) -> str:
    x = Fraction(token)
    return f"{x.numerator}/{x.denominator}"


def _as_exponent(token: str) -> str:
    whole, _, digits = token.partition(".")
    return f"{whole}{digits}e-{len(digits)}"


def _shift_left(i: list[str]) -> None:
    """Move every interval 10 to the left, to negative endpoints."""
    for k, line in enumerate(i):
        _, v, *ends = line.split()
        a, b = (formats._fmt_rational(Fraction(x) - 10, 0) for x in ends)
        i[k] = f"i {v} {a} {b}"


def _padded(width: int):
    def pad(token: str) -> str:
        whole, _, digits = token.partition(".")
        return f"{whole}.{digits.ljust(width, '0')}"
    return pad


INTERVAL_FAULTS = {  # (interval lines, n, lines after them) -> None, in place
    "none": lambda i, n, tail: None,
    "id-0": lambda i, n, tail: _rewrite_interval(i, v=lambda _: "0"),
    "id-n+1": lambda i, n, tail: _rewrite_interval(i, v=lambda _: str(n + 1)),
    "repeat-in-run": lambda i, n, tail: i.insert(len(i) // 2, i[len(i) // 2]),
    "repeat-for-missing": lambda i, n, tail: _rewrite_interval(i, v=lambda _: "1"),
    # the run is whole; the repeat after a comment is read per line
    "repeat-run-and-tail": lambda i, n, tail: tail.extend(["c between", i[0]]),
    "empty-interval": lambda i, n, tail: _rewrite_interval(i, start=lambda _: "99"),
    "missing": lambda i, n, tail: i.pop(len(i) // 2),
    "comment-mid-run": lambda i, n, tail: i.insert(len(i) // 2, "c between"),
    "bad-record-mid-run": lambda i, n, tail: i.insert(len(i) // 2, "q 1"),
    "p/q-mid-run": lambda i, n, tail: _rewrite_interval(i, start=_as_fraction),
    "exponent-mid-run": lambda i, n, tail: _rewrite_interval(i, end=_as_exponent),
    "negative": lambda i, n, tail: _shift_left(i),
    "out-of-order": lambda i, n, tail: i.reverse(),
    "18-fraction-digits": lambda i, n, tail: _rewrite_interval(i, start=_padded(18)),
    "19-fraction-digits": lambda i, n, tail: _rewrite_interval(i, start=_padded(19)),
}
# faults the run reader takes in bulk, in every layout where the p-line
# comes first
READ_IN_BULK = {"none", "negative", "out-of-order", "18-fraction-digits", "comment-mid-run"}
INTERVAL_LAYOUTS = {  # (header, edge lines, interval lines, the rest) -> lines
    "plain": lambda head, e, i, tail: head + e + i + tail,
    "run-before-p-line": lambda head, e, i, tail: i + head + e + tail,
    "run-before-edges": lambda head, e, i, tail: head + i + e + tail,
    "ff-nel-ls-comment": lambda head, e, i, tail: (
        head + e + ["c one\x0cc two\x85c three\u2028c four"] + i + tail),
}


@pytest.mark.parametrize("slice_chars", [64, None], ids=["64-char-slices", "default-slices"])
@pytest.mark.parametrize("layout", INTERVAL_LAYOUTS)
@pytest.mark.parametrize("fault", INTERVAL_FAULTS)
def test_interval_run_reader_matches_per_line_reader(monkeypatch, slice_chars, layout, fault):
    if slice_chars is not None:  # runs of several slices, faults past the first
        monkeypatch.setattr(formats, "_RUN_SLICE", slice_chars)
    for seed in range(3):
        inst, model = random_proper_interval_instance(12, seed=seed)
        m = inst.graph.m
        lines = serialize_instance(inst, model).splitlines()
        head, e, i = lines[:5], lines[5:5 + m], lines[5 + m:]
        tail = []
        INTERVAL_FAULTS[fault](i, inst.graph.n, tail)
        text = "".join(line + "\n" for line in INTERVAL_LAYOUTS[layout](head, e, i, tail))
        got = outcome(text)
        assert got == outcome(per_line_intervals(text)), seed
        bulk = fault in READ_IN_BULK and layout != "run-before-p-line"
        if isinstance(got, ParsedInstance):  # Fractions are built only for a per-line read
            assert ("starts" in got.model.__dict__) != bulk, seed


def test_interval_run_reader_holds_one_slice_at_a_time():
    n = 100_000
    text = "".join(f"i {v} {v} {v}.5\n" for v in range(1, n + 1))  # ~500 default slices
    ids, a, b = [], [], []
    tracemalloc.start()
    try:
        assert formats._read_interval_run(text, 0, n, ids, a, b, 0) == (len(text), 1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(a), a[-1], b[-1], int(ids[-1][-1])) == (n, 10 * n, 10 * n + 5, n)
    # beyond the lists it fills, about one slice's worth; one findall over
    # the whole run would hold some 24 MB of field strings
    assert peak - held < 2 << 20


def xval_pool(seed):
    """The benchmark's xval pool: per item an n=30 and an n=8 unit-interval
    instance, starts 3..5 grid steps apart (1/16 and 1/8), lam = dist + 1."""
    for item in range(256):
        rng = Random(f"xval:{seed}:{item}")
        for n, grid, lo, hi in ((30, 16, 0.25, 0.75), (8, 8, 0.0, 1.0)):
            pos, starts = 0, []
            for _ in range(n):
                starts.append(Fraction(pos, grid))
                pos += rng.randint(3, 5)
            model = IntervalModel.unit(starts)
            g = model.induced_graph()
            order = sorted(range(n), key=lambda v: (model.starts[v], v))
            s, t = order[round(lo * (n - 1))], order[round(hi * (n - 1))]
            yield Instance(g, s, t, g.m, int(bfs_distances(g, s)[t]) + 1), model


def assert_same_keys(got: IntervalModel, model: IntervalModel) -> None:
    """got has the keys IntervalModel(starts, ends) computes, and equals model."""
    built = IntervalModel(got.starts, got.ends)
    assert (got.start_keys, got.end_keys, got.denominator) == (
        built.start_keys, built.end_keys, built.denominator)
    assert [type(x) for x in got.start_keys + got.end_keys] == [
        type(x) for x in built.start_keys + built.end_keys]
    assert got == model and (got.starts, got.ends) == (model.starts, model.ends)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["dp-dense-ties", "dp-long", "xval"])
def test_pool_models_read_as_keys(name, seed):
    pool = xval_pool(seed) if name == "xval" else dp_pool(name, seed)
    for inst, model in pool:
        parsed = parse_instance(serialize_instance(inst, model))
        got = parsed.model
        assert got == model
        cost, cut, _ = solve(parsed.instance, got)  # reads keys only
        assert len(cut) == cost
        assert "starts" not in got.__dict__ and "ends" not in got.__dict__
        assert_same_keys(got, model)


@pytest.mark.parametrize("seed", range(30))
def test_models_with_p_q_endpoints_round_trip(seed):
    rng = Random(seed)
    n = rng.randint(2, 30)
    # denominators with and without a factor other than 2 and 5; every
    # tenth model has pairwise coprime ones past KEY_DENOMINATOR_LIMIT
    dens = [1, 2, 3, 4, 5, 7, 8, 10, 12, 16, 125]
    if seed % 10 == 9:
        dens = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    starts = [Fraction(rng.randint(-40, 40), rng.choice(dens)) for _ in range(n)]
    model = IntervalModel.unit(starts)
    inst = Instance(model.induced_graph(), 0, 1, 1, 1)
    text = serialize_instance(inst, model)
    got = parse_instance(text).model
    assert_same_keys(got, model)
    assert serialize_instance(inst, got) == text


@pytest.mark.parametrize("token", ["1e99999999", "1e1000000", "-2.5E+1000000",
                                   "1e-0001000000", "3e" + "9" * 5000])
def test_huge_exponent_is_a_bad_rational(token):
    # Fraction would build 10**k, in time that grows faster than k
    with pytest.raises(InputError) as err:
        parse_instance(MINIMAL + f"i 1 0 {token}\ni 2 0 1\n")
    assert str(err.value) == f"line 8: bad rational {token!r}"


def test_huge_exponent_is_not_written(monkeypatch):
    # the limit lowered to just past the int-string limit (4300 digits), so
    # that the tokens are written in e-form and the powers of 10 stay small
    monkeypatch.setattr(formats, "_EXPONENT_LIMIT", 5000)
    assert formats._fmt_rational(Fraction(3, 10**4999), 0) == "3e-4999"
    assert _parse_rational("3e-4999", 1) == Fraction(3, 10**4999)
    with pytest.raises(InputError, match="^vertex 2: coordinate exceeds"):
        formats._fmt_rational(Fraction(3, 10**5000), 1)
    with pytest.raises(InputError, match="^line 1: bad rational '3e-5000'$"):
        _parse_rational("3e-5000", 1)
