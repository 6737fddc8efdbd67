"""Lexer, parser, and pretty-printer behavior."""

import copy
import pickle
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from flucid.syntax import (
    AtExpr,
    BinOp,
    BracketLit,
    BraceLit,
    Call,
    CtxBin,
    Described,
    DimDecl,
    Dot,
    EsDecl,
    FlucidSyntaxError,
    FuncDecl,
    HashExpr,
    Ident,
    IfExpr,
    IntLit,
    LexicalError,
    NoObsLit,
    ObsDecl,
    OsDecl,
    RangeLit,
    RealLit,
    SentinelLit,
    Span,
    StreamBin,
    StreamUnary,
    StringLit,
    Subscript,
    TokenStream,
    TupleLit,
    UnaryOp,
    VarDecl,
    WhereExpr,
    ZeroObs,
    parse,
    pretty_print,
    tokenize,
)
from flucid.encoders import PRESETS, encode_log
from flucid.semantics import analyze, rewrite_to_core
from flucid.syntax.nodes import walk
from flucid.values import FlucidError, ValidationError


# --- tokenize ---------------------------------------------------------------


def kinds(text):
    toks = tokenize(text)
    return list(zip(toks.kinds, toks.values))[:-1]


def test_tokenize_stream_op():
    assert kinds("X fby Y") == [("IDENT", "X"), ("KW", "fby"), ("IDENT", "Y")]


def test_tokenize_observation_with_real():
    toks = kinds('observation o = (P, 1, 0, 0.85);')
    assert ("REAL", 0.85) in toks
    assert toks[0] == ("KW", "observation")
    assert toks[-1] == ("SYM", ";")


def test_tokenize_stray_nul_is_lexical_error():
    with pytest.raises(LexicalError) as err:
        tokenize("x = \x00 1")
    assert err.value.span.offset == 4


def test_tokenize_spans_track_lines():
    toks = tokenize("a\n  bb")
    assert (toks.span(0, 0).line, toks.span(0, 0).col) == (1, 1)
    assert (toks.span(1, 1).line, toks.span(1, 1).col) == (2, 3)
    assert toks.span(1, 1).offset == 4 and toks.span(1, 1).end == 6


def _fields(span):
    return span.line, span.col, span.offset, span.end


def test_spans_are_lazy_immutable_source_ranges():
    text = "f(x,\n  1)"
    toks = tokenize(text)
    assert isinstance(toks, TokenStream) and len(toks) == 7
    assert (toks.kinds[4], toks.values[4]) == ("INT", 1)
    assert _fields(toks.span(4, 4)) == (2, 3, 7, 8)
    assert (toks.kinds[-1], toks.values[-1]) == ("EOF", "")
    assert _fields(toks.span(6, 6)) == (2, 5, 9, 9)
    whole = toks.span(0, 5)
    assert _fields(whole) == _fields(parse(text).span) == (1, 1, 0, 9)
    assert toks.span(0, 0).merge(toks.span(5, 5)) == whole
    assert toks.span(5, 5).merge(toks.span(0, 0)) == whole
    assert toks.span(4, 4) == tokenize(text).span(4, 4)
    assert toks.span(4, 4) != toks.span(5, 5)
    assert repr(toks.span(4, 4)) == "Span(line=2, col=3, offset=7, end=8)"
    with pytest.raises(AttributeError):
        toks.span(4, 4).line = 3
    tree = pickle.loads(pickle.dumps(parse(text)))
    assert tree.span == copy.copy(whole) == whole
    assert _fields(Span()) == (1, 1, 0, 0) and Span() == Span(0, 0, ())
    assert IntLit(1).span == Span()


def test_tokenize_hyphenated_identifier():
    assert kinds("port-state - 3") == [
        ("IDENT", "port-state"), ("SYM", "-"), ("INT", 3)]


def test_tokenize_minus_before_digit_stays_arithmetic():
    # a-1 must not absorb the hyphen
    assert kinds("a-1") == [("IDENT", "a"), ("SYM", "-"), ("INT", 1)]


def test_tokenize_infinity_spellings():
    assert kinds("INF+ +INF INF- -INF") == [
        ("SYM", "INF+"), ("SYM", "INF+"), ("SYM", "INF-"), ("SYM", "INF-")]


def test_tokenize_inf_alone_is_identifier():
    assert kinds("INF ") == [("IDENT", "INF")]
    assert kinds("x = INF") == [("IDENT", "x"), ("SYM", "="), ("IDENT", "INF")]


@pytest.mark.parametrize("text, offset", [("²", 0), ("x = 1²;", 5), ("١", 0)])
def test_tokenize_non_ascii_digit_is_lexical_error(text, offset):
    # numbers are ASCII digits only; inside a word such digits are letters
    with pytest.raises(LexicalError) as err:
        tokenize(text)
    assert err.value.span.offset == offset
    assert kinds("x²") == [("IDENT", "x²")]


def test_tokenize_overlong_integer_is_lexical_error():
    with pytest.raises(LexicalError) as err:
        tokenize("x = " + "9" * 5000)
    assert err.value.span.offset == 4


def test_tokenize_zero_observation_spellings():
    assert kinds("\\0(P)")[0] == ("SYM", "\\0")
    assert kinds("\\O(P)")[0] == ("SYM", "\\0")


def test_tokenize_context_operators():
    assert kinds("a \\union b \\isSubContext c") == [
        ("IDENT", "a"), ("SYM", "\\union"), ("IDENT", "b"),
        ("SYM", "\\isSubContext"), ("IDENT", "c")]


def test_tokenize_unknown_context_operator():
    with pytest.raises(LexicalError):
        tokenize("a \\frobnicate b")


def test_tokenize_comments_and_strings():
    toks = kinds('x = "a\\"b" // tail\n/* multi\nline */ + 1')
    assert ("STRING", 'a"b') in toks
    assert ("SYM", "+") in toks


def test_tokenize_newline_in_string_rejected():
    with pytest.raises(LexicalError):
        tokenize('"broken\nstring"')


def test_tokenize_unterminated_comment():
    with pytest.raises(LexicalError):
        tokenize("/* never closed")


def test_tokenize_hybrid_segment_rejected():
    with pytest.raises(LexicalError) as err:
        tokenize("#JAVA { int x; }")
    assert "hybrid segments unsupported" in str(err.value)


def test_tokenize_two_word_keywords_stay_pairs():
    assert kinds("observation sequence os") == [
        ("KW", "observation"), ("KW", "sequence"), ("IDENT", "os")]


# --- parse ------------------------------------------------------------------


def test_parse_limb_program_shape():
    tree = parse("""
        [bel(es), pl(es)]
        where
          evidential statement es = { betty, sally };
          observation sequence betty = oBetty;
          observation sequence sally = oSally;
          observation oBetty = ("limb on my car", 1, 0, 0.99);
          observation oSally = ("limb on my car", 1, 0, 0.5);
        end
    """)
    assert isinstance(tree, WhereExpr)
    assert isinstance(tree.body, BracketLit)
    assert len(tree.body.entries) == 2
    call = tree.body.entries[0].value
    assert isinstance(call, Call) and call.func == Ident("bel")
    es, os1, os2, o1, o2 = tree.decls
    assert isinstance(es, EsDecl) and isinstance(es.value, BraceLit)
    assert isinstance(os1, OsDecl) and isinstance(o1, ObsDecl)
    assert isinstance(o1.value, TupleLit) and len(o1.value.items) == 4
    assert o1.value.items[3] == RealLit(0.99)


def test_parse_dimensional_function_call():
    tree = parse("alice_claim where alice_claim = invpsiacme[S](es \\union alice); end")
    decl = tree.decls[0]
    assert isinstance(decl, VarDecl)
    call = decl.expr
    assert isinstance(call, Call)
    assert call.func == Subscript(Ident("invpsiacme"), (Ident("S"),))
    assert call.args == (CtxBin("union", Ident("es"), Ident("alice")),)


def test_parse_where_without_declarations_is_error():
    with pytest.raises(FlucidSyntaxError) as err:
        parse("E where end")
    assert "declaration" in str(err.value)


def test_parse_error_has_span_and_expected():
    with pytest.raises(FlucidSyntaxError) as err:
        parse("x where y = ; end")
    assert err.value.expected
    assert err.value.span.offset < len("x where y = ; end")


def test_parse_precedence_arithmetic_vs_relational():
    tree = parse("a + b * c < d")
    assert tree == BinOp("<", BinOp("+", Ident("a"),
                                    BinOp("*", Ident("b"), Ident("c"))),
                         Ident("d"))


def test_parse_precedence_at_binds_tighter_than_fby():
    tree = parse("X @ [d:1] fby Y")
    assert isinstance(tree, StreamBin) and tree.op == "fby"
    assert isinstance(tree.left, AtExpr)


def test_parse_stream_ops_right_associative():
    tree = parse("a fby b fby c")
    assert tree == StreamBin("fby", Ident("a"),
                             StreamBin("fby", Ident("b"), Ident("c")))


def test_parse_unary_binds_tighter_than_arithmetic():
    tree = parse("first X + 1")
    assert tree == BinOp("+", StreamUnary("first", Ident("X")), IntLit(1))


def test_parse_op_dimension_suffix():
    tree = parse("42 fby.d (N + 1)")
    assert isinstance(tree, StreamBin) and tree.dim == "d"
    tree = parse("N @.d 2")
    assert isinstance(tree, AtExpr) and tree.dim == "d"


def test_parse_hop_annotation_on_pby():
    tree = parse('o_final pby [es.#, I:"(u)"] ("(u,t2)", 2)')
    assert isinstance(tree, StreamBin) and tree.op == "pby"
    assert isinstance(tree.annotation, BracketLit)
    first_entry = tree.annotation.entries[0]
    assert first_entry.key is None
    assert first_entry.value == Dot(Ident("es"), HashExpr(None))
    assert isinstance(tree.right, TupleLit)


def test_parse_bracket_operand_of_pby_without_annotation():
    tree = parse("s pby [es.#]")
    assert tree.annotation is None
    assert isinstance(tree.right, BracketLit)


def test_parse_hash_forms():
    assert parse("#") == HashExpr(None)
    assert parse("#city") == HashExpr(Ident("city"))
    assert parse("#d + 1") == BinOp("+", HashExpr(Ident("d")), IntLit(1))
    assert parse("#O.w") == HashExpr(Dot(Ident("O"), Ident("w")))


def test_parse_observation_defaults_and_sentinels():
    tree = parse("x where observation Oalice = (P_alice, 0, INF+); end")
    obs = tree.decls[0]
    assert obs.value.items == (Ident("P_alice"), IntLit(0), SentinelLit("INF+"))


def test_parse_no_observation_and_zero_observation():
    tree = parse("x where observation a = $; observation b = \\0(P); end")
    assert isinstance(tree.decls[0].value, NoObsLit)
    assert tree.decls[1].value == ZeroObs(Ident("P"))


def test_parse_described_property():
    tree = parse('(["p":1] => "static entry", 1, 0)')
    assert isinstance(tree, TupleLit)
    assert isinstance(tree.items[0], Described)
    assert tree.items[0].text == "static entry"


def test_parse_dimension_declarations():
    tree = parse("""
        x
        where
          dimension a, b;
          dimension city : unordered finite nonperiodic {"m", "o"};
          dimension day : {1 to 31};
          dimension n = 5;
        end
    """)
    plain, city, day, n = tree.decls
    assert plain == DimDecl(("a", "b"))
    assert city.flags == ("unordered", "finite", "nonperiodic")
    assert isinstance(city.tags, BraceLit)
    assert isinstance(day.tags, RangeLit)
    assert n.value == IntLit(5)


def test_parse_function_declaration_with_dimension_params():
    tree = parse("""
        acmepsi[S](c, s)
        where
          acmepsi[S](c, s) = c;
          trans(a) = a;
        end
    """)
    f, g = tree.decls
    assert f == FuncDecl("acmepsi", ("S",), ("c", "s"), Ident("c"))
    assert g == FuncDecl("trans", (), ("a",), Ident("a"))


def test_parse_if_requires_fi():
    with pytest.raises(FlucidSyntaxError):
        parse("if a then b else c")
    tree = parse("if a then b else if c then d else e fi fi")
    assert isinstance(tree, IfExpr) and isinstance(tree.else_branch, IfExpr)


def test_parse_angle_tuple_requires_adjacency():
    tree = parse("d<1, 2, 3>")
    assert tree.dim == Ident("d") and len(tree.items) == 3
    rel = parse("d < 1")
    assert isinstance(rel, BinOp) and rel.op == "<"
    # a touching < that no > closes backtracks to the comparison
    for text, op in (("x<y", "<"), ("x<y && y>z", "&&"), ("f(x)<3", "<")):
        tree = parse(text)
        assert isinstance(tree, BinOp) and tree.op == op
        assert parse(pretty_print(tree)) == tree
    assert parse("x<y && y>z").left == parse("x < y")
    assert parse("f(x)<3") == BinOp("<", Call(Ident("f"), (Ident("x"),)),
                                     IntLit(3))


def test_parse_subscript_vs_context_literal():
    sub = parse("es[day]")
    assert isinstance(sub, Subscript)
    ctx = parse("[day:3, city:1]")
    assert isinstance(ctx, BracketLit)
    assert all(e.key is not None for e in ctx.entries)


def test_parse_mixed_bracket_entries():
    tree = parse('[es.#, I:"(u)"]')
    assert tree.entries[0].key is None and tree.entries[1].key is not None


def test_parse_arrow_pairs_normalize_to_colon():
    a = parse("[line => 89]")
    b = parse("[line : 89]")
    assert a == b


def test_parse_trailing_semicolon_optional():
    assert parse("x;") == parse("x")


def test_parse_takes_text_or_its_token_stream():
    assert parse(tokenize("x + 1")) == parse("x + 1")
    with pytest.raises(FlucidSyntaxError):
        parse(tokenize("x +"))
    for source in (None, 5, [], [1, 2], b"x", tokenize("x").kinds):
        with pytest.raises(ValidationError, match=type(source).__name__):
            parse(source)


def test_parse_junk_after_program():
    with pytest.raises(FlucidSyntaxError):
        parse("x y")


def test_parse_box_select_embed():
    box = parse("Box [d, e \\ d < e]")
    assert len(box.dims) == 2
    sel = parse("select(1, t)")
    assert sel.index == IntLit(1)
    # embed is an ordinary name
    assert parse('embed("file.ipl")') == Call(Ident("embed"),
                                              (StringLit("file.ipl"),))


@pytest.mark.parametrize("source", [
    "1 & 2", "1 !! 2", "1 !& 2", "1 ^ 2", "a nfby b", "a npby b",
    "nnext a", "nprev a", 'embed("f")', "1 in 2",
])
def test_dropped_constructs_fail_in_the_front_end(source):
    # none of these has an evaluation rule, so the front end rejects
    # each, with its position: embed is an undeclared name now
    with pytest.raises(FlucidError) as err:
        analyze(parse(source))
    records = getattr(err.value, "records", None)
    span = records[0].span if records else err.value.span
    assert 0 <= span.offset < span.end <= len(source)


def test_parse_member_assignment():
    # member assignment left the grammar: o.w is no declaration target
    with pytest.raises(FlucidSyntaxError, match="declaration target") as exc:
        parse("x where o.w = 1; end")
    assert exc.value.span.offset == len("x where ")


def test_parse_unary_minus_and_negation():
    assert parse("-x") == UnaryOp("-", Ident("x"))
    assert parse("neg x") == StreamUnary("neg", Ident("x"))
    assert parse("not Y") == StreamUnary("not", Ident("Y"))


@pytest.mark.parametrize("opener, closer", [
    ("(", ")"), ("[", "]"), ("f(", ")"), ("#(", ")"), ("x where y = ", "; end"),
])
def test_parse_nesting_budget(opener, closer):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)     # the interpreter's default
    try:
        assert parse(opener * 100 + "1" + closer * 100)
        source = opener * 1000 + "1" + closer * 1000
        with pytest.raises(FlucidSyntaxError) as err:
            parse(source)
    finally:
        sys.setrecursionlimit(limit)
    assert "nested" in str(err.value)
    assert source.startswith(opener, err.value.span.offset)


def test_parse_long_operator_chains_do_not_recurse():
    assert parse(" fby ".join(["x"] * 5000)).op == "fby"
    assert parse(" + ".join(["x"] * 5000)).op == "+"
    assert isinstance(parse("-" * 5000 + "x"), UnaryOp)


@pytest.mark.parametrize("op", ["+", "fby"])
def test_tree_walkers_handle_long_operator_chains(op):
    source = (" %s " % op).join(["x"] * 5000) + " where x = 1; end"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)     # the interpreter's default
    try:
        tree = parse(source)
        analysis = analyze(tree)
        core = rewrite_to_core(analysis.tree)
        text = pretty_print(tree)
        again = pretty_print(parse(text))
    finally:
        sys.setrecursionlimit(limit)
    assert analysis.env["x"].kind == "var"
    assert core is analysis.tree        # fby and + are core already
    assert sum(isinstance(n, Ident) for n in walk(core)) >= 5000
    assert again == text


# --- pretty-print round trip -------------------------------------------------


ROUND_TRIP_SOURCES = [
    "x",
    "first X + 1",
    "a fby b fby c",
    "X @ [d:1] fby Y",
    "(a + b) * c - 2 % 5",
    "a \\union b \\intersection c",
    "if #d == 0 then X else Y @.d (#d - 1) fi",
    'o_final pby [es.#, I:"(u)"] ("(u,t2)", 2) pby [es.#] ("(o1,o2)", 0)',
    "[bel(es), pl(es)] where evidential statement es = { a, b }; "
    "observation sequence ordered a = (\"p\", 1, 0, 0.99); "
    "observation b = $; end",
    "d<1, 2>",
    "x where dimension day : {1 to 31 step 2}; observation o = \\0(P); end",
    "invpsiacme[S](es \\union alice) where S = {\"empty\"}; "
    "invpsiacme[S](x) = x; evidential statement es; observation alice; end",
    "Box [d, e \\ d < e]",
    "select(1, d<10, 20>)",
    "not (a && b) || c == 2",
    "#O.w",
    "s pby.d \"add_B\"",
    '(["port":1] => "static", 1, 0, 0.5, 1136314800)',
]


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
def test_round_trip_fixed_sources(source):
    tree = parse(source)
    assert parse(pretty_print(tree)) == tree


def test_pretty_rejects_empty_where():
    with pytest.raises(ValidationError):
        pretty_print(WhereExpr(Ident("x"), ()))


def test_pretty_rejects_an_operator_outside_the_grammar():
    # a built tree may name one; its text would not parse back
    with pytest.raises(ValidationError, match="'&'"):
        pretty_print(BinOp("&", Ident("x"), Ident("y")))


@pytest.mark.parametrize("tree", [
    StreamUnary("nnext", IntLit(1)),
    StreamBin("bogus", IntLit(1), IntLit(2)),
    CtxBin("bogus", IntLit(1), IntLit(2)),
    UnaryOp("?", IntLit(1)),
], ids=lambda tree: type(tree).__name__)
def test_pretty_rejects_any_operator_node_outside_the_grammar(tree):
    with pytest.raises(ValidationError, match=re.escape(repr(tree.op))):
        pretty_print(tree)


# random trees: a compact generator over the expression grammar

_names = st.sampled_from(["x", "y", "zz", "flow-start", "es"])


def _leaf():
    return st.one_of(
        _names.map(Ident),
        st.integers(0, 99).map(IntLit),
        st.floats(0, 1, allow_nan=False, allow_infinity=False,
                  width=32).map(lambda f: RealLit(float(repr(f)))),
        st.sampled_from(["p", "limb on my car", 'quo"te']).map(StringLit),
        st.just(NoObsLit()),
        st.sampled_from(["eod", "bod", "INF+", "INF-"]).map(SentinelLit),
        st.just(HashExpr(None)),
        _names.map(lambda n: HashExpr(Ident(n))),
    )


def _compound(children):
    binop = st.tuples(st.sampled_from(["+", "-", "*", "/", "==", "<", "&&"]),
                      children, children).map(lambda t: BinOp(*t))
    stream = st.tuples(st.sampled_from(["fby", "wvr", "upon", "and"]),
                       children, children,
                       st.sampled_from([None, "d"])).map(
        lambda t: StreamBin(t[0], t[1], t[2], t[3]))
    unary = st.tuples(st.sampled_from(["first", "next", "iseod", "neg", "not"]),
                      children).map(lambda t: StreamUnary(*t))
    at = st.tuples(children, children,
                   st.sampled_from([None, "d"])).map(lambda t: AtExpr(*t))
    ctx = st.tuples(st.sampled_from(["union", "intersection", "projection",
                                     "in", "isSubContext", "difference"]),
                    children, children).map(lambda t: CtxBin(*t))
    # bounds are leaves other than names, so that no range drawn is large
    bound = _leaf().filter(lambda n: not isinstance(n, Ident))
    rng = st.tuples(bound, bound, st.none() | bound).map(
        lambda t: RangeLit(*t))
    cond = st.tuples(children, children, children).map(lambda t: IfExpr(*t))
    tup = st.lists(children, min_size=2, max_size=4).map(
        lambda xs: TupleLit(tuple(xs)))
    brace = st.lists(children, min_size=0, max_size=3).map(
        lambda xs: BraceLit(tuple(xs)))
    call = st.tuples(_names, st.lists(children, min_size=1, max_size=2)).map(
        lambda t: Call(Ident(t[0]), tuple(t[1])))
    where = st.tuples(children, _names, children).map(
        lambda t: WhereExpr(t[0], (VarDecl(t[1], t[2]),)))
    zero = children.map(ZeroObs)
    return st.one_of(binop, stream, unary, at, ctx, rng, cond, tup, brace,
                     call, where, zero)


_trees = st.recursive(_leaf(), _compound, max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_round_trip_random_trees(tree):
    assert parse(pretty_print(tree)) == tree


def test_every_parse_error_span_inside_input():
    bad = ["x +", "(a, b", "x where", "[a:", "if a then b fi",
           "observation", "x where y = 1 end", "{a, }"]
    for source in bad:
        with pytest.raises((FlucidSyntaxError, LexicalError)) as err:
            parse(source)
        span = err.value.span
        assert 0 <= span.offset <= len(source) + 1


# random text over the language's alphabet: every failure is a
# FlucidError, and positions agree with offsets

_SOUP = st.lists(st.sampled_from([
    "x", "flow-start", "INF", "INF+", "-INF", "\\O(", "\\0", "\\union",
    "\\frob", "\\", "/*", "*/", "//", '"', '\\"', "0", "42", "1.5", "2e3",
    "²", "١", "é", "\x00", "\x0b", "\t", "\r", "\n", " ", "#JAVA", "#",
    "(", ")", "[", "]", "{", "}", "<", ">", ",", ";", ":", ".", "=", "=>",
    "+", "-", "*", "/", "%", "@", "$", "!", "&&", "||", "~",
    "where", "end", "fby", "pby", "first", "if", "then", "else", "fi",
    "observation", "dimension", "in", "to", "Box", "select", "bel",
]), max_size=40).map("".join)


def _assert_position(text, span):
    line_start = text.rfind("\n", 0, span.offset) + 1
    assert (span.line, span.col) == (text.count("\n", 0, span.offset) + 1,
                                     span.offset - line_start + 1)


@settings(max_examples=400, deadline=None)
@given(_SOUP)
def test_random_text_raises_only_flucid_errors(text):
    try:
        toks = tokenize(text)
        for i in range(len(toks)):
            _assert_position(text, toks.span(i, i))
    except LexicalError as err:
        _assert_position(text, err.span)
    try:
        tree = parse(text)
    except FlucidError as err:
        _assert_position(text, err.span)
        return
    for node in walk(tree):
        _assert_position(text, node.span)
    try:
        analyze(tree)
    except FlucidError as err:
        for record in getattr(err, "records", ()):
            _assert_position(text, record.span)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_analyze_on_random_trees_raises_only_flucid_errors(tree):
    # random text seldom parses; printed random trees always do
    text = pretty_print(tree)
    tree = parse(text)
    for node in walk(tree):
        _assert_position(text, node.span)
    try:
        analyze(tree)
    except FlucidError as err:
        spans = ([r.span for r in getattr(err, "records", ())]
                 or [getattr(err, "span", None)])
        for span in spans:
            assert span is not None
            _assert_position(text, span)


def test_node_positions_deep_in_a_long_document():
    records = [{"ts": 1_600_000_000 + k,
                "ipaddr": "10.0.%d.%d" % divmod(k, 256),
                "mac": "aa:bb:cc:dd:%02x:%02x" % divmod(k, 256),
                "hostname": "host-%d" % k} for k in range(2000)]
    text = encode_log(records, "log", "test", PRESETS["dhcp"], tz="UTC")
    last = parse(text).decls[-2]
    assert last.name == "log_o_2000"
    offset = text.index("observation log_o_2000 ")
    assert (last.span.line, last.span.col) == (2003, 3)
    assert (last.span.offset, last.span.end) == (offset,
                                                  text.index("\n", offset))
    _assert_position(text, last.span)


def test_pretty_print_refuses_a_string_holding_a_newline():
    with pytest.raises(ValidationError, match="newline"):
        pretty_print(StringLit("a\nb"))
