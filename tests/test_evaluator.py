"""Evaluator behavior.

Stream operators are pinned to the published reference rows (hardcoded
here) and cross-checked against the independent list-based oracle; the
demand machinery, context navigation, forensic coercions, and the
reconstruction dispatch get direct contract tests.
"""

import inspect
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from flucid import era, evaluator
from flucid.calculus import ContextTypeError
from flucid.evaluator import MAX_DEPTH, EvaluationError, Evaluator, evaluate
from flucid.semantics import analyze, rewrite_to_core
from flucid.syntax import parse, pretty_print, tokenize
from flucid.values import (
    BOD,
    EOD,
    ContextSet,
    EvidentialStatement,
    FlucidError,
    Observation,
    ObservationSequence,
    SimpleContext,
    ValidationError,
)

from oracles import BOD as OBOD
from oracles import EOD as OEOD
from oracles import ref_stream_op
from test_syntax import _trees

HERE = os.path.dirname(os.path.abspath(__file__))


def run(src, **kw):
    return evaluate(src, **kw)


def at(src, pairs, **kw):
    return evaluate(src, context=SimpleContext(pairs), **kw)


# ---------------------------------------------------------------------------
# Demand machinery
# ---------------------------------------------------------------------------


def test_scalar_where():
    assert run("x + 1 where x = 41; end") == 42


def test_recursive_stream_definition():
    assert run("N @.d 2 where N = 42 fby.d (N + 1); end") == 44


def test_condition_is_strict_branches_are_lazy():
    # the dead branch divides by zero; laziness means no error
    assert run("if 1 < 2 then 7 else 1 / 0 fi") == 7
    assert run("if 2 < 1 then 1 / 0 else 7 fi") == 7


def test_condition_sentinel_propagates():
    assert run("if iseod.d X then 1 else 2 fi @.d 5 "
               "where X = d<1>; end") == 1
    assert run("(if X > 0 then 1 else 2 fi) @.d 5 "
               "where X = d<1>; end") is EOD


def test_a_function_bound_to_a_variable_is_called():
    assert run("g(3) where g = f; f(x) = x + 1; end") == 4


def test_a_function_passed_as_an_argument_is_called():
    assert run("h(f) where f(x) = x * 2; h(k) = k(21); end") == 42


@pytest.mark.parametrize("src", [
    "r where dimension S : {1, 2}; r = f[S](#.d); f[T](y) = y @.d 3; end",
    "r where r = g(#.d); g(y) = y @.d 3; end",
])
def test_a_formal_is_evaluated_where_it_occurs_with_dimension_formals(src):
    # the argument fails at the call's context and is no statement or
    # sequence, so f binds it lazily like g does
    assert run(src) == 3


def test_cycle_is_reported_with_its_members():
    with pytest.raises(EvaluationError) as err:
        run("x where x = y; y = x; end")
    message = str(err.value)
    assert "cyclic" in message and "x" in message and "y" in message


def test_self_cycle_is_reported():
    with pytest.raises(EvaluationError, match="cyclic"):
        run("x where x = x + 1; end")


def test_cycle_names_where_each_definition_is():
    with pytest.raises(EvaluationError) as err:
        run("x where\n  x = y;\n  y = x;\nend")
    assert str(err.value) == \
        "cyclic definition: x -> y -> x (x at 2:3, y at 3:3)"


def test_fresh_evaluators_store_the_same_keys():
    # a key names its call frame, which each evaluator numbers from 1
    analysis = analyze(parse(
        "f(2) + f(3) where f(x) = y where y = x + 1; end; end"))
    keys = []
    for _ in range(2):
        ev = Evaluator(analysis)
        assert ev.run() == 7
        keys.append(list(ev.warehouse))
    assert keys[0] == keys[1] == [("y", SimpleContext(), 1),
                                  ("y", SimpleContext(), 2)]


def test_warehouse_computes_each_demand_once():
    lines = []
    src = "y + y + y where y = 40 + 2; end"
    assert evaluate(src, trace=lines.append) == 126
    demands = [ln for ln in lines if ln.split()[1].startswith("y")]
    assert len(demands) == 1
    assert demands[0].startswith("DEMAND y")
    assert " @ " in demands[0] and " -> 42" in demands[0]


def test_evaluator_recovers_after_depth_and_cycle_errors():
    # one instance keeps its warehouse across runs; a failed run must
    # leave no demand chain or depth behind.  Index 5000 nests about
    # 15000 deep: it fails past the limit, on a resumed stack.
    ev = Evaluator(analyze(parse(
        "if #e > 0 then c else N fi "
        "where N = 42 fby.d (N + 1); c = c + 1; end")), max_depth=6000)

    def at_index(d, e=0):
        return ev.run(SimpleContext({"d": d, "e": e}))

    with pytest.raises(EvaluationError, match="demand depth exceeded"):
        at_index(5000)
    assert at_index(3) == 45
    with pytest.raises(EvaluationError, match="cyclic definition: c -> c"):
        at_index(0, e=1)
    # with the shallower indices kept, the failed demand now succeeds
    assert [at_index(d) for d in range(250, 5001, 250)][-1] == 5042


def test_deep_stream_index_evaluates_at_the_default_limit():
    assert run("N @.d 10000 where N = 42 fby.d (N + 1); end") == 10042


def test_cycle_across_resumed_stacks_is_reported():
    # each definition nests one evaluation: the cycle spans two cuts
    n = 5001
    decls = "".join("a%d = a%d; " % (k, (k + 1) % n) for k in range(n))
    with pytest.raises(EvaluationError) as err:
        run("a0 where %send" % decls)
    assert str(err.value).startswith("cyclic definition: a0 -> a1 -> a2")
    assert " -> a5000 -> a0 (a0 at 1:" in str(err.value)


SUM_WVR = """S @.d %d
where
  S = X fby.d (S + next.d X);
  X = (#.d * 2) wvr.d (#.d %% 2 == 0);
end
"""


def test_filter_elements_are_kept_in_the_warehouse():
    # the filter's elements and position counters are demands that the
    # warehouse keeps once each, so its size is linear in the index
    sizes = {}
    for n in (200, 400):
        ev = Evaluator(analyze(parse(SUM_WVR % n)))
        assert ev.run() == 2 * n * (n + 1)
        sizes[n] = len(ev.warehouse)
    assert sizes[400] <= 2.2 * sizes[200]


def test_cold_filter_demand_reaches_past_one_stack():
    assert run("(X wvr.d Y) @.d 3000 "
               "where X = #.d * 2; Y = #.d % 2 == 0; end") == 12000


def test_deep_demands_inside_a_call_resume():
    # a retry re-enters the call, and must find the call's frame again
    assert run("f(1) where f(x) = Z @.d 5000; "
               "Z = 42 fby.d (Z + 1); end") == 5042
    assert run("f(3000) where f(n) = (X wvr.d Y) @.d n; "
               "X = #.d * 2; Y = #.d % 2 == 0; end") == 12000


def test_a_failure_on_a_resumed_stack_reaches_its_handler():
    # the first candidate transition function fails past max_depth on a
    # resumed stack; as on one deep stack, the claim goes on to the next
    src = _case("acme_no_alice.ipl")
    failing = src.replace("end; // inv\n", "end; // inv\n"
                          '  aaa[S](c, s) = if c == "take" then Z @.d 1 '
                          "else s fi;\n"
                          "  Z = 1 + next.d Z;\n", 1)
    assert failing != src
    assert repr(run(failing, max_depth=8000)) == repr(run(src))


@pytest.fixture
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)     # the interpreter's default
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("src, value", [
    ("f(1000) where f(n) = if n < 1 then 0 else 1 + f(n - 1) fi; end", 1000),
    (" + ".join(["1"] * 5000), 5000),
    ("-" * 5001 + "1", -1),
], ids=["recursion", "flat-sum", "unary-chain"])
def test_nesting_through_no_demand_resumes(default_recursion_limit, src,
                                           value):
    # calls, operators and formals nest without a demand between them;
    # they resume on fresh stacks as demands do
    assert run(src) == value
    assert sys.getrecursionlimit() == 1000


def _stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_a_caller_deep_in_its_stack_gets_a_positioned_error(
        default_recursion_limit):
    src = "N @.d 400 where N = 42 fby.d (N + 1); end"
    analysis = analyze(parse(src))

    def nested(frames):
        return nested(frames - 1) if frames > 0 else evaluate(analysis)
    with pytest.raises(FlucidError) as err:
        nested(900 - _stack_depth())
    assert str(err.value).startswith("demand depth exceeded")
    span = err.value.span
    assert span is not None and 0 <= span.offset < span.end <= len(src)
    assert evaluate(analysis) == 442


def test_distinct_contexts_are_distinct_demands():
    lines = []
    src = "(y @.d 1) + (y @.d 2) where y = #d; end"
    assert evaluate(src, trace=lines.append) == 3
    demands = [ln for ln in lines if ln.split()[1].startswith("y")]
    assert len(demands) == 2


@pytest.mark.parametrize("src, kw, message", [
    ('if "a" then 1 else 2 fi', {}, "must be a truth value"),
    ("c where c = c + 1; end", {}, "cyclic definition: c -> c"),
    ("N @.d 1000 where N = 42 fby.d (N + 1); end", {"max_depth": 200},
     "demand depth exceeded"),
    ("f(0) where f(n) = 1 + f(n + 1); end", {"max_depth": 2000},
     "^demand depth exceeded max_depth=2000: .*unbounded.* recursion"),
    ("N @.d 1.5 where N = 42 fby.d (N + 1); end", {},
     "stream index must be an integer"),
    ("last.d N where N = 1 fby.d (N + 1); end", {"max_depth": 300},
     "demand depth exceeded"),
    ('1 + "a"', {}, "'\\+' is not defined on string"),
    ('1 wvr.d "a"', {}, "must be a truth value"),
], ids=["if-string", "cycle", "depth", "endless-recursion", "real-index",
        "endless-last", "int-plus-string", "wvr-string-guard"])
def test_evaluation_errors_carry_a_position(src, kw, message):
    with pytest.raises(EvaluationError, match=message) as err:
        run(src, **kw)
    span = err.value.span
    assert span is not None and span.line >= 1
    assert 0 <= span.offset < span.end <= len(src)


@pytest.mark.parametrize("src, outcome", [
    ("1 / 0", "EvaluationError: division by zero"),
    ("1 % 0", "EvaluationError: modulo by zero"),
    ("d where dimension d = 5; end",
     "EvaluationError: dimension 'd' must be defined by a tag set"),
    ("Box [d \\ true] where dimension d; end",
     "EvaluationError: Box needs finite declared dimensions; 'd' is not"),
    ("~true", "EvaluationError: ~ needs an integer"),
    ("1 band 2.0", "EvaluationError: 'band' needs integers, got real"),
    ("f(1) where f = 3; end", "EvaluationError: integer is not callable"),
    ("d<1,2> @ [1]", "EvaluationError: navigation target must be a context "
     "or forensic value, got array"),
    ("d where dimension d : {1 to 3 step 0}; end",
     "ValidationError: a range's step must not be zero"),
    ("{1.5 to 3}", "ValidationError: a range takes integer bounds and step, "
     "not real"),
    ('{"a" to 3}', "ValidationError: a range takes integer bounds and step, "
     "not string"),
    ("{0 to $}", "ValidationError: a range takes integer bounds and step, "
     "not observation"),
    ("combine(1, 2)", "es{os{ (1, 1, 0, 1.0) }, os{ (2, 1, 0, 1.0) }}"),
    ("product(1, 2)", "es{os{ (1, 1, 0, 1.0), (2, 1, 0, 1.0) }}"),
    ('(#o).w where observation o = ("p", 1, 0, 0.5); end', "0.5"),
    ("select(eod, d<1,2>)", "eod"),
])
def test_seldom_taken_paths_give_a_value_or_a_positioned_error(src, outcome):
    try:
        got = repr(run(src))
    except FlucidError as err:
        span = err.span
        assert span is not None and 0 <= span.offset < span.end <= len(src)
        got = "%s: %s" % (type(err).__name__, err)
    assert got == outcome


def test_word_operators_report_errors_as_written():
    with pytest.raises(EvaluationError, match="'neg' is not defined on"):
        run('neg "a"')
    with pytest.raises(EvaluationError, match="'-' is not defined on"):
        run('-"a"')
    with pytest.raises(EvaluationError, match="must be a truth value"):
        run('"a" nand 1')


# ---------------------------------------------------------------------------
# The published operator rows
# ---------------------------------------------------------------------------

X_SRC = "d<1, 2, 3, 4, 5, 6, 7, 8, 9, 10>"
Y_SRC = ("d<true, false, false, true, false, false, true, true, "
         "false, true>")
YI_SRC = "d<1, 0, 0, 1, 0, 0, 1, 1, 0, 1>"

X_VALUES = list(range(1, 11))
Y_VALUES = [True, False, False, True, False, False, True, True, False, True]
YI_VALUES = [int(v) for v in Y_VALUES]

COLUMNS = list(range(-1, 12))

E = EOD
B = BOD

# One normative row per operator: the value at every column -1..11.
# fby is sampled as X fby X (the table's own arrangement); pby and the
# pointwise logic map take the 0/1 rendering of the guard stream.
ROWS = [
    ("first", "first.d X", [1] * 13),
    ("last", "last.d X", [10] * 13),
    ("next", "next.d X", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, E, E, E]),
    ("prev", "prev.d X", [B, B, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, E]),
    ("fby", "X fby.d X", [B, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, E]),
    ("pby", "X pby.d YI", [B, 1, 0, 0, 1, 0, 0, 1, 1, 0, 1, 1, E]),
    ("wvr", "X wvr.d Y", [B, 1, 4, 7, 8, 10, E, E, E, E, E, E, E]),
    ("rwvr", "X rwvr.d Y", [B, 10, 8, 7, 4, 1, B, B, B, B, B, B, B]),
    ("nwvr", "X nwvr.d Y", [B, 2, 3, 5, 6, 9, E, E, E, E, E, E, E]),
    ("nrwvr", "X nrwvr.d Y", [B, 9, 6, 5, 3, 2, B, B, B, B, B, B, B]),
    ("asa", "X asa.d Y", [1] * 13),
    ("nasa", "X nasa.d Y", [2] * 13),
    ("ala", "X ala.d Y", [10] * 13),
    ("nala", "X nala.d Y", [9] * 13),
    ("upon", "X upon.d Y", [B, 1, 2, 2, 2, 3, 3, 3, 4, 5, 5, 6, E]),
    ("rupon", "X rupon.d Y", [B, 10, 9, 9, 8, 7, 7, 7, 6, 6, 6, 5, B]),
    ("nupon", "X nupon.d Y", [B, 1, 1, 2, 3, 3, 4, 5, 5, 5, 6, 6, E]),
    ("nrupon", "X nrupon.d Y",
     [B, 10, 10, 9, 9, 9, 8, 7, 7, 6, 5, 5, B]),
    ("neg", "neg X", [B, -1, -2, -3, -4, -5, -6, -7, -8, -9, -10, E, E]),
    ("not", "not Y",
     [B, False, True, True, False, True, True, False, False, True, False,
      E, E]),
    ("and", "X and.d YI", [B, 1, 0, 0, 1, 0, 0, 1, 1, 0, 1, E, E]),
]


def _row_program(expr):
    return ("%s where X = %s; Y = %s; YI = %s; end"
            % (expr, X_SRC, Y_SRC, YI_SRC))


def _sample_row(expr):
    analysis = analyze(parse(_row_program(expr)))
    out = []
    for i in COLUMNS:
        ev = Evaluator(analysis)
        out.append(ev.run(SimpleContext({"d": i})))
    return out


@pytest.mark.parametrize("name,expr,expected",
                         [(r[0], r[1], r[2]) for r in ROWS],
                         ids=[r[0] for r in ROWS])
def test_operator_row(name, expr, expected):
    assert _sample_row(expr) == expected


def _oracle_args(name):
    if name in ("neg",):
        return X_VALUES, Y_VALUES
    if name in ("not",):
        return Y_VALUES, Y_VALUES
    if name == "fby":
        return X_VALUES, X_VALUES
    if name in ("pby", "and"):
        return X_VALUES, YI_VALUES
    return X_VALUES, Y_VALUES


@pytest.mark.parametrize("name,expr,expected",
                         [(r[0], r[1], r[2]) for r in ROWS],
                         ids=[r[0] for r in ROWS])
def test_operator_row_matches_oracle(name, expr, expected):
    xs, ys = _oracle_args(name)
    translate = {OEOD: EOD, OBOD: BOD}
    got = [ref_stream_op(name, xs, ys, i) for i in COLUMNS]
    assert [translate.get(v, v) for v in got] == expected


def test_second_and_prelast():
    assert _sample_row("second.d X") == [2] * 13
    assert _sample_row("prelast.d X") == [9] * 13


def test_prelast_needs_two_elements():
    assert run("prelast.d Z where Z = d<5>; end") is BOD


def test_bitwise_operators():
    assert run("(12 band 10)") == 8
    assert run("(12 bor 10)") == 14
    assert run("(12 bxor 10)") == 6


def test_xor_family():
    assert run("(1 xor 0)") == 1
    assert run("(1 xor 1)") == 0
    assert run("(1 nxor 1)") == 1
    assert run("(0 nand 1)") == 1
    assert run("(1 nand 1)") == 0
    assert run("(0 nor 0)") == 1
    assert run("(1 or 0)") == 1


# random agreement with the oracle, unequal lengths included

_BIN_OPS = ["fby", "pby", "wvr", "nwvr", "rwvr", "nrwvr", "asa", "nasa",
            "ala", "nala", "upon", "nupon", "rupon", "nrupon"]


@settings(max_examples=120, deadline=None)
@given(
    op=st.sampled_from(_BIN_OPS),
    xs=st.lists(st.integers(-9, 9), min_size=1, max_size=7),
    ys=st.lists(st.booleans(), min_size=1, max_size=7),
    i=st.integers(-2, 9),
)
def test_random_streams_agree_with_oracle(op, xs, ys, i):
    x_src = "d<%s>" % ", ".join(str(v) for v in xs)
    y_src = "d<%s>" % ", ".join("true" if v else "false" for v in ys)
    src = "X %s.d Y where X = %s; Y = %s; end" % (op, x_src, y_src)
    got = at(src, {"d": i})
    want = ref_stream_op(op, xs, ys, i)
    want = {OEOD: EOD, OBOD: BOD}.get(want, want)
    assert got == want or got is want


@settings(max_examples=60, deadline=None)
@given(
    op=st.sampled_from(["first", "second", "last", "prelast",
                        "next", "prev"]),
    xs=st.lists(st.integers(-9, 9), min_size=1, max_size=7),
    i=st.integers(-2, 9),
)
def test_random_unary_agrees_with_oracle(op, xs, i):
    x_src = "d<%s>" % ", ".join(str(v) for v in xs)
    got = at("%s.d X where X = %s; end" % (op, x_src), {"d": i})
    want = ref_stream_op(op, xs, xs, i)
    want = {OEOD: EOD, OBOD: BOD}.get(want, want)
    assert got == want or got is want


# direct evaluation agrees with evaluation of the core-rewritten tree

_REWRITE_SPOTS = [
    "X fby.d Y", "X pby.d Y", "X wvr.d Y", "X nwvr.d Y", "X rwvr.d Y",
    "X nrwvr.d Y", "X upon.d Y", "X nupon.d Y", "X rupon.d Y",
    "X nrupon.d Y", "X asa.d Y", "X nasa.d Y", "X ala.d Y", "X nala.d Y",
    "first.d X", "second.d X", "last.d X", "prelast.d X", "next.d X",
    "prev.d X", "neg X", "not Y",
]


def _operands(xs, ys):
    # X and Y are also defined below zero, where every operator reads an
    # element as bod
    return ("X = if #.d < 0 then #.d else d<%s> fi; "
            "Y = if #.d < 0 then eod else d<%s> fi;" % (xs, ys))


@pytest.mark.parametrize("expr", _REWRITE_SPOTS)
def test_direct_matches_core_rewrite(expr):
    # analyze expands the filters, last and prelast, and runs fby, pby,
    # first, second, next, prev, neg and not directly; the full rewrite
    # must agree, below zero included, where a filter's position counter
    # must not recurse without end
    src = "%s where %s end" % (expr, _operands(
        "3, 1, 4, 1, 5", "true, false, true, true, false"))
    tree = parse(src)
    core = rewrite_to_core(tree)
    for i in range(-3, 9):
        ctx = SimpleContext({"d": i})
        direct = Evaluator(analyze(tree)).run(ctx)
        rewritten = Evaluator(analyze(core)).run(ctx)
        assert direct == rewritten or direct is rewritten, (expr, i)


_WORDS = ["X and Y", "X or Y", "X xor Y", "X nand Y", "X nor Y",
          "X nxor Y"]
_ELEMENTS = st.one_of(st.integers(-2, 2).map(str),
                      st.sampled_from(["true", "false", "eod", "bod"]))


def _value_or_error(program, ctx):
    try:
        return repr(evaluate(program, context=ctx, max_depth=3000))
    except FlucidError as err:
        return type(err).__name__


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expr=st.sampled_from(_REWRITE_SPOTS + _WORDS),
       xs=st.lists(_ELEMENTS, min_size=1, max_size=5),
       ys=st.lists(_ELEMENTS, min_size=1, max_size=5))
def test_evaluation_agrees_with_the_core_rewrite_on_any_elements(expr, xs,
                                                                 ys):
    # markers and non-truth values inside the operands included: an
    # operator analyze expands means its template by construction, and
    # one evaluated directly must mean the same
    tree = parse("%s where %s end"
                 % (expr, _operands(", ".join(xs), ", ".join(ys))))
    core = rewrite_to_core(tree)
    for i in range(-3, 9):
        ctx = SimpleContext({"d": i})
        assert _value_or_error(tree, ctx) == _value_or_error(core, ctx), i


@pytest.mark.parametrize("op, value", [("last", 10499), ("prelast", 10498)])
def test_last_reads_a_long_finite_stream(op, value):
    # the end of a stream is found by demand, with no bound of its own
    assert run("%s.d N where N = if #.d < 10500 then #.d else eod fi; end"
               % op) == value


# every evaluation returns or raises a FlucidError with a position

def _outcome(text, stack_budget):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluator, "_STACK_BUDGET", stack_budget)
        try:
            return repr(evaluate(text, max_depth=300))
        except FlucidError as err:
            spans = ([r.span for r in getattr(err, "records", ())]
                     or [err.span])
            for span in spans:
                assert span is not None, (text, err)
                assert 0 <= span.offset < span.end <= len(text), (text, err)
            return "%s at %s" % (err, spans)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_evaluate_on_random_trees_raises_only_positioned_errors(tree):
    # any other exception, the stack unwinding signal or a RecursionError
    # included, fails the test; a stack budget of 4 cuts random programs
    # at operators, conditionals and formals as well as at demands, and
    # resuming them on fresh stacks must change no outcome
    text = pretty_print(tree)
    assert _outcome(text, 4) == _outcome(text, evaluator._STACK_BUDGET)


@pytest.mark.parametrize("entry", [tokenize, parse, analyze, rewrite_to_core,
                                   evaluate, era.load_fsm, era.load_es],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("value", [None, 5, b"x", [1]], ids=repr)
def test_entry_points_reject_an_argument_of_the_wrong_type(entry, value):
    with pytest.raises(FlucidError, match=type(value).__name__):
        entry(value)


# ---------------------------------------------------------------------------
# Context navigation
# ---------------------------------------------------------------------------


def test_hash_of_dimension_and_default():
    assert at("#d", {"d": 3}) == 3
    assert run("#d") == 0


def test_bare_hash_is_the_current_context():
    got = at("#", {"d": 1, "e": 2})
    assert got == SimpleContext({"d": 1, "e": 2})


def test_at_with_context_literal_overrides():
    assert at("x @ [d:5] where x = #d; end", {"d": 1, "e": 7}) == 5
    assert at("x @ [d:5] where x = #e; end", {"d": 1, "e": 7}) == 7


def test_at_context_set_maps_in_order():
    got = run("x @ {[d:1], [d:2]} where x = #d + 40; end")
    assert got == (41, 42)


def test_at_integer_uses_default_dimension():
    assert run("x @ 3 where x = #d; end") == 3


def test_at_dimension_suffix():
    assert run("x @.e 9 where x = #e; end") == 9


def test_at_sentinel_index_propagates():
    assert run("x @.d eod where x = #d; end") is EOD


def test_observation_gating_default_threshold():
    assert run("1 @ o where observation o = (\"p\", 1, 0, 0.9); end") == 1
    assert run("1 @ o where observation o = (\"p\", 1, 0, 0.3); end") is EOD


def test_observation_gating_custom_threshold():
    src = "1 @ o where observation o = (\"p\", 1, 0, 0.3); end"
    assert run(src, threshold=0.2) == 1
    assert run(src, threshold=0.95) is EOD


def test_observation_with_context_property_embeds_it():
    src = "#d @ o where observation o = ([d:7], 1, 0); end"
    assert run(src) == 7


def test_context_set_navigation_evaluates_each_member():
    src = "x @ {[d:1], [d:2], [d:3], [d:4]} where x = #d * #d; end"
    assert run(src) == (1, 4, 9, 16)


def test_entry_points_share_the_demand_depth_limit():
    src = "N @.d %d where N = 42 fby.d (N + 1); end"
    limit = 4500                # more than one stack's nesting
    defaults = [inspect.signature(entry).parameters["max_depth"].default
                for entry in (Evaluator, evaluate)]
    assert defaults == [MAX_DEPTH, MAX_DEPTH]

    def fails(entry, index):
        try:
            entry(src % index, max_depth=limit)
        except EvaluationError:
            return True
        return False

    def direct(text, max_depth):
        return Evaluator(analyze(parse(text)), max_depth=max_depth).run()

    lo, hi = 1, 4000            # the direct entry point passes lo, fails hi
    assert not fails(direct, lo) and fails(direct, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fails(direct, mid):
            hi = mid
        else:
            lo = mid
    assert not fails(evaluate, lo)
    assert fails(evaluate, hi)


def test_box_builds_a_context_set():
    src = ("Box [a \\ #a > 1] where dimension a : {1, 2, 3}; end")
    got = run(src)
    assert got == ContextSet([SimpleContext({"a": 2}),
                              SimpleContext({"a": 3})])


def test_select_indexes_a_stream():
    assert run("select(1, d<10, 20, 30>)") == 20


# ---------------------------------------------------------------------------
# Forensic values
# ---------------------------------------------------------------------------


def test_observation_defaults_and_description():
    got = run("o where observation o = "
              "(\"seen\" => \"first sighting\", 2); end")
    assert isinstance(got, Observation)
    assert got.property == "seen" and got.min == 2 and got.max == 0
    assert got.w == 1.0 and got.description == "first sighting"


def test_no_observation_literal():
    got = run("o where observation o = $; end")
    assert got.is_no_observation()


def test_zero_observation_literal():
    got = run("o where observation o = \\0(\"p\"); end")
    assert got.is_zero_observation() and got.property == "p"


def test_sequence_coercion_and_name():
    got = run("s where observation sequence s = "
              "{(\"A\", 1, 0), (\"B\", 2, 1, 0.8)}; end")
    assert isinstance(got, ObservationSequence)
    assert got.name == "s" and len(got.observations) == 2
    assert got.observations[1].w == 0.8


def test_statement_coercion_groups_sequences():
    got = run("es where "
              "observation sequence a = {(\"A\", 1, 0)}; "
              "observation sequence b = {(\"B\", 1, 0)}; "
              "evidential statement es = {a, b}; end")
    assert isinstance(got, EvidentialStatement)
    assert {os.name for os in got.sequences} == {"a", "b"}


def test_statement_member_by_name():
    got = run("es.a where "
              "observation sequence a = {(\"A\", 1, 0)}; "
              "evidential statement es = {a}; end")
    assert isinstance(got, ObservationSequence) and got.name == "a"


def test_observation_member_access():
    src = "o.%s where observation o = (\"p\", 2, 3, 0.5, 9); end"
    assert run(src % "property") == "p"
    assert run(src % "min") == 2
    assert run(src % "max") == 3
    assert run(src % "w") == 0.5
    assert run(src % "t") == 9


def test_hash_views_unfold_the_hierarchy():
    src_tail = ("where observation o = (\"p\", 1, 0, 0.75); "
                "observation sequence s = {o, o}; "
                "evidential statement es = {s}; end")
    seqs = run("es.# " + src_tail)
    assert isinstance(seqs, tuple) and len(seqs) == 1
    obs = run("s.# " + src_tail)
    assert isinstance(obs, tuple) and len(obs) == 2
    assert run("#o.w " + src_tail) == 0.75


def test_forensic_prepend_with_fby():
    got = run("o fby.d s where "
              "observation o = (\"head\", 1, 0); "
              "observation sequence s = {(\"tail\", 1, 0)}; end")
    assert isinstance(got, ObservationSequence)
    assert [ob.property for ob in got.observations] == ["head", "tail"]


def test_combine_widens():
    got = run("a combine b where "
              "observation sequence a = {(\"A\", 1, 0)}; "
              "observation sequence b = {(\"B\", 1, 0)}; end")
    assert isinstance(got, ObservationSequence) or \
        isinstance(got, EvidentialStatement)


def test_product_crosses_sequences():
    got = run("a product b where "
              "observation sequence a = {(\"A\", 1, 0), (\"B\", 1, 0)}; "
              "observation sequence b = "
              "{(\"x\", 1, 0), (\"y\", 1, 0), (\"z\", 1, 0)}; end")
    assert isinstance(got, EvidentialStatement)
    assert len(got.sequences) == 6
    assert all(len(os.observations) == 2 for os in got.sequences)


# how a value is read as forensic: values.lift, for every declaration
# and operator below, and the observation rule of `observation o = E`
@pytest.mark.parametrize("src, outcome", [
    ("os where observation sequence os = 5; end", "os{ (5, 1, 0, 1.0) }"),
    ("os where observation sequence os = [d:1]; end",
     "os{ ([d:1], 1, 0, 1.0) }"),
    ("os where observation sequence os = {[d:1], [d:2]}; end",
     "os{ ([d:1], 1, 0, 1.0), ([d:2], 1, 0, 1.0) }"),
    ('os where observation sequence os = ("a", 1); end',
     'os{ ("a", 1, 0, 1.0) }'),
    ('os where observation sequence os = (("a", 1), "b"); end',
     'os{ ("a", 1, 0, 1.0), ("b", 1, 0, 1.0) }'),
    ('os where observation sequence os = (("a", 1), 5); end',
     'os{ (("a", 1), 5, 0, 1.0) }'),
    ("es where evidential statement es = 5; end",
     "es{os{ (5, 1, 0, 1.0) }}"),
    ('combine(("a", 1), 5)',
     'es{os{ ("a", 1, 0, 1.0) }, os{ (5, 1, 0, 1.0) }}'),
    ('product(("a", 1), 5)', 'es{os{ ("a", 1, 0, 1.0), (5, 1, 0, 1.0) }}'),
    ('o fby.d 5 where observation o = ("P", 1); end',
     'os{ ("P", 1, 0, 1.0), (5, 1, 0, 1.0) }'),
    ("product(5, 6)", "es{os{ (5, 1, 0, 1.0), (6, 1, 0, 1.0) }}"),
    ("combine(5, [d:1])",
     "es{os{ (5, 1, 0, 1.0) }, os{ ([d:1], 1, 0, 1.0) }}"),
    ('o where observation o = {"P"}; end', '("P", 1, 0, 1.0)'),
    ('o where observation o = ("a", "b"); end',
     "ValidationError: min must be an integer"),
    ('os where observation sequence os = ("a", -1); end',
     "ValidationError: min must be non-negative"),
    ("product(es, 1) where evidential statement es = 5; end",
     "EvaluationError: cannot use evidential statement as an observation "
     "sequence"),
])
def test_a_value_is_read_as_forensic_by_one_rule(src, outcome):
    try:
        got = repr(run(src))
    except FlucidError as err:
        got = "%s: %s" % (type(err).__name__, err)
    assert got == outcome


def test_bel_and_pl_builtins():
    src = "%s where observation o = (\"p\", 1, 0, 0.7); end"
    assert run(src % "bel(o)") == pytest.approx(0.7)
    assert run(src % "pl(o)") == pytest.approx(0.7)


def test_tag_membership():
    src = ("(\"take\" \\in P) where "
           "dimension P : {\"add\", \"take\"}; end")
    assert run(src) is True
    src = ("(\"drop\" \\in P) where "
           "dimension P : {\"add\", \"take\"}; end")
    assert run(src) is False


@pytest.mark.parametrize("src", [
    "(S \\union T) == {1 to 3} where dimension S : {1, 2}; "
    "dimension T : {1.0, 3}; end",
    "T \\in S where dimension T : {true}; dimension S : {1, 2}; end",
    "(S \\union S) == S where dimension S : ordered {1, 2}; end",
    "S == {1 to 2} where dimension S : {1, 2}; end",
    "1.0 \\in d where dimension d; end",
    "true \\in d where dimension d; end",
    "1 \\in d where dimension d; end",
])
def test_a_tag_set_is_its_tags(src):
    # a declaration's flags and the operator that made a set do not count,
    # and == decides membership, of the naturals too
    assert run(src) is True


def test_context_override_operator():
    got = run("([a:1, b:2] \\override [b:9])")
    assert got == SimpleContext({"a": 1, "b": 9})


def test_projection_on_dimension_names():
    got = run("([a:1, b:2] \\projection {a}) where "
              "dimension a; dimension b; end")
    assert got == SimpleContext({"a": 1})


@pytest.mark.parametrize("op", ["projection", "hiding"])
def test_a_selector_of_tags_names_no_dimensions(op):
    # {1} is no tuple of dimension names: projection matched nothing and
    # hiding kept every pair before it was an error
    src = "([d:1, e:2] \\%s {1}) where dimension d; dimension e; end" % op
    with pytest.raises(ContextTypeError, match="a tuple of dimension names "
                       "or a tag set, got array holding integer") as err:
        run(src)
    span = err.value.span
    assert src[span.offset:span.end] == "[d:1, e:2] \\%s {1}" % op


# ---------------------------------------------------------------------------
# Reconstruction dispatch
# ---------------------------------------------------------------------------


def _case(name):
    with open(os.path.join(HERE, "cases", name)) as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(os.listdir(os.path.join(HERE, "cases"))))
def test_trace_runs_on_every_case(name):
    lines = []
    ev = Evaluator(analyze(parse(_case(name))), trace=lines.append)
    traced = ev.run()
    assert lines and all(line.startswith("DEMAND ") for line in lines)
    assert len(lines) == len(ev.warehouse)      # each key is stored once
    assert traced.consistent == run(_case(name)).consistent


def test_a_tag_not_equal_to_itself_fails_its_declaration():
    src = "I where dimension W : {1e400 - 1e400}; I = W \\union W; end"
    with pytest.raises(ValidationError, match="tag nan is not == to "
                       "itself") as err:
        run(src)
    span = err.value.span
    assert src[span.offset:span.end] == "dimension W : {1e400 - 1e400};"


def test_tabulated_machine_shape():
    analysis = analyze(parse(_case("acme_no_alice.ipl")))
    ev = Evaluator(analysis)
    result = ev.run()
    assert result.consistent
    fsm = next(iter(ev._machines.values()))
    assert len(fsm.states) == 25
    assert sorted(fsm.events) == ["add_A", "add_B", "take"]
    per_event = {e: 0 for e in fsm.events}
    for steps in era.invert_transition(fsm).values():
        for event, _state in steps:
            per_event[event] += 1
    assert per_event == {"add_A": 15, "add_B": 15, "take": 16}


def _evaluated(fsm):
    """{pair: target} of the pairs an evaluator-built psi has evaluated,
    read off its memo."""
    memo = inspect.getclosurevars(fsm.psi).nonlocals["targets"]
    return {pair: q for pair, q in memo.items() if q is not evaluator._MISS}


@pytest.mark.parametrize("name, most", [
    ("acme.ipl", 6), ("acme_no_alice.ipl", 51), ("blackmail.ipl", 4)])
def test_a_claim_asks_only_the_pairs_its_search_reaches(name, most):
    # psi is evaluated on demand: of the 75 (event, state) pairs of the
    # printer machines and the 12 of Mr. A's, only those the layered
    # search or the declared hops reach are ever evaluated
    ev = Evaluator(analyze(parse(_case(name))))
    ev.run()
    (fsm,) = ev._machines.values()
    asked = _evaluated(fsm)
    assert 0 < len(asked) <= most < len(fsm.states) * len(fsm.events)


def test_a_pair_cut_during_the_search_resumes(monkeypatch):
    # each add_A guard demands deeper than one stack holds: the search is
    # cut while it asks the pair, and run's retry asks it again; a pair
    # first asked after run resumes the same way
    depth = 700
    assert depth > evaluator._STACK_BUDGET
    src = _case("acme_no_alice.ipl")
    deep = src.replace(
        '      if c == "add_A"\n',
        '      if c == "add_A" && (deep @.d %d) == %d\n' % (depth, depth)
    ).replace("    d1 = first s;\n",
              "    d1 = first s;\n    deep = 0 fby.d (deep + 1);\n", 1)
    assert deep.count("deep") == 3
    unwound = []
    check_claim = era.check_claim

    def spy(*args, **kw):
        try:
            return check_claim(*args, **kw)
        except evaluator._Cut:
            unwound.append(True)
            raise
    monkeypatch.setattr(era, "check_claim", spy)
    ev = Evaluator(analyze(parse(deep)))
    result = ev.run()
    assert unwound
    assert result == run(src)
    plain = Evaluator(analyze(parse(src)))
    plain.run()
    (fsm,), (table,) = ev._machines.values(), plain._machines.values()
    asked = _evaluated(fsm)
    assert asked and all(target == table.target(*pair)
                         for pair, target in asked.items())
    assert len(asked) < len(fsm.states) * len(fsm.events)
    assert era.invert_transition(fsm) == era.invert_transition(table)


def test_claim_result_repr_is_the_same_in_every_process():
    # a frozenset's order follows the hash seed; explanations print sorted
    code = ("import sys; from flucid.evaluator import evaluate; "
            "print(repr(evaluate(open(sys.argv[1]).read())))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(era.__file__)))
    outs = [subprocess.run(
        [sys.executable, "-c", code,
         os.path.join(HERE, "cases", "acme_no_alice.ipl")],
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=120).stdout
        for seed in ("1", "2")]
    assert "MSPR(" in outs[0]
    assert outs[0] == outs[1]


def test_printer_case_rejects_the_claim():
    result = run(_case("acme.ipl"))
    assert not result.consistent
    assert result.explanations == ()
    assert result.backtraces == ()


def test_printer_case_without_the_claim_is_consistent():
    result = run(_case("acme_no_alice.ipl"))
    assert result.consistent and result.backtraces
    final_states = {bt[-1][1].lower() for bt in result.backtraces}
    assert "(b_deleted,b_deleted)" in final_states


def test_blackmail_case_two_explanations():
    result = run(_case("blackmail.ipl"))
    assert result.consistent and result.route == "declared"
    paths = {tuple(s for _, s in bt) for bt in result.backtraces}
    assert paths == {
        ("(0,o1,o2)", "(1,u,o2)", "(2,u,t2)", "(1,u,t2)"),
        ("(0,o1,o2)", "(1,u,o2)", "(1,u,t2)"),
    }


def test_blackmail_machine_matches_its_fixture():
    ev = Evaluator(analyze(parse(_case("blackmail.ipl"))))
    ev.run()
    fsm = next(iter(ev._machines.values()))
    with open(os.path.join(HERE, "fixtures", "blackmail.fsm")) as fh:
        fixture = era.load_fsm(fh.read())
    assert fsm.states == fixture.states
    assert fsm.events == fixture.events
    assert era.invert_transition(fsm) == era.invert_transition(fixture)
    assert {label: prop.states for label, prop in fsm.properties.items()} \
        == {"(o1,o2)": {"(0,o1,o2)"}, "(u,o2)": {"(1,u,o2)"},
            "(u,t2)": {"(2,u,t2)", "(1,u,t2)"}}


# one edit per way a declared hypothesis fails to validate; each edit's
# text occurs once in hypothesis A and once in B
@pytest.mark.parametrize("old, new", [
    # the oldest item names no state: a string, then no label at all
    ('("(o1,o2)", 0);', '"(o1,o2)";'),
    ('("(o1,o2)", 0);', '0;'),
    # an annotation names an event that does not fire in its state
    ('("(u,o2)", 1) pby [es.#, I:"(u)"]',
     '("(u,o2)", 1) pby [es.#, I:"(u,t2)"]'),
    # an intermediate item names a state other than the one reached
    ('("(u,o2)", 1) pby', '("(u,t2)", 1) pby'),
    # the final observation's property fails in the state reached
    ("o_final pby", "o_early pby"),
])
def test_a_broken_declared_hypothesis_is_dropped(old, new):
    src = _case("blackmail.ipl").replace(
        "observation o_final =",
        'observation o_early = ("(u,o2)", 1);\n  observation o_final =')
    assert src.count(old) == 2
    whole = run(src)
    assert whole.route == "declared" and len(whole.backtraces) == 2
    only_b = run(src.replace(old, new, 1))
    assert only_b.route == "declared" and only_b.consistent
    assert only_b.backtraces == whole.backtraces[1:]
    neither = run(src.replace(old, new))
    assert (neither.consistent, neither.route, neither.backtraces) == \
        (False, "declared", ())


CHAIN_B = ('B = o_final pby [es.#, I:"d(u,t2)"] ("(u,o2)", 1) '
           'pby [es.#, I:"(u)"] ("(o1,o2)", 0);')


@pytest.mark.parametrize("spelled, respelled", [
    ("backtraces = [ A, B ];",
     "backtraces = if true then [ A, B ] else [ A, B ] fi;"),
    (CHAIN_B, 'B = o_final pby [es.#, I:"d(u,t2)"] T; '
              'T = ("(u,o2)", 1) pby [es.#, I:"(u)"] ("(o1,o2)", 0);'),
])
def test_a_respelled_claim_declares_the_same_hypotheses(spelled, respelled):
    # the declared hypotheses are whatever the claim function's body
    # evaluates to, however it is spelled
    src = _case("blackmail.ipl")
    assert spelled in src
    result = run(src.replace(spelled, respelled))
    assert result.route == "declared" and len(result.backtraces) == 2
    assert result.backtraces == run(src).backtraces


FIRST_GUARD = 'if (c == "(u)" && s == ("(o1,o2)", 0))'


@pytest.mark.parametrize("guard", [
    'if (s == ("(o1,o2)", 0) and c == "(u)")',
    'if (if c == "(u)" then s == ("(o1,o2)", 0) else false fi)',
])
def test_a_respelled_guard_tabulates_the_same_machine(guard):
    src = _case("blackmail.ipl")
    assert FIRST_GUARD in src
    result = run(src.replace(FIRST_GUARD, guard))
    assert result.backtraces == run(src).backtraces


def test_a_result_outside_the_named_pairs_is_reported():
    src = _case("blackmail.ipl").replace(
        'then ("(u,t2)", 2) fby', 'then ("(u,t2)", 2 + 5) fby')
    with pytest.raises(EvaluationError) as err:
        run(src)
    assert 'trans: event "(u,t2)" in state (1,u,o2) gives ("(u,t2)", 7), ' \
        'which is not one of the (label, counter) pairs' in str(err.value)


def test_a_bad_result_at_a_pair_never_asked_is_never_evaluated():
    # psi is evaluated on demand, and no declared hop leaves (0,o1,o2)
    # on "d(u,t2)"
    guard = 'if (c == "(u)" && s == ("(o1,o2)", 0))'
    src = _case("blackmail.ipl")
    bad = src.replace(guard, 'if (c == "d(u,t2)" && s == ("(o1,o2)", 0)) '
                      'then ("(u,t2)", 2 + 5) fby eod else ' + guard, 1)
    assert bad != src
    bad = bad.replace("else eod fi", "else eod fi fi", 1)
    assert run(bad) == run(src)


def test_a_transition_function_that_never_fires_settles_the_claim():
    # a machine without transitions is a machine: the claim is
    # inconsistent, not left without a transition function
    src = _case("acme_no_alice.ipl")
    still = src.replace("    result =\n", "    result = s;\n    unused =\n", 1)
    assert still != src
    result = run(still)
    assert not result.consistent and result.backtraces == ()


def test_an_event_formal_read_otherwise_is_reported():
    # events are read off the formal's == comparisons with a string, so a
    # guard that tells an event apart another way would drop its edge
    guard = 'if (c == "d(u,t2)" && s == ("(u,o2)", 1))'
    src = _case("blackmail.ipl")
    assert guard in src
    with pytest.raises(EvaluationError, match="trans: the event formal 'c' "
                       "at 47:15 must be one side of == with a string"):
        run(src.replace(guard,
                        'if (c \\in {"d(u,t2)"}) && s == ("(u,o2)", 1)'))


def _blackmail_with_guard(target, first):
    """blackmail.ipl with one more guard on the pair ("(u)", ("(o1,o2)", 0)),
    placed before the chain's first guard or right after it."""
    guard = ('if (c == "(u)" && s == ("(o1,o2)", 0)) '
             'then %s fby trans[next I](next s) else ' % target)
    head, sep, chain = _case("blackmail.ipl").partition("result =\n")
    chain = guard + chain if first else chain.replace("else", "else " + guard, 1)
    return head + sep + chain.replace("else eod fi", "else eod fi fi")


@pytest.mark.parametrize("target, first, fires", [
    ('("(u,t2)", 2)', False, "(1,u,o2)"),     # the second guard is shadowed
    ('("(o1,o2)", 0)', True, None),           # a first self-loop decides too
])
def test_first_guard_on_a_pair_decides(target, first, fires):
    ev = Evaluator(analyze(parse(_blackmail_with_guard(target, first))))
    result = ev.run()
    fsm = next(iter(ev._machines.values()))
    assert fsm.target("(u)", "(0,o1,o2)") == fires
    assert result.consistent == (fires is not None)
    if fires:
        assert result.backtraces == run(_case("blackmail.ipl")).backtraces


def test_claim_results_are_deterministic():
    first = run(_case("acme_no_alice.ipl"))
    second = run(_case("acme_no_alice.ipl"))
    assert first.backtraces == second.backtraces
    assert first.consistent == second.consistent
