"""Name resolution, diagnostics, and the rewriter."""

import pytest

from flucid.semantics import (
    DEFAULT_DIMENSION,
    FlucidSemanticError,
    REWRITTEN_BIN,
    REWRITTEN_UNARY,
    analyze,
    rewrite_to_core,
)
from flucid.syntax import nodes as N
from flucid.syntax import FlucidSyntaxError, parse, pretty_print
from flucid.values import ValidationError


def codes(err: FlucidSemanticError):
    return {r.code for r in err.records}


# --- name resolution ---------------------------------------------------------


def test_simple_program_builds_environment():
    result = analyze(parse("x where x = 1; end"))
    assert result.env["x"].kind == "var"
    assert result.env["x"].source == "x"
    assert result.tree.body == N.Ident("x")


def test_shadowing_gets_distinct_names():
    src = "x + (x where x = 2; end) where x = 1; end"
    result = analyze(parse(src))
    assert set(result.env) == {"x", "x#2"}
    outer_ref = result.tree.body.left
    inner_where = result.tree.body.right
    assert outer_ref == N.Ident("x")
    assert inner_where.body == N.Ident("x#2")
    assert inner_where.decls[0].name == "x#2"


def test_forward_and_mutual_references_allowed():
    analyze(parse("y where y = z + 1; z = 2; end"))
    analyze(parse("a where a = b; b = a; end"))


def test_duplicate_declaration_is_reported():
    with pytest.raises(FlucidSemanticError) as exc:
        analyze(parse("x where x = 1; x = 2; end"))
    assert "duplicate-declaration" in codes(exc.value)


def test_undefined_identifier_is_reported():
    with pytest.raises(FlucidSemanticError) as exc:
        analyze(parse("y where x = 1; end"))
    assert "undefined-identifier" in codes(exc.value)
    record = exc.value.records[0]
    assert record.severity == "error"
    assert record.to_dict()["line"] == 1
    assert "undefined-identifier" in record.render()


_X = N.VarDecl("x", N.IntLit(1))


@pytest.mark.parametrize("tree", [
    _X,
    N.BinOp("+", _X, N.IntLit(2)),
    N.WhereExpr(N.Ident("x"), (N.IntLit(1),)),
    N.WhereExpr(_X, (_X,)),                 # listed, and used as the body
    N.WhereExpr(N.Ident("x"), (N.FuncDecl("f", (), (), _X), _X)),
])
def test_analyze_checks_where_declarations_go(tree):
    # a built tree is checked, not only what the parser can produce
    with pytest.raises(ValidationError):
        analyze(tree)


def test_member_assignment_is_not_a_declaration():
    # a member of a name is no declaration target: the parser stops there
    with pytest.raises(FlucidSyntaxError, match="declaration target") as exc:
        analyze(parse("x where x = 1; x.w = 2; end"))
    assert exc.value.span.offset == len("x where x = 1; ")


def test_builtin_call_arity():
    analyze(parse("bel(x) where x = 1; end"))
    with pytest.raises(FlucidSemanticError) as exc:
        analyze(parse("bel(x, x) where x = 1; end"))
    assert "arity-mismatch" in codes(exc.value)


def test_function_call_arity():
    analyze(parse("f(1) where f(a) = a; end"))
    with pytest.raises(FlucidSemanticError) as exc:
        analyze(parse("f(1, 2) where f(a) = a; end"))
    assert "arity-mismatch" in codes(exc.value)
    with pytest.raises(FlucidSemanticError) as exc:
        analyze(parse("f(1) where f[A](a) = a; end"))
    assert "arity-mismatch" in codes(exc.value)


def test_oversized_observation_tuple():
    with pytest.raises(FlucidSemanticError) as exc:
        analyze(parse("x where observation x = (1, 2, 3, 4, 5, 6); end"))
    assert "observation-arity" in codes(exc.value)


def test_context_keys_need_no_declaration():
    result = analyze(parse('x @ [t:1, q:"a"] where x = #t; end'))
    # the query against the implicit dimension keeps its source name
    assert result.env["x"].node.expr == N.HashExpr(N.Ident("t"))


def test_context_key_resolves_to_nearest_dimension():
    src = ("(x @ [t:1] where dimension t; x = 1; end)"
           " where dimension t; end")
    result = analyze(parse(src))
    inner = result.tree.body
    key = inner.body.right.entries[0].key
    assert key == N.Ident("t#2")


def test_dimension_and_function_names_are_values_too():
    analyze(parse('I where dimension I : unordered finite nonperiodic '
                  '{"a"}; end'))
    analyze(parse("f where f[A](x) = x; end"))


def test_operator_suffix_dimension_is_implicit():
    result = analyze(parse("x fby.q 1 where x = 1; end"))
    assert result.tree.body.dim == "q"


def test_hop_annotations_stay_verbatim():
    src = 'a pby [es.#, I:"(u)"] b where a = 1; b = 2; end'
    result = analyze(parse(src))
    hop = result.tree.body
    assert hop.annotation == parse(src).body.annotation


def test_formals_shadow_and_are_registered():
    src = "f[A](s) where dimension A; s = 1; f[S](s) = s; end"
    result = analyze(parse(src))
    fn = result.env["f"]
    assert fn.kind == "func"
    assert fn.dim_params == ("S",)
    assert fn.params == ("s#2",)
    assert result.env["s#2"].kind == "formal"
    assert result.env["s#2"].owner == "f"
    assert fn.node.body == N.Ident("s#2")


def test_analysis_is_deterministic_and_idempotent():
    src = "x + (x where x = 2; end) where x = 1; end"
    first = analyze(parse(src))
    second = analyze(parse(src))
    assert first.tree == second.tree
    assert set(first.env) == set(second.env)
    again = analyze(first.tree)
    assert again.tree == first.tree


# --- core rewriting ----------------------------------------------------------


def rw(src: str) -> N.Node:
    return rewrite_to_core(parse(src))


def test_positional_operators_become_navigation():
    assert rw("first x") == parse("x @.d 0")
    assert rw("second x") == parse("x @.d 1")
    # an element at a negative index is bod, as the evaluator reads it
    assert rw("next x") == parse("(if #d < 0 then bod else x fi) @.d (#d + 1)")
    assert rw("prev x") == parse("(if #d < 0 then bod else x fi) @.d (#d - 1)")


def test_followed_by_stays_in_the_core():
    from flucid.evaluator import evaluate

    # over a forensic left value fby prepends to a sequence, which the
    # index template `if #d == 0 then x else y @.d (#d - 1) fi` cannot
    assert rw("x fby.d y") == parse("x fby.d y")
    assert rw("first x fby.t next y") == parse(
        "x @.d 0 fby.t (if #d < 0 then bod else y fi) @.d (#d + 1)")
    src = ('N where observation o = ([d:1], 1, 0); '
           'N = o fby.d ([d:2], 1, 0); end')
    assert repr(evaluate(rewrite_to_core(parse(src)))) == \
        repr(evaluate(src)) == "os{ ([d:1], 1, 0, 1.0), ([d:2], 1, 0, 1.0) }"


def test_word_negations_become_symbols():
    assert rw("neg x") == parse("-x")
    assert rw("not x") == parse("!x")
    assert rw("x and y") == parse("if x && y then 1 else 0 fi")
    assert rw("x nor y") == parse("if x || y then 0 else 1 fi")


def _remaining_ops(tree):
    """The operators of the stream nodes left in tree."""
    return {n.op for n in N.walk(tree) if isinstance(n, N.StreamUnary)
            or isinstance(n, N.StreamBin) and n.annotation is None}


SOUP = ("(a wvr b) + (a nwvr b) + (a upon b) + (a nupon b)"
        " + (a rwvr b) + (a nrwvr b) + (a rupon b) + (a nrupon b)"
        " + (a asa b) + (a nasa b) + (a ala b) + (a nala b)"
        " + (a pby b) + (a fby b) + (a xor b) + (a nand b)"
        " + (a nxor b) + (a or b)"
        " + last a + prelast a + second a + first a + neg a + not a")


def test_no_derived_operator_survives_rewriting():
    seen = _remaining_ops(rw(SOUP))
    assert not (seen & REWRITTEN_UNARY)
    assert not (seen & REWRITTEN_BIN)
    assert seen <= {"iseod", "isbod", "fby"}


def test_rewriting_is_idempotent_and_deterministic():
    once = rw(SOUP)
    assert rewrite_to_core(once) == once
    assert rw(SOUP) == once


def test_rewriting_leaves_what_it_does_not_define():
    assert rw("iseod a") == parse("iseod a")
    assert rw("a band b") == parse("a band b")
    assert rw("combine(a, b)") == parse("combine(a, b)")


def test_annotated_hops_are_not_streams():
    src = 'a pby [es.#, I:"(u)"] b'
    assert rw(src) == parse(src)


def test_fresh_names_do_not_capture():
    tree = rw("_x1 wvr _y1")
    bound = {n.name for n in N.walk(tree) if isinstance(n, N.VarDecl)}
    assert "_x1" not in bound
    assert "_y1" not in bound
    # the operands are still referenced
    text = pretty_print(tree)
    assert "_x1" in text and "_y1" in text
