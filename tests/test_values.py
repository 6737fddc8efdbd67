"""Value universe: sentinels, tag sets, contexts, forensic hierarchy."""

import copy
import operator
import pickle

import pytest
from hypothesis import given, strategies as st

from flucid import calculus, dstme
from flucid.values import (
    ANY_PROPERTY, BOD, EOD, MINUS_INF, PLUS_INF,
    ContextSet, EvidentialStatement, Observation, ObservationSequence,
    Sentinel, SimpleContext, TagSet, ValidationError,
    kind_of, lift, make_observation, no_observation, to_source,
    zero_observation,
)

COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge)


class TestSentinels:
    def test_interning(self):
        assert Sentinel("eod") is EOD
        assert Sentinel("INF+") is PLUS_INF

    def test_plus_inf_greater_than_any_finite(self):
        for n in (-(2**63), -1, 0, 1, 2**63 - 1):
            assert PLUS_INF > n
            assert n < PLUS_INF
            assert not (PLUS_INF < n)

    def test_minus_inf_less_than_any_finite(self):
        for n in (-(2**63), 0, 2**63 - 1):
            assert MINUS_INF < n
            assert n > MINUS_INF

    def test_inf_ordering_between_sentinels(self):
        assert MINUS_INF < PLUS_INF
        assert PLUS_INF > MINUS_INF
        assert not (PLUS_INF < MINUS_INF)

    def test_bounds_do_not_order(self):
        with pytest.raises(TypeError):
            BOD < 1  # noqa: B015
        with pytest.raises(TypeError):
            EOD > 0  # noqa: B015

    def test_any_property_is_an_interned_marker(self):
        assert Sentinel("$") is ANY_PROPERTY
        assert kind_of(ANY_PROPERTY) == "sentinel"
        assert to_source(ANY_PROPERTY) == repr(ANY_PROPERTY) == "$"
        assert copy.copy(ANY_PROPERTY) is ANY_PROPERTY
        assert copy.deepcopy(no_observation()).property is ANY_PROPERTY

    def test_a_marker_pickles_to_itself(self):
        for marker in (BOD, EOD, PLUS_INF, MINUS_INF, ANY_PROPERTY):
            assert pickle.loads(pickle.dumps(marker)) is marker
        o = pickle.loads(pickle.dumps(no_observation()))
        assert o == no_observation() and o.is_no_observation()

    @pytest.mark.parametrize("n", [float("inf"), float("-inf"), float("nan"),
                                   True, False, 2.5])
    def test_every_number_lies_between_the_infinities(self, n):
        assert MINUS_INF < n < PLUS_INF
        assert MINUS_INF <= n <= PLUS_INF
        assert PLUS_INF > n > MINUS_INF
        assert PLUS_INF >= n >= MINUS_INF
        assert not (n < MINUS_INF or n <= MINUS_INF
                    or n > PLUS_INF or n >= PLUS_INF)

    def test_an_infinity_is_level_only_with_itself(self):
        for inf in (PLUS_INF, MINUS_INF):
            assert inf <= inf and inf >= inf
            assert not (inf < inf or inf > inf)
        assert MINUS_INF <= PLUS_INF and not MINUS_INF >= PLUS_INF

    @pytest.mark.parametrize("marker", [BOD, EOD, ANY_PROPERTY])
    def test_the_other_markers_are_not_ordered(self, marker):
        for other in (0, 2.5, True, PLUS_INF, MINUS_INF,
                      BOD, EOD, ANY_PROPERTY):
            for compare in COMPARISONS:
                with pytest.raises(TypeError):
                    compare(marker, other)
                with pytest.raises(TypeError):
                    compare(other, marker)

    def test_an_infinity_orders_only_numbers(self):
        for inf in (PLUS_INF, MINUS_INF):
            for other in ("a", (1,), None):
                for compare in COMPARISONS:
                    with pytest.raises(TypeError):
                        compare(inf, other)
                    with pytest.raises(TypeError):
                        compare(other, inf)


class TestTagSet:
    def test_declaration_order_preserved_even_unordered(self):
        ts = TagSet(tags=("c", "a", "b"))
        assert ts.tags == ("c", "a", "b")

    def test_duplicate_tags_rejected(self):
        with pytest.raises(ValidationError):
            TagSet(tags=(1, 2, 1))

    def test_no_tags_is_the_naturals(self):
        ts = TagSet()
        assert ts == TagSet.naturals() and not ts.is_finite()
        assert 7 in ts and -1 not in ts

    def test_range_generator(self):
        ts = TagSet.from_range(1, 31)
        assert len(ts) == 31
        assert ts.tags[0] == 1 and ts.tags[30] == 31

    def test_numerically_equal_tags_are_one_tag(self):
        for same in (1.0, True):
            with pytest.raises(ValidationError, match="duplicate tag"):
                TagSet(tags=("a", 1, same))

    def test_a_long_range_builds_and_equal_tags_still_clash(self):
        assert len(TagSet.from_range(1, 20000)) == 20000
        for tags in ((1, 1.0), (1, True), ([1], [1]), ((1, [2]), (1.0, [2]))):
            with pytest.raises(ValidationError, match="duplicate tag"):
                TagSet(tags=tags)
        assert len(TagSet(tags=([1], [2], (1, [2])))) == 3

    def test_a_tag_not_equal_to_itself_is_rejected(self):
        # by the == rule such a tag is in no tag set, not even its own
        for tags in ((float("nan"),), (1, float("nan")), ("a", 1e400 - 1e400)):
            with pytest.raises(ValidationError, match="not == to itself"):
                TagSet(tags=tags)

    def test_infinite_membership(self):
        ts = TagSet.naturals()
        assert 0 in ts and 12345 in ts and 2.0 in ts and 10 ** 30 in ts
        assert -1 not in ts and "x" not in ts
        for other in (2.5, -1.0, float("nan"), float("inf"), None):
            assert other not in ts


class TestSimpleContext:
    def test_canonical_order_insensitive(self):
        a = SimpleContext([("x", 1), ("y", 2)])
        b = SimpleContext([("y", 2), ("x", 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_duplicate_dimension_rejected(self):
        with pytest.raises(ValidationError):
            SimpleContext([("d", 1), ("d", 2)])

    def test_duplicate_pair_collapses(self):
        c = SimpleContext([("d", 1), ("d", 1)])
        assert len(c) == 1

    def test_numerically_equal_tags_are_not_a_double_binding(self):
        c = SimpleContext([("d", 1), ("d", 1.0)])
        assert len(c) == 1 and c.tag("d") == 1

    def test_access(self):
        c = SimpleContext({"host": "alpha", "pid": 42})
        assert c.tag("host") == "alpha"
        assert c.tag("absent") is None
        assert c.has("pid")
        assert c.without("pid") == SimpleContext({"host": "alpha"})
        assert c.with_pair("pid", 7).tag("pid") == 7


class TestContextSet:
    def test_dedupe_and_determinism(self):
        c1 = SimpleContext({"d": 1})
        c2 = SimpleContext({"d": 2})
        cs = ContextSet([c2, c1, c2])
        assert len(cs) == 2
        assert list(cs) == list(ContextSet([c1, c2]))

    def test_equality_is_setwise(self):
        c1, c2 = SimpleContext({"d": 1}), SimpleContext({"d": 2})
        assert ContextSet([c1, c2]) == ContextSet([c2, c1])

    def test_dedupe_is_linear(self, monkeypatch):
        # list membership compared each member with every kept one
        calls = []
        eq = SimpleContext.__eq__
        monkeypatch.setattr(SimpleContext, "__eq__",
                            lambda a, b: calls.append(1) or eq(a, b))
        for n in (1000, 2000):
            calls.clear()
            members = [SimpleContext({"d": k}) for k in range(n)]
            assert len(ContextSet(members + members[:10])) == n
            assert len(calls) <= 2 * n


class TestMakeObservation:
    def test_defaults(self):
        o = make_observation("A printed")
        assert (o.min, o.max, o.w, o.t) == (1, 0, 1.0, None)

    def test_explicit_credibility(self):
        o = make_observation("A printed", 1, 0, 0.85)
        assert o.property == "A printed" and o.w == 0.85

    def test_negative_min_names_field(self):
        with pytest.raises(ValidationError, match="min must be non-negative") as e:
            make_observation("P", -1, 0)
        assert e.value.fieldname == "min"

    def test_negative_max_names_field(self):
        with pytest.raises(ValidationError, match="max must be non-negative"):
            make_observation("P", 0, -2)

    def test_w_out_of_range_names_field(self):
        for bad in (-0.1, 1.0001, 2):
            with pytest.raises(ValidationError, match=r"w must be within \[0, 1\]"):
                make_observation("P", 1, 0, bad)

    def test_inf_max_allowed(self):
        o = make_observation("P", 0, PLUS_INF)
        assert o.max is PLUS_INF

    def test_idempotent_on_fully_specified(self):
        o = make_observation("P", 2, 3, 0.5, 1000)
        again = make_observation(o.property, o.min, o.max, o.w, o.t)
        assert o == again


@pytest.mark.parametrize("fields, message", [
    ({"min": -1}, "min must be non-negative"),
    ({"min": 1.0}, "min must be an integer"),
    ({"max": True}, r"max must be an integer or INF\+"),
    ({"w": 5.0}, r"w must be within \[0, 1\]"),
    ({"w": float("nan")}, r"w must be within \[0, 1\]"),
    ({"w": "x"}, "w must be a real number"),
    ({"t": 1.5}, "t must be an integer or string timestamp"),
    ({"t": EOD}, "t must be an integer or string timestamp"),
])
def test_an_observation_built_directly_checks_its_fields(fields, message):
    with pytest.raises(ValidationError, match="^%s$" % message) as err:
        Observation("P", **fields)
    assert err.value.fieldname == next(iter(fields))


def test_an_observation_keeps_its_weight_as_a_float():
    assert repr(Observation("P", w=1)) == '("P", 1, 0, 1.0)'
    assert make_observation("P", t=EOD).t is None


class TestSpecialObservations:
    def test_no_observation_shape(self):
        o = no_observation()
        assert o.property is ANY_PROPERTY
        assert (o.min, o.max, o.w) == (0, PLUS_INF, 1.0)
        assert o.is_no_observation()

    def test_zero_observation_shape(self):
        o = zero_observation("P")
        assert (o.min, o.max, o.w) == (0, 0, 1.0)
        assert o.is_zero_observation()
        assert not o.is_no_observation()


class TestLift:
    def test_scalar(self):
        o = lift(42)
        assert isinstance(o, Observation)
        assert (o.property, o.min, o.max, o.w) == (42, 1, 0, 1.0)

    def test_simple_context(self):
        c = SimpleContext({"d": 1})
        o = lift(c)
        assert o.property == c and (o.min, o.max, o.w) == (1, 0, 1.0)

    def test_context_set_elementwise(self):
        cs = ContextSet([SimpleContext({"d": 1}), SimpleContext({"d": 2})])
        seq = lift(cs)
        assert isinstance(seq, ObservationSequence)
        assert len(seq) == 2
        assert [o.property for o in seq] == list(cs)

    def test_idempotent_on_forensic_forms(self):
        o = make_observation("P")
        seq = ObservationSequence((o,), name="os1")
        es = EvidentialStatement((seq,), name="es1")
        assert lift(o) is o
        assert lift(seq) is seq
        assert lift(es) is es
        assert lift(lift(17)) == lift(17)

    def test_tuples(self):
        o = make_observation("a", 1)
        assert lift(("a", 1)) == o
        assert lift(("a", 1, PLUS_INF, 0.5, 7)) == \
            make_observation("a", 1, PLUS_INF, 0.5, 7)
        assert lift((("a", 1), 5, o)) == ObservationSequence(
            (o, make_observation(5), o))
        assert lift(("a", "b")) == ObservationSequence(
            (make_observation("a"), make_observation("b")))
        assert lift(()) == ObservationSequence(())
        with pytest.raises(ValidationError, match="min must be non-negative"):
            lift(("a", -1))


class TestHierarchy:
    def test_sequence_order_significant(self):
        a, b = make_observation("a"), make_observation("b")
        assert ObservationSequence((a, b)) != ObservationSequence((b, a))

    def test_statement_unordered_but_iteration_stable(self):
        s1 = ObservationSequence((make_observation("a"),), name="os1")
        s2 = ObservationSequence((make_observation("b"),), name="os2")
        e1 = EvidentialStatement((s1, s2))
        e2 = EvidentialStatement((s2, s1))
        assert e1 == e2
        assert hash(e1) == hash(e2)
        assert [s.name for s in e1] == ["os1", "os2"]
        assert [s.name for s in e2] == ["os2", "os1"]

    def test_statement_hashes_its_sequences_once(self):
        # a demand context holding the statement is hashed at every
        # warehouse probe
        hashed = []

        class Prop:
            def __hash__(self):
                hashed.append(self)
                return 7

        es = EvidentialStatement((ObservationSequence((Observation(Prop()),)),))
        assert hash(es) == hash(es)
        assert len(hashed) == 1


    def test_a_container_checks_its_members_when_built(self):
        # each reader below once took the malformed container and raised
        # a raw AttributeError or TypeError, or returned a value
        seq = lambda: ObservationSequence(("y",))               # noqa: E731
        es = lambda: EvidentialStatement(("x",))                 # noqa: E731
        probes = [
            lambda: dstme.credibility("bel", seq()),
            lambda: dstme.credibility("bel", es()),
            lambda: calculus.union(seq(), seq()),
            lambda: calculus.override(es(), es()),
            lambda: hash(EvidentialStatement(([1],))),
            lambda: calculus.membership("in", seq(), seq()),
        ]
        for probe in probes:
            with pytest.raises(ValidationError, match=", not an observation"):
                probe()


class TestSourceForm:
    def test_observation(self):
        assert to_source(make_observation("up", 1, 0, 0.85)) == '("up", 1, 0, 0.85)'

    def test_no_and_zero(self):
        assert to_source(no_observation()) == "$"
        assert to_source(zero_observation("P")) == '\\0("P")'

    def test_timestamp_included(self):
        assert to_source(make_observation("x", 1, 0, 1.0, 99)).endswith(", 99)")

    def test_context_forms(self):
        c = SimpleContext([("y", 2), ("x", 1)])
        assert to_source(c) == "[x:1, y:2]"
        assert to_source(ContextSet([c])) == "{[x:1, y:2]}"

    def test_description_annotation(self):
        o = make_observation("final", 1, 0, 1.0, None, "threat letter")
        assert '=> "threat letter"' in to_source(o)

    def test_newline_has_no_source_form(self):
        # the lexer rejects a raw newline inside a string literal
        with pytest.raises(ValidationError, match="newline"):
            to_source("a\nb")
        with pytest.raises(ValidationError, match="newline"):
            to_source(make_observation("final", 1, 0, 1.0, None, "two\nlines"))


@given(st.integers(min_value=0, max_value=50),
       st.integers(min_value=0, max_value=50),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_constructed_w_always_in_range(mn, mx, w):
    o = make_observation("P", mn, mx, w)
    assert 0.0 <= o.w <= 1.0
    assert o.min >= 0 and (o.max is PLUS_INF or o.max >= 0)


@given(st.one_of(st.integers(), st.text(max_size=8), st.booleans()))
def test_lift_idempotent_property(v):
    once = lift(v)
    assert lift(once) is once


# a repr never raises: values with no source form print as <kind ...>

_TAGS = TagSet(tags=(1, 2))


@pytest.mark.parametrize("value, kind", [
    (make_observation(_TAGS, 1, 0), "observation"),
    (make_observation("a\nb", 1, 0), "observation"),
    (SimpleContext({"d": _TAGS}), "simple context"),
    (SimpleContext({"d": "a\nb"}), "simple context"),
    (ContextSet([SimpleContext({"d": _TAGS})]), "context set"),
    (ObservationSequence([make_observation(_TAGS, 1, 0)], name="s"),
     "observation sequence"),
    (EvidentialStatement([ObservationSequence(
        [make_observation(_TAGS, 1, 0)])]), "observation sequence"),
])
def test_repr_without_source_form_names_the_kind(value, kind):
    with pytest.raises(ValidationError):
        to_source(value)
    assert ("<%s " % kind) in repr(value)
