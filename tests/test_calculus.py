"""Set-like context operators: membership, difference/intersection/union,
override, projection/hiding."""

import time

import pytest
from hypothesis import given, strategies as st

from flucid.calculus import (
    ContextTypeError, difference, filter as ctx_filter, intersection,
    membership, override, union,
)
from flucid.values import (
    ContextSet, EvidentialStatement, Observation, ObservationSequence,
    SimpleContext, TagSet, ValidationError, make_observation,
)

NAN = float("nan")


def sc(**pairs):
    return SimpleContext(pairs)


dims = st.dictionaries(st.sampled_from("abc"), st.integers(0, 3), max_size=3)
contexts = dims.map(SimpleContext)
dimsets = st.lists(st.sampled_from("abc"), max_size=3, unique=True).map(tuple)
# tags that are == across types: 1, 1.0 and true are one tag
tags = st.one_of(st.integers(-2, 3), st.integers(-2, 3).map(float),
                 st.floats(allow_nan=False, allow_infinity=False),
                 st.booleans(), st.text("ab", max_size=2))
tag_sets = st.lists(tags, max_size=5, unique=True).map(
    lambda ts: TagSet(tags=tuple(ts)))


class TestMembership:
    def test_empty_is_subcontext_of_any(self):
        assert membership("isSubContext", SimpleContext(), sc(d=1))
        assert membership("isSubContext", SimpleContext(), SimpleContext())

    def test_simple_subset(self):
        assert membership("isSubContext", sc(d=1), sc(d=1, e=2))
        assert not membership("isSubContext", sc(d=1, e=2), sc(d=1))
        assert not membership("isSubContext", sc(d=2), sc(d=1, e=2))

    def test_tag_set_in(self):
        assert membership("in", TagSet(tags=(1, 2)), TagSet(tags=(1, 2, 3)))
        assert not membership("in", TagSet(tags=(1, 4)), TagSet(tags=(1, 2, 3)))

    def test_infinite_tag_set_never_inside_finite(self):
        assert not membership("in", TagSet.naturals(), TagSet(tags=(1, 2, 3)))

    def test_tag_type_not_coerced(self):
        assert not membership("in", TagSet(tags=("1",)), TagSet(tags=(1, 2)))

    def test_context_sets(self):
        a = ContextSet([sc(d=1)])
        b = ContextSet([sc(d=1), sc(d=2)])
        assert membership("isSubContext", a, b)
        assert not membership("isSubContext", b, a)

    def test_forensic_nesting(self):
        o1, o2 = make_observation("a"), make_observation("b")
        os12 = ObservationSequence((o1, o2), name="x")
        assert membership("in", o1, os12)
        assert membership("isSubContext", ObservationSequence((o1,)), os12)
        assert not membership("isSubContext", ObservationSequence((o2, o1)), os12)
        es = EvidentialStatement((os12,))
        assert membership("in", os12, es)

    def test_statement_inside_statement(self):
        # each sequence of the left is an ordered subsequence of some
        # sequence of the right
        o1, o2, o3 = (make_observation(p) for p in "abc")
        a = EvidentialStatement((ObservationSequence((o1, o3)),
                                 ObservationSequence((o2,))))
        b = EvidentialStatement((ObservationSequence((o1, o2, o3)),))
        assert membership("isSubContext", a, b)
        assert not membership("isSubContext", b, a)
        assert not membership("in", ObservationSequence((o3, o1)), b)
        assert not membership("in", a, ObservationSequence((o1, o2, o3)))
        assert membership("in", o2, a)
        assert not membership("in", make_observation("z"), a)

    def test_kind_mismatch(self):
        with pytest.raises(ContextTypeError):
            membership("in", 1, sc(d=1))

    @given(contexts)
    def test_reflexive(self, c):
        assert membership("isSubContext", c, c)

    @given(contexts, contexts)
    def test_antisymmetric(self, a, b):
        if membership("isSubContext", a, b) and membership("isSubContext", b, a):
            assert a == b

    @given(contexts, contexts, contexts)
    def test_transitive(self, a, b, c):
        if membership("isSubContext", a, b) and membership("isSubContext", b, c):
            assert membership("isSubContext", a, c)


class TestDifferenceIntersection:
    def test_intersection_common_micro(self):
        assert intersection(sc(d=1, e=2), sc(d=1, f=3)) == sc(d=1)

    def test_difference(self):
        assert difference(sc(d=1, e=2), sc(d=1)) == sc(e=2)

    def test_tag_value_must_match(self):
        assert intersection(sc(d=1), sc(d=2)) == SimpleContext()

    def test_context_set_pairwise_drops_empty(self):
        a = ContextSet([sc(d=1), sc(e=9)])
        b = ContextSet([sc(d=1, e=2)])
        inter = intersection(a, b)
        assert inter == ContextSet([sc(d=1)])

    def test_all_empty_collapses_to_empty_set(self):
        a = ContextSet([sc(d=1)])
        b = ContextSet([sc(e=2)])
        assert intersection(a, b) == ContextSet()

    def test_tag_sets(self):
        a, b = TagSet(tags=(1, 2, 3)), TagSet(tags=(2, 9))
        assert difference(a, b).tags == (1, 3)
        assert intersection(a, b).tags == (2,)

    @given(contexts, contexts)
    def test_difference_is_subcontext_of_left(self, a, b):
        assert membership("isSubContext", difference(a, b), a)

    @given(contexts, contexts)
    def test_intersection_commutative(self, a, b):
        assert intersection(a, b) == intersection(b, a)

    @given(contexts)
    def test_intersection_idempotent(self, c):
        assert intersection(c, c) == c


class TestOverride:
    def test_right_bias(self):
        assert override(sc(d=1, e=2), sc(d=5)) == sc(d=5, e=2)

    def test_empty_left_identity(self):
        assert override(SimpleContext(), sc(d=5)) == sc(d=5)

    def test_context_sets_pairwise(self):
        a = ContextSet([sc(d=1), sc(d=2)])
        b = ContextSet([sc(e=7)])
        assert override(a, b) == ContextSet([sc(d=1, e=7), sc(d=2, e=7)])

    def test_forensic_right_wins(self):
        o1 = make_observation(sc(d=1, e=2))
        o2 = make_observation(sc(d=5), 2, 0, 0.5)
        merged = override(o1, o2)
        assert merged.property == sc(d=5, e=2)
        assert (merged.min, merged.w) == (2, 0.5)

    def test_sequences_override_position_by_position(self):
        a = ObservationSequence((make_observation(sc(d=1, e=2)),
                                 make_observation("p"),
                                 make_observation("q")), name="a")
        b = ObservationSequence((make_observation(sc(d=5), 2, 0, 0.5),
                                 make_observation("r")), name="b")
        r = override(a, b)
        assert r == ObservationSequence(
            (make_observation(sc(d=5, e=2), 2, 0, 0.5),
             make_observation("r"), make_observation("q")), name="b")
        assert override(b, a).observations[0].property == sc(d=1, e=2)
        assert override(a, ObservationSequence((make_observation("z"),))
                        ).name == "a"

    def test_statements_override_sequences_by_name(self):
        def seq(prop, name=None):
            return ObservationSequence((make_observation(prop),), name=name)
        s1, s1_new, s2 = seq("x", "s1"), seq("y", "s1"), seq("w", "s2")
        anon = seq("u")
        r = override(EvidentialStatement((s1, anon), name="E"),
                     EvidentialStatement((s1_new, s2, anon)))
        assert r.sequences == (s1_new, anon, s2) and r.name == "E"

    @given(contexts, contexts)
    def test_idempotent(self, a, b):
        once = override(a, b)
        assert override(once, b) == once

    @given(contexts, contexts)
    def test_right_dimensions_always_win(self, a, b):
        r = override(a, b)
        for d, t in b.pairs:
            assert r.tag(d) == t


class TestUnion:
    def test_conflict_free_merges(self):
        assert union(sc(d=1), sc(e=2)) == sc(d=1, e=2)

    def test_shared_equal_tag_merges(self):
        assert union(sc(d=1, e=2), sc(d=1, f=3)) == sc(d=1, e=2, f=3)

    def test_dimension_conflict_widens_to_context_set(self):
        r = union(sc(d=1, e=2), sc(d=5, f=3))
        assert r == ContextSet([sc(d=1, e=2, f=3), sc(d=5, e=2, f=3)])

    def test_context_set_union_shared_dims(self):
        a = ContextSet([sc(d=1, e=2)])
        b = ContextSet([sc(d=9, f=3)])
        r = union(a, b)
        # each member keeps its own shared-dimension binding, plus the
        # other side's private micro contexts
        assert sc(d=1, e=2, f=3) in r
        assert sc(d=9, e=2, f=3) in r

    def test_tag_set_union_keeps_left_tags_first(self):
        r = union(TagSet(tags=(1, 2)), TagSet(tags=(2, 3)))
        assert r.tags == (1, 2, 3)

    @given(tag_sets, tag_sets)
    def test_tag_sets_meet_by_equality(self, s, t):
        assert membership("in", t, s) == all(x in s.tags for x in t.tags)
        assert union(s, t).tags == \
            s.tags + tuple(x for x in t.tags if x not in s.tags)
        assert intersection(s, t).tags == \
            tuple(x for x in s.tags if x in t.tags)
        assert difference(s, t).tags == \
            tuple(x for x in s.tags if x not in t.tags)
        assert union(s, s) == s

    def test_long_tag_sets_combine_in_linear_time(self):
        n = 20000
        a, b = TagSet.from_range(1, n), TagSet.from_range(n + 1, 2 * n)
        start = time.perf_counter()
        assert len(union(a, b)) == 2 * n
        assert difference(a, b) == a
        assert len(intersection(a, b)) == 0
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("tag", [1, 1.0, True, NAN, float("nan"), [1],
                                     (1,), "x", 2],
                             ids=repr)
    def test_tag_set_operators_keep_the_equality_rule(self, tag):
        right = TagSet((1, "x", [1], (1,)))
        if not tag == tag:
            # by the == rule a NaN is in no set, so no set holds one for
            # the operators to meet, whichever NaN object it is
            assert tag not in right
            with pytest.raises(ValidationError, match="not == to itself"):
                TagSet((tag,))
            return
        left = TagSet((tag,))
        met = [t for t in left.tags if any(u == t for u in right.tags)]
        assert intersection(left, right).tags == tuple(met)
        assert difference(left, right).tags == tuple(
            t for t in left.tags if t not in met)
        for a, b in ((left, right), (right, left)):
            new = [t for t in b.tags if not any(u == t for u in a.tags)]
            assert union(a, b) == TagSet(a.tags + tuple(new))

    def test_timed_observations_form_sequence(self):
        o1 = make_observation("a", 1, 0, 1.0, 10)
        o2 = make_observation("b", 1, 0, 1.0, 20)
        r = union(o2, o1)
        assert isinstance(r, ObservationSequence)
        assert [o.t for o in r] == [10, 20]

    def test_untimed_observations_conflict(self):
        r = union(make_observation("a"), make_observation("b"))
        assert isinstance(r, EvidentialStatement)
        assert len(r) == 2

    def test_equal_time_conflicts(self):
        r = union(make_observation("a", 1, 0, 1.0, 5),
                  make_observation("b", 1, 0, 1.0, 5))
        assert isinstance(r, EvidentialStatement)

    def test_sequences_fuse_on_total_time_order(self):
        a = ObservationSequence((make_observation("a", 1, 0, 1.0, 10),
                                 make_observation("c", 1, 0, 1.0, 30)))
        b = ObservationSequence((make_observation("b", 1, 0, 1.0, 20),))
        r = union(a, b)
        assert isinstance(r, ObservationSequence)
        assert [o.property for o in r] == ["a", "b", "c"]

    @pytest.mark.parametrize("t1, t2", [(5, "x"), ("x", 5), (5, None)])
    def test_observations_timed_by_mixed_kinds_conflict(self, t1, t2):
        a = make_observation("a", 1, 0, 1.0, t1)
        b = make_observation("b", 1, 0, 1.0, t2)
        r = union(a, b)
        assert isinstance(r, EvidentialStatement)
        assert [s.observations for s in r] == [(a,), (b,)]

    def test_sequences_timed_by_mixed_kinds_stay_separate(self):
        a = ObservationSequence((make_observation("a", 1, 0, 1.0, 10),
                                 make_observation("c", 1, 0, 1.0, 30)))
        b = ObservationSequence((make_observation("b", 1, 0, 1.0, "x"),))
        assert union(a, b) == EvidentialStatement((a, b))
        assert union(b, a) == EvidentialStatement((b, a))

    def test_sequences_without_times_stay_separate(self):
        a = ObservationSequence((make_observation("a"),), name="os1")
        b = ObservationSequence((make_observation("b"),), name="os2")
        r = union(a, b)
        assert isinstance(r, EvidentialStatement)
        assert [s.name for s in r] == ["os1", "os2"]

    def test_statement_union_dedupes(self):
        os1 = ObservationSequence((make_observation("a"),), name="os1")
        os2 = ObservationSequence((make_observation("b"),), name="os2")
        r = union(EvidentialStatement((os1, os2)), EvidentialStatement((os2,)))
        assert len(r) == 2

    @given(contexts, contexts)
    def test_simple_union_commutative_as_sets(self, a, b):
        r1, r2 = union(a, b), union(b, a)
        if isinstance(r1, SimpleContext):
            assert r1 == r2
        else:
            assert set(r1.members) == set(r2.members)

    @given(contexts)
    def test_union_idempotent(self, c):
        assert union(c, c) == c


class TestFilter:
    def test_projection(self):
        assert ctx_filter("projection", sc(d=1, e=2), ("d",)) == sc(d=1)

    def test_hiding(self):
        assert ctx_filter("hiding", sc(d=1, e=2), ("d",)) == sc(e=2)

    def test_tag_set_selector(self):
        c = sc(d=1, e=2)
        assert ctx_filter("projection", c, TagSet(tags=(2,))) == sc(e=2)
        assert ctx_filter("hiding", c, TagSet(tags=(2,))) == sc(d=1)

    def test_set_members_dropped_when_empty(self):
        cs = ContextSet([sc(d=1), sc(e=2)])
        assert ctx_filter("projection", cs, ("d",)) == ContextSet([sc(d=1)])

    def test_forensic_distributes(self):
        o = make_observation(sc(d=1, e=2), 1, 0, 0.7)
        f = ctx_filter("hiding", o, ("e",))
        assert f.property == sc(d=1) and f.w == 0.7

    def test_observations_keep_all_but_their_property(self):
        plain = make_observation("p")
        assert ctx_filter("projection", plain, ("d",)) is plain
        o = make_observation(ContextSet([sc(d=1, e=2), sc(e=3)]), 1, 0, 0.7, 9)
        assert ctx_filter("hiding", o, ("e",)) == make_observation(
            ContextSet([sc(d=1)]), 1, 0, 0.7, 9)

    def test_sequences_and_statements_filter_each_observation(self):
        seq = ObservationSequence((make_observation(sc(d=1, e=2)),
                                   make_observation("p")), name="s")
        r = ctx_filter("projection", seq, ("e",))
        assert r == ObservationSequence((make_observation(sc(e=2)),
                                         make_observation("p")), name="s")
        other = ObservationSequence((make_observation(sc(d=3)),))
        r = ctx_filter("hiding", EvidentialStatement((seq, other), name="E"),
                       TagSet(tags=(2,)))
        assert r.name == "E" and r.sequences == (
            ObservationSequence((make_observation(sc(d=1)),
                                 make_observation("p")), name="s"), other)

    def test_bad_selector(self):
        # a Python set or list is no value of the language
        for sel in (42, "d", ["d"], {"d"}):
            with pytest.raises(ContextTypeError, match="a tuple of dimension "
                               "names or a tag set"):
                ctx_filter("projection", sc(d=1), sel)

    @pytest.mark.parametrize("sel, member", [((1,), "integer"),
                                             (([1],), "list")])
    def test_a_selector_tuple_holds_only_names(self, sel, member):
        for mode in ("projection", "hiding"):
            with pytest.raises(ContextTypeError, match="a tuple of dimension "
                               "names or a tag set, got array holding "
                               + member):
                ctx_filter(mode, sc(d=1), sel)

    @given(contexts, dimsets)
    def test_projection_union_hiding_restores(self, c, d):
        kept = ctx_filter("projection", c, d)
        hidden = ctx_filter("hiding", c, d)
        assert union(kept, hidden) == c
