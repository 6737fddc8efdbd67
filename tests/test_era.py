"""Event-reconstruction engine tests.

Exact fixtures come from the two case studies; randomized agreement runs
against the brute-force oracle in oracles.py.
"""

import os
import re
import sys
import time
from dataclasses import replace
from functools import partial
from hashlib import sha256

import pytest
from hypothesis import given, settings, strategies as st

from flucid import (
    ANY_PROPERTY,
    EvidentialStatement,
    FlucidError,
    Observation,
    ObservationSequence,
    PLUS_INF,
    TagSet,
    ValidationError,
    make_observation,
    no_observation,
)
from flucid.era import (
    ANYTHING,
    MPR,
    MSPR,
    EMPTY_MSPR,
    Property,
    ReconstructionError,
    StateMachine,
    WILDCARD,
    _collapse_stutters,
    _dedupe_wildcard_twins,
    check_claim,
    comb,
    expand_generic,
    invert_transition,
    load_es,
    load_fsm,
    meaning_fixed_length,
    psi_inverse_set,
    resolve_property,
)

from oracles import (
    OProp,
    check_claim_oracle,
    expansions_oracle,
    meaning_oracle,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_text(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return fh.read()


def toy_machine():
    """Two states, loop a: 0->1, b: 1->0, c: 1->1."""
    trans = {("a", 0): 1, ("b", 1): 0, ("c", 1): 1}
    return StateMachine(states=(0, 1), events=("a", "b", "c"),
                        psi=dict(trans).get), trans


# ---------------------------------------------------------------------------
# Machine and property basics
# ---------------------------------------------------------------------------


def test_psi_holds_only_the_transitions_that_fire():
    fsm = StateMachine(states=(0, 1), events=("a",), psi={("a", 0): 1}.get)
    assert fsm.fires("a", 0) and fsm.successor("a", 0) == 1
    assert not fsm.fires("a", 1)
    with pytest.raises(ReconstructionError):
        fsm.successor("a", 1)


def test_psi_rejects_undeclared_labels():
    # a transition is checked on the read that gives it
    fsm = StateMachine(states=(0,), events=("a",),
                       psi={("a", 0): 7, ("b", 0): 0}.get)
    for read in (fsm.target, fsm.fires, fsm.successor):
        with pytest.raises(ValidationError,
                           match=r"\('a', 0\) -> 7 uses undeclared labels"):
            read("a", 0)
        with pytest.raises(ValidationError, match=r"\('b', 0\) -> 0"):
            read("b", 0)
    for reader in (invert_transition,
                   lambda m: meaning_fixed_length(m, [(ANYTHING, 2)])):
        with pytest.raises(ValidationError, match="undeclared labels"):
            reader(fsm)
    with pytest.raises(ValidationError, match=r"-> \['x'\] uses undeclared"):
        StateMachine(("s",), ("e",), {("e", "s"): ["x"]}.get).target("e", "s")
    with pytest.raises(ValidationError, match=r"label \[1\]"):
        StateMachine(([1],), ("e",), {}.get)


def test_property_step_semantics():
    p = Property(name="p", states=frozenset([1]), deny_events=frozenset(["b"]))
    assert p.step_ok("a", 1)
    assert not p.step_ok("b", 1)
    assert not p.step_ok("a", 0)
    assert not p.step_ok(WILDCARD, 1)  # denies an event, so not event-free
    q = Property(name="q", states=frozenset([1]))
    assert q.step_ok(WILDCARD, 1)
    assert ANYTHING.step_ok(WILDCARD, 0) and ANYTHING.step_ok("zzz", None)
    for prop in (p, q, ANYTHING):       # the halves the search's masks use
        for e in ("a", "b", WILDCARD):
            for s in (0, 1, None):
                assert prop.step_ok(e, s) == (
                    prop.state_ok(s) and prop.event_ok(e))


@pytest.mark.parametrize("fields, named", [
    # a str once passed a substring test: "u" was in the states "(u)"
    ({"states": "(u)"}, "states: a frozenset or None, not str"),
    ({"states": 5}, "states: a frozenset or None, not int"),
    ({"allow_events": ["a"]}, "allow_events: a frozenset or None, not list"),
    ({"deny_events": None}, "deny_events: a frozenset, not NoneType"),
    ({"name": 5}, "name: a string, not int"),
])
def test_a_property_checks_its_fields(fields, named):
    with pytest.raises(ValidationError, match=named):
        Property(**fields)


def test_a_claim_never_meets_a_malformed_property():
    # a property of states=5 once reached check_claim, which raised a raw
    # TypeError testing a state's membership in 5
    fsm = load_fsm(fixture_text("acme.fsm"))
    with pytest.raises(ValidationError, match="states"):
        check_claim(fsm, EvidentialStatement((ObservationSequence((
            Observation(Property(name="p", states=5)),)),)))


def test_resolve_property_forms():
    fsm, _ = toy_machine()
    assert resolve_property(fsm, ANYTHING) is ANYTHING
    assert resolve_property(fsm, "$") == ANYTHING
    assert resolve_property(fsm, ANY_PROPERTY) == ANYTHING
    assert resolve_property(fsm, 0).states == frozenset([0])
    with pytest.raises(ReconstructionError):
        resolve_property(fsm, "no_such_thing")


# ---------------------------------------------------------------------------
# Inverse transition map and left extension
# ---------------------------------------------------------------------------


def test_invert_transition():
    fsm, trans = toy_machine()
    inv = invert_transition(fsm)
    assert ("a", 0) in inv[1] and ("c", 1) in inv[1]
    assert ("b", 1) in inv[0]
    # b does not fire in 0, so no step (b, 0) leads anywhere
    assert ("b", 0) not in inv[0]


def test_psi_inverse_set_extends_left():
    fsm, trans = toy_machine()
    y = {((WILDCARD, 1),)}
    ext = psi_inverse_set(fsm, y)
    for x in ext:
        assert len(x) == 2
        assert x[1:] in y
        e, s = x[0]
        assert fsm.successor(e, s) == 1
    assert (("a", 0), (WILDCARD, 1)) in ext
    assert psi_inverse_set(fsm, set()) == set()


# ---------------------------------------------------------------------------
# Fixed-length meanings
# ---------------------------------------------------------------------------


def test_meaning_single_state_observation():
    fsm, _ = toy_machine()
    p1 = Property(name="at1", states=frozenset([1]))
    m = meaning_fixed_length(fsm, [(p1, 1)])
    assert m.lens == (1,)
    assert m.computations == frozenset({((WILDCARD, 1),)})


def test_meaning_lens_equal_observation_lengths():
    fsm, _ = toy_machine()
    m = meaning_fixed_length(fsm, [(ANYTHING, 2), (ANYTHING, 1)])
    assert m.lens == (2, 1)
    for c in m.computations:
        assert len(c) == 3


def test_meaning_zero_total_is_empty_run():
    fsm, _ = toy_machine()
    m = meaning_fixed_length(fsm, [(ANYTHING, 0)])
    assert m.computations == frozenset({()})


def test_meaning_chains_through_declared_transitions_only():
    fsm, trans = toy_machine()
    m = meaning_fixed_length(fsm, [(ANYTHING, 2)])
    for c in m.computations:
        (e0, s0), (e1, s1) = c
        assert (e0, s0) in trans
        assert trans[(e0, s0)] == s1
        assert e1 == WILDCARD or (e1, s1) in trans


def test_meaning_concrete_final_when_events_constrained():
    fsm, _ = toy_machine()
    only_b = Property(name="only_b", allow_events=frozenset(["b"]))
    m = meaning_fixed_length(fsm, [(only_b, 1)])
    assert m.computations == frozenset({(("b", 1),)})


@given(st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_meaning_matches_oracle_on_toy(length):
    fsm, trans = toy_machine()
    engine = meaning_fixed_length(fsm, [(ANYTHING, length)])
    oracle = meaning_oracle(trans, (0, 1), ("a", "b", "c"),
                            [(OProp(anything=True), length, 0)], length)
    assert engine.computations == frozenset(oracle)


# ---------------------------------------------------------------------------
# Generic expansion
# ---------------------------------------------------------------------------


def seq(*obs):
    return ObservationSequence([make_observation(*o) for o in obs], name="os")


def test_expansion_twelve_variants():
    os_ab = seq(("A", 1, 3), ("B", 1, 2))
    out = expand_generic(os_ab, horizon=10)
    assert len(out) == 12
    shapes = {tuple(o.min for o in v.observations) for v in out}
    assert shapes == {(a, b) for a in (1, 2, 3, 4) for b in (1, 2, 3)}
    assert all(o.max == 0 for v in out for o in v.observations)


def test_expansion_caps_unbounded_at_horizon():
    os_any = ObservationSequence([no_observation()], name="os")
    out = expand_generic(os_any, horizon=3)
    assert sorted(v.observations[0].min for v in out) == [0, 1, 2, 3]


def test_expansion_horizon_too_small():
    os_ab = seq(("A", 2, 0), ("B", 2, 0))
    with pytest.raises(ValidationError):
        expand_generic(os_ab, horizon=3)


@given(st.lists(st.tuples(st.integers(0, 2),
                          st.one_of(st.integers(0, 2), st.just("INF+"))),
                min_size=1, max_size=3),
       st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_expansion_matches_oracle(bounds, horizon):
    obs = [("P%d" % i, mn, mx) for i, (mn, mx) in enumerate(bounds)]
    if sum(mn for _, mn, _ in obs) > horizon:
        return
    engine = expand_generic(
        ObservationSequence(
            [make_observation(p, mn, PLUS_INF if mx == "INF+" else mx)
             for p, mn, mx in obs], name="os"),
        horizon)
    oracle = expansions_oracle(obs, horizon)
    engine_shapes = sorted(tuple((o.property, o.min) for o in v.observations)
                           for v in engine)
    assert engine_shapes == sorted(oracle)


# ---------------------------------------------------------------------------
# MPR combination
# ---------------------------------------------------------------------------


MPR1 = MPR((2, 1, 4), frozenset({"c1", "c2", "c3"}))
MPR2 = MPR((3, 4), frozenset({"c4", "c5", "c6"}))
MPR3 = MPR((4, 4), frozenset({"c1", "c2", "c3", "c4"}))
MPR4 = MPR((5, 2, 1), frozenset({"c2", "c3", "c5"}))


def test_comb_worked_example():
    out = comb(MPR4, MPR3)
    assert out.lens == ((4, 4), (5, 2, 1))
    assert out.computations == frozenset({"c2", "c3"})
    assert len({sum(v) for v in out.lens}) == 1


def test_comb_empty_on_disjoint_computations():
    assert comb(MPR1, MPR2) == EMPTY_MSPR
    assert comb(MPR1, MPR2).is_empty()


def test_comb_empty_on_unequal_totals():
    assert comb(MPR1, MPR3) == EMPTY_MSPR


def test_comb_self():
    out = comb(MPR3, MPR3)
    assert out.lens == ((4, 4), (4, 4))
    assert out.computations == MPR3.computations


@pytest.mark.parametrize("build, named", [
    # comb once summed the str lens and raised a raw TypeError
    (lambda: comb(MPR((1,), frozenset({(("e", "s"),)})),
                  MPR(("x",), frozenset())), r"lens is \('x',\)"),
    (lambda: MPR([1], frozenset()), r"lens is \[1\]"),
    (lambda: MPR((1, -1), frozenset()), r"lens is \(1, -1\)"),
    (lambda: MPR((True,), frozenset()), r"lens is \(True,\)"),
    (lambda: MPR((1,), {"c1"}), "computations: a frozenset"),
    (lambda: MSPR((1,), frozenset()), "lens holds 1,"),
    (lambda: MSPR([(1,)], frozenset()), "lens: a tuple of lens tuples"),
    (lambda: MSPR(((1,), (2.0,)), frozenset()), r"lens holds \(2.0,\)"),
    (lambda: MSPR(((1,),), ["c1"]), "computations: a frozenset"),
])
def test_runs_check_their_shape(build, named):
    with pytest.raises(ValidationError, match=named):
        build()


@given(st.sets(st.sampled_from("cdefg"), max_size=4),
       st.sets(st.sampled_from("cdefg"), max_size=4),
       st.lists(st.integers(1, 4), min_size=1, max_size=3),
       st.lists(st.integers(1, 4), min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
def test_comb_proper_or_empty(ca, cb, la, lb):
    out = comb(MPR(tuple(la), frozenset(ca)), MPR(tuple(lb), frozenset(cb)))
    if sum(la) != sum(lb) or not (ca & cb):
        assert out == EMPTY_MSPR
    else:
        assert len({sum(v) for v in out.lens}) == 1
        assert out.computations == frozenset(ca & cb)


# ---------------------------------------------------------------------------
# Claim checking against the oracle
# ---------------------------------------------------------------------------


EVENT_POOL = ("a", "b", "c")


@st.composite
def random_setup(draw):
    n_states = draw(st.integers(2, 5))
    states = tuple(range(n_states))
    events = EVENT_POOL[: draw(st.integers(1, 3))]
    pairs = [(e, s) for e in events for s in states]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1,
                           max_size=len(pairs), unique=True))
    trans = {pair: draw(st.sampled_from(states)) for pair in chosen}

    def prop(kind, state_pick, event_pick, use_allow):
        if kind == "any":
            return OProp(anything=True), ANYTHING
        states_sel = frozenset(state_pick) if kind in ("state", "mixed") else None
        allow = deny = None
        if kind in ("event", "mixed"):
            if use_allow:
                allow = frozenset(event_pick)
            else:
                deny = frozenset(event_pick)
        return (OProp(states=states_sel, allow=allow, deny=deny),
                Property(name="p", states=states_sel, allow_events=allow,
                         deny_events=deny or frozenset()))

    oss = []
    for _ in range(draw(st.integers(1, 2))):
        obs = []
        for _ in range(draw(st.integers(1, 2))):
            kind = draw(st.sampled_from(["any", "state", "event", "mixed"]))
            p_oracle, p_engine = prop(
                kind,
                draw(st.lists(st.sampled_from(states), min_size=1,
                              max_size=n_states, unique=True)),
                draw(st.lists(st.sampled_from(events), min_size=1,
                              max_size=len(events), unique=True)),
                draw(st.booleans()),
            )
            mn = draw(st.integers(0, 2))
            mx = draw(st.sampled_from([0, 1, 2, "INF+"]))
            obs.append((p_oracle, p_engine, mn, mx))
        oss.append(obs)
    horizon = draw(st.integers(1, 4))
    return trans, states, events, oss, horizon


def build_engine_machine(trans, states, events):
    return StateMachine(states=states, events=events, psi=dict(trans).get)


def engine_result_set(result):
    out = set()
    for m in result.explanations:
        total = sum(m.lens[0])
        for c in m.computations:
            out.add((total, c))
    return out


def explanation_set(result):
    """Each lens-vector tuple with its computations."""
    return {(m.lens, m.computations) for m in result.explanations}


def build_engine_statement(oss):
    return EvidentialStatement([
        ObservationSequence(
            [make_observation(pe, mn, PLUS_INF if mx == "INF+" else mx)
             for _po, pe, mn, mx in obs],
            name="os%d" % i)
        for i, obs in enumerate(oss)])


@given(random_setup())
@settings(max_examples=120, deadline=None)
def test_check_claim_agrees_with_oracle(setup):
    trans, states, events, oss, horizon = setup
    fsm = build_engine_machine(trans, states, events)
    es = build_engine_statement(oss)
    want_verdict, want_runs = check_claim_oracle(
        trans, states, events,
        [[(po, mn, mx) for po, _pe, mn, mx in obs] for obs in oss],
        horizon)
    for route in ("exact", "layered"):
        got = check_claim(fsm, es, horizon=horizon, max_backtraces=100000,
                          route=route)
        assert got.consistent == want_verdict, route
        assert engine_result_set(got) == want_runs, route


@given(random_setup(), st.integers(5, 8))
@settings(max_examples=100, deadline=None)
def test_layered_agrees_with_exact_past_the_oracle(setup, horizon):
    # the oracle is too slow past horizon 4; the exact route is the spec
    trans, states, events, oss, _ = setup
    fsm = build_engine_machine(trans, states, events)
    es = build_engine_statement(oss)
    exact = check_claim(fsm, es, horizon=horizon, max_backtraces=100000,
                        route="exact")
    layered = check_claim(fsm, es, horizon=horizon, max_backtraces=100000)
    assert layered.route == "layered"
    assert layered.consistent == exact.consistent
    assert explanation_set(layered) == explanation_set(exact)
    assert layered.backtraces == exact.backtraces
    assert layered.witnesses == exact.witnesses
    assert not layered.truncated and not exact.truncated


@given(random_setup())
@settings(max_examples=80, deadline=None)
def test_witnesses_count_every_window(setup):
    trans, states, events, oss, horizon = setup
    fsm = build_engine_machine(trans, states, events)
    es = build_engine_statement(oss)
    for route in ("exact", "layered"):
        got = check_claim(fsm, es, horizon=horizon, route=route)
        if not got.truncated:
            assert got.witnesses == len(engine_result_set(got)), route


@given(random_setup())
@settings(max_examples=60, deadline=None)
def test_psi_inverse_set_prepends_only_fired_steps(setup):
    trans, states, events, _oss, _horizon = setup
    fsm = build_engine_machine(trans, states, events)
    ext = psi_inverse_set(fsm, {((WILDCARD, s),) for s in states})
    for (e, s), (_, s2) in ext:
        assert fsm.fires(e, s) and fsm.successor(e, s) == s2
    assert len(ext) == len(trans)


def test_witness_count_is_exact_past_the_cap():
    fsm = load_fsm("a s -> s\nb s -> s\n")
    es = load_es("observation x = ($, 40, 0)\nsequence s = x\n"
                 "statement = s\n")
    result = check_claim(fsm, es, horizon=40)
    # 39 chained steps of two events each, then the wildcard final step
    assert result.witnesses == 2 ** 39
    assert result.truncated and len(result.explanations[0].computations) == 64
    assert result.nodes == 40


def ring_machine(n):
    """n states in a ring: tick moves on, idle stays; at_start is s0."""
    states = tuple("s%d" % i for i in range(n))
    psi = {}
    for i, s in enumerate(states):
        psi["tick", s] = states[(i + 1) % n]
        psi["idle", s] = s
    return StateMachine(states, ("tick", "idle"), psi.get, {
        "at_start": Property("at_start", states=frozenset(["s0"]))})


def test_a_claim_on_one_state_expands_only_what_it_reaches():
    # a window starts in s0, then takes up to six more steps: one start
    # node is live, so the search has the same size on any ring
    es = EvidentialStatement([ObservationSequence([
        make_observation("at_start", 1, 0), make_observation("$", 0, 6)])])
    started = time.monotonic()
    results = [check_claim(ring_machine(n), es, horizon=8)
               for n in (2000, 20000)]
    assert time.monotonic() - started < 1.0
    assert {r.nodes for r in results} == {28}
    assert {r.witnesses for r in results} == {2 ** 7 - 1}
    assert results[0] == results[1]


@given(random_setup())
@settings(max_examples=60, deadline=None)
def test_padding_with_no_observation_never_shrinks(setup):
    trans, states, events, oss, horizon = setup
    fsm = build_engine_machine(trans, states, events)

    def build(pad_front, pad_back):
        seqs = []
        for i, obs in enumerate(oss):
            members = [make_observation(pe, mn,
                                        PLUS_INF if mx == "INF+" else mx)
                       for _po, pe, mn, mx in obs]
            if pad_front:
                members = [no_observation()] + members
            if pad_back:
                members = members + [no_observation()]
            seqs.append(ObservationSequence(members, name="os%d" % i))
        return EvidentialStatement(seqs)

    def covers(pool, item):
        length, run = item
        if item in pool:
            return True
        # a wildcard ending subsumes every concrete final event
        return bool(run) and (
            length, run[:-1] + ((WILDCARD, run[-1][1]),)) in pool

    base = engine_result_set(
        check_claim(fsm, build(False, False), horizon=horizon,
                    max_backtraces=100000, route="exact"))
    for front, back in ((True, False), (False, True)):
        padded = engine_result_set(
            check_claim(fsm, build(front, back), horizon=horizon,
                        max_backtraces=100000, route="exact"))
        assert all(covers(padded, item) for item in base)


def test_check_claim_rejects_empty_statement():
    fsm, _ = toy_machine()
    with pytest.raises(ValidationError):
        check_claim(fsm, EvidentialStatement([]))


@pytest.mark.parametrize("fsm", [None, 5, "a s -> t"])
def test_check_claim_rejects_a_machine_of_the_wrong_type(fsm):
    es = EvidentialStatement([ObservationSequence([no_observation()])])
    with pytest.raises(ValidationError, match="takes a StateMachine"):
        check_claim(fsm, es)


@pytest.mark.parametrize("limits", [
    {"horizon": "5"}, {"horizon": -1}, {"horizon": 2.0}, {"horizon": True},
    {"max_backtraces": "64"}, {"max_backtraces": -1},
    {"max_backtraces": None}])
def test_check_claim_rejects_bad_limits(limits):
    fsm, _ = toy_machine()
    es = EvidentialStatement([ObservationSequence([no_observation()])])
    with pytest.raises(ValidationError):
        check_claim(fsm, es, **limits)


def test_check_claim_zero_limits_are_valid():
    fsm, _ = toy_machine()
    es = EvidentialStatement([ObservationSequence([no_observation()])])
    assert check_claim(fsm, es, horizon=0).consistent
    capped = check_claim(fsm, es, horizon=4, max_backtraces=0,
                         route="layered")
    assert capped.consistent and capped.truncated


def test_long_window_reads_back_without_recursion():
    fsm = load_fsm("a s0 -> s1\na s1 -> s0\n")
    es = load_es("observation x = ($, 2500, 0)\nsequence s = x\n"
                 "statement = s\n")
    result = check_claim(fsm, es, horizon=2500)
    assert result.consistent and result.route == "layered"
    assert sorted(bt[0][1] for bt in result.backtraces) == ["s0", "s1"]
    assert all(len(bt) == 2500 for bt in result.backtraces)


def test_long_account_checks_without_recursion():
    fsm = load_fsm("a s0 -> s1\na s1 -> s0\n")
    es = EvidentialStatement([ObservationSequence(
        [make_observation("s%d" % (i % 2), 1, 0) for i in range(5000)])])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        result = check_claim(fsm, es, horizon=5000)
    finally:
        sys.setrecursionlimit(limit)
    assert result.consistent and result.witnesses == 1
    assert [m.lens for m in result.explanations] == [((1,) * 5000,)]
    (bt,) = result.backtraces
    assert len(bt) == 5000
    assert bt[0] == ("a", "s0") and bt[-1] == (WILDCARD, "s1")


BARREN_CLAIMS = [
    # both accounts go on forever, but one ends in s0 and one in s1
    ("a s0 -> s1\na s1 -> s0\n",
     "observation any = ($, 0, infinitum)\nobservation in0 = (s0, 1, 0)\n"
     "observation in1 = (s1, 1, 0)\nsequence p = any in0\n"
     "sequence q = any in1\nstatement = p q\n", 0),
    # a window ends in s1 only at lengths 1 and 2; s2 and s3 then cycle
    ("a s0 -> s1\nb s1 -> s2\nc s2 -> s3\nc s3 -> s2\n",
     "observation any = ($, 0, infinitum)\nobservation in1 = (s1, 1, 0)\n"
     "sequence p = any in1\nstatement = p\n", 2),
]


@pytest.mark.parametrize("fsm_text, es_text, witnesses", BARREN_CLAIMS,
                         ids=["inconsistent", "short_windows_only"])
def test_search_stops_at_a_barren_cycle(fsm_text, es_text, witnesses):
    fsm, es = load_fsm(fsm_text), load_es(es_text)
    short = check_claim(fsm, es, horizon=64)
    started = time.monotonic()
    endless = check_claim(fsm, es, horizon=10 ** 6)
    assert time.monotonic() - started < 1.0
    assert short.witnesses == witnesses and not short.truncated
    # the same result, nodes and backtraces included, but for the horizon
    assert replace(endless, horizon=64) == short


def test_exact_route_on_a_long_window_does_not_recurse():
    fsm = load_fsm("a s0 -> s1\na s1 -> s0\n")
    es = load_es("observation x = ($, 1200, 0)\nsequence s = x\n"
                 "statement = s\n")
    result = check_claim(fsm, es, horizon=1200, route="exact")
    assert result.consistent and result.route == "exact"
    assert sorted(bt[0][1] for bt in result.backtraces) == ["s0", "s1"]
    assert all(len(bt) == 1200 for bt in result.backtraces)


def test_backtraces_collapse_stutters():
    assert _collapse_stutters((("a", 0), ("a", 0), ("b", 1))) == \
        (("a", 0), ("b", 1))
    assert _collapse_stutters(()) == ()


def test_dedupe_wildcard_twins():
    wild = (("a", 0), (WILDCARD, 1))
    concrete = (("a", 0), ("b", 1))
    assert _dedupe_wildcard_twins({wild, concrete}) == {wild}
    assert _dedupe_wildcard_twins({concrete}) == {concrete}


# ---------------------------------------------------------------------------
# The printer case
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def acme():
    return load_fsm(fixture_text("acme.fsm"))


def test_acme_machine_shape(acme):
    assert len(acme.states) == 25
    assert set(acme.events) == {"add_A", "add_B", "take"}
    assert sum(map(len, invert_transition(acme).values())) == 46
    assert acme.target("add_A", "(empty,empty)") == "(A,empty)"
    assert acme.target("take", "(A,B)") == "(A_Deleted,B)"
    assert acme.target("add_B", "(A_Deleted,B_Deleted)") == "(B,B_Deleted)"
    assert acme.target("take", "(empty,empty)") is None


@pytest.mark.parametrize("claim, horizon",
                         [("acme.es", 12), ("acme_alice.es", 12)])
def test_the_search_asks_psi_only_where_a_letter_goes_on(acme, claim,
                                                         horizon):
    asked = set()

    def psi(pair):
        asked.add(pair)
        return acme.target(*pair)
    es = load_es(fixture_text(claim))
    assert check_claim(replace(acme, psi=psi), es, horizon=horizon) == \
        check_claim(acme, es, horizon=horizon)
    assert 0 < len(asked) < len(acme.states) * len(acme.events)


def test_acme_meaning_length_one_final(acme):
    final = acme.properties["double_deletion"]
    m = meaning_fixed_length(acme, [(final, 1)])
    assert m.computations == frozenset(
        {((WILDCARD, "(B_Deleted,B_Deleted)"),)})


def test_acme_meaning_length_two_final(acme):
    final = acme.properties["double_deletion"]
    m = meaning_fixed_length(acme, [(ANYTHING, 1), (final, 1)])
    assert m.computations == frozenset({
        (("take", "(B_Deleted,B)"), (WILDCARD, "(B_Deleted,B_Deleted)")),
        (("take", "(B,B_Deleted)"), (WILDCARD, "(B_Deleted,B_Deleted)")),
    })


def test_acme_meaning_from_initial(acme):
    init = acme.properties["initially_empty"]
    m1 = meaning_fixed_length(acme, [(init, 1)])
    assert m1.computations == frozenset({((WILDCARD, "(empty,empty)"),)})

    m2 = meaning_fixed_length(acme, [(init, 1), (ANYTHING, 1)])
    assert m2.computations == frozenset({
        (("add_A", "(empty,empty)"), (WILDCARD, "(A,empty)")),
        (("add_B", "(empty,empty)"), (WILDCARD, "(B,empty)")),
    })

    m3 = meaning_fixed_length(acme, [(init, 1), (ANYTHING, 2)])
    assert m3.computations == frozenset({
        (("add_A", "(empty,empty)"), ("take", "(A,empty)"),
         (WILDCARD, "(A_Deleted,empty)")),
        (("add_A", "(empty,empty)"), ("add_B", "(A,empty)"),
         (WILDCARD, "(A,B)")),
        (("add_B", "(empty,empty)"), ("take", "(B,empty)"),
         (WILDCARD, "(B_Deleted,empty)")),
        (("add_B", "(empty,empty)"), ("add_A", "(B,empty)"),
         (WILDCARD, "(B,A)")),
    })


def test_acme_length_three_membership(acme):
    final = acme.properties["double_deletion"]
    m = meaning_fixed_length(acme, [(ANYTHING, 2), (final, 1)])
    assert (("add_B", "(empty,B_Deleted)"), ("take", "(B,B_Deleted)"),
            (WILDCARD, "(B_Deleted,B_Deleted)")) in m.computations
    assert (("take", "(B,B)"), ("take", "(B_Deleted,B)"),
            (WILDCARD, "(B_Deleted,B_Deleted)")) in m.computations


def test_acme_case_consistent(acme):
    es = load_es(fixture_text("acme.es"))
    started = time.monotonic()
    result = check_claim(acme, es)
    elapsed = time.monotonic() - started
    assert result.consistent
    assert not result.horizon_warning
    assert result.backtraces
    good = [bt for bt in result.backtraces
            if bt[0][1] == "(empty,empty)"
            and bt[-1][1] == "(B_Deleted,B_Deleted)"]
    assert good
    assert elapsed < 1.0


def test_acme_alice_inconsistent(acme):
    es = load_es(fixture_text("acme_alice.es"))
    result = check_claim(acme, es)
    assert not result.consistent
    assert result.explanations == ()
    assert result.backtraces == ()
    assert result.horizon_warning  # unbounded windows remain conceivable


def test_acme_truncation_is_reported(acme):
    es = load_es(fixture_text("acme.es"))
    capped = check_claim(acme, es, horizon=16)
    assert len(capped.backtraces) == 64 and capped.truncated
    full = check_claim(acme, es, horizon=16, max_backtraces=1000)
    assert len(full.backtraces) == 301 and not full.truncated
    assert full.witnesses == len(engine_result_set(full))
    assert set(capped.backtraces) < set(full.backtraces)


def acme_window(acme, start, events):
    """The window from start through events, then the wildcard step."""
    steps = []
    for e in events.split():
        steps.append((e, start))
        start = acme.successor(e, start)
    return tuple(steps) + ((WILDCARD, start),)


def test_acme_reads_back_witnesses_in_layer_order(acme):
    # a capped read-back returns the first witnesses in layer order
    es = load_es(fixture_text("acme.es"))
    five = check_claim(acme, es, horizon=16, max_backtraces=5)
    assert (five.witnesses, five.truncated) == (6, True)
    assert five.backtraces == tuple(acme_window(acme, *run) for run in [
        ("(empty,empty)", "add_A add_B take take add_B take"),
        ("(empty,empty)", "add_A add_B take add_A take take add_B take"),
        ("(empty,empty)", "add_A add_B take take add_A take add_B take"),
        ("(empty,empty)", "add_A take add_A add_B take take add_B take"),
        ("(empty,empty)", "add_B take add_A add_B take take add_B take")])
    assert [(m.lens, len(m.computations)) for m in five.explanations] == [
        (((1, 6), (6, 1)), 1), (((1, 8), (8, 1)), 4)]
    assert {c for m in five.explanations for c in m.computations} == \
        set(five.backtraces)
    cap = check_claim(acme, es, horizon=16, max_backtraces=64)
    assert (cap.witnesses, cap.truncated) == (90, True)
    assert len(cap.backtraces) == 64
    assert [(m.lens, len(m.computations)) for m in cap.explanations] == [
        (((1, 6), (6, 1)), 1), (((1, 8), (8, 1)), 5),
        (((1, 10), (10, 1)), 19), (((1, 12), (12, 1)), 39)]
    assert [sha256(repr(v).encode()).hexdigest()
            for v in (cap.backtraces, cap.explanations)] == [
        "a1fc7c79625aa180721ce6d94a17cac25fbcff777e189a223b481f09a454bdd7",
        "9224c9524771c5d2da0b71a2c521aebe8633597bceda3d439a48fedbfad60c6b"]


def test_acme_backtraces_are_chained(acme):
    es = load_es(fixture_text("acme.es"))
    result = check_claim(acme, es)
    for bt in result.backtraces:
        for (e, s), (_e2, s2) in zip(bt, bt[1:]):
            assert acme.fires(e, s)
            assert acme.successor(e, s) == s2


# ---------------------------------------------------------------------------
# The blackmail case
# ---------------------------------------------------------------------------


PATH_INPLACE = (
    ("(u)", "(0,o1,o2)"),
    ("(u,t2)", "(1,u,o2)"),
    ("(u)", "(2,u,t2)"),
    (WILDCARD, "(1,u,t2)"),
)
PATH_DISK_EDITOR = (
    ("(u)", "(0,o1,o2)"),
    ("d(u,t2)", "(1,u,o2)"),
    (WILDCARD, "(1,u,t2)"),
)


@pytest.fixture(scope="module")
def blackmail():
    return load_fsm(fixture_text("blackmail.fsm"))


def test_blackmail_machine_shape(blackmail):
    assert len(blackmail.states) == 4
    assert set(blackmail.events) == {"(u)", "(u,t2)", "d(u,t2)"}
    assert sum(map(len, invert_transition(blackmail).values())) == 4


def test_blackmail_exactly_two_explanations(blackmail):
    es = load_es(fixture_text("blackmail.es"))
    result = check_claim(blackmail, es)
    assert result.consistent
    assert set(result.backtraces) == {PATH_INPLACE, PATH_DISK_EDITOR}


@pytest.mark.parametrize("horizon", [4, 8])
def test_blackmail_lists_every_segment_composition(blackmail, horizon):
    es = load_es(fixture_text("blackmail.es"))
    exact = check_claim(blackmail, es, horizon=horizon, route="exact")
    layered = check_claim(blackmail, es, horizon=horizon)
    assert len(layered.explanations) == 15
    assert explanation_set(layered) == explanation_set(exact)


def test_blackmail_is_not_truncated(blackmail):
    es = load_es(fixture_text("blackmail.es"))
    for route in ("exact", "layered"):
        assert not check_claim(blackmail, es, route=route).truncated


def test_blackmail_without_theory_has_more(blackmail):
    # dropping Mr. A's account admits the write of the threats version
    # over a clean cluster, so his theory is what narrows it to two
    es = load_es(fixture_text("blackmail.es"))
    es2 = EvidentialStatement(
        [s for s in es.sequences if s.name != "os_mr_a"])
    result = check_claim(blackmail, es2)
    assert result.consistent
    assert set(result.backtraces) > {PATH_INPLACE, PATH_DISK_EDITOR}


@pytest.mark.parametrize("event, path", [
    ("d(u,t2)", PATH_DISK_EDITOR), ("(u,t2)", PATH_INPLACE)])
def test_a_tag_set_property_allows_its_tags_as_events(blackmail, event, path):
    final = load_es(fixture_text("blackmail.es")).sequences[0]
    write = ObservationSequence((
        no_observation(), make_observation(TagSet(tags=(event,)), 1, 0),
        no_observation()))
    result = check_claim(blackmail, EvidentialStatement((final, write)))
    assert result.consistent and path in result.backtraces
    assert all(event in dict(bt) for bt in result.backtraces)


def test_blackmail_es_parse_shape():
    es = load_es(fixture_text("blackmail.es"))
    assert [s.name for s in es.sequences] == \
        ["os_final", "os_unrelated", "os_mr_a"]
    os_unrelated = es.sequences[1]
    assert len(os_unrelated) == 5
    assert os_unrelated.observations[3].min == 0
    assert os_unrelated.observations[3].max == 0


def test_load_es_errors():
    with pytest.raises(ValidationError):
        load_es("observation x = (p, 1, 0)\n")  # no statement
    with pytest.raises(ValidationError):
        load_es("statement = ghost\n")
    with pytest.raises(ValidationError):
        load_es("sequence s = ghost\nstatement = s\n")
    with pytest.raises(ValidationError):
        load_es("junk line\n")


@pytest.mark.parametrize("value", [
    "(a, x, 0)", "(a, 1, y)", "(a, 1, 0, zz)", "(a, 1, 0, 1, tt)"])
def test_load_es_rejects_non_numeric_fields(value):
    with pytest.raises(ValidationError, match="observation x"):
        load_es("observation x = %s\nsequence s = x\nstatement = s\n"
                % value)


def plant(text, lineno, bad):
    """text with bad inserted so that it starts at 1-based line lineno."""
    lines = text.splitlines()
    lines.insert(lineno - 1, bad)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("bad, message", [
    ("junk", "unrecognized fixture line: 'junk'"),
    ("(u) a b -> c", "transition needs `event state -> state`: '(u) a b -> c'"),
    ("(u) (0,o1,o2) ->", "missing target state: '(u) (0,o1,o2) ->'"),
    ("property  { states: a; }", "property  { states: a; }"),
    # a block over two lines is reported at its first
    ("property p {\n  colour: red; }", "unknown property clause 'colour'"),
    ("property p { states: a; } b t -> s", "text after '}': 'b t -> s'"),
])
def test_load_fsm_names_the_bad_line(bad, message):
    with pytest.raises(ValidationError) as err:
        load_fsm(plant(fixture_text("blackmail.fsm"), 12, bad))
    assert str(err.value).startswith("line 12: ")
    assert message in str(err.value)


@pytest.mark.parametrize("bad, message", [
    ("junk line", "unrecognized claim line: 'junk line'"),
    ("observation x =", "`observation NAME = VALUE`: 'observation x ='"),
    ("observation x = (p, 1)", "(PROP, min, max[, w[, t]]): "
     "'observation x = (p, 1)'"),
    ("observation x = (p, a, 0)", "w a number: 'observation x = (p, a, 0)'"),
    ("observation x = [p]", "unrecognized observation value '[p]'"),
    ("observation x = (p, -1, 0)", "min must be non-negative"),
    ("sequence s = ghost", "sequence s references unknown observation"),
    ("sequence s =", "sequence s is empty"),
    ("statements = os_final", "unrecognized claim line: 'statements = os_final'"),
])
def test_load_es_names_the_bad_line(bad, message):
    with pytest.raises(ValidationError) as err:
        load_es(plant(fixture_text("blackmail.es"), 7, bad))
    assert str(err.value).startswith("line 7: ")
    assert message in str(err.value)


def test_load_es_names_the_statement_line():
    text = fixture_text("blackmail.es")
    lineno = text.splitlines().index(
        "statement = os_final os_unrelated os_mr_a") + 1
    with pytest.raises(ValidationError,
                       match="^line %d: statement references unknown "
                             "sequence 'ghost'" % lineno):
        load_es(text.replace("statement = os_final",
                             "statement = os_final ghost"))


def test_load_es_rejects_a_second_statement_line():
    text = fixture_text("blackmail.es")
    first = text.splitlines().index(
        "statement = os_final os_unrelated os_mr_a") + 1
    second = len(text.splitlines()) + 1
    with pytest.raises(ValidationError,
                       match="^line %d: a second statement line; the first "
                             "is line %d$" % (second, first)):
        load_es(text + "statement = os_final\n")


def test_load_fsm_rejects_nameless_property():
    with pytest.raises(ValidationError, match="property  {"):
        load_fsm("property  { states: a; }")


# Each fixture with the fixtures it is checked against.
CLAIMS = {"acme.fsm": ["acme.es", "acme_alice.es"],
          "blackmail.fsm": ["blackmail.es"],
          "acme.es": ["acme.fsm"], "acme_alice.es": ["acme.fsm"],
          "blackmail.es": ["blackmail.fsm"]}
TOKEN = re.compile(r"->|[(){},;:=#$]|[^\s(){},;:=#$]+|\s+")
# tokens of the two formats that a replacement may bring in
SYNTAX = ["", "->", "(", ")", "{", "}", ",", ";", "=", "$", "#", "\n",
          "-1", "0", "INF+", "infinitum", "\\0(", "property", "states:",
          "allow-events:", "observation", "sequence", "statement"]


@st.composite
def fixture_mutants(draw):
    """(fixture name, text) with one token or one line deleted,
    repeated, replaced or moved."""
    name = draw(st.sampled_from(sorted(CLAIMS)))
    text = fixture_text(name)
    parts = (text.splitlines(keepends=True) if draw(st.booleans())
             else TOKEN.findall(text))
    i = draw(st.integers(0, len(parts) - 1))
    other = draw(st.sampled_from(parts + SYNTAX))
    how = draw(st.sampled_from(["delete", "repeat", "replace", "move"]))
    if how == "delete":
        del parts[i]
    elif how == "repeat":
        parts.insert(i, parts[i])
    elif how == "replace":
        parts[i] = other
    else:
        parts.insert(draw(st.integers(0, len(parts))), parts.pop(i))
    return name, "".join(parts)


def _load(name, text):
    """The fixture loaded, or None; a loader's error that names a line
    names one inside the text."""
    try:
        return (load_fsm if name.endswith(".fsm") else load_es)(text)
    except FlucidError as err:
        line = re.match(r"line (\d+): ", str(err))
        if line:
            assert 1 <= int(line.group(1)) <= len(text.splitlines()), err
        return None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(fixture_mutants())
def test_loaders_and_claims_on_mutated_fixtures_raise_only_flucid_errors(
        mutant):
    # any exception other than a FlucidError fails the test
    name, text = mutant
    loaded = _load(name, text)
    if loaded is None:
        return
    for partner in CLAIMS[name]:
        other = _load(partner, fixture_text(partner))
        fsm, es = (loaded, other) if name.endswith(".fsm") else (other, loaded)
        for horizon in range(9):
            try:
                check_claim(fsm, es, horizon=horizon)
            except FlucidError:
                pass


@pytest.mark.parametrize("mn, mx, message", [
    (-1, 0, "min must be non-negative"),
    (1, -1, "max must be non-negative"),
    (1.5, 0, "min must be an integer"),
    (1, "x", r"max must be an integer or INF\+"),
    (PLUS_INF, 0, "min must be an integer"),
    (True, 0, "min must be an integer"),
])
def test_check_claim_validates_durations(mn, mx, message):
    # an observation checks its duration when it is built, even built
    # directly, so no statement that reaches check_claim holds a bad one
    fsm = load_fsm(fixture_text("acme.fsm"))
    with pytest.raises(ValidationError, match="^%s$" % message):
        es = EvidentialStatement((
            ObservationSequence((no_observation(),), name="os_ok"),
            ObservationSequence((no_observation(),
                                 Observation("initially_empty", mn, mx)),
                                name="os_bad")))
        check_claim(fsm, es, horizon=4)


@pytest.mark.parametrize("es, message", [
    (partial(EvidentialStatement, ("x",)),
     "^sequence 1 is 'x', not an observation sequence$"),
    (partial(ObservationSequence, ("y",), name="os_y"),
     "^sequence os_y, item 1 is 'y', not an observation$"),
    (partial(ObservationSequence, ("y",)),
     "^an observation sequence's item 1 is 'y', not an observation$"),
])
def test_check_claim_validates_the_members_of_its_statement(es, message):
    # es builds a statement, or a sequence for one: a statement checks its
    # members, and a sequence its items, when it is built, so no statement
    # that reaches check_claim holds a stray
    fsm = load_fsm(fixture_text("acme.fsm"))
    with pytest.raises(ValidationError, match=message):
        check_claim(fsm, es(), horizon=3)


MACHINES = {name: load_fsm(fixture_text(name))
            for name in ("acme.fsm", "blackmail.fsm")}


@st.composite
def raw_claims(draw):
    """(machine, members, horizon): the members of a statement, to be
    built directly, each a list of the items of a sequence or a stray.
    The items are observations with any property and any valid duration
    and weight, and strays of other kinds.  An invalid duration raises
    when its observation is built (see
    test_an_observation_rejects_invalid_fields), and a stray when its
    sequence or statement is built."""
    fsm = MACHINES[draw(st.sampled_from(sorted(MACHINES)))]
    props = st.one_of(
        st.sampled_from(list(fsm.states) + sorted(fsm.properties)
                        + ["$", ANY_PROPERTY, "nowhere", ""]),
        st.sampled_from([0, 2.5, None, ("a", 1), TagSet(tags=fsm.events[:2])]))
    valid = st.tuples(st.integers(0, 3),
                      st.one_of(st.integers(0, 2), st.just(PLUS_INF)),
                      st.sampled_from([0, 0.25, 1]))
    observations = st.builds(lambda p, d: Observation(p, *d), props, valid)
    strays = st.sampled_from(["x", 0, None, ("p", 1), no_observation(),
                              ObservationSequence(())])
    sequences = st.lists(st.one_of(observations, observations, strays),
                         max_size=4)
    members = draw(st.lists(st.one_of(sequences, sequences, strays),
                            max_size=3))
    return fsm, members, draw(st.integers(0, 8))


def test_an_observation_rejects_invalid_fields():
    # the durations raw_claims once drew: all but (1, 0) raise when the
    # observation is built, naming the field
    for mn in (-1, 1.5, "x", True, None, PLUS_INF, 1):
        for mx in (-1, 1.5, "x", False, None, 0):
            try:
                Observation("s", mn, mx)
            except ValidationError as exc:
                assert exc.fieldname in ("min", "max")
            else:
                assert (mn, mx) == (1, 0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(raw_claims())
def test_check_claim_on_raw_statements_raises_only_flucid_errors(claim):
    # any exception other than a FlucidError fails the test: building
    # rejects a stray, and check_claim returns or raises
    fsm, members, horizon = claim
    try:
        es = EvidentialStatement(tuple(
            ObservationSequence(tuple(m)) if isinstance(m, list) else m
            for m in members))
    except ValidationError:
        return
    try:
        check_claim(fsm, es, horizon=horizon)
    except FlucidError:
        pass
