"""Forensic credibility, and the Dempster-Shafer reference that judges it.

credibility computes bel and pl by closed forms; the general definitions
it is judged by are tests/oracles.py's bel_oracle, pl_oracle and
dempster_oracle, tied here to published values and to the laws of
Shafer's theory.
"""

import os

import pytest
from hypothesis import example, given, settings, strategies as st

from flucid.dstme import DomainError, credibility
from flucid.evaluator import evaluate
from flucid.values import (
    ANY_PROPERTY, ContextSet, EvidentialStatement, Observation,
    ObservationSequence, SimpleContext, TagSet, ValidationError,
    make_observation, no_observation, zero_observation,
)

from oracles import bel_oracle, dempster_oracle, pl_oracle, powerset

R, Y, G = "red", "yellow", "green"
COLOR_FRAME = (R, Y, G)
COLOR_MASSES = {
    frozenset([R]): 0.35,
    frozenset([Y]): 0.25,
    frozenset([G]): 0.15,
    frozenset([R, Y]): 0.06,
    frozenset([R, G]): 0.05,
    frozenset([Y, G]): 0.04,
    frozenset([R, Y, G]): 0.10,
}
# published belief/plausibility columns for the same table
COLOR_TABLE = {
    frozenset([R]): (0.35, 0.56),
    frozenset([Y]): (0.25, 0.45),
    frozenset([G]): (0.15, 0.34),
    frozenset([R, Y]): (0.66, 0.85),
    frozenset([R, G]): (0.55, 0.75),
    frozenset([Y, G]): (0.44, 0.65),
    frozenset([R, Y, G]): (1.00, 1.00),
}


@st.composite
def assignments(draw, max_frame=5):
    n = draw(st.integers(min_value=1, max_value=max_frame))
    frame = tuple("abcde"[:n])
    subsets = [s for s in powerset(frame) if s]
    chosen = draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=6))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(chosen),
                            max_size=len(chosen)))
    total = sum(weights)
    masses = {}
    for s, w in zip(chosen, weights):
        masses[s] = masses.get(s, 0.0) + w / total
    return frame, masses


def mass_of(masses, subset):
    return masses.get(frozenset(subset), 0.0)


class TestMassAssignment:
    def test_color_table_valid(self):
        # the published table is an assignment: no mass on the empty set,
        # total mass 1, every focal set within the frame
        assert mass_of(COLOR_MASSES, {R, Y}) == pytest.approx(0.06)
        assert mass_of(COLOR_MASSES, set()) == 0.0
        assert sum(COLOR_MASSES.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(s <= frozenset(COLOR_FRAME) for s in COLOR_MASSES)


class TestBeliefPlausibility:
    def test_published_color_columns(self):
        for subset, (b, p) in COLOR_TABLE.items():
            assert bel_oracle(COLOR_MASSES, subset) == pytest.approx(b, abs=1e-9)
            assert pl_oracle(COLOR_MASSES, subset) == pytest.approx(p, abs=1e-9)

    def test_empty_and_frame(self):
        frame = frozenset(COLOR_FRAME)
        assert bel_oracle(COLOR_MASSES, frozenset()) == 0.0
        assert pl_oracle(COLOR_MASSES, frozenset()) == 0.0
        assert bel_oracle(COLOR_MASSES, frame) == pytest.approx(1.0)
        assert pl_oracle(COLOR_MASSES, frame) == pytest.approx(1.0)

    @given(assignments())
    def test_duality_and_ordering(self, fm):
        frame, masses = fm
        for a in powerset(frame):
            b, p = bel_oracle(masses, a), pl_oracle(masses, a)
            assert b >= -1e-9 and b <= p + 1e-9 and p <= 1 + 1e-9
            comp = frozenset(frame) - a
            assert p == pytest.approx(1.0 - bel_oracle(masses, comp), abs=1e-9)


def witness(frame, claim, w):
    fr = frozenset(frame)
    masses = {frozenset([claim]): w}
    if w < 1.0:
        masses[fr] = 1.0 - w
    return masses


class TestDempsterCombine:
    def test_two_corroborating_witnesses(self):
        m1 = witness(("limb", "other"), "limb", 0.9)
        m2 = witness(("limb", "other"), "limb", 0.9)
        joint = dempster_oracle(m1, m2)
        limb = frozenset(["limb"])
        assert bel_oracle(joint, limb) == pytest.approx(0.99, abs=1e-9)
        assert pl_oracle(joint, limb) == pytest.approx(1.0, abs=1e-9)

    def test_contradicting_witnesses(self):
        frame = ("a", "b")
        joint = dempster_oracle(witness(frame, "a", 0.9),
                                witness(frame, "b", 0.9))
        assert mass_of(joint, {"a"}) == pytest.approx(9 / 19, abs=1e-9)
        assert mass_of(joint, {"b"}) == pytest.approx(9 / 19, abs=1e-9)
        assert mass_of(joint, frame) == pytest.approx(1 / 19, abs=1e-9)

    def test_vacuous_is_neutral(self):
        frame = frozenset(COLOR_FRAME)
        joint = dempster_oracle(COLOR_MASSES, {frame: 1.0})
        for a in powerset(COLOR_FRAME):
            assert mass_of(joint, a) == pytest.approx(
                mass_of(COLOR_MASSES, a), abs=1e-9)

    def test_total_conflict_is_undefined(self):
        with pytest.raises(ZeroDivisionError):
            dempster_oracle(witness(("a", "b"), "a", 1.0),
                            witness(("a", "b"), "b", 1.0))

    @given(assignments(max_frame=3), assignments(max_frame=3))
    @settings(max_examples=60)
    def test_commutes(self, fm1, fm2):
        frame = ("a", "b", "c")
        m1, m2 = _reframe(fm1, frame), _reframe(fm2, frame)
        try:
            j12 = dempster_oracle(m1, m2)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                dempster_oracle(m2, m1)
            return
        j21 = dempster_oracle(m2, m1)
        assert sum(j12.values()) == pytest.approx(1.0, abs=1e-9)
        for a in powerset(frame):
            assert mass_of(j12, a) == pytest.approx(mass_of(j21, a), abs=1e-9)

    def test_associative_on_noncontradicting_triple(self):
        frame = ("a", "b")
        ws = [witness(frame, "a", w) for w in (0.3, 0.5, 0.7)]
        left = dempster_oracle(dempster_oracle(ws[0], ws[1]), ws[2])
        right = dempster_oracle(ws[0], dempster_oracle(ws[1], ws[2]))
        for a in powerset(frame):
            assert mass_of(left, a) == pytest.approx(mass_of(right, a), abs=1e-9)


def _reframe(fm, frame):
    _, masses = fm
    out = {}
    for s, w in masses.items():
        key = frozenset(x for x in s if x in frame) or frozenset(frame)
        out[key] = out.get(key, 0.0) + w
    return out


def seq(*obs, name=""):
    return ObservationSequence(tuple(obs), name=name)


class TestCredibility:
    def test_observation_is_its_weight(self):
        assert credibility("bel", make_observation("P", 1, 0, 0.85)) == 0.85
        assert credibility("pl", make_observation("P", 1, 0, 0.85)) == 0.85

    def test_no_observation_fully_believed(self):
        assert credibility("bel", no_observation()) == 1.0
        assert credibility("pl", no_observation()) == 1.0

    def test_zero_observation_not_believed(self):
        assert credibility("bel", zero_observation("P")) == 0.0
        assert credibility("pl", zero_observation("P")) == 0.0

    def test_contexts_fully_believed(self):
        assert credibility("bel", SimpleContext({"d": 1})) == 1.0
        assert credibility("bel", ContextSet([SimpleContext({"d": 1})])) == 1.0

    def test_sequence_average(self):
        s = seq(make_observation("a", 1, 0, 0.8), make_observation("b", 1, 0, 0.6))
        assert credibility("bel", s) == pytest.approx(0.7, abs=1e-9)
        assert credibility("pl", s) == pytest.approx(0.7, abs=1e-9)

    def test_same_property_corroboration(self):
        s = seq(make_observation("P", 1, 0, 0.9), make_observation("P", 1, 0, 0.9))
        assert credibility("bel", s) == pytest.approx(0.99, abs=1e-9)

    def test_limb_statement(self):
        betty = seq(make_observation("limb on road", 1, 0, 0.9), name="os_betty")
        sally = seq(make_observation("limb on road", 1, 0, 0.9), name="os_sally")
        es = EvidentialStatement((betty, sally), name="es")
        assert credibility("bel", es) == pytest.approx(0.99, abs=1e-9)
        assert credibility("pl", es) == pytest.approx(1.0, abs=1e-9)

    def test_statement_belief_capped(self):
        a = seq(make_observation("a"), name="os_a")
        b = seq(make_observation("b"), name="os_b")
        es = EvidentialStatement((a, b))
        assert credibility("bel", es) == pytest.approx(1.0)
        assert credibility("pl", es) == pytest.approx(1.0)

    @given(st.permutations([0.3, 0.5, 0.5, 0.9]))
    def test_sequence_average_permutation_invariant(self, ws):
        obs = tuple(make_observation("p%d" % i, 1, 0, w) for i, w in enumerate(ws))
        base = credibility("bel", seq(*obs))
        assert base == pytest.approx(sum(ws) / len(ws), abs=1e-9)

    def test_properties_are_one_when_equal(self):
        # 1, 1.0 and true are one property, as they are one tag of a tag
        # set; 0.5 and 0.5 fuse to 0.75
        one = seq(make_observation(1, 1, 0, 0.5), make_observation(1.0, 1, 0, 0.5),
                  make_observation(True, 1, 0, 0.0))
        assert credibility("bel", one) == pytest.approx(0.75, abs=1e-12)
        # so two accounts of 1 and "a", in either order, make one claim
        es = EvidentialStatement((
            seq(make_observation(1, 1, 0, 0.5), make_observation("a", 1, 0, 0.5)),
            seq(make_observation("a", 1, 0, 0.5), make_observation(1.0, 1, 0, 0.5))))
        assert credibility("bel", es) == pytest.approx(0.75, abs=1e-12)

    def test_a_profile_counts_repeated_properties(self):
        # {a, a} and {a} are two claims: 0.75 + 0.5 caps at 1, where one
        # claim would fuse to 0.875
        es = EvidentialStatement((
            seq(make_observation("a", 1, 0, 0.5), make_observation("a", 1, 0, 0.5)),
            seq(make_observation("a", 1, 0, 0.5))))
        assert credibility("bel", es) == 1.0

    def test_a_tag_set_property(self):
        # acme's Oalice shape: the property is a dimension's tag set, which
        # has no source form
        assert evaluate(
            'bel(alice) where observation sequence alice = {Oalice}; '
            'observation Oalice = (P, 0, INF+); '
            'dimension P : {"add_B", "take"}; end') == 1.0
        prop = TagSet(("add_B", "take"))
        es = EvidentialStatement((seq(make_observation(prop, 1, 0, 0.5)),
                                  seq(make_observation(TagSet(("add_B", "take")),
                                                       1, 0, 0.5))))
        assert credibility("bel", es) == pytest.approx(0.75, abs=1e-12)

    def test_an_unhashable_property_is_a_flucid_error(self):
        for prop in ([1], TagSet((1, [2]))):
            o = make_observation(prop, 1, 0, 0.5)
            assert credibility("bel", o) == 0.5
            for v in (seq(o), EvidentialStatement((seq(o),))):
                for kind in ("bel", "pl"):
                    with pytest.raises(DomainError, match="cannot be hashed"):
                        credibility(kind, v)

    def test_a_value_without_credibility(self):
        with pytest.raises(DomainError, match="not defined on integer"):
            credibility("bel", 5)
        with pytest.raises(ValidationError, match="unknown credibility kind"):
            credibility("belief", no_observation())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.tuples(
        st.sampled_from(["a", "b", ANY_PROPERTY]),
        st.one_of(st.integers(-1, 2), st.sampled_from([1.5, "x", None])),
        st.one_of(st.floats(allow_nan=True), st.integers(-1, 2),
                  st.sampled_from(["x", True, None]))), max_size=3),
        max_size=3), st.sampled_from(["bel", "pl"]))
    # two claims that overcommit: the sum of their scaled masses once
    # came to 1.0000000000000002
    @example([[("p0", 1, 0.7)], [("p1", 1, 0.6)]], "bel")
    @example([[("p0", 1, 0.7)], [("p1", 1, 0.6)]], "pl")
    def test_any_built_hierarchy_has_a_credibility_in_the_unit_range(
            self, accounts, kind):
        # an observation that is built is valid, whatever its fields
        try:
            es = EvidentialStatement(tuple(ObservationSequence(tuple(
                Observation(p, mn, 0, w) for p, mn, w in account))
                for account in accounts))
        except ValidationError:
            return
        below = (*es.sequences, *(o for s in es for o in s))
        for v in (es, *below):
            assert 0.0 <= credibility(kind, v) <= 1.0
        # only a statement's bel carries information: its pl is 1, and
        # below it bel and pl are one number
        assert credibility("pl", es) == 1.0
        for v in below:
            assert credibility("bel", v) == credibility("pl", v)

    def test_bel_at_most_pl_on_hierarchy(self):
        values = [
            make_observation("P", 1, 0, 0.4),
            seq(make_observation("a", 1, 0, 0.2), make_observation("b", 1, 0, 1.0)),
            EvidentialStatement((seq(make_observation("x", 1, 0, 0.7)),)),
        ]
        for v in values:
            assert credibility("bel", v) <= credibility("pl", v) + 1e-9


HERE = os.path.dirname(os.path.abspath(__file__))

# an account is a list of (property, kind, w): kind "$" is the
# no-observation, "0" the zero-observation of the property; the weights
# include the ends and masses within 1e-9 of them
accounts = st.lists(st.tuples(
    st.sampled_from("abc"), st.sampled_from(["w", "w", "$", "0"]),
    st.one_of(st.sampled_from([0.0, 1.0, 5e-10, 1.0 - 5e-10]),
              st.floats(0.0, 1.0))), max_size=4)


def _observation(prop, kind, w):
    if kind == "$":
        return no_observation()
    if kind == "0":
        return zero_observation(prop)
    return make_observation(prop, 1, 0, w)


def _oracle_fuse(ws):
    claim, frame = frozenset(["x"]), frozenset(["x", "y"])
    mass = {frame: 1.0}
    for w in ws:
        mass = dempster_oracle(mass, {claim: w, frame: 1.0 - w})
    return bel_oracle(mass, claim)


def _oracle_account(account):
    groups = {}
    for prop, kind, w in account:
        groups.setdefault("$" if kind == "$" else prop, []).append(
            {"$": 1.0, "0": 0.0}.get(kind, w))
    if not groups:
        return 1.0
    return sum(_oracle_fuse(ws) for ws in groups.values()) / len(groups)


def _oracle_statement(accts):
    claims = {}
    for account in accts:
        key = tuple(sorted("$" if kind == "$" else prop
                           for prop, kind, _ in account))
        claims.setdefault(key, []).append(_oracle_account(account))
    fused = {key: _oracle_fuse(ws) for key, ws in claims.items()}
    if not fused:
        return 0.0, 1.0
    total = sum(fused.values())
    claimed = frozenset(fused)
    mass = {frozenset([k]): w / max(total, 1.0) for k, w in fused.items()}
    mass[claimed | {"contrary"}] = 1.0 - min(total, 1.0)
    return bel_oracle(mass, claimed), pl_oracle(mass, claimed)


class TestCredibilityOracle:
    @given(st.lists(accounts, max_size=5))
    @settings(max_examples=200)
    def test_matches_dempster_oracle(self, accts):
        sequences = tuple(
            seq(*(_observation(*o) for o in account), name="os%d" % i)
            for i, account in enumerate(accts))
        for os_, account in zip(sequences, accts):
            for kind in ("bel", "pl"):
                assert credibility(kind, os_) == pytest.approx(
                    _oracle_account(account), abs=1e-12)
        bel, pl = _oracle_statement(accts)
        es = EvidentialStatement(sequences)
        assert credibility("bel", es) == pytest.approx(bel, abs=1e-12)
        assert credibility("pl", es) == pytest.approx(pl, abs=1e-12)

    def test_limb_corpus_program(self):
        with open(os.path.join(HERE, "corpus", "limb.ipl")) as fh:
            bel, pl = evaluate(fh.read())
        assert bel == pytest.approx(0.9999, abs=1e-12)
        assert pl == pytest.approx(1.0, abs=1e-12)
