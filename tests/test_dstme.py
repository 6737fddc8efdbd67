"""Mass assignments, belief/plausibility, Dempster combination,
forensic credibility."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from flucid.dstme import (
    CombinationUndefinedError, DomainError, _belief, _dempster_combine,
    _MassAssignment, _plausibility, credibility,
)
from flucid.evaluator import evaluate
from flucid.values import (
    ANY_PROPERTY, ContextSet, EvidentialStatement, Observation,
    ObservationSequence, SimpleContext, ValidationError, make_observation,
    no_observation, zero_observation,
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


def color_assignment():
    return _MassAssignment(COLOR_FRAME, COLOR_MASSES)


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


class TestMassAssignment:
    def test_color_table_valid(self):
        m = color_assignment()
        assert m.mass({R, Y}) == pytest.approx(0.06)
        assert m.mass(set()) == 0.0

    def test_empty_set_mass_must_be_zero(self):
        with pytest.raises(ValidationError):
            _MassAssignment((R,), {frozenset(): 0.5, frozenset([R]): 0.5})

    def test_total_must_be_one(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            _MassAssignment((R, Y), {frozenset([R]): 0.6})

    def test_focal_outside_frame(self):
        with pytest.raises(DomainError):
            _MassAssignment((R,), {frozenset([R, "blue"]): 1.0})


class TestBeliefPlausibility:
    def test_published_color_columns(self):
        m = color_assignment()
        for subset, (b, p) in COLOR_TABLE.items():
            assert _belief(m, subset) == pytest.approx(b, abs=1e-9)
            assert _plausibility(m, subset) == pytest.approx(p, abs=1e-9)

    def test_empty_and_frame(self):
        m = color_assignment()
        assert _belief(m, set()) == 0.0
        assert _belief(m, COLOR_FRAME) == pytest.approx(1.0)
        assert _plausibility(m, COLOR_FRAME) == pytest.approx(1.0)

    def test_query_outside_frame(self):
        with pytest.raises(DomainError):
            _belief(color_assignment(), {"blue"})
        with pytest.raises(DomainError):
            _plausibility(color_assignment(), {"blue"})

    @given(assignments())
    def test_matches_powerset_oracle(self, fm):
        frame, masses = fm
        m = _MassAssignment(frame, masses)
        for a in powerset(frame):
            assert _belief(m, a) == pytest.approx(bel_oracle(masses, a), abs=1e-9)
            assert _plausibility(m, a) == pytest.approx(pl_oracle(masses, a), abs=1e-9)

    @given(assignments())
    def test_duality_and_ordering(self, fm):
        frame, masses = fm
        m = _MassAssignment(frame, masses)
        for a in powerset(frame):
            b, p = _belief(m, a), _plausibility(m, a)
            assert b >= -1e-9 and b <= p + 1e-9 and p <= 1 + 1e-9
            comp = frozenset(frame) - a
            assert p == pytest.approx(1.0 - _belief(m, comp), abs=1e-9)


def witness(frame, claim, w):
    fr = frozenset(frame)
    masses = {frozenset([claim]): w}
    if w < 1.0:
        masses[fr] = 1.0 - w
    return _MassAssignment(fr, masses)


class TestDempsterCombine:
    def test_two_corroborating_witnesses(self):
        m1 = witness(("limb", "other"), "limb", 0.9)
        m2 = witness(("limb", "other"), "limb", 0.9)
        joint = _dempster_combine(m1, m2)
        assert _belief(joint, {"limb"}) == pytest.approx(0.99, abs=1e-9)
        assert _plausibility(joint, {"limb"}) == pytest.approx(1.0, abs=1e-9)

    def test_contradicting_witnesses(self):
        frame = ("a", "b")
        m1 = witness(frame, "a", 0.9)
        m2 = witness(frame, "b", 0.9)
        joint = _dempster_combine(m1, m2)
        assert joint.mass({"a"}) == pytest.approx(9 / 19, abs=1e-9)
        assert joint.mass({"b"}) == pytest.approx(9 / 19, abs=1e-9)
        assert joint.mass(frame) == pytest.approx(1 / 19, abs=1e-9)

    def test_vacuous_is_neutral(self):
        m = color_assignment()
        frame = frozenset(COLOR_FRAME)
        joint = _dempster_combine(m, _MassAssignment(frame, {frame: 1.0}))
        for a in powerset(COLOR_FRAME):
            assert joint.mass(a) == pytest.approx(m.mass(a), abs=1e-9)

    def test_total_conflict_is_undefined(self):
        m1 = witness(("a", "b"), "a", 1.0)
        m2 = witness(("a", "b"), "b", 1.0)
        with pytest.raises(CombinationUndefinedError):
            _dempster_combine(m1, m2)

    def test_frame_mismatch(self):
        with pytest.raises(DomainError):
            _dempster_combine(witness(("a", "b"), "a", 0.5),
                             witness(("a", "c"), "a", 0.5))

    @given(assignments(max_frame=3), assignments(max_frame=3))
    @settings(max_examples=60)
    def test_matches_oracle_and_commutes(self, fm1, fm2):
        frame = ("a", "b", "c")
        m1 = _MassAssignment(frame, _reframe(fm1, frame))
        m2 = _MassAssignment(frame, _reframe(fm2, frame))
        try:
            j12 = _dempster_combine(m1, m2)
        except CombinationUndefinedError:
            with pytest.raises(ZeroDivisionError):
                dempster_oracle(m1.masses, m2.masses)
            return
        expect = dempster_oracle(m1.masses, m2.masses)
        j21 = _dempster_combine(m2, m1)
        for a in powerset(frame):
            assert j12.mass(a) == pytest.approx(expect.get(frozenset(a), 0.0), abs=1e-9)
            assert j12.mass(a) == pytest.approx(j21.mass(a), abs=1e-9)

    def test_associative_on_noncontradicting_triple(self):
        frame = ("a", "b")
        ws = [witness(frame, "a", w) for w in (0.3, 0.5, 0.7)]
        left = _dempster_combine(_dempster_combine(ws[0], ws[1]), ws[2])
        right = _dempster_combine(ws[0], _dempster_combine(ws[1], ws[2]))
        for a in powerset(frame):
            assert left.mass(a) == pytest.approx(right.mass(a), abs=1e-9)


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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.tuples(
        st.sampled_from(["a", "b", ANY_PROPERTY]),
        st.one_of(st.integers(-1, 2), st.sampled_from([1.5, "x", None])),
        st.one_of(st.floats(allow_nan=True), st.integers(-1, 2),
                  st.sampled_from(["x", True, None]))), max_size=3),
        max_size=3), st.sampled_from(["bel", "pl"]))
    def test_any_built_hierarchy_has_a_credibility_in_the_unit_range(
            self, accounts, kind):
        # an observation that is built is valid, whatever its fields
        try:
            es = EvidentialStatement(tuple(ObservationSequence(tuple(
                Observation(p, mn, 0, w) for p, mn, w in account))
                for account in accounts))
        except ValidationError:
            return
        for v in (es, *es.sequences, *(o for s in es for o in s)):
            assert 0.0 <= credibility(kind, v) <= 1.0

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
# include the ends and masses below MassAssignment's tolerance
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
