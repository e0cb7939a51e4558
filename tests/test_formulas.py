import pytest
from hypothesis import given, settings, strategies as st

from gatesynth.encoder import CAtom
from gatesynth.formulas import (
    AU, AX, BOOLEAN, BOTTOM, CONTEXTUAL, ENUM, EU, EX, NUMERIC, RESOURCE,
    SUBJECT, AG, EF, And, Atom, AttributeDecl, AttributeSignature, Not,
    Requirement, Top, build_regions, collect_atoms, conj, contains_au,
    deadlock_free_constraint, deny, disj, eval_target, falsum, format_value,
    grant, implies, is_deadlock_freeness, release, strict_deadlock_free_constraint,
    subformulas, target_equiv, target_sat, validate_constraint,
    validate_target, value_key, waypoint, blocking, IntervalSet, value_set,
)

from oracle import per_value_regions


SIG = AttributeSignature([
    AttributeDecl("role", SUBJECT, ENUM, ("visitor", "employee")),
    AttributeDecl("time", CONTEXTUAL, NUMERIC),
    AttributeDecl("pin", CONTEXTUAL, BOOLEAN),
    AttributeDecl("door", RESOURCE, ENUM, ("a", "b")),
])


def test_value_ordering_is_total():
    values = ["b", 5, True, BOTTOM, "a", 0, False]
    ordered = sorted(values, key=value_key)
    assert ordered == [BOTTOM, False, True, 0, 5, "a", "b"]


def test_format_value():
    assert format_value(BOTTOM) == "bot"
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(7) == "7"
    assert format_value("mr") == "mr"


def test_signature_rejects_bad_declarations():
    with pytest.raises(ValueError, match="duplicate"):
        AttributeSignature([AttributeDecl("x", SUBJECT, BOOLEAN),
                            AttributeDecl("x", SUBJECT, BOOLEAN)])
    with pytest.raises(ValueError, match="class"):
        AttributeSignature([AttributeDecl("x", "weird", BOOLEAN)])
    with pytest.raises(ValueError, match="kind"):
        AttributeSignature([AttributeDecl("x", SUBJECT, "weird")])
    with pytest.raises(ValueError, match="no symbols"):
        AttributeSignature([AttributeDecl("x", SUBJECT, ENUM, ())])


def test_admits():
    num = AttributeDecl("n", CONTEXTUAL, NUMERIC)
    assert num.admits(5) and num.admits(0) and num.admits(BOTTOM)
    assert not num.admits(True)     # booleans are not numbers here
    assert not num.admits(-1)
    boo = AttributeDecl("b", CONTEXTUAL, BOOLEAN)
    assert boo.admits(True) and boo.admits(BOTTOM) and not boo.admits(1)
    enu = AttributeDecl("e", SUBJECT, ENUM, ("x",))
    assert enu.admits("x") and enu.admits(BOTTOM) and not enu.admits("y")


def test_boolean_connective_helpers():
    a = Atom("role", frozenset(["visitor"]))
    b = Atom("pin", frozenset([True]))
    q_both = {"role": "visitor", "pin": True}
    q_one = {"role": "visitor", "pin": False}
    q_none = {"role": "employee", "pin": False}
    assert eval_target(q_both, conj([a, b]))
    assert not eval_target(q_one, conj([a, b]))
    assert eval_target({}, conj([]))            # empty conjunction holds
    assert eval_target(q_one, disj(a, b))
    assert not eval_target(q_none, disj(a, b))
    assert eval_target(q_none, implies(a, b))   # false antecedent
    assert not eval_target(q_one, implies(a, b))
    assert not eval_target(q_both, falsum())


def test_eval_target_reads_missing_attributes_as_bottom():
    a = Atom("time", frozenset([BOTTOM]))
    assert eval_target({}, a)
    assert not eval_target({"time": 3}, a)


def test_atom_values_coerced_to_frozenset():
    # Numeric sets take the interval normal form, finite ones stay
    # frozensets, and list input is coerced either way.
    a = Atom("time", [1, 2])
    assert isinstance(a.values, IntervalSet)
    assert a.values.intervals == ((1, 2),)
    assert a == Atom("time", frozenset([2, 1]))
    assert Atom("time", frozenset(range(0, 21))) == Atom("time", IntervalSet([(0, 20)]))
    r = Atom("role", ["visitor"])
    assert isinstance(r.values, frozenset)
    assert r == Atom("role", frozenset(["visitor"]))
    assert Atom("time", [BOTTOM]).values == frozenset([BOTTOM])


def test_numeric_regions_from_interval_atoms():
    atoms = [Atom("time", frozenset(range(8, 21))),
             Atom("time", frozenset(range(0, 8)))]
    regions = build_regions(SIG, atoms)
    # 21 and up is in neither set, as the unset value is: one region
    assert regions.reps["time"] == [BOTTOM, 0, 8]


def test_numeric_regions_when_only_bottom_is_mentioned():
    regions = build_regions(SIG, [Atom("time", frozenset([BOTTOM]))])
    assert regions.reps["time"] == [BOTTOM, 0]


def test_enum_and_boolean_cells_and_unmentioned_attrs():
    regions = build_regions(SIG, [Atom("role", frozenset(["visitor"])),
                                  Atom("pin", frozenset([True]))])
    # employee and false fail their test as the unset value does
    assert regions.reps["role"] == [BOTTOM, "visitor"]
    assert regions.reps["pin"] == [BOTTOM, True]
    assert regions.reps["time"] == [BOTTOM]
    assert regions.count() == 2 * 2 * 1


def test_enum_cells_merge_indistinguishable_symbols():
    # Neither set separates the two symbols, so they share a cell.
    regions = build_regions(SIG, [Atom("role", frozenset(["visitor", "employee"]))])
    assert regions.reps["role"] == [BOTTOM, "visitor"]


def test_resource_atoms_do_not_affect_regions():
    regions = build_regions(SIG, [Atom("door", frozenset(["a"]))])
    assert regions.count() == 1
    assert list(regions.representatives()) == [
        {"role": BOTTOM, "time": BOTTOM, "pin": BOTTOM}]


def test_target_sat_and_equiv():
    visitor = Atom("role", frozenset(["visitor"]))
    assert target_sat(And(visitor, Not(visitor)), SIG) is None
    q = target_sat(visitor, SIG)
    assert q is not None and q["role"] == "visitor"
    ge8 = Not(Atom("time", frozenset(range(0, 8))))
    le20 = Atom("time", frozenset(range(0, 21)))
    # Both one-sided tests together agree with the single interval atom
    # everywhere, including on an unset value (both reject it).
    assert target_equiv(And(ge8, le20), Atom("time", frozenset(range(8, 21))), SIG)
    # The lower bound alone differs: it admits large values and bottom.
    assert not target_equiv(ge8, Atom("time", frozenset(range(8, 21))), SIG)


def test_bottom_satisfies_one_sided_but_not_two_sided_bounds():
    # time >= 8 is "not in {0..7}": an unset time passes.
    ge8 = Not(Atom("time", frozenset(range(0, 8))))
    assert eval_target({"time": BOTTOM}, ge8)
    assert eval_target({}, ge8)
    # 8 <= time <= 20 includes the upper membership test, which an
    # unset time fails.
    between = And(ge8, Atom("time", frozenset(range(0, 21))))
    assert not eval_target({"time": BOTTOM}, between)
    assert eval_target({"time": 8}, between)
    assert eval_target({"time": 20}, between)
    assert not eval_target({"time": 21}, between)
    # role != visitor is a negated membership test: unset role passes.
    assert eval_target({}, Not(Atom("role", frozenset(["visitor"]))))


def test_pattern_shapes():
    goal = Atom("door", frozenset(["a"]))
    via = Atom("door", frozenset(["b"]))
    assert grant(goal) == EU(Top(), goal)
    assert deny(goal) == Not(EU(Top(), goal))
    assert blocking(via, goal) == Not(EU(Top(), And(via, EU(Top(), goal))))
    assert waypoint(via, goal) == Not(EU(Not(via), And(goal, Not(via))))
    assert AG(goal) == Not(EU(Top(), Not(goal)))
    assert EF(goal) == EU(Top(), goal)
    assert release(via, goal) == Not(EU(Not(via), Not(goal)))


def test_deadlock_freeness_recognition():
    assert is_deadlock_freeness(deadlock_free_constraint())
    assert is_deadlock_freeness(strict_deadlock_free_constraint())
    assert not is_deadlock_freeness(AG(EX(Atom("door", frozenset(["a"])))))
    assert deadlock_free_constraint() == AX(AG(EX(Top())))
    assert strict_deadlock_free_constraint() == AG(EX(Top()))


def test_requirement_polarity_validation():
    with pytest.raises(ValueError, match="polarity"):
        Requirement(Top(), Top(), "sideways")


def test_structural_helpers():
    a = Atom("role", frozenset(["visitor"]))
    f = And(a, EU(a, Not(a)))
    subs = list(subformulas(f))
    assert subs.count(a) == 1          # structural dedup
    assert collect_atoms(f) == [a]
    assert not contains_au(f)
    assert contains_au(AU(Top(), a))
    assert contains_au(Not(EX(AU(Top(), a))))


def test_validate_target_rejections():
    with pytest.raises(ValueError, match="temporal"):
        validate_target(EX(Top()), SIG)
    with pytest.raises(ValueError, match="resource"):
        validate_target(Atom("door", frozenset(["a"])), SIG)
    with pytest.raises(ValueError, match="domain"):
        validate_target(Atom("role", frozenset(["nobody"])), SIG)
    validate_target(And(Atom("role", frozenset(["visitor"])),
                        Not(Atom("time", frozenset([4])))), SIG)


def test_validate_constraint_rejections():
    with pytest.raises(ValueError, match="resource"):
        validate_constraint(EX(Atom("role", frozenset(["visitor"]))), SIG)
    with pytest.raises(ValueError, match="domain"):
        validate_constraint(Atom("door", frozenset(["z"])), SIG)
    validate_constraint(AU(Top(), Atom("door", frozenset(["a"]))), SIG)


# Differential tests: IntervalSet against the explicit frozensets it
# replaced, over the universe {unset, 0..40}.
UNIVERSE = [BOTTOM] + list(range(41))


@st.composite
def interval_sets(draw):
    """An IntervalSet built from random, possibly overlapping, adjacent
    or empty intervals, with the frozenset of its members."""
    spans = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=4))
    unset = draw(st.booleans())
    members = {v for lo, hi in spans for v in range(lo, hi + 1)}
    return IntervalSet(spans, unset), frozenset(members | ({BOTTOM} if unset else set()))


def members(values):
    return frozenset(v for v in UNIVERSE if v in values)


@settings(max_examples=300, deadline=None)
@given(interval_sets(), interval_sets())
def test_interval_sets_agree_with_frozensets(a, b):
    (ia, fa), (ib, fb) = a, b
    assert members(ia) == fa and frozenset(ia) == fa
    assert bool(ia) == bool(fa)
    for op in (lambda x, y: x & y, lambda x, y: x | y, lambda x, y: x - y):
        want = op(fa, fb)
        assert members(op(ia, ib)) == want
        assert members(op(ia, fb)) == want and members(op(fa, ib)) == want
    # one normal form per set: equal sets are equal atoms with equal hashes
    na, nb = value_set(fa), value_set(fb)
    assert value_set(ia) == na and hash(value_set(ia)) == hash(na)
    assert (na == nb) == (fa == fb)
    if na == nb:
        assert hash(na) == hash(nb)
    assert Atom("time", ia) == Atom("time", fa)
    assert CAtom("time", ia) == CAtom("time", fa)
    assert hash(CAtom("time", ia)) == hash(CAtom("time", fa))


@settings(max_examples=300, deadline=None)
@given(st.lists(interval_sets(), min_size=1, max_size=5))
def test_numeric_regions_agree_with_per_value_regions(sets):
    atoms = [Atom("time", i) for i, _ in sets]
    regions = build_regions(SIG, atoms)
    assert regions.reps["time"] == per_value_regions(SIG, atoms)["time"]
    # one region per verdict vector the explicit member sets tell apart;
    # 41 is past every interval
    vectors = {tuple(v in f for _, f in sets) for v in UNIVERSE + [41]}
    assert regions.count() == len(vectors)
