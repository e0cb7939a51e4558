import random

from gatesynth.formulas import (
    AU, AX, BOTTOM, EU, EX, AG, And, Atom, Not, Top, collect_atoms,
    deadlock_free_constraint, strict_deadlock_free_constraint,
)
from gatesynth.checker import check_at, holds, label_structure, model_check
from gatesynth.model import ResourceStructure, restrict
from gatesynth.rules import format_constraint, parse_constraint, parse_request

from genutil import random_config, random_constraint, random_model
from oracle import naive_check, per_value_region_count


def chain(labels_hot, edges):
    """Tiny structures over one boolean resource attribute."""
    from gatesynth.formulas import (AttributeDecl, AttributeSignature,
                                    BOOLEAN, ENUM, RESOURCE, SUBJECT)
    names = sorted(labels_hot)
    sig = AttributeSignature([
        AttributeDecl("who", SUBJECT, ENUM, ("p",)),
        AttributeDecl("name", RESOURCE, ENUM, tuple(names)),
        AttributeDecl("hot", RESOURCE, BOOLEAN),
    ])
    labels = {n: {"name": n, "hot": labels_hot[n]} for n in names}
    S = ResourceStructure(sig, names[0], labels, {e: None for e in edges})
    S.validate(as_given=False)
    return S


def hot():
    return Atom("hot", frozenset([True]))


def name_is(n):
    return Atom("name", frozenset([n]))


def test_atoms_and_booleans_on_labels():
    S = chain({"a": False, "b": True}, [("a", "b")])
    assert not check_at(S, "a", hot())
    assert check_at(S, "b", hot())
    assert check_at(S, "a", Not(hot()))
    assert check_at(S, "a", And(Not(hot()), name_is("a")))


def test_dead_end_semantics():
    S = chain({"a": False, "b": False}, [("a", "b")])   # b is a dead end
    assert check_at(S, "b", AX(Not(Top())))   # vacuously: no successors
    assert not check_at(S, "b", EX(Top()))
    # the until needs its goal now at a dead end
    assert not check_at(S, "b", AU(Top(), hot()))
    assert check_at(S, "b", AU(Not(Top()), name_is("b")))
    assert check_at(S, "b", EU(Not(Top()), name_is("b")))


def test_single_space_with_no_doors():
    S = chain({"a": False}, [])
    assert not model_check(S, strict_deadlock_free_constraint())
    assert model_check(S, deadlock_free_constraint())   # entry is exempt
    assert model_check(S, AX(Not(Top())))


def test_cycle_without_goal_fails_universal_until():
    S = chain({"a": False, "b": False, "c": True},
              [("a", "b"), ("b", "a"), ("b", "c")])
    # one maximal path loops a-b-a-b forever and never reaches c
    assert not check_at(S, "a", AU(Top(), hot()))
    assert check_at(S, "a", EU(Top(), hot()))
    # cutting the loop makes every path reach c
    S2 = chain({"a": False, "b": False, "c": True}, [("a", "b"), ("b", "c")])
    assert check_at(S2, "a", AU(Top(), hot()))


def test_universal_until_respects_the_hold_condition():
    S = chain({"a": False, "b": True, "c": True},
              [("a", "b"), ("b", "c")])
    assert check_at(S, "a", AU(Not(hot()), hot()))
    # force the walk through a hot space before the goal
    assert not check_at(S, "a", AU(Not(hot()), name_is("c")))


def test_label_structure_returns_all_subformula_sets():
    S = chain({"a": False, "b": True}, [("a", "b"), ("b", "a")])
    f = EU(Not(hot()), hot())
    sat = label_structure(S, f)
    assert S.index.spaces(sat[hot()]) == ["b"]
    assert S.index.spaces(sat[Not(hot())]) == ["a"]
    assert S.index.spaces(sat[f]) == ["a", "b"]


def test_fixpoint_checker_agrees_with_path_oracle():
    rng = random.Random(20260817)
    cases = 0
    for _ in range(150):
        S = random_model(rng, rng.randint(2, 6))
        c = random_config(rng, S)
        q = {d.name: rng.choice([BOTTOM, True, False] if d.kind == "boolean"
                                else [BOTTOM] + list(d.symbols))
             for d in S.sig.request_attrs() if d.kind != "numeric"}
        sub = restrict(S, c, S.sig.validate_request(q))
        for _ in range(4):
            f = random_constraint(rng, S, rng.randint(1, 4))
            for node in sub.nodes:
                assert check_at(sub, node, f) == naive_check(sub, node, f), \
                    (f, node, sub.edges)
                cases += 1
    assert cases > 500


def stays_in(S, inside):
    """Spaces that start a maximal path never leaving `inside`: the
    greatest set of inside spaces that are sinks or step to the set."""
    keep = set(inside)
    changed = True
    while changed:
        changed = False
        for n in list(keep):
            succ = S.successors(n)
            if succ and not any(s in keep for s in succ):
                keep.discard(n)
                changed = True
    return keep


def test_af_and_eg_agree_with_the_path_oracle():
    # AF and EG are parsed into until forms. On restrictions with dead
    # ends, check them against the oracle and against their path
    # readings: EG phi starts a maximal path that stays in phi, AF phi
    # starts none that stays outside phi.
    rng = random.Random(20261018)
    cases = 0
    for _ in range(60):
        S = random_model(rng, rng.randint(2, 5))
        q = {"kind": rng.choice([BOTTOM] + list(S.sig.get("kind").symbols))}
        sub = restrict(S, random_config(rng, S), S.sig.validate_request(q))
        phi = random_constraint(rng, S, rng.randint(0, 2))
        body = format_constraint(phi, S.sig)
        holds_phi = {n for n in sub.nodes if check_at(sub, n, phi)}
        af = parse_constraint("AF (%s)" % body, S.sig)
        eg = parse_constraint("EG (%s)" % body, S.sig)
        egaf = parse_constraint("EG AF (%s)" % body, S.sig)
        for node in sub.nodes:
            assert check_at(sub, node, af) == (
                node not in stays_in(sub, set(sub.nodes) - holds_phi)), (body, node)
            assert check_at(sub, node, eg) == (node in stays_in(sub, holds_phi)), (body, node)
            for f in (af, eg, egaf):
                assert check_at(sub, node, f) == naive_check(sub, node, f), (f, node)
                cases += 1
    assert cases > 300


def test_holds_accepts_the_published_office_policies(
        office, office_safe_reqs, office_published):
    report = holds(office, office_published, office_safe_reqs)
    assert report.ok
    atoms = [a for r in office_safe_reqs for a in collect_atoms(r.target)]
    atoms += [a for e, fixed in office.edges.items()
              for a in collect_atoms(office_published.get(e, fixed))]
    assert report.representatives == per_value_region_count(office.sig, atoms) == 18
    assert len(report.verdicts) == 6
    assert report.failures() == []


def test_holds_reports_witnesses(office, office_reqs):
    wide_open = {e: Top() for e in office.controlled_edges()}
    report = holds(office, wide_open, office_reqs)
    assert not report.ok
    failed = report.failures()
    # the deny and waypoint rules break when every door grants
    bad_sources = {v.requirement.source for v in failed}
    assert "role != employee => deny(sec_zone)" in bad_sources
    for v in failed:
        assert v.witness is not None
        assert v.witness_structure is not None
        # the recorded request really violates the recorded structure
        assert not naive_check(v.witness_structure,
                               v.witness_structure.entry,
                               v.requirement.constraint)


def test_holds_skips_requests_outside_the_target(office, office_reqs):
    shut = {e: Not(Top()) for e in office.controlled_edges()}
    report = holds(office, shut, office_reqs)
    # everything positive fails, the deny and waypoint rules hold
    by_source = {v.requirement.source: v.ok for v in report.verdicts}
    assert by_source["role != employee => deny(sec_zone)"]
    assert by_source["role = visitor => waypoint(id = lob, id = mr)"]
    assert not by_source["role = employee and correct_pin => grant(id = bur)"]


def test_opening_the_office_door_breaks_exactly_the_secure_zone_rule(
        office, office_reqs, office_published):
    c = dict(office_published)
    c[("cor", "bur")] = Top()
    report = holds(office, c, office_reqs)
    failed = report.failures()
    assert [v.requirement.source for v in failed] \
        == ["role != employee => deny(sec_zone)"]
    witness = failed[0].witness
    assert witness["role"] != "employee"
    # and the night lock-out still holds
    q = parse_request("role=visitor, time=23", office.sig)
    sub = restrict(office, c, q)
    assert set(sub.labels) == {"out"}
