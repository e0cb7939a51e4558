import pytest

from gatesynth.classic import (
    CapExceeded, complete_menu, complete_template, cs, s_cs, s_cs_detailed,
)
from gatesynth.checker import holds
from gatesynth.formulas import (
    And, Atom, Not, Top, conj, deny, grant, target_equiv, target_sat,
)
from gatesynth import classic
from gatesynth.model import ResourceStructure, SynthesisError
from gatesynth.rules import parse_requirement, parse_target


def test_edge_set_search_keeps_the_most_doors(triangle):
    sig = triangle.sig
    # Shutting the secure zone needs both doors into it dropped; the
    # first maximal solution in search order also keeps cor -> bur,
    # isolating the entry instead.
    kept = cs(triangle, deny(Atom("sec_zone", frozenset([True]))))
    assert kept == frozenset([("bur", "cor"), ("cor", "bur"), ("cor", "out")])
    # A tautology keeps everything.
    assert cs(triangle, Top()) == frozenset(triangle.edges)
    # Contradictions have no edge set.
    impossible = And(grant(Atom("id", frozenset(["bur"]))),
                     deny(Atom("sec_zone", frozenset([True]))))
    assert cs(triangle, impossible) is None
    assert sig.get("sec_zone").kind == "boolean"


def test_edge_set_search_warns_on_many_doors():
    from gatesynth.formulas import (AttributeDecl, AttributeSignature,
                                    BOOLEAN, ENUM, RESOURCE, SUBJECT)
    names = ["n%02d" % i for i in range(18)]
    sig = AttributeSignature([
        AttributeDecl("who", SUBJECT, ENUM, ("p",)),
        AttributeDecl("name", RESOURCE, ENUM, tuple(names)),
    ])
    labels = {n: {"name": n} for n in names}
    edges = {(names[i - 1], names[i]): None for i in range(1, 18)}
    edges[(names[-1], names[0])] = None
    S = ResourceStructure(sig, names[0], labels, edges)
    with pytest.warns(UserWarning, match="2\\^18"):
        assert cs(S, Top()) == frozenset(edges)


def test_class_walk_on_two_office_rules(office, office_reqs):
    picked = [office_reqs[1], office_reqs[4]]   # lobby waypoint, secure-zone deny
    out = s_cs_detailed(office, picked)
    assert out.satisfiable
    assert out.subset_iterations == 4           # 2^2 request classes
    assert out.searches == 3                    # one class is empty
    expected = {
        ("cor", "bur"): "role in {visitor, employee}",
        ("cor", "mr"): "true",
        ("lob", "cor"): "true",
        ("out", "cor"): "role != visitor",
        ("out", "lob"): "role != visitor",
    }
    assert set(out.configuration) == set(expected)
    for e, text in expected.items():
        want = parse_target(text, office.sig)
        assert target_equiv(out.configuration[e], want, office.sig), \
            (e, out.configuration[e])
    assert out.dropped == {("cor", "bur"): 1, ("cor", "mr"): 0,
                           ("lob", "cor"): 0, ("out", "cor"): 1,
                           ("out", "lob"): 1}
    assert holds(office, out.configuration, picked).ok


def test_class_walk_raises_when_its_result_fails_the_checker(office, office_reqs,
                                                            monkeypatch):
    failing = holds(office, {e: Top() for e in office.controlled_edges()}, office_reqs)
    assert not failing.ok
    monkeypatch.setattr(classic, "holds", lambda *args: failing)
    with pytest.raises(SynthesisError, match="fails its own requirements"):
        s_cs_detailed(office, [office_reqs[1], office_reqs[4]])


def test_class_walk_handles_all_office_rules(office, office_reqs):
    out = s_cs_detailed(office, office_reqs)
    assert out.satisfiable
    assert out.subset_iterations == 32
    assert holds(office, out.configuration, office_reqs).ok


def test_class_walk_runs_twice_identically(office, office_reqs):
    picked = [office_reqs[1], office_reqs[4]]
    a = s_cs(office, picked)
    b = s_cs(office, picked)
    assert a == b


def test_class_walk_detects_unsatisfiable_sets(office):
    clash = [
        parse_requirement("role = visitor => grant(id = bur)", office.sig),
        parse_requirement("role = visitor => deny(sec_zone)", office.sig),
    ]
    out = s_cs_detailed(office, clash)
    assert not out.satisfiable
    assert out.configuration is None
    assert out.unsat_class == (0, 1)
    assert s_cs(office, clash) is None


def test_class_walk_requires_open_fixed_doors(office):
    S = ResourceStructure(office.sig, office.entry, office.labels,
                          dict(office.edges))
    S.edges[("mr", "cor")] = parse_target("role = employee", office.sig)
    with pytest.raises(ValueError, match="fixed edges grant everyone"):
        s_cs(S, [])


def test_complete_menu_for_one_target(office):
    req = parse_requirement("role = visitor => deny(sec_zone)", office.sig)
    menu = complete_menu(office, [req])
    # classes: visitor / not visitor; menus: exclude neither, either, both
    assert len(menu) == 4
    for i in range(len(menu)):
        for j in range(i + 1, len(menu)):
            assert not target_equiv(menu[i], menu[j], office.sig)
    kinds = {
        "true": any(target_equiv(m, Top(), office.sig) for m in menu),
        "false": any(target_sat(m, office.sig) is None for m in menu),
        "vis": any(target_equiv(m, parse_target("role = visitor", office.sig),
                                office.sig) for m in menu),
        "notvis": any(target_equiv(m, parse_target("role != visitor", office.sig),
                                   office.sig) for m in menu),
    }
    assert all(kinds.values())


def test_complete_menu_cap(office, office_reqs):
    with pytest.raises(CapExceeded) as ei:
        complete_menu(office, office_reqs[:2], cap=8)
    assert ei.value.needed == 16 and ei.value.cap == 8


def test_nontrivial_fixed_doors_refine_the_menu(office):
    S = ResourceStructure(office.sig, office.entry, office.labels,
                          dict(office.edges))
    S.edges[("mr", "cor")] = parse_target("correct_pin", office.sig)
    req = parse_requirement("role = visitor => deny(sec_zone)", office.sig)
    # two splitters now: the target and the fixed policy
    with pytest.raises(CapExceeded):
        complete_menu(S, [req], cap=8)
    menu = complete_menu(S, [req], cap=65536)
    pin = parse_target("correct_pin", office.sig)
    assert any(target_equiv(m, pin, office.sig) for m in menu)


def test_class_walk_policies_come_from_the_complete_menu(office, office_reqs):
    picked = [office_reqs[1], office_reqs[4]]
    out = s_cs_detailed(office, picked)
    menu = complete_menu(office, picked)
    for e, pol in out.configuration.items():
        assert any(target_equiv(pol, m, office.sig) for m in menu), e


def test_complete_template_spans_all_controlled_edges(office, office_reqs):
    tpl = complete_template(office, office_reqs[:2])
    assert set(tpl.menus) == set(office.controlled_edges())
    sizes = {len(m) for m in tpl.menus.values()}
    assert len(sizes) == 1
    assert tpl.count_configurations() == (sizes.pop()) ** 5
