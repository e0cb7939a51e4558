import random

import pytest
from hypothesis import given, settings, strategies as st

from gatesynth.app import effective_requirements, synth
from gatesynth.classic import cs, s_cs, s_cs_detailed
from gatesynth.checker import holds
from gatesynth.encoder import eval_formula, target_to_control
from gatesynth.formulas import (
    And, Atom, Not, Top, conj, deny, eval_target, grant, simplify_policy,
    target_equiv, target_sat,
)
from gatesynth import classic
from gatesynth.model import ResourceStructure, SynthesisError
from gatesynth.rules import parse_request, parse_requirement, parse_target
from gatesynth.templates import CapExceeded, MenuTemplate, complete_template

from genutil import random_model, random_pattern_requirement, random_policy


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


def class_of(tpl, q):
    """Index of the one class of the template the request falls into."""
    hits = [i for i, t in enumerate(tpl.classes) if eval_target(q, t)]
    assert len(hits) == 1, (q, hits)
    return hits[0]


def test_complete_menu_for_one_target(office):
    # The complete fallback is the class template: one deny bit per
    # controlled door and request class.
    req = parse_requirement("role = visitor => deny(sec_zone)", office.sig)
    tpl = complete_template(office, [req])
    vis = parse_target("role = visitor", office.sig)
    assert len(tpl.classes) == 2
    assert {target_equiv(t, vis, office.sig) for t in tpl.classes} == {True, False}
    assert target_equiv(tpl.classes[0], Not(tpl.classes[1]), office.sig)
    e = ("cor", "bur")
    bits = {v.name: 0 for v in tpl.control_vars()}
    assert all(target_equiv(p, Top(), office.sig)
               for p in tpl.derive(bits).values())
    # the four choices at one door: grant all, deny either class, deny both
    for deny_first in (0, 1):
        for deny_second in (0, 1):
            m = dict(bits)
            m["deny_%d_0" % office.controlled_edges().index(e)] = deny_first
            m["deny_%d_1" % office.controlled_edges().index(e)] = deny_second
            want = conj(([Not(tpl.classes[0])] if deny_first else [])
                        + ([Not(tpl.classes[1])] if deny_second else []))
            assert target_equiv(tpl.derive(m)[e], want, office.sig)


def test_complete_menu_cap(office, office_reqs):
    # visitors in opening hours, other visitors, everyone else
    assert len(complete_template(office, office_reqs[:2], cap=3).classes) == 3
    with pytest.raises(CapExceeded) as ei:
        complete_template(office, office_reqs[:2], cap=2)
    assert ei.value.needed == 3 and ei.value.cap == 2


def test_nontrivial_fixed_doors_refine_the_menu(office):
    S = ResourceStructure(office.sig, office.entry, office.labels,
                          dict(office.edges))
    S.edges[("mr", "cor")] = parse_target("correct_pin", office.sig)
    req = parse_requirement("role = visitor => deny(sec_zone)", office.sig)
    # two splitters now: the target and the fixed policy
    assert len(complete_template(office, [req]).classes) == 2
    tpl = complete_template(S, [req])
    assert len(tpl.classes) == 4
    with pytest.raises(CapExceeded):
        complete_template(S, [req], cap=3)
    # denying the classes without the pin leaves exactly the pin holders
    pin = parse_target("correct_pin", office.sig)
    ei = S.controlled_edges().index(("cor", "bur"))
    m = {"deny_%d_%d" % (ei, ci): int(target_sat(And(t, pin), office.sig) is None)
         for ci, t in enumerate(tpl.classes)}
    assert target_equiv(tpl.derive(m)[("cor", "bur")], pin, office.sig)


def test_class_walk_policies_come_from_the_complete_menu(office, office_reqs):
    # every policy of the class walk grants whole classes of the template
    picked = [office_reqs[1], office_reqs[4]]
    out = s_cs_detailed(office, picked)
    tpl = complete_template(office, picked)
    for e, pol in out.configuration.items():
        for t in tpl.classes:
            granted = target_sat(And(t, pol), office.sig) is not None
            denied = target_sat(And(t, Not(pol)), office.sig) is not None
            assert granted != denied, (e, t)


def test_complete_template_spans_all_controlled_edges(office, office_reqs):
    tpl = complete_template(office, office_reqs[:2])
    classes = len(tpl.classes)
    assert tpl.edges() == office.controlled_edges()
    assert tpl.describe() == {"kind": "ClassTemplate", "edges": 5,
                              "control_vars": classes * 5,
                              "bits": classes * 5, "classes": classes}
    assert tpl.bit_count() == classes * 5
    q = parse_request("role = visitor, time = 9", office.sig)
    ci = class_of(tpl, q)
    for ei, e in enumerate(office.controlled_edges()):
        policy = tpl.edge_policy_formula(e)
        assert eval_formula(policy, q, {})
        assert not eval_formula(policy, q, {"deny_%d_%d" % (ei, ci): 1})
        others = {"deny_%d_%d" % (ei, c): 1 for c in range(classes) if c != ci}
        assert eval_formula(policy, q, others)
    for e in office.fixed_edges():
        assert tpl.edge_policy_formula(e) == target_to_control(office.edges[e])


# The enumerated menu the class template replaced, kept here as the
# reference it is checked against: every conjunction of negated
# non-empty request classes, deduplicated.
def enumerated_menu(S, reqs):
    pseudo = [S.edges[e] for e in S.fixed_edges()
              if not target_equiv(S.edges[e], Top(), S.sig)]
    splitters = [r.target for r in reqs] + pseudo
    n = len(splitters)
    class_targets = []
    for mask in range(1 << n):
        class_targets.append(conj(
            [splitters[i] for i in range(n) if mask >> i & 1]
            + [Not(splitters[i]) for i in range(n) if not mask >> i & 1]))
    sat_classes = [t for t in class_targets if target_sat(t, S.sig) is not None]
    menu = []
    for excluded_mask in range(1 << len(sat_classes)):
        t = conj([Not(sat_classes[i]) for i in range(len(sat_classes))
                  if excluded_mask >> i & 1])
        if not any(target_equiv(t, prior, S.sig) for prior in menu):
            menu.append(t)
    return [simplify_policy(t, S.sig) for t in menu]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_class_template_agrees_with_the_enumerated_menu(seed):
    rng = random.Random(seed)
    S = random_model(rng, rng.randint(2, 4),
                     backbone_fixed_true=rng.random() < 0.5)
    reqs = [random_pattern_requirement(rng, S, target_depth=1)
            for _ in range(rng.randint(1, 2))]
    if len(reqs) == 1 and S.fixed_edges() and rng.random() < 0.5:
        # one non-trivial fixed door refines the classes
        S.edges[S.fixed_edges()[0]] = random_policy(rng, S.sig)
    eff = effective_requirements(reqs)
    menu = enumerated_menu(S, eff)
    by_menu = synth(S, reqs, template=MenuTemplate(
        S, {e: menu for e in S.controlled_edges()}))
    by_class = synth(S, reqs, template="complete")
    assert by_class.outcome in ("configuration", "unsat")
    assert by_menu.ok == by_class.ok
    if by_class.ok:
        for pol in by_class.configuration.values():
            assert any(target_equiv(pol, m, S.sig) for m in menu), pol
