import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gatesynth.app import effective_requirements
from gatesynth.encoder import (
    CTrue, CVarEq, ControlVar, cand, cnot, cor, emit_smtlib, encode,
    eval_formula, expand_guards, ground_forall, target_to_control,
)
from gatesynth.formulas import (
    BOTTOM, NUMERIC, And, Atom, IntervalSet, Not, Top, build_regions,
    collect_atoms, conj, disj, eval_target, falsum, target_equiv,
)
from gatesynth import formulas
from gatesynth.model import ResourceStructure, SynthesisError
from gatesynth.templates import (
    CapExceeded, DnfTemplate, MenuTemplate, SingletonTemplate, Template,
    complete_template, dnf_template, interval_candidates, simplify_policy,
)
from gatesynth.rules import parse_target

from genutil import (
    random_config, random_model, random_pattern_requirement, random_policy,
)


def vis():
    return Atom("role", frozenset(["visitor"]))


def emp():
    return Atom("role", frozenset(["employee"]))


def office_requests(office):
    """A grid that covers every value class the office templates can
    tell apart (interval bounds included)."""
    qs = []
    for role in [BOTTOM, "visitor", "employee"]:
        for time in [BOTTOM, 0, 7, 8, 20, 21, 30]:
            for pin in [BOTTOM, False, True]:
                qs.append({"role": role, "time": time, "correct_pin": pin})
    return qs


def test_simplify_constants(office):
    sig = office.sig
    assert simplify_policy(Atom("role", frozenset()), sig) == falsum()
    assert simplify_policy(
        Atom("correct_pin", frozenset([BOTTOM, False, True])), sig) == Top()
    assert simplify_policy(
        Atom("role", frozenset([BOTTOM, "visitor", "employee"])), sig) == Top()
    assert simplify_policy(Not(Not(vis())), sig) == vis()
    # numeric attributes have no finite full domain to detect
    five = Atom("time", frozenset(range(6)))
    assert simplify_policy(five, sig) == five


def test_simplify_raises_when_the_equivalence_check_fails(office, monkeypatch):
    monkeypatch.setattr(formulas, "target_equiv", lambda *args: False)
    with pytest.raises(SynthesisError, match="simplification changed the policy"):
        simplify_policy(vis(), office.sig)


def test_simplify_merges_membership_tests(office):
    sig = office.sig
    both = Atom("role", frozenset(["visitor", "employee"]))
    assert simplify_policy(And(both, vis()), sig) == vis()
    assert simplify_policy(And(Not(vis()), Not(emp())), sig) \
        == Not(Atom("role", frozenset(["visitor", "employee"])))
    assert simplify_policy(And(both, Not(vis())), sig) == emp()
    assert simplify_policy(And(vis(), emp()), sig) == falsum()
    assert simplify_policy(And(vis(), Not(vis())), sig) == falsum()
    full = Atom("role", frozenset([BOTTOM, "visitor", "employee"]))
    assert simplify_policy(And(Not(full), Atom("time", frozenset([1]))), sig) \
        == falsum()


def test_simplify_keeps_first_occurrence_order(office):
    sig = office.sig
    t = Atom("time", frozenset(range(0, 9)))
    p = Atom("correct_pin", frozenset([True]))
    out = simplify_policy(And(And(t, p), And(t, vis())), sig)
    assert out == conj([t, p, vis()])
    assert simplify_policy(And(Top(), vis()), sig) == vis()


def test_simplify_handles_disjunction_encodings(office):
    sig = office.sig
    assert simplify_policy(disj(vis(), falsum()), sig) == vis()
    assert simplify_policy(disj(falsum(), falsum()), sig) == falsum()
    assert target_equiv(simplify_policy(disj(vis(), emp()), sig),
                        Atom("role", frozenset(["visitor", "employee"])), sig)


def test_singleton_template(office, office_published):
    tpl = SingletonTemplate(office, office_published)
    assert tpl.control_vars() == []
    assert tpl.bit_count() == 0
    assert tpl.derive({}) == office_published
    assert tpl.edge_policy_formula(("lob", "out")) == CTrue()   # fixed door
    with pytest.raises(KeyError):
        tpl.edge_policy_formula(("out", "bur"))
    for e in office.controlled_edges():
        f = tpl.edge_policy_formula(e)
        for q in office_requests(office):
            assert eval_formula(f, q, {}) == eval_target(q, office_published[e])


def test_menu_template(office):
    sig = office.sig
    menu = [Top(), vis(), falsum()]
    menus = {e: menu for e in office.controlled_edges()}
    tpl = MenuTemplate(office, menus)
    assert [v.size for v in tpl.control_vars()] == [3] * 5
    assert tpl.count_configurations() == 3 ** 5
    assert tpl.bit_count() == 10           # two bits per three-way choice
    m = {v.name: i % 3 for i, v in enumerate(tpl.control_vars())}
    derived = tpl.derive(m)
    for i, e in enumerate(office.controlled_edges()):
        assert derived[e] == menu[i % 3]
        f = tpl.edge_policy_formula(e)
        for q in office_requests(office):
            assert eval_formula(f, q, m) == eval_target(q, derived[e])
    with pytest.raises(ValueError, match="out of range"):
        tpl.derive({tpl.var_for(office.controlled_edges()[0]).name: 7})
    with pytest.raises(ValueError, match="menu missing"):
        MenuTemplate(office, {})


def test_interval_candidates_follow_target_regions(office, office_reqs):
    bounds = interval_candidates(office.sig, office_reqs)
    assert bounds == {"time": ([0, 8, 21], [7, 20, None])}
    assert interval_candidates(office.sig, []) == {"time": ([0], [None])}


def test_clause_template_layout(office, office_reqs):
    tpl = dnf_template(office, office_reqs, k=1)
    # per door: clause switch, test switch, attribute pick, and the
    # operand variables of the three attributes
    assert len(tpl.control_vars()) == 5 * 9
    names = {v.name for v in tpl.control_vars()}
    assert "cl_0_0" in names and "t_4_0_0_time_hi" in names
    by_name = {v.name: v.size for v in tpl.control_vars()}
    assert by_name["t_0_0_0_attr"] == 3
    assert by_name["t_0_0_0_role_val"] == 3
    assert by_name["t_0_0_0_time_lo"] == 3
    assert by_name["t_0_0_0_time_hi"] == 3
    with pytest.raises(ValueError, match="at least 1"):
        DnfTemplate(office, 0, {})


def test_clause_template_extremes(office, office_reqs):
    tpl = dnf_template(office, office_reqs, k=1)
    e0 = office.controlled_edges()[0]
    # all clauses disabled: the door denies everyone
    closed = tpl.derive({})
    assert closed[e0] == falsum()
    # clause on, test off: the door grants everyone
    open_all = tpl.derive({"cl_0_0": 1})
    assert open_all[e0] == Top()
    assert closed[office.controlled_edges()[1]] == falsum()


def test_clause_template_single_tests(office, office_reqs):
    tpl = dnf_template(office, office_reqs, k=1)
    e0 = office.controlled_edges()[0]
    m = {"cl_0_0": 1, "t_0_0_0_use": 1, "t_0_0_0_attr": 0,
         "t_0_0_0_role_op": 1, "t_0_0_0_role_val": 1}
    assert tpl.derive(m)[e0] == Not(vis())
    m = {"cl_0_0": 1, "t_0_0_0_use": 1, "t_0_0_0_attr": 1,
         "t_0_0_0_time_lo": 1, "t_0_0_0_time_hi": 1}
    # the bounded interval folds into a single membership test
    assert tpl.derive(m)[e0] == Atom("time", frozenset(range(8, 21)))
    assert target_equiv(tpl.derive(m)[e0],
                        parse_target("8 <= time <= 20", office.sig), office.sig)
    m = {"cl_0_0": 1, "t_0_0_0_use": 1, "t_0_0_0_attr": 1,
         "t_0_0_0_time_lo": 0, "t_0_0_0_time_hi": 2}
    assert tpl.derive(m)[e0] == Top()      # unbounded on both sides
    m = {"cl_0_0": 1, "t_0_0_0_use": 1, "t_0_0_0_attr": 2,
         "t_0_0_0_correct_pin_op": 0, "t_0_0_0_correct_pin_val": 2}
    assert tpl.derive(m)[e0] == Atom("correct_pin", frozenset([True]))


def test_clause_template_symbolic_policy_matches_derive(office, office_reqs):
    rng = random.Random(11)
    for k in (1, 2):
        tpl = dnf_template(office, office_reqs, k=k)
        formulas = {e: tpl.edge_policy_formula(e) for e in tpl.edges()}
        for _ in range(6):
            m = {v.name: rng.randrange(v.size) for v in tpl.control_vars()}
            derived = tpl.derive(m)
            for e in tpl.edges():
                for q in office_requests(office):
                    assert eval_formula(formulas[e], q, m) \
                        == eval_target(q, derived[e]), (e, m, q)


def test_clause_template_two_clauses_disjoin(office, office_reqs):
    tpl = dnf_template(office, office_reqs, k=2)
    e0 = office.controlled_edges()[0]
    m = {"cl_0_0": 1, "t_0_0_0_use": 1, "t_0_0_0_attr": 0,
         "t_0_0_0_role_op": 0, "t_0_0_0_role_val": 1,
         "cl_0_1": 1, "t_0_1_0_use": 1, "t_0_1_0_attr": 0,
         "t_0_1_0_role_op": 0, "t_0_1_0_role_val": 2}
    pol = tpl.derive(m)[e0]
    assert target_equiv(pol, Atom("role", frozenset(["visitor", "employee"])),
                        office.sig)


# The hand-written derives and the singleton that templates had before
# derive read the configuration off the symbolic policy, kept here as
# the references the substitution is checked against.

def old_dnf_derive(tpl, m):
    def test_target(ei, j, t):
        if m.get(tpl._name("use", ei, j, t), 0) == 0:
            return None
        attr = tpl.attrs[m.get(tpl._name("attr", ei, j, t), 0)]
        if tpl.sig.get(attr).kind == NUMERIC:
            lowers, uppers = tpl._bounds(attr)
            lo = lowers[m.get(tpl._name("lo", ei, j, t, attr), 0)]
            hi = uppers[m.get(tpl._name("hi", ei, j, t, attr), 0)]
            parts = []
            if lo > 0:
                parts.append(Not(Atom(attr, IntervalSet([(0, lo - 1)]))))
            if hi is not None:
                parts.append(Atom(attr, IntervalSet([(0, hi)])))
            return conj(parts)
        v = tpl.sig.get(attr).domain()[m.get(tpl._name("val", ei, j, t, attr), 0)]
        atom = Atom(attr, frozenset([v]))
        return atom if m.get(tpl._name("op", ei, j, t, attr), 0) == 0 else Not(atom)

    out = {}
    for ei, e in enumerate(tpl.edges()):
        clauses = [conj([x for x in (test_target(ei, j, t) for t in range(tpl.k))
                         if x is not None])
                   for j in range(tpl.k) if m.get(tpl._name("clause", ei, j), 0) == 1]
        policy = functools.reduce(disj, clauses) if clauses else falsum()
        out[e] = simplify_policy(policy, tpl.sig)
    return out


def old_dnf_layout(tpl):
    """The clause template's variables and policies as the two-pass
    template built them: the whole variable layout first, then each
    edge's policy by key lookup into that layout."""
    layout, names = [], {}

    def add(key, name, size):
        layout.append(ControlVar(name, size))
        names[key] = name

    edges = tpl.S.controlled_edges()
    for ei in range(len(edges)):
        for j in range(tpl.k):
            add(("clause", ei, j), "cl_%d_%d" % (ei, j), 2)
            for t in range(tpl.k):
                base = "t_%d_%d_%d" % (ei, j, t)
                add(("use", ei, j, t), base + "_use", 2)
                add(("attr", ei, j, t), base + "_attr", len(tpl.attrs))
                for a in tpl.attrs:
                    if tpl.sig.get(a).kind == NUMERIC:
                        lowers, uppers = tpl._bounds(a)
                        add(("lo", ei, j, t, a), "%s_%s_lo" % (base, a), len(lowers))
                        add(("hi", ei, j, t, a), "%s_%s_hi" % (base, a), len(uppers))
                    else:
                        dom = tpl.sig.get(a).domain()
                        add(("op", ei, j, t, a), "%s_%s_op" % (base, a), 2)
                        add(("val", ei, j, t, a), "%s_%s_val" % (base, a), len(dom))

    def test_formula(ei, j, t, attr):
        if tpl.sig.get(attr).kind == NUMERIC:
            lowers, uppers = tpl._bounds(attr)
            lo_var, hi_var = names["lo", ei, j, t, attr], names["hi", ei, j, t, attr]
            lo_part = cor([cand([CVarEq(lo_var, i),
                                 cnot(Atom(attr, IntervalSet([(0, lo - 1)]))) if lo > 0
                                 else CTrue()]) for i, lo in enumerate(lowers)])
            hi_part = cor([cand([CVarEq(hi_var, i),
                                 Atom(attr, IntervalSet([(0, hi)])) if hi is not None
                                 else CTrue()]) for i, hi in enumerate(uppers)])
            return cand([lo_part, hi_part])
        op_var, val_var = names["op", ei, j, t, attr], names["val", ei, j, t, attr]
        cases = []
        for i, v in enumerate(tpl.sig.get(attr).domain()):
            atom = Atom(attr, frozenset([v]))
            cases.append(cand([CVarEq(val_var, i),
                               cor([cand([CVarEq(op_var, 0), atom]),
                                    cand([CVarEq(op_var, 1), cnot(atom)])])]))
        return cor(cases)

    def policy(ei):
        clauses = []
        for j in range(tpl.k):
            tests = []
            for t in range(tpl.k):
                picked = cor([cand([CVarEq(names["attr", ei, j, t], ai),
                                    test_formula(ei, j, t, a)])
                              for ai, a in enumerate(tpl.attrs)])
                use = names["use", ei, j, t]
                tests.append(cor([CVarEq(use, 0), cand([CVarEq(use, 1), picked])]))
            clauses.append(cand([CVarEq(names["clause", ei, j], 1)] + tests))
        return cor(clauses)

    return layout, {e: policy(ei) for ei, e in enumerate(edges)}


def assert_two_pass_layout(tpl):
    """Same variables in the same order (the solver's decision order),
    and every controlled edge's policy the very node built before."""
    layout, policies = old_dnf_layout(tpl)
    assert [(v.name, v.size) for v in tpl.control_vars()] == \
        [(v.name, v.size) for v in layout]
    assert list(policies) == tpl.edges()
    for e, policy in policies.items():
        assert tpl.edge_policy_formula(e) is policy, e


@pytest.mark.parametrize("k", [1, 2, 3])
def test_clause_template_lays_out_what_the_two_pass_template_did(
        k, office, office_reqs, firm, firm_reqs):
    for S, reqs in ((office, office_reqs), (firm, firm_reqs)):
        assert_two_pass_layout(dnf_template(S, effective_requirements(reqs), k))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_clause_template_layout_on_random_buildings(seed):
    _, S, eff = random_setting(seed)
    for k in (1, 2, 3):
        assert_two_pass_layout(dnf_template(S, eff, k))


def old_class_derive(tpl, m):
    return {e: simplify_policy(conj([Not(t) for v, t in zip(bits, tpl.classes)
                                     if m.get(v.name, 0)]), tpl.sig)
            for e, bits in tpl._bits.items()}


def old_class_policy(tpl, e):
    """OR over the classes of (bit clear and in the class)."""
    return cor([cand([CVarEq(v.name, 0), target_to_control(t)])
                for v, t in zip(tpl._bits[e], tpl.classes)])


class OldSingleton(Template):
    def __init__(self, S, config):
        super().__init__(S)
        self.config = dict(config)

    def control_vars(self):
        return []

    def _controlled_policy(self, e):
        return target_to_control(self.config[e])

    def derive(self, m):
        return dict(self.config)


def random_setting(seed):
    """A random model with numeric attributes, sometimes fixed doors and
    one door fixed to a random policy, and its effective requirements."""
    rng = random.Random(seed)
    S = random_model(rng, rng.randint(2, 5), backbone_fixed_true=rng.random() < 0.5,
                     with_numeric=True)
    if S.controlled_edges() and rng.random() < 0.4:
        edges = dict(S.edges)
        edges[rng.choice(S.controlled_edges())] = random_policy(rng, S.sig)
        S = ResourceStructure(S.sig, S.entry, S.labels, edges)
    reqs = [random_pattern_requirement(rng, S) for _ in range(rng.randint(1, 3))]
    return rng, S, effective_requirements(reqs)


def random_assignments(rng, tpl, count):
    """The all-zero assignment, then random ones; each variable is left
    unset (read as 0) a quarter of the time."""
    yield {}
    for _ in range(count):
        yield {v.name: rng.randrange(v.size) for v in tpl.control_vars()
               if rng.random() < 0.75}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_derive_by_substitution_returns_what_the_old_derives_did(seed):
    rng, S, eff = random_setting(seed)
    if not S.controlled_edges():
        return
    cases = [(dnf_template(S, eff, k), old_dnf_derive) for k in (1, 2, 3)]
    try:
        cases.append((complete_template(S, eff, 256), old_class_derive))
    except CapExceeded:
        pass
    for tpl, old_derive in cases:
        for m in random_assignments(rng, tpl, 6):
            new, old = tpl.derive(m), old_derive(tpl, m)
            assert list(new) == list(old)
            for e in new:
                assert new[e] is old[e], (type(tpl).__name__, e, m)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_class_policy_agrees_with_the_old_one_at_every_request(seed):
    rng, S, eff = random_setting(seed)
    try:
        tpl = complete_template(S, eff, 256)
    except CapExceeded:
        return
    atoms = [a for t in tpl.classes for a in collect_atoms(t)]
    requests = list(build_regions(S.sig, atoms).representatives())
    for e in tpl.edges():
        new, old = tpl.edge_policy_formula(e), old_class_policy(tpl, e)
        for m in random_assignments(rng, tpl, 6):
            for q in requests:
                assert eval_formula(new, q, m) == eval_formula(old, q, m), (e, m, q)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_the_classes_converted_through_one_table_are_the_classes_converted_alone(seed):
    _, S, eff = random_setting(seed)
    try:
        tpl = complete_template(S, eff, 256)
    except CapExceeded:
        return
    assert len(tpl._outside) == len(tpl.classes)
    for t, outside in zip(tpl.classes, tpl._outside):
        assert outside is cnot(target_to_control(t))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_a_singleton_is_the_old_singleton(seed):
    rng, S, eff = random_setting(seed)
    config = random_config(rng, S)
    new, old = SingletonTemplate(S, config), OldSingleton(S, config)
    assert new.control_vars() == [] and new.bit_count() == 0
    assert new.derive({}) == config
    guard_formula = cand([encode(S, r) for r in eff])
    scripts = []
    for tpl in (new, old):
        expanded = expand_guards(guard_formula, tpl)
        scripts.append((emit_smtlib(expanded, tpl.control_vars(), sig=S.sig),
                        emit_smtlib(ground_forall(expanded, S.sig), tpl.control_vars())))
    assert scripts[0] == scripts[1]


def test_a_one_entry_menu_has_no_control_variable(office):
    edges = office.controlled_edges()
    menus = {e: [Top(), falsum()] for e in edges}
    menus[edges[1]] = [vis()]
    tpl = MenuTemplate(office, menus)
    assert [v.name for v in tpl.control_vars()] == ["choice_0", "choice_2",
                                                    "choice_3", "choice_4"]
    assert tpl.edge_policy_formula(edges[1]) == target_to_control(vis())
    assert tpl.derive({"choice_0": 1})[edges[1]] is vis()
    assert tpl.count_configurations() == 2 ** 4
