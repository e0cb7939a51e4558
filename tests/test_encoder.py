import copy
import gc
import itertools
import pickle
import random
import re
import stat
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from gatesynth.checker import check_at, holds
from gatesynth.encoder import (
    CAnd, CAtom, CFalse, CGuard, CImplies, CNot, COr, CTrue, CVarEq,
    ControlVar, SolverError, cand, cguard, cimplies, cnot,
    cor, emit_smtlib, encode, eval_formula, expand_guards, formula_edges,
    formula_size, fold_atoms, ground_forall, request_regions, rewrite_constraint,
    run_external,
    _Cnf, sat_solve, target_to_control, var_bits,
)
from gatesynth.app import effective_requirements, synth
from gatesynth.formulas import (
    AU, AX, BOTTOM, EU, EX, And, Atom, Not, Requirement, Top, children,
    collect_atoms, subformulas,
)
from gatesynth import formulas
from gatesynth.model import model_from_json, restrict, scale_replicate
from gatesynth.rules import parse_constraint, parse_requirements, parse_target
from gatesynth.templates import SingletonTemplate, complete_template, dnf_template

from genutil import (
    grid_building, random_config, random_constraint, random_model,
    random_pattern_requirement, random_policy,
)
from test_rules import CONSTRAINT_TEXTS, TARGET_TEXTS


def x_eq(v):
    return CVarEq("x", v)


def y_eq(v):
    return CVarEq("y", v)


def test_smart_constructors_fold():
    a, b = x_eq(0), y_eq(1)
    assert cand([]) == CTrue()
    assert cand([a]) == a
    assert cand([a, CTrue(), a, b]) == CAnd((a, b))          # dedup, drop true
    assert cand([a, CFalse()]) == CFalse()
    assert cand([CAnd((a, b)), a]) == CAnd((a, b))           # one-level flatten
    assert cor([]) == CFalse()
    assert cor([a, CFalse(), a, b]) == COr((a, b))
    assert cor([a, CTrue()]) == CTrue()
    assert cor([COr((a, b)), b]) == COr((a, b))
    assert cnot(CTrue()) == CFalse()
    assert cnot(CFalse()) == CTrue()
    assert cnot(cnot(a)) == a
    assert cimplies(CTrue(), a) == a
    assert cimplies(CFalse(), a) == CTrue()
    assert cimplies(a, CTrue()) == CTrue()
    assert cimplies(a, CFalse()) == CNot(a)
    assert cimplies(a, b) == CImplies(a, b)


def test_node_equality_and_hashing():
    assert CAtom("r", frozenset(["v"])) == CAtom("r", frozenset(["v"]))
    assert hash(x_eq(1)) == hash(CVarEq("x", 1))
    assert x_eq(1) != x_eq(2)
    assert CAnd((x_eq(1), y_eq(0))) != CAnd((y_eq(0), x_eq(1)))
    assert cguard(("a", "b")) is cguard(("a", "b"))          # interned
    assert cguard(("a", "b")) == CGuard(("a", "b"))


def live_entries():
    return sum(1 for ref in formulas._NODES.values() if ref() is not None)


def test_guard_cache_keeps_only_live_guards(firm, firm_reqs):
    # the intern table holds its nodes weakly: once it is purged,
    # dropping a formula has dropped every node only it kept alive,
    # guards included
    gc.collect()
    formulas._purge()
    before = len(formulas._NODES)
    f = cand([encode(scale_replicate(firm, 5), r) for r in firm_reqs])
    guards = [g for g in subformulas(f) if isinstance(g, CGuard)]
    assert guards and all(g is cguard(g.edge) for g in guards)
    assert len(formulas._NODES) > before
    del f, guards
    gc.collect()
    formulas._purge()
    assert len(formulas._NODES) <= before


def test_the_node_table_keeps_entries_of_live_nodes_only(firm, firm_reqs):
    gc.collect()
    formulas._purge()
    before = len(formulas._NODES)
    f = cand([encode(scale_replicate(firm, 5), r) for r in firm_reqs])
    assert len(formulas._NODES) > before
    del f
    gc.collect()
    formulas._purge()
    # one pass frees whole dead formulas, children after their parents
    assert live_entries() == len(formulas._NODES)
    for key, ref in formulas._NODES.items():
        node = ref()
        assert key == (type(node), *(getattr(node, name) for name in node._fields))


def test_a_node_built_again_after_its_first_died_is_interned_again():
    def build():
        return CAnd((CVarEq("rebuilt", 3), CNot(CVarEq("rebuilt", 4))))

    # found dead in the table before a purge: built again under its key
    first = build()
    key = (CAnd, first.args)
    del first
    assert formulas._NODES[key]() is None
    again = build()
    assert again is build()
    assert formulas._NODES[key]() is again

    # purged: interned again under a new entry
    del again
    gc.collect()
    formulas._purge()
    assert key not in formulas._NODES
    again = build()
    assert again is build()
    assert formulas._NODES[(CAnd, again.args)]() is again


def test_building_and_dropping_formulas_keeps_the_table_within_its_bound():
    # no explicit purge: Node.__new__ purges once the table has grown by
    # half, so it holds at most 1.5 times the nodes live at the last
    # purge, or the floor; every formula here has the same size, so
    # those are never more than the nodes live while one is held
    gc.collect()
    sizes = []
    for i in range(400):
        bits = [CVarEq("drop%d" % i, v) for v in range(12)]
        f = cand([cor([a, cnot(b)]) for a, b in zip(bits, bits[1:])] + bits)
        sizes.append(len(formulas._NODES))
        assert sizes[-1] <= max(formulas._PURGE_FLOOR, live_entries() * 3 // 2)
        del bits, f
    assert any(b < a for a, b in zip(sizes, sizes[1:]))     # it was purged


def test_copies_of_a_node_are_the_interned_node(office, office_reqs):
    f = cand([encode(office, r) for r in office_reqs]
             + [Atom("time", frozenset(range(3, 9))), Atom("role", frozenset(["visitor"]))])
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.deepcopy(f) is f
    assert copy.copy(f) is f


@pytest.mark.parametrize("cls, args", [(CVarEq, ("x",)), (CVarEq, ("x", 1, 2)), (CNot, ()),
                                       (CFalse, (1,)), (CAnd, ())])
def test_a_wrong_field_count_is_a_type_error(cls, args):
    with pytest.raises(TypeError, match="takes %d fields, got %d"
                       % (len(cls._fields), len(args))):
        cls(*args)


# The fields of every node class, written out here so that the
# structural comparison below does not lean on the classes it checks.
FIELDS = {Top: (), Atom: ("attr", "values"), Not: ("sub",), And: ("left", "right"),
          EX: ("sub",), AX: ("sub",), EU: ("left", "right"), AU: ("left", "right"),
          CFalse: (), CVarEq: ("var", "value"), CGuard: ("edge",), CAnd: ("args",),
          COr: ("args",), CImplies: ("left", "right")}


def same_structure(a, b):
    """Field-by-field recursive equality: what node equality meant
    before nodes were hash-consed."""
    if type(a) is not type(b):
        return False
    if type(a) in FIELDS:
        return all(same_structure(getattr(a, f), getattr(b, f)) for f in FIELDS[type(a)])
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same_structure(x, y) for x, y in zip(a, b))
    return a == b


def all_nodes(f):
    """Every node of a formula or control formula, shared ones once."""
    out, stack = {}, [f]
    while stack:
        g = stack.pop()
        if id(g) not in out:
            out[id(g)] = g
            for name in FIELDS[type(g)]:
                v = getattr(g, name)
                stack.extend(v if isinstance(v, tuple) and name == "args"
                             else [v] if type(v) in FIELDS else [])
    return list(out.values())


@settings(max_examples=100, deadline=None)
@given(st.lists(TARGET_TEXTS, min_size=1, max_size=3),
       st.lists(CONSTRAINT_TEXTS, min_size=1, max_size=3),
       st.integers(0, 2 ** 32))
def test_nodes_are_hash_consed(office, targets, constraints, seed):
    built = [parse_target(t, office.sig) for t in targets] \
        + [parse_constraint(c, office.sig) for c in constraints]
    again = [parse_target(t, office.sig) for t in targets] \
        + [parse_constraint(c, office.sig) for c in constraints]
    assert all(a is b for a, b in zip(built, again))
    vars_ = [ControlVar("v0", 2), ControlVar("v1", 3)]
    controls = [random_control_formula(random.Random(seed + i), vars_, 4, ATOMS)
                for i in range(3)]
    assert all(f is random_control_formula(random.Random(seed + i), vars_, 4, ATOMS)
               for i, f in enumerate(controls))
    lowered = [target_to_control(f) for f in built[:len(targets)]]
    assert all(f is target_to_control(g) for f, g in zip(lowered, again))
    # over all pairs of subformulas, structural equality is identity
    for group in (built, controls + lowered):
        nodes = [n for f in group for n in all_nodes(f)]
        for a in nodes:
            for b in nodes:
                assert same_structure(a, b) == (a is b), (a, b)


def direct_children(g):
    """The nodes among g's fields, read off FIELDS."""
    out = []
    for name in FIELDS[type(g)]:
        v = getattr(g, name)
        if name == "args":
            out.extend(v)
        elif type(v) in FIELDS:
            out.append(v)
    return out


def old_control_walk(f):
    """The walker control formulas had before they shared one with
    targets: iterative, a node's last child first."""
    def kids(g):
        if isinstance(g, CNot):
            return (g.sub,)
        if isinstance(g, (CAnd, COr)):
            return g.args
        if isinstance(g, CImplies):
            return (g.left, g.right)
        return ()

    seen, stack = set(), [(f, False)]
    while stack:
        g, expanded = stack.pop()
        if g in seen:
            continue
        if expanded:
            seen.add(g)
            yield g
        else:
            stack.append((g, True))
            stack.extend((ch, False) for ch in kids(g))


def old_target_walk(f):
    """The recursive walker targets and constraints had: a node's first
    child first."""
    seen = set()

    def walk(g):
        if g in seen:
            return
        for ch in direct_children(g):
            yield from walk(ch)
        seen.add(g)
        yield g

    yield from walk(f)


def assert_postorder(walked):
    """Each node once, after all of its children."""
    at = {g: i for i, g in enumerate(walked)}
    assert len(at) == len(walked)
    for i, g in enumerate(walked):
        assert all(at[ch] < i for ch in direct_children(g)), g


@settings(max_examples=100, deadline=None)
@given(st.lists(TARGET_TEXTS, min_size=1, max_size=3),
       st.lists(CONSTRAINT_TEXTS, min_size=1, max_size=3),
       st.integers(0, 2 ** 32))
def test_one_walker_for_targets_constraints_and_control_formulas(office, targets,
                                                                 constraints, seed):
    rng = random.Random(seed)
    targets = [parse_target(t, office.sig) for t in targets]
    constraints = [parse_constraint(c, office.sig) for c in constraints]
    formulas_ = targets + constraints + [And(targets[-1], constraints[0])]
    for f in formulas_:
        walked = list(subformulas(f))
        assert set(walked) == set(old_target_walk(f))
        assert_postorder(walked)
        assert collect_atoms(f) == [g for g in walked if isinstance(g, Atom)]
    vars_ = [ControlVar("v0", 2), ControlVar("v1", 3)]
    a, b = (random_control_formula(rng, vars_, 4, ATOMS) for _ in range(2))
    guards = cand([encode(office, Requirement(t, c)) for t, c in zip(targets, constraints)])
    controls = [a, cand([cor([a, b]), cimplies(a, cnot(b))]), guards,
                cand([target_to_control(t) for t in targets] + [guards])]
    for f in controls:
        walked = list(subformulas(f))
        assert walked == list(old_control_walk(f))
        assert_postorder(walked)


def test_nodes_are_read_only():
    for node in (Atom("role", frozenset(["visitor"])), EU(Top(), Top()),
                 CVarEq("x", 1), CAnd((x_eq(0), y_eq(1))), CTrue()):
        with pytest.raises(AttributeError):
            node.sub = Top()
        for name in FIELDS[type(node)]:
            with pytest.raises(AttributeError):
                setattr(node, name, getattr(node, name))
            with pytest.raises(AttributeError):
                delattr(node, name)
    assert EU(Top(), Top()).left is Top()


def test_formula_size_counts_distinct_subterms():
    a = x_eq(0)
    f = CAnd((a, CNot(a)))
    assert formula_size(f) == 3
    assert formula_size(CTrue()) == 1


def test_target_to_control(office):
    from gatesynth.rules import parse_target
    t = parse_target("role = visitor and not correct_pin", office.sig)
    f = target_to_control(t)
    assert f == CAnd((CAtom("role", frozenset(["visitor"])),
                      CNot(CAtom("correct_pin", frozenset([True])))))
    assert target_to_control(Top()) == CTrue()
    assert target_to_control(Not(Top())) == CFalse()
    # one node set: the policy's own tests enter the control formula
    assert CTrue is Top and CAtom is Atom and CNot is Not
    assert f.args[0] is t.left and f.args[1] is t.right


def eval_guards(f, granted):
    """Evaluate a pure guard formula against a set of granted edges."""
    if isinstance(f, CTrue):
        return True
    if isinstance(f, CFalse):
        return False
    if isinstance(f, CGuard):
        return f.edge in granted
    if isinstance(f, CNot):
        return not eval_guards(f.sub, granted)
    if isinstance(f, CAnd):
        return all(eval_guards(a, granted) for a in f.args)
    if isinstance(f, COr):
        return any(eval_guards(a, granted) for a in f.args)
    if isinstance(f, CImplies):
        return (not eval_guards(f.left, granted)) or eval_guards(f.right, granted)
    raise TypeError(f)


def test_existential_until_rewrite_on_the_triangle(triangle):
    eu = EU(Not(Atom("sec_zone", frozenset([True]))), Atom("id", frozenset(["bur"])))
    got = rewrite_constraint(triangle, eu, "out")
    want = COr((cguard(("out", "bur")),
                CAnd((cguard(("out", "cor")), cguard(("cor", "bur"))))))
    assert got == want


def test_universal_until_rewrite_on_the_triangle(triangle):
    au = AU(Not(Atom("sec_zone", frozenset([True]))), Atom("id", frozenset(["bur"])))
    got = rewrite_constraint(triangle, au, "out")
    want = CImplies(cguard(("out", "cor")), CNot(cguard(("cor", "out"))))
    assert got == want


def test_until_rewrites_agree_with_the_checker_per_edge_subset(triangle):
    eu = EU(Not(Atom("sec_zone", frozenset([True]))), Atom("id", frozenset(["bur"])))
    au = AU(Not(Atom("sec_zone", frozenset([True]))), Atom("id", frozenset(["bur"])))
    enc_eu = rewrite_constraint(triangle, eu, "out")
    enc_au = rewrite_constraint(triangle, au, "out")
    edges = sorted(triangle.edges)
    for mask in range(1 << len(edges)):
        kept = {e for i, e in enumerate(edges) if mask >> i & 1}
        sub = triangle.with_edges(kept)
        assert eval_guards(enc_eu, kept) == check_at(sub, "out", eu), kept
        # the universal rewrite is exact when no space dead-ends
        if all(any(a == n for (a, b) in kept) for n in sub.nodes):
            assert eval_guards(enc_au, kept) == check_at(sub, "out", au), kept


def test_encoding_is_exact_where_only_the_entry_may_dead_end():
    # Deadlock freeness keeps every reachable space but the entry live.
    # On every such edge subset the encoded requirement must agree with
    # the checker, a shut entry included (the until rewrite alone reads
    # that dead end vacuously).
    rng = random.Random(20261018)
    shut_entries = 0
    for _ in range(40):
        S = random_model(rng, rng.randint(2, 4))
        phi = random_constraint(rng, S, rng.randint(0, 2))
        if rng.random() < 0.5:
            phi = AU(phi, random_constraint(rng, S, rng.randint(0, 2)))
        enc = encode(S, Requirement(Top(), phi, "unknown"))
        edges = sorted(S.edges)
        for mask in range(1 << len(edges)):
            kept = {e for i, e in enumerate(edges) if mask >> i & 1}
            sub = S.with_edges(kept)
            if any(not sub.successors(n) for n in sub.reachable() if n != S.entry):
                continue
            shut_entries += not sub.successors(S.entry)
            assert eval_guards(enc, kept) == check_at(sub, S.entry, phi), (phi, kept)
    assert shut_entries >= 40


def visited_set_rewrite(S, phi, start):
    """The until rewrite keyed on the whole set of spaces a path has
    visited, kept as the reference for the frontier-keyed one: the same
    unrolling, with every subproblem found again under every visited set
    that leads to it."""
    memo, memo_u = {}, {}

    def tau(f, r):
        key = (f, r)
        if key in memo:
            return memo[key]
        if isinstance(f, Top):
            out = Top()
        elif isinstance(f, Atom):
            out = CTrue() if S.labels[r].get(f.attr, BOTTOM) in f.values else CFalse()
        elif isinstance(f, Not):
            out = cnot(tau(f.sub, r))
        elif isinstance(f, And):
            out = cand([tau(f.left, r), tau(f.right, r)])
        elif isinstance(f, EX):
            out = cor([cand([cguard((r, s)), tau(f.sub, s)]) for s in S.successors(r)])
        elif isinstance(f, AX):
            out = cand([cimplies(cguard((r, s)), tau(f.sub, s)) for s in S.successors(r)])
        elif isinstance(f, EU):
            out = tau_eu(f, r, frozenset())
        else:
            out = tau_au(f, r, frozenset())
        memo[key] = out
        return out

    def tau_eu(f, r, visited):
        key = (f, r, visited)
        if key not in memo_u:
            step = cor([cand([cguard((r, s)), tau_eu(f, s, visited | {r})])
                        for s in S.successors(r) if s not in visited])
            memo_u[key] = cor([tau(f.right, r), cand([tau(f.left, r), step])])
        return memo_u[key]

    def tau_au(f, r, visited):
        key = (f, r, visited)
        if key not in memo_u:
            all_fresh = cand([cimplies(cguard((r, s)), tau_au(f, s, visited | {r}))
                              for s in S.successors(r) if s not in visited])
            no_loop_back = cand([cnot(cguard((r, s)))
                                 for s in S.successors(r) if s in visited])
            memo_u[key] = cor([tau(f.right, r),
                               cand([tau(f.left, r), all_fresh, no_loop_back])])
        return memo_u[key]

    return tau(phi, start)


def random_until(rng, S):
    """An until, existential or universal, over random constraints, and
    sometimes nested under EX, AX, Not or And."""
    sides = [random_constraint(rng, S, rng.randint(0, 2)) for _ in range(2)]
    f = (EU if rng.random() < 0.5 else AU)(*sides)
    for _ in range(rng.randint(0, 2)):
        roll = rng.random()
        if roll < 0.25:
            f = EX(f)
        elif roll < 0.5:
            f = AX(f)
        elif roll < 0.75:
            f = Not(f)
        else:
            f = And(f, random_constraint(rng, S, 1))
    return f


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 7), st.sampled_from([0.0, 0.5, 1.0]))
def test_frontier_keys_build_the_visited_set_rewrite(seed, n, two_way):
    # one-way and two-way doors; the name tests hold at some spaces and
    # not at others, so untils meet spaces that settle them and spaces
    # where they step on
    rng = random.Random(seed)
    S = random_model(rng, n, two_way=two_way)
    for _ in range(4):
        phi = random_until(rng, S)
        start = rng.choice(S.nodes)
        assert rewrite_constraint(S, phi, start) is visited_set_rewrite(S, phi, start), phi


def test_frontier_keys_build_the_visited_set_rewrite_on_the_bundled_buildings(
        office, office_reqs, firm, firm_reqs):
    grid = grid_building(4, 4, secure={"c1_1", "c2_3"})
    grid_reqs = parse_requirements(
        "role = staff and badge => grant(id = c3_3)\n"
        "role = guest => waypoint(id = c1_2, id = c3_2)\n"
        "role = guest => deny(zone = secure)\n"
        "role = staff => AF id = c3_3\n", grid.sig)
    for S, reqs in ((office, office_reqs), (firm, firm_reqs), (grid, grid_reqs)):
        for r in effective_requirements(reqs, "on", False):
            new = rewrite_constraint(S, r.constraint, S.entry)
            assert new is visited_set_rewrite(S, r.constraint, S.entry), r.source


def test_until_rewrite_scales_to_a_5x6_grid():
    # three rules as on the benchmark's grids; keyed on whole visited
    # sets this encode took 41 s and 1 GB, with both untils keyed on
    # frontiers 0.5 s, and with the frontier key left to AU alone 0.3 s
    S = grid_building(5, 6, secure={"c1_1", "c1_3", "c2_4", "c3_1", "c3_2"})
    reqs = parse_requirements("role = staff and badge => grant(id = c4_5)\n"
                              "role = guest => grant(id = c4_3)\n"
                              "role = guest => deny(zone = secure)\n", S.sig)
    t0 = time.perf_counter()
    f = cand([encode(S, r) for r in reqs])
    elapsed = time.perf_counter() - t0
    assert formula_size(f) == 6059          # as keyed on whole visited sets
    assert elapsed < 15.0, elapsed


def test_node_repr_grows_with_the_dag():
    # a guard formula shares its until subproblems; printed as a tree,
    # this 4x4 grid's ran to 117 characters per node (3x3: 32)
    for n in (3, 4):
        S = grid_building(n, n, secure={"c1_1"})
        reqs = parse_requirements("role = staff => grant(id = c%d_%d)\n"
                                  "role = guest => deny(zone = secure)\n" % (n - 1, n - 1),
                                  S.sig)
        f = cand([encode(S, r) for r in reqs])
        text = repr(f)
        assert " where _0 = " in text
        assert len(text) < 50 * formula_size(f), (n, len(text), formula_size(f))


def test_node_repr_names_each_shared_connective_once():
    a, g = Atom("x", frozenset(["a"])), cguard(("p", "q"))
    assert repr(CAnd((a, g))) == "CAnd((Atom('x', frozenset({'a'})), CGuard(('p', 'q'))))"
    assert repr(CAnd((a,))) == "CAnd((Atom('x', frozenset({'a'})),))"
    shared = COr((a, g))
    assert repr(CAnd((shared, CNot(shared)))) == (
        "CAnd((_0, Not(_0))) where _0 = COr((Atom('x', frozenset({'a'})), "
        "CGuard(('p', 'q'))))")
    deep = Atom("x", frozenset(["a"]))
    for _ in range(5000):
        deep = CNot(CAnd((deep, g)))
    assert len(repr(deep)) < 5000 * 40


def test_formula_edges_sums_arities():
    a, b = x_eq(0), y_eq(1)
    f = CAnd((COr((a, b)), CNot(COr((a, b))), a))
    assert formula_edges(f) == 3 + 1 + 2
    assert formula_edges(a) == 0
    assert formula_edges(f) == sum(len(children(g)) for g in subformulas(f))


def test_next_operators_rewrite(triangle):
    f = EX(Atom("id", frozenset(["cor"])))
    got = rewrite_constraint(triangle, f, "out")
    assert got == cguard(("out", "cor"))
    f = AX(Atom("id", frozenset(["cor"])))
    got = rewrite_constraint(triangle, f, "out")
    assert got == CNot(cguard(("out", "bur")))


def test_encode_guards_the_target(triangle):
    req = Requirement(Atom("role", frozenset(["visitor"])),
                      EX(Atom("id", frozenset(["cor"]))), "positive")
    f = encode(triangle, req)
    assert f == CImplies(CAtom("role", frozenset(["visitor"])),
                         cguard(("out", "cor")))
    trivial = Requirement(Top(), Top(), "positive")
    assert encode(triangle, trivial) == CTrue()


def test_expand_guards_uses_the_template(office, office_published):
    tpl = SingletonTemplate(office, office_published)
    f = cand([cguard(("out", "lob")), cguard(("lob", "out"))])
    out = expand_guards(f, tpl)
    assert out == target_to_control(office_published[("out", "lob")])
    # the fixed door expanded to its fixed always-grant policy
    assert not any(isinstance(g, CGuard) for g in subformulas(out))


def test_eval_formula_rejects_unexpanded_guards(triangle):
    with pytest.raises(TypeError, match="unexpanded"):
        eval_formula(cguard(("out", "cor")), {}, {})


def test_fold_and_ground(office):
    vis = CAtom("role", frozenset(["visitor"]))
    pin = CAtom("correct_pin", frozenset([True]))
    f = cor([cand([vis, x_eq(1)]), pin])
    assert fold_atoms(f, {"role": "visitor"}) == x_eq(1)
    assert fold_atoms(f, {"correct_pin": True}) == CTrue()
    assert fold_atoms(f, {}) == CFalse()
    assert collect_atoms(f) == [pin, vis]      # sorted by attribute name
    # grounding: one conjunct per region that does not fold away;
    # the all-bottom region folds to false, so the whole thing is false
    assert ground_forall(f, office.sig) == CFalse()
    g = cor([cand([vis, x_eq(1)]), cnot(vis)])
    grounded = ground_forall(g, office.sig)
    assert grounded == x_eq(1)      # only the visitor region constrains


def test_grounding_agrees_with_verification_on_random_singletons():
    rng = random.Random(99)
    agreements = 0
    for _ in range(80):
        S = random_model(rng, rng.randint(2, 5), backbone_fixed_true=True)
        config = random_config(rng, S)
        req = random_pattern_requirement(rng, S)
        tpl = SingletonTemplate(S, config)
        grounded = ground_forall(expand_guards(encode(S, req), tpl), S.sig)
        assert isinstance(grounded, (CTrue, CFalse))
        ok = holds(S, config, [req]).ok
        assert isinstance(grounded, CTrue) == ok, (req, config)
        agreements += 1
    assert agreements == 80


def test_sat_solve_simple_cases():
    x = ControlVar("x", 3)
    y = ControlVar("y", 2)
    assert sat_solve(CTrue(), [x, y]) == {"x": 0, "y": 0}
    assert sat_solve(CFalse(), [x, y]) is None
    assert sat_solve(x_eq(2), [x, y]) == {"x": 2, "y": 0}
    m = sat_solve(cand([x_eq(2), y_eq(1)]), [x, y])
    assert m == {"x": 2, "y": 1}
    # a variable never takes a value its size excludes
    assert sat_solve(x_eq(3), [x]) is None
    out = sat_solve(cor([x_eq(1), x_eq(2)]), [x])
    assert out is not None and out["x"] in (1, 2)


def test_sat_solve_is_deterministic():
    x = ControlVar("x", 5)
    y = ControlVar("y", 5)
    f = cand([cor([x_eq(i) for i in (1, 3, 4)]),
              cor([y_eq(i) for i in (2, 4)]),
              cnot(cand([x_eq(3), y_eq(2)]))])
    first = sat_solve(f, [x, y])
    for _ in range(5):
        assert sat_solve(f, [x, y]) == first


def test_sat_solve_infers_variables():
    f = cand([cor([x_eq(1), y_eq(3)]), cnot(x_eq(1))])
    m = sat_solve(f)
    assert m is not None and m["y"] == 3


def test_sat_solve_rejects_bad_input():
    with pytest.raises(SolverError, match="undeclared"):
        sat_solve(x_eq(1), [ControlVar("y", 2)])
    with pytest.raises(SolverError, match="unexpanded|cannot solve"):
        sat_solve(cguard(("a", "b")), [])


def random_control_formula(rng, vars_, depth, atoms=()):
    """A random formula over control variables and, when `atoms` are
    given, half of the time over those attribute tests instead."""
    if depth <= 0 or rng.random() < 0.3:
        if atoms and rng.random() < 0.5:
            return rng.choice(atoms)
        v = rng.choice(vars_)
        return CVarEq(v.name, rng.randrange(v.size + 1))   # may exceed the size
    sub = lambda: random_control_formula(rng, vars_, depth - 1, atoms)
    roll = rng.random()
    if roll < 0.25:
        return cnot(sub())
    if roll < 0.5:
        return cand([sub() for _ in range(rng.randint(1, 3))])
    if roll < 0.75:
        return cor([sub() for _ in range(rng.randint(1, 3))])
    return cimplies(sub(), sub())


def reference_eval(f, q, m):
    """Plain recursive evaluation, one visit per occurrence."""
    if isinstance(f, CTrue):
        return True
    if isinstance(f, CFalse):
        return False
    if isinstance(f, CAtom):
        return q.get(f.attr, BOTTOM) in f.values
    if isinstance(f, CVarEq):
        return m.get(f.var, 0) == f.value
    if isinstance(f, CNot):
        return not reference_eval(f.sub, q, m)
    if isinstance(f, CAnd):
        return all(reference_eval(a, q, m) for a in f.args)
    if isinstance(f, COr):
        return any(reference_eval(a, q, m) for a in f.args)
    if isinstance(f, CImplies):
        return (not reference_eval(f.left, q, m)) or reference_eval(f.right, q, m)
    raise TypeError(f)


ATOMS = (CAtom("role", frozenset(["visitor"])),
         CAtom("role", frozenset([BOTTOM, "employee"])),
         CAtom("correct_pin", frozenset([True])),
         CAtom("time", frozenset([BOTTOM, 3, 4])))
REQUESTS = [{a: v for a, v in (("role", r), ("correct_pin", p), ("time", t))
             if v is not BOTTOM}                 # unset attributes read as bottom
            for r in (BOTTOM, "visitor", "employee")
            for p in (BOTTOM, False, True) for t in (BOTTOM, 0, 3)]


@st.composite
def shared_control_formulas(draw):
    """Two random formulas over variables and attribute tests, each
    used twice in the result, so that walks meet shared nodes."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    vars_ = [ControlVar("v%d" % i, rng.randint(1, 3)) for i in range(rng.randint(1, 3))]
    a = random_control_formula(rng, vars_, rng.randint(0, 4), ATOMS)
    b = random_control_formula(rng, vars_, rng.randint(0, 4), ATOMS)
    f = cand([cor([a, b]), cimplies(a, cnot(b))]) if rng.random() < 0.7 else a
    return f, vars_


@settings(max_examples=150, deadline=None)
@given(shared_control_formulas(), st.sampled_from(REQUESTS), st.data())
def test_eval_formula_and_fold_atoms_agree_with_a_reference(case, q, data):
    f, vars_ = case
    m = {v.name: data.draw(st.integers(0, v.size)) for v in vars_}
    want = reference_eval(f, q, m)
    assert eval_formula(f, q, m) == want
    folded = fold_atoms(f, q)
    assert not collect_atoms(folded)
    assert eval_formula(folded, {}, m) == want


def shared_chain(levels):
    """Each level uses the one below twice: the tree doubles per level."""
    f = x_eq(0)
    for i in range(levels):
        f = cor([cand([f, y_eq(i % 2)]), cand([cnot(f), x_eq(1)])])
    return f


def chain_value(levels, m):
    """What shared_chain(levels) evaluates to, level by level."""
    v = m["x"] == 0
    for i in range(levels):
        v = (v and m["y"] == i % 2) or (not v and m["x"] == 1)
    return v


def test_evaluation_visits_shared_nodes_once():
    f = shared_chain(60)                     # 2^60 paths from the root
    for x, y in itertools.product((0, 1), repeat=2):
        m = {"x": x, "y": y}
        assert eval_formula(f, {}, m) == chain_value(60, m)


def least_model(f, vars_):
    """The satisfying assignment whose bits, in decision order (each
    variable's bits from the lowest, variables in declaration order),
    read least, by enumeration; None if there is none."""
    def bits(m):
        return [(m[v.name] >> i) & 1 for v in vars_ for i in range(var_bits(v.size))]

    models = [m for m in (dict(zip([v.name for v in vars_], combo))
                          for combo in itertools.product(*[range(v.size) for v in vars_]))
              if eval_formula(f, {}, m)]
    return min(models, key=bits, default=None)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_one_store_answers_as_fresh_solves(seed):
    """A store fed conjunct after conjunct answers each step as a fresh
    solve of the conjunction so far, and as enumeration does."""
    rng = random.Random(seed)
    vars_ = [ControlVar("v%d" % i, rng.randint(1, 4)) for i in range(rng.randint(1, 3))]
    store = _Cnf(vars_)
    prefix = []
    unsat = False
    for _ in range(rng.randint(1, 6)):
        prefix.append(random_control_formula(rng, vars_, rng.randint(0, 4)))
        # the store holds the earlier conjuncts, so it may get either
        # the whole conjunction, as the grounding loop passes it, or
        # just the new conjunct
        got = sat_solve(cand(prefix) if rng.random() < 0.5 else prefix[-1],
                        vars_, None, store)
        want = sat_solve(cand(prefix), vars_)
        assert got == want == least_model(cand(prefix), vars_), prefix
        assert not (unsat and got is not None)
        unsat = got is None
        if got is not None:
            # every clause kept, problem or learned, holds in the model
            # the search stopped at, not only the control bits read off it
            assign = store.assign
            for clause in store.clauses + store.learned:
                assert any(assign[abs(lit)] is (lit > 0) for lit in clause), clause


def extend_to_definitions(store, m):
    """Every variable of the store under the control assignment m: the
    control bits read off m, and each definitional variable as the value
    of the memo's nodes it stands for, evaluated children first (the
    memo holds them in that order)."""
    value = {}
    for g in store.memo:
        kind = type(g)
        if kind is CAnd:
            value[g] = all(value[a] for a in g.args)
        elif kind is COr:
            value[g] = any(value[a] for a in g.args)
        elif kind is CNot:
            value[g] = not value[g.sub]
        elif kind is CImplies:
            value[g] = not value[g.left] or value[g.right]
        elif kind is CVarEq:
            value[g] = m[g.var] == g.value
        else:
            value[g] = kind is CTrue
    var = {store.true_lit: True}
    for v in store.variables:
        for i, lit in enumerate(store.bits[v.name]):
            var[lit] = bool((m[v.name] >> i) & 1)
    for g, lit in store.memo.items():
        got = value[g] if lit > 0 else not value[g]
        assert var.setdefault(abs(lit), got) is got, (g, lit)
    assert sorted(var) == list(range(1, store.n_vars + 1))
    return var


def test_every_kept_clause_holds_in_every_model():
    """Learned clauses must be implied by the problem clauses: each one,
    like each problem clause, holds in every model of the formulas
    asserted so far, not only in the one the search stopped at."""
    def holds(clause, var):
        return any(var[abs(lit)] is (lit > 0) for lit in clause)

    rng = random.Random(2029)
    counters = {}
    for _ in range(400):
        vars_ = [ControlVar("v%d" % i, rng.randint(2, 5)) for i in range(rng.randint(2, 4))]
        store = _Cnf(vars_)
        prefix = []
        for _ in range(rng.randint(2, 7)):
            prefix.append(random_control_formula(rng, vars_, rng.randint(2, 4)))
            got = sat_solve(prefix[-1], vars_, counters, store)
            whole = cand(prefix)
            models = [m for m in (dict(zip([v.name for v in vars_], combo))
                                  for combo in itertools.product(*[range(v.size) for v in vars_]))
                      if eval_formula(whole, {}, m)]
            assert (got is None) == (not models), prefix
            for m in models:
                var = extend_to_definitions(store, m)
                for clause in store.clauses + store.learned:
                    assert holds(clause, var), (prefix, m, clause)
    assert counters["conflicts"] > 0 and counters["learned"] > 0

    # a level-0 fact makes a new two-literal clause unit: x = 1 is a
    # fact, so the clause (z, not x) of z <-> (x = 1 or y = 1) forces z
    x, y = ControlVar("x", 2), ControlVar("y", 2)
    store = _Cnf([x, y])
    bx, by = store.bits["x"][0], store.bits["y"][0]
    assert sat_solve(x_eq(1), None, None, store) == {"x": 1, "y": 0}
    assert sat_solve(cor([x_eq(1), y_eq(1)]), None, None, store) == {"x": 1, "y": 0}
    z = store.memo[cor([x_eq(1), y_eq(1)])]
    assert (z, -bx) in store.clauses and (z, -by) in store.clauses
    assert store.assign[z] is True and store.reason[z] == -bx and store.level[z] == 0
    assert sat_solve(y_eq(1), None, None, store) == {"x": 1, "y": 1}
    # a level-0 fact makes one empty: the store is unsat from then on
    store.add((-bx, -by))
    assert sat_solve(CTrue(), None, None, store) is None
    assert not store.ok
    assert sat_solve(x_eq(1), None, None, store) is None


def test_sat_solve_agrees_with_brute_force():
    rng = random.Random(4242)
    for _ in range(200):
        vars_ = [ControlVar("v%d" % i, rng.randint(1, 4))
                 for i in range(rng.randint(1, 3))]
        f = random_control_formula(rng, vars_, rng.randint(1, 4))
        model = sat_solve(f, vars_)
        domains = [range(v.size) for v in vars_]
        expected = None
        for combo in itertools.product(*domains):
            m = {v.name: c for v, c in zip(vars_, combo)}
            if eval_formula(f, {}, m):
                expected = m
                break
        if expected is None:
            assert model is None, (f, model)
        else:
            assert model is not None, f
            assert eval_formula(f, {}, model), (f, model)
            for v in vars_:
                assert 0 <= model[v.name] < v.size


def test_emit_smtlib_grounded():
    x = ControlVar("x", 3)
    script = emit_smtlib(cor([x_eq(1), x_eq(2)]), [x])
    assert "(declare-const x Int)" in script
    assert "(assert (and (<= 0 x) (< x 3)))" in script
    assert "(assert (or (= x 1) (= x 2)))" in script
    assert script.rstrip().endswith("(get-value (x))")
    assert "(check-sat)" in script
    with pytest.raises(ValueError, match="grounded"):
        emit_smtlib(CAtom("role", frozenset(["v"])), [x])


def test_emit_smtlib_quantified(office):
    f = cand([cor([x_eq(1), CAtom("role", frozenset(["visitor"]))]),
              CAtom("time", frozenset([BOTTOM, 3, 4, 5, 9])),
              cnot(CAtom("correct_pin", frozenset([True])))])
    script = emit_smtlib(f, [ControlVar("x", 3)], sig=office.sig)
    assert "(forall ((q_role Int) (q_time Int) (q_correct_pin Int)) " \
        "(=> (and (<= 0 q_role 2) (<= (- 1) q_time) (<= 0 q_correct_pin 2))" in script
    assert "(or (= x 1) (= q_role 1))" in script         # visitor: index 1, unset 0
    assert "(= q_time (- 1))" in script                   # unset numeric case
    assert "(<= 3 q_time 5)" in script
    assert "(= q_time 9)" in script
    assert "(not (= q_correct_pin 2))" in script
    with pytest.raises(ValueError, match="grounded"):
        emit_smtlib(f, [])


def read_sexps(script):
    """The commands of a script as nested lists of tokens."""
    stack = [[]]
    for tok in re.findall(r"\(|\)|[^\s()]+", script):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    assert len(stack) == 1, "unbalanced parentheses"
    return stack[0]


def smt_holds(script, m, requests=()):
    """Whether every assertion of a script holds when each declared
    constant takes its value from m: a reader for the subset of SMT-LIB
    that emit_smtlib writes. A forall holds when its body holds under
    every binding of its variables in `requests`."""
    defined = {}        # name: (parameters, body)
    applied = {}        # (name, arguments): value, so shared terms read once

    def value(t, env):
        if isinstance(t, str):
            if t in ("true", "false"):
                return t == "true"
            if t in env:
                return env[t]
            if t in defined:
                return apply(t, ())
            return m[t] if t in m else int(t)
        if t[0] == "forall":
            assert all(set(q) == {name for name, _ in t[1]} for q in requests)
            return all(value(t[2], dict(env, **q)) for q in requests)
        op, args = t[0], [value(a, env) for a in t[1:]]
        if op in defined:
            return apply(op, tuple(args))
        if op == "and":
            return all(args)
        if op == "or":
            return any(args)
        if op == "not":
            return not args[0]
        if op == "=>":
            return (not args[0]) or args[1]
        if op == "=":
            return args[0] == args[1]
        if op == "-" and len(args) == 1:
            return -args[0]
        if op == "<=":
            return all(a <= b for a, b in zip(args, args[1:]))
        if op == "<":
            return args[0] < args[1]
        raise ValueError(op)

    def apply(name, args):
        if (name, args) not in applied:
            params, body = defined[name]
            assert len(params) == len(args)
            applied[name, args] = value(body, dict(zip(params, args)))
        return applied[name, args]

    assertions = []
    for command in read_sexps(script):
        if command[0] == "define-fun":
            assert command[3] == "Bool" and all(sort == "Int" for _, sort in command[2])
            defined[command[1]] = ([name for name, _ in command[2]], command[4])
        elif command[0] == "assert":
            assertions.append(value(command[1], {}))
    return all(assertions)


def smt_request(sig, q):
    """The quantified script's request variables bound as q sets them: a
    finite attribute to its value's index in the domain, a numeric one
    to its number, or -1 when unset."""
    out = {}
    for d in sig.request_attrs():
        v = q.get(d.name, BOTTOM)
        domain = d.domain()
        out["q_" + d.name] = (domain.index(v) if domain is not None
                              else -1 if v is BOTTOM else v)
    return out


@settings(max_examples=100, deadline=None)
@given(shared_control_formulas())
def test_grounded_script_means_the_formula(case):
    f, vars_ = case
    f = fold_atoms(f, {"role": "visitor", "time": 3})
    script = emit_smtlib(f, vars_)
    for combo in itertools.product(*(range(v.size) for v in vars_)):
        m = {v.name: c for v, c in zip(vars_, combo)}
        assert smt_holds(script, m) == eval_formula(f, {}, m), (script, m)


def test_grounded_script_prints_shared_subterms_once():
    x, y = ControlVar("x", 2), ControlVar("y", 2)
    small, large = (emit_smtlib(shared_chain(n), [x, y]) for n in (10, 20))
    # one definition per level that has two parents: all but the root
    assert large.count("(define-fun ") == 19
    assert len(large) < 2.2 * len(small)     # printed as a tree: 2^10 times
    for m in ({"x": 0, "y": 0}, {"x": 1, "y": 0}, {"x": 0, "y": 1}):
        assert smt_holds(large, m) == chain_value(20, m)


@settings(max_examples=100, deadline=None)
@given(shared_control_formulas())
def test_quantified_script_means_the_formula(office, case):
    f, vars_ = case
    script = emit_smtlib(f, vars_, sig=office.sig)
    # codes outside an attribute's domain stand for no request, so the
    # guards keep them from falsifying the body
    blank = smt_request(office.sig, {})
    bindings = [smt_request(office.sig, q) for q in REQUESTS] + [
        dict(blank, q_time=-2), dict(blank, q_role=3), dict(blank, q_correct_pin=-1)]
    for combo in itertools.product(*(range(v.size) for v in vars_)):
        m = {v.name: c for v, c in zip(vars_, combo)}
        want = all(eval_formula(f, q, m) for q in REQUESTS)
        assert smt_holds(script, m, bindings) == want, (script, m)


def test_quantified_script_prints_shared_subterms_once(office):
    x, y = ControlVar("x", 2), ControlVar("y", 2)
    small, large = (emit_smtlib(shared_chain(n), [x, y], sig=office.sig)
                    for n in (10, 20))
    # one definition per level that has two parents: all but the root
    assert large.count("(define-fun ") == 19
    assert len(large) < 2.2 * len(small)     # printed as a tree: 2^10 times
    for m in ({"x": 0, "y": 0}, {"x": 1, "y": 0}, {"x": 0, "y": 1}):
        assert smt_holds(large, m, [smt_request(office.sig, {})]) == chain_value(20, m)


CLASH_MODEL = {
    "attributes": {"subject": {"a_b": {"kind": "enum", "values": ["c"]},
                               "a": {"kind": "enum", "values": ["b_c", "unset"]},
                               "cl_0_0": {"kind": "boolean"},
                               "let": {"kind": "boolean"}},
                   "resource": {"id": {"kind": "enum", "values": ["o", "r", "s"]}}},
    "entry": "o",
    "resources": [{"id": x, "labels": {"id": x}} for x in "ors"],
    "edges": [{"from": x, "to": y} for x in "ors" for y in "ors" if x != y],
}
CLASH_RULES = """a_b = c and let => grant(id = r)
a = unset and cl_0_0 => deny(id = s)
a = b_c => grant(id = s)
"""


def test_quantified_script_names_each_thing_once(tmp_path):
    """Attribute names that met constructor names, a control variable and
    a reserved word in earlier scripts: every name is declared or bound
    once, no binder shadows a control variable, and the script means the
    formula at every request region."""
    S = model_from_json(CLASH_MODEL)
    reqs = parse_requirements(CLASH_RULES, S.sig)
    out = tmp_path / "clash.smt2"
    res = synth(S, reqs, emit_smt=str(out))
    assert res.ok and res.stats["attempts"][-1]["template"]["kind"] == "DnfTemplate"
    eff = effective_requirements(reqs)
    tpl = dnf_template(S, eff, 1)
    variables = tpl.control_vars()
    script = out.read_text()

    commands = read_sexps(script)
    declared = [c[1] for c in commands if c[0] in ("declare-const", "define-fun")]
    assert len(declared) == len(set(declared))
    assert {v.name for v in variables} <= set(declared)
    binder_lists = [c[2] for c in commands if c[0] == "define-fun"] + \
        [c[1][1] for c in commands if c[0] == "assert" and c[1][0] == "forall"]
    for binders in binder_lists:
        names = [name for name, _ in binders]
        assert len(names) == len(set(names))
        assert not set(names) & set(declared)
        assert not set(names) & {"let", "forall", "exists", "_"}
    assert len(binder_lists) > 1

    expanded = expand_guards(cand([encode(S, r) for r in eff]), tpl)
    assert script == emit_smtlib(expanded, variables, S.sig)
    rng = random.Random(7)
    assignments = [{v.name: 0 for v in variables}, {v.name: v.size - 1 for v in variables}] + [
        {v.name: rng.randrange(v.size) for v in variables} for _ in range(6)]
    for q in request_regions(expanded, S.sig):
        for m in assignments:
            assert smt_holds(script, m, [smt_request(S.sig, q)]) == \
                eval_formula(expanded, q, m), (q, m)


def test_emit_smtlib_does_not_recurse_on_formula_depth(office):
    """A formula 10,000 connectives deep prints at the default recursion
    limit, grounded and quantified."""
    levels = 5_000                      # two connectives per level
    grounded, quantified = x_eq(0), CAtom("role", frozenset(["visitor"]))
    for i in range(levels):
        grounded = cor([cand([grounded, x_eq(i % 2)]), y_eq(i % 3)])
        quantified = cor([cand([quantified, x_eq(i % 2)]),
                          CAtom("time", frozenset([i]))])
    assert sys.getrecursionlimit() < 2 * levels
    x, y = ControlVar("x", 2), ControlVar("y", 3)
    for script in (emit_smtlib(grounded, [x, y]),
                   emit_smtlib(quantified, [x, y], sig=office.sig)):
        assert read_sexps(script)[-2:] == [["check-sat"], ["get-value", ["x", "y"]]]
        assert script.count("(or ") == levels


def reference_sexp(f, names):
    """The SMT-LIB term for a grounded control formula, subterms listed in
    `names` printed as their names: the recursive printer the one fold
    replaced, kept to pin grounded scripts byte for byte."""
    def term(g):
        if g in names:
            return names[g]
        if isinstance(g, CTrue):
            return "true"
        if isinstance(g, CFalse):
            return "false"
        if isinstance(g, CVarEq):
            return "(= %s %d)" % (g.var, g.value)
        if isinstance(g, CNot):
            return "(not %s)" % term(g.sub)
        if isinstance(g, CAnd):
            return "(and %s)" % " ".join(term(a) for a in g.args)
        if isinstance(g, COr):
            return "(or %s)" % " ".join(term(a) for a in g.args)
        if isinstance(g, CImplies):
            return "(=> %s %s)" % (term(g.left), term(g.right))
        raise ValueError(g)

    return term(f)


def reference_grounded_script(f, variables):
    """A grounded script as the recursive printer and its define-fun per
    connective with two or more parents wrote it."""
    order = list(subformulas(f))
    parents = {}
    for g in order:
        for ch in children(g):
            parents[ch] = parents.get(ch, 0) + 1
    lines = ["(set-option :produce-models true)"]
    for v in variables:
        lines.append("(declare-const %s Int)" % v.name)
        lines.append("(assert (and (<= 0 %s) (< %s %d)))" % (v.name, v.name, v.size))
    names = {}
    for g in order:
        if parents.get(g, 0) >= 2 and children(g):
            name = "_s%d" % len(names)
            lines.append("(define-fun %s () Bool %s)" % (name, reference_sexp(g, names)))
            names[g] = name
    lines.append("(assert %s)" % reference_sexp(f, names))
    lines.append("(check-sat)")
    if variables:
        lines.append("(get-value (%s))" % " ".join(v.name for v in variables))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(shared_control_formulas(), st.sampled_from(REQUESTS))
def test_grounded_scripts_are_the_recursive_printers(case, q):
    f, vars_ = case
    f = fold_atoms(f, q)
    assert emit_smtlib(f, vars_) == reference_grounded_script(f, vars_)


@pytest.mark.parametrize("building", ["office", "firm"])
def test_full_groundings_print_as_the_recursive_printer_did(request, building):
    S = request.getfixturevalue(building)
    eff = effective_requirements(request.getfixturevalue(building + "_reqs"))
    body = cand([encode(S, r) for r in eff])
    for tpl in (dnf_template(S, eff, 1), complete_template(S, eff)):
        grounded = ground_forall(expand_guards(body, tpl), S.sig)
        variables = tpl.control_vars()
        assert emit_smtlib(grounded, variables) == \
            reference_grounded_script(grounded, variables)


def fake_solver(tmp_path, body):
    p = tmp_path / "solver.sh"
    p.write_text("#!/bin/sh\n" + body)
    p.chmod(p.stat().st_mode | stat.S_IEXEC)
    return str(p)


def test_run_external_sat_with_model(tmp_path):
    cmd = fake_solver(tmp_path, 'echo sat\necho "((x 1) (y (- 3)) (z true))"\n')
    verdict, model = run_external("(check-sat)\n", cmd)
    assert verdict == "sat"
    assert model == {"x": 1, "y": -3, "z": 1}


def test_run_external_unsat(tmp_path):
    cmd = fake_solver(tmp_path, "echo unsat\n")
    assert run_external("(check-sat)\n", cmd) == ("unsat", None)


def test_run_external_sat_without_model(tmp_path):
    cmd = fake_solver(tmp_path, "echo sat\n")
    assert run_external("(check-sat)\n", cmd) == ("sat", None)


def test_run_external_error_paths(tmp_path):
    with pytest.raises(SolverError, match="unknown"):
        run_external("x", fake_solver(tmp_path, "echo unknown\n"))
    with pytest.raises(SolverError, match="no verdict"):
        run_external("x", fake_solver(tmp_path, "echo pondering...\n"))
    with pytest.raises(SolverError, match="no verdict"):
        run_external("x", fake_solver(tmp_path, "true\n"))
    with pytest.raises(SolverError, match="could not run"):
        run_external("x", str(tmp_path / "missing-binary"))
    with pytest.raises(SolverError, match="empty"):
        run_external("x", "")
    with pytest.raises(SolverError, match="timed out"):
        run_external("x", fake_solver(tmp_path, "sleep 5\necho sat\n"),
                     timeout=0.2)


@pytest.mark.parametrize("answer", ["((x 1) (y", ")", "(" * 5000],
                         ids=["truncated", "unbalanced", "deep"])
def test_run_external_refuses_a_malformed_model(tmp_path, answer):
    """A truncated, unbalanced or deeply nested answer is bad solver
    output, never a partial model or a crash."""
    cmd = fake_solver(tmp_path, "echo sat\necho '%s'\n" % answer)
    with pytest.raises(SolverError, match="malformed model"):
        run_external("x", cmd)


def test_run_external_receives_the_script(tmp_path):
    cmd = fake_solver(tmp_path, 'cat "$1" > %s\necho unsat\n'
                      % (tmp_path / "seen.smt2"))
    script = emit_smtlib(x_eq(1), [ControlVar("x", 2)])
    run_external(script, cmd)
    assert (tmp_path / "seen.smt2").read_text() == script
