"""Grounding in synth against the full grounding.

Over a clause or menu template, synth grounds the request quantifier
request by request: it solves over the requests picked so far and adds
one that counterexample() finds the model failing at. Over the class
template it grounds once per class, at the class's member, and solves
each class alone. The reference is the full grounding,
ground_forall(f, sig) followed by one sat_solve; both must give the
same model or both none.
"""

import gc
import os
import random
import re
import stat
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from gatesynth import app, cli, data, encoder
from gatesynth.app import SynthesisError, effective_requirements, synth
from gatesynth.encoder import (
    CAnd, CFalse, CImplies, CNot, COr, CTrue, CVarEq, CGuard, Compiled, ControlVar,
    SolverError, assign_controls, cand, cguard, cimplies, cnot, cor, counterexample,
    emit_smtlib, encode, eval_formula, expand_guards, fold_atoms, ground_forall,
    request_regions, sat_solve, substitute,
)
from gatesynth.formulas import BOTTOM, Atom, subformulas
from gatesynth.model import ResourceStructure, config_to_json, scale_replicate
from gatesynth.rules import parse_requirements
from gatesynth.templates import (
    CapExceeded, ClassTemplate, MenuTemplate, SingletonTemplate, complete_template,
    dnf_template,
)

from genutil import (
    random_config, random_model, random_pattern_requirement, random_policy, random_request,
)
from test_class_attempt import office_with_flags


def conjuncts(f):
    if isinstance(f, CTrue):
        return set()
    return set(f.args) if isinstance(f, CAnd) else {f}


def with_a_fixed_door(rng, S):
    """S with one controlled door fixed to a random policy."""
    edges = dict(S.edges)
    door = rng.choice(S.controlled_edges())
    edges[door] = random_policy(rng, S.sig)
    return ResourceStructure(S.sig, S.entry, S.labels, edges)


def templates(S, eff):
    out = [dnf_template(S, eff, 1), dnf_template(S, eff, 2)]
    try:
        out.append(complete_template(S, eff, 256))
    except CapExceeded:
        pass
    return out


def record_solved(monkeypatch):
    """Make app's sat_solve keep every formula it is handed."""
    solved = []

    def recording(f, variables=None, counters=None, cnf=None):
        solved.append(f)
        return sat_solve(f, variables, counters, cnf)

    monkeypatch.setattr(app, "sat_solve", recording)
    return solved


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_the_loop_finds_the_full_groundings_least_model(seed):
    rng = random.Random(seed)
    S = random_model(rng, rng.randint(2, 5), backbone_fixed_true=rng.random() < 0.5,
                     with_numeric=True)
    if S.controlled_edges() and rng.random() < 0.4:
        S = with_a_fixed_door(rng, S)
    reqs = [random_pattern_requirement(rng, S) for _ in range(rng.randint(1, 4))]
    eff = effective_requirements(reqs)
    guard_formula = cand([encode(S, r) for r in eff])
    with pytest.MonkeyPatch.context() as mp:
        solved = record_solved(mp)
        for tpl in templates(S, eff):
            expanded = expand_guards(guard_formula, tpl)
            full = ground_forall(expanded, S.sig)
            want = sat_solve(full, tpl.control_vars())
            del solved[:]
            stats = {}
            got = app._attempt(S, guard_formula, tpl, "builtin", None, None, None,
                               stats)
            assert got == want, tpl.describe()
            if isinstance(tpl, ClassTemplate):
                continue        # the loop's shape only; see test_class_attempt.py
            attempt = stats["attempts"][-1]
            assert attempt["regions"] == len(request_regions(expanded, S.sig))
            assert attempt["instances"] <= attempt["regions"]
            assert attempt["iterations"] == attempt["instances"] + 1 == len(solved)
            assert isinstance(solved[0], CTrue)
            if isinstance(full, CFalse):
                assert got is None
            else:
                # every instance the loop solved over is one of the full grounding's
                assert conjuncts(solved[-1]) <= conjuncts(full)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_counterexample_finds_a_failing_request_exactly_when_one_exists(seed):
    rng = random.Random(seed)
    S = random_model(rng, rng.randint(2, 4), backbone_fixed_true=rng.random() < 0.5,
                     with_numeric=True)
    reqs = [random_pattern_requirement(rng, S) for _ in range(rng.randint(1, 3))]
    eff = effective_requirements(reqs)
    guard_formula = cand([encode(S, r) for r in eff])
    for tpl in templates(S, eff):
        expanded = expand_guards(guard_formula, tpl)
        m = {v.name: rng.randrange(v.size) for v in tpl.control_vars()
             if rng.random() < 0.7}
        failing = [q for q in request_regions(expanded, S.sig)
                   if not eval_formula(expanded, q, m)]
        got = counterexample(Compiled(expanded), m, S.sig)
        if not failing:
            assert got is None, tpl.describe()
        else:
            assert got is not None, tpl.describe()
            assert not eval_formula(expanded, got, m), tpl.describe()


def test_a_model_failing_a_picked_request_is_an_error(monkeypatch, office, office_reqs):
    # a check that keeps naming the same request means the solver's model
    # contradicts an instance it was solved over
    q = {"role": "visitor", "time": 3}
    monkeypatch.setattr(encoder, "counterexample", lambda f, m, sig: dict(q))
    with pytest.raises(SynthesisError, match="fails request %s" % re.escape(repr(q))):
        synth(office, office_reqs)


def test_attempts_record_the_loop_and_the_solver(office, office_reqs):
    res = synth(office, office_reqs)
    assert res.ok
    keys = ("regions", "instances", "iterations", "cnf_vars", "cnf_clauses",
            "decisions", "conflicts", "propagations", "learned")
    for attempt in res.stats["attempts"]:
        assert attempt["instances"] <= attempt["regions"]
        assert attempt["iterations"] == attempt["instances"] + 1
        for key in keys:
            assert attempt[key] > 0, key
    for key in keys:
        assert res.stats[key] == res.stats["attempts"][-1][key]


def test_synth_encodes_each_requirement_once(monkeypatch, office):
    # the office rules plus a rule denying visitors the meeting room
    # inside their granted window: the one-clause template fails and the
    # class template refutes, so the ladder stops after those two
    with open(data.path(data.OFFICE_REQUIREMENTS)) as fh:
        text = fh.read() + "role = visitor and 14 <= time <= 14 => deny(id = mr)\n"
    reqs = parse_requirements(text, office.sig)
    calls = []
    monkeypatch.setattr(app, "encode", lambda S, r: calls.append(r) or encode(S, r))
    res = synth(office, reqs)
    assert res.outcome == "unsat" and res.exhaustive
    attempts = res.stats["attempts"]
    assert [a["template"]["kind"] for a in attempts] == ["DnfTemplate", "ClassTemplate"]
    assert [a["template"].get("clauses") for a in attempts] == [1, None]
    assert calls == res.requirements


def test_solver_counters_sum_over_iterations(monkeypatch, office, office_reqs):
    eff = effective_requirements(office_reqs)
    tpl = dnf_template(office, eff, 1)
    solved = record_solved(monkeypatch)
    stats = {}
    app._attempt(office, cand([encode(office, r) for r in eff]), tpl, "builtin",
                 None, None, None, stats)
    attempt = stats["attempts"][-1]
    # the built-in solver is deterministic, so re-solving the same
    # formulas in order through one fresh store counts the same again
    store = encoder._Cnf(tpl.control_vars())
    counters = {}
    for f in solved:
        sat_solve(f, tpl.control_vars(), counters, store)
    assert len(solved) == attempt["iterations"] >= 2
    for key in ("decisions", "conflicts", "propagations", "learned",
                "cnf_vars", "cnf_clauses"):
        assert attempt[key] == counters[key], key
    assert (counters["cnf_vars"], counters["cnf_clauses"]) == (
        store.n_vars, len(store.clauses))


def record_grounded(monkeypatch):
    """Make app's ground_forall keep every instance it returns."""
    grounded = []

    def recording(f, sig, requests=None, compiled=None):
        grounded.append(ground_forall(f, sig, requests, compiled))
        return grounded[-1]

    monkeypatch.setattr(app, "ground_forall", recording)
    return grounded


def bundled_attempts(S, reqs):
    """The one-clause and the class template's attempt inputs."""
    eff = effective_requirements(reqs)
    guard_formula = cand([encode(S, r) for r in eff])
    return [(guard_formula, tpl) for tpl in (dnf_template(S, eff, 1),
                                            complete_template(S, eff, 4096))]


@pytest.mark.parametrize("name", ["office", "firm"])
def test_the_store_is_handed_each_new_instance_alone(monkeypatch, request, name):
    S, reqs = request.getfixturevalue(name), request.getfixturevalue(name + "_reqs")
    solved = record_solved(monkeypatch)
    grounded = record_grounded(monkeypatch)
    for guard_formula, tpl in bundled_attempts(S, reqs):
        del solved[:], grounded[:]
        stats = {}
        app._attempt(S, guard_formula, tpl, "builtin", None, None, None, stats)
        if isinstance(tpl, ClassTemplate):
            # one store per class, each handed its class's instance alone
            assert grounded == [] and len(solved) == stats["attempts"][0]["instances"] >= 1
            continue
        assert stats["attempts"][0]["instances"] == len(grounded) >= 1
        assert isinstance(solved[0], CTrue)
        assert len(solved) == len(grounded) + 1
        assert all(f is g for f, g in zip(solved[1:], grounded))


@pytest.mark.parametrize("name", ["office", "firm"])
def test_external_scripts_assert_every_instance_so_far(monkeypatch, request, name):
    S, reqs = request.getfixturevalue(name), request.getfixturevalue(name + "_reqs")
    grounded = record_grounded(monkeypatch)
    scripts = []

    def fake_external(script, command, timeout=None):
        # answers what the script should assert, through a fresh store
        scripts.append(script)
        model = sat_solve(cand(grounded), tpl.control_vars())
        return ("unsat", None) if model is None else ("sat", model)

    monkeypatch.setattr(app, "run_external", fake_external)
    for guard_formula, tpl in bundled_attempts(S, reqs)[:1]:     # the loop's scripts
        want = app._attempt(S, guard_formula, tpl, "builtin", None, None, None, {})
        del scripts[:], grounded[:]
        got = app._attempt(S, guard_formula, tpl, "external", "fake", None, None, {})
        assert got == want
        assert len(scripts) == len(grounded) + 1
        for i, script in enumerate(scripts):
            assert script == emit_smtlib(cand(grounded[:i]), tpl.control_vars())


def whole_conjunction_solve(instances, solver, solver_cmd, store, counters):
    """The handoff before the store was the one copy: the built-in store
    was handed the conjunction of every instance so far."""
    store.time_left()
    return sat_solve(cand(instances), store.variables, counters, store)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_handing_over_one_instance_solves_as_the_whole_conjunction(seed):
    rng = random.Random(seed)
    S = random_model(rng, rng.randint(2, 5), backbone_fixed_true=rng.random() < 0.5,
                     with_numeric=True)
    reqs = [random_pattern_requirement(rng, S) for _ in range(rng.randint(1, 4))]
    eff = effective_requirements(reqs)
    guard_formula = cand([encode(S, r) for r in eff])
    tpls = [dnf_template(S, eff, k) for k in (1, 2, 3)]
    try:
        tpls.append(complete_template(S, eff, 256))
    except CapExceeded:
        pass
    for tpl in tpls:
        new, old = {}, {}
        calls, solve = [], app._solve

        def propagating_solve(instances, solver, solver_cmd, store, counters):
            before = counters.get("propagations", 0)
            model = solve(instances, solver, solver_cmd, store, counters)
            calls.append((model, counters["propagations"] - before))
            return model

        with pytest.MonkeyPatch.context() as mp:
            grounded = record_grounded(mp)
            mp.setattr(app, "_solve", propagating_solve)
            got = app._attempt(S, guard_formula, tpl, "builtin", None, None, None, new)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(app, "_solve", whole_conjunction_solve)
            want = app._attempt(S, guard_formula, tpl, "builtin", None, None, None, old)
        assert got == want, tpl.describe()
        if isinstance(tpl, ClassTemplate):
            continue            # one instance per store: no handoff to compare
        new, old = new["attempts"][0], old["attempts"][0]
        for key in ("instances", "iterations", "decisions", "conflicts", "learned",
                    "grounded_size", "expanded_size", "regions"):
            assert new[key] == old[key], (key, tpl.describe())
        # the AND gate the old handoff put over every conjunct was one more
        # variable, set by one more level-0 propagation, wherever a later
        # instance was neither a conjunction (whose own gate it replaced)
        # nor false. An instance the level-0 facts already refute is the
        # exception: asserting it makes the store unsat with no propagation,
        # and the old gate was set false as its clauses were added
        gates = sum(not isinstance(g, (CAnd, CFalse)) for g in grounded[1:])
        assert old["cnf_vars"] - new["cnf_vars"] == gates, tpl.describe()
        refuted = (len(grounded) > 1 and not isinstance(grounded[-1], (CAnd, CFalse))
                   and calls[-1] == (None, 0))
        assert old["propagations"] - new["propagations"] == gates - refuted, tpl.describe()
        assert new["cnf_clauses"] <= old["cnf_clauses"], tpl.describe()


@pytest.mark.parametrize("name", ["office", "firm"])
@pytest.mark.parametrize("template", ["dnf", "complete"])
def test_synth_frees_what_it_builds_without_the_cycle_collector(monkeypatch, request,
                                                               name, template):
    S, reqs = request.getfixturevalue(name), request.getfixturevalue(name + "_reqs")
    stores = []

    def recording(f, variables=None, counters=None, cnf=None):
        stores.append(weakref.ref(cnf))
        return sat_solve(f, variables, counters, cnf)

    monkeypatch.setattr(app, "sat_solve", recording)
    gc.collect()
    gc.disable()
    try:
        assert synth(S, reqs, template=template).ok
        # reference counting alone freed every attempt's store
        assert stores and all(ref() is None for ref in stores)
        assert gc.collect() == 0
    finally:
        gc.enable()


# The solver's work on the bundled firm, rules in file order, per
# template: a change that alters the search on purpose updates these and
# says why. The class attempt solves its 17 classes one store each, so
# its clause counts are summed over the stores and it expands nothing.
FIRM_WORK = {
    "dnf": dict(instances=7, iterations=8, decisions=6104, conflicts=1,
                propagations=29606, learned=1, cnf_vars=5402, cnf_clauses=17152,
                grounded_size=5164, expanded_size=4073, regions=180),
    "complete": dict(instances=17, iterations=17, decisions=584, conflicts=0,
                     propagations=2970, learned=0, cnf_vars=2970, cnf_clauses=8375,
                     grounded_size=3371, expanded_size=0, regions=17),
}


@pytest.mark.parametrize("template", ["dnf", "complete"])
def test_the_solver_work_on_the_firm_is_pinned(firm, firm_reqs, template):
    attempts = synth(firm, firm_reqs, template=template).stats["attempts"]
    assert len(attempts) == 1
    want = FIRM_WORK[template]
    assert {key: attempts[0][key] for key in want} == want


# The firm makes one conflict, so the solver's work on the office with 6
# boolean flags, under the default plan, is pinned beside it: the
# k = 2 attempt learns a clause at each of its 1,140 conflicts. Per
# attempt (k = 1, the class template, k = 2): instances, iterations,
# decisions, conflicts, propagations, learned, cnf_vars, cnf_clauses.
FLAGS_WORK_KEYS = ("instances", "iterations", "decisions", "conflicts", "propagations",
                   "learned", "cnf_vars", "cnf_clauses")
FLAGS_WORK = [(13, 14, 4332, 69, 23833, 68, 997, 3387),
              (69, 69, 210, 0, 879, 0, 879, 1730),
              (28, 29, 103208, 1140, 774523, 1140, 5598, 20231)]


def test_the_solver_work_on_a_conflict_heavy_office_is_pinned():
    S, reqs = office_with_flags(6)
    res = synth(S, reqs)
    assert res.ok
    assert [a["template"]["kind"] for a in res.stats["attempts"]] == [
        "DnfTemplate", "ClassTemplate", "DnfTemplate"]
    assert [tuple(a[key] for key in FLAGS_WORK_KEYS)
            for a in res.stats["attempts"]] == FLAGS_WORK


def recursive_substitute(f, leaf):
    """substitute() before it folded over subformulas(): a recursive
    walk with a memo, kept as the reference for the fold."""
    memo = {}

    def walk(g):
        got = memo.get(g)
        if got is not None:
            return got
        if isinstance(g, CAnd):
            out = cand([walk(a) for a in g.args])
        elif isinstance(g, COr):
            out = cor([walk(a) for a in g.args])
        elif isinstance(g, CNot):
            out = cnot(walk(g.sub))
        elif isinstance(g, CImplies):
            out = cimplies(walk(g.left), walk(g.right))
        else:
            out = leaf(g)
        memo[g] = out
        return out

    return walk(f)


def atom_verdicts(q):
    """The leaf function that decides each attribute test under q."""
    def leaf(g):
        if isinstance(g, Atom):
            return CTrue() if q.get(g.attr, BOTTOM) in g.values else CFalse()
        return g

    return leaf


def control_verdicts(m):
    """The leaf function that decides each control-variable test under m."""
    def leaf(g):
        if isinstance(g, CVarEq):
            return CTrue() if m.get(g.var, 0) == g.value else CFalse()
        return g

    return leaf


def fold_by_substitute(f, q):
    """fold_atoms as one reference walk per call."""
    return recursive_substitute(f, atom_verdicts(q))


def random_attempts(rng):
    """A random building, its requirements' guard formula, and templates
    of every kind over it."""
    S = random_model(rng, rng.randint(2, 5), backbone_fixed_true=rng.random() < 0.5,
                     with_numeric=True, two_way=0.3)
    reqs = [random_pattern_requirement(rng, S) for _ in range(rng.randint(1, 3))]
    eff = effective_requirements(reqs)
    guard_formula = cand([encode(S, r) for r in eff])
    tpls = [dnf_template(S, eff, k) for k in (1, 2, 3)]
    try:
        tpls.append(complete_template(S, eff, 256))
    except CapExceeded:
        pass
    menus = {e: [random_policy(rng, S.sig) for _ in range(rng.randint(1, 3))]
             for e in S.controlled_edges()}
    tpls += [MenuTemplate(S, menus), SingletonTemplate(S, random_config(rng, S))]
    return S, guard_formula, tpls


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_a_shared_compiled_form_folds_as_substitute_does(seed):
    """Over a shuffled sequence of requests, regions and random ones, all
    folding the expanded formula through one compiled form, fold_atoms
    returns the very node the reference walk builds; so it does on a
    subformula compiled on the spot, and it refuses a form compiled
    from another formula."""
    rng = random.Random(seed)
    S, guard_formula, tpls = random_attempts(rng)
    for tpl in tpls:
        expanded = expand_guards(guard_formula, tpl)
        compiled = Compiled(expanded)
        requests = request_regions(expanded, S.sig)[:24]
        requests += [random_request(rng, S.sig) for _ in range(8)]
        rng.shuffle(requests)
        for q in requests:
            assert fold_atoms(expanded, q, compiled) is fold_by_substitute(expanded, q), \
                tpl.describe()
        part = rng.choice(list(subformulas(expanded)))
        q = rng.choice(requests)
        assert fold_atoms(part, q) is fold_by_substitute(part, q), tpl.describe()
        if part is not expanded:
            with pytest.raises(ValueError, match="not that of the formula"):
                fold_atoms(part, q, compiled)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_substitute_builds_the_node_the_recursive_walk_builds(seed):
    """On guard formulas (guards expanded), expanded formulas of every
    template kind (control tests decided) and their residues (attribute
    tests decided), substitute returns the very node the recursive
    reference builds, and so do expand_guards and assign_controls."""
    rng = random.Random(seed)
    S, guard_formula, tpls = random_attempts(rng)
    for tpl in tpls:
        expanded = expand_guards(guard_formula, tpl)
        assert expanded is recursive_substitute(
            guard_formula, lambda g: tpl.edge_policy_formula(g.edge)
            if isinstance(g, CGuard) else g), tpl.describe()
        m = {v.name: rng.randrange(v.size) for v in tpl.control_vars()}
        residue = assign_controls(expanded, m)
        assert residue is recursive_substitute(expanded, control_verdicts(m))
        q = random_request(rng, S.sig)
        assert substitute(residue, atom_verdicts(q)) is fold_by_substitute(residue, q)


class OnePolicy:
    """A template stand-in: every door's policy is `policy`."""

    def __init__(self, policy):
        self.policy = policy

    def edge_policy_formula(self, edge):
        return self.policy


def test_the_folds_do_not_recurse_on_formula_depth(office):
    """A formula 10,000 connectives deep, over control-variable tests and
    attribute tests with one guard at the bottom, goes through
    expand_guards, assign_controls, fold_atoms and ground_forall at the
    default recursion limit, and each answers as the formula reads."""
    levels = 5_000                      # two connectives per level
    tests = [Atom("role", ["visitor"]), Atom("correct_pin", [True])]
    f = cguard(("out", "cor"))
    for i in range(levels):
        f = cor([cand([f, CVarEq("x", i % 2)]), tests[i % 2]])
    assert sys.getrecursionlimit() < 2 * levels
    expanded = expand_guards(f, OnePolicy(cand([CVarEq("y", 1), tests[1]])))
    assert not any(isinstance(g, CGuard) for g in subformulas(expanded))

    def value(q, m):
        v = m.get("y", 0) == 1 and q.get("correct_pin") is True
        for i in range(levels):
            v = (v and m.get("x", 0) == i % 2) or q.get(tests[i % 2].attr, BOTTOM) in \
                tests[i % 2].values
        return v

    requests = request_regions(expanded, office.sig)
    grounded = ground_forall(expanded, office.sig)
    compiled = Compiled(expanded)
    for m in ({}, {"x": 1, "y": 1}, {"y": 1}):
        residue = assign_controls(expanded, m)
        for q in requests:
            want = CTrue() if value(q, m) else CFalse()
            assert fold_atoms(residue, q) is want
            assert assign_controls(fold_atoms(expanded, q, compiled), m) is want
        want = all(value(q, m) for q in requests)
        assert assign_controls(grounded, m) is (CTrue() if want else CFalse())


def fake_solver(tmp_path, body):
    script = tmp_path / "solver.sh"
    script.write_text("#!/bin/sh\n" + body)
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return str(script)


def test_external_timeout_is_one_deadline_per_attempt(tmp_path, office, office_reqs):
    log = tmp_path / "calls"
    # every control variable 0; the office has regions that model fails,
    # so the loop calls the solver again
    cmd = fake_solver(tmp_path, 'echo x >> %s\nsleep 0.4\necho sat\necho "((dummy 0))"\n'
                      % log)
    eff = effective_requirements(office_reqs)
    tpl = dnf_template(office, eff, 1)
    with pytest.raises(SolverError, match="timed out"):
        synth(office, office_reqs, template=tpl, solver="external", solver_cmd=cmd,
              timeout=0.7)
    assert log.read_text().count("x") <= 2
    # a spent deadline stops the attempt before the solver runs
    log.unlink()
    with pytest.raises(SolverError, match="timed out after 0"):
        synth(office, office_reqs, template=tpl, solver="external", solver_cmd=cmd,
              timeout=0)
    assert not log.exists()


def test_external_solvers_read_no_stdin(tmp_path):
    # a solver that reads its standard input would wait on the caller's,
    # here a pipe nobody writes to or closes
    cmd = fake_solver(tmp_path, "cat > /dev/null\necho unsat\n")
    code = ("from gatesynth.encoder import run_external\n"
            "print(run_external('(check-sat)', %r, timeout=5)[0])" % cmd)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(encoder.__file__)))
    with subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as child:
        try:
            child.wait(timeout=30)
        finally:
            child.kill()
        out, err = child.stdout.read(), child.stderr.read()
    assert child.returncode == 0, err
    assert out.decode().strip() == "unsat"


@pytest.mark.parametrize("values", ["(t_0_0_0_attr 9) (cl_0_0 1) (t_0_0_0_use 1)",
                                    "(cl_0_0 (- 1))"])
def test_external_values_outside_a_domain_are_solver_errors(tmp_path, capsys, office,
                                                            office_reqs, values):
    # the office's DNF k=1 template: t_0_0_0_attr has 3 values, cl_0_0 has 2
    cmd = fake_solver(tmp_path, 'echo sat\necho "(%s)"\n' % values)
    name = values.split()[0][1:]
    with pytest.raises(SolverError, match="solver gave %s the value" % name):
        synth(office, office_reqs, solver="external", solver_cmd=cmd)
    code = cli.main(["synth", data.path(data.OFFICE_MODEL),
                     data.path(data.OFFICE_REQUIREMENTS),
                     "--solver", "external", "--solver-cmd", cmd])
    assert code == 2
    assert "solver gave %s the value" % name in capsys.readouterr().err


@pytest.mark.parametrize("timeout", ["inf", "1e308"])
def test_an_unbounded_external_timeout_runs_without_a_deadline(tmp_path, capsys,
                                                               timeout):
    cmd = fake_solver(tmp_path, "echo unsat\n")
    code = cli.main(["synth", data.path(data.OFFICE_MODEL),
                     data.path(data.OFFICE_REQUIREMENTS), "--solver", "external",
                     "--solver-cmd", cmd, "--timeout", timeout])
    assert code == 1
    assert "unsat:" in capsys.readouterr().err


def test_builtin_timeout_is_one_deadline_per_attempt(monkeypatch, office, office_reqs,
                                                     firm, firm_reqs):
    searched = []
    search = encoder._dpll
    monkeypatch.setattr(encoder, "_dpll", lambda *args: searched.append(1) or search(*args))
    # a spent deadline stops the attempt before any search
    with pytest.raises(SolverError, match=r"timed out after 0s"):
        synth(office, office_reqs, timeout=0)
    assert not searched
    # firm x3 takes over a second to solve
    with pytest.raises(SolverError, match=r"timed out after 0\.05s"):
        synth(scale_replicate(firm, 3), firm_reqs, timeout=0.05)
    plain = synth(office, office_reqs)
    timed = synth(office, office_reqs, timeout=600)
    assert config_to_json(office, plain.configuration) == config_to_json(
        office, timed.configuration)
    assert plain.stats["decisions"] == timed.stats["decisions"]


def test_the_search_checks_the_deadline():
    # no conflicts, so only the check every 256 decisions can stop it
    variables = [ControlVar("v%d" % i, 2) for i in range(300)]
    with pytest.raises(SolverError, match=r"timed out after 0s"):
        sat_solve(CTrue(), variables, None, encoder._Cnf(variables, timeout=0))
    assert sat_solve(CTrue(), variables, None, encoder._Cnf(variables, timeout=600)) == {
        v.name: 0 for v in variables}
