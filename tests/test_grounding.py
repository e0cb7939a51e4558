"""Counterexample-guided grounding in synth against the full grounding.

synth grounds the request quantifier request by request: it solves over
the requests picked so far and adds one that counterexample() finds the
model failing at. The reference is the full grounding,
ground_forall(f, sig) followed by one sat_solve; both must give the
same model or both none.
"""

import os
import random
import re
import stat
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from gatesynth import app, cli, data, encoder
from gatesynth.app import SynthesisError, effective_requirements, synth
from gatesynth.encoder import (
    CAnd, CFalse, CTrue, Compiled, ControlVar, SolverError, cand, counterexample,
    encode, eval_formula, expand_guards, ground_forall, request_regions, sat_solve,
)
from gatesynth.model import ResourceStructure, config_to_json, scale_replicate
from gatesynth.rules import parse_requirements
from gatesynth.templates import CapExceeded, complete_template, dnf_template

from genutil import random_model, random_pattern_requirement, random_policy


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
    eff = effective_requirements(S, reqs)
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
    eff = effective_requirements(S, reqs)
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
    eff = effective_requirements(office, office_reqs)
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
    eff = effective_requirements(office, office_reqs)
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
