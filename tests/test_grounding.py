"""Counterexample-guided grounding in synth against the full grounding.

synth grounds the request quantifier region by region: it solves over
the regions picked so far and adds the first region the model fails.
The reference is the full grounding, ground_forall(f, sig) followed by
one sat_solve; both must give the same model or both none.
"""

import random
import stat

import pytest
from hypothesis import given, settings, strategies as st

from gatesynth import app, encoder
from gatesynth.app import SynthesisError, effective_requirements, synth
from gatesynth.encoder import (
    CAnd, CFalse, CTrue, ControlVar, SolverError, cand, encode, expand_guards,
    ground_forall, request_regions, sat_solve,
)
from gatesynth.model import ResourceStructure, config_to_json, scale_replicate
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
    with pytest.MonkeyPatch.context() as mp:
        solved = record_solved(mp)
        for tpl in templates(S, eff):
            expanded = expand_guards(cand([encode(S, r) for r in eff]), tpl)
            full = ground_forall(expanded, S.sig)
            want = sat_solve(full, tpl.control_vars())
            del solved[:]
            stats = {}
            got = app._attempt(S, eff, tpl, "builtin", None, None, None, stats)
            assert got == want, tpl.describe()
            attempt = stats["attempts"][-1]
            assert attempt["iterations"] == len(solved) <= attempt["regions"]
            assert attempt["regions"] == len(request_regions(expanded, S.sig))
            if isinstance(full, CFalse):
                assert got is None
            else:
                # every instance the loop solved over is one of the full grounding's
                assert conjuncts(solved[-1]) <= conjuncts(full)


def test_a_model_failing_a_picked_region_is_an_error(monkeypatch, office, office_reqs):
    # the first region is always picked, so a check that keeps naming it
    # means the solver's model contradicts an instance it was solved over
    monkeypatch.setattr(encoder, "counterexample", lambda f, m, requests: 0)
    with pytest.raises(SynthesisError, match="region 0"):
        synth(office, office_reqs)


def test_attempts_record_the_loop_and_the_solver(office, office_reqs):
    res = synth(office, office_reqs)
    assert res.ok
    keys = ("regions", "instances", "iterations", "cnf_vars", "cnf_clauses",
            "decisions", "conflicts", "propagations", "learned")
    for attempt in res.stats["attempts"]:
        assert attempt["iterations"] <= attempt["regions"]
        assert attempt["instances"] == attempt["iterations"]
        for key in keys:
            assert attempt[key] > 0, key
    for key in keys:
        assert res.stats[key] == res.stats["attempts"][-1][key]


def test_solver_counters_sum_over_iterations(monkeypatch, office, office_reqs):
    eff = effective_requirements(office, office_reqs)
    tpl = dnf_template(office, eff, 1)
    solved = record_solved(monkeypatch)
    stats = {}
    app._attempt(office, eff, tpl, "builtin", None, None, None, stats)
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
