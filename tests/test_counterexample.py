"""The compiled counterexample check against the residue loop it replaces.

counterexample() runs a three-valued pass under the model over a
Compiled formula and then evaluates the residue's regions bit-parallel.
The reference below is the loop it replaces: substitute the model into
the expanded formula (assign_controls), build the regions of what is
left, and fold it at each representative in turn. Both must return the
same request, so synthesis must make the same instances, solver calls
and configurations with either.
"""

import json
import os
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from gatesynth import data, encoder
from gatesynth.app import effective_requirements, synth
from gatesynth.encoder import (
    CHUNK, Compiled, assign_controls, cand, cguard, cimplies, cnot, cor,
    counterexample, encode, expand_guards, fold_atoms,
)
from gatesynth.formulas import (
    BOOLEAN, BOTTOM, CONTEXTUAL, ENUM, NUMERIC, SUBJECT, Atom, AttributeDecl,
    AttributeSignature, CFalse, CVarEq, IntervalSet, Top, build_regions,
    collect_atoms,
)
from gatesynth.model import config_to_json, load_model, model_from_json
from gatesynth.rules import parse_requirements
from gatesynth.templates import CapExceeded, complete_template, dnf_template

from genutil import random_structure

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


def residue_counterexample(f, m, sig):
    """The first region representative of f's residue under m at which
    the residue does not fold to true, or None."""
    residue = assign_controls(f, m)
    for q in build_regions(sig, collect_atoms(residue)).representatives():
        if not isinstance(fold_atoms(residue, q), Top):
            return q
    return None


def check(f, m, sig):
    """counterexample() on the compiled f, which must be the reference's
    request, down to the order of its keys."""
    got = counterexample(Compiled(f), m, sig)
    want = residue_counterexample(f, m, sig)
    assert got == want and repr(got) == repr(want), m
    return got


def templates(S, eff):
    out = [dnf_template(S, eff, k) for k in (1, 2, 3)]
    try:
        out.append(complete_template(S, eff, 256))
    except CapExceeded:
        pass
    return out


@pytest.mark.parametrize("chunk", [CHUNK, 3])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_the_compiled_check_returns_the_residue_loops_request(seed, chunk):
    rng = random.Random(seed)
    S, reqs = random_structure(rng)
    eff = effective_requirements(S, reqs)
    guard_formula = cand([encode(S, r) for r in eff])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(encoder, "CHUNK", chunk)
        for tpl in templates(S, eff):
            expanded = expand_guards(guard_formula, tpl)
            for _ in range(3):
                # a partial model: the variables left out read as 0
                m = {v.name: rng.randrange(v.size) for v in tpl.control_vars()
                     if rng.random() < 0.7}
                check(expanded, m, S.sig)


SIG = AttributeSignature([
    AttributeDecl("role", SUBJECT, ENUM, ("guest", "staff")),
    AttributeDecl("badge", CONTEXTUAL, BOOLEAN),
    AttributeDecl("age", CONTEXTUAL, NUMERIC),
])
STAFF = Atom("role", ["staff"])
BADGE = Atom("badge", [True])


def test_a_residue_that_is_true_has_no_counterexample():
    f = cor([cand([CVarEq("x", 1), STAFF]), CVarEq("y", 2)])
    assert isinstance(assign_controls(f, {"y": 2}), Top)
    assert check(f, {"y": 2}, SIG) is None


def test_a_residue_that_is_false_returns_the_all_unset_request():
    f = cand([cor([STAFF, BADGE]), CVarEq("x", 1)])
    m = {"y": 1}                        # x is unset, so 0
    assert isinstance(assign_controls(f, m), CFalse)
    assert check(f, m, SIG) == {"role": BOTTOM, "badge": BOTTOM, "age": BOTTOM}


def test_every_connective_folds_as_the_smart_constructors_do():
    x, y = CVarEq("x", 1), CVarEq("y", 1)
    f = cand([cimplies(cor([x, STAFF]), cnot(cand([y, BADGE]))),
              cimplies(BADGE, cor([y, STAFF])),
              cnot(cand([x, cnot(STAFF)]))])
    for m in ({}, {"x": 1}, {"y": 1}, {"x": 1, "y": 1}):
        check(f, m, SIG)


def many_regions(bad_age):
    """A formula that holds for a set control bit and otherwise fails
    exactly for badged staff of age bad_age. Its 600 single-age tests,
    which no request meets at once, give 602 cells of age, so it has
    2 x 2 x 602 regions, and the failing one comes late."""
    tests = [Atom("age", IntervalSet([(2 * i, 2 * i)])) for i in range(600)]
    bad = Atom("age", IntervalSet([(bad_age, bad_age)]))
    return cor([CVarEq("x", 1), cnot(cand([STAFF, BADGE, bad])), cand(tests)])


def test_more_regions_than_one_chunk():
    f = many_regions(2000)
    regions = build_regions(SIG, collect_atoms(assign_controls(f, {})))
    assert regions.count() > CHUNK
    q = check(f, {}, SIG)
    assert q == {"role": "staff", "badge": True, "age": 2000}
    index = list(regions.representatives()).index(q)
    assert index >= CHUNK                  # found in a later chunk
    assert check(f, {"x": 1}, SIG) is None
    # no failing request at all: every chunk is evaluated
    assert check(cor([many_regions(2000), Atom("age", IntervalSet([(2000, 2000)]))]),
                 {}, SIG) is None


def test_a_region_is_found_by_its_index():
    regions = build_regions(SIG, collect_atoms(many_regions(2000)))
    assert [regions.representative(i) for i in range(regions.count())] == \
        list(regions.representatives())


def test_a_guard_left_unexpanded_is_refused():
    with pytest.raises(TypeError, match="not an expanded control formula"):
        Compiled(cand([cguard(("a", "b")), STAFF]))


# -- synthesis with the reference in place ------------------------------------

def workloads():
    sys.path.insert(0, BENCH)
    try:
        import workloads as bench_workloads
    finally:
        sys.path.remove(BENCH)
    return bench_workloads


def inputs(name):
    """A model and its rules: the bundled office and firm, the office
    made unsat as the benchmark's office-conflict does with seed 1001,
    and the first three 4 x 5 grids the grid-until workload draws from
    seed 1001."""
    if name in ("office", "office-conflict"):
        S = load_model(data.path(data.OFFICE_MODEL))
        if name == "office":
            with open(data.path(data.OFFICE_REQUIREMENTS)) as fh:
                text = fh.read()
        else:
            text = workloads().office_conflict_rules(1001, small=False)
    elif name == "firm":
        S = load_model(data.path(data.FIRM_MODEL))
        with open(data.path(data.FIRM_REQUIREMENTS)) as fh:
            text = fh.read()
    else:
        doc, text = workloads().grid_pool(1001, 4, 5)[int(name[-1])]
        S = model_from_json(json.loads(doc))
    return S, parse_requirements(text, S.sig)


COUNTERS = ("template", "regions", "instances", "iterations", "grounded_size",
            "cnf_vars", "cnf_clauses", "decisions", "conflicts", "propagations",
            "learned")


def outcome(S, res):
    attempts = [{key: a[key] for key in COUNTERS if key in a}
                for a in res.stats["attempts"]]
    config = None if res.configuration is None else config_to_json(S, res.configuration)
    return res.outcome, res.exhaustive, res.message, config, attempts


@pytest.mark.parametrize("name", ["office", "firm", "office-conflict",
                                  "grid0", "grid1", "grid2"])
def test_synth_with_the_residue_loop_gives_the_same_answer(monkeypatch, name):
    S, reqs = inputs(name)
    got = outcome(S, synth(S, reqs))
    monkeypatch.setattr(encoder, "counterexample",
                        lambda c, m, sig: residue_counterexample(c.nodes[-1], m, sig))
    want = outcome(S, synth(S, reqs))
    assert got == want
    assert got[0] == ("unsat" if name == "office-conflict" else "configuration")
