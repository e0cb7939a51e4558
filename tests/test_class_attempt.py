"""The class template solved class by class.

A class attempt grounds the guard formula once per request class, at the
class's member, as its cofactor: each controlled door's guard becomes
that class's bit of the door, each fixed door's guard and attribute test
its verdict. Each instance is solved alone over its class's bits. The
reference is the full grounding of the expanded formula, solved at once.
"""

import json
import random
import stat

import pytest
from hypothesis import given, settings, strategies as st

from gatesynth import app, data
from gatesynth.app import effective_requirements, synth
from gatesynth.cli import main
from gatesynth.encoder import (
    CTrue, CVarEq, SolverError, cand, emit_smtlib, encode, expand_guards, fold_atoms,
    ground_forall, sat_solve, substitute,
)
from gatesynth.formulas import eval_target, subformulas
from gatesynth.model import ResourceStructure, config_to_json, model_from_json
from gatesynth.rules import format_request, parse_requirements
from gatesynth.templates import CapExceeded, complete_template

from genutil import random_model, random_pattern_requirement, random_policy


def office_conflict():
    """The office rules and one rule that denies visitors the meeting
    room inside their granted window."""
    with open(data.path(data.OFFICE_REQUIREMENTS)) as fh:
        return fh.read() + "role = visitor and 14 <= time <= 14 => deny(id = mr)\n"


def office_with_flags(k):
    """The office with k boolean flags: the visitor grant needs every
    flag clear, and each flag denies visitors the meeting room."""
    with open(data.path(data.OFFICE_MODEL)) as fh:
        doc = json.load(fh)
    doc["attributes"]["contextual"].update({"f%d" % i: {"kind": "boolean"} for i in range(k)})
    S = model_from_json(doc)
    grant = "role = visitor and 8 <= time <= 20 => grant(id = mr)"
    with open(data.path(data.OFFICE_REQUIREMENTS)) as fh:
        text = fh.read()
    assert grant in text
    text = text.replace(grant, grant.replace(
        " =>", "".join(" and not f%d" % i for i in range(k)) + " =>"))
    text += "".join("role = visitor and f%d => deny(id = mr)\n" % i for i in range(k))
    return S, parse_requirements(text, S.sig)


def record_instances(monkeypatch):
    """Make app's substitute keep every class instance it builds."""
    made = []

    def recording(f, leaf):
        made.append(substitute(f, leaf))
        return made[-1]

    monkeypatch.setattr(app, "substitute", recording)
    return made


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans())
def test_the_class_attempt_finds_the_full_groundings_least_model(seed, fixed_door):
    rng = random.Random(seed)
    S = random_model(rng, rng.randint(2, 5), backbone_fixed_true=rng.random() < 0.5,
                     with_numeric=True)
    if fixed_door and S.controlled_edges():
        edges = dict(S.edges)
        edges[rng.choice(S.controlled_edges())] = random_policy(rng, S.sig)
        S = ResourceStructure(S.sig, S.entry, S.labels, edges)
    reqs = [random_pattern_requirement(rng, S) for _ in range(rng.randint(1, 4))]
    eff = effective_requirements(reqs)
    guard_formula = cand([encode(S, r) for r in eff])
    try:
        tpl = complete_template(S, eff, 256)
    except CapExceeded:
        return
    expanded = expand_guards(guard_formula, tpl)
    want = sat_solve(ground_forall(expanded, S.sig), tpl.control_vars())
    stats = {}
    with pytest.MonkeyPatch.context() as mp:
        made = record_instances(mp)
        got = app._attempt(S, guard_formula, tpl, "builtin", None, None, None, stats)
    assert got == want
    # every class up to the first refuted one, in order
    assert len(made) == len(tpl.classes) if got is not None else 1 <= len(made)
    for c, instance in enumerate(made):
        member = tpl.members[c]
        assert eval_target(member, tpl.classes[c])
        assert instance is fold_atoms(expanded, member)
        own = {v.name for v in tpl.class_bits(c).values()}
        assert {g.var for g in subformulas(instance) if isinstance(g, CVarEq)} <= own
    attempt = stats["attempts"][0]
    assert attempt["regions"] == len(tpl.classes)
    assert attempt["instances"] == attempt["iterations"] == sum(
        not isinstance(f, CTrue) for f in made)
    assert attempt["check_seconds"] == 0 and attempt["expanded_size"] == 0
    if got is None:
        assert attempt["refuted_request"] == format_request(tpl.members[len(made) - 1],
                                                            S.sig)
    else:
        assert "refuted_request" not in attempt


@pytest.mark.parametrize("template", ["dnf", "complete"])
def test_a_refuting_class_attempt_names_its_request(office, template):
    reqs = parse_requirements(office_conflict(), office.sig)
    res = synth(office, reqs, template=template)
    assert res.outcome == "unsat" and res.exhaustive
    assert res.message == "no configuration at all can satisfy these requirements"
    assert res.stats["refuted_request"] == "role=visitor, time=14, correct_pin=bot"
    assert res.stats["attempts"][-1]["refuted_request"] == res.stats["refuted_request"]


def test_the_stats_show_the_refuted_request(tmp_path, capsys, office):
    rules = tmp_path / "conflict.rules"
    rules.write_text(office_conflict())
    model = data.path(data.OFFICE_MODEL)
    assert main(["synth", model, str(rules), "--stats", "--no-explain"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert "# refuted_request = role=visitor, time=14, correct_pin=bot" in err
    assert err[-1] == "unsat: no configuration at all can satisfy these requirements"
    assert main(["synth", model, str(rules), "--stats=json", "--no-explain"]) == 1
    stats_line, verdict = capsys.readouterr().err.splitlines()
    assert json.loads(stats_line)["refuted_request"] == "role=visitor, time=14, correct_pin=bot"
    assert verdict == "unsat: no configuration at all can satisfy these requirements"


def test_the_timeout_is_one_deadline_for_every_class():
    S, reqs = office_with_flags(8)
    with pytest.raises(SolverError, match=r"timed out after 0s"):
        synth(S, reqs, template="complete", timeout=0)
    # each class solves in well under a millisecond, while the attempt
    # over all 262 classes takes about 0.06 s on a 2-core host
    with pytest.raises(SolverError, match=r"timed out after 0\.005s"):
        synth(S, reqs, template="complete", timeout=0.005)
    assert synth(S, reqs, template="complete", timeout=600).ok


def test_the_script_of_a_class_attempt_is_the_quantified_expansion(tmp_path, office,
                                                                  office_reqs):
    script = tmp_path / "complete.smt2"
    assert synth(office, office_reqs, template="complete", emit_smt=str(script)).ok
    eff = effective_requirements(office_reqs)
    tpl = complete_template(office, eff)
    expanded = expand_guards(cand([encode(office, r) for r in eff]), tpl)
    assert script.read_text() == emit_smtlib(expanded, tpl.control_vars(), office.sig)


@pytest.mark.parametrize("name", ["office", "firm"])
def test_an_external_solver_gives_the_built_in_answer(tmp_path, request, name):
    # a stand-in solver that answers every class's script with the whole
    # built-in model; the class attempt reads its class's bits from it
    # and checks them against the script it sent
    S, reqs = request.getfixturevalue(name), request.getfixturevalue(name + "_reqs")
    builtin = synth(S, reqs, template="complete")
    eff = effective_requirements(reqs)
    tpl = complete_template(S, eff)
    model = sat_solve(ground_forall(expand_guards(cand([encode(S, r) for r in eff]), tpl),
                                    S.sig), tpl.control_vars())
    script = tmp_path / "solver.sh"
    values = " ".join("(%s %d)" % item for item in model.items())
    script.write_text('#!/bin/sh\necho sat\necho "(%s)"\n' % values)
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    res = synth(S, reqs, template="complete", solver="external", solver_cmd=str(script))
    assert res.ok
    assert config_to_json(S, res.configuration) == config_to_json(S, builtin.configuration)
    assert res.stats["iterations"] == builtin.stats["iterations"]
