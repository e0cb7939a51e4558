import os
import random
import stat
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from gatesynth import app, data
from gatesynth.app import (
    DEADLOCK_SOURCE, DENY_DEFAULT_SOURCE, SynthesisError, classify,
    deny_by_default_requirement, effective_requirements, minimal_conflict,
    simulate, synth, verify,
)
from gatesynth.classic import s_cs
from gatesynth.formulas import (
    AU, AX, BOOLEAN, CONTEXTUAL, ENUM, NEGATIVE, NUMERIC, POSITIVE, RESOURCE,
    SUBJECT, UNKNOWN, Atom, AttributeDecl, AttributeSignature, Not, Requirement,
    Top, conj, deadlock_free_constraint, deny, falsum, grant, target_equiv,
)
from gatesynth.model import ResourceStructure, config_to_json
from gatesynth.rules import parse_request, parse_requirements, parse_target
from gatesynth.templates import (
    CapExceeded, SingletonTemplate, complete_template, dnf_template,
)

from genutil import random_model, random_pattern_requirement


def vis_grants_vault(S):
    return Requirement(Atom("role", frozenset(["visitor"])),
                       grant(Atom("sec_zone", frozenset([True]))), POSITIVE)


def vis_denied_vault(S):
    return Requirement(Atom("role", frozenset(["visitor"])),
                       deny(Atom("sec_zone", frozenset([True]))), NEGATIVE)


def test_synth_office_defaults(office, office_reqs):
    res = synth(office, office_reqs)
    assert res.ok and res.outcome == "configuration"
    assert res.report is not None and res.report.ok
    assert res.stats["clauses_reached"] == 1
    assert res.stats["solver"] == "builtin"
    expected = {
        ("cor", "bur"): "role = employee",
        ("cor", "mr"): "true",
        ("lob", "cor"): "true",
        ("out", "cor"): "false",
        ("out", "lob"): "true",
    }
    assert set(res.configuration) == set(expected)
    for e, text in expected.items():
        assert target_equiv(res.configuration[e],
                            parse_target(text, office.sig), office.sig), e
    for key in ("encode_seconds", "ground_seconds", "solve_seconds",
                "total_seconds", "grounded_size", "control_bits"):
        assert key in res.stats


def test_synth_unsat_within_a_fixed_template(triangle):
    shut = SingletonTemplate(triangle, {e: falsum()
                                        for e in triangle.controlled_edges()})
    res = synth(triangle, [vis_grants_vault(triangle)], template=shut)
    assert res.outcome == "unsat" and not res.ok
    assert not res.exhaustive
    assert "template" in res.message


def test_synth_unsat_exhaustive(triangle):
    reqs = [vis_grants_vault(triangle), vis_denied_vault(triangle)]
    res = synth(triangle, reqs, template="complete")
    assert res.outcome == "unsat"
    assert res.exhaustive
    via_dnf = synth(triangle, reqs)
    assert via_dnf.outcome == "unsat" and via_dnf.exhaustive


def test_synth_cap_exceeded(triangle):
    reqs = [vis_grants_vault(triangle), vis_denied_vault(triangle)]
    res = synth(triangle, reqs, template="complete", complete_cap=1)
    assert res.outcome == "cap-exceeded" and not res.ok
    assert res.message


def test_synth_rejects_bad_bounds(triangle):
    reqs = [vis_grants_vault(triangle)]
    with pytest.raises(ValueError, match="max_k"):
        synth(triangle, reqs, max_k=-1)
    for cap in (0, -5):
        with pytest.raises(ValueError, match="complete_cap"):
            synth(triangle, reqs, complete_cap=cap)
    for timeout in (-1, -0.5, float("nan")):
        with pytest.raises(ValueError, match="timeout must be at least 0"):
            synth(triangle, reqs, timeout=timeout)
    # no clause templates at all: straight to the class template
    res = synth(triangle, reqs, max_k=0)
    assert res.ok
    assert [a["template"]["kind"] for a in res.stats["attempts"]] == ["ClassTemplate"]
    assert "clauses_reached" not in res.stats


def test_complete_template_synthesizes_the_bundled_models(office, office_reqs,
                                                          firm, firm_reqs):
    for S, reqs, classes in ((office, office_reqs, 7), (firm, firm_reqs, 17)):
        res = synth(S, reqs, template="complete")
        assert res.ok
        assert res.stats["template"]["classes"] == classes
        assert res.stats["control_bits"] == classes * len(S.controlled_edges())
        assert verify(S, reqs, res.configuration, deadlock_free="auto").ok


def test_synth_records_every_attempt(office):
    clash = [
        Requirement(Atom("role", frozenset(["visitor"])),
                    grant(Atom("id", frozenset(["bur"]))), POSITIVE),
        Requirement(Atom("role", frozenset(["visitor"])),
                    deny(Atom("sec_zone", frozenset([True]))), NEGATIVE),
    ]
    res = synth(office, clash)
    assert res.outcome == "unsat" and res.exhaustive
    attempts = res.stats["attempts"]
    # the class template refutes right after the one-clause attempt
    assert [a["template"]["kind"] for a in attempts] == ["DnfTemplate", "ClassTemplate"]
    assert [a["template"].get("clauses") for a in attempts] == [1, None]
    assert res.stats["clauses_reached"] == 1
    for key in ("ground_seconds", "solve_seconds"):
        assert res.stats[key] == pytest.approx(sum(a[key] for a in attempts))
    last = attempts[-1]
    for key in ("expanded_size", "grounded_size", "control_vars", "control_bits",
                "template"):
        assert res.stats[key] == last[key]
    assert last["control_bits"] == last["template"]["classes"] * len(
        office.controlled_edges())
    # the requirements are encoded once for the whole call, not per attempt
    assert res.stats["encode_seconds"] >= 0 and res.stats["guard_formula_size"] > 0
    for attempt in attempts:
        assert "encode_seconds" not in attempt and "guard_formula_size" not in attempt


def test_stats_report_guard_formula_edges_beside_its_nodes(office, office_reqs):
    # a chain of EFs splices each level's disjunction into the next: the
    # nodes grow linearly with the chain, the edges quadratically
    stats = []
    for n in (10, 20, 40):
        chain = parse_requirements("role = visitor => " + "EF " * n + "sec_zone", office.sig)
        stats.append(synth(office, office_reqs + chain).stats)
    nodes = [s["guard_formula_size"] for s in stats]
    edges = [s["guard_formula_edges"] for s in stats]
    assert nodes[2] < 2.1 * nodes[1] < 4.5 * nodes[0]
    assert edges[2] > 3.5 * edges[1] > 12 * edges[0]
    assert all(e >= n - 1 for n, e in zip(nodes, edges))
    for attempt in stats[0]["attempts"]:
        assert "guard_formula_edges" not in attempt


# ---------------------------------------------------------------------------
# The template ladder: k=1, the class template, then k=2..max_k
# ---------------------------------------------------------------------------

def class_last_ladder(S, reqs, max_k=3, complete_cap=4096):
    """The reference ladder, with the class template last: clause
    templates of width 1..max_k, then the class template, each through
    synth with a Template instance. Returns what answer() returns."""
    eff = effective_requirements(S, reqs)
    for k in range(1, max_k + 1):
        res = synth(S, reqs, template=dnf_template(S, eff, k))
        if res.ok:
            return answer(S, res)
    try:
        tpl = complete_template(S, eff, complete_cap)
    except CapExceeded as exc:
        return ("unsat", False, "no clause policy with up to %d clauses works, and "
                "the complete template is out of reach (%s)" % (max_k, exc), None)
    res = synth(S, reqs, template=tpl)
    if res.ok:
        return answer(S, res)
    return ("unsat", True, "no configuration at all can satisfy these requirements",
            None)


def answer(S, res):
    config = None if res.configuration is None else config_to_json(S, res.configuration)
    return res.outcome, res.exhaustive, res.message, config


def ladder(res):
    return [(a["template"]["kind"], a["template"].get("clauses"))
            for a in res.stats["attempts"]]


def office_rules(extra=""):
    with open(data.path(data.OFFICE_REQUIREMENTS)) as fh:
        return fh.read() + extra


# employees without the pin are kept out of the bureau outside opening
# hours: the corridor door needs two clauses
OFFICE_NEEDS_TWO_CLAUSES = (
    "role = employee and not correct_pin and 0 <= time <= 7 => deny(id = bur)\n"
    "role = employee and not correct_pin and 21 <= time <= 100000 => deny(id = bur)\n")

# the office-conflict benchmark's rules at seed 1001: a wide visitor window
# with one denied time inside it
OFFICE_CONFLICT_RULES = """\
role = visitor and 730 <= time <= 19930 => grant(id = mr)
role = visitor => waypoint(id = lob, id = mr)
role = employee and 8 <= time <= 20 => grant(id = bur)
role = employee and correct_pin => grant(id = bur)
role != employee => deny(sec_zone)
role = visitor and 10232 <= time <= 10232 => deny(id = mr)
"""


def three_clause_door():
    """One controlled door whose policy needs three clauses: a with the
    flag, b without it, and c early, whatever the rest."""
    sig = AttributeSignature([
        AttributeDecl("role", SUBJECT, ENUM, ("a", "b", "c")),
        AttributeDecl("flag", CONTEXTUAL, BOOLEAN),
        AttributeDecl("time", CONTEXTUAL, NUMERIC),
        AttributeDecl("id", RESOURCE, ENUM, ("out", "room")),
    ])
    S = ResourceStructure(sig, "out", {"out": {"id": "out"}, "room": {"id": "room"}},
                          {("out", "room"): None, ("room", "out"): Top()})
    S.validate()
    reqs = parse_requirements("""\
role = a and flag => grant(id = room)
role = a and not flag => deny(id = room)
role = b and not flag => grant(id = room)
role = b and flag => deny(id = room)
role = c and 0 <= time <= 5 => grant(id = room)
role = c and 6 <= time <= 1000 => deny(id = room)
""", sig)
    return S, reqs


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 3), st.sampled_from([1, 4, 4096]))
def test_the_ladder_answers_as_with_the_class_template_last_on_random_rules(
        seed, max_k, cap):
    rng = random.Random(seed)
    S = random_model(rng, rng.randint(2, 5), backbone_fixed_true=rng.random() < 0.5,
                     with_numeric=True, max_symbols=3)
    reqs = [random_pattern_requirement(rng, S) for _ in range(rng.randint(1, 5))]
    res = synth(S, reqs, max_k=max_k, complete_cap=cap)
    assert answer(S, res) == class_last_ladder(S, reqs, max_k, cap)


@pytest.mark.parametrize("max_k", [0, 1, 2, 3])
def test_the_ladder_answers_as_with_the_class_template_last_on_fixed_rules(
        office, firm, firm_reqs, max_k):
    cases = [(S, parse_requirements(text, S.sig)) for S, text in (
        (office, office_rules()),
        (office, office_rules(OFFICE_NEEDS_TWO_CLAUSES)),
        (office, OFFICE_CONFLICT_RULES),
    )] + [(firm, firm_reqs), three_clause_door()]
    for S, reqs in cases:
        # a cap of 1 puts the class template out of reach
        for cap in (1, 4096):
            assert answer(S, synth(S, reqs, max_k=max_k, complete_cap=cap)) == \
                class_last_ladder(S, reqs, max_k, cap)


def test_the_class_template_comes_right_after_one_clause(office):
    reqs = parse_requirements(office_rules(OFFICE_NEEDS_TWO_CLAUSES), office.sig)
    res = synth(office, reqs)
    assert res.ok and res.stats["clauses_reached"] == 2
    assert ladder(res) == [("DnfTemplate", 1), ("ClassTemplate", None),
                           ("DnfTemplate", 2)]
    assert res.stats["template"] == res.stats["attempts"][-1]["template"]
    # a refutation needs the one-clause attempt and the class attempt only
    clash = parse_requirements(OFFICE_CONFLICT_RULES, office.sig)
    for max_k in (1, 2, 3):
        res = synth(office, clash, max_k=max_k)
        assert res.outcome == "unsat" and res.exhaustive
        assert ladder(res) == [("DnfTemplate", 1), ("ClassTemplate", None)]
        assert res.stats["clauses_reached"] == 1


def test_the_class_model_answers_when_every_clause_template_fails(tmp_path):
    S, reqs = three_clause_door()
    script = tmp_path / "ladder.smt2"
    res = synth(S, reqs, max_k=2, emit_smt=str(script))
    assert res.ok and res.stats["clauses_reached"] == 2
    # the class attempt ran once; its model gave the configuration
    assert ladder(res) == [("DnfTemplate", 1), ("ClassTemplate", None),
                           ("DnfTemplate", 2)]
    complete_script = tmp_path / "complete.smt2"
    complete = synth(S, reqs, template="complete", emit_smt=str(complete_script))
    assert config_to_json(S, res.configuration) == config_to_json(
        S, complete.configuration)
    assert script.read_text() == complete_script.read_text()
    # the top-level keys describe the class attempt, the seconds sum all three
    attempts = res.stats["attempts"]
    for key, value in attempts[1].items():
        if key.endswith("_seconds"):
            assert res.stats[key] == pytest.approx(sum(a[key] for a in attempts)), key
        else:
            assert res.stats[key] == value == complete.stats[key], key
    # three clauses are enough
    res = synth(S, reqs, max_k=3)
    assert res.ok and ladder(res)[-1] == ("DnfTemplate", 3)

STAGES = ("expand_seconds", "ground_seconds", "check_seconds", "cnf_seconds",
          "solve_seconds")


@pytest.mark.parametrize("template", ["dnf", "complete"])
def test_stage_seconds_are_disjoint(office, office_reqs, template):
    clash = office_reqs + [
        Requirement(Atom("role", frozenset(["visitor"])),
                    deny(Atom("id", frozenset(["mr"]))), NEGATIVE)]
    for reqs in (office_reqs, clash):
        res = synth(office, reqs, template=template)
        attempts = res.stats["attempts"]
        for attempt in attempts:
            for key in STAGES:
                assert attempt[key] >= 0, key
        for key in STAGES:
            assert res.stats[key] == pytest.approx(sum(a[key] for a in attempts))
        assert res.stats["encode_seconds"] >= 0
        assert res.stats["encode_seconds"] + sum(
            a[key] for a in attempts for key in STAGES) <= res.stats["total_seconds"]


def test_derive_and_verify_have_seconds_of_their_own(office, office_reqs):
    res = synth(office, office_reqs)
    assert res.ok
    for key in ("derive_seconds", "verify_seconds"):
        assert res.stats[key] >= 0, key
    assert res.stats["encode_seconds"] + sum(res.stats[key] for key in STAGES) \
        + res.stats["derive_seconds"] + res.stats["verify_seconds"] \
        <= res.stats["total_seconds"]


def test_template_construction_counts_as_expansion(monkeypatch, office, office_reqs):
    def slowed(build):
        def slow_build(*args):
            time.sleep(0.05)
            return build(*args)
        return slow_build

    monkeypatch.setattr(app, "dnf_template", slowed(app.dnf_template))
    monkeypatch.setattr(app, "complete_template", slowed(app.complete_template))
    clash = office_reqs + [
        Requirement(Atom("role", frozenset(["visitor"])),
                    deny(Atom("id", frozenset(["mr"]))), NEGATIVE)]
    res = synth(office, clash)
    attempts = res.stats["attempts"]
    assert [a["template"]["kind"] for a in attempts] == ["DnfTemplate", "ClassTemplate"]
    for attempt in attempts:
        assert attempt["expand_seconds"] >= 0.05
    assert res.stats["encode_seconds"] + sum(
        a[key] for a in attempts for key in STAGES) <= res.stats["total_seconds"]


def test_synth_rejects_unknown_arguments(triangle):
    with pytest.raises(ValueError, match="template"):
        synth(triangle, [], template="fancy")
    with pytest.raises(ValueError, match="solver"):
        synth(triangle, [], solver="quantum")
    with pytest.raises(ValueError, match="solver command"):
        synth(triangle, [], solver="external")


def test_a_solver_command_needs_the_external_solver(office, office_reqs):
    with pytest.raises(ValueError, match="external solver only"):
        synth(office, office_reqs, solver_cmd="z3")


def cycle_structure():
    sig = AttributeSignature([
        AttributeDecl("who", SUBJECT, ENUM, ("u", "v")),
        AttributeDecl("name", RESOURCE, ENUM, ("a", "b", "c")),
    ])
    labels = {n: {"name": n} for n in ("a", "b", "c")}
    edges = {("a", "b"): None, ("b", "c"): None, ("c", "a"): None}
    S = ResourceStructure(sig, "a", labels, edges)
    S.validate()
    return S


def test_verification_catches_an_optimistic_universal_encoding():
    # The universal-until rewrite reads a dead end vacuously (every run
    # it speaks about is empty), but under path semantics a walk that
    # stalls there never reaches the goal. Without the deadlock
    # requirement, a door shut past the entry leaves such a dead end, and
    # the independent check must veto the solver's model rather than
    # hand it out.
    S = cycle_structure()
    req = Requirement(Top(), AU(Top(), Atom("name", frozenset(["c"]))), UNKNOWN)
    stall_at_b = SingletonTemplate(S, {("a", "b"): Top(), ("b", "c"): falsum(),
                                       ("c", "a"): falsum()})
    with pytest.raises(SynthesisError, match="encoding gap"):
        synth(S, [req], template=stall_at_b, deadlock_free="off")
    # The deadlock requirement exempts the entry, so the encoding decides
    # the constraint on the entry alone when every door out of it is shut:
    # shutting them all is refuted, and synthesis opens the cycle instead.
    shut = SingletonTemplate(S, {e: falsum() for e in S.controlled_edges()})
    assert synth(S, [req], template=shut, deadlock_free="off").outcome == "unsat"
    assert synth(S, [req]).ok
    # a template that keeps the entry live lets the pipeline succeed
    open_all = SingletonTemplate(S, {e: Top() for e in S.controlled_edges()})
    res = synth(S, [req], template=open_all)
    assert res.ok
    assert any(r.source == DEADLOCK_SOURCE for r in res.requirements)


def test_raw_universal_untils_synthesize_on_the_office(office):
    # whenever the least model shuts every door out of the entry, the
    # encoding must decide the until there the way the checker does
    reqs = parse_requirements(
        "role = employee => A[not sec_zone U id = cor or id = lob]", office.sig)
    res = synth(office, reqs)
    assert res.ok
    assert verify(office, reqs, res.configuration, deadlock_free="auto").ok
    reqs = parse_requirements("=> A[true U id = mr]", office.sig)
    res = synth(office, reqs)
    assert res.outcome == "unsat" and res.exhaustive
    assert s_cs(office, reqs) is None


def test_effective_requirements_deadlock_handling(triangle):
    au_req = Requirement(Top(), AU(Top(), Atom("id", frozenset(["bur"]))),
                         UNKNOWN)
    plain = vis_denied_vault(triangle)
    assert effective_requirements(triangle, [plain]) == [plain]
    eff = effective_requirements(triangle, [au_req])
    assert len(eff) == 2
    assert eff[1].source == DEADLOCK_SOURCE
    assert eff[1].constraint == deadlock_free_constraint()
    assert eff[1].polarity == NEGATIVE
    forced = effective_requirements(triangle, [plain], deadlock_free="on")
    assert len(forced) == 2
    off = effective_requirements(triangle, [au_req], deadlock_free="off")
    assert off == [au_req]
    df = Requirement(Top(), deadlock_free_constraint(), NEGATIVE)
    again = effective_requirements(triangle, [au_req, df])
    assert len(again) == 2          # not added twice
    with pytest.raises(ValueError, match="auto"):
        effective_requirements(triangle, [], deadlock_free="sometimes")


def test_deny_by_default_requirement(office, office_reqs):
    req = deny_by_default_requirement(office, office_reqs)
    assert req.polarity == NEGATIVE
    assert req.source == DENY_DEFAULT_SOURCE
    assert req.constraint == AX(Atom("id", frozenset(["out"])))
    positives = [r.target for r in office_reqs if r.polarity == POSITIVE]
    assert positives
    assert target_equiv(req.target, conj([Not(t) for t in positives]),
                        office.sig)
    explicit = deny_by_default_requirement(office, office_reqs, ("id", "out"))
    assert explicit.constraint == req.constraint
    with pytest.raises(ValueError, match="not labeled"):
        deny_by_default_requirement(office, office_reqs, ("id", "lob"))
    with pytest.raises(ValueError, match="single out"):
        deny_by_default_requirement(office, office_reqs, ("sec_zone", False))
    unknown = Requirement(Top(), AU(Top(), Atom("id", frozenset(["bur"]))),
                          UNKNOWN)
    with pytest.raises(ValueError, match="polarity"):
        deny_by_default_requirement(office, [unknown])
    eff = effective_requirements(office, office_reqs, deny_by_default=True)
    assert eff[-1].source == DENY_DEFAULT_SOURCE


def test_deny_by_default_needs_a_distinguishing_label():
    sig = AttributeSignature([
        AttributeDecl("who", SUBJECT, ENUM, ("u", "v")),
        AttributeDecl("hot", RESOURCE, BOOLEAN),
    ])
    labels = {"a": {"hot": False}, "b": {"hot": False}}
    S = ResourceStructure(sig, "a", labels, {("a", "b"): None, ("b", "a"): None})
    S.validate()
    with pytest.raises(ValueError, match="singles out"):
        deny_by_default_requirement(S, [])


def test_synth_with_deny_by_default(office, office_reqs):
    res = synth(office, office_reqs, deny_by_default=True)
    assert res.ok
    assert res.requirements[-1].source == DENY_DEFAULT_SOURCE
    # a request matched by no granting rule stays at the entry
    sim = simulate(office, res.configuration,
                   parse_request("role = visitor, time = 23", office.sig))
    assert sim.reachable == ["out"]


def test_verify_wrapper(office, office_reqs, office_published):
    report = verify(office, office_reqs, office_published)
    assert report.ok and len(report.verdicts) == len(office_reqs)
    with_df = verify(office, office_reqs, office_published, deadlock_free="on")
    assert len(with_df.verdicts) == len(office_reqs) + 1
    assert with_df.ok


def test_classify_confirms_declared_polarities(triangle):
    up = classify(triangle, vis_grants_vault(triangle))
    assert up.final == POSITIVE and up.counterexample is None
    assert up.checked_pairs == 25
    down = classify(triangle, vis_denied_vault(triangle))
    assert down.final == NEGATIVE and down.counterexample is None


def test_classify_downgrades_a_wrong_declaration(triangle):
    wrong = Requirement(Top(), grant(Atom("sec_zone", frozenset([True]))),
                        NEGATIVE)
    rep = classify(triangle, wrong)
    assert rep.declared == NEGATIVE and rep.final == UNKNOWN
    assert rep.counterexample is not None
    smaller, larger = rep.counterexample
    assert not verify(triangle, [wrong], smaller).ok
    assert verify(triangle, [wrong], larger).ok


def test_classify_leaves_unknown_alone(triangle):
    raw = Requirement(Top(), AU(Top(), Atom("id", frozenset(["bur"]))), UNKNOWN)
    rep = classify(triangle, raw)
    assert rep.final == UNKNOWN and rep.checked_pairs == 0


def test_simulate(office, office_published):
    q = parse_request("role = visitor, time = 9", office.sig)
    sim = simulate(office, office_published, q)
    assert sim.reachable == ["cor", "lob", "mr", "out"]
    assert sim.stranded == ["bur"]
    assert ("out", "lob") in sim.granted
    assert ("cor", "bur") in sim.denied
    assert sim.granted | sim.denied == set(office.edges)
    assert "digraph" in sim.dot and "time=9" in sim.dot


def test_simulate_titles_the_request_as_parse_request_reads_it(office, office_published):
    q = parse_request("role = employee, correct_pin = true", office.sig)
    sim = simulate(office, office_published, q)
    title = sim.dot.splitlines()[0]
    assert title == 'digraph "request role=employee, time=bot, correct_pin=true" {'
    assert parse_request(title.split('"')[1][len("request "):], office.sig) == q


def test_minimal_conflict(triangle):
    good = vis_grants_vault(triangle)
    bad = vis_denied_vault(triangle)
    hit = minimal_conflict(triangle, [good, bad])
    assert hit is not None
    index, result = hit
    assert index == 1 and result.outcome == "unsat"
    assert minimal_conflict(triangle, [good]) is None


def test_synth_with_external_solver(tmp_path, office, office_reqs,
                                    office_published):
    # a stand-in solver script; the template carries no choice variables,
    # so any sat answer with a model section is enough
    script = tmp_path / "solver.sh"
    script.write_text('#!/bin/sh\necho sat\necho "((dummy 0))"\n')
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    tpl = SingletonTemplate(office, office_published)
    res = synth(office, office_reqs, template=tpl, solver="external",
                solver_cmd=str(script))
    assert res.ok
    assert res.configuration == office_published

    unsat = tmp_path / "naysayer.sh"
    unsat.write_text("#!/bin/sh\necho unsat\n")
    unsat.chmod(unsat.stat().st_mode | stat.S_IEXEC)
    # the office has 7 request classes: with a cap below that the
    # complete template is out of reach, so the verdict only covers the
    # searched clause templates
    res = synth(office, office_reqs, solver="external", solver_cmd=str(unsat),
                complete_cap=6)
    assert res.outcome == "unsat"
    assert not res.exhaustive and "out of reach" in res.message
    # without the cap the complete template is searched as well
    res = synth(office, office_reqs, solver="external", solver_cmd=str(unsat))
    assert res.outcome == "unsat" and res.exhaustive
    assert res.stats["attempts"][-1]["template"]["classes"] == 7


def test_synth_emits_a_quantified_script(tmp_path, office, office_reqs):
    out = tmp_path / "problem.smt2"
    res = synth(office, office_reqs, emit_smt=str(out))
    assert res.ok
    text = out.read_text()
    assert "(forall" in text and "(check-sat)" in text


HASH_SEED_SCRIPT = """
import json
import sys
padding = [[] for _ in range(int(sys.argv[1]))]     # shifts object addresses
from gatesynth import data
from gatesynth.app import effective_requirements, synth
from gatesynth.encoder import cand, emit_smtlib, encode, expand_guards, ground_forall
from gatesynth.model import config_to_json, load_model
from gatesynth.rules import parse_requirements
from gatesynth.templates import dnf_template

S = load_model(data.path(data.OFFICE_MODEL))
with open(data.path(data.OFFICE_REQUIREMENTS)) as fh:
    reqs = parse_requirements(fh.read(), S.sig)
print(json.dumps(config_to_json(S, synth(S, reqs).configuration)))
eff = effective_requirements(S, reqs)
tpl = dnf_template(S, eff, 1)
expanded = expand_guards(cand([encode(S, r) for r in eff]), tpl)
print(emit_smtlib(ground_forall(expanded, S.sig), tpl.control_vars()))
"""


def test_outputs_do_not_depend_on_the_hash_seed():
    # node hashes are object identities, so nothing may iterate a set of
    # nodes in hash order on the way to an output; string hashes follow
    # the hash seed, node hashes the object addresses
    import gatesynth
    src = os.path.dirname(os.path.dirname(os.path.abspath(gatesynth.__file__)))
    outputs = []
    for seed, padding in (("1", "0"), ("2", "777"), ("2", "5000")):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT, padding], env=env,
                             capture_output=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    assert b"cor->bur" in outputs[0] and b"(check-sat)" in outputs[0]
