import json

import pytest

from gatesynth import data
from gatesynth.app import verify
from gatesynth import cli
from gatesynth.cli import main
from gatesynth.formulas import collect_atoms
from gatesynth.model import SynthesisError, load_config, load_model, save_model
from gatesynth.encoder import rewrite_constraint
from gatesynth.rules import format_request, parse_constraint, parse_request

from oracle import per_value_region_count

OFFICE = data.path(data.OFFICE_MODEL)
OFFICE_RULES = data.path(data.OFFICE_REQUIREMENTS)
OFFICE_CONFIG = data.path(data.OFFICE_PUBLISHED_CONFIG)


def test_synth_writes_a_working_configuration(tmp_path, capsys, office,
                                              office_reqs):
    out = tmp_path / "config.json"
    code = main(["synth", OFFICE, OFFICE_RULES, "-o", str(out), "--stats"])
    captured = capsys.readouterr()
    assert code == 0
    assert "out -> lob := true" in captured.out
    assert "cor -> bur := role = employee" in captured.out
    assert "# total_seconds" in captured.err
    assert "written to" in captured.err
    config = load_config(str(out), office)
    assert verify(office, office_reqs, config).ok


def test_synth_explains_an_unsat_core(tmp_path, capsys, triangle):
    model = tmp_path / "triangle.json"
    save_model(triangle, str(model))
    rules = tmp_path / "clash.rules"
    rules.write_text("role = visitor => grant(sec_zone)\n"
                     "role = visitor => deny(sec_zone)\n")
    code = main(["synth", str(model), str(rules)])
    captured = capsys.readouterr()
    assert code == 1
    assert "unsat" in captured.err
    assert "first requirement that cannot be added: #2" in captured.err

    code = main(["synth", str(model), str(rules), "--no-explain"])
    captured = capsys.readouterr()
    assert code == 1
    assert "first requirement" not in captured.err


def test_synth_says_no_after_two_attempts(tmp_path, capsys):
    rules = tmp_path / "conflict.rules"
    with open(OFFICE_RULES) as fh:
        rules.write_text(fh.read() + "role = visitor and 14 <= time <= 14 => deny(id = mr)\n")
    code = main(["synth", OFFICE, str(rules), "--stats=json", "--no-explain"])
    captured = capsys.readouterr()
    assert code == 1
    stats_line, verdict = captured.err.splitlines()
    assert verdict == "unsat: no configuration at all can satisfy these requirements"
    attempts = json.loads(stats_line)["attempts"]
    assert [a["template"]["kind"] for a in attempts] == ["DnfTemplate", "ClassTemplate"]

def test_synth_with_a_menu_template(tmp_path, capsys, triangle):
    model = tmp_path / "triangle.json"
    save_model(triangle, str(model))
    rules = tmp_path / "deny.rules"
    rules.write_text("role = visitor => deny(sec_zone)\n")
    menu = {"%s->%s" % e: ["true", "false"] for e in triangle.controlled_edges()}
    menu_file = tmp_path / "menu.json"
    menu_file.write_text(json.dumps(menu))
    out = tmp_path / "config.json"
    code = main(["synth", str(model), str(rules),
                 "--template", "menu:" + str(menu_file), "-o", str(out)])
    assert code == 0
    capsys.readouterr()
    config = load_config(str(out), triangle)
    from gatesynth.rules import parse_requirements
    reqs = parse_requirements(rules.read_text(), triangle.sig)
    assert verify(triangle, reqs, config).ok


def test_synth_with_a_config_template(capsys):
    code = main(["synth", OFFICE, OFFICE_RULES,
                 "--template", "config:" + OFFICE_CONFIG])
    captured = capsys.readouterr()
    assert code == 0
    assert "out -> cor := role != visitor" in captured.out


def test_verify_pass(capsys, office, office_reqs, office_published):
    code = main(["verify", OFFICE, OFFICE_RULES, OFFICE_CONFIG])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("PASS") == 5
    assert "FAIL" not in captured.out
    atoms = [a for r in office_reqs for a in collect_atoms(r.target)]
    atoms += [a for e, fixed in office.edges.items()
              for a in collect_atoms(office_published.get(e, fixed))]
    classes = per_value_region_count(office.sig, atoms)
    assert classes == 18
    structures = verify(office, office_reqs, office_published).structures
    assert 1 <= structures < classes
    assert ("checked %d request classes on %d restricted structures"
            % (classes, structures)) in captured.err


def test_verify_fail_names_a_witness(tmp_path, capsys):
    with open(OFFICE_CONFIG) as fh:
        doc = json.load(fh)
    doc["cor->bur"] = "true"
    bad = tmp_path / "leaky.json"
    bad.write_text(json.dumps(doc))
    code = main(["verify", OFFICE, OFFICE_RULES, str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out
    assert "witness request" in captured.out


def test_verify_prints_a_witness_request_that_parses_back(tmp_path, capsys):
    with open(OFFICE_CONFIG) as fh:
        doc = json.load(fh)
    doc["cor->bur"] = "role = employee and not correct_pin"
    bad = tmp_path / "no_pin.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", OFFICE, OFFICE_RULES, str(bad)]) == 1
    S = load_model(OFFICE)
    witnesses = [line.split("[witness request: ")[1].rstrip("]")
                 for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert "role=employee, time=bot, correct_pin=true" in witnesses
    for text in witnesses:
        assert format_request(parse_request(text, S.sig), S.sig) == text


def test_check_plain_and_restricted(capsys):
    code = main(["check", OFFICE, "--formula", "AG EX true"])
    assert code == 0
    assert "holds" in capsys.readouterr().out

    code = main(["check", OFFICE, "--formula", "EX true",
                 "--config", OFFICE_CONFIG,
                 "--request", "role = visitor, time = 23"])
    assert code == 1
    assert "violated" in capsys.readouterr().out

    code = main(["check", OFFICE, "--formula", "EX true",
                 "--config", OFFICE_CONFIG])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_simulate(tmp_path, capsys):
    dot = tmp_path / "day.dot"
    code = main(["simulate", OFFICE, OFFICE_CONFIG,
                 "--request", "role = visitor, time = 9",
                 "--dot", str(dot)])
    captured = capsys.readouterr()
    assert code == 0
    assert "granted  out -> lob" in captured.out
    assert "denied   cor -> bur" in captured.out
    assert "reachable: cor, lob, mr, out" in captured.out
    assert "cut off:   bur" in captured.out
    assert "digraph" in dot.read_text()


def test_scale(tmp_path, capsys):
    out = tmp_path / "big.json"
    code = main(["scale", OFFICE, "--copies", "2", "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "9 spaces" in captured.err
    big = load_model(str(out))
    assert len(big.nodes) == 9
    assert big.entry == "out"


def test_scale_refuses_a_copy_named_as_the_entry(tmp_path, capsys):
    doc = {"attributes": {"resource": {"lit": {"kind": "boolean"}}},
           "entry": "x@1",
           "resources": [{"id": r, "labels": {"lit": True}} for r in ("x@1", "x")],
           "edges": [{"from": a, "to": b, "mode": "controlled"}
                     for a, b in (("x@1", "x"), ("x", "x@1"))]}
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "big.json"
    assert main(["scale", str(model), "--copies", "1", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "would take the name of the entry" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_error_exit_codes(tmp_path, capsys):
    assert main(["synth", OFFICE, OFFICE_RULES, "--template", "fancy"]) == 2
    assert "error:" in capsys.readouterr().err

    assert main(["synth", str(tmp_path / "nope.json"), OFFICE_RULES]) == 2
    capsys.readouterr()

    assert main(["synth", OFFICE, OFFICE_RULES, "--solver", "external"]) == 2
    capsys.readouterr()

    assert main(["simulate", OFFICE, OFFICE_CONFIG,
                 "--request", "badge = 7"]) == 2
    assert "error:" in capsys.readouterr().err

    bad_rules = tmp_path / "bad.rules"
    bad_rules.write_text("role = chancellor => deny(sec_zone)\n")
    assert main(["verify", OFFICE, str(bad_rules), OFFICE_CONFIG]) == 2
    assert "error:" in capsys.readouterr().err

    with pytest.raises(SystemExit):
        main(["conjure", OFFICE])


def test_deny_by_default_needs_no_entry_label(tmp_path, capsys):
    # no label singles out the entry a: b is lit too
    doc = {"attributes": {"subject": {"who": {"kind": "enum", "values": ["u", "v"]}},
                          "resource": {"lit": {"kind": "boolean"}}},
           "entry": "a",
           "resources": [{"id": r, "labels": {"lit": r != "c"}} for r in "abc"],
           "edges": [{"from": x, "to": y, "mode": "controlled"}
                     for x, y in ("ab", "bc", "ca")]}
    model = tmp_path / "three.json"
    model.write_text(json.dumps(doc))
    rules = tmp_path / "three.rules"
    rules.write_text("who = u => grant(not lit)\n")
    assert main(["synth", str(model), str(rules), "--deny-by-default"]) == 0
    assert "a -> b := who = u" in capsys.readouterr().out


def test_a_repeated_request_attribute_exits_with_code_2(capsys):
    assert main(["simulate", OFFICE, OFFICE_CONFIG, "--request", "time=3, time=4"]) == 2
    assert "error: request attribute 'time' is given twice" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["((cl_0_0 1))", "((cl_0_0 1) (cl"],
                         ids=["incomplete", "truncated"])
def test_bad_external_solver_output_exits_with_code_2(tmp_path, capsys, model):
    solver = tmp_path / "solver.sh"
    solver.write_text("#!/bin/sh\necho sat\necho '%s'\n" % model)
    solver.chmod(0o755)
    code = main(["synth", OFFICE, OFFICE_RULES, "--solver", "external",
                 "--solver-cmd", str(solver)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "grounding gap" not in err


def test_bad_bounds_exit_with_code_2(capsys):
    assert main(["synth", OFFICE, OFFICE_RULES, "--max-k", "-1"]) == 2
    assert "error: max_k must be at least 0" in capsys.readouterr().err
    assert main(["synth", OFFICE, OFFICE_RULES, "--cap", "-5"]) == 2
    assert "error: complete_cap must be at least 1" in capsys.readouterr().err
    for timeout in ("-1", "nan"):
        assert main(["synth", OFFICE, OFFICE_RULES, "--timeout", timeout]) == 2
        assert "error: timeout must be at least 0" in capsys.readouterr().err


def test_a_solver_command_without_the_external_solver_exits_with_code_2(capsys):
    assert main(["synth", OFFICE, OFFICE_RULES, "--solver-cmd", "z3"]) == 2
    assert "error: a solver command is for the external solver only" \
        in capsys.readouterr().err


def test_a_search_cut_off_by_the_cap_says_so_and_exits_with_code_1(capsys):
    code = main(["synth", OFFICE, OFFICE_RULES, "--template", "complete", "--cap", "1"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "cap-exceeded: complete template needs at least 2 request classes, cap is 1"]


def test_malformed_json_exits_with_code_2(tmp_path, capsys):
    not_a_model = tmp_path / "list.json"
    not_a_model.write_text("[]")
    assert main(["synth", str(not_a_model), OFFICE_RULES]) == 2
    assert "model must be an object" in capsys.readouterr().err

    bad_config = tmp_path / "config.json"
    bad_config.write_text(json.dumps({"out->lob": 3}))
    assert main(["verify", OFFICE, OFFICE_RULES, str(bad_config)]) == 2
    assert "must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("menu, message", [
    ([1, 2], "a menu file must be an object"),
    ({"out->cor": [1]}, "the menu of 'out->cor' must be a list of policy strings"),
    ({"out->cor": "role = visitor"}, "must be a list of policy strings"),
    ({"outcor": ["true"]}, 'keys look like "from->to"'),
    ({"out->mr": ["true"]}, "'out->mr', which is not a controlled edge"),
    ({"lob->out": ["true"]}, "'lob->out', which is not a controlled edge"),   # fixed
])
def test_malformed_menu_exits_with_code_2(tmp_path, capsys, menu, message):
    menu_file = tmp_path / "menu.json"
    menu_file.write_text(json.dumps(menu))
    assert main(["synth", OFFICE, OFFICE_RULES, "--template", "menu:" + str(menu_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_a_menu_key_without_an_arrow_names_the_menu_file(tmp_path, capsys):
    menu_file = tmp_path / "doors.menu.json"
    menu_file.write_text(json.dumps({"outcor": ["true"]}))
    assert main(["synth", OFFICE, OFFICE_RULES, "--template", "menu:" + str(menu_file)]) == 2
    err = capsys.readouterr().err
    assert err == 'error: menu file %s: keys look like "from->to", got \'outcor\'\n' % menu_file


def test_stats_as_json(capsys):
    assert main(["synth", "--stats=json", OFFICE, OFFICE_RULES]) == 0
    stats = json.loads(capsys.readouterr().err)
    attempt = stats["attempts"][-1]
    assert attempt["template"]["kind"] == "DnfTemplate"
    for key in ("regions", "iterations", "cnf_vars", "decisions", "propagations"):
        assert attempt[key] > 0 and stats[key] == attempt[key]
    assert stats["total_seconds"] > 0
    assert stats["derive_seconds"] >= 0 and stats["verify_seconds"] >= 0
    assert 1 <= stats["verified_structures"] <= stats["verified_representatives"]


def test_soundness_failure_exits_with_code_3(monkeypatch, capsys):
    def broken_synth(*args, **kwargs):
        raise SynthesisError("solver model failed independent verification")
    monkeypatch.setattr(cli, "synth", broken_synth)
    assert main(["synth", OFFICE, OFFICE_RULES]) == 3
    assert "internal error: solver model failed" in capsys.readouterr().err


def test_a_crash_exits_with_code_4_and_one_line(monkeypatch, capsys):
    def crashing_synth(*args, **kwargs):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "synth", crashing_synth)
    assert main(["synth", OFFICE, OFFICE_RULES]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom\n"
    assert "Traceback" not in err


def visitor_chain(depth):
    """`role = visitor` or-ed with itself: a target nested depth deep.
    Each `or` adds two levels, not(not a and not b), and an and chain's
    spine none, so an odd depth puts `role = visitor and` in front."""
    chain = " or ".join(["role = visitor"] * (depth // 2))
    return chain if depth % 2 == 0 else "role = visitor and (%s)" % chain


RULE_SHAPES = {
    "target": lambda depth: visitor_chain(depth) + " => deny(sec_zone)",
    "constraint": lambda depth: "role = visitor => " + "EX " * (depth - 2) + "not sec_zone",
}


# No bound on nesting: rules and policies this deep go through every
# command at the default recursion limit.
DEEP = 2000


@pytest.mark.parametrize("shape", sorted(RULE_SHAPES))
@pytest.mark.parametrize("template", ["dnf", "complete"])
def test_rules_nested_2000_deep_synthesize_and_verify(tmp_path, capsys, shape, template):
    with open(OFFICE_RULES) as fh:
        office_rules = fh.read()
    rules = tmp_path / "deep.rules"
    rules.write_text(office_rules + RULE_SHAPES[shape](DEEP) + "\n")
    config = tmp_path / "deep.config.json"
    code = main(["synth", OFFICE, str(rules), "--template", template, "--no-explain",
                 "-o", str(config)])
    err = capsys.readouterr().err
    assert code == 0, err[-300:]
    assert main(["verify", OFFICE, str(rules), str(config)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_a_3000_link_and_chain_parses_rewrites_and_synthesizes(tmp_path, capsys, office):
    # every walk goes down an and chain's spine in a loop, so its length
    # is no nesting: the chain rewrites to its one conjunct's guards, and
    # the office with it synthesizes what it does without it
    chain = " and ".join(["not sec_zone"] * 3000)
    deep = parse_constraint("EX (%s)" % chain, office.sig)
    assert rewrite_constraint(office, deep, office.entry) is rewrite_constraint(
        office, parse_constraint("EX not sec_zone", office.sig), office.entry)
    with open(OFFICE_RULES) as fh:
        office_rules = fh.read()
    rules = tmp_path / "long.rules"
    rules.write_text(office_rules.replace(
        "role = visitor and", " and ".join(["role = visitor"] * 3000) + " and"))
    assert main(["synth", OFFICE, OFFICE_RULES]) == 0
    plain = capsys.readouterr().out
    assert main(["synth", OFFICE, str(rules)]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_policies_nested_2000_deep_are_checked(tmp_path, capsys, command):
    with open(OFFICE_CONFIG) as fh:
        doc = json.load(fh)
    config = tmp_path / "deep.config.json"
    doc["cor->mr"] = visitor_chain(DEEP)      # the same policy, spelt out
    config.write_text(json.dumps(doc))
    args = ([OFFICE, OFFICE_RULES, str(config)] if command == "verify"
            else [OFFICE, str(config), "--request", "role=visitor"])
    assert main([command] + args) == 0, capsys.readouterr().err[-300:]
