import json

import pytest

from gatesynth import data
from gatesynth.app import verify
from gatesynth import cli
from gatesynth.cli import main
from gatesynth.model import SynthesisError, load_config, load_model, save_model
from gatesynth.rules import MAX_NESTING, format_request, parse_request

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


def test_verify_pass(capsys):
    code = main(["verify", OFFICE, OFFICE_RULES, OFFICE_CONFIG])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("PASS") == 5
    assert "FAIL" not in captured.out
    assert "checked 36 request classes" in captured.err


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


def test_bad_entry_label_exits_with_code_2(capsys):
    base = ["synth", OFFICE, OFFICE_RULES, "--deny-by-default", "--entry-label"]
    assert main(base + ["nosuch=1"]) == 2
    assert "error: unknown attribute 'nosuch'" in capsys.readouterr().err
    assert main(base + ["role=visitor"]) == 2
    assert "error: role is not a resource attribute" in capsys.readouterr().err
    assert main(base + ["id=out"]) == 0
    capsys.readouterr()


def test_bad_bounds_exit_with_code_2(capsys):
    assert main(["synth", OFFICE, OFFICE_RULES, "--max-k", "-1"]) == 2
    assert "error: max_k must be at least 0" in capsys.readouterr().err
    assert main(["synth", OFFICE, OFFICE_RULES, "--cap", "-5"]) == 2
    assert "error: complete_cap must be at least 1" in capsys.readouterr().err
    for timeout in ("-1", "nan"):
        assert main(["synth", OFFICE, OFFICE_RULES, "--timeout", timeout]) == 2
        assert "error: timeout must be at least 0" in capsys.readouterr().err


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


def test_soundness_failure_exits_with_code_3(monkeypatch, capsys):
    def broken_synth(*args, **kwargs):
        raise SynthesisError("solver model failed independent verification")
    monkeypatch.setattr(cli, "synth", broken_synth)
    assert main(["synth", OFFICE, OFFICE_RULES]) == 3
    assert "internal error: solver model failed" in capsys.readouterr().err


def visitor_chain(depth):
    """`role = visitor` and-ed with itself: a target nested depth deep."""
    return " and ".join(["role = visitor"] * depth)


RULE_SHAPES = {
    "target": lambda depth: visitor_chain(depth) + " => deny(sec_zone)",
    "constraint": lambda depth: "role = visitor => " + "EX " * (depth - 1) + "sec_zone",
}


@pytest.mark.parametrize("shape", sorted(RULE_SHAPES))
@pytest.mark.parametrize("template", ["dnf", "complete"])
def test_rules_nested_to_the_bound_synthesize_and_deeper_ones_are_refused(
        tmp_path, capsys, shape, template):
    with open(OFFICE_RULES) as fh:
        office_rules = fh.read()
    rules = tmp_path / "deep.rules"
    for depth, codes in ((MAX_NESTING, (0, 1)), (MAX_NESTING + 1, (2,))):
        rules.write_text(office_rules + RULE_SHAPES[shape](depth) + "\n")
        code = main(["synth", OFFICE, str(rules), "--template", template,
                     "--no-explain"])
        err = capsys.readouterr().err
        assert code in codes, (depth, err[-300:])
        assert ("formula nested too deeply" in err) == (code == 2)


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_policies_nested_to_the_bound_are_checked_and_deeper_ones_are_refused(
        tmp_path, capsys, command):
    with open(OFFICE_CONFIG) as fh:
        doc = json.load(fh)
    config = tmp_path / "deep.config.json"
    for depth, code in ((MAX_NESTING, 0), (MAX_NESTING + 1, 2)):
        doc["cor->mr"] = visitor_chain(depth)      # the same policy, spelt out
        config.write_text(json.dumps(doc))
        args = ([OFFICE, OFFICE_RULES, str(config)] if command == "verify"
                else [OFFICE, str(config), "--request", "role=visitor"])
        assert main([command] + args) == code
        err = capsys.readouterr().err
        assert ("error: " in err and "formula nested too deeply" in err) == (code == 2)
