import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from gatesynth import data
from gatesynth.app import synth, verify
from gatesynth.model import config_to_json
from gatesynth.formulas import (
    AU, AX, BOTTOM, EU, EX, NEGATIVE, POSITIVE, UNKNOWN, And, Atom, IntervalSet, Not,
    Top, children, deadlock_free_constraint, strict_deadlock_free_constraint,
    subformulas,
)
from gatesynth.rules import (
    RESERVED, ParseError, format_constraint, format_request, format_requirement, format_target,
    parse_constraint, parse_request, parse_requirement, parse_requirements,
    parse_target,
)


def t(office, text):
    return parse_target(text, office.sig)


def c(office, text):
    return parse_constraint(text, office.sig)


def test_membership_shorthands(office):
    assert t(office, "role = visitor") == Atom("role", frozenset(["visitor"]))
    assert t(office, "role != visitor") == Not(Atom("role", frozenset(["visitor"])))
    assert t(office, "correct_pin") == Atom("correct_pin", frozenset([True]))
    assert t(office, "time <= 20") == Atom("time", frozenset(range(0, 21)))
    assert t(office, "time >= 8") == Not(Atom("time", frozenset(range(0, 8))))
    assert t(office, "time >= 0") == Not(Atom("time", frozenset()))
    assert t(office, "8 <= time <= 20") == And(
        Not(Atom("time", frozenset(range(0, 8)))),
        Atom("time", frozenset(range(0, 21))))
    assert t(office, "role in {visitor, bot}") == Atom(
        "role", frozenset(["visitor", BOTTOM]))
    assert t(office, "time in {1..3, 7}") == Atom(
        "time", frozenset([1, 2, 3, 7]))
    assert t(office, "correct_pin = false") == Atom("correct_pin", frozenset([False]))


def test_precedence_and_associativity(office):
    vis = Atom("role", frozenset(["visitor"]))
    pin = Atom("correct_pin", frozenset([True]))
    assert t(office, "not role = visitor and correct_pin") == And(Not(vis), pin)
    got = t(office, "role = visitor and correct_pin or time <= 3")
    low = Atom("time", frozenset(range(0, 4)))
    assert got == Not(And(Not(And(vis, pin)), Not(low)))
    # implication is right associative
    rr = t(office, "role = visitor -> correct_pin -> time <= 3")
    assert rr == Not(And(vis, Not(Not(And(pin, Not(low))))))
    # parentheses override
    assert t(office, "role = visitor and (correct_pin or time <= 3)") \
        == And(vis, Not(And(Not(pin), Not(low))))


def test_temporal_operators(office):
    bur = Atom("id", frozenset(["bur"]))
    assert c(office, "EX id = bur") == EX(bur)
    assert c(office, "AX id = bur") == AX(bur)
    assert c(office, "EF id = bur") == EU(Top(), bur)
    assert c(office, "AG id = bur") == Not(EU(Top(), Not(bur)))
    assert c(office, "E[not sec_zone U id = bur]") == EU(
        Not(Atom("sec_zone", frozenset([True]))), bur)
    assert c(office, "A[true U id = bur]") == AU(Top(), bur)
    assert c(office, "A[id = out R id = bur]") == Not(
        EU(Not(Atom("id", frozenset(["out"]))), Not(bur)))


def test_af_and_eg_parse_as_their_until_forms(office):
    bur = Atom("id", frozenset(["bur"]))
    assert c(office, "AF id = bur") == AU(Top(), bur)
    assert c(office, "EG id = bur") == Not(AU(Top(), Not(bur)))
    assert c(office, "EG AF id = bur") == Not(AU(Top(), Not(AU(Top(), bur))))
    assert c(office, "AF id = bur and sec_zone") == And(
        AU(Top(), bur), Atom("sec_zone", frozenset([True])))
    # the printer keeps the until forms, which parse back to the same node
    for text in ("AF id = bur", "EG not sec_zone", "AF EG id = mr or EG false"):
        f = c(office, text)
        assert c(office, format_constraint(f, office.sig)) is f
    with pytest.raises(ParseError, match="temporal"):
        t(office, "AF role = visitor")
    assert {"AF", "EG"} <= RESERVED      # so no attribute can take these names


def test_release_only_universal(office):
    with pytest.raises(ParseError, match="release"):
        c(office, "E[true R id = bur]")


def test_temporal_rejected_in_targets(office):
    with pytest.raises(ParseError, match="temporal"):
        t(office, "EX role = visitor")


def test_pattern_bodies_and_polarity(office):
    r = parse_requirement("role = visitor => grant(id = mr)", office.sig)
    assert r.polarity == POSITIVE
    assert r.constraint == EU(Top(), Atom("id", frozenset(["mr"])))
    r = parse_requirement("=> deny(sec_zone)", office.sig)
    assert r.polarity == NEGATIVE and r.target == Top()
    r = parse_requirement("=> waypoint(id = lob, id = mr)", office.sig)
    assert r.polarity == NEGATIVE
    r = parse_requirement("=> blocking(id = mr, id = bur)", office.sig)
    assert r.polarity == NEGATIVE
    r = parse_requirement("=> EF id = bur", office.sig)
    assert r.polarity == UNKNOWN


def test_keep_moving_lines_are_negative(office):
    r = parse_requirement("=> AX AG EX true", office.sig)
    assert r.polarity == NEGATIVE
    assert r.constraint == deadlock_free_constraint()
    r = parse_requirement("=> AG EX true", office.sig)
    assert r.polarity == NEGATIVE
    assert r.constraint == strict_deadlock_free_constraint()


def test_requirement_sides_are_validated(office):
    with pytest.raises(ValueError, match="resource"):
        parse_requirement("id = bur => grant(id = mr)", office.sig)
    with pytest.raises(ValueError, match="resource attributes"):
        parse_requirement("role = visitor => grant(role = visitor)", office.sig)


def test_parse_errors_carry_position(office):
    with pytest.raises(ParseError) as ei:
        parse_requirement("role = visitor => grant(id = mr", office.sig)
    assert ei.value.line == 1 and ei.value.col > 20
    assert "^" in str(ei.value)
    with pytest.raises(ParseError, match="unknown attribute"):
        t(office, "eyecolor = blue")
    with pytest.raises(ParseError, match="reserved"):
        t(office, "grant = visitor")
    with pytest.raises(ParseError, match="not a declared symbol"):
        t(office, "role = chancellor")
    with pytest.raises(ParseError, match="not numeric"):
        t(office, "role <= 3")
    with pytest.raises(ParseError, match="bare"):
        t(office, "time")
    with pytest.raises(ParseError, match="empty range"):
        t(office, "time in {9..3}")
    with pytest.raises(ParseError, match="trailing"):
        t(office, "role = visitor role = visitor")


def test_parse_requirements_skips_comments_and_reports_lines(office):
    text = "# header\n\nrole = visitor => grant(id = mr)  # inline\n"
    reqs = parse_requirements(text, office.sig)
    assert len(reqs) == 1
    assert reqs[0].source == "role = visitor => grant(id = mr)"
    bad = "# one\nrole = visitor => grant(id = mr)\nrole = ??? => deny(sec_zone)\n"
    with pytest.raises(ParseError) as ei:
        parse_requirements(bad, office.sig)
    assert ei.value.line == 3


def test_parse_request(office):
    q = parse_request("role=visitor, time=9", office.sig)
    assert q == {"role": "visitor", "time": 9, "correct_pin": BOTTOM}
    q = parse_request("correct_pin=true, role=bot", office.sig)
    assert q["correct_pin"] is True and q["role"] is BOTTOM
    assert parse_request("", office.sig) == office.sig.blank_request()
    with pytest.raises(ValueError, match="unknown"):
        parse_request("spin=up", office.sig)
    with pytest.raises(ValueError, match="unknown"):
        parse_request("id=bur", office.sig)   # resource attrs are not request attrs
    with pytest.raises(ValueError, match="admissible"):
        parse_request("role=9", office.sig)
    with pytest.raises(ValueError, match="attr=value"):
        parse_request("role visitor", office.sig)


def test_parse_request_refuses_a_repeated_attribute(office):
    with pytest.raises(ValueError, match="'time' is given twice"):
        parse_request("time=3, time=4", office.sig)


def test_format_request_follows_declaration_order(office):
    q = {"time": 9, "role": "visitor", "correct_pin": BOTTOM}
    assert format_request(q, office.sig) == "role=visitor, time=9, correct_pin=bot"


ROUNDTRIP_SAMPLES = [
    "role = visitor => grant(id = mr)",
    "role = visitor => waypoint(id = lob, id = mr)",
    "role != employee => deny(sec_zone)",
    "=> blocking(id = mr, id = bur)",
    "role = employee and correct_pin => grant(id = bur)",
    "8 <= time <= 20 => grant(id = mr)",
    "time >= 8 => deny(id = bur)",
    "time <= 7 or correct_pin => deny(id = bur)",
    "role in {visitor, bot} => deny(sec_zone)",
    "=> AX AG EX true",
    "=> AG EX true",
    "=> A[not sec_zone U id = mr]",
    "=> E[id in {out, cor} U id = bur]",
    "=> A[id = out R not sec_zone]",
    "correct_pin -> role = employee => deny(sec_zone)",
    "=> not EX (sec_zone and EX not sec_zone)",
    "=> EF AG EX id != bur",
]


@pytest.mark.parametrize("line", ROUNDTRIP_SAMPLES)
def test_print_parse_roundtrip(office, line):
    r1 = parse_requirement(line, office.sig)
    printed = format_requirement(r1, office.sig)
    r2 = parse_requirement(printed, office.sig)
    assert r2.target == r1.target
    assert r2.constraint == r1.constraint
    assert r2.polarity == r1.polarity


def test_bundled_rule_files_roundtrip(office, office_safe_reqs, firm, firm_reqs):
    for S, reqs in ((office, office_safe_reqs), (firm, firm_reqs)):
        for r in reqs:
            printed = format_requirement(r, S.sig)
            again = parse_requirement(printed, S.sig)
            assert again.target == r.target
            assert again.constraint == r.constraint
            assert again.polarity == r.polarity


def test_format_target_emits_sugar_only_for_exact_shapes(office):
    assert format_target(t(office, "8 <= time <= 20"), office.sig) == "8 <= time <= 20"
    assert format_target(t(office, "time >= 8"), office.sig) == "time >= 8"
    assert format_target(t(office, "time <= 20"), office.sig) == "time <= 20"
    assert format_target(t(office, "correct_pin"), office.sig) == "correct_pin"
    assert format_target(t(office, "role != visitor"), office.sig) == "role != visitor"
    assert format_target(t(office, "time in {1..3, 7}"), office.sig) == "time in {1..3, 7}"
    # conjunction of unrelated bounds is not the interval sugar
    mixed = And(Not(Atom("time", frozenset(range(0, 8)))),
                Atom("correct_pin", frozenset([True])))
    assert "<=" not in format_target(mixed, office.sig).split("and")[1]



# Random requirement lines: well-formed in shape, but attributes, values
# and operators are drawn regardless of class or kind, and a drawn line
# may be cut short or have a token spliced in.
_ATTRS = st.sampled_from(["role", "time", "correct_pin", "id", "sec_zone", "nobody"])
_NUMBERS = st.integers(0, 10 ** 20)
_VALUES = st.one_of(
    st.sampled_from(["visitor", "employee", "mr", "bot", "true", "false", "0",
                     "20", "{visitor, 3}", "{1..4}", "{}", "{mr, bot}"]),
    _NUMBERS.map(str),
    st.builds("{{{}..{}}}".format, _NUMBERS, _NUMBERS),
    st.builds("{{{}, {}..{}, bot}}".format, _NUMBERS, _NUMBERS, _NUMBERS),
    st.builds("{{visitor, {}..{}}}".format, _NUMBERS, _NUMBERS))
_ATOMS = st.one_of(
    _ATTRS,
    st.builds("{} {} {}".format, _ATTRS, st.sampled_from(["=", "!=", "<=", ">=", "in"]),
              _VALUES),
    st.builds("{} <= {} <= {}".format, _NUMBERS, _ATTRS, _NUMBERS))


def formula_texts(atoms, unary=(), paths=lambda f: []):
    """Formula lines over the given atom texts, the connectives, the
    `unary` temporal operators and the path forms `paths(f)` builds."""
    def step(f):
        parts = [
            st.builds("not {}".format, f), st.builds("({})".format, f),
            st.builds("{} and {}".format, f, f), st.builds("{} or {}".format, f, f),
            st.builds("{} -> {}".format, f, f)]
        if unary:
            parts.append(st.builds("{} {}".format, st.sampled_from(unary), f))
        return st.one_of(*parts, *paths(f))
    return st.recursive(atoms | st.sampled_from(["true", "false"]), step, max_leaves=5)


_FORMULAS = formula_texts(
    _ATOMS, ["EX", "AX", "EF", "AG", "AF", "EG"],
    lambda f: [st.builds("{}[{} {} {}]".format, st.sampled_from(["E", "A"]), f,
                         st.sampled_from(["U", "R"]), f)])

# Well-formed targets and constraints over the office's attributes.
_SPAN = st.tuples(_NUMBERS, _NUMBERS).map(sorted)
TARGET_TEXTS = formula_texts(st.one_of(
    st.sampled_from(["role = visitor", "role != employee", "correct_pin",
                     "correct_pin = false", "role in {visitor, bot}", "time in {}"]),
    st.builds("time {} {}".format, st.sampled_from(["<=", ">=", "="]), _NUMBERS),
    _SPAN.map(lambda s: "%d <= time <= %d" % tuple(s)),
    _SPAN.map(lambda s: "time in {%d..%d, bot}" % tuple(s))))
CONSTRAINT_TEXTS = formula_texts(
    st.sampled_from(["id = mr", "id != lob", "sec_zone", "id in {cor, bur}"]),
    ["EX", "AX", "EF", "AG", "AF", "EG"],
    lambda f: [st.builds("{}[{} U {}]".format, st.sampled_from(["E", "A"]), f, f),
               st.builds("A[{} R {}]".format, f, f)])
_BODIES = st.one_of(
    _FORMULAS,
    st.builds("{}({})".format, st.sampled_from(["grant", "deny"]), _FORMULAS),
    st.builds("{}({}, {})".format, st.sampled_from(["waypoint", "blocking"]),
              _FORMULAS, _FORMULAS))
_TOKENS = st.sampled_from(["=>", "(", ")", "]", ",", "and", "not", "#", "\n", "U"]) \
    | st.text(max_size=3)


_OFFICE_LINES = st.builds("{} => {}".format, TARGET_TEXTS, st.one_of(
    CONSTRAINT_TEXTS,
    st.builds("{}({})".format, st.sampled_from(["grant", "deny"]), CONSTRAINT_TEXTS),
    st.builds("{}({}, {})".format, st.sampled_from(["waypoint", "blocking"]),
              CONSTRAINT_TEXTS, CONSTRAINT_TEXTS)))


def nesting(f):
    """The number of nodes on the longest path from f down to a leaf."""
    depth = {}
    for g in subformulas(f):
        depth[g] = 1 + max((depth[c] for c in children(g)), default=0)
    return depth[f]


def test_deep_formulas_parse_to_their_depth(office):
    # no bound on nesting: 2,000 AGs are 6,001 nodes deep, 2,000 `not`s
    # and 2,000 parentheses cost what their nodes do
    deep = parse_constraint("AG " * 2000 + "sec_zone", office.sig)
    assert nesting(deep) == 3 * 2000 + 1
    assert nesting(parse_constraint("not " * 2000 + "sec_zone", office.sig)) == 2001
    assert parse_constraint("(" * 2000 + "sec_zone" + ")" * 2000, office.sig) \
        is parse_constraint("sec_zone", office.sig)


def test_errors_in_long_lines_quote_a_window_with_the_caret_at_the_error(office):
    # a 1,200-test `or` chain with an unknown symbol in its 700th test:
    # the message quotes the line around that value, not the whole line
    tests = ["role = visitor"] * 1200
    tests[699] = "role = nobody"
    text = " or ".join(tests)
    with pytest.raises(ParseError, match="not a declared symbol") as ei:
        parse_target(text, office.sig)
    assert ei.value.col == text.index("nobody") + 1
    message = str(ei.value)
    assert len(message) < 200, len(message)
    _, quote, caret = message.split("\n")
    assert caret.endswith("^") and quote[len(caret) - 1:].startswith("nobody or role")


def test_parse_errors_quote_short_lines_whole(office):
    line = "role = visitor => grant(id = mr"
    with pytest.raises(ParseError) as ei:
        parse_requirement(line, office.sig)
    _, quote, caret = str(ei.value).split("\n")
    assert quote == "  " + line and len(caret) == 2 + ei.value.col


@st.composite
def _requirement_lines(draw):
    line = "%s => %s" % (draw(_FORMULAS), draw(_BODIES))
    cut = draw(st.integers(0, len(line)))
    if draw(st.booleans()):
        line = line[:cut] + " " + draw(_TOKENS) + " " + line[cut:]
    elif draw(st.booleans()):
        line = line[:cut]
    return line


@settings(max_examples=500, deadline=None)
@given(st.lists(_requirement_lines(), min_size=1, max_size=3).map("\n".join))
def test_malformed_requirements_raise_parse_errors(office, text):
    try:
        parse_requirements(text, office.sig)
    except ParseError:
        pass


def test_validation_failures_and_deep_nesting_are_parse_errors(office):
    for text in ["id = mr => grant(id = mr)", "role in {3} => deny(sec_zone)",
                 "role = visitor => grant(role = visitor)",
                 "(" * 500 + "true" + ")" * 499 + " => deny(sec_zone)",
                 "true => " + " -> ".join(["sec_zone"] * 2000) + " ->"]:
        with pytest.raises(ParseError):
            parse_requirements(text, office.sig)
    with pytest.raises(ParseError, match="not numeric"):
        parse_requirements("role in {0..3} => deny(sec_zone)", office.sig)


@pytest.mark.parametrize("line", [
    "time <= {} => deny(sec_zone)", "time >= {} => deny(sec_zone)",
    "time = {} => deny(sec_zone)", "time in {{1, {}}} => deny(sec_zone)",
    "time in {{1..{}}} => deny(sec_zone)", "{} <= time <= 20 => deny(sec_zone)",
    "8 <= time <= {} => deny(sec_zone)"])
def test_over_long_numbers_are_parse_errors_at_their_column(office, line):
    """A number longer than the interpreter converts from a string is a
    parse error at its column, and the message names no interpreter
    setting."""
    digits = "9" * 5000
    text = line.format(digits)
    with pytest.raises(ParseError, match="number too long [(]5000 digits[)]") as ei:
        parse_requirements(text, office.sig)
    assert ei.value.col == text.index(digits) + 1
    assert "set_int_max_str_digits" not in str(ei.value)
    assert parse_requirements(line.format("9" * 30), office.sig)    # long is fine


def test_over_long_numbers_in_requests_name_the_attribute(office):
    with pytest.raises(ValueError, match="'time': number too long [(]5000 digits[)]") as ei:
        parse_request("role=visitor, time=" + "9" * 5000, office.sig)
    assert "set_int_max_str_digits" not in str(ei.value)
    assert parse_request("time=" + "9" * 30, office.sig)["time"] == int("9" * 30)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_NUMBERS, _NUMBERS), max_size=3), st.booleans())
def test_numeric_sets_print_back_exactly(office, spans, unset):
    values = IntervalSet(spans, unset)
    for f in (Atom("time", values), Not(Atom("time", values)),
              And(Not(Atom("time", values)), Atom("time", values))):
        assert t(office, format_target(f, office.sig)) == f


VISITOR_WINDOW = "role = visitor and 8 <= time <= 20 => grant(id = mr)"


def test_large_bounds_cost_what_small_ones_do(office):
    """A bound of any size is two interval ends: the office with an 18-
    and a 20-digit visitor window synthesizes the same doors as with
    `<= 20`, verifies, prints back exactly, and stays small in memory."""
    with open(data.path(data.OFFICE_REQUIREMENTS)) as fh:
        text = fh.read()
    assert VISITOR_WINDOW in text

    def run(hi):
        line = VISITOR_WINDOW.replace("<= 20", "<= %d" % hi)
        tracemalloc.start()
        try:
            reqs = parse_requirements(text.replace(VISITOR_WINDOW, line), office.sig)
            result = synth(office, reqs)
            ok = verify(office, reqs, result.configuration).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert format_requirement(reqs[0], office.sig) == line
        return json.dumps(config_to_json(office, result.configuration)), ok, peak

    run(20)                                  # warm-up: caches and imports
    want, ok, base_peak = run(20)
    assert ok
    for hi in (10 ** 18, 98765432109876543210):
        got, ok, peak = run(hi)
        assert got == want and ok
        assert peak < 2 * base_peak, (hi, peak, base_peak)
