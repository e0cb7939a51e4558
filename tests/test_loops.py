"""The walks that used to recurse, against the recursive walks they
replaced, and on input deeper than the default recursion limit.

The until rewrite, the Tseitin translation, the printer and the parser
each run on an explicit stack. Each keeps a recursive version below as
the reference: the rewrite builds the same node (`is`) with as many until
subproblems, a store gets the same clauses and variables, the printer
prints the same text, and the parser builds the same requirement or
raises the same error at the same column. Then each goes, at the
default recursion limit, far deeper than that limit would let a
recursive walk go."""

import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from gatesynth import encoder, rules
from gatesynth.app import synth, verify
from gatesynth.encoder import (
    SolverError, _Cnf, ControlVar, assign_controls, cand, cguard, cimplies, cnot, cor,
    rewrite_constraint, sat_solve,
)
from gatesynth.formulas import (
    AX, BOTTOM, EU, EX, And, Atom, CAnd, CFalse, CImplies, COr, CVarEq, Not, Top,
    deadlock_free_constraint, strict_deadlock_free_constraint,
)
from gatesynth.model import model_from_json
from gatesynth.rules import (
    ParseError, _PATH, _PREFIX, _Parser, format_constraint, format_requirement,
    format_target, parse_constraint, parse_requirement, parse_requirements, parse_target,
)

from genutil import random_constraint, random_model, random_policy, random_target
from test_encoder import random_until
from test_rules import CONSTRAINT_TEXTS, TARGET_TEXTS, _OFFICE_LINES, _requirement_lines


# ---------------------------------------------------------------------------
# The recursive walks, kept as references
# ---------------------------------------------------------------------------

def recursive_rewrite(S, phi, start):
    """The until rewrite as recursive functions, and its count of until
    subproblems."""
    memo, memo_u, decided = {}, {}, {}
    guard = {e: cguard(e) for e in S.edges}
    ix = S.index
    at, bit, succ, pred, full = ix.at, ix.bit, ix.succ, ix.pred, ix.full

    def tau(f, r):
        key = (f, r)
        got = memo.get(key)
        if got is not None:
            return got
        if isinstance(f, Top):
            out = Top()
        elif isinstance(f, Atom):
            out = Top() if S.labels[r].get(f.attr, BOTTOM) in f.values else CFalse()
        elif isinstance(f, Not):
            out = cnot(tau(f.sub, r))
        elif isinstance(f, And):
            parts = []
            g = f
            while isinstance(g, And):
                parts.append(g.right)
                g = g.left
            parts.append(g)
            out = cand([tau(p, r) for p in reversed(parts)])
        elif isinstance(f, EX):
            out = cor([cand([guard[(r, s)], tau(f.sub, s)]) for s in S.successors(r)])
        elif isinstance(f, AX):
            out = cand([cimplies(guard[(r, s)], tau(f.sub, s)) for s in S.successors(r)])
        else:
            out = tau_until(f, r, full)
        memo[key] = out
        return out

    def settle(f):
        got = decided.get(f)
        if got is None:
            known = {}
            steps = goals = 0
            for s in ix.order:
                here = tau(f.right, s)
                if isinstance(here, Top) or isinstance(tau(f.left, s), CFalse):
                    known[s] = here
                else:
                    steps |= bit[s]
                if not isinstance(here, CFalse):
                    goals |= bit[s]
            got = decided[f] = (known, steps, goals)
        return got

    def tau_until(f, r, allowed):
        known, steps, goals = settle(f)
        if r in known:
            return known[r]
        steps &= allowed
        eu = type(f) is EU
        if eu:
            allowed ^= bit[r]
            near = succ[at[r]] & allowed
            seen = ix.walk(near, near & steps, succ, allowed, steps)
            later = ix.walk(seen & goals, seen & goals, pred, steps & seen, full)
        elif allowed == full:
            later = full ^ bit[r]
        else:
            frontier = ix.walk(bit[r], bit[r], succ, full, steps) & ~allowed
            later = full ^ frontier ^ bit[r]
        key = (f, r, later)
        got = memo_u.get(key)
        if got is not None:
            return got
        after = succ[at[r]]
        if eu:
            step = cor([cand([guard[(r, s)], tau_until(f, s, later)])
                        for s in ix.spaces(after & later)])
        else:
            step = cand([cimplies(guard[(r, s)], tau_until(f, s, later))
                         for s in ix.spaces(after & later)]
                        + [cnot(guard[(r, s)]) for s in ix.spaces(after & ~later)])
        out = cor([tau(f.right, r), cand([tau(f.left, r), step])])
        memo_u[key] = out
        return out

    return tau(phi, start), len(memo_u)


class RecursiveCnf(_Cnf):
    """A store whose Tseitin translation recurses."""

    def literal(self, f):
        memo, sizes, bits = self.memo, self.sizes, self.bits
        true_lit, fresh, add = self.true_lit, self.fresh, self.clauses.append

        def define_and(lits):
            if not lits:
                return true_lit
            if len(lits) == 1:
                return lits[0]
            x = fresh()
            for lit in lits:
                add((-x, lit))
            add([x] + [-lit for lit in lits])
            return x

        def define_or(lits):
            if not lits:
                return -true_lit
            if len(lits) == 1:
                return lits[0]
            x = fresh()
            for lit in lits:
                add((x, -lit))
            add([-x] + lits)
            return x

        def lit_of(g):
            got = memo.get(g)
            if got is not None:
                return got
            kind = type(g)
            if kind is CAnd:
                out = define_and([lit_of(a) for a in g.args])
            elif kind is CVarEq:
                if g.var not in sizes:
                    raise SolverError("formula mentions undeclared control variable %r" % g.var)
                if g.value >= sizes[g.var]:
                    out = -true_lit
                else:
                    out = define_and([lit if (g.value >> i) & 1 else -lit
                                      for i, lit in enumerate(bits[g.var])])
            elif kind is COr:
                out = define_or([lit_of(a) for a in g.args])
            elif kind is Not:
                out = -lit_of(g.sub)
            elif kind is CImplies:
                out = define_or([-lit_of(g.left), lit_of(g.right)])
            elif kind is Top:
                out = true_lit
            elif kind is CFalse:
                out = -true_lit
            else:
                raise SolverError("cannot solve over unexpanded node %r" % (g,))
            memo[g] = out
            return out

        return lit_of(f)


def recursive_fmt(f, sig, prec):
    """The printer as it recursed, and-chain loop included."""
    text, my_prec = recursive_fmt_prec(f, sig)
    return "(%s)" % text if my_prec < prec else text


def recursive_fmt_prec(f, sig):
    P = rules
    if isinstance(f, Top):
        return "true", P._PREC_ATOMIC
    if isinstance(f, Atom):
        return P._atom_str(f, sig), P._PREC_ATOMIC
    if isinstance(f, Not):
        if isinstance(f.sub, Top):
            return "false", P._PREC_ATOMIC
        v = P._single_member(f.sub.values) if isinstance(f.sub, Atom) else None
        if v is not None:
            return "%s != %s" % (f.sub.attr, P.format_value(v)), P._PREC_ATOMIC
        lb = P._lower_bound_of(f)
        if lb is not None:
            return "%s >= %d" % lb, P._PREC_ATOMIC
        if isinstance(f.sub, EU):
            eu = f.sub
            if eu.left == Top() and isinstance(eu.right, Not):
                return "AG %s" % recursive_fmt(eu.right.sub, sig, P._PREC_UNARY), P._PREC_UNARY
            if isinstance(eu.left, Not) and isinstance(eu.right, Not):
                return ("A[%s R %s]" % (recursive_fmt(eu.left.sub, sig, 0),
                                        recursive_fmt(eu.right.sub, sig, 0)), P._PREC_ATOMIC)
        if isinstance(f.sub, And):
            a = f.sub
            if isinstance(a.left, Not) and isinstance(a.right, Not):
                return ("%s or %s" % (recursive_fmt(a.left.sub, sig, P._PREC_OR),
                                      recursive_fmt(a.right.sub, sig, P._PREC_OR + 1)),
                        P._PREC_OR)
            if isinstance(a.right, Not):
                return ("%s -> %s" % (recursive_fmt(a.left, sig, P._PREC_IMPL + 1),
                                      recursive_fmt(a.right.sub, sig, P._PREC_IMPL)),
                        P._PREC_IMPL)
        return "not %s" % recursive_fmt(f.sub, sig, P._PREC_UNARY), P._PREC_UNARY
    if isinstance(f, And):
        rights = []
        while isinstance(f, And):
            lb = P._lower_bound_of(f.left)
            if lb is not None and isinstance(f.right, Atom) and f.right.attr == lb[0] \
                    and P._upper_bound(f.right.values) is not None:
                break
            rights.append(f.right)
            f = f.left
        if not rights:
            hi = P._upper_bound(f.right.values)
            return "%d <= %s <= %d" % (lb[1], lb[0], hi), P._PREC_ATOMIC
        parts = [recursive_fmt(r, sig, P._PREC_AND + 1) for r in reversed(rights)]
        return " and ".join([recursive_fmt(f, sig, P._PREC_AND)] + parts), P._PREC_AND
    if isinstance(f, EX):
        return "EX %s" % recursive_fmt(f.sub, sig, P._PREC_UNARY), P._PREC_UNARY
    if isinstance(f, AX):
        return "AX %s" % recursive_fmt(f.sub, sig, P._PREC_UNARY), P._PREC_UNARY
    if isinstance(f, EU):
        if f.left == Top():
            return "EF %s" % recursive_fmt(f.right, sig, P._PREC_UNARY), P._PREC_UNARY
        return ("E[%s U %s]" % (recursive_fmt(f.left, sig, 0), recursive_fmt(f.right, sig, 0)),
                P._PREC_ATOMIC)
    return ("A[%s U %s]" % (recursive_fmt(f.left, sig, 0), recursive_fmt(f.right, sig, 0)),
            P._PREC_ATOMIC)


class RecursiveParser(_Parser):
    """The parser with its expression grammar as recursive descent, one
    method per precedence level."""

    def expression(self, temporal):
        left = self.disjunction(temporal)
        if self.at("->"):
            self.next()
            return rules.implies(left, self.expression(temporal))
        return left

    def disjunction(self, temporal):
        f = self.conjunction(temporal)
        while self.at("or"):
            self.next()
            f = rules.disj(f, self.conjunction(temporal))
        return f

    def conjunction(self, temporal):
        f = self.unary(temporal)
        while self.at("and"):
            self.next()
            f = And(f, self.unary(temporal))
        return f

    def unary(self, temporal):
        t = self.peek()
        if t.value == "not":
            self.next()
            return Not(self.unary(temporal))
        if t.value in _PREFIX or t.value in ("E", "A"):
            if not temporal:
                self.fail("temporal operator %r not allowed in a target" % t.value)
            self.next()
            if t.value in _PREFIX:
                return _PREFIX[t.value](self.unary(temporal))
            self.expect("[")
            left = self.expression(temporal)
            sep = self.next()
            if sep.value not in ("U", "R"):
                self.fail("expected U or R inside the path operator", sep)
            if (t.value, sep.value) not in _PATH:
                self.fail("release is only supported under A[..]", sep)
            right = self.expression(temporal)
            self.expect("]")
            return _PATH[t.value, sep.value](left, right)
        if self.accept("("):
            f = self.expression(temporal)
            self.expect(")")
            return f
        return self.primary()


def outcome(parser, entry, text, sig):
    """What one entry point of the parser makes of a line: the requirement
    or formula, or the error's message and column."""
    try:
        got = getattr(parser(text, sig), entry)()
    except ParseError as exc:
        return "error", str(exc), exc.col
    if entry == "requirement":
        return got.target, got.constraint, got.polarity, got.source
    return got


# ---------------------------------------------------------------------------
# The loops build what the recursive walks built
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 7), st.sampled_from([0.0, 0.5, 1.0]))
def test_the_rewrite_builds_the_recursive_rewrites_node(seed, n, two_way):
    rng = random.Random(seed)
    S = random_model(rng, n, two_way=two_way)
    for _ in range(3):
        phi = random_until(rng, S) if rng.random() < 0.6 else random_constraint(rng, S, 3)
        start = rng.choice(S.nodes)
        want, count = recursive_rewrite(S, phi, start)
        made = encoder.until_subproblems()
        assert rewrite_constraint(S, phi, start) is want, phi
        assert encoder.until_subproblems() - made == count


def test_the_rewrite_builds_the_recursive_rewrites_node_on_the_bundled_rules(
        office, office_reqs, firm, firm_reqs):
    for S, reqs in ((office, office_reqs), (firm, firm_reqs)):
        constraints = [r.constraint for r in reqs] + [
            deadlock_free_constraint(), strict_deadlock_free_constraint()]
        for phi in constraints:
            for start in S.nodes:
                want, count = recursive_rewrite(S, phi, start)
                made = encoder.until_subproblems()
                assert rewrite_constraint(S, phi, start) is want
                assert encoder.until_subproblems() - made == count


def control_formulas(n_vars):
    """Control formulas built with the node classes themselves, not the
    smart constructors, so shapes they fold away (Not of Not, repeated
    and constant arguments) come up too."""
    leaves = st.one_of(
        st.builds(CVarEq, st.sampled_from(["x%d" % i for i in range(n_vars)]),
                  st.integers(0, 4)),
        st.sampled_from([Top(), CFalse()]))
    return st.recursive(leaves, lambda f: st.one_of(
        st.builds(Not, f),
        st.builds(CAnd, st.lists(f, min_size=0, max_size=4).map(tuple)),
        st.builds(COr, st.lists(f, min_size=0, max_size=4).map(tuple)),
        st.builds(CImplies, f, f)), max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(st.lists(control_formulas(3), min_size=1, max_size=4),
       st.lists(st.integers(1, 5), min_size=3, max_size=3))
def test_the_translation_makes_the_recursive_translations_clauses(fs, sizes):
    variables = [ControlVar("x%d" % i, size) for i, size in enumerate(sizes)]
    loop, recursive = _Cnf(variables), RecursiveCnf(variables)
    for f in fs:                        # one store, one formula after another
        assert loop.literal(f) == recursive.literal(f)
        assert loop.clauses == recursive.clauses
        assert loop.n_vars == recursive.n_vars
        assert loop.memo == recursive.memo


def test_the_translation_refuses_what_the_recursive_one_refused():
    variables = [ControlVar("x", 2)]
    for f in (CAnd((CVarEq("x", 1), cguard(("a", "b")))),
              COr((CVarEq("x", 0), CAnd((CVarEq("y", 1), Top())))),
              CImplies(Atom("role", ["guest"]), CVarEq("y", 0))):
        errors = []
        for store in (_Cnf(variables), RecursiveCnf(variables)):
            with pytest.raises(SolverError) as ei:
                store.literal(f)
            errors.append((str(ei.value), store.clauses, store.n_vars))
        assert errors[0] == errors[1]


def printed(fmt, f, sig):
    return [fmt(f, sig, prec) for prec in range(5)]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_the_printer_prints_what_the_recursive_printer_printed(office, seed):
    rng = random.Random(seed)
    S = random_model(rng, rng.randint(2, 6), with_numeric=True)
    for f in (random_constraint(rng, S, 4), random_target(rng, S.sig, 4),
              random_policy(rng, S.sig), random_until(rng, S)):
        for sig in (S.sig, None):
            assert printed(rules._fmt, f, sig) == printed(recursive_fmt, f, sig)


@settings(max_examples=300, deadline=None)
@given(TARGET_TEXTS, CONSTRAINT_TEXTS)
def test_the_printer_prints_parsed_formulas_as_the_recursive_printer(office, target, constraint):
    for f in (parse_target(target, office.sig), parse_constraint(constraint, office.sig)):
        assert printed(rules._fmt, f, office.sig) == printed(recursive_fmt, f, office.sig)


def test_bundled_rules_print_as_the_recursive_printer_printed_them(
        office_reqs, office_safe_reqs, firm_reqs, office, firm):
    for sig, reqs in ((office.sig, office_reqs), (office.sig, office_safe_reqs),
                      (firm.sig, firm_reqs)):
        for r in reqs:
            for f in (r.target, r.constraint):
                assert rules._fmt(f, sig, 0) == recursive_fmt(f, sig, 0)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_requirement_lines(), _OFFICE_LINES))
def test_the_parser_parses_lines_as_the_recursive_descent_did(office, line):
    for entry in ("requirement", "target_only", "constraint_only"):
        assert outcome(_Parser, entry, line, office.sig) == \
            outcome(RecursiveParser, entry, line, office.sig)
    body = line.partition("=>")[2]
    for entry in ("target_only", "constraint_only"):
        assert outcome(_Parser, entry, body, office.sig) == \
            outcome(RecursiveParser, entry, body, office.sig)


# ---------------------------------------------------------------------------
# Deep input at the default recursion limit
# ---------------------------------------------------------------------------

def corridor(n):
    """n spaces in a row, joined both ways by controlled doors, entered
    at one end, and staff must reach the other."""
    ids = ["s%d" % i for i in range(n)]
    doc = {"attributes": {"subject": {"role": {"kind": "enum", "values": ["staff", "guest"]}},
                          "resource": {"id": {"kind": "enum", "values": ids}}},
           "entry": ids[0],
           "resources": [{"id": r, "labels": {"id": r}} for r in ids],
           "edges": [{"from": a, "to": b, "mode": "controlled"}
                     for x, y in zip(ids, ids[1:]) for a, b in ((x, y), (y, x))]}
    S = model_from_json(json.loads(json.dumps(doc)))
    return S, parse_requirements("role = staff => grant(id = %s)\n" % ids[-1], S.sig)


def test_a_3000_space_corridor_synthesizes_and_verifies():
    # the until unrolls along the whole corridor: one subproblem a space
    assert sys.getrecursionlimit() < 3000
    S, reqs = corridor(3000)
    result = synth(S, reqs)
    assert result.ok and result.stats["until_subproblems"] == 2999
    assert verify(S, reqs, result.configuration).ok


def test_sat_solve_takes_a_formula_10000_connectives_deep():
    levels = 5_000                      # two connectives per level
    x, y = ControlVar("x", 2), ControlVar("y", 3)
    f = CVarEq("x", 1)
    for i in range(levels):
        f = cor([cand([f, CVarEq("y", i % 3)]), CVarEq("x", i % 2)])
    assert sys.getrecursionlimit() < 2 * levels
    # the least model: control bits in declaration order, low bit first, 0 first
    models = sorted(({"x": a, "y": b} for a in range(2) for b in range(3)),
                    key=lambda m: (m["x"], m["y"] & 1, m["y"] >> 1))
    least = next(m for m in models if assign_controls(f, m) is Top())
    assert sat_solve(f, [x, y]) == least
    assert sat_solve(cand([f, cnot(f)]), [x, y]) is None


@pytest.mark.parametrize("prefix, suffix", [("(", ")"), ("not ", ""), ("EX ", "")],
                         ids=["parentheses", "not", "EX"])
def test_5000_levels_parse_print_and_parse_back(office, prefix, suffix):
    assert sys.getrecursionlimit() < 5000
    text = prefix * 5000 + "sec_zone" + suffix * 5000
    f = parse_constraint(text, office.sig)
    printed_text = format_constraint(f, office.sig)
    assert parse_constraint(printed_text, office.sig) is f
    if prefix == "(":
        assert f is parse_constraint("sec_zone", office.sig)


@pytest.mark.parametrize("shape", [
    lambda atom: "not " * 2000 + atom,
    lambda atom: "EX " * 2000 + atom,
    lambda atom: " or ".join([atom] * 1000),
    lambda atom: " -> ".join([atom] * 2000),
    lambda atom: "(" * 2000 + atom + ")" * 2000,
    lambda atom: "(%s)" % " or (".join([atom] * 2000) + ")" * 1999,
], ids=["not", "EX", "or", "implies", "parentheses", "nested or"])
def test_formulas_2000_deep_parse_rewrite_print_and_parse_back(office, shape):
    constraint = parse_constraint(shape("sec_zone"), office.sig)
    target = parse_target(shape("role = visitor").replace("EX ", "not "), office.sig)
    r = parse_requirement("%s => %s" % (format_target(target, office.sig),
                                        format_constraint(constraint, office.sig)),
                          office.sig)
    assert (r.target, r.constraint) == (target, constraint)
    assert parse_requirement(format_requirement(r, office.sig), office.sig) == r
    rewrite_constraint(office, constraint, office.entry)
