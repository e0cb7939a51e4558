"""Concrete syntax for requirements, targets and access constraints.

One requirement per line:

    [target] => body

where the body is a pattern call (grant, deny, waypoint, blocking) or a
raw branching-time formula. `#` starts a comment. Operator precedence,
tightest first: not and the unary temporal operators, `and`, `or`,
`->` (right associative). The temporal operators and the patterns are
looked up in tables (_PREFIX, _PATH, _PATTERNS) that name the
constructor of formulas each one stands for, so the parser builds
exactly what those constructors build.

Membership shorthands, all desugared at parse time:

    a = v        value equality            a != v      its negation
    a            bare boolean attribute    a in {..}   set membership
    a <= n       numeric upper bound       a >= n      numeric lower bound
    n <= a <= m  bounded interval

Numeric sets are IntervalSets: the parser builds their intervals from
the bounds directly, and the printer reads them back, so a bound of any
size costs the same. An unset attribute (bottom) satisfies `a >= n` but
no bounded interval; this falls out of the desugaring, which encodes
lower bounds negatively.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .formulas import (
    AF, AG, AU, AX, BOOLEAN, BOTTOM, EF, EG, ENUM, EU, EX, NEGATIVE, NUMERIC,
    POSITIVE, RESOURCE, UNKNOWN, AccessRequest, And, Atom, AttributeDecl,
    AttributeSignature, Formula, IntervalSet, Not, Requirement, Top, Value,
    ValueSet, blocking, children, deny, disj, falsum, format_value, grant,
    implies, intervals_of, is_deadlock_freeness, release, validate_constraint,
    validate_target, value_key, waypoint,
)

# The temporal operators: prefix ones by keyword, path ones by
# quantifier and separator, each with the constructor it stands for.
_PREFIX = {"EX": EX, "AX": AX, "EF": EF, "AG": AG, "AF": AF, "EG": EG}
_PATH = {("E", "U"): EU, ("A", "U"): AU, ("A", "R"): release}

# The requirement patterns: name -> (constructor, arity, polarity).
_PATTERNS = {
    "grant": (grant, 1, POSITIVE),
    "deny": (deny, 1, NEGATIVE),
    "waypoint": (waypoint, 2, NEGATIVE),
    "blocking": (blocking, 2, NEGATIVE),
}

RESERVED = {
    "and", "or", "not", "true", "false", "bot", "in", "E", "A", "U", "R",
    *_PREFIX, *_PATTERNS,
}

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>=>|->|!=|<=|>=|\.\.|[()\[\]{},=])
""", re.VERBOSE)


# Characters of the offending line an error quotes on either side of
# its column; a line of up to twice this many is quoted whole.
QUOTE_WIDTH = 36


class ParseError(ValueError):
    """A line that does not parse: the message, then the line quoted
    around the error column with a caret under that column."""

    def __init__(self, message: str, text: str, line: int, col: int):
        self.line = line
        self.col = col
        start = max(0, min(col - 1 - QUOTE_WIDTH, len(text) - 2 * QUOTE_WIDTH))
        end = start + 2 * QUOTE_WIDTH
        lead = "..." if start else ""
        quote = lead + text[start:end] + ("..." if end < len(text) else "")
        caret = " " * (len(lead) + col - 1 - start) + "^"
        super().__init__("line %d, column %d: %s\n  %s\n  %s"
                         % (line, col, message, quote, caret))


@dataclass
class _Token:
    kind: str       # num | ident | op | end
    value: str
    col: int


def _tokenize(text: str, line_no: int) -> List[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError("unexpected character %r" % text[pos], text, line_no, pos + 1)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


class _Parser:
    """Recursive descent over one logical line."""

    def __init__(self, text: str, sig: AttributeSignature, line_no: int = 1):
        self.text = text
        self.sig = sig
        self.line_no = line_no
        self.tokens = _tokenize(text, line_no)
        self.i = 0
        # No token adds more than three levels (`a or b` is not(not a and
        # not b)), so only a line of more tokens than a third of the
        # bound can nest too deeply, and only its nodes are measured.
        self.long = 3 * len(self.tokens) > MAX_NESTING
        self.depth: Dict[Formula, int] = {}

    # -- token plumbing ----------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def at(self, value: str) -> bool:
        t = self.peek()
        return t.kind in ("op", "ident") and t.value == value

    def accept(self, value: str) -> bool:
        if self.at(value):
            self.i += 1
            return True
        return False

    def expect(self, value: str) -> _Token:
        if not self.at(value):
            self.fail("expected %r" % value)
        return self.next()

    def fail(self, message: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, self.text, self.line_no, tok.col)

    def nested(self, f: Formula, tok: _Token) -> Formula:
        """f, built at the operator `tok`, unless it nests deeper than
        MAX_NESTING nodes: then the caret goes under `tok`, where the
        bound is crossed."""
        if self.long and self.nesting(f) > MAX_NESTING:
            self.fail("formula nested too deeply", tok)
        return f

    def nesting(self, f: Formula) -> int:
        """The number of nodes on the longest path from f to a leaf, where
        an and chain's spine counts once: every walk goes down it in a
        loop, so And(l, r) nests max(l, 1 + r). The nodes the grammar
        builds at an operator are all checked by nested(), so this
        recurses only through the few nodes one token adds."""
        got = self.depth.get(f)
        if got is None:
            if isinstance(f, And):
                got = max(self.nesting(f.left), 1 + self.nesting(f.right))
            else:
                got = 1 + max((self.nesting(c) for c in children(f)), default=0)
            self.depth[f] = got
        return got

    def validated(self, check, f: Formula) -> Formula:
        """f once `check` accepts it under the signature; a rejection,
        such as a value outside an attribute's domain, is a parse error."""
        try:
            check(f, self.sig)
        except ValueError as exc:
            self.fail(str(exc), self.tokens[0])
        return f

    # -- entry points ------------------------------------------------

    def requirement(self) -> Requirement:
        if self.at("=>"):
            target: Formula = Top()
        else:
            target = self.expression(False)
        self.expect("=>")
        constraint, polarity = self.body()
        if self.peek().kind != "end":
            self.fail("trailing input after requirement")
        return Requirement(self.validated(validate_target, target),
                           self.validated(validate_constraint, constraint),
                           polarity, source=self.text.strip())

    def body(self) -> Tuple[Formula, str]:
        t = self.peek()
        if t.value in _PATTERNS and self.tokens[self.i + 1].value == "(":
            build, arity, polarity = _PATTERNS[self.next().value]
            self.expect("(")
            args = [self.expression(True)]
            while len(args) < arity:
                self.expect(",")
                args.append(self.expression(True))
            self.expect(")")
            return self.nested(build(*args), t), polarity
        f = self.expression(True)
        if is_deadlock_freeness(f):
            return f, NEGATIVE
        return f, UNKNOWN

    def target_only(self) -> Formula:
        f = self.expression(False)
        if self.peek().kind != "end":
            self.fail("trailing input after target")
        return self.validated(validate_target, f)

    def constraint_only(self) -> Formula:
        f, _ = self.body()
        if self.peek().kind != "end":
            self.fail("trailing input after formula")
        return self.validated(validate_constraint, f)

    # -- expression grammar ------------------------------------------
    # temporal: whether temporal operators are allowed (constraints).

    def expression(self, temporal: bool) -> Formula:
        left = self.disjunction(temporal)
        if self.at("->"):
            tok = self.next()
            return self.nested(implies(left, self.expression(temporal)), tok)
        return left

    def disjunction(self, temporal: bool) -> Formula:
        f = self.conjunction(temporal)
        while self.at("or"):
            tok = self.next()
            f = self.nested(disj(f, self.conjunction(temporal)), tok)
        return f

    def conjunction(self, temporal: bool) -> Formula:
        f = self.unary(temporal)
        while self.at("and"):
            tok = self.next()
            f = self.nested(And(f, self.unary(temporal)), tok)
        return f

    def unary(self, temporal: bool) -> Formula:
        t = self.peek()
        if t.value == "not":
            self.next()
            return self.nested(Not(self.unary(temporal)), t)
        if t.value in _PREFIX or t.value in ("E", "A"):
            if not temporal:
                self.fail("temporal operator %r not allowed in a target" % t.value)
            self.next()
            if t.value in _PREFIX:
                return self.nested(_PREFIX[t.value](self.unary(temporal)), t)
            # E[.. U ..] / A[.. U ..] / A[.. R ..]
            self.expect("[")
            left = self.expression(temporal)
            sep = self.next()
            if sep.value not in ("U", "R"):
                self.fail("expected U or R inside the path operator", sep)
            if (t.value, sep.value) not in _PATH:
                self.fail("release is only supported under A[..]", sep)
            right = self.expression(temporal)
            self.expect("]")
            return self.nested(_PATH[t.value, sep.value](left, right), t)
        return self.primary(temporal)

    def primary(self, temporal: bool) -> Formula:
        t = self.peek()
        if t.value == "true":
            self.next()
            return Top()
        if t.value == "false":
            self.next()
            return falsum()
        if self.accept("("):
            f = self.expression(temporal)
            self.expect(")")
            return f
        if t.kind == "num":
            return self.bounded_interval()
        if t.kind == "ident":
            if t.value in RESERVED:
                self.fail("%r is a reserved word" % t.value)
            return self.atom()
        self.fail("expected a formula")

    def bounded_interval(self) -> Formula:
        lo_tok = self.next()
        lo = int(lo_tok.value)
        self.expect("<=")
        name_tok = self.next()
        if name_tok.kind != "ident" or name_tok.value in RESERVED:
            self.fail("expected an attribute name", name_tok)
        self.expect("<=")
        hi_tok = self.next()
        if hi_tok.kind != "num":
            self.fail("expected a number", hi_tok)
        hi = int(hi_tok.value)
        attr = self._numeric_attr(name_tok)
        return And(self._at_least(attr, lo), Atom(attr, IntervalSet([(0, hi)])))

    def atom(self) -> Formula:
        name_tok = self.next()
        name = name_tok.value
        if name not in self.sig:
            self.fail("unknown attribute %r" % name, name_tok)
        decl = self.sig.get(name)
        if self.accept("="):
            return Atom(name, frozenset([self.value(decl)]))
        if self.accept("!="):
            return Not(Atom(name, frozenset([self.value(decl)])))
        if self.accept("<="):
            n = self._number()
            self._require_numeric(decl, name_tok)
            return Atom(name, IntervalSet([(0, n)]))
        if self.accept(">="):
            n = self._number()
            self._require_numeric(decl, name_tok)
            return self._at_least(name, n)
        if self.accept("in"):
            return Atom(name, self.set_literal(decl))
        if decl.kind != BOOLEAN:
            self.fail("bare %r needs a comparison, only boolean attributes "
                      "stand alone" % name, name_tok)
        return Atom(name, frozenset([True]))

    def set_literal(self, decl) -> ValueSet:
        self.expect("{")
        items: List[Value] = []
        spans: List[Tuple[int, int]] = []
        if not self.at("}"):
            while True:
                t = self.peek()
                if t.kind == "num":
                    self._require_numeric(decl, t)
                    lo = hi = int(self.next().value)
                    if self.accept(".."):
                        hi = self._number()
                        if hi < lo:
                            self.fail("empty range %d..%d" % (lo, hi), t)
                    spans.append((lo, hi))
                else:
                    v = self.value(decl)
                    if decl.kind == NUMERIC and v is not BOTTOM:
                        # numeric sets hold numbers and bot only
                        self.fail("value %r not in the domain of %r" % (v, decl.name), t)
                    items.append(v)
                if not self.accept(","):
                    break
        self.expect("}")
        if decl.kind == NUMERIC:
            return IntervalSet(spans, BOTTOM in items)
        return frozenset(items)

    def value(self, decl) -> Value:
        t = self.next()
        if t.kind == "num":
            return int(t.value)
        if t.kind != "ident":
            self.fail("expected a value", t)
        if t.value == "true":
            return True
        if t.value == "false":
            return False
        if t.value == "bot":
            return BOTTOM
        if t.value in RESERVED:
            self.fail("%r is a reserved word" % t.value, t)
        if decl.kind == ENUM and t.value not in decl.symbols:
            self.fail("%r is not a declared symbol of %r" % (t.value, decl.name), t)
        return t.value

    def _number(self) -> int:
        t = self.next()
        if t.kind != "num":
            self.fail("expected a number", t)
        return int(t.value)

    def _numeric_attr(self, tok) -> str:
        if tok.value not in self.sig:
            self.fail("unknown attribute %r" % tok.value, tok)
        if self.sig.get(tok.value).kind != NUMERIC:
            self.fail("attribute %r is not numeric" % tok.value, tok)
        return tok.value

    def _require_numeric(self, decl, tok):
        if decl.kind != NUMERIC:
            self.fail("attribute %r is not numeric" % decl.name, tok)

    @staticmethod
    def _at_least(attr: str, n: int) -> Formula:
        return Not(Atom(attr, IntervalSet([(0, n - 1)])))


# ---------------------------------------------------------------------------
# Public parsing API
# ---------------------------------------------------------------------------

# The deepest formula the parser hands on. Synthesis, verification and
# the printer walk formulas recursively, with up to about two interpreter
# frames per level; this keeps them inside the default recursion limit.
MAX_NESTING = 400


def _parse(text: str, sig: AttributeSignature, line_no: int, entry):
    """Run one entry point of the parser. A formula nested deeper than
    MAX_NESTING nodes, or too deep for the parser's own recursion, is
    reported as a parse error, with the caret under the token where the
    bound is crossed."""
    parser = _Parser(text, sig, line_no)
    try:
        return entry(parser)
    except RecursionError:
        where = parser.tokens[min(parser.i, len(parser.tokens) - 1)]
        raise ParseError("formula nested too deeply", text, line_no, where.col) from None


def parse_requirement(text: str, sig: AttributeSignature, line_no: int = 1) -> Requirement:
    return _parse(text, sig, line_no, _Parser.requirement)


def parse_requirements(text: str, sig: AttributeSignature) -> List[Requirement]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        out.append(parse_requirement(line, sig, line_no=i))
    return out


def parse_target(text: str, sig: AttributeSignature) -> Formula:
    return _parse(text, sig, 1, _Parser.target_only)


def parse_constraint(text: str, sig: AttributeSignature) -> Formula:
    return _parse(text, sig, 1, _Parser.constraint_only)


def parse_value(text: str, decl: AttributeDecl) -> Value:
    """The value of one attr=value item for `decl`: bot, true, false, a
    number or a symbol, refused unless the attribute admits it."""
    text = text.strip()
    if text == "bot":
        v: Value = BOTTOM
    elif text in ("true", "false"):
        v = text == "true"
    elif re.fullmatch(r"\d+", text):
        v = int(text)
    else:
        v = text
    if not decl.admits(v):
        raise ValueError("value %r not admissible for %r" % (text, decl.name))
    return v


def parse_request(text: str, sig: AttributeSignature) -> AccessRequest:
    """Parse "attr=value, attr=value" into a request; the rest is bottom."""
    q: AccessRequest = {}
    text = text.strip()
    if text:
        for part in text.split(","):
            if "=" not in part:
                raise ValueError("request items look like attr=value, got %r" % part.strip())
            name, _, val = part.partition("=")
            name = name.strip()
            if name not in sig or sig.get(name).cls == RESOURCE:
                raise ValueError("unknown request attribute %r" % name)
            if name in q:
                raise ValueError("request attribute %r is given twice" % name)
            q[name] = parse_value(val, sig.get(name))
    return sig.validate_request(q)


# ---------------------------------------------------------------------------
# Printing. Never emits sugar unless the AST is exactly the shape the
# sugar desugars to, so parse(format(f)) returns f.
# ---------------------------------------------------------------------------

_PREC_ATOMIC = 4
_PREC_UNARY = 3
_PREC_AND = 2
_PREC_OR = 1
_PREC_IMPL = 0


def _single_member(values: ValueSet) -> Optional[Value]:
    """v if values == {v}, else None."""
    if isinstance(values, IntervalSet):
        if not values.unset and len(values.intervals) == 1 \
                and values.intervals[0][0] == values.intervals[0][1]:
            return values.intervals[0][0]
        return None
    return next(iter(values)) if len(values) == 1 else None


def _upper_bound(values: ValueSet) -> Optional[int]:
    """n if values == {0..n}, the `<= n` desugaring."""
    if isinstance(values, IntervalSet) and not values.unset \
            and len(values.intervals) == 1 and values.intervals[0][0] == 0:
        return values.intervals[0][1]
    return None


def _format_set(values: ValueSet) -> str:
    parts = [str(lo) if lo == hi else "%d..%d" % (lo, hi)
             for lo, hi in intervals_of(values)]
    if isinstance(values, IntervalSet):
        rest = [BOTTOM] if values.unset else []
    else:
        rest = sorted(values, key=value_key)
    parts.extend(format_value(v) for v in rest)
    return "{%s}" % ", ".join(parts)


def _atom_str(f: Atom, sig: Optional[AttributeSignature]) -> str:
    v = _single_member(f.values)
    if v is not None:
        if v is True and sig is not None and f.attr in sig \
                and sig.get(f.attr).kind == BOOLEAN:
            return f.attr
        return "%s = %s" % (f.attr, format_value(v))
    n = _upper_bound(f.values)
    if n is not None:
        return "%s <= %d" % (f.attr, n)
    return "%s in %s" % (f.attr, _format_set(f.values))


def _lower_bound_of(f: Formula) -> Optional[Tuple[str, int]]:
    """Match not(a in {0..n-1}) or not(a in {}), the >= desugaring."""
    if isinstance(f, Not) and isinstance(f.sub, Atom):
        if not f.sub.values:
            return f.sub.attr, 0
        n = _upper_bound(f.sub.values)
        if n is not None:
            return f.sub.attr, n + 1
    return None


def _fmt(f: Formula, sig: Optional[AttributeSignature], prec: int) -> str:
    text, my_prec = _fmt_prec(f, sig)
    if my_prec < prec:
        return "(%s)" % text
    return text


def _fmt_prec(f: Formula, sig) -> Tuple[str, int]:
    if isinstance(f, Top):
        return "true", _PREC_ATOMIC
    if isinstance(f, Atom):
        # atoms parse as one unit, comparison suffix included
        return _atom_str(f, sig), _PREC_ATOMIC
    if isinstance(f, Not):
        if isinstance(f.sub, Top):
            return "false", _PREC_ATOMIC
        v = _single_member(f.sub.values) if isinstance(f.sub, Atom) else None
        if v is not None:
            return "%s != %s" % (f.sub.attr, format_value(v)), _PREC_ATOMIC
        lb = _lower_bound_of(f)
        if lb is not None:
            return "%s >= %d" % lb, _PREC_ATOMIC
        if isinstance(f.sub, EU):
            eu = f.sub
            if eu.left == Top() and isinstance(eu.right, Not):
                return "AG %s" % _fmt(eu.right.sub, sig, _PREC_UNARY), _PREC_UNARY
            if isinstance(eu.left, Not) and isinstance(eu.right, Not):
                return ("A[%s R %s]" % (_fmt(eu.left.sub, sig, 0),
                                        _fmt(eu.right.sub, sig, 0)), _PREC_ATOMIC)
        if isinstance(f.sub, And):
            a = f.sub
            if isinstance(a.left, Not) and isinstance(a.right, Not):
                return ("%s or %s" % (_fmt(a.left.sub, sig, _PREC_OR),
                                      _fmt(a.right.sub, sig, _PREC_OR + 1)), _PREC_OR)
            if isinstance(a.right, Not):
                return ("%s -> %s" % (_fmt(a.left, sig, _PREC_IMPL + 1),
                                      _fmt(a.right.sub, sig, _PREC_IMPL)), _PREC_IMPL)
        return "not %s" % _fmt(f.sub, sig, _PREC_UNARY), _PREC_UNARY
    if isinstance(f, And):
        rights = []     # a left-nested chain, in one loop down its spine
        while isinstance(f, And):
            lb = _lower_bound_of(f.left)
            if lb is not None and isinstance(f.right, Atom) and f.right.attr == lb[0] \
                    and _upper_bound(f.right.values) is not None:
                break
            rights.append(f.right)
            f = f.left
        if not rights:
            hi = _upper_bound(f.right.values)
            return "%d <= %s <= %d" % (lb[1], lb[0], hi), _PREC_ATOMIC
        parts = [_fmt(r, sig, _PREC_AND + 1) for r in reversed(rights)]
        return " and ".join([_fmt(f, sig, _PREC_AND)] + parts), _PREC_AND
    if isinstance(f, EX):
        return "EX %s" % _fmt(f.sub, sig, _PREC_UNARY), _PREC_UNARY
    if isinstance(f, AX):
        return "AX %s" % _fmt(f.sub, sig, _PREC_UNARY), _PREC_UNARY
    if isinstance(f, EU):
        if f.left == Top():
            return "EF %s" % _fmt(f.right, sig, _PREC_UNARY), _PREC_UNARY
        return ("E[%s U %s]" % (_fmt(f.left, sig, 0), _fmt(f.right, sig, 0)),
                _PREC_ATOMIC)
    if isinstance(f, AU):
        return ("A[%s U %s]" % (_fmt(f.left, sig, 0), _fmt(f.right, sig, 0)),
                _PREC_ATOMIC)
    raise TypeError("cannot format %r" % (f,))


def format_target(f: Formula, sig: Optional[AttributeSignature] = None) -> str:
    return _fmt(f, sig, 0)


def format_constraint(f: Formula, sig: Optional[AttributeSignature] = None) -> str:
    return _fmt(f, sig, 0)


def _pattern_print(f: Formula, polarity: str, sig) -> Optional[str]:
    if is_deadlock_freeness(f):
        return None  # raw temporal form reads best and keeps its polarity
    if polarity == POSITIVE and isinstance(f, EU) and f.left == Top():
        return "grant(%s)" % _fmt(f.right, sig, 0)
    if polarity == NEGATIVE and isinstance(f, Not) and isinstance(f.sub, EU):
        eu = f.sub
        if eu.left == Top() and isinstance(eu.right, And) \
                and isinstance(eu.right.right, EU) and eu.right.right.left == Top():
            return "blocking(%s, %s)" % (_fmt(eu.right.left, sig, 0),
                                         _fmt(eu.right.right.right, sig, 0))
        if isinstance(eu.left, Not) and isinstance(eu.right, And) \
                and eu.right.right == eu.left:
            return "waypoint(%s, %s)" % (_fmt(eu.left.sub, sig, 0),
                                         _fmt(eu.right.left, sig, 0))
        if eu.left == Top():
            return "deny(%s)" % _fmt(eu.right, sig, 0)
    return None


def format_requirement(r: Requirement, sig: Optional[AttributeSignature] = None) -> str:
    body = _pattern_print(r.constraint, r.polarity, sig)
    if body is None:
        body = _fmt(r.constraint, sig, 0)
    if r.target == Top():
        return "=> %s" % body
    return "%s => %s" % (_fmt(r.target, sig, 0), body)


def format_request(q: AccessRequest, sig: Optional[AttributeSignature] = None) -> str:
    names = [d.name for d in sig.request_attrs()] if sig is not None else sorted(q)
    return ", ".join("%s=%s" % (n, format_value(q.get(n, BOTTOM))) for n in names)
