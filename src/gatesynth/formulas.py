"""Core formula ASTs, attribute signatures, and the region construction.

Three kinds of formula share one node set:

* a *target* describes who a rule applies to: a Boolean combination of
  membership tests over subject and contextual attributes;
* an *access constraint* is a branching-time formula over resource
  attributes, interpreted on the graph of spaces (EX, AX, E-until,
  A-until plus negation and conjunction);
* a *control formula* is what the encoder builds and solves: Top, Atom
  and Not as in targets, plus false, control-variable tests, edge
  guards and n-ary and/or and implication (CFalse, CVarEq, CGuard,
  CAnd, COr, CImplies).

Edge policies are targets as well, so everything the synthesizer
manipulates bottoms out in the same Atom node. Targets are decided over
finitely many request regions (target_sat, target_equiv) and shrunk
without changing their meaning by simplify_policy.

Every node class is built on Node, which hash-conses: building a node
equal to a live one returns that one. Equality and hashing are
therefore identity, and a lookup costs the same on a leaf as on a large
shared formula. One walker, subformulas(), visits every kind of
formula.
"""

from __future__ import annotations

import itertools
import weakref
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple, Union


class _Bottom:
    """The "attribute not supplied" value. A single instance is used."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "bot"

    def __deepcopy__(self, memo):
        return self

    def __copy__(self):
        return self


BOTTOM = _Bottom()

Value = Union[bool, int, str, _Bottom]
AccessRequest = Dict[str, Value]

SUBJECT = "subject"
CONTEXTUAL = "contextual"
RESOURCE = "resource"

BOOLEAN = "boolean"
NUMERIC = "numeric"
ENUM = "enum"


def value_key(v: Value):
    """Sort key that totally orders mixed attribute values."""
    if v is BOTTOM:
        return (0, "")
    if isinstance(v, bool):
        return (1, int(v))
    if isinstance(v, int):
        return (2, v)
    return (3, v)


def format_value(v: Value) -> str:
    if v is BOTTOM:
        return "bot"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


# ---------------------------------------------------------------------------
# Value sets
# ---------------------------------------------------------------------------

class IntervalSet:
    """A set of numbers, and possibly the unset value, held as a sorted
    tuple of disjoint, non-adjacent inclusive (lo, hi) intervals plus an
    unset flag. Its size does not grow with its bounds, so `time <= 10**18`
    costs what `time <= 20` costs. It has no len(): the member count of a
    20-digit bound does not fit in one."""

    __slots__ = ("intervals", "unset", "_los", "_hash")

    def __init__(self, intervals: Iterable[Tuple[int, int]] = (), unset: bool = False):
        merged: List[Tuple[int, int]] = []
        for lo, hi in sorted(iv for iv in intervals if iv[0] <= iv[1]):
            if merged and lo <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        self.intervals: Tuple[Tuple[int, int], ...] = tuple(merged)
        self.unset = bool(unset)
        self._los = tuple(lo for lo, _ in merged)
        self._hash = hash((IntervalSet, self.intervals, self.unset))

    def __contains__(self, v) -> bool:
        if type(v) is int:      # not bool: true and false are no numbers
            i = bisect_right(self._los, v)
            return i > 0 and v <= self.intervals[i - 1][1]
        return v is BOTTOM and self.unset

    def __iter__(self) -> Iterator[Value]:
        if self.unset:
            yield BOTTOM
        for lo, hi in self.intervals:
            yield from range(lo, hi + 1)

    def __bool__(self) -> bool:
        return self.unset or bool(self.intervals)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._hash == other._hash and self.intervals == other.intervals \
            and self.unset == other.unset

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "IntervalSet(%r, unset=%r)" % (self.intervals, self.unset)

    def __or__(self, other) -> "IntervalSet":
        other = _as_interval_set(other)
        if other is None:
            return NotImplemented
        return IntervalSet(self.intervals + other.intervals, self.unset or other.unset)

    def __sub__(self, other) -> "IntervalSet":
        other = _as_interval_set(other)
        if other is None:
            return NotImplemented
        out: List[Tuple[int, int]] = []
        for lo, hi in self.intervals:
            for olo, ohi in other.intervals:
                if ohi < lo or olo > hi:
                    continue
                if olo > lo:
                    out.append((lo, olo - 1))
                lo = ohi + 1
            if lo <= hi:
                out.append((lo, hi))
        return IntervalSet(out, self.unset and not other.unset)

    def __and__(self, other) -> "IntervalSet":
        other = _as_interval_set(other)
        if other is None:
            return NotImplemented
        return self - (self - other)

    def __rsub__(self, other) -> "IntervalSet":
        other = _as_interval_set(other)
        if other is None:
            return NotImplemented
        return other - self

    __ror__ = __or__
    __rand__ = __and__


def _as_interval_set(values) -> Optional[IntervalSet]:
    """values as an IntervalSet, or None if it holds something other
    than numbers and the unset value."""
    if isinstance(values, IntervalSet):
        return values
    if isinstance(values, (set, frozenset)) \
            and all(type(v) is int or v is BOTTOM for v in values):
        return IntervalSet([(v, v) for v in values if v is not BOTTOM], BOTTOM in values)
    return None


ValueSet = Union[FrozenSet[Value], IntervalSet]


def value_set(values: Iterable[Value]) -> ValueSet:
    """The normal form of a membership set. A set that holds a number,
    and otherwise only unset values, is an IntervalSet; every other set,
    empty or {bot} included, is a frozenset. Each set therefore has one
    form, and equal sets compare and hash equal."""
    if isinstance(values, IntervalSet):
        if values.intervals:
            return values
        return frozenset([BOTTOM]) if values.unset else frozenset()
    if not isinstance(values, frozenset):
        values = frozenset(values)
    if any(type(v) is int for v in values):
        return _as_interval_set(values) or values
    return values


def intervals_of(values: ValueSet) -> Tuple[Tuple[int, int], ...]:
    """The number intervals of a membership set; none for a frozenset."""
    return values.intervals if isinstance(values, IntervalSet) else ()


@dataclass(frozen=True)
class AttributeDecl:
    name: str
    cls: str          # subject | contextual | resource
    kind: str         # boolean | numeric | enum
    symbols: Tuple[str, ...] = ()   # enum only, bottom excluded

    def admits(self, v: Value) -> bool:
        if v is BOTTOM:
            return True
        if self.kind == BOOLEAN:
            return isinstance(v, bool)
        if self.kind == NUMERIC:
            return isinstance(v, int) and not isinstance(v, bool) and v >= 0
        return isinstance(v, str) and v in self.symbols


class AttributeSignature:
    """Declared attributes, in declaration order.

    Declaration order matters: region products, control-variable
    ordering and therefore every deterministic output of the toolkit
    follow it.
    """

    def __init__(self, decls: Iterable[AttributeDecl]):
        self._decls: Dict[str, AttributeDecl] = {}
        for d in decls:
            if d.name in self._decls:
                raise ValueError("duplicate attribute %r" % d.name)
            if d.cls not in (SUBJECT, CONTEXTUAL, RESOURCE):
                raise ValueError("bad attribute class %r" % d.cls)
            if d.kind not in (BOOLEAN, NUMERIC, ENUM):
                raise ValueError("bad attribute kind %r" % d.kind)
            if d.kind == ENUM and not d.symbols:
                raise ValueError("enum attribute %r declares no symbols" % d.name)
            self._decls[d.name] = d

    def __contains__(self, name: str) -> bool:
        return name in self._decls

    def __iter__(self) -> Iterator[AttributeDecl]:
        return iter(self._decls.values())

    def get(self, name: str) -> AttributeDecl:
        try:
            return self._decls[name]
        except KeyError:
            raise KeyError("unknown attribute %r" % name) from None

    def request_attrs(self) -> List[AttributeDecl]:
        return [d for d in self._decls.values() if d.cls in (SUBJECT, CONTEXTUAL)]

    def resource_attrs(self) -> List[AttributeDecl]:
        return [d for d in self._decls.values() if d.cls == RESOURCE]

    def blank_request(self) -> AccessRequest:
        return {d.name: BOTTOM for d in self.request_attrs()}

    def validate_request(self, q: AccessRequest) -> AccessRequest:
        """Fill in unset attributes with bottom and type-check the rest."""
        out: AccessRequest = {}
        for d in self.request_attrs():
            v = q.get(d.name, BOTTOM)
            if not d.admits(v):
                raise ValueError("value %r not admissible for attribute %r" % (v, d.name))
            out[d.name] = v
        for k in q:
            if k not in self._decls or self._decls[k].cls == RESOURCE:
                raise ValueError("request sets unknown or resource attribute %r" % k)
        return out


# ---------------------------------------------------------------------------
# Formula nodes
# ---------------------------------------------------------------------------

# Weak values: a node stays in the table while something else holds it,
# so building a new structure per operation does not grow the process.
_NODES: "weakref.WeakValueDictionary[tuple, Node]" = weakref.WeakValueDictionary()


class Node:
    """Base of every formula node: `_fields` names its fields, which are
    read-only. Equality and hashing are the object defaults, identity,
    because __new__ returns the live node with the same class and
    fields when there is one."""
    __slots__ = ("__weakref__",)
    _fields: Tuple[str, ...] = ()

    def __new__(cls, *args):
        if len(args) != len(cls._fields):
            raise TypeError("%s takes %d fields, got %d"
                            % (cls.__name__, len(cls._fields), len(args)))
        key = (cls,) + args
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._fields, args):
                object.__setattr__(node, name, value)
            _NODES[key] = node
        return node

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a formula node" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of a formula node" % name)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self):
        """The constructor call of the node. A connective below it with
        two or more parents prints once, as `_n = ...` after `where`, and
        as its name elsewhere, so the text grows with the DAG rather
        than with the tree it unfolds to."""
        parents: Dict[Node, int] = {}
        for g in subformulas(self):
            for ch in children(g):
                parents[ch] = parents.get(ch, 0) + 1
        names = {g: "_%d" % i for i, g in enumerate(
            g for g in subformulas(self)
            if g is not self and parents.get(g, 0) >= 2 and children(g))}
        text = _node_text(self, names)
        if not names:
            return text
        return "%s where %s" % (text, "; ".join("%s = %s" % (name, _node_text(g, names))
                                                for g, name in names.items()))


class Top(Node):
    """The formula that always holds."""
    __slots__ = ()


class Atom(Node):
    """Membership test: the named attribute's value lies in `values`,
    which is held in the normal form of value_set()."""
    __slots__ = _fields = ("attr", "values")
    attr: str
    values: ValueSet

    def __new__(cls, attr: str, values: Iterable[Value]):
        return Node.__new__(cls, attr, value_set(values))


class Not(Node):
    __slots__ = _fields = ("sub",)
    sub: "Formula"


class And(Node):
    __slots__ = _fields = ("left", "right")
    left: "Formula"
    right: "Formula"


class EX(Node):
    """Some immediate successor satisfies the body."""
    __slots__ = _fields = ("sub",)
    sub: "Formula"


class AX(Node):
    """Every immediate successor satisfies the body (vacuous without successors)."""
    __slots__ = _fields = ("sub",)
    sub: "Formula"


class EU(Node):
    """Some path reaches `right`, with `left` holding along the way."""
    __slots__ = _fields = ("left", "right")
    left: "Formula"
    right: "Formula"


class AU(Node):
    """Every maximal path reaches `right`, with `left` holding along the way."""
    __slots__ = _fields = ("left", "right")
    left: "Formula"
    right: "Formula"


# Control formulas, the encoder's: Top, Atom and Not above, and these.

class CFalse(Node):
    """The formula that never holds."""
    __slots__ = ()


class CVarEq(Node):
    """The control variable takes this value."""
    __slots__ = _fields = ("var", "value")
    var: str
    value: int


class CGuard(Node):
    """Placeholder: the policy of this edge grants the request."""
    __slots__ = _fields = ("edge",)
    edge: Tuple[str, str]


class CAnd(Node):
    __slots__ = _fields = ("args",)
    args: Tuple["ControlFormula", ...]


class COr(Node):
    __slots__ = _fields = ("args",)
    args: Tuple["ControlFormula", ...]


class CImplies(Node):
    __slots__ = _fields = ("left", "right")
    left: "ControlFormula"
    right: "ControlFormula"


Formula = Union[Top, Atom, Not, And, EX, AX, EU, AU]
Target = Formula  # restricted by validate_target
ControlFormula = Union[Top, CFalse, Atom, CVarEq, CGuard, Not, CAnd, COr, CImplies]

TEMPORAL_NODES = (EX, AX, EU, AU)


def conj(parts: Sequence[Formula]) -> Formula:
    """Left-associated conjunction; the empty conjunction is Top."""
    parts = list(parts)
    if not parts:
        return Top()
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def neg(f: Formula) -> Formula:
    return Not(f)


def disj(a: Formula, b: Formula) -> Formula:
    """a or b, expressed through negation and conjunction."""
    return Not(And(Not(a), Not(b)))


def implies(a: Formula, b: Formula) -> Formula:
    """a -> b, expressed through negation and conjunction."""
    return Not(And(a, Not(b)))


def falsum() -> Formula:
    return Not(Top())


# Derived temporal forms.

def EF(f: Formula) -> Formula:
    return EU(Top(), f)


def AG(f: Formula) -> Formula:
    return Not(EU(Top(), Not(f)))


def AF(f: Formula) -> Formula:
    return AU(Top(), f)


def EG(f: Formula) -> Formula:
    return Not(AU(Top(), Not(f)))


def release(a: Formula, b: Formula) -> Formula:
    """A[a R b] in its literal dual form."""
    return Not(EU(Not(a), Not(b)))


# Requirement patterns. Each returns the compiled access constraint; the
# polarity that goes with the pattern is listed alongside.

POSITIVE = "positive"
NEGATIVE = "negative"
UNKNOWN = "unknown"


def grant(goal: Formula) -> Formula:
    """Some sequence of granted edges reaches a space satisfying `goal`."""
    return EF(goal)


def deny(goal: Formula) -> Formula:
    """No sequence of granted edges reaches a space satisfying `goal`."""
    return Not(EF(goal))


def blocking(first: Formula, then: Formula) -> Formula:
    """After visiting a `first` space, no `then` space is reachable."""
    return Not(EF(And(first, EF(then))))


def waypoint(via: Formula, goal: Formula) -> Formula:
    """Every way of reaching `goal` passes through a `via` space first.

    Compiled as: there is no path that stays outside `via` and hits a
    `goal` space that is itself not a `via` space.
    """
    return Not(EU(Not(via), And(goal, Not(via))))


def deadlock_free_constraint() -> Formula:
    """Every space the subject can actually enter has a granted way onward.

    The entry itself is exempt: a subject standing in the public entry
    with nowhere to go is not trapped, it simply was not admitted.
    """
    return AX(AG(EX(Top())))


def strict_deadlock_free_constraint() -> Formula:
    """Every reachable space, including the entry, has a way onward."""
    return AG(EX(Top()))


def is_deadlock_freeness(f: Formula) -> bool:
    return f == deadlock_free_constraint() or f == strict_deadlock_free_constraint()


@dataclass(frozen=True)
class Requirement:
    """A global rule: for requests matching `target`, `constraint` must
    hold at the entry of the induced structure."""
    target: Target
    constraint: Formula
    polarity: str = UNKNOWN
    source: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        if self.polarity not in (POSITIVE, NEGATIVE, UNKNOWN):
            raise ValueError("bad polarity %r" % self.polarity)


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------

def children(f: Node) -> Tuple[Node, ...]:
    """The direct subformulas of any node. Node classes are final, so
    this tests the exact class: every walk calls it once per node."""
    kind = type(f)
    if kind is CAnd or kind is COr:
        return f.args
    if kind is Not or kind is EX or kind is AX:
        return (f.sub,)
    if kind is And or kind is CImplies or kind is EU or kind is AU:
        return (f.left, f.right)
    return ()


def subformulas(f: Node) -> Iterator[Node]:
    """Postorder traversal, children before parents, each node once; of
    a node's children the last comes out first. Iterative, so a deep
    formula does not run into the recursion limit."""
    seen = set()
    stack = [(f, False)]
    while stack:
        g, expanded = stack.pop()
        if g in seen:
            continue
        if expanded:
            seen.add(g)
            yield g
        else:
            stack.append((g, True))
            for ch in children(g):
                stack.append((ch, False))


def _node_text(f: Node, names: Dict[Node, str]) -> str:
    """f as a constructor call, with the nodes below it that `names`
    lists printed as their names. Iterative, as subformulas() is."""
    out: List[str] = []
    stack: List[object] = [f]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item is not f and item in names:
            out.append(names[item])
        else:
            parts: List[object] = [type(item).__name__ + "("]
            for i, name in enumerate(item._fields):
                value = getattr(item, name)
                if i:
                    parts.append(", ")
                if isinstance(value, Node):
                    parts.append(value)
                elif isinstance(value, tuple) and value and isinstance(value[0], Node):
                    parts.append("(")
                    for j, v in enumerate(value):
                        parts.extend((", ", v) if j else (v,))
                    parts.append(",)" if len(value) == 1 else ")")
                else:
                    parts.append(repr(value))
            parts.append(")")
            stack.extend(reversed(parts))
    return "".join(out)


def collect_atoms(f: Node) -> List[Atom]:
    """Distinct atoms in subformulas() order."""
    return [g for g in subformulas(f) if isinstance(g, Atom)]


def contains_au(f: Formula) -> bool:
    return any(isinstance(g, AU) for g in subformulas(f))


def validate_target(f: Formula, sig: AttributeSignature) -> None:
    """Reject temporal operators and resource attributes in a target."""
    for g in subformulas(f):
        if isinstance(g, TEMPORAL_NODES):
            raise ValueError("temporal operator not allowed in a target")
        if isinstance(g, Atom):
            d = sig.get(g.attr)
            if d.cls == RESOURCE:
                raise ValueError("resource attribute %r not allowed in a target" % g.attr)
            _validate_atom_values(g, d)


def validate_constraint(f: Formula, sig: AttributeSignature) -> None:
    """Access constraints test resource attributes only."""
    for g in subformulas(f):
        if isinstance(g, Atom):
            d = sig.get(g.attr)
            if d.cls != RESOURCE:
                raise ValueError(
                    "attribute %r is %s, access constraints test resource attributes"
                    % (g.attr, d.cls))
            _validate_atom_values(g, d)


def _validate_atom_values(a: Atom, d: AttributeDecl) -> None:
    values = a.values
    if isinstance(values, IntervalSet):
        # an interval's members are admissible exactly when its ends are
        values = [v for interval in values.intervals for v in interval]
    for v in values:
        if not d.admits(v):
            raise ValueError("value %r not in the domain of %r" % (v, a.attr))


def eval_target(q: AccessRequest, f: Formula) -> bool:
    """Evaluate a target against a request. Unset attributes read as bottom."""
    if isinstance(f, Top):
        return True
    if isinstance(f, Atom):
        return q.get(f.attr, BOTTOM) in f.values
    if isinstance(f, Not):
        return not eval_target(q, f.sub)
    if isinstance(f, And):
        return eval_target(q, f.left) and eval_target(q, f.right)
    raise TypeError("not a target node: %r" % (f,))


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------
#
# The verification and grounding steps quantify over the finitely many
# classes of requests that the mentioned membership tests can tell
# apart, one representative per class: a region is one vector of
# verdicts over the given atoms. Every atom tests one attribute, so the
# regions are the product of each request attribute's cells, a cell
# being one vector of verdicts over the distinct sets that attribute is
# tested against. One rule finds the cells of every attribute. Its
# candidates are the unset value first, then the declared values of a
# finite attribute, or the first number of each span between
# consecutive interval ends of a numeric one (verdicts change only at
# those ends). Candidates with equal verdicts form one cell, and the
# first of them represents it. An attribute nobody mentions thus has
# one cell, represented by the unset value.


class RegionSet:
    """The representatives of each request attribute's cells. A region
    takes one of them per attribute."""

    def __init__(self, sig: AttributeSignature, reps: Dict[str, List[Value]]):
        self.sig = sig
        self.reps = reps

    def representatives(self) -> Iterator[AccessRequest]:
        names = [d.name for d in self.sig.request_attrs()]
        for combo in itertools.product(*(self.reps[n] for n in names)):
            yield dict(zip(names, combo))

    def count(self) -> int:
        n = 1
        for d in self.sig.request_attrs():
            n *= len(self.reps[d.name])
        return n

    def representative(self, i: int) -> AccessRequest:
        """The i-th request of representatives(), without the ones before it."""
        names = [d.name for d in self.sig.request_attrs()]
        values: List[Value] = []
        for n in reversed(names):
            i, cell = divmod(i, len(self.reps[n]))
            values.append(self.reps[n][cell])
        return dict(zip(names, reversed(values)))


def interval_ends(sets: Iterable[ValueSet]) -> List[int]:
    """The numbers at which a membership test on these sets can change
    its verdict, in order: 0, and the first number of each interval and
    the first one after it."""
    ends = {0}
    for s in sets:
        for lo, hi in intervals_of(s):
            ends.update((lo, hi + 1))
    return sorted(ends)


def _cell_representatives(d: AttributeDecl, sets: List[ValueSet]) -> List[Value]:
    if d.kind == NUMERIC:
        candidates: Sequence[Value] = interval_ends(sets)
    elif d.kind == BOOLEAN:
        candidates = (False, True)
    else:
        candidates = d.symbols
    cells: Dict[Tuple[bool, ...], Value] = {}
    for v in (BOTTOM, *candidates):
        cells.setdefault(tuple(v in s for s in sets), v)
    return list(cells.values())


def build_regions(sig: AttributeSignature, atoms: Iterable[Atom]) -> RegionSet:
    """One region per vector of verdicts over the request atoms given;
    atoms on resource attributes are ignored."""
    sets: Dict[str, List[ValueSet]] = {}
    for a in dict.fromkeys(atoms):      # atoms are hash-consed: one per test
        if sig.get(a.attr).cls != RESOURCE:
            sets.setdefault(a.attr, []).append(a.values)
    return RegionSet(sig, {d.name: _cell_representatives(d, sets.get(d.name, []))
                           for d in sig.request_attrs()})


def target_sat(t: Formula, sig: AttributeSignature) -> Optional[AccessRequest]:
    """A witness request satisfying the target, or None if there is none."""
    regions = build_regions(sig, collect_atoms(t))
    for q in regions.representatives():
        if eval_target(q, t):
            return q
    return None


def target_equiv(t1: Formula, t2: Formula, sig: AttributeSignature) -> bool:
    """Do two targets grant exactly the same requests?"""
    regions = build_regions(sig, collect_atoms(t1) + collect_atoms(t2))
    for q in regions.representatives():
        if eval_target(q, t1) != eval_target(q, t2):
            return False
    return True


class SynthesisError(RuntimeError):
    """A soundness check failed: synthesis produced a policy or a
    configuration that does not do what it was built to do."""


def simplify_policy(t: Formula, sig: AttributeSignature) -> Formula:
    """Equivalent but smaller form of a policy or target.

    Constant subterms are folded, duplicate conjuncts dropped, and
    membership tests on the same attribute merged. The result is
    checked to grant exactly the same requests as the input; a mismatch
    raises SynthesisError.
    """
    out = _simp(t, sig)
    if not target_equiv(t, out, sig):
        raise SynthesisError("simplification changed the policy %r into %r" % (t, out))
    return out


def _full_domain(sig: AttributeSignature, attr: str) -> Optional[frozenset]:
    d = sig.get(attr)
    if d.kind == BOOLEAN:
        return frozenset([BOTTOM, False, True])
    if d.kind == ENUM:
        return frozenset([BOTTOM]) | frozenset(d.symbols)
    return None


def _simp(t: Formula, sig: AttributeSignature) -> Formula:
    if isinstance(t, Top):
        return t
    if isinstance(t, Atom):
        if not t.values:
            return falsum()
        full = _full_domain(sig, t.attr)
        if full is not None and t.values >= full:
            return Top()
        return t
    if isinstance(t, Not):
        s = _simp(t.sub, sig)
        if isinstance(s, Not):
            return s.sub
        return Not(s)
    if isinstance(t, And):
        return _simp_and(t, sig)
    raise TypeError("not a policy node: %r" % (t,))


def _flatten_and(t: Formula) -> List[Formula]:
    if isinstance(t, And):
        return _flatten_and(t.left) + _flatten_and(t.right)
    return [t]


def _simp_and(t: And, sig: AttributeSignature) -> Formula:
    parts = []
    for p in _flatten_and(t):
        s = _simp(p, sig)
        if isinstance(s, And):
            parts.extend(_flatten_and(s))
        else:
            parts.append(s)

    false = falsum()
    pos: Dict[str, frozenset] = {}
    negv: Dict[str, frozenset] = {}
    order: List[Tuple[str, object]] = []   # ('pos', attr) / ('neg', attr) / ('other', i)
    others: List[Formula] = []

    for p in parts:
        if isinstance(p, Top):
            continue
        if p == false:
            return false
        if isinstance(p, Atom):
            if p.attr in pos:
                pos[p.attr] = pos[p.attr] & p.values
            else:
                pos[p.attr] = p.values
                order.append(("pos", p.attr))
            continue
        if isinstance(p, Not) and isinstance(p.sub, Atom):
            a = p.sub
            if a.attr in negv:
                negv[a.attr] = negv[a.attr] | a.values
            else:
                negv[a.attr] = a.values
                order.append(("neg", a.attr))
            continue
        if p not in others:
            order.append(("other", len(others)))
            others.append(p)

    for attr in list(pos):
        if attr in negv:
            pos[attr] = pos[attr] - negv[attr]
            del negv[attr]

    out: List[Formula] = []
    for kind, key in order:
        if kind == "pos":
            values = pos[key]
            if not values:
                return false
            full = _full_domain(sig, key)
            if full is not None and values >= full:
                continue
            out.append(Atom(key, values))
        elif kind == "neg":
            if key not in negv:
                continue    # absorbed into the positive test
            values = negv[key]
            if not values:
                continue    # nothing excluded
            full = _full_domain(sig, key)
            if full is not None and values >= full:
                return false
            out.append(Not(Atom(key, values)))
        else:
            out.append(others[key])

    for p in out:
        if isinstance(p, Not) and p.sub in out:
            return false

    return conj(out)
