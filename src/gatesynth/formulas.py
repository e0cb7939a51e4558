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
manipulates bottoms out in the same Atom node. The smart constructors
of control formulas (cand, cor, cnot, cimplies) live beside the node
classes, and target_to_control() brings a target to that n-ary form.
Targets are decided over finitely many request regions, a chunk of
regions at once as one bitmask per node (target_masks, which reads a
control formula over request attributes as well; target_sat,
target_equiv). simplify_policy shrinks a policy, given as a target or
as such a control formula, without changing its meaning, in three
folds: to the control form, one rebuild through the smart
constructors, and back to a target.

Every node class is built on Node, which hash-conses: building a node
equal to a live one returns that one. Equality and hashing are
therefore identity, and a lookup costs the same on a leaf as on a large
shared formula. The table refers to its nodes weakly, through plain
weak references without callbacks, and Node.__new__ purges the entries
of dead nodes once the table has grown by half since its last purge,
so building a new structure per operation does not grow the process.
Node classes are final, so code that dispatches on a node tests its
exact class. One walker, subformulas(), visits every kind of formula.
"""

from __future__ import annotations

import itertools
import weakref
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set,
    Tuple, Union,
)


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

    def domain(self) -> Optional[Tuple[Value, ...]]:
        """Every value of a finite attribute, unset first; None for a
        numeric one."""
        if self.kind == BOOLEAN:
            return (BOTTOM, False, True)
        if self.kind == ENUM:
            return (BOTTOM, *self.symbols)
        return None


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

# The hash-consing table, (class, *fields) -> weak reference to the node.
# A dead node's entry stays until a purge, and a lookup that finds it
# builds the node again under the same key. Node.__new__ purges the
# table once it has grown by half since the last purge, and never below
# _PURGE_FLOOR entries, so a purge costs a constant per entry added. A
# dead entry's key keeps the node's children alive, so the table can
# hold half again the nodes live at the last purge; letting it double
# kept about one more synth call's formulas in memory.
_NODES: Dict[tuple, weakref.ref] = {}
_PURGE_FLOOR = 1024
_purge_at = _PURGE_FLOOR


def _purge(nodes=_NODES) -> None:
    """Delete the entries of dead nodes, newest first. Each key is popped
    off the list before the next is read, so deleting a dead parent's
    entry frees the key that held its children, and a child that only
    this key kept alive is dead by the time the pass reaches it."""
    global _purge_at
    keys = list(nodes)
    while keys:
        key = keys.pop()
        if nodes[key]() is None:
            del nodes[key]
    _purge_at = max(_PURGE_FLOOR, len(nodes) * 3 // 2)


class Node:
    """Base of every formula node: `_fields` names its fields, which are
    read-only. Equality and hashing are the object defaults, identity,
    because __new__ returns the live node with the same class and
    fields when there is one. The table holds nodes weakly and drops
    the entries of dead ones when it purges (see _NODES). Node classes
    are final: walks and smart constructors test the exact class."""
    __slots__ = ("__weakref__",)
    _fields: Tuple[str, ...] = ()
    _setters: Tuple[Callable, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the slots' own setters, which Node.__setattr__ does not reach
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __new__(cls, *args):
        key = (cls, *args)
        ref = _NODES.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if len(args) != len(cls._fields):
            raise TypeError("%s takes %d fields, got %d"
                            % (cls.__name__, len(cls._fields), len(args)))
        node = object.__new__(cls)
        for set_field, value in zip(cls._setters, args):
            set_field(node, value)
        _NODES[key] = weakref.ref(node)
        if len(_NODES) > _purge_at:
            _purge()
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


# Smart constructors of control formulas. They live beside the node
# classes so that simplify_policy() can build with them; the encoder
# imports them from here.

def cand(parts: Iterable[ControlFormula]) -> ControlFormula:
    """The conjunction of parts, without Top, repeats or a CAnd part's
    own nesting; CFalse as soon as a part is CFalse."""
    out: List[ControlFormula] = []
    for p in parts:
        kind = type(p)
        if kind is CAnd:
            out.extend(p.args)
        elif kind is Top:
            continue
        elif kind is CFalse:
            return p
        else:
            out.append(p)
    if len(out) == 2:
        a, b = out
        return a if a is b else CAnd((a, b))
    if len(out) > 2:
        out = list(dict.fromkeys(out))
    if not out:
        return Top()
    if len(out) == 1:
        return out[0]
    return CAnd(tuple(out))


def cor(parts: Iterable[ControlFormula]) -> ControlFormula:
    """The disjunction of parts, the dual of cand()."""
    out: List[ControlFormula] = []
    for p in parts:
        kind = type(p)
        if kind is COr:
            out.extend(p.args)
        elif kind is CFalse:
            continue
        elif kind is Top:
            return p
        else:
            out.append(p)
    if len(out) == 2:
        a, b = out
        return a if a is b else COr((a, b))
    if len(out) > 2:
        out = list(dict.fromkeys(out))
    if not out:
        return CFalse()
    if len(out) == 1:
        return out[0]
    return COr(tuple(out))


def cnot(f: ControlFormula) -> ControlFormula:
    kind = type(f)
    if kind is Top:
        return CFalse()
    if kind is CFalse:
        return Top()
    if kind is Not:
        return f.sub
    return Not(f)


def cimplies(a: ControlFormula, b: ControlFormula) -> ControlFormula:
    kind_a, kind_b = type(a), type(b)
    if kind_a is Top:
        return b
    if kind_a is CFalse or kind_b is Top:
        return Top()
    if kind_b is CFalse:
        return cnot(a)
    return CImplies(a, b)


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


def subformulas(f: Node, seen: Optional[Set[Node]] = None) -> Iterator[Node]:
    """Postorder traversal, children before parents, each node once; of
    a node's children the last comes out first. Iterative, so a deep
    formula does not run into the recursion limit: a node's marker, the
    1-tuple (node,), goes on the stack below its children and yields
    the node when it comes off. A walk given `seen` neither yields nor
    enters the nodes in it, and adds the nodes it yields, so walks that
    share the set visit each node once between them."""
    if seen is None:
        seen = set()
    stack: List[object] = [f]
    while stack:
        g = stack.pop()
        if type(g) is tuple:
            g = g[0]
            if g not in seen:
                seen.add(g)
                yield g
        elif g not in seen:
            stack.append((g,))
            stack.extend(children(g))


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
    """Evaluate a target against a request. Unset attributes read as
    bottom. A fold over subformulas()."""
    value: Dict[Node, bool] = {}
    for g in subformulas(f):
        kind = type(g)
        if kind is Atom:
            value[g] = q.get(g.attr, BOTTOM) in g.values
        elif kind is Not:
            value[g] = not value[g.sub]
        elif kind is And:
            value[g] = value[g.left] and value[g.right]
        elif kind is Top:
            value[g] = True
        else:
            raise TypeError("not a target node: %r" % (g,))
    return value[f]


def target_to_control(f: Node) -> ControlFormula:
    """f in the n-ary control form: And becomes CAnd through cand() and
    Not goes through cnot(), so constants fold and conjunctions flatten.
    Top, atoms and control nodes pass through."""
    return targets_to_control([f])[0]


def targets_to_control(fs: Iterable[Node]) -> List[ControlFormula]:
    """target_to_control() of each target, in one fold over subformulas()
    that converts a node the targets share once."""
    control: Dict[Node, ControlFormula] = {}
    seen: Set[Node] = set()
    fs = list(fs)
    for f in fs:
        for g in subformulas(f, seen):
            kind = type(g)
            if kind is And:
                control[g] = cand((control[g.left], control[g.right]))
            elif kind is Not:
                control[g] = cnot(control[g.sub])
            elif kind in TEMPORAL_NODES:
                raise TypeError("not a target node: %r" % (g,))
            else:
                control[g] = g
    return [control[f] for f in fs]


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


# Regions evaluated at once, one bit of a Python int each, so a check's
# memory does not grow with the region count.
CHUNK = 1024


class RegionSet:
    """The representatives of each request attribute's cells. A region takes
    one per attribute, in itertools.product order, which only its methods read."""

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

    def cell_masks(self, start: int, width: int) -> Dict[str, List[int]]:
        """Per attribute, one mask per cell: bit b of mask d is set when
        region start + b takes cell d. An attribute moves to its next cell
        every stride regions, the product of the later attributes' cells."""
        out: Dict[str, List[int]] = {}
        stride = 1
        for d in reversed(self.sig.request_attrs()):
            cells = len(self.reps[d.name])
            masks = out[d.name] = [0] * cells
            b = 0
            while b < width:
                end = min(width, b + stride - (start + b) % stride)
                masks[(start + b) // stride % cells] |= ((1 << (end - b)) - 1) << b
                b = end
            stride *= cells
        return out

    def chunks(self) -> Iterator[Tuple[int, int]]:
        """(start, width) of each run of CHUNK regions, in order."""
        count = self.count()
        for start in range(0, count, CHUNK):
            yield start, min(CHUNK, count - start)


def lowest_bit(mask: int) -> int:
    """The index of the lowest set bit of a non-zero mask."""
    return (mask & -mask).bit_length() - 1


def target_masks(roots: Iterable[Formula], regions: RegionSet, start: int,
                 width: int) -> Dict[Formula, int]:
    """A mask per node of the given targets: bit b is set when the node
    holds at region start + b. Top is the full mask and CFalse the empty
    one, an atom the union of the masks of its attribute's cells it holds
    in, Not, And, CAnd and COr bitwise operations, so a control formula
    over request attributes reads as the target it denotes. A fold over
    subformulas() of each distinct root."""
    full = (1 << width) - 1
    cells = regions.cell_masks(start, width)
    masks: Dict[Formula, int] = {}
    for root in dict.fromkeys(roots):
        if root in masks:
            continue
        for g in subformulas(root):
            if g in masks:
                continue
            kind = type(g)
            if kind is Atom:
                x = 0
                if g.attr in cells:
                    for mask, v in zip(cells[g.attr], regions.reps[g.attr]):
                        if v in g.values:
                            x |= mask
                elif BOTTOM in g.values:    # no request attribute: unset
                    x = full
            elif kind is Not:
                x = full ^ masks[g.sub]
            elif kind is And:
                x = masks[g.left] & masks[g.right]
            elif kind is Top:
                x = full
            elif kind is CAnd:
                x = full
                for a in g.args:
                    x &= masks[a]
            elif kind is COr:
                x = 0
                for a in g.args:
                    x |= masks[a]
            elif kind is CFalse:
                x = 0
            else:
                raise TypeError("not a target node: %r" % (g,))
            masks[g] = x
    return masks


def refine(mask: int, splitters: Iterable[int]) -> List[int]:
    """The regions of `mask` in classes that no splitter mask tells
    apart, one mask each, ordered by their lowest region."""
    parts = [mask] if mask else []
    for s in dict.fromkeys(splitters):
        parts = [p for part in parts for p in (part & s, part & ~s) if p]
    return sorted(parts, key=lowest_bit)


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
    cells: Dict[Tuple[bool, ...], Value] = {}
    for v in d.domain() or (BOTTOM, *interval_ends(sets)):
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
    for start, width in regions.chunks():
        mask = target_masks([t], regions, start, width)[t]
        if mask:
            return regions.representative(start + lowest_bit(mask))
    return None


def target_equiv(t1: Formula, t2: Formula, sig: AttributeSignature) -> bool:
    """Do two targets grant exactly the same requests?"""
    regions = build_regions(sig, collect_atoms(t1) + collect_atoms(t2))
    for start, width in regions.chunks():
        masks = target_masks([t1, t2], regions, start, width)
        if masks[t1] != masks[t2]:
            return False
    return True


class SynthesisError(RuntimeError):
    """A soundness check failed: synthesis produced a policy or a
    configuration that does not do what it was built to do."""


def simplify_policy(f: Node, sig: AttributeSignature) -> Formula:
    """Equivalent but smaller form of a policy, given as a target or as a
    control formula over request attributes, such as a symbolic policy
    after assign_controls().

    Three folds over subformulas(). target_to_control() brings f to the
    n-ary form. One rebuild through cand() and cnot() then decides the
    tests of no value or of a finite attribute's every value, and merges
    each conjunction's tests on one attribute. The last fold reads the
    result back as a target: a conjunction as left-associated And in
    first-occurrence order, CFalse as falsum(). The result is checked to
    grant exactly the requests f grants; a mismatch raises SynthesisError.
    """
    control = target_to_control(f)
    simple: Dict[Node, ControlFormula] = {}
    for g in subformulas(control):
        kind = type(g)
        if kind is Not:
            simple[g] = cnot(simple[g.sub])
            continue
        if kind is Top or kind is CFalse:
            simple[g] = g
            continue
        if kind is not Atom and kind is not CAnd and kind is not COr:
            raise TypeError("not a policy node: %r" % (g,))
        # An atom is a conjunction of one part, and a disjunction the
        # negated conjunction of its negated parts. The positive tests on
        # one attribute meet, the negated ones join, and the positive test
        # absorbs the negated one; each merged test takes the place of the
        # first of its kind, and the other parts keep theirs.
        negate = kind is COr
        conjunction = g if kind is Atom else cand(
            [cnot(simple[a]) if negate else simple[a] for a in g.args])
        tests: Dict[object, Optional[ValueSet]] = {}
        for p in conjunction.args if type(conjunction) is CAnd else (conjunction,):
            if type(p) is Atom:
                key = (p.attr, True)
                tests[key] = tests[key] & p.values if key in tests else p.values
            elif type(p) is Not and type(p.sub) is Atom:
                key = (p.sub.attr, False)
                tests[key] = tests[key] | p.sub.values if key in tests else p.sub.values
            else:
                tests[p] = None
        parts: List[ControlFormula] = []
        for key, values in tests.items():
            if values is None:
                parts.append(key)
                continue
            attr, positive = key
            if positive and (attr, False) in tests:
                values = values - tests[attr, False]
            elif not positive and (attr, True) in tests:
                continue
            domain = sig.get(attr).domain()
            test = (CFalse() if not values
                    else Top() if domain is not None and values >= frozenset(domain)
                    else Atom(attr, values))
            parts.append(test if positive else cnot(test))
        out = cand(parts)
        simple[g] = cnot(out) if negate else out
    out = simple[control]
    target: Dict[Node, Formula] = {}
    for g in subformulas(out):
        kind = type(g)
        target[g] = (conj([target[a] for a in g.args]) if kind is CAnd
                     else Not(target[g.sub]) if kind is Not
                     else falsum() if kind is CFalse else g)
    out = target[out]
    if not target_equiv(f, out, sig):
        raise SynthesisError("simplification changed the policy %r into %r" % (f, out))
    return out
