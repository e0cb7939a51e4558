"""Configuration templates: parametric families of per-edge policies.

A template fixes, for every controlled edge, a space of candidate
policies addressed by finite-domain control variables. Synthesis then
searches for one control assignment whose derived configuration makes
all requirements hold.

Four families are provided. A menu template picks each edge's policy
from an explicit candidate list. A singleton template wraps one known
configuration (used to verify or to re-encode an existing policy set)
as a menu of one entry per edge; an edge with one candidate has no
control variable. A clause template builds policies as a disjunction
of up to k clauses, each a conjunction of up to k attribute tests,
with equality and disequality on finite attributes (the unset value is
a first-class candidate) and interval bounds on numeric attributes. A
class template gives every edge one bit per request class; a set bit
denies that class, and one member request stands for each class. It
can express every configuration up to request class, so a failed
search over it refutes them all.

Each template states its policy family once, as the symbolic policy of
every controlled edge. The solver searches that formula, and derive()
reads the configuration off it by substitution: the model decides
every control-variable test, and simplify_policy() reads what is left,
a control formula over request attributes, as a simplified target.
Menus return their picked entries as they are.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from .formulas import (
    NUMERIC, AccessRequest, Atom, AttributeSignature, ControlFormula, CVarEq,
    Formula, IntervalSet, Not, Requirement, Top, ValueSet, build_regions, cand,
    cnot, collect_atoms, conj, cor, interval_ends, lowest_bit, refine,
    simplify_policy, target_equiv, target_masks, target_to_control,
    targets_to_control, validate_target,
)
from .model import Configuration, Edge, ResourceStructure
from .encoder import ControlAssignment, ControlVar, assign_controls, var_bits

class Template:
    """Shared behaviour: fixed edges always expand to their fixed policy,
    each controlled edge's symbolic policy is built once, and a control
    assignment derives the configuration by substitution."""

    def __init__(self, S: ResourceStructure):
        self.S = S
        self._policies: Dict[Edge, ControlFormula] = {}

    @property
    def sig(self) -> AttributeSignature:
        return self.S.sig

    def edges(self) -> List[Edge]:
        return self.S.controlled_edges()

    def control_vars(self) -> List[ControlVar]:
        raise NotImplementedError

    def edge_policy_formula(self, e: Edge) -> ControlFormula:
        fixed = self.S.edges.get(e)
        if fixed is not None:
            return target_to_control(fixed)
        if e not in self.S.edges:
            raise KeyError("unknown edge %r" % (e,))
        policy = self._policies.get(e)
        if policy is None:
            policy = self._policies[e] = self._controlled_policy(e)
        return policy

    def _controlled_policy(self, e: Edge) -> ControlFormula:
        raise NotImplementedError

    def derive(self, m: ControlAssignment) -> Configuration:
        """Each controlled edge's symbolic policy with m substituted for
        the control variables: what is left tests request attributes
        only, and simplify_policy() reads it as a simplified target."""
        return {e: simplify_policy(assign_controls(self.edge_policy_formula(e), m), self.sig)
                for e in self.edges()}

    def bit_count(self) -> int:
        return sum(var_bits(v.size) for v in self.control_vars())

    def describe(self) -> Dict[str, object]:
        return {
            "kind": type(self).__name__,
            "edges": len(self.edges()),
            "control_vars": len(self.control_vars()),
            "bits": self.bit_count(),
        }


class MenuTemplate(Template):
    """Per-edge choice from an explicit list of candidate policies. An
    edge with one candidate needs no choice, so it has no control
    variable."""

    def __init__(self, S: ResourceStructure, menus: Dict[Edge, Sequence[Formula]]):
        super().__init__(S)
        self.menus: Dict[Edge, List[Formula]] = {}
        self._var_of: Dict[Edge, ControlVar] = {}
        for i, e in enumerate(S.controlled_edges()):
            if e not in menus or not menus[e]:
                raise ValueError("menu missing for edge %s->%s" % e)
            for t in menus[e]:
                validate_target(t, S.sig)
            self.menus[e] = list(menus[e])
            if len(self.menus[e]) > 1:
                self._var_of[e] = ControlVar("choice_%d" % i, len(self.menus[e]))

    def control_vars(self) -> List[ControlVar]:
        return list(self._var_of.values())

    def var_for(self, e: Edge) -> ControlVar:
        return self._var_of[e]

    def _controlled_policy(self, e: Edge) -> ControlFormula:
        v = self._var_of.get(e)
        if v is None:
            return target_to_control(self.menus[e][0])
        return cor([cand([CVarEq(v.name, i), target_to_control(t)])
                    for i, t in enumerate(self.menus[e])])

    def derive(self, m: ControlAssignment) -> Configuration:
        """The picked menu entries as they are."""
        out: Configuration = {}
        for e, menu in self.menus.items():
            v = self._var_of.get(e)
            idx = 0 if v is None else m.get(v.name, 0)
            if not 0 <= idx < len(menu):
                raise ValueError("menu index %d out of range for edge %s->%s"
                                 % (idx, e[0], e[1]))
            out[e] = menu[idx]
        return out

    def count_configurations(self) -> int:
        return math.prod(len(menu) for menu in self.menus.values())

    def describe(self) -> Dict[str, object]:
        d = super().describe()
        d["configurations"] = self.count_configurations()
        return d


class SingletonTemplate(MenuTemplate):
    """Exactly one candidate configuration: a one-entry menu per edge."""

    def __init__(self, S: ResourceStructure, config: Configuration):
        super().__init__(S, {e: [t] for e, t in config.items()})


class DnfTemplate(Template):
    """Policies shaped as up to k clauses of up to k attribute tests.

    A disabled clause contributes nothing; a disabled test restricts
    nothing, so an enabled clause with every test disabled is the
    always-grant policy, and a configuration with every clause disabled
    is the always-deny policy. Finite attributes are tested with = or
    != against any domain value including the unset value. Numeric
    attributes are tested with an interval: the lower bound is chosen
    from the candidate minima, the upper bound from the candidate
    maxima or unbounded. Unbounded intervals admit the unset value,
    bounded ones do not, matching how the comparison shorthands treat
    missing attributes. With no request attribute to test, a clause is
    its on bit alone.

    Each edge's policy is built once, and each control variable is
    declared where the policy first mentions it: clause by clause, test
    by test. That order is the order the solver decides them in.
    """

    def __init__(self, S: ResourceStructure, k: int,
                 numeric_bounds: Dict[str, Tuple[List[int], List[Optional[int]]]]):
        super().__init__(S)
        if k < 1:
            raise ValueError("clause count must be at least 1")
        self.k = k
        self.numeric_bounds = numeric_bounds
        self.attrs = [d.name for d in S.sig.request_attrs()]
        self._vars: List[ControlVar] = []
        self._names: Dict[Tuple, str] = {}
        for ei, e in enumerate(S.controlled_edges()):
            self._policies[e] = cor([self._clause(ei, j) for j in range(k)])

    def _var(self, name: str, size: int, *key) -> str:
        """Declare the next control variable; _name(*key) finds it again."""
        self._vars.append(ControlVar(name, size))
        self._names[key] = name
        return name

    def _bounds(self, attr: str) -> Tuple[List[int], List[Optional[int]]]:
        lowers, uppers = self.numeric_bounds.get(attr, ([0], [None]))
        return (lowers or [0]), (uppers or [None])

    def control_vars(self) -> List[ControlVar]:
        return list(self._vars)

    def _name(self, *key) -> str:
        return self._names[key]

    # -- symbolic policy ---------------------------------------------------

    def _clause(self, ei: int, j: int) -> ControlFormula:
        on = self._var("cl_%d_%d" % (ei, j), 2, "clause", ei, j)
        tests = range(self.k) if self.attrs else ()
        return cand([CVarEq(on, 1)] + [self._test(ei, j, t) for t in tests])

    def _test(self, ei: int, j: int, t: int) -> ControlFormula:
        base = "t_%d_%d_%d" % (ei, j, t)
        use = self._var(base + "_use", 2, "use", ei, j, t)
        which = self._var(base + "_attr", len(self.attrs), "attr", ei, j, t)
        picked = cor([cand([CVarEq(which, ai), self._test_formula(base, ei, j, t, a)])
                      for ai, a in enumerate(self.attrs)])
        return cor([CVarEq(use, 0), cand([CVarEq(use, 1), picked])])

    def _test_formula(self, base: str, ei: int, j: int, t: int, attr: str) -> ControlFormula:
        key = (ei, j, t, attr)
        if self.sig.get(attr).kind == NUMERIC:
            lowers, uppers = self._bounds(attr)
            lo_var = self._var("%s_%s_lo" % (base, attr), len(lowers), "lo", *key)
            hi_var = self._var("%s_%s_hi" % (base, attr), len(uppers), "hi", *key)
            lo_part = cor([cand([CVarEq(lo_var, i),
                                 cnot(Atom(attr, IntervalSet([(0, lo - 1)]))) if lo > 0
                                 else Top()]) for i, lo in enumerate(lowers)])
            hi_part = cor([cand([CVarEq(hi_var, i),
                                 Atom(attr, IntervalSet([(0, hi)])) if hi is not None
                                 else Top()]) for i, hi in enumerate(uppers)])
            return cand([lo_part, hi_part])
        dom = self.sig.get(attr).domain()
        op_var = self._var("%s_%s_op" % (base, attr), 2, "op", *key)
        val_var = self._var("%s_%s_val" % (base, attr), len(dom), "val", *key)
        cases = []
        for i, v in enumerate(dom):
            atom = Atom(attr, frozenset([v]))
            cases.append(cand([CVarEq(val_var, i),
                               cor([cand([CVarEq(op_var, 0), atom]),
                                    cand([CVarEq(op_var, 1), cnot(atom)])])]))
        return cor(cases)

    def describe(self) -> Dict[str, object]:
        d = super().describe()
        d["clauses"] = self.k
        return d


def interval_candidates(sig: AttributeSignature, reqs: Sequence[Requirement]
                        ) -> Dict[str, Tuple[List[int], List[Optional[int]]]]:
    """Interval bound candidates for each numeric request attribute, read
    off the interval ends of the sets the requirement targets test it
    against: each end is a lower bound, each end after 0, less one, is an
    upper bound, and None is the missing upper bound."""
    sets: Dict[str, List[ValueSet]] = {}
    for r in reqs:
        for a in collect_atoms(r.target):
            sets.setdefault(a.attr, []).append(a.values)
    out: Dict[str, Tuple[List[int], List[Optional[int]]]] = {}
    for d in sig.request_attrs():
        if d.kind == NUMERIC:
            ends = interval_ends(sets.get(d.name, ()))
            out[d.name] = (ends, [end - 1 for end in ends[1:]] + [None])
    return out


def dnf_template(S: ResourceStructure, reqs: Sequence[Requirement], k: int) -> DnfTemplate:
    return DnfTemplate(S, k, interval_candidates(S.sig, reqs))


class ClassTemplate(Template):
    """One bit per controlled edge and request class; a set bit denies
    its class. An edge's policy is the conjunction over the classes of
    "bit clear, or the request is not in the class", so the policy an
    assignment derives conjoins the negated classes of its set bits.

    Requests in one class satisfy the same requirement targets and the
    same fixed-edge policies, so they face the same constraints on the
    same structure. Any configuration therefore does, class by class,
    what some configuration of this family does: the one that denies a
    class exactly where the given one denies a member of it. The
    all-zero assignment grants everyone everywhere.

    members holds one request of each class, in the order of classes. At
    a member every class test is constant, so a door's policy there is
    its one bit of the member's class: class_bits(c) are those bits, in
    door order.
    """

    def __init__(self, S: ResourceStructure, classes: Sequence[Formula],
                 members: Sequence[AccessRequest]):
        super().__init__(S)
        self.classes = list(classes)
        self.members = list(members)
        self._outside = [cnot(c) for c in targets_to_control(self.classes)]
        self._bits: Dict[Edge, List[ControlVar]] = {
            e: [ControlVar("deny_%d_%d" % (ei, ci), 2)
                for ci in range(len(self.classes))]
            for ei, e in enumerate(S.controlled_edges())}

    def control_vars(self) -> List[ControlVar]:
        return [v for bits in self._bits.values() for v in bits]

    def class_bits(self, c: int) -> Dict[Edge, ControlVar]:
        return {e: bits[c] for e, bits in self._bits.items()}

    def _controlled_policy(self, e: Edge) -> ControlFormula:
        return cand([cor([CVarEq(v.name, 0), outside])
                     for v, outside in zip(self._bits[e], self._outside)])

    def describe(self) -> Dict[str, object]:
        d = super().describe()
        d["classes"] = len(self.classes)
        return d


class CapExceeded(Exception):
    """The complete template would need more request classes than allowed."""

    def __init__(self, needed: int, cap: int):
        super().__init__("complete template needs at least %d request classes, "
                         "cap is %d" % (needed, cap))
        self.needed = needed
        self.cap = cap


def complete_template(S: ResourceStructure, reqs: Sequence[Requirement],
                      cap: int = 4096) -> ClassTemplate:
    """The class template over every non-empty request class.

    Requests are split by the requirement targets and by every fixed-edge
    policy that does not grant everyone, since the structure a request
    sees depends on those too. Each distinct vector of verdicts over
    these splitters among the region representatives is one class, whose
    target conjoins each splitter or its negation, in the order of the
    first region in it; that region's representative is the class's
    member. More than cap classes raise CapExceeded.
    """
    splitters = [r.target for r in reqs] + [
        S.edges[e] for e in S.fixed_edges()
        if not target_equiv(S.edges[e], Top(), S.sig)]
    atoms = [a for t in splitters for a in collect_atoms(t)]
    regions = build_regions(S.sig, atoms)
    classes: Dict[Tuple[bool, ...], Formula] = {}
    members: List[AccessRequest] = []
    for start, width in regions.chunks():
        masks = target_masks(splitters, regions, start, width)
        split = [masks[t] for t in splitters]
        for group in refine((1 << width) - 1, split):
            first = group & -group
            verdicts = tuple(bool(m & first) for m in split)
            if verdicts in classes:
                continue
            if len(classes) == cap:
                raise CapExceeded(cap + 1, cap)
            classes[verdicts] = conj([t if v else Not(t)
                                      for t, v in zip(splitters, verdicts)])
            members.append(regions.representative(start + lowest_bit(group)))
    return ClassTemplate(S, list(classes.values()), members)
