"""Constraint encoding of requirements over configuration templates.

encode() rewrites a requirement into a formula over *edge guards*:
placeholders for "the policy of this edge grants the request". A
template then expands each guard into its symbolic policy over control
variables, ground_forall() instantiates the request attributes with
representatives of request regions, and the result is a pure
control-variable formula that a solver can search for a model of.
Synthesis grounds counterexample-guided: it instantiates only the
requests that counterexample() returns, each one where the current
model fails, while ground_forall() over every region stays the
reference and the source of grounded scripts. Expansion, grounding and
evaluation are one walk, substitute(), which rebuilds a formula with
its leaves replaced. The check rebuilds nothing: synthesis compiles
each expanded formula once into a flat postorder array (Compiled), and
every check runs a three-valued pass under the model over it, then
evaluates what is still unknown on a chunk of regions at once, one bit
per region. One printer, _sexp(), renders control formulas as SMT-LIB
terms for both script forms. Both
forms print each shared connective once: grounded scripts bind it with
define-fun, quantified ones with let inside the quantifier, because
there it mentions the request variables. Numeric attribute tests print
as bounds read off the intervals of their IntervalSet.

The built-in solver, sat_solve(), translates control formulas to
clauses (Tseitin) and searches them with conflict learning. Its store,
_Cnf, lasts as long as its caller keeps it: synthesis keeps one per
template attempt, so each grounding iteration translates only the nodes
its new instance adds and searches again from the clauses, learned
clauses and watches already there. Decisions follow the control bits in
declaration order, 0 first, so every answer is the least model of what
the store holds, the one a fresh store would find.

Control formulas use the node classes of formulas, Top, Atom and Not
included, so a policy's tests enter them as they are. Nodes are
hash-consed: an equal node is the same object, memo tables key on nodes
directly, and each edge has one live guard without a cache of its own.
Walks over them are formulas.subformulas(); this module keeps only the
smart constructors, the rewrite, substitute(), the compiled check, the
solver and the SMT-LIB printer.

Both untils share one unrolling over simple paths. A space where the
right side holds outright settles the until as true, and one where the
left side fails outright settles it as the right side's rewrite; the
unrolling stops there. Elsewhere it steps to every successor not yet
visited, through some open door (E) or every open door (A); a door
back into a visited space is dropped by E and must be shut under A. So
its result at a space reads the visited set only through membership
tests on the successors of the unsettled spaces it can still reach
without re-entering that set. Its memo therefore keys on those visited
spaces, the frontier, rather than on the whole set: paths that reach a
space with the same frontier share one node, which keyed on the whole
set was built again under every set. The formula is the same either
way, with far fewer subproblems solved, though the number of frontiers
still grows exponentially with a grid's size.

For the existential until the unrolling is exact on every structure.
For the universal until it agrees with the checker on structures whose
restriction keeps at least one outgoing edge per space, which is why
synthesis injects the deadlock-freeness requirement whenever a
universal until appears. That requirement exempts the entry, so
encode() decides such a constraint on the entry alone when every
door out of the entry is shut.
"""

from __future__ import annotations

import functools
import re
import shlex
import subprocess
import tempfile
import time
import os
from operator import itemgetter
from dataclasses import dataclass
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple,
)

from .formulas import (
    AU, AX, BOTTOM, BOOLEAN, EU, EX, NUMERIC, AccessRequest, And, Atom,
    AttributeSignature, CAnd, CFalse, CGuard, CImplies, COr, ControlFormula,
    CVarEq, Formula, Not, Requirement, Top, Value, build_regions, children,
    collect_atoms, conj, contains_au, disj, falsum, intervals_of, subformulas,
)
from .checker import model_check
from .model import Edge, ResourceStructure


# ---------------------------------------------------------------------------
# Control formulas
# ---------------------------------------------------------------------------

# Top, Atom and Not under their control-formula names, kept for callers.
CTrue, CAtom, CNot = Top, Atom, Not


def cand(parts: Iterable[ControlFormula]) -> ControlFormula:
    out: List[ControlFormula] = []
    seen: Set[ControlFormula] = set()
    for p in parts:
        if isinstance(p, Top):
            continue
        if isinstance(p, CFalse):
            return CFalse()
        for item in (p.args if isinstance(p, CAnd) else (p,)):
            if item not in seen:
                seen.add(item)
                out.append(item)
    if not out:
        return Top()
    if len(out) == 1:
        return out[0]
    return CAnd(tuple(out))


def cor(parts: Iterable[ControlFormula]) -> ControlFormula:
    out: List[ControlFormula] = []
    seen: Set[ControlFormula] = set()
    for p in parts:
        if isinstance(p, CFalse):
            continue
        if isinstance(p, Top):
            return Top()
        for item in (p.args if isinstance(p, COr) else (p,)):
            if item not in seen:
                seen.add(item)
                out.append(item)
    if not out:
        return CFalse()
    if len(out) == 1:
        return out[0]
    return COr(tuple(out))


def cnot(f: ControlFormula) -> ControlFormula:
    if isinstance(f, Top):
        return CFalse()
    if isinstance(f, CFalse):
        return Top()
    if isinstance(f, Not):
        return f.sub
    return Not(f)


def cimplies(a: ControlFormula, b: ControlFormula) -> ControlFormula:
    if isinstance(a, Top):
        return b
    if isinstance(a, CFalse) or isinstance(b, Top):
        return Top()
    if isinstance(b, CFalse):
        return cnot(a)
    return CImplies(a, b)


def formula_size(f: ControlFormula) -> int:
    """Number of distinct subterms."""
    return sum(1 for _ in subformulas(f))


def formula_edges(f: ControlFormula) -> int:
    """Sum of the arities of the distinct subterms: the edges of the
    DAG, which Tseitin clauses follow."""
    return sum(len(children(g)) for g in subformulas(f))


def target_to_control(t: Formula) -> ControlFormula:
    if isinstance(t, (Top, Atom)):
        return t
    if isinstance(t, Not):
        return cnot(target_to_control(t.sub))
    if isinstance(t, And):
        return cand([target_to_control(t.left), target_to_control(t.right)])
    raise TypeError("not a target node: %r" % (t,))


def control_to_target(f: ControlFormula) -> Formula:
    """The target a control formula over request attributes only denotes,
    such as a symbolic policy after assign_controls(): conjunctions
    become left-associated And, disjunctions left-folded disj."""
    if isinstance(f, (Top, Atom)):
        return f
    if isinstance(f, CFalse):
        return falsum()
    if isinstance(f, Not):
        return Not(control_to_target(f.sub))
    if isinstance(f, CAnd):
        return conj([control_to_target(a) for a in f.args])
    if isinstance(f, COr):
        return functools.reduce(disj, [control_to_target(a) for a in f.args])
    raise TypeError("not a formula over request attributes: %r" % (f,))


def cguard(edge: Edge) -> CGuard:
    """The guard of this edge (nodes are hash-consed, so it is the one
    live guard of the edge)."""
    return CGuard(edge)


# ---------------------------------------------------------------------------
# The rewrite
# ---------------------------------------------------------------------------

def encode(S: ResourceStructure, req: Requirement) -> ControlFormula:
    """Rewrite one requirement into a guard formula: target implies the
    constraint's encoding at the entry.

    A constraint with a universal until is decided on the entry alone
    when every door out of the entry is shut: the until rewrite would
    read that dead end vacuously, and deadlock freeness exempts it."""
    body = rewrite_constraint(S, req.constraint, S.entry)
    if contains_au(req.constraint):
        live = cor([cguard((S.entry, s)) for s in S.successors(S.entry)])
        alone = ResourceStructure(S.sig, S.entry, {S.entry: S.labels[S.entry]}, {})
        if model_check(alone, req.constraint):
            body = cor([cnot(live), body])
        else:
            body = cand([live, body])
    return cimplies(target_to_control(req.target), body)


def rewrite_constraint(S: ResourceStructure, phi: Formula, start: str) -> ControlFormula:
    """Rewrite one constraint at one space into a formula over edge
    guards. Untils unroll over simple paths; repeated subproblems are
    shared, so the result is a compact DAG."""
    memo: Dict[Tuple[Formula, str], ControlFormula] = {}
    memo_u: Dict[Tuple[Formula, str, FrozenSet[str]], ControlFormula] = {}
    decided: Dict[Formula, Dict[str, Optional[ControlFormula]]] = {}
    guard = {e: cguard(e) for e in S.edges}     # held while the rewrite runs

    def resource_atom(a: Atom, r: str) -> ControlFormula:
        v = S.labels[r].get(a.attr, BOTTOM)
        return Top() if v in a.values else CFalse()

    def tau(f: Formula, r: str) -> ControlFormula:
        key = (f, r)
        got = memo.get(key)
        if got is not None:
            return got
        if isinstance(f, Top):
            out: ControlFormula = Top()
        elif isinstance(f, Atom):
            out = resource_atom(f, r)
        elif isinstance(f, Not):
            out = cnot(tau(f.sub, r))
        elif isinstance(f, And):
            out = cand([tau(f.left, r), tau(f.right, r)])
        elif isinstance(f, EX):
            out = cor([cand([guard[(r, s)], tau(f.sub, s)])
                       for s in S.successors(r)])
        elif isinstance(f, AX):
            out = cand([cimplies(guard[(r, s)], tau(f.sub, s))
                        for s in S.successors(r)])
        elif isinstance(f, (EU, AU)):
            out = tau_until(f, r, frozenset())
        else:
            raise TypeError("unknown formula node %r" % (f,))
        memo[key] = out
        return out

    def settled(f: Formula, r: str) -> Optional[ControlFormula]:
        """The until's rewrite at r when r decides it alone: true where
        its right side holds outright, the right side's rewrite where its
        left side fails outright. None where the rewrite steps on."""
        known = decided.setdefault(f, {})
        if r in known:
            return known[r]
        here = tau(f.right, r)
        out = here if isinstance(here, Top) or isinstance(tau(f.left, r), CFalse) else None
        known[r] = out
        return out

    def frontier(f: Formula, r: str, visited: FrozenSet[str]) -> FrozenSet[str]:
        """The visited spaces the rewrite at r still tests: those entered
        from the spaces it can reach without re-entering `visited` and
        without passing a space that settles the until."""
        if not visited:
            return visited
        seen, stack, hit = {r}, [r], []
        while stack:
            for s in S.successors(stack.pop()):
                if s in seen:
                    continue
                seen.add(s)
                if s in visited:
                    hit.append(s)
                elif settled(f, s) is None:
                    stack.append(s)
        return frozenset(hit)

    def tau_until(f: Formula, r: str, visited: FrozenSet[str]) -> ControlFormula:
        """The until f at r over the simple paths that avoid `visited`;
        E and A differ only in how a step combines the successors."""
        out = settled(f, r)
        if out is not None:
            return out
        visited = frontier(f, r, visited)
        key = (f, r, visited)
        got = memo_u.get(key)
        if got is not None:
            return got
        later = visited | {r}
        fresh = [s for s in S.successors(r) if s not in visited]
        if isinstance(f, EU):
            step = cor([cand([guard[(r, s)], tau_until(f, s, later)]) for s in fresh])
        else:
            step = cand([cimplies(guard[(r, s)], tau_until(f, s, later)) for s in fresh]
                        + [cnot(guard[(r, s)]) for s in S.successors(r) if s in visited])
        out = cor([tau(f.right, r), cand([tau(f.left, r), step])])
        memo_u[key] = out
        return out

    return tau(phi, start)


def substitute(f: ControlFormula,
               leaf: Callable[[ControlFormula], ControlFormula]) -> ControlFormula:
    """Rebuild f with every leaf node replaced by leaf(node).

    Connectives are rebuilt through the smart constructors, so constant
    leaves fold away on the way up. Each shared node is visited once.
    """
    memo: Dict[ControlFormula, ControlFormula] = {}

    def walk(g: ControlFormula) -> ControlFormula:
        got = memo.get(g)
        if got is not None:
            return got
        kind = type(g)      # node classes are final; this is the hot loop of grounding
        if kind is CAnd:
            out = cand([walk(a) for a in g.args])
        elif kind is COr:
            out = cor([walk(a) for a in g.args])
        elif kind is Not:
            out = cnot(walk(g.sub))
        elif kind is CImplies:
            out = cimplies(walk(g.left), walk(g.right))
        else:
            out = leaf(g)
        memo[g] = out
        return out

    return walk(f)


def expand_guards(f: ControlFormula, template) -> ControlFormula:
    """Replace every edge guard by the template's symbolic policy for
    that edge (fixed edges expand to their fixed policy)."""
    def leaf(g: ControlFormula) -> ControlFormula:
        return template.edge_policy_formula(g.edge) if isinstance(g, CGuard) else g

    return substitute(f, leaf)


def fold_atoms(f: ControlFormula, q: AccessRequest) -> ControlFormula:
    """Decide every attribute test under the request q."""
    def leaf(g: ControlFormula) -> ControlFormula:
        if isinstance(g, Atom):
            return Top() if q.get(g.attr, BOTTOM) in g.values else CFalse()
        return g

    return substitute(f, leaf)


def request_regions(f: ControlFormula, sig: AttributeSignature) -> List[AccessRequest]:
    """One representative request per region of the attribute tests
    appearing in f, in build_regions order."""
    return list(build_regions(sig, collect_atoms(f)).representatives())


def ground_forall(f: ControlFormula, sig: AttributeSignature,
                  requests: Optional[Sequence[AccessRequest]] = None) -> ControlFormula:
    """Universal closure over requests, by explicit instantiation: one
    instance per given request, folded instances deduplicated. With no
    requests, one instance per region representative: the full
    grounding, which is exactly the universal closure. Synthesis grounds
    only the requests its counterexample loop picks; the full grounding
    stays the reference for it and the source of grounded scripts."""
    if requests is None:
        requests = request_regions(f, sig)
    instances: List[ControlFormula] = []
    seen: Set[ControlFormula] = set()
    for q in requests:
        inst = fold_atoms(f, q)
        if isinstance(inst, Top) or inst in seen:
            continue
        if isinstance(inst, CFalse):
            return CFalse()
        seen.add(inst)
        instances.append(inst)
    return cand(instances)


def assign_controls(f: ControlFormula, m: Dict[str, int]) -> ControlFormula:
    """Decide every control-variable test under the assignment m (unset
    variables are 0). What is left tests request attributes only."""
    def leaf(g: ControlFormula) -> ControlFormula:
        if isinstance(g, CVarEq):
            return Top() if m.get(g.var, 0) == g.value else CFalse()
        if isinstance(g, CGuard):
            raise TypeError("guard left unexpanded: %r" % (g,))
        return g

    return substitute(f, leaf)


# Op codes of the nodes of a Compiled formula.
_TRUE, _FALSE, _ATOM, _TEST, _NOT, _AND, _OR, _IMPLIES = range(8)
_OPS = {Top: _TRUE, CFalse: _FALSE, Atom: _ATOM, CVarEq: _TEST, Not: _NOT,
        CAnd: _AND, COr: _OR, CImplies: _IMPLIES}

# Regions that counterexample() evaluates at once, one bit of a Python
# int each, so a check's memory does not grow with the region count.
CHUNK = 1024


class Compiled:
    """A control formula compiled once for many counterexample checks: a
    flat postorder array, children before parents and the root last.
    Node i is nodes[i], with op code ops[i] and child indices kids[i].
    The three-valued pass reads leaves (the value of each constant leaf,
    None elsewhere), tests (i, variable, value) and connectives (i, op,
    pick), where pick takes the children's values from the value list.
    atoms are the attribute tests."""

    __slots__ = ("nodes", "ops", "kids", "leaves", "tests", "connectives", "atoms")

    def __init__(self, f: ControlFormula):
        self.nodes: List[ControlFormula] = []
        self.ops: List[int] = []
        self.kids: List[Tuple[int, ...]] = []
        self.leaves: List[Optional[bool]] = []
        self.tests: List[Tuple[int, str, int]] = []
        self.connectives: List[Tuple[int, int, Callable]] = []
        index: Dict[ControlFormula, int] = {}
        at = index.__getitem__
        for i, g in enumerate(subformulas(f)):
            op = _OPS.get(type(g))
            if op is None:
                raise TypeError("not an expanded control formula: %r" % (g,))
            ks = tuple(map(at, children(g)))
            index[g] = i
            self.nodes.append(g)
            self.ops.append(op)
            self.kids.append(ks)
            self.leaves.append(True if op == _TRUE else False if op == _FALSE else None)
            if op == _TEST:
                self.tests.append((i, g.var, g.value))
            elif ks:
                self.connectives.append((i, op, itemgetter(*ks)))
        self.atoms = [g for g, op in zip(self.nodes, self.ops) if op == _ATOM]


def _kleene(c: Compiled, m: Dict[str, int]) -> List[Optional[bool]]:
    """Each node's value under the control assignment m (unset variables
    are 0): True, False, or None while it still depends on the request.
    Kleene's strong connectives fold constants exactly as cand, cor,
    cnot and cimplies do, so the unknown nodes that the root reaches
    through unknown nodes are the residue assign_controls() builds."""
    val = c.leaves[:]
    get = m.get
    for i, var, value in c.tests:
        val[i] = get(var, 0) == value
    for i, op, pick in c.connectives:
        vs = pick(val)
        if op == _AND:
            val[i] = False if False in vs else None if None in vs else True
        elif op == _OR:
            val[i] = True if True in vs else None if None in vs else False
        elif op == _NOT:
            val[i] = None if vs is None else not vs
        else:
            a, b = vs
            val[i] = (True if a is False or b is True
                      else None if a is None or b is None else False)
    return val


def _cell_masks(cells: int, stride: int, start: int, width: int) -> List[int]:
    """Bit b of mask d is set when region start + b takes cell d of an
    attribute with this many cells. Regions run in itertools.product
    order, so the attribute moves to its next cell every stride regions."""
    masks = [0] * cells
    b = 0
    while b < width:
        p = start + b
        end = min(width, b + stride - p % stride)
        masks[p // stride % cells] |= ((1 << (end - b)) - 1) << b
        b = end
    return masks


def counterexample(c: Compiled, m: Dict[str, int],
                   sig: AttributeSignature) -> Optional[AccessRequest]:
    """A request at which the control assignment m does not make the
    compiled formula true, or None when it holds at every request.

    The answer is the first region representative, in build_regions
    order over the atoms of the residue (the formula with m decided), at
    which the formula is false. A three-valued pass under m marks the
    residue without building it. Its regions are then evaluated CHUNK at
    a time: each residue node gets one bit per region, atoms from the
    cells their regions take, connectives by bitwise operations."""
    val = _kleene(c, m)
    root = len(val) - 1
    if val[root]:
        return None
    # the residue: the unknown nodes the root reaches through unknown nodes
    live = {root} if val[root] is None else set()
    stack = list(live)
    while stack:
        for k in c.kids[stack.pop()]:
            if val[k] is None and k not in live:
                live.add(k)
                stack.append(k)
    residue = sorted(live)
    regions = build_regions(sig, [c.nodes[i] for i in residue if c.ops[i] == _ATOM])
    names = [d.name for d in sig.request_attrs()]
    strides = {}
    stride = 1
    for n in reversed(names):
        strides[n] = stride
        stride *= len(regions.reps[n])
    # the cells of its attribute where each residue atom holds
    holds_in = {}
    for i in residue:
        if c.ops[i] == _ATOM:
            a = c.nodes[i]
            holds_in[i] = [d for d, v in enumerate(regions.reps[a.attr]) if v in a.values]
    count = regions.count()
    for start in range(0, count, CHUNK):
        width = min(CHUNK, count - start)
        full = (1 << width) - 1
        cell_masks = {n: _cell_masks(len(regions.reps[n]), strides[n], start, width)
                      for n in names}
        bits: Dict[int, int] = {}
        for i in residue:
            op = c.ops[i]
            if op == _ATOM:
                masks = cell_masks[c.nodes[i].attr]
                x = 0
                for d in holds_in[i]:
                    x |= masks[d]
            else:
                xs = [bits[k] if val[k] is None else full if val[k] else 0
                      for k in c.kids[i]]
                if op == _AND:
                    x = full
                    for y in xs:
                        x &= y
                elif op == _OR:
                    x = 0
                    for y in xs:
                        x |= y
                elif op == _NOT:
                    x = full ^ xs[0]
                else:
                    x = (full ^ xs[0]) | xs[1]
            bits[i] = x
        failing = full ^ bits.get(root, 0)
        if failing:
            return regions.representative(start + (failing & -failing).bit_length() - 1)
    return None


def eval_formula(f: ControlFormula, q: AccessRequest, m: Dict[str, int],
                 template=None) -> bool:
    """Evaluate under a concrete request and control assignment."""
    if template is not None:
        f = expand_guards(f, template)
    return isinstance(fold_atoms(assign_controls(f, m), q), Top)


# ---------------------------------------------------------------------------
# Control variables and the built-in solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlVar:
    """A finite-domain decision variable, values 0 .. size-1."""
    name: str
    size: int


ControlAssignment = Dict[str, int]


def var_bits(size: int) -> int:
    if size <= 1:
        return 0
    return (size - 1).bit_length()


class SolverError(RuntimeError):
    pass


class _Cnf:
    """The built-in solver's store over one list of control variables,
    kept across calls so that a growing conjunction is translated and
    searched incrementally (MiniSat-style incremental solving, after Eén
    & Sörensson, SAT 2003).

    It holds the problem clauses, the Tseitin memo from formula nodes to
    literals, the control bits in decision order, and the search state:
    watch lists, the assignment and trail, and the learned clauses. The
    clause set only grows and every learned clause is implied by it, so
    a search continued from this state finds what a fresh store would.
    The store also keeps the deadline of its timeout, counted from its
    creation.
    """

    def __init__(self, variables: Sequence[ControlVar], timeout: Optional[float] = None):
        self.variables = list(variables)
        self.timeout = timeout
        self.deadline = None if timeout is None else time.monotonic() + timeout
        self.n_vars = 0
        self.clauses: List[List[int]] = []      # problem clauses, in the order added
        self.attached = 0                        # clauses[:attached] are watched or settled
        self.learned: List[List[int]] = []
        self.ok = True                           # False once the clauses are unsat
        self.watches: Dict[int, List[List[int]]] = {}
        self.assign: List[Optional[bool]] = [None]         # by variable
        self.reason: List[Optional[List[int]]] = [None]
        self.level: List[int] = [0]
        self.trail: List[int] = []               # literals in assignment order
        self.trail_lim: List[int] = []           # trail length at each decision level
        self.memo: Dict[ControlFormula, int] = {}
        self.sizes = {v.name: v.size for v in self.variables}
        self.true_lit = self.fresh()
        self.add([self.true_lit])
        self.bits: Dict[str, List[int]] = {}
        self.decision: List[int] = []
        for v in self.variables:
            b = var_bits(v.size)
            lits = self.bits[v.name] = [self.fresh() for _ in range(b)]
            self.decision.extend(lits)
            for code in range(v.size, 1 << b):
                self.add([-lits[i] if (code >> i) & 1 else lits[i] for i in range(b)])

    def fresh(self) -> int:
        self.n_vars += 1
        return self.n_vars

    def add(self, clause: List[int]):
        self.clauses.append(clause)

    def time_left(self) -> Optional[float]:
        """Seconds to the deadline, None without one; raises SolverError
        once it has passed."""
        if self.deadline is None:
            return None
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise SolverError("solver timed out after %ss" % self.timeout)
        return left

    def literal(self, f: ControlFormula) -> int:
        """The literal standing for f. Every node not yet in the memo gets
        a definitional variable and clauses (Tseitin); nodes translated by
        earlier calls cost a lookup."""
        memo, sizes, bits = self.memo, self.sizes, self.bits
        true_lit, fresh, add = self.true_lit, self.fresh, self.add

        def define_and(lits: List[int]) -> int:
            if not lits:
                return true_lit
            if len(lits) == 1:
                return lits[0]
            x = fresh()
            for lit in lits:
                add([-x, lit])
            add([x] + [-lit for lit in lits])
            return x

        def define_or(lits: List[int]) -> int:
            if not lits:
                return -true_lit
            if len(lits) == 1:
                return lits[0]
            x = fresh()
            for lit in lits:
                add([x, -lit])
            add([-x] + lits)
            return x

        def lit_of(g: ControlFormula) -> int:
            got = memo.get(g)
            if got is not None:
                return got
            if isinstance(g, Top):
                out = true_lit
            elif isinstance(g, CFalse):
                out = -true_lit
            elif isinstance(g, CVarEq):
                if g.var not in sizes:
                    raise SolverError("formula mentions undeclared control variable %r" % g.var)
                if g.value >= sizes[g.var]:
                    out = -true_lit
                else:
                    out = define_and([lit if (g.value >> i) & 1 else -lit
                                      for i, lit in enumerate(bits[g.var])])
            elif isinstance(g, Not):
                out = -lit_of(g.sub)
            elif isinstance(g, CAnd):
                out = define_and([lit_of(a) for a in g.args])
            elif isinstance(g, COr):
                out = define_or([lit_of(a) for a in g.args])
            elif isinstance(g, CImplies):
                out = define_or([-lit_of(g.left), lit_of(g.right)])
            else:
                raise SolverError("cannot solve over unexpanded node %r" % (g,))
            memo[g] = out
            return out

        return lit_of(f)


def _infer_variables(f: ControlFormula) -> List[ControlVar]:
    sizes: Dict[str, int] = {}
    order: List[str] = []
    for g in subformulas(f):
        if isinstance(g, CVarEq):
            if g.var not in sizes:
                order.append(g.var)
                sizes[g.var] = 0
            sizes[g.var] = max(sizes[g.var], g.value + 1)
    return [ControlVar(v, max(sizes[v], 2)) for v in sorted(order)]


def sat_solve(f: ControlFormula,
              variables: Optional[Sequence[ControlVar]] = None,
              counters: Optional[Dict[str, int]] = None,
              cnf: Optional[_Cnf] = None) -> Optional[ControlAssignment]:
    """Complete search for a satisfying control assignment, or None.

    Control variables are binary-encoded; the search branches on their
    bits in declaration order, trying 0 before 1, so the returned model
    is deterministic: the numerically least satisfying assignment.
    Conflict clauses are learned along the way, which prunes refuted
    regions without ever skipping a model, so the answer is the same one
    plain chronological search would find. Definitional variables
    introduced for subformulas are never branched on: once every control
    bit has a value they are forced by propagation.

    With a store `cnf` from earlier calls over the same variables, f is
    asserted on top of what those calls asserted: only its nodes not yet
    translated are, and the search goes on from the store's clauses,
    learned clauses and watches. The answer is then the least model of
    the conjunction of every formula asserted so far, which is f's own
    when f contains them, as the grounding loop's growing conjunction
    does. Without a store, a fresh one solves f from scratch.

    With a counters dict, the store's problem-clause size goes into its
    cnf_vars and cnf_clauses entries, the seconds of translation are
    added to cnf_seconds, and the search adds its decisions, conflicts,
    propagations and learned clauses to theirs.
    """
    if cnf is None:
        cnf = _Cnf(_infer_variables(f) if variables is None else variables)
    elif variables is not None and list(variables) != cnf.variables:
        raise ValueError("the store was made for other control variables")
    t = time.perf_counter()
    cnf.add([cnf.literal(f)])
    if counters is not None:
        counters["cnf_seconds"] = counters.get("cnf_seconds", 0.0) + time.perf_counter() - t
        counters.update(cnf_vars=cnf.n_vars, cnf_clauses=len(cnf.clauses))
    if not _dpll(cnf, cnf.decision, counters):
        return None
    assign = cnf.assign
    return {v.name: sum(1 << i for i, lit in enumerate(cnf.bits[v.name]) if assign[lit])
            for v in cnf.variables}


def _dpll(cnf: _Cnf, decision: List[int],
          counters: Optional[Dict[str, int]] = None) -> bool:
    """Conflict-learning search over the store's clauses, branching on
    the decision literals in order, 0 first; True when it finds a model,
    which is then the store's assignment.

    The search goes on from the store's state: it backtracks to level
    0, settles the clauses added since the last call against the level-0
    facts (a satisfied one needs no watch, a unit one is a new fact, an
    empty one makes the store unsat for good), watches the rest on two
    literals that are not false, and searches again, keeping every
    learned clause. Decisions, conflicts, propagations and learned
    clauses are added to counters, as MiniSat counts them. The store's
    deadline is checked at every conflict and every 256 decisions."""
    count = counters if counters is not None else {}
    for key in ("decisions", "conflicts", "propagations", "learned"):
        count.setdefault(key, 0)
    if not cnf.ok:
        return False
    n = cnf.n_vars
    assign, reason, level = cnf.assign, cnf.reason, cnf.level
    grow = n + 1 - len(assign)
    assign.extend([None] * grow)
    reason.extend([None] * grow)
    level.extend([0] * grow)
    watches = cnf.watches
    trail, trail_lim = cnf.trail, cnf.trail_lim
    qhead = 0                        # trail[:qhead] is propagated

    def watch(lit: int, cl: List[int]):
        watches.setdefault(lit, []).append(cl)

    def value(lit: int) -> Optional[bool]:
        v = assign[abs(lit)]
        if v is None:
            return None
        return v if lit > 0 else not v

    def enqueue(lit: int, why: Optional[List[int]]) -> bool:
        v = value(lit)
        if v is not None:
            return v
        var = abs(lit)
        assign[var] = lit > 0
        reason[var] = why
        level[var] = len(trail_lim)
        trail.append(lit)
        return True

    def attach(cl: List[int]) -> bool:
        """Settle a new clause at level 0, moving two literals that are
        not false to its front and watching them; False if every literal
        is false."""
        k = 0
        for j, lit in enumerate(cl):
            v = value(lit)
            if v is True:
                return True
            if v is None:
                cl[k], cl[j] = cl[j], cl[k]
                k += 1
                if k == 2:
                    break
        if k == 0:
            return False
        if k == 1:
            return enqueue(cl[0], cl)
        watch(cl[0], cl)
        watch(cl[1], cl)
        return True

    def propagate() -> Optional[List[int]]:
        """Exhaust unit propagation; return a falsified clause, if any."""
        nonlocal qhead
        start = qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            falsified = -lit
            watching = watches.get(falsified)
            if not watching:
                continue
            i = 0
            while i < len(watching):
                cl = watching[i]
                # make sure falsified is at position 1
                if cl[0] == falsified:
                    cl[0], cl[1] = cl[1], cl[0]
                if value(cl[0]) is True:
                    i += 1
                    continue
                found = False
                for j in range(2, len(cl)):
                    if value(cl[j]) is not False:
                        cl[1], cl[j] = cl[j], cl[1]
                        watch(cl[1], cl)
                        watching[i] = watching[-1]
                        watching.pop()
                        found = True
                        break
                if found:
                    continue
                if value(cl[0]) is False:
                    count["propagations"] += qhead - start
                    return cl
                enqueue(cl[0], cl)
                i += 1
        count["propagations"] += qhead - start
        return None

    def analyze(confl: List[int]) -> Tuple[List[int], int]:
        """Resolve the conflict back to its first unique implication
        point; returns the learned clause (asserting literal first) and
        the level to jump back to."""
        seen = bytearray(n + 1)
        learned: List[int] = []
        counter = 0
        p: Optional[int] = None
        idx = len(trail) - 1
        cur = len(trail_lim)
        while True:
            for q in confl:
                if p is not None and q == p:
                    continue
                var = abs(q)
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    if level[var] >= cur:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[abs(trail[idx])]:
                idx -= 1
            p = trail[idx]
            var = abs(p)
            seen[var] = 0
            counter -= 1
            idx -= 1
            if counter == 0:
                learned.insert(0, -p)
                break
            confl = reason[var]
        if len(learned) == 1:
            back = 0
        else:
            back = max(level[abs(q)] for q in learned[1:])
            # keep a watch on the backjump level
            for j in range(1, len(learned)):
                if level[abs(learned[j])] == back:
                    learned[1], learned[j] = learned[j], learned[1]
                    break
        return learned, back

    def cancel_until(lvl: int):
        nonlocal qhead
        while len(trail_lim) > lvl:
            mark = trail_lim.pop()
            while len(trail) > mark:
                var = abs(trail.pop())
                assign[var] = None
                reason[var] = None
        qhead = len(trail)

    # every call ends with level 0 propagated, so this sets qhead past it
    cancel_until(0)
    clauses = cnf.clauses
    while cnf.attached < len(clauses):
        cl = clauses[cnf.attached]
        cnf.attached += 1
        if not attach(cl):
            cnf.ok = False
            return False
    di = 0
    while True:
        confl = propagate()
        if confl is not None:
            count["conflicts"] += 1
            if not trail_lim:
                cnf.ok = False
                return False
            cnf.time_left()
            learned, back = analyze(confl)
            cancel_until(back)
            cnf.learned.append(learned)
            count["learned"] += 1
            if len(learned) >= 2:
                watch(learned[0], learned)
                watch(learned[1], learned)
            enqueue(learned[0], learned)    # unassigned after the backjump
            di = 0
            continue
        while di < len(decision) and assign[abs(decision[di])] is not None:
            di += 1
        if di >= len(decision):
            return True
        count["decisions"] += 1
        if not count["decisions"] & 255:
            cnf.time_left()
        trail_lim.append(len(trail))
        enqueue(-decision[di], None)  # try 0 first


# ---------------------------------------------------------------------------
# SMT-LIB emission and external solvers
# ---------------------------------------------------------------------------

def _sexp(f: ControlFormula, atom: Optional[Callable[[Atom], str]] = None,
          names: Optional[Dict[ControlFormula, str]] = None) -> str:
    """The SMT-LIB term for f. `atom` renders attribute tests; without
    it (grounded scripts) they are an error. Subterms listed in `names`
    print as the name they were bound to."""
    names = names or {}

    def term(g: ControlFormula) -> str:
        name = names.get(g)
        if name is not None:
            return name
        if isinstance(g, Top):
            return "true"
        if isinstance(g, CFalse):
            return "false"
        if isinstance(g, CVarEq):
            return "(= %s %d)" % (g.var, g.value)
        if isinstance(g, Atom) and atom is not None:
            return atom(g)
        if isinstance(g, Not):
            return "(not %s)" % term(g.sub)
        if isinstance(g, CAnd):
            return "(and %s)" % " ".join(term(a) for a in g.args)
        if isinstance(g, COr):
            return "(or %s)" % " ".join(term(a) for a in g.args)
        if isinstance(g, CImplies):
            return "(=> %s %s)" % (term(g.left), term(g.right))
        raise ValueError("cannot emit node %r in a grounded script" % (g,))

    return term(f)


def _shared_definitions(f: ControlFormula, atom: Optional[Callable[[Atom], str]] = None
                        ) -> Tuple[List[Tuple[int, str, str]], Dict[ControlFormula, str]]:
    """A name for every connective with two or more parents, so that
    every shared subterm prints once: (level, name, term) triples,
    children before parents, and the names. A term refers only to names
    of lower levels, so the names of one level can be bound together."""
    order = list(subformulas(f))
    parents: Dict[ControlFormula, int] = {}
    for g in order:
        for ch in children(g):
            parents[ch] = parents.get(ch, 0) + 1
    definitions: List[Tuple[int, str, str]] = []
    names: Dict[ControlFormula, str] = {}
    level: Dict[ControlFormula, int] = {}     # highest level a reference needs bound
    for g in order:
        level[g] = max((level[ch] for ch in children(g)), default=0)
        if parents.get(g, 0) >= 2 and children(g):
            name = "_s%d" % len(names)
            level[g] += 1
            definitions.append((level[g], name, _sexp(g, atom, names)))
            names[g] = name
    return definitions, names


class _QuantifiedEmitter:
    def __init__(self, sig: AttributeSignature):
        self.sig = sig

    def sort_name(self, attr: str) -> str:
        return "S_" + attr

    def ctor(self, attr: str, v: Value) -> str:
        if v is BOTTOM:
            return "%s_unset" % attr
        if v is True:
            return "%s_true" % attr
        if v is False:
            return "%s_false" % attr
        return "%s_%s" % (attr, v)

    def declarations(self, attrs: List[str]) -> List[str]:
        lines = []
        for name in attrs:
            decl = self.sig.get(name)
            if decl.kind == NUMERIC:
                continue
            if decl.kind == BOOLEAN:
                ctors = [self.ctor(name, BOTTOM), self.ctor(name, False), self.ctor(name, True)]
            else:
                ctors = [self.ctor(name, BOTTOM)] + [self.ctor(name, s) for s in decl.symbols]
            lines.append("(declare-datatype %s (%s))"
                         % (self.sort_name(name), " ".join("(%s)" % c for c in ctors)))
        return lines

    def binders(self, attrs: List[str]) -> List[str]:
        out = []
        for name in attrs:
            decl = self.sig.get(name)
            if decl.kind == NUMERIC:
                out.append("(%s_known Bool)" % name)
                out.append("(%s_value Int)" % name)
            else:
                out.append("(%s %s)" % (name, self.sort_name(name)))
        return out

    def atom(self, a: Atom) -> str:
        decl = self.sig.get(a.attr)
        if decl.kind == NUMERIC:
            parts = []
            if BOTTOM in a.values:
                parts.append("(not %s_known)" % a.attr)
            for lo, hi in intervals_of(a.values):
                if lo == hi:
                    bound = "(= %s_value %d)" % (a.attr, lo)
                else:
                    bound = "(and (<= %d %s_value) (<= %s_value %d))" % (lo, a.attr, a.attr, hi)
                parts.append("(and %s_known %s)" % (a.attr, bound))
            if not parts:
                return "false"
            if len(parts) == 1:
                return parts[0]
            return "(or %s)" % " ".join(parts)
        if not a.values:
            return "false"
        tests = ["(= %s %s)" % (a.attr, self.ctor(a.attr, v)) for v in sorted(a.values, key=str)]
        if len(tests) == 1:
            return tests[0]
        return "(or %s)" % " ".join(tests)


def emit_smtlib(f: ControlFormula,
                variables: Sequence[ControlVar],
                sig: Optional[AttributeSignature] = None,
                quantified: bool = False) -> str:
    """Render a satisfiability script for the control formula.

    Grounded form (default): f must be free of attribute tests; control
    variables become bounded Int constants. Quantified form: attribute
    tests stay symbolic, each finite attribute becomes a dedicated sort
    with an explicit constructor for the unset value, numeric attributes
    become a known-flag plus an Int, and the whole body is wrapped in a
    universal quantifier over one request. In both forms every connective
    with two or more parents is named once.
    """
    lines = ["(set-option :produce-models true)"]
    for v in variables:
        lines.append("(declare-const %s Int)" % v.name)
        lines.append("(assert (and (<= 0 %s) (< %s %d)))" % (v.name, v.name, v.size))
    if quantified:
        if sig is None:
            raise ValueError("quantified emission needs the attribute signature")
        emitter = _QuantifiedEmitter(sig)
        attrs = [d.name for d in sig.request_attrs()]
        lines.extend(emitter.declarations(attrs))
        binders = emitter.binders(attrs)
        guards = ["(<= 0 %s_value)" % d.name
                  for d in sig.request_attrs() if d.kind == NUMERIC]
        # shared subterms mention the bound request variables, so they
        # are bound inside the quantifier, one let per level
        definitions, names = _shared_definitions(f, emitter.atom)
        levels: Dict[int, List[str]] = {}
        for lvl, name, term in definitions:
            levels.setdefault(lvl, []).append("(%s %s)" % (name, term))
        lets = ["(let (%s) " % " ".join(levels[lvl]) for lvl in sorted(levels)]
        body = "".join(lets) + _sexp(f, emitter.atom, names) + ")" * len(lets)
        if guards:
            body = "(=> (and %s) %s)" % (" ".join(guards), body) if len(guards) > 1 \
                else "(=> %s %s)" % (guards[0], body)
        if binders:
            lines.append("(assert (forall (%s) %s))" % (" ".join(binders), body))
        else:
            lines.append("(assert %s)" % body)
    else:
        definitions, names = _shared_definitions(f)
        lines.extend("(define-fun %s () Bool %s)" % (name, term)
                     for _, name, term in definitions)
        lines.append("(assert %s)" % _sexp(f, names=names))
    lines.append("(check-sat)")
    if variables:
        lines.append("(get-value (%s))" % " ".join(v.name for v in variables))
    return "\n".join(lines) + "\n"


def _tokenize_sexp(text: str) -> List[str]:
    return re.findall(r"\(|\)|[^\s()]+", text)


def _parse_sexp(tokens: List[str], pos: int):
    if tokens[pos] == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _parse_sexp(tokens, pos)
            items.append(item)
        return items, pos + 1
    return tokens[pos], pos + 1


def _value_from_sexp(v) -> int:
    if isinstance(v, list):
        if len(v) == 2 and v[0] == "-":
            return -_value_from_sexp(v[1])
        raise SolverError("unexpected model value %r" % (v,))
    if v == "true":
        return 1
    if v == "false":
        return 0
    try:
        return int(v)
    except ValueError:
        raise SolverError("unexpected model value %r" % (v,))


# The longest wait subprocess can hand to poll(), which takes whole
# milliseconds in a C int; a later deadline waits this long instead.
_LONGEST_WAIT = (2 ** 31 - 1) // 1000


def run_external(script: str, command: str,
                 timeout: Optional[float] = None
                 ) -> Tuple[str, Optional[ControlAssignment]]:
    """Run an SMT-LIB script through an external solver.

    The command is split shell-style and invoked with the script path
    appended and no standard input. Returns the verdict ('sat' or
    'unsat') and, when sat and the script requested values, the control
    assignment. An 'unknown' verdict, a timeout, or unparseable output
    raises SolverError. A timeout beyond _LONGEST_WAIT seconds, infinity
    included, waits that long.
    """
    argv = shlex.split(command)
    if not argv:
        raise SolverError("empty solver command")
    fd, path = tempfile.mkstemp(suffix=".smt2", prefix="gatesynth_")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(script)
        try:
            proc = subprocess.run(argv + [path], stdin=subprocess.DEVNULL,
                                  capture_output=True, text=True,
                                  timeout=None if timeout is None
                                  else min(timeout, _LONGEST_WAIT))
        except subprocess.TimeoutExpired:
            raise SolverError("solver timed out after %ss" % timeout)
        except OSError as exc:
            raise SolverError("could not run solver: %s" % exc)
        out = proc.stdout
        verdict = None
        rest_lines = []
        for line in out.splitlines():
            line = line.strip()
            if not line:
                continue
            if verdict is None and line in ("sat", "unsat", "unknown"):
                verdict = line
                continue
            rest_lines.append(line)
        if verdict is None:
            raise SolverError("no verdict in solver output: %r / %r"
                              % (out[:500], proc.stderr[:500]))
        if verdict == "unknown":
            raise SolverError("solver returned unknown")
        if verdict == "unsat":
            return "unsat", None
        rest = " ".join(rest_lines)
        if not rest.strip():
            return "sat", None
        tokens = _tokenize_sexp(rest)
        parsed, _ = _parse_sexp(tokens, 0)
        model: ControlAssignment = {}
        for pair in parsed:
            if isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str):
                model[pair[0]] = _value_from_sexp(pair[1])
        return "sat", model
    finally:
        os.unlink(path)
