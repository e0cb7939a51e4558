"""Constraint encoding of requirements over configuration templates.

encode() rewrites a requirement into a formula over *edge guards*:
placeholders for "the policy of this edge grants the request". A
template then expands each guard into its symbolic policy over control
variables, ground_forall() instantiates the request attributes with
representatives of request regions, and the result is a pure
control-variable formula that a solver can search for a model of.
Synthesis grounds a clause or menu template counterexample-guided: it
instantiates only the requests that counterexample() returns, each one
where the current model fails, while ground_forall() over every region
stays the reference and the source of grounded scripts. The class
template needs neither expansion nor checks: at a class's member every
class test is constant, so the instance there is the guard formula's
cofactor, which substitute() builds straight from it. Expansion,
cofactoring and evaluation are that one rebuild, substitute(), which
replaces a formula's leaves top-down on an explicit stack and stops at
a connective's deciding child. Synthesis compiles each expanded formula
once into a flat postorder array (Compiled), which also records which
attribute each node tests. Every check runs a three-valued pass under
the model over it, then evaluates what is still unknown on each chunk
of regions that RegionSet.chunks() gives, one bit per region, and
builds nothing.
Grounding, fold_atoms(), is one loop over the same array that decides every
attribute test: a node that tests no attribute stays as it is, one
that tests one is rebuilt once per value of it in the attempt, its
group's fold cached in the compiled form, and one that tests several
once per request. Neither walk recurses on formula depth. One
printer, emit_smtlib(), writes both script forms in one fold over
subformulas(), and each connective with two or more parents prints once,
as a define-fun that in a quantified script takes the request as
parameters. There every request attribute is one Int: a finite one holds
its value's index in the attribute's domain, a numeric one the number,
or -1 when unset, so numeric tests print as bounds read off the
intervals of their IntervalSet.

The built-in solver, sat_solve(), translates control formulas to
clauses (Tseitin) and searches them with conflict learning. Its store,
_Cnf, lasts as long as its caller keeps it: synthesis keeps one per
clause or menu template attempt, so each grounding iteration translates
only the nodes its new instance adds and searches again from the
clauses, learned clauses and watches already there, and one per class
of a class attempt, each over that class's bits, all counting down one
deadline. Its assignment and watch lists are indexed by literal.
Two-literal clauses, most of them Tseitin links, are tuples, watched by
their other literal: an int in a watch list, and the falsified literal,
an int, as the reason of what it forces. Longer and learned clauses are
lists watched on two of their literals. Each call restarts at level 0:
it keeps the trail's level-0 facts, rebuilds the assignment from them
in one allocation, settles the new clauses against them, and searches
in one loop of propagation, backjumps and decisions. Decisions follow
the control bits in declaration order, 0 first, so every answer is the
least model of what the store holds, the one a fresh store would find.

Control formulas use the node classes of formulas, Top, Atom and Not
included, so a policy's tests enter them as they are. Nodes are
hash-consed: an equal node is the same object, memo tables key on nodes
directly, and each edge has one live guard without a cache of its own.
Walks over them are formulas.subformulas(), and the smart constructors
(cand, cor, cnot, cimplies) and target_to_control() live in formulas,
beside the node classes; this module imports them for its callers and
keeps the rewrite, substitute(), the compiled form with its check and
fold_atoms(), the solver and the SMT-LIB printer.

Both untils share one unrolling over simple paths. A space where the
right side holds outright settles the until as true, and one where the
left side fails outright settles it as the right side's rewrite; the
unrolling stops there. Elsewhere it steps to successors not yet
visited, through some open door (E) or every open door (A); a door
back into a visited space is dropped by E and must be shut under A.
The memo keys on the spaces the step may enter. E reads only those
from which a path through unsettled spaces leads to a goal, where the
right side's rewrite is not CFalse; A's shut-door tests read its
frontier, the visited spaces it can still run into. Both keys come from
SpaceIndex.walk, the one reachability walk over a structure's masks,
which the checker's EU and ResourceStructure.reachable use as well; this
module has no walk of its own. Either key builds
the formula the whole visited set builds, with far fewer subproblems,
though their number still grows exponentially with a grid's size.

For the existential until the unrolling is exact on every structure.
For the universal until it agrees with the checker on structures whose
restriction keeps at least one outgoing edge per space, which is why
synthesis injects the deadlock-freeness requirement whenever a
universal until appears. That requirement exempts the entry, so
encode() decides such a constraint on the entry alone when every
door out of the entry is shut.
"""

from __future__ import annotations

import re
import shlex
import subprocess
import tempfile
import time
import os
from operator import itemgetter
from dataclasses import dataclass
from typing import (
    Callable, Dict, List, Optional, Sequence, Set, Tuple, Union,
)

from .formulas import (
    AU, AX, BOTTOM, EU, EX, AccessRequest, And, Atom, AttributeDecl,
    AttributeSignature, CAnd, CFalse, CGuard, CImplies, COr, ControlFormula,
    CVarEq, Formula, Not, Requirement, Top, Value, build_regions, cand,
    children, cimplies, cnot, collect_atoms, contains_au, cor, intervals_of,
    lowest_bit, subformulas, target_masks, target_to_control,
)
from .checker import model_check
from .model import Edge, ResourceStructure


# ---------------------------------------------------------------------------
# Control formulas
# ---------------------------------------------------------------------------

# Top, Atom and Not under their control-formula names, kept for callers.
CTrue, CAtom, CNot = Top, Atom, Not


def formula_size(f: ControlFormula) -> int:
    """Number of distinct subterms."""
    return sum(1 for _ in subformulas(f))


def formula_edges(f: ControlFormula) -> int:
    """Sum of the arities of the distinct subterms: the edges of the
    DAG, which Tseitin clauses follow."""
    return sum(len(children(g)) for g in subformulas(f))


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


# Until subproblems (memo entries) made by every rewrite so far.
_made = [0]


def until_subproblems() -> int:
    """How many until subproblems every rewrite_constraint() call in this
    process has made; synth reports the difference over its encoding."""
    return _made[0]


def rewrite_constraint(S: ResourceStructure, phi: Formula, start: str) -> ControlFormula:
    """Rewrite one constraint at one space into a formula over edge
    guards. Untils unroll over simple paths; repeated subproblems are
    shared, so the result is a compact DAG. Sets of spaces are masks
    over S.index. EU keys on the spaces it can still read, and only AU
    on its frontier."""
    memo: Dict[Tuple[Formula, str], ControlFormula] = {}
    memo_u: Dict[Tuple[Formula, str, int], ControlFormula] = {}
    decided: Dict[Formula, Tuple[Dict[str, ControlFormula], int, int]] = {}
    guard = {e: cguard(e) for e in S.edges}     # held while the rewrite runs
    ix = S.index
    at, bit, succ, pred, full = ix.at, ix.bit, ix.succ, ix.pred, ix.full

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
            parts = []      # a left-nested chain, in one loop down its spine
            g = f
            while isinstance(g, And):
                parts.append(g.right)
                g = g.left
            parts.append(g)
            out = cand([tau(p, r) for p in reversed(parts)])
        elif isinstance(f, EX):
            out = cor([cand([guard[(r, s)], tau(f.sub, s)])
                       for s in S.successors(r)])
        elif isinstance(f, AX):
            out = cand([cimplies(guard[(r, s)], tau(f.sub, s))
                        for s in S.successors(r)])
        elif isinstance(f, (EU, AU)):
            out = tau_until(f, r, full)
        else:
            raise TypeError("unknown formula node %r" % (f,))
        memo[key] = out
        return out

    def settle(f: Formula) -> Tuple[Dict[str, ControlFormula], int, int]:
        """The until's rewrite at each space that decides it alone: true
        where its right side holds outright, the right side's rewrite
        where its left side fails outright. Then the masks of the other,
        unsettled spaces and of the goals, where the right side is not
        CFalse."""
        got = decided.get(f)
        if got is None:
            known: Dict[str, ControlFormula] = {}
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

    def tau_until(f: Formula, r: str, allowed: int) -> ControlFormula:
        """The until f at r over the simple paths through `allowed`, the
        spaces not yet visited. E and A differ only in the step and in
        the key: the spaces the step may enter, which the children get as
        theirs."""
        known, steps, goals = settle(f)
        if r in known:
            return known[r]
        steps &= allowed
        eu = type(f) is EU
        if eu:
            # the spaces entered from r's successors through unsettled
            # ones, from which a path through unsettled ones leads to a
            # goal; from any other successor every path folds to CFalse
            allowed ^= bit[r]
            near = succ[at[r]] & allowed
            seen = ix.walk(near, near & steps, succ, allowed, steps)
            later = ix.walk(seen & goals, seen & goals, pred, steps & seen, full)
        elif allowed == full:
            later = full ^ bit[r]
        else:
            # all but r and the frontier: the visited spaces entered from
            # the unsettled spaces r reaches without re-entering them
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

    try:
        return tau(phi, start)
    finally:
        _made[0] += len(memo_u)
        tau = tau_until = settle = None    # the walks refer to themselves


def substitute(f: ControlFormula,
               leaf: Callable[[ControlFormula], ControlFormula]) -> ControlFormula:
    """Rebuild f with every leaf node replaced by leaf(node).

    Connectives are rebuilt through the smart constructors, so constant
    leaves fold away on the way up. The walk runs top-down on an
    explicit stack and rebuilds each shared node once; a conjunction
    stops at its first CFalse child, a disjunction at its first Top and
    an implication at a CFalse premise, which decide them whatever the
    rest rebuilds to, so leaf() sees only the leaves that decide f.
    """
    memo: Dict[ControlFormula, ControlFormula] = {}
    stack: List[Tuple[ControlFormula, List[ControlFormula]]] = [(f, [])]
    while stack:
        g, done = stack[-1]
        kind = type(g)      # node classes are final
        if kind is not CAnd and kind is not COr and kind is not Not and kind is not CImplies:
            out = leaf(g)
        else:
            out = None
            for k in children(g)[len(done):]:
                v = memo.get(k)
                if v is None:
                    stack.append((k, []))
                    break
                if kind is CAnd and type(v) is CFalse:
                    out = v
                    break
                if (kind is COr and type(v) is Top
                        or kind is CImplies and not done and type(v) is CFalse):
                    out = Top()
                    break
                done.append(v)
            else:
                out = (cand(done) if kind is CAnd else cor(done) if kind is COr
                       else cnot(done[0]) if kind is Not else cimplies(*done))
            if out is None:     # a child goes first
                continue
        memo[g] = out
        stack.pop()
    return memo[f]


def expand_guards(f: ControlFormula, template) -> ControlFormula:
    """Replace every edge guard by the template's symbolic policy for
    that edge (fixed edges expand to their fixed policy)."""
    def leaf(g: ControlFormula) -> ControlFormula:
        return template.edge_policy_formula(g.edge) if isinstance(g, CGuard) else g

    return substitute(f, leaf)


def request_regions(f: ControlFormula, sig: AttributeSignature) -> List[AccessRequest]:
    """One representative request per region of the attribute tests
    appearing in f, in build_regions order."""
    return list(build_regions(sig, collect_atoms(f)).representatives())


def ground_forall(f: ControlFormula, sig: AttributeSignature,
                  requests: Optional[Sequence[AccessRequest]] = None,
                  compiled: Optional[Compiled] = None) -> ControlFormula:
    """Universal closure over requests, by explicit instantiation: one
    instance per given request, folded instances deduplicated. With no
    requests, one instance per region representative: the full
    grounding, which is exactly the universal closure. Synthesis grounds
    only the requests its counterexample loop picks; the full grounding
    stays the reference for it and the source of grounded scripts.
    f has no edge guards; every request folds through its compiled
    form, the one given (synthesis shares its attempt's) or a new one."""
    if requests is None:
        requests = request_regions(f, sig)
    if compiled is None:
        compiled = Compiled(f)
    instances: List[ControlFormula] = []
    seen: Set[ControlFormula] = set()
    for q in requests:
        inst = fold_atoms(f, q, compiled)
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

# What Compiled records of a node that tests two or more attributes.
_SEVERAL = object()


class Compiled:
    """A control formula compiled once for many counterexample checks and
    groundings: a flat postorder array, children before parents and the
    root last. Node i is nodes[i], with op code ops[i] and child indices
    kids[i]. The three-valued pass reads leaves (the value of each
    constant leaf, None elsewhere), tests (i, variable, value) and
    connectives (i, op, pick), where pick takes the children's values
    from the value list. atoms are the attribute tests. fold_atoms()
    reads groups, the nodes that test one attribute by attribute, and
    several, those that test two or more, both in postorder (a node in
    neither tests none), and keeps its folds of each attribute's group,
    by (attribute, value), in folds, which lasts as long as the form."""

    __slots__ = ("nodes", "ops", "kids", "leaves", "tests", "connectives", "atoms",
                 "groups", "several", "folds")

    def __init__(self, f: ControlFormula):
        self.nodes: List[ControlFormula] = []
        self.ops: List[int] = []
        self.kids: List[Tuple[int, ...]] = []
        self.leaves: List[Optional[bool]] = []
        self.tests: List[Tuple[int, str, int]] = []
        self.connectives: List[Tuple[int, int, Callable]] = []
        self.groups: Dict[str, List[int]] = {}
        self.several: List[int] = []
        self.folds: Dict[Tuple[str, Value], Dict[int, ControlFormula]] = {}
        index: Dict[ControlFormula, int] = {}
        at = index.__getitem__
        tested: List[object] = []      # by node: None, its one attribute, or _SEVERAL
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
            t = g.attr if op == _ATOM else None
            for k in ks:
                a = tested[k]
                if a is not None and a != t:
                    t = a if t is None else _SEVERAL
            tested.append(t)
            if t is _SEVERAL:
                self.several.append(i)
            elif t is not None:
                self.groups.setdefault(t, []).append(i)
        self.atoms = [g for g, op in zip(self.nodes, self.ops) if op == _ATOM]


def fold_atoms(f: ControlFormula, q: AccessRequest,
               compiled: Optional[Compiled] = None) -> ControlFormula:
    """Decide every attribute test under the request q: substitute() with
    each Atom replaced by its verdict, as one loop over f's compiled form
    (compiled here when not given; f has no edge guards). A node that
    tests no attribute folds to itself, as a node the smart constructors
    built does under a rebuild. Each attribute's group is folded under
    q's value of it, or taken from the form's cache of such folds, and
    the nodes that test several attributes are folded last. Calls that
    share one form (synthesis keeps one per clause or menu attempt) fold
    each group once per value. Values are cache keys, so a shared form
    wants validated requests, whose values are of their attribute's
    kind."""
    c = Compiled(f) if compiled is None else compiled
    if c.nodes[-1] is not f:
        raise ValueError("the compiled form is not that of the formula folded")
    val: Dict[int, ControlFormula] = {}
    for attr, group in c.groups.items():
        value = q.get(attr, BOTTOM)
        folded = c.folds.get((attr, value))
        if folded is None:
            folded = c.folds[attr, value] = _rebuild(c, group, {}, value)
        val.update(folded)
    _rebuild(c, c.several, val, None)
    return val.get(len(c.nodes) - 1, f)


def _rebuild(c: Compiled, order: List[int], val: Dict[int, ControlFormula],
             value: Value) -> Dict[int, ControlFormula]:
    """Fold the nodes `order` lists, in postorder, into val: an Atom to
    its verdict on `value`, a connective through its smart constructor
    over its children's folds (a child missing from val folds to
    itself). Returns val. This is the hot loop of grounding."""
    nodes, ops, kids = c.nodes, c.ops, c.kids
    get = val.get
    for i in order:
        op = ops[i]
        if op == _ATOM:
            out = Top() if value in nodes[i].values else CFalse()
        else:
            args = [get(k) or nodes[k] for k in kids[i]]
            if op == _AND:
                out = cand(args)
            elif op == _OR:
                out = cor(args)
            elif op == _NOT:
                out = cnot(args[0])
            else:
                out = cimplies(*args)
        val[i] = out
    return val


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


def counterexample(c: Compiled, m: Dict[str, int],
                   sig: AttributeSignature) -> Optional[AccessRequest]:
    """A request at which the control assignment m does not make the
    compiled formula true, or None when it holds at every request.

    The answer is the first region representative, in build_regions
    order over the atoms of the residue (the formula with m decided), at
    which the formula is false. A three-valued pass under m marks the
    residue without building it. Its regions are then evaluated a chunk
    at a time, RegionSet.chunks(): each residue node gets one bit per
    region, atoms from formulas.target_masks, connectives by bitwise
    operations."""
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
    atoms = [c.nodes[i] for i in residue if c.ops[i] == _ATOM]
    regions = build_regions(sig, atoms)
    for start, width in regions.chunks():
        full = (1 << width) - 1
        masks = target_masks(atoms, regions, start, width)
        bits: Dict[int, int] = {}
        for i in residue:
            op = c.ops[i]
            if op == _ATOM:
                x = masks[c.nodes[i]]
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
            return regions.representative(start + lowest_bit(failing))
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
    kept across calls so that formulas asserted one after another are
    translated and searched incrementally (MiniSat-style incremental
    solving, after Eén & Sörensson, SAT 2003).

    It holds the problem clauses, the Tseitin memo from formula nodes to
    literals, the control bits in decision order, and the search state:
    watch lists and the assignment, both indexed by literal, the trail,
    and the learned clauses. assign[lit] is True, False or None (not yet
    assigned), so assign[var] reads a variable's value. The clause set
    only grows and every learned clause is implied by it, so a search
    continued from this state finds what a fresh store would.

    A two-literal problem clause is a tuple, and it is watched by its
    other literal: watches[a] holds the int b for the clause (a, b),
    read as "once a is false, b must be true", beside the lists of the
    longer and the learned clauses, each watched on its first two
    literals. reason[var] is the clause that forced the variable, or,
    for a two-literal clause, the int of its other literal, the one that
    was false; None for a decision.
    The store also keeps the deadline of its timeout, counted from start,
    a time.monotonic() reading, or else from its creation: stores that
    share a start share one deadline.
    """

    def __init__(self, variables: Sequence[ControlVar], timeout: Optional[float] = None,
                 start: Optional[float] = None):
        self.variables = list(variables)
        self.timeout = timeout
        self.deadline = None if timeout is None else (
            time.monotonic() if start is None else start) + timeout
        self.n_vars = 0
        self.clauses: List[Sequence[int]] = []  # problem clauses, in the order added
        self.attached = 0                        # clauses[:attached] are watched or settled
        self.learned: List[List[int]] = []
        self.ok = True                           # False once the clauses are unsat
        # by literal, -n_vars..n_vars, through negative indices (see _dpll)
        self.watches: List[List[Union[int, List[int]]]] = [[]]
        self.assign: List[Optional[bool]] = [None]
        self.reason: List[Union[None, int, List[int]]] = [None]     # by variable
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
                clause = [-lits[i] if (code >> i) & 1 else lits[i] for i in range(b)]
                self.add(tuple(clause) if b == 2 else clause)

    def fresh(self) -> int:
        self.n_vars += 1
        return self.n_vars

    def add(self, clause: Sequence[int]):
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
        earlier calls cost a lookup. Two-literal clauses are tuples."""
        memo, sizes, bits = self.memo, self.sizes, self.bits
        true_lit, fresh, add = self.true_lit, self.fresh, self.clauses.append

        def define_and(lits: List[int]) -> int:
            if not lits:
                return true_lit
            if len(lits) == 1:
                return lits[0]
            x = fresh()
            for lit in lits:
                add((-x, lit))
            add([x] + [-lit for lit in lits])
            return x

        def define_or(lits: List[int]) -> int:
            if not lits:
                return -true_lit
            if len(lits) == 1:
                return lits[0]
            x = fresh()
            for lit in lits:
                add((x, -lit))
            add([-x] + lits)
            return x

        def lit_of(g: ControlFormula) -> int:
            got = memo.get(g)
            if got is not None:
                return got
            kind = type(g)      # most frequent class first
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

        try:
            return lit_of(f)
        finally:
            lit_of = None   # lit_of refers to itself and, through add, to the store


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
    the conjunction of every formula asserted so far (the grounding loop
    asserts one instance per call). Without a store, a fresh one solves
    f from scratch.

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
    assign, bits = cnf.assign, cnf.bits
    model = {}
    for v in cnf.variables:
        value, bit = 0, 1
        for lit in bits[v.name]:
            if assign[lit]:
                value |= bit
            bit <<= 1
        model[v.name] = value
    return model


def _analyze(confl: Sequence[int], trail: List[int], lvl: int, n: int,
             reason: List[Union[None, int, List[int]]],
             level: List[int]) -> Tuple[List[int], int]:
    """Resolve a conflict at level lvl back to its first unique
    implication point; returns the learned clause (asserting literal
    first) and the level to jump back to. An int reason is the falsified
    literal of a two-literal clause (see _Cnf)."""
    seen = bytearray(n + 1)
    learned: List[int] = []
    counter = 0
    p: Optional[int] = None
    idx = len(trail) - 1
    while True:
        for q in confl:
            if p is not None and q == p:
                continue
            var = abs(q)
            if not seen[var] and level[var] > 0:
                seen[var] = 1
                if level[var] >= lvl:
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
        if type(confl) is int:      # the two-literal clause (p, confl)
            confl = (confl,)
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


def _dpll(cnf: _Cnf, decision: List[int],
          counters: Optional[Dict[str, int]] = None) -> bool:
    """Conflict-learning search over the store's clauses, branching on
    the decision literals in order, 0 first; True when it finds a model,
    which is then the store's assignment.

    The search goes on from the store's state. It restarts at level 0:
    the trail is cut to its level-0 facts, which the last call left
    propagated, and the assignment is built afresh from them, with room
    for the variables the store gained since. Then it settles the
    clauses added since the last call against those facts (a satisfied
    one needs no watch, a unit one is a new fact, an empty one makes the
    store unsat for good), watches the rest, and searches again, keeping
    every learned clause. The settling, and the search's one loop of
    propagation, backjumps and decisions, are written out here, the
    solver's innermost code; an int in a watch list is a two-literal
    clause's other literal (see _Cnf). Decisions, conflicts,
    propagations and learned clauses are added to counters once per
    call, as MiniSat counts them. The store's deadline is checked at
    every conflict and every 256 decisions.

    The assignment and the watch lists are indexed by literal, a
    negative literal through Python's negative indices, so the
    variables the store gained since the last call go in the middle."""
    count = counters if counters is not None else {}
    for key in ("decisions", "conflicts", "propagations", "learned"):
        count.setdefault(key, 0)
    if not cnf.ok:
        return False
    n = cnf.n_vars
    reason, level = cnf.reason, cnf.level
    trail, trail_lim = cnf.trail, cnf.trail_lim
    if trail_lim:
        del trail[trail_lim[0]:]
        trail_lim.clear()
    grow = n + 1 - len(reason)
    if grow:
        half = len(reason)
        cnf.watches = (cnf.watches[:half] + [[] for _ in range(2 * grow)]
                       + cnf.watches[half:])
        reason.extend([None] * grow)
        level.extend([0] * grow)
    watches = cnf.watches
    assign = cnf.assign = [None] * (2 * n + 1)
    for lit in trail:
        assign[lit] = True
        assign[-lit] = False
    head = len(trail)                # trail[:head] is propagated
    lvl = 0                          # the decision level, len(trail_lim)

    decisions, conflicts = count["decisions"], count["conflicts"]
    propagations, n_learned = count["propagations"], count["learned"]
    try:
        clauses = cnf.clauses
        for cl in clauses[cnf.attached:]:
            if len(cl) == 2:
                a, b = cl
                va, vb = assign[a], assign[b]
                if va is True or vb is True:
                    continue
                if va is None and vb is None:
                    watches[a].append(b)
                    watches[b].append(a)
                    continue
                if va is None:
                    unit, why = a, b
                elif vb is None:
                    unit, why = b, a
                else:
                    cnf.ok = False
                    return False
            else:
                # move two literals that are not false to the front,
                # unless one is true
                k, v = 0, None
                for j, lit in enumerate(cl):
                    v = assign[lit]
                    if v is True:
                        break
                    if v is None:
                        cl[k], cl[j] = cl[j], cl[k]
                        k += 1
                        if k == 2:
                            break
                if v is True:
                    continue
                if k == 2:
                    watches[cl[0]].append(cl)
                    watches[cl[1]].append(cl)
                    continue
                if k == 0:
                    cnf.ok = False
                    return False
                unit, why = cl[0], cl
            assign[unit] = True
            assign[-unit] = False
            reason[abs(unit)] = why
            level[abs(unit)] = 0
            trail.append(unit)
        cnf.attached = len(clauses)

        di = 0
        while True:
            # unit propagation to exhaustion or to a falsified clause
            confl = None
            start = head
            while head < len(trail):
                falsified = -trail[head]
                head += 1
                watching = watches[falsified]
                i, end = 0, len(watching)
                while i < end:
                    cl = watching[i]
                    if type(cl) is int:
                        v = assign[cl]
                        if v is None:
                            assign[cl] = True
                            assign[-cl] = False
                            var = cl if cl > 0 else -cl
                            reason[var] = falsified
                            level[var] = lvl
                            trail.append(cl)
                        elif v is False:
                            confl = [cl, falsified]
                            break
                        i += 1
                        continue
                    # make sure falsified is at position 1
                    if cl[0] == falsified:
                        cl[0], cl[1] = cl[1], cl[0]
                    first = cl[0]
                    if assign[first] is True:
                        i += 1
                        continue
                    for j in range(2, len(cl)):
                        lit = cl[j]
                        if assign[lit] is not False:
                            cl[1], cl[j] = lit, cl[1]
                            watches[lit].append(cl)
                            end -= 1
                            watching[i] = watching[end]
                            watching.pop()
                            break
                    else:
                        if assign[first] is False:
                            confl = cl
                            break
                        assign[first] = True
                        assign[-first] = False
                        var = first if first > 0 else -first
                        reason[var] = cl
                        level[var] = lvl
                        trail.append(first)
                        i += 1
                if confl is not None:
                    break
            propagations += head - start

            if confl is not None:
                conflicts += 1
                if not lvl:
                    cnf.ok = False
                    return False
                cnf.time_left()
                learned, lvl = _analyze(confl, trail, lvl, n, reason, level)
                mark = trail_lim[lvl]
                del trail_lim[lvl:]
                for lit in trail[mark:]:
                    assign[lit] = assign[-lit] = None
                del trail[mark:]
                head = mark
                cnf.learned.append(learned)
                n_learned += 1
                first = learned[0]              # unassigned after the backjump
                if len(learned) >= 2:
                    watches[first].append(learned)
                    watches[learned[1]].append(learned)
                assign[first] = True
                assign[-first] = False
                reason[abs(first)] = learned
                level[abs(first)] = lvl
                trail.append(first)
                di = 0
                continue

            while di < len(decision) and assign[decision[di]] is not None:
                di += 1
            if di >= len(decision):
                return True
            decisions += 1
            if not decisions & 255:
                cnf.time_left()
            trail_lim.append(len(trail))
            lvl += 1
            var = decision[di]
            assign[-var] = True             # try 0 first
            assign[var] = False
            reason[var] = None
            level[var] = lvl
            trail.append(-var)
    finally:
        count.update(decisions=decisions, conflicts=conflicts,
                     propagations=propagations, learned=n_learned)


# ---------------------------------------------------------------------------
# SMT-LIB emission and external solvers
# ---------------------------------------------------------------------------

def _smt_atom(decl: AttributeDecl, a: Atom) -> str:
    """The attribute test a on the request variable q_<attribute>: a
    finite attribute's variable holds the value's index in its domain, a
    numeric one's the number itself, or -1 when unset."""
    x = "q_" + a.attr
    domain = decl.domain()
    if domain is not None:
        tests = ["(= %s %d)" % (x, i) for i, v in enumerate(domain) if v in a.values]
    else:
        tests = ["(= %s (- 1))" % x] if BOTTOM in a.values else []
        tests += ["(= %s %d)" % (x, lo) if lo == hi else "(<= %d %s %d)" % (lo, x, hi)
                  for lo, hi in intervals_of(a.values)]
    if not tests:
        return "false"
    return tests[0] if len(tests) == 1 else "(or %s)" % " ".join(tests)


def emit_smtlib(f: ControlFormula,
                variables: Sequence[ControlVar],
                sig: Optional[AttributeSignature] = None) -> str:
    """Render a satisfiability script for the control formula: control
    variables become bounded Int constants.

    Without a signature the script is grounded, and f must be free of
    attribute tests. With one it is quantified: each request attribute
    is one Int, q_<attr>, bound by a universal quantifier over the whole
    body and guarded to its domain's codes (see _smt_atom). One fold
    over subformulas() builds each node's term from its children's, and
    names every connective with two or more parents once, in a
    define-fun; in a quantified script that takes the request as
    parameters, and each reference applies it to them."""
    attrs = sig.request_attrs() if sig is not None else []
    binders = " ".join("(q_%s Int)" % d.name for d in attrs)
    args = "".join(" q_" + d.name for d in attrs)
    lines = ["(set-option :produce-models true)"]
    for v in variables:
        lines.append("(declare-const %s Int)" % v.name)
        lines.append("(assert (and (<= 0 %s) (< %s %d)))" % (v.name, v.name, v.size))
    order = list(subformulas(f))
    parents: Dict[ControlFormula, int] = {}
    for g in order:
        for ch in children(g):
            parents[ch] = parents.get(ch, 0) + 1
    term: Dict[ControlFormula, str] = {}
    shared = 0
    for g in order:
        kids = children(g)
        parts = [term[ch] for ch in kids]
        for ch in kids:
            if parents[ch] == 1:    # its one parent has its term now
                del term[ch]
        kind = type(g)
        if kind is Top:
            out = "true"
        elif kind is CFalse:
            out = "false"
        elif kind is CVarEq:
            out = "(= %s %d)" % (g.var, g.value)
        elif kind is Atom and sig is not None:
            out = _smt_atom(sig.get(g.attr), g)
        elif kind is Not:
            out = "(not %s)" % parts[0]
        elif kind is CAnd:
            out = "(and %s)" % " ".join(parts)
        elif kind is COr:
            out = "(or %s)" % " ".join(parts)
        elif kind is CImplies:
            out = "(=> %s %s)" % tuple(parts)
        else:
            raise ValueError("cannot emit node %r in a %s script"
                             % (g, "grounded" if sig is None else "quantified"))
        if kids and parents.get(g, 0) >= 2:
            name = "_s%d" % shared
            shared += 1
            lines.append("(define-fun %s (%s) Bool %s)" % (name, binders, out))
            out = "(%s%s)" % (name, args) if args else name
        term[g] = out
    body = term[f]
    if attrs:
        guards = ["(<= 0 q_%s %d)" % (d.name, len(d.domain()) - 1) if d.domain()
                  else "(<= (- 1) q_%s)" % d.name for d in attrs]
        guard = guards[0] if len(guards) == 1 else "(and %s)" % " ".join(guards)
        body = "(forall (%s) (=> %s %s))" % (binders, guard, body)
    lines.append("(assert %s)" % body)
    lines.append("(check-sat)")
    if variables:
        lines.append("(get-value (%s))" % " ".join(v.name for v in variables))
    return "\n".join(lines) + "\n"


# A get-value answer: a parenthesised list of (name value) pairs, where a
# value is a numeral, (- numeral), true or false. Both patterns are flat,
# so an answer is read in one pass whatever its nesting.
_PAIR = r"\(\s*([^\s()]+)\s+(?:(-?\d+|true|false)|\(\s*-\s*(\d+)\s*\))\s*\)"
_PAIR_RE = re.compile(_PAIR)
_MODEL_RE = re.compile(r"\(\s*(?:%s\s*)*\)" % _PAIR)


def _read_model(text: str) -> ControlAssignment:
    """The values of a get-value answer; SolverError for anything else."""
    if not _MODEL_RE.fullmatch(text.strip()):
        raise SolverError("malformed model in solver output: %r" % text[:500])
    return {name: -int(negated) if negated
            else 1 if plain == "true" else 0 if plain == "false" else int(plain)
            for name, plain, negated in _PAIR_RE.findall(text)}


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
        return "sat", _read_model(rest)
    finally:
        os.unlink(path)
