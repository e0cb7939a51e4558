"""The synthesis driver and its companion analyses.

synth() glues the pipeline together: inject the deadlock-freeness
requirement when universal untils call for it, optionally add a
deny-by-default floor, encode the requirements once, solve them over a
template, extract a configuration, and verify it with the independent
checker before handing it back. Over a clause or menu template the
requirements are expanded, then grounded and solved request by request
until the model holds at every request. Over the class template they
are solved class by class: a class's instance is the guard formula's
cofactor at the class's member, which mentions that class's bits alone,
so each is solved on its own. The templates synth tries, and in which
order, are its plan (see its docstring). Every template tried is
recorded in stats["attempts"]; deriving and verifying the configuration
found are timed as derive_seconds and verify_seconds.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .formulas import (
    AX, BOTTOM, AccessRequest, Atom, CFalse, CGuard, ControlFormula, CVarEq,
    Formula, NEGATIVE, POSITIVE, Not, Requirement, Top, UNKNOWN, conj,
    contains_au, deadlock_free_constraint, eval_target, falsum,
    is_deadlock_freeness,
)
from . import encoder
from .checker import HoldsReport, holds
from .encoder import (
    SolverError, cand, emit_smtlib, encode, expand_guards, formula_edges,
    formula_size, ground_forall, run_external, sat_solve, substitute,
    until_subproblems,
)
from .model import (
    Configuration, Edge, ResourceStructure, SynthesisError, granted_edges, to_dot,
)
from .rules import format_request
from .templates import (
    CapExceeded, ClassTemplate, Template, complete_template, dnf_template,
)


@dataclass
class SynthesisResult:
    # "configuration", "unsat", or "cap-exceeded" (template="complete"
    # with more request classes than complete_cap allows)
    outcome: str
    configuration: Optional[Configuration] = None
    report: Optional[HoldsReport] = None
    requirements: List[Requirement] = field(default_factory=list)
    exhaustive: bool = False         # an unsat verdict refutes every configuration
    message: str = ""
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.outcome == "configuration"


DEADLOCK_SOURCE = "deadlock-freeness (added)"
DENY_DEFAULT_SOURCE = "deny-by-default (added)"


def effective_requirements(reqs: Sequence[Requirement], deadlock_free: str = "auto",
                           deny_by_default: bool = False) -> List[Requirement]:
    """The requirement list synthesis actually works against."""
    out = list(reqs)
    if deadlock_free not in ("auto", "on", "off"):
        raise ValueError("deadlock_free must be auto, on, or off")
    want_df = deadlock_free == "on" or (
        deadlock_free == "auto" and any(contains_au(r.constraint) for r in out))
    df = deadlock_free_constraint()
    already = any(isinstance(r.target, Top) and r.constraint == df for r in out)
    if want_df and not already:
        out.append(Requirement(Top(), df, NEGATIVE, source=DEADLOCK_SOURCE))
    if deny_by_default:
        out.append(deny_by_default_requirement(reqs))
    return out


def deny_by_default_requirement(reqs: Sequence[Requirement]) -> Requirement:
    """Requests matched by no granting requirement must stay put: no door
    out of the entry is open to them, AX false there. Models have no
    self-loops, so no door leads back to the entry."""
    positive_targets = []
    for r in reqs:
        if r.polarity == POSITIVE:
            positive_targets.append(r.target)
        elif r.polarity == UNKNOWN:
            raise ValueError(
                "deny-by-default needs every requirement's polarity; %r is unclassified"
                % (r.source or r,))
    target = conj([Not(t) for t in positive_targets])
    return Requirement(target, AX(falsum()), NEGATIVE, source=DENY_DEFAULT_SOURCE)


def _solve(instances: List[ControlFormula], solver: str, solver_cmd: Optional[str],
           store: encoder._Cnf, counters: Dict[str, int]):
    """The least model of the instances so far over the store's control
    variables, or None. The built-in store holds all but the newest, so
    it gets that one (Top at first)."""
    variables = store.variables
    if solver == "builtin":
        store.time_left()               # raises once the deadline has passed
        return sat_solve(instances[-1] if instances else Top(), variables, counters, store)
    if solver == "external":
        if not solver_cmd:
            raise ValueError("external solving needs a solver command")
        asserted = cand(instances)
        script = emit_smtlib(asserted, variables)
        verdict, model = run_external(script, solver_cmd, store.time_left())
        if verdict == "unsat":
            return None
        if model is None:
            # a script without control variables asks for no values
            if variables:
                raise SolverError("solver said sat but returned no model")
            model = {}
        values = {v.name: model.get(v.name, 0) for v in variables}
        for v in variables:
            if not 0 <= values[v.name] < v.size:
                raise SolverError("solver gave %s the value %r, outside 0..%d"
                                  % (v.name, values[v.name], v.size - 1))
        # a wrong model is the solver's fault, not a grounding gap
        if not isinstance(encoder.assign_controls(asserted, values), Top):
            raise SolverError("solver's model does not satisfy the script it was given")
        return values
    raise ValueError("unknown solver %r" % solver)


def _write_script(path: str, S: ResourceStructure, expanded: ControlFormula,
                  template: Template) -> None:
    """Write an expanded formula as an SMT-LIB script with the request
    kept universally quantified."""
    with open(path, "w") as fh:
        fh.write(emit_smtlib(expanded, template.control_vars(), S.sig))


def _attempt(S: ResourceStructure, guard_formula: ControlFormula,
             template: Template, solver: str, solver_cmd: Optional[str],
             timeout: Optional[float], emit_smt: Optional[str],
             stats: Dict[str, object], build_seconds: float = 0.0):
    """Solve the guard formula over one template, and append its sizes,
    seconds and counters to stats["attempts"]. A class template is
    solved class by class (_by_class), any other template by the
    counterexample loop over its expansion (_by_loop); a class attempt
    expands the guard formula only to write the emit_smt script. timeout
    is one deadline for the attempt, shared by every store it makes: it
    is checked before every solver call, inside the built-in search,
    and it bounds every external solver run.

    The stage seconds are disjoint: expand_seconds the template's
    construction (build_seconds, timed by the caller) and expansion,
    ground_seconds the instances, check_seconds the compilation and the
    counterexample checks, cnf_seconds the built-in solver's translation
    to clauses, and solve_seconds the rest of the solver calls (the
    search, or the external runs)."""
    t0 = time.perf_counter()
    by_class = isinstance(template, ClassTemplate)
    expanded = None if by_class and not emit_smt else expand_guards(guard_formula, template)
    t1 = time.perf_counter()
    if emit_smt:
        _write_script(emit_smt, S, expanded, template)
    attempt: Dict[str, object] = {
        "template": template.describe(),
        "control_vars": len(template.control_vars()),
        "control_bits": template.bit_count(),
        "expand_seconds": build_seconds + t1 - t0,
    }
    counters: Dict[str, int] = {}
    if by_class:
        model = _by_class(S, guard_formula, template, solver, solver_cmd, timeout,
                          attempt, counters)
    else:
        model = _by_loop(S, expanded, template, solver, solver_cmd, timeout,
                         attempt, counters)
    attempt["cnf_seconds"] = counters.pop("cnf_seconds", 0.0)
    attempt["solve_seconds"] -= attempt["cnf_seconds"]
    attempt.update(counters)
    stats.setdefault("attempts", []).append(attempt)
    return model


def _by_loop(S: ResourceStructure, expanded: ControlFormula, template: Template,
             solver: str, solver_cmd: Optional[str], timeout: Optional[float],
             attempt: Dict[str, object], counters: Dict[str, int]):
    """Ground the expanded formula counterexample-guided and solve it.

    Solve over the instances of the requests picked so far (at first
    none, so the first model is all zeros), ask counterexample() for a
    request at which the model fails the expanded formula (which has no
    edge guards), and add that request's instance. The expanded formula
    is compiled once for those checks and for grounding; its size and
    the regions stat are read off that compiled form. The instances'
    conjunction has a superset of the full grounding's models, so its
    least model, once it holds at every request, is the full grounding's
    too; an unsat answer is already one of the full grounding. The
    built-in solver's store is the one copy of that conjunction: handed
    each new instance alone, it translates and searches only what the
    instance adds. The instance list serves the grounding-gap check,
    external scripts and grounded_size; nothing the loop builds outlives
    the attempt."""
    store = encoder._Cnf(template.control_vars(), timeout)
    solve_seconds = 0.0
    t2 = time.perf_counter()
    compiled = encoder.Compiled(expanded)
    regions = encoder.build_regions(S.sig, compiled.atoms).count()
    check_seconds = time.perf_counter() - t2
    instances: List[ControlFormula] = []
    while True:
        t = time.perf_counter()
        model = _solve(instances, solver, solver_cmd, store, counters)
        t3 = time.perf_counter()
        solve_seconds += t3 - t
        failing = None if model is None else encoder.counterexample(
            compiled, model, S.sig)
        check_seconds += time.perf_counter() - t3
        if failing is None:
            break
        instance = ground_forall(expanded, S.sig, [failing], compiled)
        if instance in instances:
            raise SynthesisError(
                "the model fails request %r, whose instance it was solved "
                "over; this indicates a grounding gap" % (failing,))
        instances.append(instance)
    attempt.update(
        expanded_size=len(compiled.nodes),
        grounded_size=formula_size(cand(instances)),
        regions=regions,
        instances=len(instances),
        iterations=len(instances) + 1,
        ground_seconds=time.perf_counter() - t2 - solve_seconds - check_seconds,
        check_seconds=check_seconds,
        solve_seconds=solve_seconds)
    return model


def _by_class(S: ResourceStructure, guard_formula: ControlFormula,
              template: ClassTemplate, solver: str, solver_cmd: Optional[str],
              timeout: Optional[float], attempt: Dict[str, object],
              counters: Dict[str, int]):
    """Solve a class template class by class.

    At a class's member every class test is constant, so the expanded
    formula folds there to the guard formula's cofactor (Shannon; Bryant,
    IEEE TC 1986): each controlled door's guard becomes the door's bit of
    that class clear, each fixed door's guard and attribute test its
    verdict. Every request of the class folds to that instance, which
    mentions the class's bits alone, so the full grounding's least model
    is the union of the instances' least models, each solved alone in a
    store over its class's bits. The first refuted class ends the
    attempt and names its member in refuted_request. The grounding is
    exact, so nothing is checked."""
    start = time.monotonic()
    model: Optional[Dict[str, int]] = {v.name: 0 for v in template.control_vars()}
    instances: List[ControlFormula] = []
    ground_seconds = solve_seconds = 0.0
    for c, member in enumerate(template.members):
        t = time.perf_counter()
        bits = template.class_bits(c)

        def leaf(g: ControlFormula) -> ControlFormula:
            kind = type(g)
            if kind is CGuard:
                bit = bits.get(g.edge)
                if bit is not None:
                    return CVarEq(bit.name, 0)
                return Top() if eval_target(member, S.edges[g.edge]) else CFalse()
            if kind is Atom:
                return Top() if member.get(g.attr, BOTTOM) in g.values else CFalse()
            return g

        instance = substitute(guard_formula, leaf)
        t1 = time.perf_counter()
        ground_seconds += t1 - t
        if isinstance(instance, Top):
            continue
        instances.append(instance)
        found: Dict[str, int] = {}
        part = _solve([instance], solver, solver_cmd,
                      encoder._Cnf(bits.values(), timeout, start), found)
        for key, value in found.items():
            counters[key] = counters.get(key, 0) + value
        solve_seconds += time.perf_counter() - t1
        if part is None:
            attempt["refuted_request"] = format_request(member, S.sig)
            model = None
            break
        model.update(part)
    attempt.update(
        expanded_size=0,
        grounded_size=formula_size(cand(instances)),
        regions=len(template.classes),
        instances=len(instances),
        iterations=len(instances),
        ground_seconds=ground_seconds,
        check_seconds=0.0,
        solve_seconds=solve_seconds)
    return model


def synth(S: ResourceStructure, reqs: Sequence[Requirement],
          template: object = "dnf",
          max_k: int = 3,
          solver: str = "builtin",
          solver_cmd: Optional[str] = None,
          timeout: Optional[float] = None,
          deadlock_free: str = "auto",
          deny_by_default: bool = False,
          complete_cap: int = 4096,
          emit_smt: Optional[str] = None) -> SynthesisResult:
    """Find a configuration making every requirement hold, or report
    that none exists in the searched space.

    The templates tried are a plan, run in order. A Template instance is
    tried alone, and so is "complete", the class template (one bit per
    door and request class). "dnf" tries the one-clause template, then
    the class template, then clause templates of 2 up to max_k clauses;
    with max_k 0, the class template alone. A clause template, or the
    given one, that has a model answers. The class template can express
    every configuration up to request class, so its unsat answer is
    returned at once (stats["clauses_reached"] is then 1). It is
    exhaustive unless a universal until meets no deadlock-freeness
    requirement: the until rewrite reads a dead end past the entry
    vacuously, where the checker does not. A refuting class attempt
    names the member of the first class it refuted in
    stats["refuted_request"]. A class model is kept and answers if every
    later clause template fails.

    complete_cap bounds the number of request classes the class
    template may have; past it "complete" answers cap-exceeded, while
    "dnf" skips the class template and answers a non-exhaustive unsat if
    every clause template fails. timeout is one deadline per attempt,
    spanning all of its solver calls, so the class attempt can time out
    before two clauses are tried. The requirements are encoded once;
    every template tried solves that one guard formula. solver_cmd is
    the external solver's command line; giving one with the built-in
    solver is a ValueError. The top-level stats are set once, when synth
    answers: the answering attempt's (the one whose model gives the
    configuration, or else the last one), with each *_seconds key summed
    over every attempt.
    """
    if max_k < 0:
        raise ValueError("max_k must be at least 0, got %d" % max_k)
    if complete_cap < 1:
        raise ValueError("complete_cap must be at least 1, got %d" % complete_cap)
    if timeout is not None and not timeout >= 0:
        raise ValueError("timeout must be at least 0 seconds, got %r" % timeout)
    if not isinstance(template, Template) and template not in ("dnf", "complete"):
        raise ValueError("template must be 'dnf', 'complete', or a Template")
    if solver_cmd is not None and solver != "external":
        raise ValueError("a solver command is for the external solver only")
    eff = effective_requirements(reqs, deadlock_free, deny_by_default)
    stats: Dict[str, object] = {"solver": solver, "requirements": len(eff)}
    t_start = time.perf_counter()
    made = until_subproblems()
    guard_formula = cand([encode(S, r) for r in eff])
    stats["encode_seconds"] = time.perf_counter() - t_start
    stats["until_subproblems"] = until_subproblems() - made
    stats["guard_formula_size"] = formula_size(guard_formula)
    stats["guard_formula_edges"] = formula_edges(guard_formula)

    def settle(answering: Dict[str, object]) -> None:
        stats.update((k, sum(a[k] for a in stats["attempts"]) if k.endswith("_seconds")
                      else v) for k, v in answering.items())

    def finish_sat(tpl: Template, model, answering: Dict[str, object]) -> SynthesisResult:
        settle(answering)
        t0 = time.perf_counter()
        config = tpl.derive(model)
        t1 = time.perf_counter()
        report = holds(S, config, eff)
        t2 = time.perf_counter()
        stats.update(derive_seconds=t1 - t0, verify_seconds=t2 - t1,
                     total_seconds=t2 - t_start)
        stats["verified_representatives"] = report.representatives
        stats["verified_structures"] = report.structures
        if not report.ok:
            bad = ", ".join(str(v.requirement.source or v.index)
                            for v in report.failures())
            raise SynthesisError(
                "solver model failed independent verification (%s); "
                "this indicates an encoding gap" % bad)
        return SynthesisResult("configuration", config, report, eff,
                               stats=stats)

    def finish_unsat(exhaustive: bool, message: str) -> SynthesisResult:
        if "attempts" in stats:
            settle(stats["attempts"][-1])
        stats["total_seconds"] = time.perf_counter() - t_start
        return SynthesisResult("unsat", requirements=eff, exhaustive=exhaustive,
                               message=message, stats=stats)

    # a clause count, "class" for the class template, or the given template
    if isinstance(template, Template):
        plan: List[object] = [template]
    elif template == "complete" or max_k == 0:
        plan = ["class"]
    else:
        plan = [1, "class", *range(2, max_k + 1)]
    kept = None                         # the class template, its model and record
    out_of_reach: Optional[CapExceeded] = None
    # whether a dead end past the entry can make the encoding of an
    # until stricter than the checker
    stalls = any(contains_au(r.constraint) for r in eff) and not any(
        isinstance(r.target, Top) and is_deadlock_freeness(r.constraint) for r in eff)
    for step in plan:
        t_build = time.perf_counter()
        try:
            tpl = (step if isinstance(step, Template)
                   else complete_template(S, eff, complete_cap) if step == "class"
                   else dnf_template(S, eff, step))
        except CapExceeded as exc:
            if template == "complete":
                stats["total_seconds"] = time.perf_counter() - t_start
                return SynthesisResult("cap-exceeded", requirements=eff,
                                       message=str(exc), stats=stats)
            out_of_reach = exc
            continue
        if isinstance(step, int):
            stats["clauses_reached"] = step
        model = _attempt(S, guard_formula, tpl, solver, solver_cmd, timeout,
                         emit_smt, stats, time.perf_counter() - t_build)
        if step == "class":
            # the class template is complete: its unsat answer is every
            # wider clause template's too
            if model is None and stalls:
                return finish_unsat(False, "no configuration in the class template "
                                    "works, but without deadlock freeness A[.. U ..] "
                                    "is encoded more strictly than it is checked, so "
                                    "one may exist; --deadlock-free auto rules out "
                                    "the dead ends where the two differ")
            if model is None:
                return finish_unsat(True, "no configuration at all can satisfy "
                                    "these requirements")
            kept = (tpl, model, stats["attempts"][-1])
        elif model is not None:
            return finish_sat(tpl, model, stats["attempts"][-1])
    if kept is None:
        return finish_unsat(False, "no candidate in the given template works"
                            if out_of_reach is None else
                            "no clause policy with up to %d clauses works, and the "
                            "complete template is out of reach (%s)" % (max_k, out_of_reach))
    tpl, model, answering = kept
    if emit_smt and answering is not stats["attempts"][-1]:
        # clause attempts wrote their scripts after the class attempt's
        _write_script(emit_smt, S, expand_guards(guard_formula, tpl), tpl)
    return finish_sat(tpl, model, answering)


def verify(S: ResourceStructure, reqs: Sequence[Requirement],
           config: Configuration, deadlock_free: str = "off") -> HoldsReport:
    """Check a configuration against the requirements, optionally with
    the deadlock-freeness requirement appended."""
    eff = effective_requirements(reqs, deadlock_free)
    return holds(S, config, eff)


# ---------------------------------------------------------------------------
# Polarity classification
# ---------------------------------------------------------------------------

@dataclass
class PolarityReport:
    requirement: Requirement
    declared: str
    final: str
    checked_pairs: int
    counterexample: Optional[Tuple[Configuration, Configuration]] = None


def _policy_lattice(t: Formula) -> List[List[Formula]]:
    """Chains of policies ordered by how much they grant."""
    return [[falsum(), t, Top()], [falsum(), Not(t), Top()]]


def classify(S: ResourceStructure, req: Requirement, samples: int = 24,
             seed: int = 0) -> PolarityReport:
    """Spot-check the declared polarity against its semantic meaning.

    Positive means opening more edges never breaks the requirement;
    negative means closing more edges never does. Random comparable
    configuration pairs are drawn and both checked; any violation
    downgrades the verdict to unknown.
    """
    declared = req.polarity
    if declared == UNKNOWN:
        return PolarityReport(req, declared, UNKNOWN, 0)
    rng = random.Random(seed)
    edges = S.controlled_edges()
    chains = _policy_lattice(req.target)
    checked = 0

    def outcome(c: Configuration) -> bool:
        return holds(S, c, [req]).ok

    pairs = [({e: falsum() for e in edges}, {e: Top() for e in edges})]
    for _ in range(samples):
        smaller: Configuration = {}
        larger: Configuration = {}
        for e in edges:
            chain = chains[rng.randrange(len(chains))]
            i = rng.randrange(len(chain))
            j = rng.randrange(i, len(chain))
            smaller[e] = chain[i]
            larger[e] = chain[j]
        pairs.append((smaller, larger))

    for smaller, larger in pairs:
        checked += 1
        ok_small = outcome(smaller)
        ok_large = outcome(larger)
        if declared == POSITIVE and ok_small and not ok_large:
            return PolarityReport(req, declared, UNKNOWN, checked,
                                  (smaller, larger))
        if declared == NEGATIVE and ok_large and not ok_small:
            return PolarityReport(req, declared, UNKNOWN, checked,
                                  (smaller, larger))
    return PolarityReport(req, declared, declared, checked)


# ---------------------------------------------------------------------------
# Simulation and conflict search
# ---------------------------------------------------------------------------

@dataclass
class SimulationReport:
    request: AccessRequest
    granted: Set[Edge]
    denied: Set[Edge]
    reachable: List[str]
    stranded: List[str]
    dot: str


def simulate(S: ResourceStructure, config: Configuration,
             q: AccessRequest) -> SimulationReport:
    """Where can this request actually go under this configuration?"""
    granted = granted_edges(S, config, q)
    denied = set(S.edges) - granted
    reach = S.reachable(granted)
    stranded = [r for r in S.nodes if r not in reach]
    dot = to_dot(S, config, granted=granted,
                 title="request " + format_request(q, S.sig))
    return SimulationReport(dict(q), granted, denied, sorted(reach), stranded, dot)


def minimal_conflict(S: ResourceStructure, reqs: Sequence[Requirement],
                     **synth_kwargs) -> Optional[Tuple[int, SynthesisResult]]:
    """Shortest prefix of the requirement list that is already
    unsatisfiable: returns (index of the offending addition, its
    result), or None when the full list is satisfiable.

    The prefix grows one requirement at a time, so the reported index
    is the first requirement that cannot coexist with everything before
    it under the searched templates.
    """
    for end in range(1, len(reqs) + 1):
        result = synth(S, reqs[:end], **synth_kwargs)
        if result.outcome != "configuration":
            return end - 1, result
    return None
