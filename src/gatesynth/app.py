"""The synthesis driver and its companion analyses.

synth() glues the pipeline together: inject the deadlock-freeness
requirement when universal untils call for it, optionally add a
deny-by-default floor, encode the requirements once, expand them over
a template, ground and solve request by request until the model holds
at every request, extract a configuration, and verify it with the
independent checker before handing it back. The templates are tried
in the order: one clause, then the complete class template (one bit
per door and request class), then 2 up to max_k clauses. The class
template can express every configuration up to request class, so its
failure refutes every configuration, not just the searched family,
and no later template needs to run; when it succeeds its model is kept
and answers if the wider clause templates fail too. Every template
tried is recorded in stats["attempts"]; deriving and verifying the
configuration found are timed as derive_seconds and verify_seconds.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .formulas import (
    AX, AccessRequest, Atom, BOTTOM, ControlFormula, Formula, NEGATIVE,
    POSITIVE, Not, Requirement, Top, UNKNOWN, conj, contains_au,
    deadlock_free_constraint, falsum,
)
from . import encoder
from .checker import HoldsReport, holds
from .encoder import (
    SolverError, cand, emit_smtlib, encode, expand_guards, formula_edges,
    formula_size, ground_forall, run_external, sat_solve,
)
from .model import (
    Configuration, Edge, ResourceStructure, SynthesisError, granted_edges,
    restrict, to_dot,
)
from .rules import format_request
from .templates import CapExceeded, Template, complete_template, dnf_template


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


def effective_requirements(S: ResourceStructure, reqs: Sequence[Requirement],
                           deadlock_free: str = "auto",
                           deny_by_default: bool = False,
                           entry_label: Optional[Tuple[str, object]] = None
                           ) -> List[Requirement]:
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
        out.append(deny_by_default_requirement(S, reqs, entry_label))
    return out


def deny_by_default_requirement(S: ResourceStructure, reqs: Sequence[Requirement],
                                entry_label: Optional[Tuple[str, object]] = None
                                ) -> Requirement:
    """Requests matched by no granting requirement must stay put: every
    edge the entry still grants them leads back to a space labeled like
    the entry, which no other space is, so there is none.
    """
    if entry_label is None:
        label = S.labels[S.entry]
        candidates = sorted(a for a, v in label.items()
                            if v is not BOTTOM and all(
                                S.labels[r].get(a) != v for r in S.nodes if r != S.entry))
        if not candidates:
            raise ValueError("no label attribute singles out the entry; "
                             "pass one explicitly")
        attr = candidates[0]
        value = label[attr]
    else:
        attr, value = entry_label
        if S.labels[S.entry].get(attr) != value:
            raise ValueError("entry is not labeled %s=%s" % (attr, value))
        if any(S.labels[r].get(attr) == value for r in S.nodes if r != S.entry):
            raise ValueError("%s=%s does not single out the entry" % (attr, value))
    positive_targets = []
    for r in reqs:
        if r.polarity == POSITIVE:
            positive_targets.append(r.target)
        elif r.polarity == UNKNOWN:
            raise ValueError(
                "deny-by-default needs every requirement's polarity; %r is unclassified"
                % (r.source or r,))
    target = conj([Not(t) for t in positive_targets])
    constraint = AX(Atom(attr, frozenset([value])))
    return Requirement(target, constraint, NEGATIVE, source=DENY_DEFAULT_SOURCE)


def _solve(grounded: ControlFormula, template: Template, solver: str,
           solver_cmd: Optional[str], store: encoder._Cnf, counters: Dict[str, int]):
    variables = template.control_vars()
    if solver == "builtin":
        store.time_left()               # raises once the deadline has passed
        return sat_solve(grounded, variables, counters, store)
    if solver == "external":
        if not solver_cmd:
            raise ValueError("external solving needs a solver command")
        script = emit_smtlib(grounded, variables)
        verdict, model = run_external(script, solver_cmd, store.time_left())
        if verdict == "unsat":
            return None
        if model is None:
            raise SolverError("solver said sat but returned no model")
        values = {v.name: model.get(v.name, 0) for v in variables}
        for v in variables:
            if not 0 <= values[v.name] < v.size:
                raise SolverError("solver gave %s the value %r, outside 0..%d"
                                  % (v.name, values[v.name], v.size - 1))
        return values
    raise ValueError("unknown solver %r" % solver)


def _write_script(path: str, S: ResourceStructure, expanded: ControlFormula,
                  template: Template) -> None:
    """Write an expanded formula as an SMT-LIB script with the request
    kept universally quantified."""
    with open(path, "w") as fh:
        fh.write(emit_smtlib(expanded, template.control_vars(),
                             sig=S.sig, quantified=True))


def _attempt(S: ResourceStructure, guard_formula: ControlFormula,
             template: Template, solver: str, solver_cmd: Optional[str],
             timeout: Optional[float], emit_smt: Optional[str],
             stats: Dict[str, object], build_seconds: float = 0.0):
    """Expand, ground and solve the guard formula over one template. Its
    sizes, seconds and counters go into stats["attempts"]; the top-level
    keys sum the seconds over all attempts and keep the rest of the
    latest one (synth puts back the class attempt's when its kept model
    gives the answer).

    Grounding is counterexample-guided: solve over the instances of the
    requests picked so far (at first none, so the first model is all
    zeros), ask counterexample() for a request at which the model fails
    the expanded formula, and add that request's instance. The expanded
    formula is compiled once for those checks, and the regions stat is
    read off the compiled form's atoms. The partial
    conjunction has a superset of the full grounding's models, so its
    least model, once it holds at every request, is the full grounding's
    least model too; an unsat answer is already an unsat answer of the
    full grounding. The built-in solver keeps one store for the attempt,
    so each iteration translates and searches only what the new instance
    adds. timeout is one deadline for the attempt, kept by that store: it
    is checked before every solver call, inside the built-in search, and
    it bounds every external solver run.

    The stage seconds are disjoint: expand_seconds the template's
    construction (build_seconds, timed by the caller) and expansion,
    ground_seconds the instances, check_seconds the compilation and the
    counterexample checks, cnf_seconds the built-in solver's translation
    to clauses, and solve_seconds the rest of the solver calls (the
    search, or the external runs)."""
    t0 = time.perf_counter()
    expanded = expand_guards(guard_formula, template)
    t1 = time.perf_counter()
    if emit_smt:
        _write_script(emit_smt, S, expanded, template)
    store = encoder._Cnf(template.control_vars(), timeout)
    counters: Dict[str, int] = {}
    solve_seconds = 0.0
    t2 = time.perf_counter()
    compiled = encoder.Compiled(expanded)
    regions = encoder.build_regions(S.sig, compiled.atoms).count()
    check_seconds = time.perf_counter() - t2
    grounded: ControlFormula = Top()
    instances: Set[ControlFormula] = set()
    while True:
        t = time.perf_counter()
        model = _solve(grounded, template, solver, solver_cmd, store, counters)
        t3 = time.perf_counter()
        solve_seconds += t3 - t
        failing = None if model is None else encoder.counterexample(
            compiled, model, S.sig)
        check_seconds += time.perf_counter() - t3
        if failing is None:
            break
        instance = ground_forall(expanded, S.sig, [failing])
        if instance in instances:
            raise SynthesisError(
                "the model fails request %r, whose instance it was solved "
                "over; this indicates a grounding gap" % (failing,))
        instances.add(instance)
        grounded = cand([grounded, instance])
    ground_seconds = time.perf_counter() - t2 - solve_seconds - check_seconds
    cnf_seconds = counters.pop("cnf_seconds", 0.0)
    attempt: Dict[str, object] = {
        "template": template.describe(),
        "expanded_size": formula_size(expanded),
        "grounded_size": formula_size(grounded),
        "control_vars": len(template.control_vars()),
        "control_bits": template.bit_count(),
        "regions": regions,
        "instances": len(instances),
        "iterations": len(instances) + 1,
        "expand_seconds": build_seconds + t1 - t0,
        "ground_seconds": ground_seconds,
        "check_seconds": check_seconds,
        "cnf_seconds": cnf_seconds,
        "solve_seconds": solve_seconds - cnf_seconds,
    }
    attempt.update(counters)
    stats.setdefault("attempts", []).append(attempt)
    for key, value in attempt.items():
        if key.endswith("_seconds"):
            value += stats.get(key, 0.0)
        stats[key] = value
    return model


def synth(S: ResourceStructure, reqs: Sequence[Requirement],
          template: object = "dnf",
          max_k: int = 3,
          solver: str = "builtin",
          solver_cmd: Optional[str] = None,
          timeout: Optional[float] = None,
          deadlock_free: str = "auto",
          deny_by_default: bool = False,
          entry_label: Optional[Tuple[str, object]] = None,
          complete_cap: int = 4096,
          emit_smt: Optional[str] = None) -> SynthesisResult:
    """Find a configuration making every requirement hold, or report
    that none exists in the searched space.

    template may be "dnf", "complete" (the class template directly), or
    a Template instance. "dnf" tries the one-clause template, then the
    complete class template, then clause templates of 2 up to max_k
    clauses. The class template's unsat answer is exhaustive and is
    returned at once (stats["clauses_reached"] is then 1); its model,
    when it has one, gives the configuration if every clause template
    fails. With max_k of 0 or 1 the class template comes last, as the
    only attempt or after the one-clause one. complete_cap bounds the
    number of request classes the class template may have; past it the
    clause templates still run, and the answer when they all fail is a
    non-exhaustive unsat. timeout is one deadline per attempt, so the
    class attempt can time out before two clauses are tried. The
    requirements are encoded once; every template tried expands that
    one guard formula. solver_cmd is the external solver's command
    line; giving one with the built-in solver is a ValueError.
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
    eff = effective_requirements(S, reqs, deadlock_free, deny_by_default,
                                 entry_label)
    stats: Dict[str, object] = {"solver": solver, "requirements": len(eff)}
    t_start = time.perf_counter()
    guard_formula = cand([encode(S, r) for r in eff])
    stats["encode_seconds"] = time.perf_counter() - t_start
    stats["guard_formula_size"] = formula_size(guard_formula)
    stats["guard_formula_edges"] = formula_edges(guard_formula)

    def finish_sat(tpl: Template, model) -> SynthesisResult:
        t0 = time.perf_counter()
        config = tpl.derive(model)
        t1 = time.perf_counter()
        report = holds(S, config, eff)
        t2 = time.perf_counter()
        stats.update(derive_seconds=t1 - t0, verify_seconds=t2 - t1,
                     total_seconds=t2 - t_start)
        stats["verified_representatives"] = report.representatives
        if not report.ok:
            bad = ", ".join(str(v.requirement.source or v.index)
                            for v in report.failures())
            raise SynthesisError(
                "solver model failed independent verification (%s); "
                "this indicates an encoding gap" % bad)
        return SynthesisResult("configuration", config, report, eff,
                               stats=stats)

    def finish_unsat(exhaustive: bool, message: str) -> SynthesisResult:
        stats["total_seconds"] = time.perf_counter() - t_start
        return SynthesisResult("unsat", requirements=eff, exhaustive=exhaustive,
                               message=message, stats=stats)

    def attempt(tpl: Template, build_seconds: float = 0.0):
        return _attempt(S, guard_formula, tpl, solver, solver_cmd, timeout,
                        emit_smt, stats, build_seconds)

    if isinstance(template, Template):
        model = attempt(template)
        if model is not None:
            return finish_sat(template, model)
        return finish_unsat(False, "no candidate in the given template works")

    # the class template is complete: its unsat answer is every wider
    # clause template's too
    widths = range(1, max_k + 1) if template == "dnf" else range(0)

    def clause_attempts(ks: range) -> Optional[SynthesisResult]:
        for k in ks:
            t_build = time.perf_counter()
            tpl = dnf_template(S, eff, k)
            stats["clauses_reached"] = k
            model = attempt(tpl, time.perf_counter() - t_build)
            if model is not None:
                return finish_sat(tpl, model)
        return None

    found = clause_attempts(widths[:1])
    if found is not None:
        return found
    t_build = time.perf_counter()
    try:
        complete = complete_template(S, eff, complete_cap)
    except CapExceeded as exc:
        if template == "complete":
            stats["total_seconds"] = time.perf_counter() - t_start
            return SynthesisResult("cap-exceeded", requirements=eff,
                                   message=str(exc), stats=stats)
        found = clause_attempts(widths[1:])
        if found is not None:
            return found
        return finish_unsat(False,
                            "no clause policy with up to %d clauses works, and the "
                            "complete template is out of reach (%s)" % (max_k, exc))
    complete_model = attempt(complete, time.perf_counter() - t_build)
    if complete_model is None:
        return finish_unsat(True, "no configuration at all can satisfy these requirements")
    complete_attempt = stats["attempts"][-1]
    found = clause_attempts(widths[1:])
    if found is not None:
        return found
    if widths[1:]:
        # clause attempts ran after the class attempt, whose model answers:
        # put back its sizes and counters at the top level, and its script
        stats.update((key, value) for key, value in complete_attempt.items()
                     if not key.endswith("_seconds"))
        if emit_smt:
            _write_script(emit_smt, S, expand_guards(guard_formula, complete), complete)
    return finish_sat(complete, complete_model)


def verify(S: ResourceStructure, reqs: Sequence[Requirement],
           config: Configuration, deadlock_free: str = "off") -> HoldsReport:
    """Check a configuration against the requirements, optionally with
    the deadlock-freeness requirement appended."""
    eff = effective_requirements(S, reqs, deadlock_free)
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
    sub = restrict(S, config, q)
    reachable = sorted(sub.reachable())
    stranded = [r for r in S.nodes if r not in reachable]
    dot = to_dot(S, config, granted=granted,
                 title="request " + format_request(q, S.sig))
    return SimulationReport(dict(q), granted, denied, reachable, stranded, dot)


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
