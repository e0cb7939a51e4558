"""Reference synthesis by exhaustive edge-set search.

This is the slow, obviously-correct baseline. For one constraint it
searches kept-edge subsets directly; for a requirement set it splits
requests into classes by which targets they satisfy, solves each class,
and accumulates per-edge policies as conjunctions of negated targets.
Both walks are deterministic, so results are reproducible. The cost is
exponential in the number of controlled edges and doubly driven by the
number of requirements, which keeps this usable only on small models;
the template-based synthesizer is the scalable path, and this module
is the reference it is tested against.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from .formulas import (
    Formula, Not, Requirement, SynthesisError, Top, conj, simplify_policy,
    target_equiv, target_sat,
)
from .checker import holds, model_check
from .model import Configuration, Edge, ResourceStructure

MANY_EDGES = 16
MANY_REQUIREMENTS = 12


def cs(S: ResourceStructure, phi: Formula) -> Optional[FrozenSet[Edge]]:
    """Largest edge set whose induced structure satisfies the formula
    at the entry, or None when no subset does.

    Fixed edges are always kept. Controlled subsets are tried from the
    full set downward, so the first hit keeps as many edges open as
    possible; within one size, subsets are tried in positional order
    over the sorted edge list.
    """
    controlled = S.controlled_edges()
    fixed = S.fixed_edges()
    if len(controlled) > MANY_EDGES:
        warnings.warn("edge-set search over %d controlled edges (2^%d subsets)"
                      % (len(controlled), len(controlled)), stacklevel=2)
    for size in range(len(controlled), -1, -1):
        for combo in itertools.combinations(controlled, size):
            kept = frozenset(fixed) | frozenset(combo)
            sub = S.with_edges(kept)
            if model_check(sub, phi):
                return kept
    return None


@dataclass
class ClassicOutcome:
    """Result of the requirement-class synthesis walk."""
    configuration: Optional[Configuration]
    raw_configuration: Optional[Configuration]
    satisfiable: bool
    subset_iterations: int
    searches: int
    unsat_class: Optional[Tuple[int, ...]] = None
    dropped: Dict[Edge, int] = field(default_factory=dict)


def s_cs(S: ResourceStructure, reqs: Sequence[Requirement]) -> Optional[Configuration]:
    out = s_cs_detailed(S, reqs)
    return out.configuration


def s_cs_detailed(S: ResourceStructure, reqs: Sequence[Requirement]) -> ClassicOutcome:
    """Synthesize one policy per controlled edge by solving every
    request class separately.

    Requests are partitioned by which targets they satisfy. For each
    nonempty class, the edge-set search solves the conjunction of the
    matching constraints; edges outside the solution get the class
    excluded from their policy. A class with no solution makes the
    whole instance unsatisfiable.
    """
    reqs = list(reqs)
    if len(reqs) > MANY_REQUIREMENTS:
        warnings.warn("request-class walk over %d requirements (2^%d classes)"
                      % (len(reqs), len(reqs)), stacklevel=2)
    for e in S.fixed_edges():
        if not target_equiv(S.edges[e], Top(), S.sig):
            raise ValueError(
                "edge-set synthesis assumes fixed edges grant everyone; "
                "edge %s->%s has policy %r" % (e[0], e[1], S.edges[e]))
    controlled = S.controlled_edges()
    raw: Dict[Edge, Formula] = {e: Top() for e in controlled}
    dropped: Dict[Edge, int] = {e: 0 for e in controlled}
    iterations = 0
    searches = 0

    for mask in range(1 << len(reqs)):
        iterations += 1
        members = tuple(i for i in range(len(reqs)) if mask >> i & 1)
        rest = [i for i in range(len(reqs)) if not mask >> i & 1]
        class_target = conj([reqs[i].target for i in members]
                            + [Not(reqs[i].target) for i in rest])
        if target_sat(class_target, S.sig) is None:
            continue
        phi = conj([reqs[i].constraint for i in members])
        searches += 1
        kept = cs(S, phi)
        if kept is None:
            return ClassicOutcome(None, None, False, iterations, searches,
                                  unsat_class=members, dropped=dropped)
        for e in controlled:
            if e not in kept:
                raw[e] = conj([raw[e], Not(class_target)])
                dropped[e] += 1

    config = {e: simplify_policy(raw[e], S.sig) for e in controlled}
    report = holds(S, config, reqs)
    if not report.ok:
        raise SynthesisError("edge-set synthesis produced a configuration "
                             "that fails its own requirements")
    return ClassicOutcome(config, raw, True, iterations, searches, dropped=dropped)
