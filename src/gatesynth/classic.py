"""Reference synthesis by exhaustive edge-set search.

This is the slow, obviously-correct baseline. For one constraint it
searches kept-edge subsets directly; for a requirement set it splits
requests into classes by which targets they satisfy, solves each class,
and accumulates per-edge policies as conjunctions of negated targets.
Both walks are deterministic, so results are reproducible. The cost is
exponential in the number of controlled edges and doubly driven by the
number of requirements, which keeps this usable only on small models;
the template-based synthesizer is the scalable path.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .formulas import (
    Formula, Not, Requirement, Top, conj, target_equiv, target_sat,
)
from .checker import holds, model_check
from .model import Configuration, Edge, ResourceStructure, SynthesisError
from .templates import MenuTemplate, simplify_policy

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


class CapExceeded(Exception):
    """The complete candidate menu would be too large to build."""

    def __init__(self, needed: int, cap: int):
        super().__init__("complete menu needs %d candidates per edge, cap is %d"
                         % (needed, cap))
        self.needed = needed
        self.cap = cap


def complete_menu(S: ResourceStructure, reqs: Sequence[Requirement],
                  cap: int = 4096) -> List[Formula]:
    """Every policy any requirement set over these targets could need:
    all conjunctions of negated request classes, deduplicated.

    Any configuration whatsoever is equivalent, request-class by
    request-class, to one built from this menu, so an unsatisfiable
    search over it refutes every configuration. Nontrivial fixed-edge
    policies refine the classes, since the structure a request sees
    depends on them too.
    """
    reqs = list(reqs)
    pseudo = [S.edges[e] for e in S.fixed_edges()
              if not target_equiv(S.edges[e], Top(), S.sig)]
    splitters: List[Formula] = [r.target for r in reqs] + pseudo
    n = len(splitters)
    needed = 1 << (1 << n)
    if needed > cap:
        raise CapExceeded(needed, cap)
    class_targets: List[Formula] = []
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        rest = [i for i in range(n) if not mask >> i & 1]
        t = conj([splitters[i] for i in members]
                 + [Not(splitters[i]) for i in rest])
        class_targets.append(t)
    sat_classes = [t for t in class_targets if target_sat(t, S.sig) is not None]

    menu: List[Formula] = []
    for excluded_mask in range(1 << len(sat_classes)):
        t = conj([Not(sat_classes[i]) for i in range(len(sat_classes))
                  if excluded_mask >> i & 1])
        if not any(target_equiv(t, prior, S.sig) for prior in menu):
            menu.append(t)
    return [simplify_policy(t, S.sig) for t in menu]


def complete_template(S: ResourceStructure, reqs: Sequence[Requirement],
                      cap: int = 4096) -> MenuTemplate:
    menu = complete_menu(S, reqs, cap)
    return MenuTemplate(S, {e: menu for e in S.controlled_edges()})
