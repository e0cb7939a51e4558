"""Branching-time model checking and configuration verification.

Path quantifiers range over *maximal* paths: paths that are either
infinite or end in a space without outgoing edges. Restricted
structures routinely contain such dead ends (every edge out of a space
may deny a request), so the dead-end cases matter:

* AX phi holds vacuously at a space with no successors;
* A[phi U psi] needs psi now, or phi now plus at least one successor
  and psi-eventually on all of them. At a dead end the until fails
  unless psi already holds there.

Satisfaction sets are computed bottom-up per subformula, least fixed
points by iteration.

holds() checks a configuration for every request. Requests fall into
finitely many regions; the regions are grouped by the doors they open,
and each group's restricted structure is built and checked once, for
the requirements whose targets meet the group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from .formulas import (
    AU, AX, BOTTOM, EU, EX, AccessRequest, And, Atom, Formula, Not,
    Requirement, Top, build_regions, collect_atoms, lowest_bit, refine,
    subformulas, target_masks,
)
from .model import Configuration, ResourceStructure, policy_of, restrict


def label_structure(S: ResourceStructure, f: Formula) -> Dict[Formula, Set[str]]:
    """Satisfaction set for every subformula of f."""
    nodes = S.nodes
    sat: Dict[Formula, Set[str]] = {}
    for g in subformulas(f):
        if isinstance(g, Top):
            sat[g] = set(nodes)
        elif isinstance(g, Atom):
            sat[g] = {r for r in nodes
                      if S.labels[r].get(g.attr, BOTTOM) in g.values}
        elif isinstance(g, Not):
            sat[g] = set(nodes) - sat[g.sub]
        elif isinstance(g, And):
            sat[g] = sat[g.left] & sat[g.right]
        elif isinstance(g, EX):
            body = sat[g.sub]
            sat[g] = {r for r in nodes if any(s in body for s in S.successors(r))}
        elif isinstance(g, AX):
            body = sat[g.sub]
            sat[g] = {r for r in nodes if all(s in body for s in S.successors(r))}
        elif isinstance(g, EU):
            sat[g] = _eu_fixpoint(S, sat[g.left], sat[g.right])
        elif isinstance(g, AU):
            sat[g] = _au_fixpoint(S, sat[g.left], sat[g.right])
        else:
            raise TypeError("unknown formula node %r" % (g,))
    return sat


def _eu_fixpoint(S: ResourceStructure, hold: Set[str], goal: Set[str]) -> Set[str]:
    z = set(goal)
    work = list(goal)
    while work:
        r = work.pop()
        for p in S.predecessors(r):
            if p not in z and p in hold:
                z.add(p)
                work.append(p)
    return z


def _au_fixpoint(S: ResourceStructure, hold: Set[str], goal: Set[str]) -> Set[str]:
    z = set(goal)
    changed = True
    while changed:
        changed = False
        for r in S.nodes:
            if r in z or r not in hold:
                continue
            succ = S.successors(r)
            if succ and all(s in z for s in succ):
                z.add(r)
                changed = True
    return z


def check_at(S: ResourceStructure, node: str, f: Formula) -> bool:
    return node in label_structure(S, f)[f]


def model_check(S: ResourceStructure, f: Formula) -> bool:
    """Does the structure satisfy f at its entry?"""
    return check_at(S, S.entry, f)


# ---------------------------------------------------------------------------
# Verification of a configuration against requirements
# ---------------------------------------------------------------------------

@dataclass
class RequirementVerdict:
    index: int
    requirement: Requirement
    ok: bool
    witness: Optional[AccessRequest] = None
    witness_structure: Optional[ResourceStructure] = None


@dataclass
class HoldsReport:
    ok: bool
    verdicts: List[RequirementVerdict]
    representatives: int    # request regions
    structures: int         # restricted structures checked

    def failures(self) -> List[RequirementVerdict]:
        return [v for v in self.verdicts if not v.ok]


def verification_atoms(S: ResourceStructure, c: Configuration,
                       reqs: Sequence[Requirement]) -> List[Atom]:
    """Atoms whose verdicts can influence verification: everything the
    requirement targets mention plus everything any edge policy tests.
    A policy that several doors share is walked once."""
    roots = [r.target for r in reqs] + [policy_of(S, c, e) for e in sorted(S.edges)]
    return [a for f in dict.fromkeys(roots) for a in collect_atoms(f)]


def holds(S: ResourceStructure, c: Configuration,
          reqs: Sequence[Requirement]) -> HoldsReport:
    """Check every requirement against every request class.

    Requests are sampled one per region: one per vector of verdicts over
    the membership tests that the targets and the edge policies make.
    Two requests in the same region open exactly the same edges and
    match exactly the same targets, so the sample is exhaustive, and no
    two samples are alike on all of them.

    A chunk of regions at a time, every distinct policy and live target
    gets a mask of the regions it holds in, and the policy masks split
    the regions into groups that open the same doors. Each group's
    restricted structure, built from its lowest region, is checked once
    per requirement whose target meets the group. A failing requirement's
    witness is the lowest region of its target in a group where it fails:
    the first failing representative.
    """
    regions = build_regions(S.sig, verification_atoms(S, c, reqs))
    policies = list(dict.fromkeys(policy_of(S, c, e) for e in S.edges))
    verdicts = [RequirementVerdict(i, r, True) for i, r in enumerate(reqs)]
    structures = 0
    for start, width in regions.chunks():
        live = [v for v in verdicts if v.ok]
        if not live:
            break
        masks = target_masks(policies + [v.requirement.target for v in live],
                             regions, start, width)
        failed: Dict[int, int] = {}     # verdict index -> its first failing bit
        for group in refine((1 << width) - 1, [masks[p] for p in policies]):
            applicable = []
            for v in live:
                meet = masks[v.requirement.target] & group
                first = lowest_bit(meet) if meet else width
                if first < failed.get(v.index, width):
                    applicable.append((v, first))
            if not applicable:
                continue
            sub = restrict(S, c, regions.representative(start + lowest_bit(group)))
            structures += 1
            for v, first in applicable:
                if not model_check(sub, v.requirement.constraint):
                    failed[v.index] = first
                    v.witness_structure = sub
        for v in live:
            if v.index in failed:
                v.ok = False
                v.witness = regions.representative(start + failed[v.index])
    return HoldsReport(all(v.ok for v in verdicts), verdicts, regions.count(),
                       structures)
