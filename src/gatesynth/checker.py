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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from .formulas import (
    AU, AX, BOTTOM, EU, EX, AccessRequest, And, Atom, Formula, Not,
    Requirement, Top, build_regions, collect_atoms, eval_target,
    subformulas,
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
    representatives: int

    def failures(self) -> List[RequirementVerdict]:
        return [v for v in self.verdicts if not v.ok]


def verification_atoms(S: ResourceStructure, c: Configuration,
                       reqs: Sequence[Requirement]) -> List[Atom]:
    """Atoms whose verdicts can influence verification: everything the
    requirement targets mention plus everything any edge policy tests."""
    atoms: List[Atom] = []
    for r in reqs:
        atoms.extend(collect_atoms(r.target))
    for e in sorted(S.edges):
        atoms.extend(collect_atoms(policy_of(S, c, e)))
    return atoms


def holds(S: ResourceStructure, c: Configuration,
          reqs: Sequence[Requirement]) -> HoldsReport:
    """Check every requirement against every request class.

    Requests are sampled one per region: one per vector of verdicts over
    the membership tests that the targets and the edge policies make.
    Two requests in the same region open exactly the same edges and
    match exactly the same targets, so the sample is exhaustive, and no
    two samples are alike on all of them.
    """
    regions = build_regions(S.sig, verification_atoms(S, c, reqs))
    verdicts = [RequirementVerdict(i, r, True) for i, r in enumerate(reqs)]
    count = 0
    for q in regions.representatives():
        count += 1
        applicable = [v for v in verdicts
                      if v.ok and eval_target(q, v.requirement.target)]
        if not applicable:
            continue
        sub = restrict(S, c, q)
        for v in applicable:
            if not model_check(sub, v.requirement.constraint):
                v.ok = False
                v.witness = dict(q)
                v.witness_structure = sub
    return HoldsReport(all(v.ok for v in verdicts), verdicts, count)
