"""Branching-time model checking and configuration verification.

Path quantifiers range over *maximal* paths: paths that are either
infinite or end in a space without outgoing edges. Restricted
structures routinely contain such dead ends (every edge out of a space
may deny a request), so the dead-end cases matter:

* AX phi holds vacuously at a space with no successors;
* A[phi U psi] needs psi now, or phi now plus at least one successor
  and psi-eventually on all of them. At a dead end the until fails
  unless psi already holds there.

Satisfaction sets are int masks over the structure's space index
(`ResourceStructure.index`, bit `index.bit[r]` for space r, within
`index.full`), computed bottom-up per subformula in the linear-time
manner of Clarke, Emerson and Sistla: an atom from its mask in a table
of atom masks, EX from predecessor masks, EU by SpaceIndex.walk
backwards from the goal through the spaces where the left side holds,
AU by counting the successors of each space not yet in the set.

holds() checks a configuration for every request. Requests fall into
finitely many regions; the regions are grouped by the doors they open,
and each group's restricted structure, a view of the building that
shares its numbering, is built from those doors and checked once per
distinct constraint, for the requirements whose targets meet the group.
The atoms are labelled once per call, over the building, and each
view reads its part of an atom's mask with `& full`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from .formulas import (
    AU, AX, BOTTOM, EU, EX, AccessRequest, And, Atom, Formula, Not,
    Requirement, Top, build_regions, collect_atoms, lowest_bit, refine,
    subformulas, target_masks,
)
from .model import (
    Configuration, Edge, ResourceStructure, SpaceIndex, restrict,
)


def atom_masks(S: ResourceStructure, atoms: Iterable[Atom]) -> Dict[Atom, int]:
    """The mask over S.index of the spaces of S where each atom holds:
    one pass over the spaces per attribute tested, then each atom joins
    the masks of the values it admits."""
    bit = S.index.bit
    by_attr: Dict[str, List[Atom]] = {}
    for a in dict.fromkeys(atoms):
        by_attr.setdefault(a.attr, []).append(a)
    table: Dict[Atom, int] = {}
    for attr, tests in by_attr.items():
        of_value: Dict[object, int] = {}
        for r, label in S.labels.items():
            v = label.get(attr, BOTTOM)
            of_value[v] = of_value.get(v, 0) | bit[r]
        for a in tests:     # the value masks are disjoint: their sum is their union
            table[a] = sum(m for v, m in of_value.items() if v in a.values)
    return table


def label_structure(S: ResourceStructure, f: Formula,
                    atoms: Optional[Dict[Atom, int]] = None) -> Dict[Formula, int]:
    """Satisfaction mask over S.index for every subformula of f. `atoms`
    holds the mask of every atom of f over S or over the building S is a
    view of; without it, the atoms are labelled over S."""
    if atoms is None:
        atoms = atom_masks(S, collect_atoms(f))
    ix = S.index
    full = ix.full
    sat: Dict[Formula, int] = {}
    for g in subformulas(f):
        kind = type(g)      # node classes are final
        if kind is Top:
            x = full
        elif kind is Atom:
            x = atoms[g] & full
        elif kind is Not:
            x = full ^ sat[g.sub]
        elif kind is And:
            x = sat[g.left] & sat[g.right]
        elif kind is EX:
            x = _pre(ix, sat[g.sub])
        elif kind is AX:
            x = full ^ _pre(ix, full ^ sat[g.sub])   # vacuous at dead ends
        elif kind is EU:
            x = ix.walk(sat[g.right], sat[g.right], ix.pred, sat[g.left], full)
        elif kind is AU:
            x = _au(ix, sat[g.left], sat[g.right])
        else:
            raise TypeError("unknown formula node %r" % (g,))
        sat[g] = x
    return sat


def _pre(ix: SpaceIndex, body: int) -> int:
    """The spaces with a successor in `body`."""
    out = 0
    while body:
        low = body & -body
        out |= ix.pred[low.bit_length() - 1]
        body ^= low
    return out


def _au(ix: SpaceIndex, hold: int, goal: int) -> int:
    """A hold space joins when its last successor outside the set joins;
    a dead end never does, so it is in the set only where goal holds."""
    left = [m.bit_count() for m in ix.succ]
    z = work = goal
    while work:
        low = work & -work
        work ^= low
        preds = ix.pred[low.bit_length() - 1] & hold & ~z
        while preds:
            p = preds & -preds
            preds ^= p
            i = p.bit_length() - 1
            left[i] -= 1
            if not left[i]:
                z |= p
                work |= p
    return z


def check_at(S: ResourceStructure, node: str, f: Formula,
             atoms: Optional[Dict[Atom, int]] = None) -> bool:
    return bool(label_structure(S, f, atoms)[f] & S.index.bit[node])


def model_check(S: ResourceStructure, f: Formula,
                atoms: Optional[Dict[Atom, int]] = None) -> bool:
    """Does the structure satisfy f at its entry? `atoms` as for
    label_structure."""
    return check_at(S, S.entry, f, atoms)


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


def policy_doors(S: ResourceStructure, c: Configuration) -> Dict[Formula, List[Edge]]:
    """Every distinct door policy with the doors that carry it, in the
    order S.edges first meets the policies."""
    doors: Dict[Formula, List[Edge]] = {}
    for e, fixed in S.edges.items():
        # a fixed door keeps its own policy, a controlled one takes c's
        doors.setdefault(c[e] if fixed is None else fixed, []).append(e)
    return doors


def verification_atoms(S: ResourceStructure, c: Configuration,
                       reqs: Sequence[Requirement],
                       doors: Optional[Dict[Formula, List[Edge]]] = None) -> List[Atom]:
    """Atoms whose verdicts can influence verification: everything the
    requirement targets mention plus everything any edge policy tests.
    A policy that several doors share is walked once."""
    if doors is None:
        doors = policy_doors(S, c)
    roots = [r.target for r in reqs] + list(doors)
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
    the regions into groups that open the same doors: a policy's doors
    are open for a whole group when its mask meets the group. Each
    group's restricted structure is built from those doors, as a view of
    S, and each distinct constraint of the requirements whose target
    meets the group is labelled on it once. The constraints' atoms are
    labelled once, over S, and every view narrows their masks to its
    spaces. A failing requirement's witness is the lowest region of its
    target in a group where it fails: the first failing representative.
    """
    doors = policy_doors(S, c)
    regions = build_regions(S.sig, verification_atoms(S, c, reqs, doors))
    atoms = atom_masks(S, [a for phi in dict.fromkeys(r.constraint for r in reqs)
                           for a in collect_atoms(phi)])
    policies = list(doors)
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
            granted = {e for p in policies if masks[p] & group for e in doors[p]}
            sub = restrict(S, c, regions.representative(start + lowest_bit(group)),
                           granted=granted)
            structures += 1
            checked: Dict[Formula, bool] = {}      # constraint -> holds on sub
            for v, first in applicable:
                phi = v.requirement.constraint
                ok = checked.get(phi)
                if ok is None:
                    ok = checked[phi] = model_check(sub, phi, atoms)
                if not ok:
                    failed[v.index] = first
                    v.witness_structure = sub
        for v in live:
            if v.index in failed:
                v.ok = False
                v.witness = regions.representative(start + failed[v.index])
    return HoldsReport(all(v.ok for v in verdicts), verdicts, regions.count(),
                       structures)
