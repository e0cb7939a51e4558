"""Differential tests for the space-mask paths.

label_structure labels with int masks over a structure's space index,
restrict takes the granted doors from a caller that knows them, and the
until rewrite holds its visited sets as masks. The references below are
the set-based versions they replace; each answer must be the one the
reference gives.

holds checks each group of regions on a view of the building: the
restricted structure shares the building's numbering, and the atoms
are labelled once per call over the building. Its reference restricts
to a structure with its own compact index, labels every atom on each
restricted structure, and groups the doors in sorted order.
"""

import random
from typing import Dict, FrozenSet, Optional, Tuple

from hypothesis import given, settings, strategies as st

from gatesynth import checker, data, model
from gatesynth.app import synth
from gatesynth.checker import (
    HoldsReport, RequirementVerdict, holds, label_structure,
)
from gatesynth.encoder import (
    cand, cguard, cimplies, cnot, cor, rewrite_constraint,
)
from gatesynth.formulas import (
    AU, AX, BOTTOM, EU, EX, And, Atom, CFalse, Not, Requirement, Top,
    build_regions, collect_atoms, lowest_bit, refine, subformulas, target_masks,
)
from gatesynth.model import (
    ResourceStructure, granted_edges, load_model, model_to_json, restrict,
    to_dot,
)
from gatesynth.rules import parse_requirements

from genutil import (
    random_config, random_constraint, random_model, random_pattern_requirement,
    random_request, random_target,
)
from test_adjacency import structure


# -- the set-based references ------------------------------------------------------

def old_label_structure(S, f):
    """Satisfaction set for every subformula of f."""
    nodes = sorted(S.labels)
    sat = {}
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
        else:
            sat[g] = _au_fixpoint(S, nodes, sat[g.left], sat[g.right])
    return sat


def _eu_fixpoint(S, hold, goal):
    z = set(goal)
    work = list(goal)
    while work:
        r = work.pop()
        for p in S.predecessors(r):
            if p not in z and p in hold:
                z.add(p)
                work.append(p)
    return z


def _au_fixpoint(S, nodes, hold, goal):
    z = set(goal)
    changed = True
    while changed:
        changed = False
        for r in nodes:
            if r in z or r not in hold:
                continue
            succ = S.successors(r)
            if succ and all(s in z for s in succ):
                z.add(r)
                changed = True
    return z


def old_rewrite_constraint(S, phi, start):
    """The until rewrite with visited sets as frozensets and a settled
    call per space the frontier walk meets."""
    memo = {}
    memo_u: Dict[Tuple[object, str, FrozenSet[str]], object] = {}
    decided: Dict[object, Dict[str, Optional[object]]] = {}
    guard = {e: cguard(e) for e in S.edges}

    def tau(f, r):
        key = (f, r)
        if key in memo:
            return memo[key]
        if isinstance(f, Top):
            out = Top()
        elif isinstance(f, Atom):
            out = Top() if S.labels[r].get(f.attr, BOTTOM) in f.values else CFalse()
        elif isinstance(f, Not):
            out = cnot(tau(f.sub, r))
        elif isinstance(f, And):
            out = cand([tau(f.left, r), tau(f.right, r)])
        elif isinstance(f, EX):
            out = cor([cand([guard[(r, s)], tau(f.sub, s)]) for s in S.successors(r)])
        elif isinstance(f, AX):
            out = cand([cimplies(guard[(r, s)], tau(f.sub, s)) for s in S.successors(r)])
        else:
            out = tau_until(f, r, frozenset())
        memo[key] = out
        return out

    def settled(f, r):
        known = decided.setdefault(f, {})
        if r not in known:
            here = tau(f.right, r)
            known[r] = (here if isinstance(here, Top) or isinstance(tau(f.left, r), CFalse)
                        else None)
        return known[r]

    def frontier(f, r, visited):
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

    def tau_until(f, r, visited):
        out = settled(f, r)
        if out is not None:
            return out
        visited = frontier(f, r, visited)
        key = (f, r, visited)
        if key in memo_u:
            return memo_u[key]
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


def compact_restrict(S, c, q, granted):
    """restrict() with its own index: the reached spaces sorted and
    numbered afresh, their adjacency read from the kept edges."""
    labels = {r: S.labels[r] for r in S.index.spaces(S.reach_mask(granted))}
    edges = {e: p for e, p in S.edges.items() if e in granted and e[0] in labels}
    return ResourceStructure(S.sig, S.entry, labels, edges)


def per_structure_label(S, f):
    """label_structure() reading every atom off S's labels, space by space."""
    ix = S.index
    full = ix.full
    sat = {}
    for g in subformulas(f):
        if isinstance(g, Top):
            x = full
        elif isinstance(g, Atom):
            x = 0
            for r, b in ix.bit.items():
                if S.labels[r].get(g.attr, BOTTOM) in g.values:
                    x |= b
        elif isinstance(g, Not):
            x = full ^ sat[g.sub]
        elif isinstance(g, And):
            x = sat[g.left] & sat[g.right]
        elif isinstance(g, EX):
            x = checker._pre(ix, sat[g.sub])
        elif isinstance(g, AX):
            x = full ^ checker._pre(ix, full ^ sat[g.sub])
        elif isinstance(g, EU):
            x = ix.walk(sat[g.right], sat[g.right], ix.pred, sat[g.left], full)
        else:
            assert isinstance(g, AU)
            x = checker._au(ix, sat[g.left], sat[g.right])
        sat[g] = x
    return sat


def old_holds(S, c, reqs):
    """holds() on compact restricted structures, the doors grouped in
    sorted order."""
    doors = {}
    for e, fixed in sorted(S.edges.items()):
        doors.setdefault(c[e] if fixed is None else fixed, []).append(e)
    regions = build_regions(S.sig, checker.verification_atoms(S, c, reqs, doors))
    policies = list(doors)
    verdicts = [RequirementVerdict(i, r, True) for i, r in enumerate(reqs)]
    structures = 0
    for start, width in regions.chunks():
        live = [v for v in verdicts if v.ok]
        if not live:
            break
        masks = target_masks(policies + [v.requirement.target for v in live],
                             regions, start, width)
        failed = {}
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
            sub = compact_restrict(S, c, regions.representative(start + lowest_bit(group)),
                                   granted)
            structures += 1
            checked = {}
            for v, first in applicable:
                phi = v.requirement.constraint
                ok = checked.get(phi)
                if ok is None:
                    sat = per_structure_label(sub, phi)
                    ok = checked[phi] = bool(sat[phi] & sub.index.bit[sub.entry])
                if not ok:
                    failed[v.index] = first
                    v.witness_structure = sub
        for v in live:
            if v.index in failed:
                v.ok = False
                v.witness = regions.representative(start + failed[v.index])
    return HoldsReport(all(v.ok for v in verdicts), verdicts, regions.count(),
                       structures)


# -- inputs ------------------------------------------------------------------------

def restricted(seed):
    """A random model restricted by a random configuration and request:
    spaces the entry no longer reaches are gone, and dead ends are common."""
    rng = random.Random(seed)
    S = random_model(rng, rng.randint(2, 7), max_symbols=3, with_numeric=True,
                     two_way=rng.random() * 0.5)
    c = random_config(rng, S)
    q = S.sig.validate_request(random_request(rng, S.sig))
    return rng, S, c, q


def bundled():
    """Every bundled model with each of its rule sets."""
    office = load_model(data.path(data.OFFICE_MODEL))
    firm = load_model(data.path(data.FIRM_MODEL))
    for S, rules in ((office, data.OFFICE_REQUIREMENTS),
                     (office, data.OFFICE_REQUIREMENTS_SAFE),
                     (firm, data.FIRM_REQUIREMENTS)):
        with open(data.path(rules)) as fh:
            yield S, parse_requirements(fh.read(), S.sig)


# -- the tests ---------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_mask_labelling_is_the_set_labelling(seed):
    rng, S, c, q = restricted(seed)
    sub = restrict(S, c, q)
    for _ in range(4):
        f = random_constraint(rng, sub, rng.randint(1, 4))
        got, want = label_structure(sub, f), old_label_structure(sub, f)
        assert list(got) == list(want)
        for g in want:
            assert sub.index.spaces(got[g]) == sorted(want[g]), (g, sub.edges)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_restrict_from_the_granted_doors_is_restrict(seed):
    _, S, c, q = restricted(seed)
    want = restrict(S, c, q)
    got = restrict(S, c, q, granted=granted_edges(S, c, q))
    assert got.entry == want.entry
    assert got.labels == want.labels
    assert list(got.edges.items()) == list(want.edges.items())


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_mask_until_rewrite_is_the_frozenset_rewrite(seed):
    rng = random.Random(seed)
    S = random_model(rng, rng.randint(2, 6), two_way=rng.random() * 0.6)
    phis = [random_constraint(rng, S, rng.randint(1, 4)) for _ in range(3)]
    phis += [random_pattern_requirement(rng, S).constraint for _ in range(2)]
    for phi in phis:
        for start in S.nodes:
            assert rewrite_constraint(S, phi, start) is old_rewrite_constraint(S, phi, start)


def test_mask_until_rewrite_is_the_frozenset_rewrite_on_the_bundled_rules():
    for S, reqs in bundled():
        for r in reqs:
            assert (rewrite_constraint(S, r.constraint, S.entry)
                    is old_rewrite_constraint(S, r.constraint, S.entry))


def test_the_space_index_numbers_the_sorted_spaces():
    rng = random.Random(5)
    S = random_model(rng, 6, two_way=0.5)
    ix = S.index
    assert S.index is ix and S.nodes is ix.order == sorted(S.labels)
    assert ix.full == (1 << len(S.nodes)) - 1
    for i, r in enumerate(S.nodes):
        assert ix.bit[r] == 1 << i
        assert ix.spaces(ix.succ[i]) == sorted(S.successors(r))
        assert ix.spaces(ix.pred[i]) == sorted(S.predecessors(r))
    assert ix.spaces(0) == []
    assert ix.spaces(ix.full) == S.nodes


def test_a_restricted_structure_is_a_view_of_the_building():
    rng = random.Random(11)
    S = random_model(rng, 7, max_symbols=3, two_way=0.4)
    seen = set()
    for n in range(40):
        # the first configuration opens every door, so its view drops no space
        c = random_config(rng, S) if n else {e: Top() for e in S.controlled_edges()}
        q = S.sig.validate_request(random_request(rng, S.sig))
        sub = restrict(S, c, q)
        ix, own = sub.index, ResourceStructure(S.sig, S.entry, sub.labels, sub.edges)
        assert ix.order is S.index.order
        assert ix.at is S.index.at and ix.bit is S.index.bit
        assert ix.full == S.reach_mask(granted_edges(S, c, q))
        assert sub.nodes == sorted(sub.labels) == ix.spaces(ix.full) == own.nodes
        for i, r in enumerate(S.nodes):
            if r not in sub.labels:
                assert ix.succ[i] == ix.pred[i] == 0
        for r in sub.nodes:
            assert sub.successors(r) == own.successors(r)
            assert sub.predecessors(r) == own.predecessors(r)
        assert sub.reachable() == own.reachable() == set(sub.labels)
        assert model_to_json(sub) == model_to_json(own)
        assert to_dot(sub, c) == to_dot(own, c)
        for _ in range(3):
            f = random_constraint(rng, S, rng.randint(1, 4))
            shared = label_structure(sub, f, checker.atom_masks(S, collect_atoms(f)))
            compact = label_structure(own, f)
            assert shared == label_structure(sub, f)
            for g, mask in shared.items():
                assert mask & ~ix.full == 0
                assert ix.spaces(mask) == own.index.spaces(compact[g])
        seen.add(len(sub.labels))
    assert len(seen) > 2 and len(S.labels) in seen


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_holds_on_views_is_holds_on_compact_structures(seed):
    rng, S, c = structure(seed)
    reqs = [random_pattern_requirement(rng, S) for _ in range(rng.randint(1, 3))]
    reqs += [Requirement(random_target(rng, S.sig, 2),
                         random_constraint(rng, S, rng.randint(1, 4)))
             for _ in range(rng.randint(1, 3))]
    got, want = holds(S, c, reqs), old_holds(S, c, reqs)
    assert got.ok == want.ok
    assert (got.representatives, got.structures) == (want.representatives, want.structures)
    for g, w in zip(got.verdicts, want.verdicts):
        assert (g.index, g.ok, g.witness) == (w.index, w.ok, w.witness)
        if w.witness_structure is None:
            assert g.witness_structure is None
            continue
        gs, ws = g.witness_structure, w.witness_structure
        assert (gs.entry, gs.nodes, gs.labels) == (ws.entry, ws.nodes, ws.labels)
        assert list(gs.edges.items()) == list(ws.edges.items())


def test_holds_opens_doors_from_the_policy_masks_and_labels_each_constraint_once(
        monkeypatch):
    """On the firm's synthesized configuration: no door policy is evaluated
    per request, and the firm's two `deny(zone = secure)` rules, which
    share one constraint node, are labelled once per restricted building."""
    S = load_model(data.path(data.FIRM_MODEL))
    with open(data.path(data.FIRM_REQUIREMENTS)) as fh:
        reqs = parse_requirements(fh.read(), S.sig)
    config = synth(S, reqs).configuration
    constraints = [r.constraint for r in reqs]
    assert len(set(constraints)) < len(constraints)

    def refuse(*args):
        raise AssertionError("holds evaluated door policies per request")

    labelled = []       # (structure, formula); the structures stay alive
    real = checker.label_structure
    monkeypatch.setattr(model, "granted_edges", refuse)
    monkeypatch.setattr(checker, "label_structure",
                        lambda sub, f, *atoms: labelled.append((sub, f)) or real(sub, f, *atoms))
    report = holds(S, config, reqs)
    assert report.ok
    assert (report.representatives, report.structures) == (120, 6)
    assert len(labelled) == len({(id(sub), f) for sub, f in labelled})
