"""Differential tests for the region-mask evaluations.

holds() groups the request regions by the doors they open and checks
each group's restricted structure once; target_sat, target_equiv,
complete_template and compare read bitmasks of regions. The references
below are the per-region loops they replace: one eval_target per
representative, and one restrict per representative that a live target
meets. Each answer must be the one the per-region loop gives, with
chunks of CHUNK regions and with chunks of three.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gatesynth import formulas
from gatesynth.checker import (
    HoldsReport, RequirementVerdict, holds, model_check, verification_atoms,
)
from gatesynth.formulas import (
    AU, BOTTOM, CHUNK, Atom, Not, Requirement, Top, build_regions,
    collect_atoms, conj, deadlock_free_constraint, eval_target, lowest_bit,
    refine, strict_deadlock_free_constraint, target_equiv, target_masks,
    target_sat,
)
from gatesynth.model import (
    EQUAL, GREATER_OR_EQUAL, INCOMPARABLE, LESS_OR_EQUAL, compare,
    granted_edges, restrict,
)
from gatesynth.templates import CapExceeded, complete_template

from genutil import (
    comparable_configs, random_config, random_constraint, random_model,
    random_pattern_requirement, random_policy, random_resource_atom,
    random_target,
)

CHUNKS = [CHUNK, 3]


# -- the per-region references -----------------------------------------------

def old_holds(S, c, reqs):
    """holds() as one restrict per representative a live target meets."""
    regions = build_regions(S.sig, verification_atoms(S, c, reqs))
    verdicts = [RequirementVerdict(i, r, True) for i, r in enumerate(reqs)]
    count = structures = 0
    for q in regions.representatives():
        count += 1
        applicable = [v for v in verdicts
                      if v.ok and eval_target(q, v.requirement.target)]
        if not applicable:
            continue
        sub = restrict(S, c, q)
        structures += 1
        for v in applicable:
            if not model_check(sub, v.requirement.constraint):
                v.ok = False
                v.witness = dict(q)
                v.witness_structure = sub
    return HoldsReport(all(v.ok for v in verdicts), verdicts, count, structures)


def old_target_sat(t, sig):
    for q in build_regions(sig, collect_atoms(t)).representatives():
        if eval_target(q, t):
            return q
    return None


def old_target_equiv(t1, t2, sig):
    regions = build_regions(sig, collect_atoms(t1) + collect_atoms(t2))
    return all(eval_target(q, t1) == eval_target(q, t2)
               for q in regions.representatives())


def old_classes(S, reqs, cap):
    """complete_template's classes in first-occurrence order, or the
    CapExceeded it raises."""
    splitters = [r.target for r in reqs] + [
        S.edges[e] for e in S.fixed_edges()
        if not old_target_equiv(S.edges[e], Top(), S.sig)]
    atoms = [a for t in splitters for a in collect_atoms(t)]
    classes = {}
    for q in build_regions(S.sig, atoms).representatives():
        verdicts = tuple(eval_target(q, t) for t in splitters)
        if verdicts in classes:
            continue
        if len(classes) == cap:
            return ("cap", cap + 1, cap)
        classes[verdicts] = conj([t if v else Not(t)
                                  for t, v in zip(splitters, verdicts)])
    return list(classes.values())


def old_compare(c1, c2, sig):
    le = ge = True
    for e in sorted(c1):
        atoms = collect_atoms(c1[e]) + collect_atoms(c2[e])
        for q in build_regions(sig, atoms).representatives():
            v1, v2 = eval_target(q, c1[e]), eval_target(q, c2[e])
            le = le and not (v1 and not v2)
            ge = ge and not (v2 and not v1)
    if le and ge:
        return EQUAL
    if le:
        return LESS_OR_EQUAL
    return GREATER_OR_EQUAL if ge else INCOMPARABLE


# -- inputs --------------------------------------------------------------------

def instance(seed):
    """A random model and configuration, with pattern requirements, an
    until requirement and a deadlock-freeness requirement."""
    rng = random.Random(seed)
    S = random_model(rng, rng.randint(2, 5), backbone_fixed_true=rng.random() < 0.5,
                     max_symbols=3, with_numeric=True, two_way=rng.random() * 0.5)
    c = random_config(rng, S)
    reqs = [random_pattern_requirement(rng, S) for _ in range(rng.randint(0, 3))]
    reqs.append(Requirement(random_target(rng, S.sig, 2),
                            AU(random_constraint(rng, S, 1),
                               random_resource_atom(rng, S))))
    reqs.append(Requirement(random_target(rng, S.sig, 1),
                            random_constraint(rng, S, 3)))
    reqs.append(Requirement(Top(), rng.choice([deadlock_free_constraint(),
                                               strict_deadlock_free_constraint()])))
    rng.shuffle(reqs)
    return rng, S, c, reqs


def and_not(t1, t2):
    return conj([t1, Not(t2)])


def structure_of(sub):
    if sub is None:
        return None
    return sub.entry, sub.labels, sub.edges


# -- the tests -------------------------------------------------------------------

@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_grouped_holds_is_the_per_region_loop(seed, chunk):
    rng, S, c, reqs = instance(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formulas, "CHUNK", chunk)
        report = holds(S, c, reqs)
    want = old_holds(S, c, reqs)
    assert report.ok == want.ok
    assert report.representatives == want.representatives
    for got, old in zip(report.verdicts, want.verdicts):
        assert (got.index, got.ok, got.witness) == (old.index, old.ok, old.witness)
        assert structure_of(got.witness_structure) == structure_of(old.witness_structure)
    assert len(report.verdicts) == len(want.verdicts)
    if chunk == CHUNK:
        # one structure per door set the regions open, at most
        regions = build_regions(S.sig, verification_atoms(S, c, reqs))
        door_sets = {frozenset(granted_edges(S, c, q)) for q in regions.representatives()}
        assert report.structures <= len(door_sets)


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_target_sat_and_equiv_are_the_per_region_loops(seed, chunk):
    rng, S, c, reqs = instance(seed)
    pairs = [(random_target(rng, S.sig, 3), random_target(rng, S.sig, 3))
             for _ in range(3)]
    pairs += [(r.target, p) for r, p in zip(reqs, c.values())]
    pairs += [(t, Not(Not(t))) for t, _ in pairs[:2]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formulas, "CHUNK", chunk)
        got = [(target_sat(t1, S.sig), target_sat(and_not(t1, t2), S.sig),
                target_equiv(t1, t2, S.sig)) for t1, t2 in pairs]
    want = [(old_target_sat(t1, S.sig), old_target_sat(and_not(t1, t2), S.sig),
             old_target_equiv(t1, t2, S.sig)) for t1, t2 in pairs]
    assert got == want


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_complete_template_classes_are_the_per_region_loop(seed, chunk):
    rng, S, c, reqs = instance(seed)
    # fixed edges with policies that split requests too
    for e in S.fixed_edges():
        if rng.random() < 0.5:
            S.edges[e] = random_policy(rng, S.sig)
    cap = rng.choice([1, 2, 3, 5, 4096])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formulas, "CHUNK", chunk)
        try:
            got = complete_template(S, reqs, cap).classes
        except CapExceeded as exc:
            got = ("cap", exc.needed, exc.cap)
    assert got == old_classes(S, reqs, cap)


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_compare_is_the_per_region_loop(seed, chunk):
    rng, S, c, reqs = instance(seed)
    lo, hi = comparable_configs(rng, S)
    cases = [(lo, hi), (hi, lo), (c, random_config(rng, S)), (c, dict(c))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formulas, "CHUNK", chunk)
        got = [compare(c1, c2, S.sig) for c1, c2 in cases]
    assert got == [old_compare(c1, c2, S.sig) for c1, c2 in cases]


def test_target_masks_set_a_bit_where_the_target_holds():
    rng, S, c, reqs = instance(7)
    roots = [r.target for r in reqs] + list(c.values())
    regions = build_regions(S.sig, [a for t in roots for a in collect_atoms(t)])
    count = regions.count()
    for start, width in [(0, count), (count // 2, count - count // 2)]:
        masks = target_masks(roots, regions, start, width)
        for t in roots:
            assert masks[t] == sum(1 << b for b in range(width)
                                   if eval_target(regions.representative(start + b), t))
    # an atom on no request attribute reads the unset value, as eval_target does
    unset, set_ = Atom("locked", [BOTTOM, False]), Atom("locked", [False])
    masks = target_masks([unset, set_], regions, 0, 3)
    assert (masks[unset], masks[set_]) == (0b111, 0)


def test_refine_splits_by_every_mask_in_lowest_region_order():
    assert refine(0b1111, []) == [0b1111]
    assert refine(0, [0b1]) == []
    assert refine(0b111111, [0b110100, 0b011010]) == [0b000001, 0b001010, 0b100100,
                                                       0b010000]
    assert refine(0b1111, [0b1010, 0b1010]) == [0b0101, 0b1010]
    assert [lowest_bit(p) for p in refine(0b1111111, [0b1100110])] == [0, 1]
