"""Differential tests for the request regions.

build_regions keeps one region per vector of verdicts over the atoms it
is given. The references below are the earlier builder, which gave the
unset value a cell of its own and kept numeric spans with equal verdicts
apart, and the searches over its regions, which skipped the verdict
vectors they had already seen. Each new answer must be the first one the
earlier regions gave.
"""

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from hypothesis import given, settings, strategies as st

from gatesynth.app import effective_requirements
from gatesynth.checker import holds, model_check, verification_atoms
from gatesynth.encoder import (
    Compiled, assign_controls, cand, counterexample, encode, expand_guards, fold_atoms,
)
from gatesynth.formulas import (
    BOOLEAN, BOTTOM, NUMERIC, RESOURCE, AttributeSignature, Top, build_regions,
    collect_atoms, eval_target, intervals_of,
)
from gatesynth.model import restrict
from gatesynth.templates import (
    CapExceeded, complete_template, dnf_template, interval_candidates,
)

from genutil import (
    random_config, random_request_atom, random_structure, request_signature,
)


# -- the earlier region builder ----------------------------------------------

@dataclass(frozen=True)
class OldCell:
    rep: object
    lo: Optional[int] = None     # numeric cells: inclusive bounds,
    hi: Optional[int] = None     # hi None means unbounded


def old_numeric_cells(sets):
    breaks = {0}
    for s in sets:
        for lo, hi in intervals_of(s):
            breaks.update((lo, hi + 1))
    breaks = sorted(breaks)

    def signature(v):
        return tuple(v in s for s in sets)

    cells = [OldCell(BOTTOM)]
    for i, lo in enumerate(breaks):
        hi = breaks[i + 1] - 1 if i + 1 < len(breaks) else None
        if len(cells) > 1 and signature(cells[-1].lo) == signature(lo):
            cells[-1] = OldCell(cells[-1].lo, cells[-1].lo, hi)
        else:
            cells.append(OldCell(lo, lo, hi))
    return cells


def old_finite_cells(domain, sets):
    cells = [OldCell(BOTTOM)]
    seen = []
    for v in domain:
        vector = tuple(v in s for s in sets)
        if vector not in seen:
            seen.append(vector)
            cells.append(OldCell(v))
    return cells


def old_cells(sig, atoms):
    by_attr = {}
    for a in atoms:
        if sig.get(a.attr).cls == RESOURCE:
            continue
        sets = by_attr.setdefault(a.attr, [])
        if a.values not in sets:
            sets.append(a.values)
    cells = {}
    for d in sig.request_attrs():
        sets = by_attr.get(d.name, [])
        if not sets:
            cells[d.name] = [OldCell(BOTTOM)]
        elif d.kind == NUMERIC:
            cells[d.name] = old_numeric_cells(sets)
        elif d.kind == BOOLEAN:
            cells[d.name] = old_finite_cells([False, True], sets)
        else:
            cells[d.name] = old_finite_cells(list(d.symbols), sets)
    return cells


def old_representatives(sig, atoms):
    cells = old_cells(sig, atoms)
    names = [d.name for d in sig.request_attrs()]
    for combo in itertools.product(*([c.rep for c in cells[n]] for n in names)):
        yield dict(zip(names, combo))


def verdicts(q, atoms):
    return tuple(q.get(a.attr, BOTTOM) in a.values for a in atoms)


# -- the searches over the earlier regions ------------------------------------

def old_counterexample(f, m, sig):
    residue = assign_controls(f, m)
    atoms = collect_atoms(residue)
    holding = set()
    for q in old_representatives(sig, atoms):
        key = verdicts(q, atoms)
        if key in holding:
            continue
        if not isinstance(fold_atoms(residue, q), Top):
            return q
        holding.add(key)
    return None


def old_holds(S, c, reqs):
    """ok, and (ok, witness) per requirement, over the earlier regions."""
    results = [(True, None) for _ in reqs]
    for q in old_representatives(S.sig, verification_atoms(S, c, reqs)):
        applicable = [i for i, r in enumerate(reqs)
                      if results[i][0] and eval_target(q, r.target)]
        if not applicable:
            continue
        sub = restrict(S, c, q)
        for i in applicable:
            if not model_check(sub, reqs[i].constraint):
                results[i] = (False, dict(q))
    return all(ok for ok, _ in results), results


def old_interval_candidates(sig, reqs):
    atoms = [a for r in reqs for a in collect_atoms(r.target)]
    cells = old_cells(sig, atoms)
    out = {}
    for d in sig.request_attrs():
        if d.kind != NUMERIC:
            continue
        spans = [c for c in cells[d.name] if c.lo is not None]
        lowers = sorted({c.lo for c in spans}) or [0]
        uppers = sorted({c.hi for c in spans if c.hi is not None})
        out[d.name] = (lowers, uppers + [None])
    return out


# -- the tests ------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_regions_are_the_first_old_region_of_each_verdict_vector(seed):
    rng = random.Random(seed)
    sig = AttributeSignature(request_signature(rng, 3, with_numeric=True))
    atoms = [random_request_atom(rng, sig) for _ in range(rng.randint(0, 6))]
    firsts = {}
    for q in old_representatives(sig, atoms):
        firsts.setdefault(verdicts(q, atoms), q)
    regions = build_regions(sig, atoms)
    assert list(regions.representatives()) == list(firsts.values())
    assert regions.count() == len(firsts)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_holds_gives_the_old_verdicts_and_witnesses(seed):
    rng = random.Random(seed)
    S, reqs = random_structure(rng)
    c = random_config(rng, S)
    report = holds(S, c, reqs)
    ok, old = old_holds(S, c, reqs)
    assert report.ok == ok
    assert [(v.ok, v.witness) for v in report.verdicts] == old


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_counterexample_is_the_old_loops_request(seed):
    rng = random.Random(seed)
    S, reqs = random_structure(rng)
    eff = effective_requirements(S, reqs)
    guard_formula = cand([encode(S, r) for r in eff])
    templates = [dnf_template(S, eff, 1)]
    try:
        templates.append(complete_template(S, eff, 256))
    except CapExceeded:
        pass
    for tpl in templates:
        expanded = expand_guards(guard_formula, tpl)
        for _ in range(4):
            m = {v.name: rng.randrange(v.size) for v in tpl.control_vars()}
            assert counterexample(Compiled(expanded), m, S.sig) == \
                old_counterexample(expanded, m, S.sig), m


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_interval_candidates_are_the_old_walk_over_cells(seed):
    rng = random.Random(seed)
    S, reqs = random_structure(rng)
    assert interval_candidates(S.sig, reqs) == old_interval_candidates(S.sig, reqs)
