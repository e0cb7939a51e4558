"""An independent evaluator for branching-time constraints.

Deliberately implemented differently from the package's fixpoint
checker: quantifiers are decided by explicit path arguments (search for
a satisfying prefix, search for a failing maximal path), so agreement
between the two is meaningful evidence.

Path quantifiers range over maximal paths: paths that are infinite or
end in a space with no outgoing edges. Every space starts at least one
maximal path, since a finite graph walk can always either stop at a
sink or go on forever.

per_value_regions is an independent reference for the request regions:
it tests values one by one instead of reasoning about interval ends.
"""

import math

from gatesynth.formulas import (
    AU, AX, BOOLEAN, BOTTOM, EU, EX, NUMERIC, And, Atom, Not, Top,
)


def naive_check(S, node, f) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, Atom):
        return S.labels[node].get(f.attr, BOTTOM) in f.values
    if isinstance(f, Not):
        return not naive_check(S, node, f.sub)
    if isinstance(f, And):
        return naive_check(S, node, f.left) and naive_check(S, node, f.right)
    if isinstance(f, EX):
        return any(naive_check(S, s, f.sub) for s in S.successors(node))
    if isinstance(f, AX):
        return all(naive_check(S, s, f.sub) for s in S.successors(node))
    if isinstance(f, EU):
        return _exists_until(S, node, f.left, f.right)
    if isinstance(f, AU):
        return not _until_can_fail(S, node, f.left, f.right)
    raise TypeError("unknown node %r" % (f,))


def _exists_until(S, start, a, b) -> bool:
    """Some path reaches a b-space through a-spaces."""
    seen = set()
    stack = [start]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        if naive_check(S, n, b):
            return True
        if naive_check(S, n, a):
            stack.extend(S.successors(n))
    return False


def _until_can_fail(S, start, a, b) -> bool:
    """Some maximal path never establishes the until: it runs through
    spaces where b fails, and either hits a space failing both a and b,
    or ends at a sink, or cycles forever."""
    if naive_check(S, start, b):
        return False
    if not naive_check(S, start, a):
        return True

    # region of spaces the failing path may pass through: a holds, b fails
    region = set()
    stack = [start]
    while stack:
        n = stack.pop()
        if n in region:
            continue
        region.add(n)
        if not S.successors(n):
            return True           # maximal path ends here, b never held
        for s in S.successors(n):
            if naive_check(S, s, b):
                continue          # that continuation establishes the until
            if not naive_check(S, s, a):
                return True       # both fail one step on: no rescue possible
            stack.append(s)

    # a cycle inside the region is an infinite path where b never holds
    remaining = set(region)
    changed = True
    while changed:
        changed = False
        for n in list(remaining):
            if not any(s in remaining for s in S.successors(n)
                       if not naive_check(S, s, b) and naive_check(S, s, a)):
                remaining.discard(n)
                changed = True
    return bool(remaining)


def per_value_regions(sig, atoms):
    """The region representatives of each request attribute, by testing
    every value that can matter: the unset value first, then the
    declared values of a finite attribute, or 0 and every mentioned
    number and the one after it, in order. Values with the same verdicts
    over the attribute's distinct sets share a region, represented by
    the first of them."""
    out = {}
    for d in sig.request_attrs():
        sets = []
        for a in atoms:
            if a.attr == d.name and a.values not in sets:
                sets.append(a.values)
        if d.kind == NUMERIC:
            mentioned = {v for s in sets for v in s if v is not BOTTOM}
            values = sorted({0} | mentioned | {v + 1 for v in mentioned})
        elif d.kind == BOOLEAN:
            values = [False, True]
        else:
            values = list(d.symbols)
        reps = []
        seen = []
        for v in [BOTTOM] + values:
            verdicts = [v in s for s in sets]
            if verdicts not in seen:
                seen.append(verdicts)
                reps.append(v)
        out[d.name] = reps
    return out


def per_value_region_count(sig, atoms) -> int:
    return math.prod(len(reps) for reps in per_value_regions(sig, atoms).values())
