"""The until rewrite's memo keys: an existential until is keyed on the
spaces its rewrite can still read, a universal one on its frontier.

Both must build the guard formula of the reference rewrite keyed on the
whole visited set, node for node, on grid shapes too, whose pockets of
spaces that no longer lead to a goal are what the existential key
prunes; and the existential key must make fewer subproblems than the
frontier key did."""

import random

from hypothesis import given, settings, strategies as st

from gatesynth import encoder
from gatesynth.app import synth
from gatesynth.encoder import (
    CFalse, cand, cguard, cimplies, cnot, cor, encode, rewrite_constraint,
)
from gatesynth.formulas import (
    AX, BOTTOM, EF, EU, EX, And, Atom, Not, Top, waypoint,
)
from gatesynth.rules import parse_requirements

from genutil import grid_building
from test_encoder import random_until, visited_set_rewrite


def frontier_rewrite(S, phi, start):
    """The until rewrite with both untils keyed on their frontier, the
    visited spaces entered from the unsettled spaces the rewrite can still
    reach: the formula and the number of until subproblems it made."""
    memo, memo_u, decided, unsettled = {}, {}, {}, {}
    guard = {e: cguard(e) for e in S.edges}
    ix = S.index
    bit = ix.bit

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
            out = tau_until(f, r, 0)
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
        if f not in unsettled:
            unsettled[f] = sum(bit[s] for s in ix.order if settled(f, s) is None)
        steps = unsettled[f] & ~visited
        seen = todo = bit[r]
        hit = 0
        while todo:
            low = todo & -todo
            todo ^= low
            nxt = ix.succ[low.bit_length() - 1] & ~seen
            seen |= nxt
            hit |= nxt & visited
            todo |= nxt & steps
        return hit

    def tau_until(f, r, visited):
        out = settled(f, r)
        if out is not None:
            return out
        visited = frontier(f, r, visited)
        key = (f, r, visited)
        if key in memo_u:
            return memo_u[key]
        later = visited | bit[r]
        fresh = [s for s in S.successors(r) if not visited & bit[s]]
        if isinstance(f, EU):
            step = cor([cand([guard[(r, s)], tau_until(f, s, later)]) for s in fresh])
        else:
            step = cand([cimplies(guard[(r, s)], tau_until(f, s, later)) for s in fresh]
                        + [cnot(guard[(r, s)]) for s in S.successors(r)
                           if visited & bit[s]])
        out = cor([tau(f.right, r), cand([tau(f.left, r), step])])
        memo_u[key] = out
        return out

    return tau(phi, start), len(memo_u)


GRID_RULES = ("role = staff and badge => grant(id = c4_5)\n"
              "role = guest => grant(id = c4_3)\n"
              "role = guest => deny(zone = secure)\n")


def test_the_5x6_grid_makes_fewer_subproblems_than_under_frontier_keys():
    # the grid and rules of test_until_rewrite_scales_to_a_5x6_grid
    S = grid_building(5, 6, secure={"c1_1", "c1_3", "c2_4", "c3_1", "c3_2"})
    reqs = parse_requirements(GRID_RULES, S.sig)
    made = encoder.until_subproblems()
    cand([encode(S, r) for r in reqs])
    count = encoder.until_subproblems() - made
    frontier_count = 0
    for r in reqs:
        g, n = frontier_rewrite(S, r.constraint, S.entry)
        assert g is rewrite_constraint(S, r.constraint, S.entry), r.source
        frontier_count += n
    assert frontier_count == 37826
    assert count == 14952 < frontier_count
    assert synth(S, reqs, max_k=1).stats["until_subproblems"] == count


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 4), st.integers(2, 5))
def test_keys_build_the_visited_set_rewrite_on_grids(seed, rows, cols):
    # two-way doors between neighbours: many routes between two cells,
    # and pockets of cells from which no route reaches a goal any more
    rng = random.Random(seed)
    cells = ["c%d_%d" % (i, j) for i in range(rows) for j in range(cols)]
    S = grid_building(rows, cols, secure=rng.sample(cells, rng.randint(0, len(cells) // 2)))
    goals = Atom("id", frozenset(rng.sample(cells, rng.randint(0, min(2, len(cells))))))
    secure = Atom("zone", frozenset(["secure"]))
    via = Atom("id", frozenset(rng.sample(cells, 1)))
    phis = [EF(goals), Not(EF(secure)), EU(Not(secure), goals), waypoint(via, goals),
            random_until(rng, S), random_until(rng, S)]
    for phi in phis:
        start = rng.choice(cells)
        assert rewrite_constraint(S, phi, start) is visited_set_rewrite(S, phi, start), phi
