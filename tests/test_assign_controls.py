"""substitute() rebuilds top-down and stops where a connective is
decided. assign_controls() and expand_guards() run it, and must build
the node that replacing every leaf and rebuilding bottom-up through the
smart constructors builds, on the expanded formulas and the edge
policies that synthesis and derive hand them."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gatesynth.app import effective_requirements
from gatesynth.encoder import (
    assign_controls, cand, cguard, cimplies, cnot, cor, encode, expand_guards,
)
from gatesynth.formulas import (
    CAnd, CFalse, CGuard, CImplies, COr, CVarEq, Not, Top, subformulas,
)
from gatesynth.templates import CapExceeded, complete_template, dnf_template

from genutil import random_structure


def bottom_up(f, leaf):
    """f with every leaf node replaced by leaf(node), rebuilt children
    before parents through the smart constructors: a memo fold over
    subformulas() that visits every node."""
    memo = {}
    for g in subformulas(f):
        kind = type(g)
        if kind is CAnd:
            out = cand([memo[a] for a in g.args])
        elif kind is COr:
            out = cor([memo[a] for a in g.args])
        elif kind is Not:
            out = cnot(memo[g.sub])
        elif kind is CImplies:
            out = cimplies(memo[g.left], memo[g.right])
        else:
            out = leaf(g)
        memo[g] = out
    return memo[f]


def bottom_up_assign(f, m):
    def leaf(g):
        if isinstance(g, CVarEq):
            return Top() if m.get(g.var, 0) == g.value else CFalse()
        if isinstance(g, CGuard):
            raise TypeError("guard left unexpanded: %r" % (g,))
        return g

    return bottom_up(f, leaf)


def templates(S, eff):
    out = [dnf_template(S, eff, k) for k in (1, 2)]
    try:
        out.append(complete_template(S, eff, 256))
    except CapExceeded:
        pass
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_top_down_decisions_build_the_bottom_up_rebuild(seed):
    rng = random.Random(seed)
    S, reqs = random_structure(rng)
    eff = effective_requirements(reqs)
    guard_formula = cand([encode(S, r) for r in eff])
    for tpl in templates(S, eff):
        expanded = expand_guards(guard_formula, tpl)
        assert expanded is bottom_up(guard_formula, lambda g: (
            tpl.edge_policy_formula(g.edge) if isinstance(g, CGuard) else g))
        for _ in range(4):
            # a partial model: the variables left out read as 0
            m = {v.name: rng.randrange(v.size) for v in tpl.control_vars()
                 if rng.random() < 0.7}
            assert assign_controls(expanded, m) is bottom_up_assign(expanded, m), m
            for e in tpl.edges():
                policy = tpl.edge_policy_formula(e)
                assert assign_controls(policy, m) is bottom_up_assign(policy, m), (e, m)


def test_a_guard_raises_only_where_the_evaluation_reaches_it():
    on, off = CVarEq("x", 0), CVarEq("x", 1)
    g = cguard(("a", "b"))
    # decided before the guard: a false conjunct, a true disjunct, a
    # false premise
    assert assign_controls(CAnd((off, g)), {}) is CFalse()
    assert assign_controls(COr((on, g)), {}) is Top()
    assert assign_controls(CImplies(off, g), {}) is Top()
    # reached: the guard decides the connective
    for f in (CAnd((on, g)), COr((off, g)), CImplies(on, g), Not(g), g,
              cor([cimplies(on, CAnd((on, g))), off])):
        with pytest.raises(TypeError, match="guard left unexpanded"):
            assign_controls(f, {})
    assert assign_controls(cnot(CAnd((off, g))), {}) is Top()
