"""Differential tests of the smart constructors and of subformulas()
against the versions they replace: cand/cor that de-duplicate every
part list through a set, cnot/cimplies that dispatch with isinstance,
and a walk that pushes a (node, expanded) pair per visit. The new ones
must build the very same node, and walk in the very same order."""

from typing import List, Set

from hypothesis import given, settings, strategies as st

from gatesynth.app import effective_requirements
from gatesynth.encoder import (
    CAnd, CFalse, CGuard, CImplies, COr, CVarEq, cand, cimplies, cnot, cor,
    encode, expand_guards,
)
from gatesynth.formulas import (
    AU, AX, EU, EX, And, Atom, Not, Top, children, subformulas,
)
from gatesynth.templates import dnf_template


def ref_cand(parts):
    out: List = []
    seen: Set = set()
    for p in parts:
        if isinstance(p, Top):
            continue
        if isinstance(p, CFalse):
            return CFalse()
        for item in (p.args if isinstance(p, CAnd) else (p,)):
            if item not in seen:
                seen.add(item)
                out.append(item)
    if not out:
        return Top()
    if len(out) == 1:
        return out[0]
    return CAnd(tuple(out))


def ref_cor(parts):
    out: List = []
    seen: Set = set()
    for p in parts:
        if isinstance(p, CFalse):
            continue
        if isinstance(p, Top):
            return Top()
        for item in (p.args if isinstance(p, COr) else (p,)):
            if item not in seen:
                seen.add(item)
                out.append(item)
    if not out:
        return CFalse()
    if len(out) == 1:
        return out[0]
    return COr(tuple(out))


def ref_cnot(f):
    if isinstance(f, Top):
        return CFalse()
    if isinstance(f, CFalse):
        return Top()
    if isinstance(f, Not):
        return f.sub
    return Not(f)


def ref_cimplies(a, b):
    if isinstance(a, Top):
        return b
    if isinstance(a, CFalse) or isinstance(b, Top):
        return Top()
    if isinstance(b, CFalse):
        return ref_cnot(a)
    return CImplies(a, b)


def ref_subformulas(f):
    seen = set()
    stack = [(f, False)]
    while stack:
        g, expanded = stack.pop()
        if g in seen:
            continue
        if expanded:
            seen.add(g)
            yield g
        else:
            stack.append((g, True))
            for ch in children(g):
                stack.append((ch, False))


leaves = st.one_of(
    st.just(Top()), st.just(CFalse()),
    st.builds(CVarEq, st.sampled_from("xyz"), st.integers(0, 2)),
    st.builds(lambda a, b: CGuard((a, b)), st.sampled_from("ab"), st.sampled_from("cd")),
)


def _extend(inner):
    args = st.lists(inner, min_size=0, max_size=4).map(tuple)
    return st.one_of(
        st.builds(Not, inner),
        st.builds(CAnd, args), st.builds(COr, args),     # nested, unnormalised
        st.builds(CImplies, inner, inner),
    )


control = st.recursive(leaves, _extend, max_leaves=8)
# short lists of few distinct parts, so repeats are common
part_lists = st.lists(st.one_of(leaves, control), min_size=0, max_size=9)


def _as_drawn(parts, as_generator):
    return (p for p in parts) if as_generator else list(parts)


@settings(max_examples=400, deadline=None)
@given(parts=part_lists, as_generator=st.booleans())
def test_cand_and_cor_build_the_node_the_set_based_versions_built(parts, as_generator):
    assert cand(_as_drawn(parts, as_generator)) is ref_cand(parts)
    assert cor(_as_drawn(parts, as_generator)) is ref_cor(parts)


@settings(max_examples=200, deadline=None)
@given(a=control, b=control)
def test_cnot_and_cimplies_build_the_node_the_isinstance_versions_built(a, b):
    assert cnot(a) is ref_cnot(a)
    assert cimplies(a, b) is ref_cimplies(a, b)
    assert cand([a, b]) is ref_cand([a, b])
    assert cor([a, b, a]) is ref_cor([a, b, a])


def test_the_fast_paths_cover_two_parts_and_long_lists():
    a, b = CVarEq("x", 0), CVarEq("y", 1)
    ab = CAnd((a, b))
    for parts in ([a, b], [a, a], [ab, a], [a, ab], [ab, ab], [a, Top(), b],
                  [a, b, a, b, a], [ab, b, a], [Top(), Top(), a], [CFalse(), a]):
        assert cand(parts) is ref_cand(parts)
        assert cor(parts) is ref_cor(parts)
    assert cand([a, a]) is a and cand([a, b]) is ab


def _random_dag(draw_ops):
    """Nodes of every class, each built over nodes built before it."""
    nodes = [Top(), CFalse(), Atom("role", frozenset(["a"])), CVarEq("x", 1)]
    for op, picks in draw_ops:
        kids = [nodes[i % len(nodes)] for i in picks]
        if op == "not":
            nodes.append(Not(kids[0]))
        elif op in ("and", "eu", "au", "implies"):
            cls = {"and": And, "eu": EU, "au": AU, "implies": CImplies}[op]
            nodes.append(cls(kids[0], kids[1]))
        elif op in ("ex", "ax"):
            nodes.append((EX if op == "ex" else AX)(kids[0]))
        else:
            nodes.append((CAnd if op == "cand" else COr)(tuple(kids)))
    return nodes


ops = st.lists(st.tuples(
    st.sampled_from(["not", "and", "eu", "au", "implies", "ex", "ax", "cand", "cor"]),
    st.lists(st.integers(0, 60), min_size=2, max_size=5)), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(ops)
def test_subformulas_walks_in_the_order_of_the_pair_stack_walk(draw):
    nodes = _random_dag(draw)
    for root in nodes[-3:]:
        assert list(subformulas(root)) == list(ref_subformulas(root))


def test_subformulas_walks_the_firms_expanded_formula_in_the_old_order(firm, firm_reqs):
    eff = effective_requirements(firm_reqs)
    expanded = expand_guards(cand([encode(firm, r) for r in eff]), dnf_template(firm, eff, 2))
    got = list(subformulas(expanded))
    assert len(got) > 1000
    assert got == list(ref_subformulas(expanded))
