"""Differential tests for the one adjacency of a structure.

A structure's space index, built straight from its edges, is its only
adjacency: successors() and predecessors() read its masks, reachable()
and restrict() walk them with SpaceIndex.walk, and granted_edges()
reads each policy's bit on the request's own one-region RegionSet. The
references below are the versions they replace: successor and
predecessor name lists sorted from the edges, a depth-first search over
names, and one eval_target per distinct policy. Structures with edges to
undeclared spaces are built without validation, as a model file can
give them; the index skips those edges and validate() reports them.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gatesynth.formulas import Top, eval_target
from gatesynth.model import (
    ModelError, ResourceStructure, granted_edges, restrict,
)

from genutil import random_config, random_model, random_policy, random_request


# -- the name-list references ------------------------------------------------------

def old_lists(S):
    """Successor and predecessor names per declared space, sorted."""
    succ = {r: [] for r in S.labels}
    pred = {r: [] for r in S.labels}
    for a, b in sorted(S.edges):
        if a in succ and b in pred:
            succ[a].append(b)
            pred[b].append(a)
    return succ, pred


def old_reachable(S, edges=None):
    succ, _ = old_lists(S)
    seen = {S.entry}
    stack = [S.entry]
    while stack:
        a = stack.pop()
        for b in succ[a]:
            if b not in seen and (edges is None or (a, b) in edges):
                seen.add(b)
                stack.append(b)
    return seen


def old_granted_edges(S, c, q):
    verdicts = {}
    granted = set()
    for e, fixed in S.edges.items():
        policy = c[e] if fixed is None else fixed
        ok = verdicts.get(policy)
        if ok is None:
            ok = verdicts[policy] = eval_target(q, policy)
        if ok:
            granted.add(e)
    return granted


def old_restrict(S, c, q):
    granted = old_granted_edges(S, c, q)
    seen = old_reachable(S, granted)
    labels = {r: S.labels[r] for r in seen}
    edges = {e: p for e, p in S.edges.items() if e in granted and e[0] in seen}
    return ResourceStructure(S.sig, S.entry, labels, edges)


# -- inputs ------------------------------------------------------------------------

def structure(seed):
    """A random model, and with even seeds the same model with edges to
    and from undeclared spaces and, sometimes, a declared space dropped,
    left unvalidated. The added edges carry fixed policies, so the model's
    configuration still covers every controlled edge."""
    rng = random.Random(seed)
    S = random_model(rng, rng.randint(2, 7), backbone_fixed_true=rng.random() < 0.3,
                     max_symbols=3, with_numeric=True, two_way=rng.random() * 0.6)
    c = random_config(rng, S)
    if seed % 2 == 0:
        labels = dict(S.labels)
        if len(labels) > 2 and rng.random() < 0.5:
            del labels[rng.choice([r for r in labels if r != S.entry])]
        edges = dict(S.edges)
        for _ in range(rng.randint(1, 4)):
            a, b = rng.choice(S.nodes), "ghost%d" % rng.randrange(2)
            edges[(a, b) if rng.random() < 0.5 else (b, a)] = random_policy(rng, S.sig)
        S = ResourceStructure(S.sig, S.entry, labels, edges)
    return rng, S, c


def some_edges(rng, S):
    """A random part of the structure's edges, dangling ones included."""
    return {e for e in S.edges if rng.random() < 0.6}


def request(rng, S):
    """A random request, with some attributes left out altogether."""
    q = random_request(rng, S.sig)
    return {k: v for k, v in q.items() if rng.random() < 0.8}


# -- the tests ---------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_the_index_gives_the_name_lists_and_the_name_search(seed):
    rng, S, _ = structure(seed)
    succ, pred = old_lists(S)
    for r in S.labels:
        assert S.successors(r) == succ[r]
        assert S.predecessors(r) == pred[r]
    assert S.reachable() == old_reachable(S)
    for _ in range(3):
        edges = some_edges(rng, S)
        assert S.reachable(edges) == old_reachable(S, edges)
        assert S.reachable(sorted(edges)) == old_reachable(S, edges)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_restrict_is_the_name_list_restrict(seed):
    rng, S, c = structure(seed)
    for _ in range(3):
        q = request(rng, S)
        got, want = restrict(S, c, q), old_restrict(S, c, q)
        assert got.entry == want.entry
        assert got.labels == want.labels
        assert list(got.edges.items()) == list(want.edges.items())


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_granted_edges_is_one_eval_target_per_policy(seed):
    rng, S, c = structure(seed)
    for _ in range(4):
        q = request(rng, S)
        assert granted_edges(S, c, q) == old_granted_edges(S, c, q)


def test_validate_still_reports_a_dangling_edge():
    S = random_model(random.Random(3), 3)
    edges = dict(S.edges)
    edges[(S.entry, "ghost")] = Top()
    dangling = ResourceStructure(S.sig, S.entry, S.labels, edges)
    assert dangling.successors(S.entry) == S.successors(S.entry)
    with pytest.raises(ModelError, match="undeclared space"):
        dangling.validate()
