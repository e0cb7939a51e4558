"""Seeded random generators shared by the property tests.

Everything takes a `random.Random` so each test controls its own seed
and reruns stay reproducible.
"""

import random
from typing import Dict, List, Optional, Tuple

from gatesynth.formulas import (
    AU, AX, BOOLEAN, BOTTOM, CONTEXTUAL, ENUM, EU, EX, NEGATIVE, NUMERIC,
    POSITIVE, RESOURCE, SUBJECT, And, Atom, AttributeDecl,
    AttributeSignature, Formula, Not, Requirement, Top, blocking, deny,
    falsum, grant, waypoint,
)
from gatesynth.model import Edge, ResourceStructure


def request_signature(rng: random.Random, max_symbols: int = 2,
                      with_numeric: bool = False) -> List[AttributeDecl]:
    """Request-side declarations only; resource attrs come from the model."""
    n_sym = rng.randint(2, max_symbols)
    decls = [
        AttributeDecl("kind", SUBJECT, ENUM,
                      tuple("kind%d" % i for i in range(n_sym))),
        AttributeDecl("vip", CONTEXTUAL, BOOLEAN),
    ]
    if with_numeric and rng.random() < 0.5:
        decls.append(AttributeDecl("age", CONTEXTUAL, NUMERIC))
    return decls


def random_model(rng: random.Random, n_nodes: int,
                 backbone_fixed_true: bool = False,
                 max_symbols: int = 2,
                 with_numeric: bool = False,
                 two_way: float = 0.0) -> ResourceStructure:
    """A connected structure on `n_nodes` spaces (n_nodes >= 2).

    A chain entry -> room1 -> ... plus a final edge back to the entry
    keeps every space reachable with at least one exit. With
    `backbone_fixed_true` those backbone edges are fixed always-grant
    policies, so every restriction of the structure keeps an exit per
    space (no restriction can deadlock). Extra random edges are
    sprinkled on top and are always controlled. With `two_way`, each
    edge also gets a controlled door back with that probability; at 0
    no draw is made for it, so older seeds build what they built.
    """
    if n_nodes < 2:
        raise ValueError("need at least two spaces")
    names = ["room%d" % i for i in range(n_nodes)]
    sig = AttributeSignature(
        request_signature(rng, max_symbols, with_numeric) + [
            AttributeDecl("name", RESOURCE, ENUM, tuple(names)),
            AttributeDecl("locked", RESOURCE, BOOLEAN),
        ])
    labels = {n: {"name": n, "locked": rng.random() < 0.4} for n in names}
    backbone: Optional[Formula] = Top() if backbone_fixed_true else None
    edges: Dict[Edge, Optional[Formula]] = {}
    for i in range(1, n_nodes):
        edges[(names[i - 1], names[i])] = backbone
    edges[(names[-1], names[0])] = backbone
    for _ in range(rng.randint(0, n_nodes)):
        a, b = rng.sample(names, 2)
        edges.setdefault((a, b), None)
    if two_way:
        for a, b in list(edges):
            if rng.random() < two_way:
                edges.setdefault((b, a), None)
    S = ResourceStructure(sig, names[0], labels, edges)
    S.validate(as_given=True)
    return S


def grid_building(rows: int, cols: int, secure=()) -> ResourceStructure:
    """A rows x cols grid of two-way controlled doors between neighbouring
    cells c<i>_<j>, entered at c0_0. The cells in `secure` are in the
    secure zone, the others in the public one. Requests have a role,
    guest or staff, and a badge."""
    cells = ["c%d_%d" % (i, j) for i in range(rows) for j in range(cols)]
    sig = AttributeSignature([
        AttributeDecl("role", SUBJECT, ENUM, ("guest", "staff")),
        AttributeDecl("badge", CONTEXTUAL, BOOLEAN),
        AttributeDecl("id", RESOURCE, ENUM, tuple(cells)),
        AttributeDecl("zone", RESOURCE, ENUM, ("public", "secure")),
    ])
    labels = {c: {"id": c, "zone": "secure" if c in secure else "public"}
              for c in cells}
    edges: Dict[Edge, Optional[Formula]] = {}
    for i in range(rows):
        for j in range(cols):
            for a, b in ((i + 1, j), (i, j + 1)):
                if a < rows and b < cols:
                    edges[("c%d_%d" % (i, j), "c%d_%d" % (a, b))] = None
                    edges[("c%d_%d" % (a, b), "c%d_%d" % (i, j))] = None
    S = ResourceStructure(sig, "c0_0", labels, edges)
    S.validate()
    return S


def random_request_atom(rng: random.Random, sig: AttributeSignature) -> Atom:
    d = rng.choice(sig.request_attrs())
    if d.kind == ENUM:
        pool = [BOTTOM] + list(d.symbols)
        values = frozenset(rng.sample(pool, rng.randint(1, len(pool) - 1)))
    elif d.kind == BOOLEAN:
        values = frozenset(rng.sample([BOTTOM, False, True], rng.randint(1, 2)))
    else:
        lo = rng.randint(0, 5)
        values = frozenset(range(lo, rng.randint(lo, 7) + 1))
        if rng.random() < 0.25:
            values |= frozenset([BOTTOM])
    return Atom(d.name, values)


def random_request(rng: random.Random, sig: AttributeSignature) -> Dict:
    """A full request: every request attribute set or left unset."""
    q = {}
    for d in sig.request_attrs():
        roll = rng.random()
        if roll < 0.25:
            q[d.name] = BOTTOM
        elif d.kind == ENUM:
            q[d.name] = rng.choice(d.symbols)
        elif d.kind == BOOLEAN:
            q[d.name] = rng.random() < 0.5
        else:
            q[d.name] = rng.randint(0, 8)
    return q


def random_target(rng: random.Random, sig: AttributeSignature,
                  depth: int) -> Formula:
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.1:
            return Top()
        return random_request_atom(rng, sig)
    if rng.random() < 0.4:
        return Not(random_target(rng, sig, depth - 1))
    return And(random_target(rng, sig, depth - 1),
               random_target(rng, sig, depth - 1))


def random_resource_atom(rng: random.Random, S: ResourceStructure) -> Atom:
    if rng.random() < 0.6:
        names = S.nodes
        chosen = rng.sample(names, rng.randint(1, max(1, len(names) // 2)))
        return Atom("name", frozenset(chosen))
    return Atom("locked", frozenset([rng.random() < 0.5]))


def random_constraint(rng: random.Random, S: ResourceStructure, depth: int,
                      allow_au: bool = True) -> Formula:
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.15:
            return Top()
        return random_resource_atom(rng, S)
    roll = rng.random()
    sub = lambda: random_constraint(rng, S, depth - 1, allow_au)
    if roll < 0.15:
        return Not(sub())
    if roll < 0.3:
        return And(sub(), sub())
    if roll < 0.45:
        return EX(sub())
    if roll < 0.6:
        return AX(sub())
    if roll < 0.8 or not allow_au:
        return EU(sub(), sub())
    return AU(sub(), sub())


def random_policy(rng: random.Random, sig: AttributeSignature) -> Formula:
    roll = rng.random()
    if roll < 0.12:
        return Top()
    if roll < 0.24:
        return falsum()
    if roll < 0.55:
        return random_request_atom(rng, sig)
    if roll < 0.8:
        return Not(random_request_atom(rng, sig))
    return And(random_request_atom(rng, sig), random_request_atom(rng, sig))


def random_config(rng: random.Random, S: ResourceStructure):
    return {e: random_policy(rng, S.sig) for e in S.controlled_edges()}


def random_pattern_requirement(rng: random.Random, S: ResourceStructure,
                               target_depth: int = 2) -> Requirement:
    """One of the four requirement shapes, with its pattern polarity."""
    target = random_target(rng, S.sig, target_depth)
    roll = rng.random()
    if roll < 0.25:
        return Requirement(target, grant(random_resource_atom(rng, S)),
                           POSITIVE)
    if roll < 0.5:
        return Requirement(target, deny(random_resource_atom(rng, S)),
                           NEGATIVE)
    if roll < 0.75:
        return Requirement(target,
                           blocking(random_resource_atom(rng, S),
                                    random_resource_atom(rng, S)),
                           NEGATIVE)
    return Requirement(target,
                       waypoint(random_resource_atom(rng, S),
                                random_resource_atom(rng, S)),
                       NEGATIVE)


def comparable_configs(rng: random.Random, S: ResourceStructure
                       ) -> Tuple[dict, dict]:
    """Two configurations with the first pointwise at most as permissive
    as the second: per edge, both policies come from one implication
    chain falsum <= (a and b) <= a <= anything-true."""
    lo, hi = {}, {}
    for e in S.controlled_edges():
        a = random_request_atom(rng, S.sig)
        b = random_request_atom(rng, S.sig)
        chain = [falsum(), And(a, b), a, Top()]
        i = rng.randint(0, len(chain) - 1)
        j = rng.randint(i, len(chain) - 1)
        lo[e], hi[e] = chain[i], chain[j]
    return lo, hi
