"""Labeled graphs of spaces, configurations, restriction and scaling.

A resource structure is a directed graph of spaces with a designated
entry. Every node carries a total assignment of the declared resource
attributes. Each edge is either *controlled* (its policy is chosen by
the synthesizer) or *fixed* (its policy is part of the model, commonly
`true` for doors that are always open in one direction).

A configuration assigns one policy (a target over subject and
contextual attributes) to every controlled edge. Restricting a
structure by a request keeps the edges whose policy grants the request
and then drops everything the entry can no longer reach; a caller
that already knows which edges grant the request hands them over.

A structure's `index` numbers its spaces in sorted order, one bit each,
so a set of spaces is an int mask, with a successor and a predecessor
mask per space, read straight from the edges. It is the structure's one
adjacency: successors() and predecessors() read their names off its
masks, and SpaceIndex.walk is the one reachability walk, which
reachable() runs forwards from the entry, the model checker runs
backwards for EU and the until rewrite runs for its memo keys. A
building's index is built on first use and then kept. A restricted
structure is a view of its building: its index shares the building's
numbering, its `full` is the mask of the reached spaces, and its
adjacency holds the granted doors out of them, so a mask over the
building narrows to it with `& full`. Which doors grant a request is one
target_masks fold over the distinct policies, on the request's own
one-region RegionSet.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .formulas import (
    BOOLEAN, BOTTOM, CONTEXTUAL, ENUM, NUMERIC, RESOURCE, SUBJECT,
    AccessRequest, AttributeDecl, AttributeSignature, Formula, RegionSet,
    SynthesisError, Top, Value, build_regions, collect_atoms, target_masks,
    validate_target,
)
from .rules import RESERVED, format_target, parse_target

Edge = Tuple[str, str]
Configuration = Dict[Edge, Formula]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ModelError(ValueError):
    pass


class SpaceIndex:
    """The spaces of a building in sorted order, at[r] the position of
    r and bit[r] its bit. full is the mask of the structure's spaces:
    every space of a building, the reached ones of a view. succ[i] and
    pred[i] are the masks of the successors and the predecessors of
    order[i] over the structure's edges, 0 outside full. Edges with an
    endpoint outside order are skipped, so validate() can report them as
    a model error instead of a crash."""
    __slots__ = ("order", "at", "bit", "succ", "pred", "full")

    def __init__(self, order: List[str], edges: Iterable[Edge]):
        self.order = order
        at = self.at = {r: i for i, r in enumerate(order)}
        self.bit = {r: 1 << i for r, i in at.items()}
        self.full = (1 << len(order)) - 1
        self.succ, self.pred = self.over(edges)

    def over(self, edges: Iterable[Edge]) -> Tuple[List[int], List[int]]:
        """The successor and the predecessor masks over `edges` alone."""
        at, bit = self.at, self.bit
        succ = [0] * len(self.order)
        pred = [0] * len(self.order)
        for a, b in edges:
            try:
                succ[at[a]] |= bit[b]
            except KeyError:    # an endpoint outside order: skipped, nothing written
                continue
            pred[at[b]] |= bit[a]
        return succ, pred

    def view(self, full: int, succ: List[int], pred: List[int]) -> "SpaceIndex":
        """The index of a sub-structure on the spaces of `full`, numbered
        as this one, with the adjacency `over` gave for its edges, kept
        within `full`. No edge may leave `full`, as none of the granted
        doors out of the reached spaces does."""
        ix = object.__new__(SpaceIndex)
        ix.order, ix.at, ix.bit, ix.full = self.order, self.at, self.bit, full
        ix.succ = [m if b & full else 0 for m, b in zip(succ, self.bit.values())]
        # no edge leaves full, so a space outside it has no predecessor in it
        ix.pred = [m & full for m in pred]
        return ix

    def spaces(self, mask: int) -> List[str]:
        """The names in a mask, in order."""
        out = []
        while mask:
            low = mask & -mask
            out.append(self.order[low.bit_length() - 1])
            mask ^= low
        return out

    def walk(self, seen: int, todo: int, adj: List[int], within: int,
             through: int) -> int:
        """seen and the spaces of `within` that adj (succ or pred) leads
        to from the spaces of todo, walking on from those in `through`."""
        while todo:
            low = todo & -todo
            todo ^= low
            nxt = adj[low.bit_length() - 1] & within & ~seen
            seen |= nxt
            todo |= nxt & through
        return seen


@dataclass
class ResourceStructure:
    sig: AttributeSignature
    entry: str
    labels: Dict[str, Dict[str, Value]]          # node -> resource attr -> value
    edges: Dict[Edge, Optional[Formula]]         # None = controlled, else fixed policy

    def __post_init__(self):
        self._index: Optional[SpaceIndex] = None

    # -- basic views ---------------------------------------------------

    @property
    def index(self) -> SpaceIndex:
        if self._index is None:
            self._index = SpaceIndex(sorted(self.labels), self.edges)
        return self._index

    @property
    def nodes(self) -> List[str]:
        """The spaces in sorted order: a building's is the index's list,
        not a copy, and a view's the spaces of its index's full mask."""
        ix = self.index
        return ix.order if len(ix.order) == len(self.labels) else ix.spaces(ix.full)

    def successors(self, r: str) -> List[str]:
        ix = self.index
        return ix.spaces(ix.succ[ix.at[r]])

    def predecessors(self, r: str) -> List[str]:
        ix = self.index
        return ix.spaces(ix.pred[ix.at[r]])

    def controlled_edges(self) -> List[Edge]:
        return sorted(e for e, pol in self.edges.items() if pol is None)

    def fixed_edges(self) -> List[Edge]:
        return sorted(e for e, pol in self.edges.items() if pol is not None)

    def reach_mask(self, edges: Optional[Iterable[Edge]] = None) -> int:
        """The mask of the spaces the entry reaches, over `edges`, some
        of the structure's edges, alone if given."""
        ix = self.index
        start = ix.bit[self.entry]
        adj = ix.succ if edges is None else ix.over(edges)[0]
        return ix.walk(start, start, adj, ix.full, ix.full)

    def reachable(self, edges: Optional[Iterable[Edge]] = None) -> Set[str]:
        """The spaces the entry reaches, as reach_mask() does."""
        return set(self.index.spaces(self.reach_mask(edges)))

    # -- validation ------------------------------------------------------

    def validate(self, as_given: bool = True) -> None:
        """Check well-formedness. `as_given` additionally demands the
        guarantees of an input model (full reachability, no deadlocks),
        which restricted structures are allowed to lose."""
        if self.entry not in self.labels:
            raise ModelError("entry %r is not a declared space" % self.entry)
        resource_attrs = self.sig.resource_attrs()
        for r, lab in self.labels.items():
            for d in resource_attrs:
                if d.name not in lab:
                    raise ModelError("space %r misses resource attribute %r" % (r, d.name))
                if not d.admits(lab[d.name]):
                    raise ModelError("space %r: value %r not admissible for %r"
                                     % (r, lab[d.name], d.name))
            for k in lab:
                if k not in self.sig or self.sig.get(k).cls != RESOURCE:
                    raise ModelError("space %r labels unknown resource attribute %r" % (r, k))
        for (a, b), pol in self.edges.items():
            if a not in self.labels or b not in self.labels:
                raise ModelError("edge (%s, %s) references an undeclared space" % (a, b))
            if a == b:
                raise ModelError("self-loop on %r (edges must be irreflexive)" % a)
            if pol is not None:
                validate_target(pol, self.sig)
        if as_given:
            unreachable = set(self.labels) - self.reachable()
            if unreachable:
                raise ModelError("unreachable spaces: %s" % ", ".join(sorted(unreachable)))
            ix = self.index
            for r in self.nodes:
                if not ix.succ[ix.at[r]]:
                    raise ModelError("space %r has no outgoing edge" % r)

    # -- derived structures ----------------------------------------------

    def with_edges(self, keep: Iterable[Edge]) -> "ResourceStructure":
        """Same spaces and labels, edges limited to `keep` (no pruning)."""
        keep = set(keep)
        return ResourceStructure(self.sig, self.entry, self.labels,
                                 {e: p for e, p in self.edges.items() if e in keep})


def validate_configuration(S: ResourceStructure, c: Configuration) -> None:
    controlled = set(S.controlled_edges())
    if set(c) != controlled:
        missing = sorted(controlled - set(c))
        extra = sorted(set(c) - controlled)
        bits = []
        if missing:
            bits.append("missing policies for %s" % ", ".join("%s->%s" % e for e in missing))
        if extra:
            bits.append("policies for unknown controlled edges %s"
                        % ", ".join("%s->%s" % e for e in extra))
        raise ModelError("; ".join(bits))
    for e, pol in c.items():
        validate_target(pol, S.sig)


def restrict(S: ResourceStructure, c: Configuration, q: AccessRequest,
             granted: Optional[Set[Edge]] = None) -> ResourceStructure:
    """The structure the subject of request `q` experiences: only edges
    whose policy grants `q`, pruned to what the entry still reaches.
    A caller that already knows those edges passes them as `granted`.

    The result is a view of S: its index is SpaceIndex.view of S's, with
    the reached mask as `full` and the adjacency of the granted doors
    that the reach walk itself reads, so nothing is sorted or
    renumbered."""
    if granted is None:
        granted = granted_edges(S, c, q)
    ix = S.index
    succ, pred = ix.over(granted)
    start = ix.bit[S.entry]
    reached = ix.walk(start, start, succ, ix.full, ix.full)
    # in the order of S.nodes, whatever the hash seed
    labels = {r: S.labels[r] for r in ix.spaces(reached)}
    # a granted edge out of a reached space reaches its end too
    edges = {e: p for e, p in S.edges.items() if e in granted and e[0] in labels}
    sub = ResourceStructure(S.sig, S.entry, labels, edges)
    sub._index = ix.view(reached, succ, pred)
    return sub


def granted_edges(S: ResourceStructure, c: Configuration, q: AccessRequest) -> Set[Edge]:
    """The edges whose policy grants q: each distinct policy's bit on
    q's own one-region RegionSet, from one target_masks fold."""
    # a fixed door keeps its own policy, a controlled one takes c's
    policies = {e: c[e] if fixed is None else fixed for e, fixed in S.edges.items()}
    alone = RegionSet(S.sig, {d.name: [q.get(d.name, BOTTOM)]
                              for d in S.sig.request_attrs()})
    masks = target_masks(policies.values(), alone, 0, 1)
    return {e for e, p in policies.items() if masks[p]}


# ---------------------------------------------------------------------------
# Permissiveness comparison
# ---------------------------------------------------------------------------

LESS_OR_EQUAL = "less-or-equal"
GREATER_OR_EQUAL = "greater-or-equal"
EQUAL = "equal"
INCOMPARABLE = "incomparable"


def compare(c1: Configuration, c2: Configuration, sig: AttributeSignature) -> str:
    """Pointwise permissiveness order: c1 is less-or-equal c2 when every
    request granted by c1 on an edge is granted by c2 on that edge."""
    if set(c1) != set(c2):
        raise ModelError("configurations cover different edge sets")
    le = ge = True
    for e in sorted(c1):
        p1, p2 = c1[e], c2[e]
        regions = build_regions(sig, collect_atoms(p1) + collect_atoms(p2))
        for start, width in regions.chunks():
            masks = target_masks([p1, p2], regions, start, width)
            if masks[p1] & ~masks[p2]:
                le = False
            if masks[p2] & ~masks[p1]:
                ge = False
        if not le and not ge:
            return INCOMPARABLE
    if le and ge:
        return EQUAL
    return LESS_OR_EQUAL if le else GREATER_OR_EQUAL


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------

def scale_replicate(S: ResourceStructure, copies: int) -> ResourceStructure:
    """Replicate every non-entry space `copies` times around the shared
    entry. Labels are copied verbatim; edges stay within a copy except
    those incident to the entry, which are duplicated per copy."""
    if copies < 1:
        raise ModelError("copies must be at least 1")
    labels: Dict[str, Dict[str, Value]] = {S.entry: dict(S.labels[S.entry])}
    edges: Dict[Edge, Optional[Formula]] = {}
    for k in range(1, copies + 1):
        suffix = "@%d" % k
        for r, lab in S.labels.items():
            if r + suffix == S.entry:
                raise ModelError("copy %d of space %r would take the name of the entry %r"
                                 % (k, r, S.entry))
            if r != S.entry:
                labels[r + suffix] = dict(lab)
        for (a, b), pol in S.edges.items():
            a2 = a if a == S.entry else a + suffix
            b2 = b if b == S.entry else b + suffix
            edges[(a2, b2)] = pol
    return ResourceStructure(S.sig, S.entry, labels, edges)


# ---------------------------------------------------------------------------
# JSON input and output
# ---------------------------------------------------------------------------

_KINDS = {BOOLEAN, NUMERIC, ENUM}
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string"}


def _expect(value, kind: type, what: str):
    """`value` if it has the JSON type `kind`, else a ModelError."""
    if not isinstance(value, kind):
        raise ModelError("%s must be %s, got %r" % (what, _JSON_TYPES[kind], value))
    return value


def _decl_from_json(name: str, cls: str, spec: dict) -> AttributeDecl:
    if not _IDENT_RE.match(name) or name in RESERVED:
        raise ModelError("attribute name %r is not a usable identifier" % name)
    if not isinstance(spec, dict):
        raise ModelError("attribute %r must be an object, got %r" % (name, spec))
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ModelError("attribute %r: unknown kind %r" % (name, kind))
    symbols: Tuple[str, ...] = ()
    if kind == ENUM:
        symbols = tuple(_expect(spec.get("values", []), list, "values of %r" % name))
        for s in symbols:
            if not isinstance(s, str) or not _IDENT_RE.match(s) or s in RESERVED:
                raise ModelError("attribute %r: bad symbol %r" % (name, s))
        if len(set(symbols)) != len(symbols):
            raise ModelError("attribute %r repeats a symbol" % name)
    return AttributeDecl(name, cls, kind, symbols)


def signature_from_json(doc: dict) -> AttributeSignature:
    decls: List[AttributeDecl] = []
    attrs = _expect(doc.get("attributes", {}), dict, "attributes")
    for cls in (SUBJECT, CONTEXTUAL, RESOURCE):
        for name, spec in _expect(attrs.get(cls, {}), dict, "%s attributes" % cls).items():
            decls.append(_decl_from_json(name, cls, spec))
    try:
        return AttributeSignature(decls)
    except ValueError as exc:
        raise ModelError(str(exc)) from None


def _value_from_json(v) -> Value:
    if v is None:
        return BOTTOM
    if isinstance(v, (bool, int, str)):
        return v
    raise ModelError("bad attribute value %r" % (v,))


def _value_to_json(v: Value):
    return None if v is BOTTOM else v


def model_from_json(doc: dict) -> ResourceStructure:
    sig = signature_from_json(_expect(doc, dict, "a model"))
    if "entry" not in doc:
        raise ModelError("model misses the entry space")
    entry = _expect(doc["entry"], str, "the entry")
    labels: Dict[str, Dict[str, Value]] = {}
    for res in _expect(doc.get("resources", []), list, "resources"):
        rid = res.get("id") if isinstance(res, dict) else None
        if not isinstance(rid, str) or not rid:
            raise ModelError("every resource needs a non-empty id")
        if rid in labels:
            raise ModelError("duplicate resource id %r" % rid)
        lab = res.get("labels", {})
        if not isinstance(lab, dict):
            raise ModelError("labels of %r must be an object, got %r" % (rid, lab))
        labels[rid] = {k: _value_from_json(v) for k, v in lab.items()}
    edges: Dict[Edge, Optional[Formula]] = {}
    for spec in _expect(doc.get("edges", []), list, "edges"):
        a, b = (spec.get("from"), spec.get("to")) if isinstance(spec, dict) else (None, None)
        if not isinstance(a, str) or not isinstance(b, str):
            raise ModelError("an edge needs a \"from\" and a \"to\" space, got %r" % (spec,))
        if (a, b) in edges:
            raise ModelError("duplicate edge (%s, %s)" % (a, b))
        mode = spec.get("mode", "controlled")
        if mode == "controlled":
            edges[(a, b)] = None
        elif isinstance(mode, dict) and set(mode) == {"fixed"}:
            edges[(a, b)] = parse_target(_expect(mode["fixed"], str, "a fixed policy"), sig)
        else:
            raise ModelError("edge (%s, %s): mode must be \"controlled\" "
                             "or {\"fixed\": \"<policy>\"}" % (a, b))
    S = ResourceStructure(sig, entry, labels, edges)
    S.validate(as_given=True)
    return S


def model_to_json(S: ResourceStructure) -> dict:
    attrs: Dict[str, Dict[str, dict]] = {SUBJECT: {}, CONTEXTUAL: {}, RESOURCE: {}}
    for d in S.sig:
        spec: dict = {"kind": d.kind}
        if d.kind == ENUM:
            spec["values"] = list(d.symbols)
        attrs[d.cls][d.name] = spec
    return {
        "attributes": attrs,
        "entry": S.entry,
        "resources": [{"id": r, "labels": {k: _value_to_json(v)
                                           for k, v in S.labels[r].items()}}
                      for r in S.nodes],
        "edges": [{"from": a, "to": b,
                   "mode": "controlled" if pol is None
                   else {"fixed": format_target(pol, S.sig)}}
                  for (a, b), pol in sorted(S.edges.items())],
    }


def load_model(path: str) -> ResourceStructure:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(json.load(fh))


def save_model(S: ResourceStructure, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(S), fh, indent=2)
        fh.write("\n")


def edge_key(e: Edge) -> str:
    return "%s->%s" % e


def _parse_edge_key(key: str) -> Edge:
    if "->" not in key:
        raise ModelError("configuration keys look like \"from->to\", got %r" % key)
    a, _, b = key.partition("->")
    return (a.strip(), b.strip())


def config_from_json(doc: dict, S: ResourceStructure) -> Configuration:
    c: Configuration = {}
    for key, text in _expect(doc, dict, "a configuration").items():
        e = _parse_edge_key(key)
        if e not in S.edges:
            raise ModelError("configuration names unknown edge %r" % key)
        if S.edges[e] is not None:
            raise ModelError("edge %r is fixed, its policy is not configurable" % key)
        if not isinstance(text, str):
            raise ModelError("the policy of %r must be a string, got %r" % (key, text))
        c[e] = parse_target(text, S.sig)
    validate_configuration(S, c)
    return c


def config_to_json(S: ResourceStructure, c: Configuration) -> dict:
    return {edge_key(e): format_target(c[e], S.sig) for e in sorted(c)}


def load_config(path: str, S: ResourceStructure) -> Configuration:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_json(json.load(fh), S)


def save_config(S: ResourceStructure, c: Configuration, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_json(S, c), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def to_dot(S: ResourceStructure, c: Optional[Configuration] = None,
           granted: Optional[Set[Edge]] = None, title: str = "spaces") -> str:
    """Graphviz rendering. Fixed edges are dashed. When `granted` is
    given, edges outside it are drawn red (denied) and spaces the entry
    no longer reaches are greyed out."""
    lines = ["digraph \"%s\" {" % title, "  rankdir=LR;"]
    live = S.reachable(granted) if granted is not None else None
    for r in S.nodes:
        opts = ["shape=doublecircle"] if r == S.entry else ["shape=circle"]
        if live is not None and r not in live:
            opts.append("color=grey")
            opts.append("fontcolor=grey")
        lines.append("  \"%s\" [%s];" % (r, ", ".join(opts)))
    for (a, b) in sorted(S.edges):
        pol = S.edges[(a, b)]
        opts = []
        if pol is not None:
            opts.append("style=dashed")
        if granted is not None and (a, b) not in granted:
            opts.append("color=red")
        label = None
        if c is not None and pol is None:
            label = format_target(c[(a, b)], S.sig)
        elif pol is not None and pol != Top():
            label = format_target(pol, S.sig)
        if label is not None:
            opts.append("label=\"%s\"" % label.replace("\"", "\\\""))
        lines.append("  \"%s\" -> \"%s\"%s;"
                     % (a, b, " [%s]" % ", ".join(opts) if opts else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"
