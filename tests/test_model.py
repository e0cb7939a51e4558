import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from gatesynth.formulas import (
    BOOLEAN, BOTTOM, ENUM, RESOURCE, SUBJECT, Atom, AttributeDecl,
    AttributeSignature, Not, Top,
)
from gatesynth.model import (
    EQUAL, GREATER_OR_EQUAL, INCOMPARABLE, LESS_OR_EQUAL, ModelError,
    ResourceStructure, compare, config_from_json, config_to_json,
    granted_edges, model_from_json, model_to_json, restrict,
    scale_replicate, to_dot, validate_configuration,
)
from gatesynth.rules import ParseError, parse_request, parse_target

from genutil import random_config, random_model, random_request


def tiny_sig():
    return AttributeSignature([
        AttributeDecl("who", SUBJECT, ENUM, ("a", "b")),
        AttributeDecl("name", RESOURCE, ENUM, ("x", "y")),
        AttributeDecl("hot", RESOURCE, BOOLEAN),
    ])


def tiny(edges=None):
    sig = tiny_sig()
    labels = {"x": {"name": "x", "hot": False}, "y": {"name": "y", "hot": True}}
    if edges is None:
        edges = {("x", "y"): None, ("y", "x"): Top()}
    return ResourceStructure(sig, "x", labels, edges)


def test_validate_catches_structural_mistakes():
    with pytest.raises(ModelError, match="entry"):
        ResourceStructure(tiny_sig(), "z",
                          {"x": {"name": "x", "hot": False}}, {}).validate()
    with pytest.raises(ModelError, match="misses resource attribute"):
        ResourceStructure(tiny_sig(), "x", {"x": {"name": "x"}}, {}).validate()
    with pytest.raises(ModelError, match="not admissible"):
        ResourceStructure(tiny_sig(), "x",
                          {"x": {"name": "z", "hot": False}}, {}).validate()
    with pytest.raises(ModelError, match="unknown resource attribute"):
        ResourceStructure(tiny_sig(), "x",
                          {"x": {"name": "x", "hot": False, "who": "a"}},
                          {}).validate()
    with pytest.raises(ModelError, match="undeclared space"):
        tiny({("x", "z"): None}).validate()
    with pytest.raises(ModelError, match="self-loop"):
        tiny({("x", "x"): None}).validate()
    with pytest.raises(ValueError, match="resource"):
        tiny({("x", "y"): Atom("name", frozenset(["x"])),
              ("y", "x"): None}).validate()


def test_validate_as_given_demands_liveness():
    sig = tiny_sig()
    labels = {"x": {"name": "x", "hot": False}, "y": {"name": "y", "hot": True}}
    island = ResourceStructure(sig, "x", labels, {})
    with pytest.raises(ModelError, match="unreachable"):
        island.validate(as_given=True)
    island.validate(as_given=False)
    no_exit = ResourceStructure(sig, "x", labels, {("x", "y"): None})
    with pytest.raises(ModelError, match="no outgoing edge"):
        no_exit.validate(as_given=True)
    no_exit.validate(as_given=False)


def test_views_are_sorted_and_consistent():
    S = tiny()
    assert S.nodes == ["x", "y"]
    assert S.successors("x") == ["y"] and S.predecessors("x") == ["y"]
    assert S.controlled_edges() == [("x", "y")]
    assert S.fixed_edges() == [("y", "x")]
    assert S.reachable() == {"x", "y"}


def test_validate_configuration_reports_missing_and_extra():
    S = tiny()
    with pytest.raises(ModelError, match="missing policies for x->y"):
        validate_configuration(S, {})
    with pytest.raises(ModelError, match="unknown controlled edges"):
        validate_configuration(S, {("x", "y"): Top(), ("y", "x"): Top()})
    with pytest.raises(ValueError, match="resource"):
        validate_configuration(S, {("x", "y"): Atom("hot", frozenset([True]))})


def test_restrict_prunes_to_reachable(office, office_published):
    # A low-privilege visitor outside working hours opens no door at all.
    q = parse_request("role=visitor, time=23, correct_pin=false", office.sig)
    sub = restrict(office, office_published, q)
    assert set(sub.labels) == {"out"}
    assert sub.edges == {}
    # An employee with a pin reaches the office but not the visitor room.
    q = parse_request("role=employee, time=9, correct_pin=true", office.sig)
    sub = restrict(office, office_published, q)
    assert set(sub.labels) == {"out", "lob", "cor", "bur"}
    # A daytime visitor goes through the lobby and ends at the meeting room.
    q = parse_request("role=visitor, time=9", office.sig)
    sub = restrict(office, office_published, q)
    assert set(sub.labels) == {"out", "lob", "cor", "mr"}
    assert ("out", "cor") not in sub.edges and ("cor", "bur") not in sub.edges
    assert ("cor", "mr") in sub.edges and ("lob", "out") in sub.edges


def test_restrict_and_to_dot_agree_with_a_naive_search():
    rng = random.Random(31)
    for _ in range(60):
        S = random_model(rng, rng.randint(2, 7), backbone_fixed_true=rng.random() < 0.3)
        c = random_config(rng, S)
        q = random_request(rng, S.sig)
        granted = granted_edges(S, c, q)
        live = {S.entry}
        grew = True
        while grew:                       # scan every granted edge until nothing new
            grew = False
            for a, b in granted:
                if a in live and b not in live:
                    live.add(b)
                    grew = True
        sub = restrict(S, c, q)
        assert set(sub.labels) == live
        assert set(sub.edges) == {(a, b) for a, b in granted if a in live}
        dot = to_dot(S, c, granted=granted)
        greyed = {name for name, opts in re.findall(r'^  "([^"]+)" \[(.*)\];$', dot, re.M)
                  if "color=grey" in opts}
        assert greyed == set(S.nodes) - live


def two_building_restrict(S, c, q):
    """The reference: restrict through an intermediate structure that
    holds the granted edges only, then a second one pruned to what the
    entry reaches."""
    granted = S.with_edges(granted_edges(S, c, q))
    seen = granted.reachable()
    labels = {r: S.labels[r] for r in S.nodes if r in seen}
    edges = {e: p for e, p in granted.edges.items() if e[0] in seen and e[1] in seen}
    return ResourceStructure(S.sig, S.entry, labels, edges)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_restrict_builds_what_the_two_building_version_built(seed):
    rng = random.Random(seed)
    S = random_model(rng, rng.randint(2, 7), backbone_fixed_true=rng.random() < 0.3,
                     two_way=rng.choice([0.0, 0.5]))
    c = random_config(rng, S)
    q = random_request(rng, S.sig)
    got, want = restrict(S, c, q), two_building_restrict(S, c, q)
    assert got.entry == want.entry
    assert list(got.labels.items()) == list(want.labels.items())
    assert list(got.edges.items()) == list(want.edges.items())


def test_restricted_labels_follow_the_order_of_the_nodes(firm, office, office_published):
    # the labels of a restricted structure come in S.nodes order, so
    # they do not change with the hash seed
    open_doors = {e: Top() for e in firm.controlled_edges()}
    cases = [(firm, open_doors, {}),
             (office, office_published, parse_request("role=employee, time=10", office.sig))]
    for S, config, q in cases:
        got = list(restrict(S, config, q).labels)
        assert len(got) > 3
        assert got == [r for r in S.nodes if r in got]


def test_granted_edges_ignores_reachability(office, office_published):
    # At night the visitor opens no door from the entry, yet the meeting
    # room door would still grant: granted_edges does not prune.
    q = parse_request("role=visitor, time=23", office.sig)
    granted = granted_edges(office, office_published, q)
    assert ("cor", "mr") in granted
    assert ("out", "lob") not in granted and ("out", "cor") not in granted
    assert ("lob", "out") in granted         # fixed doors always grant


def test_compare_orders():
    sig = tiny_sig()
    a = Atom("who", frozenset(["a"]))
    b = Atom("who", frozenset(["b"]))
    e = ("x", "y")
    assert compare({e: a}, {e: Top()}, sig) == LESS_OR_EQUAL
    assert compare({e: Top()}, {e: a}, sig) == GREATER_OR_EQUAL
    assert compare({e: Not(Not(a))}, {e: a}, sig) == EQUAL
    assert compare({e: a}, {e: b}, sig) == INCOMPARABLE
    with pytest.raises(ModelError, match="different edge sets"):
        compare({e: a}, {}, sig)


def test_scale_replicate_shares_the_entry(office):
    S2 = scale_replicate(office, 2)
    assert len(S2.nodes) == 1 + 2 * 4
    assert S2.entry == "out"
    assert ("out", "lob@1") in S2.edges and ("out", "lob@2") in S2.edges
    assert ("cor@1", "bur@1") in S2.edges
    assert ("cor@1", "bur@2") not in S2.edges        # copies do not mix
    assert S2.edges[("lob@1", "out")] == Top()       # fixed stays fixed
    assert S2.edges[("cor@2", "bur@2")] is None      # controlled stays controlled
    S2.validate(as_given=True)
    assert len(S2.controlled_edges()) == 2 * len(office.controlled_edges())
    with pytest.raises(ModelError, match="at least 1"):
        scale_replicate(office, 0)


def two_spaces(entry, other):
    """Two spaces joined both ways by controlled doors, entered at `entry`."""
    sig = AttributeSignature([AttributeDecl("id", RESOURCE, ENUM, (entry, other))])
    return ResourceStructure(sig, entry, {entry: {"id": entry}, other: {"id": other}},
                             {(entry, other): None, (other, entry): None})


def test_a_copy_that_would_take_the_entrys_name_is_a_model_error():
    # copy 1 of `x` is named `x@1`, the entry's name: it would replace the
    # entry's labels and give it a door to itself
    S = two_spaces("x@1", "x")
    S.validate()
    for copies in (1, 2):
        with pytest.raises(ModelError, match="copy 1 of space 'x' would take the name "
                                             "of the entry 'x@1'"):
            scale_replicate(S, copies)
    assert scale_replicate(two_spaces("x@3", "x"), 2).nodes == ["x@1", "x@2", "x@3"]


def test_scale_one_is_a_renaming(office):
    S1 = scale_replicate(office, 1)
    assert len(S1.nodes) == len(office.nodes)
    assert len(S1.edges) == len(office.edges)


def test_model_json_roundtrip(office):
    doc = model_to_json(office)
    again = model_from_json(doc)
    assert again.entry == office.entry
    assert again.labels == office.labels
    assert again.edges == office.edges
    assert [(d.name, d.cls, d.kind, d.symbols) for d in again.sig] \
        == [(d.name, d.cls, d.kind, d.symbols) for d in office.sig]


def test_model_json_roundtrip_random():
    rng = random.Random(7)
    for _ in range(20):
        S = random_model(rng, rng.randint(2, 6),
                         backbone_fixed_true=rng.random() < 0.5)
        again = model_from_json(model_to_json(S))
        assert again.labels == S.labels and again.edges == S.edges


def test_model_json_rejects_bad_documents(office):
    doc = model_to_json(office)
    bad = dict(doc)
    del bad["entry"]
    with pytest.raises(ModelError, match="entry"):
        model_from_json(bad)
    bad = model_to_json(office)
    bad["edges"][0]["mode"] = "sometimes"
    with pytest.raises(ModelError, match="mode"):
        model_from_json(bad)
    bad = model_to_json(office)
    bad["edges"].append(dict(bad["edges"][0]))
    with pytest.raises(ModelError, match="duplicate edge"):
        model_from_json(bad)
    bad = model_to_json(office)
    bad["resources"].append(bad["resources"][0])
    with pytest.raises(ModelError, match="duplicate resource"):
        model_from_json(bad)
    bad = model_to_json(office)
    bad["attributes"]["subject"]["role"]["values"] = ["visitor", "visitor"]
    with pytest.raises(ModelError, match="repeats"):
        model_from_json(bad)


def test_config_json_roundtrip(office, office_published):
    doc = config_to_json(office, office_published)
    assert doc["cor->bur"] == "role = employee"
    again = config_from_json(doc, office)
    assert again == office_published
    with pytest.raises(ModelError, match="unknown edge"):
        config_from_json({"out->nowhere": "true"}, office)
    with pytest.raises(ModelError, match="fixed"):
        config_from_json({"lob->out": "true"}, office)
    with pytest.raises(ModelError, match="from->to"):
        config_from_json({"lob": "true"}, office)


def test_to_dot_marks_modes_and_denied_edges(office, office_published):
    plain = to_dot(office, office_published)
    assert "\"out\" [shape=doublecircle];" in plain
    assert "style=dashed" in plain                       # fixed doors
    assert "label=\"role = employee\"" in plain          # configured policy
    q = parse_request("role=visitor, time=9", office.sig)
    granted = granted_edges(office, office_published, q)
    snap = to_dot(office, office_published, granted=granted, title="t")
    assert "color=red" in snap                           # denied door
    assert "color=grey" in snap                          # unreachable space
    assert snap.startswith("digraph \"t\" {")


# -- malformed input: only ModelError/ParseError may escape ----------------

_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-2, 30)
                | st.sampled_from(["", "out", "lob", "enum", "boolean", "numeric",
                                   "controlled", "true", "role = visitor", "x->y"])
                | st.text(max_size=4))
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "kind", "values", "from", "to", "mode",
                                       "fixed", "labels", "entry", "subject"])
                      | st.text(max_size=3), kids, max_size=3),
    max_leaves=8)


def _paths(doc, prefix=()):
    """Every position inside a JSON document, as key/index tuples."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from _paths(v, prefix + (k,))


def _mutated(doc, data):
    """`doc` with one to three positions replaced by random JSON values."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        value = data.draw(_JSON)
        if not path:
            return value
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        parent[path[-1]] = value
    return doc


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_malformed_model_json_raises_model_errors(office, data):
    doc = _mutated(model_to_json(office), data)
    try:
        model_from_json(doc)
    except (ModelError, ParseError):
        pass


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_malformed_config_json_raises_model_errors(office, office_published, data):
    doc = _mutated(config_to_json(office, office_published), data)
    try:
        config_from_json(doc, office)
    except (ModelError, ParseError):
        pass


def test_wrong_json_types_are_model_errors(office, office_published):
    doc = model_to_json(office)
    with pytest.raises(ModelError, match="model must be an object"):
        model_from_json([])
    bad = json.loads(json.dumps(doc))
    bad["attributes"]["subject"]["role"] = "enum"
    with pytest.raises(ModelError, match="attribute 'role' must be an object"):
        model_from_json(bad)
    bad = json.loads(json.dumps(doc))
    bad["resources"][0]["labels"] = ["id"]
    with pytest.raises(ModelError, match="labels of .* must be an object"):
        model_from_json(bad)
    bad = json.loads(json.dumps(doc))
    bad["edges"][0]["from"] = ["out"]
    with pytest.raises(ModelError, match="edge needs a \"from\" and a \"to\""):
        model_from_json(bad)
    with pytest.raises(ModelError, match="must be a string"):
        config_from_json({"out->lob": 3}, office)
