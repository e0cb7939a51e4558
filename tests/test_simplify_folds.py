"""simplify_policy() is three folds over subformulas(): to the n-ary
control form, one rebuild through the smart constructors, and back to
a target. Derive hands it the control residue of a symbolic policy
directly. The references below are the walks it replaces: a residue
read back as a target (binary And, `or` as Not(And(Not, Not))), then
simplified recursively on the target. Both must give the very same
node. A deep policy, 1,025 negated classes over 11 flags, must go
through the simplifier, the printer, eval_target and target_equiv
without running into the recursion limit."""

import functools
import random
import time
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from gatesynth.app import effective_requirements
from gatesynth.encoder import assign_controls, cand, cnot, target_to_control
from gatesynth.formulas import (
    BOOLEAN, CONTEXTUAL, And, Atom, AttributeDecl, AttributeSignature, CAnd,
    CFalse, COr, Not, Top, build_regions, collect_atoms, conj, disj,
    eval_target, falsum, format_value, simplify_policy, target_equiv,
    target_masks,
)
from gatesynth.rules import (
    _PREC_AND, _PREC_ATOMIC, _PREC_IMPL, _PREC_OR, _PREC_UNARY, _atom_str,
    _lower_bound_of, _single_member, _upper_bound, format_target, parse_target,
)
from gatesynth.templates import CapExceeded, complete_template, dnf_template

from genutil import (
    random_model, random_pattern_requirement, random_policy, random_request_atom,
)
from test_rules import TARGET_TEXTS


# -- the walks the folds replace ---------------------------------------------

def ref_control_to_target(f):
    if isinstance(f, (Top, Atom)):
        return f
    if isinstance(f, CFalse):
        return falsum()
    if isinstance(f, Not):
        return Not(ref_control_to_target(f.sub))
    if isinstance(f, CAnd):
        return conj([ref_control_to_target(a) for a in f.args])
    if isinstance(f, COr):
        return functools.reduce(disj, [ref_control_to_target(a) for a in f.args])
    raise TypeError("not a formula over request attributes: %r" % (f,))


def ref_full_domain(sig, attr) -> Optional[frozenset]:
    domain = sig.get(attr).domain()
    return None if domain is None else frozenset(domain)


def ref_simp(t, sig):
    if isinstance(t, Top):
        return t
    if isinstance(t, Atom):
        if not t.values:
            return falsum()
        full = ref_full_domain(sig, t.attr)
        if full is not None and t.values >= full:
            return Top()
        return t
    if isinstance(t, Not):
        s = ref_simp(t.sub, sig)
        if isinstance(s, Not):
            return s.sub
        return Not(s)
    if isinstance(t, And):
        return ref_simp_and(t, sig)
    raise TypeError("not a policy node: %r" % (t,))


def ref_flatten_and(t) -> List:
    if isinstance(t, And):
        return ref_flatten_and(t.left) + ref_flatten_and(t.right)
    return [t]


def ref_simp_and(t, sig):
    parts = []
    for p in ref_flatten_and(t):
        s = ref_simp(p, sig)
        if isinstance(s, And):
            parts.extend(ref_flatten_and(s))
        else:
            parts.append(s)
    false = falsum()
    pos: Dict[str, frozenset] = {}
    negv: Dict[str, frozenset] = {}
    order: List[Tuple[str, object]] = []
    others: List = []
    for p in parts:
        if isinstance(p, Top):
            continue
        if p == false:
            return false
        if isinstance(p, Atom):
            if p.attr in pos:
                pos[p.attr] = pos[p.attr] & p.values
            else:
                pos[p.attr] = p.values
                order.append(("pos", p.attr))
            continue
        if isinstance(p, Not) and isinstance(p.sub, Atom):
            a = p.sub
            if a.attr in negv:
                negv[a.attr] = negv[a.attr] | a.values
            else:
                negv[a.attr] = a.values
                order.append(("neg", a.attr))
            continue
        if p not in others:
            order.append(("other", len(others)))
            others.append(p)
    for attr in list(pos):
        if attr in negv:
            pos[attr] = pos[attr] - negv[attr]
            del negv[attr]
    out: List = []
    for kind, key in order:
        if kind == "pos":
            values = pos[key]
            if not values:
                return false
            full = ref_full_domain(sig, key)
            if full is not None and values >= full:
                continue
            out.append(Atom(key, values))
        elif kind == "neg":
            if key not in negv:
                continue
            values = negv[key]
            if not values:
                continue
            full = ref_full_domain(sig, key)
            if full is not None and values >= full:
                return false
            out.append(Not(Atom(key, values)))
        else:
            out.append(others[key])
    for p in out:
        if isinstance(p, Not) and p.sub in out:
            return false
    return conj(out)


# -- differential tests --------------------------------------------------------

def rich_target(rng, sig, depth):
    """A random target with `or` chains, double negations and constants."""
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        pick = rng.random()
        if pick < 0.08:
            return Top()
        if pick < 0.16:
            return falsum()
        if pick < 0.24:
            return random_policy(rng, sig)
        return random_request_atom(rng, sig)
    sub = lambda: rich_target(rng, sig, depth - 1)
    if roll < 0.35:
        return Not(sub())
    if roll < 0.45:
        return Not(Not(sub()))
    if roll < 0.7:
        return functools.reduce(disj, [sub() for _ in range(rng.randint(2, 4))])
    return conj([sub() for _ in range(rng.randint(2, 4))])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_simplifying_a_target_builds_what_the_recursive_walk_built(seed):
    rng = random.Random(seed)
    sig = random_model(rng, 2, max_symbols=3, with_numeric=True).sig
    for _ in range(8):
        t = rich_target(rng, sig, rng.randint(0, 4))
        out = simplify_policy(t, sig)
        assert out is ref_simp(t, sig), t
        # its control form simplifies to the same node
        assert simplify_policy(target_to_control(t), sig) is out, t
        p = random_policy(rng, sig)
        assert simplify_policy(p, sig) is ref_simp(p, sig), p


def templates(S, eff):
    out = [dnf_template(S, eff, k) for k in (1, 2, 3)]
    try:
        out.append(complete_template(S, eff, 256))
    except CapExceeded:
        pass
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_derive_builds_what_reading_the_residue_back_first_built(seed):
    rng = random.Random(seed)
    S = random_model(rng, rng.randint(2, 5), backbone_fixed_true=rng.random() < 0.5,
                     max_symbols=3, with_numeric=True)
    reqs = [random_pattern_requirement(rng, S) for _ in range(rng.randint(1, 3))]
    for tpl in templates(S, effective_requirements(reqs)):
        for _ in range(5):
            m = {v.name: rng.randrange(v.size) for v in tpl.control_vars()
                 if rng.random() < 0.75}
            derived = tpl.derive(m)
            for e in tpl.edges():
                residue = assign_controls(tpl.edge_policy_formula(e), m)
                old = ref_simp(ref_control_to_target(residue), S.sig)
                assert derived[e] is old, (type(tpl).__name__, e, m)


# -- a deep policy --------------------------------------------------------------

FLAGS = 11
CLASSES = 1025
BOUND_S = 5.0       # each call; on a 2-core host each took under 0.2 s


def deep_policy():
    """The signature of 11 boolean flags, the control residue that
    conjoins 1,025 negated classes (each class one seeded assignment of
    every flag), and the same policy as a left-nested And."""
    sig = AttributeSignature([AttributeDecl("f%d" % j, CONTEXTUAL, BOOLEAN)
                              for j in range(FLAGS)])
    flags = [Atom("f%d" % j, frozenset([True])) for j in range(FLAGS)]
    classes = [conj([flags[j] if i >> j & 1 else Not(flags[j]) for j in range(FLAGS)])
               for i in random.Random(11).sample(range(2 ** FLAGS), CLASSES)]
    residue = cand([cnot(target_to_control(c)) for c in classes])
    return sig, residue, conj([Not(c) for c in classes])


def target_parts(t):
    """The parts of a left-nested And chain, in order."""
    parts = []
    while isinstance(t, And):
        parts.append(t.right)
        t = t.left
    return [t] + parts[::-1]


def timed(call):
    start = time.perf_counter()
    out = call()
    assert time.perf_counter() - start < BOUND_S
    return out


def test_a_deep_policy_simplifies_prints_evaluates_and_compares():
    sig, residue, target = deep_policy()
    assert timed(lambda: simplify_policy(residue, sig)) is target
    assert timed(lambda: simplify_policy(target, sig)) is target
    assert timed(lambda: target_equiv(residue, target, sig))
    assert not timed(lambda: target_equiv(residue, Not(target), sig))
    text = timed(lambda: format_target(target, sig))
    # compared apart from the assert, so that a failure prints no diff
    # of two texts of half a megabyte
    same = text == " and ".join(ref_fmt(part, sig, _PREC_AND + 1)
                                for part in target_parts(target))
    assert same
    # eval_target agrees with the region masks, on a sample of regions
    regions = build_regions(sig, collect_atoms(target))
    rng = random.Random(7)
    for start, width in regions.chunks():
        masks = target_masks([target, residue], regions, start, width)
        assert masks[target] == masks[residue]
        for b in rng.sample(range(width), 40):
            q = regions.representative(start + b)
            assert timed(lambda: eval_target(q, target)) == bool(masks[target] >> b & 1)


# -- the printer's `and` chains --------------------------------------------------

def ref_fmt(f, sig, prec):
    text, my_prec = ref_fmt_prec(f, sig)
    return "(%s)" % text if my_prec < prec else text


def ref_fmt_prec(f, sig):
    """The target cases of the recursive printer."""
    if isinstance(f, Top):
        return "true", _PREC_ATOMIC
    if isinstance(f, Atom):
        return _atom_str(f, sig), _PREC_ATOMIC
    if isinstance(f, Not):
        if isinstance(f.sub, Top):
            return "false", _PREC_ATOMIC
        v = _single_member(f.sub.values) if isinstance(f.sub, Atom) else None
        if v is not None:
            return "%s != %s" % (f.sub.attr, format_value(v)), _PREC_ATOMIC
        lb = _lower_bound_of(f)
        if lb is not None:
            return "%s >= %d" % lb, _PREC_ATOMIC
        if isinstance(f.sub, And):
            a = f.sub
            if isinstance(a.left, Not) and isinstance(a.right, Not):
                return ("%s or %s" % (ref_fmt(a.left.sub, sig, _PREC_OR),
                                      ref_fmt(a.right.sub, sig, _PREC_OR + 1)), _PREC_OR)
            if isinstance(a.right, Not):
                return ("%s -> %s" % (ref_fmt(a.left, sig, _PREC_IMPL + 1),
                                      ref_fmt(a.right.sub, sig, _PREC_IMPL)), _PREC_IMPL)
        return "not %s" % ref_fmt(f.sub, sig, _PREC_UNARY), _PREC_UNARY
    lb = _lower_bound_of(f.left)
    if lb is not None and isinstance(f.right, Atom) and f.right.attr == lb[0]:
        hi = _upper_bound(f.right.values)
        if hi is not None:
            return "%d <= %s <= %d" % (lb[1], lb[0], hi), _PREC_ATOMIC
    return ("%s and %s" % (ref_fmt(f.left, sig, _PREC_AND),
                           ref_fmt(f.right, sig, _PREC_AND + 1)), _PREC_AND)


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(TARGET_TEXTS, min_size=1, max_size=4))
def test_and_chains_print_as_the_recursive_printer_printed_them(office, texts):
    parts = [parse_target(text, office.sig) for text in texts]
    for t in (conj(parts), conj([Not(p) for p in parts]), Not(conj(parts)),
              And(conj(parts), conj(parts[::-1]))):
        assert format_target(t, office.sig) == ref_fmt(t, office.sig, 0)


def test_a_chain_of_3000_links_prints_in_one_loop(office):
    atoms = [Atom("time", frozenset([i])) for i in range(3001)]
    text = timed(lambda: format_target(conj(atoms), office.sig))
    same = text == " and ".join("time = %d" % i for i in range(3001))
    assert same
