"""Regenerate the stored inputs of the replica-verify workload.

    python3 bench/make_expected.py

Writes two files under bench/data/:

* firm.config.json: the configuration `synth` finds for the bundled firm
  with its rules in file order;
* replica_expected.json: for firm x 2 and firm x 10 carrying that
  configuration in every copy, the verdict of the intact configuration
  and of every single-door lockdown (the door's policy set to false).

Every verdict `verify` gives is cross-checked once, here, against the
path oracle in tests/oracle.py run on a restriction computed in this
file, over requests enumerated in this file. The script stops without
writing anything if the two disagree. The benchmark only reads the
stored files, so a wrong verdict from a later version of the checker
shows up as a failed operation.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import os
import sys

from checkout import ROOT, use_checkout_source

use_checkout_source()

from gatesynth import data  # noqa: E402
from gatesynth.app import synth, verify  # noqa: E402
from gatesynth.formulas import (  # noqa: E402
    BOOLEAN, BOTTOM, ENUM, And, Atom, Not, Top, collect_atoms, falsum,
)
from gatesynth.model import (  # noqa: E402
    config_from_json, config_to_json, load_model, scale_replicate,
)
from gatesynth.rules import parse_requirements  # noqa: E402

import workloads  # noqa: E402

COPIES = (2, 10)


def load_oracle():
    spec = importlib.util.spec_from_file_location(
        "oracle", os.path.join(ROOT, "tests", "oracle.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def admits(q, t) -> bool:
    if isinstance(t, Top):
        return True
    if isinstance(t, Atom):
        return q.get(t.attr, BOTTOM) in t.values
    if isinstance(t, Not):
        return not admits(q, t.sub)
    if isinstance(t, And):
        return admits(q, t.left) and admits(q, t.right)
    raise TypeError("not a target: %r" % (t,))


def requests(sig, formulas):
    """Every combination of attribute values that any test can tell
    apart: all symbols and the unset value, and around every number the
    formulas mention."""
    numbers = {0}
    for f in formulas:
        for a in collect_atoms(f):
            for v in a.values:
                if isinstance(v, int) and not isinstance(v, bool):
                    numbers.update((max(v - 1, 0), v, v + 1))
    names, pools = [], []
    for d in sig.request_attrs():
        names.append(d.name)
        if d.kind == ENUM:
            pools.append([BOTTOM] + list(d.symbols))
        elif d.kind == BOOLEAN:
            pools.append([BOTTOM, False, True])
        else:
            pools.append([BOTTOM] + sorted(numbers))
    for combo in itertools.product(*pools):
        yield dict(zip(names, combo))


class Restricted:
    """What one request sees: granted edges reachable from the entry."""

    def __init__(self, S, granted):
        succ = {}
        for a, b in granted:
            succ.setdefault(a, []).append(b)
        seen, stack = {S.entry}, [S.entry]
        while stack:
            for b in succ.get(stack.pop(), ()):
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        self.labels = {r: S.labels[r] for r in seen}
        self._succ = {r: [b for b in succ.get(r, ()) if b in seen] for r in seen}

    def successors(self, r):
        return self._succ[r]


def oracle_verdicts(oracle, S, config, reqs, doors):
    """The oracle's verdict on the intact configuration (key None) and on
    each door locked down. Locking a door takes it out of every request's
    granted set, so each distinct (applicable requirements, granted edges)
    pair of the intact configuration is checked once per door."""
    policies = {e: config[e] if pol is None else pol for e, pol in S.edges.items()}
    classes = set()
    for q in requests(S.sig, [r.target for r in reqs] + list(policies.values())):
        applicable = tuple(i for i, r in enumerate(reqs) if admits(q, r.target))
        if applicable:
            classes.add((applicable, frozenset(e for e, p in policies.items()
                                               if admits(q, p))))
    verdicts = {}
    for door in [None] + list(doors):
        verdicts[door] = all(
            oracle.naive_check(Restricted(S, granted - {door}), S.entry,
                               reqs[i].constraint)
            for applicable, granted in classes for i in applicable)
    return verdicts


def main() -> int:
    oracle = load_oracle()
    firm = load_model(data.path(data.FIRM_MODEL))
    with open(data.path(data.FIRM_REQUIREMENTS), encoding="utf-8") as fh:
        reqs = parse_requirements(fh.read(), firm.sig)
    result = synth(firm, reqs)
    if not result.ok:
        sys.exit("synth found no firm configuration: %s" % result.message)
    firm_doc = config_to_json(firm, result.configuration)

    expected = {}
    for copies in COPIES:
        S = scale_replicate(firm, copies)
        config = config_from_json(
            workloads.replicate_config(firm_doc, firm.entry, copies), S)
        doors = sorted(config)
        reference = oracle_verdicts(oracle, S, config, reqs, doors)
        verdicts = {}
        for door in [None] + doors:
            checked = dict(config)
            if door is not None:
                checked[door] = falsum()
            got = verify(S, reqs, checked).ok
            if got != reference[door]:
                sys.exit("verify and the path oracle disagree on %s in firm x%d"
                         % (door or "the intact configuration", copies))
            verdicts[None if door is None else "%s->%s" % door] = got
        intact = verdicts.pop(None)
        expected[str(copies)] = {"intact": intact, "lockdown": verdicts}
        print("x%d: intact %s, %d of %d lockdowns hold"
              % (copies, intact, sum(verdicts.values()), len(verdicts)))

    os.makedirs(os.path.dirname(workloads.FIRM_CONFIG), exist_ok=True)
    with open(workloads.FIRM_CONFIG, "w", encoding="utf-8") as fh:
        json.dump(firm_doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(workloads.REPLICA_EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
