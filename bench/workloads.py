"""The four benchmark workloads: seeded inputs, the timed call, and the
check of each call's output against a reference the call did not make.

Every workload is a closed loop with one caller: the next operation
starts when the previous one has returned and been checked. Inputs come
only from the seed, so the same seed gives the same inputs.

* firm-synth: `synth` on the bundled firm with its rule lines in a
  seeded order. Checked by a separate `verify` call.
* grid-until: `synth` on seeded 4 x 5 grids of two-way controlled doors
  with seeded zone labels, a different grid each operation. The three
  rules are satisfiable by construction. Checked by a separate `verify`
  call.
* office-conflict: `synth` on the office with a seeded wide numeric
  window on the visitor grant plus a seeded rule that denies visitors
  the same room at one time inside it. The answer must be `unsat`.
* replica-verify: `verify` on firm x copies carrying the stored firm
  configuration in every copy, either intact or with one door locked
  down: the firm's doors in a seeded order, each in a seeded replica.
  Checked against the stored expected verdicts.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from gatesynth import data
from gatesynth.app import synth, verify
from gatesynth.formulas import NUMERIC, And, Atom, Not, collect_atoms, falsum
from gatesynth.model import (
    config_from_json, load_model, model_from_json, scale_replicate,
)
from gatesynth.rules import parse_requirements

HERE = os.path.dirname(os.path.abspath(__file__))
FIRM_CONFIG = os.path.join(HERE, "data", "firm.config.json")
REPLICA_EXPECTED = os.path.join(HERE, "data", "replica_expected.json")


@dataclass
class Op:
    kind: str                                  # "synth" or "verify"
    call: Callable[[], object]                 # the timed API call
    check: Callable[[object], Optional[str]]   # None when the output is right


@dataclass
class Prepared:
    """What one set-up produced: the inputs and the time of its parts."""
    next_op: Callable[[], Op]                  # the run's next operation
    reqs: list
    sig: object
    load_s: float
    parse_s: float


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _timed(fn, *args):
    """fn(*args) and its wall time."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def numeric_values(reqs, sig) -> int:
    """Explicit numeric values held by the distinct atoms of the rules."""
    atoms = set()
    for r in reqs:
        atoms.update(collect_atoms(r.target))
        atoms.update(collect_atoms(r.constraint))
    return sum(sum(1 for v in a.values if isinstance(v, int) and not isinstance(v, bool))
               for a in atoms if sig.get(a.attr).kind == NUMERIC)


def policy_atoms(config) -> int:
    """Attribute tests in all door policies, counted per occurrence."""
    def size(f) -> int:
        if isinstance(f, Atom):
            return 1
        if isinstance(f, Not):
            return size(f.sub)
        if isinstance(f, And):
            return size(f.left) + size(f.right)
        return 0
    return sum(size(p) for p in config.values())


def _synth_op(S, reqs) -> Op:
    def check(result) -> Optional[str]:
        if result.outcome != "configuration":
            return "synth returned %s: %s" % (result.outcome, result.message)
        report = verify(S, reqs, result.configuration, deadlock_free="auto")
        if not report.ok:
            return "verify rejects the synthesized configuration"
        return None
    return Op("synth", lambda: synth(S, reqs), check)


# ---------------------------------------------------------------------------
# firm-synth
# ---------------------------------------------------------------------------

def firm_rules(seed: int) -> str:
    """The firm's rule lines in a seeded order."""
    lines = [line for line in _read(data.path(data.FIRM_REQUIREMENTS)).splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    random.Random(seed).shuffle(lines)
    return "\n".join(lines) + "\n"


def setup_firm_synth(seed: int, small: bool) -> Prepared:
    """The bundled firm has one size; `small` changes nothing."""
    text = firm_rules(seed)
    S, load_s = _timed(load_model, data.path(data.FIRM_MODEL))
    reqs, parse_s = _timed(parse_requirements, text, S.sig)
    return Prepared(lambda: _synth_op(S, reqs), reqs, S.sig, load_s, parse_s)


# ---------------------------------------------------------------------------
# grid-until
# ---------------------------------------------------------------------------

GRID_POOL = 32          # grids one run cycles through


def grid_inputs(rng: random.Random, rows: int, cols: int) -> Tuple[str, str]:
    """Model JSON text and rules of a rows x cols grid of two-way
    controlled doors, drawn from `rng`.

    Cells are secure with probability 0.3, except the entry corner and
    the far corner. Staff with a badge must reach the far corner, guests
    must reach a goal cell and never a secure one. The guest goal is the
    cell farthest from the entry among those it reaches through
    non-secure cells, so opening exactly the doors between non-secure
    cells to guests, and every door to staff, satisfies all three rules.
    """
    name = lambda i, j: "c%d_%d" % (i, j)
    cells = [name(i, j) for i in range(rows) for j in range(cols)]
    entry, far = name(0, 0), name(rows - 1, cols - 1)
    steps = {c: [] for c in cells}
    for i in range(rows):
        for j in range(cols):
            for a, b in ((i + 1, j), (i, j + 1)):
                if a < rows and b < cols:
                    steps[name(i, j)].append(name(a, b))
                    steps[name(a, b)].append(name(i, j))
    while True:
        zone = {c: "secure" if c not in (entry, far) and rng.random() < 0.3
                else "public" for c in cells}
        dist = {entry: 0}
        queue = [entry]
        for r in queue:
            for s in steps[r]:
                if zone[s] == "public" and s not in dist:
                    dist[s] = dist[r] + 1
                    queue.append(s)
        if len(dist) > 1:
            break
    goal = max(sorted(dist), key=dist.get)
    doc = {
        "attributes": {
            "subject": {"role": {"kind": "enum", "values": ["guest", "staff"]}},
            "contextual": {"badge": {"kind": "boolean"}},
            "resource": {"id": {"kind": "enum", "values": cells},
                         "zone": {"kind": "enum", "values": ["public", "secure"]}},
        },
        "entry": entry,
        "resources": [{"id": c, "labels": {"id": c, "zone": zone[c]}} for c in cells],
        "edges": [{"from": a, "to": b, "mode": "controlled"}
                  for a in cells for b in steps[a]],
    }
    rules = ("role = staff and badge => grant(id = %s)\n"
             "role = guest => grant(id = %s)\n"
             "role = guest => deny(zone = secure)\n" % (far, goal))
    return json.dumps(doc), rules


def grid_pool(seed: int, rows: int, cols: int):
    """GRID_POOL grids drawn from the seed, as (model JSON, rules) pairs."""
    rng = random.Random(seed)
    return [grid_inputs(rng, rows, cols) for _ in range(GRID_POOL)]


def setup_grid_until(seed: int, small: bool) -> Prepared:
    """Operations cycle through a pool of seeded grids, so a run's median
    covers many grid shapes rather than the one a seed happens to draw."""
    pool = grid_pool(seed, *((3, 3) if small else (4, 5)))
    models, load_s = _timed(lambda: [model_from_json(json.loads(doc))
                                     for doc, _ in pool])
    reqs, parse_s = _timed(lambda: [parse_requirements(text, S.sig)
                                    for S, (_, text) in zip(models, pool)])
    turn = itertools.cycle(zip(models, reqs))
    return Prepared(lambda: _synth_op(*next(turn)), reqs[0], models[0].sig,
                    load_s, parse_s)


# ---------------------------------------------------------------------------
# office-conflict
# ---------------------------------------------------------------------------

VISITOR_GRANT = "role = visitor and 8 <= time <= 20 => grant(id = mr)"


def office_conflict_rules(seed: int, small: bool) -> str:
    """The office rules with a seeded visitor window, plus one rule that
    denies visitors the meeting room at a seeded time inside it.

    The window's width is fixed and the conflict time stays near its
    middle: the size of the explicit numeric sets the template builds
    depends on where that time falls, and with it time and memory."""
    rng = random.Random(seed)
    width = 12 if small else 19200
    lo = (8 if small else 700) + rng.randrange(width // 64 + 1)
    hi = lo + width
    at = lo + width // 2 + rng.randint(-(width // 64), width // 64)
    text = _read(data.path(data.OFFICE_REQUIREMENTS))
    if VISITOR_GRANT not in text:
        raise ValueError("bundled office rules no longer hold the visitor grant")
    text = text.replace(VISITOR_GRANT, "role = visitor and %d <= time <= %d => "
                        "grant(id = mr)" % (lo, hi))
    return text + "role = visitor and %d <= time <= %d => deny(id = mr)\n" % (at, at)


def setup_office_conflict(seed: int, small: bool) -> Prepared:
    text = office_conflict_rules(seed, small)
    S, load_s = _timed(load_model, data.path(data.OFFICE_MODEL))
    reqs, parse_s = _timed(parse_requirements, text, S.sig)

    def check(result) -> Optional[str]:
        if result.outcome != "unsat":
            return "synth returned %s on conflicting rules" % result.outcome
        return None

    return Prepared(lambda: Op("synth", lambda: synth(S, reqs), check),
                    reqs, S.sig, load_s, parse_s)


# ---------------------------------------------------------------------------
# replica-verify
# ---------------------------------------------------------------------------

def replicate_config(doc: Dict[str, str], entry: str, copies: int) -> Dict[str, str]:
    """A firm configuration (edge key -> policy text) copied into every
    replica that `scale_replicate` builds."""
    out = {}
    for key, policy in doc.items():
        a, _, b = key.partition("->")
        for k in range(1, copies + 1):
            a2 = a if a == entry else "%s@%d" % (a, k)
            b2 = b if b == entry else "%s@%d" % (b, k)
            out["%s->%s" % (a2, b2)] = policy
    return out


def setup_replica_verify(seed: int, small: bool,
                         plant_wrong_verdict: bool = False) -> Prepared:
    copies = 2 if small else 10
    expected = json.loads(_read(REPLICA_EXPECTED))[str(copies)]
    firm_doc = json.loads(_read(FIRM_CONFIG))
    text = _read(data.path(data.FIRM_REQUIREMENTS))
    firm, load_s = _timed(load_model, data.path(data.FIRM_MODEL))
    reqs, parse_s = _timed(parse_requirements, text, firm.sig)
    S = scale_replicate(firm, copies)
    config = config_from_json(replicate_config(firm_doc, firm.entry, copies), S)
    # Doors grouped by the firm door they copy: locking a door down costs
    # about the same in every replica, and far from the same across
    # firm doors, so every run takes each firm door in turn.
    copies_of = {}
    for a, b in sorted(config):
        copies_of.setdefault((a.partition("@")[0], b.partition("@")[0]), []).append((a, b))
    rng = random.Random(seed)
    order = sorted(copies_of)
    rng.shuffle(order)

    def doors_in_turn():
        while True:
            for n, firm_door in enumerate(order):
                if n % 3 == 0:
                    yield None          # the intact configuration
                yield rng.choice(copies_of[firm_door])

    turn = doors_in_turn()

    def next_op() -> Op:
        door = next(turn)
        if door is None:
            checked, want = config, expected["intact"]
        else:
            checked = dict(config)
            checked[door] = falsum()
            want = expected["lockdown"]["%s->%s" % door]
        if plant_wrong_verdict:
            want = not want

        def check(report) -> Optional[str]:
            if report.ok != want:
                return "verify says %s for %s, expected %s" % (
                    report.ok, door or "the intact configuration", want)
            return None
        return Op("verify", lambda: verify(S, reqs, checked), check)

    return Prepared(next_op, reqs, S.sig, load_s, parse_s)


WORKLOADS = {
    "firm-synth": setup_firm_synth,
    "grid-until": setup_grid_until,
    "office-conflict": setup_office_conflict,
    "replica-verify": setup_replica_verify,
}
