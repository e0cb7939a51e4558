"""Which gatesynth functions the traced run wraps, and how the spans of
one operation turn into the per-layer metrics named in BENCHMARK.json.

Layers are the modules of `src/gatesynth`. Every wrapped name is the one
its caller looks up at call time:

* `app.{encode, expand_guards, ground_forall, sat_solve, dnf_template,
  complete_template, holds}`, called by `synth` and `verify`;
* `encoder.{fold_atoms, build_regions, _dpll}`, called by `ground_forall`
  and `sat_solve`. `_dpll` is the one private seam: CNF translation and
  search have no public boundary between them;
* `checker.{restrict, build_regions, model_check, label_structure}`,
  called by `holds`.
"""

from __future__ import annotations

from typing import Dict, List, Set

import gatesynth.app as app
import gatesynth.checker as checker
import gatesynth.encoder as encoder

from spans import Span, Tracer


class Probe:
    """Installs the wrappers and keeps the per-operation state counters need."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._kept: Set[object] = set()
        trivial = (encoder.CTrue, encoder.CFalse)

        def nodes(args, result):
            return {"nodes": encoder.formula_size(result)}

        def kept(args, result):
            if isinstance(result, trivial) or result in self._kept:
                return {}
            self._kept.add(result)
            return {"kept": 1}

        self._targets = [
            (app, "encode", "app.encode", nodes),
            (app, "expand_guards", "app.expand_guards", nodes),
            (app, "ground_forall", "app.ground_forall", nodes),
            (app, "sat_solve", "app.sat_solve", None),
            (app, "dnf_template", "app.dnf_template",
             lambda a, r: {"bits": r.bit_count()}),
            (app, "complete_template", "app.complete_template", None),
            (app, "holds", "app.holds",
             lambda a, r: {"representatives": r.representatives}),
            (encoder, "fold_atoms", "encoder.fold_atoms", kept),
            (encoder, "build_regions", "encoder.build_regions",
             lambda a, r: {"regions": r.count()}),
            (encoder, "_dpll", "encoder._dpll",
             lambda a, r: {"vars": a[0].n_vars, "clauses": len(a[0].clauses)}),
            (checker, "restrict", "checker.restrict", None),
            (checker, "build_regions", "checker.build_regions",
             lambda a, r: {"regions": r.count()}),
            (checker, "model_check", "checker.model_check", None),
            (checker, "label_structure", "checker.label_structure", None),
        ]

    def install(self) -> None:
        for module, attr, name, counter in self._targets:
            self.tracer.patch(module, attr, name, counter)

    def remove(self) -> None:
        self.tracer.unpatch()
        self._kept.clear()


def op_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer numbers of one traced operation (its spans, root first).
    The set-up metrics, the policy size and the tracing overhead are not
    span data; the runner adds them."""
    net: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counts: Dict[str, float] = {}
    bits = 0.0
    raised = 0
    for s in spans:
        net[s.name] = net.get(s.name, 0.0) + s.net
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            counts[s.name + "/" + key] = counts.get(s.name + "/" + key, 0) + value
        bits = max(bits, s.counts.get("bits", 0))
        raised += s.counts.get("raised:CapExceeded", 0)
    root = spans[0]
    children = [s for s in spans if s.parent == root.index]
    folds = calls.get("encoder.fold_atoms", 0)
    return {
        "model.restrict_s": net.get("checker.restrict", 0.0),
        "model.restrict_calls": calls.get("checker.restrict", 0),
        "formulas.regions_s": (net.get("encoder.build_regions", 0.0)
                               + net.get("checker.build_regions", 0.0)),
        "formulas.regions": (counts.get("encoder.build_regions/regions", 0)
                             + counts.get("checker.build_regions/regions", 0)),
        "encoder.encode_s": net.get("app.encode", 0.0),
        "encoder.guard_nodes": counts.get("app.encode/nodes", 0),
        "encoder.expand_s": net.get("app.expand_guards", 0.0),
        "encoder.expanded_nodes": counts.get("app.expand_guards/nodes", 0),
        "encoder.ground_s": net.get("app.ground_forall", 0.0),
        "encoder.fold_calls": folds,
        "encoder.grounded_nodes": counts.get("app.ground_forall/nodes", 0),
        "encoder.ground_kept_ratio": (counts.get("encoder.fold_atoms/kept", 0) / folds
                                      if folds else 0.0),
        "encoder.solve_s": net.get("app.sat_solve", 0.0),
        "encoder.dpll_s": net.get("encoder._dpll", 0.0),
        "encoder.cnf_vars": counts.get("encoder._dpll/vars", 0),
        "encoder.cnf_clauses": counts.get("encoder._dpll/clauses", 0),
        "templates.build_s": net.get("app.dnf_template", 0.0),
        "templates.control_bits": bits,
        "templates.attempts": calls.get("app.dnf_template", 0),
        "classic.complete_s": net.get("app.complete_template", 0.0),
        "classic.cap_exceeded": raised,
        "checker.holds_s": net.get("app.holds", 0.0),
        "checker.label_s": net.get("checker.label_structure", 0.0),
        "checker.representatives": counts.get("app.holds/representatives", 0),
        "app.self_s": root.net - sum(s.net for s in children),
    }
