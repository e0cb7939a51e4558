"""Command-line front end.

Exit codes: 0 when synthesis finds a configuration or verification
passes, 1 when the answer is a definite no (unsatisfiable, requirement
violated, formula false) or a search cut off by the cap (printed as
cap-exceeded), 2 for usage or input errors, 3 when an internal
soundness check fails (SynthesisError: for instance the
independent checker rejected a synthesized configuration), and 4 when
anything else goes wrong: a crash prints one line, "internal error:"
with the exception's type and message, and no traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import __version__
from .app import minimal_conflict, simulate, synth, verify
from .encoder import SolverError
from .formulas import Requirement
from .model import (
    ModelError, SynthesisError, _expect, _parse_edge_key, load_config,
    load_model, save_config, save_model, scale_replicate,
)
from .rules import (
    ParseError, format_request, format_requirement, format_target,
    parse_constraint, parse_request, parse_requirements, parse_target,
)
from .templates import MenuTemplate, SingletonTemplate


def _load_requirements(path: str, sig) -> List[Requirement]:
    with open(path) as fh:
        return parse_requirements(fh.read(), sig)


def _make_template(spec: str, S):
    if spec in ("dnf", "complete"):
        return spec
    if spec.startswith("menu:"):
        path = spec[5:]
        with open(path) as fh:
            doc = _expect(json.load(fh), dict, "a menu file")
        menus = {}
        for key, texts in doc.items():
            if "->" not in key:
                raise ModelError("menu file %s: keys look like \"from->to\", got %r"
                                 % (path, key))
            e = _parse_edge_key(key)
            if e not in S.edges or S.edges[e] is not None:
                raise ModelError("menu names %r, which is not a controlled edge" % key)
            if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
                raise ModelError("the menu of %r must be a list of policy strings, got %r"
                                 % (key, texts))
            menus[e] = [parse_target(t, S.sig) for t in texts]
        return MenuTemplate(S, menus)
    if spec.startswith("config:"):
        config = load_config(spec[7:], S)
        return SingletonTemplate(S, config)
    raise ValueError("unknown template %r (use dnf, complete, menu:FILE or config:FILE)"
                     % spec)


def _print_config(S, config) -> None:
    for e in S.controlled_edges():
        print("%s -> %s := %s" % (e[0], e[1], format_target(config[e], S.sig)))


def _print_report(S, report) -> None:
    for v in report.verdicts:
        name = v.requirement.source or ("requirement %d" % (v.index + 1))
        if v.ok:
            print("PASS  %s" % name)
        else:
            print("FAIL  %s  [witness request: %s]"
                  % (name, format_request(v.witness, S.sig)))


def _cmd_synth(args) -> int:
    S = load_model(args.model)
    reqs = _load_requirements(args.requirements, S.sig)
    options = dict(template=_make_template(args.template, S),
                   max_k=args.max_k,
                   solver=args.solver,
                   solver_cmd=args.solver_cmd,
                   timeout=args.timeout,
                   deadlock_free=args.deadlock_free,
                   deny_by_default=args.deny_by_default,
                   complete_cap=args.cap)
    result = synth(S, reqs, emit_smt=args.emit_smt, **options)
    if args.stats == "json":
        print(json.dumps(result.stats, sort_keys=True), file=sys.stderr)
    elif args.stats:
        for key in sorted(result.stats):
            print("# %s = %s" % (key, result.stats[key]), file=sys.stderr)
    if result.outcome == "configuration":
        _print_config(S, result.configuration)
        if args.output:
            save_config(S, result.configuration, args.output)
            print("written to %s" % args.output, file=sys.stderr)
        return 0
    print("%s: %s" % (result.outcome, result.message), file=sys.stderr)
    if result.outcome == "unsat" and not args.no_explain and len(reqs) > 1:
        found = minimal_conflict(S, reqs, **options)
        if found is not None:
            index, _ = found
            src = reqs[index].source or format_requirement(reqs[index], S.sig)
            print("first requirement that cannot be added: #%d: %s"
                  % (index + 1, src), file=sys.stderr)
    return 1


def _cmd_verify(args) -> int:
    S = load_model(args.model)
    reqs = _load_requirements(args.requirements, S.sig)
    config = load_config(args.config, S)
    report = verify(S, reqs, config, deadlock_free=args.deadlock_free)
    _print_report(S, report)
    print("checked %d request classes on %d restricted structures"
          % (report.representatives, report.structures), file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_check(args) -> int:
    from .checker import model_check
    from .model import restrict
    S = load_model(args.model)
    phi = parse_constraint(args.formula, S.sig)
    if args.config or args.request:
        if not (args.config and args.request):
            raise ValueError("checking a restriction needs both --config and --request")
        config = load_config(args.config, S)
        q = parse_request(args.request, S.sig)
        S = restrict(S, config, q)
    ok = model_check(S, phi)
    print("holds" if ok else "violated")
    return 0 if ok else 1


def _cmd_simulate(args) -> int:
    S = load_model(args.model)
    config = load_config(args.config, S)
    q = parse_request(args.request, S.sig)
    report = simulate(S, config, q)
    for e in sorted(S.edges):
        verdict = "granted" if e in report.granted else "denied "
        print("%s  %s -> %s" % (verdict, e[0], e[1]))
    print("reachable: %s" % ", ".join(report.reachable))
    if report.stranded:
        print("cut off:   %s" % ", ".join(report.stranded))
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(report.dot)
        print("graph written to %s" % args.dot, file=sys.stderr)
    return 0


def _cmd_scale(args) -> int:
    S = load_model(args.model)
    big = scale_replicate(S, args.copies)
    save_model(big, args.output)
    print("%d spaces, %d edges (%d controlled) written to %s"
          % (len(big.nodes), len(big.edges), len(big.controlled_edges()),
             args.output), file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gatesynth",
        description="Compile global access requirements into per-edge policies.")
    p.add_argument("--version", action="version", version="gatesynth " + __version__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="synthesize a configuration")
    ps.add_argument("model")
    ps.add_argument("requirements")
    ps.add_argument("--template", default="dnf",
                    help="dnf, complete, menu:FILE, or config:FILE (default dnf)")
    ps.add_argument("--max-k", type=int, default=3,
                    help="largest clause count to try; the complete class template "
                         "runs after the one-clause attempt, or alone with 0 "
                         "(default 3)")
    ps.add_argument("--solver", choices=["builtin", "external"], default="builtin")
    ps.add_argument("--solver-cmd",
                    help="external solver command line (with --solver external)")
    ps.add_argument("--timeout", type=float,
                    help="solver deadline per template attempt, seconds")
    ps.add_argument("--deadlock-free", choices=["auto", "on", "off"], default="auto",
                    help="add the everyone-keeps-moving requirement (default auto)")
    ps.add_argument("--deny-by-default", action="store_true",
                    help="requests no granting requirement matches stay at the entry")
    ps.add_argument("--cap", type=int, default=4096,
                    help="request-class cap for the complete template (default 4096)")
    ps.add_argument("-o", "--output", help="write the configuration as JSON")
    ps.add_argument("--emit-smt", metavar="FILE",
                    help="also write the constraint as an SMT-LIB script")
    ps.add_argument("--stats", action="store_const", const="text",
                    help="print each template attempt's stage seconds, formula and "
                         "CNF sizes, grounding iterations and solver counters to "
                         "stderr as '# key = value' lines")
    ps.add_argument("--stats=json", dest="stats", action="store_const", const="json",
                    help="print the same as one JSON document")
    ps.add_argument("--no-explain", action="store_true",
                    help="on unsat, skip the minimal-conflict search")
    ps.set_defaults(func=_cmd_synth)

    pv = sub.add_parser("verify", help="check a configuration against requirements")
    pv.add_argument("model")
    pv.add_argument("requirements")
    pv.add_argument("config")
    pv.add_argument("--deadlock-free", choices=["auto", "on", "off"], default="off",
                    help="also check the everyone-keeps-moving requirement")
    pv.set_defaults(func=_cmd_verify)

    pc = sub.add_parser("check", help="evaluate one formula on the space graph")
    pc.add_argument("model")
    pc.add_argument("--formula", required=True)
    pc.add_argument("--config", help="restrict by this configuration first")
    pc.add_argument("--request", help="the request for the restriction, k=v,...")
    pc.set_defaults(func=_cmd_check)

    pm = sub.add_parser("simulate", help="show where one request can go")
    pm.add_argument("model")
    pm.add_argument("config")
    pm.add_argument("--request", required=True, help="k=v,... (unset attrs stay unset)")
    pm.add_argument("--dot", help="write a Graphviz rendering here")
    pm.set_defaults(func=_cmd_simulate)

    pg = sub.add_parser("scale", help="replicate a model around its entry")
    pg.add_argument("model")
    pg.add_argument("--copies", type=int, required=True)
    pg.add_argument("-o", "--output", required=True)
    pg.set_defaults(func=_cmd_scale)

    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SynthesisError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3
    except (ModelError, ParseError, SolverError, ValueError,
            OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
