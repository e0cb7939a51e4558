"""gatesynth: compile global access-control requirements over a space
graph into local per-door policies, and verify the result.

The model is a directed graph of spaces whose edges are policy
enforcement points. Requirements pair an applicability condition on
request attributes with a branching-time constraint on where such
requests may move. Synthesis produces one attribute policy per
controlled edge so that every requirement holds for every request;
verification checks any given policy set independently.
"""

__version__ = "0.1.0"

from .formulas import (
    AU, AX, BOTTOM, EF, EU, EX, AG, NEGATIVE, POSITIVE, UNKNOWN,
    AccessRequest, And, Atom, AttributeDecl, AttributeSignature, Formula,
    Not, Requirement, Top, Value, blocking, build_regions, conj,
    deadlock_free_constraint, deny, disj, falsum, grant, implies, neg,
    release, strict_deadlock_free_constraint, target_equiv, target_sat,
    waypoint,
)
from .rules import (
    ParseError, format_constraint, format_request, format_requirement,
    format_target, parse_constraint, parse_request, parse_requirement,
    parse_requirements, parse_target,
)
from .model import (
    Configuration, Edge, ModelError, ResourceStructure, compare,
    config_from_json, config_to_json, granted_edges, load_config,
    load_model, model_from_json, model_to_json, restrict, save_config,
    save_model, scale_replicate, to_dot, validate_configuration,
)
from .checker import (
    HoldsReport, RequirementVerdict, check_at, holds, label_structure,
    model_check,
)
from .classic import ClassicOutcome, cs, s_cs, s_cs_detailed
from .templates import (
    CapExceeded, ClassTemplate, DnfTemplate, MenuTemplate, SingletonTemplate,
    Template, complete_template, dnf_template, interval_candidates,
    simplify_policy,
)
from .encoder import (
    CAnd, CAtom, CFalse, CGuard, CImplies, CNot, COr, CTrue, CVarEq,
    ControlAssignment, ControlFormula, ControlVar, SolverError, emit_smtlib,
    encode, eval_formula, expand_guards, formula_edges, formula_size,
    ground_forall, run_external, sat_solve,
)
from .app import (
    PolarityReport, SimulationReport, SynthesisError, SynthesisResult,
    classify, deny_by_default_requirement, effective_requirements,
    minimal_conflict, simulate, synth, verify,
)
