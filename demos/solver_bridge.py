"""
Handing the constraint to an outside solver
===========================================

"""

# The built-in solver translates the constraint to clauses and searches
# them with conflict learning; it handles the bundled models
# comfortably. The same constraint can also be shipped out as SMT-LIB
# text and solved by whatever is installed.

import shutil

from gatesynth import data
from gatesynth.model import load_model
from gatesynth.rules import parse_requirements
from gatesynth.encoder import (cand, encode, expand_guards, ground_forall,
                               emit_smtlib)
from gatesynth.templates import dnf_template
from gatesynth.app import synth

office = load_model(data.path(data.OFFICE_MODEL))
with open(data.path(data.OFFICE_REQUIREMENTS)) as fh:
    reqs = parse_requirements(fh.read(), office.sig)

# Build the formula synth works from: encode every requirement over
# the template's control variables, then fold the request quantifier
# into a finite conjunction over request classes. This is the full
# grounding; synth itself grounds only the requests where its current
# model fails, and ends at the same least model.
template = dnf_template(office, reqs, k=1)
body = cand([encode(office, r) for r in reqs])
expanded = expand_guards(body, template)
grounded = ground_forall(expanded, office.sig)

# Two renderings. The grounded script is pure Boolean structure over
# integer-coded selectors; the quantified one keeps the request
# symbolic, one Int per attribute: a finite attribute's value is its
# index in the domain, unset first, and a number is itself, or -1 when
# unset.
flat = emit_smtlib(grounded, template.control_vars())
pretty = emit_smtlib(expanded, template.control_vars(), sig=office.sig)
print("grounded script: %d lines" % len(flat.splitlines()))
print("quantified script: %d lines" % len(pretty.splitlines()))
print("\n".join(pretty.splitlines()[:12]))
print("...")

# With a solver on PATH the whole pipeline runs end to end; without
# one, this block just explains itself.
z3 = shutil.which("z3")
if z3:
    result = synth(office, reqs, solver="external", solver_cmd="z3")
    print("external outcome:", result.outcome)
else:
    print("no z3 on PATH; synth(..., solver='external', "
          "solver_cmd='z3') would do the same")
