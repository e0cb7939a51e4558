"""Make `import gatesynth` load the package of the checkout this
benchmark sits in, and nothing else."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def use_checkout_source() -> None:
    """Put the checkout's `src` first on the import path; exit with an
    error when the checkout has no gatesynth source."""
    if not os.path.isfile(os.path.join(SRC, "gatesynth", "__init__.py")):
        sys.exit("bench: no gatesynth package under %s" % SRC)
    sys.path.insert(0, SRC)
    import gatesynth
    if not os.path.abspath(gatesynth.__file__).startswith(SRC + os.sep):
        sys.exit("bench: gatesynth was imported from %s, not from %s"
                 % (gatesynth.__file__, SRC))
