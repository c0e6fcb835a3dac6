"""What more than one test module shares: the one way a test starts a
fresh interpreter, the hypothesis profile, and a few builders of test
values.  Test modules import these from here, never from each other, so
each test file runs from any directory."""

import os
import random
import subprocess
from fractions import Fraction
from pathlib import Path

from hypothesis import settings

import rotknot
from rotknot.diagram import Coloring, build_diagram
from rotknot.exactnum import Cyc, Turn, cyc_root
from rotknot.geom import ORIGIN
from rotknot.quandle import ROT, RotElem

# Every property test draws the same examples on every run, and none has a
# deadline: the shared host's speed drifts, so a per-example time limit
# would fail on a slow minute rather than on slow code.  A test sets only
# its max_examples.
settings.register_profile("rotknot", derandomize=True, deadline=None)
settings.load_profile("rotknot")

PACKAGE_DIR = str(Path(rotknot.__file__).resolve().parents[1])


def run(argv, env=None, cwd=None, timeout=120) -> subprocess.CompletedProcess:
    """Run argv, a fresh interpreter or the `rotknot` script, and capture
    its output as bytes.  It reads stdin from /dev/null.  Its environment
    is this process's without QT_SESSION_LEVEL_CAP, with the directory of
    the `rotknot` package this process imported first on PYTHONPATH, and
    env on top.  So from the checkout with PYTHONPATH=src it runs the
    checkout, and from outside it with no PYTHONPATH the installed
    package."""
    environ = {k: v for k, v in os.environ.items() if k != "QT_SESSION_LEVEL_CAP"}
    environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_DIR, environ.get("PYTHONPATH")])
    )
    environ.update(env or {})
    return subprocess.run(
        argv,
        cwd=cwd,
        env=environ,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        timeout=timeout,
    )


# the torus types of the acceptance grid
GRID = [(2, 3), (3, 2), (2, 5), (5, 2), (3, 4), (4, 3), (3, 5), (4, 5)]


def grid_cells():
    for (p, q) in GRID:
        for k in range(1, abs(p)):
            for l in range(1, abs(q)):
                yield (p, q, k, l)


def from_terms(level: int, terms) -> Cyc:
    """sum(c * zeta_level^e) over a sparse {exponent: coefficient}
    mapping, built through the constructor's dense coefficient list."""
    coeffs = [Fraction(0)] * level
    for e, c in terms.items():
        coeffs[e % level] += Fraction(c)
    return Cyc(level, coeffs)


def rand_cyc(rng: random.Random, level: int, span: int = 6) -> Cyc:
    n_terms = rng.randrange(1, 5)
    terms = {}
    for _ in range(n_terms):
        e = rng.randrange(level)
        terms[e] = Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 4))
    return from_terms(level, terms)


def rand_rot(rng: random.Random, level: int = 12) -> RotElem:
    denom = rng.choice([2, 3, 4, 6, 12])
    return RotElem(rand_cyc(rng, level, span=3), Turn(rng.randrange(denom), denom))


def rot_coloring_3211() -> Coloring:
    """The coloring of D(3,2) produced by the unit trochoid with
    parameters (3,2,1,1) anchored at the origin; worked out by hand from
    the rotation steps and frozen here as an oracle independent of the
    trochoid builder."""
    z3 = cyc_root(3)
    theta = Turn(1, 6)
    colors = {
        (0, 0): RotElem(Cyc.one(), theta),
        (0, 1): RotElem(1 + z3, theta),
        (1, 0): RotElem(ORIGIN, theta),
        (1, 1): RotElem(-z3, theta),
    }
    return Coloring(build_diagram(3, 2), ROT, colors)
