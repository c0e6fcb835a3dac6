"""Exact rotation-quandle colorings of torus-knot diagrams.

Modules by role:

- exactnum: cyclotomic field arithmetic, rational turns, unit scans, the
  session level cap
- geom: points, exact signed areas, rigid rotations, polygon builders
- quandle: the rotation quandle, the area two-cocycle
- diagram: torus-knot diagram combinatorics, colorings, weights, the
  turn and reduced types of a coloring family, and the breadth-first
  search under shift and switch
- trochoid: trochoid data, deformation moves, equivalence classifier
- render: SVG drawings of trochoid diagrams
- verify: the `verify` suites, dihedral quandles, finite coloring search
  and orbits; loaded only by `verify` and the tests
- cli: command-line entry points
- value: the immutable base of the value classes
"""

from __future__ import annotations

__version__ = "0.1.0"
