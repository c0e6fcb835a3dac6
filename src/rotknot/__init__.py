"""Exact rotation-quandle colorings of torus-knot diagrams.

Modules by role:

- exactnum: cyclotomic field arithmetic, rational turns, unit scans
- geom: points, exact signed areas, rigid rotations, polygon builders
- quandle: dihedral and rotation quandles, the area two-cocycle
- diagram: torus-knot diagram combinatorics, colorings, weights, and the
  breadth-first search under shift and switch
- trochoid: trochoid data, deformation moves, equivalence classifier
- render: SVG drawings of trochoid diagrams
- cli: command-line entry points
- value: the immutable base of the value classes
"""

from __future__ import annotations

__version__ = "0.1.0"
