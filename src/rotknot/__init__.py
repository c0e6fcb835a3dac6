"""Exact rotation-quandle colorings of torus-knot diagrams.

Modules by role:

- exactnum: cyclotomic field arithmetic, rational turns, the session
  level cap and the library's level ceiling
- units: the scan of a field's unit-modulus integers, loaded on first use
- geom: points, rigid rotations, polygon builders
- quandle: the rotation quandle
- cocycle: exact signed areas, the area two-cocycle and the weights of
  colorings; loaded only by `enumerate` and the `verify cocycle` and
  `weights` suites
- diagram: torus-knot diagram combinatorics, colorings, the turn and
  reduced types of a coloring family, and the breadth-first search under
  shift and switch
- trochoid: trochoid data, deformation moves, equivalence classifier,
  and a spec's JSON form and flag readers
- render: SVG drawings of trochoid diagrams
- verify: the `verify` suites, dihedral quandles, finite coloring search
  and orbits; loaded only by `verify` and the tests
- cli: command-line entry points and the flag table
- writer: the streamed JSON writer; loaded only by `enumerate` and
  `classify`
- families: the `enumerate` table and its CSV text; loaded only by
  `enumerate`
- value: the immutable base of the value classes
"""

from __future__ import annotations

__version__ = "0.1.0"
