"""Complete enumeration of the unit-modulus integers of a cyclotomic field.

The scan behind `exactnum.enumerate_unit_elements`, which loads this
module on its first call: only `verify appendix` and
`trochoid.unit_neighbors(verify=True)` run it, so no other command
compiles it.

Why the scan is complete at every level: the trace form
T(a) = Tr(a * conj(a)) = sum of |s(a)|^2 over the Galois embeddings s is
a positive-definite integral quadratic form on the canonical
coordinates.  For a nonzero integer a the product of the |s(a)|^2 is the
norm of a * conj(a), a positive integer, so by AM-GM T(a) >= phi(level),
with equality exactly when every |s(a)| is 1, that is when |a| = 1
(complex conjugation commutes with the Galois group).  So the ellipsoid
T <= phi(level) holds 0 and the unit-modulus integers and nothing else,
and enumerating it needs no box and no budget.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

from .exactnum import ContradictionError, Cyc, _phi, _power_table


def _fincke_pohst(level: int) -> list[Cyc]:
    """The sorted unit-modulus integers of Q(zeta_level), each checked to
    be a root of unity."""
    n = level
    d = _phi(n)
    table = _power_table(n)
    coprime = [j for j in range(1, n + 1) if gcd(j, n) == 1]
    # Tr(zeta^k) is rational, so it is coordinate 0 of the sum of conjugates
    trace = [sum(table[j * k % n][0] for j in coprime) for k in range(n)]
    # T(x) = sum_i q[i][i] * (x_i + sum_{j > i} q[i][j] x_j)^2 (Cohen 2.7.6)
    q = [[Fraction(trace[(i - j) % n]) for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            q[j][i] = q[i][j]
            q[i][j] /= q[i][i]
        for k in range(i + 1, d):
            for m in range(k, d):
                q[k][m] -= q[k][i] * q[i][m]
    x = [0] * d
    found: list[tuple[int, ...]] = []

    def descend(i: int, room: Fraction) -> None:
        # x_(i+1), ..., x_(d-1) are fixed and leave `room` of phi(level);
        # try x_i outwards from the centre until its term exceeds it
        centre = -sum(q[i][j] * x[j] for j in range(i + 1, d) if x[j])
        for v, step in ((math.floor(centre), -1), (math.floor(centre) + 1, 1)):
            while (used := q[i][i] * (v - centre) ** 2) <= room:
                x[i] = v
                if i:
                    descend(i - 1, room - used)
                elif any(x):
                    found.append(tuple(x))
                v += step
        x[i] = 0

    descend(d - 1, Fraction(d))
    out = []
    for tup in sorted(found):
        val = Cyc._raw(level, tup, 1)
        if val.is_root_of_unity() is None:  # pragma: no cover - impossible
            raise ContradictionError("unit element failed root-of-unity check")
        out.append(val)
    return out
