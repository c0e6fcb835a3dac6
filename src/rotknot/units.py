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

The scan builds no `Fraction`: the LDL^T of the trace form is made of
reduced integer pairs and the descent compares integers only, so `verify
appendix` does not load `fractions`.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .exactnum import ContradictionError, Cyc, _phi, _power_table


def _ldl(gram: list[list[int]]) -> tuple[list, list[list]]:
    """The LDL^T of the positive-definite integer matrix gram as reduced
    (numerator, denominator) pairs: the pivots and, in row i, the
    multipliers of the columns j > i, so that x^T gram x = sum_i pivot_i
    * (x_i + sum_(j > i) mult_ij x_j)^2 (Cohen 2.7.6)."""
    d = len(gram)
    q = [[(c, 1) for c in row] for row in gram]
    # in place: row i becomes the pivot and its multipliers, and column i
    # below the pivot keeps row i's entries before the division
    for i in range(d):
        pn, pd = q[i][i]
        for j in range(i + 1, d):
            a, b = q[j][i] = q[i][j]
            q[i][j] = _reduced(a * pd, b * pn)
        for k in range(i + 1, d):
            a, b = q[k][i]
            for m in range(k, d):
                c, e = q[i][m]
                f, g = q[k][m]
                q[k][m] = _reduced(f * b * e - a * c * g, g * b * e)
    return [q[i][i] for i in range(d)], [q[i][i + 1:] for i in range(d)]


def _reduced(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms, for d > 0."""
    g = gcd(n, d)
    return n // g, d // g


def _fincke_pohst(level: int) -> list[Cyc]:
    """The sorted unit-modulus integers of Q(zeta_level), each checked to
    be a root of unity.

    The descent compares integers only.  The multipliers of row i are
    integers m_ij over the row's own denominator e_i, and the pivots
    integers over one common denominator D.  Every term and the room
    left are kept as integers over L = D * lcm(e)^2: with
    s = sum_(j > i) m_ij x_j the term of x_i is pivot_i * (x_i + s/e_i)^2,
    that is cost_i * (x_i e_i + s)^2 over L for cost_i = L * pivot_i /
    e_i^2.
    """
    n = level
    d = _phi(n)
    table = _power_table(n)
    coprime = [j for j in range(1, n + 1) if gcd(j, n) == 1]
    # Tr(zeta^k) is rational, so it is coordinate 0 of the sum of conjugates
    trace = [sum(table[j * k % n][0] for j in coprime) for k in range(n)]
    pivots, mults = _ldl([[trace[(i - j) % n] for j in range(d)] for i in range(d)])
    den = lcm(*(b for _, b in pivots))
    dens = [lcm(*(b for _, b in row)) for row in mults]
    scale = lcm(*dens)
    cost = [a * (den // b) * (scale // e) ** 2 for (a, b), e in zip(pivots, dens)]
    rows = [[a * (e // b) for a, b in row] for row, e in zip(mults, dens)]
    x = [0] * d
    found: list[tuple[int, ...]] = []

    def descend(i: int, room: int) -> None:
        # x_(i+1), ..., x_(d-1) are fixed and leave `room` (over L) of
        # phi(level); try x_i outwards from the centre -s/e until its term
        # exceeds it
        e, c = dens[i], cost[i]
        s = sum(map(mul, rows[i], x[i + 1:]))
        for v, step in ((-s // e, -1), (-s // e + 1, 1)):
            while (used := c * (v * e + s) ** 2) <= room:
                x[i] = v
                if i:
                    descend(i - 1, room - used)
                elif any(x):
                    found.append(tuple(x))
                v += step
        x[i] = 0

    descend(d - 1, d * den * scale * scale)
    out = []
    for tup in sorted(found):
        val = Cyc._raw(level, tup, 1)
        if val.is_root_of_unity() is None:  # pragma: no cover - impossible
            raise ContradictionError("unit element failed root-of-unity check")
        out.append(val)
    return out
