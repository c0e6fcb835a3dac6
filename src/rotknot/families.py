"""The `enumerate` command: one table row per coloring family (k, l) of a
torus-knot diagram D(p, q), written as JSON by `writer` or as CSV here.

Only `enumerate` loads this module, so the other commands compile none
of it, and its CSV text is made without the `csv` and `json` packages.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm

from .cocycle import area_approx, closed_form_weight
from .diagram import check_torus_type, lattice_alpha, reduced_types, theta
from .exactnum import Cyc, check_level_cap
from .geom import fmt12
from .writer import CSV_BATCH, _batches


def cmd_enumerate(p: int, q: int) -> dict:
    """One row per (k, l): turn, reduced types, parity, and both weights,
    the exact one as the `Cyc` itself (`writer._encode` writes its
    `cyc_to_json` text)."""
    check_torus_type(p, q)
    check_level_cap(lcm(abs(p), abs(q)))
    rows = []
    for k in range(1, abs(p)):
        for l in range(1, abs(q)):
            p_prime, q_prime = reduced_types(p, q, k, l)
            w = closed_form_weight(p, q, k, l)
            rows.append(
                {
                    "k": k,
                    "l": l,
                    "theta": str(theta(abs(p), k, abs(q), l)),
                    "p_prime": p_prime,
                    "q_prime": q_prime,
                    "alpha": lattice_alpha(p, q, k, l),
                    "parity": "even" if p_prime * q_prime % 2 == 0 else "odd",
                    "weight_float": fmt12(area_approx(w)),
                    "weight_scaled_4i": w,
                }
            )
    return {"p": p, "q": q, "rows": rows}


def _compact_cyc(a: Cyc) -> str:
    """The text of `json.dumps(cyc_to_json(a), sort_keys=True,
    separators=(",", ":"))`, made from a's integers as `writer._encode_cyc`
    makes the indented one."""
    den = a.den
    if den == 1:
        texts = [f'"{c}","1"' for c in a.num]
    else:
        texts = [f'"{c // (g := gcd(c, den))}","{den // g}"' for c in a.num]
    return '{"coeffs":[[' + "],[".join(texts) + ']],"level":' + str(a.level) + "}"


def _enumerate_csv(table: dict):
    """The CSV text of an `enumerate` table, in batches of CSV_BATCH rows,
    as `csv.writer(lineterminator="\\n")` writes it.  Only the exact
    weight holds `,` or `"`, so it alone is quoted, with its quotes
    doubled, as `csv.QUOTE_MINIMAL` does."""
    p, q = table["p"], table["q"]
    header = "p,q,k,l,theta,p_prime,q_prime,alpha,parity,weight_float,weight_exact\n"
    lines = (
        ",".join(map(str, (
            p, q, row["k"], row["l"], row["theta"], row["p_prime"],
            row["q_prime"], row["alpha"], row["parity"], row["weight_float"],
        )))
        + ',"' + _compact_cyc(row["weight_scaled_4i"]).replace('"', '""') + '"\n'
        for row in table["rows"]
    )
    for batch in _batches(chain((header,), lines), CSV_BATCH):
        yield "".join(batch)
