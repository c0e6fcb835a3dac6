"""Deterministic SVG renders of trochoid diagrams.

The base polygon and every rolled copy are drawn as closed polylines
from float embeddings of the exact vertices.  Identical inputs produce
byte-identical output: coordinates are formatted to 12 significant
digits and no randomness or system state enters the file.
"""

from __future__ import annotations

from .geom import fmt12
from .trochoid import TrochoidSpec, build_trochoid

PALETTE = (
    "#c0392b",
    "#2980b9",
    "#27ae60",
    "#8e44ad",
    "#d35400",
    "#16a085",
    "#7f8c8d",
    "#f39c12",
)
BASE_COLOR = "#111111"
# stroke widths and vertex radius, as fractions of the side length
STROKE_BASE = 0.035
STROKE_MOVING = 0.018
VERTEX_RADIUS = 0.045


def _corners(points: list[complex]) -> tuple[float, float, float, float]:
    xs = [z.real for z in points]
    ys = [z.imag for z in points]
    return min(xs), max(xs), min(ys), max(ys)


def _poly(points: list[complex], color: str, width: float) -> str:
    coords = " ".join(f"{fmt12(z.real)},{fmt12(z.imag)}" for z in points)
    return (
        f'<polygon points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="{fmt12(width)}" stroke-linejoin="round"/>'
    )


def render_trochoid_svg(spec: TrochoidSpec, size: int = 640) -> str:
    """The full trochoid diagram as a standalone SVG document string."""
    base, rows = build_trochoid(spec)

    # SVG y grows downward; flip the plane so the figure reads normally
    def flip(w):
        z = w.embed()
        return complex(z.real, -z.imag)

    base_pts = [flip(v) for v in base]
    row_pts = [[flip(w) for w in row] for row in rows]
    everything = base_pts + [z for row in row_pts for z in row]
    x0, x1, y0, y1 = _corners(everything)
    width, height = x1 - x0, y1 - y0
    if not (width > 0 and height > 0):
        raise ValueError("the figure collapses to a point or a line in floating point")
    pad_x, pad_y = 0.05 * width, 0.05 * height
    vb = (x0 - pad_x, y0 - pad_y, width + 2 * pad_x, height + 2 * pad_y)
    pixel_h = size * vb[3] / vb[2]
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{size}" height="{fmt12(pixel_h)}" '
        f'viewBox="{fmt12(vb[0])} {fmt12(vb[1])} {fmt12(vb[2])} {fmt12(vb[3])}">',
        f"<!-- trochoid p={spec.p} q={spec.q} k={spec.k} l={spec.l} "
        f"chirality={spec.chirality} -->",
    ]
    for i, row in enumerate(row_pts):
        color = PALETTE[i % len(PALETTE)]
        lines.append(_poly(row, color, STROKE_MOVING * float(spec.side)))
    lines.append(_poly(base_pts, BASE_COLOR, STROKE_BASE * float(spec.side)))
    r = fmt12(VERTEX_RADIUS * float(spec.side))
    for z in base_pts:
        lines.append(
            f'<circle cx="{fmt12(z.real)}" cy="{fmt12(z.imag)}" r="{r}" '
            f'fill="{BASE_COLOR}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
