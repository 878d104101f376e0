"""Minimal deterministic SVG 1.1 rendering of planar linkages and curves.

All coordinates are emitted with fixed six-decimal formatting so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import InvalidSpec
from .model import Configuration, Linkage

__all__ = ["render_linkage", "render_curve", "render_workspace"]

_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n'


def _fmt(x: float) -> str:
    v = float(x)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return f"{v:.6f}"


def _open_svg(xs: np.ndarray, ys: np.ndarray, margin: float = 0.5) -> tuple[list[str], float]:
    x0, x1 = float(np.min(xs)) - margin, float(np.max(xs)) + margin
    y0, y1 = float(np.min(ys)) - margin, float(np.max(ys)) + margin
    w, h = x1 - x0, y1 - y0
    stroke = max(w, h) / 300.0
    lines = [
        _HEADER,
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(x0)} {_fmt(-y1)} {_fmt(w)} {_fmt(h)}" width="640" height="640">\n',
        # y axis flipped so the drawing is in the usual orientation
    ]
    return lines, stroke


def _line(p: np.ndarray, q: np.ndarray, stroke: float, color: str) -> str:
    return (
        f'<line x1="{_fmt(p[0])}" y1="{_fmt(-p[1])}" x2="{_fmt(q[0])}" y2="{_fmt(-q[1])}" '
        f'stroke="{color}" stroke-width="{_fmt(stroke)}"/>\n'
    )


def _circle(c: np.ndarray, r: float, stroke: float, color: str, fill: str = "none") -> str:
    return (
        f'<circle cx="{_fmt(c[0])}" cy="{_fmt(-c[1])}" r="{_fmt(r)}" '
        f'stroke="{color}" stroke-width="{_fmt(stroke)}" fill="{fill}"/>\n'
    )


def _text(p: np.ndarray, size: float, content: str) -> str:
    return (
        f'<text x="{_fmt(p[0])}" y="{_fmt(-p[1])}" font-size="{_fmt(size)}" '
        f'fill="#333333">{content}</text>\n'
    )


def render_linkage(
    linkage: Linkage,
    configs: Sequence[Configuration],
    path: str,
) -> None:
    """Draw one or more configurations of a planar linkage as edge polylines.

    The first configuration is drawn solid; any further ones are faint
    overlays.
    """
    if linkage.ambient_dim != 2:
        raise InvalidSpec("SVG rendering is implemented for planar linkages")
    allpts = np.vstack([c.points for c in configs])
    lines, stroke = _open_svg(allpts[:, 0], allpts[:, 1])
    for idx in range(len(configs) - 1, -1, -1):
        p = configs[idx].points
        color = "#1f6fb2" if idx == 0 else "#b8cfe0"
        for u, v in linkage.graph.edges:
            lines.append(_line(p[u], p[v], stroke, color))
        for j in range(p.shape[0]):
            lines.append(_circle(p[j], 2.0 * stroke, stroke, "#222222", fill="#ffffff"))
        if idx == 0:
            for j in range(p.shape[0]):
                lines.append(_text(p[j] + 3.0 * stroke, 8.0 * stroke, str(j)))
    lines.append("</svg>\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def render_curve(points: np.ndarray, path: str, closed: bool = False) -> None:
    """Draw a planar polyline (a traced curve projection)."""
    pts = np.asarray(points, dtype=float)
    lines, stroke = _open_svg(pts[:, 0], pts[:, 1], margin=0.2)
    coords = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in pts)
    tag = "polygon" if closed else "polyline"
    lines.append(
        f'<{tag} points="{coords}" fill="none" stroke="#1f6fb2" stroke-width="{_fmt(stroke)}"/>\n'
    )
    lines.append(_circle(pts[0], 2.5 * stroke, stroke, "#b22222", fill="#b22222"))
    lines.append("</svg>\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def render_workspace(
    annuli: Sequence[tuple[np.ndarray, float, float]],
    boundary: Optional[np.ndarray],
    path: str,
) -> None:
    """Draw annulus boundaries plus sampled points of their intersection."""
    xs, ys = [], []
    for c, _, big in annuli:
        xs += [c[0] - big, c[0] + big]
        ys += [c[1] - big, c[1] + big]
    lines, stroke = _open_svg(np.array(xs), np.array(ys), margin=0.3)
    for c, small, big in annuli:
        lines.append(_circle(np.asarray(c), big, stroke, "#888888"))
        if small > 0:
            lines.append(_circle(np.asarray(c), small, stroke, "#888888"))
    if boundary is not None and len(boundary):
        for q in np.asarray(boundary, dtype=float):
            lines.append(_circle(q, 0.8 * stroke, 0.4 * stroke, "#1f6fb2", fill="#1f6fb2"))
    lines.append("</svg>\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))
