"""Registry of demonstration mechanisms with distinguished configurations.

Each entry builds a (linkage document, configuration document) pair in the
JSON schema given in ``linkctl.cli``.  A demo is its placed points and its
edges: ``_docs`` derives every length from the points' distances, so the
documents satisfy their constraints to machine precision and round-trip
deterministically.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .errors import InvalidSpec

__all__ = ["DEMO_NAMES", "build_demo"]


def _circle_intersection(c1, r1, c2, r2, sign=1.0):
    """One of the two intersection points of two circles."""
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    d = float(np.linalg.norm(c2 - c1))
    a = (r1**2 - r2**2 + d**2) / (2.0 * d)
    h = math.sqrt(max(r1**2 - a**2, 0.0))
    axis = (c2 - c1) / d
    perp = np.array([-axis[1], axis[0]])
    return c1 + a * axis + sign * h * perp


def _docs(points, edges, base_link, effector, platform=None):
    """The documents of a planar demo with base vertex 0, each edge as long
    as its points lie apart."""
    linkage = {
        "dim": 2,
        "vertices": len(points),
        "edges": [
            {"u": u, "v": v, "length": float(np.linalg.norm(points[u] - points[v]))} for u, v in edges
        ],
        "base": 0,
        "base_link": base_link,
        "effector": effector,
    }
    if platform is not None:
        linkage["platform"] = copy.deepcopy(platform)
    config = {"points": [[float(x) for x in p] for p in points]}
    return linkage, config


def _four_bar(points):
    return _docs(points, [(0, 1), (1, 2), (2, 3), (3, 0)], base_link=0, effector=2)


def _demo_four_bar_singular():
    # node of the four-bar with lengths (3, 2.5, 1.5, 2), l1 + l3 = l2 + l4:
    # fully aligned (+,-,+,-)
    return _four_bar(np.array([[0.0, 0.0], [3.0, 0.0], [0.5, 0.0], [2.0, 0.0]]))


def _demo_four_bar_regular():
    x0 = np.array([0.0, 0.0])
    x1 = np.array([2.0, 0.0])
    x3 = 0.9 * np.array([math.cos(1.9), math.sin(1.9)])
    x2 = _circle_intersection(x1, 1.2, x3, 1.7, sign=1.0)
    return _four_bar(np.array([x0, x1, x2, x3]))


def _demo_five_bar():
    # closed 5-chain; work space of the effector is the lens cut out by the
    # two anchor annuli
    x0 = np.array([0.0, 0.0])
    x4 = np.array([3.0, 0.0])
    x2 = np.array([2.0, 1.8])
    x1 = _circle_intersection(x0, 2.5, x2, 1.5, sign=1.0)
    x3 = _circle_intersection(x4, 2.0, x2, 1.2, sign=1.0)
    points = np.array([x0, x1, x2, x3, x4])
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    return _docs(points, edges, base_link=4, effector=2)


def _demo_egsing():
    # six-vertex mechanism whose four-bar core sits at its node while the
    # added two-chain x4-x5-x1 is stretched straight.  The stretched chain
    # does not remove the node: it allows only theta <= 0 (theta the angle
    # of link x0-x3) and both four-bar branches survive, with x5 leaving to
    # either side.  That gives four half-branches, pairwise tangent: a
    # tacnode, singular but not a generic crossing
    pts = np.array(
        [
            [0.0, 0.0],
            [3.0, 0.0],
            [0.5, 0.0],
            [2.0, 0.0],
            [1.0, 1.5],
            [1.8, 0.9],
        ]
    )
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (3, 4), (4, 5), (5, 1)]
    return _docs(pts, edges, base_link=0, effector=2)


_PLATFORM_EDGES = [
    (0, 1), (1, 2), (2, 0),      # fixed triangle A1 A2 A3
    (3, 4), (4, 5), (5, 3),      # moving triangle B1 B2 B3
    (0, 6), (6, 3),              # branch 1: A1 - P1 - B1
    (1, 7), (7, 4),              # branch 2: A2 - P2 - B2
    (2, 8), (8, 5),              # branch 3: A3 - P3 - B3
]
_PLATFORM_SPEC = {"branches": [[6, 7], [8, 9], [10, 11]], "fixed": [0, 1, 2], "moving": [3, 4, 5]}


def _demo_tri_platform_a():
    # branches 1 and 2 aligned along the same line (the x-axis); branch 3 folded
    a1 = np.array([0.0, 0.0])
    a2 = np.array([4.0, 0.0])
    a3 = np.array([1.7, -2.6])
    p1 = np.array([1.2, 0.0])
    b1 = np.array([2.3, 0.0])
    p2 = np.array([3.3, 0.0])
    b2 = np.array([2.7, 0.0])
    m = np.array([2.1, -0.9])
    p3 = _circle_intersection(a3, 1.1, m, 0.9, sign=1.0)
    points = np.array([a1, a2, a3, b1, b2, m, p1, p2, p3])
    return _docs(points, _PLATFORM_EDGES, base_link=0, effector=5, platform=_PLATFORM_SPEC)


def _demo_tri_platform_b():
    # all three branches aligned, direction lines concurrent at the origin:
    # anchors sit on three rays through the meeting point and each branch is
    # stretched along its ray toward the moving attachment
    s = math.sqrt(0.5)
    a1 = np.array([0.0, -2.0])
    a2 = np.array([3.0, 0.0])
    a3 = np.array([-3.0 * s, 3.0 * s])
    b1 = np.array([0.0, 0.8])
    b2 = np.array([-1.1, 0.0])
    b3 = np.array([-0.9 * s, 0.9 * s])
    p1 = a1 + 1.5 * np.array([0.0, 1.0])
    p2 = a2 + 2.3 * np.array([-1.0, 0.0])
    p3 = a3 + 1.0 * np.array([s, -s])
    points = np.array([a1, a2, a3, b1, b2, b3, p1, p2, p3])
    return _docs(points, _PLATFORM_EDGES, base_link=0, effector=5, platform=_PLATFORM_SPEC)


_DEMOS = {
    "four-bar-singular": _demo_four_bar_singular,
    "four-bar-regular": _demo_four_bar_regular,
    "five-bar": _demo_five_bar,
    "egsing": _demo_egsing,
    "tri-platform-a": _demo_tri_platform_a,
    "tri-platform-b": _demo_tri_platform_b,
}

DEMO_NAMES = tuple(sorted(_DEMOS))


def build_demo(name: str) -> tuple[dict, dict]:
    """Return (linkage document, configuration document) for a demo name."""
    try:
        builder = _DEMOS[name]
    except KeyError:
        raise InvalidSpec(f"unknown demo {name!r}; choose from {', '.join(DEMO_NAMES)}") from None
    return builder()
