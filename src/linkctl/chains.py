"""Open chains: reachable-distance intervals, alignment detection and the
chord signature of an aligned chain.

A chain here is a point sequence, link i running from point i to point
i + 1; a closed chain passes its first point again at the end.  ``decomp``
cuts every chain out of a mechanism as a ``Linkage`` and asks this module
whether it is aligned and for its signature, ``classify`` runs the
alignment kernel on a platform's three branches at once, and the CLI's
``workspace`` command reads the reachable interval.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateDirection, InvalidSpec
from .model import Configuration, _ChainLinks, check_array, check_real

__all__ = ["workspace_interval", "is_aligned", "chord_signature"]


def workspace_interval(lengths: Sequence[float]) -> tuple[float, float]:
    """Reachable interval [m, M] of the endpoint distance of an open chain.

    M is the total length; m is 2*max(l) - M clamped at zero (the longest
    link against everything else folded back).  Raises InvalidSpec unless
    lengths is a list of numbers, there is one and every one is positive and
    finite, and their sum is finite.
    """
    rule = "link lengths must be positive and finite"
    ls = check_array(lengths, 1, "link lengths must be a list of numbers", rule).tolist()
    if not ls:
        raise InvalidSpec("workspace_interval needs at least one link")
    if not all(x > 0 for x in ls):
        raise InvalidSpec(rule)
    total = sum(ls)
    if not math.isfinite(total):
        raise InvalidSpec(f"link lengths must have a finite sum, got {ls!r}")
    m = max(0.0, 2.0 * max(ls) - total)
    return (m, total)


def _chain_points(config: Configuration | np.ndarray, caller: str) -> np.ndarray:
    """The chain's points; InvalidSpec naming the caller unless there are at
    least two, so that the chain has a link."""
    if isinstance(config, Configuration):
        points = config.points
    else:
        points = check_array(config, 2, "chain points must be an (n, d) array", "chain points must be finite")
    if len(points) < 2:
        raise InvalidSpec(f"{caller} needs at least one link")
    return points


def _check_angle(tol, name: str) -> float:
    """tol as a float; InvalidSpec unless the angular tolerance is finite, >= 0
    and below pi/2, where every pair of directions would count as collinear."""
    tol = check_real(tol, name)
    if not tol < math.pi / 2:
        raise InvalidSpec(f"{name} must be below pi/2, got {tol}")
    return tol


_TINY = np.finfo(float).tiny


def _aligned_chains(
    points: np.ndarray, links: _ChainLinks, cos_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The alignment test of every chain in ``links`` at once: each chain's
    first-link unit direction, (m, d), whether the chain is aligned and
    whether it has a zero-length link, both (m,).

    A link is zero-length when shorter than 1e-12 * (1 + its chain's summed
    link lengths).  A chain is aligned when it has no such link and every
    link's |cos| with its first link is at least ``cos_tol``.
    """
    vecs = points[links.head] - points[links.tail]
    norms = np.sqrt(np.add.reduce(vecs * vecs, axis=1))  # np.linalg.norm of each link
    degenerate = np.minimum.reduceat(norms, links.first) < 1e-12 * (
        1.0 + np.add.reduceat(norms, links.first)
    )
    # a link of length 0 is divided by the least normal float, never by 0
    dirs = vecs / np.maximum(norms, _TINY)[:, None]
    w = dirs[links.first]
    # every link against every chain's first link; each chain keeps its own column
    cos = np.minimum.reduceat(np.abs(dirs @ w.T), links.first).diagonal()
    return w, (cos >= cos_tol) & ~degenerate, degenerate


# a point sequence as one chain: link i runs from point i to point i + 1
_ONE_CHAIN = _ChainLinks(tail=slice(None, -1), head=slice(1, None), first=np.zeros(1, dtype=np.intp))


def is_aligned(config: Configuration | np.ndarray, tol: float = 1e-6) -> Optional[np.ndarray]:
    """Common unit direction of link 1 if all links are collinear with it, else None.

    Links may point forward (+w) or backward (-w); "aligned" means collinear
    within angular tolerance ``tol``.  For a closed chain, pass its points
    with the first repeated at the end.  Raises DegenerateDirection on a link
    shorter than 1e-12 * (1 + the summed link lengths), and InvalidSpec on
    points that are not an (n, d) array of finite numbers, fewer than two
    points or unless tol is finite, >= 0 and below pi/2.
    One kernel decides alignment for one chain or for a stack of chains:
    this is its one-chain case, and ``classify.platform_conditions`` runs it
    on a platform's three branches at once.
    """
    cos_tol = math.cos(_check_angle(tol, "tol"))
    points = _chain_points(config, "is_aligned")
    w, aligned, degenerate = _aligned_chains(points, _ONE_CHAIN, cos_tol)
    if degenerate[0]:
        raise DegenerateDirection("chain has a zero-length link")
    return w[0] if aligned[0] else None


def chord_signature(config: Configuration | np.ndarray, tol: float = 1e-6) -> tuple[int, int]:
    """(positive, negative) inertia of the chord-length Hessian of an aligned
    open chain on its reduced frame: with f of its k links pointing along the
    chord from the first vertex to the last, ((d-1)*(k-f), (d-1)*(f-1)).

    The negative part is the Morse index of the reduced endpoint-distance
    function: for a closed chain, pass the points of its fixed links, the
    variable link being the one that closes the loop.  Raises
    DegenerateDirection when the chord is shorter than 1e-12 * (1 + the
    summed link lengths) or, from ``is_aligned``, on a zero-length link, and
    InvalidSpec unless the points are an (n, d) array of at least two finite
    points and the chain is aligned within ``tol``.
    """
    points = _chain_points(config, "chord_signature")
    chord = points[-1] - points[0]
    rho = float(np.linalg.norm(chord))
    if rho < 1e-12 * (1.0 + np.linalg.norm(np.diff(points, axis=0), axis=1).sum()):
        raise DegenerateDirection("aligned chain chord vanishes")
    if is_aligned(config, tol=tol) is None:
        raise InvalidSpec("chord_signature requires an aligned chain")
    f = int(np.sum(np.diff(points, axis=0) @ (chord / rho) > 0.0))
    d = points.shape[1]
    return ((d - 1) * (len(points) - 1 - f), (d - 1) * (f - 1))
