"""Open, closed, and prismatic closed chains.

Covers reachable-distance intervals, alignment detection, the chord
signature of an aligned open chain, the image of an open chain's work map,
and the Morse index of the reduced endpoint-distance function at aligned
configurations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateDirection, InvalidSpec
from .model import Configuration, Linkage, MechanismType, SubspaceBasis, _ChainLinks, check_real
from .numeric import work_image

__all__ = [
    "ChainKind",
    "ChainSpec",
    "workspace_interval",
    "is_aligned",
    "forward_count",
    "chord_signature",
    "aligned_morse_index",
    "chain_work_image",
    "prismatic_fiber",
]


class ChainKind(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"
    PRISMATIC_CLOSED = "prismatic_closed"


@dataclass(frozen=True)
class ChainSpec:
    """A chain linkage given by its ordered link lengths.

    Open: path on len(lengths)+1 vertices.  Closed: cycle, one vertex per
    length.  PrismaticClosed: cycle whose last link has variable length in
    ``prismatic_range`` (defaults to the reachable interval of the fixed
    links) instead of a fixed one; it has no Linkage of its own, and
    ``prismatic_fiber`` freezes that link into a closed chain.
    """

    kind: ChainKind
    lengths: tuple[float, ...]
    ambient_dim: int = 2
    prismatic_range: Optional[tuple[float, float]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "lengths", tuple(float(x) for x in self.lengths))
        if not self.lengths:
            raise InvalidSpec("chain needs at least one link")
        if not all(math.isfinite(x) and x > 0 for x in self.lengths):
            raise InvalidSpec("link lengths must be positive and finite")
        if self.ambient_dim not in (2, 3):
            raise InvalidSpec("ambient_dim must be 2 or 3")
        if self.kind is ChainKind.CLOSED:
            if 2.0 * max(self.lengths) > sum(self.lengths) + 1e-12:
                raise InvalidSpec("closed chain infeasible: 2*max(l) > sum(l)")
        if self.kind is ChainKind.PRISMATIC_CLOSED:
            lo, hi = (
                self.prismatic_range
                if self.prismatic_range is not None
                else workspace_interval(self.lengths)
            )
            if not (math.isfinite(hi) and 0.0 <= lo <= hi):
                raise InvalidSpec("prismatic range must be finite with 0 <= min <= max")
            object.__setattr__(self, "prismatic_range", (float(lo), float(hi)))
        elif self.prismatic_range is not None:
            raise InvalidSpec("prismatic_range only applies to prismatic closed chains")

    @property
    def n_vertices(self) -> int:
        return len(self.lengths) + (0 if self.kind is ChainKind.CLOSED else 1)

    def to_linkage(self) -> Linkage:
        """Realize an open or closed chain as a Linkage with base 0, base link 0,
        effector at the far end.  A prismatic closed chain raises InvalidSpec."""
        if self.kind is ChainKind.PRISMATIC_CLOSED:
            raise InvalidSpec(
                "a prismatic closed chain has no fixed lengths; realize a fiber "
                "with prismatic_fiber(chain, ell).to_linkage()"
            )
        n = self.n_vertices
        return Linkage(
            graph=MechanismType(n, tuple((i, (i + 1) % n) for i in range(len(self.lengths)))),
            lengths=self.lengths,
            ambient_dim=self.ambient_dim,
            base_vertex=0,
            base_link=0,
            end_effector=n - 1,
        )


def workspace_interval(lengths: Sequence[float]) -> tuple[float, float]:
    """Reachable interval [m, M] of the endpoint distance of an open chain.

    M is the total length; m is 2*max(l) - M clamped at zero (the longest
    link against everything else folded back).  Raises InvalidSpec unless
    there is a length and every length is positive and finite.
    """
    ls = [float(x) for x in lengths]
    if not ls:
        raise InvalidSpec("workspace_interval needs at least one link")
    if not all(math.isfinite(x) and x > 0 for x in ls):
        raise InvalidSpec("link lengths must be positive and finite")
    total = sum(ls)
    m = max(0.0, 2.0 * max(ls) - total)
    return (m, total)


def _chain_points(config: Configuration | np.ndarray) -> np.ndarray:
    if isinstance(config, Configuration):
        return config.points
    return np.asarray(config, dtype=float)


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
    fewer than two points or unless tol is finite, >= 0 and below pi/2.
    One kernel decides alignment for one chain or for a stack of chains:
    this is its one-chain case, and ``classify.platform_conditions`` runs it
    on a platform's three branches at once.
    """
    cos_tol = math.cos(_check_angle(tol, "tol"))
    points = _chain_points(config)
    if len(points) < 2:
        raise InvalidSpec("is_aligned needs at least one link")
    w, aligned, degenerate = _aligned_chains(points, _ONE_CHAIN, cos_tol)
    if degenerate[0]:
        raise DegenerateDirection("chain has a zero-length link")
    return w[0] if aligned[0] else None


def forward_count(config: Configuration | np.ndarray, w: np.ndarray, tol: float = 1e-6) -> int:
    """Number of links whose direction has positive inner product with w.

    For a closed chain, pass its points with the first repeated at the end.
    Raises InvalidSpec unless the chain is aligned within ``tol``.
    """
    points = _chain_points(config)
    if is_aligned(points, tol=tol) is None:
        raise InvalidSpec("forward_count requires an aligned chain")
    return int(np.sum(np.diff(points, axis=0) @ np.asarray(w, dtype=float) > 0.0))


def chord_signature(config: Configuration | np.ndarray, tol: float = 1e-6) -> tuple[int, int]:
    """(positive, negative) inertia of the chord-length Hessian of an aligned
    open chain on its reduced frame: with f of its k links pointing along the
    chord from the first vertex to the last, ((d-1)*(k-f), (d-1)*(f-1)).

    Raises DegenerateDirection when the chord is shorter than 1e-12 * (1 +
    the summed link lengths), and InvalidSpec (from forward_count) unless the
    chain is aligned within ``tol``.
    """
    points = _chain_points(config)
    chord = points[-1] - points[0]
    rho = float(np.linalg.norm(chord))
    if rho < 1e-12 * (1.0 + np.linalg.norm(np.diff(points, axis=0), axis=1).sum()):
        raise DegenerateDirection("aligned chain chord vanishes")
    f = forward_count(points, chord / rho, tol=tol)
    d = points.shape[1]
    return ((d - 1) * (len(points) - 1 - f), (d - 1) * (f - 1))


def aligned_morse_index(chain: ChainSpec, config: Configuration | np.ndarray) -> int:
    """Morse index of the reduced endpoint-distance function at an aligned
    configuration of a closed chain whose last link is the variable one,
    aligned as is_aligned decides it at its default tolerance.

    With w the chord direction from vertex 0 to vertex n (the variable link's
    complementary path) and f the number of the first n links pointing along
    +w, the index is (d-1)*(f-1): each forward link beyond the first
    contributes d-1 downhill directions.  Validated against the
    finite-difference Hessian oracle; this is chord_signature's negative
    part on the n fixed links.  A zero-length variable link raises
    DegenerateDirection from the alignment check of the closed loop.
    """
    if chain.kind is not ChainKind.CLOSED:
        raise InvalidSpec("aligned_morse_index expects a closed chain")
    points = _chain_points(config)
    if points.shape != (chain.n_vertices, chain.ambient_dim):
        raise InvalidSpec("configuration does not match the chain")
    if is_aligned(np.vstack([points, points[:1]])) is None:
        raise InvalidSpec("aligned_morse_index requires an aligned configuration")
    return chord_signature(points)[1]


def chain_work_image(chain: ChainSpec, config: Configuration | np.ndarray) -> SubspaceBasis:
    """Image of the work-map differential on the constraint null space, at
    work_image's default rank tolerance.

    No gauge is removed: translations lie in the null space and the work map
    sends them to 0, so this is the image over the pointed tangent space.
    Dimension d off alignment (for k >= 2); dimension d-1 and orthogonal to
    the alignment direction when aligned.
    """
    if chain.kind is not ChainKind.OPEN:
        raise InvalidSpec("chain_work_image expects an open chain")
    return work_image(chain.to_linkage(), Configuration(_chain_points(config)))


def prismatic_fiber(chain: ChainSpec, ell: float) -> ChainSpec:
    """Closed chain obtained by freezing the variable link at length ell."""
    if chain.kind is not ChainKind.PRISMATIC_CLOSED:
        raise InvalidSpec("prismatic_fiber expects a prismatic closed chain")
    lo, hi = chain.prismatic_range  # type: ignore[misc]
    if not (lo - 1e-12 <= ell <= hi + 1e-12):
        raise InvalidSpec(f"length {ell} outside prismatic range [{lo}, {hi}]")
    if ell <= 0.0:
        raise InvalidSpec("fiber length must be positive")
    return ChainSpec(ChainKind.CLOSED, chain.lengths + (float(ell),), chain.ambient_dim)
