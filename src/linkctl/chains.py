"""Open, closed, and prismatic closed chains.

Covers reachable-distance intervals, alignment detection, spherical joint
coordinates with round-trip reconstruction, endpoint work maps and their
image subspaces, and the Morse index of the reduced endpoint-distance
function at aligned configurations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateDirection,
    EmptyChain,
    InvalidSpec,
    NotAligned,
    OutOfRange,
    UndefinedTheta,
)
from .model import Configuration, Linkage, MechanismType, SubspaceBasis, check_match

__all__ = [
    "ChainKind",
    "ChainSpec",
    "SphericalParams",
    "workspace_interval",
    "is_aligned",
    "forward_count",
    "aligned_morse_index",
    "chain_work_map",
    "chain_work_image",
    "to_spherical",
    "from_spherical",
    "spherical_rho",
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
    links) instead of a fixed one.
    """

    kind: ChainKind
    lengths: tuple[float, ...]
    ambient_dim: int = 2
    prismatic_range: Optional[tuple[float, float]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "lengths", tuple(float(x) for x in self.lengths))
        if not self.lengths:
            raise EmptyChain("chain needs at least one link")
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
            if not (0.0 <= lo <= hi):
                raise InvalidSpec("prismatic range must satisfy 0 <= min <= max")
            object.__setattr__(self, "prismatic_range", (float(lo), float(hi)))
        elif self.prismatic_range is not None:
            raise InvalidSpec("prismatic_range only applies to prismatic closed chains")

    @property
    def n_links(self) -> int:
        return len(self.lengths) + (1 if self.kind is ChainKind.PRISMATIC_CLOSED else 0)

    @property
    def n_vertices(self) -> int:
        if self.kind is ChainKind.OPEN:
            return len(self.lengths) + 1
        if self.kind is ChainKind.CLOSED:
            return len(self.lengths)
        return len(self.lengths) + 1

    def to_linkage(self) -> Linkage:
        """Realize the chain as a Linkage with base 0, base link 0, effector at the far end."""
        n = self.n_vertices
        if self.kind is ChainKind.OPEN:
            edges = tuple((i, i + 1) for i in range(n - 1))
            lengths = self.lengths
            prismatic: tuple[tuple[int, float, float], ...] = ()
        elif self.kind is ChainKind.CLOSED:
            edges = tuple((i, (i + 1) % n) for i in range(n))
            lengths = self.lengths
            prismatic = ()
        else:
            edges = tuple((i, (i + 1) % n) for i in range(n))
            lo, hi = self.prismatic_range  # type: ignore[misc]
            # the variable edge still needs a nominal positive length
            nominal = hi if lo == 0.0 else 0.5 * (lo + hi)
            lengths = self.lengths + (nominal,)
            prismatic = ((n - 1, lo, hi),)
        return Linkage(
            graph=MechanismType(n, edges),
            lengths=lengths,
            ambient_dim=self.ambient_dim,
            base_vertex=0,
            base_link=0,
            end_effector=n - 1,
            prismatic=prismatic,
        )


def workspace_interval(lengths: Sequence[float]) -> tuple[float, float]:
    """Reachable interval [m, M] of the endpoint distance of an open chain.

    M is the total length; m is 2*max(l) - M clamped at zero (the longest
    link against everything else folded back).  Raises InvalidSpec unless
    every length is positive and finite.
    """
    ls = [float(x) for x in lengths]
    if not ls:
        raise EmptyChain("workspace_interval needs at least one link")
    if not all(math.isfinite(x) and x > 0 for x in ls):
        raise InvalidSpec("link lengths must be positive and finite")
    total = sum(ls)
    m = max(0.0, 2.0 * max(ls) - total)
    return (m, total)


def _chain_points(config: Configuration | np.ndarray) -> np.ndarray:
    if isinstance(config, Configuration):
        return config.points
    return np.asarray(config, dtype=float)


def _link_vectors(points: np.ndarray, closed: bool) -> np.ndarray:
    diffs = np.diff(points, axis=0)
    if closed:
        diffs = np.vstack([diffs, points[0] - points[-1]])
    return diffs


def is_aligned(
    config: Configuration | np.ndarray,
    tol: float = 1e-6,
    closed: bool = False,
) -> Optional[np.ndarray]:
    """Common unit direction of link 1 if all links are collinear with it, else None.

    Links may point forward (+w) or backward (-w); "aligned" means collinear
    within angular tolerance ``tol``.  Raises DegenerateDirection on a
    zero-length link.
    """
    points = _chain_points(config)
    vecs = _link_vectors(points, closed)
    norms = np.linalg.norm(vecs, axis=1)
    scale = 1.0 + float(np.max(np.abs(points)))
    if np.any(norms < 1e-12 * scale):
        raise DegenerateDirection("chain has a zero-length link")
    dirs = vecs / norms[:, None]
    w = dirs[0]
    cos_tol = math.cos(tol)
    if np.all(np.abs(dirs @ w) >= cos_tol):
        return w
    return None


def forward_count(
    config: Configuration | np.ndarray,
    w: np.ndarray,
    closed: bool = False,
    tol: float = 1e-6,
) -> int:
    """Number of links whose direction has positive inner product with w."""
    points = _chain_points(config)
    if is_aligned(points, tol=tol, closed=closed) is None:
        raise NotAligned("forward_count requires an aligned chain")
    vecs = _link_vectors(points, closed)
    return int(np.sum(vecs @ np.asarray(w, dtype=float) > 0.0))


def aligned_morse_index(chain: ChainSpec, config: Configuration | np.ndarray) -> int:
    """Morse index of the reduced endpoint-distance function at an aligned
    configuration of a closed chain whose last link is the variable one,
    aligned as is_aligned decides it at its default tolerance.

    With w the chord direction from vertex 0 to vertex n (the variable link's
    complementary path) and f the number of the first n links pointing along
    +w, the index is (d-1)*(f-1): each forward link beyond the first
    contributes d-1 downhill directions.  Validated against the
    finite-difference Hessian oracle; f comes from forward_count.
    """
    if chain.kind is not ChainKind.CLOSED:
        raise InvalidSpec("aligned_morse_index expects a closed chain")
    points = _chain_points(config)
    n_total = chain.n_vertices
    if points.shape[0] != n_total:
        raise InvalidSpec("configuration does not match the chain")
    if is_aligned(points, closed=True) is None:
        raise NotAligned("aligned_morse_index requires an aligned configuration")
    chord = points[-1] - points[0]
    rho = float(np.linalg.norm(chord))
    scale = 1.0 + float(np.max(np.abs(points)))
    if rho < 1e-12 * scale:
        raise DegenerateDirection("variable link has zero length; index undefined")
    f = forward_count(points, chord / rho)  # among the n fixed links
    return (chain.ambient_dim - 1) * (f - 1)


def chain_work_map(config: Configuration | np.ndarray) -> np.ndarray:
    """Endpoint displacement x_k - x_0 (pointed convention)."""
    points = _chain_points(config)
    return points[-1] - points[0]


def chain_work_image(chain: ChainSpec, config: Configuration | np.ndarray) -> SubspaceBasis:
    """Image of the work-map differential on the constraint null space, at
    work_image's default rank tolerance.

    No gauge is removed: translations lie in the null space and the work map
    sends them to 0, so this is the image over the pointed tangent space.
    Dimension d off alignment (for k >= 2); dimension d-1 and orthogonal to
    the alignment direction when aligned.
    """
    from .numeric import work_image  # local import: numeric depends on model only

    if chain.kind is not ChainKind.OPEN:
        raise InvalidSpec("chain_work_image expects an open chain")
    points = _chain_points(config)
    linkage = chain.to_linkage()
    cfg = Configuration(points)
    check_match(linkage, cfg)
    return work_image(linkage, cfg, 0, linkage.n_vertices - 1)


@dataclass(frozen=True)
class SphericalParams:
    """Spherical joint coordinates of an open chain.

    ``theta`` is the unit direction of x_k - x_0 (at an aligned chain with
    coincident endpoints, the alignment direction).  For d=2 the joint
    angles are the signed turns between consecutive links, in (-pi, pi].
    For d=3 each joint entry is the next link's unit direction expressed in
    the moving frame of the previous link.
    """

    ambient_dim: int
    theta: np.ndarray
    joint_angles: tuple

    def __post_init__(self) -> None:
        th = np.asarray(self.theta, dtype=float)
        if th.shape != (self.ambient_dim,):
            raise InvalidSpec("theta must be a unit vector in the ambient dimension")
        if abs(np.linalg.norm(th) - 1.0) > 1e-9:
            raise InvalidSpec("theta must have unit length")
        th.setflags(write=False)
        object.__setattr__(self, "theta", th)


def _principal(angle: float) -> float:
    a = math.fmod(angle + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


def to_spherical(config: Configuration | np.ndarray) -> SphericalParams:
    """Extract (theta, joint data) from an open-chain configuration.

    Raises UndefinedTheta when the endpoints coincide and the chain is not
    aligned, as is_aligned decides it at its default tolerance (no preferred
    direction exists).
    """
    points = _chain_points(config)
    d = points.shape[1]
    vecs = np.diff(points, axis=0)
    norms = np.linalg.norm(vecs, axis=1)
    scale = 1.0 + float(np.max(np.abs(points)))
    if np.any(norms < 1e-12 * scale):
        raise DegenerateDirection("chain has a zero-length link")
    dirs = vecs / norms[:, None]

    chord = points[-1] - points[0]
    rho = float(np.linalg.norm(chord))
    if rho > 1e-9 * scale:
        theta = chord / rho
    else:
        w = is_aligned(points)
        if w is None:
            raise UndefinedTheta("endpoints coincide and chain is not aligned")
        theta = w

    if d == 2:
        angles = []
        for i in range(len(dirs) - 1):
            a = math.atan2(dirs[i + 1][1], dirs[i + 1][0]) - math.atan2(dirs[i][1], dirs[i][0])
            angles.append(_principal(a))
        return SphericalParams(2, theta, tuple(angles))

    from .model import _rotation_taking

    e1 = np.array([1.0, 0.0, 0.0])
    frame = _rotation_taking(e1, dirs[0])  # columns-free rotation with frame @ e1 = dirs[0]
    joints = []
    for i in range(len(dirs) - 1):
        local = frame.T @ dirs[i + 1]
        joints.append(tuple(local))
        frame = frame @ _rotation_taking(e1, local)
    return SphericalParams(3, theta, tuple(joints))


def from_spherical(chain: ChainSpec, params: SphericalParams) -> Configuration:
    """Rebuild an open-chain configuration from spherical coordinates.

    The chain starts at the origin; the chord (or, if it vanishes, the first
    link) is rotated onto theta.  Round-tripping to_spherical reproduces the
    pointed configuration exactly in d=2 and up to the residual rotation
    about theta in d=3.
    """
    if chain.kind is not ChainKind.OPEN:
        raise InvalidSpec("from_spherical expects an open chain")
    d = chain.ambient_dim
    if params.ambient_dim != d:
        raise InvalidSpec("parameter dimension does not match the chain")
    k = len(chain.lengths)
    if len(params.joint_angles) != k - 1:
        raise InvalidSpec("expected one joint entry per interior vertex")

    from .model import _rotation_taking

    if d == 2:
        angles = np.concatenate([[0.0], np.cumsum(np.asarray(params.joint_angles, dtype=float))])
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        e1 = np.array([1.0, 0.0, 0.0])
        dirs_list = [e1]
        frame = np.eye(3)
        for local in params.joint_angles:
            loc = np.asarray(local, dtype=float)
            dirs_list.append(frame @ loc)
            frame = frame @ _rotation_taking(e1, loc)
        dirs = np.stack(dirs_list, axis=0)

    pts = np.vstack([np.zeros(d), np.cumsum(dirs * np.asarray(chain.lengths)[:, None], axis=0)])
    chord = pts[-1]
    rho = float(np.linalg.norm(chord))
    anchor = chord / rho if rho > 1e-9 * (1.0 + float(np.sum(chain.lengths))) else dirs[0]
    rot = _rotation_taking(anchor, np.asarray(params.theta, dtype=float))
    return Configuration(pts @ rot.T)


def spherical_rho(chain: ChainSpec, params: SphericalParams) -> float:
    """Endpoint distance implied by the joint data (independent of theta)."""
    cfg = from_spherical(chain, params)
    return float(np.linalg.norm(chain_work_map(cfg)))


def prismatic_fiber(chain: ChainSpec, ell: float) -> ChainSpec:
    """Closed chain obtained by freezing the variable link at length ell."""
    if chain.kind is not ChainKind.PRISMATIC_CLOSED:
        raise InvalidSpec("prismatic_fiber expects a prismatic closed chain")
    lo, hi = chain.prismatic_range  # type: ignore[misc]
    if not (lo - 1e-12 <= ell <= hi + 1e-12):
        raise OutOfRange(f"length {ell} outside prismatic range [{lo}, {hi}]")
    if ell <= 0.0:
        raise OutOfRange("fiber length must be positive")
    return ChainSpec(ChainKind.CLOSED, chain.lengths + (float(ell),), chain.ambient_dim)
