"""Core data model: mechanism graphs, linkages, configurations, and the
squared-length constraint map with its analytic Jacobian.

A linkage is an undirected graph with a fixed length per edge.  A
configuration places every vertex in R^d.  The constraint map sends a
placement to the vector of squared edge lengths; its zero-residual set is the
configuration space the rest of the package analyzes.

Coordinate convention: flattened configurations are vertex-major (vertex 0's
d coordinates first), and constraint rows follow the edge-list order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Container, Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DegenerateDirection, DimensionMismatch, InvalidSpec, OffConstraint

__all__ = [
    "MechanismType",
    "PlatformSpec",
    "Linkage",
    "Configuration",
    "SubspaceBasis",
    "build_linkage",
    "squared_length_map",
    "constraint_residual",
    "constraint_jacobian",
    "pointed_normalize",
    "reduced_normalize",
]


@dataclass(frozen=True)
class MechanismType:
    """Abstract mechanism graph: vertex count plus an ordered edge list.

    Edge order is significant: it fixes the coordinate order of the
    squared-length map and every Jacobian row.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise InvalidSpec("vertex_count must be positive")
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))
        seen: set[frozenset[int]] = set()
        for u, v in self.edges:
            if u == v:
                raise InvalidSpec(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise InvalidSpec(f"edge ({u},{v}) references a missing vertex")
            key = frozenset((u, v))
            if key in seen:
                raise InvalidSpec(f"duplicate edge ({u},{v})")
            seen.add(key)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The (neighbour, edge index) pairs of each vertex, in edge order."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for i, (u, w) in enumerate(self.edges):
            adj[u].append((w, i))
            adj[w].append((u, i))
        return tuple(tuple(a) for a in adj)

    def reachable(self, start: int, skip_edges: Container[int] = ()) -> set[int]:
        """Vertices reachable from ``start`` along edges not in ``skip_edges``."""
        seen = {start}
        stack = [start]
        while stack:
            for nb, i in self.adjacency[stack.pop()]:
                if nb not in seen and i not in skip_edges:
                    seen.add(nb)
                    stack.append(nb)
        return seen

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def is_connected(self) -> bool:
        return len(self.reachable(0)) == self.vertex_count


@dataclass(frozen=True)
class PlatformSpec:
    """Tags a linkage as a parallel polygonal platform.

    ``branches`` lists, per branch, the edge indices from the fixed anchor to
    the moving attachment, in path order.  ``fixed``/``moving`` list the
    vertices of the two rigid triangles.
    """

    branches: tuple[tuple[int, ...], ...]
    fixed: tuple[int, ...]
    moving: tuple[int, ...]


class _EdgeKernel(NamedTuple):
    """A linkage's edge list compiled to index arrays for the constraint kernel."""

    u: np.ndarray  # (k,) first endpoint of each edge
    v: np.ndarray  # (k,) second endpoint of each edge
    target: np.ndarray  # (k,) squared target lengths
    u_at: np.ndarray  # (k, d) flat positions of row i's vertex-u block in the (k, N*d) Jacobian
    v_at: np.ndarray  # (k, d) the same for vertex v's block


@dataclass(frozen=True)
class Linkage:
    """A mechanism graph with one positive length per edge.

    ``base_vertex`` pins the pointed gauge, ``base_link`` (an edge index
    incident to the base) pins the reduced gauge, ``end_effector`` is the
    distinguished work vertex.  ``prismatic`` maps an edge index to its
    admissible length range; only the variable edge of a prismatic closed
    chain uses it.
    """

    graph: MechanismType
    lengths: tuple[float, ...]
    ambient_dim: int = 2
    base_vertex: int = 0
    base_link: Optional[int] = None
    end_effector: Optional[int] = None
    prismatic: tuple[tuple[int, float, float], ...] = ()
    platform: Optional[PlatformSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "lengths", tuple(float(x) for x in self.lengths))
        if self.ambient_dim not in (2, 3):
            raise InvalidSpec("ambient_dim must be 2 or 3")
        if len(self.lengths) != self.graph.edge_count:
            raise InvalidSpec("one length per edge required")
        if any(not np.isfinite(x) or x <= 0.0 for x in self.lengths):
            raise InvalidSpec("edge lengths must be positive and finite")
        if not (0 <= self.base_vertex < self.graph.vertex_count):
            raise InvalidSpec("base_vertex out of range")
        if self.base_link is not None:
            if not (0 <= self.base_link < self.graph.edge_count):
                raise InvalidSpec("base_link out of range")
            if self.base_vertex not in self.graph.edges[self.base_link]:
                raise InvalidSpec("base_link must be incident to base_vertex")
        if self.end_effector is not None:
            if not (0 <= self.end_effector < self.graph.vertex_count):
                raise InvalidSpec("end_effector out of range")
            if self.end_effector == self.base_vertex:
                raise InvalidSpec("end_effector must differ from base_vertex")
        for edge_idx, lo, hi in self.prismatic:
            if not (0 <= edge_idx < self.graph.edge_count):
                raise InvalidSpec("prismatic edge index out of range")
            if not (0.0 <= lo <= hi) or hi <= 0.0:
                raise InvalidSpec("prismatic range must satisfy 0 <= min <= max, max > 0")

    @property
    def k(self) -> int:
        return self.graph.edge_count

    @property
    def n_vertices(self) -> int:
        return self.graph.vertex_count

    @property
    def length_scale(self) -> float:
        return float(sum(self.lengths))

    def squared_lengths(self) -> np.ndarray:
        return np.asarray(self.lengths, dtype=float) ** 2

    @cached_property
    def _kernel(self) -> _EdgeKernel:
        # Built on first use and kept on the instance; every field it reads is frozen.
        edges = np.array(self.graph.edges, dtype=int).reshape(-1, 2)
        d = self.ambient_dim
        row_start = np.arange(self.k)[:, None] * (self.n_vertices * d) + np.arange(d)
        return _EdgeKernel(
            u=edges[:, 0],
            v=edges[:, 1],
            target=self.squared_lengths(),
            u_at=row_start + edges[:, :1] * d,
            v_at=row_start + edges[:, 1:] * d,
        )


class Configuration:
    """An assignment of ambient points to vertices, immutable after creation."""

    __slots__ = ("points",)

    def __init__(self, points: Iterable[Sequence[float]] | np.ndarray):
        arr = np.array(points, dtype=float)
        if arr.ndim != 2:
            raise InvalidSpec("configuration must be an (N, d) array of points")
        check_finite(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    def __setattr__(self, name, value):  # points is fixed at construction
        raise AttributeError("Configuration is immutable")

    @property
    def n_vertices(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def flat(self) -> np.ndarray:
        """Vertex-major flattening (vertex 0's coordinates first)."""
        return self.points.reshape(-1)

    @classmethod
    def from_flat(cls, flat: np.ndarray, dim: int) -> "Configuration":
        return cls(np.asarray(flat, dtype=float).reshape(-1, dim))

    def __repr__(self) -> str:
        return f"Configuration({self.points.tolist()!r})"


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of the ambient space (possibly empty)."""

    ambient_dim: int
    vectors: np.ndarray  # (m, ambient_dim), orthonormal rows

    def __post_init__(self) -> None:
        arr = np.asarray(self.vectors, dtype=float).reshape(-1, self.ambient_dim)
        gram = arr @ arr.T
        if arr.shape[0] and not np.allclose(gram, np.eye(arr.shape[0]), atol=1e-10):
            raise InvalidSpec("basis vectors must be orthonormal")
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


def check_finite(points: np.ndarray) -> None:
    """Raise InvalidSpec unless every coordinate is finite."""
    if not np.isfinite(points).all():
        raise InvalidSpec("configuration coordinates must be finite")


def check_match(linkage: Linkage, config: Configuration) -> None:
    """Raise DimensionMismatch unless config fits the linkage."""
    if config.n_vertices != linkage.n_vertices or config.dim != linkage.ambient_dim:
        raise DimensionMismatch(
            f"configuration shape ({config.n_vertices},{config.dim}) does not match "
            f"linkage ({linkage.n_vertices},{linkage.ambient_dim})"
        )


def check_on_constraint(linkage: Linkage, config: Configuration, tol: float = 1e-8) -> None:
    """Raise OffConstraint unless every residual is below tol * (1 + total length); no edges pass."""
    worst = float(np.abs(constraint_residual(linkage, config)).max(initial=0.0))
    if worst >= tol * (1.0 + linkage.length_scale):
        raise OffConstraint(f"configuration residual {worst:.3g} too large")


def build_linkage(doc: Mapping) -> Linkage:
    """Validate a parsed linkage document (see the CLI JSON schema) into a Linkage."""
    try:
        dim = int(doc["dim"])
        n = int(doc["vertices"])
        edge_docs = list(doc["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed linkage document: {exc}") from exc

    edges = []
    lengths = []
    prismatic = []
    for i, e in enumerate(edge_docs):
        try:
            edges.append((int(e["u"]), int(e["v"])))
            lengths.append(float(e["length"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidSpec(f"malformed edge {i}: {exc}") from exc
        if "prismatic" in e and e["prismatic"] is not None:
            p = e["prismatic"]
            try:
                prismatic.append((i, float(p["min"]), float(p["max"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise InvalidSpec(f"malformed prismatic range on edge {i}: {exc}") from exc

    platform = None
    if doc.get("platform") is not None:
        p = doc["platform"]
        try:
            platform = PlatformSpec(
                branches=tuple(tuple(int(i) for i in b) for b in p["branches"]),
                fixed=tuple(int(v) for v in p["fixed"]),
                moving=tuple(int(v) for v in p["moving"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidSpec(f"malformed platform block: {exc}") from exc
        for branch in platform.branches:
            for i in branch:
                if not (0 <= i < len(edges)):
                    raise InvalidSpec(f"platform branch references missing edge {i}")

    return Linkage(
        graph=MechanismType(n, tuple(edges)),
        lengths=tuple(lengths),
        ambient_dim=dim,
        base_vertex=int(doc.get("base", 0)),
        base_link=None if doc.get("base_link") is None else int(doc["base_link"]),
        end_effector=None if doc.get("effector") is None else int(doc["effector"]),
        prismatic=tuple(prismatic),
        platform=platform,
    )


def _length_map_points(linkage: Linkage, p: np.ndarray) -> np.ndarray:
    """Squared-length map at the (N, d) point array p, which must fit the linkage."""
    kernel = linkage._kernel
    diff = p.take(kernel.u, axis=0) - p.take(kernel.v, axis=0)
    return np.einsum("ij,ij->i", diff, diff)


def _residual_points(linkage: Linkage, p: np.ndarray) -> np.ndarray:
    """Constraint residual at the (N, d) point array p, which must fit the linkage."""
    return _length_map_points(linkage, p) - linkage._kernel.target


def _jacobian_points(linkage: Linkage, p: np.ndarray) -> np.ndarray:
    """Constraint Jacobian at the (N, d) point array p, which must fit the linkage."""
    kernel = linkage._kernel
    g = 2.0 * (p.take(kernel.u, axis=0) - p.take(kernel.v, axis=0))
    jac = np.zeros((linkage.k, p.size))
    jac.put(kernel.u_at, g)
    jac.put(kernel.v_at, -g)
    return jac


def _residual_rows(linkage: Linkage, x: np.ndarray) -> np.ndarray:
    """Constraint residuals of a batch: x is (B, N*d), one flat configuration a
    row; returns (B, k).  Row i equals _residual_points at row i bit for bit."""
    kernel = linkage._kernel
    d = linkage.ambient_dim
    p = x.reshape(x.shape[0], -1, d)
    diff = (p.take(kernel.u, axis=1) - p.take(kernel.v, axis=1)).reshape(-1, d)
    return np.einsum("ij,ij->i", diff, diff).reshape(x.shape[0], linkage.k) - kernel.target


def _jacobian_rows(linkage: Linkage, x: np.ndarray) -> np.ndarray:
    """Constraint Jacobians of a batch of flat configurations x, (B, N*d);
    returns (B, k, N*d).  Slice i equals _jacobian_points at row i."""
    kernel = linkage._kernel
    b = x.shape[0]
    p = x.reshape(b, -1, linkage.ambient_dim)
    g = (2.0 * (p.take(kernel.u, axis=1) - p.take(kernel.v, axis=1))).reshape(b, -1)
    jac = np.zeros((b, linkage.k, x.shape[1]))
    flat = jac.reshape(b, -1)
    flat[:, kernel.u_at.reshape(-1)] = g
    flat[:, kernel.v_at.reshape(-1)] = -g
    return jac


def squared_length_map(linkage: Linkage, config: Configuration) -> np.ndarray:
    """Vector of squared endpoint distances, one entry per edge, in edge order."""
    check_match(linkage, config)
    return _length_map_points(linkage, config.points)


def constraint_residual(linkage: Linkage, config: Configuration) -> np.ndarray:
    """squared_length_map(V) minus the target squared lengths; zero on the constraint set."""
    check_match(linkage, config)
    return _residual_points(linkage, config.points)


def constraint_jacobian(linkage: Linkage, config: Configuration) -> np.ndarray:
    """Analytic differential of the squared-length map.

    Row i carries 2(p_u - p_v) in vertex u's column block and the negative in
    vertex v's block; all other entries vanish.  Shape (k, N*d).
    """
    check_match(linkage, config)
    return _jacobian_points(linkage, config.points)


def pointed_normalize(config: Configuration, base_vertex: int) -> Configuration:
    """Translate so the base vertex sits at the origin.  Idempotent."""
    p = config.points
    return Configuration(p - p[base_vertex])


def reduced_normalize(linkage: Linkage, config: Configuration) -> Configuration:
    """Pin the pointed gauge and rotate the base link onto the first axis.

    In d=3 the rotation is the minimal one taking the link direction to e1
    (axis given by the cross product); the residual rotation about e1 is not
    fixed here and is quotiented out inside tangent-space computations.

    Raises DegenerateDirection when the base link's endpoints are closer than
    1e-12 * (1 + max |coordinate|).
    """
    check_match(linkage, config)
    if linkage.base_link is None:
        raise InvalidSpec("linkage has no base_link to pin the reduced gauge")
    u, v = linkage.graph.edges[linkage.base_link]
    other = v if u == linkage.base_vertex else u
    p = config.points - config.points[linkage.base_vertex]
    direction = p[other]
    norm = float(np.linalg.norm(direction))
    scale = 1.0 + float(np.max(np.abs(config.points)))
    if norm < 1e-12 * scale:
        raise DegenerateDirection("base link endpoints coincide; no direction to pin")
    w = direction / norm
    d = linkage.ambient_dim
    e1 = np.zeros(d)
    e1[0] = 1.0
    rot = _rotation_taking(w, e1)
    return Configuration(p @ rot.T)


def _rotation_taking(w: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Minimal rotation matrix carrying unit vector w onto unit vector target."""
    d = w.shape[0]
    c = float(np.dot(w, target))
    if d == 2:
        s = w[0] * target[1] - w[1] * target[0]
        return np.array([[c, -s], [s, c]])
    axis = np.cross(w, target)
    s = float(np.linalg.norm(axis))
    if s < 1e-14:
        if c > 0.0:
            return np.eye(3)
        # antipodal: rotate by pi about any axis orthogonal to w
        perp = np.eye(3)[np.argmin(np.abs(w))]
        perp = perp - np.dot(perp, w) * w
        perp /= np.linalg.norm(perp)
        return 2.0 * np.outer(perp, perp) - np.eye(3)
    axis = axis / s
    kmat = np.array(
        [[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]]
    )
    return np.eye(3) + s * kmat + (1.0 - c) * (kmat @ kmat)
