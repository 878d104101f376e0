"""Core data model: mechanism graphs with their open-chain removals, linkages,
configurations, and the squared-length constraint map with its Jacobian.

A linkage is an undirected graph with a fixed length per edge.  A
configuration places every vertex in R^d.  The constraint map sends a
placement to the vector of squared edge lengths; its zero-residual set is the
configuration space the rest of the package analyzes.

Coordinate convention: flattened configurations are vertex-major (vertex 0's
d coordinates first), and constraint rows follow the edge-list order.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Container, Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DegenerateDirection, InvalidSpec, OffConstraint

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
        count = check_integer(self.vertex_count, "vertex_count")
        if count < 1:
            raise InvalidSpec("vertex_count must be positive")
        object.__setattr__(self, "vertex_count", count)
        try:
            edges = tuple((check_integer(u, "edge endpoint"), check_integer(v, "edge endpoint")) for u, v in self.edges)
        except (TypeError, ValueError):  # not iterable, or an entry that is not a pair
            raise InvalidSpec(f"edges must be a sequence of (u, v) pairs, got {self.edges!r}") from None
        object.__setattr__(self, "edges", edges)
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

    @cached_property
    def chain_removals(self) -> Mapping[tuple[int, ...], "ChainRemoval"]:
        """Every open-chain removal of this connected graph, keyed by its chain
        edges, in lexicographic edge order; InvalidSpec when it is not connected.

        Includes non-maximal paths.  A path qualifies when its interior vertices
        have degree exactly two and deleting its edges and interior vertices
        leaves a connected remainder containing both endpoints.
        """
        if not self.is_connected():
            raise InvalidSpec("chain removal enumeration requires a connected graph")
        removals: list[Optional[ChainRemoval]] = []

        def extend(path: list[int], edges: list[int]) -> None:
            if edges and path[0] < path[-1]:
                removals.append(_removal(self, tuple(path), tuple(edges)))
            tail = path[-1]
            if edges and self.degree(tail) != 2:
                return  # tail would become an interior vertex of degree != 2
            for nxt, i in self.adjacency[tail]:
                if nxt in path:
                    continue
                path.append(nxt)
                edges.append(i)
                extend(path, edges)
                path.pop()
                edges.pop()

        for start in range(self.vertex_count):
            extend([start], [])
        kept = sorted((r for r in removals if r is not None), key=lambda r: r.chain_edges)
        return MappingProxyType({r.chain_edges: r for r in kept})


@dataclass(frozen=True)
class ChainRemoval:
    """An open chain inside a mechanism, plus the remainder left by deleting it.

    Vertices are a simple path whose interior vertices have degree exactly
    two in the host graph; removal deletes the path's edges and interior
    vertices.  Paths are stored with the smaller endpoint first.
    """

    chain_vertices: tuple[int, ...]
    chain_edges: tuple[int, ...]
    remainder_vertices: tuple[int, ...]
    remainder_edges: tuple[int, ...]

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.chain_vertices[0], self.chain_vertices[-1])

    @property
    def interior(self) -> tuple[int, ...]:
        return self.chain_vertices[1:-1]


def _removal(
    graph: MechanismType, path: tuple[int, ...], chain_edges: tuple[int, ...]
) -> Optional[ChainRemoval]:
    """The removal of a path whose interior vertices have degree two; None
    when it leaves no edge or a disconnected remainder."""
    chain = set(chain_edges)
    rem_edges = tuple(i for i in range(graph.edge_count) if i not in chain)
    if not rem_edges:
        return None
    interior = set(path[1:-1])
    rem_vertices = tuple(v for v in range(graph.vertex_count) if v not in interior)
    # an interior vertex has degree two, both its edges in the chain, so a
    # walk that skips chain edges stays in the remainder
    if len(graph.reachable(path[0], chain)) != len(rem_vertices):
        return None
    return ChainRemoval(path, chain_edges, rem_vertices, rem_edges)


@dataclass(frozen=True)
class PlatformSpec:
    """Tags a linkage as a parallel polygonal platform.

    ``branches`` lists, per branch, the edge indices from the fixed anchor to
    the moving attachment, in path order.  ``fixed``/``moving`` list the
    vertices of the two rigid triangles.  The one rule for a branch: it is an
    open chain listed from its fixed anchor, an entry of
    ``MechanismType.chain_removals`` read from a vertex in ``fixed`` to one
    in ``moving``.
    """

    branches: tuple[tuple[int, ...], ...]
    fixed: tuple[int, ...]
    moving: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            branches = tuple(tuple(check_integer(i, "platform branch edge") for i in b) for b in self.branches)
            fixed = tuple(check_integer(v, "platform fixed vertex") for v in self.fixed)
            moving = tuple(check_integer(v, "platform moving vertex") for v in self.moving)
        except TypeError:  # a part that is not a sequence
            raise InvalidSpec(
                "platform branches must be sequences of edge ids and fixed and moving sequences of vertex ids, "
                f"got {self.branches!r}, {self.fixed!r} and {self.moving!r}"
            ) from None
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "moving", moving)


class _EdgeKernel(NamedTuple):
    """A linkage's edge list compiled to index arrays for the constraint kernel."""

    u: np.ndarray  # (k,) first endpoint of each edge
    v: np.ndarray  # (k,) second endpoint of each edge
    target: np.ndarray  # (k,) squared target lengths
    scale: np.ndarray  # (k,) 1 + length, each edge's residual scale
    u_at: np.ndarray  # (k, d) flat positions of row i's vertex-u block in the (k, N*d) Jacobian
    v_at: np.ndarray  # (k, d) the same for vertex v's block


class _ChainLinks(NamedTuple):
    """Chains as one flat list of links, each chain's links consecutive, for
    the alignment kernel ``chains._aligned_chains``."""

    tail: np.ndarray | slice  # (L,) vertex each link starts at, or a slice of a point sequence
    head: np.ndarray | slice  # (L,) vertex it ends at
    first: np.ndarray  # (m,) position of each chain's first link, increasing


_LENGTH_RULE = "edge lengths must be positive and finite"
# The longest length whose square is a finite float: every layer squares the
# lengths, and an infinite squared length turns residuals into inf - inf = NaN.
_MAX_LENGTH = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class Linkage:
    """A mechanism graph with one positive length per edge, each at most
    sqrt(float max), about 1.34e154, so that every squared length is finite.

    ``base_vertex`` pins the pointed gauge, ``base_link`` (an edge index
    incident to the base) pins the reduced gauge, ``end_effector`` is the
    distinguished work vertex.  ``platform``, when given, may name only edges
    and vertices of the graph.
    """

    graph: MechanismType
    lengths: tuple[float, ...]
    ambient_dim: int = 2
    base_vertex: int = 0
    base_link: Optional[int] = None
    end_effector: Optional[int] = None
    platform: Optional[PlatformSpec] = None

    def __post_init__(self) -> None:
        lengths = check_array(self.lengths, 1, "edge lengths must be a list of numbers", _LENGTH_RULE).tolist()
        object.__setattr__(self, "lengths", tuple(lengths))
        object.__setattr__(self, "ambient_dim", check_integer(self.ambient_dim, "ambient_dim"))
        object.__setattr__(self, "base_vertex", check_integer(self.base_vertex, "base_vertex"))
        for name in ("base_link", "end_effector"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check_integer(getattr(self, name), name))
        if self.ambient_dim not in (2, 3):
            raise InvalidSpec("ambient_dim must be 2 or 3")
        if len(lengths) != self.graph.edge_count:
            raise InvalidSpec("one length per edge required")
        if min(lengths, default=1.0) <= 0.0:
            raise InvalidSpec(_LENGTH_RULE)
        if max(lengths, default=1.0) > _MAX_LENGTH:
            i = next(i for i, length in enumerate(lengths) if length > _MAX_LENGTH)
            raise InvalidSpec(
                f"edge {i} length {lengths[i]!r} is above {_MAX_LENGTH:.6g}, so its square overflows a float"
            )
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
        plat = self.platform
        if plat is not None:
            for branch in plat.branches:
                if not branch:
                    raise InvalidSpec("platform branch has no edges")
                for i in branch:
                    if not (0 <= i < self.graph.edge_count):
                        raise InvalidSpec(f"platform branch references missing edge {i}")
            for v in (*plat.fixed, *plat.moving):
                if not (0 <= v < self.graph.vertex_count):
                    raise InvalidSpec(f"platform references missing vertex {v}")

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
    def _base_link_end(self) -> Optional[int]:
        # the base link's far end, which the reduced gauge puts on +e1; None without a base link
        if self.base_link is None:
            return None
        u, v = self.graph.edges[self.base_link]
        return v if u == self.base_vertex else u

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
            scale=1.0 + np.asarray(self.lengths, dtype=float),
            u_at=row_start + edges[:, :1] * d,
            v_at=row_start + edges[:, 1:] * d,
        )

    @cached_property
    def _platform_branches(self) -> tuple[tuple[ChainRemoval, tuple[int, ...]], ...]:
        # Each branch of a planar three-branch platform as its open-chain
        # removal, found from its edges in either direction, and its vertex
        # path in listing order, which must start on the fixed triangle and
        # end on the moving one.  Any other platform raises InvalidSpec and
        # caches nothing.
        plat = self.platform
        if plat is None or self.ambient_dim != 2:
            raise InvalidSpec("linkage is not tagged as a planar platform")
        if len(plat.branches) != 3:
            raise InvalidSpec("platform conditions are implemented for three branches")
        removals = self.graph.chain_removals
        resolved = []
        for idx, branch in enumerate(map(tuple, plat.branches)):
            removal = removals.get(branch) or removals.get(branch[::-1])
            if removal is None:
                raise InvalidSpec(f"platform branch {idx}'s edges do not form a removable open chain")
            cv, ce = removal.chain_vertices, removal.chain_edges
            # a one-edge branch reads the same both ways; its anchor picks the way
            paths = [p for p, e in ((cv, ce), (cv[::-1], ce[::-1])) if e == branch and p[0] in plat.fixed]
            if not paths:
                raise InvalidSpec(f"platform branch {idx} does not start at a fixed-platform vertex")
            if paths[0][-1] not in plat.moving:
                raise InvalidSpec(f"platform branch {idx} does not end at a moving-platform vertex")
            resolved.append((removal, paths[0]))
        return tuple(resolved)

    @cached_property
    def _platform_links(self) -> _ChainLinks:
        # the alignment kernel's links, each branch's from its fixed anchor
        paths = [path for _, path in self._platform_branches]
        return _ChainLinks(
            tail=np.array([v for path in paths for v in path[:-1]]),
            head=np.array([v for path in paths for v in path[1:]]),
            first=np.cumsum([0] + [len(path) - 1 for path in paths[:-1]]),
        )


class Configuration:
    """An assignment of ambient points to vertices, immutable after creation."""

    __slots__ = ("points",)

    def __init__(self, points: Iterable[Sequence[float]] | np.ndarray):
        arr = check_array(points, 2, "configuration must be an (N, d) array of points", _FINITE_POINTS)
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
    """Orthonormal basis of a subspace of the ambient space (possibly empty).
    Raises InvalidSpec unless vectors is an (m, ambient_dim) array whose Gram
    matrix G has |G - I| <= 1e-10 in every entry."""

    ambient_dim: int
    vectors: np.ndarray  # (m, ambient_dim), orthonormal rows

    def __post_init__(self) -> None:
        object.__setattr__(self, "ambient_dim", check_integer(self.ambient_dim, "ambient_dim", 0))
        shape_rule = f"basis vectors must be an (m, {self.ambient_dim}) array"
        arr = check_array(self.vectors, 2, shape_rule, None)
        if arr.shape[1] != self.ambient_dim:
            raise InvalidSpec(f"{shape_rule}, got shape {arr.shape}")
        if not np.all(np.abs(arr @ arr.T - np.eye(len(arr))) <= 1e-10):  # NaN fails too
            raise InvalidSpec("basis vectors must be orthonormal")
        arr.setflags(write=False)  # a copy: the caller's array stays writable
        object.__setattr__(self, "vectors", arr)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


_FINITE_POINTS = "configuration coordinates must be finite"


def check_finite(points: np.ndarray) -> None:
    """Raise InvalidSpec unless every coordinate is finite."""
    if not np.isfinite(points).all():
        raise InvalidSpec(_FINITE_POINTS)


def check_array(value, ndim: int, shape_rule: str, finite_rule: Optional[str]) -> np.ndarray:
    """value as a new float array of ndim axes, every entry finite.  Raises
    InvalidSpec stating ``shape_rule`` when numpy cannot read value as
    numbers (ragged rows, text, an integer too large for a float) or reads
    another number of axes, and ``finite_rule`` on a NaN or infinite entry;
    a caller whose own later test fails on such an entry passes None and
    saves the finiteness pass."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidSpec(f"{shape_rule} ({exc})") from None
    if arr.ndim != ndim:
        raise InvalidSpec(f"{shape_rule}, got shape {arr.shape}")
    if finite_rule is not None and not np.isfinite(arr).all():
        raise InvalidSpec(finite_rule)
    return arr


def check_real(value, name: str, positive: bool = False) -> float:
    """value as a float; InvalidSpec naming the option unless it is a number,
    not a bool, that is finite and >= 0, or > 0 when ``positive``.  Plain
    float comparisons keep it cheap: NaN fails them, a string raises TypeError."""
    try:
        ok = 0.0 < value < math.inf if positive else 0.0 <= value < math.inf
    except (TypeError, ValueError):
        ok = False
    if ok and value.__class__ is float:  # the common case, at about the cost of the comparisons
        return value
    if not ok or isinstance(value, (bool, np.bool_)):
        rule = "positive and finite" if positive else "finite and >= 0"
        shown = value if isinstance(value, (numbers.Number, np.bool_)) else repr(value)
        raise InvalidSpec(f"{name} must be {rule}, got {shown}")
    return float(value)


def check_tol_rank(value, name: str = "tol_rank") -> float:
    """value as a float; InvalidSpec unless the relative rank cutoff is finite,
    >= 0 and below 1, where numeric's rank test would keep no singular value."""
    tol_rank = check_real(value, name)
    if not tol_rank < 1.0:
        raise InvalidSpec(f"{name} must be below 1, got {tol_rank}")
    return tol_rank


def check_integer(value, name: str, least: Optional[int] = None) -> int:
    """value as an int; InvalidSpec naming it unless it is an integer, not a
    bool, and >= least when least is given.  operator.index takes numpy
    integers and refuses floats, so 1.5 and 2.0 are not read as ids."""
    if value.__class__ is int and (least is None or value >= least):  # the common case
        return value
    try:
        count = None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        count = None
    if count is None or (least is not None and count < least):
        rule = "an integer" if least is None else f"an integer >= {least}"
        raise InvalidSpec(f"{name} must be {rule}, got {value!r}")
    return count


def check_match(linkage: Linkage, config: Configuration) -> None:
    """Raise InvalidSpec unless config fits the linkage."""
    if config.n_vertices != linkage.n_vertices or config.dim != linkage.ambient_dim:
        raise InvalidSpec(
            f"configuration shape ({config.n_vertices},{config.dim}) does not match "
            f"linkage ({linkage.n_vertices},{linkage.ambient_dim})"
        )


def check_on_constraint(linkage: Linkage, config: Configuration, tol: float = 1e-8) -> None:
    """Raise OffConstraint unless each edge's residual is below tol * (1 + its
    length), so that every part cut from a passing linkage passes too; no
    edges pass.  The message reports the largest residual, then the edge
    furthest over its bound with its residual and that bound."""
    residual = np.abs(constraint_residual(linkage, config))
    bound = tol * linkage._kernel.scale
    if (residual >= bound).any():
        worst = int(np.argmax(residual / bound))
        raise OffConstraint(
            f"configuration residual {residual.max():.3g} too large "
            f"(edge {worst}: {residual[worst]:.3g} against its bound {bound[worst]:.3g})"
        )


def _integer(value, what: str) -> int:
    """A count or id from a linkage document.  An integral float such as 2.0
    is accepted; a bool, a string or a number with a fractional part raises
    InvalidSpec."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise InvalidSpec(f"{what} must be an integer, got {value!r}")


def _number(value, what: str) -> float:
    """A length from a linkage document; a bool or a string raises InvalidSpec."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)  # OverflowError for an int too large for a float
    raise InvalidSpec(f"{what} must be a number, got {value!r}")


def build_linkage(doc: Mapping) -> Linkage:
    """Validate a parsed linkage document (see the schema in ``linkctl.cli``) into a Linkage.

    Every count and id must be an integer (2.0 counts as 2) and every length
    a number; lengths are fixed, so a ``prismatic`` edge raises InvalidSpec.
    """
    try:
        dim = _integer(doc["dim"], "dim")
        n = _integer(doc["vertices"], "vertices")
        edge_docs = list(doc["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed linkage document: {exc}") from exc

    edges = []
    lengths = []
    for i, e in enumerate(edge_docs):
        try:
            edges.append((_integer(e["u"], f"edge {i} u"), _integer(e["v"], f"edge {i} v")))
            lengths.append(_number(e["length"], f"edge {i} length"))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidSpec(f"malformed edge {i}: {exc}") from exc
        if "prismatic" in e:
            raise InvalidSpec(
                f"edge {i} has a prismatic range; edges have fixed lengths, so analyze "
                "each fiber as a linkage with the variable link's length fixed"
            )

    platform = None
    if doc.get("platform") is not None:
        p = doc["platform"]
        try:
            platform = PlatformSpec(
                branches=tuple(
                    tuple(_integer(i, "platform branch edge") for i in b) for b in p["branches"]
                ),
                fixed=tuple(_integer(v, "platform fixed vertex") for v in p["fixed"]),
                moving=tuple(_integer(v, "platform moving vertex") for v in p["moving"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidSpec(f"malformed platform block: {exc}") from exc

    def optional(key: str) -> Optional[int]:
        return None if doc.get(key) is None else _integer(doc[key], key)

    return Linkage(
        graph=MechanismType(n, tuple(edges)),
        lengths=tuple(lengths),
        ambient_dim=dim,
        base_vertex=_integer(doc.get("base", 0), "base"),
        base_link=optional("base_link"),
        end_effector=optional("effector"),
        platform=platform,
    )


def _edge_vectors(linkage: Linkage, p: np.ndarray) -> np.ndarray:
    """p_u - p_v of every edge at the point array p, (..., N, d), which must
    fit the linkage; returns (..., k, d).  The squared-length map, the
    residual and the Jacobian are all read off these vectors."""
    kernel = linkage._kernel
    return p.take(kernel.u, axis=-2) - p.take(kernel.v, axis=-2)


def _edge_residual(linkage: Linkage, e: np.ndarray) -> np.ndarray:
    """Constraint residual from the (k, d) edge vectors e of one configuration."""
    return np.einsum("ij,ij->i", e, e) - linkage._kernel.target


def _edge_jacobian(linkage: Linkage, e: np.ndarray) -> np.ndarray:
    """Constraint Jacobian from the (k, d) edge vectors e of one configuration."""
    kernel = linkage._kernel
    g = 2.0 * e
    jac = np.zeros((linkage.k, linkage.n_vertices * linkage.ambient_dim))
    jac.put(kernel.u_at, g)
    jac.put(kernel.v_at, -g)
    return jac


def _residual_rows(linkage: Linkage, x: np.ndarray) -> np.ndarray:
    """Constraint residuals of a batch: x is (B, N*d), one flat configuration a
    row; returns (B, k).  Row i equals constraint_residual at row i bit for bit."""
    d = linkage.ambient_dim
    diff = _edge_vectors(linkage, x.reshape(x.shape[0], -1, d)).reshape(-1, d)
    return np.einsum("ij,ij->i", diff, diff).reshape(x.shape[0], linkage.k) - linkage._kernel.target


def _jacobian_rows(linkage: Linkage, x: np.ndarray) -> np.ndarray:
    """Constraint Jacobians of a batch of flat configurations x, (B, N*d);
    returns (B, k, N*d).  Slice i equals constraint_jacobian at row i."""
    kernel = linkage._kernel
    b = x.shape[0]
    g = (2.0 * _edge_vectors(linkage, x.reshape(b, -1, linkage.ambient_dim))).reshape(b, -1)
    jac = np.zeros((b, linkage.k, x.shape[1]))
    flat = jac.reshape(b, -1)
    flat[:, kernel.u_at.reshape(-1)] = g
    flat[:, kernel.v_at.reshape(-1)] = -g
    return jac


def squared_length_map(linkage: Linkage, config: Configuration) -> np.ndarray:
    """Vector of squared endpoint distances, one entry per edge, in edge order."""
    check_match(linkage, config)
    e = _edge_vectors(linkage, config.points)
    return np.einsum("ij,ij->i", e, e)


def constraint_residual(linkage: Linkage, config: Configuration) -> np.ndarray:
    """squared_length_map(V) minus the target squared lengths; zero on the constraint set."""
    check_match(linkage, config)
    return _edge_residual(linkage, _edge_vectors(linkage, config.points))


def constraint_jacobian(linkage: Linkage, config: Configuration) -> np.ndarray:
    """Analytic differential of the squared-length map.

    Row i carries 2(p_u - p_v) in vertex u's column block and the negative in
    vertex v's block; all other entries vanish.  Shape (k, N*d).
    """
    check_match(linkage, config)
    return _edge_jacobian(linkage, _edge_vectors(linkage, config.points))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[..., i, :] @ b[..., i, :] for every row, each the same dot product
    that `@` takes of two vectors."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


_COINCIDENT_BASE_LINK = "base link endpoints coincide; no direction to pin"


def _normalized_points(p: np.ndarray, base_vertex: int, link_end: Optional[int] = None) -> np.ndarray:
    """The gauge kernel: stacked configurations p, (..., N, d), with vertex
    base_vertex translated to the origin and, when link_end is given, the
    base link (base_vertex, link_end) rotated onto +e1.

    Each configuration comes out as the one-configuration formula gives it,
    bit for bit, whatever the stack.  A single configuration, (N, d), keeps
    its norm and, in d=2, its rotation entries in Python floats, computed as
    the stack computes them, with fewer array operations.  Raises
    DegenerateDirection when any configuration's base-link endpoints are
    closer than 1e-12 * (1 + its max |coordinate|).

    Both paths end in a product with the rotations' transposed view, not with a
    contiguous copy of it: the two can round a subnormal coordinate differently.
    """
    q = p - p[..., base_vertex, None, :]
    if link_end is None:
        return q
    direction = q[..., link_end, :]
    if p.ndim == 2:
        norm = math.sqrt(direction @ direction)
        if norm < 1e-12 * (1.0 + np.abs(p).max()):
            raise DegenerateDirection(_COINCIDENT_BASE_LINK)
        return q @ _rotation_to_e1(direction / norm).T
    norm = np.sqrt(_row_dots(direction, direction))  # np.linalg.norm of each
    if (norm < 1e-12 * (1.0 + np.abs(p).max(axis=(-2, -1)))).any():
        raise DegenerateDirection(_COINCIDENT_BASE_LINK)
    rot = _rotation_to_e1(direction / norm[..., None])
    return q @ np.swapaxes(rot, -1, -2)


def _gauge_points(linkage: Linkage, p: np.ndarray) -> np.ndarray:
    """_normalized_points in the linkage's gauge: reduced, with the base link's
    far end on +e1, when it has a base link, pointed otherwise."""
    return _normalized_points(p, linkage.base_vertex, linkage._base_link_end)


def pointed_normalize(config: Configuration, base_vertex: int) -> Configuration:
    """Translate so the base vertex sits at the origin.  Idempotent.  Raises
    InvalidSpec unless base_vertex is an integer id in [0, N)."""
    vertex = check_integer(base_vertex, "base_vertex")
    if not 0 <= vertex < config.n_vertices:
        raise InvalidSpec(f"base_vertex must lie in [0, {config.n_vertices}), got {vertex}")
    return Configuration(_normalized_points(config.points, vertex))


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
    return Configuration(_gauge_points(linkage, config.points))


def _rotation_to_e1(w: np.ndarray) -> np.ndarray:
    """Minimal rotation matrices R, (..., d, d), with R @ w = e1 for the unit
    vectors w, (..., d): in d=2 the rows w and (-w1, w0).

    In d=3 a w whose cross product with e1 is below 1e-14 gets the identity,
    or the half-turn about an axis orthogonal to w when it points away from
    e1; both cases are masks over the stack.
    """
    if w.shape == (2,):  # one planar vector: the entries below, as Python floats
        w0, w1 = w.tolist()
        return np.array([[w0, w1], [-w1, w0]])
    if w.shape[-1] == 2:
        return np.stack([w, w[..., ::-1] * (-1.0, 1.0)], axis=-2)
    shape = w.shape[:-1]
    w = w.reshape(-1, 3)
    c = w[:, 0]  # w @ e1, up to the sign of a zero, which no use below reads
    axis = np.cross(w, np.eye(3)[0])
    s = np.sqrt(_row_dots(axis, axis))
    rot = np.empty((len(w), 3, 3))
    turn = s >= 1e-14
    axis = axis[turn] / s[turn, None]
    kmat = np.zeros((len(axis), 3, 3))
    kmat[:, 0, 1], kmat[:, 0, 2] = -axis[:, 2], axis[:, 1]
    kmat[:, 1, 0], kmat[:, 1, 2] = axis[:, 2], -axis[:, 0]
    kmat[:, 2, 0], kmat[:, 2, 1] = -axis[:, 1], axis[:, 0]
    rot[turn] = np.eye(3) + s[turn, None, None] * kmat + (1.0 - c[turn])[:, None, None] * (kmat @ kmat)
    rot[~turn & (c > 0.0)] = np.eye(3)
    flip = ~turn & ~(c > 0.0)
    wf = w[flip]
    perp = np.eye(3)[np.argmin(np.abs(wf), axis=1)]
    perp = perp - _row_dots(perp, wf)[:, None] * wf
    perp = perp / np.sqrt(_row_dots(perp, perp))[:, None]
    rot[flip] = 2.0 * (perp[:, :, None] * perp[:, None, :]) - np.eye(3)
    return rot.reshape(*shape, 3, 3)
