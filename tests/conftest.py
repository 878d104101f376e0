from typing import Callable, Optional

import numpy as np
import pytest

from linkctl.decomp import ChainRemoval
from linkctl.model import Configuration, Linkage, MechanismType, SubspaceBasis


def four_bar(lengths=(3.0, 2.5, 1.5, 2.0)) -> Linkage:
    return Linkage(
        MechanismType(4, ((0, 1), (1, 2), (2, 3), (3, 0))),
        lengths,
        ambient_dim=2,
        base_vertex=0,
        base_link=0,
        end_effector=2,
    )


def four_bar_node() -> Configuration:
    return Configuration([(0.0, 0.0), (3.0, 0.0), (0.5, 0.0), (2.0, 0.0)])


def triangle(lengths=(3.0, 4.0, 5.0)) -> Linkage:
    return Linkage(MechanismType(3, ((0, 1), (1, 2), (2, 0))), lengths, ambient_dim=2)


def egsing_linkage() -> tuple[Linkage, Configuration]:
    """Four-bar 0-1-2-3 at its node, braced by the triangle 0-3-4 and the
    stretched two-chain 4-5-1.

    The stretched chain restricts theta, the angle of link 0-3, to
    theta <= 0 and keeps both four-bar branches, so the configuration has
    four half-branches that are pairwise tangent (a tacnode): singular, and
    not a generic crossing.
    """
    r = float(np.sqrt(3.25))
    linkage = Linkage(
        MechanismType(6, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (3, 4), (4, 5), (5, 1))),
        (3.0, 2.5, 1.5, 2.0, r, r, 1.0, 1.5),
        ambient_dim=2,
        base_vertex=0,
        base_link=0,
        end_effector=2,
    )
    config = Configuration(
        [(0.0, 0.0), (3.0, 0.0), (0.5, 0.0), (2.0, 0.0), (1.0, 1.5), (1.8, 0.9)]
    )
    return linkage, config


def random_linkage(
    rng: np.random.Generator, max_vertices: int = 8, dim: Optional[int] = None
) -> tuple[Linkage, Configuration]:
    """Random connected linkage with lengths realized by a random placement.

    The ambient dimension is drawn from {2, 3} unless ``dim`` fixes it.
    Spanning-tree edges are listed as (u, v) with u > v; extra edges in
    either order.
    """
    n = int(rng.integers(2, max_vertices + 1))
    d = int(rng.choice([2, 3])) if dim is None else dim
    points = rng.uniform(-2.0, 2.0, (n, d))
    edges = [(i, int(rng.integers(0, i))) for i in range(1, n)]  # random spanning tree
    extra = int(rng.integers(0, n))
    seen = {frozenset(e) for e in edges}
    for _ in range(extra):
        u, v = rng.integers(0, n, 2)
        if u != v and frozenset((int(u), int(v))) not in seen:
            edges.append((int(u), int(v)))
            seen.add(frozenset((int(u), int(v))))
    lengths = [float(np.linalg.norm(points[u] - points[v])) for u, v in edges]
    if min(lengths) < 1e-3:
        return random_linkage(rng, max_vertices, dim)
    linkage = Linkage(MechanismType(n, tuple(edges)), tuple(lengths), ambient_dim=d)
    return linkage, Configuration(points)


def reference_length_map(linkage: Linkage, config: Configuration) -> np.ndarray:
    """Reference squared-length map, with the edge index arrays rebuilt on every call."""
    p = config.points
    u = np.array([e[0] for e in linkage.graph.edges], dtype=int)
    v = np.array([e[1] for e in linkage.graph.edges], dtype=int)
    diff = p[u] - p[v]
    return np.einsum("ij,ij->i", diff, diff)


def reference_residual(linkage: Linkage, config: Configuration) -> np.ndarray:
    """Reference constraint residual."""
    return reference_length_map(linkage, config) - linkage.squared_lengths()


def reference_jacobian(linkage: Linkage, config: Configuration) -> np.ndarray:
    """Reference constraint Jacobian, filled one edge at a time."""
    p = config.points
    n, d = p.shape
    jac = np.zeros((linkage.k, n * d))
    for i, (u, v) in enumerate(linkage.graph.edges):
        g = 2.0 * (p[u] - p[v])
        jac[i, u * d : (u + 1) * d] = g
        jac[i, v * d : (v + 1) * d] = -g
    return jac


def random_open_chain(rng: np.random.Generator, k: int, d: int) -> np.ndarray:
    """Random open-chain configuration for unit tests, rooted at the origin."""
    dirs = rng.normal(size=(k, d))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    lengths = rng.uniform(0.5, 2.0, k)
    return np.vstack([np.zeros(d), np.cumsum(dirs * lengths[:, None], axis=0)])


def aligned_closed_chain(rng: np.random.Generator, d: int = 2):
    """Random aligned closed chain: (spec, aligned configuration, sign pattern)."""
    from linkctl.chains import ChainKind, ChainSpec

    while True:
        n = int(rng.integers(2, 7))
        lengths = rng.uniform(0.5, 2.0, n)
        signs = rng.choice([-1.0, 1.0], n)
        total = float(np.sum(signs * lengths))
        if abs(total) > 0.1:
            break
    if total < 0:
        signs, total = -signs, -total
    w = rng.normal(size=d)
    w /= np.linalg.norm(w)
    pts = np.zeros((n + 1, d))
    for i in range(n):
        pts[i + 1] = pts[i] + signs[i] * lengths[i] * w
    spec = ChainSpec(ChainKind.CLOSED, tuple(lengths) + (total,), d)
    return spec, pts, signs


def reach_oracle(lengths, d: int, n_samples: int = 20000, seed: int = 0):
    """Brute-force reachable-distance sampling for open chains."""
    rng = np.random.default_rng(seed)
    k = len(lengths)
    if d == 2:
        ang = rng.uniform(-np.pi, np.pi, (n_samples, k))
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=2)
    else:
        dirs = rng.normal(size=(n_samples, k, 3))
        dirs /= np.linalg.norm(dirs, axis=2)[:, :, None]
    ends = np.sum(dirs * np.asarray(lengths)[None, :, None], axis=1)
    dist = np.linalg.norm(ends, axis=1)
    return float(dist.min()), float(dist.max()), dist


@pytest.fixture
def fb():
    return four_bar()


@pytest.fixture
def fb_node():
    return four_bar_node()


@pytest.fixture
def egsing():
    return egsing_linkage()


def reference_local_branch_count(
    linkage: Linkage,
    config: Configuration,
    radius: Optional[float] = None,
    n_samples: int = 48,
    seed: int = 0,
    cluster_factor: float = 0.25,
    tol_rank: float = 1e-8,
    log: Optional[list] = None,
):
    """numeric.local_branch_count as a per-sample loop: each sample is
    retracted on its own by project_to_cspace, and the points are clustered by
    union-find over every pair.

    log, when given, gets one event for each retraction a sample takes:
    "kept", "rescaled", "no convergence" or "collapsed", and "out of rounds"
    for a sample still off the sphere after 8 rounds.
    """
    from linkctl.errors import NoConvergence
    from linkctl.numeric import (
        BranchReport,
        _gauge_fix,
        project_to_cspace,
        tangent_frame,
    )

    note = log.append if log is not None else lambda event: None
    r = radius if radius is not None else 1e-2 * min(linkage.lengths)
    center = _gauge_fix(linkage, project_to_cspace(linkage, config, tol=1e-12))
    frame = tangent_frame(linkage, center, tol_rank)

    def retract(flat: np.ndarray) -> Configuration:
        return project_to_cspace(
            linkage,
            Configuration.from_flat(flat, linkage.ambient_dim),
            tol=1e-12,
            max_iter=60,
            tol_rank=tol_rank,
            preserve_pointed=False,
        )

    def collect(rad: float) -> list[np.ndarray]:
        if frame.dim == 0:
            return []
        pts = []
        for i in range(n_samples):
            rng = np.random.default_rng([seed, i])
            coeff = rng.normal(size=frame.dim)
            nrm = np.linalg.norm(coeff)
            if nrm < 1e-12:
                continue
            delta = (coeff / nrm) @ frame.basis * rad
            flat = center.flat + delta
            for _ in range(8):
                try:
                    w = _gauge_fix(linkage, retract(flat))
                except NoConvergence:
                    note("no convergence")
                    break
                offset = w.flat - center.flat
                dist = float(np.linalg.norm(offset))
                if dist < 0.05 * rad:
                    note("collapsed")
                    break
                if abs(dist - rad) <= 0.1 * rad:
                    note("kept")
                    pts.append(w.flat)
                    break
                note("rescaled")
                flat = center.flat + offset * (rad / dist)
            else:
                note("out of rounds")
        return pts

    def count(pts: list[np.ndarray], rad: float) -> tuple[int, list[int]]:
        n = len(pts)
        if n == 0:
            return 0, []
        parent = list(range(n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        thresh = cluster_factor * rad
        for a in range(n):
            for b in range(a + 1, n):
                if np.linalg.norm(pts[a] - pts[b]) < thresh:
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[ra] = rb
        sizes: dict[int, int] = {}
        for a in range(n):
            root = find(a)
            sizes[root] = sizes.get(root, 0) + 1
        return len(sizes), sorted(sizes.values(), reverse=True)

    pts_r = collect(r)
    n_branches, sizes = count(pts_r, r)
    n_half, _ = count(collect(0.5 * r), 0.5 * r)
    return BranchReport(
        radius=r,
        sample_count=len(pts_r),
        branch_count=n_branches,
        cluster_sizes=tuple(sizes),
        stable=(n_branches == n_half),
        halved_branch_count=n_half,
    )


def reference_enumerate_chain_removals(graph: MechanismType) -> list[ChainRemoval]:
    """Reference removal enumeration: its own adjacency, edge and degree maps,
    and a remainder connectivity walk over a sub-adjacency built per path."""
    assert graph.is_connected()
    edge_of = {frozenset(e): i for i, e in enumerate(graph.edges)}
    adj: dict[int, list[int]] = {v: [] for v in range(graph.vertex_count)}
    for u, w in graph.edges:
        adj[u].append(w)
        adj[w].append(u)
    degree = {v: len(adj[v]) for v in adj}

    paths: list[tuple[int, ...]] = []

    def extend(path: list[int]) -> None:
        if len(path) >= 2 and path[0] < path[-1]:
            paths.append(tuple(path))
        tail = path[-1]
        if len(path) >= 2 and degree[tail] != 2:
            return
        for nxt in adj[tail]:
            if nxt in path:
                continue
            path.append(nxt)
            extend(path)
            path.pop()

    for start in range(graph.vertex_count):
        extend([start])

    removals = []
    for path in paths:
        chain_edges = tuple(edge_of[frozenset((path[i], path[i + 1]))] for i in range(len(path) - 1))
        interior = set(path[1:-1])
        rem_vertices = tuple(v for v in range(graph.vertex_count) if v not in interior)
        rem_edges = tuple(i for i in range(graph.edge_count) if i not in set(chain_edges))
        if not rem_edges:
            continue
        sub_adj: dict[int, list[int]] = {v: [] for v in rem_vertices}
        for i in rem_edges:
            u, w = graph.edges[i]
            sub_adj[u].append(w)
            sub_adj[w].append(u)
        seen = {rem_vertices[0]}
        stack = [rem_vertices[0]]
        while stack:
            for nb in sub_adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != len(rem_vertices):
            continue
        removals.append(ChainRemoval(path, chain_edges, rem_vertices, rem_edges))
    removals.sort(key=lambda r: r.chain_edges)
    return removals


def pointed_frame(linkage: Linkage, config: Configuration, tol_rank: float = 1e-8) -> np.ndarray:
    """Orthonormal rows of the pointed tangent space: the constraint
    Jacobian's null rows with the d translations projected out."""
    from linkctl.numeric import _null_space, _orthonormal_rows

    null = _null_space(linkage, config, tol_rank)[1]
    # row j moves every vertex by one along axis j (vertex-major coordinates)
    moves = np.kron(np.ones(linkage.n_vertices), np.eye(linkage.ambient_dim))
    translations = _orthonormal_rows(moves)
    return _orthonormal_rows(null - (null @ translations.T) @ translations)


def fd_gradient(
    linkage: Linkage, f: Callable[[Configuration], float], config: Configuration, basis: np.ndarray
) -> np.ndarray:
    """Central-difference gradient of f at config along each row of basis,
    re-projecting each evaluation point onto the constraint set first, with
    the step fd_hessian takes."""
    from linkctl.numeric import _default_step, _retract

    v0 = config.flat
    step = _default_step(config)
    grad = np.zeros(len(basis))
    for i, direction in enumerate(basis):
        fp = f(_retract(linkage, v0 + step * direction, 1e-8))
        fm = f(_retract(linkage, v0 - step * direction, 1e-8))
        grad[i] = (fp - fm) / (2.0 * step)
    return grad


def reference_work_image(
    linkage: Linkage, config: Configuration, base: int, effector: int, tol_rank: float = 1e-8
) -> SubspaceBasis:
    """Reference work image: the effector-minus-base differential over the
    pointed tangent frame."""
    from linkctl.numeric import _orthonormal_rows

    d = linkage.ambient_dim
    basis = pointed_frame(linkage, config, tol_rank)
    if len(basis) == 0:
        return SubspaceBasis(d, np.zeros((0, d)))
    fields = basis.reshape(len(basis), linkage.n_vertices, d)
    rows = fields[:, effector, :] - fields[:, base, :]
    return SubspaceBasis(d, _orthonormal_rows(rows, rel_tol=max(tol_rank, 1e-9)))
