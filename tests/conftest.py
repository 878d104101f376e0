import math
from typing import Callable, Optional

import numpy as np
import pytest

from linkctl.chains import _check_angle
from linkctl.classify import ClassificationReport, PlatformCondition, Verdict, _meeting_point
from linkctl.decomp import ChainRemoval, Tolerances
from linkctl.errors import DegenerateDirection, InvalidSpec
from linkctl.model import Configuration, Linkage, MechanismType, SubspaceBasis


def assert_verdict_fits_rank(report: ClassificationReport) -> None:
    """Smooth exactly at full constraint rank, so GenericSingular only below
    it: no search result may contradict the rank test."""
    assert (report.verdict is Verdict.SMOOTH) == (report.rank == report.k), (
        report.verdict, report.rank, report.k
    )


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


def hinge() -> tuple[Linkage, Configuration]:
    """Two triangles in R^3 hinged on their shared edge 0-1: the reduced
    configuration space is a circle, the dihedral angle."""
    points = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.7, 1.1, 0.2], [1.3, -0.4, 0.9]])
    edges = ((0, 1), (1, 2), (2, 0), (0, 3), (1, 3))
    lengths = tuple(float(np.linalg.norm(points[u] - points[v])) for u, v in edges)
    return Linkage(MechanismType(4, edges), lengths, 3, base_link=0), Configuration(points)


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


def stress_matrix(linkage: Linkage, mu: np.ndarray) -> np.ndarray:
    """Omega(mu) = sum_e mu_e L_e (x) I_d, with L_e the graph Laplacian of
    edge e: the Hessian of mu . g / 2, g the squared-length map."""
    k, n = linkage.k, linkage.n_vertices
    edges = np.array(linkage.graph.edges, dtype=int).reshape(k, 2)
    incidence = np.zeros((k, n))  # row e is e_u - e_v, so L_e is its outer square
    incidence[np.arange(k), edges[:, 0]] = 1.0
    incidence[np.arange(k), edges[:, 1]] = -1.0
    return np.kron(incidence.T @ (mu[:, None] * incidence), np.eye(linkage.ambient_dim))


def reference_gauss_newton(residual_fn, jacobian_fn, x0, tol, max_iter, tol_rank=1e-8, chord=False, log=None):
    """numeric's damped Gauss-Newton step rule as a loop of its own, on a
    system given as residual and Jacobian functions of a flat point.

    With chord, every step after the first first tries the solve of the last
    Jacobian a full step was taken with, its SVD taken afresh, and keeps it
    when it cuts |r|^2 at least fourfold.
    A rejected full step chooses the shorter one on the residual's exact
    quadratic along the step, r + t*b + t*t*c with b = J delta and
    c = r(x + delta) - r - b, then evaluates the residual at the step taken.
    log, when given, gets an (event, iterate) pair for each iteration,
    ("full step", "shorter step" or "chord step", the new iterate), and for a
    failure, ("line search stalled" or "max_iter", the iterate it stopped at).
    """
    from linkctl.errors import NoConvergence
    from linkctl.numeric import _svd_solve, _truncated_svd

    note = log.append if log is not None else lambda event: None
    x = np.array(x0, dtype=float)
    r = residual_fn(x)
    if np.max(np.abs(r), initial=0.0) < tol:
        return x
    last_jac = None
    for _ in range(max_iter):
        phi = float(r @ r)
        if last_jac is not None:
            x_new = x - _svd_solve(_truncated_svd(last_jac, tol_rank), r)
            r_new = residual_fn(x_new)
            if float(r_new @ r_new) <= phi / 4.0:
                x, r = x_new, r_new
                note(("chord step", x))
                if np.max(np.abs(r)) < tol:
                    return x
                continue
        jac = jacobian_fn(x)
        if chord:
            last_jac = jac
        delta = -_svd_solve(_truncated_svd(jac, tol_rank), r)
        slope = float(2.0 * (jac.T @ r) @ delta)
        alpha = 1.0
        x_new = x + delta
        r_new = residual_fn(x_new)
        if not float(r_new @ r_new) <= phi + 1e-4 * slope:
            b = jac @ delta
            c = r_new - r - b
            while True:
                alpha *= 0.5
                if alpha < 1e-12:
                    note(("line search stalled", x))
                    raise NoConvergence("line search stalled")
                model = r + alpha * b + alpha * alpha * c
                if float(model @ model) <= phi + 1e-4 * alpha * slope:
                    break
            x_new = x + alpha * delta
            r_new = residual_fn(x_new)
        x, r = x_new, r_new
        note(("full step" if alpha == 1.0 else "shorter step", x))
        if np.max(np.abs(r)) < tol:
            return x
    note(("max_iter", x))
    raise NoConvergence(f"no convergence after {max_iter} iterations (|r|_inf={np.max(np.abs(r)):.3g})")


def self_stressed_linkage(
    rng: np.random.Generator, dim: int, max_vertices: int = 7, min_link: float = 1e-2
) -> Optional[tuple[Linkage, Configuration]]:
    """A random linkage placed where it has a self-stress, or None.

    A self-stress is a unit mu with J(x)^T mu = 0, J the constraint Jacobian.
    reference_gauss_newton runs over (x, mu) on J(x)^T mu = 0 and |mu|^2 = 1, from a
    random_linkage placement and a random unit mu.  Its Jacobian is
    [[2 Omega(mu), J^T], [0, 2 mu^T]], with Omega(mu) from stress_matrix.
    The lengths are read off the converged points.  None when Gauss-Newton
    fails, when the result has full rank, when its longest link is shorter
    than min_link of the drawn placement's longest (the points collapsed), or
    when a link is shorter than min_link of the longest.
    """
    from linkctl.errors import NoConvergence
    from linkctl.model import constraint_jacobian
    from linkctl.numeric import numerical_rank

    drawn, start = random_linkage(rng, max_vertices, dim)
    n, k = drawn.n_vertices, drawn.k
    edges = np.array(drawn.graph.edges)
    mu0 = rng.normal(size=k)

    def split(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return z[: n * dim], z[n * dim :]

    def residual(z: np.ndarray) -> np.ndarray:
        x, mu = split(z)
        return np.append(constraint_jacobian(drawn, Configuration(x.reshape(n, dim))).T @ mu, mu @ mu - 1.0)

    def jacobian(z: np.ndarray) -> np.ndarray:
        x, mu = split(z)
        jac = constraint_jacobian(drawn, Configuration(x.reshape(n, dim)))
        top = np.hstack([2.0 * stress_matrix(drawn, mu), jac.T])
        return np.vstack([top, np.append(np.zeros(n * dim), 2.0 * mu)])

    try:
        z = reference_gauss_newton(residual, jacobian, np.append(start.flat, mu0 / np.linalg.norm(mu0)), 1e-12, 100)
    except NoConvergence:
        return None
    points = split(z)[0].reshape(n, dim)
    lengths = np.linalg.norm(points[edges[:, 0]] - points[edges[:, 1]], axis=1)
    if lengths.max() < min_link * max(drawn.lengths) or lengths.min() < min_link * lengths.max():
        return None
    linkage = Linkage(drawn.graph, tuple(lengths), ambient_dim=dim)
    config = Configuration(points)
    if numerical_rank(constraint_jacobian(linkage, config)) == k:
        return None
    return linkage, config


# The octahedron's edges: the base triangle 0-1-2, the top triangle 3-4-5,
# and the legs, two from each top vertex; and four of its faces, every edge
# on exactly one of them.
OCTAHEDRON_EDGES = ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5))
_ALTERNATE_FACES = ((0, 1, 2), (1, 3, 4), (2, 4, 5), (0, 5, 3))


def octahedral_linkage(points: np.ndarray) -> tuple[Linkage, Configuration]:
    """The octahedral platform on six points of R^3, its lengths read off
    them: base 0, effector 1, no base link."""
    lengths = tuple(float(np.linalg.norm(points[u] - points[v])) for u, v in OCTAHEDRON_EDGES)
    linkage = Linkage(MechanismType(6, OCTAHEDRON_EDGES), lengths, ambient_dim=3, end_effector=1)
    return linkage, Configuration(points)


def blaschke_determinant(points: np.ndarray) -> float:
    """The 4x4 determinant of the unit plane equations (n, -n.a) of the
    octahedron's faces 0-1-2, 1-3-4, 2-4-5 and 0-5-3 at the six points.  It
    vanishes exactly where the four planes meet in a point, which is where
    the octahedron is infinitesimally flexible (Blaschke)."""
    rows = []
    for a, b, c in _ALTERNATE_FACES:
        n = np.cross(points[b] - points[a], points[c] - points[a])
        n /= np.linalg.norm(n)
        rows.append(np.append(n, -n @ points[a]))
    return float(np.linalg.det(np.array(rows)))


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


def chain_linkage(lengths, dim: int = 2) -> Linkage:
    """Open chain of the given link lengths: a path on len(lengths)+1
    vertices, with base 0, base link 0 and the effector at the far end."""
    n = len(lengths) + 1
    return Linkage(
        MechanismType(n, tuple((i, i + 1) for i in range(n - 1))),
        lengths,
        ambient_dim=dim,
        base_vertex=0,
        base_link=0,
        end_effector=n - 1,
    )


def aligned_closed_chain(rng: np.random.Generator, d: int = 2):
    """Random aligned closed chain: (lengths, aligned configuration, sign
    pattern).  The n fixed links run from point i to point i + 1 of the n + 1
    points, and the last length, the variable link, closes the loop from
    point n back to point 0."""
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
    return tuple(float(x) for x in lengths) + (total,), pts, signs


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


def reference_rotation_taking(w: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Reference minimal rotation matrix carrying unit vector w onto unit
    vector target, one vector at a time."""
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


# The infinitesimal rotations of R^d as skew matrices: in d=2 the quarter
# turn, in d=3 the rotations about e1, e2 and e3 (the one about e_a maps x
# to the cross product e_a x x).
REFERENCE_ROTATION_GENERATORS = {
    2: [np.array([[0.0, -1.0], [1.0, 0.0]])],
    3: [
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]),
        np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
        np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    ],
}


def reference_gauge_vectors(points: np.ndarray) -> np.ndarray:
    """Reference rigid-motion fields at the (N, d) points, one flat row each:
    the d unit translations, then for each rotation generator K the field
    K @ p, built one point at a time."""
    n, d = points.shape
    rows = []
    for j in range(d):
        t = np.zeros((n, d))
        t[:, j] = 1.0
        rows.append(t.reshape(-1))
    for k in REFERENCE_ROTATION_GENERATORS[d]:
        rows.append(np.concatenate([k @ p for p in points]))
    return np.stack(rows)


def reference_reduced_normalize(linkage: Linkage, config: Configuration) -> Configuration:
    """Reference reduced gauge for one configuration: the base vertex at the
    origin and the base link rotated onto the first axis."""
    from linkctl.errors import DegenerateDirection

    u, v = linkage.graph.edges[linkage.base_link]
    other = v if u == linkage.base_vertex else u
    p = config.points - config.points[linkage.base_vertex]
    direction = p[other]
    norm = float(np.linalg.norm(direction))
    scale = 1.0 + float(np.max(np.abs(config.points)))
    if norm < 1e-12 * scale:
        raise DegenerateDirection("base link endpoints coincide; no direction to pin")
    e1 = np.zeros(linkage.ambient_dim)
    e1[0] = 1.0
    return Configuration(p @ reference_rotation_taking(direction / norm, e1).T)


def reference_gauge_fix(linkage: Linkage, config: Configuration) -> Configuration:
    """Reference gauge: reduced with a base link, pointed without."""
    if linkage.base_link is not None:
        return reference_reduced_normalize(linkage, config)
    return Configuration(config.points - config.points[linkage.base_vertex])


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
    from linkctl.numeric import BranchReport, project_to_cspace, tangent_frame

    note = log.append if log is not None else lambda event: None
    r = radius if radius is not None else 1e-2 * min(linkage.lengths, default=1.0)
    center = reference_gauge_fix(linkage, project_to_cspace(linkage, config, tol=1e-12))
    frame = tangent_frame(linkage, center, tol_rank)

    def retract(flat: np.ndarray) -> Configuration:
        return project_to_cspace(
            linkage,
            Configuration.from_flat(flat, linkage.ambient_dim),
            tol=1e-12,
            max_iter=60,
            tol_rank=tol_rank,
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
                    w = reference_gauge_fix(linkage, retract(flat))
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


def reference_is_aligned(points: np.ndarray, tol: float = 1e-6) -> Optional[np.ndarray]:
    """Reference alignment test of one chain of points: np.diff links, each
    divided by its np.linalg.norm, against the first link's direction."""
    _check_angle(tol, "tol")
    points = np.asarray(points, dtype=float)
    if len(points) < 2:
        raise InvalidSpec("is_aligned needs at least one link")
    vecs = np.diff(points, axis=0)
    norms = np.linalg.norm(vecs, axis=1)
    if np.any(norms < 1e-12 * (1.0 + norms.sum())):
        raise DegenerateDirection("chain has a zero-length link")
    dirs = vecs / norms[:, None]
    w = dirs[0]
    if np.all(np.abs(dirs @ w) >= math.cos(tol)):
        return w
    return None


def reference_branch_path(linkage: Linkage, branch) -> list[int]:
    """A platform branch's vertex path, walked edge by edge from the end of
    its first edge that is a fixed vertex."""
    edges = [linkage.graph.edges[i] for i in branch]
    u, v = edges[0]
    path = [u if u in linkage.platform.fixed else v]
    for u, v in edges:
        assert path[-1] in (u, v), "branch edges do not form a path"
        path.append(v if u == path[-1] else u)
    return path


def reference_platform_conditions(
    linkage: Linkage, config: Configuration, tols: Tolerances = Tolerances()
) -> Optional[PlatformCondition]:
    """Reference platform test: each branch's path walked and its alignment
    tested on its own, then the pair test and the meeting point."""
    assert linkage.platform is not None and len(linkage.platform.branches) == 3
    p = config.points
    aligned_lines = {}
    for idx, branch in enumerate(linkage.platform.branches):
        pts = p[reference_branch_path(linkage, branch)]
        try:
            w = reference_is_aligned(pts, tol=tols.align)
        except DegenerateDirection:
            w = None
        if w is not None:
            aligned_lines[idx] = (pts[0], w)

    offset_tol = 1e-8 * (1.0 + linkage.length_scale)
    cos_tol = np.cos(tols.align)
    for i in range(3):
        for j in range(i + 1, 3):
            if i in aligned_lines and j in aligned_lines:
                (pi, wi), (pj, wj) = aligned_lines[i], aligned_lines[j]
                if abs(float(wi @ wj)) >= cos_tol:
                    perp = float(abs((pj - pi)[0] * wi[1] - (pj - pi)[1] * wi[0]))
                    if perp < offset_tol:
                        return PlatformCondition("a", (i, j))

    if len(aligned_lines) == 3:
        lines = [aligned_lines[i] for i in range(3)]
        meet = _meeting_point(lines, 1e-6 * (1.0 + linkage.length_scale))
        if meet is not None:
            return PlatformCondition("b", (0, 1, 2), point=meet)
    return None


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


def reference_lens_arms(linkage: Linkage) -> tuple[np.ndarray, list[float], np.ndarray, list[float]]:
    """Reference for cli._two_anchor_chains: the cycle walked one link at a
    time over its own incidence lists, from the base vertex and from the far
    end of the base link, off the base link, to the effector; raises the
    same InvalidSpec messages."""
    if linkage.base_link is None or linkage.end_effector is None:
        raise InvalidSpec("workspace of a linkage needs base_link and effector")
    edges = linkage.graph.edges
    incident = [[i for i, e in enumerate(edges) if v in e] for v in range(linkage.n_vertices)]
    seen, stack = {0}, [0]
    while stack:
        vertex = stack.pop()
        for i in incident[vertex]:
            nb = sum(edges[i]) - vertex
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != linkage.n_vertices or any(len(inc) != 2 for inc in incident):
        raise InvalidSpec("lens workspace is implemented for cycle mechanisms")
    u, v = edges[linkage.base_link]
    far = v if u == linkage.base_vertex else u
    if linkage.end_effector == far:
        raise InvalidSpec(f"lens workspace needs an effector off the base link, not its far end {far}")

    def walk(vertex: int) -> list[float]:
        lengths, prev = [], linkage.base_link
        while vertex != linkage.end_effector:
            prev = next(i for i in incident[vertex] if i != prev)
            vertex = sum(edges[prev]) - vertex
            lengths.append(linkage.lengths[prev])
        return lengths

    ground = linkage.lengths[linkage.base_link]
    return np.array([0.0, 0.0]), walk(linkage.base_vertex), np.array([ground, 0.0]), walk(far)


def collinear_polygon(rng: np.random.Generator, n: int, d: int) -> tuple[Linkage, Configuration, tuple[int, int]]:
    """A collinear pose of an n-gon in R^d, its lengths on the wall by
    construction: (linkage, pose, (a, b)), with a links pointing forward
    along the line and b backward.

    n points are drawn on a line at least 0.05 apart, link i runs from point
    i to point i + 1 (mod n) and its length is their distance, so the signed
    lengths sum to zero.  The pose is then moved by a random rigid motion
    and a mirror image, and the vertices are relabeled cyclically; base 0
    and its outgoing link as the base link.
    """
    while True:
        x = rng.uniform(-2.0, 2.0, n)
        if np.min(np.diff(np.sort(x))) >= 0.05:
            break
    steps = np.roll(x, -1) - x
    a = int(np.sum(steps > 0))
    rotation, upper = np.linalg.qr(rng.normal(size=(d, d)))
    rotation *= np.sign(np.diag(upper))  # a Haar-random orthogonal matrix
    if np.linalg.det(rotation) < 0:
        rotation[:, 0] *= -1.0  # a rotation
    mirror = np.diag([-1.0] + [1.0] * (d - 1))
    moved = (np.outer(x, np.eye(d)[0]) @ rotation.T) @ mirror + rng.uniform(-1.0, 1.0, d)
    shift = int(rng.integers(n))
    points = np.empty_like(moved)
    points[(np.arange(n) + shift) % n] = moved
    edges = tuple(((i + shift) % n, (i + 1 + shift) % n) for i in range(n))
    lengths = tuple(float(abs(s)) for s in steps)
    linkage = Linkage(
        MechanismType(n, edges), lengths, ambient_dim=d, base_vertex=0, base_link=(n - shift) % n
    )
    return linkage, Configuration(points), (a, n - a)
