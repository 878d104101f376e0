"""Pullback decompositions: open-chain removals, stage transversality,
generically non-transverse stage detection, and one depth-limited search for
singularity witnesses and smoothness certificates.

A removal splits a mechanism into an open chain (interior vertices of degree
two) and a connected remainder sharing the chain's two endpoints.  A stage is
transverse when the two endpoint work images jointly span the ambient space;
a non-transverse stage is "generically non-transverse" when the chain is
aligned, the remainder is smooth with a nondegenerate critical endpoint
distance, and the endpoints are apart.  A witness is a decomposition whose
deepest stage is generically non-transverse and whose outer removed chains
are all non-aligned; a certificate is a decomposition with every stage
transverse over a full-rank base.

Both are found by the same depth-first walk down the decomposition tree
(``_search``), which differs between the two only in where it stops and
which stages it descends through.  It carries the one host configuration
its caller passed, and every sub-mechanism (``_part``) carries host ids, so
``_build_stage`` returns one (stage, verdict, remainder) record per removal
with no remapping; ``_witness`` derives the stage index and the Euclidean
factor from the stages.  ``find_witness_through`` runs the witness search
with a forced first removal, the platform verifier's entry point.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from .chains import forward_count, is_aligned
from .errors import (
    CoincidentEndpoints,
    DegenerateDirection,
    DimensionMismatch,
    InvalidSpec,
    MismatchedEffector,
    OffConstraint,
)
from .model import (
    Configuration,
    Linkage,
    MechanismType,
    SubspaceBasis,
    check_match,
    check_on_constraint,
    constraint_jacobian,
)
from .numeric import numerical_rank, reduced_work_data, work_image

__all__ = [
    "Tolerances",
    "ChainRemoval",
    "SubMechanism",
    "StageVerdict",
    "StageVerdictKind",
    "DecompositionStage",
    "Decomposition",
    "Witness",
    "enumerate_chain_removals",
    "transversality_check",
    "stage_classify",
    "find_nontransversive_witness",
    "find_witness_through",
    "find_smoothness_certificate",
    "remainder_mechanism",
    "chain_mechanism",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by the classification pipeline.

    tol_grad scales with the total length; the eigenvalue cutoff is the
    larger of 1e-6 times the largest |eigenvalue| and an absolute floor, so
    exactly-zero Hessians are recognized as degenerate; ``depth`` bounds
    every decomposition search.  Raises InvalidSpec unless every threshold
    is finite and >= 0 and the depth is an integer >= 0.
    """

    rank: float = 1e-8
    align: float = 1e-6
    grad_scale: float = 1e-6
    eig_floor: float = 1e-3
    depth: int = 4

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "depth" and not (np.isfinite(value) and value >= 0):
                raise InvalidSpec(f"tolerance {f.name} must be finite and >= 0, got {value}")
        try:
            valid = operator.index(self.depth) >= 0
        except TypeError:
            valid = False
        if not valid:
            raise InvalidSpec(f"search depth must be an integer >= 0, got {self.depth}")

    def grad_tol(self, linkage: Linkage) -> float:
        return self.grad_scale * (1.0 + linkage.length_scale)

    def eig_tol(self, linkage: Linkage, eigs: np.ndarray) -> float:
        rel = 1e-6 * (float(np.max(np.abs(eigs))) if eigs.size else 0.0)
        return max(rel, self.eig_floor / (1.0 + linkage.length_scale))


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


@dataclass(frozen=True)
class SubMechanism:
    """A sub-linkage with its vertex/edge maps back to the host mechanism."""

    linkage: Linkage
    vertex_ids: tuple[int, ...]  # host id of each sub-linkage vertex
    edge_ids: tuple[int, ...]

    def restrict(self, config: Configuration) -> Configuration:
        """The sub-linkage's configuration, from the host's configuration."""
        return Configuration(config.points[list(self.vertex_ids)])


def _whole(linkage: Linkage) -> SubMechanism:
    return SubMechanism(
        linkage=linkage,
        vertex_ids=tuple(range(linkage.n_vertices)),
        edge_ids=tuple(range(linkage.k)),
    )


def enumerate_chain_removals(graph: MechanismType) -> list[ChainRemoval]:
    """All open-chain removals of a connected graph, in lexicographic edge order.

    Includes non-maximal paths.  A path qualifies when its interior vertices
    have degree exactly two and deleting its edges and interior vertices
    leaves a connected remainder containing both endpoints.
    """
    if not graph.is_connected():
        raise InvalidSpec("chain removal enumeration requires a connected graph")

    paths: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def extend(path: list[int], edges: list[int]) -> None:
        if edges and path[0] < path[-1]:
            paths.append((tuple(path), tuple(edges)))
        tail = path[-1]
        if edges and graph.degree(tail) != 2:
            return  # tail would become an interior vertex of degree != 2
        for nxt, i in graph.adjacency[tail]:
            if nxt in path:
                continue
            path.append(nxt)
            edges.append(i)
            extend(path, edges)
            path.pop()
            edges.pop()

    for start in range(graph.vertex_count):
        extend([start], [])

    removals = []
    for path, chain_edges in paths:
        chain = set(chain_edges)
        rem_edges = tuple(i for i in range(graph.edge_count) if i not in chain)
        if not rem_edges:
            continue
        interior = set(path[1:-1])
        rem_vertices = tuple(v for v in range(graph.vertex_count) if v not in interior)
        # an interior vertex has degree two, both its edges in the chain, so a
        # walk that skips chain edges stays in the remainder
        if len(graph.reachable(path[0], chain)) != len(rem_vertices):
            continue
        removals.append(
            ChainRemoval(
                chain_vertices=path,
                chain_edges=chain_edges,
                remainder_vertices=rem_vertices,
                remainder_edges=rem_edges,
            )
        )
    removals.sort(key=lambda r: r.chain_edges)
    return removals


def _part(
    sub: SubMechanism,
    vertices: tuple[int, ...],
    edges: tuple[int, ...],
    ends: tuple[int, int],
) -> SubMechanism:
    """The part of ``sub`` on the given vertices and edges (in ``sub``'s ids),
    based at ends[0] with effector ends[1], its id maps composed with
    ``sub``'s so that they give host ids."""
    host = sub.linkage
    index = {v: i for i, v in enumerate(vertices)}
    sub_edges = tuple((index[host.graph.edges[i][0]], index[host.graph.edges[i][1]]) for i in edges)
    linkage = Linkage(
        graph=MechanismType(len(vertices), sub_edges),
        lengths=tuple(host.lengths[i] for i in edges),
        ambient_dim=host.ambient_dim,
        base_vertex=index[ends[0]],
        base_link=None,
        end_effector=index[ends[1]],
    )
    return SubMechanism(
        linkage=linkage,
        vertex_ids=tuple(sub.vertex_ids[v] for v in vertices),
        edge_ids=tuple(sub.edge_ids[i] for i in edges),
    )


def remainder_mechanism(host: Linkage, removal: ChainRemoval) -> SubMechanism:
    """The remainder as a sub-linkage, based at the smaller shared endpoint."""
    ends = removal.endpoints
    return _part(_whole(host), removal.remainder_vertices, removal.remainder_edges, ends)


def chain_mechanism(host: Linkage, removal: ChainRemoval) -> SubMechanism:
    """The removed chain as an open-chain sub-linkage along its path order."""
    ends = removal.endpoints
    return _part(_whole(host), removal.chain_vertices, removal.chain_edges, ends)


class StageVerdictKind(enum.Enum):
    TRANSVERSE = "transverse"
    GENERICALLY_NON_TRANSVERSE = "generically_non_transverse"
    DEGENERATE_NON_TRANSVERSE = "degenerate_non_transverse"


@dataclass(frozen=True)
class StageVerdict:
    """Outcome of the transversality test for one (remainder, chain) stage.
    ``chain_aligned`` is set on every stage, and a zero-length link counts
    as aligned; the direction is the links' common one, when they have one."""

    kind: StageVerdictKind
    remainder_image: SubspaceBasis
    chain_image: SubspaceBasis
    chain_aligned: bool
    chain_aligned_direction: Optional[np.ndarray] = None
    gradient_norm: Optional[float] = None
    hessian_eigenvalues: Optional[np.ndarray] = None
    remainder_signature: Optional[tuple[int, int]] = None
    chain_signature: Optional[tuple[int, int]] = None
    signature: Optional[tuple[int, int]] = None
    reasons: tuple[str, ...] = ()


def transversality_check(
    image_a: SubspaceBasis,
    image_b: SubspaceBasis,
    d: int,
    tol_rank: float = 1e-8,
) -> bool:
    """True iff the two subspaces jointly span the ambient space."""
    if image_a.ambient_dim != d or image_b.ambient_dim != d:
        raise DimensionMismatch("image bases must live in the ambient dimension")
    stacked = np.vstack([image_a.vectors, image_b.vectors])
    if stacked.shape[0] == 0:
        return d == 0
    return numerical_rank(stacked, tol_rank) == d


def _chain_chord_signature(lam: Linkage, v_k: Configuration, tols: Tolerances) -> tuple[int, int]:
    """(positive, negative) inertia of the chord-length Hessian of an aligned
    open chain on its reduced frame, from the forward/backward pattern:
    with f of its k links along the chord, (d-1)*(k-f) and (d-1)*(f-1)."""
    pts = v_k.points
    chord = pts[-1] - pts[0]
    rho = float(np.linalg.norm(chord))
    if rho < 1e-12 * (1.0 + float(np.max(np.abs(pts)))):
        raise CoincidentEndpoints("aligned chain chord vanishes")
    f = forward_count(pts, chord / rho, tol=tols.align)
    d = lam.ambient_dim
    return ((d - 1) * (lam.k - f), (d - 1) * (f - 1))


def stage_classify(
    gamma_prime: Linkage,
    lam: Linkage,
    v_prime: Configuration,
    v_k: Configuration,
    tols: Tolerances = Tolerances(),
) -> StageVerdict:
    """Classify one pullback stage.

    Transverse when the endpoint work images of remainder and chain span the
    ambient space.  Otherwise generically non-transverse when the chain is
    aligned, the remainder has full constraint rank and a nondegenerate
    critical endpoint-distance, and the shared endpoints are apart; any
    failed condition downgrades the verdict to degenerate, with reasons.
    Raises MismatchedEffector unless the two work points agree to
    1e-8 * (1 + the larger total length).
    """
    check_match(gamma_prime, v_prime)
    check_match(lam, v_k)
    d = gamma_prime.ambient_dim
    if gamma_prime.end_effector is None or lam.end_effector is None:
        raise InvalidSpec("stage linkages need base and effector vertices")

    psi = v_prime.points[gamma_prime.end_effector] - v_prime.points[gamma_prime.base_vertex]
    phi = v_k.points[lam.end_effector] - v_k.points[lam.base_vertex]
    scale = 1.0 + max(gamma_prime.length_scale, lam.length_scale)
    if float(np.linalg.norm(psi - phi)) > 1e-8 * scale:
        raise MismatchedEffector(
            f"work points disagree by {np.linalg.norm(psi - phi):.3g}"
        )

    img_remainder = work_image(
        gamma_prime, v_prime, gamma_prime.base_vertex, gamma_prime.end_effector, tols.rank
    )
    img_chain = work_image(lam, v_k, lam.base_vertex, lam.end_effector, tols.rank)
    aligned = None
    try:
        aligned = is_aligned(v_k, tol=tols.align)
        reasons = [] if aligned is not None else ["chain_not_aligned"]
    except DegenerateDirection:
        reasons = ["chain_degenerate_link"]
    # a zero-length link counts as aligned, so no search descends through it
    # as a non-aligned chain
    chain_aligned = reasons != ["chain_not_aligned"]
    if transversality_check(img_remainder, img_chain, d, tols.rank):
        return StageVerdict(
            StageVerdictKind.TRANSVERSE, img_remainder, img_chain, chain_aligned, aligned
        )

    if float(np.linalg.norm(psi)) < 1e-9 * scale:
        reasons.append("coincident_endpoints")

    rank_rem = numerical_rank(constraint_jacobian(gamma_prime, v_prime), tols.rank)
    if rank_rem < gamma_prime.k:
        reasons.append("remainder_rank_deficient")

    grad_norm = None
    eigs = None
    rem_sig = None
    if "coincident_endpoints" not in reasons:
        data = reduced_work_data(gamma_prime, v_prime, tol_rank=tols.rank)
        grad_norm = float(np.linalg.norm(data.gradient))
        eigs = np.linalg.eigvalsh(data.hessian) if data.hessian.size else np.zeros(0)
        if grad_norm >= tols.grad_tol(gamma_prime):
            reasons.append("remainder_gradient_nonzero")
        cut = tols.eig_tol(gamma_prime, eigs)
        if eigs.size == 0 or np.any(np.abs(eigs) <= cut):
            reasons.append("degenerate_hessian")
        else:
            rem_sig = (int(np.sum(eigs > cut)), int(np.sum(eigs < -cut)))

    if reasons:
        return StageVerdict(
            StageVerdictKind.DEGENERATE_NON_TRANSVERSE,
            img_remainder,
            img_chain,
            chain_aligned,
            chain_aligned_direction=aligned,
            gradient_norm=grad_norm,
            hessian_eigenvalues=eigs,
            reasons=tuple(reasons),
        )

    chain_sig = _chain_chord_signature(lam, v_k, tols)
    signature = (rem_sig[0] + chain_sig[1], rem_sig[1] + chain_sig[0])
    return StageVerdict(
        StageVerdictKind.GENERICALLY_NON_TRANSVERSE,
        img_remainder,
        img_chain,
        chain_aligned,
        chain_aligned_direction=aligned,
        gradient_norm=grad_norm,
        hessian_eigenvalues=eigs,
        remainder_signature=rem_sig,
        chain_signature=chain_sig,
        signature=signature,
    )


@dataclass(frozen=True)
class DecompositionStage(ChainRemoval):
    """One removal step, recorded in the host mechanism's original ids."""

    chain_aligned: bool


@dataclass(frozen=True)
class Decomposition:
    """A rooted branch of the decomposition tree, outermost stage first."""

    stages: tuple[DecompositionStage, ...]
    base_vertices: tuple[int, ...]
    base_edges: tuple[int, ...]


@dataclass(frozen=True)
class Witness:
    """A decomposition whose final stage is generically non-transverse."""

    decomposition: Decomposition
    stage_index: int
    verdict: StageVerdict
    signature: tuple[int, int]
    euclidean_factor: int


def _build_stage(
    sub: SubMechanism,
    config: Configuration,
    removal: ChainRemoval,
    tols: Tolerances,
) -> tuple[DecompositionStage, StageVerdict, SubMechanism]:
    """Classify one removal of ``sub`` at the host configuration: the stage
    and the remainder in host ids, and the stage's verdict."""
    remainder = _part(sub, removal.remainder_vertices, removal.remainder_edges, removal.endpoints)
    chain = _part(sub, removal.chain_vertices, removal.chain_edges, removal.endpoints)
    v_rem, v_chain = remainder.restrict(config), chain.restrict(config)
    verdict = stage_classify(remainder.linkage, chain.linkage, v_rem, v_chain, tols)
    stage = DecompositionStage(
        chain_vertices=chain.vertex_ids,
        chain_edges=chain.edge_ids,
        remainder_vertices=remainder.vertex_ids,
        remainder_edges=remainder.edge_ids,
        chain_aligned=verdict.chain_aligned,
    )
    return stage, verdict, remainder


class _Hit(NamedTuple):
    """A search result: the stages (outermost first), the base, and the
    deepest stage's verdict (None for a certificate)."""

    stages: tuple[DecompositionStage, ...]
    base: SubMechanism
    verdict: Optional[StageVerdict]


def _search(
    sub: SubMechanism,
    config: Configuration,
    depth: int,
    tols: Tolerances,
    certificate: bool,
    memo: dict[tuple[frozenset[int], int], Optional[_Hit]],
) -> Optional[_Hit]:
    """Depth-first walk down the decomposition tree of ``sub`` at the host
    configuration ``config``.

    Removals are visited in lexicographic edge order and the first hit is
    returned.  A certificate stops at a full-rank base and descends through
    transverse stages, ``depth`` counting removals.  A witness stops at a
    generically non-transverse stage and descends through non-aligned
    chains, ``depth`` counting stages.  At depth 0 neither visits a removal.
    """
    key = (frozenset(sub.edge_ids), depth)
    if key in memo:
        return memo[key]
    result: Optional[_Hit] = None
    full_rank = certificate and (
        numerical_rank(constraint_jacobian(sub.linkage, sub.restrict(config)), tols.rank)
        == sub.linkage.k
    )
    if full_rank:
        result = _Hit((), sub, None)
    elif depth > 0:
        for removal in enumerate_chain_removals(sub.linkage.graph):
            try:
                stage, verdict, remainder = _build_stage(sub, config, removal, tols)
            except (CoincidentEndpoints, OffConstraint):
                continue
            if certificate:
                descend = verdict.kind is StageVerdictKind.TRANSVERSE
            elif verdict.kind is StageVerdictKind.GENERICALLY_NON_TRANSVERSE:
                result = _Hit((stage,), remainder, verdict)
                break
            else:
                descend = not stage.chain_aligned and depth > 1
            if not descend:
                continue
            found = _search(remainder, config, depth - 1, tols, certificate, memo)
            if found is not None:
                result = found._replace(stages=(stage,) + found.stages)
                break
    memo[key] = result
    return result


def _decomposition(hit: _Hit) -> Decomposition:
    return Decomposition(
        stages=hit.stages, base_vertices=hit.base.vertex_ids, base_edges=hit.base.edge_ids
    )


def _witness(hit: _Hit, d: int) -> Witness:
    """The witness of a hit: every stage but the last adds (d-1)·links − d to
    the Euclidean factor."""
    return Witness(
        decomposition=_decomposition(hit),
        stage_index=len(hit.stages) - 1,
        verdict=hit.verdict,  # type: ignore[arg-type]
        signature=hit.verdict.signature,  # type: ignore[union-attr]
        euclidean_factor=sum((d - 1) * len(s.chain_edges) - d for s in hit.stages[:-1]),
    )


def find_nontransversive_witness(
    linkage: Linkage,
    config: Configuration,
    tols: Tolerances = Tolerances(),
) -> Optional[Witness]:
    """Depth-first search for a decomposition with a generically
    non-transverse deepest stage and non-aligned chains at all outer stages.

    Deterministic: removals are visited in lexicographic edge order, depth
    first, and the first hit is returned.  None means no witness within
    tols.depth stages, which callers must report as indeterminate, never as
    smooth.
    """
    check_on_constraint(linkage, config)
    hit = _search(_whole(linkage), config, tols.depth, tols, False, {})
    return None if hit is None else _witness(hit, linkage.ambient_dim)


def find_witness_through(
    linkage: Linkage,
    config: Configuration,
    removal: ChainRemoval,
    tols: Tolerances = Tolerances(),
) -> tuple[StageVerdict, Optional[Witness]]:
    """Witness search whose first stage is the given removal of the whole
    mechanism; returns that stage's verdict and the witness, if any.

    A generically non-transverse stage is itself the witness.  A transverse
    stage is followed by the first witness inside its remainder within
    tols.depth stages, after the remainder's residual check.  A degenerate
    stage, or a remainder without a witness, gives None.
    """
    stage, verdict, remainder = _build_stage(_whole(linkage), config, removal, tols)
    hit: Optional[_Hit] = None
    if verdict.kind is StageVerdictKind.GENERICALLY_NON_TRANSVERSE:
        hit = _Hit((), remainder, verdict)
    elif verdict.kind is StageVerdictKind.TRANSVERSE:
        check_on_constraint(remainder.linkage, remainder.restrict(config))
        hit = _search(remainder, config, tols.depth, tols, False, {})
    if hit is None:
        return verdict, None
    return verdict, _witness(hit._replace(stages=(stage,) + hit.stages), linkage.ambient_dim)


def find_smoothness_certificate(
    linkage: Linkage,
    config: Configuration,
    tols: Tolerances = Tolerances(),
) -> Optional[Decomposition]:
    """Depth-first search for a decomposition with every stage transverse and
    a base whose constraint Jacobian has full rank.

    A full-rank mechanism certifies itself (zero stages).  Deterministic
    search order; None means no certificate within tols.depth removals.
    """
    check_on_constraint(linkage, config)
    hit = _search(_whole(linkage), config, tols.depth, tols, True, {})
    return None if hit is None else _decomposition(hit)
