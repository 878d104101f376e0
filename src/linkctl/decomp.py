"""Pullback decompositions: open-chain removals, stage transversality,
generically non-transverse stage detection, and one depth-limited search for
singularity witnesses and smoothness certificates.

A removal splits a mechanism into an open chain (interior vertices of degree
two) and a connected remainder sharing the chain's two endpoints.  A stage
is named by (mechanism, configuration, removal), where the removal is one
that ``enumerate_chain_removals`` yields for the mechanism's graph;
``stage_classify`` cuts chain and remainder from that one configuration.  A
stage is transverse when the two endpoint work images jointly span the
ambient space; a non-transverse stage is "generically non-transverse" when
the chain is aligned, the remainder is smooth with a nondegenerate critical
endpoint distance, and the endpoints are apart.  A witness is a
decomposition whose deepest stage is generically non-transverse and whose
outer removed chains are all non-aligned; a certificate is a decomposition
with every stage transverse over a full-rank base.

Both are found by the same depth-first walk down the decomposition tree
(``_search``), one stage at a time (``_step``); the two differ only in where
they stop and which stages they descend through.  The walk reads the host
configuration once, at the root, and carries parts (``SubMechanism``): each
holds its linkage and its points in its own ids, cut (``_cut``) from its
parent's by the removal's ids, and ``_step``'s stage record is the one place
that maps ids to the host.  The walk returns the public
``Decomposition`` it found with the verdict of its deepest stage, from which
the entry points build their ``Witness`` or certificate.
``find_witness_through``, the platform verifier's entry point, takes one
``_step`` through a forced first removal, so that stage obeys the witness
rule and counts toward the depth like any other.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .chains import _check_angle, chord_signature, is_aligned
from .errors import DegenerateDirection, InvalidSpec, NoConvergence
from .model import (
    ChainRemoval,
    Configuration,
    Linkage,
    MechanismType,
    SubspaceBasis,
    check_integer,
    check_match,
    check_on_constraint,
    check_real,
    check_tol_rank,
    constraint_jacobian,
)
from .numeric import _gauge_frame, _null_space, _work_image, numerical_rank, reduced_work_data, work_image

__all__ = [
    "Tolerances",
    "ChainRemoval",
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
]


# Tolerances.eig_tol's floor is _EIG_FLOOR / (1 + total length).
_EIG_FLOOR = 1e-3


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by the classification pipeline.

    Both stage thresholds take the linkage they judge, a stage's remainder,
    with L its total length: ``grad_tol`` is grad_scale * (1 + L), and the
    eigenvalue cutoff ``eig_tol`` is the larger of 1e-6 times the largest
    |eigenvalue| and the floor _EIG_FLOOR / (1 + L), so exactly-zero
    Hessians are recognized as degenerate.  ``depth`` bounds every
    decomposition search.  Raises InvalidSpec unless every threshold is
    finite and >= 0, rank below 1, align below pi/2, and depth an integer >= 0.
    """

    rank: float = 1e-8
    align: float = 1e-6
    grad_scale: float = 1e-6
    depth: int = 4

    def __post_init__(self) -> None:
        object.__setattr__(self, "rank", check_tol_rank(self.rank, "tolerance rank"))
        object.__setattr__(self, "align", _check_angle(self.align, "tolerance align"))
        object.__setattr__(self, "grad_scale", check_real(self.grad_scale, "tolerance grad_scale"))
        object.__setattr__(self, "depth", check_integer(self.depth, "search depth", 0))

    def grad_tol(self, linkage: Linkage) -> float:
        return self.grad_scale * (1.0 + linkage.length_scale)

    def eig_tol(self, linkage: Linkage, eigs: np.ndarray) -> float:
        rel = 1e-6 * (float(np.max(np.abs(eigs))) if eigs.size else 0.0)
        return max(rel, _EIG_FLOOR / (1.0 + linkage.length_scale))


@dataclass(frozen=True)
class SubMechanism:
    """A part of the host mechanism: its linkage and its points, both in the
    part's own ids, with the host id of each part vertex and edge."""

    linkage: Linkage
    config: Configuration
    vertex_ids: tuple[int, ...]  # host id of each part vertex
    edge_ids: tuple[int, ...]


def _whole(linkage: Linkage, config: Configuration) -> SubMechanism:
    return SubMechanism(linkage, config, tuple(range(linkage.n_vertices)), tuple(range(linkage.k)))


def enumerate_chain_removals(graph: MechanismType) -> list[ChainRemoval]:
    """All open-chain removals of a connected graph, in lexicographic edge
    order: ``graph.chain_removals``, which each graph enumerates once."""
    return list(graph.chain_removals.values())


def _check_removal(graph: MechanismType, removal: ChainRemoval) -> None:
    """Raise InvalidSpec unless enumerate_chain_removals(graph) yields ``removal``, read as tuples."""
    parts = (removal.chain_vertices, removal.chain_edges, removal.remainder_vertices, removal.remainder_edges)
    if ChainRemoval(*map(tuple, parts)) != graph.chain_removals.get(tuple(removal.chain_edges)):
        raise InvalidSpec(f"not an open-chain removal of this mechanism: {removal}")


def _cut(
    linkage: Linkage,
    vertices: tuple[int, ...],
    edges: tuple[int, ...],
    ends: tuple[int, int],
) -> Linkage:
    """The part of ``linkage`` on the given vertices and edges, renumbered in
    their order, based at ends[0] with effector ends[1] and no base link."""
    index = {v: i for i, v in enumerate(vertices)}
    part_edges = tuple((index[linkage.graph.edges[i][0]], index[linkage.graph.edges[i][1]]) for i in edges)
    return Linkage(
        graph=MechanismType(len(vertices), part_edges),
        lengths=tuple(linkage.lengths[i] for i in edges),
        ambient_dim=linkage.ambient_dim,
        base_vertex=index[ends[0]],
        base_link=None,
        end_effector=index[ends[1]],
    )


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
    chain_aligned: bool
    chain_aligned_direction: Optional[np.ndarray] = None
    gradient_norm: Optional[float] = None
    hessian_eigenvalues: Optional[np.ndarray] = None
    remainder_signature: Optional[tuple[int, int]] = None
    chain_signature: Optional[tuple[int, int]] = None
    reasons: tuple[str, ...] = ()

    @property
    def signature(self) -> Optional[tuple[int, int]]:
        """The stage's signature: the remainder's (positive, negative) Hessian
        counts plus the chain's chord signature with its two parts swapped;
        None unless both are known."""
        rem, chain = self.remainder_signature, self.chain_signature
        if rem is None or chain is None:
            return None
        return (rem[0] + chain[1], rem[1] + chain[0])


def transversality_check(
    image_a: SubspaceBasis,
    image_b: SubspaceBasis,
    d: int,
    tol_rank: float = 1e-8,
) -> bool:
    """True iff the two subspaces jointly span the ambient space.  Raises
    InvalidSpec unless 0 <= tol_rank < 1."""
    check_tol_rank(tol_rank)
    if image_a.ambient_dim != d or image_b.ambient_dim != d:
        raise InvalidSpec("image bases must live in the ambient dimension")
    return numerical_rank(np.vstack([image_a.vectors, image_b.vectors]), tol_rank) == d


def stage_classify(
    linkage: Linkage,
    config: Configuration,
    removal: ChainRemoval,
    tols: Tolerances = Tolerances(),
) -> StageVerdict:
    """Classify the stage that ``removal`` cuts from the mechanism at
    ``config``: the removed open chain, based at the removal's smaller
    endpoint with its other endpoint as effector, and the remainder, based
    and ending at the same two vertices.

    Transverse when the endpoint work images of remainder and chain span the
    ambient space.  Otherwise generically non-transverse when the chain is
    aligned, the remainder has full constraint rank and a nondegenerate
    critical endpoint-distance, and the shared endpoints are apart; any
    failed condition downgrades the verdict to degenerate, with reasons.  A
    finite-difference Hessian whose retraction does not converge is such a
    failed condition ("hessian_no_convergence").  Every removal that
    enumerate_chain_removals(linkage.graph) yields gets a verdict, any other
    raises InvalidSpec, and the parts' residual checks hold every edge, so no
    host check is needed.
    """
    check_match(linkage, config)
    _check_removal(linkage.graph, removal)
    d, ends = linkage.ambient_dim, removal.endpoints
    gamma_prime = _cut(linkage, removal.remainder_vertices, removal.remainder_edges, ends)
    lam = _cut(linkage, removal.chain_vertices, removal.chain_edges, ends)
    v_prime = Configuration(config.points[list(removal.remainder_vertices)])
    v_k = Configuration(config.points[list(removal.chain_vertices)])

    psi = config.points[ends[1]] - config.points[ends[0]]
    scale = 1.0 + max(gamma_prime.length_scale, lam.length_scale)
    # the remainder's work image, rank and reduced frame all come from this one SVD
    null_rem = _null_space(gamma_prime, v_prime, tols.rank)[1]
    img_remainder = _work_image(gamma_prime, null_rem, tols.rank)
    img_chain = work_image(lam, v_k, tols.rank)
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
        return StageVerdict(StageVerdictKind.TRANSVERSE, chain_aligned, aligned)

    if float(np.linalg.norm(psi)) < 1e-9 * scale:
        reasons.append("coincident_endpoints")

    if gamma_prime.n_vertices * d - len(null_rem) < gamma_prime.k:
        reasons.append("remainder_rank_deficient")

    grad_norm = None
    eigs = None
    rem_sig = None
    if "coincident_endpoints" not in reasons:
        try:
            data = reduced_work_data(gamma_prime, _gauge_frame(v_prime, null_rem), tol_rank=tols.rank)
        except NoConvergence:
            # a retraction of the finite-difference Hessian stalled
            reasons.append("hessian_no_convergence")
        else:
            grad_norm = float(np.linalg.norm(data.gradient))
            eigs = np.linalg.eigvalsh(data.hessian) if data.hessian.size else np.zeros(0)
            if grad_norm >= tols.grad_tol(gamma_prime):
                reasons.append("remainder_gradient_nonzero")
            cut = tols.eig_tol(gamma_prime, eigs)
            if eigs.size == 0 or np.any(np.abs(eigs) <= cut):
                reasons.append("degenerate_hessian")
            else:
                rem_sig = (int(np.sum(eigs > cut)), int(np.sum(eigs < -cut)))

    generic = not reasons  # only a generic stage has signatures
    return StageVerdict(
        StageVerdictKind.GENERICALLY_NON_TRANSVERSE if generic else StageVerdictKind.DEGENERATE_NON_TRANSVERSE,
        chain_aligned,
        chain_aligned_direction=aligned,
        gradient_norm=grad_norm,
        hessian_eigenvalues=eigs,
        remainder_signature=rem_sig if generic else None,
        chain_signature=chord_signature(v_k, tols.align) if generic else None,
        reasons=tuple(reasons),
    )


@dataclass(frozen=True)
class DecompositionStage(ChainRemoval):
    """One removal step, recorded in the host mechanism's original ids."""

    chain_aligned: bool

    def to_json_dict(self) -> dict:
        return {name: list(v) if isinstance(v, tuple) else v for name, v in asdict(self).items()}


@dataclass(frozen=True)
class Decomposition:
    """A rooted branch of the decomposition tree, outermost stage first."""

    stages: tuple[DecompositionStage, ...]
    base_vertices: tuple[int, ...]
    base_edges: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "stages": [s.to_json_dict() for s in self.stages],
            "base_vertices": list(self.base_vertices),
            "base_edges": list(self.base_edges),
        }


@dataclass(frozen=True)
class Witness:
    """A decomposition whose final stage is generically non-transverse, with
    that stage's verdict."""

    decomposition: Decomposition
    verdict: StageVerdict

    @property
    def stage_index(self) -> int:
        return len(self.decomposition.stages) - 1

    @property
    def signature(self) -> tuple[int, int]:
        return self.verdict.signature  # type: ignore[return-value]

    @property
    def euclidean_factor(self) -> int:
        """Every stage but the last adds (d-1)·links − d."""
        d = len(self.verdict.chain_aligned_direction)  # type: ignore[arg-type]
        return sum((d - 1) * len(s.chain_edges) - d for s in self.decomposition.stages[:-1])

    def to_json_dict(self) -> dict:
        eigs = self.verdict.hessian_eigenvalues
        return {
            "stages": [s.to_json_dict() for s in self.decomposition.stages],
            "stage_index": self.stage_index,
            "signature": list(self.signature),
            "euclidean_factor": self.euclidean_factor,
            "gradient_norm": self.verdict.gradient_norm,
            "hessian_eigenvalues": [float(x) for x in eigs],  # type: ignore[union-attr]
        }


def _search(
    sub: SubMechanism,
    depth: int,
    tols: Tolerances,
    certificate: bool,
    memo: dict[tuple[frozenset[int], int], Optional[tuple[Decomposition, Optional[StageVerdict]]]],
) -> Optional[tuple[Decomposition, Optional[StageVerdict]]]:
    """Depth-first walk down the decomposition tree of the part ``sub`` at
    its own points: the first decomposition found, in host ids, with its
    deepest stage's verdict (None for a zero-stage certificate).

    Removals are visited in lexicographic edge order, each by ``_step``, and
    the first hit is returned; a certificate stops at a full-rank base.  At
    depth 0 neither search visits a removal.  Every part of a ``sub`` that
    passes check_on_constraint passes it too, so every removal gets a verdict.
    The memo key (host edges, depth) is sound because a part's points are
    the host's points at its host vertices, whichever path reaches it.
    """
    key = (frozenset(sub.edge_ids), depth)
    if key in memo:
        return memo[key]
    result = None
    full_rank = certificate and (
        numerical_rank(constraint_jacobian(sub.linkage, sub.config), tols.rank) == sub.linkage.k
    )
    if full_rank:
        result = (Decomposition((), sub.vertex_ids, sub.edge_ids), None)
    elif depth > 0:
        for removal in enumerate_chain_removals(sub.linkage.graph):
            result = _step(sub, removal, depth, tols, certificate, memo)[1]
            if result is not None:
                break
    memo[key] = result
    return result


def _step(
    sub: SubMechanism,
    removal: ChainRemoval,
    depth: int,
    tols: Tolerances,
    certificate: bool,
    memo: dict[tuple[frozenset[int], int], Optional[tuple[Decomposition, Optional[StageVerdict]]]],
) -> tuple[StageVerdict, Optional[tuple[Decomposition, Optional[StageVerdict]]]]:
    """One stage of the search, counted by ``depth``: its verdict and the
    first hit through it, whose outermost stage it records in host ids.  A
    certificate descends through a transverse stage.  A witness ends at a
    generically non-transverse stage and descends through a stage whose
    chain is not aligned, the one outer stage a singularity lifts through;
    any other stage gives None."""
    verdict = stage_classify(sub.linkage, sub.config, removal, tols)
    vertex, edge = sub.vertex_ids, sub.edge_ids
    stage = DecompositionStage(
        chain_vertices=tuple(vertex[v] for v in removal.chain_vertices),
        chain_edges=tuple(edge[i] for i in removal.chain_edges),
        remainder_vertices=tuple(vertex[v] for v in removal.remainder_vertices),
        remainder_edges=tuple(edge[i] for i in removal.remainder_edges),
        chain_aligned=verdict.chain_aligned,
    )
    if certificate:
        descend = verdict.kind is StageVerdictKind.TRANSVERSE
    elif verdict.kind is StageVerdictKind.GENERICALLY_NON_TRANSVERSE:
        found = Decomposition((stage,), stage.remainder_vertices, stage.remainder_edges)
        return verdict, (found, verdict) if depth > 0 else None
    else:
        descend = not stage.chain_aligned and depth > 1
    if not descend:
        return verdict, None
    remainder = _cut(sub.linkage, removal.remainder_vertices, removal.remainder_edges, removal.endpoints)
    points = Configuration(sub.config.points[list(removal.remainder_vertices)])
    part = SubMechanism(remainder, points, stage.remainder_vertices, stage.remainder_edges)
    hit = _search(part, depth - 1, tols, certificate, memo)
    if hit is None:
        return verdict, None
    found, deepest = hit
    return verdict, (replace(found, stages=(stage,) + found.stages), deepest)


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
    smooth.  Raises OffConstraint unless each edge's residual is below
    1e-8 * (1 + its length) (check_on_constraint).
    """
    check_on_constraint(linkage, config)
    hit = _search(_whole(linkage, config), tols.depth, tols, False, {})
    return None if hit is None else Witness(*hit)  # type: ignore[arg-type]


def find_witness_through(
    linkage: Linkage,
    config: Configuration,
    removal: ChainRemoval,
    tols: Tolerances = Tolerances(),
) -> tuple[StageVerdict, Optional[Witness]]:
    """Witness search whose first stage is the given removal of the whole
    mechanism; returns that stage's verdict and the witness, if any.

    The forced stage follows the rule of every other stage of
    find_nontransversive_witness and counts toward tols.depth: a
    generically non-transverse stage is itself the witness, a stage whose
    chain is not aligned is followed by the first witness inside its
    remainder within tols.depth - 1 stages, and any other stage gives None.
    Raises InvalidSpec on a removal that stage_classify rejects or a
    configuration that does not fit the linkage, and OffConstraint, from the
    first stage, on one off the constraint set.
    """
    check_match(linkage, config)
    verdict, hit = _step(_whole(linkage, config), removal, tols.depth, tols, False, {})
    return verdict, None if hit is None else Witness(*hit)  # type: ignore[arg-type]


def find_smoothness_certificate(
    linkage: Linkage,
    config: Configuration,
    tols: Tolerances = Tolerances(),
) -> Optional[Decomposition]:
    """Depth-first search for a decomposition with every stage transverse and
    a base whose constraint Jacobian has full rank.

    A full-rank mechanism certifies itself (zero stages).  Deterministic
    search order; None means no certificate within tols.depth removals.  It
    returns None at every rank-deficient configuration unless the rank test
    and the stage tolerances disagree: a transverse fiber product of regular
    maps is regular, so every all-transverse decomposition of a
    rank-deficient mechanism ends in a rank-deficient base.  Raises
    OffConstraint unless each edge's residual is below 1e-8 * (1 + its
    length) (check_on_constraint).
    """
    check_on_constraint(linkage, config)
    hit = _search(_whole(linkage, config), tols.depth, tols, True, {})
    return None if hit is None else hit[0]
