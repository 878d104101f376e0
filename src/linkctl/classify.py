"""Top-level verdicts and the planar parallel-platform conditions.

classify_configuration runs the full pipeline: full constraint rank means
smooth; otherwise a transversality certificate (smooth), a generically
non-transverse witness (topologically singular, with a local cone model), or
neither (indeterminate).  The platform operations test the two alignment
conditions that characterize singular poses of triangular parallel platforms
and drive the classifier through the branch-removal decomposition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .chains import is_aligned
from .decomp import (
    ChainRemoval,
    Decomposition,
    DecompositionStage,
    StageVerdictKind,
    Tolerances,
    Witness,
    enumerate_chain_removals,
    find_nontransversive_witness,
    find_smoothness_certificate,
    find_witness_through,
)
from .errors import DegenerateDirection, InvalidSpec, NotAPlatform
from .model import Configuration, Linkage, check_match, check_on_constraint, constraint_jacobian
from .numeric import BranchReport, local_branch_count, numerical_rank

__all__ = [
    "Verdict",
    "ClassificationReport",
    "classify_configuration",
    "lines_concurrent",
    "PlatformCondition",
    "platform_conditions",
    "verify_platform_singularity",
]


class Verdict(enum.Enum):
    SMOOTH = "Smooth"
    GENERIC_SINGULAR = "GenericSingular"
    INDETERMINATE = "Indeterminate"
    CONFLICT = "Conflict"


@dataclass(frozen=True)
class ClassificationReport:
    """Verdict with supporting rank, witness/certificate, and local model data."""

    verdict: Verdict
    rank: int
    k: int
    witness: Optional[Witness] = None
    certificate: Optional[Decomposition] = None
    conjunction: Optional[str] = None
    branch_report: Optional[BranchReport] = None
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        def stage_dict(s: DecompositionStage) -> dict:
            return {
                "chain_vertices": list(s.chain_vertices),
                "chain_edges": list(s.chain_edges),
                "remainder_vertices": list(s.remainder_vertices),
                "remainder_edges": list(s.remainder_edges),
                "chain_aligned": s.chain_aligned,
            }

        witness = None
        if self.witness is not None:
            w = self.witness
            witness = {
                "stages": [stage_dict(s) for s in w.decomposition.stages],
                "stage_index": w.stage_index,
                "signature": list(w.signature),
                "euclidean_factor": w.euclidean_factor,
                "gradient_norm": w.verdict.gradient_norm,
                "hessian_eigenvalues": (
                    None
                    if w.verdict.hessian_eigenvalues is None
                    else [float(x) for x in w.verdict.hessian_eigenvalues]
                ),
            }
        certificate = None
        if self.certificate is not None:
            certificate = {
                "stages": [stage_dict(s) for s in self.certificate.stages],
                "base_vertices": list(self.certificate.base_vertices),
                "base_edges": list(self.certificate.base_edges),
            }
        branches = None
        if self.branch_report is not None:
            b = self.branch_report
            branches = {
                "radius": b.radius,
                "sample_count": b.sample_count,
                "branch_count": b.branch_count,
                "cluster_sizes": list(b.cluster_sizes),
                "stable": b.stable,
            }
        return {
            "verdict": self.verdict.value,
            "rank": [self.rank, self.k],
            "witness": witness,
            "certificate": certificate,
            "conjunction": self.conjunction,
            "branch_report": branches,
            "notes": list(self.notes),
        }


def _conjunction_text(witness: Witness) -> str:
    stage = witness.decomposition.stages[witness.stage_index]
    direction = witness.verdict.chain_aligned_direction
    dir_txt = (
        "(" + ", ".join(f"{x:.6f}" for x in direction) + ")" if direction is not None else "?"
    )
    chain_txt = "-".join(str(v) for v in stage.chain_vertices)
    rem_txt = ",".join(str(v) for v in stage.remainder_vertices)
    return (
        f"open chain {chain_txt} aligned along {dir_txt}, co-aligned with the "
        f"critical endpoint-distance configuration of the sub-mechanism on "
        f"vertices {{{rem_txt}}}"
    )


def classify_configuration(
    linkage: Linkage,
    config: Configuration,
    tols: Tolerances = Tolerances(),
    with_branches: bool = False,
    branch_seed: int = 0,
) -> ClassificationReport:
    """Classify a configuration as Smooth, GenericSingular, or Indeterminate.

    Full constraint rank gives Smooth immediately.  Otherwise both a
    smoothness certificate and a non-transversality witness are searched; if
    both turn up the report says Conflict and surfaces them, since that
    combination signals a numerical tolerance problem rather than geometry.
    Both searches go tols.depth deep.
    """
    check_on_constraint(linkage, config)

    rank = numerical_rank(constraint_jacobian(linkage, config), tols.rank)
    branch_report = None
    if with_branches:
        branch_report = local_branch_count(linkage, config, seed=branch_seed, tol_rank=tols.rank)

    if rank == linkage.k:
        # a full-rank mechanism is its own zero-stage certificate (the search's base case)
        certificate = Decomposition((), tuple(range(linkage.n_vertices)), tuple(range(linkage.k)))
        return ClassificationReport(
            Verdict.SMOOTH, rank, linkage.k, certificate=certificate, branch_report=branch_report,
            notes=("full constraint rank",),
        )

    certificate = find_smoothness_certificate(linkage, config, tols)
    witness = find_nontransversive_witness(linkage, config, tols)

    if certificate is not None and witness is not None:
        return ClassificationReport(
            Verdict.CONFLICT, rank, linkage.k, witness=witness, certificate=certificate,
            branch_report=branch_report,
            notes=("both a certificate and a witness were found; check tolerances",),
        )
    if certificate is not None:
        return ClassificationReport(
            Verdict.SMOOTH, rank, linkage.k, certificate=certificate,
            branch_report=branch_report, notes=("transversality certificate",),
        )
    if witness is not None:
        return ClassificationReport(
            Verdict.GENERIC_SINGULAR, rank, linkage.k, witness=witness,
            conjunction=_conjunction_text(witness), branch_report=branch_report,
            notes=("generically non-transverse stage found",),
        )
    return ClassificationReport(
        Verdict.INDETERMINATE, rank, linkage.k, branch_report=branch_report,
        notes=(f"rank deficient but no witness or certificate within depth {tols.depth}",),
    )


def lines_concurrent(lines: Sequence[tuple[np.ndarray, np.ndarray]]) -> bool:
    """True iff three planar lines (point, direction) meet in a single point.

    Parallel pairs fail unless all three lines coincide; otherwise the three
    pairwise intersections must lie within 1e-6 of each other.
    """
    return _meeting_point(lines, 1e-6) is not None


def _meeting_point(
    lines: Sequence[tuple[np.ndarray, np.ndarray]],
    tol: float,
) -> Optional[np.ndarray]:
    """Where three planar lines meet, as ``lines_concurrent`` decides it, or
    None when they do not: the first intersection of two crossing lines, or
    line 0's point when all three coincide."""
    if len(lines) != 3:
        raise InvalidSpec("lines_concurrent expects exactly three lines")
    pts = []
    dirs = []
    for p, v in lines:
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        n = float(np.linalg.norm(v))
        if n < 1e-14:
            raise InvalidSpec("line direction must be nonzero")
        pts.append(p)
        dirs.append(v / n)

    def cross(a: np.ndarray, b: np.ndarray) -> float:
        return float(a[0] * b[1] - a[1] * b[0])

    found = []
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        den = cross(dirs[i], dirs[j])
        if abs(den) < 1e-12:
            # parallel: acceptable only if the pair is the same line
            if abs(cross(dirs[i], pts[j] - pts[i])) > tol:
                return None
            continue
        t = cross(pts[j] - pts[i], dirs[j]) / den
        found.append(pts[i] + t * dirs[i])
    for a in range(len(found)):
        for b in range(a + 1, len(found)):
            if float(np.linalg.norm(found[a] - found[b])) > tol:
                return None
    return found[0] if found else pts[0]


@dataclass(frozen=True)
class PlatformCondition:
    """Result of the platform alignment test: kind 'a' (two co-linear aligned
    branches) or 'b' (three aligned branches with concurrent lines, meeting
    at ``point``)."""

    kind: str
    branches: tuple[int, ...]
    point: Optional[np.ndarray] = None


def _branch_path(linkage: Linkage, branch_edges: Sequence[int]) -> list[int]:
    """Vertex path of a branch, starting at its fixed-platform anchor."""
    plat = linkage.platform
    assert plat is not None
    edges = [linkage.graph.edges[i] for i in branch_edges]
    first = edges[0]
    anchor = first[0] if first[0] in plat.fixed else first[1]
    if anchor not in plat.fixed:
        raise InvalidSpec("branch does not start at a fixed-platform vertex")
    path = [anchor]
    for u, v in edges:
        nxt = v if u == path[-1] else u
        if path[-1] not in (u, v):
            raise InvalidSpec("branch edges do not form a path")
        path.append(nxt)
    return path


def platform_conditions(
    linkage: Linkage,
    config: Configuration,
    tols: Tolerances = Tolerances(),
) -> Optional[PlatformCondition]:
    """Evaluate the two singularity conditions of a triangular platform pose.

    Type 'a': two aligned branches whose direction lines coincide (angular
    tolerance plus perpendicular offset).  Type 'b': all three branches
    aligned with direction lines meeting in one point.  'a' wins when both
    hold.  Returns None when neither does.
    """
    check_match(linkage, config)
    if linkage.platform is None or linkage.ambient_dim != 2:
        raise NotAPlatform("linkage is not tagged as a planar platform")
    if len(linkage.platform.branches) != 3:
        raise NotAPlatform("platform conditions are implemented for three branches")

    p = config.points
    aligned_lines: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for idx, branch in enumerate(linkage.platform.branches):
        path = _branch_path(linkage, branch)
        pts = p[path]
        try:
            w = is_aligned(pts, tol=tols.align)
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


def _branch_removal(linkage: Linkage, branch_idx: int) -> ChainRemoval:
    branch = linkage.platform.branches[branch_idx]  # type: ignore[union-attr]
    path = _branch_path(linkage, branch)
    for removal in enumerate_chain_removals(linkage.graph):
        if set(removal.chain_edges) == set(branch) and set(removal.chain_vertices) == set(path):
            return removal
    raise InvalidSpec(f"branch {branch_idx} is not a removable open chain")


def verify_platform_singularity(
    linkage: Linkage,
    config: Configuration,
    tols: Tolerances = Tolerances(),
) -> ClassificationReport:
    """Classify a pose already known to satisfy a platform condition.

    Removes one branch as the open chain and takes the witness from
    ``decomp.find_witness_through`` (for type 'b' the stage itself must be
    generically non-transverse, and the report records the reduced work
    gradient there; for type 'a' the non-pair branch is removed and the
    witness search continues inside the remainder).  A degenerate stage
    yields Indeterminate, flagged as non-generic.
    """
    cond = platform_conditions(linkage, config, tols)
    if cond is None:
        raise InvalidSpec("verify_platform_singularity requires a pose satisfying a condition")

    rank = numerical_rank(constraint_jacobian(linkage, config), tols.rank)
    if cond.kind == "b":
        removed = 2
    else:
        removed = next(i for i in range(3) if i not in cond.branches)

    verdict, witness = find_witness_through(linkage, config, _branch_removal(linkage, removed), tols)
    notes = [f"platform condition ({cond.kind}) on branches {cond.branches}"]
    if verdict.gradient_norm is not None:
        notes.append(f"reduced work gradient norm at remainder: {verdict.gradient_norm:.3e}")
    if witness is None:
        if verdict.kind is StageVerdictKind.TRANSVERSE:
            notes.append("no witness found inside the remainder")
        else:
            notes.append(f"non-generic: stage degenerate ({', '.join(verdict.reasons)})")
        return ClassificationReport(Verdict.INDETERMINATE, rank, linkage.k, notes=tuple(notes))
    return ClassificationReport(
        Verdict.GENERIC_SINGULAR, rank, linkage.k, witness=witness,
        conjunction=_conjunction_text(witness), notes=tuple(notes),
    )
