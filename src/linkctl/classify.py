"""Top-level verdicts and the planar parallel-platform conditions.

classify_configuration runs the full pipeline: Smooth exactly at full
constraint rank.  Below it a generically non-transverse witness gives
GenericSingular (with a local cone model), a smoothness certificate
Conflict, since a transverse fiber product of regular maps is regular and
so the tolerances disagree, and neither Indeterminate.  The platform
operations test the two alignment conditions that characterize singular
poses of triangular parallel platforms and drive the classifier through the
branch-removal decomposition.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .chains import _aligned_chains
from .decomp import (
    Decomposition,
    StageVerdictKind,
    Tolerances,
    Witness,
    find_nontransversive_witness,
    find_smoothness_certificate,
    find_witness_through,
)
from .errors import InvalidSpec
from .model import Configuration, Linkage, check_match, check_on_constraint, constraint_jacobian
from .numeric import numerical_rank

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
    notes: tuple[str, ...] = ()

    @property
    def conjunction(self) -> Optional[str]:
        """The witness's deepest stage in words: which chain is aligned along
        which direction, against which remainder."""
        if self.witness is None:
            return None
        stage = self.witness.decomposition.stages[self.witness.stage_index]
        # a witness's deepest stage is generic, so its chain has a direction
        direction = self.witness.verdict.chain_aligned_direction
        dir_txt = "(" + ", ".join(f"{x:.6f}" for x in direction) + ")"  # type: ignore[union-attr]
        chain_txt = "-".join(str(v) for v in stage.chain_vertices)
        rem_txt = ",".join(str(v) for v in stage.remainder_vertices)
        return (
            f"open chain {chain_txt} aligned along {dir_txt}, co-aligned with the "
            f"critical endpoint-distance configuration of the sub-mechanism on "
            f"vertices {{{rem_txt}}}"
        )

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "rank": [self.rank, self.k],
            "witness": None if self.witness is None else self.witness.to_json_dict(),
            "certificate": None if self.certificate is None else self.certificate.to_json_dict(),
            "conjunction": self.conjunction,
            "notes": list(self.notes),
        }


def classify_configuration(
    linkage: Linkage,
    config: Configuration,
    tols: Tolerances = Tolerances(),
) -> ClassificationReport:
    """Classify a configuration as Smooth, GenericSingular, Indeterminate or Conflict.

    Smooth exactly at full constraint rank.  Below it both searches run,
    tols.depth deep: a witness gives GenericSingular and neither gives
    Indeterminate, while a certificate gives Conflict, with the witness if
    any, since a transverse fiber product of regular maps is regular and the
    rank test and the search's tolerances must then disagree.  Raises
    OffConstraint unless each edge's residual is below 1e-8 * (1 + its
    length) (check_on_constraint).
    """
    check_on_constraint(linkage, config)

    rank = numerical_rank(constraint_jacobian(linkage, config), tols.rank)
    if rank == linkage.k:
        # a full-rank mechanism is its own zero-stage certificate (the search's base case)
        certificate = Decomposition((), tuple(range(linkage.n_vertices)), tuple(range(linkage.k)))
        return ClassificationReport(
            Verdict.SMOOTH, rank, linkage.k, certificate=certificate, notes=("full constraint rank",)
        )

    certificate = find_smoothness_certificate(linkage, config, tols)
    witness = find_nontransversive_witness(linkage, config, tols)

    if certificate is not None:
        return ClassificationReport(
            Verdict.CONFLICT, rank, linkage.k, witness=witness, certificate=certificate,
            notes=("a certificate at a rank-deficient configuration; check tolerances",),
        )
    if witness is not None:
        return ClassificationReport(
            Verdict.GENERIC_SINGULAR, rank, linkage.k, witness=witness,
            notes=("generically non-transverse stage found",),
        )
    return ClassificationReport(
        Verdict.INDETERMINATE, rank, linkage.k,
        notes=(f"rank deficient but no witness or certificate within depth {tols.depth}",),
    )


def lines_concurrent(lines: Sequence[tuple[np.ndarray, np.ndarray]]) -> bool:
    """True iff three planar lines (point, direction) meet in a single point.

    Parallel pairs fail unless all three lines coincide; otherwise the three
    pairwise intersections must lie within 1e-6 of each other.  Raises
    InvalidSpec unless there are three lines, each point and direction a
    finite 2-vector and each direction nonzero.
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
    for line in lines:
        try:
            p, v = pv = np.array(line, dtype=float)
        except (TypeError, ValueError):  # not numbers, or not a pair of equal length
            pv = None
        if pv is None or pv.shape != (2, 2) or not np.isfinite(pv).all():
            raise InvalidSpec(f"each line must be a finite 2-vector point and direction, got {line!r}")
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


def platform_conditions(
    linkage: Linkage,
    config: Configuration,
    tols: Tolerances = Tolerances(),
) -> Optional[PlatformCondition]:
    """Evaluate the two singularity conditions of a triangular platform pose.

    Type 'a': two aligned branches whose direction lines coincide (angular
    tolerance plus perpendicular offset).  Type 'b': all three branches
    aligned with direction lines meeting in one point.  'a' wins when both
    hold.  Returns None when neither does.  One kernel decides alignment for
    all three branches at once, the one ``chains.is_aligned`` runs on a
    single chain; a branch with a zero-length link is not aligned.  The
    platform is planar with three branches, each an open chain listed from
    its fixed anchor to a moving vertex, resolved once per linkage as the
    verifier reads them; any other raises InvalidSpec on every call.
    """
    check_match(linkage, config)
    p = config.points
    links = linkage._platform_links
    cos_tol = math.cos(tols.align)
    w, aligned, _ = _aligned_chains(p, links, cos_tol)
    anchors = p[links.tail[links.first]]  # each branch's fixed vertex

    offset_tol = 1e-8 * (1.0 + linkage.length_scale)
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        if aligned[i] and aligned[j] and abs(float(w[i] @ w[j])) >= cos_tol:
            gap = anchors[j] - anchors[i]
            if float(abs(gap[0] * w[i][1] - gap[1] * w[i][0])) < offset_tol:
                return PlatformCondition("a", (i, j))

    if aligned.all():
        meet = _meeting_point(list(zip(anchors, w)), 1e-6 * (1.0 + linkage.length_scale))
        if meet is not None:
            return PlatformCondition("b", (0, 1, 2), point=meet)
    return None


def verify_platform_singularity(
    linkage: Linkage,
    config: Configuration,
    tols: Tolerances = Tolerances(),
) -> ClassificationReport:
    """Classify a pose already known to satisfy a platform condition.

    Removes one branch, the non-pair one for type 'a' and branch 2 for type
    'b'.  A branch is an open chain listed from its fixed anchor, removed as
    the chain ``platform_conditions`` read its path from, so a pose the
    screen accepts can always be verified.  The witness comes from
    ``decomp.find_witness_through``, whose forced stage obeys the witness
    search's rule; the notes record the reduced work gradient at the
    remainder.  Without a witness the verdict is Indeterminate and the last
    note says why: a non-generic degenerate stage, an aligned removed
    branch, or no witness inside the remainder.  Raises InvalidSpec unless
    the pose satisfies a platform condition, and OffConstraint, from the
    first stage, unless each edge's residual is below 1e-8 * (1 + its
    length) (check_on_constraint).
    """
    cond = platform_conditions(linkage, config, tols)
    if cond is None:
        raise InvalidSpec("verify_platform_singularity requires a pose satisfying a condition")

    rank = numerical_rank(constraint_jacobian(linkage, config), tols.rank)
    removed = min({0, 1, 2} - set(cond.branches), default=2)

    removal, _ = linkage._platform_branches[removed]
    verdict, witness = find_witness_through(linkage, config, removal, tols)
    notes = [f"platform condition ({cond.kind}) on branches {cond.branches}"]
    if verdict.gradient_norm is not None:
        notes.append(f"reduced work gradient norm at remainder: {verdict.gradient_norm:.3e}")
    if witness is None:
        if verdict.kind is StageVerdictKind.DEGENERATE_NON_TRANSVERSE:
            notes.append(f"non-generic: stage degenerate ({', '.join(verdict.reasons)})")
        elif verdict.chain_aligned:
            notes.append(f"branch {removed} is aligned: the witness search stops at it")
        else:
            notes.append("no witness found inside the remainder")
        return ClassificationReport(Verdict.INDETERMINATE, rank, linkage.k, notes=tuple(notes))
    return ClassificationReport(
        Verdict.GENERIC_SINGULAR, rank, linkage.k, witness=witness, notes=tuple(notes)
    )
