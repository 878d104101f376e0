"""Numerical engine: rank with tolerance, projection onto the constraint set,
sampling, tangent frames, a finite-difference Hessian, reduced work data,
pseudo-arclength continuation, and local branch counting.

Two damped Gauss-Newton solvers share one step rule.  ``_gauss_newton``
solves one configuration on the constraint residual and reads each
iterate's edge vectors once; it serves every projection and retraction
(``project_to_cspace``) and, with the pseudo-arclength hyperplane as one
more row, trace_curve's corrector.  The lockstep ``_gauss_newton_rows``
projects many rows at once, for sample_cspace and local_branch_count, each
row as ``project_to_cspace`` would.  Their Armijo line search takes the full
step's residual and tests every shorter step on the residual's exact
quadratic along the step (``_shorter_step``), so it builds no trial
iterate; the residual is then evaluated once, directly, at the step taken.
Both check each full step and chord step finite, raising InvalidSpec as
building a Configuration would; a shorter step lies between two finite points.

Tangent frames, work images and traced points read the constraint Jacobian's
null space off one SVD per configuration, taken in ``_null_space``; a stage
reads its remainder's rank, work image and frame off one.  Every tangent
frame is reduced: rigid translations and rotations are projected out, by
``_gauge_frame``'s smaller SVDs, and in closed form (``_gauge_basis``) at a
traced point, whose corrector takes one more SVD.

All stochastic operations are pure functions of (inputs, seed): every sample
draws from its own substream keyed by (seed, index).  Every numeric option
is checked by model's check_real, check_tol_rank or check_integer: a tol_rank
outside [0, 1), or any option its function's docstring names, raises InvalidSpec.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateDirection, InvalidSpec, NoConvergence, NoFeasiblePoint
from .model import (
    Configuration,
    Linkage,
    SubspaceBasis,
    _edge_jacobian,
    _edge_residual,
    _edge_vectors,
    _gauge_points,
    _jacobian_rows,
    _residual_rows,
    _row_dots,
    check_array,
    check_finite,
    check_integer,
    check_match,
    check_on_constraint,
    check_real,
    check_tol_rank,
    constraint_jacobian,
)

__all__ = [
    "TangentFrame",
    "BranchReport",
    "TraceResult",
    "WorkData",
    "numerical_rank",
    "project_to_cspace",
    "sample_cspace",
    "tangent_frame",
    "work_image",
    "fd_hessian",
    "reduced_work_data",
    "trace_curve",
    "local_branch_count",
]

ABS_FLOOR = 1e-12

# Armijo backtracking of the damped Gauss-Newton step: a step t is accepted
# when |r(x + t*delta)|^2 <= |r(x)|^2 + _ARMIJO_C * t * slope; the search tries
# the steps of _STEP_LADDER, longest first, and stalls when none passes.  The
# full step is tested on its residual, the shorter ones by _shorter_step.
_ARMIJO_C = 1e-4
_STEP_LADDER = tuple(0.5**j for j in range(40))  # 1, 1/2, ..., 2^-39 >= 1e-12 > 2^-40
_SHORTER_STEPS = np.array(_STEP_LADDER[1:])

# project_to_cspace's defaults, which sample_cspace also projects with.
_PROJECT_TOL = 1e-10
_PROJECT_MAX_ITER = 100
_PROJECT_TOL_RANK = 1e-8

# trace_curve's corrector tolerance, and the least |cos| between consecutive
# tangents before it reports a tangent jump.
_TRACE_TOL = 1e-10
_TRACE_MIN_COS = 0.5

# The retraction that fd_hessian's evaluations and local_branch_count's sphere
# samples take.
_RETRACT_TOL = 1e-12
_RETRACT_MAX_ITER = 60

# Rows of local_branch_count's distance graph built at once; bounds its
# difference array at _CLUSTER_BLOCK x n x N*d floats for n kept samples.
_CLUSTER_BLOCK = 64

# Starts that sample_cspace projects together; bounds the batch's memory.
_SAMPLE_CHUNK = 32
# Rows of the (rows, 39, k) model that _shorter_step builds at once: bounds
# local_branch_count's memory, while a sample chunk's rows take one block.
_SHORTER_STEP_ROWS = _SAMPLE_CHUNK


@dataclass(frozen=True)
class TangentFrame:
    """Orthonormal basis of null(d(lambda)) with the rigid motions projected
    out: the d translation generators and the rotation generators (including,
    in d=3, the residual rotation about the pinned direction)."""

    base_config: Configuration
    basis: np.ndarray  # (m, N*d), orthonormal rows

    def __post_init__(self) -> None:
        shape, columns = np.shape(self.basis), self.base_config.points.size
        if len(shape) != 2 or shape[1] != columns:
            raise InvalidSpec(
                f"tangent basis must be an (m, {columns}) array for a configuration of shape "
                f"{self.base_config.points.shape}, got shape {shape}"
            )

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


@dataclass(frozen=True)
class BranchReport:
    """Local branch structure on the sphere of the given radius."""

    radius: float
    sample_count: int
    branch_count: int
    cluster_sizes: tuple[int, ...]
    stable: bool
    halved_branch_count: int

    def to_json_dict(self) -> dict:
        return {**asdict(self), "cluster_sizes": list(self.cluster_sizes)}


@dataclass(frozen=True)
class TraceResult:
    points: tuple[Configuration, ...]
    stop_reason: str

    @property
    def closed(self) -> bool:
        return self.stop_reason == "loop_closed"


@dataclass(frozen=True)
class WorkData:
    """Gradient and Hessian of the endpoint-distance function on a reduced frame."""

    gradient: np.ndarray
    hessian: np.ndarray


def _kept_singular_values(s: np.ndarray, tol_rank: float) -> np.ndarray:
    """Mask of the singular values (last axis, largest first) above
    max(tol_rank * s[0], ABS_FLOOR); all False when s[0] is 0."""
    return s > np.maximum(tol_rank * s[..., :1], ABS_FLOOR)


def numerical_rank(matrix: np.ndarray, tol_rank: float = 1e-8) -> int:
    """Number of singular values above tol_rank * sigma_max (absolute floor
    1e-12) of a 2-D matrix.  Raises InvalidSpec unless the matrix is a 2-D
    array of numbers, every entry is finite and 0 <= tol_rank < 1."""
    check_tol_rank(tol_rank)
    m = check_array(matrix, 2, "matrix must be 2-D", "matrix entries must be finite")
    if m.size == 0:
        return 0
    return int(np.count_nonzero(_kept_singular_values(np.linalg.svd(m, compute_uv=False), tol_rank)))


def _inverse_singular_values(s: np.ndarray, tol_rank: float) -> np.ndarray:
    """1/s for the singular values that _kept_singular_values keeps; 0 for the others."""
    keep = _kept_singular_values(s, tol_rank)
    return np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)


def _truncated_svd(jac: np.ndarray, tol_rank: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, 1/s, vt) of the thin SVD of jac, 1/s from _inverse_singular_values."""
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    return u, _inverse_singular_values(s, tol_rank), vt


def _svd_solve(svd: tuple[np.ndarray, np.ndarray, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Minimal-norm least-squares solve with a _truncated_svd."""
    u, s_inv, vt = svd
    return vt.T @ (s_inv * (u.T @ rhs))


def _shorter_step(r: np.ndarray, b: np.ndarray, c: np.ndarray, phi: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Index into _STEP_LADDER[1:] of the first step t at which
    |r + t*b + t**2*c|^2 passes Armijo, for each row of r, b and c, (B, k),
    with phi and slope, (B,); -1 where none passes (the line search stalls).

    The constraint residual is quadratic in the points, so along a step delta
    it is r(x + t*delta) = r + t*b + t**2*c exactly, with b = J delta and
    c = r(x + delta) - r - b: this tests every shorter step on k-vectors, up
    to roundoff, without building its iterate.  The (rows, 39, k) model is
    evaluated _SHORTER_STEP_ROWS rows at a time, which bounds its memory.
    """
    t = _SHORTER_STEPS[:, None]
    first = np.empty(len(r), dtype=np.intp)
    for lo in range(0, len(r), _SHORTER_STEP_ROWS):
        rows = slice(lo, lo + _SHORTER_STEP_ROWS)
        model = r[rows, None, :] + t * b[rows, None, :] + (t * t) * c[rows, None, :]
        passed = _row_dots(model, model) <= phi[rows, None] + _ARMIJO_C * _SHORTER_STEPS * slope[rows, None]
        first[rows] = np.where(passed.any(axis=1), passed.argmax(axis=1), -1)
    return first


def _gauss_newton(
    linkage: Linkage,
    x: np.ndarray,
    tol: float,
    max_iter: int,
    tol_rank: float,
    plane: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Damped Gauss-Newton on the constraint residual from the flat start x:
    x itself when its residual is below tol (an empty one is), else the first
    iterate whose residual is.  An iterate's residual and, for a fresh step,
    its Jacobian are read off its edge vectors, computed once.

    A fresh step solves with one _truncated_svd of the Jacobian.  When its
    full step fails Armijo, one _shorter_step pass picks the first step of
    _STEP_LADDER that passes on the residual's quadratic along the step (the
    line search stalls when none does), and the residual is evaluated once
    more, at that step.

    A plane (t, p), trace_curve's pseudo-arclength hyperplane, appends the
    row t.(x - p) to the residual and t to the Jacobian, and turns on chord
    steps: each later step first solves with the last fresh step's SVD,
    without a line search, and is kept when it cuts |r|^2 at least fourfold,
    else a fresh step is taken from the same iterate; both count toward
    max_iter.  Without a plane every step is fresh: project_to_cspace must
    equal a row of _gauss_newton_rows, which takes no chord step, and a
    moved retraction would move the Hessians fd_hessian divides by step**2.

    Every full step and chord step is checked finite before its residual is
    taken, raising InvalidSpec as building a Configuration would; a shorter
    step lies between two finite points.
    """
    d = linkage.ambient_dim
    e = _edge_vectors(linkage, x.reshape(-1, d))
    r = _edge_residual(linkage, e)
    if plane is not None:
        t, p = plane
        r = np.concatenate([r, [t @ (x - p)]])
    if np.abs(r).max(initial=0.0) < tol:
        return x
    svd = None  # with a plane, the last fresh step's SVD
    for _ in range(max_iter):
        phi = float(r @ r)
        if svd is not None:
            x_new = x - _svd_solve(svd, r)
            check_finite(x_new)
            e_new = _edge_vectors(linkage, x_new.reshape(-1, d))
            r_new = np.concatenate([_edge_residual(linkage, e_new), [t @ (x_new - p)]])
            if 4.0 * float(r_new @ r_new) <= phi:
                x, e, r = x_new, e_new, r_new
                if np.abs(r).max() < tol:
                    return x
                continue
        jac = _edge_jacobian(linkage, e)
        if plane is not None:
            jac = np.vstack([jac, t])
        fresh = _truncated_svd(jac, tol_rank)
        svd = fresh if plane is not None else None
        delta = -_svd_solve(fresh, r)
        slope = float(2.0 * (jac.T @ r) @ delta)
        x_new = x + delta  # the full step, t = 1
        check_finite(x_new)
        e_new = _edge_vectors(linkage, x_new.reshape(-1, d))
        r_new = _edge_residual(linkage, e_new)
        if plane is not None:
            r_new = np.concatenate([r_new, [t @ (x_new - p)]])
        if not float(r_new @ r_new) <= phi + _ARMIJO_C * slope:
            b = jac @ delta
            j = _shorter_step(r[None], b[None], (r_new - r - b)[None], np.array([phi]), np.array([slope]))[0]
            if j < 0:
                raise NoConvergence("line search stalled")
            x_new = x + _SHORTER_STEPS[j] * delta
            e_new = _edge_vectors(linkage, x_new.reshape(-1, d))
            r_new = _edge_residual(linkage, e_new)
            if plane is not None:
                r_new = np.concatenate([r_new, [t @ (x_new - p)]])
        x, e, r = x_new, e_new, r_new
        if np.abs(r).max() < tol:
            return x
    raise NoConvergence(f"no convergence after {max_iter} iterations (|r|_inf={np.max(np.abs(r)):.3g})")


def _gauss_newton_rows(
    linkage: Linkage,
    x0: np.ndarray,
    tol: float,
    max_iter: int,
    tol_rank: float,
) -> tuple[np.ndarray, np.ndarray]:
    """_gauss_newton without a plane on every row of x0, in lockstep.

    x0 is (B, N*d), one flat start a row.  Returns (x, ok): where ok[i], x[i]
    is what _gauss_newton, and so project_to_cspace, returns from row i, bit
    for bit; elsewhere that raises NoConvergence, and x[i] is the iterate it
    stopped at (the line search stalled there, or max_iter ran out).  An
    iteration takes one stacked SVD and tries the full step on every live
    row.  The rows that reject it pick their shorter step in one
    _shorter_step pass, on (rows, 39, k) values of the residual's quadratic;
    each row takes the first step that passes Armijo, or stalls when none
    does, and one _residual_rows call evaluates the rows that moved at their
    steps.  Only the full steps are checked finite: a shorter step lies
    between x and the full step, so it is finite when both are.
    """
    x = np.array(x0, dtype=float)
    r = _residual_rows(linkage, x)
    ok = np.abs(r).max(axis=1, initial=0.0) < tol
    live = np.flatnonzero(~ok)
    for _ in range(max_iter):
        if live.size == 0:
            break
        xl, rl = x[live], r[live]
        jac = _jacobian_rows(linkage, xl)
        u, s, vt = np.linalg.svd(jac, full_matrices=False)
        proj = _inverse_singular_values(s, tol_rank) * (np.swapaxes(u, -1, -2) @ rl[..., None])[..., 0]
        delta = -(np.swapaxes(vt, -1, -2) @ proj[..., None])[..., 0]
        del u, s, vt  # free the factors before the line search's temporaries
        phi = _row_dots(rl, rl)
        slope = _row_dots(2.0 * (np.swapaxes(jac, -1, -2) @ rl[..., None])[..., 0], delta)
        x_new = xl + delta  # the full step, t = 1
        check_finite(x_new)
        r_new = _residual_rows(linkage, x_new)
        moved = _row_dots(r_new, r_new) <= phi + _ARMIJO_C * slope
        rejected = np.flatnonzero(~moved)
        if rejected.size:
            rr = rl[rejected]
            b = (jac[rejected] @ delta[rejected, :, None])[..., 0]
            first = _shorter_step(rr, b, r_new[rejected] - rr - b, phi[rejected], slope[rejected])
            hit = first >= 0  # the other rows stall: "line search stalled"
            rows = rejected[hit]
            if rows.size:
                xs = xl[rows] + _SHORTER_STEPS[first[hit], None] * delta[rows]
                x_new[rows], r_new[rows] = xs, _residual_rows(linkage, xs)
                moved[rows] = True
        stepped = live[moved]
        x[stepped], r[stepped] = x_new[moved], r_new[moved]
        done = moved & (np.abs(r_new).max(axis=1) < tol)
        ok[live[done]] = True
        live = live[moved & ~done]
    return x, ok


def project_to_cspace(
    linkage: Linkage,
    guess: Configuration,
    tol: float = _PROJECT_TOL,
    max_iter: int = _PROJECT_MAX_ITER,
    tol_rank: float = _PROJECT_TOL_RANK,
) -> Configuration:
    """Gauss-Newton projection (_gauss_newton) of a guess onto the constraint set.

    A guess already on the set is returned unchanged; any other guess gives
    the Gauss-Newton point, wherever its minimal-norm steps leave it.  No
    gauge is pinned: call pointed_normalize to put the base vertex at the
    origin (translation leaves the constraints exact).  Raises InvalidSpec
    unless tol is positive and finite, max_iter is an integer >= 0, and
    0 <= tol_rank < 1.
    """
    check_real(tol, "tol", positive=True)
    max_iter = check_integer(max_iter, "max_iter", 0)
    check_tol_rank(tol_rank)
    check_match(linkage, guess)
    x = guess.flat
    out = _gauss_newton(linkage, x, tol, max_iter, tol_rank)
    return guess if out is x else Configuration.from_flat(out, linkage.ambient_dim)


def sample_cspace(linkage: Linkage, n: int, seed: int = 0) -> list[Configuration]:
    """Project n random ambient starts onto the constraint set; failures are dropped.

    Starts draw coordinates uniformly from a box of half-width sum(lengths),
    or 1 when that sum is 0 (a linkage without edges); attempt i uses the
    substream keyed by (seed, i), so results are deterministic and
    schedule-independent.  The starts are projected together, in chunks of
    _SAMPLE_CHUNK, by one lockstep Gauss-Newton, whose rows that reject a
    full step pick the shorter one on k-vectors (_shorter_step), as
    project_to_cspace does; each result equals
    project_to_cspace(linkage, start) of its start bit for bit, so
    no gauge is pinned.  Only NoConvergence drops an attempt: any other
    error, such as InvalidSpec on a non-finite iterate, propagates.
    Raises InvalidSpec unless n >= 1 and seed >= 0 are integers.
    """
    n = check_integer(n, "n", 1)
    seed = check_integer(seed, "seed", 0)
    box = linkage.length_scale or 1.0
    shape = (linkage.n_vertices, linkage.ambient_dim)
    out: list[Configuration] = []
    for lo in range(0, n, _SAMPLE_CHUNK):
        starts = np.stack(
            [
                np.random.default_rng([seed, i]).uniform(-box, box, shape).reshape(-1)
                for i in range(lo, min(n, lo + _SAMPLE_CHUNK))
            ]
        )
        x, ok = _gauss_newton_rows(linkage, starts, _PROJECT_TOL, _PROJECT_MAX_ITER, _PROJECT_TOL_RANK)
        out.extend(Configuration.from_flat(row, shape[1]) for row in x[ok])
    if not out:
        raise NoFeasiblePoint(f"all {n} projection attempts failed")
    return out


# The transposed rotation generators of R^d, stacked: points @ _ROTATIONS_T[d]
# gives their fields.  In d=3 they are the rotations about the axes, in order.
_ROTATIONS_T = {
    2: np.array([[[0.0, 1.0], [-1.0, 0.0]]]),
    3: np.array(
        [
            [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]],
            [[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        ]
    ),
}


def _gauge_vectors(points: np.ndarray) -> np.ndarray:
    """Rigid-motion generator fields to be projected out of the null space:
    the d translations, then the rotations."""
    n, d = points.shape
    return np.concatenate([np.tile(np.eye(d), n), (points @ _ROTATIONS_T[d]).reshape(-1, n * d)])


def _orthonormal_rows(rows: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the row space, dropping near-dependent directions."""
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    return vt[: np.count_nonzero(_kept_singular_values(s, rel_tol))]


@lru_cache(maxsize=None)
def _translation_rows(n: int, d: int) -> np.ndarray:
    """The d translation fields of n points over sqrt(n): orthonormal rows."""
    rows = np.tile(np.eye(d), n) / np.sqrt(n)
    rows.setflags(write=False)
    return rows


def _gauge_basis(points: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the rigid motions at points, in closed form:
    the d translations over sqrt(N), then the rotation fields about the
    centroid, each normalized, with those whose norm falls below
    max(1e-10 * the largest row norm, ABS_FLOOR) dropped.  In d=3 the
    rotations are taken about the eigenvectors of their 3x3 Gram matrix (the
    principal axes), which makes them orthogonal, and their norms are summed
    from the fields, not read off the eigenvalues, so that the rotation about
    the line of collinear points comes out at roundoff and is dropped.  They
    span what _orthonormal_rows(_gauge_vectors(points)) spans, without an SVD."""
    n, d = points.shape
    rotations = ((points - points.sum(axis=0) / n) @ _ROTATIONS_T[d]).reshape(-1, n * d)
    if d == 3:
        rotations = np.linalg.eigh(rotations @ rotations.T)[1].T @ rotations
    norms = np.sqrt(_row_dots(rotations, rotations))
    keep = norms > max(1e-10 * max(math.sqrt(n), norms.max()), ABS_FLOOR)
    return np.concatenate([_translation_rows(n, d), rotations[keep] / norms[keep, None]])


def _null_space(linkage: Linkage, config: Configuration, tol_rank: float) -> tuple[np.ndarray, np.ndarray]:
    """The constraint Jacobian's singular values (largest first) and orthonormal
    null rows at a configuration on the constraint set (check_on_constraint)."""
    check_on_constraint(linkage, config)
    _, s, vt = np.linalg.svd(constraint_jacobian(linkage, config), full_matrices=True)
    return s, vt[np.count_nonzero(_kept_singular_values(s, tol_rank)) :]


def _gauge_frame(config: Configuration, null: np.ndarray) -> TangentFrame:
    """The tangent frame of config: the null rows with the rigid motions projected out."""
    gauge_vecs = _orthonormal_rows(_gauge_vectors(config.points))
    null = null - (null @ gauge_vecs.T) @ gauge_vecs
    return TangentFrame(base_config=config, basis=_orthonormal_rows(null))


def tangent_frame(linkage: Linkage, config: Configuration, tol_rank: float = 1e-8) -> TangentFrame:
    """Orthonormal basis of the constraint null space minus the rigid motions.

    Raises OffConstraint unless each edge's residual is below
    1e-8 * (1 + its length) (check_on_constraint), and InvalidSpec unless
    0 <= tol_rank < 1.
    """
    check_tol_rank(tol_rank)
    return _gauge_frame(config, _null_space(linkage, config, tol_rank)[1])


def _work_ends(linkage: Linkage) -> tuple[int, int]:
    """The linkage's base vertex and end effector; InvalidSpec when it has no effector."""
    if linkage.end_effector is None:
        raise InvalidSpec("linkage has no end effector")
    return linkage.base_vertex, linkage.end_effector


def _work_image(linkage: Linkage, null: np.ndarray, tol_rank: float) -> SubspaceBasis:
    """work_image read off the null rows that _null_space gives at the configuration."""
    base, effector = _work_ends(linkage)
    d = linkage.ambient_dim
    fields = null.reshape(-1, linkage.n_vertices, d)
    rows = fields[:, effector, :] - fields[:, base, :]
    return SubspaceBasis(d, _orthonormal_rows(rows, rel_tol=max(tol_rank, 1e-9)))


def work_image(linkage: Linkage, config: Configuration, tol_rank: float = 1e-8) -> SubspaceBasis:
    """Image over the constraint null space of the differential of the linkage's
    base-to-end-effector displacement.  No gauge is removed: translations lie in
    the null space and map to 0, so this is the image over the pointed tangent.
    It takes one _null_space SVD.  Raises InvalidSpec without an end effector
    or unless 0 <= tol_rank < 1, and OffConstraint unless each
    edge's residual is below 1e-8 * (1 + its length) (check_on_constraint)."""
    _work_ends(linkage)
    check_tol_rank(tol_rank)
    return _work_image(linkage, _null_space(linkage, config, tol_rank)[1], tol_rank)


def _retract(linkage: Linkage, flat: np.ndarray, tol_rank: float) -> Configuration:
    return project_to_cspace(
        linkage,
        Configuration.from_flat(flat, linkage.ambient_dim),
        tol=_RETRACT_TOL,
        max_iter=_RETRACT_MAX_ITER,
        tol_rank=tol_rank,
    )


def _default_step(config: Configuration) -> float:
    return 1e-4 * (1.0 + float(np.max(np.abs(config.points))))


def fd_hessian(
    linkage: Linkage,
    f: Callable[[Configuration], float],
    frame: TangentFrame,
    tol_rank: float = 1e-8,
) -> np.ndarray:
    """Symmetrized central-difference Hessian of f along the frame, with
    retraction-first evaluation so curvature of the constraint set is included.

    f must be translation-invariant.  The frame's configuration is first
    translated so that its centroid is at the origin; the step,
    1e-4 * (1 + max |coordinate|), and every retraction are taken from that
    centered configuration, so the Hessian does not depend on where the
    mechanism sits.  Raises InvalidSpec unless 0 <= tol_rank < 1."""
    check_tol_rank(tol_rank)
    points = frame.base_config.points
    centered = Configuration(points - points.mean(axis=0))
    v0 = centered.flat
    step = _default_step(centered)
    m = frame.dim
    f0 = f(_retract(linkage, v0, tol_rank))
    hess = np.zeros((m, m))
    plus = np.zeros(m)
    minus = np.zeros(m)
    for i in range(m):
        plus[i] = f(_retract(linkage, v0 + step * frame.basis[i], tol_rank))
        minus[i] = f(_retract(linkage, v0 - step * frame.basis[i], tol_rank))
        hess[i, i] = (plus[i] + minus[i] - 2.0 * f0) / step**2
    for i in range(m):
        for j in range(i + 1, m):
            bij = frame.basis[i] + frame.basis[j]
            dij = frame.basis[i] - frame.basis[j]
            fpp = f(_retract(linkage, v0 + step * bij, tol_rank))
            fmm = f(_retract(linkage, v0 - step * bij, tol_rank))
            fpm = f(_retract(linkage, v0 + step * dij, tol_rank))
            fmp = f(_retract(linkage, v0 - step * dij, tol_rank))
            hess[i, j] = hess[j, i] = (fpp + fmm - fpm - fmp) / (4.0 * step**2)
    return hess


def reduced_work_data(linkage: Linkage, frame: TangentFrame, tol_rank: float = 1e-8) -> WorkData:
    """Gradient and Hessian of the distance from the linkage's base vertex to
    its end effector, on a tangent frame of the linkage at its configuration.

    The gradient is the analytic ambient gradient projected onto the frame;
    the Hessian is fd_hessian's retraction-corrected finite difference.
    Raises InvalidSpec when the linkage has no end effector, tol_rank is not
    in [0, 1) or the frame's configuration does not fit the linkage,
    and DegenerateDirection when base and effector lie within
    1e-9 * (1 + total length) of each other, so the test does not depend on
    where the mechanism sits.  That scale is at most the one of
    stage_classify's coincident_endpoints reason, 1 + the longer total length
    of remainder and chain, so a stage, which calls this on its remainder only
    past that reason, never reaches the raise.
    """
    base, eff = _work_ends(linkage)
    check_tol_rank(tol_rank)
    check_match(linkage, frame.base_config)
    p = frame.base_config.points
    diff = p[eff] - p[base]
    dist = math.sqrt(diff @ diff)  # np.linalg.norm of the vector, bit for bit
    if dist < 1e-9 * (1.0 + linkage.length_scale):
        raise DegenerateDirection("effector coincides with base; reduced work data undefined")

    unit = diff / dist
    amb = np.zeros_like(p)
    amb[eff] += unit
    amb[base] -= unit
    grad = frame.basis @ amb.reshape(-1) if frame.dim else np.zeros(0)

    def dist_fn(cfg: Configuration) -> float:
        q = cfg.points[eff] - cfg.points[base]
        return math.sqrt(q @ q)

    hess = fd_hessian(linkage, dist_fn, frame, tol_rank)
    return WorkData(gradient=grad, hessian=hess)


def _gauge_fix(linkage: Linkage, config: Configuration) -> Configuration:
    """config in the linkage's gauge: reduced with a base link, pointed without."""
    return Configuration(_gauge_points(linkage, config.points))


def _closure_gap(linkage: Linkage, w: np.ndarray, start: np.ndarray) -> float:
    """|w - start| over the flat coordinates of two (N, d) point sets in the
    linkage's gauge, after the proper rotation of w that best matches start
    among those the gauge leaves free: none in d=2 with a base link, those
    about e1 (on coordinates 1 onward) in d=3 with one, and all of them
    (about the base vertex, at the origin) without one."""
    free = w.shape[1] - (linkage.base_link is not None)
    if free > 1:
        a, b = w[:, -free:], start[:, -free:]
        u, _, vt = np.linalg.svd(a.T @ b)  # orthogonal Procrustes, made proper
        if np.linalg.det(u @ vt) < 0.0:
            u[:, -1] = -u[:, -1]
        w = np.concatenate([w[:, :-free], a @ (u @ vt)], axis=1)
    return float(np.linalg.norm((w - start).reshape(-1)))


def trace_curve(
    linkage: Linkage,
    start: Configuration,
    step: float = 0.05,
    max_steps: int = 2000,
    tol_rank: float = 1e-8,
    detect_tol: float = 1e-4,
    direction: Optional[np.ndarray] = None,
) -> TraceResult:
    """Pseudo-arclength continuation of a one-dimensional solution curve.

    Predicts along the unit reduced tangent t to p, corrects by _gauss_newton
    with the plane (t, p) to residual 1e-10, and stops on loop closure, step
    exhaustion, or singularity indicators: a jump in tangent dimension or
    direction (|cos| below 0.5 between consecutive tangents), or the
    rank-proximity ratio falling below detect_tol ("tangent_jump"), or a
    corrector that keeps failing as the step shrinks
    ("stalled_at_singularity").  A flat ``direction`` orients the first
    tangent.  Raises InvalidSpec unless step is positive and finite,
    max_steps is an integer >= 0, detect_tol is finite and >= 0,
    0 <= tol_rank < 1, direction has N*d finite coordinates, and the
    reduced tangent space at the projected start is a line.

    The loop closes at a point after the tenth step that lies within step/2
    of the start once the rotation its gauge leaves free is taken out
    (_closure_gap): none in d=2 with a base link, the best proper rotation
    about e1 in d=3 with one, and the best proper rotation about the base
    vertex without one.  The rigid motions are projected out of every
    tangent, but a loop can still come back turned by such a rotation.

    A point costs two SVDs, and one of a 2x2 or 3x3 matrix for the closure
    test where a rotation is free.  The corrector takes one for its first
    step, at the predictor, and reuses it for every later step that cuts
    |r|^2 at least fourfold; a step that does not is dropped for a fresh one
    from the same iterate, whose SVD is reused in turn (60 steps at most).
    The other is the new point's null space: the old tangent is projected
    onto its null rows and then off the rigid motions (_gauge_basis), which
    leaves |cos| times the new unit tangent, already oriented along the old
    one.  The new tangent dimension is the number of null rows less the
    number of rigid motions.
    """
    check_real(step, "step", positive=True)
    max_steps = check_integer(max_steps, "max_steps", 0)
    check_tol_rank(tol_rank)
    check_real(detect_tol, "detect_tol")
    if direction is not None:
        size = linkage.n_vertices * linkage.ambient_dim
        rule = f"direction must be {size} finite coordinates"
        direction = check_array(direction, 1, rule, rule)
        if direction.shape != (size,):
            raise InvalidSpec(f"{rule}, got shape {direction.shape}")
    v = _gauge_fix(linkage, project_to_cspace(linkage, start, tol=_TRACE_TOL))
    frame = tangent_frame(linkage, v, tol_rank)
    if frame.dim != 1:
        raise InvalidSpec(f"reduced tangent dimension is {frame.dim}, not 1")
    tangent = frame.basis[0]
    if direction is not None and float(tangent @ direction) < 0.0:
        tangent = -tangent

    points: list[Configuration] = [v]
    reason = "max_steps"

    for step_idx in range(max_steps):
        corrected = None
        sub_step = step
        for _ in range(3):
            # a retry corrects in the hyperplane through its own, shorter predictor
            predictor = v.flat + sub_step * tangent
            try:
                corrected = _gauss_newton(linkage, predictor, _TRACE_TOL, 60, tol_rank, (tangent, predictor))
                break
            except NoConvergence:
                sub_step *= 0.5
        if corrected is None:
            reason = "stalled_at_singularity"
            break

        w = Configuration(_gauge_points(linkage, corrected.reshape(-1, linkage.ambient_dim)))
        s, null = _null_space(linkage, w, tol_rank)
        # sigma_k / sigma_1 of the constraint Jacobian, small near a rank drop;
        # with no constraint there is no rank to lose
        if linkage.k == 0:
            proximity = np.inf
        elif s.size >= linkage.k and s[0] > 0.0:
            proximity = s[linkage.k - 1] / s[0]
        else:
            proximity = 0.0
        points.append(w)
        # the old tangent projected onto the null rows, then off the rigid
        # motions: on a curve its norm is |cos| to the new unit tangent
        gauge = _gauge_basis(w.points)
        cos = 0.0  # no single new tangent
        if proximity >= detect_tol and null.shape[0] - gauge.shape[0] == 1:
            along = null.T @ (null @ tangent)
            along -= gauge.T @ (gauge @ along)
            cos = float(np.linalg.norm(along))
        if cos < _TRACE_MIN_COS:  # a NaN cos goes on
            reason = "tangent_jump"
            break
        if step_idx >= 10 and _closure_gap(linkage, w.points, points[0].points) < 0.5 * step:
            reason = "loop_closed"
            break
        v, tangent = w, along / cos

    return TraceResult(points=tuple(points), stop_reason=reason)


def local_branch_count(
    linkage: Linkage,
    config: Configuration,
    radius: Optional[float] = None,
    n_samples: int = 48,
    seed: int = 0,
    cluster_factor: float = 0.25,
    tol_rank: float = 1e-8,
) -> BranchReport:
    """Count local solution branches through a configuration.

    Samples the intersection of the constraint set with the sphere of the
    given radius around the (gauge-fixed) configuration, then single-linkage
    clusters the retained points at threshold cluster_factor * radius.  The
    count is computed at the radius and at half of it; ``stable`` records
    whether the two agree.  The default radius is 1e-2 * min(lengths), or
    1e-2 for a linkage without links.

    Sample i steps along a unit tangent direction drawn from the substream
    keyed by (seed, i); the directions are drawn once per call and scaled to
    each radius.  A step that fails to converge or lands within
    0.05 * radius of the center is dropped; one landing over 0.1 * radius
    off the sphere is rescaled onto it and retried, 8 rounds at most.  Raises
    InvalidSpec unless radius and cluster_factor are positive and finite,
    0 <= tol_rank < 1, and n_samples >= 1 and seed >= 0 are integers.

    Each step is a row that carries its own radius, and both radii's rows
    share every round: one lockstep retraction (_gauss_newton_rows) and one
    stacked gauge fix serve all remaining steps at r and at r/2, so a round
    pays its stacked Jacobian, SVD call, gauge fix and shell test once.  A
    row's retraction does not depend on the rest of its batch, so each
    radius keeps the points that retracting it alone would keep.  The kept
    rows are split by radius, and one distance graph clusters each radius'
    points, built a block of rows at a time so that its memory grows like
    n_samples**2, not n_samples**2 * N*d.  Errors come in round order,
    whichever radius raises them: within a round, a non-finite step's
    InvalidSpec from the lockstep comes before the gauge fix's
    DegenerateDirection.

    At an isolated point every step converges linearly back into the center
    and is then dropped: at the tri-platform-b demo a row takes 37
    Gauss-Newton iterations on average and 55 at most, and a call takes
    about 72 ms, against about 3.3 ms at the four-bar node (2-core x86-64).

    Half-branches that leave the center tangent to each other are merged:
    their separation on the sphere shrinks like radius**2, below the
    threshold, and halving the radius does not split them, so ``stable``
    stays True while the count is too low.  At the egsing demo, a
    tacnode with four half-branches, it reports 2 (cluster sizes 27/21,
    stable at radius 1e-2 and 1e-3).

    The retained samples depend on the input points' roundoff, not on where
    the mechanism sits, since the sphere is built around the gauge-fixed
    center: egsing moved by (1000, 1000) keeps 45 of 48 at radius 1e-2, as
    do its moved points centered again, while its moved lengths at the
    original points keep 48.

    Where the reduced tangent space has dimension 2 or more, the count
    depends on n_samples: at the five-bar demo, whose link is one circle,
    seed 0 gives 9, 9 and 4 branches at 16, 48 and 96 samples, all stable.
    """
    if radius is not None:
        check_real(radius, "radius", positive=True)
    n_samples = check_integer(n_samples, "n_samples", 1)
    seed = check_integer(seed, "seed", 0)
    check_real(cluster_factor, "cluster_factor", positive=True)
    check_tol_rank(tol_rank)
    r = radius if radius is not None else 1e-2 * min(linkage.lengths, default=1.0)
    center = _gauge_fix(linkage, project_to_cspace(linkage, config, tol=_RETRACT_TOL))
    frame = tangent_frame(linkage, center, tol_rank)
    shape = center.points.shape
    nd = center.flat.size
    units = []  # the unit tangent directions, drawn once for both radii
    for i in range(n_samples):
        coeff = np.random.default_rng([seed, i]).normal(size=frame.dim)
        nrm = np.linalg.norm(coeff)
        if nrm >= 1e-12:
            units.append((coeff / nrm) @ frame.basis)
    units = np.reshape(units, (-1, nd))

    # each direction scaled to r and to r/2: one row each, with its own radius
    rad = np.repeat([r, 0.5 * r], len(units))
    flat = center.flat + np.concatenate([units, units]) * rad[:, None]
    kept, kept_rad = [np.zeros((0, nd))], [np.zeros(0)]
    for _ in range(8):
        if not len(flat):
            break
        x, ok = _gauss_newton_rows(linkage, flat, _RETRACT_TOL, _RETRACT_MAX_ITER, tol_rank)
        x, rad = x[ok], rad[ok]
        check_finite(x)
        w = _gauge_points(linkage, x.reshape(len(x), *shape)).reshape(len(x), nd)
        offset = w - center.flat
        dist = np.sqrt(_row_dots(offset, offset))  # np.linalg.norm of each row
        on_shell = np.abs(dist - rad) <= 0.1 * rad
        kept.append(w[on_shell])
        kept_rad.append(rad[on_shell])
        retry = ~on_shell & (dist >= 0.05 * rad)
        rad = rad[retry]
        flat = center.flat + offset[retry] * (rad / dist[retry])[:, None]
    retained, retained_rad = np.concatenate(kept), np.concatenate(kept_rad)

    def cluster_sizes(pts: np.ndarray, rad: float) -> list[int]:
        """Sizes of the connected components of the graph that joins two points
        closer than cluster_factor * rad, largest first."""
        n = len(pts)
        if not n:
            return []
        rows = [slice(lo, lo + _CLUSTER_BLOCK) for lo in range(0, n, _CLUSTER_BLOCK)]
        # near[i, j]: np.linalg.norm of pts[j] - pts[i]; a point joins itself
        near = np.empty((n, n), dtype=bool)
        for block in rows:
            diff = pts[None] - pts[block, None]
            near[block] = np.sqrt(_row_dots(diff, diff)) < cluster_factor * rad
        label = np.arange(n)
        while True:  # every point takes the least label of its neighbours
            least = np.concatenate([np.where(near[block], label, n).min(axis=1) for block in rows])
            if np.array_equal(least, label):
                break
            label = least
        return sorted(np.unique(label, return_counts=True)[1].tolist(), reverse=True)

    pts_r = retained[retained_rad == r]
    sizes = cluster_sizes(pts_r, r)
    n_half = len(cluster_sizes(retained[retained_rad != r], 0.5 * r))
    return BranchReport(
        radius=r,
        sample_count=len(pts_r),
        branch_count=len(sizes),
        cluster_sizes=tuple(sizes),
        stable=(len(sizes) == n_half),
        halved_branch_count=n_half,
    )
