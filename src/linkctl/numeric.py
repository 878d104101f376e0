"""Numerical engine: rank with tolerance, projection onto the constraint set,
sampling, tangent frames, a finite-difference Hessian, reduced work data,
pseudo-arclength continuation, and local branch counting.

Tangent frames, work images and traced points read the constraint Jacobian's
null space off one SVD per configuration, taken in ``_null_space``.  Every
tangent frame is reduced: rigid translations and rotations are projected out.

All stochastic operations are pure functions of (inputs, seed): every sample
draws from its own substream keyed by (seed, index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    CoincidentEndpoints,
    InvalidSpec,
    NoConvergence,
    NoFeasiblePoint,
    NotACurve,
)
from .model import (
    Configuration,
    Linkage,
    SubspaceBasis,
    _jacobian_points,
    _jacobian_rows,
    _residual_points,
    _residual_rows,
    check_finite,
    check_match,
    check_on_constraint,
    constraint_jacobian,
    pointed_normalize,
    reduced_normalize,
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
# the steps of _STEP_LADDER, longest first, and stalls when none passes.
_ARMIJO_C = 1e-4
_STEP_LADDER = tuple(0.5**j for j in range(40))  # 1, 1/2, ..., 2^-39 >= 1e-12 > 2^-40

# project_to_cspace's defaults, which sample_cspace also projects with.
_PROJECT_MAX_ITER = 100
_PROJECT_TOL_RANK = 1e-8

# trace_curve's corrector tolerance, and the least |cos| between consecutive
# tangents before it reports a tangent jump.
_TRACE_TOL = 1e-10
_TRACE_MIN_COS = 0.5

# Starts that sample_cspace projects together; bounds the batch's memory.
_SAMPLE_CHUNK = 32


@dataclass(frozen=True)
class TangentFrame:
    """Orthonormal basis of null(d(lambda)) with the rigid motions projected
    out: the d translation generators and the rotation generators (including,
    in d=3, the residual rotation about the pinned direction)."""

    base_config: Configuration
    basis: np.ndarray  # (m, N*d), orthonormal rows

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


@dataclass(frozen=True)
class TraceResult:
    points: tuple[Configuration, ...]
    stop_reason: str
    closed: bool


@dataclass(frozen=True)
class WorkData:
    """Gradient and Hessian of the endpoint-distance function on a reduced frame."""

    gradient: np.ndarray
    hessian: np.ndarray
    frame: TangentFrame


def _kept_singular_values(s: np.ndarray, tol_rank: float) -> np.ndarray:
    """Mask of the singular values (last axis, largest first) above
    max(tol_rank * s[0], ABS_FLOOR); all False when s[0] is 0."""
    return s > np.maximum(tol_rank * s[..., :1], ABS_FLOOR)


def numerical_rank(matrix: np.ndarray, tol_rank: float = 1e-8) -> int:
    """Number of singular values above tol_rank * sigma_max (absolute floor 1e-12)."""
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        return 0
    if not np.all(np.isfinite(m)):
        raise InvalidSpec("matrix entries must be finite")
    return int(np.count_nonzero(_kept_singular_values(np.linalg.svd(m, compute_uv=False), tol_rank)))


def _inverse_singular_values(s: np.ndarray, tol_rank: float) -> np.ndarray:
    """1/s for the singular values that _kept_singular_values keeps; 0 for the others."""
    keep = _kept_singular_values(s, tol_rank)
    return np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)


def _pinv_solve(jac: np.ndarray, rhs: np.ndarray, tol_rank: float) -> np.ndarray:
    """Minimal-norm least-squares solve via truncated SVD."""
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    if s.size == 0:
        return np.zeros(jac.shape[1])
    return vt.T @ (_inverse_singular_values(s, tol_rank) * (u.T @ rhs))


def _gauss_newton(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    jacobian_fn: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    tol: float,
    max_iter: int,
    tol_rank: float = 1e-8,
    r0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Damped Gauss-Newton: a truncated-SVD step, then Armijo backtracking
    along _STEP_LADDER.

    r0, when given, is residual_fn(x0), already computed by the caller.  An
    empty residual (no constraint) has converged.
    """
    x = np.array(x0, dtype=float)
    r = residual_fn(x) if r0 is None else r0
    if np.abs(r).max(initial=0.0) < tol:
        return x
    for _ in range(max_iter):
        jac = jacobian_fn(x)
        delta = -_pinv_solve(jac, r, tol_rank)
        phi = float(r @ r)
        slope = float(2.0 * (jac.T @ r) @ delta)
        for alpha in _STEP_LADDER:
            x_new = x + alpha * delta
            r_new = residual_fn(x_new)
            if float(r_new @ r_new) <= phi + _ARMIJO_C * alpha * slope:
                break
        else:
            raise NoConvergence("line search stalled")
        x, r = x_new, r_new
        if np.abs(r).max() < tol:
            return x
    raise NoConvergence(f"no convergence after {max_iter} iterations (|r|_inf={np.max(np.abs(r)):.3g})")


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[..., i, :] @ b[..., i, :] for every row, each the same dot product
    that `@` takes of two vectors."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _gauss_newton_rows(
    linkage: Linkage,
    x0: np.ndarray,
    r0: np.ndarray,
    tol: float,
    max_iter: int,
    tol_rank: float,
) -> tuple[np.ndarray, np.ndarray]:
    """_gauss_newton on the constraint residual of every row of x0, in lockstep.

    x0 is (B, N*d), one flat start a row, and r0 its residuals.  Returns
    (x, ok): where ok[i], x[i] is what _gauss_newton returns from row i, bit
    for bit; elsewhere it raises NoConvergence, and x[i] is the iterate it
    stopped at (the line search stalled there, or max_iter ran out).  An iteration
    takes one stacked SVD and tries the full step on every live row.  The
    rows that reject it try the next four steps of _STEP_LADDER, where most
    pass, and the rest every shorter step; each row takes the first step
    that passes Armijo, or stalls when none does.
    Only the full steps are checked finite: a shorter step lies between x
    and the full step, so it is finite when both are.
    """
    x = np.array(x0, dtype=float)
    r = np.array(r0, dtype=float)
    ok = np.abs(r).max(axis=1, initial=0.0) < tol
    live = np.flatnonzero(~ok)
    shorter = (np.array(_STEP_LADDER[1:5]), np.array(_STEP_LADDER[5:]))
    for _ in range(max_iter):
        if live.size == 0:
            break
        xl, rl = x[live], r[live]
        jac = _jacobian_rows(linkage, xl)
        u, s, vt = np.linalg.svd(jac, full_matrices=False)
        proj = _inverse_singular_values(s, tol_rank) * (np.swapaxes(u, -1, -2) @ rl[..., None])[..., 0]
        delta = -(np.swapaxes(vt, -1, -2) @ proj[..., None])[..., 0]
        phi = _row_dots(rl, rl)
        slope = _row_dots(2.0 * (np.swapaxes(jac, -1, -2) @ rl[..., None])[..., 0], delta)
        x_new = xl + delta  # the full step, t = 1
        check_finite(x_new)
        r_new = _residual_rows(linkage, x_new)
        rejected = np.flatnonzero(~(_row_dots(r_new, r_new) <= phi + _ARMIJO_C * slope))
        moved = np.ones(live.size, dtype=bool)
        for steps in shorter:
            if not rejected.size:
                break
            xs = xl[rejected, None, :] + steps[:, None] * delta[rejected, None, :]
            rs = _residual_rows(linkage, xs.reshape(-1, xs.shape[-1])).reshape(*xs.shape[:2], -1)
            bound = phi[rejected, None] + _ARMIJO_C * steps * slope[rejected, None]
            passed = _row_dots(rs, rs) <= bound
            hit = np.flatnonzero(passed.any(axis=1))
            first = passed[hit].argmax(axis=1)
            x_new[rejected[hit]] = xs[hit, first]
            r_new[rejected[hit]] = rs[hit, first]
            rejected = np.delete(rejected, hit)
        moved[rejected] = False  # no step passes: "line search stalled"
        stepped = live[moved]
        x[stepped], r[stepped] = x_new[moved], r_new[moved]
        done = moved & (np.abs(r_new).max(axis=1) < tol)
        ok[live[done]] = True
        live = live[moved & ~done]
    return x, ok


def _finite_points(x: np.ndarray, d: int) -> np.ndarray:
    """View of a flat Gauss-Newton iterate as (N, d) points, checked finite.

    Residual closures call it on every iterate: a non-finite step raises
    InvalidSpec, as building a Configuration would, instead of ending in
    NoConvergence.  Jacobians are only taken at iterates a residual has seen.
    """
    p = x.reshape(-1, d)
    check_finite(p)
    return p


def _at_base(points: np.ndarray, base: int) -> bool:
    """True when the base vertex sits at the origin, to roundoff in the points' scale."""
    return bool(np.linalg.norm(points[base]) < 1e-12 * (1.0 + np.max(np.abs(points))))


def project_to_cspace(
    linkage: Linkage,
    guess: Configuration,
    tol: float = 1e-10,
    max_iter: int = _PROJECT_MAX_ITER,
    tol_rank: float = _PROJECT_TOL_RANK,
    preserve_pointed: bool = True,
) -> Configuration:
    """Gauss-Newton projection of a guess onto the constraint set.

    A guess already on the set is returned unchanged.  If the guess had its
    base vertex at the origin, the result is re-pinned there (translation
    leaves the constraints exact).
    """
    check_match(linkage, guess)
    r0 = _residual_points(linkage, guess.points)
    if np.abs(r0).max(initial=0.0) < tol:
        return guess

    d = linkage.ambient_dim
    was_pointed = preserve_pointed and _at_base(guess.points, linkage.base_vertex)

    def res(x: np.ndarray) -> np.ndarray:
        return _residual_points(linkage, _finite_points(x, d))

    def jac(x: np.ndarray) -> np.ndarray:
        return _jacobian_points(linkage, x.reshape(-1, d))

    x = _gauss_newton(res, jac, guess.flat, tol, max_iter, tol_rank, r0)
    out = Configuration.from_flat(x, d)
    if was_pointed:
        out = pointed_normalize(out, linkage.base_vertex)
    return out


def sample_cspace(linkage: Linkage, n: int, seed: int = 0, tol: float = 1e-10) -> list[Configuration]:
    """Project n random ambient starts onto the constraint set; failures are dropped.

    Starts draw coordinates uniformly from a box of half-width sum(lengths),
    or 1 when that sum is 0 (a linkage without edges); attempt i uses the
    substream keyed by (seed, i), so results are deterministic and
    schedule-independent.  The starts are projected together, in chunks of
    _SAMPLE_CHUNK, by one lockstep Gauss-Newton; each result equals
    project_to_cspace(linkage, start, tol=tol) of its start bit for bit.
    Only NoConvergence drops an attempt: any other error, such as
    InvalidSpec on a non-finite iterate, propagates.
    """
    if n < 1:
        raise InvalidSpec("need at least one sample attempt")
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
        r0 = _residual_rows(linkage, starts)
        x, ok = _gauss_newton_rows(linkage, starts, r0, tol, _PROJECT_MAX_ITER, _PROJECT_TOL_RANK)
        # project_to_cspace returns a start on the set as it is and re-pins the others
        on_set = np.abs(r0).max(axis=1, initial=0.0) < tol
        for row, start, good, as_drawn in zip(x, starts, ok, on_set):
            if not good:
                continue
            config = Configuration.from_flat(row, shape[1])
            if not as_drawn and _at_base(start.reshape(shape), linkage.base_vertex):
                config = pointed_normalize(config, linkage.base_vertex)
            out.append(config)
    if not out:
        raise NoFeasiblePoint(f"all {n} projection attempts failed")
    return out


def _rotation_generators(d: int) -> list[np.ndarray]:
    if d == 2:
        return [np.array([[0.0, -1.0], [1.0, 0.0]])]
    gens = []
    for a in range(3):
        k = np.zeros((3, 3))
        b, c = (a + 1) % 3, (a + 2) % 3
        k[b, c] = -1.0
        k[c, b] = 1.0
        gens.append(k)
    return gens


def _gauge_vectors(points: np.ndarray) -> np.ndarray:
    """Rigid-motion generator fields to be projected out of the null space:
    the d translations, then the rotations."""
    n, d = points.shape
    vecs: list[np.ndarray] = []
    for j in range(d):
        t = np.zeros((n, d))
        t[:, j] = 1.0
        vecs.append(t.reshape(-1))
    for gen in _rotation_generators(d):
        vecs.append((points @ gen.T).reshape(-1))
    return np.stack(vecs, axis=0)


def _orthonormal_rows(rows: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the row space, dropping near-dependent directions."""
    if rows.shape[0] == 0:
        return rows
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    return vt[: np.count_nonzero(_kept_singular_values(s, rel_tol))]


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

    Requires the configuration to satisfy the constraints to 1e-8.
    """
    return _gauge_frame(config, _null_space(linkage, config, tol_rank)[1])


def work_image(
    linkage: Linkage,
    config: Configuration,
    base: int,
    effector: int,
    tol_rank: float = 1e-8,
) -> SubspaceBasis:
    """Image of the effector-displacement differential over the constraint null
    space.  No gauge is removed: the map sends translations, which lie in the
    null space, to 0, so this is the image over the pointed tangent."""
    d = linkage.ambient_dim
    fields = _null_space(linkage, config, tol_rank)[1].reshape(-1, linkage.n_vertices, d)
    rows = fields[:, effector, :] - fields[:, base, :]
    return SubspaceBasis(d, _orthonormal_rows(rows, rel_tol=max(tol_rank, 1e-9)))


def _retract(linkage: Linkage, flat: np.ndarray, tol_rank: float) -> Configuration:
    return project_to_cspace(
        linkage,
        Configuration.from_flat(flat, linkage.ambient_dim),
        tol=1e-12,
        max_iter=60,
        tol_rank=tol_rank,
        preserve_pointed=False,
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
    The step is 1e-4 * (1 + max |coordinate|) of the frame's configuration."""
    v0 = frame.base_config.flat
    step = _default_step(frame.base_config)
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


def reduced_work_data(linkage: Linkage, config: Configuration, tol_rank: float = 1e-8) -> WorkData:
    """Gradient and Hessian of the distance from the linkage's base vertex to
    its end effector, on the reduced frame.

    The gradient is the analytic ambient gradient projected onto the frame;
    the Hessian is fd_hessian's retraction-corrected finite difference.
    Raises InvalidSpec when the linkage has no end effector, and
    CoincidentEndpoints when base and effector occupy the same point.
    """
    eff = linkage.end_effector
    if eff is None:
        raise InvalidSpec("linkage has no end effector")
    base = linkage.base_vertex
    check_match(linkage, config)
    p = config.points
    diff = p[eff] - p[base]
    dist = float(np.linalg.norm(diff))
    scale = 1.0 + float(np.max(np.abs(p)))
    if dist < 1e-9 * scale:
        raise CoincidentEndpoints("effector coincides with base; reduced work data undefined")

    frame = tangent_frame(linkage, config, tol_rank)
    unit = diff / dist
    amb = np.zeros_like(p)
    amb[eff] += unit
    amb[base] -= unit
    grad = frame.basis @ amb.reshape(-1) if frame.dim else np.zeros(0)

    def dist_fn(cfg: Configuration) -> float:
        q = cfg.points
        return float(np.linalg.norm(q[eff] - q[base]))

    hess = fd_hessian(linkage, dist_fn, frame, tol_rank)
    return WorkData(gradient=grad, hessian=hess, frame=frame)


def _gauge_fix(linkage: Linkage, config: Configuration) -> Configuration:
    if linkage.base_link is not None:
        return reduced_normalize(linkage, config)
    return pointed_normalize(config, linkage.base_vertex)


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

    Predicts along the unit reduced tangent (orientation kept by sign
    matching), corrects by Gauss-Newton to residual 1e-10 in the hyperplane
    orthogonal to the predictor, and stops on loop closure, step exhaustion,
    or singularity indicators: a jump in tangent dimension or direction
    (|cos| below 0.5 between consecutive tangents), or the rank-proximity
    ratio falling below detect_tol ("tangent_jump"), or a corrector that
    keeps failing as the step shrinks ("stalled_at_singularity").  Raises
    InvalidSpec unless step is positive and finite, max_steps >= 0, and
    tol_rank and detect_tol are finite and >= 0.
    """
    if not (np.isfinite(step) and step > 0):
        raise InvalidSpec(f"step must be positive and finite, got {step}")
    if max_steps < 0:
        raise InvalidSpec(f"max_steps must be >= 0, got {max_steps}")
    if not (np.isfinite(tol_rank) and tol_rank >= 0):
        raise InvalidSpec(f"tol_rank must be finite and >= 0, got {tol_rank}")
    if not (np.isfinite(detect_tol) and detect_tol >= 0):
        raise InvalidSpec(f"detect_tol must be finite and >= 0, got {detect_tol}")
    v = _gauge_fix(linkage, project_to_cspace(linkage, start, tol=_TRACE_TOL))
    frame = tangent_frame(linkage, v, tol_rank)
    if frame.dim != 1:
        raise NotACurve(f"reduced tangent dimension is {frame.dim}, not 1")
    tangent = frame.basis[0]
    if direction is not None and float(tangent @ np.asarray(direction, dtype=float)) < 0.0:
        tangent = -tangent

    d = linkage.ambient_dim
    points: list[Configuration] = [v]
    closed = False
    reason = "max_steps"

    for step_idx in range(max_steps):
        def jac(x: np.ndarray, _t=tangent) -> np.ndarray:
            return np.vstack([_jacobian_points(linkage, x.reshape(-1, d)), _t])

        corrected = None
        sub_step = step
        for _ in range(3):
            # a retry corrects in the hyperplane through its own, shorter predictor
            predictor = v.flat + sub_step * tangent

            def res(x: np.ndarray, _t=tangent, _p=predictor) -> np.ndarray:
                p = _finite_points(x, d)
                return np.concatenate([_residual_points(linkage, p), [_t @ (x - _p)]])

            try:
                corrected = _gauss_newton(res, jac, predictor, _TRACE_TOL, 60, tol_rank)
                break
            except NoConvergence:
                sub_step *= 0.5
        if corrected is None:
            reason = "stalled_at_singularity"
            break

        w = _gauge_fix(linkage, Configuration.from_flat(corrected, d))
        s, null = _null_space(linkage, w, tol_rank)
        # sigma_k / sigma_1 of the constraint Jacobian, small near a rank drop;
        # with no constraint there is no rank to lose
        if linkage.k == 0:
            proximity = np.inf
        elif s.size >= linkage.k and s[0] > 0.0:
            proximity = s[linkage.k - 1] / s[0]
        else:
            proximity = 0.0
        if proximity < detect_tol:
            points.append(w)
            reason = "tangent_jump"
            break
        new_frame = _gauge_frame(w, null)
        if new_frame.dim != 1:
            points.append(w)
            reason = "tangent_jump"
            break
        new_tangent = new_frame.basis[0]
        cos = float(new_tangent @ tangent)
        if cos < 0.0:
            new_tangent = -new_tangent
            cos = -cos
        if cos < _TRACE_MIN_COS:
            points.append(w)
            reason = "tangent_jump"
            break

        points.append(w)
        if step_idx >= 10 and float(np.linalg.norm(w.flat - points[0].flat)) < 0.5 * step:
            closed = True
            reason = "loop_closed"
            break
        v, tangent = w, new_tangent

    return TraceResult(points=tuple(points), stop_reason=reason, closed=closed)


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
    whether the two agree.

    Sample i steps along a unit tangent direction drawn from the substream
    keyed by (seed, i); each radius' steps are retracted together.  A step
    that fails to converge or lands within 0.05 * radius of the center is
    dropped; one landing over 0.1 * radius off the sphere is rescaled onto it
    and retried, 8 rounds at most.  Raises InvalidSpec unless radius and
    cluster_factor are positive and finite, tol_rank is finite and >= 0,
    and n_samples >= 1.

    Half-branches that leave the center tangent to each other are merged:
    their separation on the sphere shrinks like radius**2, below the
    threshold, and halving the radius does not split them, so ``stable``
    stays True while the count is too low.  At the egsing demo, a
    tacnode with four half-branches, it reports 2 (cluster sizes 27/21,
    stable at radius 1e-2 and 1e-3).

    Where the reduced tangent space has dimension 2 or more, the count
    depends on n_samples: at the five-bar demo, whose link is one circle,
    seed 0 gives 9, 9 and 4 branches at 16, 48 and 96 samples, all stable.
    """
    if radius is not None and not (np.isfinite(radius) and radius > 0):
        raise InvalidSpec(f"radius must be positive and finite, got {radius}")
    if n_samples < 1:
        raise InvalidSpec(f"need at least one sphere sample, got {n_samples}")
    if not (np.isfinite(cluster_factor) and cluster_factor > 0):
        raise InvalidSpec(f"cluster_factor must be positive and finite, got {cluster_factor}")
    if not (np.isfinite(tol_rank) and tol_rank >= 0):
        raise InvalidSpec(f"tol_rank must be finite and >= 0, got {tol_rank}")
    r = radius if radius is not None else 1e-2 * min(linkage.lengths)
    center = _gauge_fix(linkage, project_to_cspace(linkage, config, tol=1e-12))
    frame = tangent_frame(linkage, center, tol_rank)
    d, nd = linkage.ambient_dim, center.flat.size

    def collect(rad: float) -> np.ndarray:
        """The retained points on the sphere of radius rad, one flat row each."""
        starts = []
        for i in range(n_samples):
            coeff = np.random.default_rng([seed, i]).normal(size=frame.dim)
            nrm = np.linalg.norm(coeff)
            if nrm >= 1e-12:
                starts.append(center.flat + (coeff / nrm) @ frame.basis * rad)
        flat, kept = np.reshape(starts, (-1, nd)), [np.zeros((0, nd))]
        for _ in range(8):
            if not len(flat):
                break
            x, ok = _gauss_newton_rows(linkage, flat, _residual_rows(linkage, flat), 1e-12, 60, tol_rank)
            fixed = [_gauge_fix(linkage, Configuration.from_flat(row, d)).flat for row in x[ok]]
            w = np.reshape(fixed, (-1, nd))
            offset = w - center.flat
            dist = np.sqrt(_row_dots(offset, offset))  # np.linalg.norm of each row
            on_shell = np.abs(dist - rad) <= 0.1 * rad
            kept.append(w[on_shell])
            retry = ~on_shell & (dist >= 0.05 * rad)
            flat = center.flat + offset[retry] * (rad / dist[retry])[:, None]
        return np.concatenate(kept)

    def cluster_sizes(pts: np.ndarray, rad: float) -> list[int]:
        """Sizes of the connected components of the graph that joins two points
        closer than cluster_factor * rad, largest first."""
        n = len(pts)
        if not n:
            return []
        # each distance is np.linalg.norm of the difference; a point joins itself
        near = np.array([np.sqrt(_row_dots(pts - p, pts - p)) < cluster_factor * rad for p in pts])
        label = np.arange(n)
        while True:  # every point takes the least label of its neighbours
            least = np.where(near, label, n).min(axis=1)
            if np.array_equal(least, label):
                break
            label = least
        return sorted(np.unique(label, return_counts=True)[1].tolist(), reverse=True)

    pts_r = collect(r)
    sizes = cluster_sizes(pts_r, r)
    n_half = len(cluster_sizes(collect(0.5 * r), 0.5 * r))
    return BranchReport(
        radius=r,
        sample_count=len(pts_r),
        branch_count=len(sizes),
        cluster_sizes=tuple(sizes),
        stable=(len(sizes) == n_half),
        halved_branch_count=n_half,
    )
