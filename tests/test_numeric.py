import re
import tracemalloc
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

import linkctl
import linkctl.decomp as decomp
import linkctl.numeric as numeric
from linkctl.chains import is_aligned
from linkctl.decomp import enumerate_chain_removals, transversality_check
from linkctl.demos import build_demo
from linkctl.errors import (
    DegenerateDirection,
    InvalidSpec,
    NoConvergence,
    NoFeasiblePoint,
    OffConstraint,
)
from linkctl.model import (
    Configuration,
    Linkage,
    MechanismType,
    build_linkage,
    constraint_jacobian,
    constraint_residual,
)
from linkctl.numeric import (
    TangentFrame,
    fd_hessian,
    local_branch_count,
    numerical_rank,
    project_to_cspace,
    reduced_work_data,
    sample_cspace,
    tangent_frame,
    trace_curve,
    work_image,
)

from conftest import (
    chain_linkage,
    fd_gradient,
    four_bar,
    four_bar_node,
    hinge,
    pointed_frame,
    random_linkage,
    random_open_chain,
    reference_gauge_vectors,
    reference_gauss_newton,
    reference_jacobian,
    reference_local_branch_count,
    reference_residual,
    reference_work_image,
    triangle,
)


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3)) == 3

    def test_zero(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_four_bar_node(self):
        assert numerical_rank(constraint_jacobian(four_bar(), four_bar_node())) == 3

    def test_relative_threshold(self):
        m = np.diag([1.0, 1e-9, 1e-13])
        assert numerical_rank(m, tol_rank=1e-8) == 1
        assert numerical_rank(m, tol_rank=1e-10) == 2

    def test_nan_entry_rejected(self):
        with pytest.raises(InvalidSpec, match="matrix entries must be finite"):
            numerical_rank(np.array([[1.0, 0.0], [0.0, np.nan]]))

    def test_stack_rejected(self):
        # two stacked 2x2 identities summed their ranks to 4
        with pytest.raises(InvalidSpec, match=r"matrix must be 2-D, got shape \(2, 2, 2\)"):
            numerical_rank(np.stack([np.eye(2), np.eye(2)]))

    @pytest.mark.parametrize("matrix", [np.ones(3), np.zeros(0), 1.0])
    def test_vector_or_scalar_rejected(self, matrix):
        # a 1-D array raised numpy's LinAlgError
        with pytest.raises(InvalidSpec, match="matrix must be 2-D"):
            numerical_rank(matrix)

    def test_empty_matrix_has_rank_zero(self):
        assert numerical_rank(np.zeros((0, 4))) == 0


class TestProjection:
    def test_on_constraint_unchanged(self):
        linkage = triangle()
        v = Configuration([(0, 0), (3, 0), (3, 4)])
        out = project_to_cspace(linkage, v)
        assert out is v

    def test_radial_projection_single_edge(self):
        # plain Gauss-Newton: the minimal-norm steps move both ends alike, so
        # the midpoint stays at x = 3 and the base leaves the origin
        linkage = Linkage(MechanismType(2, ((0, 1),)), (5.0,), 2)
        out = project_to_cspace(linkage, Configuration([(0, 0), (6, 0)]))
        assert out.points[0] == pytest.approx([0.5, 0.0])
        assert out.points[1] == pytest.approx([5.5, 0.0])

    def test_triangle_from_random_guess(self):
        linkage = triangle()
        rng = np.random.default_rng(31)
        out = project_to_cspace(linkage, Configuration(rng.uniform(-4, 4, (3, 2))))
        assert np.max(np.abs(constraint_residual(linkage, out))) < 1e-10
        sides = sorted(
            np.linalg.norm(out.points[u] - out.points[v]) for u, v in linkage.graph.edges
        )
        assert sides == pytest.approx([3.0, 4.0, 5.0])

    def test_infeasible_raises(self):
        linkage = triangle((1.0, 1.0, 5.0))
        with pytest.raises(NoConvergence):
            project_to_cspace(linkage, Configuration([(0, 0), (1, 0), (0, 1)]))

    def test_edgeless_linkage_unchanged(self):
        # an empty residual has converged
        linkage = Linkage(MechanismType(2, ()), (), ambient_dim=2)
        v = Configuration([(0.0, 0.0), (1.0, 0.0)])
        assert project_to_cspace(linkage, v) is v

    @pytest.mark.parametrize(
        "option, name",
        [
            ({"max_iter": 2.5}, "max_iter"),
            ({"max_iter": -1}, "max_iter"),
            ({"tol": 0.0}, "tol"),
            ({"tol": float("nan")}, "tol"),
            ({"tol": float("inf")}, "tol"),
            ({"tol_rank": float("nan")}, "tol_rank"),
            ({"tol_rank": -1e-8}, "tol_rank"),
        ],
    )
    def test_options_checked(self, option, name):
        # unchecked, 2.5 reaches range() and a NaN tol_rank ends in
        # NoConvergence without saying why
        with pytest.raises(InvalidSpec, match=f"^{name} must be"):
            project_to_cspace(triangle(), Configuration([(0, 0), (1, 0), (0, 1)]), **option)


class TestSampling:
    def test_rigid_triangle_congruent(self):
        linkage = triangle()
        samples = sample_cspace(linkage, 40, seed=1)
        for v in samples:
            sides = sorted(
                np.linalg.norm(v.points[u] - v.points[v_]) for u, v_ in linkage.graph.edges
            )
            assert sides == pytest.approx([3.0, 4.0, 5.0], abs=1e-8)

    def test_infeasible_linkage(self):
        with pytest.raises(NoFeasiblePoint):
            sample_cspace(triangle((1.0, 1.0, 5.0)), 10, seed=0)

    def test_edgeless_linkage(self):
        # no length sets the start box, so it has half-width 1, not 0
        a, b = sample_cspace(Linkage(MechanismType(2, ()), (), ambient_dim=2), 2)
        assert not np.array_equal(a.points, b.points)
        assert 0.0 < np.max(np.abs(a.points)) <= 1.0

    @pytest.mark.parametrize(
        "option, name",
        [
            ({"seed": -1}, "seed"),
            ({"seed": 1.5}, "seed"),
            ({"n": 2.5}, "n"),
            ({"n": True}, "n"),  # it made one attempt
            ({"seed": False}, "seed"),
        ],
    )
    def test_non_integer_or_negative_counts_rejected(self, option, name):
        kw = {"n": 3, **option}
        with pytest.raises(InvalidSpec, match=f"^{name} must be an integer"):
            sample_cspace(four_bar(), **kw)

    def test_determinism(self):
        linkage = four_bar()
        a = sample_cspace(linkage, 10, seed=42)
        b = sample_cspace(linkage, 10, seed=42)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.points, y.points)


def demo_pair(name):
    linkage_doc, config_doc = build_demo(name)
    return build_linkage(linkage_doc), Configuration(config_doc["points"])


def draw_start(linkage, seed, i):
    """Start i of sample_cspace(linkage, n, seed): uniform in the box of half-width sum(lengths)."""
    box = linkage.length_scale
    rng = np.random.default_rng([seed, i])
    return Configuration(rng.uniform(-box, box, (linkage.n_vertices, linkage.ambient_dim)))


def per_start_samples(linkage, n, seed, tol=1e-10):
    """sample_cspace as one project_to_cspace per (seed, i) start, failures dropped."""
    out = []
    for i in range(n):
        try:
            out.append(project_to_cspace(linkage, draw_start(linkage, seed, i), tol=tol))
        except NoConvergence:
            continue
    return out


def reference_solver(linkage, x, tol, max_iter, tol_rank, plane=None):
    """numeric._gauss_newton's signature on the reference path:
    reference_gauss_newton on a Configuration built at every residual and
    Jacobian evaluation, the plane's row appended, with chord steps exactly
    when there is a plane."""
    d = linkage.ambient_dim

    def res(y):
        r = reference_residual(linkage, Configuration(y.reshape(-1, d)))
        return r if plane is None else np.concatenate([r, [plane[0] @ (y - plane[1])]])

    def jac(y):
        j = reference_jacobian(linkage, Configuration(y.reshape(-1, d)))
        return j if plane is None else np.vstack([j, plane[0]])

    return reference_gauss_newton(res, jac, x, tol, max_iter, tol_rank, chord=plane is not None)


@pytest.fixture
def reference_path(monkeypatch):
    """Switch numeric's projections, retractions and corrector to the
    reference path, reference_solver in place of numeric._gauss_newton."""

    def use():
        monkeypatch.setattr(numeric, "_gauss_newton", reference_solver)

    return use


def as_bytes(configs):
    return [c.points.tobytes() for c in configs]


class TestReferencePathEquivalence:
    """Projection and continuation on flat arrays give bit-identical output."""

    @pytest.mark.parametrize(
        "name, n, seeds",
        [("four-bar-regular", 20, (0, 7)), ("egsing", 20, (0, 3)), ("tri-platform-a", 8, (0,))],
    )
    def test_sample_cspace(self, reference_path, name, n, seeds):
        # the batched sampler calls none of the patched functions, so the
        # reference is an explicit loop over the starts
        linkage, _ = demo_pair(name)
        got = [as_bytes(sample_cspace(linkage, n, seed=s)) for s in seeds]
        reference_path()
        want = [as_bytes(per_start_samples(linkage, n, s)) for s in seeds]
        assert got == want

    @pytest.mark.parametrize("name", ["four-bar-regular", "egsing"])
    def test_trace_curve(self, reference_path, name):
        linkage, _ = demo_pair(name)
        start = sample_cspace(linkage, 1, seed=5)[0]
        got = trace_curve(linkage, start, step=0.05, max_steps=40)
        reference_path()
        want = trace_curve(linkage, start, step=0.05, max_steps=40)
        assert (got.stop_reason, got.closed) == (want.stop_reason, want.closed)
        assert as_bytes(got.points) == as_bytes(want.points)
        assert len(got.points) > 5

    @pytest.mark.parametrize("name", ["four-bar-singular", "egsing", "tri-platform-b"])
    def test_reduced_work_data_at_non_transverse_stages(self, monkeypatch, reference_path, name):
        # every retraction of fd_hessian is a projection; the top-level stages
        # call reduced_work_data only where they are not transverse
        linkage, config = demo_pair(name)
        remainders = []
        real = decomp.reduced_work_data

        def recording(lk, frame, tol_rank):
            remainders.append((lk, frame, tol_rank))
            return real(lk, frame, tol_rank)

        monkeypatch.setattr(decomp, "reduced_work_data", recording)
        for removal in enumerate_chain_removals(linkage.graph):
            decomp.stage_classify(linkage, config, removal)
        assert remainders

        def work_bytes():
            out = []
            for lk, frame, tol_rank in remainders:
                data = reduced_work_data(lk, frame, tol_rank)
                out.append((data.gradient.tobytes(), data.hessian.tobytes()))
            return out

        got = work_bytes()
        reference_path()
        assert got == work_bytes()

    def test_non_finite_step_is_invalid_spec(self, monkeypatch):
        linkage, config = demo_pair("four-bar-regular")
        guess = Configuration(config.points * 1.05)
        monkeypatch.setattr(
            numeric, "_svd_solve", lambda svd, rhs: np.full(svd[2].shape[1], np.inf)
        )
        with np.errstate(invalid="ignore"), pytest.raises(
            InvalidSpec, match="configuration coordinates must be finite"
        ):
            project_to_cspace(linkage, guess)


class TestNonFiniteSteps:
    """The solver checks each full step and each chord step finite before it
    takes the step's residual."""

    def test_plain_residual_full_step(self, monkeypatch):
        # an infinite first full step, from a start off the constraint set,
        # without a plane and with the corrector's
        linkage, config = demo_pair("four-bar-regular")
        start = 1.05 * config.flat
        tangent = tangent_frame(linkage, config).basis[0]
        monkeypatch.setattr(
            numeric, "_svd_solve", lambda svd, rhs: np.full(svd[2].shape[1], np.inf)
        )
        for plane in (None, (tangent, start)):
            with np.errstate(invalid="ignore"), pytest.raises(
                InvalidSpec, match="configuration coordinates must be finite"
            ):
                numeric._gauss_newton(linkage, start, 1e-10, 10, 1e-8, plane)

    def test_trace_corrector_chord_step(self, monkeypatch):
        # a chord step solves with the SVD of the corrector's last fresh step
        linkage, config = demo_pair("four-bar-regular")
        real = numeric._svd_solve
        fresh = []

        def infinite_chord_step(svd, rhs):
            if fresh and svd is fresh[-1]:
                return np.full(svd[2].shape[1], np.inf)
            fresh.append(svd)
            return real(svd, rhs)

        monkeypatch.setattr(numeric, "_svd_solve", infinite_chord_step)
        with pytest.raises(InvalidSpec, match="configuration coordinates must be finite"):
            trace_curve(linkage, config, max_steps=5)


def overstretched(linkage: Linkage) -> Linkage:
    """A random_linkage linkage plus a vertex w, tied to the last vertex by a
    unit edge and to vertex 0 by an edge 0.1% longer than the path from w
    through the spanning tree to 0.  No placement closes it; near the best
    ones that path is almost straight and the Jacobian almost singular."""
    n, edges = linkage.n_vertices, linkage.graph.edges
    path, v = 1.0, n - 1
    while v != 0:  # random_linkage lists tree edge v - 1 as (v, parent of v)
        path += linkage.lengths[v - 1]
        v = edges[v - 1][1]
    return Linkage(
        MechanismType(n + 1, edges + ((n, n - 1), (n, 0))),
        linkage.lengths + (1.0, 1.001 * path),
        ambient_dim=linkage.ambient_dim,
    )


def residual_closures(linkage):
    """The constraint residual and Jacobian as functions of a flat point."""
    d = linkage.ambient_dim
    return (
        lambda y: constraint_residual(linkage, Configuration.from_flat(y, d)),
        lambda y: constraint_jacobian(linkage, Configuration.from_flat(y, d)),
    )


def reference_row(linkage, start, tol):
    """reference_gauss_newton on the constraint residual from one flat start,
    with project_to_cspace's defaults: (x, ok, events), x being the point it
    returns or the iterate it stopped at."""
    log = []
    try:
        x = reference_gauss_newton(*residual_closures(linkage), start, tol, 100, 1e-8, log=log)
        ok = True
    except NoConvergence:
        x, ok = log[-1][1], False
    events = [event for event, _ in log] or ["converged at the start"]
    return x, ok, events


def log_evaluations(mp):
    """Patch numeric's _edge_vectors and _edge_jacobian through the
    monkeypatch mp.  While log[0] is a list, each point that _gauss_newton
    evaluates appends ("res", x) to it and each fresh step ("jac", x), x the
    flat point.  Returns log, with log[0] None."""
    vectors, jacobian = numeric._edge_vectors, numeric._edge_jacobian
    log, at = [None], []  # at: (edge vectors, flat point) of each evaluation

    def logged_vectors(lk, p):
        e = vectors(lk, p)
        if log[0] is not None:
            at.append((e, p.reshape(-1).copy()))
            log[0].append(("res", at[-1][1]))
        return e

    def logged_jacobian(lk, e):
        if log[0] is not None:
            log[0].append(("jac", next(x for f, x in reversed(at) if f is e)))
        return jacobian(lk, e)

    mp.setattr(numeric, "_edge_vectors", logged_vectors)
    mp.setattr(numeric, "_edge_jacobian", logged_jacobian)
    return log


def solver_row(linkage, start, tol):
    """numeric._gauss_newton itself on the constraint residual from one flat
    start, with project_to_cspace's defaults: (x, ok, events) as reference_row
    gives them.  A stalled line search stops at the iterate of the last
    Jacobian; max_iter at the last residual, the step it last took."""
    seen = []  # ("res" or "jac", iterate), in order
    events, stalled = [], False
    try:
        with pytest.MonkeyPatch.context() as mp:
            log_evaluations(mp)[0] = seen
            x, ok = numeric._gauss_newton(linkage, start, tol, 100, 1e-8), True
    except NoConvergence as exc:
        stalled = "stalled" in str(exc)
        x, ok = [y for kind, y in seen if kind == ("jac" if stalled else "res")][-1], False
        events.append("line search stalled" if stalled else "max_iter")
    # the residuals of each iteration: the full step, then the shorter one taken
    steps = "".join(kind[0] for kind, _ in seen).split("j")[1:]
    events += ["shorter step" if step == "rr" else "full step" for step in steps[: len(steps) - stalled]]
    return x, ok, events


def batch_cases(dim):
    """(draw, linkage, n, tol) of the lockstep tests: four random_linkage
    draws, each from tight and loose starts and overstretched."""
    rng = np.random.default_rng(40 + dim)
    for draw in range(4):
        linkage, _ = random_linkage(rng, max_vertices=6, dim=dim)
        box = linkage.length_scale
        yield draw, linkage, 12, 1e-10
        yield draw, linkage, 12, 0.5 * box**2  # loose enough for some starts as drawn
        yield draw, overstretched(linkage), 16, 1e-10
        if draw == 0:
            yield draw, linkage, 2 * numeric._SAMPLE_CHUNK + 5, 1e-10


class TestBatchedSampling:
    """sample_cspace projects its starts in lockstep chunks; each result must
    equal project_to_cspace of its own start bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_batch_equals_per_start(self, dim):
        events = Counter()
        for draw, lk, n, tol in batch_cases(dim):
            if tol == numeric._PROJECT_TOL:  # the one tolerance sample_cspace projects with
                want = per_start_samples(lk, n, draw, tol)
                try:
                    got = sample_cspace(lk, n, seed=draw)
                except NoFeasiblePoint:
                    got = []
                assert as_bytes(got) == as_bytes(want), (draw, n, tol)

            # every row, failed ones included, stops where the per-start loop stops
            starts = np.stack([draw_start(lk, draw, i).flat for i in range(n)])
            x, ok = numeric._gauss_newton_rows(lk, starts, tol, 100, 1e-8)
            for i in range(n):
                ref_x, ref_ok, seen = reference_row(lk, starts[i], tol)
                assert (ok[i], x[i].tobytes()) == (ref_ok, ref_x.tobytes()), (draw, n, tol, i)
                events.update(seen)
        for event in (
            "converged at the start",
            "full step",
            "shorter step",
            "line search stalled",
            "max_iter",
        ):
            assert events[event] > 0, (event, events)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_rows_equal_the_scalar_solver(self, dim):
        # the docstring contract against numeric._gauss_newton itself, stalled
        # and shorter-step rows included
        events = Counter()
        for draw, lk, n, tol in batch_cases(dim):
            starts = np.stack([draw_start(lk, draw, i).flat for i in range(n)])
            x, ok = numeric._gauss_newton_rows(lk, starts, tol, 100, 1e-8)
            for i in range(n):
                want_x, want_ok, seen = solver_row(lk, starts[i], tol)
                assert (ok[i], x[i].tobytes()) == (want_ok, want_x.tobytes()), (draw, n, tol, i)
                events.update(seen)
        for event in ("full step", "shorter step", "line search stalled", "max_iter"):
            assert events[event] > 0, (event, events)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_residual_is_quadratic_along_a_step(self, dim):
        # |r + t*b + t**2*c|^2, which picks the shorter step, is |r(x + t*delta)|^2
        rng = np.random.default_rng(60 + dim)
        for draw in range(6):
            linkage, _ = random_linkage(rng, max_vertices=6, dim=dim)
            for lk in (linkage, overstretched(linkage)):
                x = draw_start(lk, draw, 0).flat
                residual, jacobian = residual_closures(lk)
                r, jac = residual(x), jacobian(x)
                delta = -numeric._svd_solve(numeric._truncated_svd(jac, 1e-8), r)
                b = jac @ delta
                c = residual(x + delta) - r - b
                phi = float(r @ r)
                for t in numeric._STEP_LADDER:
                    model = r + t * b + t * t * c
                    direct = residual(x + t * delta)
                    assert abs(float(model @ model) - float(direct @ direct)) <= 1e-10 * phi, (draw, t)

    def test_non_finite_iterate_is_invalid_spec(self):
        # every length squares to a finite float, but the starts' box has
        # half-width 1.2e154, so squared edge vectors overflow and the first
        # full step is not finite
        linkage = triangle((3e153, 4e153, 5e153))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            InvalidSpec, match="configuration coordinates must be finite"
        ):
            sample_cspace(linkage, 3, seed=0)


def solution_or_message(solve):
    """The bytes of the point solve() returns, or its NoConvergence message."""
    try:
        return solve().tobytes()
    except NoConvergence as exc:
        return str(exc)


class TestProjectionLoop:
    """project_to_cspace runs numeric._gauss_newton, which reads the residual
    and Jacobian off each iterate's edge vectors."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_equals_the_callable_solver(self, dim):
        # the same point, or the same failure and message, as the callable
        # reference_gauss_newton on residual and Jacobian closures
        events = Counter()
        for draw, lk, n, tol in batch_cases(dim):
            closures = residual_closures(lk)
            for i in range(n):
                start = draw_start(lk, draw, i)
                got = solution_or_message(lambda: project_to_cspace(lk, start, tol=tol).flat)
                want = solution_or_message(lambda: reference_gauss_newton(*closures, start.flat, tol, 100, 1e-8))
                assert got == want, (draw, n, tol, i)
                events.update(solver_row(lk, start.flat, tol)[2])
        for event in ("full step", "shorter step", "line search stalled", "max_iter"):
            assert events[event] > 0, (event, events)

    def test_edge_vectors_once_an_iterate(self, monkeypatch):
        # a retraction from one of fd_hessian's stencil points around the
        # egsing demo's singular configuration (9 iterations): one SVD an
        # iteration, and the edge vectors of the start, of each full step and
        # of each shorter step taken, each computed once; the parent computed
        # the start's twice, for its residual and for its Jacobian
        linkage, config = demo_pair("egsing")
        points = config.points - config.points.mean(axis=0)
        frame = tangent_frame(linkage, Configuration(points))
        stencil = points.reshape(-1) + numeric._default_step(Configuration(points)) * frame.basis[0]
        real_edges, real_svd, real_shorter = numeric._edge_vectors, np.linalg.svd, numeric._shorter_step
        at, svds, shorter = [], [], []

        def edges(lk, p):
            at.append(p.tobytes())
            return real_edges(lk, p)

        def svd(*args, **kwargs):
            svds.append(args[0].shape)
            return real_svd(*args, **kwargs)

        def shorter_step(*args):
            shorter.append(int(real_shorter(*args)[0]))
            return np.array(shorter[-1:])

        monkeypatch.setattr(numeric, "_edge_vectors", edges)
        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(numeric, "_shorter_step", shorter_step)
        out = numeric._retract(linkage, stencil, 1e-8)
        assert np.abs(constraint_residual(linkage, out)).max() < numeric._RETRACT_TOL
        assert len(svds) > 1 and svds == [(linkage.k, stencil.size)] * len(svds)
        assert len(at) == len(set(at)) == 1 + len(svds) + sum(j >= 0 for j in shorter)


class TestTangentFrame:
    def test_rigid_triangle_zero_dimensional(self):
        linkage = triangle()
        v = Configuration([(0, 0), (3, 0), (3, 4)])
        assert tangent_frame(linkage, v).dim == 0

    def test_four_bar_generic_one_dimensional(self):
        linkage = four_bar()
        v = sample_cspace(linkage, 1, seed=5)[0]
        assert tangent_frame(linkage, v).dim == 1

    def test_four_bar_node_two_dimensional(self):
        assert tangent_frame(four_bar(), four_bar_node()).dim == 2

    def test_gauge_hierarchy(self):
        # at a generic point the rigid motions take d(d+1)/2 directions out of
        # the null space; in d = 3 that needs three points off one line
        rng = np.random.default_rng(41)
        cases = [(four_bar(), sample_cspace(four_bar(), 1, seed=5)[0])]
        while len(cases) < 21:
            linkage, v = random_linkage(rng, dim=len(cases) % 2 + 2)
            if linkage.n_vertices >= 3:
                cases.append((linkage, v))
        for linkage, v in cases:
            d = linkage.ambient_dim
            rank = numerical_rank(constraint_jacobian(linkage, v))
            assert tangent_frame(linkage, v).dim == linkage.n_vertices * d - rank - d * (d + 1) // 2

    def test_basis_in_null_space(self):
        linkage = four_bar()
        frame = tangent_frame(linkage, four_bar_node())
        jac = constraint_jacobian(linkage, four_bar_node())
        gram = frame.basis @ frame.basis.T
        assert np.allclose(gram, np.eye(frame.dim), atol=1e-10)
        assert np.max(np.abs(jac @ frame.basis.T)) < 1e-8 * np.linalg.norm(jac)

    def test_off_constraint_rejected(self):
        with pytest.raises(OffConstraint):
            tangent_frame(four_bar(), Configuration([(0, 0), (1, 1), (2, 2), (3, 3)]))

    @pytest.mark.parametrize("columns", [slice(None, -1), 0], ids=["seven-columns", "one-axis"])
    def test_basis_needs_a_column_per_coordinate(self, columns):
        # fd_hessian raised numpy's broadcast error on such a frame, and
        # reduced_work_data a matmul mismatch
        frame = tangent_frame(four_bar(), four_bar_node())
        basis = frame.basis[:, columns]
        message = f"tangent basis must be an (m, 8) array for a configuration of shape (4, 2), got shape {basis.shape}"
        with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
            replace(frame, basis=basis)

    def test_one_gauge(self):
        # every frame is reduced: no gauge setting is left to choose
        assert [f.name for f in fields(TangentFrame)] == ["base_config", "basis"]
        assert not hasattr(linkctl, "Gauge") and not hasattr(linkctl, "fd_gradient")

    def test_edgeless_linkage(self):
        # no constraint: the null space is everything, less the gauge
        linkage = Linkage(MechanismType(2, ()), (), ambient_dim=2)
        v = Configuration([(0.0, 0.0), (1.0, 0.0)])
        assert numeric._null_space(linkage, v, 1e-8)[1].shape[0] == 4
        assert tangent_frame(linkage, v).dim == 1


class TestWorkDifferentialRankLaw:
    def test_rank_is_d_or_d_minus_one(self):
        # the full work differential (pointed frame, rotations included)
        rng = np.random.default_rng(33)
        for _ in range(40):
            k = int(rng.integers(1, 7))
            d = int(rng.choice([2, 3]))
            pts = random_open_chain(rng, k, d)
            lengths = tuple(np.linalg.norm(np.diff(pts, axis=0), axis=1))
            linkage = chain_linkage(lengths, d)
            img = work_image(linkage, Configuration(pts))
            assert img.dim in (d - 1, d)
            if k >= 2 and is_aligned(pts) is None:
                assert img.dim == d

    def test_fd_cross_check_of_work_differential(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            pts = random_open_chain(rng, k, 2)
            lengths = tuple(np.linalg.norm(np.diff(pts, axis=0), axis=1))
            linkage = chain_linkage(lengths)
            cfg = Configuration(pts)
            basis = pointed_frame(linkage, cfg)
            fields = basis.reshape(len(basis), k + 1, 2)
            analytic = fields[:, k, :] - fields[:, 0, :]
            for comp in range(2):
                def f(c, _comp=comp):
                    return float(c.points[k, _comp] - c.points[0, _comp])

                fd = fd_gradient(linkage, f, cfg, basis)
                assert np.linalg.norm(fd - analytic[:, comp]) / max(
                    np.linalg.norm(analytic[:, comp]), 1e-9
                ) < 1e-6


def aligned_open_chain(rng: np.random.Generator, k: int, d: int) -> np.ndarray:
    """Open chain with every link along one random line, folded at random."""
    w = rng.normal(size=d)
    steps = rng.choice([-1.0, 1.0], k) * rng.uniform(0.5, 2.0, k)
    return np.vstack([np.zeros(d), np.cumsum(steps)[:, None] * (w / np.linalg.norm(w))])


def projector(basis) -> np.ndarray:
    return basis.vectors.T @ basis.vectors


class TestWorkImage:
    """work_image over the plain null space equals the pointed-frame image."""

    def assert_matches_reference(self, linkage, config):
        got = work_image(linkage, config)
        want = reference_work_image(linkage, config, linkage.base_vertex, linkage.end_effector)
        assert got.dim == want.dim
        assert np.max(np.abs(projector(got) - projector(want)), initial=0.0) < 1e-10
        return got.dim

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_linkages(self, d):
        rng = np.random.default_rng(80 + d)
        dims = set()
        for _ in range(60):
            linkage, config = random_linkage(rng, dim=d)
            base, effector = (int(v) for v in rng.choice(linkage.n_vertices, 2, replace=False))
            linkage = replace(linkage, base_vertex=base, base_link=None, end_effector=effector)
            dims.add(self.assert_matches_reference(linkage, config))
        assert dims == {d - 1, d}  # pairs held at a fixed distance, and free pairs

    @pytest.mark.parametrize("d", [2, 3])
    def test_open_chains(self, d):
        rng = np.random.default_rng(90 + d)
        for chain in (random_open_chain, aligned_open_chain):
            for k in range(1, 7):
                pts = chain(rng, k, d)
                lengths = tuple(np.linalg.norm(np.diff(pts, axis=0), axis=1))
                linkage = chain_linkage(lengths, d)
                dim = self.assert_matches_reference(linkage, Configuration(pts))
                if chain is aligned_open_chain:
                    assert dim == d - 1

    def test_linkage_without_effector(self):
        # the linkage names its work map; Linkage itself checks both vertices
        with pytest.raises(InvalidSpec, match="no end effector"):
            work_image(replace(four_bar(), end_effector=None), four_bar_node())

    def test_demo_stages(self):
        # both endpoint images of every first-level stage, singular demos included
        for name in ("four-bar-singular", "egsing", "five-bar", "tri-platform-b"):
            linkage, config = demo_pair(name)
            for removal in enumerate_chain_removals(linkage.graph):
                for vertices, edges in (
                    (removal.remainder_vertices, removal.remainder_edges),
                    (removal.chain_vertices, removal.chain_edges),
                ):
                    part = decomp._cut(linkage, vertices, edges, removal.endpoints)
                    self.assert_matches_reference(part, Configuration(config.points[list(vertices)]))


class TestFiniteDifferences:
    def test_constant_function(self):
        linkage = four_bar()
        v = sample_cspace(linkage, 1, seed=5)[0]
        frame = tangent_frame(linkage, v)
        grad = fd_gradient(linkage, lambda c: 7.5, v, frame.basis)
        hess = fd_hessian(linkage, lambda c: 7.5, frame)
        assert np.max(np.abs(grad)) < 1e-10
        assert np.max(np.abs(hess)) < 1e-6

    def test_single_link_distance_constant(self):
        linkage = chain_linkage((1.5,))
        v = Configuration([(0, 0), (1.5, 0)])
        frame = tangent_frame(linkage, v)

        def f(c):
            return float(np.linalg.norm(c.points[1] - c.points[0]))

        grad = fd_gradient(linkage, f, v, frame.basis)
        assert np.max(np.abs(grad)) < 1e-8 if grad.size else True


class TestReducedWorkData:
    def test_nonzero_gradient_off_alignment(self):
        pts = np.array([[0.0, 0], [2, 0], [2, 1]])
        linkage = chain_linkage((2.0, 1.0))
        frame = tangent_frame(linkage, Configuration(pts))
        data = reduced_work_data(linkage, frame)
        assert data.gradient.shape == (frame.dim,) and data.hessian.shape == (frame.dim, frame.dim)
        assert np.linalg.norm(data.gradient) > 1e-3

    def test_zero_gradient_when_aligned(self):
        pts = np.array([[0.0, 0], [2, 0], [3, 0]])
        linkage = chain_linkage((2.0, 1.0))
        data = reduced_work_data(linkage, tangent_frame(linkage, Configuration(pts)))
        assert np.linalg.norm(data.gradient) < 1e-6

    def test_frame_of_another_linkage_rejected(self):
        linkage = chain_linkage((2.0, 1.0))
        single = chain_linkage((2.0,))
        frame = tangent_frame(single, Configuration([(0.0, 0.0), (2.0, 0.0)]))
        with pytest.raises(InvalidSpec, match="does not match linkage"):
            reduced_work_data(linkage, frame)

    def test_coincident_endpoints(self):
        pts = np.array([[0.0, 0], [1, 0], [0, 0]])
        linkage = chain_linkage((1.0, 1.0))
        with pytest.raises(DegenerateDirection, match="effector coincides with base"):
            reduced_work_data(linkage, tangent_frame(linkage, Configuration(pts)))

    @pytest.mark.parametrize("shift", [(0.0, 0.0), (100.0, 100.0), (1e4, 1e4)])
    def test_near_coincident_endpoints_at_any_translation(self, shift):
        # endpoints 1e-6 apart are apart at the scale of the links, wherever the chain sits
        gap = 1e-6
        pts = np.array([[0.0, 0.0], [gap / 2, np.sqrt(1.0 - gap**2 / 4)], [gap, 0.0]]) + shift
        lengths = tuple(np.linalg.norm(np.diff(pts, axis=0), axis=1))
        linkage = chain_linkage(lengths)
        data = reduced_work_data(linkage, tangent_frame(linkage, Configuration(pts)))
        assert np.linalg.norm(data.gradient) == pytest.approx(np.sqrt(2.0), rel=1e-3)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(36)
        for _ in range(8):
            pts = random_open_chain(rng, 4, 2)
            lengths = tuple(np.linalg.norm(np.diff(pts, axis=0), axis=1))
            linkage = chain_linkage(lengths)
            cfg = Configuration(pts)
            frame = tangent_frame(linkage, cfg)
            data = reduced_work_data(linkage, frame)

            def f(c):
                return float(np.linalg.norm(c.points[-1] - c.points[0]))

            fd = fd_gradient(linkage, f, cfg, frame.basis)
            assert np.linalg.norm(fd - data.gradient) < 1e-6 * (1 + np.linalg.norm(fd))


class TestTraceCurve:
    def test_regular_four_bar_closes(self):
        linkage = four_bar((2.0, 1.2, 1.7, 0.9))
        start = sample_cspace(linkage, 1, seed=11)[0]
        result = trace_curve(linkage, start, step=0.05, max_steps=1500)
        assert result.closed
        assert result.stop_reason == "loop_closed"
        worst = max(np.max(np.abs(constraint_residual(linkage, p))) for p in result.points)
        assert worst < 1e-9
        flats = np.array([p.flat for p in result.points])
        secants = np.diff(flats, axis=0)
        dots = np.einsum("ij,ij->i", secants[:-1], secants[1:])
        assert np.all(dots > 0)

    @pytest.mark.parametrize("step", [0.0, -0.05, float("nan"), float("inf")])
    def test_step_must_be_positive_and_finite(self, step):
        linkage = four_bar((2.0, 1.2, 1.7, 0.9))
        start = sample_cspace(linkage, 1, seed=11)[0]
        with pytest.raises(InvalidSpec, match="step"):
            trace_curve(linkage, start, step=step, max_steps=30)

    @pytest.mark.parametrize("tol_rank", [float("nan"), float("inf"), -1.0])
    def test_tol_rank_must_be_finite_and_non_negative(self, tol_rank):
        linkage = four_bar((2.0, 1.2, 1.7, 0.9))
        start = sample_cspace(linkage, 1, seed=11)[0]
        with pytest.raises(InvalidSpec, match="tol_rank"):
            trace_curve(linkage, start, max_steps=30, tol_rank=tol_rank)

    @pytest.mark.parametrize("max_steps", [-1, -3, 2.5])
    def test_max_steps_must_be_non_negative(self, max_steps):
        # -3 gave one point and stop_reason "max_steps"; 2.5 raised TypeError
        linkage = four_bar((2.0, 1.2, 1.7, 0.9))
        start = sample_cspace(linkage, 1, seed=11)[0]
        with pytest.raises(InvalidSpec, match="max_steps"):
            trace_curve(linkage, start, max_steps=max_steps)

    @pytest.mark.parametrize("detect_tol", [float("nan"), float("inf"), -1.0])
    def test_detect_tol_must_be_finite_and_non_negative(self, detect_tol):
        # nan switched singularity detection off: proximity < nan is never true
        linkage = four_bar((2.0, 1.2, 1.7, 0.9))
        start = sample_cspace(linkage, 1, seed=11)[0]
        with pytest.raises(InvalidSpec, match="detect_tol"):
            trace_curve(linkage, start, max_steps=30, detect_tol=detect_tol)

    @pytest.mark.parametrize(
        "direction", [np.ones(3), np.full(8, np.nan)], ids=["wrong_length", "all_nan"]
    )
    def test_direction_must_be_finite_coordinates(self, direction):
        # the wrong length raised numpy's ValueError; all-NaN was ignored
        linkage = four_bar((2.0, 1.2, 1.7, 0.9))
        start = sample_cspace(linkage, 1, seed=11)[0]
        with pytest.raises(InvalidSpec, match="direction"):
            trace_curve(linkage, start, max_steps=30, direction=direction)

    def test_zero_max_steps_is_the_start(self):
        linkage = four_bar((2.0, 1.2, 1.7, 0.9))
        start = sample_cspace(linkage, 1, seed=11)[0]
        result = trace_curve(linkage, start, max_steps=0)
        assert result.stop_reason == "max_steps"
        assert len(result.points) == 1

    def test_edgeless_linkage(self):
        # no constraint, so no rank to lose: the trace runs out of steps
        linkage = Linkage(MechanismType(2, ()), (), ambient_dim=2)
        result = trace_curve(linkage, Configuration([(0.0, 0.0), (1.0, 0.0)]), max_steps=30)
        assert result.stop_reason == "max_steps"
        assert len(result.points) == 31

    def test_not_a_curve(self):
        linkage = triangle()
        v = project_to_cspace(linkage, Configuration([(0, 0), (3, 0), (3, 4)]))
        with pytest.raises(InvalidSpec, match="reduced tangent dimension is 0, not 1"):
            trace_curve(linkage, v)

    def test_stops_near_singular_node(self):
        linkage = four_bar()
        node = four_bar_node()
        from linkctl.numeric import _gauge_fix

        fixed = _gauge_fix(linkage, node)
        frame = tangent_frame(linkage, fixed)
        start_flat = fixed.flat + 5e-4 * frame.basis[0]
        start = project_to_cspace(linkage, Configuration.from_flat(start_flat, 2), tol=1e-12)
        toward = fixed.flat - start.flat
        result = trace_curve(linkage, start, step=1e-4, max_steps=60, direction=toward)
        assert result.stop_reason in ("tangent_jump", "stalled_at_singularity")
        last = result.points[-1]
        assert np.linalg.norm(last.flat - fixed.flat) < 1e-3

    def test_stalled_at_singularity(self, monkeypatch):
        # every corrector try fails, so the first step gives up
        linkage = four_bar((2.0, 1.2, 1.7, 0.9))
        start = sample_cspace(linkage, 1, seed=11)[0]

        real = numeric._gauss_newton

        def never_converges(linkage, x, tol, max_iter, tol_rank, plane=None):
            if plane is None:  # the start's projection, not the corrector
                return real(linkage, x, tol, max_iter, tol_rank)
            raise NoConvergence("forced")

        monkeypatch.setattr(numeric, "_gauss_newton", never_converges)
        result = trace_curve(linkage, start)
        assert result.stop_reason == "stalled_at_singularity"
        assert len(result.points) == 1
        assert result.closed is False

    @pytest.mark.parametrize("curve", ["hinge", "four-bar-without-base-link"])
    def test_loop_closes_modulo_the_free_rotation(self, curve):
        # the gauge leaves a rotation free: about e1 for the 3-D hinge, about
        # the base vertex without a base link; the loop comes back turned by it
        if curve == "hinge":
            linkage, start = hinge()
        else:
            linkage_doc, config_doc = build_demo("four-bar-regular")
            del linkage_doc["base_link"]
            linkage, start = build_linkage(linkage_doc), Configuration(config_doc["points"])
        result = trace_curve(linkage, start, step=0.05, max_steps=2000)
        assert (result.stop_reason, result.closed) == ("loop_closed", True)
        assert len(result.points) < 300
        # the raw coordinates do not come back: the closure is modulo the rotation
        assert np.linalg.norm(result.points[-1].flat - result.points[0].flat) > 0.5

    def test_retry_starts_on_its_own_hyperplane(self, monkeypatch):
        import linkctl.numeric as numeric

        linkage = four_bar((2.0, 1.2, 1.7, 0.9))
        start = sample_cspace(linkage, 1, seed=11)[0]
        real = numeric._gauss_newton
        arclength_rows = []  # hyperplane row of each corrector call at its start point

        def fail_first_corrector(lk, x, tol, max_iter, tol_rank, plane=None):
            if plane is not None:  # the corrector, not a projection
                arclength_rows.append(float(plane[0] @ (x - plane[1])))
                if len(arclength_rows) == 1:
                    raise NoConvergence("forced")
            return real(lk, x, tol, max_iter, tol_rank, plane)

        monkeypatch.setattr(numeric, "_gauss_newton", fail_first_corrector)
        result = trace_curve(linkage, start, step=0.05, max_steps=2)
        assert len(arclength_rows) == 3  # failed try, its retry, the next step
        assert arclength_rows[1] == pytest.approx(0.0, abs=1e-12)
        assert len(result.points) == 3

    def test_grashof_rule_counts_the_loops(self):
        # a four-bar with shortest link s, longest l and the others p, q has
        # two loops of reduced poses when s + l < p + q (Grashof) and one
        # otherwise: trace from every sample pose no earlier loop passes near
        rng = np.random.default_rng(7)
        kinds = Counter()
        for i in range(12):
            lengths = tuple(float(x) for x in rng.uniform(0.5, 2.0, 4))
            linkage = four_bar(lengths)
            s, l = min(lengths), max(lengths)
            grashof = s + l < sum(lengths) - s - l
            loops = []
            for pose in sample_cspace(linkage, 30, seed=i):
                flat = numeric._gauge_fix(linkage, pose).flat
                if all(np.linalg.norm(loop - flat, axis=1).min() > 0.05 for loop in loops):
                    result = trace_curve(linkage, pose, step=0.02)
                    assert result.stop_reason == "loop_closed", (i, lengths)
                    loops.append(np.array([p.flat for p in result.points]))
            assert len(loops) == (2 if grashof else 1), (i, lengths)
            kinds[grashof] += 1
        assert kinds == {True: 8, False: 4}


def record_corrector(monkeypatch):
    """Patch numeric._gauss_newton to record each of trace_curve's corrector
    calls as (tangent, events): the tangent of its plane and its evaluations
    in order, ("res" or "jac", x) as log_evaluations gives them."""
    real = numeric._gauss_newton
    log = log_evaluations(monkeypatch)
    calls = []

    def recording(linkage, x, tol, max_iter, tol_rank, plane=None):
        if plane is not None:  # the corrector, not a projection
            calls.append((plane[0], []))
            log[0] = calls[-1][1]
        try:
            return real(linkage, x, tol, max_iter, tol_rank, plane)
        finally:
            log[0] = None

    monkeypatch.setattr(numeric, "_gauss_newton", recording)
    return calls


class TestTraceTangent:
    """The trace reads each new tangent off the point's own null rows, and its
    corrector reuses the SVD of its last fresh step while that converges."""

    @pytest.mark.parametrize("curve", ["four-bar", "hinge"])
    def test_steps_along_the_tangent_frame(self, monkeypatch, curve):
        if curve == "four-bar":
            linkage = four_bar((2.0, 1.2, 1.7, 0.9))
            start, max_steps = sample_cspace(linkage, 1, seed=11)[0], 1500
        else:
            (linkage, start), max_steps = hinge(), 150
        calls = record_corrector(monkeypatch)
        result = trace_curve(linkage, start, step=0.05, max_steps=max_steps)
        assert result.stop_reason == "loop_closed"
        # one corrector call steps from each point but the last
        assert len(calls) == len(result.points) - 1
        for (tangent, _), point in zip(calls, result.points):
            frame = tangent_frame(linkage, point)
            assert frame.dim == 1
            sign = 1.0 if float(tangent @ frame.basis[0]) > 0.0 else -1.0
            assert np.abs(tangent - sign * frame.basis[0]).max() <= 1e-12

    @pytest.mark.parametrize(
        "points",
        [
            np.random.default_rng(0).normal(size=(5, 2)),
            np.random.default_rng(1).normal(size=(6, 3)),
            # collinear in R^3: the rotation about the line moves nothing
            np.array([1.0, -2.0, 0.5]) + np.outer([0.0, 0.3, 1.1, 2.0], [0.6, 0.0, -0.8]),
            np.tile([[1.5, -0.5]], (4, 1)),  # coincident points: translations only
            np.tile([[0.2, 3.0, -1.0]], (3, 1)),
        ],
        ids=["planar", "spatial", "collinear", "coincident-2d", "coincident-3d"],
    )
    def test_gauge_basis_spans_the_rigid_motions(self, points):
        basis = numeric._gauge_basis(points)
        reference = numeric._orthonormal_rows(numeric._gauge_vectors(points))
        assert basis.shape == reference.shape
        assert np.abs(basis @ basis.T - np.eye(len(basis))).max() <= 1e-12
        assert np.abs(basis.T @ basis - reference.T @ reference).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_gauge_vectors_equal_the_reference_loop(self, d):
        rng = np.random.default_rng(d)
        cases = [np.zeros((1, d)), np.zeros((3, d))]
        for n in range(1, 8):
            cases += [
                rng.normal(size=(n, d)),
                rng.integers(-3, 4, size=(n, d)).astype(float),  # zeros and signs
                rng.normal(size=d) + np.outer(rng.normal(size=n), rng.normal(size=d)),  # collinear
                np.tile(rng.normal(size=(1, d)), (n, 1)),  # coincident
            ]
        for points in cases:
            assert numeric._gauge_vectors(points).tobytes() == reference_gauge_vectors(points).tobytes()

    def test_two_svds_a_step(self, monkeypatch):
        # three for the start's tangent_frame, then one for the corrector's
        # fresh step and one for the new point's null space; five before
        linkage = four_bar((2.0, 1.2, 1.7, 0.9))
        start = sample_cspace(linkage, 1, seed=11)[0]
        real, calls = np.linalg.svd, []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        result = trace_curve(linkage, start, step=0.05, max_steps=1500)
        assert result.stop_reason == "loop_closed"
        assert len(calls) <= 3 + 2 * (len(result.points) - 1)

    def test_refused_reuse_takes_a_fresh_step(self, monkeypatch):
        # approaching egsing's tacnode, reused steps stall near the tolerance;
        # the four-bar node converges in one or two steps and never refuses
        linkage, _ = demo_pair("egsing")
        start = sample_cspace(linkage, 4, seed=9)[0]
        calls = record_corrector(monkeypatch)
        result = trace_curve(linkage, start, step=0.05, max_steps=2000)
        assert result.stop_reason in ("tangent_jump", "stalled_at_singularity")
        refused = 0
        for _, events in calls:
            for (kind, x), (_, before) in zip(events[2:], events[1:]):
                # a later fresh step starts from an earlier iterate than the
                # last one evaluated: the reused step to it was dropped
                if kind == "jac":
                    assert not np.array_equal(x, before)
                    refused += 1
        assert refused >= 1

    def test_corrector_edge_vectors_once_an_iterate(self, monkeypatch):
        # each corrector call of a four-bar trace computes the edge vectors of
        # each point it evaluates once, and takes one SVD per fresh step and
        # none per chord step: a fresh step's Jacobian is read off the edge
        # vectors its iterate's residual was
        linkage = four_bar((2.0, 1.2, 1.7, 0.9))
        start = sample_cspace(linkage, 1, seed=11)[0]
        real = numeric._gauss_newton
        real_edges, real_svd = numeric._edge_vectors, np.linalg.svd
        real_solve, real_shorter = numeric._svd_solve, numeric._shorter_step
        call = None  # the counts of the running corrector call
        chord_steps = 0

        def edges(lk, p):
            if call is not None:
                call["at"].append(p.tobytes())
            return real_edges(lk, p)

        def svd(*args, **kwargs):
            if call is not None:
                call["svds"] += 1
            return real_svd(*args, **kwargs)

        def solve(factors, rhs):
            if call is not None:
                call["solves"].append(factors)
            return real_solve(factors, rhs)

        def shorter_step(*args):
            first = real_shorter(*args)
            if call is not None:
                call["shorter"] += int(first[0] >= 0)
            return first

        def corrector(lk, x, tol, max_iter, tol_rank, plane=None):
            nonlocal call, chord_steps
            if plane is None:  # the start's projection
                return real(lk, x, tol, max_iter, tol_rank)
            call = {"at": [], "svds": 0, "solves": [], "shorter": 0}
            out = real(lk, x, tol, max_iter, tol_rank, plane)
            at, solves = call["at"], call["solves"]
            fresh = len({id(factors) for factors in solves})
            assert len(at) == len(set(at)) == 1 + len(solves) + call["shorter"]
            assert call["svds"] == fresh >= 1
            # a refused chord step is followed by a fresh one from the same iterate
            chord_steps += len(solves) - fresh - (fresh - 1)
            call = None
            return out

        monkeypatch.setattr(numeric, "_gauss_newton", corrector)
        monkeypatch.setattr(numeric, "_edge_vectors", edges)
        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(numeric, "_svd_solve", solve)
        monkeypatch.setattr(numeric, "_shorter_step", shorter_step)
        result = trace_curve(linkage, start, step=0.05, max_steps=60)
        assert len(result.points) == 61
        assert chord_steps > 0  # accepted chord steps, which take no SVD


class TestLocalBranchCount:
    def test_smooth_point_two_branches(self):
        linkage = four_bar((2.0, 1.2, 1.7, 0.9))
        v = sample_cspace(linkage, 1, seed=2)[0]
        report = local_branch_count(linkage, v, radius=0.01, n_samples=40, seed=0)
        assert report.branch_count == 2
        assert report.stable

    def test_four_bar_node_four_branches(self):
        report = local_branch_count(four_bar(), four_bar_node(), radius=0.01, n_samples=48, seed=0)
        assert report.branch_count == 4
        assert report.stable
        assert sum(report.cluster_sizes) == report.sample_count

    def test_rigid_triangle_isolated(self):
        linkage = triangle()
        v = project_to_cspace(linkage, Configuration([(0, 0), (3, 0), (3, 4)]))
        report = local_branch_count(linkage, v, radius=0.01, n_samples=16, seed=0)
        assert report.branch_count == 0
        assert report.sample_count == 0

    def test_determinism(self):
        a = local_branch_count(four_bar(), four_bar_node(), radius=0.01, seed=3)
        b = local_branch_count(four_bar(), four_bar_node(), radius=0.01, seed=3)
        assert a == b

    @pytest.mark.parametrize(
        "option",
        [
            {"radius": 0.0},
            {"radius": -0.01},
            {"radius": float("inf")},
            {"radius": float("nan")},
            {"n_samples": 0},
            {"n_samples": -1},
            {"cluster_factor": 0.0},
            {"cluster_factor": -1.0},
            {"cluster_factor": float("nan")},
            {"tol_rank": float("nan")},
            {"tol_rank": float("inf")},
            {"tol_rank": -1.0},
        ],
    )
    def test_out_of_range_inputs_rejected(self, option):
        with pytest.raises(InvalidSpec, match=f"^{next(iter(option))} must be"):
            local_branch_count(four_bar(), four_bar_node(), **option)

    @pytest.mark.parametrize(
        "option, name",
        [
            ({"seed": -1}, "seed"),
            ({"seed": 1.5}, "seed"),
            ({"seed": "0"}, "seed"),
            ({"n_samples": 2.5}, "n_samples"),
            ({"seed": True}, "seed"),
            ({"n_samples": True}, "n_samples"),
        ],
    )
    def test_non_integer_or_negative_counts_rejected(self, option, name):
        with pytest.raises(InvalidSpec, match=f"^{name} must be an integer"):
            local_branch_count(four_bar(), four_bar_node(), **option)

    def test_integer_like_counts_accepted(self):
        want = local_branch_count(four_bar(), four_bar_node(), n_samples=16, seed=2)
        got = local_branch_count(four_bar(), four_bar_node(), n_samples=np.int64(16), seed=np.int64(2))
        assert got == want

    def test_edgeless_linkage(self):
        # two free points in the plane: the reduced tangent is the distance,
        # and the sphere meets it in two points
        linkage = Linkage(MechanismType(2, ()), (), ambient_dim=2)
        v = Configuration([(0.0, 0.0), (1.0, 0.0)])
        report = local_branch_count(linkage, v, radius=0.1)
        assert report.branch_count == 2
        assert report.stable

    def test_edgeless_linkage_default_radius(self):
        # no link scales the default radius, so it is 1e-2
        linkage = Linkage(MechanismType(2, ()), (), ambient_dim=2)
        v = Configuration([(0.0, 0.0), (1.0, 0.0)])
        report = local_branch_count(linkage, v)
        assert report.radius == 1e-2
        assert report.sample_count == 48
        assert report.branch_count == 2
        assert report.stable

    def test_configurations_built_do_not_grow_with_samples(self, monkeypatch):
        # the sphere samples are retracted and gauge-fixed as stacked arrays,
        # so no Configuration is built per sample
        built = Counter()
        init = Configuration.__init__

        def counting_init(self, points):
            built["n"] += 1
            init(self, points)

        monkeypatch.setattr(Configuration, "__init__", counting_init)
        counts = []
        for n_samples in (16, 96):
            built.clear()
            local_branch_count(four_bar(), four_bar_node(), radius=0.01, n_samples=n_samples)
            counts.append(built["n"])
        assert counts[0] == counts[1], counts

    def test_both_radii_share_one_lockstep_a_round(self, monkeypatch):
        # every unit direction is retracted at r and at r/2 in the same
        # _gauss_newton_rows call: four-bar-singular takes two rounds, so two
        # calls, where one call per radius and round took four
        rows = []
        lockstep = numeric._gauss_newton_rows

        def counting(linkage, x0, *args):
            rows.append(len(x0))
            return lockstep(linkage, x0, *args)

        monkeypatch.setattr(numeric, "_gauss_newton_rows", counting)
        linkage, config = demo_pair("four-bar-singular")
        report = local_branch_count(linkage, config, seed=0)
        assert report.branch_count == 4
        assert len(rows) == 2, rows
        assert rows[0] == 2 * 48

    def test_peak_memory(self):
        # the line search tests shorter steps on k-vectors; trying them as
        # (rows x 39 x N*d) iterates took 1.42 MB here
        linkage, config = demo_pair("tri-platform-b")
        local_branch_count(linkage, config)  # warm
        tracemalloc.start()
        try:
            local_branch_count(linkage, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0e6, peak

    def test_distance_graph_row_blocks_keep_every_report(self, monkeypatch):
        # the distance graph built 3 rows at a time against one block of all rows
        calls = [(demo_pair("four-bar-singular"), {"seed": seed}) for seed in range(4)]
        calls.append((demo_pair("egsing"), {"n_samples": 96, "seed": 0}))
        for (linkage, config), kw in calls:
            monkeypatch.setattr(numeric, "_CLUSTER_BLOCK", 10**9)
            whole = local_branch_count(linkage, config, **kw)
            monkeypatch.setattr(numeric, "_CLUSTER_BLOCK", 3)
            assert local_branch_count(linkage, config, **kw) == whole, kw
            assert whole.sample_count > 3


def collinear(linkage: Linkage, config: Configuration):
    """The linkage's graph with its vertices projected onto the first axis and
    every length remeasured there, or None when an edge gets shorter than 0.01.
    Every edge is then aligned, and many retractions near the point fail."""
    points = config.points.copy()
    points[:, 1:] = 0.0
    lengths = tuple(float(np.linalg.norm(points[u] - points[v])) for u, v in linkage.graph.edges)
    if min(lengths) < 1e-2:
        return None
    return Linkage(linkage.graph, lengths, ambient_dim=linkage.ambient_dim), Configuration(points)


def based(linkage: Linkage) -> Linkage:
    """The linkage with base vertex 0 and base link 0, the edge (1, 0) that
    random_linkage lists first."""
    return Linkage(linkage.graph, linkage.lengths, linkage.ambient_dim, base_vertex=0, base_link=0)


class TestBranchCountEqualsPerSample:
    """local_branch_count retracts a radius' samples in lockstep and clusters by
    connected components; its report must equal the per-sample reference
    loop's, whose retractions go through project_to_cspace one at a time."""

    @pytest.mark.parametrize("name", ["four-bar-singular", "egsing", "tri-platform-b", "five-bar"])
    def test_demos(self, name):
        linkage, config = demo_pair(name)
        cases = [{"n_samples": n, "seed": s} for n in (16, 48, 96) for s in (0, 1)]
        cases += [{"radius": 0.05, "seed": 2}, {"cluster_factor": 0.6, "seed": 3}]
        for kw in cases:
            want = reference_local_branch_count(linkage, config, **kw)
            assert local_branch_count(linkage, config, **kw) == want, kw

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_linkages(self, dim):
        # each linkage is also counted in the reduced gauge, with its base
        # link the edge (1, 0) at the base vertex; on the collinear copy that
        # link lies along the first axis
        rng = np.random.default_rng(300 + dim)
        events = Counter()
        for draw in range(12):
            linkage, config = random_linkage(rng, max_vertices=6, dim=dim)
            pairs = [(linkage, config), collinear(linkage, config)]
            pairs += [(based(pair[0]), pair[1]) for pair in pairs if pair is not None]
            for pair in pairs:
                if pair is None:
                    continue
                kw = {"radius": 0.2 * min(pair[0].lengths), "n_samples": 16, "seed": draw}
                log = []
                want = reference_local_branch_count(*pair, log=log, **kw)
                assert local_branch_count(*pair, **kw) == want, (draw, kw)
                events.update(log)
        for event in ("kept", "rescaled", "no convergence", "collapsed"):
            assert events[event] > 0, (event, events)


def _tol_rank_calls():
    """One call per public entry that takes tol_rank, at valid other arguments."""
    fb, node = four_bar(), four_bar_node()
    chain = chain_linkage((2.0, 1.0))
    bent = Configuration([(0.0, 0.0), (2.0, 0.0), (2.0, 1.0)])
    frame = tangent_frame(fb, node)
    image = work_image(fb, node)
    regular, pose = demo_pair("four-bar-regular")
    return {
        "numerical_rank": lambda t: numerical_rank(np.eye(2), tol_rank=t),
        "tangent_frame": lambda t: tangent_frame(fb, node, tol_rank=t),
        "work_image": lambda t: work_image(fb, node, tol_rank=t),
        "fd_hessian": lambda t: fd_hessian(fb, lambda c: 0.0, frame, tol_rank=t),
        "reduced_work_data": lambda t: reduced_work_data(chain, tangent_frame(chain, bent), tol_rank=t),
        "transversality_check": lambda t: transversality_check(image, image, 2, tol_rank=t),
        "project_to_cspace": lambda t: project_to_cspace(fb, node, tol_rank=t),
        "trace_curve": lambda t: trace_curve(regular, pose, max_steps=0, tol_rank=t),
        "local_branch_count": lambda t: local_branch_count(fb, node, n_samples=4, tol_rank=t),
        "Tolerances": lambda t: decomp.Tolerances(rank=t),
    }


_TOL_RANK_ENTRIES = (
    "numerical_rank",
    "tangent_frame",
    "work_image",
    "fd_hessian",
    "reduced_work_data",
    "transversality_check",
)


@pytest.mark.parametrize("entry", _TOL_RANK_ENTRIES)
@pytest.mark.parametrize("tol_rank", [float("nan"), float("inf"), -1.0, True, False, "1e-8"])
def test_tol_rank_checked(entry, tol_rank):
    # unchecked, a NaN tol_rank kept no singular value: tangent_frame at a
    # four-bar configuration returned the whole 5-dimensional reduced space
    call = _tol_rank_calls()[entry]
    call(1e-8)  # the other arguments are valid
    with pytest.raises(InvalidSpec, match="^tol_rank must be finite and >= 0"):
        call(tol_rank)


@pytest.mark.parametrize(
    "entry", _TOL_RANK_ENTRIES + ("project_to_cspace", "trace_curve", "local_branch_count", "Tolerances")
)
@pytest.mark.parametrize("tol_rank", [1.0, 2.0])
def test_tol_rank_below_one(entry, tol_rank):
    # _kept_singular_values keeps s > tol_rank * s[0], so at 1 or above no
    # singular value passed and every Jacobian had rank 0
    call = _tol_rank_calls()[entry]
    call(1e-8)  # the other arguments are valid
    with pytest.raises(InvalidSpec, match=f"rank must be below 1, got {tol_rank}$"):
        call(tol_rank)
