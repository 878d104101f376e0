from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

import linkctl
import linkctl.numeric as numeric
from linkctl.chains import ChainKind, ChainSpec, is_aligned
from linkctl.decomp import chain_mechanism, enumerate_chain_removals, remainder_mechanism
from linkctl.demos import build_demo
from linkctl.errors import (
    CoincidentEndpoints,
    InvalidSpec,
    NoConvergence,
    NoFeasiblePoint,
    NotACurve,
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
    fd_gradient,
    four_bar,
    four_bar_node,
    pointed_frame,
    random_linkage,
    random_open_chain,
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


class TestProjection:
    def test_on_constraint_unchanged(self):
        linkage = triangle()
        v = Configuration([(0, 0), (3, 0), (3, 4)])
        out = project_to_cspace(linkage, v)
        assert out is v

    def test_radial_projection_single_edge(self):
        linkage = Linkage(MechanismType(2, ((0, 1),)), (5.0,), 2)
        out = project_to_cspace(linkage, Configuration([(0, 0), (6, 0)]))
        assert out.points[1] == pytest.approx([5.0, 0.0])
        assert out.points[0] == pytest.approx([0.0, 0.0])

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


def reference_gauss_newton(
    residual_fn, jacobian_fn, x0, tol, max_iter, tol_rank=1e-8, r0=None, log=None
):
    """numeric._gauss_newton as a loop of its own that evaluates the start residual itself.

    log, when given, gets an (event, iterate) pair for each iteration,
    ("full step" or "shorter step", the new iterate), and for a failure,
    ("line search stalled" or "max_iter", the iterate it stopped at).
    """
    note = log.append if log is not None else lambda event: None
    x = np.array(x0, dtype=float)
    r = residual_fn(x)
    if np.max(np.abs(r)) < tol:
        return x
    for _ in range(max_iter):
        jac = jacobian_fn(x)
        delta = -numeric._pinv_solve(jac, r, tol_rank)
        phi = float(r @ r)
        slope = float(2.0 * (jac.T @ r) @ delta)
        alpha = 1.0
        while True:
            x_new = x + alpha * delta
            r_new = residual_fn(x_new)
            if float(r_new @ r_new) <= phi + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
            if alpha < 1e-12:
                note(("line search stalled", x))
                raise NoConvergence("line search stalled")
        x, r = x_new, r_new
        note(("full step" if alpha == 1.0 else "shorter step", x))
        if np.max(np.abs(r)) < tol:
            return x
    note(("max_iter", x))
    raise NoConvergence(f"no convergence after {max_iter} iterations")


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


@pytest.fixture
def reference_path(monkeypatch):
    """Switch numeric's projections and corrector to the reference path: a
    Configuration built at every residual and Jacobian evaluation, per-edge
    loops, and the reference Gauss-Newton loop."""

    def use():
        monkeypatch.setattr(numeric, "_gauss_newton", reference_gauss_newton)
        monkeypatch.setattr(
            numeric, "_residual_points", lambda lk, p: reference_residual(lk, Configuration(p))
        )
        monkeypatch.setattr(
            numeric, "_jacobian_points", lambda lk, p: reference_jacobian(lk, Configuration(p))
        )

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

    def test_non_finite_step_is_invalid_spec(self, monkeypatch):
        linkage, config = demo_pair("four-bar-regular")
        guess = Configuration(config.points * 1.05)
        monkeypatch.setattr(
            numeric, "_pinv_solve", lambda jac, rhs, tol_rank: np.full(jac.shape[1], np.inf)
        )
        with np.errstate(invalid="ignore"), pytest.raises(
            InvalidSpec, match="configuration coordinates must be finite"
        ):
            project_to_cspace(linkage, guess)


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


def reference_row(linkage, start, tol):
    """reference_gauss_newton on the constraint residual from one flat start,
    with project_to_cspace's defaults: (x, ok, events), x being the point it
    returns or the iterate it stopped at."""
    d = linkage.ambient_dim
    log = []
    try:
        x = reference_gauss_newton(
            lambda y: numeric._residual_points(linkage, y.reshape(-1, d)),
            lambda y: numeric._jacobian_points(linkage, y.reshape(-1, d)),
            start, tol, 100, 1e-8, log=log,
        )
        ok = True
    except NoConvergence:
        x, ok = log[-1][1], False
    events = [event for event, _ in log] or ["converged at the start"]
    return x, ok, events


class TestBatchedSampling:
    """sample_cspace projects its starts in lockstep chunks; each result must
    equal project_to_cspace of its own start bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_batch_equals_per_start(self, dim):
        rng = np.random.default_rng(40 + dim)
        events = Counter()
        for draw in range(4):
            linkage, _ = random_linkage(rng, max_vertices=6, dim=dim)
            box = linkage.length_scale
            cases = [
                (linkage, 12, 1e-10),
                (linkage, 12, 0.5 * box**2),  # loose enough for some starts as drawn
                (overstretched(linkage), 16, 1e-10),
            ]
            if draw == 0:
                cases.append((linkage, 2 * numeric._SAMPLE_CHUNK + 5, 1e-10))
            for lk, n, tol in cases:
                want = per_start_samples(lk, n, draw, tol)
                try:
                    got = sample_cspace(lk, n, seed=draw, tol=tol)
                except NoFeasiblePoint:
                    got = []
                assert as_bytes(got) == as_bytes(want), (draw, n, tol)

                # every row, failed ones included, stops where the per-start loop stops
                starts = np.stack([draw_start(lk, draw, i).flat for i in range(n)])
                r0 = numeric._residual_rows(lk, starts)
                x, ok = numeric._gauss_newton_rows(lk, starts, r0, tol, 100, 1e-8)
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

    def test_non_finite_iterate_is_invalid_spec(self):
        # squared lengths overflow: the first full step is not finite
        linkage = triangle((3e200, 4e200, 5e200))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            InvalidSpec, match="configuration coordinates must be finite"
        ):
            sample_cspace(linkage, 3, seed=0)


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
            linkage = ChainSpec(ChainKind.OPEN, lengths, d).to_linkage()
            img = work_image(linkage, Configuration(pts), 0, k)
            assert img.dim in (d - 1, d)
            if k >= 2 and is_aligned(pts) is None:
                assert img.dim == d

    def test_fd_cross_check_of_work_differential(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            pts = random_open_chain(rng, k, 2)
            lengths = tuple(np.linalg.norm(np.diff(pts, axis=0), axis=1))
            linkage = ChainSpec(ChainKind.OPEN, lengths, 2).to_linkage()
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

    def assert_matches_reference(self, linkage, config, base, effector):
        got = work_image(linkage, config, base, effector)
        want = reference_work_image(linkage, config, base, effector)
        assert got.dim == want.dim
        assert np.max(np.abs(projector(got) - projector(want)), initial=0.0) < 1e-10
        return got.dim

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_linkages(self, d):
        rng = np.random.default_rng(80 + d)
        dims = set()
        for _ in range(60):
            linkage, config = random_linkage(rng, dim=d)
            base, effector = rng.choice(linkage.n_vertices, 2, replace=False)
            dims.add(self.assert_matches_reference(linkage, config, base, effector))
        assert dims == {d - 1, d}  # pairs held at a fixed distance, and free pairs

    @pytest.mark.parametrize("d", [2, 3])
    def test_open_chains(self, d):
        rng = np.random.default_rng(90 + d)
        for chain in (random_open_chain, aligned_open_chain):
            for k in range(1, 7):
                pts = chain(rng, k, d)
                lengths = tuple(np.linalg.norm(np.diff(pts, axis=0), axis=1))
                linkage = ChainSpec(ChainKind.OPEN, lengths, d).to_linkage()
                dim = self.assert_matches_reference(linkage, Configuration(pts), 0, k)
                if chain is aligned_open_chain:
                    assert dim == d - 1

    def test_demo_stages(self):
        # both endpoint images of every first-level stage, singular demos included
        for name in ("four-bar-singular", "egsing", "five-bar", "tri-platform-b"):
            linkage, config = demo_pair(name)
            for removal in enumerate_chain_removals(linkage.graph):
                for part in (remainder_mechanism(linkage, removal), chain_mechanism(linkage, removal)):
                    sub = part.linkage
                    self.assert_matches_reference(
                        sub, part.restrict(config), sub.base_vertex, sub.end_effector
                    )


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
        linkage = ChainSpec(ChainKind.OPEN, (1.5,), 2).to_linkage()
        v = Configuration([(0, 0), (1.5, 0)])
        frame = tangent_frame(linkage, v)

        def f(c):
            return float(np.linalg.norm(c.points[1] - c.points[0]))

        grad = fd_gradient(linkage, f, v, frame.basis)
        assert np.max(np.abs(grad)) < 1e-8 if grad.size else True


class TestReducedWorkData:
    def test_nonzero_gradient_off_alignment(self):
        pts = np.array([[0.0, 0], [2, 0], [2, 1]])
        linkage = ChainSpec(ChainKind.OPEN, (2.0, 1.0), 2).to_linkage()
        data = reduced_work_data(linkage, Configuration(pts))
        assert np.linalg.norm(data.gradient) > 1e-3

    def test_zero_gradient_when_aligned(self):
        pts = np.array([[0.0, 0], [2, 0], [3, 0]])
        linkage = ChainSpec(ChainKind.OPEN, (2.0, 1.0), 2).to_linkage()
        data = reduced_work_data(linkage, Configuration(pts))
        assert np.linalg.norm(data.gradient) < 1e-6

    def test_coincident_endpoints(self):
        pts = np.array([[0.0, 0], [1, 0], [0, 0]])
        linkage = ChainSpec(ChainKind.OPEN, (1.0, 1.0), 2).to_linkage()
        with pytest.raises(CoincidentEndpoints):
            reduced_work_data(linkage, Configuration(pts))

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(36)
        for _ in range(8):
            pts = random_open_chain(rng, 4, 2)
            lengths = tuple(np.linalg.norm(np.diff(pts, axis=0), axis=1))
            linkage = ChainSpec(ChainKind.OPEN, lengths, 2).to_linkage()
            cfg = Configuration(pts)
            data = reduced_work_data(linkage, cfg)

            def f(c):
                return float(np.linalg.norm(c.points[-1] - c.points[0]))

            fd = fd_gradient(linkage, f, cfg, data.frame.basis)
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

    @pytest.mark.parametrize("max_steps", [-1, -3])
    def test_max_steps_must_be_non_negative(self, max_steps):
        # -3 gave one point and stop_reason "max_steps"
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
        with pytest.raises(NotACurve):
            trace_curve(linkage, v)

    def test_stops_near_singular_node(self):
        linkage = four_bar()
        node = four_bar_node()
        from linkctl.numeric import _gauge_fix

        fixed = _gauge_fix(linkage, node)
        frame = tangent_frame(linkage, fixed)
        start_flat = fixed.flat + 5e-4 * frame.basis[0]
        start = project_to_cspace(
            linkage, Configuration.from_flat(start_flat, 2), tol=1e-12, preserve_pointed=False
        )
        toward = fixed.flat - start.flat
        result = trace_curve(linkage, start, step=1e-4, max_steps=60, direction=toward)
        assert result.stop_reason in ("tangent_jump", "stalled_at_singularity")
        last = result.points[-1]
        assert np.linalg.norm(last.flat - fixed.flat) < 1e-3

    def test_retry_starts_on_its_own_hyperplane(self, monkeypatch):
        import linkctl.numeric as numeric

        linkage = four_bar((2.0, 1.2, 1.7, 0.9))
        start = sample_cspace(linkage, 1, seed=11)[0]
        real = numeric._gauss_newton
        arclength_rows = []  # hyperplane row of each corrector call at its start point

        def fail_first_corrector(res, jac, x0, *args):
            r0 = res(x0)
            if len(r0) == linkage.k + 1:  # the corrector, not a plain projection
                arclength_rows.append(float(r0[-1]))
                if len(arclength_rows) == 1:
                    raise NoConvergence("forced")
            return real(res, jac, x0, *args)

        monkeypatch.setattr(numeric, "_gauss_newton", fail_first_corrector)
        result = trace_curve(linkage, start, step=0.05, max_steps=2)
        assert len(arclength_rows) == 3  # failed try, its retry, the next step
        assert arclength_rows[1] == pytest.approx(0.0, abs=1e-12)
        assert len(result.points) == 3


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
        with pytest.raises(InvalidSpec):
            local_branch_count(four_bar(), four_bar_node(), **option)

    def test_edgeless_linkage(self):
        # two free points in the plane: the reduced tangent is the distance,
        # and the sphere meets it in two points
        linkage = Linkage(MechanismType(2, ()), (), ambient_dim=2)
        v = Configuration([(0.0, 0.0), (1.0, 0.0)])
        report = local_branch_count(linkage, v, radius=0.1)
        assert report.branch_count == 2
        assert report.stable


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
        rng = np.random.default_rng(300 + dim)
        events = Counter()
        for draw in range(12):
            linkage, config = random_linkage(rng, max_vertices=6, dim=dim)
            for pair in ((linkage, config), collinear(linkage, config)):
                if pair is None:
                    continue
                kw = {"radius": 0.2 * min(pair[0].lengths), "n_samples": 16, "seed": draw}
                log = []
                want = reference_local_branch_count(*pair, log=log, **kw)
                assert local_branch_count(*pair, **kw) == want, (draw, kw)
                events.update(log)
        for event in ("kept", "rescaled", "no convergence", "collapsed"):
            assert events[event] > 0, (event, events)
