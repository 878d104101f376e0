import numpy as np
import pytest

from linkctl.chains import (
    ChainKind,
    ChainSpec,
    aligned_morse_index,
    chain_work_image,
    chain_work_map,
    forward_count,
    from_spherical,
    is_aligned,
    prismatic_fiber,
    spherical_rho,
    to_spherical,
    workspace_interval,
)
from linkctl.errors import (
    DegenerateDirection,
    EmptyChain,
    InvalidSpec,
    NotAligned,
    OutOfRange,
    UndefinedTheta,
)
from linkctl.model import Configuration
from linkctl.numeric import reduced_work_data, sample_cspace

from conftest import aligned_closed_chain, four_bar_node, random_open_chain, reach_oracle


class TestWorkspaceInterval:
    def test_basic_pairs(self):
        assert workspace_interval((2, 1)) == (1.0, 3.0)
        assert workspace_interval((1, 1, 1)) == (0.0, 3.0)
        assert workspace_interval((5,)) == (5.0, 5.0)

    def test_empty_chain(self):
        with pytest.raises(EmptyChain):
            workspace_interval(())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_length_must_be_positive_and_finite(self, bad):
        # nan gave (0.0, nan) and inf gave (0.0, inf)
        with pytest.raises(InvalidSpec, match="positive and finite"):
            workspace_interval((bad, 1.0))
        for kind in ChainKind:
            with pytest.raises(InvalidSpec, match="positive and finite"):
                ChainSpec(kind, (bad, 1.0, 1.0))

    def test_against_sampling_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            k = int(rng.integers(1, 7))
            lengths = rng.uniform(0.3, 2.0, k)
            m, big = workspace_interval(lengths)
            lo, hi, dist = reach_oracle(lengths, d=2, n_samples=20000, seed=int(rng.integers(1e6)))
            assert m - 1e-2 <= lo and hi <= big + 1e-12
            # observed values cover the interval reasonably densely
            if big - m > 1e-6:
                grid = np.linspace(m + 0.02 * (big - m), big - 0.02 * (big - m), 15)
                gaps = [np.min(np.abs(dist - g)) for g in grid]
                assert max(gaps) < 0.05 * (big - m)


class TestAlignment:
    def test_straight_chain(self):
        w = is_aligned(np.array([[0.0, 0], [1, 0], [2, 0]]))
        assert w == pytest.approx([1.0, 0.0])

    def test_bent_chain(self):
        assert is_aligned(np.array([[0.0, 0], [1, 0], [1, 1]])) is None

    def test_four_bar_node_pattern(self):
        pts = four_bar_node()
        w = is_aligned(pts, closed=True)
        assert w == pytest.approx([1.0, 0.0])
        assert forward_count(pts, np.array([1.0, 0.0]), closed=True) == 2

    def test_degenerate_link(self):
        with pytest.raises(DegenerateDirection):
            is_aligned(np.array([[0.0, 0], [0, 0], [1, 0]]))

    def test_forward_count_all_same(self):
        pts = np.array([[0.0, 0], [1, 0], [2, 0], [3.5, 0]])
        assert forward_count(pts, np.array([1.0, 0.0])) == 3

    def test_forward_count_reversal(self):
        pts = four_bar_node()
        w = np.array([1.0, 0.0])
        k = forward_count(pts, w, closed=True)
        assert forward_count(pts, -w, closed=True) == 4 - k

    def test_forward_count_requires_alignment(self):
        with pytest.raises(NotAligned):
            forward_count(np.array([[0.0, 0], [1, 0], [1, 1]]), np.array([1.0, 0.0]))


class TestAlignedMorseIndex:
    def test_four_bar_index_one(self):
        spec = ChainSpec(ChainKind.CLOSED, (3.0, 2.5, 1.5, 2.0))
        assert aligned_morse_index(spec, four_bar_node()) == 1

    def test_stretched_chain_is_a_maximum(self):
        # all fixed links forward: the chord length sits at its global
        # maximum, so every reduced direction is downhill
        lengths = (2.0, 1.0, 1.5)
        spec = ChainSpec(ChainKind.CLOSED, lengths + (4.5,))
        pts = np.array([[0.0, 0], [2, 0], [3, 0], [4.5, 0]])
        assert aligned_morse_index(spec, pts) == 2
        open_spec = ChainSpec(ChainKind.OPEN, lengths)
        data = reduced_work_data(open_spec.to_linkage(), Configuration(pts))
        eigs = np.linalg.eigvalsh(data.hessian)
        assert np.all(eigs < -1e-6)

    def test_matches_fd_hessian_oracle(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 25:
            d = 2 if checked % 3 else 3
            spec, pts, _ = aligned_closed_chain(rng, d=d)
            combinatorial = aligned_morse_index(spec, pts)
            open_spec = ChainSpec(ChainKind.OPEN, spec.lengths[:-1], d)
            data = reduced_work_data(open_spec.to_linkage(), Configuration(pts))
            eigs = np.linalg.eigvalsh(data.hessian)
            thr = 1e-6 * max(np.max(np.abs(eigs)), 1e-12)
            assert combinatorial == int(np.sum(eigs < -thr))
            checked += 1

    def test_requires_alignment(self):
        spec = ChainSpec(ChainKind.CLOSED, (2.0, 1.5, 1.2))
        v = sample_cspace(spec.to_linkage(), 1, seed=0)[0]
        with pytest.raises(NotAligned):
            aligned_morse_index(spec, v)


class TestWorkMap:
    def test_straight_chain(self):
        assert chain_work_map(np.array([[0.0, 0], [2, 0], [3, 0]])) == pytest.approx([3.0, 0.0])

    def test_folded_chain(self):
        assert chain_work_map(np.array([[0.0, 0], [2, 0], [1, 0]])) == pytest.approx([1.0, 0.0])

    def test_returned_to_origin(self):
        assert chain_work_map(np.array([[0.0, 0], [1, 0], [0, 0]])) == pytest.approx([0.0, 0.0])


class TestWorkImage:
    def test_submersion_off_alignment(self):
        spec = ChainSpec(ChainKind.OPEN, (2.0, 1.0))
        img = chain_work_image(spec, np.array([[0.0, 0], [2, 0], [2, 1]]))
        assert img.dim == 2

    def test_aligned_image_orthogonal(self):
        spec = ChainSpec(ChainKind.OPEN, (2.0, 1.0))
        img = chain_work_image(spec, np.array([[0.0, 0], [2, 0], [3, 0]]))
        assert img.dim == 1
        assert abs(img.vectors[0] @ np.array([1.0, 0.0])) < 1e-8

    def test_single_link_sphere_tangent(self):
        for d in (2, 3):
            spec = ChainSpec(ChainKind.OPEN, (1.5,), d)
            pts = np.zeros((2, d))
            pts[1, 0] = 1.5
            img = chain_work_image(spec, pts)
            assert img.dim == d - 1

    def test_dichotomy_on_random_chains(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            k = int(rng.integers(1, 7))
            d = int(rng.choice([2, 3]))
            pts = random_open_chain(rng, k, d)
            lengths = tuple(np.linalg.norm(np.diff(pts, axis=0), axis=1))
            spec = ChainSpec(ChainKind.OPEN, lengths, d)
            img = chain_work_image(spec, pts)
            w = is_aligned(pts)
            if w is None:
                assert img.dim == d
            else:
                assert img.dim == d - 1
                assert np.max(np.abs(img.vectors @ w)) < 1e-8


class TestSpherical:
    def test_straight_chain(self):
        p = to_spherical(np.array([[0.0, 0], [2, 0], [3, 0]]))
        assert p.theta == pytest.approx([1.0, 0.0])
        assert p.joint_angles[0] == pytest.approx(0.0)

    def test_right_angle(self):
        p = to_spherical(np.array([[0.0, 0], [1, 0], [1, 1]]))
        assert p.joint_angles[0] == pytest.approx(np.pi / 2)
        assert p.theta == pytest.approx(np.array([1.0, 1.0]) / np.sqrt(2))

    def test_undefined_theta(self):
        # closed square path returns to the origin and is not aligned
        pts = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1], [0, 0]])
        with pytest.raises(UndefinedTheta):
            to_spherical(pts)

    def test_round_trip_planar(self):
        lengths = (2.0, 1.0, 1.5)
        spec = ChainSpec(ChainKind.OPEN, lengths)
        worst = 0.0
        for i in range(10000):
            rng = np.random.default_rng([21, i])
            ang = rng.uniform(-np.pi, np.pi, 3)
            dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
            pts = np.vstack([np.zeros(2), np.cumsum(dirs * np.array(lengths)[:, None], axis=0)])
            if np.linalg.norm(pts[-1]) < 1e-6:
                continue
            back = from_spherical(spec, to_spherical(pts))
            worst = max(worst, float(np.max(np.abs(back.points - pts))))
        assert worst < 1e-9

    def test_round_trip_spatial_up_to_axial_gauge(self):
        lengths = (2.0, 1.0, 1.5)
        spec = ChainSpec(ChainKind.OPEN, lengths, 3)
        for i in range(200):
            rng = np.random.default_rng([22, i])
            dirs = rng.normal(size=(3, 3))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            pts = np.vstack([np.zeros(3), np.cumsum(dirs * np.array(lengths)[:, None], axis=0)])
            params = to_spherical(pts)
            back = from_spherical(spec, params).points
            # gauge-invariant comparison: chord along theta, all pairwise distances equal
            assert np.linalg.norm(back[-1] - pts[-1]) < 1e-9
            da = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            db = np.linalg.norm(back[:, None, :] - back[None, :, :], axis=2)
            assert np.max(np.abs(da - db)) < 1e-9

    def test_rho_recomputed(self):
        lengths = (2.0, 1.0)
        spec = ChainSpec(ChainKind.OPEN, lengths)
        pts = np.array([[0.0, 0], [2, 0], [2, 1]])
        params = to_spherical(pts)
        assert spherical_rho(spec, params) == pytest.approx(np.linalg.norm(pts[-1]))

    def test_aligned_chain_with_zero_chord_uses_alignment_direction(self):
        pts = np.array([[0.0, 0], [1, 0], [0, 0]])
        params = to_spherical(pts)
        assert params.theta == pytest.approx([1.0, 0.0])
        spec = ChainSpec(ChainKind.OPEN, (1.0, 1.0))
        back = from_spherical(spec, params)
        assert np.max(np.abs(back.points - pts)) < 1e-12


class TestPrismaticFiber:
    def test_degenerate_triangle_fiber(self):
        pc = ChainSpec(ChainKind.PRISMATIC_CLOSED, (2.0, 1.0))
        fiber = prismatic_fiber(pc, 3.0)
        assert fiber.kind is ChainKind.CLOSED
        assert fiber.lengths == (2.0, 1.0, 3.0)

    def test_interior_fiber(self):
        pc = ChainSpec(ChainKind.PRISMATIC_CLOSED, (2.0, 1.0))
        fiber = prismatic_fiber(pc, 1.0)
        assert fiber.lengths == (2.0, 1.0, 1.0)

    def test_out_of_range(self):
        pc = ChainSpec(ChainKind.PRISMATIC_CLOSED, (2.0, 1.0))
        with pytest.raises(OutOfRange):
            prismatic_fiber(pc, 5.0)

    def test_fiber_configurations_have_exact_chord(self):
        pc = ChainSpec(ChainKind.PRISMATIC_CLOSED, (2.0, 1.5, 1.0))
        ell = 2.2
        fiber = prismatic_fiber(pc, ell)
        linkage = fiber.to_linkage()
        for v in sample_cspace(linkage, 5, seed=3):
            chord = np.linalg.norm(v.points[-1] - v.points[0])
            assert chord == pytest.approx(ell, abs=1e-9)

    def test_closed_chain_feasibility_enforced(self):
        with pytest.raises(InvalidSpec):
            ChainSpec(ChainKind.CLOSED, (1.0, 5.0, 1.0))
