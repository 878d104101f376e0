import math

import numpy as np
import pytest

from linkctl.chains import chord_signature, is_aligned, workspace_interval
from linkctl.errors import DegenerateDirection, InvalidSpec
from linkctl.model import Configuration, build_linkage
from linkctl.numeric import reduced_work_data, sample_cspace, tangent_frame, work_image

from conftest import (
    aligned_closed_chain,
    chain_linkage,
    four_bar_node,
    random_open_chain,
    reach_oracle,
    reference_is_aligned,
    triangle,
)


class TestWorkspaceInterval:
    def test_basic_pairs(self):
        assert workspace_interval((2, 1)) == (1.0, 3.0)
        assert workspace_interval((1, 1, 1)) == (0.0, 3.0)
        assert workspace_interval((5,)) == (5.0, 5.0)

    def test_empty_chain(self):
        with pytest.raises(InvalidSpec, match="workspace_interval needs at least one link"):
            workspace_interval(())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_length_must_be_positive_and_finite(self, bad):
        # nan gave (0.0, nan) and inf gave (0.0, inf)
        with pytest.raises(InvalidSpec, match="positive and finite"):
            workspace_interval((bad, 1.0))

    def test_total_must_be_finite(self):
        # gave (0.0, inf), and linkctl workspace printed "M": Infinity
        with pytest.raises(InvalidSpec, match=r"^link lengths must have a finite sum, got \[1e\+308, 1e\+308\]$"):
            workspace_interval((1e308, 1e308))

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
        loop = np.vstack([pts.points, pts.points[:1]])  # the closing link, as a fifth point
        w = is_aligned(loop)
        assert w == pytest.approx([1.0, 0.0])
        # the fixed links +3, -2.5, +1.5 along the chord +2: two forward
        assert chord_signature(pts) == (1, 1)

    def test_thresholds_ignore_where_the_chain_sits(self):
        # a link, then a chord, of 1e-9: against 1e-12 * (1 + max |coordinate|),
        # a shift of 1e4 made them zero-length
        short_link = np.array([[0.0, 0], [1, 0], [1 + 1e-9, 0], [2, 0]])
        short_chord = np.array([[0.0, 0], [1, 0], [1e-9, 0]])
        for shift in ((0.0, 0.0), (1e4, 0.0), (-3e3, 7e3)):
            assert is_aligned(short_link + shift).tolist() == [1.0, 0.0]
            assert chord_signature(short_link + shift) == (0, 2)
            assert chord_signature(short_chord + shift) == (1, 0)

    def test_degenerate_link(self):
        with pytest.raises(DegenerateDirection):
            is_aligned(np.array([[0.0, 0], [0, 0], [1, 0]]))

    def test_single_point_is_not_a_chain(self):
        # raised IndexError from the first link's direction
        with pytest.raises(InvalidSpec, match="is_aligned needs at least one link"):
            is_aligned(np.zeros((1, 2)))

    @staticmethod
    def outcome(test, points, tol):
        try:
            w = test(points, tol=tol)
        except DegenerateDirection:
            return "zero-length link"
        return None if w is None else w.tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    def test_equals_reference(self, d):
        # the stacked kernel's one-chain case against np.diff, np.linalg.norm
        # and a matmul: the same verdict and the same direction, bit for bit.
        # Chains of 1 to 12 links, bent, aligned to within tilts around the
        # angular tolerance, with a repeated point or shrunk by 1e-13, and
        # closed loops
        rng = np.random.default_rng(90 + d)
        seen = {}
        for trial in range(600):
            k = int(rng.integers(1, 13))
            kind = trial % 4
            if kind == 0:
                pts = random_open_chain(rng, k, d) * 10.0 ** rng.uniform(-3, 3)
            elif kind in (1, 2):
                w = rng.normal(size=d)
                steps = rng.choice([-1.0, 1.0], k)[:, None] * rng.uniform(0.5, 2.0, (k, 1)) * w
                steps += rng.normal(size=(k, d)) * 10.0 ** rng.uniform(-9, -5) * np.linalg.norm(steps[:1])
                pts = np.vstack([np.zeros(d), np.cumsum(steps, axis=0)]) + rng.normal(size=d)
                if kind == 2:
                    i = int(rng.integers(0, k + 1))
                    pts = np.insert(pts, i, pts[i] + rng.choice([0.0, 1e-13]) * w, axis=0)
            else:
                pts = aligned_closed_chain(rng, d)[1]
            tol = float(rng.choice([0.0, 1e-6, 1e-3]))
            got = self.outcome(is_aligned, pts, tol)
            assert got == self.outcome(reference_is_aligned, pts, tol), (pts, tol)
            key = got if got in (None, "zero-length link") else "aligned"
            seen[key] = seen.get(key, 0) + 1
        assert min(seen.values()) >= 60, seen

    def test_forward_count_all_same(self):
        # chord_signature counts the links along the chord: all 3 of them
        pts = np.array([[0.0, 0], [1, 0], [2, 0], [3.5, 0]])
        assert chord_signature(pts) == (0, 2)

    def test_forward_count_reversal(self):
        # walking a chain backwards reverses every link and the chord
        # together, so the forward count and the signature stay
        pts = four_bar_node().points
        assert chord_signature(pts[::-1]) == chord_signature(pts) == (1, 1)
        rng = np.random.default_rng(14)
        for d in (2, 3, 2, 3):
            pts = aligned_closed_chain(rng, d)[1]
            assert chord_signature(pts[::-1]) == chord_signature(pts)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, math.pi / 2, 4.0, float("inf")])
    def test_angular_tolerance_below_a_right_angle(self, tol):
        # cos(4) < 0, so tol=4 counted every chain as aligned
        bent = np.array([[0.0, 0], [1, 0], [1, 1]])
        for check in (
            lambda: is_aligned(bent, tol=tol),
            lambda: chord_signature(bent, tol=tol),
        ):
            with pytest.raises(InvalidSpec, match="^tol must be"):
                check()

    def test_forward_count_requires_alignment(self):
        # the second link tilted by about 1e-4: aligned within 1e-3, not 1e-6
        tilted = np.array([[0.0, 0], [1, 0], [2, 1e-4]])
        assert chord_signature(tilted, tol=1e-3) == (0, 1)
        with pytest.raises(InvalidSpec, match="chord_signature requires an aligned chain"):
            chord_signature(tilted, tol=1e-6)


class TestAlignedMorseIndex:
    """The Morse index of the reduced endpoint-distance function at an aligned
    closed chain is chord_signature's negative part on its fixed links."""

    def test_four_bar_index_one(self):
        assert chord_signature(four_bar_node())[1] == 1

    def test_stretched_chain_is_a_maximum(self):
        # all fixed links forward: the chord length sits at its global
        # maximum, so every reduced direction is downhill
        lengths = (2.0, 1.0, 1.5)
        pts = np.array([[0.0, 0], [2, 0], [3, 0], [4.5, 0]])
        assert chord_signature(pts)[1] == 2
        linkage = chain_linkage(lengths)
        data = reduced_work_data(linkage, tangent_frame(linkage, Configuration(pts)))
        eigs = np.linalg.eigvalsh(data.hessian)
        assert np.all(eigs < -1e-6)

    def test_matches_fd_hessian_oracle(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 25:
            d = 2 if checked % 3 else 3
            lengths, pts, _ = aligned_closed_chain(rng, d=d)
            combinatorial = chord_signature(pts)[1]
            linkage = chain_linkage(lengths[:-1], d)
            data = reduced_work_data(linkage, tangent_frame(linkage, Configuration(pts)))
            eigs = np.linalg.eigvalsh(data.hessian)
            thr = 1e-6 * max(np.max(np.abs(eigs)), 1e-12)
            assert combinatorial == int(np.sum(eigs < -thr))
            checked += 1

    def test_requires_alignment(self):
        v = sample_cspace(triangle((2.0, 1.5, 1.2)), 1, seed=0)[0]
        with pytest.raises(InvalidSpec, match="requires an aligned chain"):
            chord_signature(v)


class TestChordSignature:
    def test_stretched_and_folded(self):
        assert chord_signature(np.array([[0.0, 0], [2, 0], [3, 0], [4.5, 0]])) == (0, 2)
        # one link back along the chord: (d-1)(k-f) = 1 uphill direction
        assert chord_signature(np.array([[0.0, 0, 0], [2, 0, 0], [1, 0, 0], [2.5, 0, 0]])) == (2, 2)

    def test_matches_fd_hessian_inertia(self):
        rng = np.random.default_rng(7)
        for checked in range(12):
            d = 2 if checked % 3 else 3
            lengths, pts, _ = aligned_closed_chain(rng, d=d)
            linkage = chain_linkage(lengths[:-1], d)
            data = reduced_work_data(linkage, tangent_frame(linkage, Configuration(pts)))
            eigs = np.linalg.eigvalsh(data.hessian)
            thr = 1e-6 * max(np.max(np.abs(eigs)), 1e-12)
            assert chord_signature(pts) == (int(np.sum(eigs > thr)), int(np.sum(eigs < -thr)))

    def test_vanishing_chord(self):
        with pytest.raises(DegenerateDirection, match="aligned chain chord vanishes"):
            chord_signature(np.array([[0.0, 0], [1, 0], [0, 0]]))

    def test_requires_alignment(self):
        with pytest.raises(InvalidSpec, match="chord_signature requires an aligned chain"):
            chord_signature(np.array([[0.0, 0], [1, 0], [1, 1]]))

    @pytest.mark.parametrize("test", [is_aligned, chord_signature], ids=lambda test: test.__name__)
    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_points_is_not_a_chain(self, test, n):
        # chord_signature raised IndexError on no point and DegenerateDirection on one
        with pytest.raises(InvalidSpec, match=f"^{test.__name__} needs at least one link$"):
            test(np.zeros((n, 2)))


class TestWorkImage:
    """An open chain's work image, over its pointed tangent space:
    dimension d off alignment (for k >= 2), d - 1 and orthogonal to the
    alignment direction when aligned."""

    def test_submersion_off_alignment(self):
        img = work_image(chain_linkage((2.0, 1.0)), Configuration([[0.0, 0], [2, 0], [2, 1]]))
        assert img.dim == 2

    def test_aligned_image_orthogonal(self):
        img = work_image(chain_linkage((2.0, 1.0)), Configuration([[0.0, 0], [2, 0], [3, 0]]))
        assert img.dim == 1
        assert abs(img.vectors[0] @ np.array([1.0, 0.0])) < 1e-8

    def test_single_link_sphere_tangent(self):
        for d in (2, 3):
            pts = np.zeros((2, d))
            pts[1, 0] = 1.5
            img = work_image(chain_linkage((1.5,), d), Configuration(pts))
            assert img.dim == d - 1

    def test_dichotomy_on_random_chains(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            k = int(rng.integers(1, 7))
            d = int(rng.choice([2, 3]))
            pts = random_open_chain(rng, k, d)
            lengths = tuple(np.linalg.norm(np.diff(pts, axis=0), axis=1))
            img = work_image(chain_linkage(lengths, d), Configuration(pts))
            w = is_aligned(pts)
            if w is None:
                assert img.dim == d
            else:
                assert img.dim == d - 1
                assert np.max(np.abs(img.vectors @ w)) < 1e-8


class TestChainLinkage:
    def test_path_with_base_and_far_effector(self):
        linkage = chain_linkage((1.0, 2.0, 1.5), 3)
        assert linkage.graph.edges == ((0, 1), (1, 2), (2, 3))
        assert linkage.lengths == (1.0, 2.0, 1.5)
        assert linkage.ambient_dim == 3
        assert (linkage.base_vertex, linkage.base_link, linkage.end_effector) == (0, 0, 3)

    def test_prismatic_chain_points_to_fiber(self):
        # a closed chain whose last link is variable is no linkage; the
        # rejection names the edge and says to fix its length per fiber
        edges = [{"u": i, "v": (i + 1) % 4, "length": x} for i, x in enumerate((1.0, 2.0, 1.5, 2.0))]
        edges[3]["prismatic"] = {"min": 0.5, "max": 4.5}
        with pytest.raises(InvalidSpec, match="^edge 3 has a prismatic range.*length fixed$"):
            build_linkage({"dim": 2, "vertices": 4, "edges": edges})


class TestPrismaticFiber:
    def test_fiber_configurations_have_exact_chord(self):
        # a fiber of the prismatic closed chain (2.0, 1.5, 1.0) is the linkage
        # document with the variable link's length fixed, as build_linkage's
        # rejection of a prismatic edge says
        ell = 2.2
        edges = [{"u": i, "v": (i + 1) % 4, "length": x} for i, x in enumerate((2.0, 1.5, 1.0, ell))]
        linkage = build_linkage({"dim": 2, "vertices": 4, "edges": edges, "base_link": 0, "effector": 3})
        for v in sample_cspace(linkage, 5, seed=3):
            chord = np.linalg.norm(v.points[-1] - v.points[0])
            assert chord == pytest.approx(ell, abs=1e-9)
