import dataclasses
import functools
import json
import re
import warnings

import numpy as np
import pytest

from linkctl.classify import (
    Verdict,
    classify_configuration,
    lines_concurrent,
    platform_conditions,
    verify_platform_singularity,
)
from linkctl.chains import is_aligned
from linkctl.decomp import StageVerdictKind, Tolerances, find_nontransversive_witness
from linkctl.errors import DegenerateDirection, InvalidSpec, NoFeasiblePoint, OffConstraint
from linkctl.model import Configuration, Linkage, MechanismType, PlatformSpec, build_linkage
from linkctl.numeric import numerical_rank, sample_cspace, tangent_frame
from linkctl.model import constraint_jacobian
from linkctl import cli, decomp, demos, model
from linkctl.demos import build_demo

from conftest import (
    assert_verdict_fits_rank,
    collinear_polygon,
    reference_platform_conditions,
    self_stressed_linkage,
    stress_matrix,
)
from test_invariance import _moved


def _demo_pair(name):
    linkage_doc, config_doc = build_demo(name)
    return build_linkage(linkage_doc), Configuration(config_doc["points"])


class TestClassify:
    def test_generic_four_bar_smooth_via_rank(self, fb):
        v = sample_cspace(fb, 1, seed=5)[0]
        report = classify_configuration(fb, v)
        assert report.verdict is Verdict.SMOOTH
        assert report.rank == 4
        assert report.certificate is not None and report.certificate.stages == ()

    def test_four_bar_node_generic_singular(self, fb, fb_node):
        report = classify_configuration(fb, fb_node)
        assert report.verdict is Verdict.GENERIC_SINGULAR
        assert (report.rank, report.k) == (3, 4)
        assert report.witness.signature == (1, 1)
        assert report.witness.euclidean_factor == 0
        assert report.conjunction and "aligned" in report.conjunction

    def test_egsing_indeterminate(self, egsing):
        linkage, config = egsing
        report = classify_configuration(linkage, config)
        assert report.rank < report.k
        assert report.verdict is Verdict.INDETERMINATE

    def test_off_constraint_rejected(self, fb):
        with pytest.raises(OffConstraint):
            classify_configuration(fb, Configuration([(0, 0), (1, 1), (2, 2), (3, 3)]))

    @staticmethod
    def _node_moved(shift):
        """The four-bar-singular demo, and its node with vertex 2 moved along x:
        edge (1, 2), of length 2.5, is off by 5 * shift."""
        linkage, node = _demo_pair("four-bar-singular")
        points = node.points.copy()
        points[2, 0] += shift
        return linkage, node, Configuration(points)

    def test_node_moved_within_the_residual_bound_keeps_its_witness(self):
        linkage, node, moved = self._node_moved(5e-9)
        report, at_node = classify_configuration(linkage, moved), classify_configuration(linkage, node)
        assert report.verdict is Verdict.GENERIC_SINGULAR
        assert report.witness.decomposition == at_node.witness.decomposition
        assert report.witness.signature == at_node.witness.signature == (1, 1)

    @pytest.mark.parametrize("shift", [1e-8, 1.9e-8])
    def test_node_moved_past_an_edge_bound_is_off_constraint(self, shift):
        # 5 * shift >= 1e-8 * (1 + 2.5).  Against the whole linkage's bound,
        # 1e-8 * (1 + 9), 1.9e-8 passed, the search skipped the 24 stages
        # whose parts failed it, and the verdict was an unexplained Indeterminate
        linkage, _, moved = self._node_moved(shift)
        with pytest.raises(OffConstraint, match="too large"):
            classify_configuration(linkage, moved)

    def test_edgeless_linkage_is_smooth(self):
        linkage = Linkage(MechanismType(2, ()), (), ambient_dim=2)
        report = classify_configuration(linkage, Configuration([(0.0, 0.0), (1.0, 0.0)]))
        assert report.verdict is Verdict.SMOOTH
        assert (report.rank, report.k) == (0, 0)

    def test_depth_zero_is_indeterminate(self, fb, fb_node):
        report = classify_configuration(fb, fb_node, tols=Tolerances(depth=0))
        assert report.verdict is Verdict.INDETERMINATE
        assert report.witness is None and report.certificate is None

    def test_negative_depth_rejected(self, fb, fb_node):
        v = sample_cspace(fb, 1, seed=5)[0]
        for config in (v, fb_node):
            with pytest.raises(InvalidSpec, match="depth"):
                classify_configuration(fb, config, tols=Tolerances(depth=-3))

    def test_rigid_motion_invariance(self, fb, fb_node):
        rng = np.random.default_rng(40)
        base = classify_configuration(fb, fb_node)
        for _ in range(3):
            ang = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
            moved = Configuration(fb_node.points @ rot.T + rng.uniform(-2, 2, 2))
            report = classify_configuration(fb, moved)
            assert report.verdict is base.verdict
            assert report.witness.signature == base.witness.signature

    def test_verdict_monotonic_in_rank_tolerance(self, fb, fb_node):
        v = sample_cspace(fb, 1, seed=5)[0]
        order = {Verdict.SMOOTH: 0, Verdict.INDETERMINATE: 1, Verdict.GENERIC_SINGULAR: 1}
        for config in (v, fb_node):
            previous = None
            for tol in (1e-10, 1e-8, 1e-6):
                rep = classify_configuration(fb, config, tols=Tolerances(rank=tol))
                if previous is not None:
                    assert order[rep.verdict] >= order[previous]
                previous = rep.verdict

    def test_parallelogram_aligned_config_is_a_node(self):
        # lengths (1,2,1,2): the aligned configuration with pattern (+,+,-,-)
        # splits into two fully stretched 2-chains, an ordinary node
        linkage = Linkage(
            MechanismType(4, ((0, 1), (1, 2), (2, 3), (3, 0))), (1.0, 2.0, 1.0, 2.0), 2
        )
        config = Configuration([(0, 0), (1, 0), (3, 0), (2, 0)])
        report = classify_configuration(linkage, config)
        assert report.verdict is Verdict.GENERIC_SINGULAR
        assert report.witness.signature == (1, 1)

    def test_report_json_shape(self, fb, fb_node):
        d = classify_configuration(fb, fb_node).to_json_dict()
        assert d["verdict"] == "GenericSingular"
        assert d["rank"] == [3, 4]
        assert d["witness"]["signature"] == [1, 1]
        assert d["certificate"] is None


class TestConflict:
    """A certificate at a rank-deficient configuration contradicts the rank
    test, so it is reported as Conflict, never as Smooth, with or without a
    witness beside it."""

    @staticmethod
    def _certified_node(monkeypatch, witness_found):
        # the four-bar node with a one-stage certificate the search cannot
        # find there: the outermost stage of the node's own witness
        linkage, node = _demo_pair("four-bar-singular")
        stage = find_nontransversive_witness(linkage, node).decomposition.stages[0]
        certificate = decomp.Decomposition((stage,), stage.remainder_vertices, stage.remainder_edges)
        monkeypatch.setattr("linkctl.classify.find_smoothness_certificate", lambda *args: certificate)
        if not witness_found:
            monkeypatch.setattr("linkctl.classify.find_nontransversive_witness", lambda *args: None)
        return linkage, node, certificate

    def test_certificate_beside_a_witness(self, monkeypatch):
        linkage, node, certificate = self._certified_node(monkeypatch, witness_found=True)
        report = classify_configuration(linkage, node)
        assert report.verdict is Verdict.CONFLICT
        assert (report.rank, report.k) == (3, 4)
        assert report.certificate == certificate
        assert report.witness is not None and report.witness.signature == (1, 1)

    def test_certificate_alone(self, monkeypatch):
        linkage, node, certificate = self._certified_node(monkeypatch, witness_found=False)
        report = classify_configuration(linkage, node)
        assert report.verdict is Verdict.CONFLICT
        assert report.certificate == certificate and report.witness is None
        assert_verdict_fits_rank(report)

    @pytest.mark.parametrize("witness_found", [True, False])
    def test_analyze_exits_30(self, monkeypatch, tmp_path, capsys, witness_found):
        self._certified_node(monkeypatch, witness_found)
        paths = []
        for suffix, doc in zip(("linkage", "config"), build_demo("four-bar-singular")):
            paths.append(tmp_path / f"node.{suffix}.json")
            paths[-1].write_text(json.dumps(doc))
        assert cli.main(["analyze", *map(str, paths)]) == 30
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "Conflict"
        assert len(doc["certificate"]["stages"]) == 1
        assert (doc["witness"] is not None) is witness_found


def _spatial_self_stress_draw(seed: int, call: int) -> tuple[Linkage, Configuration, np.ndarray]:
    """The call-th self_stressed_linkage(rng, 3) from a fresh default_rng(seed),
    counting the calls that return None, as criterion 10 draws; with the
    eigenvalues of its stress form Q = B Omega(mu) B^T on the reduced frame B."""
    rng = np.random.default_rng(seed)
    for _ in range(call):
        sample = self_stressed_linkage(rng, 3)
    linkage, config = sample
    mu = np.linalg.svd(constraint_jacobian(linkage, config))[0][:, -1]
    basis = tangent_frame(linkage, config).basis
    return linkage, config, np.linalg.eigvalsh(basis @ stress_matrix(linkage, mu) @ basis.T)


class TestSpatialSelfStressSamples:
    """Two d = 3 corank-1 samples of criterion 10's draws, pinned at their
    current verdicts, so that a change to the second-order test shows on
    them."""

    def test_witness_one_more_than_the_nullity_of_q(self):
        # Q is nondegenerate, and the witness's Euclidean factor is 1: the
        # case where the witness has one dimension more than Q's nullity
        linkage, config, eigs = _spatial_self_stress_draw(10, 5)
        assert eigs == pytest.approx([0.125, 2.0], abs=1e-3)
        report = classify_configuration(linkage, config)
        assert report.verdict is Verdict.GENERIC_SINGULAR
        assert (report.rank, report.k) == (4, 5)
        assert_verdict_fits_rank(report)
        assert report.witness.signature == (0, 2)
        assert report.witness.euclidean_factor == 1

    def test_pendant_vertices_leave_it_indeterminate(self):
        # pendant vertices 3 and 4 hang off cut vertices 2 and 0, and Q
        # vanishes along their free motion
        linkage, config, eigs = _spatial_self_stress_draw(35, 14)
        graph = linkage.graph
        assert [graph.degree(v) for v in range(linkage.n_vertices)] == [3, 3, 4, 1, 1, 2]
        neighbours = {p: [u if v == p else v for u, v in graph.edges if p in (u, v)] for p in (3, 4)}
        assert neighbours == {3: [2], 4: [0]}
        assert eigs[:2] == pytest.approx([-1.93, -1.12], abs=5e-3)
        assert np.max(np.abs(eigs[2:])) < 1e-12
        report = classify_configuration(linkage, config)
        assert report.verdict is Verdict.INDETERMINATE
        assert (report.rank, report.k) == (6, 7)
        assert_verdict_fits_rank(report)
        assert report.witness is None and report.certificate is None


class TestCollinearPolygons:
    """The polygon-space theorem as an oracle: an n-gon in R^d is singular
    exactly at its collinear poses, and at one with a links forward and b
    backward the witness signature is (d - 1) * (a - 1, b - 1) up to the
    order of its parts.  Two draws for each d and n."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    @pytest.mark.parametrize("d", [2, 3])
    def test_collinear_pose_is_generic_singular(self, d, n):
        rng = np.random.default_rng([d, n])
        for _ in range(2):
            linkage, config, (a, b) = collinear_polygon(rng, n, d)
            report = classify_configuration(linkage, config)
            assert report.verdict is Verdict.GENERIC_SINGULAR
            assert_verdict_fits_rank(report)
            expected = ((d - 1) * (a - 1), (d - 1) * (b - 1))
            assert report.witness.signature in (expected, expected[::-1]), (a, b)
            # Q = B Omega(mu) B^T on the reduced frame B, cut as in criterion 10
            mu = np.linalg.svd(constraint_jacobian(linkage, config))[0][:, -1]
            basis = tangent_frame(linkage, config).basis
            eigs = np.linalg.eigvalsh(basis @ stress_matrix(linkage, mu) @ basis.T)
            nullity = int(np.sum(np.abs(eigs) <= max(1e-6 * np.max(np.abs(eigs)), 1e-9)))
            assert report.witness.euclidean_factor == 0 == nullity

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    @pytest.mark.parametrize("d", [2, 3])
    def test_closing_length_off_the_wall_is_smooth(self, d, n):
        # no signed sum of the lengths vanishes, so no pose is singular; the
        # space is empty when the closing link outgrows all the others
        rng = np.random.default_rng([d, n])
        poses = 0
        for _ in range(2):
            linkage, _, _ = collinear_polygon(rng, n, d)
            for factor in (1.0 - 1e-3, 1.0 + 1e-3):
                lengths = linkage.lengths[:-1] + (linkage.lengths[-1] * factor,)
                moved = dataclasses.replace(linkage, lengths=lengths)
                try:
                    sampled = sample_cspace(moved, 10, seed=0)
                except NoFeasiblePoint:
                    continue
                for pose in sampled:
                    report = classify_configuration(moved, pose)
                    assert report.verdict is Verdict.SMOOTH
                    assert_verdict_fits_rank(report)
                poses += len(sampled)
        assert poses > 0


class TestLinesConcurrent:
    def test_three_lines_through_origin(self):
        lines = [
            (np.array([0.0, 0.0]), np.array([1.0, 0.0])),
            (np.array([0.0, 0.0]), np.array([0.0, 1.0])),
            (np.array([1.0, 1.0]), np.array([1.0, 1.0])),
        ]
        assert lines_concurrent(lines)

    def test_parallel_pair_fails(self):
        lines = [
            (np.array([0.0, 0.0]), np.array([1.0, 0.0])),
            (np.array([0.0, 1.0]), np.array([1.0, 0.0])),
            (np.array([0.0, 0.0]), np.array([0.0, 1.0])),
        ]
        assert not lines_concurrent(lines)

    def test_generic_triangle_fails(self):
        lines = [
            (np.array([0.0, 0.0]), np.array([1.0, 0.0])),
            (np.array([0.0, 1.0]), np.array([1.0, -1.0])),
            (np.array([-1.0, 0.0]), np.array([0.0, 1.0])),
        ]
        assert not lines_concurrent(lines)

    @pytest.mark.parametrize(
        "directions, message",
        [([(1.0, 0.0), (0.0, 1.0)], "exactly three lines"), ([(1.0, 0.0), (0.0, 0.0), (1.0, 1.0)], "nonzero")],
    )
    def test_malformed_lines_rejected(self, directions, message):
        lines = [(np.zeros(2), np.array(w)) for w in directions]
        with pytest.raises(InvalidSpec, match=message):
            lines_concurrent(lines)

    @pytest.mark.parametrize("slot", [0, 1], ids=["point", "direction"])
    @pytest.mark.parametrize(
        "value",
        [[1.0, 0.0, 0.0], [1.0], [np.nan, 1.0], "ab"],
        ids=["3-d", "1-element", "nan", "string"],
    )
    def test_point_or_direction_not_a_finite_2_vector_rejected(self, slot, value):
        # a 3-D line was compared partly in 3-D, a 1-element one raised IndexError
        # and a NaN direction met every line
        lines = [(np.zeros(2), np.array([1.0, 0.0])), (np.zeros(2), np.array([0.0, 1.0]))]
        line = [np.zeros(2), np.array([1.0, 1.0])]
        line[slot] = value
        with pytest.raises(InvalidSpec, match="^each line must be a finite 2-vector point and direction, got "):
            lines_concurrent(lines + [tuple(line)])

    def test_coincident_lines_pass(self):
        lines = [
            (np.array([0.0, 0.0]), np.array([1.0, 0.0])),
            (np.array([1.0, 0.0]), np.array([-1.0, 0.0])),
            (np.array([2.0, 0.0]), np.array([1.0, 0.0])),
        ]
        assert lines_concurrent(lines)


def _platform_pair(points, edges=demos._PLATFORM_EDGES, platform=demos._PLATFORM_SPEC):
    """A platform linkage with the lengths of ``points``, and that pose."""
    ldoc, cdoc = demos._docs(points, edges, base_link=0, effector=5, platform=platform)
    return build_linkage(ldoc), Configuration(cdoc["points"])


# lines 0 and 1 lie 1e-6 apart: too far apart for type (a), but one line to
# the concurrency test of type (b)
_NEAR_COINCIDENT = np.array(
    [(-3, 0), (3, 1e-6), (1, -3), (-1, 0), (1.5, 1e-6), (1, -1), (-2, 0), (2, 1e-6), (1, -2)], dtype=float
)


def _stretched_tri_platform_a() -> np.ndarray:
    """tri-platform-a with P3 moved onto the segment A3-B3: branch 2 is
    stretched too, a non-generic pose."""
    points = np.array(build_demo("tri-platform-a")[1]["points"])
    points[8] = points[2] + 0.55 * (points[5] - points[2])
    return points


def _ragged_platform_pose(bent: bool) -> tuple[Linkage, Configuration]:
    """tri-platform-b's triangles joined by branches of 1, 2 and 3 links.
    Straight, the three lines meet at the origin; bent, the third branch
    leaves its line at its first joint."""
    s = np.sqrt(0.5)
    a1, a2, a3 = np.array([0.0, -2.0]), np.array([3.0, 0.0]), np.array([-3.0 * s, 3.0 * s])
    b1, b2, b3 = np.array([0.0, 0.8]), np.array([-1.1, 0.0]), np.array([-0.9 * s, 0.9 * s])
    p2 = np.array([0.7, 0.0])
    # the third branch runs past its attachment and folds back onto it
    q1, q2 = a3 + 1.4 * np.array([s, -s]), a3 + 2.6 * np.array([s, -s])
    if bent:
        q1 = q1 + np.array([0.3, 0.3])
    points = np.array([a1, a2, a3, b1, b2, b3, p2, q1, q2])
    edges = demos._PLATFORM_EDGES[:6] + [(0, 3), (1, 6), (6, 4), (2, 7), (7, 8), (8, 5)]
    platform = {"branches": [[6], [7, 8], [9, 10, 11]], "fixed": [0, 1, 2], "moving": [3, 4, 5]}
    return _platform_pair(points, edges, platform)


class TestPlatform:
    def test_untagged_linkage_rejected(self, fb, fb_node):
        with pytest.raises(InvalidSpec, match="not tagged as a planar platform"):
            platform_conditions(fb, fb_node)

    # tri-platform-a's branches are edges (6, 7), (8, 9) and (10, 11), each
    # from a fixed vertex 0, 1, 2 through a middle vertex to a moving one
    @pytest.mark.parametrize(
        "branches, error, message",
        [
            ([[6, 7], [8, 9]], InvalidSpec, "three branches"),
            ([[7, 6], [8, 9], [10, 11]], InvalidSpec, "does not start at a fixed-platform vertex"),
            ([[6, 9], [8, 9], [10, 11]], InvalidSpec, "do not form a removable open chain"),
        ],
    )
    def test_malformed_branches_rejected(self, branches, error, message):
        doc, config_doc = build_demo("tri-platform-a")
        doc = {**doc, "platform": {**doc["platform"], "branches": branches}}
        with pytest.raises(error, match=message):
            platform_conditions(build_linkage(doc), Configuration(config_doc["points"]))

    def test_verify_needs_a_pose_meeting_a_condition(self):
        linkage, _ = _demo_pair("tri-platform-a")
        pose = sample_cspace(linkage, 1, seed=3)[0]
        assert platform_conditions(linkage, pose) is None
        with pytest.raises(InvalidSpec, match="requires a pose satisfying a condition"):
            verify_platform_singularity(linkage, pose)

    def test_type_a_detection(self):
        linkage, config = _demo_pair("tri-platform-a")
        cond = platform_conditions(linkage, config)
        assert cond is not None and cond.kind == "a"
        assert cond.branches == (0, 1)

    def test_type_b_detection(self):
        linkage, config = _demo_pair("tri-platform-b")
        cond = platform_conditions(linkage, config)
        assert cond is not None and cond.kind == "b"
        assert cond.point == pytest.approx([0.0, 0.0], abs=1e-8)

    def test_type_b_point_with_near_coincident_lines(self):
        # the point must come from lines that cross
        points = _NEAR_COINCIDENT
        linkage, config = _platform_pair(points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cond = platform_conditions(linkage, config)
        assert cond is not None and cond.kind == "b"
        assert np.all(np.isfinite(cond.point))
        point_tol = 1e-6 * (1.0 + linkage.length_scale)
        for anchor, tip in ((0, 3), (1, 4), (2, 5)):
            a, b = points[anchor], points[tip]
            w = (b - a) / np.linalg.norm(b - a)
            q = cond.point - a
            assert abs(q[0] * w[1] - q[1] * w[0]) <= point_tol

    def test_generic_pose_no_condition(self):
        linkage, _ = _demo_pair("tri-platform-a")
        for v in sample_cspace(linkage, 8, seed=3):
            if numerical_rank(constraint_jacobian(linkage, v)) == linkage.k:
                assert platform_conditions(linkage, v) is None

    def test_type_a_verifies_singular(self):
        linkage, config = _demo_pair("tri-platform-a")
        report = verify_platform_singularity(linkage, config)
        assert report.verdict is Verdict.GENERIC_SINGULAR
        assert report.rank < report.k

    def test_type_b_verifies_singular_with_critical_gradient(self):
        linkage, config = _demo_pair("tri-platform-b")
        report = verify_platform_singularity(linkage, config)
        assert report.verdict is Verdict.GENERIC_SINGULAR
        assert report.witness.verdict.gradient_norm < 1e-6
        assert any("gradient" in n for n in report.notes)

    def test_type_a_no_witness_in_remainder_is_indeterminate(self, monkeypatch):
        # an eigenvalue floor above every Hessian eigenvalue leaves the forced
        # stage transverse and no generic stage inside its remainder
        monkeypatch.setattr(decomp, "_EIG_FLOOR", 1e6)
        linkage, config = _demo_pair("tri-platform-a")
        report = verify_platform_singularity(linkage, config)
        assert report.verdict is Verdict.INDETERMINATE
        assert report.rank < report.k
        assert report.witness is None
        assert report.notes == (
            "platform condition (a) on branches (0, 1)",
            "no witness found inside the remainder",
        )

    def test_type_b_degenerate_stage_is_non_generic(self, monkeypatch):
        monkeypatch.setattr(decomp, "_EIG_FLOOR", 1e6)
        linkage, config = _demo_pair("tri-platform-b")
        report = verify_platform_singularity(linkage, config)
        assert report.verdict is Verdict.INDETERMINATE
        assert report.rank < report.k
        assert report.witness is None
        assert len(report.notes) == 3
        assert report.notes[0] == "platform condition (b) on branches (0, 1, 2)"
        assert report.notes[1].startswith("reduced work gradient norm at remainder: ")
        assert report.notes[2] == "non-generic: stage degenerate (degenerate_hessian)"

    def test_stretched_third_branch_is_indeterminate_from_both_entries(self):
        # an aligned outer chain does not lift the singularity, so the
        # platform verifier must not pass through it where
        # classify_configuration would not
        linkage, config = _platform_pair(_stretched_tri_platform_a())
        report = verify_platform_singularity(linkage, config)
        assert report.verdict is Verdict.INDETERMINATE
        assert report.witness is None
        assert report.notes == (
            "platform condition (a) on branches (0, 1)",
            "branch 2 is aligned: the witness search stops at it",
        )
        assert classify_configuration(linkage, config).verdict is Verdict.INDETERMINATE

    def test_branch_with_coincident_joints_is_not_aligned(self):
        # P3 on A3: branch 2 has a zero-length link, so it has no line and
        # the three-branch condition (b) no longer holds
        doc, config_doc = build_demo("tri-platform-b")
        linkage, points = build_linkage(doc), np.array(config_doc["points"])
        points[8] = points[2]
        assert platform_conditions(linkage, Configuration(points)) is None

    def test_branch_removal_is_looked_up_from_either_end(self):
        # a removal is keyed from its smaller endpoint; with the triangles'
        # roles swapped each branch is listed from its larger one
        linkage, _ = _demo_pair("tri-platform-a")
        plat = linkage.platform
        swapped = PlatformSpec(tuple(b[::-1] for b in plat.branches), plat.moving, plat.fixed)
        flipped = dataclasses.replace(linkage, platform=swapped)
        for i, branch in enumerate(plat.branches):
            removal = linkage.graph.chain_removals[branch]
            found, path = linkage._platform_branches[i]
            assert found is removal and path == removal.chain_vertices
            assert flipped._platform_branches[i] == (removal, removal.chain_vertices[::-1])

    def test_branch_that_is_not_an_open_chain_rejected(self):
        # an extra edge at P3, branch 2's middle joint, gives it degree
        # three: the screen rejects it as the verifier does
        points = np.array(build_demo("tri-platform-a")[1]["points"])
        linkage, config = _platform_pair(points, demos._PLATFORM_EDGES + [(8, 0)])
        message = "^platform branch 2's edges do not form a removable open chain$"
        for entry in (platform_conditions, verify_platform_singularity):
            with pytest.raises(InvalidSpec, match=message):
                entry(linkage, config)

    @pytest.mark.parametrize(
        "extra_edges, branches, message",
        [
            ([], [[6, 7], [9, 8], [10, 11]], "platform branch 1 does not start at a fixed-platform vertex"),
            ([], [[6, 7], [8, 9], [10, 7]], "platform branch 2's edges do not form a removable open chain"),
            ([(8, 0)], [[6, 7], [8, 9], [10, 11]], "platform branch 2's edges do not form a removable open chain"),
            ([], [[0], [8, 9], [10, 11]], "platform branch 0 does not end at a moving-platform vertex"),
        ],
        ids=["listed-from-moving-end", "not-a-path", "extra-edge-at-middle-joint", "ends-on-the-fixed-triangle"],
    )
    def test_screen_and_verifier_share_one_gate(self, extra_edges, branches, message):
        # tri-platform-a's pose meets condition (a) once its branches are well
        # formed; a branch 0 given as the fixed triangle's edge 0-1 was
        # accepted, and the screen tested that edge's line in its place
        points = np.array(build_demo("tri-platform-a")[1]["points"])
        platform = {**demos._PLATFORM_SPEC, "branches": branches}
        linkage, config = _platform_pair(points, demos._PLATFORM_EDGES + extra_edges, platform)
        for _ in range(2):
            for entry in (platform_conditions, verify_platform_singularity):
                with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
                    entry(linkage, config)

    def test_platform_classify_agrees(self):
        for name in ("tri-platform-a", "tri-platform-b"):
            linkage, config = _demo_pair(name)
            report = classify_configuration(linkage, config)
            assert report.verdict is Verdict.GENERIC_SINGULAR


def _assert_conditions_equal_reference(linkage, config):
    got = platform_conditions(linkage, config)
    want = reference_platform_conditions(linkage, config)
    if want is None:
        assert got is None
        return None
    assert (got.kind, got.branches) == (want.kind, want.branches)
    if want.point is None:
        assert got.point is None
    else:
        assert got.point.tobytes() == want.point.tobytes()
    return got.kind


class TestPlatformKernel:
    """platform_conditions decides all three branches in one stacked pass;
    the reference walks each branch and tests it on its own.  Kind, branches
    and meeting point must agree bit for bit."""

    @pytest.mark.parametrize("name", ["tri-platform-a", "tri-platform-b"])
    def test_demos_and_moved_demos(self, name):
        linkage_doc, config_doc = build_demo(name)
        rng = np.random.default_rng(7)
        k = len(linkage_doc["edges"])
        cases = [_demo_pair(name)]
        for angle, shift in ((0.0, (0.0, 0.0)), (0.7, (1.5, -2.0)), (2.9, (100.0, -40.0)), (4.4, (-3.0, 3.0))):
            for perm in (range(k), range(k)[::-1], rng.permutation(k).tolist()):
                cases.append(_moved(linkage_doc, config_doc, angle, shift, perm))
        kinds = [_assert_conditions_equal_reference(linkage, config) for linkage, config in cases]
        assert kinds[0] == name[-1]

    def test_sampled_full_rank_poses(self):
        linkage, _ = _demo_pair("tri-platform-a")
        poses = [
            v for v in sample_cspace(linkage, 200, seed=0)
            if numerical_rank(constraint_jacobian(linkage, v)) == linkage.k
        ]
        assert len(poses) > 100
        for pose in poses:
            _assert_conditions_equal_reference(linkage, pose)

    def test_crafted_poses(self):
        # P3 on A3, or 1e-13 from it along branch 2's line: a zero-length
        # link, which no edge length allows, so branch 2 has no line
        linkage_b, config_b = _demo_pair("tri-platform-b")
        kinds = [
            _assert_conditions_equal_reference(*_platform_pair(points))
            for points in (_NEAR_COINCIDENT, _stretched_tri_platform_a())
        ]
        for shift in (0.0, 1e-13):
            points = config_b.points.copy()
            points[8] = points[2] + shift * (points[5] - points[2])
            kinds.append(_assert_conditions_equal_reference(linkage_b, Configuration(points)))
        assert kinds == ["b", "a", None, None]

    @pytest.mark.parametrize("bent, kind", [(False, "b"), (True, None)])
    def test_ragged_platform(self, bent, kind):
        # branches of 1, 2 and 3 links go through the same kernel
        linkage, config = _ragged_platform_pose(bent)
        assert _assert_conditions_equal_reference(linkage, config) == kind
        if kind == "b":
            assert platform_conditions(linkage, config).point == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_branch_paths_are_walked_once_per_linkage(self, monkeypatch):
        # the branches are resolved once per linkage, for the screen and the verifier
        calls = []
        resolve = model.Linkage._platform_branches.func
        counted = functools.cached_property(lambda linkage: calls.append(linkage) or resolve(linkage))
        counted.__set_name__(model.Linkage, "_platform_branches")
        monkeypatch.setattr(model.Linkage, "_platform_branches", counted)
        linkage, config = _demo_pair("tri-platform-a")
        for pose in [config] + sample_cspace(linkage, 5, seed=1):
            platform_conditions(linkage, pose)
        verify_platform_singularity(linkage, config)
        assert calls == [linkage]
        platform_conditions(_demo_pair("tri-platform-a")[0], config)
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "branches, message",
        [
            ([[7, 6], [8, 9], [10, 11]], "does not start at a fixed-platform vertex"),
            ([[6, 9], [8, 9], [10, 11]], "do not form a removable open chain"),
        ],
    )
    def test_malformed_branch_raises_on_every_call(self, branches, message):
        doc, config_doc = build_demo("tri-platform-a")
        doc = {**doc, "platform": {**doc["platform"], "branches": branches}}
        linkage, config = build_linkage(doc), Configuration(config_doc["points"])
        for _ in range(2):
            with pytest.raises(InvalidSpec, match=message):
                platform_conditions(linkage, config)


def _braced_node(brace):
    """The four-bar node braced from its vertex 0 to its vertex 2 by a bent
    open chain through the points ``brace``.  The brace takes the lowest
    vertex and edge ids, so its removals are tried first and the whole brace
    becomes the witness's outer, non-aligned stage, and the four-bar's ids
    inside the remainder differ from its ids in the host."""
    m = len(brace)
    node = [(0.0, 0.0), (3.0, 0.0), (0.5, 0.0), (2.0, 0.0)]
    points = np.array(list(brace) + node)
    path = [m] + list(range(m)) + [m + 2]
    cycle = ((m, m + 1), (m + 1, m + 2), (m + 2, m + 3), (m + 3, m))
    edges = tuple(zip(path[:-1], path[1:])) + cycle
    lengths = tuple(float(np.linalg.norm(points[u] - points[v])) for u, v in edges)
    linkage = Linkage(MechanismType(len(points), edges), lengths, 2, m, m + 1, m + 2)
    return linkage, Configuration(points)


def _assert_well_formed(linkage, config, decomposition):
    """Each stage splits the previous remainder into an open chain and a new
    remainder, in the host's ids; the base is the last remainder."""
    host_vertices = set(range(linkage.n_vertices))
    host_edges = set(range(linkage.k))
    for stage in decomposition.stages:
        chain_edges, rem_edges = set(stage.chain_edges), set(stage.remainder_edges)
        assert chain_edges.isdisjoint(rem_edges)
        assert chain_edges | rem_edges == host_edges
        path = stage.chain_vertices
        assert len(set(path)) == len(path) == len(stage.chain_edges) + 1
        for u, v, e in zip(path[:-1], path[1:], stage.chain_edges):
            assert set(linkage.graph.edges[e]) == {u, v}
        for v in path[1:-1]:
            assert sum(v in linkage.graph.edges[e] for e in host_edges) == 2
        assert set(stage.remainder_vertices) == host_vertices - set(path[1:-1])
        try:
            aligned = is_aligned(config.points[list(path)]) is not None
        except DegenerateDirection:
            aligned = True
        assert stage.chain_aligned == aligned
        host_vertices, host_edges = set(stage.remainder_vertices), rem_edges
    if decomposition.stages:
        last = decomposition.stages[-1]
        assert decomposition.base_vertices == last.remainder_vertices
        assert decomposition.base_edges == last.remainder_edges
    else:
        assert decomposition.base_vertices == tuple(range(linkage.n_vertices))
        assert decomposition.base_edges == tuple(range(linkage.k))


def _assert_witness_well_formed(linkage, config, witness):
    stages = witness.decomposition.stages
    _assert_well_formed(linkage, config, witness.decomposition)
    d = linkage.ambient_dim
    assert witness.stage_index == len(stages) - 1
    assert witness.euclidean_factor == sum((d - 1) * len(s.chain_edges) - d for s in stages[:-1])
    assert witness.verdict.kind is StageVerdictKind.GENERICALLY_NON_TRANSVERSE
    assert witness.signature == witness.verdict.signature


class TestDecompositionWellFormed:
    @pytest.mark.parametrize(
        "name", ["four-bar-singular", "four-bar-regular", "five-bar", "egsing", "tri-platform-b"]
    )
    def test_classify_demo(self, name):
        linkage, config = _demo_pair(name)
        report = classify_configuration(linkage, config)
        if report.certificate is not None:
            _assert_well_formed(linkage, config, report.certificate)
        if report.witness is not None:
            _assert_witness_well_formed(linkage, config, report.witness)
            assert not any(s.chain_aligned for s in report.witness.decomposition.stages[:-1])

    @pytest.mark.parametrize("brace, factor", [([(0.25, 1.0)], 0), ([(0.2, 1.0), (0.6, 1.2)], 1)])
    def test_classify_nested_witness(self, brace, factor):
        linkage, config = _braced_node(brace)
        witness = classify_configuration(linkage, config).witness
        _assert_witness_well_formed(linkage, config, witness)
        outer, inner = witness.decomposition.stages
        assert outer.chain_edges == tuple(range(len(brace) + 1)) and not outer.chain_aligned
        assert inner.chain_aligned
        assert witness.euclidean_factor == factor

    @pytest.mark.parametrize("brace", [[(0.25, 1.0)], [(0.2, 1.0), (0.6, 1.2)]])
    def test_search_depth_defaults_to_tols(self, brace):
        linkage, config = _braced_node(brace)
        assert len(find_nontransversive_witness(linkage, config).decomposition.stages) == 2
        shallow = find_nontransversive_witness(linkage, config, tols=Tolerances(depth=1))
        assert shallow is None or len(shallow.decomposition.stages) == 1

    @pytest.mark.parametrize("name, n_stages", [("tri-platform-a", 2), ("tri-platform-b", 1)])
    def test_verify_platform_demo(self, name, n_stages):
        linkage, config = _demo_pair(name)
        witness = verify_platform_singularity(linkage, config).witness
        _assert_witness_well_formed(linkage, config, witness)
        assert len(witness.decomposition.stages) == n_stages
        assert not any(s.chain_aligned for s in witness.decomposition.stages[:-1])
