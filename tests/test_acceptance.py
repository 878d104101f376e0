"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  Criterion 5 concerns the egsing configuration p.  With vertices 0
and 1 pinned and theta the angle of link 0-3, the fiber near p is built in
closed form from circle intersections: there is none for theta > 0 (the
stretched chain 4-5-1 cannot reach) and there are four configurations for
each small theta < 0.  They form two smooth arcs through p with a common
tangent, a tacnode.  So p is singular but not a generic crossing, and the
sound verdict is Indeterminate, with neither a smoothness certificate nor a
nontransversive witness.
"""

import json
from collections import Counter
from typing import Optional

import numpy as np
import pytest

from linkctl.chains import chord_signature, is_aligned, workspace_interval
from linkctl.classify import Verdict, classify_configuration, platform_conditions
from linkctl.cli import main
from linkctl.decomp import Tolerances, find_nontransversive_witness
from linkctl.model import (
    Configuration,
    build_linkage,
    constraint_jacobian,
    constraint_residual,
)
from linkctl.numeric import (
    local_branch_count,
    numerical_rank,
    reduced_work_data,
    sample_cspace,
    tangent_frame,
    trace_curve,
    work_image,
)
from linkctl.classify import verify_platform_singularity
from linkctl.demos import build_demo

from conftest import (
    aligned_closed_chain,
    assert_verdict_fits_rank,
    blaschke_determinant,
    chain_linkage,
    egsing_linkage,
    four_bar,
    four_bar_node,
    octahedral_linkage,
    random_linkage,
    random_open_chain,
    reach_oracle,
    self_stressed_linkage,
    stress_matrix,
)


def _report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")


def _fd_jacobian(linkage, config):
    flat = config.flat
    h = 1e-6 * (1.0 + np.max(np.abs(flat)))
    from linkctl.model import squared_length_map

    cols = []
    for j in range(flat.size):
        e = np.zeros_like(flat)
        e[j] = h
        fp = squared_length_map(linkage, Configuration.from_flat(flat + e, config.dim))
        fm = squared_length_map(linkage, Configuration.from_flat(flat - e, config.dim))
        cols.append((fp - fm) / (2 * h))
    return np.stack(cols, axis=1)


def test_criterion_1_jacobian_oracle():
    rng = np.random.default_rng(101)
    for _ in range(200):
        linkage, config = random_linkage(rng, max_vertices=8)
        jac = constraint_jacobian(linkage, config)
        fd = _fd_jacobian(linkage, config)
        rel = np.linalg.norm(jac - fd) / max(np.linalg.norm(jac), 1e-12)
        assert rel < 1e-6
    _report("1 jacobian-vs-fd", True)


def test_criterion_2_work_image_dichotomy():
    rng = np.random.default_rng(102)
    n_seen = 0
    n_aligned = 0
    while n_seen < 500:
        k = int(rng.integers(1, 7))
        d = int(rng.choice([2, 3]))
        if rng.random() < 0.3:
            # constructed aligned configuration with a random sign pattern
            lengths = rng.uniform(0.5, 2.0, k)
            signs = rng.choice([-1.0, 1.0], k)
            w = rng.normal(size=d)
            w /= np.linalg.norm(w)
            pts = np.zeros((k + 1, d))
            for i in range(k):
                pts[i + 1] = pts[i] + signs[i] * lengths[i] * w
        else:
            pts = random_open_chain(rng, k, d)
        lengths = tuple(np.linalg.norm(np.diff(pts, axis=0), axis=1))
        image = work_image(chain_linkage(lengths, d), Configuration(pts))
        w_dir = is_aligned(pts)
        if w_dir is None:
            assert k >= 2
            assert image.dim == d
        else:
            n_aligned += 1
            assert image.dim == d - 1
            assert np.max(np.abs(image.vectors @ w_dir)) < 1e-8
        n_seen += 1
    assert n_aligned >= 50
    _report("2 work-image-dichotomy", True)


def test_criterion_3_morse_index_oracle():
    rng = np.random.default_rng(103)
    agreements = 0
    for trial in range(100):
        d = 2 if trial % 3 else 3
        lengths, pts, _ = aligned_closed_chain(rng, d=d)
        # the Morse index at the closed chain: the negative part on its fixed links
        combinatorial = chord_signature(pts)[1]
        linkage = chain_linkage(lengths[:-1], d)
        data = reduced_work_data(linkage, tangent_frame(linkage, Configuration(pts)))
        eigs = np.linalg.eigvalsh(data.hessian)
        threshold = 1e-6 * max(np.max(np.abs(eigs)), 1e-12)
        negatives = int(np.sum(eigs < -threshold))
        assert combinatorial == negatives, (lengths, eigs)
        agreements += 1
    assert agreements == 100
    _report("3 morse-index-vs-fd-hessian", True)


def test_criterion_4_four_bar_node():
    linkage = four_bar()
    node = four_bar_node()
    assert numerical_rank(constraint_jacobian(linkage, node)) == 3
    report = classify_configuration(linkage, node)
    assert report.verdict is Verdict.GENERIC_SINGULAR
    assert report.witness.signature == (1, 1)
    for radius in (1e-2, 5e-3):
        branches = local_branch_count(linkage, node, radius=radius, n_samples=48, seed=0)
        assert branches.branch_count == 4
        assert branches.stable
    _report("4 four-bar-node", True)


def test_criterion_5a_rank_deficient():
    linkage, config = egsing_linkage()
    assert numerical_rank(constraint_jacobian(linkage, config)) < linkage.k
    _report("5a smoothing-example-rank-drop", True)


def test_criterion_5b_witness_absent():
    linkage, config = egsing_linkage()
    assert find_nontransversive_witness(linkage, config, tols=Tolerances(depth=4)) is None
    _report("5b smoothing-example-witness-absent", True)


def _circle_intersections(c1, r1, c2, r2):
    """The points at distance r1 from c1 and r2 from c2, keyed by the side (+1/-1)."""
    axis = c2 - c1
    dist = float(np.linalg.norm(axis))
    along = (dist**2 + r1**2 - r2**2) / (2.0 * dist)
    half_chord_sq = r1**2 - along**2
    if half_chord_sq < 0.0:
        return {}
    u = axis / dist
    normal = np.array([-u[1], u[0]])
    foot = c1 + along * u
    return {side: foot + side * np.sqrt(half_chord_sq) * normal for side in (1, -1)}


def _egsing_fiber(linkage, config, theta):
    """Configurations near p with v0, v1 pinned and link 0-3 at angle theta.

    Keyed by (side of v2, side of v5).  v4's mirror image across link 0-3 is
    a far-away part of the fiber and is dropped by the distance cut.
    """
    _, l12, l23, l30, l04, l34, l45, l51 = linkage.lengths
    v0, v1 = config.points[0], config.points[1]
    v3 = v0 + l30 * np.array([np.cos(theta), np.sin(theta)])
    fiber = {}
    for v4 in _circle_intersections(v0, l04, v3, l34).values():
        for s2, v2 in _circle_intersections(v1, l12, v3, l23).items():
            for s5, v5 in _circle_intersections(v4, l45, v1, l51).items():
                q = Configuration(np.array([v0, v1, v2, v3, v4, v5]))
                if np.linalg.norm(q.flat - config.flat) < 0.5:
                    fiber[(s2, s5)] = q
    return fiber


def test_criterion_5c_smooth_via_five_chain_certificate():
    # The egsing configuration p is a tacnode, so no Smooth verdict and no
    # certificate (on the 5-chain base {1,2,3,4,5} or any other) is sound.
    # (a) Closed-form fiber over theta, the angle of link 0-3: the stretched
    # chain 4-5-1 allows only theta <= 0, where v5 leaves its aligned
    # position to either side by ~sqrt|theta| and the four-bar core keeps
    # both branches of its node (v2 to either side, by ~|theta|).  The two
    # configurations with v5 on the same side are ~|theta| apart at distance
    # ~sqrt|theta| from p: two half-branches leaving p tangent to each other.
    linkage, config = egsing_linkage()
    for theta in (1e-3, 1e-5):
        assert _egsing_fiber(linkage, config, theta) == {}
    scaled_dists, tangent_ratios = [], []
    for theta in (-1e-3, -1e-4, -1e-5, -1e-6):
        fiber = _egsing_fiber(linkage, config, theta)
        assert len(fiber) == 4
        for q in fiber.values():
            assert np.max(np.abs(constraint_residual(linkage, q))) <= 1e-12
        dist = {key: float(np.linalg.norm(q.flat - config.flat)) for key, q in fiber.items()}
        scaled_dists.extend(d / np.sqrt(-theta) for d in dist.values())
        ratios = []
        for side in (1, -1):
            same_v5 = np.linalg.norm(fiber[(1, side)].flat - fiber[(-1, side)].flat)
            ratios.append(same_v5 / min(dist[(1, side)], dist[(-1, side)]))
            # v5 on opposite sides: half-branches leaving p in opposite directions
            same_v2 = np.linalg.norm(fiber[(side, 1)].flat - fiber[(side, -1)].flat)
            assert same_v2 / max(dist[(side, 1)], dist[(side, -1)]) > 1.9
        tangent_ratios.append(max(ratios))
    # distance to p ~ c * sqrt|theta|, one c for all four half-branches
    assert max(scaled_dists) / min(scaled_dists) < 1.1
    # separation/distance of the same-v5 pairs falls with |theta| (like sqrt|theta|)
    for wider, narrower in zip(tangent_ratios, tangent_ratios[1:]):
        assert narrower < 0.5 * wider
    assert tangent_ratios[-1] < 1e-2

    # (b) The classifier must not call p Smooth, nor claim a generic crossing.
    report = classify_configuration(linkage, config, tols=Tolerances(depth=5))
    ok = (
        report.verdict is Verdict.INDETERMINATE
        and report.certificate is None
        and report.witness is None
        and (report.rank, report.k) == (7, 8)
    )
    _report("5c smoothing-example-certificate", ok)
    assert report.verdict is Verdict.INDETERMINATE
    assert report.certificate is None
    assert report.witness is None
    assert (report.rank, report.k) == (7, 8)


def test_criterion_6_platform_conditions():
    for name in ("tri-platform-a", "tri-platform-b"):
        linkage_doc, config_doc = build_demo(name)
        linkage = build_linkage(linkage_doc)
        config = Configuration(config_doc["points"])
        report = verify_platform_singularity(linkage, config)
        assert report.verdict is Verdict.GENERIC_SINGULAR
        assert_verdict_fits_rank(report)
        full = classify_configuration(linkage, config)
        assert full.verdict is Verdict.GENERIC_SINGULAR
        assert_verdict_fits_rank(full)
        if name == "tri-platform-b":
            assert report.witness.verdict.gradient_norm < 1e-6

    linkage_doc, _ = build_demo("tri-platform-a")
    linkage = build_linkage(linkage_doc)
    false_positives = 0
    smooth_poses = 0
    seed = 0
    while smooth_poses < 1000:
        for pose in sample_cspace(linkage, 200, seed=seed):
            if numerical_rank(constraint_jacobian(linkage, pose)) != linkage.k:
                continue
            smooth_poses += 1
            if platform_conditions(linkage, pose) is not None:
                false_positives += 1
            if smooth_poses >= 1000:
                break
        seed += 1
    assert false_positives == 0
    _report("6 platform-conditions", True)


def _octahedral_platform(theta: float) -> np.ndarray:
    """An octahedral platform's points: the base triangle at radius 1 in
    z = 0, the top one at radius 0.6 in z = 0.8, top vertex 3 at the angle
    60 degrees + theta, between base vertices 0 and 1."""
    base = np.radians([0.0, 120.0, 240.0])
    top = np.radians([60.0, 180.0, 300.0]) + theta
    return np.vstack(
        [
            np.column_stack([np.cos(base), np.sin(base), np.zeros(3)]),
            np.column_stack([0.6 * np.cos(top), 0.6 * np.sin(top), np.full(3, 0.8)]),
        ]
    )


def test_criterion_6_octahedral_platform_twists():
    # the rank drops below 12 exactly where Blaschke's determinant vanishes,
    # at the twists of +-90 degrees, and both are generic singularities whose
    # stress form Q on the 1-dimensional reduced frame is nondegenerate
    singular = []
    for degrees in range(-180, 185, 5):
        points = _octahedral_platform(np.radians(degrees))
        linkage, config = octahedral_linkage(points)
        rank = numerical_rank(constraint_jacobian(linkage, config))
        assert (rank < 12) == (abs(blaschke_determinant(points)) < 1e-9), degrees
        if rank < 12:
            singular.append(degrees)
    assert singular == [-90, 90]
    for degrees in singular:
        linkage, config = octahedral_linkage(_octahedral_platform(np.radians(degrees)))
        report = classify_configuration(linkage, config)
        assert (report.verdict, report.rank) == (Verdict.GENERIC_SINGULAR, 11)
        assert (report.witness.signature, report.witness.euclidean_factor) == ((1, 0), 0)
        jac = constraint_jacobian(linkage, config)
        mu = np.linalg.svd(jac)[0][:, -1]
        basis = tangent_frame(linkage, config).basis
        q = basis @ stress_matrix(linkage, mu) @ basis.T
        assert q.shape == (1, 1) and abs(q[0, 0]) == pytest.approx(1.026, abs=1e-3)
    linkage, config = octahedral_linkage(_octahedral_platform(0.3))
    assert classify_configuration(linkage, config).verdict is Verdict.SMOOTH
    _report("6 octahedral platform twists", True)


def _blaschke_root(points: np.ndarray, line: np.ndarray) -> Optional[float]:
    """The first s in [-1, 1], on a grid of 40 steps refined by bisection,
    where Blaschke's determinant vanishes with vertex 5 at points[5] + s*line;
    None without a sign change."""

    def det(s: float) -> float:
        moved = points.copy()
        moved[5] = points[5] + s * line
        return blaschke_determinant(moved)

    grid = np.linspace(-1.0, 1.0, 41)
    for a, b in zip(grid[:-1], grid[1:]):
        fa = det(a)
        if fa * det(b) <= 0.0:
            for _ in range(60):
                mid = 0.5 * (a + b)
                if fa * det(mid) <= 0.0:
                    b = mid
                else:
                    a, fa = mid, det(mid)
            return 0.5 * (a + b)
    return None


def test_criterion_6_random_octahedra_on_blaschke_roots():
    # a random octahedron with vertex 5 moved along a random line onto a root
    # of Blaschke's determinant is a generic singularity of corank 1
    rng = np.random.default_rng(23)
    signatures = Counter()
    for _ in range(100):
        if sum(signatures.values()) == 20:
            break
        points = rng.normal(size=(6, 3))
        line = rng.normal(size=3)
        root = _blaschke_root(points, line / np.linalg.norm(line))
        if root is None:
            continue
        points[5] += root * line / np.linalg.norm(line)
        linkage, config = octahedral_linkage(points)
        report = classify_configuration(linkage, config)
        assert (report.verdict, report.rank) == (Verdict.GENERIC_SINGULAR, 11)
        assert report.witness.euclidean_factor == 0
        signatures[report.witness.signature] += 1
    assert sum(signatures.values()) == 20 and set(signatures) == {(1, 0), (0, 1)}, signatures
    _report("6 random octahedra on Blaschke roots", True)


def _generic_platform():
    """tri-platform-b with leg A1-P1 (edge 6) made 10% longer: lengths with
    no forced alignment, so its configuration space has smooth 3-DOF poses."""
    linkage_doc, _ = build_demo("tri-platform-b")
    linkage_doc = json.loads(json.dumps(linkage_doc))
    linkage_doc["edges"][6]["length"] *= 1.1
    return build_linkage(linkage_doc)


def test_criterion_6_platform_conditions_on_smooth_poses():
    linkage = _generic_platform()
    poses = []
    seed = 0
    while len(poses) < 1000:
        poses += sample_cspace(linkage, 200, seed=seed)
        seed += 1
    for pose in poses[:1000]:
        sigma = np.linalg.svd(constraint_jacobian(linkage, pose), compute_uv=False)
        assert sigma[linkage.k - 1] / sigma[0] >= 1e-4
        assert platform_conditions(linkage, pose) is None
    _report("6 platform-conditions on smooth poses", True)


def test_criterion_7_workspace_intervals():
    assert workspace_interval((2, 1)) == (1.0, 3.0)
    assert workspace_interval((1, 1, 1)) == (0.0, 3.0)
    rng = np.random.default_rng(107)
    for case in range(50):
        k = int(rng.integers(1, 7))
        lengths = rng.uniform(0.3, 2.5, k)
        m, big = workspace_interval(lengths)
        lo, hi, _ = reach_oracle(lengths, d=2, n_samples=20000, seed=case)
        assert m - 1e-2 <= lo
        assert hi <= big + 1e-12
    _report("7 workspace-intervals", True)


def test_criterion_8_continuation():
    regular = four_bar((2.0, 1.2, 1.7, 0.9))
    start = sample_cspace(regular, 1, seed=11)[0]
    trace = trace_curve(regular, start, step=0.05, max_steps=1500)
    assert trace.closed and trace.stop_reason == "loop_closed"
    worst = max(np.max(np.abs(constraint_residual(regular, p))) for p in trace.points)
    assert worst < 1e-9
    flats = np.array([p.flat for p in trace.points])
    secants = np.diff(flats, axis=0)
    assert np.all(np.einsum("ij,ij->i", secants[:-1], secants[1:]) > 0)

    singular = four_bar()
    from linkctl.numeric import _gauge_fix, project_to_cspace

    node = _gauge_fix(singular, four_bar_node())
    frame = tangent_frame(singular, node)
    start_flat = node.flat + 5e-4 * frame.basis[0]
    near = project_to_cspace(singular, Configuration.from_flat(start_flat, 2), tol=1e-12)
    toward_node = node.flat - near.flat
    result = trace_curve(singular, near, step=1e-4, max_steps=60, direction=toward_node)
    assert result.stop_reason in ("tangent_jump", "stalled_at_singularity")
    assert np.linalg.norm(result.points[-1].flat - node.flat) < 1e-3
    _report("8 continuation", True)


def test_criterion_9_determinism(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("four-bar-singular",):
        linkage_doc, config_doc = build_demo(name)
        (tmp_path / "l.json").write_text(json.dumps(linkage_doc))
        (tmp_path / "c.json").write_text(json.dumps(config_doc))

    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out.encode()

    pairs = [
        ("analyze", "l.json", "c.json"),
        ("sample", "l.json", "-n", "8", "--seed", "5"),
        ("branches", "l.json", "c.json", "--radius", "0.01", "--seed", "2"),
    ]
    for argv in pairs:
        code1, out1 = run(*argv)
        code2, out2 = run(*argv)
        assert code1 == code2
        assert out1 == out2
    _report("9 cli-determinism", True)


def test_criterion_10_generic_singularities():
    # The paper's genericity claim, in its sharp form: at a self-stressed
    # configuration of corank 1 whose stress form Q = B Omega(mu) B^T on the
    # reduced tangent frame B is nondegenerate, the witness search finds a
    # witness whose signature is Q's inertia, up to the order of its parts.
    # classify_configuration reports that witness, and its verdict, like
    # every verdict, is Smooth exactly at full rank.
    # A pendant vertex moves freely, so Q vanishes along its motion: every
    # sample inside the theorem has minimum degree 2.
    inside = {2: 0, 3: 0}
    outside = {2: Counter(), 3: Counter()}
    euclidean = Counter()
    for d in (2, 3):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            for _ in range(15):
                sample = self_stressed_linkage(rng, d)
                if sample is None:
                    continue
                linkage, config = sample
                jac = constraint_jacobian(linkage, config)
                if linkage.k - numerical_rank(jac) != 1:
                    outside[d]["corank >= 2"] += 1
                    continue
                mu = np.linalg.svd(jac)[0][:, -1]
                basis = tangent_frame(linkage, config).basis
                eigs = np.linalg.eigvalsh(basis @ stress_matrix(linkage, mu) @ basis.T)
                cut = max(1e-6 * np.max(np.abs(eigs), initial=0.0), 1e-9)
                if not np.all(np.abs(eigs) > cut):
                    outside[d]["degenerate Q"] += 1
                    continue
                inertia = (int(np.sum(eigs > cut)), int(np.sum(eigs < -cut)))
                assert min(linkage.graph.degree(v) for v in range(linkage.n_vertices)) >= 2
                report = classify_configuration(linkage, config)
                assert_verdict_fits_rank(report)
                witness = report.witness
                assert witness is not None, (d, seed)
                assert witness.signature in (inertia, inertia[::-1]), (d, seed, witness.signature, inertia)
                inside[d] += 1
                euclidean[witness.euclidean_factor] += 1
    assert inside[2] >= 20 and inside[3] >= 20, inside
    print(f"criterion 10: samples inside the theorem by dimension {inside}, their Euclidean factors "
          f"{dict(euclidean)}; outside it, d = 2: {dict(outside[2])}, d = 3: {dict(outside[3])}")
    _report("10 generic-singularities", True)
