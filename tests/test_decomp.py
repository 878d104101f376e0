from dataclasses import fields

import numpy as np
import pytest

from linkctl.decomp import (
    StageVerdictKind,
    Tolerances,
    chain_mechanism,
    enumerate_chain_removals,
    find_nontransversive_witness,
    find_smoothness_certificate,
    remainder_mechanism,
    stage_classify,
    transversality_check,
)
from linkctl.chains import ChainKind, ChainSpec, is_aligned
from linkctl.errors import (
    CoincidentEndpoints,
    DegenerateDirection,
    DimensionMismatch,
    InvalidSpec,
    MismatchedEffector,
    OffConstraint,
)
from linkctl.model import (
    Configuration,
    Linkage,
    MechanismType,
    SubspaceBasis,
    constraint_residual,
)
from linkctl.numeric import sample_cspace

from linkctl.demos import DEMO_NAMES, build_demo
from linkctl.model import build_linkage

from conftest import (
    egsing_linkage,
    four_bar,
    four_bar_node,
    random_linkage,
    reference_enumerate_chain_removals,
    triangle,
)


class TestEnumerateRemovals:
    def test_four_cycle(self):
        removals = enumerate_chain_removals(four_bar().graph)
        chains = {r.chain_edges for r in removals}
        # each single edge qualifies
        for i in range(4):
            assert (i,) in chains
        # each 2-edge path through a degree-2 vertex qualifies
        assert any(set(c) == {0, 1} for c in chains)
        assert any(set(c) == {2, 3} for c in chains)
        # 3-edge paths leave a single-edge remainder, still connected
        assert any(len(c) == 3 for c in chains)
        assert len(removals) == 12

    def test_lexicographic_order(self):
        removals = enumerate_chain_removals(four_bar().graph)
        keys = [r.chain_edges for r in removals]
        assert keys == sorted(keys)

    def test_interior_degree_two(self):
        for removal in enumerate_chain_removals(four_bar().graph):
            for v in removal.interior:
                assert four_bar().graph.degree(v) == 2

    def test_triangle_contains_single_edges(self):
        removals = enumerate_chain_removals(triangle().graph)
        singles = [r for r in removals if len(r.chain_edges) == 1]
        assert len(singles) == 3

    def test_pendant_edge_not_removable(self):
        # removing the pendant edge would isolate its leaf vertex
        graph = MechanismType(4, ((0, 1), (1, 2), (2, 0), (2, 3)))
        removals = enumerate_chain_removals(graph)
        assert all(3 not in r.chain_edges for r in removals)

    def test_egsing_two_chain_becomes_removable_after_spoke_removal(self):
        linkage, _ = egsing_linkage()
        # in the full mechanism the path 3-0-1 has an interior vertex of
        # degree three, so it is not removable
        removals = enumerate_chain_removals(linkage.graph)
        assert all(set(r.chain_vertices) != {3, 0, 1} or len(r.chain_vertices) != 3
                   for r in removals)
        # after deleting the spoke edge 4 (vertex 0 - vertex 4) it is
        seven = MechanismType(6, tuple(e for i, e in enumerate(linkage.graph.edges) if i != 4))
        chains = {r.chain_vertices for r in enumerate_chain_removals(seven)}
        assert (1, 0, 3) in chains or (3, 0, 1) in chains

    @pytest.mark.parametrize("name", DEMO_NAMES)
    def test_matches_reference_on_demos(self, name):
        graph = build_linkage(build_demo(name)[0]).graph
        assert enumerate_chain_removals(graph) == reference_enumerate_chain_removals(graph)

    def test_matches_reference_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            graph = random_linkage(rng, max_vertices=9)[0].graph
            assert enumerate_chain_removals(graph) == reference_enumerate_chain_removals(graph)

    def test_adjacency_and_walk(self):
        graph = four_bar().graph  # edges (0,1), (1,2), (2,3), (3,0)
        assert graph.adjacency == (((1, 0), (3, 3)), ((0, 0), (2, 1)), ((1, 1), (3, 2)), ((2, 2), (0, 3)))
        assert graph.reachable(0) == {0, 1, 2, 3}
        assert graph.reachable(0, {0, 3}) == {0}
        assert graph.reachable(1, {1, 3}) == {0, 1}
        assert [graph.degree(v) for v in range(4)] == [2, 2, 2, 2]


class TestTransversalityCheck:
    def test_complementary_lines_span(self):
        e1 = SubspaceBasis(2, np.array([[1.0, 0.0]]))
        e2 = SubspaceBasis(2, np.array([[0.0, 1.0]]))
        assert transversality_check(e1, e2, 2)

    def test_equal_lines_fail(self):
        e2 = SubspaceBasis(2, np.array([[0.0, 1.0]]))
        assert not transversality_check(e2, e2, 2)

    def test_full_image_absorbs_everything(self):
        full = SubspaceBasis(2, np.eye(2))
        empty = SubspaceBasis(2, np.zeros((0, 2)))
        assert transversality_check(full, empty, 2)

    def test_dimension_mismatch(self):
        a = SubspaceBasis(2, np.array([[1.0, 0.0]]))
        b = SubspaceBasis(3, np.array([[1.0, 0.0, 0.0]]))
        with pytest.raises(DimensionMismatch):
            transversality_check(a, b, 2)

    def test_two_aligned_chains_share_an_image(self):
        # both chains aligned along e1: each image is the vertical line
        from linkctl.chains import ChainKind, ChainSpec, chain_work_image

        spec = ChainSpec(ChainKind.OPEN, (2.0, 1.5))
        img_a = chain_work_image(spec, np.array([[0.0, 0], [2, 0], [3.5, 0]]))
        img_b = chain_work_image(spec, np.array([[0.0, 0], [2, 0], [0.5, 0]]))
        assert not transversality_check(img_a, img_b, 2)


def _split(linkage, config, edge_set):
    removal = next(
        r for r in enumerate_chain_removals(linkage.graph) if set(r.chain_edges) == edge_set
    )
    remainder = remainder_mechanism(linkage, removal)
    chain = chain_mechanism(linkage, removal)
    return stage_classify(
        remainder.linkage, chain.linkage, remainder.restrict(config), chain.restrict(config)
    )


class TestStageClassify:
    def test_four_bar_two_two_split_at_node(self):
        verdict = _split(four_bar(), four_bar_node(), {2, 3})
        assert verdict.kind is StageVerdictKind.GENERICALLY_NON_TRANSVERSE
        assert verdict.signature == (1, 1)
        assert verdict.gradient_norm < 1e-10

    def test_four_bar_split_generic_is_transverse(self):
        v = sample_cspace(four_bar(), 1, seed=5)[0]
        verdict = _split(four_bar(), v, {2, 3})
        assert verdict.kind is StageVerdictKind.TRANSVERSE

    def test_rhombus_coincident_endpoints_degenerate(self):
        rhombus = Linkage(MechanismType(4, ((0, 1), (1, 2), (2, 3), (3, 0))), (1, 1, 1, 1), 2)
        half_folded = Configuration([(0, 0), (1, 0), (0, 0), (1, 0)])
        assert np.max(np.abs(constraint_residual(rhombus, half_folded))) < 1e-12
        verdict = _split(rhombus, half_folded, {2, 3})
        assert verdict.kind is StageVerdictKind.DEGENERATE_NON_TRANSVERSE
        assert "coincident_endpoints" in verdict.reasons

    def test_mismatched_effector(self):
        linkage = four_bar()
        removal = next(
            r
            for r in enumerate_chain_removals(linkage.graph)
            if set(r.chain_edges) == {2, 3}
        )
        remainder = remainder_mechanism(linkage, removal)
        chain = chain_mechanism(linkage, removal)
        v = four_bar_node()
        v_chain = Configuration(chain.restrict(v).points * 1.1)
        with pytest.raises(MismatchedEffector):
            stage_classify(remainder.linkage, chain.linkage, remainder.restrict(v), v_chain)


def _open_chain(points):
    points = np.asarray(points, dtype=float)
    lengths = np.linalg.norm(np.diff(points, axis=0), axis=1)
    return ChainSpec(ChainKind.OPEN, tuple(lengths)).to_linkage(), Configuration(points)


class TestChainAligned:
    def test_first_level_stages_of_the_demos(self):
        kinds = set()
        for name in DEMO_NAMES:
            linkage_doc, config_doc = build_demo(name)
            linkage, config = build_linkage(linkage_doc), Configuration(config_doc["points"])
            for removal in enumerate_chain_removals(linkage.graph):
                remainder = remainder_mechanism(linkage, removal)
                chain = chain_mechanism(linkage, removal)
                v_chain = chain.restrict(config)
                try:
                    verdict = stage_classify(
                        remainder.linkage, chain.linkage, remainder.restrict(config), v_chain
                    )
                except (CoincidentEndpoints, OffConstraint):
                    continue
                try:
                    aligned = is_aligned(v_chain) is not None
                except DegenerateDirection:
                    aligned = True
                assert verdict.chain_aligned is aligned, (name, removal.chain_edges)
                kinds.add((verdict.kind, aligned))
        # transverse stages with aligned and with non-aligned chains are both covered
        assert {(StageVerdictKind.TRANSVERSE, True), (StageVerdictKind.TRANSVERSE, False)} <= kinds

    def test_zero_length_link_counts_as_aligned_on_a_transverse_stage(self):
        chain = ChainSpec(ChainKind.OPEN, (2.0, 1e-14)).to_linkage()
        v_chain = Configuration([(0.0, 0.0), (2.0, 0.0), (2.0, 1e-14)])
        remainder, v_rem = _open_chain([(0.0, 0.0), (1.0, 1.0), (2.0, 1e-14)])
        with pytest.raises(DegenerateDirection):
            is_aligned(v_chain)
        verdict = stage_classify(remainder, chain, v_rem, v_chain)
        assert verdict.kind is StageVerdictKind.TRANSVERSE
        assert verdict.chain_aligned is True

    def test_bent_chain_not_aligned(self):
        # bent by 1e-4 rad: both endpoint images are the chord's normal at a
        # rank cutoff of 1e-3, and the chain is not aligned at 1e-6 rad
        chain, v_chain = _open_chain([(0.0, 0.0), (1.0, 0.0), (2.0, 1e-4)])
        remainder, v_rem = _open_chain([(0.0, 0.0), (1.0, 5e-5), (2.0, 1e-4)])
        tols = Tolerances(rank=1e-3, align=1e-6)
        verdict = stage_classify(remainder, chain, v_rem, v_chain, tols)
        assert verdict.kind is StageVerdictKind.DEGENERATE_NON_TRANSVERSE
        assert verdict.reasons == ("chain_not_aligned",)
        assert verdict.chain_aligned is False
        assert verdict.chain_aligned_direction is None


class TestWitnessSearch:
    def test_four_bar_node_witness(self, fb, fb_node):
        witness = find_nontransversive_witness(fb, fb_node)
        assert witness is not None
        assert witness.signature == (1, 1)
        assert witness.euclidean_factor == 0
        stage = witness.decomposition.stages[witness.stage_index]
        assert stage.chain_aligned

    def test_generic_configuration_no_witness(self, fb):
        v = sample_cspace(fb, 1, seed=5)[0]
        assert find_nontransversive_witness(fb, v) is None

    def test_egsing_no_witness(self, egsing):
        # every decomposition reaching the singular core passes through an
        # aligned chain, and all direct stages are degenerate, so the search
        # must come back empty
        linkage, config = egsing
        assert find_nontransversive_witness(linkage, config, tols=Tolerances(depth=4)) is None

    def test_determinism(self, fb, fb_node):
        a = find_nontransversive_witness(fb, fb_node)
        b = find_nontransversive_witness(fb, fb_node)
        assert a.decomposition == b.decomposition
        assert a.signature == b.signature
        assert a.euclidean_factor == b.euclidean_factor
        assert np.array_equal(
            a.verdict.hessian_eigenvalues, b.verdict.hessian_eigenvalues
        )

    def test_depth_zero_finds_nothing(self, fb, fb_node):
        assert find_nontransversive_witness(fb, fb_node, tols=Tolerances(depth=1)) is not None
        assert find_nontransversive_witness(fb, fb_node, tols=Tolerances(depth=0)) is None


class TestCertificateSearch:
    def test_full_rank_trivial_certificate(self, fb):
        v = sample_cspace(fb, 1, seed=5)[0]
        cert = find_smoothness_certificate(fb, v)
        assert cert is not None
        assert cert.stages == ()

    def test_four_bar_node_has_no_certificate(self, fb, fb_node):
        assert find_smoothness_certificate(fb, fb_node) is None

    def test_egsing_no_certificate_within_depth(self, egsing):
        # both endpoint work images collapse onto the vertical line at every
        # candidate stage touching the aligned core, so no all-transverse
        # decomposition exists
        linkage, config = egsing
        assert find_smoothness_certificate(linkage, config, tols=Tolerances(depth=5)) is None

    def test_depth_zero_finds_only_a_full_rank_base(self, fb, fb_node):
        v = sample_cspace(fb, 1, seed=5)[0]
        depth0 = Tolerances(depth=0)
        assert find_smoothness_certificate(fb, v, tols=depth0).stages == ()
        assert find_smoothness_certificate(fb, fb_node, tols=depth0) is None


class TestTolerances:
    @pytest.mark.parametrize("name", [f.name for f in fields(Tolerances) if f.name != "depth"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_thresholds_must_be_finite_and_non_negative(self, name, value):
        with pytest.raises(InvalidSpec, match=name):
            Tolerances(**{name: value})

    def test_zero_thresholds_and_depth_allowed(self):
        Tolerances(**{f.name: 0 for f in fields(Tolerances)})

    def test_negative_depth(self):
        with pytest.raises(InvalidSpec, match="depth"):
            Tolerances(depth=-1)

    @pytest.mark.parametrize("depth", [float("nan"), 1.5, 2.0])
    def test_depth_must_be_an_integer(self, depth):
        # nan searched nothing and 1.5 searched two levels
        with pytest.raises(InvalidSpec, match="depth"):
            Tolerances(depth=depth)

    def test_five_fields(self):
        names = [f.name for f in fields(Tolerances)]
        assert names == ["rank", "align", "grad_scale", "eig_floor", "depth"]
