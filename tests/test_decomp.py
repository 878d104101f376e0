import json
import math
import re
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

import linkctl.decomp as decomp
import linkctl.model as model
import linkctl.numeric as numeric
from linkctl.decomp import (
    StageVerdict,
    StageVerdictKind,
    Tolerances,
    enumerate_chain_removals,
    find_nontransversive_witness,
    find_smoothness_certificate,
    find_witness_through,
    stage_classify,
    transversality_check,
)
from linkctl.chains import is_aligned
from linkctl.errors import (
    DegenerateDirection,
    InvalidSpec,
    NoConvergence,
    OffConstraint,
)
from linkctl.model import (
    Configuration,
    Linkage,
    MechanismType,
    SubspaceBasis,
    check_on_constraint,
    constraint_residual,
)
from linkctl.numeric import sample_cspace, work_image

from linkctl.demos import DEMO_NAMES, build_demo
from linkctl.model import build_linkage

from conftest import (
    chain_linkage,
    egsing_linkage,
    four_bar,
    four_bar_node,
    random_linkage,
    reference_enumerate_chain_removals,
    self_stressed_linkage,
    triangle,
)
from test_classify import _braced_node


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

    def test_disconnected_graph_rejected(self):
        with pytest.raises(InvalidSpec, match="requires a connected graph"):
            enumerate_chain_removals(MechanismType(4, ((0, 1), (2, 3))))

    def test_each_graph_enumerates_once(self, monkeypatch):
        # stage_classify looks its removal up on the graph instead of walking
        # or rebuilding it; an equal graph of its own walks again, so no cache
        # outlives the graph that holds it
        built = []
        removal = model._removal
        monkeypatch.setattr(model, "_removal", lambda *args: built.append(args) or removal(*args))
        linkage, config = four_bar(), four_bar_node()
        removals = enumerate_chain_removals(linkage.graph)
        paths = len(built)
        assert paths >= len(removals) == 12
        for r in removals:
            stage_classify(linkage, config, r)
        assert enumerate_chain_removals(linkage.graph) == removals
        assert len(built) == paths
        assert enumerate_chain_removals(MechanismType(4, linkage.graph.edges)) == removals
        assert len(built) == 2 * paths

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
        with pytest.raises(InvalidSpec, match="image bases must live in the ambient dimension"):
            transversality_check(a, b, 2)

    def test_two_aligned_chains_share_an_image(self):
        # both chains aligned along e1: each image is the vertical line
        chain = chain_linkage((2.0, 1.5))
        img_a = work_image(chain, Configuration([[0.0, 0], [2, 0], [3.5, 0]]))
        img_b = work_image(chain, Configuration([[0.0, 0], [2, 0], [0.5, 0]]))
        assert not transversality_check(img_a, img_b, 2)


def _removal_of(linkage, edge_set):
    return next(r for r in enumerate_chain_removals(linkage.graph) if set(r.chain_edges) == edge_set)


def _split(linkage, config, edge_set):
    return stage_classify(linkage, config, _removal_of(linkage, edge_set))


class TestStageClassify:
    def test_four_bar_two_two_split_at_node(self):
        verdict = _split(four_bar(), four_bar_node(), {2, 3})
        assert verdict.kind is StageVerdictKind.GENERICALLY_NON_TRANSVERSE
        assert verdict.signature == (1, 1)
        assert verdict.gradient_norm < 1e-10

    def test_signature_derived_from_parts(self):
        verdict = _split(four_bar(), four_bar_node(), {2, 3})
        (rem_pos, rem_neg), (chain_pos, chain_neg) = verdict.remainder_signature, verdict.chain_signature
        assert verdict.signature == (rem_pos + chain_neg, rem_neg + chain_pos)
        assert replace(verdict, remainder_signature=None).signature is None
        assert replace(verdict, chain_signature=None).signature is None
        assert "signature" not in [f.name for f in fields(StageVerdict)]

    def test_stalled_hessian_is_degenerate(self, monkeypatch):
        def stall(*args, **kwargs):
            raise NoConvergence("line search stalled")

        monkeypatch.setattr(decomp, "reduced_work_data", stall)
        verdict = _split(four_bar(), four_bar_node(), {2, 3})
        assert verdict.kind is StageVerdictKind.DEGENERATE_NON_TRANSVERSE
        assert verdict.reasons == ("hessian_no_convergence",)
        assert verdict.gradient_norm is None and verdict.signature is None

    def test_nonzero_remainder_gradient_is_degenerate(self, monkeypatch):
        work_data = decomp.reduced_work_data

        def tilted(*args, **kwargs):
            data = work_data(*args, **kwargs)
            return replace(data, gradient=data.gradient + 1.0)

        monkeypatch.setattr(decomp, "reduced_work_data", tilted)
        verdict = _split(four_bar(), four_bar_node(), {2, 3})
        assert verdict.kind is StageVerdictKind.DEGENERATE_NON_TRANSVERSE
        assert verdict.reasons == ("remainder_gradient_nonzero",)
        assert verdict.gradient_norm >= 1.0 and verdict.signature is None

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

    @pytest.mark.parametrize("entry", [stage_classify, find_witness_through])
    def test_foreign_removal(self, entry):
        # a removal of tri-platform-b is not one of the four-bar's
        platform = build_linkage(build_demo("tri-platform-b")[0])
        foreign = enumerate_chain_removals(platform.graph)[-1]
        with pytest.raises(InvalidSpec, match="removal"):
            entry(four_bar(), four_bar_node(), foreign)

    @pytest.mark.parametrize("entry", [stage_classify, find_witness_through])
    def test_reversed_removal(self, entry):
        removal = _removal_of(four_bar(), {2, 3})
        reversed_chain = replace(
            removal,
            chain_vertices=removal.chain_vertices[::-1],
            chain_edges=removal.chain_edges[::-1],
        )
        with pytest.raises(InvalidSpec, match="removal"):
            entry(four_bar(), four_bar_node(), reversed_chain)

    @pytest.mark.parametrize("entry", [stage_classify, find_witness_through])
    def test_configuration_too_short(self, entry):
        # find_witness_through raised numpy's IndexError from the restriction
        short = Configuration(four_bar_node().points[:3])
        with pytest.raises(InvalidSpec, match="does not match linkage"):
            entry(four_bar(), short, _removal_of(four_bar(), {2, 3}))


def _host_cycle(chain_points, remainder_middle):
    """The four-cycle of a two-link open chain 0-1-2 and a two-link remainder
    2-3-0 through ``remainder_middle``, with the chain's removal."""
    points = np.vstack([chain_points, [remainder_middle]])
    edges = ((0, 1), (1, 2), (2, 3), (3, 0))
    lengths = tuple(float(np.linalg.norm(points[u] - points[v])) for u, v in edges)
    linkage = Linkage(MechanismType(4, edges), lengths, 2)
    return linkage, Configuration(points), _removal_of(linkage, {0, 1})


class TestChainAligned:
    def test_first_level_stages_of_the_demos(self):
        kinds = set()
        for name in DEMO_NAMES:
            linkage_doc, config_doc = build_demo(name)
            linkage, config = build_linkage(linkage_doc), Configuration(config_doc["points"])
            for removal in enumerate_chain_removals(linkage.graph):
                v_chain = Configuration(config.points[list(removal.chain_vertices)])
                verdict = stage_classify(linkage, config, removal)
                try:
                    aligned = is_aligned(v_chain) is not None
                except DegenerateDirection:
                    aligned = True
                assert verdict.chain_aligned is aligned, (name, removal.chain_edges)
                kinds.add((verdict.kind, aligned))
        # transverse stages with aligned and with non-aligned chains are both covered
        assert {(StageVerdictKind.TRANSVERSE, True), (StageVerdictKind.TRANSVERSE, False)} <= kinds

    def test_zero_length_link_counts_as_aligned_on_a_transverse_stage(self):
        chain_points = np.array([(0.0, 0.0), (2.0, 0.0), (2.0, 1e-14)])
        linkage, config, removal = _host_cycle(chain_points, (1.0, 1.0))
        with pytest.raises(DegenerateDirection):
            is_aligned(Configuration(chain_points))
        verdict = stage_classify(linkage, config, removal)
        assert verdict.kind is StageVerdictKind.TRANSVERSE
        assert verdict.chain_aligned is True

    def test_bent_chain_not_aligned(self):
        # bent by 1e-4 rad: both endpoint images are the chord's normal at a
        # rank cutoff of 1e-3, and the chain is not aligned at 1e-6 rad
        linkage, config, removal = _host_cycle([(0.0, 0.0), (1.0, 0.0), (2.0, 1e-4)], (1.0, 5e-5))
        tols = Tolerances(rank=1e-3, align=1e-6)
        verdict = stage_classify(linkage, config, removal, tols)
        assert verdict.kind is StageVerdictKind.DEGENERATE_NON_TRANSVERSE
        assert verdict.reasons == ("chain_not_aligned",)
        assert verdict.chain_aligned is False
        assert verdict.chain_aligned_direction is None


def _valid_poses():
    """(linkage, configuration) pairs that pass check_on_constraint: every
    demo and sample_cspace poses of random_linkage draws in d = 2 and 3, each
    also with one vertex nudged by 3e-9, 1e-8 and 3e-8, which puts the
    residuals of its edges on either side of the check's bound."""
    poses = []
    for name in DEMO_NAMES:
        linkage_doc, config_doc = build_demo(name)
        poses.append((build_linkage(linkage_doc), Configuration(config_doc["points"])))
    rng = np.random.default_rng(19)
    for d in (2, 3):
        for draw in range(12):
            linkage = random_linkage(rng, max_vertices=6, dim=d)[0]
            poses += [(linkage, config) for config in sample_cspace(linkage, 2, seed=draw)]
    for linkage, config in poses:
        vertex, unit = rng.integers(linkage.n_vertices), rng.normal(size=linkage.ambient_dim)
        for shift in (0.0, 3e-9, 1e-8, 3e-8):
            points = config.points.copy()
            points[vertex] += shift * unit / np.linalg.norm(unit)
            try:
                check_on_constraint(linkage, Configuration(points))
            except OffConstraint:
                continue
            yield linkage, Configuration(points)


class TestHereditaryValidity:
    def test_every_part_of_a_valid_pose_is_valid(self):
        # the parts of the first two stages, each remainder walked once; a
        # part is cut in its parent's ids and keyed by its host edges
        parts = 0
        for linkage, config in _valid_poses():
            stack, seen = [(linkage, config, tuple(range(linkage.k)), 2)], set()
            while stack:
                sub, sub_config, host_edges, depth = stack.pop()
                for removal in enumerate_chain_removals(sub.graph):
                    chain = decomp._cut(sub, removal.chain_vertices, removal.chain_edges, removal.endpoints)
                    remainder = decomp._cut(sub, removal.remainder_vertices, removal.remainder_edges, removal.endpoints)
                    chain_config = Configuration(sub_config.points[list(removal.chain_vertices)])
                    remainder_config = Configuration(sub_config.points[list(removal.remainder_vertices)])
                    for part, part_config in ((chain, chain_config), (remainder, remainder_config)):
                        check_on_constraint(part, part_config)
                        parts += 1
                    remainder_edges = tuple(host_edges[i] for i in removal.remainder_edges)
                    if depth > 1 and frozenset(remainder_edges) not in seen:
                        seen.add(frozenset(remainder_edges))
                        stack.append((remainder, remainder_config, remainder_edges, depth - 1))
        assert parts > 1000

    def test_every_searched_part_is_the_host_cut_by_its_ids(self, monkeypatch):
        # the search descends into a remainder cut in its parent's ids and
        # labelled with the stage record's host ids; the two must agree with a
        # cut of the host itself.  The braced nodes' remainder ids differ from
        # their host ids.
        searched = []

        def search(sub, *args):
            searched.append(sub)
            return original(sub, *args)

        original = decomp._search
        monkeypatch.setattr(decomp, "_search", search)
        rng = np.random.default_rng(23)
        stressed = [self_stressed_linkage(rng, d) for d in (2, 3) for _ in range(10)]
        poses = [(build_linkage(doc), Configuration(config["points"])) for doc, config in map(build_demo, DEMO_NAMES)]
        poses += [_braced_node(brace) for brace in ([(0.25, 1.0)], [(0.2, 1.0), (0.6, 1.2)])]
        poses += [s for s in stressed if s is not None]
        below = 0
        for linkage, config in poses:
            searched.clear()
            find_nontransversive_witness(linkage, config)
            find_smoothness_certificate(linkage, config)
            for sub in searched:
                if sub.linkage is linkage:
                    continue
                ends = (sub.vertex_ids[sub.linkage.base_vertex], sub.vertex_ids[sub.linkage.end_effector])
                assert sub.linkage == decomp._cut(linkage, sub.vertex_ids, sub.edge_ids, ends)
                below += 1
        assert below > 100

    def test_every_part_carries_the_host_points_at_its_ids(self, monkeypatch):
        # a part's points are cut from its parent's in the removal's ids, so
        # at every stage and every full-rank test they must be the host's
        # points at the part's host vertices, bit for bit; the braced nodes'
        # witness searches descend through remainders renumbered from the host
        seen = []

        def wrap(original):
            def visit(sub, *args):
                seen.append(sub)
                return original(sub, *args)

            return visit

        monkeypatch.setattr(decomp, "_step", wrap(decomp._step))
        monkeypatch.setattr(decomp, "_search", wrap(decomp._search))
        docs = {name: build_demo(name) for name in DEMO_NAMES}
        poses = {name: (build_linkage(doc), Configuration(config["points"])) for name, (doc, config) in docs.items()}
        poses["braced"] = _braced_node([(0.2, 1.0), (0.6, 1.2)])
        descents = {}
        for name, (linkage, config) in poses.items():
            start = len(seen)  # seen keeps every part alive, so no id is reused
            find_nontransversive_witness(linkage, config)
            find_smoothness_certificate(linkage, config)
            for sub in seen[start:]:
                host = config.points[list(sub.vertex_ids)]
                assert sub.config.points.shape == host.shape
                assert sub.config.points.tobytes() == host.tobytes()
            descents[name] = len({id(sub) for sub in seen[start:] if sub.linkage is not linkage})
        assert descents["tri-platform-a"] == 141 and descents["egsing"] == 25
        assert descents["braced"] > 0

    def test_every_removal_gets_a_verdict(self):
        # the poses above and self-stressed ones, whose stages can be non-transverse
        rng = np.random.default_rng(19)
        stressed = [self_stressed_linkage(rng, d) for d in (2, 3) for _ in range(20)]
        poses = list(_valid_poses()) + [s for s in stressed if s is not None]
        kinds = set()
        for linkage, config in poses:
            for removal in enumerate_chain_removals(linkage.graph):
                kinds.add(stage_classify(linkage, config, removal).kind)
        assert kinds == set(StageVerdictKind)

    def test_witness_through_checks_the_host_through_its_parts(self):
        # vertex 2 moved 1e-8 along x: edge (1, 2) is off by 5e-8 >= 1e-8 * (1 + 2.5)
        points = four_bar_node().points.copy()
        points[2, 0] += 1e-8
        for removal in enumerate_chain_removals(four_bar().graph):
            with pytest.raises(OffConstraint, match="too large"):
                find_witness_through(four_bar(), Configuration(points), removal)


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

    @pytest.mark.parametrize("depth, n_stages", [(0, 0), (1, 0), (2, 2), (4, 2)])
    def test_forced_stage_counts_toward_depth(self, depth, n_stages):
        # tri-platform-a's branch 2 (edges 10 and 11) is bent and its stage
        # transverse; the witness ends one stage inside its remainder
        linkage_doc, config_doc = build_demo("tri-platform-a")
        linkage, config = build_linkage(linkage_doc), Configuration(config_doc["points"])
        removal = _removal_of(linkage, {10, 11})
        verdict, witness = find_witness_through(linkage, config, removal, Tolerances(depth=depth))
        assert verdict.kind is StageVerdictKind.TRANSVERSE and not verdict.chain_aligned
        assert (0 if witness is None else len(witness.decomposition.stages)) == n_stages

    @pytest.mark.parametrize("depth, n_stages", [(0, 0), (1, 1)])
    def test_generic_forced_stage_counts_toward_depth(self, fb, fb_node, depth, n_stages):
        removal = _removal_of(fb, {2, 3})
        verdict, witness = find_witness_through(fb, fb_node, removal, Tolerances(depth=depth))
        assert verdict.kind is StageVerdictKind.GENERICALLY_NON_TRANSVERSE
        assert (0 if witness is None else len(witness.decomposition.stages)) == n_stages

    def test_json_dicts_hold_lists_not_tuples(self, fb, fb_node):
        # the fingerprints compare dicts, and a tuple never equals the list
        # that JSON reads back
        witness = find_nontransversive_witness(fb, fb_node)
        for doc in (witness.to_json_dict(), witness.decomposition.to_json_dict()):
            assert doc["stages"]
            assert json.loads(json.dumps(doc)) == doc

    # stage_classify, reduced_work_data, _null_space and numerical_rank calls
    # of one search at each demo's configuration with the default tolerances;
    # a change to the search's order or pruning moves them.  A stage takes two
    # null spaces (remainder and chain) and one rank (transversality): its
    # remainder's rank and reduced frame come from the remainder's null space.
    _SEARCH_COUNTS = [
        ("egsing", 10, 5, 20, 10),
        ("five-bar", 20, 0, 40, 20),
        ("four-bar-regular", 12, 0, 24, 12),
        ("four-bar-singular", 1, 1, 2, 1),
        ("tri-platform-a", 1, 1, 2, 1),
        ("tri-platform-b", 1, 1, 2, 1),
    ]

    @pytest.mark.parametrize(
        "name, stages, work_data, null_spaces, ranks",
        _SEARCH_COUNTS,
        ids=[f"{name}-{stages}-{work_data}" for name, stages, work_data, _, _ in _SEARCH_COUNTS],
    )
    def test_stage_and_work_data_counts(self, monkeypatch, name, stages, work_data, null_spaces, ranks):
        counts = Counter()
        for module, fn in (
            (decomp, "stage_classify"),
            (decomp, "reduced_work_data"),
            (decomp, "numerical_rank"),
            (decomp, "_null_space"),
            (numeric, "_null_space"),
        ):

            def counted(*args, _fn=getattr(module, fn), _name=fn, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, fn, counted)
        linkage_doc, config_doc = build_demo(name)
        find_nontransversive_witness(build_linkage(linkage_doc), Configuration(config_doc["points"]))
        assert (
            counts["stage_classify"], counts["reduced_work_data"], counts["_null_space"], counts["numerical_rank"]
        ) == (stages, work_data, null_spaces, ranks)


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

    @pytest.mark.parametrize("dim", [2, 3])
    def test_no_certificate_at_a_self_stress(self, dim):
        # a transverse fiber product of regular maps is regular, so no
        # all-transverse decomposition ends in a full-rank base where the
        # Jacobian has a left-null vector
        rng = np.random.default_rng(dim)
        samples = []
        for _ in range(400):
            sample = self_stressed_linkage(rng, dim)
            if sample is not None:
                samples.append(sample)
            if len(samples) == 20:
                break
        assert len(samples) == 20
        for linkage, config in samples:
            assert find_smoothness_certificate(linkage, config) is None

    def test_depth_zero_finds_only_a_full_rank_base(self, fb, fb_node):
        v = sample_cspace(fb, 1, seed=5)[0]
        depth0 = Tolerances(depth=0)
        assert find_smoothness_certificate(fb, v, tols=depth0).stages == ()
        assert find_smoothness_certificate(fb, fb_node, tols=depth0) is None


class TestTolerances:
    @pytest.mark.parametrize("name", [f.name for f in fields(Tolerances) if f.name != "depth"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, True, False, "1e-8"])
    def test_thresholds_must_be_finite_and_non_negative(self, name, value):
        # rank=True read as 1.0 and called a smooth four-bar Indeterminate;
        # a string raised TypeError, and then printed unquoted like a number
        shown = repr(value) if isinstance(value, str) else str(value)
        with pytest.raises(InvalidSpec, match=f"^tolerance {name} must be finite and >= 0, got {re.escape(shown)}$"):
            Tolerances(**{name: value})

    def test_checked_values_are_stored(self):
        tols = Tolerances(rank=np.float64(1e-6), align=np.float32(0.5), grad_scale=1, depth=np.int64(3))
        assert [type(getattr(tols, f.name)) for f in fields(Tolerances)] == [float, float, float, int]
        assert (tols.rank, tols.align, tols.grad_scale, tols.depth) == (1e-6, float(np.float32(0.5)), 1.0, 3)

    def test_zero_thresholds_and_depth_allowed(self):
        Tolerances(**{f.name: 0 for f in fields(Tolerances)})

    def test_negative_depth(self):
        with pytest.raises(InvalidSpec, match="depth"):
            Tolerances(depth=-1)

    @pytest.mark.parametrize("depth", [float("nan"), 1.5, 2.0, True, False, "2"])
    def test_depth_must_be_an_integer(self, depth):
        # nan searched nothing, 1.5 searched two levels and True was kept as True
        with pytest.raises(InvalidSpec, match="depth"):
            Tolerances(depth=depth)

    def test_five_fields(self):
        # four settable fields; the fifth threshold, the eigenvalue floor, is a
        # module constant that no caller sets
        names = [f.name for f in fields(Tolerances)]
        assert names == ["rank", "align", "grad_scale", "depth"]
        assert decomp._EIG_FLOOR == 1e-3

    @pytest.mark.parametrize("align", [math.pi / 2, 4.0])
    def test_align_below_a_right_angle(self, align):
        with pytest.raises(InvalidSpec, match="^tolerance align must be below pi/2"):
            Tolerances(align=align)
