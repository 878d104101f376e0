import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linkctl.chains import chord_signature, is_aligned, workspace_interval
from linkctl.demos import build_demo
from linkctl.errors import DegenerateDirection, InvalidSpec, OffConstraint
from linkctl.model import (
    Configuration,
    Linkage,
    MechanismType,
    PlatformSpec,
    SubspaceBasis,
    _gauge_points,
    _jacobian_rows,
    _residual_rows,
    build_linkage,
    check_on_constraint,
    constraint_jacobian,
    constraint_residual,
    pointed_normalize,
    reduced_normalize,
    squared_length_map,
)
from linkctl.numeric import numerical_rank, sample_cspace, trace_curve

from conftest import (
    four_bar,
    four_bar_node,
    random_linkage,
    reference_jacobian,
    reference_length_map,
    reference_reduced_normalize,
    reference_residual,
)


def single_edge(length=5.0, d=2):
    return Linkage(MechanismType(2, ((0, 1),)), (length,), ambient_dim=d)


def fd_jacobian(linkage, config, h=None, fn=squared_length_map):
    flat = config.flat
    if h is None:
        h = 1e-6 * (1.0 + np.max(np.abs(flat)))
    cols = []
    for j in range(flat.size):
        e = np.zeros_like(flat)
        e[j] = h
        fp = fn(linkage, Configuration.from_flat(flat + e, config.dim))
        fm = fn(linkage, Configuration.from_flat(flat - e, config.dim))
        cols.append((fp - fm) / (2 * h))
    return np.stack(cols, axis=1)


class TestBuildLinkage:
    def test_triangle_document(self):
        doc = {
            "dim": 2,
            "vertices": 3,
            "edges": [
                {"u": 0, "v": 1, "length": 3},
                {"u": 1, "v": 2, "length": 4},
                {"u": 2, "v": 0, "length": 5},
            ],
            "base": 0,
        }
        linkage = build_linkage(doc)
        assert linkage.k == 3
        assert linkage.lengths == (3.0, 4.0, 5.0)

    def test_zero_length_rejected(self):
        doc = {"dim": 2, "vertices": 2, "edges": [{"u": 0, "v": 1, "length": 0.0}]}
        with pytest.raises(InvalidSpec, match="edge lengths must be positive"):
            build_linkage(doc)

    @pytest.mark.parametrize("length", [True, "3.0", " 2 ", None, [1.0]])
    def test_length_must_be_a_number(self, length):
        # float() read true as 1.0 and "3.0" or " 2 " as numbers
        doc = {"dim": 2, "vertices": 2, "edges": [{"u": 0, "v": 1, "length": length}]}
        with pytest.raises(InvalidSpec, match=f"^edge 0 length must be a number, got {re.escape(repr(length))}$"):
            build_linkage(doc)

    @pytest.mark.parametrize("length", [1e200, float(np.nextafter(np.sqrt(np.finfo(float).max), np.inf))])
    def test_length_whose_square_overflows_rejected(self, length):
        # the squared length was inf, so a pose five times too long had
        # residual inf - inf = NaN, which check_on_constraint let through
        doc = {
            "dim": 2,
            "vertices": 3,
            "edges": [{"u": 0, "v": 1, "length": 1.0}, {"u": 1, "v": 2, "length": length}],
        }
        with pytest.raises(
            InvalidSpec, match=f"^edge 1 length {re.escape(repr(length))} is above 1.34078e\\+154, so its square"
        ):
            build_linkage(doc)

    def test_longest_length_whose_square_is_finite_accepted(self):
        limit = float(np.sqrt(np.finfo(float).max))
        assert np.isfinite(single_edge(limit).squared_lengths()).all()

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidSpec, match="self-loop"):
            MechanismType(2, ((0, 0),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidSpec, match="duplicate edge"):
            MechanismType(3, ((0, 1), (1, 0)))

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(InvalidSpec, match="missing vertex"):
            MechanismType(2, ((0, 2),))

    def test_base_link_must_touch_base(self):
        with pytest.raises(InvalidSpec, match="base_link must be incident"):
            Linkage(MechanismType(3, ((0, 1), (1, 2))), (1, 1), base_vertex=0, base_link=1)

    def test_singular_four_bar_length_relation(self):
        linkage = four_bar()
        assert linkage.lengths[0] + linkage.lengths[2] == pytest.approx(4.5)
        assert linkage.lengths[1] + linkage.lengths[3] == pytest.approx(4.5)

    @pytest.mark.parametrize("prismatic", [{"min": 0.5, "max": 2.0}, None])
    def test_prismatic_key_rejected(self, prismatic):
        edge = {"u": 0, "v": 1, "length": 1.0, "prismatic": prismatic}
        with pytest.raises(InvalidSpec, match="^edge 0 has a prismatic range.*length fixed$"):
            build_linkage({"dim": 2, "vertices": 2, "edges": [edge]})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"vertices": 2, "edges": []}, "malformed linkage document: 'dim'"),
            ({"dim": 2, "vertices": 2, "edges": [{"u": 0, "v": 1}]}, "malformed edge 0: 'length'"),
            (
                {
                    "dim": 2, "vertices": 2, "edges": [{"u": 0, "v": 1, "length": 1.0}],
                    "platform": {"branches": [[0]], "moving": [1]},
                },
                "malformed platform block: 'fixed'",
            ),
        ],
    )
    def test_missing_key_rejected(self, doc, message):
        with pytest.raises(InvalidSpec, match=message):
            build_linkage(doc)

    def test_vertex_count_must_be_positive(self):
        with pytest.raises(InvalidSpec, match="vertex_count must be positive"):
            MechanismType(0, ())

    # Linkage arguments its constructor rejects, on the path 0-1-2 with unit links
    @pytest.mark.parametrize(
        "change, message",
        [
            ({"ambient_dim": 4}, "ambient_dim must be 2 or 3"),
            ({"lengths": (1.0,)}, "one length per edge required"),
            ({"base_vertex": 3}, "base_vertex out of range"),
            ({"base_link": 2}, "base_link out of range"),
            ({"end_effector": 3}, "end_effector out of range"),
            ({"end_effector": 0}, "end_effector must differ from base_vertex"),
        ],
    )
    def test_linkage_arguments_checked(self, change, message):
        args = {"graph": MechanismType(3, ((0, 1), (1, 2))), "lengths": (1.0, 1.0), **change}
        with pytest.raises(InvalidSpec, match=message):
            Linkage(**args)


# Platform blocks with an empty branch or a missing edge or vertex.
BAD_PLATFORMS = [
    ({"branches": ((99,), (8, 9), (10, 11))}, "missing edge 99"),
    ({"branches": ((6, 7), (), (10, 11))}, "no edges"),
    ({"fixed": (99, 98, 97)}, "missing vertex 99"),
    ({"moving": (3, 4, -1)}, "missing vertex -1"),
]


class TestPlatformChecks:
    @pytest.mark.parametrize("change, message", BAD_PLATFORMS)
    def test_document_route(self, change, message):
        doc, _ = build_demo("tri-platform-a")
        doc["platform"] = {**doc["platform"], **change}
        with pytest.raises(InvalidSpec, match=message):
            build_linkage(doc)

    @pytest.mark.parametrize("change, message", BAD_PLATFORMS)
    def test_constructor_route(self, change, message):
        linkage = build_linkage(build_demo("tri-platform-a")[0])
        platform = dataclasses.replace(linkage.platform, **change)
        with pytest.raises(InvalidSpec, match=message):
            dataclasses.replace(linkage, platform=platform)

    def test_valid_platform_kept(self):
        linkage = build_linkage(build_demo("tri-platform-a")[0])
        assert linkage.platform == PlatformSpec(((6, 7), (8, 9), (10, 11)), (0, 1, 2), (3, 4, 5))


def _set(doc: dict, path: tuple, value) -> dict:
    """A copy of doc with the entry at path (keys and list indices) set to value."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


# every count and id of a linkage document, where tri-platform-a has it
ID_PATHS = [
    ("dim",), ("vertices",), ("edges", 0, "u"), ("edges", 0, "v"), ("base",), ("base_link",),
    ("effector",), ("platform", "branches", 0, 0), ("platform", "fixed", 0),
    ("platform", "moving", 0),
]


class TestIntegerIds:
    # int() would truncate 2.9 to 2 and 0.5 to 0, and reads True as 1
    @pytest.mark.parametrize("bad", [0.5, 2.9, True, "1"])
    @pytest.mark.parametrize("path", ID_PATHS)
    def test_non_integer_rejected(self, path, bad):
        doc, _ = build_demo("tri-platform-a")
        with pytest.raises(InvalidSpec, match="must be an integer"):
            build_linkage(_set(doc, path, bad))

    @pytest.mark.parametrize("path", ID_PATHS)
    def test_integral_float_accepted(self, path):
        doc, _ = build_demo("tri-platform-a")
        target = doc
        for key in path:
            target = target[key]
        assert build_linkage(_set(doc, path, float(target))) == build_linkage(doc)


def _path_linkage(**change) -> Linkage:
    return Linkage(MechanismType(3, ((0, 1), (1, 2))), (1.0, 1.0), **change)


# ids and counts that the constructors read: int() took edge endpoint 1.5 for
# 1 and "0" and True for ids, and the Linkage ids passed their range checks
# or failed later with TypeError
NON_INTEGER_IDS = [
    ("endpoint-1.5", lambda: MechanismType(3, ((0, 1.5),)), "edge endpoint", 1.5),
    ("endpoint-string", lambda: MechanismType(3, (("0", "1"),)), "edge endpoint", "0"),
    ("endpoint-bool", lambda: MechanismType(3, ((True, 2),)), "edge endpoint", True),
    ("vertex_count", lambda: MechanismType(2.5, ((0, 1),)), "vertex_count", 2.5),
    ("ambient_dim", lambda: _path_linkage(ambient_dim=2.0), "ambient_dim", 2.0),
    ("base_vertex", lambda: _path_linkage(base_vertex=0.5), "base_vertex", 0.5),
    ("base_link", lambda: _path_linkage(base_link=0.0), "base_link", 0.0),
    ("end_effector", lambda: _path_linkage(end_effector=2.7), "end_effector", 2.7),
    ("branch-edge", lambda: PlatformSpec(((1.0,),), (0,), (2,)), "platform branch edge", 1.0),
    ("fixed", lambda: PlatformSpec(((1,),), (True,), (2,)), "platform fixed vertex", True),
    ("moving", lambda: PlatformSpec(((1,),), (0,), ("2",)), "platform moving vertex", "2"),
]


# edge lists and platform parts that are not sequences of pairs or of ids:
# unpacking them raised ValueError or TypeError
NOT_SEQUENCES = [
    ("triple", lambda: MechanismType(3, ((0, 1, 2),)), "edges must be a sequence of (u, v) pairs, got ((0, 1, 2),)"),
    ("flat", lambda: MechanismType(3, (0, 1)), "edges must be a sequence of (u, v) pairs, got (0, 1)"),
    ("none", lambda: MechanismType(3, None), "edges must be a sequence of (u, v) pairs, got None"),
    (
        "platform-count",
        lambda: PlatformSpec(5, (0,), (1,)),
        "platform branches must be sequences of edge ids and fixed and moving sequences of vertex ids, "
        "got 5, (0,) and (1,)",
    ),
]


class TestConstructorIds:
    @pytest.mark.parametrize(
        "build, message", [case[1:] for case in NOT_SEQUENCES], ids=[case[0] for case in NOT_SEQUENCES]
    )
    def test_parts_that_are_not_sequences_rejected(self, build, message):
        with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize(
        "build, name, value", [case[1:] for case in NON_INTEGER_IDS], ids=[case[0] for case in NON_INTEGER_IDS]
    )
    def test_non_integer_rejected(self, build, name, value):
        with pytest.raises(InvalidSpec, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            build()

    def test_numpy_integers_read_as_int(self):
        graph = MechanismType(np.int64(3), ((np.int32(0), np.int64(1)), (1, 2)))
        linkage = Linkage(graph, (1.0, 1.0), np.int64(2), np.int64(1), np.int64(1), np.int8(0))
        platform = PlatformSpec(((np.int64(1),),), (np.int64(0),), (np.int16(2),))
        assert linkage == Linkage(MechanismType(3, ((0, 1), (1, 2))), (1.0, 1.0), 2, 1, 1, 0)
        ids = (
            graph.vertex_count, *graph.edges[0], linkage.ambient_dim, linkage.base_vertex,
            linkage.base_link, linkage.end_effector, *platform.branches[0], *platform.fixed, *platform.moving,
        )
        assert {type(x) for x in ids} == {int}


class TestSquaredLengthMap:
    def test_three_four_five(self):
        v = Configuration([(0, 0), (3, 4)])
        assert squared_length_map(single_edge(), v) == pytest.approx([25.0])

    def test_coincident_points_give_zero(self):
        linkage = four_bar()
        v = Configuration([(1, 1)] * 4)
        assert np.all(squared_length_map(linkage, v) == 0.0)

    def test_four_bar_aligned_values(self):
        got = squared_length_map(four_bar(), four_bar_node())
        assert got == pytest.approx([9.0, 6.25, 2.25, 4.0])
        # the aligned placement satisfies the constraints: 3 - 2.5 + 1.5 - 2 = 0
        assert np.max(np.abs(constraint_residual(four_bar(), four_bar_node()))) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidSpec, match="does not match linkage"):
            squared_length_map(single_edge(), Configuration([(0, 0, 0), (1, 0, 0)]))


class TestResidual:
    def test_on_constraint_zero(self):
        v = Configuration([(0, 0), (3, 4)])
        assert np.max(np.abs(constraint_residual(single_edge(), v))) < 1e-12

    def test_off_constraint_value(self):
        v = Configuration([(0, 0), (5, 5)])
        assert constraint_residual(single_edge(), v) == pytest.approx([25.0])


class TestCheckOnConstraint:
    def test_boundary(self):
        # residual 1.1**2 - 1 against tol * (1 + 1): the bound itself is rejected
        linkage, config = single_edge(1.0), Configuration([(0.0, 0.0), (1.1, 0.0)])
        worst = float(constraint_residual(linkage, config)[0])
        with pytest.raises(OffConstraint, match="too large"):
            check_on_constraint(linkage, config, tol=worst / 2.0)
        check_on_constraint(linkage, config, tol=np.nextafter(worst / 2.0, np.inf))

    def test_default_tolerance(self):
        check_on_constraint(four_bar(), four_bar_node())
        with pytest.raises(OffConstraint):
            check_on_constraint(four_bar(), Configuration([(0, 0), (1, 1), (2, 2), (3, 3)]))

    def test_each_edge_against_its_own_length(self):
        # vertex 2 of the four-bar node moved 1e-8 along x: edge (1, 2) is off
        # by 5e-8, over 1e-8 * (1 + 2.5) though under 1e-8 * (1 + total length 9)
        points = four_bar_node().points.copy()
        points[2, 0] += 1e-8
        with pytest.raises(OffConstraint, match="residual 5e-08 too large"):
            check_on_constraint(four_bar(), Configuration(points))

    def test_message_names_the_edge_furthest_over_its_bound(self):
        # vertex 2 of the four-bar node moved 1.9e-8 along x: edge 1, (1, 2) of
        # length 2.5, is off by 9.5e-8 against 1e-8 * (1 + 2.5), and edge 2,
        # (2, 3) of length 1.5, by 5.7e-8 against 1e-8 * (1 + 1.5)
        points = four_bar_node().points.copy()
        points[2, 0] += 1.9e-8
        message = "configuration residual 9.5e-08 too large (edge 1: 9.5e-08 against its bound 3.5e-08)"
        with pytest.raises(OffConstraint, match=f"^{re.escape(message)}$"):
            check_on_constraint(four_bar(), Configuration(points))

    def test_edgeless_linkage_is_on_its_constraint_set(self):
        linkage = Linkage(MechanismType(2, ()), (), ambient_dim=3)
        check_on_constraint(linkage, Configuration([(1.0, 2.0, 3.0), (0.0, 0.0, 0.0)]))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidSpec, match="does not match linkage"):
            check_on_constraint(four_bar(), Configuration(np.zeros((4, 3))))


class TestJacobian:
    def test_single_edge_row(self):
        v = Configuration([(0, 0), (3, 4)])
        jac = constraint_jacobian(single_edge(), v)
        assert jac == pytest.approx(np.array([[-6.0, -8.0, 6.0, 8.0]]))

    def test_coincident_endpoints_zero_row(self):
        v = Configuration([(1, 2), (1, 2)])
        assert np.all(constraint_jacobian(single_edge(), v) == 0.0)

    def test_four_bar_node_rank_three(self):
        jac = constraint_jacobian(four_bar(), four_bar_node())
        assert numerical_rank(jac) == 3
        fd = fd_jacobian(four_bar(), four_bar_node())
        assert numerical_rank(fd) == 3
        rel = np.linalg.norm(jac - fd) / np.linalg.norm(jac)
        assert rel < 1e-6

    def test_matches_fd_on_random_linkages(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            linkage, config = random_linkage(rng)
            jac = constraint_jacobian(linkage, config)
            fd = fd_jacobian(linkage, config)
            assert np.linalg.norm(jac - fd) / max(np.linalg.norm(jac), 1e-12) < 1e-6

    def test_row_blocks_are_opposite(self):
        rng = np.random.default_rng(2)
        linkage, config = random_linkage(rng)
        d = linkage.ambient_dim
        jac = constraint_jacobian(linkage, config)
        for i, (u, v) in enumerate(linkage.graph.edges):
            bu = jac[i, u * d : (u + 1) * d]
            bv = jac[i, v * d : (v + 1) * d]
            assert bu == pytest.approx(-bv)

    def test_rows_annihilate_translations(self):
        rng = np.random.default_rng(3)
        linkage, config = random_linkage(rng)
        d = linkage.ambient_dim
        jac = constraint_jacobian(linkage, config)
        for j in range(d):
            field = np.zeros((linkage.n_vertices, d))
            field[:, j] = 1.0
            assert np.max(np.abs(jac @ field.reshape(-1))) < 1e-9

    def test_rank_invariant_under_rigid_motions(self):
        rng = np.random.default_rng(4)
        linkage = four_bar()
        for config in (four_bar_node(), Configuration(rng.uniform(-1, 1, (4, 2)))):
            base = numerical_rank(constraint_jacobian(linkage, config))
            for _ in range(5):
                ang = rng.uniform(0, 2 * np.pi)
                rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
                moved = Configuration(config.points @ rot.T + rng.uniform(-3, 3, 2))
                assert numerical_rank(constraint_jacobian(linkage, moved)) == base


class TestConstraintKernel:
    """The compiled edge kernel against the per-edge code it replaced."""

    @staticmethod
    def cases(d, count=25):
        rng = np.random.default_rng(40 + d)
        for _ in range(count):
            linkage, config = random_linkage(rng, dim=d)
            off = Configuration(config.points + rng.normal(scale=0.3, size=config.points.shape))
            yield linkage, config
            yield linkage, off

    @pytest.mark.parametrize("d", [2, 3])
    def test_bit_identical_to_per_edge_loop(self, d):
        directions = set()
        for linkage, config in self.cases(d):
            directions.update(u > v for u, v in linkage.graph.edges)
            want_map = reference_length_map(linkage, config)
            assert squared_length_map(linkage, config).tobytes() == want_map.tobytes()
            want_res = reference_residual(linkage, config)
            assert constraint_residual(linkage, config).tobytes() == want_res.tobytes()
            want_jac = reference_jacobian(linkage, config)
            got_jac = constraint_jacobian(linkage, config)
            assert got_jac.shape == want_jac.shape
            assert got_jac.tobytes() == want_jac.tobytes()
            # the batched kernel, row by row
            rows = np.stack([config.flat, 0.5 * config.flat + 1.0])
            res_rows, jac_rows = _residual_rows(linkage, rows), _jacobian_rows(linkage, rows)
            for row, res, jac in zip(rows, res_rows, jac_rows):
                placed = Configuration(row.reshape(-1, d))
                assert res.tobytes() == reference_residual(linkage, placed).tobytes()
                assert jac.tobytes() == reference_jacobian(linkage, placed).tobytes()
        assert directions == {True, False}  # edges given as (u, v) with u > v and u < v

    def test_edgeless_linkage(self):
        linkage = Linkage(MechanismType(1, ()), (), ambient_dim=3)
        config = Configuration([(1.0, 2.0, 3.0)])
        assert constraint_residual(linkage, config).shape == (0,)
        assert constraint_jacobian(linkage, config).shape == (0, 3)
        assert _residual_rows(linkage, np.zeros((2, 3))).shape == (2, 0)
        assert _jacobian_rows(linkage, np.zeros((2, 3))).shape == (2, 0, 3)

    @pytest.mark.parametrize("d", [2, 3])
    def test_jacobian_matches_central_differences_of_residual(self, d):
        for linkage, config in self.cases(d, count=10):
            fd = fd_jacobian(linkage, config, fn=constraint_residual)
            jac = constraint_jacobian(linkage, config)
            assert np.linalg.norm(jac - fd) / max(np.linalg.norm(jac), 1e-12) < 1e-6

    def test_kernel_is_cached_and_leaves_equality_alone(self):
        a, b = four_bar(), four_bar()
        constraint_jacobian(a, four_bar_node())
        assert a._kernel is a._kernel
        assert a == b and hash(a) == hash(b)

    def test_dimension_mismatch(self):
        linkage = four_bar()
        wrong = Configuration(np.zeros((4, 3)))
        with pytest.raises(InvalidSpec, match="does not match linkage"):
            constraint_residual(linkage, wrong)
        with pytest.raises(InvalidSpec, match="does not match linkage"):
            constraint_jacobian(linkage, wrong)


class TestNormalization:
    def test_pointed_identity_when_based(self):
        v = Configuration([(0, 0), (3, 4)])
        assert np.all(pointed_normalize(v, 0).points == v.points)

    def test_pointed_translation_invariance(self):
        rng = np.random.default_rng(5)
        v = Configuration(rng.uniform(-1, 1, (4, 2)))
        t = rng.uniform(-10, 10, 2)
        shifted = Configuration(v.points + t)
        assert np.max(np.abs(pointed_normalize(shifted, 1).points - pointed_normalize(v, 1).points)) < 1e-14

    def test_pointed_shift_example(self):
        v = Configuration([(1, 2), (4, 6)])
        out = pointed_normalize(v, 0)
        assert out.points == pytest.approx(np.array([(0, 0), (3, 4)]))

    @pytest.mark.parametrize(
        "base, message",
        [
            (-1, "base_vertex must lie in [0, 4), got -1"),  # pinned vertex 3
            (4, "base_vertex must lie in [0, 4), got 4"),  # IndexError
            (True, "base_vertex must be an integer, got True"),  # a shape error about (4, 1, 4, 2)
            (1.5, "base_vertex must be an integer, got 1.5"),
        ],
        ids=["minus-one", "n", "bool", "float"],
    )
    def test_pointed_base_vertex_is_an_id(self, base, message):
        with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
            pointed_normalize(Configuration(np.arange(8.0).reshape(4, 2)), base)

    def test_pointed_base_vertex_may_be_a_numpy_integer(self):
        v = Configuration(np.arange(8.0).reshape(4, 2))
        assert pointed_normalize(v, np.int64(1)).points.tobytes() == pointed_normalize(v, 1).points.tobytes()

    def test_reduced_identity_when_normalized(self):
        linkage = single_edge()
        linkage = Linkage(linkage.graph, linkage.lengths, 2, base_vertex=0, base_link=0)
        v = Configuration([(0, 0), (5, 0)])
        assert np.max(np.abs(reduced_normalize(linkage, v).points - v.points)) < 1e-14

    def test_reduced_rotates_vertical_link(self):
        linkage = Linkage(MechanismType(2, ((0, 1),)), (5.0,), 2, base_vertex=0, base_link=0)
        v = Configuration([(0, 0), (0, 5)])
        out = reduced_normalize(linkage, v)
        assert out.points[1] == pytest.approx([5.0, 0.0])

    def test_reduced_idempotent(self):
        linkage = four_bar()
        rng = np.random.default_rng(6)
        from linkctl.numeric import sample_cspace

        v = sample_cspace(linkage, 1, seed=9)[0]
        once = reduced_normalize(linkage, v)
        twice = reduced_normalize(linkage, once)
        assert np.max(np.abs(once.points - twice.points)) < 1e-12

    def test_reduced_needs_a_base_link(self):
        with pytest.raises(InvalidSpec, match="no base_link"):
            reduced_normalize(single_edge(), Configuration([[0.0, 0.0], [5.0, 0.0]]))

    def test_reduced_degenerate_direction(self):
        linkage = Linkage(MechanismType(2, ((0, 1),)), (5.0,), 2, base_vertex=0, base_link=0)
        v = Configuration([(0, 0), (1e-15, 0)])
        with pytest.raises(DegenerateDirection):
            reduced_normalize(linkage, v)

    def test_reduced_three_dimensional(self):
        linkage = Linkage(MechanismType(2, ((0, 1),)), (1.0,), 3, base_vertex=0, base_link=0)
        rng = np.random.default_rng(7)
        w = rng.normal(size=3)
        w /= np.linalg.norm(w)
        v = Configuration([np.zeros(3), w])
        out = reduced_normalize(linkage, v)
        assert out.points[1] == pytest.approx([1.0, 0.0, 0.0])

    def test_lambda_gauge_invariance(self):
        linkage = four_bar()
        from linkctl.numeric import sample_cspace

        v = sample_cspace(linkage, 1, seed=10)[0]
        lam = squared_length_map(linkage, v)
        assert squared_length_map(linkage, pointed_normalize(v, 0)) == pytest.approx(lam, abs=1e-10)
        assert squared_length_map(linkage, reduced_normalize(linkage, v)) == pytest.approx(lam, abs=1e-10)


def star(d: int, n: int = 5, base_vertex: int = 2) -> Linkage:
    """Vertex base_vertex joined to every other vertex; base link 0 runs to vertex 0."""
    others = [v for v in range(n) if v != base_vertex]
    return Linkage(
        MechanismType(n, tuple((v, base_vertex) for v in others)),
        (1.0,) * (n - 1),
        d,
        base_vertex=base_vertex,
        base_link=0,
    )


class TestGaugeKernel:
    """The stacked gauge kernel: each configuration of a stack comes out as
    the one-configuration reference gives it, bit for bit."""

    @staticmethod
    def assert_rows_equal_reference(linkage: Linkage, stack: np.ndarray) -> None:
        got = _gauge_points(linkage, stack)
        assert got.shape == stack.shape
        for row, out in zip(stack.reshape(-1, *stack.shape[-2:]), got.reshape(-1, *got.shape[-2:])):
            want = reference_reduced_normalize(linkage, Configuration(row)).points
            assert out.tobytes() == want.tobytes(), row
            assert reduced_normalize(linkage, Configuration(row)).points.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_stack_equals_reference(self, d):
        rng = np.random.default_rng(40 + d)
        linkage = star(d)
        scales = rng.choice([1e-3, 1.0, 1e3], size=(300, 1, 1))
        self.assert_rows_equal_reference(linkage, rng.normal(size=(300, 5, d)) * scales)
        self.assert_rows_equal_reference(linkage, rng.normal(size=(3, 7, 5, d)))

    @pytest.mark.parametrize("d", [2, 3])
    def test_link_along_and_against_first_axis(self, d):
        # in d = 3 the cross product vanishes: the identity and the half-turn
        rng = np.random.default_rng(50 + d)
        linkage = star(d)
        stack = rng.normal(size=(6, 5, d))
        e1 = np.eye(d)[0]
        for i, sign in enumerate((1.0, -1.0, 1.0, -1.0)):
            stack[i, 0] = stack[i, 2] + sign * (i + 1) * e1
        self.assert_rows_equal_reference(linkage, stack)
        link = _gauge_points(linkage, stack)[:4, 0]
        assert link == pytest.approx(np.outer([1.0, 2.0, 3.0, 4.0], e1), abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_coincident_link_ends_in_a_stack(self, d):
        linkage = star(d)
        stack = np.random.default_rng(60 + d).normal(size=(4, 5, d))
        stack[2, 0] = stack[2, 2]
        with pytest.raises(DegenerateDirection):
            _gauge_points(linkage, stack)
        with pytest.raises(DegenerateDirection):
            reduced_normalize(linkage, Configuration(stack[2]))

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(
        d=st.sampled_from([2, 3]),
        coords=st.lists(st.floats(-1e3, 1e3), min_size=15, max_size=15),
        exponent=st.integers(-17, 1),
    )
    def test_single_configuration_equals_stack_of_one(self, d, coords, exponent):
        # one configuration takes Python floats where a stack takes arrays; a
        # base link shrunk by 10**exponent is short enough, at the low
        # exponents, to raise DegenerateDirection both ways
        p = np.reshape(coords[: 5 * d], (5, d))
        p[0] = p[2] + (p[0] - p[2]) * 10.0**exponent
        outcomes = []
        for stack in (p, p[None]):
            try:
                outcomes.append(_gauge_points(star(d), stack).reshape(5, d).tobytes())
            except DegenerateDirection:
                outcomes.append("degenerate")
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("base_link", [0, None])
    def test_empty_stack(self, d, base_link):
        linkage = dataclasses.replace(star(d), base_link=base_link)
        out = _gauge_points(linkage, np.zeros((0, 5, d)))
        assert out.shape == (0, 5, d)

    @pytest.mark.parametrize("d", [2, 3])
    def test_pointed_stack(self, d):
        linkage = dataclasses.replace(star(d), base_link=None)
        stack = np.random.default_rng(70 + d).normal(size=(20, 5, d))
        got = _gauge_points(linkage, stack)
        for row, out in zip(stack, got):
            assert out.tobytes() == (row - row[2]).tobytes()
            assert pointed_normalize(Configuration(row), 2).points.tobytes() == out.tobytes()

    @pytest.mark.parametrize("listed", [(0, 1), (1, 0)], ids=["listed-0-1", "listed-1-0"])
    @pytest.mark.parametrize("base", [0, 1])
    def test_base_link_end(self, listed, base):
        # the base link's other vertex however the edge is listed, which the
        # reduced gauge puts on +e1; None without a base link
        graph = MechanismType(3, (listed, (1, 2), (2, 0)))
        linkage = Linkage(graph, (1.0, 1.0, 1.0), base_vertex=base, base_link=0)
        far = 1 - base
        assert linkage._base_link_end == far
        moved = _gauge_points(linkage, np.random.default_rng(80 + base).normal(size=(3, 2)))
        assert moved[far, 0] > 0.0 and moved[far, 1] == pytest.approx(0.0, abs=1e-12)
        assert dataclasses.replace(linkage, base_link=None)._base_link_end is None


class TestConfiguration:
    def test_points_must_be_a_two_dimensional_array(self):
        with pytest.raises(InvalidSpec, match=r"configuration must be an \(N, d\) array"):
            Configuration([1.0, 2.0])

    def test_points_cannot_be_reassigned(self):
        config = Configuration([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(AttributeError, match="immutable"):
            config.points = np.zeros((2, 2))
        assert config.points.tolist() == [[0.0, 0.0], [1.0, 0.0]]


class TestSubspaceBasis:
    def test_orthonormal_required(self):
        with pytest.raises(InvalidSpec, match="orthonormal"):
            SubspaceBasis(2, np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_empty_is_fine(self):
        basis = SubspaceBasis(3, np.zeros((0, 3)))
        assert basis.dim == 0

    @pytest.mark.parametrize("dim", [True, 2.5, -1])
    def test_ambient_dim_is_an_integer(self, dim):
        # True was read as dimension 1, and 2.5 named an (m, 2.5) array
        with pytest.raises(InvalidSpec, match=f"^ambient_dim must be an integer >= 0, got {dim!r}$"):
            SubspaceBasis(dim, np.zeros((0, 2)))

    def test_ambient_dim_may_be_a_numpy_integer(self):
        basis = SubspaceBasis(np.int64(2), np.eye(2))
        assert type(basis.ambient_dim) is int and basis.vectors.tolist() == np.eye(2).tolist()

    @pytest.mark.parametrize("vectors", [[[1.0, 0.0, 0.0, 1.0]], [1.0, 0.0], [[1.0], [0.0]], np.eye(2)[None]])
    def test_shape_required(self, vectors):
        # [[1, 0, 0, 1]] was reshaped into the 2-D identity basis
        with pytest.raises(InvalidSpec, match=r"must be an \(m, 2\) array"):
            SubspaceBasis(2, vectors)

    @pytest.mark.parametrize(
        "vectors",
        [
            [[1.0 + 1e-6, 0.0], [0.0, 1.0]],  # passed numpy's default rtol of 1e-5
            [[1.0, 0.0], [0.0, 1.0 + 2e-10]],
            [[1.0, 0.0], [0.0, np.nan]],
        ],
    )
    def test_gram_bound_is_entrywise(self, vectors):
        with pytest.raises(InvalidSpec, match="orthonormal"):
            SubspaceBasis(2, vectors)

    def test_gram_bound_admits_roundoff(self):
        # an off-diagonal Gram entry of 1e-11 is within the bound of 1e-10
        c = 1e-11
        basis = SubspaceBasis(2, [[1.0, 0.0], [c, np.sqrt(1.0 - c * c)]])
        assert basis.dim == 2

    def test_caller_array_stays_writeable(self):
        vectors = np.eye(2)
        basis = SubspaceBasis(2, vectors)
        assert vectors.flags.writeable
        assert not basis.vectors.flags.writeable


def _trace_with_direction(direction):
    linkage = four_bar((2.0, 1.2, 1.7, 0.9))
    return trace_curve(linkage, sample_cspace(linkage, 1, seed=11)[0], max_steps=1, direction=direction)


# numpy's conversion raised ValueError, OverflowError or TypeError, a flat
# point list numpy's AxisError, and an infinite chain point was read as
# "not aligned" with a RuntimeWarning
@pytest.mark.parametrize(
    "call",
    [
        lambda: numerical_rank([["a", 1.0]]),
        lambda: numerical_rank([[1.0, 2.0], [1.0]]),
        lambda: Configuration([["a", 0]]),
        lambda: Configuration([[0.0, 0.0], [1.0]]),
        lambda: Configuration([[10**400, 0]]),
        lambda: SubspaceBasis(2, [["a", 0]]),
        lambda: Linkage(MechanismType(2, ((0, 1),)), ("a",)),
        lambda: _trace_with_direction(["a"] * 8),
        lambda: workspace_interval(["a"]),
        lambda: workspace_interval([None]),
        lambda: is_aligned([0.0, 1.0, 2.0]),
        lambda: chord_signature([0.0, 1.0, 2.0]),
        lambda: is_aligned([[0.0, 0.0], [np.inf, 0.0], [2.0, 0.0]]),
    ],
    ids=[
        "rank-text", "rank-ragged", "config-text", "config-ragged", "config-huge", "basis-text",
        "lengths-text", "direction-text", "interval-text", "interval-none", "aligned-flat",
        "signature-flat", "aligned-inf",
    ],
)
def test_malformed_arrays_raise_invalid_spec(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSpec):
            call()
