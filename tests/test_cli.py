import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import linkctl

from linkctl.cli import _build_parser, main
from linkctl.decomp import Tolerances
from linkctl.demos import DEMO_NAMES, build_demo
from linkctl.errors import InvalidSpec
from linkctl.model import Configuration, Linkage, MechanismType, build_linkage
from linkctl import cli, svg

from conftest import hinge, reference_lens_arms


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def fails(capsys, *argv) -> str:
    """The stderr of ``main(argv)``, which must exit 1 with nothing on stdout."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    return captured.err


def run_module(*argv):
    """``python -m linkctl.cli`` in a new process, with the package's source
    directory first on PYTHONPATH."""
    src = str(Path(linkctl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "linkctl.cli", *argv], capture_output=True, text=True, timeout=30, env=env
    )


@pytest.fixture
def demo_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def write(name):
        linkage_doc, config_doc = build_demo(name)
        lpath = tmp_path / f"{name}.linkage.json"
        cpath = tmp_path / f"{name}.config.json"
        lpath.write_text(json.dumps(linkage_doc))
        cpath.write_text(json.dumps(config_doc))
        return str(lpath), str(cpath)

    return write


@pytest.fixture
def edgeless_files(tmp_path, monkeypatch):
    """Two vertices in the plane and no edge: no constraint at all."""
    monkeypatch.chdir(tmp_path)
    lpath = tmp_path / "edgeless.linkage.json"
    cpath = tmp_path / "edgeless.config.json"
    lpath.write_text(json.dumps({"dim": 2, "vertices": 2, "edges": []}))
    cpath.write_text(json.dumps({"points": [[0.0, 0.0], [1.0, 0.0]]}))
    return str(lpath), str(cpath)


@pytest.fixture
def triangle_3d_files(tmp_path, monkeypatch):
    """A unit triangle in space: smooth, and not drawable as SVG."""
    monkeypatch.chdir(tmp_path)
    lpath = tmp_path / "triangle3d.linkage.json"
    cpath = tmp_path / "triangle3d.config.json"
    edges = [{"u": u, "v": v, "length": 1.0} for u, v in ((0, 1), (1, 2), (2, 0))]
    lpath.write_text(json.dumps({"dim": 3, "vertices": 3, "edges": edges}))
    cpath.write_text(json.dumps({"points": [[0, 0, 0], [1, 0, 0], [0.5, 0.75**0.5, 0]]}))
    return str(lpath), str(cpath)


@pytest.fixture
def hinge_files(tmp_path, monkeypatch):
    """conftest.hinge as documents: a loop in space, closed modulo the
    rotation about the base link."""
    monkeypatch.chdir(tmp_path)
    linkage, config = hinge()
    edges = [{"u": u, "v": v, "length": ell} for (u, v), ell in zip(linkage.graph.edges, linkage.lengths)]
    lpath = tmp_path / "hinge.linkage.json"
    cpath = tmp_path / "hinge.config.json"
    doc = {"dim": linkage.ambient_dim, "vertices": linkage.n_vertices, "edges": edges, "base_link": linkage.base_link}
    lpath.write_text(json.dumps(doc))
    cpath.write_text(json.dumps({"points": config.points.tolist()}))
    return str(lpath), str(cpath)


TOL_RANK_OUT_OF_RANGE = ["nan", "inf", "-1"]


class TestDemoCommand:
    def test_writes_documents(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, out = run(capsys, "demo", "four-bar-singular")
        assert code == 0
        paths = json.loads(out)
        linkage = build_linkage(json.loads((tmp_path / paths["linkage"]).read_text()))
        assert linkage.k == 4

    def test_unknown_demo(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert fails(capsys, "demo", "nope").startswith("error: unknown demo 'nope'; choose from egsing, ")

    def test_all_demos_build(self):
        for name in DEMO_NAMES:
            linkage_doc, config_doc = build_demo(name)
            linkage = build_linkage(linkage_doc)
            assert len(config_doc["points"]) == linkage.n_vertices

    @pytest.mark.parametrize("name", DEMO_NAMES)
    def test_lengths_are_the_points_distances(self, name):
        # every length is derived from the placed points, none typed by hand
        linkage_doc, config_doc = build_demo(name)
        points = np.array(config_doc["points"])
        for edge in linkage_doc["edges"]:
            assert edge["length"] == float(np.linalg.norm(points[edge["u"]] - points[edge["v"]]))

    def test_demo_documents_share_no_state(self):
        # both tri-platform documents held the module's one platform dict, so
        # editing one document changed every later one
        platform = build_demo("tri-platform-a")[0]["platform"]
        platform["branches"][0].append(99)
        platform["branches"].append([0])
        assert build_demo("tri-platform-b")[0]["platform"] == {
            "branches": [[6, 7], [8, 9], [10, 11]],
            "fixed": [0, 1, 2],
            "moving": [3, 4, 5],
        }


class TestAnalyzeCommand:
    def test_node_exit_code(self, demo_files, capsys):
        lp, cp = demo_files("four-bar-singular")
        code, out = run(capsys, "analyze", lp, cp)
        assert code == 10
        assert json.loads(out)["verdict"] == "GenericSingular"

    def test_regular_exit_code(self, demo_files, capsys):
        lp, cp = demo_files("four-bar-regular")
        code, out = run(capsys, "analyze", lp, cp)
        assert code == 0
        assert json.loads(out)["verdict"] == "Smooth"

    def test_egsing_exit_code(self, demo_files, capsys):
        lp, cp = demo_files("egsing")
        code, out = run(capsys, "analyze", lp, cp)
        assert code == 20
        assert json.loads(out)["verdict"] == "Indeterminate"

    @pytest.mark.parametrize("name", DEMO_NAMES)
    def test_exit_code_fits_the_rank(self, demo_files, capsys, name):
        # 0 exactly at full rank, and never 30: a search result that contradicts the rank
        code, out = run(capsys, "analyze", *demo_files(name))
        rank, k = json.loads(out)["rank"]
        assert code != 30 and (code == 0) == (rank == k)

    @pytest.mark.parametrize("shift, code", [(1.9e-8, 1), (5e-9, 10)])
    def test_node_moved_along_x(self, demo_files, capsys, shift, code):
        # vertex 2 moved: edge 1, of length 2.5, is off by 5 * shift against
        # its bound 1e-8 * (1 + 2.5), so 1.9e-8 is off the constraint set
        lp, cp = demo_files("four-bar-singular")
        doc = json.loads(Path(cp).read_text())
        doc["points"][2][0] += shift
        Path(cp).write_text(json.dumps(doc))
        if code == 1:
            err = fails(capsys, "analyze", lp, cp)
            assert err.startswith("error: configuration residual 9.5e-08 too large (edge 1: ")
        else:
            got, out = run(capsys, "analyze", lp, cp)
            assert got == code and json.loads(out)["verdict"] == "GenericSingular"

    def test_malformed_json(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert fails(capsys, "analyze", str(bad), str(bad)).startswith(f"error: {bad} is not a JSON document: ")

    def test_configuration_without_points_exits_1(self, demo_files, capsys):
        lp, cp = demo_files("four-bar-singular")
        Path(cp).write_text(json.dumps({"vertices": [[0.0, 0.0]]}))
        assert fails(capsys, "analyze", lp, cp) == "error: malformed configuration document: 'points'\n"

    def test_configuration_of_the_wrong_shape_exits_1(self, demo_files, capsys):
        lp, cp = demo_files("four-bar-singular")
        Path(cp).write_text(json.dumps({"points": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]}))
        assert fails(capsys, "analyze", lp, cp) == "error: configuration shape (3,2) does not match linkage (4,2)\n"

    @pytest.mark.parametrize(
        "points, cause",
        [
            ([[0.0, 0.0], ["a", 0.0], [1.0, 1.0], [0.0, 1.0]], "could not convert string to float"),
            ([[0.0, 0.0], [1.0], [1.0, 1.0], [0.0, 1.0]], "inhomogeneous"),
            # an integer that json writes out in full and float() cannot hold
            ([[0.0, 0.0], [10**400, 0.0], [1.0, 1.0], [0.0, 1.0]], "int too large to convert to float"),
            # not a list of rows: Configuration or iteration raised without the file
            ([], "(got [])"),
            ([0.0, 1.0, 2.0, 3.0], "(got 0.0)"),
            ([[[0.0, 0.0], [1.0, 0.0]], [[1.0, 1.0], [0.0, 1.0]]], "(got [0.0, 0.0])"),
            (5, "(got 5)"),
            ([[0.0, 0.0], {"a": 1}, [1.0, 1.0], [0.0, 1.0]], "(got {'a': 1})"),
            # numpy read a numeric string as a 0-d array and string rows as a flat one
            ("12", "(got '12')"),
            (["1", "2", "3", "4"], "(got '1')"),
        ],
        ids=[
            "string", "ragged", "too-large", "empty", "flat", "three-deep", "scalar", "object-row",
            "string-points", "string-rows",
        ],
    )
    def test_points_that_are_not_numbers_exit_1(self, demo_files, capsys, points, cause):
        lp, cp = demo_files("four-bar-singular")
        Path(cp).write_text(json.dumps({"points": points}))
        err = fails(capsys, "analyze", lp, cp)
        assert err.startswith(f"error: {cp}: points must be an (N, d) array of numbers (")
        assert cause in err

    @pytest.mark.parametrize("coordinate", [True, False, "1", None, float("nan"), float("inf")])
    def test_points_that_are_not_json_numbers_exit_1(self, demo_files, capsys, coordinate):
        # numpy read true as 1.0 and "1" as a number, and null, NaN and
        # Infinity as non-finite numbers that Configuration rejected without
        # naming the file
        lp, cp = demo_files("four-bar-singular")
        doc = json.loads(Path(cp).read_text())
        doc["points"][1][0] = coordinate
        Path(cp).write_text(json.dumps(doc))
        err = fails(capsys, "analyze", lp, cp)
        assert err == f"error: {cp}: points must be an (N, d) array of numbers (got {coordinate!r})\n"

    @pytest.mark.parametrize("length", [True, "3.0"])
    def test_length_that_is_not_a_json_number_exits_1(self, demo_files, capsys, length):
        lp, cp = demo_files("four-bar-singular")
        doc = json.loads(Path(lp).read_text())
        doc["edges"][0]["length"] = length
        Path(lp).write_text(json.dumps(doc))
        assert fails(capsys, "analyze", lp, cp) == f"error: edge 0 length must be a number, got {length!r}\n"

    def test_length_too_large_for_a_float_exits_1(self, demo_files, capsys):
        lp, cp = demo_files("four-bar-singular")
        doc = json.loads(Path(lp).read_text())
        doc["edges"][1]["length"] = 10**400
        Path(lp).write_text(json.dumps(doc))
        assert fails(capsys, "analyze", lp, cp) == "error: malformed edge 1: int too large to convert to float\n"

    def test_length_whose_square_overflows_exits_1(self, tmp_path, capsys):
        # 1e200 squared is inf: at a pose five times too long the residual was
        # inf - inf = NaN, and analyze printed Smooth and exited 0
        lp, cp = tmp_path / "long.linkage.json", tmp_path / "long.config.json"
        lp.write_text(json.dumps({"dim": 2, "vertices": 2, "edges": [{"u": 0, "v": 1, "length": 1e200}]}))
        cp.write_text(json.dumps({"points": [[0.0, 0.0], [5e200, 0.0]]}))
        err = fails(capsys, "analyze", str(lp), str(cp))
        assert err == "error: edge 0 length 1e+200 is above 1.34078e+154, so its square overflows a float\n"

    @pytest.mark.parametrize(
        "content, cause",
        [(b"{not json", "Expecting property name"), (b"\xff{}", "'utf-8' codec can't decode")],
        ids=["syntax", "not-utf-8"],
    )
    def test_configuration_that_is_not_json_exits_1(self, demo_files, capsys, content, cause):
        lp, cp = demo_files("four-bar-singular")
        Path(cp).write_bytes(content)
        assert fails(capsys, "analyze", lp, cp).startswith(f"error: {cp} is not a JSON document: {cause}")

    def test_depth_zero_is_indeterminate(self, demo_files, capsys):
        lp, cp = demo_files("four-bar-singular")
        code, out = run(capsys, "analyze", lp, cp, "--depth", "0")
        assert code == 20
        assert json.loads(out)["witness"] is None

    @pytest.mark.parametrize(
        "option",
        [("--depth", "-3"), ("--tol-align", "nan"), ("--tol-grad", "-1"), ("--tol-rank", "nan")],
    )
    def test_out_of_range_option_exits_1(self, demo_files, capsys, option):
        lp, cp = demo_files("four-bar-singular")
        err = fails(capsys, "analyze", lp, cp, *option)
        assert err.startswith("error: ") and ">= 0, got" in err

    @pytest.mark.parametrize("value", ["1", "2"])
    @pytest.mark.parametrize("command", ["analyze", "trace", "branches"])
    def test_tol_rank_of_one_or_more_exits_1(self, demo_files, capsys, command, value):
        # no singular value passes a cutoff of 1, so every Jacobian had rank 0:
        # analyze printed rank [0, 4] and Indeterminate (exit 20), branches 0
        # branches with "stable": true, and trace "reduced tangent dimension is 5"
        lp, cp = demo_files("four-bar-regular" if command != "branches" else "four-bar-singular")
        err = fails(capsys, command, lp, cp, "--tol-rank", value)
        assert err == f"error: --tol-rank must be below 1, got {float(value)}\n"

    def test_tol_align_of_a_right_angle_or_more_exits_1(self, demo_files, capsys):
        # cos(4) < 0: every chain counted as aligned, and the node exited 10
        lp, cp = demo_files("four-bar-singular")
        err = fails(capsys, "analyze", lp, cp, "--tol-align", "4")
        assert err.startswith("error: ") and "below pi/2, got 4.0" in err

    def test_prismatic_document_exits_1(self, demo_files, capsys):
        lp, cp = demo_files("four-bar-singular")
        doc = json.loads(Path(lp).read_text())
        doc["edges"][2]["prismatic"] = {"min": 0.5, "max": 2.0}
        Path(lp).write_text(json.dumps(doc))
        err = fails(capsys, "analyze", lp, cp)
        assert "edge 2" in err and "length fixed" in err

    @pytest.mark.parametrize("key, value", [("dim", 2.9), ("vertices", 3.5), ("effector", 2.6)])
    def test_non_integer_id_exits_1(self, demo_files, capsys, key, value):
        lp, cp = demo_files("four-bar-singular")
        doc = json.loads(Path(lp).read_text())
        doc[key] = value
        Path(lp).write_text(json.dumps(doc))
        assert fails(capsys, "analyze", lp, cp).startswith(f"error: {key} must be an integer")

    @pytest.mark.parametrize("options", [[], ["--branches"]])
    def test_report_keys_in_order(self, demo_files, capsys, options):
        lp, cp = demo_files("four-bar-singular")
        _, out = run(capsys, "analyze", lp, cp, *options)
        assert list(json.loads(out)) == [
            "verdict", "rank", "witness", "certificate", "conjunction", "branch_report", "notes"
        ]

    def test_branch_report_matches_branches_command(self, demo_files, capsys):
        lp, cp = demo_files("egsing")
        _, out = run(capsys, "analyze", lp, cp, "--branches", "--seed", "3")
        _, branches = run(capsys, "branches", lp, cp, "--seed", "3")
        assert json.loads(out)["branch_report"] == json.loads(branches)
        assert "halved_branch_count" in json.loads(branches)

    def test_svg_written(self, demo_files, tmp_path, capsys):
        lp, cp = demo_files("four-bar-singular")
        out_svg = tmp_path / "fb.svg"
        run(capsys, "analyze", lp, cp, "--svg", str(out_svg))
        text = out_svg.read_text()
        assert text.startswith('<?xml version="1.0"')
        assert "<svg" in text and "</svg>" in text


class TestPlanarSvg:
    @pytest.mark.parametrize("command", ["analyze", "sample"])
    def test_3d_linkage_exits_1_before_any_work(self, triangle_3d_files, tmp_path, capsys, command):
        # the whole report was printed before the error, and the verdict's exit code lost
        lp, cp = triangle_3d_files
        svg_path = tmp_path / "out.svg"
        args = [lp, cp] if command == "analyze" else [lp, "-n", "2"]
        assert run(capsys, command, *args)[0] == 0
        err = fails(capsys, command, *args, "--svg", str(svg_path))
        assert err == "error: SVG rendering is implemented for planar linkages\n"
        assert not svg_path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "four-bar-singular.linkage.json", "four-bar-singular.config.json"),
            ("sample", "four-bar-regular.linkage.json", "-n", "2"),
            ("trace", "four-bar-regular.linkage.json", "four-bar-regular.config.json", "--max-steps", "5"),
            ("workspace", "--lengths", "2,1"),
            ("workspace", "five-bar.linkage.json"),
        ],
        ids=["analyze", "sample", "trace", "workspace-lengths", "workspace-lens"],
    )
    def test_svg_into_a_missing_directory_exits_1(self, demo_files, tmp_path, capsys, argv):
        # the whole report was printed before the drawing failed to open
        for name in ("four-bar-singular", "four-bar-regular", "five-bar"):
            demo_files(name)
        path = tmp_path / "missing" / "out.svg"
        err = fails(capsys, *argv, "--svg", str(path))
        assert err.startswith("error: ") and str(path) in err

    def test_library_rejects_a_3d_linkage(self, tmp_path):
        linkage = build_linkage({"dim": 3, "vertices": 2, "edges": [{"u": 0, "v": 1, "length": 1.0}]})
        config = Configuration([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(InvalidSpec, match="SVG rendering is implemented for planar linkages"):
            svg.render_linkage(linkage, [config], str(tmp_path / "out.svg"))
        assert not (tmp_path / "out.svg").exists()


class TestSampleCommand:
    def test_sample_and_determinism(self, demo_files, capsys):
        lp, _ = demo_files("four-bar-regular")
        code1, out1 = run(capsys, "sample", lp, "-n", "6", "--seed", "3")
        code2, out2 = run(capsys, "sample", lp, "-n", "6", "--seed", "3")
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["count"] >= 1

    def test_samples_lie_on_the_constraint_set(self, demo_files, capsys):
        lp, _ = demo_files("four-bar-regular")
        code, out = run(capsys, "sample", lp, "-n", "5")
        assert code == 0
        samples = np.array(json.loads(out)["samples"])
        assert len(samples) > 0
        edges = json.loads(Path(lp).read_text())["edges"]
        u, v, length = (np.array([e[key] for e in edges]) for key in ("u", "v", "length"))
        squared = np.sum((samples[:, u] - samples[:, v]) ** 2, axis=2)
        assert np.abs(squared - length**2).max() <= 1e-9

    def test_edgeless_linkage(self, edgeless_files, capsys):
        lp, _ = edgeless_files
        code, out = run(capsys, "sample", lp, "-n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 2
        assert doc["samples"][0] != doc["samples"][1]


class TestTraceCommand:
    def test_closed_loop_json(self, demo_files, tmp_path, capsys):
        lp, cp = demo_files("four-bar-regular")
        svg_path = tmp_path / "curve.svg"
        code, out = run(capsys, "trace", lp, cp, "--svg", str(svg_path), "--px", "4", "--py", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["closed"] is True
        assert doc["stop_reason"] == "loop_closed"
        assert svg_path.exists()

    def test_default_svg_axes_are_the_first_free_vertex(self, demo_files, tmp_path, capsys):
        # the defaults were vertex 0's coordinates, which the gauge pins at the
        # origin: every point of the drawing was 0.000000,0.000000
        lp, cp = demo_files("four-bar-regular")
        svg_path = tmp_path / "curve.svg"
        code, out = run(capsys, "trace", lp, cp, "--svg", str(svg_path))
        assert code == 0
        doc = json.loads(out)
        assert (doc["stop_reason"], doc["closed"]) == ("loop_closed", True)
        drawn = re.search(r'<polygon points="([^"]*)"', svg_path.read_text()).group(1).split()
        # vertex 2, the effector: neither the base vertex 0 nor vertex 1, the
        # far end of the base link (adding 0.0 turns -0.0 into 0.0, as the SVG does)
        assert drawn == [f"{x + 0.0:.6f},{-y + 0.0:.6f}" for x, y in (p[2] for p in doc["points"])]
        assert len(set(drawn)) > 1

    def test_3d_hinge_loop_closes(self, hinge_files, capsys):
        code, out = run(capsys, "trace", *hinge_files)
        assert code == 0
        doc = json.loads(out)
        assert (doc["stop_reason"], doc["closed"]) == ("loop_closed", True)

    @pytest.mark.parametrize("step", ["0", "-0.05"])
    def test_non_positive_step_exits_1(self, demo_files, capsys, step):
        lp, cp = demo_files("four-bar-regular")
        err = fails(capsys, "trace", lp, cp, "--step", step, "--max-steps", "30")
        assert err.startswith("error: --step must be positive and finite")

    @pytest.mark.parametrize("tol_rank", TOL_RANK_OUT_OF_RANGE)
    def test_tol_rank_out_of_range_exits_1(self, demo_files, capsys, tol_rank):
        lp, cp = demo_files("four-bar-regular")
        err = fails(capsys, "trace", lp, cp, "--tol-rank", tol_rank, "--max-steps", "30")
        assert err.startswith("error: --tol-rank must be finite and >= 0")

    @pytest.mark.parametrize(
        "option, message",
        [
            (("--max-steps", "-3"), "--max-steps must be an integer >= 0"),
            (("--sing-tol", "nan"), "--sing-tol must be finite and >= 0"),
            (("--sing-tol", "inf"), "--sing-tol must be finite and >= 0"),
            (("--sing-tol", "-1"), "--sing-tol must be finite and >= 0"),
        ],
    )
    def test_out_of_range_option_exits_1(self, demo_files, capsys, option, message):
        # --max-steps -3 exited 0 with one point; --sing-tol nan switched detection off
        lp, cp = demo_files("four-bar-regular")
        assert fails(capsys, "trace", lp, cp, *option).startswith(f"error: {message}")

    def test_edgeless_linkage(self, edgeless_files, capsys):
        lp, cp = edgeless_files
        code, out = run(capsys, "trace", lp, cp, "--max-steps", "30")
        assert code == 0
        doc = json.loads(out)
        assert doc["stop_reason"] == "max_steps"
        assert len(doc["points"]) == 31

    @pytest.mark.parametrize("axes", [("99", "1"), ("0", "-1"), ("8", "0"), ("-1", "1")])
    def test_svg_axis_out_of_range_exits_1(self, demo_files, tmp_path, capsys, axes):
        # four-bar-regular has 4 vertices in the plane: flat coordinates 0..7
        lp, cp = demo_files("four-bar-regular")
        svg_path = tmp_path / "curve.svg"
        err = fails(capsys, "trace", lp, cp, "--svg", str(svg_path), "--px", axes[0], "--py", axes[1])
        assert err.startswith("error: --px and --py must lie in [0, 8)")
        assert not svg_path.exists()

    @pytest.mark.parametrize("axis", [("--px", "99"), ("--py", "8"), ("--px", "-1")], ids="=".join)
    def test_axis_out_of_range_without_svg_exits_1(self, demo_files, capsys, axis):
        # the range check ran only with --svg, so these exited 0 and the axis was ignored
        lp, cp = demo_files("four-bar-regular")
        err = fails(capsys, "trace", lp, cp, *axis)
        assert err.startswith("error: --px and --py must lie in [0, 8), got ")
        assert "Traceback" not in err

    def test_axis_in_range_without_svg_traces(self, demo_files, capsys):
        lp, cp = demo_files("four-bar-regular")
        code, out = run(capsys, "trace", lp, cp, "--px", "7", "--py", "0", "--max-steps", "5")
        assert code == 0
        assert len(json.loads(out)["points"]) == 6


class TestWorkspaceCommand:
    def test_interval_mode(self, capsys):
        code, out = run(capsys, "workspace", "--lengths", "2,1")
        assert code == 0
        assert json.loads(out) == {"m": 1.0, "M": 3.0}

    @pytest.mark.parametrize("lengths", ["nan,1", "inf,1", "1,-2"])
    def test_bad_length_exits_1(self, capsys, lengths):
        # nan printed "M": NaN, which is not JSON
        err = fails(capsys, "workspace", "--lengths", lengths)
        assert err.startswith("error: link lengths must be positive and finite")

    def test_lengths_whose_sum_overflows_exit_1(self, capsys):
        # printed "M": Infinity, which is not JSON, and exited 0
        err = fails(capsys, "workspace", "--lengths", "1e308,1e308")
        assert err == "error: link lengths must have a finite sum, got [1e+308, 1e+308]\n"

    def test_non_numeric_length_exits_1(self, capsys):
        # float()'s own message named neither the option nor the bad entry's place
        err = fails(capsys, "workspace", "--lengths", "2,a")
        assert err == "error: --lengths must be comma-separated numbers, got '2,a'\n"

    @pytest.mark.parametrize("lengths", ["1,,2", "2,1,", ""])
    def test_empty_length_entry_exits_1(self, capsys, lengths):
        # an empty entry was skipped, so the first two read as a two-link chain;
        # an empty --lengths was taken for a missing one
        err = fails(capsys, "workspace", "--lengths", lengths)
        assert err == f"error: --lengths must be comma-separated numbers, got {lengths!r}\n"

    def test_lengths_and_a_linkage_document_exit_1(self, demo_files, capsys):
        # the document was ignored, and the --lengths interval printed with exit 0
        lp, _ = demo_files("five-bar")
        err = fails(capsys, "workspace", lp, "--lengths", "2,1")
        assert err == f"error: workspace takes --lengths '2,1' or {lp}, not both\n"

    def test_effector_at_the_far_end_of_the_base_link_exits_1(self, demo_files, capsys):
        # the second anchor chain would have no link
        lp, _ = demo_files("four-bar-regular")
        doc = json.loads(Path(lp).read_text())
        doc["effector"] = 1
        Path(lp).write_text(json.dumps(doc))
        err = fails(capsys, "workspace", lp)
        assert err == "error: lens workspace needs an effector off the base link, not its far end 1\n"

    @pytest.mark.parametrize(
        "drop, message",
        [
            ("base_link", "workspace of a linkage needs base_link and effector"),
            ("effector", "workspace of a linkage needs base_link and effector"),
            (None, "workspace needs --lengths or a linkage document"),
        ],
    )
    def test_missing_input_exits_1(self, demo_files, capsys, drop, message):
        lp, _ = demo_files("five-bar")
        doc = json.loads(Path(lp).read_text())
        if drop is not None:
            del doc[drop]
            Path(lp).write_text(json.dumps(doc))
        assert fails(capsys, *(["workspace"] if drop is None else ["workspace", lp])) == f"error: {message}\n"

    def test_five_bar_lens(self, demo_files, capsys):
        lp, _ = demo_files("five-bar")
        code, out = run(capsys, "workspace", lp)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["annuli"]) == 2
        assert doc["annuli"][0]["m"] == pytest.approx(1.0)
        assert doc["annuli"][0]["M"] == pytest.approx(4.0)
        assert len(doc["boundary"]) > 100
        # each annulus, from the base and from the far end of the base link, is
        # the reachable interval of the arm from that anchor to the effector
        _, base_arm, _, far_arm = reference_lens_arms(build_linkage(json.loads(Path(lp).read_text())))
        for annulus, arm in zip(doc["annuli"], (base_arm, far_arm)):
            code, interval = run(capsys, "workspace", "--lengths", ",".join(map(repr, arm)))
            assert code == 0
            assert json.loads(interval) == {"m": annulus["m"], "M": annulus["M"]}

    def test_linkage_that_is_not_a_cycle_exits_1(self, demo_files, capsys):
        lp, _ = demo_files("tri-platform-a")
        assert fails(capsys, "workspace", lp) == "error: lens workspace is implemented for cycle mechanisms\n"

    def test_anchor_chains_with_inner_radius_zero(self, tmp_path, capsys):
        # the five-cycle 0-3-2-4-1 with ground link 0-1 and effector 2: each
        # anchor chain has two unit links and reaches a disc, whose inner
        # circle of radius 0 would put the anchor itself on the boundary
        edges = [(0, 1, 1.5), (0, 3, 1.0), (3, 2, 1.0), (2, 4, 1.0), (4, 1, 1.0)]
        doc = {
            "dim": 2, "vertices": 5, "base": 0, "base_link": 0, "effector": 2,
            "edges": [{"u": u, "v": v, "length": ell} for u, v, ell in edges],
        }
        path = tmp_path / "two-discs.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "workspace", str(path))
        assert code == 0
        lens = json.loads(out)
        assert [(a["m"], a["M"]) for a in lens["annuli"]] == [(0.0, 2.0), (0.0, 2.0)]
        assert len(lens["boundary"]) > 100
        assert [0.0, 0.0] not in lens["boundary"] and [1.5, 0.0] not in lens["boundary"]

    def test_disconnected_cycles_exit_1(self, tmp_path):
        # two disjoint triangles: every degree is 2, but no cycle joins base and effector
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        doc = {
            "dim": 2, "vertices": 6, "base": 0, "base_link": 0, "effector": 4,
            "edges": [{"u": u, "v": v, "length": 1.0} for u, v in edges],
        }
        path = tmp_path / "two-triangles.json"
        path.write_text(json.dumps(doc))
        # a subprocess, so that a walk that never ends fails the test instead of hanging it
        done = run_module("workspace", str(path))
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("error: lens workspace is implemented for cycle mechanisms")

    def test_arms_agree_with_the_cycle_walk(self):
        # every placement of a seeded n-cycle (vertices relabeled, edges in a
        # random order and direction, then each edge reversed): every base
        # link, both its ends as the base, every effector and none; and the
        # cycle with a chord, which is not one
        def outcome(arms, linkage):
            try:
                return [x.tolist() if isinstance(x, np.ndarray) else x for x in arms(linkage)]
            except InvalidSpec as exc:
                return str(exc)

        seen = Counter()
        for n in range(3, 9):
            rng = np.random.default_rng(n)
            label = rng.permutation(n)
            cycle = [(int(label[i]), int(label[(i + 1) % n])) for i in rng.permutation(n)]
            drawn = [e[::-1] if flip else e for e, flip in zip(cycle, rng.integers(0, 2, n))]
            lengths = tuple(float(x) for x in rng.uniform(0.5, 2.0, n + 1))
            listings = [drawn, [e[::-1] for e in drawn]]
            if n > 3:
                listings.append(drawn + [(int(label[0]), int(label[2]))])
            for edges in listings:
                graph = MechanismType(n, tuple(edges))
                for base_link, (u, v) in enumerate(edges[:n]):
                    for base in (u, v):
                        for effector in [None] + [w for w in range(n) if w != base]:
                            linkage = Linkage(
                                graph, lengths[: len(edges)], base_vertex=base,
                                base_link=base_link, end_effector=effector,
                            )
                            got = outcome(cli._two_anchor_chains, linkage)
                            assert got == outcome(reference_lens_arms, linkage), (edges, base, effector)
                            seen[re.sub(r"\d+$", "N", got) if isinstance(got, str) else "arms"] += 1
        assert seen == {
            "arms": 532,
            "workspace of a linkage needs base_link and effector": 192,
            "lens workspace is implemented for cycle mechanisms": 320,
            "lens workspace needs an effector off the base link, not its far end N": 132,
        }


class TestBranchesCommand:
    def test_node_branches(self, demo_files, capsys, monkeypatch):
        monkeypatch.delenv("LINKCTL_SEED", raising=False)
        lp, cp = demo_files("four-bar-singular")
        for options in (["--radius", "0.01", "--seed", "0"], []):
            code, out = run(capsys, "branches", lp, cp, *options)
            assert code == 0
            doc = json.loads(out)
            assert doc["branch_count"] == 4
            assert doc["stable"] is True
        # with default options too, analyze --branches exits 10 with the same report
        code, out = run(capsys, "analyze", lp, cp, "--branches")
        assert code == 10
        assert json.loads(out)["branch_report"] == doc

    @pytest.mark.parametrize(
        "option",
        [("--radius", "0"), ("--radius", "nan"), ("--samples", "-1"), ("--cluster-factor", "-1")]
        + [("--tol-rank", value) for value in TOL_RANK_OUT_OF_RANGE],
    )
    def test_out_of_range_option_exits_1(self, demo_files, capsys, option):
        lp, cp = demo_files("four-bar-singular")
        assert fails(capsys, "branches", lp, cp, *option).startswith("error: ")

    @pytest.mark.parametrize("command", ["branches", "sample", "analyze", "analyze-without-branches"])
    def test_negative_seed_exits_1(self, demo_files, capsys, command):
        # the message was sample_cspace's and local_branch_count's, which do not name the flag;
        # analyze without --branches ignored the seed and exited 10
        lp, cp = demo_files("four-bar-singular")
        args = {
            "branches": [lp, cp],
            "sample": [lp],
            "analyze": [lp, cp, "--branches"],
            "analyze-without-branches": [lp, cp],
        }[command]
        err = fails(capsys, command.split("-")[0], *args, "--seed", "-1")
        assert err == "error: --seed must be an integer >= 0, got -1\n"

    @pytest.mark.parametrize("branches", [[], ["--branches"]], ids=["alone", "with-branches"])
    def test_analyze_checks_the_seed_before_classifying(self, demo_files, capsys, monkeypatch, branches):
        def classify(*args):
            raise AssertionError("classified with a bad --seed")

        monkeypatch.setattr(cli, "classify_configuration", classify)
        lp, cp = demo_files("four-bar-singular")
        err = fails(capsys, "analyze", lp, cp, *branches, "--seed", "-1")
        assert err == "error: --seed must be an integer >= 0, got -1\n"

    def test_analyze_reads_the_seed_variable_only_for_branches(self, demo_files, capsys, monkeypatch):
        # without --branches analyze draws no sample, so LINKCTL_SEED is not read
        lp, cp = demo_files("four-bar-singular")
        monkeypatch.setenv("LINKCTL_SEED", "-1")
        assert run(capsys, "analyze", lp, cp)[0] == 10
        assert fails(capsys, "analyze", lp, cp, "--branches") == "error: LINKCTL_SEED must be an integer >= 0, got -1\n"

    @pytest.mark.parametrize("command", ["branches", "sample"])
    def test_non_integer_seed_variable_exits_1(self, demo_files, capsys, monkeypatch, command):
        # the message was int()'s, which does not name the variable
        lp, cp = demo_files("four-bar-singular")
        monkeypatch.setenv("LINKCTL_SEED", "abc")
        err = fails(capsys, command, *([lp, cp] if command == "branches" else [lp]))
        assert err == "error: LINKCTL_SEED must be an integer, got 'abc'\n"

    @pytest.mark.parametrize("command", ["branches", "sample"])
    def test_negative_seed_variable_exits_1(self, demo_files, capsys, monkeypatch, command):
        # the message was sample_cspace's, which names the seed but not where it came from
        lp, cp = demo_files("four-bar-singular")
        monkeypatch.setenv("LINKCTL_SEED", "-1")
        err = fails(capsys, command, *([lp, cp] if command == "branches" else [lp]))
        assert err == "error: LINKCTL_SEED must be an integer >= 0, got -1\n"

    def test_edgeless_linkage(self, edgeless_files, capsys):
        lp, cp = edgeless_files
        code, out = run(capsys, "branches", lp, cp, "--radius", "0.1")
        assert code == 0
        doc = json.loads(out)
        assert doc["branch_count"] == 2
        assert doc["stable"] is True


class TestDeterminism:
    def test_analyze_bytes_identical(self, demo_files, capsys):
        lp, cp = demo_files("four-bar-singular")
        _, out1 = run(capsys, "analyze", lp, cp)
        _, out2 = run(capsys, "analyze", lp, cp)
        assert out1 == out2

    def test_svg_bytes_identical(self, demo_files, tmp_path, capsys):
        lp, cp = demo_files("four-bar-singular")
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "analyze", lp, cp, "--svg", str(a))
        run(capsys, "analyze", lp, cp, "--svg", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv, circles",
        [
            (("workspace", "--lengths", "2,1"), 2),  # both annulus circles
            (("workspace", "--lengths", "1,1"), 1),  # a disc: no inner circle
            (("workspace", "four-bar-regular.linkage.json"), None),
            (("sample", "four-bar-regular.linkage.json", "-n", "3", "--seed", "1"), None),
        ],
    )
    def test_other_svg_bytes_identical(self, demo_files, tmp_path, capsys, argv, circles):
        demo_files("four-bar-regular")
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for path in (a, b):
            assert run(capsys, *argv, "--svg", str(path))[0] == 0
        text = a.read_text()
        assert text.startswith("<?xml") and text.endswith("</svg>\n")
        if circles is None:
            assert text.count("<circle") > 4
        else:
            assert text.count("<circle") == circles
        assert a.read_bytes() == b.read_bytes()

    def test_document_round_trip(self):
        linkage_doc, _ = build_demo("five-bar")
        text = json.dumps(linkage_doc)
        assert json.loads(text) == linkage_doc
        again = json.dumps(json.loads(text))
        assert again == text
        a = build_linkage(linkage_doc)
        b = build_linkage(json.loads(text))
        assert a == b


class TestOneProcess:
    def test_repeated_calls_parse_their_own_arguments(self, demo_files, capsys, monkeypatch):
        assert _build_parser() is _build_parser()
        lp, cp = demo_files("four-bar-regular")
        slp, scp = demo_files("four-bar-singular")

        monkeypatch.setenv("LINKCTL_SEED", "1")
        _, env1 = run(capsys, "sample", lp, "-n", "4")
        monkeypatch.setenv("LINKCTL_SEED", "2")
        _, env2 = run(capsys, "sample", lp, "-n", "4")
        assert env1 != env2
        _, flag1 = run(capsys, "sample", lp, "-n", "4", "--seed", "1")
        assert flag1 == env1

        assert run(capsys, "analyze", slp, scp)[0] == 10
        assert run(capsys, "analyze", lp, cp)[0] == 0
        _, out = run(capsys, "workspace", "--lengths", "2,1")
        assert json.loads(out) == {"m": 1.0, "M": 3.0}

        _, default_n = run(capsys, "sample", lp)  # neither -n 4 nor --seed 1 carries over
        assert json.loads(default_n)["attempts"] == 20
        monkeypatch.setenv("LINKCTL_SEED", "1")
        _, again = run(capsys, "sample", lp, "-n", "4")
        assert again == env1


class TestEntryPoint:
    def test_process_exits_with_the_command_code(self, demo_files):
        # sys.exit(main()) hands each command's code to the shell
        lp, cp = demo_files("four-bar-singular")
        node = run_module("analyze", lp, cp)
        assert node.returncode == 10
        assert json.loads(node.stdout)["verdict"] == "GenericSingular"
        unknown = run_module("demo", "nope")
        assert unknown.returncode == 1
        assert unknown.stdout == ""
        assert "unknown demo" in unknown.stderr and "Traceback" not in unknown.stderr


_POSITIONALS = {
    "analyze": ["l.json", "c.json"],
    "sample": ["l.json"],
    "trace": ["l.json", "c.json"],
    "workspace": ["--lengths", "2,1"],
    "branches": ["l.json", "c.json"],
    "demo": ["four-bar-singular"],
}
_READ = {
    "analyze": {"--tol-rank", "--tol-grad", "--tol-align", "--seed", "--depth"},
    "sample": {"--seed"},
    "trace": {"--tol-rank"},
    "workspace": set(),
    "branches": {"--tol-rank", "--seed"},
    "demo": set(),
}
_VALUES = {"--tol-rank": "0.001", "--tol-grad": "0.002", "--tol-align": "0.003", "--seed": "3", "--depth": "1"}

# one out-of-range value for each numeric option but --seed, and its message
_BAD_OPTIONS = [
    ("analyze", ("--tol-rank", "-1"), "--tol-rank must be finite and >= 0, got -1.0"),
    ("analyze", ("--tol-grad", "-1"), "--tol-grad must be finite and >= 0, got -1.0"),
    ("analyze", ("--tol-align", "2"), "--tol-align must be below pi/2, got 2.0"),
    ("analyze", ("--depth", "-1"), "--depth must be an integer >= 0, got -1"),
    ("sample", ("-n", "0"), "-n must be an integer >= 1, got 0"),
    ("trace", ("--step", "0"), "--step must be positive and finite, got 0.0"),
    ("trace", ("--max-steps", "-1"), "--max-steps must be an integer >= 0, got -1"),
    ("trace", ("--sing-tol", "-1"), "--sing-tol must be finite and >= 0, got -1.0"),
    ("branches", ("--radius", "0"), "--radius must be positive and finite, got 0.0"),
    ("branches", ("--samples", "0"), "--samples must be an integer >= 1, got 0"),
    ("branches", ("--cluster-factor", "nan"), "--cluster-factor must be positive and finite, got nan"),
]


class TestOptions:
    @pytest.mark.parametrize(
        "command, option",
        [(c, o) for c in _POSITIONALS for o in _VALUES if o not in _READ[c]],
    )
    def test_option_a_command_does_not_read_exits_2(self, capsys, command, option):
        with pytest.raises(SystemExit) as exc:
            main([command, *_POSITIONALS[command], option, _VALUES[option]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(_POSITIONALS))
    def test_options_a_command_reads_parse(self, command):
        argv = [command, *_POSITIONALS[command]]
        for option in sorted(_READ[command]):
            argv += [option, _VALUES[option]]
        args = _build_parser().parse_args(argv)
        for option in _READ[command]:
            assert str(getattr(args, option[2:].replace("-", "_"))) == _VALUES[option]

    def test_defaults_come_from_tolerances(self):
        args = _build_parser().parse_args(["analyze", "l.json", "c.json"])
        defaults = Tolerances()
        assert (args.tol_rank, args.tol_grad, args.tol_align, args.depth) == (
            defaults.rank, defaults.grad_scale, defaults.align, defaults.depth
        )
        assert args.seed is None

    @pytest.mark.parametrize(
        "command, option, message", _BAD_OPTIONS, ids=[option[0] for _, option, _ in _BAD_OPTIONS]
    )
    def test_bad_option_names_its_flag_before_any_work(
        self, tmp_path, monkeypatch, capsys, command, option, message
    ):
        # the library named its parameter (detect_tol, n_samples, tolerance
        # grad_scale ...), and only after the documents were read; the files
        # here do not exist, so any work would fail on them first
        monkeypatch.chdir(tmp_path)
        assert fails(capsys, command, *_POSITIONALS[command], *option) == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, option, kind",
        [("trace", "--sing-tol", "float"), ("sample", "-n", "int"), ("analyze", "--depth", "int")],
    )
    def test_option_that_is_not_a_number_exits_2(self, capsys, command, option, kind):
        with pytest.raises(SystemExit) as exc:
            main([command, *_POSITIONALS[command], option, "abc"])
        assert exc.value.code == 2
        assert f"argument {option}: invalid {kind} value: 'abc'" in capsys.readouterr().err
