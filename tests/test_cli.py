import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linkctl

from linkctl.cli import _build_parser, main
from linkctl.decomp import Tolerances
from linkctl.demos import DEMO_NAMES, build_demo
from linkctl.model import build_linkage


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
        assert main(["demo", "nope"]) == 1

    def test_all_demos_build(self):
        for name in DEMO_NAMES:
            linkage_doc, config_doc = build_demo(name)
            linkage = build_linkage(linkage_doc)
            assert len(config_doc["points"]) == linkage.n_vertices


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

    def test_malformed_json(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["analyze", str(bad), str(bad)]) == 1

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
        code = main(["analyze", lp, cp, *option])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and ">= 0, got" in captured.err

    def test_svg_written(self, demo_files, tmp_path, capsys):
        lp, cp = demo_files("four-bar-singular")
        out_svg = tmp_path / "fb.svg"
        run(capsys, "analyze", lp, cp, "--svg", str(out_svg))
        text = out_svg.read_text()
        assert text.startswith('<?xml version="1.0"')
        assert "<svg" in text and "</svg>" in text


class TestSampleCommand:
    def test_sample_and_determinism(self, demo_files, capsys):
        lp, _ = demo_files("four-bar-regular")
        code1, out1 = run(capsys, "sample", lp, "-n", "6", "--seed", "3")
        code2, out2 = run(capsys, "sample", lp, "-n", "6", "--seed", "3")
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["count"] >= 1

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

    @pytest.mark.parametrize("step", ["0", "-0.05"])
    def test_non_positive_step_exits_1(self, demo_files, capsys, step):
        lp, cp = demo_files("four-bar-regular")
        code = main(["trace", lp, cp, "--step", step, "--max-steps", "30"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: step must be positive and finite")

    @pytest.mark.parametrize("tol_rank", TOL_RANK_OUT_OF_RANGE)
    def test_tol_rank_out_of_range_exits_1(self, demo_files, capsys, tol_rank):
        lp, cp = demo_files("four-bar-regular")
        code = main(["trace", lp, cp, "--tol-rank", tol_rank, "--max-steps", "30"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: tol_rank must be finite and >= 0")

    @pytest.mark.parametrize(
        "option, message",
        [
            (("--max-steps", "-3"), "max_steps must be >= 0"),
            (("--sing-tol", "nan"), "detect_tol must be finite and >= 0"),
            (("--sing-tol", "inf"), "detect_tol must be finite and >= 0"),
            (("--sing-tol", "-1"), "detect_tol must be finite and >= 0"),
        ],
    )
    def test_out_of_range_option_exits_1(self, demo_files, capsys, option, message):
        # --max-steps -3 exited 0 with one point; --sing-tol nan switched detection off
        lp, cp = demo_files("four-bar-regular")
        code = main(["trace", lp, cp, *option])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

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
        code = main(["trace", lp, cp, "--svg", str(svg_path), "--px", axes[0], "--py", axes[1]])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: --px and --py must lie in [0, 8)")
        assert not svg_path.exists()


class TestWorkspaceCommand:
    def test_interval_mode(self, capsys):
        code, out = run(capsys, "workspace", "--lengths", "2,1")
        assert code == 0
        assert json.loads(out) == {"m": 1.0, "M": 3.0}

    @pytest.mark.parametrize("lengths", ["nan,1", "inf,1", "1,-2"])
    def test_bad_length_exits_1(self, capsys, lengths):
        # nan printed "M": NaN, which is not JSON
        code = main(["workspace", "--lengths", lengths])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: link lengths must be positive and finite")

    def test_five_bar_lens(self, demo_files, capsys):
        lp, _ = demo_files("five-bar")
        code, out = run(capsys, "workspace", lp)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["annuli"]) == 2
        assert doc["annuli"][0]["m"] == pytest.approx(1.0)
        assert doc["annuli"][0]["M"] == pytest.approx(4.0)
        assert len(doc["boundary"]) > 100

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
        src = str(Path(linkctl.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "linkctl.cli", "workspace", str(path)],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("error: lens workspace is implemented for cycle mechanisms")


class TestBranchesCommand:
    def test_node_branches(self, demo_files, capsys):
        lp, cp = demo_files("four-bar-singular")
        code, out = run(capsys, "branches", lp, cp, "--radius", "0.01", "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["branch_count"] == 4
        assert doc["stable"] is True

    @pytest.mark.parametrize(
        "option",
        [("--radius", "0"), ("--radius", "nan"), ("--samples", "-1"), ("--cluster-factor", "-1")]
        + [("--tol-rank", value) for value in TOL_RANK_OUT_OF_RANGE],
    )
    def test_out_of_range_option_exits_1(self, demo_files, capsys, option):
        lp, cp = demo_files("four-bar-singular")
        code = main(["branches", lp, cp, *option])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")

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
