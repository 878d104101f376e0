"""Command-line front end.

    linkctl analyze   linkage.json config.json [--branches] [--svg out.svg]
    linkctl sample    linkage.json -n 20 [--svg out.svg]
    linkctl trace     linkage.json config.json [--step S] [--svg out.svg --px I --py J]
    linkctl workspace (--lengths 2,1 | linkage.json) [--svg out.svg]
    linkctl branches  linkage.json config.json [--radius R]
    linkctl demo      <name>

Reports are JSON on stdout.  ``analyze`` prints the classification report
(``ClassificationReport.to_json_dict``) with a ``branch_report`` key before
``notes``: null, or with --branches the ``local_branch_count`` report that
``branches`` prints, taken after the classification.  ``analyze`` exits 0
for Smooth, 10 for GenericSingular, 20 for Indeterminate, 30 for Conflict, a
search result that contradicts the rank (a certificate at a rank-deficient
configuration); all commands exit 1 on errors, with the message on stderr.
A command writes its files (the --svg drawing, the demo documents) first and
returns its report, which ``main`` alone writes to stdout, last: so every exit
1 leaves stdout empty, a failed SVG write included.
A bad input raises InvalidSpec, and only LinkctlError and OSError are
reported: a file that is not JSON, points that are not a nonempty list of
rows of equal length (``[]``, ``5``, a string, a flat or a deeper list,
ragged rows), a coordinate that is not a finite JSON number or is too large
for a float, and a non-numeric or empty --lengths entry (``--lengths ''``
too) each raise InvalidSpec naming the file or the option, and such a
length names the edge.
Every numeric option but --px and --py, whose range is the configuration's,
is checked under its own flag as the arguments are parsed, before any work: a
value outside its range exits 1 naming the flag (``--sing-tol must be finite
and >= 0, got -1.0``), and text that is not a number keeps argparse's exit 2.
The seed comes from --seed, falling back to LINKCTL_SEED (an integer >= 0,
named when it is not), which ``analyze`` reads only under --branches.
``workspace`` given both --lengths and a linkage document exits 1, and so
does --lengths whose sum overflows a float.  The
lens's two arms are open chains of the graph (``MechanismType.chain_removals``),
from the base vertex and from the base link's far end to the effector, off
the base link.

``--svg`` draws planar linkages only: ``analyze`` and ``sample`` given a
3-D linkage exit 1 before any work.  ``trace --svg`` plots flat coordinates
--px and --py of the traced points, which have the base vertex at the
origin and the base link along +x; they default to the x and y of the first
vertex that is neither the base vertex nor the far end of the base link,
and ``trace`` rejects either outside the flat coordinates, even without --svg.

A linkage document is a JSON object:

    {
      "dim": 2,                                      2 or 3
      "vertices": 4,                                 vertex ids are 0 .. vertices-1
      "edges": [{"u": 0, "v": 1, "length": 3.0}, ...],
      "base": 0,                                     optional, default 0
      "base_link": 0,                                optional edge index at the base
      "effector": 2,                                 optional work vertex, not the base
      "platform": {                                  optional, planar platforms only
        "branches": [[6, 7], [8, 9], [10, 11]],      per branch, edges from its fixed anchor
        "fixed": [0, 1, 2],                          the fixed triangle's vertices
        "moving": [3, 4, 5]                          the moving triangle's vertices
      }
    }

Every count and id is an integer (2.0 reads as 2; 2.5, true or "2" is
rejected), every length and coordinate is a JSON number (true or "3.0" is
rejected), every length is positive and at most sqrt(float max), about
1.34e154, so that its square is finite, every coordinate is finite
(null, NaN or Infinity is rejected), and the edge order fixes the order of
the constraint rows.  Lengths are fixed: an edge with a "prismatic" key is
rejected, and a prismatic chain is analyzed one fiber at a time, each fiber
a linkage document with the variable link's length fixed.  A configuration
document is
``{"points": [[x, y], ...]}``, one point of ``dim`` coordinates per vertex.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .classify import Verdict, classify_configuration
from .decomp import Tolerances
from .demos import DEMO_NAMES, build_demo
from .errors import InvalidSpec, LinkctlError
from .model import Configuration, Linkage, build_linkage, check_integer, check_match, check_real, check_tol_rank
from .chains import _check_angle, workspace_interval
from .numeric import local_branch_count, sample_cspace, trace_curve
from . import svg

_EXIT_BY_VERDICT = {
    Verdict.SMOOTH: 0,
    Verdict.GENERIC_SINGULAR: 10,
    Verdict.INDETERMINATE: 20,
    Verdict.CONFLICT: 30,
}


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidSpec(f"{path} is not a JSON document: {exc}") from None


def _bad_coordinates(points, not_numbers: str) -> list:
    """The coordinates of ``points`` that are not finite JSON numbers, in
    document order.  Raises InvalidSpec, quoting the entry, when ``points`` is
    not a nonempty list or one of its rows is not a list."""
    if type(points) is not list or not points:
        raise InvalidSpec(f"{not_numbers} (got {points!r})")
    bad = []
    for row in points:
        if type(row) is not list:
            raise InvalidSpec(f"{not_numbers} (got {row!r})")
        bad += [x for x in row if type(x) not in (int, float) or not -math.inf < x < math.inf]
    return bad


def _load_pair(linkage_path: str, config_path: str) -> tuple[Linkage, Configuration]:
    linkage = build_linkage(_load_json(linkage_path))
    doc = _load_json(config_path)
    try:
        points = doc["points"]
    except (KeyError, TypeError) as exc:
        raise InvalidSpec(f"malformed configuration document: {exc}") from exc
    not_numbers = f"{config_path}: points must be an (N, d) array of numbers"
    # numpy reads null as NaN, true or "1" as numbers and a string, flat or
    # deeper list as an array of another shape; only a string coordinate is
    # left to numpy, whose message quotes one it cannot read
    bad = _bad_coordinates(points, not_numbers)
    if bad and type(bad[0]) is not str:
        raise InvalidSpec(f"{not_numbers} (got {bad[0]!r})")
    try:
        points = np.array(points, dtype=float)
    except (ValueError, OverflowError) as exc:  # ragged, non-numeric or too large points
        raise InvalidSpec(f"{not_numbers} ({exc})") from None
    if bad:
        raise InvalidSpec(f"{not_numbers} (got {bad[0]!r})")
    config = Configuration(points)
    check_match(linkage, config)
    return linkage, config


def _check_planar_svg(args: argparse.Namespace, linkage: Linkage) -> None:
    """Fail before any work when --svg asks to draw a non-planar linkage."""
    if args.svg and linkage.ambient_dim != 2:
        raise InvalidSpec("SVG rendering is implemented for planar linkages")


def _tolerances(args: argparse.Namespace) -> Tolerances:
    return Tolerances(
        rank=args.tol_rank,
        align=args.tol_align,
        grad_scale=args.tol_grad,
        depth=args.depth,
    )


def _seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("LINKCTL_SEED")
    try:
        seed = int(env) if env else 0
    except ValueError:
        raise InvalidSpec(f"LINKCTL_SEED must be an integer, got {env!r}") from None
    return check_integer(seed, "LINKCTL_SEED", 0)


def _cmd_analyze(args: argparse.Namespace) -> tuple[dict, int]:
    linkage, config = _load_pair(args.linkage, args.config)
    _check_planar_svg(args, linkage)
    tols = _tolerances(args)
    seed = _seed(args) if args.branches else None
    report = classify_configuration(linkage, config, tols)
    doc = report.to_json_dict()
    notes = doc.pop("notes")
    doc["branch_report"] = None
    if args.branches:
        branches = local_branch_count(linkage, config, seed=seed, tol_rank=tols.rank)
        doc["branch_report"] = branches.to_json_dict()
    doc["notes"] = notes
    if args.svg:
        svg.render_linkage(linkage, [config], args.svg)
    return doc, _EXIT_BY_VERDICT[report.verdict]


def _cmd_sample(args: argparse.Namespace) -> tuple[dict, int]:
    linkage = build_linkage(_load_json(args.linkage))
    _check_planar_svg(args, linkage)
    samples = sample_cspace(linkage, args.n, seed=_seed(args))
    if args.svg:
        svg.render_linkage(linkage, samples, args.svg)
    return {
        "count": len(samples),
        "attempts": args.n,
        "samples": [s.points.tolist() for s in samples],
    }, 0


def _cmd_trace(args: argparse.Namespace) -> tuple[dict, int]:
    linkage, config = _load_pair(args.linkage, args.config)
    # by default the x and y of the first vertex the gauge leaves free (vertex
    # 0 when it pins them all): the traced points put the base vertex at the
    # origin and the base link on +x
    pinned = (linkage.base_vertex, linkage._base_link_end)
    free = next((v for v in range(linkage.n_vertices) if v not in pinned), 0)
    px = free * linkage.ambient_dim if args.px is None else args.px
    py = free * linkage.ambient_dim + 1 if args.py is None else args.py
    coords = config.flat.size
    if not (0 <= px < coords and 0 <= py < coords):  # the defaults always lie inside
        raise InvalidSpec(f"--px and --py must lie in [0, {coords}), got {px} and {py}")
    result = trace_curve(
        linkage,
        config,
        step=args.step,
        max_steps=args.max_steps,
        tol_rank=args.tol_rank,
        detect_tol=args.sing_tol,
    )
    if args.svg:
        flat = np.array([p.flat for p in result.points])
        svg.render_curve(flat[:, [px, py]], args.svg, closed=result.closed)
    return {
        "points": [p.points.tolist() for p in result.points],
        "stop_reason": result.stop_reason,
        "closed": result.closed,
    }, 0


def _two_anchor_chains(linkage: Linkage) -> tuple[np.ndarray, list[float], np.ndarray, list[float]]:
    """The lens's two arms of a cycle, anchored at the base vertex (origin) and the base
    link's far end (on +x): from each anchor, the lengths of the ``graph.chain_removals``
    entry that runs off the base link to the effector, listed from the anchor on."""
    if linkage.base_link is None or linkage.end_effector is None:
        raise InvalidSpec("workspace of a linkage needs base_link and effector")
    graph = linkage.graph
    if not graph.is_connected() or any(graph.degree(v) != 2 for v in range(linkage.n_vertices)):
        raise InvalidSpec("lens workspace is implemented for cycle mechanisms")
    ground, far, effector = linkage.base_link, linkage._base_link_end, linkage.end_effector
    if effector == far:
        raise InvalidSpec(f"lens workspace needs an effector off the base link, not its far end {far}")

    def arm(anchor: int) -> list[float]:
        chains = graph.chain_removals.values()
        chain = next(r for r in chains if {*r.endpoints} == {anchor, effector} and ground not in r.chain_edges)
        return [linkage.lengths[i] for i in chain.chain_edges[:: 1 if chain.endpoints[0] == anchor else -1]]

    return np.array([0.0, 0.0]), arm(linkage.base_vertex), np.array([linkage.lengths[ground], 0.0]), arm(far)


def _cmd_workspace(args: argparse.Namespace) -> tuple[dict, int]:
    if args.lengths is not None and args.linkage:
        raise InvalidSpec(f"workspace takes --lengths {args.lengths!r} or {args.linkage}, not both")
    if args.lengths is not None:
        try:
            lengths = [float(x) for x in args.lengths.split(",")]
        except ValueError:
            raise InvalidSpec(f"--lengths must be comma-separated numbers, got {args.lengths!r}") from None
        m, big = workspace_interval(lengths)
        if args.svg:
            svg.render_workspace([(np.zeros(2), m, big)], None, args.svg)
        return {"m": m, "M": big}, 0
    if not args.linkage:
        raise InvalidSpec("workspace needs --lengths or a linkage document")
    linkage = build_linkage(_load_json(args.linkage))
    ca, chain_a, cb, chain_b = _two_anchor_chains(linkage)
    ma, fa = workspace_interval(chain_a)
    mb, fb = workspace_interval(chain_b)

    # each circle at the angles 2*pi*i/720, kept where it lies in the other annulus
    ang = 2.0 * np.pi * np.arange(720) / 720
    unit = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    boundary = []
    pairs = ((ca, (ma, fa), cb, mb, fb), (cb, (mb, fb), ca, ma, fa))
    for center, radii, other_c, other_lo, other_hi in pairs:
        for q in (center + radius * unit for radius in radii if radius > 0):
            dist = np.sqrt(np.add.reduce((q - other_c) ** 2, axis=1))  # np.linalg.norm of each
            boundary += q[(other_lo - 1e-9 <= dist) & (dist <= other_hi + 1e-9)].tolist()
    if args.svg:
        svg.render_workspace(
            [(ca, ma, fa), (cb, mb, fb)], np.array(boundary) if boundary else None, args.svg
        )
    return {
        "annuli": [
            {"center": ca.tolist(), "m": ma, "M": fa},
            {"center": cb.tolist(), "m": mb, "M": fb},
        ],
        "boundary": boundary,
    }, 0


def _cmd_branches(args: argparse.Namespace) -> tuple[dict, int]:
    linkage, config = _load_pair(args.linkage, args.config)
    report = local_branch_count(
        linkage,
        config,
        radius=args.radius,
        n_samples=args.samples,
        seed=_seed(args),
        cluster_factor=args.cluster_factor,
        tol_rank=args.tol_rank,
    )
    return report.to_json_dict(), 0


def _cmd_demo(args: argparse.Namespace) -> tuple[dict, int]:
    paths = {}
    for kind, doc in zip(("linkage", "config"), build_demo(args.name)):
        paths[kind] = f"{args.name}.{kind}.json"
        with open(paths[kind], "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return paths, 0


def _option(parser: argparse.ArgumentParser, flag: str, parse, check, *rule, **kwargs) -> None:
    """Add ``flag``, its text read by ``parse`` and then checked by ``check``
    (with ``rule``) under the flag's own name as the arguments are parsed,
    before any work.  Text that ``parse`` cannot read keeps argparse's exit 2."""

    def read(text: str):
        return check(parse(text), flag, *rule)

    read.__name__ = parse.__name__  # argparse's "invalid float value" names the type
    parser.add_argument(flag, type=read, **kwargs)


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves the parser unchanged, and the
    # LINKCTL_SEED fallback is read at command time, in _seed.
    # Option groups, each given only to the subcommands that read it; the
    # defaults are the library's.
    defaults = Tolerances()
    rank = argparse.ArgumentParser(add_help=False)
    _option(rank, "--tol-rank", float, check_tol_rank, default=defaults.rank, help="relative rank cutoff, below 1")
    seed = argparse.ArgumentParser(add_help=False)
    _option(seed, "--seed", int, check_integer, 0, default=None, help="RNG seed (default LINKCTL_SEED or 0)")
    search = argparse.ArgumentParser(add_help=False)
    _option(
        search, "--tol-grad", float, check_real, default=defaults.grad_scale, help="gradient tolerance scale"
    )
    _option(
        search, "--tol-align", float, _check_angle, default=defaults.align, help="alignment tolerance (radians)"
    )
    _option(
        search, "--depth", int, check_integer, 0, default=defaults.depth, help="decomposition search depth"
    )

    parser = argparse.ArgumentParser(prog="linkctl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[rank, seed, search], help="classify a configuration")
    p.add_argument("linkage")
    p.add_argument("config")
    p.add_argument("--branches", action="store_true", help="include a local branch count")
    p.add_argument("--svg", help="render the configuration to an SVG file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sample", parents=[seed], help="draw random configurations")
    p.add_argument("linkage")
    _option(p, "-n", int, check_integer, 1, default=20, help="number of attempts")
    p.add_argument("--svg", help="render the samples to an SVG file")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("trace", parents=[rank], help="trace the solution curve")
    p.add_argument("linkage")
    p.add_argument("config")
    _option(p, "--step", float, check_real, True, default=0.05)
    _option(p, "--max-steps", int, check_integer, 0, default=2000)
    _option(p, "--sing-tol", float, check_real, default=1e-4, help="singularity proximity cutoff")
    p.add_argument("--svg", help="render the traced curve to an SVG file")
    free = "of the first vertex the gauge leaves free"
    p.add_argument("--px", type=int, help=f"flat coordinate for the SVG x axis (default: x {free})")
    p.add_argument("--py", type=int, help=f"flat coordinate for the SVG y axis (default: y {free})")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("workspace", help="reachable interval or lens")
    p.add_argument("linkage", nargs="?", help="cycle linkage document (lens mode)")
    p.add_argument("--lengths", help="comma-separated open-chain lengths (interval mode)")
    p.add_argument("--svg", help="render annuli and boundary to an SVG file")
    p.set_defaults(func=_cmd_workspace)

    p = sub.add_parser("branches", parents=[rank, seed], help="count local solution branches")
    p.add_argument("linkage")
    p.add_argument("config")
    _option(p, "--radius", float, check_real, True, default=None)
    _option(p, "--samples", int, check_integer, 1, default=48)
    _option(p, "--cluster-factor", float, check_real, True, default=0.25)
    p.set_defaults(func=_cmd_branches)

    p = sub.add_parser("demo", help="write a demo mechanism to cwd")
    p.add_argument("name", help=f"one of: {', '.join(DEMO_NAMES)}")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        report, code = args.func(args)
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
        return code
    except (LinkctlError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
