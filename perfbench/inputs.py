"""Seeded inputs for the linkctl benchmark, and the fingerprints of outputs.

Every input the workloads can draw sits in a finite pool indexed by an
integer id.  A pool item is a pure function of its id, so ``expected.json``
(written by ``record.py``) holds the outputs of every item, and a run with
any workload seed can be checked exactly: the workload seed only chooses
which pool ids are run and in what order.

Linkage and configuration documents follow the CLI JSON schema; nothing here
imports linkctl, so the same generators serve ``run.py``, ``record.py`` and
the tests.
"""

from __future__ import annotations

import numpy as np

# Pool sizes.  A tri-platform-a classification takes seconds, so its pool is
# the smallest.
DEMO_POOL = {"tri-platform-a": 8}
DEFAULT_DEMO_POOL = 16
SAMPLE_SEEDS = 128          # sample_cspace seeds recorded per linkage
SAMPLE_ATTEMPTS = 25        # attempts per sample_cspace call
SAMPLE_LINKAGES = ("tri-platform-a", "egsing", "four-bar-regular")
FOURBAR_POOL = 64           # generic four-bars traced around their loop
NODE_POOL = 64              # four-bars placed at their fully aligned node
EGSING_STARTS = 16          # egsing trace starts
BRANCH_SEEDS = 16           # local_branch_count seeds at the demo configurations
BRANCH_DEMOS = ("four-bar-singular", "egsing", "tri-platform-b")

TRACE_STEP = 0.05
TRACE_MAX_STEPS = 2000
TRACE_RESIDUAL_BOUND = 1e-9
SAMPLE_RESIDUAL_BOUND = 1e-10

# Salts keep the substreams of different pools apart.
_VARIANT_SALT = 1
_FOURBAR_SALT = 2
_NODE_SALT = 3

_CYCLE = ((0, 1), (1, 2), (2, 3), (3, 0))


def demo_pool_size(name: str) -> int:
    return DEMO_POOL.get(name, DEFAULT_DEMO_POOL)


def variant(linkage_doc: dict, config_doc: dict, rng: np.random.Generator) -> tuple[dict, dict]:
    """Move a demo by a random proper rigid motion and permute its edges.

    ``base_link`` and the platform ``branches`` are remapped to the new edge
    indices, and every length is recomputed from the moved points, so the
    variant lies on its constraint set to roundoff.
    """
    pts = np.asarray(config_doc["points"], dtype=float)
    d = pts.shape[1]
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    moved = pts @ q.T + rng.uniform(-3.0, 3.0, d)

    edges = linkage_doc["edges"]
    perm = rng.permutation(len(edges))
    new_index = np.empty(len(edges), dtype=int)
    new_index[perm] = np.arange(len(edges))

    doc = dict(linkage_doc)
    doc["edges"] = []
    for old in perm:
        edge = dict(edges[old])
        edge["length"] = float(np.linalg.norm(moved[edge["u"]] - moved[edge["v"]]))
        doc["edges"].append(edge)
    if linkage_doc.get("base_link") is not None:
        doc["base_link"] = int(new_index[linkage_doc["base_link"]])
    if linkage_doc.get("platform") is not None:
        platform = dict(linkage_doc["platform"])
        platform["branches"] = [[int(new_index[i]) for i in b] for b in platform["branches"]]
        doc["platform"] = platform
    return doc, {"points": moved.tolist()}


def demo_item(build_demo, name: str, item: int) -> tuple[dict, dict]:
    """Pool item of a demo: id 0 is the demo itself, the others are variants."""
    linkage_doc, config_doc = build_demo(name)
    if item == 0:
        return linkage_doc, config_doc
    rng = np.random.default_rng([_VARIANT_SALT, item, *name.encode()])
    return variant(linkage_doc, config_doc, rng)


def _four_bar_doc(lengths) -> dict:
    return {
        "dim": 2,
        "vertices": 4,
        "edges": [{"u": u, "v": v, "length": float(x)} for (u, v), x in zip(_CYCLE, lengths)],
        "base": 0,
        "base_link": 0,
        "effector": 2,
    }


def _signed_sums(lengths) -> list[float]:
    """|l1 ± l2 ± l3 ± l4| for the eight sign patterns, ascending; a zero
    means the four-bar has an aligned pose with that pattern."""
    l1, l2, l3, l4 = lengths
    return sorted(
        abs(a * l1 + b * l2 + c * l3 + l4)
        for a in (1, -1) for b in (1, -1) for c in (1, -1)
    )


def fourbar_item(item: int) -> dict:
    """A four-bar whose configuration space is a smooth curve (no aligned pose)."""
    rng = np.random.default_rng([_FOURBAR_SALT, item])
    while True:
        lengths = rng.uniform(1.0, 3.0, 4)
        if _signed_sums(lengths)[0] > 0.3:
            return _four_bar_doc(lengths)


def node_item(item: int) -> tuple[dict, dict]:
    """A four-bar at its fully aligned node (l1 + l3 = l2 + l4), rigidly moved.

    Only the node's own sign pattern sums to zero; every other pattern stays
    at least 0.3 away, and the four points are at least 0.3 apart.
    """
    rng = np.random.default_rng([_NODE_SALT, item])
    while True:
        l1 = rng.uniform(2.0, 3.5)
        l2 = rng.uniform(1.0, l1 - 0.3)
        l3 = rng.uniform(0.8, 2.0)
        xs = np.array([0.0, l1, l1 - l2, l1 - l2 + l3])
        lengths = (l1, l2, l3, xs[3])
        gaps = np.abs(xs[:, None] - xs[None, :])[np.triu_indices(4, 1)]
        if _signed_sums(lengths)[1] > 0.3 and gaps.min() > 0.3:
            break
    doc = _four_bar_doc(lengths)
    pts = np.stack([xs, np.zeros(4)], axis=1)
    return variant(doc, {"points": pts.tolist()}, rng)


def key(name: str, item: int) -> str:
    return f"{name}/{item}"


def verdict_fingerprint(report: dict, exit_code) -> dict:
    """The exact part of a classification report.

    Float eigenvalues, gradient norms and the free-text notes are left out:
    they are not byte-stable and are not part of the verdict.
    """
    witness = report["witness"]
    if witness is not None:
        witness = {k: witness[k] for k in ("stages", "stage_index", "signature", "euclidean_factor")}
    return {
        "verdict": report["verdict"],
        "rank": report["rank"],
        "exit_code": exit_code,
        "witness": witness,
        "certificate": report["certificate"],
    }


def branch_fingerprint(report) -> dict:
    return {
        "branch_count": report.branch_count,
        "sample_count": report.sample_count,
        "stable": report.stable,
    }


def trace_fingerprint(result) -> dict:
    return {"stop_reason": result.stop_reason, "closed": result.closed}
