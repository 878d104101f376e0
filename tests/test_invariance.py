"""Property tests: a verdict and its rank do not change under a proper rigid
motion of the configuration combined with a reordering of the edges, nor
under a large translation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linkctl.classify import classify_configuration
from linkctl.demos import build_demo
from linkctl.model import Configuration, build_linkage

from conftest import assert_verdict_fits_rank


def _moved(linkage_doc, config_doc, angle, shift, perm):
    """Rotate by ``angle``, translate by ``shift`` and list the edges in the
    order ``perm``; ``base_link`` and platform branches follow their edges and
    every length is recomputed from the moved points."""
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    points = np.asarray(config_doc["points"]) @ rot.T + np.asarray(shift)
    new_index = {old: new for new, old in enumerate(perm)}
    doc = dict(linkage_doc)
    doc["edges"] = [dict(linkage_doc["edges"][old]) for old in perm]
    for edge in doc["edges"]:
        edge["length"] = float(np.linalg.norm(points[edge["u"]] - points[edge["v"]]))
    if doc.get("base_link") is not None:
        doc["base_link"] = new_index[doc["base_link"]]
    if doc.get("platform") is not None:
        doc["platform"] = dict(doc["platform"])
        doc["platform"]["branches"] = [[new_index[i] for i in b] for b in doc["platform"]["branches"]]
    return build_linkage(doc), Configuration(points)


# egsing takes about 0.7 s a classification, the others at most 0.1 s
@pytest.mark.parametrize(
    "name, examples",
    [
        ("four-bar-singular", 15),
        ("four-bar-regular", 15),
        ("five-bar", 15),
        ("egsing", 3),
        ("tri-platform-b", 10),
    ],
)
def test_verdict_invariant_under_rigid_motion_and_edge_order(name, examples):
    linkage_doc, config_doc = build_demo(name)
    expected = classify_configuration(build_linkage(linkage_doc), Configuration(config_doc["points"]))
    coordinate = st.floats(-3.0, 3.0)

    @settings(max_examples=examples, derandomize=True, deadline=None, database=None)
    @given(
        angle=st.floats(0.0, 2.0 * np.pi),
        shift=st.tuples(coordinate, coordinate),
        perm=st.permutations(range(len(linkage_doc["edges"]))),
    )
    def check(angle, shift, perm):
        linkage, config = _moved(linkage_doc, config_doc, angle, shift, perm)
        report = classify_configuration(linkage, config)
        assert report.verdict is expected.verdict
        assert (report.rank, report.k) == (expected.rank, expected.k)
        assert_verdict_fits_rank(report)

    assert_verdict_fits_rank(expected)
    check()


def _signature(report):
    return None if report.witness is None else report.witness.signature


# the hypothesis above draws shifts from [-3, 3]; the second-order layer must
# not depend on where the mechanism sits, however far from the origin
@pytest.mark.parametrize("shift", [(100.0, 100.0), (1000.0, 1000.0)])
@pytest.mark.parametrize("name", ["egsing", "four-bar-singular", "tri-platform-b"])
def test_verdict_invariant_under_far_translation(name, shift):
    linkage_doc, config_doc = build_demo(name)
    expected = classify_configuration(build_linkage(linkage_doc), Configuration(config_doc["points"]))
    linkage, config = _moved(linkage_doc, config_doc, 0.0, shift, range(len(linkage_doc["edges"])))
    report = classify_configuration(linkage, config)
    assert report.verdict is expected.verdict
    assert (report.rank, report.k) == (expected.rank, expected.k)
    assert _signature(report) == _signature(expected)
