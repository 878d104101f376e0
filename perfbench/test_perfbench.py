"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import signal
import time

import numpy as np
import pytest

import inputs
import run
from refclock import REF_NOMINAL_S, RefClock
from tracing import TARGETS, SpanTable, Tracer


@pytest.fixture(scope="module")
def env():
    return run.setup()


@pytest.fixture(scope="module")
def expected():
    return run.load_expected()


def _problems(env, expected, task):
    stats = run.Stats()
    run.run_task(env, expected, task, stats)
    return stats.problems


def test_mutated_verdict_fails_compare(env, expected):
    task = ("analyze", "four-bar-singular", 3)
    assert _problems(env, expected, task) == []
    mutated = copy.deepcopy(expected)
    mutated["analyze"]["four-bar-singular/3"]["verdict"] = "Smooth"
    assert _problems(env, mutated, task)


def test_variant_verdict_must_match_demo(env, expected):
    mutated = copy.deepcopy(expected)
    mutated["analyze"]["four-bar-singular/0"]["rank"] = [4, 4]
    assert any("differs from the demo" in p for p in _problems(env, mutated, ("analyze", "four-bar-singular", 5)))


def test_mutated_count_makes_run_exit_nonzero(monkeypatch, capsys, expected):
    mutated = copy.deepcopy(expected)
    for fingerprint in mutated["branches"].values():
        fingerprint["sample_count"] += 1
    monkeypatch.setattr(run, "load_expected", lambda: mutated)
    code = run.main(["--workload", "continue", "--seed", "3", "--seconds", "0.1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False


def test_run_prints_every_end_to_end_metric(capsys):
    code = run.main(["--workload", "continue", "--seed", "4", "--seconds", "0.1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads(run.SPEC.read_text())
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert [m["name"] for m in spec["end_to_end"]] == list(result["metrics"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["egsing", "five-bar", "four-bar-regular", "four-bar-singular",
                                  "tri-platform-a", "tri-platform-b"])
def test_variants_lie_on_their_constraint_set(env, name):
    base_doc, _ = env.lk.demos.build_demo(name)
    base_pairs = sorted(sorted((e["u"], e["v"])) for e in base_doc["edges"])
    for item in range(1, inputs.demo_pool_size(name)):
        ldoc, cdoc = inputs.demo_item(env.lk.demos.build_demo, name, item)
        linkage = env.lk.model.build_linkage(ldoc)
        assert run._max_residual(linkage, cdoc["points"]) < 1e-12 * linkage.length_scale**2
        assert sorted(sorted(e) for e in linkage.graph.edges) == base_pairs
        base_link = linkage.graph.edges[linkage.base_link]
        assert sorted(base_link) == sorted((base_doc["edges"][base_doc["base_link"]][k] for k in "uv"))
        if "platform" in base_doc:
            for old, new in zip(base_doc["platform"]["branches"], ldoc["platform"]["branches"]):
                old_pairs = [sorted((base_doc["edges"][i]["u"], base_doc["edges"][i]["v"])) for i in old]
                assert [sorted(linkage.graph.edges[i]) for i in new] == old_pairs


def test_node_items_lie_on_their_constraint_set(env):
    for item in range(inputs.NODE_POOL):
        ldoc, cdoc = inputs.node_item(item)
        linkage = env.lk.model.build_linkage(ldoc)
        assert run._max_residual(linkage, cdoc["points"]) < 1e-12 * linkage.length_scale**2


def _bindings(env):
    mods = [env.lk.package, env.lk.cli, env.lk.classify, env.lk.decomp, env.lk.model, env.lk.numeric]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def test_tracer_wraps_every_binding_and_restores_it(env):
    before = _bindings(env)
    with Tracer().installed(env.lk.package):
        during = _bindings(env)
        for mod, attr in [("linkctl.numeric", "project_to_cspace"), ("linkctl.decomp", "reduced_work_data"),
                          ("linkctl.decomp", "work_image"), ("linkctl.decomp", "numerical_rank"),
                          ("linkctl.cli", "classify_configuration"), ("linkctl", "stage_classify")]:
            assert during[(mod, attr)] is not before[(mod, attr)]
            assert during[(mod, attr)].__wrapped__ is before[(mod, attr)]
    wrapped = [k for k in before if during[k] is not before[k]]
    assert {k[1] for k in wrapped} >= {attr for _, attr, _, _ in TARGETS}
    after = _bindings(env)
    assert all(after[k] is v for k, v in before.items())


def test_self_time_partitions_the_traced_time(env):
    linkage, config = env.platform["tri-platform-b/0"]
    tracer = Tracer()
    with tracer.installed(env.lk.package):
        env.lk.classify.classify_configuration(linkage, config)
    spans = SpanTable(tracer)
    a = tracer.arrays()
    roots = a["parent"] < 0
    assert roots.sum() == 1 and spans.calls("classify.classify") == 1
    assert np.isclose(spans.self_s.sum(), (a["end"] - a["start"])[roots].sum(), rtol=1e-9)
    assert np.all(spans.self_s >= -1e-9)
    assert spans.nested("numeric.project", "numeric.work_data") == spans.calls("numeric.project")


def test_refclock_scales_by_the_kernel_and_restores_the_timer():
    clock = RefClock()
    previous = signal.getsignal(signal.SIGALRM)
    with clock.periodic():
        assert signal.getitimer(signal.ITIMER_REAL)[1] > 0
        clock.begin()
        t0, w0 = clock.now(), time.perf_counter()
        while time.perf_counter() - w0 < 0.3:
            pass
        busy = clock.now() - t0
        scale = clock.scale()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    # Timer samples ran during the loop and their time is not in now().
    assert len(clock.samples) > 3 and busy < time.perf_counter() - w0
    assert REF_NOMINAL_S / max(clock.samples) <= scale <= REF_NOMINAL_S / min(clock.samples)
