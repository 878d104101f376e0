"""Span tracing of linkctl's layers from outside the package.

``Tracer.installed()`` replaces each traced function at every module
binding of it (``decomp`` binds ``reduced_work_data``, ``work_image`` and
``numerical_rank`` by name, ``cli`` binds ``classify_configuration``, the
package ``__init__`` re-exports most of them) and puts the originals back on
exit.  Internal calls that go through a module global, such as
``numeric._retract`` calling ``project_to_cspace``, are therefore traced too.

Spans (name, start, end, parent, outcome) are kept in flat arrays in memory;
self time and nesting counts are derived from them after the run.
"""

from __future__ import annotations

import contextlib
import functools
import types
from array import array
from time import perf_counter

import numpy as np

FAILED = -1.0


def _stage_kind(verdict) -> float:
    return float(("transverse", "generically_non_transverse", "degenerate_non_transverse").index(verdict.kind.value))


# (defining module, function, span name, outcome of a successful call)
TARGETS = (
    ("linkctl.model", "constraint_jacobian", "model.jacobian", None),
    ("linkctl.model", "constraint_residual", "model.residual", None),
    ("linkctl.numeric", "project_to_cspace", "numeric.project", None),
    ("linkctl.numeric", "tangent_frame", "numeric.tangent", None),
    ("linkctl.numeric", "work_image", "numeric.work_image", None),
    ("linkctl.numeric", "numerical_rank", "numeric.rank", None),
    ("linkctl.numeric", "reduced_work_data", "numeric.work_data", None),
    ("linkctl.numeric", "trace_curve", "numeric.trace", lambda r: float(len(r.points))),
    ("linkctl.numeric", "local_branch_count", "numeric.branches", lambda r: float(r.sample_count)),
    ("linkctl.decomp", "stage_classify", "decomp.stage", _stage_kind),
    ("linkctl.decomp", "enumerate_chain_removals", "decomp.removals", lambda r: float(len(r))),
    ("linkctl.decomp", "find_smoothness_certificate", "decomp.certificate", None),
    ("linkctl.decomp", "find_nontransversive_witness", "decomp.witness", None),
    ("linkctl.classify", "classify_configuration", "classify.classify", None),
    ("linkctl.classify", "platform_conditions", "classify.platform_conditions", None),
    ("linkctl.classify", "verify_platform_singularity", "classify.verify_platform", None),
    # The benchmark enters the CLI only through ``main(["analyze", ...])``.
    ("linkctl.cli", "main", "cli.analyze", None),
)
NAMES = tuple(t[2] for t in TARGETS)


class Tracer:
    """Records one span per call of every traced function."""

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outcome = array("d")
        self._stack = [-1]

    def _wrap(self, fn, name_id: int, outcome):
        name, parent, start, end, result_of, stack = (
            self.name, self.parent, self.start, self.end, self.outcome, self._stack,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            result_of.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = perf_counter()
                result_of[idx] = FAILED
                raise
            else:
                end[idx] = perf_counter()
                if outcome is not None:
                    result_of[idx] = outcome(result)
                return result
            finally:
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap every binding of every target in ``package`` (the imported
        linkctl package) and its submodules; restore them on exit."""
        modules = {package.__name__: package}
        modules.update(
            (m.__name__, m) for m in vars(package).values()
            if isinstance(m, types.ModuleType) and m.__name__.startswith(package.__name__ + ".")
        )
        wrappers = {}
        for name_id, (mod_name, attr, _, outcome) in enumerate(TARGETS):
            fn = getattr(modules[mod_name], attr)
            wrappers[id(fn)] = (fn, self._wrap(fn, name_id, outcome))
        replaced = []
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    replaced.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in replaced:
                setattr(module, attr, value)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.intc).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.intc).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "outcome": np.frombuffer(self.outcome, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())


class SpanTable:
    """Self time and nesting, derived from a tracer's spans."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        self.name, self.parent, self.outcome = a["name"], a["parent"], a["outcome"]
        dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self.self_s = dur - child
        # Bit set of the span names on the path to the root.  Parents are
        # recorded before their children, so a fixed point is reached after
        # as many passes as the deepest nesting.
        bit = np.left_shift(1, self.name)
        anc = np.zeros(dur.size, dtype=np.int64)
        while True:
            nxt = np.where(has_parent, anc[self.parent] | bit[self.parent], 0) if dur.size else anc
            if np.array_equal(nxt, anc):
                break
            anc = nxt
        self.ancestors = anc

    def _mask(self, span: str) -> np.ndarray:
        return self.name == NAMES.index(span)

    def calls(self, span: str) -> int:
        return int(np.sum(self._mask(span)))

    def self_time(self, span: str) -> float:
        return float(np.sum(self.self_s[self._mask(span)]))

    def failed(self, span: str) -> int:
        return int(np.sum(self._mask(span) & (self.outcome == FAILED)))

    def outcome_sum(self, span: str) -> float:
        m = self._mask(span) & (self.outcome != FAILED)
        return float(np.sum(self.outcome[m]))

    def outcome_count(self, span: str, value: float) -> int:
        return int(np.sum(self._mask(span) & (self.outcome == value)))

    def nested(self, span: str, inside: str) -> int:
        """Calls of ``span`` that have a ``inside`` span among their ancestors."""
        inside_bit = 1 << NAMES.index(inside)
        return int(np.sum(self._mask(span) & ((self.ancestors & inside_bit) != 0)))

    def per_call(self, span: str, inside: str) -> float:
        calls = self.calls(inside)
        return self.nested(span, inside) / calls if calls else 0.0
