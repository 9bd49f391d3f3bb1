"""Spans around calls into the public functions of sparsehg's layers.

The tracer wraps, from outside the package, every public module-level
function of ``builder``, ``freeness``, ``lrc``, ``batch`` and
``hypergraph``, and rebinds each one wherever a sparsehg module holds a
reference to it (``from .freeness import check_profile`` copies the name, so
patching ``freeness`` alone would miss the builder's calls).  Private helpers
such as ``_reduce``, ``_mask_vertices`` and ``_count_systems`` are not
wrapped: their time falls into their public caller's self time.

A span is ``[name, start, end, parent, op, counts]``: ``parent`` is the
index of the enclosing span (None at the top), ``op`` the operation id and
``counts`` the work counts read off the call's result.  Spans stay in memory
until the benchmark writes them out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

LAYERS = ("builder", "freeness", "lrc", "batch", "hypergraph")
PRIVATE_NOTE = (
    "private helpers (_reduce, _mask_vertices, _count_systems and the other "
    "underscore names) are not wrapped; their time is in their public caller's self time"
)

# work counts read off a wrapped call's result
COUNTERS = {
    "builder.sample": lambda h: {"sampled_edges": h.m},
    "builder.alter": lambda res: {
        "removed_edges": len(res[1].removed_edges),
        "bad_systems_before": res[1].w_before,
        "bad_systems_after": res[1].w_after,
    },
    "builder.construct": lambda res: {"output_edges": res.hypergraph.m},
    "freeness.span_bounded_systems": lambda found: {"systems_found": len(found)},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None  # spans are recorded only while an op is set
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        if self.op is None:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span[5] = count(result)
            return result

        return traced

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"sparsehg.{layer}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == module.__name__:
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name != "sparsehg" and not name.startswith("sparsehg."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapped[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()


def op_profile(spans: list[list], op: int) -> dict:
    """Per-name totals for one operation: ``incl`` (outermost spans only, so
    a recursive name is not counted twice), ``self`` (duration minus the
    direct children's durations), ``calls`` and summed ``counts``."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span[4] == op and span[3] is not None:
            child_time[span[3]] = child_time.get(span[3], 0.0) + span[2] - span[1]
    incl: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for idx, span in enumerate(spans):
        name, start, end, parent, span_op, span_counts = span
        if span_op != op:
            continue
        dur = end - start
        self_time[name] = self_time.get(name, 0.0) + dur - child_time.get(idx, 0.0)
        calls[name] = calls.get(name, 0) + 1
        for key, value in (span_counts or {}).items():
            counts[key] = counts.get(key, 0) + value
        outer = parent
        while outer is not None and spans[outer][0] != name:
            outer = spans[outer][3]
        if outer is None:
            incl[name] = incl.get(name, 0.0) + dur
    return {"incl": incl, "self": self_time, "calls": calls, "counts": counts}


def layer_metrics(profile: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one operation, as name -> (value, unit);
    a layer the operation never entered reads 0."""
    incl, self_time = profile["incl"], profile["self"]
    calls, counts = profile["calls"], profile["counts"]
    sampled = counts.get("sampled_edges", 0)
    return {
        "builder.sample_s": (incl.get("builder.sample", 0.0), "s"),
        "builder.alter_s": (incl.get("builder.alter", 0.0), "s"),
        "builder.alter_self_s": (self_time.get("builder.alter", 0.0), "s"),
        "builder.build_aux_s": (incl.get("builder.build_aux", 0.0), "s"),
        "builder.independent_set_s": (incl.get("builder.independent_set", 0.0), "s"),
        "builder.attempts": (calls.get("builder.sample", 0), "count"),
        "builder.sampled_edges": (sampled, "count"),
        "builder.removed_edges": (counts.get("removed_edges", 0), "count"),
        "builder.bad_systems_before": (counts.get("bad_systems_before", 0), "count"),
        "builder.bad_systems_after": (counts.get("bad_systems_after", 0), "count"),
        "builder.keep_ratio": (counts.get("output_edges", 0) / sampled if sampled else 0.0, "ratio"),
        "freeness.span_bounded_systems_s": (incl.get("freeness.span_bounded_systems", 0.0), "s"),
        "freeness.span_bounded_systems_calls": (calls.get("freeness.span_bounded_systems", 0), "count"),
        "freeness.systems_found": (counts.get("systems_found", 0), "count"),
        "freeness.check_profile_s": (incl.get("freeness.check_profile", 0.0), "s"),
        "freeness.check_profile_calls": (calls.get("freeness.check_profile", 0), "count"),
        "freeness.check_free_calls": (calls.get("freeness.check_free", 0), "count"),
        "lrc.min_distance_s": (incl.get("lrc.min_distance", 0.0), "s"),
        "lrc.rank_s": (incl.get("lrc.rank", 0.0), "s"),
        "lrc.parity_check_s": (incl.get("lrc.parity_check", 0.0), "s"),
        "batch.check_cbc_s": (incl.get("batch.check_cbc", 0.0), "s"),
        "hypergraph.serialize_hg_s": (incl.get("hypergraph.serialize_hg", 0.0), "s"),
        "hypergraph.parse_hg_s": (incl.get("hypergraph.parse_hg", 0.0), "s"),
        "cli.self_s": (self_time.get("cli.main", 0.0), "s"),
    }
