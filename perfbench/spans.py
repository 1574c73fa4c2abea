"""In-memory span recorder for the benchmark's traced runs.

A span is one call into a wrapped entry point: its name, start, end and
the span that was open on the same thread when it began (its parent).
Spans stay in per-thread column arrays while the run goes on and are
written out once, when the run ends.  Self time is computed afterwards
from the recorded tree, never on the hot path.

Nothing here imports the package under test; ``layers.py`` decides what
gets wrapped.
"""

from __future__ import annotations

import functools
import gzip
import math
import threading
import time
from array import array
from collections import defaultdict


class _ThreadSpans:
    """Spans recorded by one thread, as parallel columns."""

    def __init__(self, thread_name: str):
        self.thread_name = thread_name
        self.names = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)


class Tracer:
    """Collects spans and counts from every thread of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans(threading.current_thread().name)
            self._local.spans = spans
            with self._lock:
                self._threads.append(spans)
        return spans

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def wrap(self, fn, name: str, on_return=None):
        """Return ``fn`` recording one span per call.

        ``on_return(counts, result, args)`` runs after the span closes,
        so what it costs is not charged to the layer.
        """
        name_id = self._name_id(name)
        clock = time.perf_counter
        spans_of = self._spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = spans_of()
            index = len(spans.starts)
            stack = spans.stack
            spans.names.append(name_id)
            spans.parents.append(stack[-1] if stack else -1)
            spans.starts.append(0.0)
            spans.ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.starts[index] = start
                spans.ends[index] = end
            if on_return is not None:
                on_return(spans.counts, result, args)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, total and self milliseconds; plus counts."""
        with self._lock:
            threads = list(self._threads)
        return merge_summaries(
            *(
                {
                    "layers": self_times(
                        [self.names[i] for i in spans.names],
                        spans.starts,
                        spans.ends,
                        spans.parents,
                    ),
                    "counts": spans.counts,
                }
                for spans in threads
            )
        )

    def write(self, path, process: str) -> None:
        """Write every span as one tab-separated row, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as out:
            out.write("process\tthread\tspan\tparent\tname\tstart_s\tend_s\n")
            for spans in self._threads:
                label = f"{process}\t{spans.thread_name}"
                names = self.names
                for i in range(len(spans.starts)):
                    out.write(
                        f"{label}\t{i}\t{spans.parents[i]}\t{names[spans.names[i]]}"
                        f"\t{spans.starts[i]:.9f}\t{spans.ends[i]:.9f}\n"
                    )


def self_times(names, starts, ends, parents) -> dict[str, dict[str, float]]:
    """Calls, total and self time (ms) per name for one span tree.

    ``parents[i]`` is the index of span i's parent, or -1.  Self time is
    a span's duration minus the part of its interval that its children
    cover: children are clipped to the parent and overlaps count once.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(i)
    out: dict[str, dict[str, float]] = {}
    for i, name in enumerate(names):
        start, end = starts[i], ends[i]
        covered = 0.0
        if i in children:
            intervals = sorted(
                (max(starts[c], start), min(ends[c], end)) for c in children[i]
            )
            run_start, run_end = intervals[0]
            for lo, hi in intervals[1:]:
                if lo > run_end:
                    covered += max(0.0, run_end - run_start)
                    run_start, run_end = lo, hi
                else:
                    run_end = max(run_end, hi)
            covered += max(0.0, run_end - run_start)
        row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += (end - start) * 1000.0
        row["self_ms"] += (end - start - covered) * 1000.0
    return out


def merge_summaries(*summaries: dict) -> dict:
    """Sum span and count summaries from several processes."""
    layers: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = defaultdict(float)
    for summary in summaries:
        for name, row in summary["layers"].items():
            into = layers.setdefault(
                name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
            )
            for key, value in row.items():
                into[key] += value
        for key, value in summary["counts"].items():
            counts[key] += value
    return {"layers": layers, "counts": dict(counts)}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1]
