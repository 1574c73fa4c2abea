"""Tests of the benchmark itself: span arithmetic, percentiles, repeatability.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from spans import Tracer, merge_summaries, percentile, self_times

RUN = Path(__file__).resolve().parent / "run.py"

#: Counts that depend only on the model, never on timing.
MODEL_COUNTS = (
    "gen2.rounds",
    "gen2.slots",
    "gen2.singulation_ratio",
    "gen2.collision_ratio",
    "tag.brownouts",
    "reader.access.attempts",
    "reader.access.retries",
    "wisent.frames",
    "wisent.retry_ratio",
)


def test_self_time_subtracts_the_union_of_clipped_children():
    # root [0, 10]; a [1, 4] and b [3, 6] overlap; a has child [2, 3];
    # c [8, 12] runs past the root and is clipped to [8, 10].
    names = ["root", "a", "b", "a.child", "c"]
    starts = [0.0, 1.0, 3.0, 2.0, 8.0]
    ends = [10.0, 4.0, 6.0, 3.0, 12.0]
    parents = [-1, 0, 0, 1, 0]
    rows = self_times(names, starts, ends, parents)
    seconds = {name: row["self_ms"] / 1000.0 for name, row in rows.items()}
    assert seconds == pytest.approx(
        {"root": 10 - 5 - 2, "a": 3 - 1, "b": 3, "a.child": 1, "c": 4}
    )
    assert rows["root"]["total_ms"] == pytest.approx(10_000.0)
    assert all(row["calls"] == 1 for row in rows.values())


def test_self_time_sums_over_calls_of_one_name():
    rows = self_times(["f", "f", "g"], [0.0, 2.0, 2.5], [1.0, 4.0, 3.0], [-1, -1, 1])
    assert rows["f"]["calls"] == 2
    assert rows["f"]["self_ms"] == pytest.approx(1000.0 + 2000.0 - 500.0)


def test_tracer_records_nesting_and_merges_threads():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(1) == 4
    summary = tracer.summary()
    layers = summary["layers"]
    assert layers["outer"]["calls"] == layers["inner"]["calls"] == 1
    assert layers["outer"]["self_ms"] <= layers["outer"]["total_ms"]
    assert layers["outer"]["self_ms"] == pytest.approx(
        layers["outer"]["total_ms"] - layers["inner"]["total_ms"]
    )
    doubled = merge_summaries(summary, summary)
    assert doubled["layers"]["inner"]["calls"] == 2


def test_percentile_is_nearest_rank():
    sample = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(sample, 50) == 50
    assert percentile(sample, 90) == 90
    assert percentile(sample, 99) == 99
    assert percentile(sample, 100) == 100
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def _traced(workload: str, seed: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["inventory-survey", "reprogram-local"])
def test_one_seed_gives_identical_digests_and_model_counts(workload):
    first_info, first = _traced(workload, 11)
    second_info, second = _traced(workload, 11)
    assert first["correct"] and second["correct"]
    assert first_info["digests"] and first_info["digests"] == second_info["digests"]
    for name in MODEL_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
