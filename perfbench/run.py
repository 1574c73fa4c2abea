"""The tpcbed benchmark: four workloads against the package's public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Paths are resolved from this file, so any working directory works.
``--trace 0`` measures the end-to-end metrics for ``--seconds`` with
nothing wrapped.  ``--trace 1`` runs one fixed pass of the workload
untraced, then the same pass with every layer entry point wrapped
(``layers.py``), and reports the per-layer metrics and the tracing
overhead.  Either way the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the output digests and sample counts.

Every op's seed comes from ``--seed``.  Ops cycle through a fixed pool of
op seeds, so each seed runs several times.  A repeat whose output bytes
differ from the first is a correctness failure.  So is a remote or
control-server result that differs from the in-process one, and so is a
README example that no longer reproduces.  On any failure the run still
prints its line, with ``correct`` false, and exits 1.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import sys
import time

from workloads import CONFIG, FIRMWARE, OUT, SRC, WORKLOADS, Run, Workload, digests

sys.path.insert(0, str(SRC))

from layers import instrument, summarize  # noqa: E402
from spans import Tracer, merge_summaries, percentile  # noqa: E402

SETUP_REPEATS = 5
#: A status generator later than this at p99 no longer measures the server.
LATE_LIMIT_P99_MS = 10.0
clock = time.perf_counter


def op_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def check_outputs(workload: Workload, run: Run, problems: list[str]) -> dict[str, str]:
    """Compare repeats of each op seed, and networked ops with in-process
    ones; return one digest per output kind over the first pass."""
    first: dict[int, dict[str, str]] = {}
    for seed, outputs in run.outputs:
        if not outputs:
            continue
        if seed not in first:
            first[seed] = outputs
        elif outputs != first[seed]:
            problems.append(f"op seed {seed}: output differs on repeat")
    for seed, outputs in first.items():
        expected = workload.reference(seed)
        if expected is not None and outputs != digests(expected):
            problems.append(f"op seed {seed}: differs from the in-process run")
    combined: dict[str, str] = {}
    seeds = list(dict.fromkeys(seed for seed, _ in run.outputs))
    if all(seed in first for seed in seeds):
        for kind in first[seeds[0]]:
            joined = "".join(first[s][kind] for s in seeds).encode()
            combined[kind] = hashlib.sha256(joined).hexdigest()
    return combined


def timed_run(workload: Workload, seed: int, seconds: float):
    setup = []
    for i in range(SETUP_REPEATS):
        start = clock()
        workload.setup(None)
        setup.append(clock() - start)
        if i + 1 < SETUP_REPEATS:
            workload.close()
    run = Run()
    try:
        workload.run(op_seeds(seed, workload.pool), seconds, run)
    finally:
        report = workload.close()
    latency = run.latency_ms
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "ops_ok_ratio": ((run.attempted - run.failed) / run.attempted, "ratio"),
        "vsec_per_s": (run.slow_decile_rate(1), "vs/s"),
        "op_p90_ms": (percentile(latency, 90), "ms"),
    }
    named = {
        "ops_failed_ratio": (run.failed / run.attempted, "ratio"),
        "op_p50_ms": (percentile(latency, 50), "ms"),
        "vsec_per_s.overall": (run.rate(1), "vs/s"),
        **workload.named_metrics(run, metrics),
    }
    info = {
        "latency_of": workload.latency_of,
        "latency_samples": len(latency),
        "latency_percentiles_ms": {q: percentile(latency, q) for q in (50, 90, 99)},
        "ops": len(run.ops),
        "setup_samples_s": setup,
        "named": named,
    }
    return metrics, run, info


def _pass(workload: Workload, seeds: list[int], trace_stem):
    """One fixed pass over ``seeds``; traced when ``trace_stem`` is set.

    Returns the run, the wall time of its ops, and the span summaries of
    this process ("client") and of the server process, if any.
    """
    tracer = restore = None
    worlds: list = []
    if trace_stem is not None:
        tracer = Tracer()
        restore = instrument(tracer, worlds)
    run = Run()
    try:
        workload.setup(trace_stem)
        try:
            start = clock()
            workload.run(seeds, 0.0, run)
            wall = clock() - start
        finally:
            report = workload.close()
    finally:
        if restore is not None:
            restore()
    summaries = {}
    if tracer is not None:
        summaries["client"] = summarize(tracer, worlds)
        tracer.write(f"{trace_stem}.client.tsv.gz", process="benchmark")
        summaries["server"] = report.get("summary", {"layers": {}, "counts": {}})
    return run, wall, summaries


def traced_run(workload: Workload, seed: int, problems: list[str]):
    seeds = op_seeds(seed, workload.pool)[: workload.trace_ops]
    plain, plain_wall, _ = _pass(workload, seeds, None)
    stem = OUT / workload.name
    traced, traced_wall, summaries = _pass(workload, seeds, stem)
    plain_digests = check_outputs(workload, plain, problems)
    traced_digests = check_outputs(workload, traced, problems)
    if plain_digests != traced_digests:
        problems.append("tracing changed the outputs")
    metrics = layer_metrics(summaries, traced)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    info = {
        "ops": len(seeds),
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "span_files": sorted(p.name for p in OUT.glob(f"{stem.name}.*.tsv.gz")),
        "digests": traced_digests,
    }
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    return metrics, plain, info


def layer_metrics(summaries: dict, run: Run) -> dict:
    total = merge_summaries(*summaries.values())
    layers, counts = total["layers"], total["counts"]
    server = summaries["server"]["layers"]

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def self_ms(name):
        return layers.get(name, {}).get("self_ms", 0.0)

    def span_ms(names, where):
        return sum(where.get(name, {}).get("total_ms", 0.0) for name in names)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    slots = counts.get("gen2.slots", 0)
    singulated = counts.get("gen2.singulated", 0)
    collisions = counts.get("gen2.collisions", 0)
    attempts = counts.get("reader.access.attempts", 0)
    frames = counts.get("wisent.frames", 0)
    llrp_ms = self_ms("llrp.encode") + self_ms("llrp.decode") + self_ms("llrp.feed")
    # Reader wire: what the client waited beyond the server's own work.
    client_rtt = span_ms(["reader.client.request"], layers)
    served = span_ms(["llrp.feed", "reader.execute_access", "llrp.encode"], server)
    # Control server: reply time beyond experiments, parsing and leases.
    # Four requests per user cycle, plus the operator's status requests.
    control_requests = (
        len(run.status_rtt_ms) + 4 * len(run.ops) if run.status_rtt_ms else 0
    )
    control_rtt = sum(run.status_rtt_ms) + sum(row[0] for row in run.ops) * 1000.0
    control_work = span_ms(
        [
            "controller.run_inventory_experiment",
            "controller.run_reprogram_experiment",
            "wisent.parse_ti_txt",
            "controller.sessions",
        ],
        server,
    )
    count, ms, share, us = "count", "ms", "ratio", "us"
    return {
        "gen2.rounds": (calls("gen2.round"), count),
        "gen2.slots": (slots, count),
        "gen2.round.self_ms": (self_ms("gen2.round"), ms),
        "gen2.us_per_slot": (ratio(self_ms("gen2.round") * 1000.0, slots), us),
        "gen2.singulation_ratio": (ratio(singulated, slots), share),
        "gen2.collision_ratio": (ratio(collisions, slots), share),
        "world.reachable.calls": (calls("world.reachable"), count),
        "world.reachable.self_ms": (self_ms("world.reachable"), ms),
        "world.harvest_all.calls": (calls("world.harvest_all"), count),
        "world.harvest_all.self_ms": (self_ms("world.harvest_all"), ms),
        "tag.harvest_step.calls": (calls("tag.harvest_step"), count),
        "tag.harvest_step.self_ms": (self_ms("tag.harvest_step"), ms),
        "tag.brownouts": (counts.get("tag.brownouts", 0), count),
        "reader.run_inventory.self_ms": (self_ms("reader.run_inventory"), ms),
        "controller.log.writes": (calls("controller.log.write"), count),
        "controller.log.write.self_ms": (self_ms("controller.log.write"), ms),
        "reader.execute_access.calls": (calls("reader.execute_access"), count),
        "reader.execute_access.self_ms": (self_ms("reader.execute_access"), ms),
        "reader.access.attempts": (attempts, count),
        "reader.access.retries": (attempts - counts.get("reader.access.ops", 0), count),
        "reader.access.success_ratio": (
            ratio(counts.get("reader.access.successes", 0), attempts),
            share,
        ),
        "reader.us_per_attempt": (
            ratio(self_ms("reader.execute_access") * 1000.0, attempts),
            us,
        ),
        "world.tag_by_epc.calls": (calls("world.tag_by_epc"), count),
        "world.link.calls": (calls("world.link"), count),
        "tag.on_write_words.calls": (calls("tag.on_write_words"), count),
        "tag.on_write_words.self_ms": (self_ms("tag.on_write_words"), ms),
        "wisent.reprogram.self_ms": (self_ms("wisent.reprogram"), ms),
        "wisent.frames": (frames, count),
        "wisent.retry_ratio": (ratio(counts.get("wisent.retried", 0), frames), share),
        "wisent.choose_antennas.self_ms": (self_ms("wisent.choose_antennas"), ms),
        "rfchannel.link_quality.calls": (calls("rfchannel.link_quality"), count),
        "rfchannel.link_quality.self_ms": (self_ms("rfchannel.link_quality"), ms),
        "llrp.encode.calls": (calls("llrp.encode"), count),
        "llrp.encode.self_ms": (self_ms("llrp.encode"), ms),
        "llrp.encode.bytes": (counts.get("llrp.encode.bytes", 0), "B"),
        "llrp.decode.calls": (calls("llrp.decode"), count),
        "llrp.decode.self_ms": (self_ms("llrp.decode"), ms),
        "llrp.feed.self_ms": (self_ms("llrp.feed"), ms),
        "llrp.us_per_op": (ratio(llrp_ms * 1000.0, counts.get("llrp.ops", 0)), us),
        "reader.client.rtt_ms": (client_rtt, ms),
        "reader.client.wait_ms": (client_rtt - served if client_rtt else 0.0, ms),
        "reader.server.requests": (calls("reader.client.request"), count),
        "wisent.parse_ti_txt.calls": (calls("wisent.parse_ti_txt"), count),
        "wisent.parse_ti_txt.self_ms": (self_ms("wisent.parse_ti_txt"), ms),
        "controller.sessions.self_ms": (self_ms("controller.sessions"), ms),
        "controller.server.requests": (control_requests, count),
        "controller.server.overhead_ms": (
            control_rtt - control_work if control_requests else 0.0,
            ms,
        ),
        "config.load_config.self_ms": (self_ms("config.load_config"), ms),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p) for p in (SRC / "tpcbed", CONFIG, FIRMWARE) if not p.exists()]
    if missing:
        print(f"cannot benchmark, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]()
    problems: list[str] = []

    if args.trace:
        metrics, run, info = traced_run(workload, args.seed, problems)
    else:
        metrics, run, info = timed_run(workload, args.seed, args.seconds)
        info["digests"] = check_outputs(workload, run, problems)
        late = info["named"].get("control.generator_late_p99_ms")
        if late is not None and late[0] > LATE_LIMIT_P99_MS:
            print(
                f"invalid run: status generator ran {late[0]:.1f} ms late at p99",
                file=sys.stderr,
            )
            return 3
    if not workload.known_answer():
        problems.append("README example no longer reproduces")

    info.update(workload=workload.name, seed=args.seed, problems=problems)
    for name, (value, unit) in {**info.pop("named", {}), **metrics}.items():
        print(f"{workload.name:17} {name:34} {value:14.4f} {unit}")
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": not problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"info": info, "result": result, "ops": run.ops, "latency": run.latency_ms}
    (OUT / f"{stem}.json").write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
