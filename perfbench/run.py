#!/usr/bin/env python3
"""End-to-end benchmark of the distributed approximate join.

    python3 perfbench/run.py --workload sim-dftt --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout. Builds the drivers (perfbench/
CMakeLists.txt) into .bench_build/, then measures the workload for
--seconds, starting a fresh driver process per repetition, and prints one
JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured untraced; --trace 1
reports the per-layer metrics of the traced twin (pb_trace), alternating
traced and untraced repetitions so that the tracing overhead is measured
too. Every run first makes one audited traced repetition: its pair set is
checked against the exact join of the arrivals the run ingested, and every
other repetition must reproduce its pair-set digest and frame counts. See
README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("sim-dftt", "sim-mq", "mp-smpl")
MIN_REPS = 3
REP_TIMEOUT_S = 120


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that leaves no result to print (build, crash, bad flags)."""


def build():
    """Configures (once) and builds the drivers; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no repository sources under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    return os.path.join(BUILD, "pb_run"), os.path.join(BUILD, "pb_trace")


def run_rep(binary, workload, seed, extra=()):
    """One repetition in a fresh process; returns its parsed JSON line.

    The driver forks daemons on the multiprocess workload, so it runs in
    its own process group and the whole group is killed on a timeout.
    """
    cmd = [binary, "--workload", workload, "--seed", str(seed), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{os.path.basename(binary)} timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray daemons, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: "
                         f"{err.strip()[-500:]}")
    return json.loads(out.strip().splitlines()[-1])


def same_output(a, b):
    """Pair-set digest, pair counts and frame counts: what proves two runs
    agree. The exact and reported counts are what recall is made of.

    On the socket backend the result-frame count is left out: a pair of a
    local and a forwarded tuple is found either when the forwarded tuple
    is delivered or when the local one is ingested, whichever comes first
    in wall-clock time, and the two paths group pairs into result frames
    differently (README.md, known defects). The pair set does not move.
    """
    kinds = (0, 1, 3) if a["multiprocess"] else (0, 1, 2, 3)
    return (a["digest"] == b["digest"]
            and a["exact_pairs"] == b["exact_pairs"]
            and a["reported_pairs"] == b["reported_pairs"]
            and all(a["frames"][k] == b["frames"][k] for k in kinds))


def rep_clean(rep):
    return (rep["clean"] and rep["false_pairs"] == 0
            and rep["decode_failures"] == 0 and rep["late_summaries"] == 0
            and rep["nodes_failed"] == 0)


def audit_problems(audited, workload, seed, reference):
    """Checks on the audited repetition; returns a list of failures."""
    problems = []
    if not rep_clean(audited):
        problems.append("the audited run did not end clean")
    audit = audited.get("audit", {})
    if audit.get("false_pairs", 1) != 0:
        problems.append(f"{audit.get('false_pairs')} false pairs")
    if not audit.get("exact_matches", False):
        problems.append("exact join counts disagree with the recomputation")
    pinned = reference.get(workload, {}).get(str(seed), {})
    for key, value in pinned.items():
        if audited[key] != value:
            problems.append(f"{key} {audited[key]} differs from the "
                            f"reference {value}")
    return problems


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def end_to_end(reps, audited):
    """End-to-end metrics of the untraced repetitions. The pair counts come
    from the audited, reference-checked repetition, which every repetition
    has been checked to reproduce."""
    arrivals = audited["arrivals"]
    reported = audited["reported_pairs"]
    return {
        "tuples_per_s": (median([r["arrivals"] / r["run_s"] for r in reps]),
                         "tuples/s"),
        "setup_s": (median([r["setup_s"] for r in reps]), "s"),
        "total_s": (median([r["total_s"] for r in reps]), "s"),
        "recall": (reported / audited["exact_pairs"], "fraction"),
        "msgs_per_result": (median([sum(r["frames"]) for r in reps]) / reported,
                            "frames/pair"),
        "bytes_per_arrival": (median([r["bytes"] for r in reps]) / arrivals,
                              "B/tuple"),
        "peak_rss_mb": (median([max(r["maxrss_kb"], r["children_maxrss_kb"])
                                / 1024.0 for r in reps]), "MB"),
    }


def per_layer(traced, untraced):
    """Per-layer metrics from the traced repetitions (medians)."""
    def med(key):
        return median([r["layers"][key] for r in traced])

    first = traced[0]
    layers = first["layers"]
    frames = [median([r["frames"][k] for r in traced]) for k in range(4)]
    mp = first["multiprocess"]
    traced_total = median([r["total_s"] for r in traced])
    makespan = median([r["run_s"] for r in traced])
    setup = median([r["setup_s"] for r in traced])
    daemon_cpu = med("daemon_cpu_s")
    return {
        "core.schedule.emit_s": (med("emit_s"), "s"),
        "core.schedule.arrivals": (first["arrivals"], "count"),
        "core.oracle.observe_s": (med("observe_s"), "s"),
        "core.metrics.record_s": (med("record_s"), "s"),
        "core.metrics.pairs_recorded": (layers["record_calls"], "count"),
        "core.system.setup_s": (med("setup_s"), "s"),
        "core.system.report_s": (med("report_s"), "s"),
        "core.host.ingest_self_s": (med("ingest_s"), "s"),
        "core.host.ingest_calls": (layers["ingest_calls"], "count"),
        "core.host.ingest_tuples": (first["arrivals"], "count"),
        "core.host.deliver_self_s": (med("deliver_s"), "s"),
        "core.host.delivered_frames": (layers["delivered_frames"], "count"),
        "core.host.summary_feed_s": (med("summary_feed_s"), "s"),
        "core.substrate.ingest_ops": (layers["substrate_ops"], "count"),
        "core.route.pairs_per_forward": (
            first["reported_pairs"] / frames[0] if frames[0] else 0.0,
            "pairs/frame"),
        "net.event_queue.events": (layers["events"], "count"),
        "net.event_queue.dispatch_self_s": (med("dispatch_s"), "s"),
        "net.event_queue.max_pending": (layers["max_pending"], "count"),
        "net.transport.send_s": (med("send_s"), "s"),
        "net.transport.frames_tuple": (frames[0], "count"),
        "net.transport.frames_summary": (frames[1], "count"),
        "net.transport.frames_result": (frames[2], "count"),
        "net.transport.frames_control": (frames[3], "count"),
        "net.transport.bytes": (first["bytes"], "B"),
        "net.sim.stall_virtual_s": (layers["stall_virtual_s"], "s"),
        "net.wire.records": (layers["wire_records"], "count"),
        "net.wire.frames_per_record": (
            sum(frames) / layers["wire_records"] if layers["wire_records"]
            else 0.0, "frames/record"),
        "net.wire.header_bytes_saved": (layers["header_bytes_saved"], "B"),
        "runtime.admit_s": (setup if mp else 0.0, "s"),
        "runtime.run_s": (makespan if mp else 0.0, "s"),
        "runtime.aggregate_s": (med("aggregate_s"), "s"),
        "runtime.verify_s": (med("verify_s"), "s"),
        "runtime.daemon_cpu_s": (daemon_cpu, "s"),
        "runtime.daemon_busy_frac": (
            daemon_cpu / (layers["nodes"] * makespan) if mp else 0.0,
            "fraction"),
        "runtime.coordinator_cpu_s": (
            med("coordinator_cpu_s") if mp else 0.0, "s"),
        "runtime.nodes_failed": (max(r["nodes_failed"] for r in traced),
                                 "count"),
        "core.decode_failures": (max(r["decode_failures"] for r in traced),
                                 "count"),
        "core.late_summaries": (max(r["late_summaries"] for r in traced),
                                "count"),
        "trace.overhead_frac": (
            traced_total / median([r["total_s"] for r in untraced]) - 1.0,
            "fraction"),
        "trace.coverage_frac": (
            median([r["layers"]["self_total_s"] / r["total_s"]
                    for r in traced]), "fraction"),
    }


def measure(workload, seed, seconds, trace, inject_false_pair=False):
    """Runs the workload; returns (correct, attempted, failed, metrics)."""
    pb_run, pb_trace = build()
    audit_flags = ["--audit", "1"] + (
        ["--inject-false-pair", "1"] if inject_false_pair else [])
    audited = run_rep(pb_trace, workload, seed, audit_flags)
    reference = load_reference()
    if str(seed) not in reference.get(workload, {}):
        log(f"no pinned reference for {workload} seed {seed}; "
            "checked against the audit only")
    problems = audit_problems(audited, workload, seed, reference)

    untraced, traced = [], [audited]
    crashed = 0
    start = time.monotonic()
    while len(untraced) < MIN_REPS or time.monotonic() - start < seconds:
        for binary, reps in ((pb_run, untraced), (pb_trace, traced))[:1 + trace]:
            try:
                reps.append(run_rep(binary, workload, seed))
            except BenchError as err:
                crashed += 1
                problems.append(str(err))
        if crashed > MIN_REPS:
            raise BenchError("too many repetitions crashed")

    # Every repetition must reproduce the audited one: the pair set and
    # frame counts are a pure function of (config, seed).
    attempted = failed = crashed * audited["arrivals"]
    for rep in untraced + traced:
        attempted += audited["arrivals"]
        if not (rep_clean(rep) and rep["arrivals"] == audited["arrivals"]):
            failed += audited["arrivals"]
            problems.append(f"a {'traced' if rep['traced'] else 'untraced'} "
                            "run did not end clean")
        elif rep is not audited and not same_output(rep, audited):
            failed += audited["arrivals"]
            problems.append(f"digest {rep['digest']} / frames {rep['frames']} "
                            f"differ from the audited run's {audited['digest']}"
                            f" / {audited['frames']}")
    metrics = end_to_end(untraced, audited)
    metrics["ok_frac"] = ((attempted - failed) / attempted, "fraction")
    if trace:
        metrics = per_layer(traced[1:], untraced)
    for problem in problems:
        log(f"{workload} seed {seed}: {problem}")
    return not problems, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--inject-false-pair", action="store_true",
                        help="self-test: plant one false pair; the audit "
                             "must fail")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        correct, attempted, failed, metrics = measure(
            args.workload, args.seed, args.seconds, args.trace,
            args.inject_false_pair)
    except BenchError as err:
        log(str(err))
        return 2
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
