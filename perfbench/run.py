#!/usr/bin/env python3
"""FaaSTCC simulator benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper-faastcc --seed 1 --seconds 25 --trace 0

Builds perfbench/ (and the simulator sources it compiles) into
.bench_build/perfbench, then starts one fresh faastcc_perfbench process per
measured run, one at a time, until --seconds are used (at least three
runs).  --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
pass and prints the per-layer metrics.  Every run is checked (see
check_runs); the last line of stdout is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 only when every check passed.  perfbench/README.md
documents every metric, workload and check.
"""

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "faastcc_perfbench"
RESULTS = ROOT / ".bench_build" / "results"

WORKLOADS = ("paper-faastcc", "paper-hydro", "faastcc-miss-write")
MIN_RUNS = 3  # untraced runs; the traced pass makes at least one round
MAX_RUNS = 50
RUN_TIMEOUT_S = 150

# name -> unit, in the order printed.  BENCHMARK.json lists the same names.
END_TO_END = {
    "dag_p50_ms": "ms",
    "dag_p999_ms": "ms",
    "throughput_dps": "DAG/s",
    "commit_share": "ratio",
    "wire_bytes_per_dag": "B",
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "harness.build_s": "s",
    "harness.start_s": "s",
    "harness.record_s": "s",
    "harness.run_allocs_per_event": "count",
    "harness.run_alloc_bytes_per_event": "B",
    "sim.events_per_dag": "count",
    "sim.host_ns_per_event": "ns",
    "net.msgs_per_dag": "count",
    "net.gossip_msg_share": "ratio",
    "net.network_ms": "ms",
    "net.probe_deliver_ns": "ns",
    "common.probe_zipf_ns": "ns",
    "common.probe_codec_ns": "ns",
    "workload.probe_next_dag_ns": "ns",
    "storage.episodes_per_dag": "count",
    "storage.rounds_p99": "count",
    "storage.read_bytes_p50": "B",
    "storage.storage_ms": "ms",
    "storage.stab_lag_p50_us": "us",
    "storage.gossip_msgs_per_dag": "count",
    "storage.probe_mvstore_read_ns": "ns",
    "storage.probe_mvstore_install_ns": "ns",
    "cache.hit_rate": "ratio",
    "cache.entries": "count",
    "cache.bytes": "B",
    "cache.probe_depmap_merge_ns": "ns",
    "cache.probe_lru_touch_ns": "ns",
    "client.metadata_p50_bytes": "B",
    "client.metadata_p99_bytes": "B",
    "faas.queue_ms": "ms",
    "faas.compute_ms": "ms",
    "check.verify_s": "s",
    "check.records_per_dag": "count",
    "check.rss_delta_mb": "MB",
    "obs.trace_overhead": "ratio",
    "obs.spans_recorded": "count",
    "obs.spans_dropped": "count",
}

# Fig. 4a/4b of the paper at Zipf 1.0, as quoted in EXPERIMENTS.md.
# Printed as sim/paper ratios for information only; never gated.
PAPER = {
    "paper-faastcc": {"dag_p50_ms": (10.2, 10.2),
                      "throughput_dps": (1300.0, 1570.0)},
    "paper-hydro": {"dag_p50_ms": (51.4, 51.4),
                    "throughput_dps": (311.0, 311.0)},
}

# Simulated fields the oracle fills in; the only ones allowed to differ
# between a checked run and an unchecked run of one seed.
ORACLE_FIELDS = ("violations", "oracle_records")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build ----------------------------------------------------------------

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    build_cmd = ["cmake", "--build", str(BUILD), "--target",
                 "faastcc_perfbench", "--parallel", "4"]
    if subprocess.run(build_cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


# ---- runs -----------------------------------------------------------------

def run_binary(args):
    cmd = [str(BINARY), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(cmd)}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"no output: {' '.join(cmd)}")
    return json.loads(lines[-1])


def run_args(workload, seed, *extra):
    return [f"--workload={workload}", f"--seed={seed}", *extra]


def measure(seconds, min_rounds, one_round):
    """Calls one_round() until `seconds` are used, at least min_rounds
    times."""
    start = time.monotonic()
    rounds = 0
    while rounds < MAX_RUNS:
        t = time.monotonic()
        one_round()
        rounds += 1
        took = time.monotonic() - t
        if rounds >= min_rounds and time.monotonic() - start + took > seconds:
            break


# ---- correctness ----------------------------------------------------------

def check_runs(runs, problems):
    """The correctness gate; appends a line per failed check."""
    for r in runs:
        sim = r["sim"]
        tag = f"{r['workload']} seed {r['seed']}" + \
            (" traced" if r["traced"] else "")
        if sim["committed"] != r["dags"]:
            problems.append(f"{tag}: committed {sim['committed']} "
                            f"!= clients x DAGs {r['dags']}")
        if r["checked"] and sim["violations"] != 0:
            problems.append(f"{tag}: {sim['violations']} oracle violations")
        if r["system"] == "faastcc":
            for field in ("metadata_p50_bytes", "metadata_p99_bytes"):
                if sim[field] != 16:
                    problems.append(f"{tag}: FaaSTCC {field} {sim[field]} "
                                    "!= 16 B")
            if sim["rounds_p99"] != 1:
                problems.append(f"{tag}: FaaSTCC storage rounds p99 "
                                f"{sim['rounds_p99']} != 1")
    # Simulated metrics are deterministic per (workload, seed): every run
    # must agree, traced or not.  The oracle's own fields are compared only
    # between runs that both carried it.
    first = runs[0]
    for r in runs[1:]:
        a, b = dict(first["sim"]), dict(r["sim"])
        if first["checked"] != r["checked"]:
            for f in ORACLE_FIELDS:
                a.pop(f)
                b.pop(f)
        diff = sorted(k for k in a if a[k] != b.get(k))
        if diff:
            problems.append(f"{r['workload']} seed {r['seed']}: simulated "
                            f"metrics differ between runs: {', '.join(diff)}")
    # The allocation count is exact for one build and schedule.
    by_mode = {}
    for r in runs:
        if not r["traced"]:
            by_mode.setdefault(r["checked"], set()).add(
                (r["allocs"]["run_allocs"], r["allocs"]["run_alloc_bytes"]))
    for checked, counts in by_mode.items():
        if len(counts) > 1:
            problems.append(f"allocation counts differ between runs "
                            f"(checked={checked}): {sorted(counts)}")


def checksum(run):
    return {k: run["sim"][k]
            for k in ("sim_events", "messages", "committed", "wire_bytes")}


# ---- metrics --------------------------------------------------------------

def setup_s(r):
    return r["host"]["build_s"] + r["host"]["start_s"]


def run_s(r):
    return r["host"]["run_clients_s"] + r["host"]["verify_s"]


def end_to_end(runs):
    sim = runs[0]["sim"]
    return {
        "dag_p50_ms": sim["dag_p50_ms"],
        "dag_p999_ms": sim["dag_p999_ms"],
        "throughput_dps": sim["throughput_dps"],
        "commit_share": sim["committed"] / sim["attempts"],
        "wire_bytes_per_dag": sim["wire_bytes"] / sim["committed"],
        "setup_s": median([setup_s(r) for r in runs]),
        "run_s": median([run_s(r) for r in runs]),
        "peak_rss_mb": median([r["host"]["peak_rss_mb"] for r in runs]),
    }


def per_layer(plain, traced, unchecked, probes):
    sim = plain[0]["sim"]
    trace = traced[0]["trace"]
    committed = sim["committed"]
    events = sim["run_events"]
    allocs = plain[0]["allocs"]

    def host(field):
        return median([r["host"][field] for r in plain])

    rss_delta = 0.0
    if unchecked:
        rss_delta = host("peak_rss_mb") - median(
            [r["host"]["peak_rss_mb"] for r in unchecked])
    return {
        "harness.build_s": host("build_s"),
        "harness.start_s": host("start_s"),
        "harness.record_s": host("record_s"),
        "harness.run_allocs_per_event": allocs["run_allocs"] / events,
        "harness.run_alloc_bytes_per_event":
            allocs["run_alloc_bytes"] / events,
        "sim.events_per_dag": events / committed,
        "sim.host_ns_per_event": host("run_clients_s") * 1e9 / events,
        "net.msgs_per_dag": sim["messages"] / committed,
        "net.gossip_msg_share": sim["gossip_msgs"] / sim["messages"],
        "net.network_ms": trace["network_ms"],
        "net.probe_deliver_ns": probes["net.probe_deliver_ns"],
        "common.probe_zipf_ns": probes["common.probe_zipf_ns"],
        "common.probe_codec_ns": probes["common.probe_codec_ns"],
        "workload.probe_next_dag_ns": probes["workload.probe_next_dag_ns"],
        "storage.episodes_per_dag": sim["storage_episodes"] / committed,
        "storage.rounds_p99": sim["rounds_p99"],
        "storage.read_bytes_p50": sim["read_bytes_p50"],
        "storage.storage_ms": trace["storage_ms"],
        "storage.stab_lag_p50_us": sim["stab_lag_p50_us"],
        "storage.gossip_msgs_per_dag": sim["gossip_msgs"] / committed,
        "storage.probe_mvstore_read_ns":
            probes["storage.probe_mvstore_read_ns"],
        "storage.probe_mvstore_install_ns":
            probes["storage.probe_mvstore_install_ns"],
        "cache.hit_rate": sim["hit_rate"],
        "cache.entries": sim["cache_entries"],
        "cache.bytes": sim["cache_bytes"],
        "cache.probe_depmap_merge_ns": probes["cache.probe_depmap_merge_ns"],
        "cache.probe_lru_touch_ns": probes["cache.probe_lru_touch_ns"],
        "client.metadata_p50_bytes": sim["metadata_p50_bytes"],
        "client.metadata_p99_bytes": sim["metadata_p99_bytes"],
        "faas.queue_ms": trace["queue_ms"],
        "faas.compute_ms": trace["compute_ms"],
        "check.verify_s": host("verify_s"),
        "check.records_per_dag": sim["oracle_records"] / committed,
        "check.rss_delta_mb": rss_delta,
        "obs.trace_overhead": median([run_s(r) for r in traced]) /
            median([run_s(r) for r in plain]),
        "obs.spans_recorded": trace["spans_recorded"],
        "obs.spans_dropped": trace["spans_dropped"],
    }


def probe_calls_per_dag(run):
    """Approximate calls per committed DAG of each probed function, from
    the workload's shape and the run's counters."""
    sim = run["sim"]
    committed = sim["committed"]
    attempts_per_dag = sim["attempts"] / committed
    reads_per_dag = run["dag_size"] * run["reads_per_function"] * \
        attempts_per_dag
    episodes_per_dag = sim["storage_episodes"] / committed
    faastcc = run["system"] == "faastcc"
    hydro = run["system"] == "hydrocache"
    return {
        "common.probe_zipf_ns": reads_per_dag + attempts_per_dag,
        "common.probe_codec_ns":
            episodes_per_dag if faastcc and run["bounded_cache"]
            else run["dag_size"] * attempts_per_dag,
        "workload.probe_next_dag_ns": attempts_per_dag,
        "net.probe_deliver_ns": sim["messages"] / committed,
        "storage.probe_mvstore_read_ns":
            episodes_per_dag * run["reads_per_function"] if faastcc else 0.0,
        "storage.probe_mvstore_install_ns": 1.0 if faastcc else 0.0,
        "cache.probe_lru_touch_ns": reads_per_dag,
        "cache.probe_depmap_merge_ns": reads_per_dag if hydro else 0.0,
    }


# ---- report ---------------------------------------------------------------

def print_metrics(metrics, units, calls=None):
    width = max(len(k) for k in metrics)
    for name, value in metrics.items():
        line = f"  {name:<{width}}  {value:>16.6g} {units[name]}"
        if calls and name in calls:
            line += f"   (~{calls[name]:.3g} calls/DAG)"
        print(line)


def print_paper_ratios(workload, metrics):
    ref = PAPER.get(workload)
    if not ref:
        return
    print("  paper reference (Fig. 4a/4b, Zipf 1.0; informational, not gated):")
    for name, (lo, hi) in ref.items():
        paper = f"{lo:g}" if lo == hi else f"{lo:g}-{hi:g}"
        ratio = f"{metrics[name] / hi:.2f}" if lo == hi else \
            f"{metrics[name] / hi:.2f}-{metrics[name] / lo:.2f}"
        print(f"    {name}: sim {metrics[name]:.4g} / paper {paper} "
              f"= {ratio}")


def record(name, payload):
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / name).write_text(json.dumps(payload, indent=1) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2

    w, seed = args.workload, args.seed
    plain, traced, unchecked, probes = [], [], [], {}
    try:
        if args.trace == 0:
            measure(args.seconds, MIN_RUNS,
                    lambda: plain.append(run_binary(run_args(w, seed))))
        else:
            def traced_round():
                plain.append(run_binary(run_args(w, seed)))
                traced.append(
                    run_binary(run_args(w, seed, "--trace")))
                if plain[-1]["checked"]:
                    unchecked.append(run_binary(
                        run_args(w, seed, "--no-check")))
            measure(args.seconds, 1, traced_round)
            probes.update(run_binary(run_args(
                w, seed, "--probe",
                f"--depmap-bytes={plain[0]['sim']['metadata_p50_bytes']}")))
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1

    runs = plain + traced + unchecked
    problems = []
    check_runs(runs, problems)
    cs = checksum(plain[0])
    print(f"{w} seed {seed}: {len(plain)} runs"
          + (f" + {len(traced)} traced" if traced else "")
          + (f" + {len(unchecked)} unchecked" if unchecked else ""))
    print("  schedule checksum: " +
          " ".join(f"{k}={v}" for k, v in cs.items()))
    if args.trace == 0:
        metrics, units = end_to_end(plain), END_TO_END
        print_metrics(metrics, units)
        print_paper_ratios(w, metrics)
    else:
        metrics, units = per_layer(plain, traced, unchecked, probes), PER_LAYER
        print_metrics(metrics, units, probe_calls_per_dag(plain[0]))
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    record(f"{w}-seed{seed}-trace{args.trace}.json",
           {"checksum": cs, "metrics": metrics, "problems": problems,
            "runs": runs, "probes": probes})

    dags = sum(r["dags"] for r in runs)
    missing = sum(max(0, r["dags"] - r["sim"]["committed"]) for r in runs)
    result = {
        "correct": not problems,
        "attempted": dags,
        "failed": missing,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
