#!/usr/bin/env python3
"""Golden pin of what the CLI invocations in CI and ctest run.

Each case is a faastcc_sim_cli command line (from .github/workflows/ci.yml,
tools/CMakeLists.txt or tools/cli_record_test.py, then one per group of
the remaining single-purpose settings), run with --dump-spec.  Each must
print the canonical spec whose fields differ from the default spec by
exactly the listed `group.key=value` pairs.  The default spec's bytes are
pinned by hash, and tcc_fuzz with both dedup windows off must print the
pinned summary line.  A change to how flags are spelled may respell a
case's arguments; it may not change its expected fields.  The commands in
the docs are pinned the same way by docs_cli_lines.py, whose runner this
script uses.

Usage: cli_golden_test.py path/to/faastcc_sim_cli path/to/tcc_fuzz
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from docs_cli_lines import changed_fields, dump_spec  # noqa: E402

CLI, FUZZ = (os.path.abspath(p) for p in sys.argv[1:3])

DEFAULT_SPEC_SHA256 = (
    "580f8f5d86a902fa5f71156826fb3747c99b5cfe52cb7bfb3fb6a0ac4708fe95")

CASES = [
    # .github/workflows/ci.yml: trace smoke
    ("--clients=2 --dags=20 --dag-size=3 --keys=500 --partitions=4 "
     "--nodes=2 --json --trace-out=trace.json",
     "cluster.partitions=4 cluster.compute_nodes=2 cluster.clients=2 "
     "cluster.dags_per_client=20 workload.num_keys=500 workload.dag_size=3 "
     "trace.enabled=true"),
    # tools/CMakeLists.txt: trace_export_smoke
    ("--clients=2 --dags=10 --dag-size=3 --keys=500 --partitions=4 "
     "--nodes=2 --json --trace-out=smoke_trace.json",
     "cluster.partitions=4 cluster.compute_nodes=2 cluster.clients=2 "
     "cluster.dags_per_client=10 workload.num_keys=500 workload.dag_size=3 "
     "trace.enabled=true"),
    # tools/cli_record_test.py: the pin cell, one line per system
    ("--system=faastcc --seed=42 --partitions=8 --nodes=4 --clients=8 "
     "--dags=250 --keys=20000 --dag-size=4 --json --check",
     "cluster.partitions=8 cluster.compute_nodes=4 cluster.clients=8 "
     "cluster.dags_per_client=250 workload.num_keys=20000 "
     "workload.dag_size=4 run.check_consistency=true"),
    ("--system=hydrocache --seed=42 --partitions=8 --nodes=4 --clients=8 "
     "--dags=250 --keys=20000 --dag-size=4 --json",
     'system="hydrocache" cluster.partitions=8 cluster.compute_nodes=4 '
     "cluster.clients=8 cluster.dags_per_client=250 workload.num_keys=20000 "
     "workload.dag_size=4"),
    ("--system=cloudburst --seed=42 --partitions=8 --nodes=4 --clients=8 "
     "--dags=250 --keys=20000 --dag-size=4 --json",
     'system="cloudburst" cluster.partitions=8 cluster.compute_nodes=4 '
     "cluster.clients=8 cluster.dags_per_client=250 workload.num_keys=20000 "
     "workload.dag_size=4"),
    # The remaining single-purpose flags, so each has a pinned meaning.
    ("--set=workload.static_txns=true --set=run.prewarm_caches=false "
     "--set=cluster.cache_capacity=1000 --set=faults.delay_spike_prob=0.01 "
     "--set=faults.delay_spike_us=20000 --set=faults.rpc_timeout_us=50000 "
     "--set=faults.dag_timeout_us=500000 "
     "'--set=faults.crashes=[{\"addr\":101,\"from_us\":300000,"
     "\"until_us\":360000},{\"addr\":3000,\"from_us\":420000,"
     "\"until_us\":470000}]'",
     "cluster.cache_capacity=1000 workload.static_txns=true "
     "faults.delay_spike_prob=0.01 faults.delay_spike_us=20000 "
     "faults.rpc_timeout_us=50000 faults.dag_timeout_us=500000 "
     'faults.crashes=[{"addr":101,"from_us":300000,"until_us":360000},'
     '{"addr":3000,"from_us":420000,"until_us":470000}] '
     "run.prewarm_caches=false"),
    ("--trace-out=t.json --set=trace.sample_every=4 "
     "--set=trace.ring_capacity=1024 --set=elastic.slots_per_partition=4 "
     "--set=replication.lease_timeout_us=45000",
     "elastic.slots_per_partition=4 replication.lease_timeout_us=45000 "
     "trace.enabled=true trace.ring_capacity=1024 trace.sample_every=4"),
    ("--set=autoscale.max_partitions=6 --set=autoscale.min_partitions=2 "
     "--set=autoscale.check_period_us=50000 --set=autoscale.high_p99_ms=8 "
     "--set=autoscale.low_p99_ms=6.5 --set=autoscale.breach_checks=2 "
     "--set=autoscale.cooldown_us=300000 --set=autoscale.step=2 "
     "--set=workload.pattern_period_us=600000",
     "workload.pattern_period_us=600000 autoscale.max_partitions=6 "
     "autoscale.min_partitions=2 autoscale.check_period_us=50000 "
     "autoscale.high_p99_ms=8 autoscale.low_p99_ms=6.5 "
     "autoscale.breach_checks=2 autoscale.cooldown_us=300000 "
     "autoscale.step=2"),
]

FUZZ_ARGS = (
    "--set=node.executed_dedup_cap=0 --set=scheduler.start_dedup_cap=0 "
    "--jobs=2")
FUZZ_OUTPUT = ("fuzz sweep clean: 300 runs, 14391 DAGs committed, "
               "33738 installs checked\n")


failed = False
with tempfile.TemporaryDirectory() as tmp:
    default_text = dump_spec(CLI, [], tmp)
    digest = hashlib.sha256(default_text.encode()).hexdigest()
    if digest != DEFAULT_SPEC_SHA256:
        print(f"FAIL default spec: sha256 {digest}")
        failed = True
    default = json.loads(default_text)
    for args, want in CASES:
        try:
            got = changed_fields(
                default, json.loads(dump_spec(CLI, shlex.split(args), tmp)))
        except RuntimeError as e:
            print(f"FAIL {args}: {e}")
            failed = True
            continue
        if got != want:
            print(f"FAIL {args}\n  got:  {got}\n  want: {want}")
            failed = True

fuzz = subprocess.run([FUZZ, *FUZZ_ARGS.split()], capture_output=True,
                      text=True)
if fuzz.returncode != 0 or fuzz.stderr != FUZZ_OUTPUT:
    print(f"FAIL tcc_fuzz {FUZZ_ARGS}: exit {fuzz.returncode}\n"
          f"  got:  {fuzz.stderr!r}\n  want: {FUZZ_OUTPUT!r}")
    failed = True

print(f"{len(CASES)} CLI cases and the tcc_fuzz line "
      f"{'differ' if failed else 'match the golden'}")
sys.exit(1 if failed else 0)
