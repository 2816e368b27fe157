#!/usr/bin/env python3
"""The CLI prints the sweep's run record.

Runs faastcc_sim --json on the schedule pin's cell (plans/pin.json) for each
of its three systems and requires each printed object to equal the `result`
of the matching run in the committed BENCH_pin.json: same keys, same order,
same values.

Usage: cli_record_test.py path/to/faastcc_sim_cli path/to/BENCH_pin.json
"""

import json
import subprocess
import sys

CLI, PIN = sys.argv[1:3]

CELL = ["--seed=42", "--partitions=8", "--nodes=4", "--clients=8",
        "--dags=250", "--keys=20000", "--dag-size=4", "--json"]
SYSTEMS = {"faastcc": ["--check"], "hydrocache": [], "cloudburst": []}

with open(PIN) as f:
    pin = {run["system"]: run["result"] for run in json.load(f)["runs"]}

failed = False
for system, extra in SYSTEMS.items():
    out = subprocess.run([CLI, f"--system={system}", *CELL, *extra],
                         capture_output=True, text=True)
    if out.returncode != 0:
        print(f"FAIL {system}: exit {out.returncode}\n{out.stderr}")
        failed = True
        continue
    # dumps keeps key order, so this compares order as well as values.
    record = json.dumps(json.loads(out.stdout))
    want = json.dumps(pin[system])
    if record != want:
        print(f"FAIL {system}: CLI record differs from BENCH_pin.json\n"
              f"  cli: {record}\n  pin: {want}")
        failed = True
    else:
        print(f"{system}: CLI record matches the pin")
sys.exit(1 if failed else 0)
