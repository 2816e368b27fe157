#!/usr/bin/env python3
"""Gate-semantics test for bench_diff.py.

--max-cell-messages.  Regression: the ceiling label used to
substring-match cell labels, so an ambiguous label silently gated whichever
cells happened to contain it.  Matching is now exact-or-error; this test
pins that down against the committed BENCH_gossip.json artifact.

Paper claims.  The committed BENCH_paper.json holds every claim of its
plans; a copy in which one FaaSTCC cell reports 17 B of metadata, or in
which a claim selects no cell, fails --check and names the claim.

Cells and checksums.  --check ties every cell's counts to the sums over its
runs, so a cell whose checksum disagrees with its own run records fails;
the two-file diff refuses a copy of the schedule pin (BENCH_pin.json) whose
checksums moved; a copy whose runs or cells carry different record keys
fails; and an artifact of any other schema is rejected.

Usage: bench_diff_test.py path/to/bench_diff.py path/to/BENCH_gossip.json
                          path/to/BENCH_paper.json path/to/BENCH_pin.json
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

BENCH_DIFF, ARTIFACT, PAPER, PIN = sys.argv[1:5]

EXACT = "p512-tree20"


def run(*extra, mode="--check", artifact=ARTIFACT):
    args = [mode, artifact] if mode else [artifact]
    return subprocess.run(
        [sys.executable, BENCH_DIFF, *args, *extra],
        capture_output=True,
        text=True,
    )


def run_on_copy(doc, old=None):
    """Check `doc` from a temporary file, or diff it against `old`."""
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(doc, f)
    try:
        if old is not None:
            return run(f.name, mode=None, artifact=old)
        return run(artifact=f.name)
    finally:
        os.unlink(f.name)


def expect(cond, r, what):
    if not cond:
        print(f"FAIL: {what}\nstdout:\n{r.stdout}\nstderr:\n{r.stderr}")
        sys.exit(1)


# Exact label with the committed ceiling: passes.
r = run("--max-cell-messages", f"{EXACT}=800000")
expect(r.returncode == 0, r, "exact label under ceiling should pass")

# Exact label with a ceiling below the measured traffic: fails.
r = run("--max-cell-messages", f"{EXACT}=1000")
expect(r.returncode != 0, r, "exact label over ceiling should fail")
expect("messages/run > ceiling" in r.stderr, r, "failure names the overage")

# The pre-fix substring form is rejected and the error lists the cells
# actually present, so a misconfigured gate is loud, not silently wrong.
r = run("--max-cell-messages", "p512-tree=800000")
expect(r.returncode != 0, r, "substring label should be rejected")
expect("matches no cell exactly" in r.stderr, r, "error says exact-match")
expect(EXACT in r.stderr, r, "error lists candidate cell labels")

# The committed paper artifact holds its claims and renders its tables.
r = run(artifact=PAPER)
expect(r.returncode == 0, r, "committed paper artifact should pass")
expect("paper claims hold" in r.stdout, r, "check reports the claims")
r = run(mode="--paper", artifact=PAPER)
expect(r.returncode == 0 and "Fig. 4a" in r.stdout, r, "--paper renders")

with open(PAPER) as f:
    paper = json.load(f)

# One FaaSTCC cell with 17 B of metadata breaks the constant-16-B claim.
broken = copy.deepcopy(paper)
cell = next(c for c in broken["cells"]
            if c["plan"] == "skew" and c["axes"]["system"] == "FaaSTCC")
cell["mean"]["metadata_p99"] = 17
r = run_on_copy(broken)
expect(r.returncode != 0, r, "a broken claim should fail")
expect("metadata p99 is a constant 16 B" in r.stderr, r, "names the claim")
expect(cell["cell"] in r.stderr, r, "names the offending cell")

# A claim that selects no cell is an error, not a vacuous pass.
broken = copy.deepcopy(paper)
plan = next(p for p in broken["plans"] if p["name"] == "skew")
plan["paper"]["claims"][0]["cells"] = {"system": "NoSuchSystem"}
r = run_on_copy(broken)
expect(r.returncode != 0 and "selects no cell" in r.stderr, r,
       "an empty selection should fail")

with open(PIN) as f:
    pin = json.load(f)

# The committed pin is clean and diffs cleanly against itself.
r = run(PIN, mode=None, artifact=PIN)
expect(r.returncode == 0, r, "the pin should diff cleanly against itself")

# A cell whose checksum disagrees with its own run record fails --check,
# naming the cell and the field.
broken = copy.deepcopy(pin)
broken["cells"][1]["sim_events"] += 1
r = run_on_copy(broken)
expect(r.returncode != 0, r, "a cell/run mismatch should fail --check")
expect(broken["cells"][1]["cell"] in r.stderr and "sim_events" in r.stderr,
       r, "names the cell and the field")

# A schedule that moved by one event -- run and cell alike, so the copy
# itself is consistent -- is refused by the two-file diff.
moved = copy.deepcopy(pin)
cell = moved["cells"][1]
next(rec for rec in moved["runs"]
     if rec["cell"] == cell["cell"])["result"]["sim_events"] += 1
cell["sim_events"] += 1
moved["totals"]["sim_events"] += 1
r = run_on_copy(moved)
expect(r.returncode == 0, r, "the moved copy is itself consistent")
r = run_on_copy(moved, old=PIN)
expect(r.returncode != 0, r, "moved checksums should refuse the diff")
expect("determinism checksums differ" in r.stderr, r, "names the drift")

# A partly regenerated artifact mixes record shapes: one run without a
# summary key fails --check and names the run.
mixed = copy.deepcopy(pin)
del mixed["runs"][1]["result"]["summary"]["hit_rate"]
r = run_on_copy(mixed)
expect(r.returncode != 0, r, "a run missing a summary key should fail")
expect(mixed["runs"][1]["id"] in r.stderr, r, "names the run")

# So does a cell whose mean lacks a key its runs carry.
mixed = copy.deepcopy(pin)
del mixed["cells"][2]["mean"]["hit_rate"]
r = run_on_copy(mixed)
expect(r.returncode != 0, r, "a cell missing a mean key should fail")
expect(mixed["cells"][2]["cell"] in r.stderr, r, "names the cell")

# Only the current artifact schema is read.
old_schema = dict(pin, schema="faastcc.sweep.v1")
r = run_on_copy(old_schema)
expect(r.returncode != 0, r, "a v1 artifact should be rejected")
expect("faastcc.sweep.v1" in r.stderr, r, "the error names the schema")

print("bench_diff_test: ok")
