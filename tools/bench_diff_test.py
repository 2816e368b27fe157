#!/usr/bin/env python3
"""Gate-semantics test for bench_diff.py.

--max-cell-messages.  Regression: the ceiling label used to
substring-match cell labels, so an ambiguous label silently gated whichever
cells happened to contain it.  Matching is now exact-or-error; this test
pins that down against the committed BENCH_gossip.json artifact.

Paper claims.  The committed BENCH_paper.json holds every claim of its
plans; a copy in which one FaaSTCC cell reports 17 B of metadata, or in
which a claim selects no cell, fails --check and names the claim.

Usage: bench_diff_test.py path/to/bench_diff.py path/to/BENCH_gossip.json
                          path/to/BENCH_paper.json
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

BENCH_DIFF, ARTIFACT, PAPER = sys.argv[1], sys.argv[2], sys.argv[3]

EXACT = "-/tree4@20ms/p512/z1.40"


def run(*extra, mode="--check", artifact=ARTIFACT):
    return subprocess.run(
        [sys.executable, BENCH_DIFF, mode, artifact, *extra],
        capture_output=True,
        text=True,
    )


def run_on_copy(doc):
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(doc, f)
    try:
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
r = run("--max-cell-messages", "tree4@20ms/p512=800000")
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

print("bench_diff_test: ok")
