#!/usr/bin/env python3
"""Check, diff and render merged sweep artifacts (faastcc.sweep.v2).

Usage:
    bench_diff.py OLD.json NEW.json     # per-cell before/after table
    bench_diff.py --check FILE.json     # validate, exit 1 on failure
    bench_diff.py --paper FILE.json     # --check, then paper-vs-measured tables

The artifacts are written by tools/tcc_sweep (see docs/sweeps.md).  --check
is a structural check: every run record and cell must carry the required
keys, every run record must carry the same `summary` and `net` key lists
and every cell's `mean` exactly `throughput` followed by those keys (so a
partly regenerated artifact fails), each cell's counts must equal the sums
over its own runs, the totals must equal the sums over all runs, and any
run with oracle violations fails the check -- so a committed BENCH_*.json
always represents a clean, internally consistent sweep.  Any other schema
is rejected.

Each source plan's `paper` block is copied into the artifact.  Its `claims`
are shape assertions over the cells and are gated by --check; its `tables`
are rendered by --paper next to the paper's reference numbers.

The simulation is deterministic per seed, so a cell's `committed`,
`sim_events` and `messages` act as schedule checksums: if they differ for a
cell present in both files, the runs are not comparable and the diff exits
with an error.  BENCH_pin.json (plans/pin.json) is the committed pin that
ctest diffs a fresh run against.

Either form accepts repeated per-cell maintenance-message ceilings:

    bench_diff.py --check SWEEP.json --max-cell-messages p512-tree20=800000

The label must equal a cell id exactly (the plan's non-seed axis labels
joined by `/`), and that cell must average at most CEILING network messages
per run.  A label matching no cell fails and lists the cells present in the
file: substring matching was dropped because an ambiguous label silently
gated whichever cells happened to contain it.  CI uses this to keep the
aggregation-tree topology's O(P)-per-round gossip from regressing back
toward the mesh's O(P^2).
"""

import json
import sys

SCHEMA = "faastcc.sweep.v2"

RUN_KEYS = {
    "id": str,
    "cell": str,
    "system": str,
    "config": str,
    "partitions": int,
    "compute_nodes": int,
    "clients": int,
    "dags_per_client": int,
    "dag_size": int,
    "zipf": (int, float),
    "seed": int,
    "result": dict,
}

# Cells are keyed by the plan's own axes and average every summary field.
CELL_KEYS = {
    "cell": str,
    "plan": str,
    "axes": dict,
    "runs": int,
    "checked": int,
    "violations": int,
    "committed": int,
    "sim_events": int,
    "messages": int,
    "mean": dict,
}

# The run-record objects a cell's `mean` averages, after `throughput`.
RECORD_GROUPS = ("summary", "net")

CELL_COUNTS = ("runs", "checked", "violations", "committed", "sim_events",
               "messages")


def fail(msg):
    print(f"bench_diff: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def require(obj, keys, where):
    for key, ty in keys.items():
        value = obj.get(key)
        if not isinstance(value, ty) or isinstance(value, bool):
            fail(f"{where}.{key} missing or not {ty}")


def key_diff(got, want):
    missing = [k for k in want if k not in got]
    extra = [k for k in got if k not in want]
    if missing or extra:
        return f"missing {missing}, extra {extra}"
    return "same keys, different order"


def run_counts(run):
    """A run's contribution to its cell's CELL_COUNTS."""
    result = run["result"]
    oracle = result["oracle"]
    return {
        "runs": 1,
        "checked": 1 if oracle.get("checked") else 0,
        "violations": oracle.get("violations", 0),
        "committed": result.get("committed", 0),
        "sim_events": result.get("sim_events", 0),
        "messages": result.get("messages", 0),
    }


def check_sweep(doc, path):
    """Validate a merged sweep artifact."""
    if doc.get("schema") != SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail(f"{path}: missing or empty runs array")
    seen_ids = set()
    per_cell = {}
    shape = None
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            fail(f"{path}: runs[{i}] is not an object")
        require(run, RUN_KEYS, f"{path}: runs[{i}]")
        if run["id"] in seen_ids:
            fail(f"{path}: duplicate run id {run['id']!r}")
        seen_ids.add(run["id"])
        # One record shape per artifact: a partly regenerated file mixes
        # records with and without newer summary keys.
        keys = [k for group in RECORD_GROUPS
                for k in run["result"].get(group) or {}]
        if shape is None:
            shape = keys
        elif keys != shape:
            fail(f"{path}: run {run['id']!r} summary/net keys differ from "
                 f"the first run's: {key_diff(keys, shape)}")
        oracle = run["result"].get("oracle")
        if not isinstance(oracle, dict):
            fail(f"{path}: runs[{i}].result.oracle missing")
        if oracle.get("violations", 0):
            fail(
                f"{path}: run {run['id']!r} has {oracle['violations']} "
                f"oracle violation(s) ({oracle.get('violation_kind')})"
            )
        sums = per_cell.setdefault(run["cell"], dict.fromkeys(CELL_COUNTS, 0))
        for key, value in run_counts(run).items():
            sums[key] += value

    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        fail(f"{path}: missing or empty cells array")
    mean_keys = ["throughput"] + shape
    for i, cell in enumerate(cells):
        require(cell, CELL_KEYS, f"{path}: cells[{i}]")
        if list(cell["mean"]) != mean_keys:
            fail(f"{path}: cell {cell['cell']!r} mean keys differ from its "
                 f"runs': {key_diff(list(cell['mean']), mean_keys)}")
        sums = per_cell.pop(cell["cell"], None)
        if sums is None:
            fail(f"{path}: cell {cell['cell']!r} has no runs")
        for key in CELL_COUNTS:
            if cell[key] != sums[key]:
                fail(f"{path}: cell {cell['cell']!r} has {key} "
                     f"{cell[key]}, its runs sum to {sums[key]}")
    if per_cell:
        fail(f"{path}: runs of cell(s) {sorted(per_cell)} have no cell")
    if not isinstance(doc.get("plans"), list):
        fail(f"{path}: missing plans array")

    totals = doc.get("totals")
    if not isinstance(totals, dict):
        fail(f"{path}: missing totals object")
    recomputed = {
        "runs": len(runs),
        "committed": sum(c["committed"] for c in cells),
        "sim_events": sum(c["sim_events"] for c in cells),
        "messages": sum(c["messages"] for c in cells),
        "runs_with_violations": 0,
    }
    for key, want in recomputed.items():
        if totals.get(key) != want:
            fail(
                f"{path}: totals.{key} is {totals.get(key)}, "
                f"recomputed {want}"
            )
    claims = check_claims(doc, path)
    print(
        f"{path}: ok ({len(runs)} runs, {recomputed['committed']} DAGs "
        f"committed, {recomputed['sim_events']} sim events, 0 violations"
        + (f", {claims} paper claims hold)" if claims else ")")
    )
    return doc


# ---- paper blocks: claims and reference tables ----------------------------

class Cells:
    """The cells of one plan in an artifact, addressable by their axes."""

    def __init__(self, doc, plan):
        self.plan = plan
        self.cells = [c for c in doc["cells"] if c["plan"] == plan["name"]]
        self.first_run = {}
        for run in doc["runs"]:
            self.first_run.setdefault(run["cell"], run)

    def label(self, cell):
        """The cell's axis labels without the plan prefix (paper keys)."""
        return "/".join(cell["axes"][a] for a in self.plan["axes"])

    def select(self, where):
        """Cells whose axes match `where` (axis -> label or list of labels)."""
        def matches(cell):
            for axis, want in (where or {}).items():
                labels = want if isinstance(want, list) else [want]
                if cell["axes"].get(axis) not in labels:
                    return False
            return True
        return [c for c in self.cells if matches(c)]

    def raw(self, cell, metric):
        if metric in CELL_COUNTS:
            return cell[metric]
        if metric not in cell["mean"]:
            fail(f"plan {self.plan['name']!r}: no metric {metric!r}")
        return cell["mean"][metric]

    def value(self, cell, spec):
        """spec["metric"] of the cell, divided by the run field named by
        spec["per"] and by the same value of the cell that spec["over"]
        names (the cell's axes with some labels replaced)."""
        v = self.raw(cell, spec["metric"])
        if "per" in spec:
            v /= self.first_run[cell["cell"]][spec["per"]]
        if "over" in spec:
            axes = dict(cell["axes"], **spec["over"])
            ref = [c for c in self.cells if c["axes"] == axes]
            if len(ref) != 1:
                fail(f"plan {self.plan['name']!r}: no reference cell "
                     f"{axes} for {cell['cell']!r}")
            v /= self.value(ref[0], {k: x for k, x in spec.items()
                                     if k != "over"})
        return v


def check_claims(doc, path):
    """Evaluate every plan's paper claims; fail listing the ones that do
    not hold.  A bound is a number or the name of another metric of the
    same cell (e.g. "eq": "runs")."""
    failures = []
    count = 0
    for plan in doc["plans"]:
        cells = Cells(doc, plan)
        for claim in (plan.get("paper") or {}).get("claims", []):
            count += 1
            selected = cells.select(claim.get("cells"))
            if not selected:
                failures.append(f"{claim['claim']}: selects no cell")
            for cell in selected:
                v = cells.value(cell, claim)
                for op in ("eq", "min", "max"):
                    if op not in claim:
                        continue
                    bound = claim[op]
                    if isinstance(bound, str):
                        bound = cells.raw(cell, bound)
                    ok = {"eq": abs(v - bound) <= 1e-9 * max(1, abs(bound)),
                          "min": v >= bound, "max": v <= bound}[op]
                    if not ok:
                        failures.append(
                            f"{claim['claim']}: {cell['cell']} has "
                            f"{v:.6g}, needs {op} {bound:.6g}")
    if failures:
        fail(f"{path}: paper claims do not hold:\n  "
             + "\n  ".join(failures))
    return count


def num(v):
    return f"{v:.0f}" if abs(v) >= 1e4 else f"{v:.4g}"


def render_paper(doc):
    """Print each plan's reference tables: measured vs the paper."""
    for plan in doc["plans"]:
        paper = plan.get("paper") or {}
        cells = Cells(doc, plan)
        print(f"\n== {plan['name']}: {plan['title']}")
        for table in paper.get("tables", []):
            refs = table.get("paper", {})
            print(f"\n{table['figure']} — {table['what']}")
            header = f"{'cell':<28} {'measured':>12}"
            if refs:
                header += f" {'paper':>12} {'sim/paper':>10}"
            print(header)
            print("-" * len(header))
            for cell in cells.select(table.get("cells")):
                label = cells.label(cell)
                v = cells.value(cell, table)
                line = f"{label:<28} {num(v):>12}"
                if label in refs:
                    ref = refs[label]
                    ratio = f"{v / ref:>10.2f}" if ref else f"{'-':>10}"
                    line += f" {num(ref):>12} {ratio}"
                elif refs:
                    line += f" {'-':>12} {'-':>10}"
                print(line)



def diff_sweep(old, new):
    """Per-cell before/after table for two merged sweep artifacts."""
    old_cells = {c["cell"]: c for c in old["cells"]}
    shared = [c for c in new["cells"] if c["cell"] in old_cells]
    if not shared:
        fail("no cell appears in both sweep files")

    header = (
        f"{'cell':<34} {'thru/s':>9} {'->':^4} {'thru/s':>9} "
        f"{'p99 ms':>8} {'->':^4} {'p99 ms':>8}"
    )
    print(header)
    print("-" * len(header))
    mismatched = []
    for cell in shared:
        o = old_cells[cell["cell"]]
        label = cell["cell"]
        for checksum in ("committed", "sim_events", "messages"):
            if o[checksum] != cell[checksum]:
                mismatched.append(
                    f"{label}.{checksum}: {o[checksum]} -> {cell[checksum]}"
                )
        print(
            f"{label:<34} {o['mean']['throughput']:>9.0f} {'->':^4} "
            f"{cell['mean']['throughput']:>9.0f} "
            f"{o['mean']['latency_p99_ms']:>8.3f} {'->':^4} "
            f"{cell['mean']['latency_p99_ms']:>8.3f}"
        )
    if mismatched:
        fail(
            "determinism checksums differ (schedule changed, runs not "
            "comparable):\n  " + "\n  ".join(mismatched)
        )


def enforce_cell_ceilings(doc, path, ceilings):
    """Fail if any named sweep cell averages more messages per run than its
    ceiling (or if a label names no cell).  Labels match exactly: substring
    matching silently gated whichever cells happened to contain the label."""
    cells = {c["cell"]: c for c in doc["cells"]}
    failures = []
    for label, ceiling in ceilings.items():
        cell = cells.get(label)
        if cell is None:
            known = "\n    ".join(sorted(cells))
            failures.append(
                f"{label!r} matches no cell exactly; cells in this file:"
                f"\n    {known}"
            )
            continue
        per_run = cell["messages"] / max(cell["runs"], 1)
        if per_run > ceiling:
            failures.append(
                f"{label}: {per_run:.0f} messages/run "
                f"> ceiling {ceiling:.0f}"
            )
    if failures:
        fail(
            f"{path}: maintenance-message ceiling violated:\n  "
            + "\n  ".join(failures)
        )


def parse_ceiling(spec):
    label, sep, ceiling = spec.partition("=")
    if not sep or not label:
        fail(f"expected LABEL=NUMBER, got {spec!r}")
    try:
        return label, float(ceiling)
    except ValueError:
        fail(f"not a number: {spec!r}")


def main(argv):
    args = []
    ceilings = {}
    check_mode = False
    paper_mode = False
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--check":
            check_mode = True
        elif arg == "--paper":
            check_mode = paper_mode = True
        elif arg == "--max-cell-messages":
            if i + 1 >= len(argv):
                fail("--max-cell-messages needs a LABEL=CEILING argument")
            label, ceiling = parse_ceiling(argv[i + 1])
            ceilings[label] = ceiling
            i += 1
        elif arg.startswith("--max-cell-messages="):
            label, ceiling = parse_ceiling(arg.split("=", 1)[1])
            ceilings[label] = ceiling
        else:
            args.append(arg)
        i += 1

    if check_mode and len(args) == 1:
        doc = check_sweep(load(args[0]), args[0])
        enforce_cell_ceilings(doc, args[0], ceilings)
        if paper_mode:
            render_paper(doc)
        return
    if not check_mode and len(args) == 2:
        old = check_sweep(load(args[0]), args[0])
        new = check_sweep(load(args[1]), args[1])
        diff_sweep(old, new)
        enforce_cell_ceilings(new, args[1], ceilings)
        return
    print(__doc__, file=sys.stderr)
    sys.exit(2)


if __name__ == "__main__":
    main(sys.argv)
