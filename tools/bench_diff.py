#!/usr/bin/env python3
"""Compare (or schema-check) BENCH_wallclock.json and sweep artifacts.

Usage:
    bench_diff.py OLD.json NEW.json     # print per-system before/after table
    bench_diff.py --check FILE.json     # validate schema, exit 1 on failure
    bench_diff.py --paper FILE.json     # --check, then paper-vs-measured tables

All forms dispatch on the file's `schema` field.  Wallclock artifacts
(faastcc.bench_wallclock.v1) get the per-system table below.  Merged sweep
artifacts (faastcc.sweep.v1 and v2, written by tools/tcc_sweep) get a
structural check instead: every run record and cell aggregate must carry
the required keys, the totals must equal the recomputed per-run sums, and
any run with oracle violations fails the check — so a committed
BENCH_scale.json always represents a clean, internally consistent sweep.

A v2 artifact also carries each source plan's `paper` block (see
docs/sweeps.md).  Its `claims` are shape assertions over the cells and are
gated by --check; its `tables` are rendered by --paper next to the paper's
reference numbers.

Either form accepts repeated perf-floor assertions:

    bench_diff.py --check FILE.json --min-events-per-sec HydroCache=300000

which fail (exit 1) if the named system's `events_per_sec` in the checked
file (the NEW file, for a diff) is below the floor.  CI uses this to keep
hard-won baseline speedups from silently rotting.

Sweep artifacts additionally accept per-cell maintenance-message ceilings:

    bench_diff.py --check SWEEP.json \
        --max-cell-messages -/tree4@20ms/p512/z1.40=800000

The label must equal a cell's full label exactly (v2: the cell id, which
joins the plan's non-seed axis labels; v1:
`{config}[/{stab}]/p{partitions}/z{zipf:.2f}`), and that cell
must average at most CEILING network messages per run.  A label matching
no cell fails and lists the cells present in the file: substring matching
was dropped because an ambiguous label silently gated whichever cells
happened to contain it.  CI uses this to keep the aggregation-tree
topology's O(P)-per-round gossip from regressing back toward the mesh's
O(P²).

The wallclock bench runs a deterministic simulation, so `sim_events`,
`messages` and `committed` act as schedule checksums: if they differ
between the two files (same config + seed), the runs are not comparable
and the diff exits with an error.
"""

import json
import sys

SCHEMA = "faastcc.bench_wallclock.v1"

REQUIRED_SYSTEM_KEYS = {
    "wall_ms": (int, float),
    "sim_events": int,
    "messages": int,
    "committed": int,
    "events_per_sec": (int, float),
    "messages_per_sec": (int, float),
}

# Present in files written since the per-system RSS attribution landed;
# absent (and not required) in older files so --check keeps accepting them.
OPTIONAL_SYSTEM_KEYS = {
    "peak_rss_delta_kb": int,
}

REQUIRED_CONFIG_KEYS = {
    "partitions": int,
    "compute_nodes": int,
    "clients": int,
    "dags_per_client": int,
    "num_keys": int,
    "dag_size": int,
    "seed": int,
    "repeats": int,
}


SWEEP_SCHEMAS = ("faastcc.sweep.v1", "faastcc.sweep.v2")

SWEEP_RUN_KEYS = {
    "id": str,
    "system": str,
    "config": str,
    "partitions": int,
    "compute_nodes": int,
    "clients": int,
    "dags_per_client": int,
    "zipf": (int, float),
    "seed": int,
    "result": dict,
}

SWEEP_V2_RUN_KEYS = {
    "cell": str,
    "dag_size": int,
}

# v2 cells are keyed by the plan's own axes and average every summary field.
SWEEP_V2_CELL_KEYS = {
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

# Optional: present in artifacts written since the stabilization-topology
# cell dimension landed (keeps topology × gossip-period sweep cells
# distinct) and, for stale_drops, since cells began carrying the
# membership-drop sum; absent in older files.
OPTIONAL_SWEEP_CELL_KEYS = {
    "stab": str,
    "stale_drops": int,
}

# v1 cells (keyed by system, config, stab, partitions, nodes and zipf).
SWEEP_CELL_KEYS = {
    "system": str,
    "config": str,
    "partitions": int,
    "compute_nodes": int,
    "zipf": (int, float),
    "runs": int,
    "committed": int,
    "sim_events": int,
    "messages": int,
    "throughput_mean": (int, float),
    "latency_med_ms_mean": (int, float),
    "latency_p99_ms_mean": (int, float),
    "abort_rate_mean": (int, float),
    "hit_rate_mean": (int, float),
    "violations": int,
}


def fail(msg):
    print(f"bench_diff: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def check(doc, path):
    if doc.get("schema") != SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    config = doc.get("config")
    if not isinstance(config, dict):
        fail(f"{path}: missing config object")
    for key, ty in REQUIRED_CONFIG_KEYS.items():
        if not isinstance(config.get(key), ty):
            fail(f"{path}: config.{key} missing or not {ty}")
    if not isinstance(doc.get("peak_rss_kb"), int) or doc["peak_rss_kb"] <= 0:
        fail(f"{path}: peak_rss_kb missing or non-positive")
    systems = doc.get("systems")
    if not isinstance(systems, dict) or not systems:
        fail(f"{path}: missing systems object")
    for name, sysdoc in systems.items():
        if not isinstance(sysdoc, dict):
            fail(f"{path}: systems.{name} is not an object")
        for key, ty in REQUIRED_SYSTEM_KEYS.items():
            value = sysdoc.get(key)
            if not isinstance(value, ty) or isinstance(value, bool):
                fail(f"{path}: systems.{name}.{key} missing or not {ty}")
            if value <= 0:
                fail(f"{path}: systems.{name}.{key} is non-positive")
        for key, ty in OPTIONAL_SYSTEM_KEYS.items():
            value = sysdoc.get(key)
            if value is None:
                continue
            if not isinstance(value, ty) or isinstance(value, bool):
                fail(f"{path}: systems.{name}.{key} not {ty}")
            if value < 0:
                fail(f"{path}: systems.{name}.{key} is negative")
    total = doc.get("total")
    if not isinstance(total, dict) or not isinstance(
        total.get("wall_ms"), (int, float)
    ):
        fail(f"{path}: missing total.wall_ms")
    return doc


def require(obj, keys, where):
    for key, ty in keys.items():
        value = obj.get(key)
        if not isinstance(value, ty) or isinstance(value, bool):
            fail(f"{where}.{key} missing or not {ty}")


def check_sweep(doc, path):
    """Validate a merged sweep artifact (faastcc.sweep.v1 or v2)."""
    v2 = doc.get("schema") == SWEEP_SCHEMAS[1]
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail(f"{path}: missing or empty runs array")
    seen_ids = set()
    runs_per_cell = {}
    committed = events = messages = violations = 0
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            fail(f"{path}: runs[{i}] is not an object")
        require(run, SWEEP_RUN_KEYS, f"{path}: runs[{i}]")
        if v2:
            require(run, SWEEP_V2_RUN_KEYS, f"{path}: runs[{i}]")
            runs_per_cell[run["cell"]] = runs_per_cell.get(run["cell"], 0) + 1
        if run["id"] in seen_ids:
            fail(f"{path}: duplicate run id {run['id']!r}")
        seen_ids.add(run["id"])
        result = run["result"]
        oracle = result.get("oracle")
        if not isinstance(oracle, dict):
            fail(f"{path}: runs[{i}].result.oracle missing")
        committed += result.get("committed", 0)
        events += result.get("sim_events", 0)
        messages += result.get("messages", 0)
        violations += oracle.get("violations", 0)
        if oracle.get("violations", 0):
            fail(
                f"{path}: run {run['id']!r} has {oracle['violations']} "
                f"oracle violation(s) ({oracle.get('violation_kind')})"
            )

    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        fail(f"{path}: missing or empty cells array")
    cell_runs = 0
    for i, cell in enumerate(cells):
        if v2:
            require(cell, SWEEP_V2_CELL_KEYS, f"{path}: cells[{i}]")
            if cell["runs"] != runs_per_cell.get(cell["cell"]):
                fail(f"{path}: cell {cell['cell']!r} counts {cell['runs']} "
                     f"runs, the file has {runs_per_cell.get(cell['cell'])}")
        else:
            require(cell, SWEEP_CELL_KEYS, f"{path}: cells[{i}]")
            for key, ty in OPTIONAL_SWEEP_CELL_KEYS.items():
                value = cell.get(key)
                if value is not None and not isinstance(value, ty):
                    fail(f"{path}: cells[{i}].{key} not {ty}")
        cell_runs += cell["runs"]
    if cell_runs != len(runs):
        fail(f"{path}: cells cover {cell_runs} runs, file has {len(runs)}")
    if v2 and not isinstance(doc.get("plans"), list):
        fail(f"{path}: missing plans array")

    totals = doc.get("totals")
    if not isinstance(totals, dict):
        fail(f"{path}: missing totals object")
    recomputed = {
        "runs": len(runs),
        "committed": committed,
        "sim_events": events,
        "messages": messages,
        "runs_with_violations": 0 if violations == 0 else None,
    }
    for key, want in recomputed.items():
        if want is not None and totals.get(key) != want:
            fail(
                f"{path}: totals.{key} is {totals.get(key)}, "
                f"recomputed {want}"
            )
    claims = check_claims(doc, path) if v2 else 0
    print(
        f"{path}: ok ({len(runs)} runs, {committed} DAGs committed, "
        f"{events} sim events, 0 violations"
        + (f", {claims} paper claims hold)" if claims else ")")
    )
    return doc


# ---- paper blocks (v2): claims and reference tables -----------------------

CELL_COUNTS = ("runs", "checked", "violations", "committed", "sim_events",
               "messages")


class Cells:
    """The cells of one plan in a v2 artifact, addressable by their axes."""

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


def cell_key(cell):
    if "cell" in cell:
        return cell["cell"]
    return (
        cell["system"], cell["config"], cell.get("stab", ""),
        cell["partitions"], cell["compute_nodes"], cell["zipf"],
    )


def cell_mean(cell, name):
    """Seed-averaged metric of a cell: v2 `mean.name`, v1 `name_mean`."""
    if "mean" in cell:
        return cell["mean"][name]
    return cell[f"{name}_mean"]


def diff_sweep(old, new):
    """Per-cell before/after table for two merged sweep artifacts."""
    key = cell_key
    old_cells = {key(c): c for c in old["cells"]}
    shared = [c for c in new["cells"] if key(c) in old_cells]
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
        o = old_cells[key(cell)]
        label = cell_label(cell)
        for checksum in ("committed", "sim_events", "messages"):
            if o[checksum] != cell[checksum]:
                mismatched.append(
                    f"{label}.{checksum}: {o[checksum]} -> {cell[checksum]}"
                )
        print(
            f"{label:<34} {cell_mean(o, 'throughput'):>9.0f} {'->':^4} "
            f"{cell_mean(cell, 'throughput'):>9.0f} "
            f"{cell_mean(o, 'latency_p99_ms'):>8.3f} {'->':^4} "
            f"{cell_mean(cell, 'latency_p99_ms'):>8.3f}"
        )
    if mismatched:
        fail(
            "determinism checksums differ (schedule changed, runs not "
            "comparable):\n  " + "\n  ".join(mismatched)
        )


def cell_label(cell):
    if "cell" in cell:
        return cell["cell"]
    stab = cell.get("stab")
    mid = f"/{stab}" if stab else ""
    return (
        f"{cell['config']}{mid}/p{cell['partitions']}/z{cell['zipf']:.2f}"
    )


def enforce_cell_ceilings(doc, path, ceilings):
    """Fail if any named sweep cell averages more messages per run than its
    ceiling (or if a label names no cell).  Labels match exactly: substring
    matching silently gated whichever cells happened to contain the label."""
    cells = {cell_label(c): c for c in doc.get("cells", [])}
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


def enforce_floors(doc, path, floors):
    """Fail if any named system's events_per_sec is below its floor."""
    failures = []
    for name, floor in floors.items():
        sysdoc = doc.get("systems", {}).get(name)
        if sysdoc is None:
            failures.append(f"{name}: not present in {path}")
            continue
        eps = sysdoc["events_per_sec"]
        if eps < floor:
            failures.append(
                f"{name}.events_per_sec {eps:.0f} < floor {floor:.0f}"
            )
    if failures:
        fail(f"{path}: perf floor violated:\n  " + "\n  ".join(failures))


def parse_floor(spec):
    name, sep, floor = spec.partition("=")
    if not sep or not name:
        fail(f"expected NAME=NUMBER, got {spec!r}")
    try:
        return name, float(floor)
    except ValueError:
        fail(f"not a number: {spec!r}")


def diff(old_path, new_path):
    old = check(load(old_path), old_path)
    new = check(load(new_path), new_path)
    if old["config"] != new["config"]:
        print("WARNING: configs differ; ratios are not apples-to-apples",
              file=sys.stderr)

    names = [n for n in old["systems"] if n in new["systems"]]
    if not names:
        fail("no system appears in both files")

    header = (
        f"{'system':<12} {'wall_ms':>10} {'->':^4} {'wall_ms':>10} "
        f"{'speedup':>8}  {'events/s':>12} {'->':^4} {'events/s':>12} "
        f"{'ratio':>7}"
    )
    print(header)
    print("-" * len(header))
    mismatched = []
    ratios = []
    for name in names:
        o, n = old["systems"][name], new["systems"][name]
        if old["config"] == new["config"]:
            for checksum in ("sim_events", "messages", "committed"):
                if o[checksum] != n[checksum]:
                    mismatched.append(
                        f"{name}.{checksum}: {o[checksum]} -> {n[checksum]}"
                    )
        speedup = o["wall_ms"] / n["wall_ms"]
        ratio = n["events_per_sec"] / o["events_per_sec"]
        ratios.append(ratio)
        rss = ""
        if "peak_rss_delta_kb" in o and "peak_rss_delta_kb" in n:
            rss = (
                f"  rss {o['peak_rss_delta_kb']}"
                f" -> {n['peak_rss_delta_kb']} KiB"
            )
        print(
            f"{name:<12} {o['wall_ms']:>10.1f} {'->':^4} {n['wall_ms']:>10.1f} "
            f"{speedup:>7.2f}x  {o['events_per_sec']:>12.0f} {'->':^4} "
            f"{n['events_per_sec']:>12.0f} {ratio:>6.2f}x{rss}"
        )
    ot, nt = old["total"], new["total"]
    print("-" * len(header))
    print(
        f"{'total':<12} {ot['wall_ms']:>10.1f} {'->':^4} {nt['wall_ms']:>10.1f} "
        f"{ot['wall_ms'] / nt['wall_ms']:>7.2f}x  "
        f"geomean events/s ratio: "
        f"{(__import__('math').prod(ratios)) ** (1 / len(ratios)):.2f}x"
    )
    if mismatched:
        fail(
            "determinism checksums differ (schedule changed, runs not "
            "comparable):\n  " + "\n  ".join(mismatched)
        )
    return new


def main(argv):
    args = []
    floors = {}
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
        elif arg == "--min-events-per-sec":
            if i + 1 >= len(argv):
                fail("--min-events-per-sec needs a SYSTEM=FLOOR argument")
            name, floor = parse_floor(argv[i + 1])
            floors[name] = floor
            i += 1
        elif arg.startswith("--min-events-per-sec="):
            name, floor = parse_floor(arg.split("=", 1)[1])
            floors[name] = floor
        elif arg == "--max-cell-messages":
            if i + 1 >= len(argv):
                fail("--max-cell-messages needs a LABEL=CEILING argument")
            name, ceiling = parse_floor(argv[i + 1])
            ceilings[name] = ceiling
            i += 1
        elif arg.startswith("--max-cell-messages="):
            name, ceiling = parse_floor(arg.split("=", 1)[1])
            ceilings[name] = ceiling
        else:
            args.append(arg)
        i += 1

    if check_mode and len(args) == 1:
        doc = load(args[0])
        if doc.get("schema") in SWEEP_SCHEMAS:
            check_sweep(doc, args[0])
            enforce_cell_ceilings(doc, args[0], ceilings)
            if paper_mode:
                if doc["schema"] != SWEEP_SCHEMAS[1]:
                    fail(f"{args[0]}: --paper needs a v2 sweep artifact")
                render_paper(doc)
            return
        doc = check(doc, args[0])
        enforce_floors(doc, args[0], floors)
        print(f"{args[0]}: ok")
        return
    if not check_mode and len(args) == 2:
        old_doc, new_doc = load(args[0]), load(args[1])
        if (
            old_doc.get("schema") in SWEEP_SCHEMAS
            or new_doc.get("schema") in SWEEP_SCHEMAS
        ):
            check_sweep(old_doc, args[0])
            check_sweep(new_doc, args[1])
            diff_sweep(old_doc, new_doc)
            enforce_cell_ceilings(new_doc, args[1], ceilings)
            return
        new = diff(args[0], args[1])
        enforce_floors(new, args[1], floors)
        return
    print(__doc__, file=sys.stderr)
    sys.exit(2)


if __name__ == "__main__":
    main(sys.argv)
