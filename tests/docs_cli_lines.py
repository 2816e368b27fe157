#!/usr/bin/env python3
"""Golden pin of every faastcc_sim_cli command in the docs.

Collects each faastcc_sim_cli command from README.md, docs/*.md and
.claude/skills/verify/SKILL.md -- lines of fenced code blocks (with their
backslash continuations) and inline `code` spans -- and runs it with
--dump-spec, which parses every flag and exits without running.  Each file's
commands run in file order in one temp dir, so a `... > run.json` line
writes the file a later `--spec=run.json` line reads.  Every command must
exit 0 and print the canonical spec whose fields differ from the default
spec by exactly the `group.key=value` pairs listed for it in DOCS.  A doc
edit that adds, drops or respells a command updates DOCS with it; a
change to how flags are spelled may respell a command, not its fields.

Also the shared runner of tests/cli_golden_test.py (dump_spec,
changed_fields).

Usage: docs_cli_lines.py path/to/faastcc_sim_cli path/to/repo
"""

import json
import os
import re
import shlex
import subprocess
import sys
import tempfile

# Per doc file, its faastcc_sim_cli commands in file order: (arguments,
# fields changed from the default spec).
DOCS = {
    "README.md": [
        ("--system=hydrocache --zipf=1.25 --dags=200",
         'system="hydrocache" cluster.dags_per_client=200 workload.zipf=1.25'),
        ("--set=faastcc.snapshot_isolation=true --zipf=1.5 --json",
         "workload.zipf=1.5 faastcc.snapshot_isolation=true"),
        ("--partitions=64 --dump-spec > run.json", "cluster.partitions=64"),
        ("--spec=run.json", "cluster.partitions=64"),
        ("--json", ""),
        ("--dags=100 --trace-out=trace.json",
         "cluster.dags_per_client=100 trace.enabled=true"),
        ("--check --set=faults.loss_prob=0.02 --set=faults.dup_prob=0.01 "
         "--dags=200",
         "cluster.dags_per_client=200 faults.loss_prob=0.02 "
         "faults.dup_prob=0.01 run.check_consistency=true"),
        ("--partitions=16 --set=elastic.add_partitions=8 "
         "--set=elastic.at_us=400000 --check",
         "elastic.add_partitions=8 elastic.at_us=400000 "
         "run.check_consistency=true"),
        ("--partitions=24 --set=elastic.remove_partitions=8 "
         "--set=elastic.remove_at_us=400000 --set=replication.factor=1 "
         "--check",
         "cluster.partitions=24 elastic.remove_partitions=8 "
         "elastic.remove_at_us=400000 replication.factor=1 "
         "run.check_consistency=true"),
        ("--partitions=4 --set=autoscale.max_partitions=6 "
         "--set=workload.pattern=bursty --set=workload.think_time_us=2000 "
         "--check",
         'cluster.partitions=4 workload.pattern="bursty" '
         "workload.think_time_us=2000 autoscale.max_partitions=6 "
         "run.check_consistency=true"),
        ("--set=replication.factor=2 --check",
         "replication.factor=2 run.check_consistency=true"),
    ],
    "docs/consistency-checking.md": [
        ("--dags=4000 --check",
         "cluster.dags_per_client=4000 run.check_consistency=true"),
        ("--check --set=faults.loss_prob=0.02 --dags=200",
         "cluster.dags_per_client=200 faults.loss_prob=0.02 "
         "run.check_consistency=true"),
    ],
    "docs/performance.md": [
        ("--dags=4000", "cluster.dags_per_client=4000"),
    ],
    "docs/sweeps.md": [
        ("--partitions=64 --zipf=1.2 --dump-spec > run.json",
         "cluster.partitions=64 workload.zipf=1.2"),
        ("--spec=run.json", "cluster.partitions=64 workload.zipf=1.2"),
        ("--spec=run.json --seed=7",
         "seed=7 cluster.partitions=64 workload.zipf=1.2"),
        ("--spec=run.json --set=faults.loss_prob=0.02",
         "cluster.partitions=64 workload.zipf=1.2 faults.loss_prob=0.02"),
        ("--json", ""),
    ],
    "docs/topology-and-elasticity.md": [
        ("--partitions=16 --set=elastic.add_partitions=8 "
         "--set=elastic.at_us=400000 --check",
         "elastic.add_partitions=8 elastic.at_us=400000 "
         "run.check_consistency=true"),
        ("--partitions=24 --set=elastic.remove_partitions=8 "
         "--set=elastic.remove_at_us=400000 --set=replication.factor=1 "
         "--check",
         "cluster.partitions=24 elastic.remove_partitions=8 "
         "elastic.remove_at_us=400000 replication.factor=1 "
         "run.check_consistency=true"),
    ],
    ".claude/skills/verify/SKILL.md": [
        ("", ""),
        ("", ""),
        ("--clients=2 --dags=10 --keys=500 --partitions=4 --nodes=4 --json",
         "cluster.partitions=4 cluster.compute_nodes=4 cluster.clients=2 "
         "cluster.dags_per_client=10 workload.num_keys=500"),
        ("", ""),
    ],
}

FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
INLINE = re.compile(r"`([^`]*faastcc_sim_cli[^`]*)`")


def dump_spec(cli, words, cwd):
    """Runs `cli words... --dump-spec` in cwd and returns the spec text; a
    `> file` redirect among the words writes it there.  A nonzero exit
    raises RuntimeError with the first stderr line."""
    out_file = None
    if ">" in words:
        i = words.index(">")
        out_file = words[i + 1]
        words = words[:i] + words[i + 2:]
    proc = subprocess.run([cli, *words, "--dump-spec"], cwd=cwd,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        first = (proc.stderr.splitlines() or [""])[0]
        raise RuntimeError(f"exit {proc.returncode}: {first}")
    if out_file:
        with open(os.path.join(cwd, out_file), "w") as f:
            f.write(proc.stdout)
    return proc.stdout


def changed_fields(default, doc):
    """The `group.key=value` pairs of spec `doc` that differ from
    `default`, in canonical order, space-separated."""
    out = []
    for key, value in doc.items():
        pairs = value.items() if isinstance(value, dict) else [(None, value)]
        for field, v in pairs:
            d = default[key][field] if field else default[key]
            if v != d:
                path = f"{key}.{field}" if field else key
                out.append(f"{path}={json.dumps(v, separators=(',', ':'))}")
    return " ".join(out)


def commands(text):
    """The argument words of each faastcc_sim_cli command, in file order."""
    found = []
    for block in FENCE.finditer(text):
        body = block.group(1).replace("\\\n", " ")
        offset = block.start(1)
        for line in body.splitlines():
            if "faastcc_sim_cli" in line:
                found.append((offset, line))
            offset += len(line) + 1
    prose = FENCE.sub(lambda m: " " * len(m.group(0)), text)
    for span in INLINE.finditer(prose):
        found.append((span.start(), span.group(1).replace("\n", " ")))
    out = []
    for _, line in sorted(found):
        words = shlex.split(line, comments=True)
        start = next(i for i, w in enumerate(words)
                     if w.endswith("faastcc_sim_cli"))
        out.append(words[start + 1:])
    return out


def main():
    cli = os.path.abspath(sys.argv[1])
    root = sys.argv[2]
    failed = 0
    total = 0
    with tempfile.TemporaryDirectory() as tmp:
        default = json.loads(dump_spec(cli, [], tmp))
    for name, golden in DOCS.items():
        with open(os.path.join(root, name)) as f:
            found = commands(f.read())
        if len(found) != len(golden):
            failed += 1
            print(f"FAIL {name}: {len(found)} commands, DOCS lists "
                  f"{len(golden)}")
        with tempfile.TemporaryDirectory() as tmp:
            for words, (args, want) in zip(found, golden):
                total += 1
                command = shlex.join(words)
                if words != shlex.split(args):
                    failed += 1
                    print(f"FAIL {name}: '{command}', DOCS lists '{args}'")
                    continue
                try:
                    got = changed_fields(
                        default, json.loads(dump_spec(cli, words, tmp)))
                except RuntimeError as e:
                    failed += 1
                    print(f"FAIL {name}: {command}\n  {e}")
                    continue
                if got != want:
                    failed += 1
                    print(f"FAIL {name}: {command}\n  got:  {got}\n"
                          f"  want: {want}")
    print(f"{total - failed}/{total} faastcc_sim_cli commands in the docs "
          f"match their fields")
    sys.exit(1 if failed or total == 0 else 0)


if __name__ == "__main__":
    main()
