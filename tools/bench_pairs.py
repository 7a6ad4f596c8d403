#!/usr/bin/env python3
"""Run the benchmark of ``BENCHMARK.json`` on two commits in alternating
pairs and write a summary.

    python3 tools/bench_pairs.py --parent REV --change REV --out BENCH.json
        [--seeds 101-110] [--claim hopf-symbolic:pass_s]

Each commit is exported with ``git archive`` into a temporary directory,
which is removed at the end, and the benchmark command runs there on the
committed files alone, the way a fresh checkout runs it: the checkout this
script is run from is only read.  Every workload of ``BENCHMARK.json`` runs
for its ``run_seconds``.

Pair i runs seed i of ``--seeds`` on both sides with ``--trace 0``, the
parent first in even pairs and the change first in odd ones.  For each
workload and side the summary gives every end-to-end metric's values, median
and quartiles, the ``correct`` and ``failed`` fields of every run, and the
work counts and per-layer metrics of one ``--trace 1`` run on the first
seed.  For ``--claim`` it counts the pairs where the change is lower and
compares the difference of the medians with the parent's interquartile
range.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def export(rev, dest):
    """The files of commit ``rev`` under ``dest``; returns its full id."""
    sha = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", sha],
                             check=True, capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], check=True, input=archive)
    return sha


def run(tree, command, workload, seed, seconds, trace):
    """The result line of one benchmark run in ``tree``."""
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def side_summary(results, traced):
    metrics = {name: spread([r["metrics"][name]["value"] for r in results])
               for name in results[0]["metrics"]}
    return {"metrics": metrics,
            "correct": [r["correct"] for r in results],
            "failed": [r["failed"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "traced_correct": traced["correct"],
            "traced_counts": {k: m["value"] for k, m in traced["metrics"].items()
                              if m["unit"] == "count"},
            "traced_layers": {k: m["value"] for k, m in traced["metrics"].items()
                              if m["unit"] != "count"}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seeds", default="101-110", type=seed_range)
    ap.add_argument("--claim", default=None, help="workload:metric that should fall")
    args = ap.parse_args(argv)
    bench = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    command, seconds = bench["command"], bench["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as workdir:
        trees = {side: Path(workdir) / side for side in ("parent", "change")}
        shas = {side: export(getattr(args, side), trees[side]) for side in trees}
        summary = {"command": f"{' '.join(command)} --seconds {seconds} --trace 0",
                   "traced": f"{' '.join(command)} --seconds {seconds} --trace 1",
                   "parent": shas["parent"], "change": shas["change"], "seeds": args.seeds,
                   "order": "parent first in even pairs, change first in odd pairs",
                   "quartiles": "statistics.quantiles(n=4, method='inclusive')",
                   "workloads": {}}
        for workload in [w["name"] for w in bench["workloads"]]:
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(args.seeds):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    res = run(trees[side], command, workload, seed, seconds, 0)
                    runs[side].append(res)
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps({k: m['value'] for k, m in res['metrics'].items()})}",
                          file=sys.stderr)
            summary["workloads"][workload] = {
                side: side_summary(results,
                                   run(trees[side], command, workload, args.seeds[0], seconds, 1))
                for side, results in runs.items()}

    if args.claim:
        workload, metric = args.claim.split(":")
        entry = summary["workloads"][workload]
        old, new = entry["parent"]["metrics"][metric], entry["change"]["metrics"][metric]
        summary["claim"] = {
            "workload": workload, "metric": metric, "pairs": len(old["values"]),
            "wins": sum(n < o for o, n in zip(old["values"], new["values"])),
            "median_change": new["median"] / old["median"] - 1,
            "median_difference": old["median"] - new["median"],
            "parent_iqr": old["q3"] - old["q1"]}
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
