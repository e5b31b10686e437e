"""Run the benchmark on two commits in alternating pairs and compare them.

    python3 scripts/bench_pairs.py --out BENCH.json                 # HEAD~1 against HEAD
    python3 scripts/bench_pairs.py --base A --head B --pairs 10 --first-seed 901 --out B.json
    python3 scripts/bench_pairs.py                                  # print the plan only

Both commits are checked out as detached `git worktree`s under a temporary
directory.  For each workload of BENCHMARK.json and each of N seeds,
`bench/run.py --trace 0` runs once in each tree at the benchmark's own run
length, one after the other; the side that goes first alternates from pair
to pair, so drift of the host falls on both sides alike.  For each
end-to-end metric of BENCHMARK.json it prints the median and quartiles of
both sides, the number of pairs the change wins with the exact two-sided
sign-test p-value of those wins (tied pairs dropped), and two verdicts:

* claim: the change wins at least 9 pairs in 10, its median is better than
  the parent's by more than the parent's interquartile range, and it fails
  no more operations than the parent on any pair;
* bound: ok when the change's median is not worse than the parent's by more
  than the metric's relative bound, exceeded when it is, and unresolved
  when the parent's own IQR/|median| is wider than the bound, unless every
  change run beats every parent run.

It also says whether the correct flags, the failed counts and the output
digests are the same on both sides of every pair, and prints each side's
failed total over the pairs.  The pair table (with
each run's cycle count and CPU seconds) and the verdicts go to the --out
JSON file, and the worktrees are removed at the end.  Without --out nothing
runs.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CLAIM_SHARE = 0.9  # pairs the change must win for a claim: 9 of 10


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value: the chance of a split at least this uneven under a fair coin."""
    n = wins + losses
    return min(1.0, 2 * sum(math.comb(n, k) for k in range(min(wins, losses) + 1)) / 2**n)


def compare(parent: list, change: list, better: str, bound: float, failed: tuple = ((), ())) -> dict:
    """Verdicts on one metric from paired runs: parent[i] and change[i] ran side by side.

    failed holds the parent's and the change's failed-operation counts per
    pair; a change that fails more on any pair has no claim.
    """
    sign = 1.0 if better == "higher" else -1.0
    p_q = np.percentile(parent, [25, 50, 75]).tolist()
    c_q = np.percentile(change, [25, 50, 75]).tolist()
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    gain = sign * (c_q[1] - p_q[1])  # positive when the change's median is better
    iqr = p_q[2] - p_q[0]
    worse = -gain / abs(p_q[1]) if p_q[1] else 0.0
    more_failed = any(c > p for p, c in zip(*failed))
    beats_all = all(sign * (c - p) > 0 for c in change for p in parent)
    if iqr > bound * abs(p_q[1]) and not beats_all:
        verdict = "unresolved"  # the parent alone spreads wider than the bound
    else:
        verdict = "ok" if worse <= bound else "exceeded"
    return {
        "parent": {"q1": p_q[0], "median": p_q[1], "q3": p_q[2]},
        "change": {"q1": c_q[0], "median": c_q[1], "q3": c_q[2]},
        "wins": wins,
        "pairs": len(parent),
        "p_value": sign_test_p(wins, losses),
        "median_gain": gain,
        "parent_iqr": iqr,
        "more_failed": more_failed,
        "claim_holds": wins >= math.ceil(CLAIM_SHARE * len(parent)) and gain > iqr and not more_failed,
        "relative_worse": worse,
        "bound": bound,
        "bound_verdict": verdict,
    }


def run_bench(tree: Path, workload: str, seed: int) -> dict:
    """One `bench/run.py --trace 0` in a tree: its metrics, counts, digest, cycle count and CPU seconds."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    record = json.loads(next(line for line in lines if line.startswith("record "))[len("record "):])
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest": record["digest"],
        "cycles": record["cycles"],
        "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
    }


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def plan(benchmark: dict, pairs: int, first_seed: int) -> list:
    """(workload, seed, sides in running order) for every pair of every workload."""
    runs = []
    for workload in benchmark["workloads"]:
        for k in range(pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            runs.append((workload["name"], first_seed + k, order))
    return runs


def summarize(pairs: list, benchmark: dict) -> dict:
    """Per workload, compare() on every end-to-end metric, the count checks and each side's count totals."""
    out = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        rows = [p for p in pairs if p["workload"] == workload]
        metrics = {
            m["name"]: compare(
                [r["parent"]["metrics"][m["name"]] for r in rows],
                [r["change"]["metrics"][m["name"]] for r in rows],
                m["better"],
                m["bound"],
                ([r["parent"]["failed"] for r in rows], [r["change"]["failed"] for r in rows]),
            )
            for m in benchmark["end_to_end"]
        }
        same = {
            key: all(r["parent"][key] == r["change"][key] for r in rows)
            for key in ("correct", "failed", "digest")
        }
        totals = {side: {"failed": sum(r[side]["failed"] for r in rows)} for side in ("parent", "change")}
        out[workload] = {"metrics": metrics, "same_on_both_sides": same, "totals": totals}
    return out


def report(summary: dict) -> None:
    for workload, entry in summary.items():
        print(f"{workload}")
        for name, s in entry["metrics"].items():
            p, c = s["parent"], s["change"]
            print(f"  {name:16s} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
                  f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
                  f"  wins {s['wins']}/{s['pairs']} (p {s['p_value']:.2g})"
                  f"  claim {'holds' if s['claim_holds'] else 'no'}"
                  f"  bound {s['bound_verdict']} ({s['relative_worse']:+.3f} of {s['bound']})")
        same = entry["same_on_both_sides"]
        print("  same on both sides: " + ", ".join(f"{k} {'yes' if v else 'NO'}" for k, v in same.items()))
        totals = entry["totals"]
        print("  totals: " + ", ".join(
            f"{key} parent {totals['parent'][key]} change {totals['change'][key]}" for key in totals["parent"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1", help="the parent commit (default HEAD~1)")
    parser.add_argument("--head", default="HEAD", help="the changed commit (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10, help="seeds per workload (default 10)")
    parser.add_argument("--first-seed", type=int, default=901, help="seeds run from here up (default 901)")
    parser.add_argument("--out", help="JSON file for the pair table and verdicts; without it nothing runs")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = plan(benchmark, args.pairs, args.first_seed)
    if not args.out:
        print(f"{len(runs)} pairs of {args.base} (parent) and {args.head} (change); give --out to run them")
        for workload, seed, order in runs:
            print(f"  {workload} seed {seed}: {' then '.join(order)}")
        return 0

    revs = {"parent": git("rev-parse", args.base), "change": git("rev-parse", args.head)}
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        try:
            for side, rev in revs.items():
                git("worktree", "add", "--detach", str(trees[side]), rev)
            for workload, seed, order in runs:
                pair = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(trees[side], workload, seed)
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {pair[side]['metrics']}" for side in ("parent", "change")), flush=True)
        finally:
            for tree in trees.values():
                if tree.exists():
                    git("worktree", "remove", "--force", str(tree))
            git("worktree", "prune")

    summary = summarize(pairs, benchmark)
    report(summary)
    record = {"parent": revs["parent"], "change": revs["change"], "summary": summary, "pairs": pairs}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
