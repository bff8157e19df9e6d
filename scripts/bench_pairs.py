"""Run the benchmark in alternating pairs, parent tree against changed tree.

Usage, from anywhere:

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --label face_bitmask --seconds 35 face_ladder:10 verdict_batch:3

Each `WORKLOAD:PAIRS` argument runs `perfbench/run.py` PAIRS times in each
tree, alternating the trees and the order within a pair (parent first in
even pairs, change first in odd ones) so that a drift of the host's speed
falls on both sides alike.  Both runs of a pair use the same seed (1, 2, ...).
Each tree runs its own `perfbench/run.py` from its own root.

Both trees must be git checkouts (make the parent one with `git clone`, not
`git archive`): a record names the git tree of each side's `src`, and the
script refuses to start when either side has none.

The record goes to `BENCH_<label>.json` in the change tree, rewritten after
every run so that a cut-short session still leaves every finished pair.  It
holds each run's seed, pass count, `correct`/`failed` and end-to-end
metrics, and per workload the median of each metric on each side, the
parent's quartiles and the number of pairs in which the change is lower.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def _git(tree: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def describe(tree: Path) -> dict:
    """The source tree a side measures: the git tree hash of `src` at HEAD,
    and whether `src` has uncommitted changes on top of it."""
    return {
        "src_tree": _git(tree, "rev-parse", "HEAD:src"),
        "src_dirty": bool(_git(tree, "status", "--porcelain", "--", "src")),
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    record_line, result_line = proc.stdout.splitlines()[-2:]
    record = json.loads(record_line)["record"]
    result = json.loads(result_line)
    return {
        "seed": seed,
        "passes": record["passes"],
        "correct": result["correct"],
        "failed": result["failed"],
        "e2e": {k: m["value"] for k, m in result["metrics"].items()},
    }


def summarise(runs: list[dict]) -> dict:
    """Per metric: the median on each side, the parent's quartiles, and in how
    many complete pairs the change read lower than the parent."""
    sides = {s: [r for r in runs if r["side"] == s] for s in ("parent", "change")}
    pairs = [
        (p, c)
        for p in sides["parent"] for c in sides["change"] if p["pair"] == c["pair"]
    ]
    out = {"pairs": len(pairs)}
    for metric in sorted({k for r in runs for k in r["e2e"]}):
        values = {s: [r["e2e"][metric] for r in rs] for s, rs in sides.items()}
        entry = {f"{s}_median": statistics.median(v) for s, v in values.items() if v}
        if len(values["parent"]) >= 2:
            q1, _, q3 = statistics.quantiles(values["parent"], n=4, method="inclusive")
            entry["parent_quartiles"] = [q1, q3]
        entry["change_lower_pairs"] = sum(
            c["e2e"][metric] < p["e2e"][metric] for p, c in pairs
        )
        out[metric] = entry
    for s, rs in sides.items():
        out[f"{s}_passes"] = [r["passes"] for r in rs]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("plan", nargs="+", metavar="WORKLOAD:PAIRS")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    described = {side: describe(tree) for side, tree in trees.items()}
    untracked = [side for side, d in described.items() if d["src_tree"] is None]
    if untracked:
        print("error: no git tree of src in the " + " and ".join(
            f"{side} side ({trees[side]})" for side in untracked
        ) + "; both sides must be git checkouts", file=sys.stderr)
        return 1
    out_file = trees["change"] / f"BENCH_{args.label}.json"
    doc = {
        "label": args.label,
        "command": "python3 perfbench/run.py --workload W --seed N --seconds S",
        "seconds": args.seconds,
        "host": {"python": platform.python_version(), "machine": platform.machine()},
        "trees": described,
        "workloads": {},
    }
    for item in args.plan:
        workload, _, n_pairs = item.partition(":")
        runs: list[dict] = []
        for pair in range(int(n_pairs)):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(trees[side], workload, pair + 1, args.seconds)
                runs.append({"pair": pair, "side": side, **run})
                doc["workloads"][workload] = {"runs": runs, "summary": summarise(runs)}
                out_file.write_text(json.dumps(doc, indent=2) + "\n")
                print(f"{workload} pair {pair} {side}: passes {run['passes']} "
                      f"pass_s {run['e2e']['pass_s']:.4f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
