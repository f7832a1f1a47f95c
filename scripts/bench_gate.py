#!/usr/bin/env python3
"""Gate a change on perfbench pairs measured against a base commit.

    python3 scripts/bench_gate.py BASE

Run from inside the repository. Checks out BASE and HEAD into temporary git
worktrees, each with its own cargo target directory, and runs each side's own
`perfbench/run.py --workload all --seed 1 --seconds SECONDS --trace 0` PAIRS
times. The side that runs first alternates from pair to pair, so a runner
that speeds up or slows down during the job biases neither side.

Every `end_to_end` metric that HEAD's BENCHMARK.json declares is compared
for every workload it lists: the median of HEAD's runs against the median of
BASE's runs. The gate fails (exit 1) when

  * a HEAD median is worse than the BASE median by more than the metric's
    `bound` (relative, in the metric's `better` direction);
  * a HEAD run reports `correct: false`;
  * a HEAD run reports more `failed` simulations than any BASE run.

A metric whose BASE runs spread wider than its bound cannot resolve a
change of that size; the spread is the distance between the BASE runs'
quartiles over their median. Such a metric is printed as `unresolved` and
fails only if every HEAD run reads worse than every BASE run. A metric BASE
does not report (a workload HEAD adds) reads `new`.

The table is printed on standard output, followed by one JSON line holding
every run's result. A run that does not produce a result (build failure,
crash, timeout) exits 2. The working tree is never touched: both sides are
built and run inside the temporary worktrees, which are removed on exit.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

PAIRS = 5
SECONDS = 10
SEED = 1


class GateError(Exception):
    pass


def git(*args, cwd=None):
    done = subprocess.run(["git", *args], cwd=cwd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise GateError(f"git {' '.join(args)} failed with exit code {done.returncode}")
    return done.stdout.strip()


def run_perfbench(tree, target):
    """One `--workload all` run of the perfbench checked out at `tree`."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", "all",
        "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0",
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise GateError(f"perfbench in {tree} exited with code {done.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise GateError(f"perfbench in {tree} printed no result: {lines[-1]!r}")


def worse_by(better, base, head):
    """Relative change of `head` over `base`; positive means worse."""
    if base == 0:
        return 0.0 if head == base else float("inf")
    change = (head - base) / base
    return change if better == "lower" else -change


def spread(values):
    """Interquartile distance of `values` over their median."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / median if median else 0.0


def verdict(spec, base_runs, head_runs):
    """Compare perfbench results of the two sides.

    `spec` is a parsed BENCHMARK.json; `base_runs` and `head_runs` are lists
    of perfbench result objects. Returns `(rows, ok)`: one row per checked
    quantity, `(name, base, head, change, spread, bound, status)`, where
    `status` starts with `FAIL` for a failing row.
    """
    head_correct = all(r["correct"] for r in head_runs)
    rows = [("correct", "", str(head_correct).lower(), "", "", "", "ok" if head_correct else "FAIL")]
    base_failed = max(r["failed"] for r in base_runs)
    head_failed = max(r["failed"] for r in head_runs)
    rows.append((
        "failed", str(base_failed), str(head_failed), "", "", "",
        "FAIL: rose" if head_failed > base_failed else "ok",
    ))
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            name = f"{workload['name']}.{metric['name']}"
            better, bound = metric["better"], metric["bound"]
            head = [r["metrics"][name]["value"] for r in head_runs]
            head_med = statistics.median(head)
            if name not in base_runs[0]["metrics"]:
                rows.append((name, "", f"{head_med:.6g}", "", "", f"{bound:.0%}", "new"))
                continue
            base = [r["metrics"][name]["value"] for r in base_runs]
            base_med = statistics.median(base)
            change = worse_by(better, base_med, head_med)
            base_spread = spread(base)
            if base_spread <= bound:
                status = f"FAIL: worse by more than {bound:.0%}" if change > bound else "ok"
            elif min(worse_by(better, b, h) for b in base for h in head) > 0:
                status = "FAIL: unresolved, every HEAD run worse"
            else:
                status = "unresolved"
            signed = change if better == "lower" else -change
            rows.append((
                name, f"{base_med:.6g}", f"{head_med:.6g}", f"{signed:+.1%}",
                f"{base_spread:.1%}", f"{bound:.0%}", status,
            ))
    return rows, not any(row[-1].startswith("FAIL") for row in rows)


def table(rows):
    header = ("quantity", "BASE median", "HEAD median", "change", "BASE spread", "bound", "verdict")
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(len(header))]
    return "\n".join(
        "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in [header, *rows]
    )


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print("usage: python3 scripts/bench_gate.py BASE", file=sys.stderr)
        return 2
    try:
        root = git("rev-parse", "--show-toplevel")
        commits = {
            "BASE": git("rev-parse", "--verify", f"{sys.argv[1]}^{{commit}}", cwd=root),
            "HEAD": git("rev-parse", "--verify", "HEAD^{commit}", cwd=root),
        }
    except GateError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix="bench-gate-")
    trees = {}
    try:
        for side, commit in commits.items():
            tree = os.path.join(workdir, side.lower())
            git("worktree", "add", "--detach", "--quiet", tree, commit, cwd=root)
            trees[side] = tree
        runs = {"BASE": [], "HEAD": []}
        for pair in range(PAIRS):
            order = ["BASE", "HEAD"] if pair % 2 == 0 else ["HEAD", "BASE"]
            for side in order:
                print(f"pair {pair + 1}/{PAIRS}: {side} {commits[side][:12]}", file=sys.stderr)
                target = os.path.join(workdir, f"{side.lower()}-target")
                runs[side].append(run_perfbench(trees[side], target))
        with open(os.path.join(trees["HEAD"], "BENCHMARK.json")) as f:
            spec = json.load(f)
    except GateError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        for tree in trees.values():
            subprocess.run(["git", "worktree", "remove", "--force", tree], cwd=root)
        shutil.rmtree(workdir, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=root)

    rows, ok = verdict(spec, runs["BASE"], runs["HEAD"])
    print(f"BASE {commits['BASE']}  HEAD {commits['HEAD']}")
    print(f"{PAIRS} alternating pairs of perfbench --workload all --seed {SEED} "
          f"--seconds {SECONDS} --trace 0")
    print(table(rows))
    print(json.dumps(runs))
    failing = [row[0] for row in rows if row[-1].startswith("FAIL")]
    print(f"FAIL: {', '.join(failing)}" if failing else "ok")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
