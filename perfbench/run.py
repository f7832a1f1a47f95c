#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark package in this
directory (release, offline; into $CARGO_TARGET_DIR, default
`.bench_build`), then measures each requested workload in its own
single-threaded process. With `--trace 1` the spans of the first traced pass
are written to `<target dir>/perfbench-spans/<workload>-seed<N>.jsonl`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Its metrics are checked
against the lists in BENCHMARK.json when that file is present. The exit
code is 0 when every workload process ran and printed a well-formed
result; a build failure, crash, timeout or malformed result exits 1 without
printing one.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_mix", "grid_1k", "rand_10k", "torus_1m"]
BUILD_TIMEOUT_S = 880
# Seconds one workload process may take beyond the measured time.
RUN_SLACK_S = 120


class BenchError(Exception):
    pass


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if done.returncode != 0:
        raise BenchError(f"build failed with exit code {done.returncode}")
    return os.path.join(target_dir, "release", "oracle-perfbench")


def declared_metrics(trace):
    """{name: unit} that BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, workload, args, trace_dir):
    cmd = [
        binary, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--trace-out", os.path.join(trace_dir, f"{workload}-seed{args.seed}.jsonl")]
    try:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True,
            timeout=args.seconds + RUN_SLACK_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{workload}: {e}")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload}: exit code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{workload}: last line is not JSON: {lines[-1]!r}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or result["attempted"] < 1:
        raise BenchError(f"{workload}: malformed result {lines[-1]!r}")
    declared = declared_metrics(args.trace)
    if declared is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != declared:
            raise BenchError(
                f"{workload}: metrics differ from BENCHMARK.json: "
                f"missing {sorted(set(declared) - set(got))}, "
                f"undeclared {sorted(set(got) - set(declared))}, "
                f"units {sorted(n for n in got if n in declared and got[n] != declared[n])}"
            )
    return lines[:-1], result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    trace_dir = os.path.join(target_dir, "perfbench-spans")
    try:
        binary = build(target_dir)
        os.makedirs(trace_dir, exist_ok=True)
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        results = {}
        for w in workloads:
            lines, results[w] = run_workload(binary, w, args, trace_dir)
            for line in lines:
                print(line if len(workloads) == 1 else f"[{w}] {line}")
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
