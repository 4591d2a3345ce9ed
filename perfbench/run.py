#!/usr/bin/env python3
"""Builds the engine from source and runs one benchmark workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ledger.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Everything the run builds or writes stays
under .bench_build/ in the repository root.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_DIR = os.path.join(OUT_DIR, "build")
BINARY = os.path.join(BUILD_DIR, "gs_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.h")):
        fail("engine sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Build output goes to stderr: stdout's last line is the result.
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_digest():
    """sha256 over the engine and benchmark sources, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    command = [BINARY, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
               "--trace=%d" % args.trace]
    if args.trace:
        command.append("--spans-out=" +
                       os.path.join(OUT_DIR, "spans", tag + ".jsonl"))
    # Default EngineOptions only: drop the environment overrides the engine
    # honours (GS_JIT_FORCE, GS_PROCESS_FORCE, ...).
    env = {k: v for k, v in os.environ.items() if not k.startswith("GS_")}
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        fail("gs_perfbench exited with %d" % proc.returncode)
    run = json.loads(proc.stdout.strip().splitlines()[-1])

    run["nproc"] = os.cpu_count()
    run["git_commit"] = git_commit()
    run["source_sha256"] = source_digest()
    with open(os.path.join(OUT_DIR, "results", tag + ".json"), "w") as f:
        json.dump(run, f, indent=1, sort_keys=True)

    print("perfbench %s seed=%d packets=%d runs=%d+%d traced+%d rss "
          "threads=%d nproc=%d %s %s commit=%s src=%s" % (
              run["workload"], args.seed, run["packets"],
              run["untraced_runs"], run["traced_runs"], run["rss_runs"],
              run["threads"],
              run["nproc"], run["compiler"], run["build_type"],
              run["git_commit"] or "none", run["source_sha256"][:16]))
    print("output check: %d rows, digest %s, %d of %d runs failed" % (
        run["reference_rows"], run["reference_digest"], run["failed"],
        run["attempted"]))
    # BENCHMARK.json at the root names the metrics each mode reports.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    shown = wanted if args.trace else dict(wanted, loss_pct="%")
    for name, unit in shown.items():
        line = "%-26s %14.6g %s" % (name, run["metrics"][name], unit)
        spread = run["spread"].get(name)
        if spread:
            line += "  (per replay: median %.6g, q1 %.6g, q3 %.6g, n=%d)" % (
                spread["median"], spread["q1"], spread["q3"], spread["n"])
        print(line)

    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": run["metrics"][name], "unit": unit}
                    for name, unit in wanted.items()},
    }))


if __name__ == "__main__":
    main()
