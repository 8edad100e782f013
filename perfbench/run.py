#!/usr/bin/env python3
"""Benchmark of the `abacus run` path: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark driver (perfbench/, a cargo package of its own) and the
`abacus` binary from source, runs the driver, then checks its estimate
against the estimate `abacus run` prints for the same file and flags, and its
deterministic counters against earlier runs of the same code and seed.  The
last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under `--trace 0` and the per-layer metrics
under `--trace 1`.  Inputs, caches and traces go to `.bench_data/`; cargo
builds into `$CARGO_TARGET_DIR` (default `.bench_build/`).
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

DATA = ".bench_data"
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def cargo_build(args):
    command = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"build failed: {' '.join(command)}")


def file_id(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def cli_estimate(abacus, report):
    """Runs `abacus run` with the driver's flags; returns its estimate line."""
    command = [abacus, "run", "--input", report["input"], *report["cli_args"]]
    checkpoint_dir = None
    if "--checkpoint-every" in report["cli_args"]:
        checkpoint_dir = os.path.join(DATA, f"cli-ck-{os.getpid()}")
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
        command += ["--checkpoint-dir", checkpoint_dir]
    try:
        result = subprocess.run(command, capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S)
    finally:
        if checkpoint_dir:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
    match = re.search(r"^estimate:\s+(\S+)", result.stdout, re.MULTILINE)
    if result.returncode != 0 or not match:
        return None, (result.stderr or result.stdout).strip()[-200:]
    return match.group(1), " ".join(command[1:])


def counters_check(report, code_id):
    """Counters must repeat exactly across runs of the same code and seed."""
    path = os.path.join(DATA, f"counters-{report['workload']}-s{report['seed']}-{code_id}.json")
    counters = report["counters"]
    if os.path.exists(path):
        with open(path) as handle:
            earlier = json.load(handle)
        return {
            "name": "counters_repeat_across_runs",
            "ok": earlier == counters,
            "detail": "same as the first run" if earlier == counters else f"first run had {earlier}",
        }
    with open(path + ".tmp", "w") as handle:
        json.dump(counters, handle, sort_keys=True)
    os.replace(path + ".tmp", path)
    return {"name": "counters_repeat_across_runs", "ok": True, "detail": "first run; recorded"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    for needed in ("Cargo.toml", "crates/core/Cargo.toml", "crates/cli/Cargo.toml"):
        if not os.path.isfile(needed):
            fail(f"{needed} not found: run from the root of a full source checkout")

    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cargo_build(["--manifest-path", "perfbench/Cargo.toml"])
    cargo_build(["-p", "abacus-cli", "--bin", "abacus"])
    driver = os.path.join(target, "release", "perfbench")
    abacus = os.path.join(target, "release", "abacus")
    code_id = file_id(driver)
    os.makedirs(DATA, exist_ok=True)

    command = [
        driver,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--data", DATA,
        "--code-id", code_id,
    ]
    try:
        result = subprocess.run(command, capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S}s")
    sys.stderr.write(result.stderr)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        fail(f"driver exited with code {result.returncode}")
    for line in lines[:-1]:
        print(line)
    report = json.loads(lines[-1])

    checks = list(report["checks"])
    estimate, detail = cli_estimate(abacus, report)
    checks.append({
        "name": "estimate_equals_abacus_binary",
        "ok": estimate == report["estimate"],
        "detail": f"driver {report['estimate']} vs binary {estimate} ({detail})",
    })
    checks.append(counters_check(report, code_id))
    for check in checks[len(report["checks"]):]:
        status = "ok" if check["ok"] else "FAILED"
        print(f"  check {check['name']:<30} {status} ({check['detail']})")
    for name, value in sorted(report["counters"].items()):
        print(f"  counter {name:<32} {value}")

    correct = all(check["ok"] for check in checks)
    attempted = int(report["attempted"])
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": report["metrics"],
    }))


if __name__ == "__main__":
    main()
