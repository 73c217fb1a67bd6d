#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <fig6|cdn-wide|idicn-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a Cargo package of its own that depends on the
repository's crates by path) with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build`), prints the host fingerprint,
then runs the benchmark binary. The binary's last stdout line, one JSON
object, is the result; its exit code is passed through (1 when a
correctness check failed). Every result is also appended, with the
fingerprint, to `<target dir>/perfbench-out/results.jsonl`.

`--workload all` runs the three workloads one after another, each in its
own process, and prints their results with the metric names prefixed by
the workload.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["fig6", "cdn-wide", "idicn-mix"]

# Settings that change what the program does or how it runs. The benchmark
# measures the defaults users get, so none of them may leak in.
PROGRAM_KNOBS = ["CELL_SHARDS", "ICN_EPOCH_LEN", "ICN_SIM_REFERENCE", "ICN_PROFILE", "JOBS", "SCALE",
                 "RUSTFLAGS", "CARGO_PROFILE_RELEASE_LTO", "CARGO_BUILD_RUSTFLAGS"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_revision():
    """The git revision, or (outside a git checkout) a digest of the sources."""
    rev = command_output(["git", "rev-parse", "HEAD"])
    if rev:
        dirty = command_output(["git", "status", "--porcelain", "--untracked-files=no"])
        return rev + ("-dirty" if dirty else "")
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def source_files():
    """Every file the build reads, in a fixed order (build outputs skipped)."""
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            yield path
            continue
        for d, subdirs, files in os.walk(path):
            subdirs[:] = sorted(s for s in subdirs if s != "target")
            for f in sorted(files):
                yield os.path.join(d, f)


def fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": command_output(["rustc", "-V"]) or "unknown",
        "revision": source_revision(),
        "profile": "release (lto = thin, as the workspace)",
        "features": "default",
    }


def build(env):
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml")) and os.path.isdir(os.path.join(ROOT, "crates"))):
        fail("run from the root of a repository checkout (no Cargo.toml and crates/ here)")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        built = subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if not built:
        fail("build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def run_one(binary, args, workload, env, out_dir):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, lines, result


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()

    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_KNOBS}
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(env)
    out_dir = os.path.join(env["CARGO_TARGET_DIR"], "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    host = fingerprint()
    print("host " + json.dumps(host, sort_keys=True), flush=True)
    # A traced run measures every workload already (see README.md).
    workloads = WORKLOADS if args.workload == "all" and not args.trace else [
        "fig6" if args.workload == "all" else args.workload]
    code, merged = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        rc, lines, result = run_one(binary, args, w, env, out_dir)
        body = lines[:-1] if result is not None else lines
        print("\n".join(body), flush=True)
        if result is None:
            fail(f"{w}: the benchmark printed no result (exit code {rc})")
        with open(os.path.join(out_dir, "results.jsonl"), "a") as f:
            record = {"host": host, "workload": w, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "exit": rc, "result": result}
            f.write(json.dumps(record, sort_keys=True) + "\n")
        code = code or rc
        if len(workloads) == 1:
            print(lines[-1], flush=True)
            sys.exit(code)
        print(f"result {w} {lines[-1]}")
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{w}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged, sort_keys=True), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
