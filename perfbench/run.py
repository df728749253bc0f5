#!/usr/bin/env python3
"""End-to-end benchmark of the FlexMiner reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload cli-sparse --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py sweep --seeds 1-10 --trace 0 --out perfbench/out/set.json
    python3 perfbench/run.py compare PARENT.json CHANGE.json

A run builds the release `flexminer` binary and the in-process probe
(`perfbench/probe`) from source, generates the workload's inputs from the
seed, measures for `--seconds`, checks every count against the
paper-faithful reference, and prints one JSON object as the last line of
stdout: the end-to-end metrics with `--trace 0`, the per-layer metrics
(and a Chrome trace under `perfbench/out/traces/`) with `--trace 1`.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import socket
import subprocess
import sys

import drive
import traced

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.relpath(HERE)
OUT_DIR = os.path.join(BENCH_DIR, "out")
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds `flexminer` and the probe; returns their paths."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "flexminer", "--bin", "flexminer"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(BENCH_DIR, "probe", "Cargo.toml")],
    ]
    for cmd in steps:
        # Cargo's output goes to stderr: stdout's last line is the result.
        try:
            done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)} exited {done.returncode}")
    release = os.path.join(target, "release")
    return os.path.join(release, "flexminer"), os.path.join(release, "perfbench-probe")


def source_digest():
    """SHA-256 over the files a run builds or executes (the program's
    sources, the probe, the driver scripts and BENCHMARK.json), so a
    result names the code it measured even where no git metadata exists.
    Documentation, tests and results do not enter it."""
    h = hashlib.sha256()
    roots = ["BENCHMARK.json", "Cargo.toml", "Cargo.lock", "src", "crates", "vendor",
             os.path.join(BENCH_DIR, "probe")]
    files = [os.path.join(BENCH_DIR, n) for n in os.listdir(BENCH_DIR) if n.endswith(".py")]
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
        for dirpath, dirnames, names in os.walk(root):
            dirnames.sort()
            files += [os.path.join(dirpath, n) for n in names]
    for path in sorted(files):
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def command_output(cmd):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return done.stdout.strip() if done.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def provenance(args, manifest, samples):
    return {
        "git_rev": command_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else None,
        "source_digest": source_digest(),
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "rustc": command_output(["rustc", "--version"]),
        "isa": manifest["isa"],
        "isa_tier": manifest["isa_tier"],
        "simd_available": manifest["simd_available"],
        "threads_per_request": manifest["threads"],
        "clients": len({c["client"] for c in manifest["classes"]}),
        "serve_workers": drive.SERVE_WORKERS,
        "workload": args.workload,
        "transport": manifest["transport"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "inputs": [{k: g[k] for k in ("name", "recipe", "vertices", "edges", "bytes")}
                   for g in manifest["graphs"]],
        "samples": samples,
    }


def run(args):
    bench = load_benchmark()
    flexminer, probe = build()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-toy" if args.toy else "")
    run_dir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    trace_path = os.path.join(OUT_DIR, "traces", f"{tag}.json")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    os.makedirs(run_dir, exist_ok=True)
    coprocess = None
    try:
        cmd = [probe, "--workload", args.workload, "--seed", str(args.seed), "--dir", run_dir]
        if args.toy:
            cmd.append("--toy")
        if args.trace:
            cmd += ["--layers", "--trace-out", trace_path]
        try:
            coprocess = traced.Probe(cmd, args.seconds + traced.PROBE_ALLOWANCE_S)
        except (OSError, RuntimeError) as e:
            fail(f"probe: {e}")
        manifest = coprocess.manifest
        graphs = {g["name"]: g for g in manifest["graphs"]}
        for cls in manifest["classes"]:
            cls["path"] = graphs[cls["graph"]]["path"]
        if args.wrong_reference:
            # Test hook: a reference the program cannot match must surface
            # as failed requests and a non-zero exit.
            manifest["classes"][0]["reference"][0] += 1

        tally = drive.Tally()
        if args.trace:
            metrics = traced.layer_metrics(coprocess, flexminer, manifest, args.seconds,
                                           args.seed, run_dir, tally)
            if coprocess.close() != 0:
                fail("probe failed")
            samples = {"trace_file": trace_path}
            wanted = bench["per_layer"]
        else:
            if coprocess.close() != 0:
                fail("probe failed")
            classes = manifest["classes"]
            if manifest["transport"] == "cli":
                metrics, samples = drive.cli_e2e(flexminer, classes, args.seconds, args.seed, tally)
            else:
                metrics, samples = drive.serve_e2e(flexminer, classes, args.seconds, args.seed,
                                                   run_dir, tally)
            metrics["ok_frac"] = ((tally.attempted - tally.failed) / tally.attempted, "ratio")
            wanted = bench["end_to_end"]
    finally:
        if coprocess is not None:
            coprocess.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    names = [m["name"] for m in wanted]
    missing = set(names) - set(metrics)
    if missing:
        fail(f"metrics not measured: {sorted(missing)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  provenance=provenance(args, manifest, samples))
    results_dir = os.path.join(OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"provenance": record["provenance"]}))
    failed_frac = tally.failed / tally.attempted
    print(f"perfbench: {args.workload}: {tally.attempted} attempted, "
          f"failed_frac {failed_frac}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv):
    if argv and argv[0] in ("sweep", "compare"):
        import compare

        return compare.main(argv)
    p = argparse.ArgumentParser(description="FlexMiner end-to-end benchmark run")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in load_benchmark()["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="shrunken inputs, for the benchmark's tests")
    p.add_argument("--wrong-reference", action="store_true",
                   help="test hook: perturb one reference count")
    args = p.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
