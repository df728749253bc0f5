"""Result sets: run the benchmark over many seeds, and judge a change.

    python3 perfbench/run.py sweep [--seeds 1-10] --out SET.json
    python3 perfbench/run.py compare PARENT.json CHANGE.json

A result set is one JSON file: the BENCHMARK.json it was measured under
and one record per run (workload, seed, trace flag, metrics, provenance).
`sweep` runs every workload untraced for each seed, then traced for the
first seed, all for BENCHMARK.json's `run_seconds`, and prints each
metric's median, quartiles and spread (interquartile range over median)
next to its bound. `compare` first checks correctness: a workload fails
when any change run was incorrect or the change has more failed requests
than the parent. It then applies the bounds: for each workload and
end-to-end metric it reports `regressed` when the change's median is
worse than the parent's by more than the bound, `unresolved` when either
side's spread is wider than the bound (unless every change run beats
every parent run), `better` when every change run beats every parent
run, and `within bound` otherwise. It exits 1 if any workload failed or
any pair regressed, and 2 if the two sets were measured for different
run lengths.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def values_by(runs, workload, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and metric in r["metrics"]]


def workloads_of(runs):
    seen = []
    for r in runs:
        if r["workload"] not in seen:
            seen.append(r["workload"])
    return seen


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        # A run with wrong counts still prints its result (and exits 1).
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode} without a result")
    prov = next((json.loads(l)["provenance"] for l in lines if l.startswith('{"provenance"')), None)
    return dict(result, workload=workload, seed=seed, trace=trace, provenance=prov)


def summary_rows(bench, runs):
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    rows = []
    for w in workloads_of(runs):
        for name in (m["name"] for m in bench["end_to_end"] + bench["per_layer"]):
            vals = values_by(runs, w, name)
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "steady" if s < bound / 3 else ("ok" if s <= bound else "WIDE")
            rows.append((w, name, len(vals), med, q1, q3, s, bound, flag))
    return rows


def print_summary(bench, runs):
    print(f"{'workload':<12} {'metric':<28} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'bound':>6}")
    for w, name, n, med, q1, q3, s, bound, flag in summary_rows(bench, runs):
        b = "" if bound is None else f"{bound:.2f}"
        print(f"{w:<12} {name:<28} {n:>3} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {s:>8.4f}"
              f" {b:>6} {flag}")


def sweep(argv):
    p = argparse.ArgumentParser(prog="run.py sweep")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    # Seeds outermost, so slow drift of the host spreads over every
    # workload; the traced runs close the sweep.
    plan = [(seed, w, 0) for seed in seeds for w in workloads]
    plan += [(seeds[0], w, 1) for w in workloads]
    runs = []
    for seed, w, trace in plan:
        run = one_run(w, seed, bench["run_seconds"], trace)
        runs.append(run)
        print(f"sweep: {w} seed {seed} trace {trace}: correct={run['correct']}",
              file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump({"benchmark": bench, "runs": runs}, f, indent=1)
    print_summary(bench, runs)
    return 0 if all(r["correct"] for r in runs) else 1


def better_than(a, b, lower):
    return a < b if lower else a > b


def verdict(parent, change, lower, bound):
    """Verdict for one workload and metric, by the benchmark's bound."""
    pm, cm = quartiles(parent)[1], quartiles(change)[1]
    worse = (cm - pm) / abs(pm) if lower else (pm - cm) / abs(pm)
    sweeps = all(better_than(c, p, lower) for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound:
        return "better" if sweeps else "unresolved"
    if worse > bound:
        return "regressed"
    return "better" if sweeps else "within bound"


def run_lengths(runs):
    return {r["provenance"]["seconds"] for r in runs if r.get("provenance")}


def correctness(parent_runs, change_runs):
    """None if the change's runs of one workload are as correct as the
    parent's, else why not."""
    wrong = [r["seed"] for r in change_runs if not r["correct"]]
    if wrong:
        return f"incorrect runs (seeds {wrong})"
    failed = lambda runs: sum(r["failed"] for r in runs)
    if failed(change_runs) > failed(parent_runs):
        return f"{failed(change_runs)} failed requests, parent {failed(parent_runs)}"
    return None


def compare(argv):
    p = argparse.ArgumentParser(prog="run.py compare")
    p.add_argument("parent")
    p.add_argument("change")
    args = p.parse_args(argv)
    sets = []
    for path in (args.parent, args.change):
        with open(path) as f:
            sets.append(json.load(f))
    (parent, change) = sets
    lengths = [run_lengths(s["runs"]) for s in sets]
    if len(lengths[0] | lengths[1]) > 1:
        print(f"compare: the sets were measured for different run lengths:"
              f" parent {sorted(lengths[0])} s, change {sorted(lengths[1])} s", file=sys.stderr)
        return 2
    bench = change["benchmark"]
    failing = False
    for w in workloads_of(change["runs"]):
        of = lambda s: [r for r in s["runs"] if r["workload"] == w]
        why = correctness(of(parent), of(change))
        if why:
            failing = True
            print(f"{w:<12} failed: {why}")
    print(f"{'workload':<12} {'metric':<26} {'parent median [q1,q3]':>34}"
          f" {'change median [q1,q3]':>34} {'delta':>8} {'bound':>6}  verdict")
    for w in workloads_of(change["runs"]):
        for m in bench["end_to_end"] + bench["per_layer"]:
            pv = values_by(parent["runs"], w, m["name"])
            cv = values_by(change["runs"], w, m["name"])
            if not pv or not cv:
                continue
            lower = m["better"] == "lower"
            pq, cq = quartiles(pv), quartiles(cv)
            delta = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
            bound = m.get("bound")
            v = "per-layer" if bound is None else verdict(pv, cv, lower, bound)
            failing |= v == "regressed"
            fmt = lambda q: f"{q[1]:.4f} [{q[0]:.4f},{q[2]:.4f}]"
            b = "" if bound is None else f"{bound:.2f}"
            print(f"{w:<12} {m['name']:<26} {fmt(pq):>34} {fmt(cq):>34} {delta:>+8.1%}"
                  f" {b:>6}  {v}")
    return 1 if failing else 0


def main(argv):
    if argv[0] == "sweep":
        return sweep(argv[1:])
    return compare(argv[1:])
