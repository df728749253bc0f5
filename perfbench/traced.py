"""The probe coprocess and the traced per-layer run.

The probe (`perfbench/probe`) generates the inputs and the reference
counts, and in a traced run answers one command per line (see
`probe/src/layers.rs`): it times the calls into each layer on its trace
clock and replies with raw span durations and counters. Every
`flexminer` process is spawned here, by `drive.cli_request`, and every
summary statistic is computed here.

Phases of a traced run, as shares of `--seconds`:
- 45% request loop over the latency classes: each in-process request
  (traced and untraced rounds alternate: the trace overhead) is followed
  by the same request as a plain `flexminer count` process (the CLI
  residual is the difference, measured in the same window so host speed
  drift hits both sides alike) and as one with `--metrics-out
  --trace-out` (the telemetry overhead);
- 35% in the probe: the same mines at one thread and under
  `paper_faithful()`, and the workload's clients through an in-process
  `Supervisor`;
- 20% the workload's clients through a live `flexminer serve`.
"""

import json
import os
import statistics
import subprocess
import threading
import time

import drive

# Time a probe may take beyond the run's own budget: input generation
# and the paper-faithful references.
PROBE_ALLOWANCE_S = 120
# Class draws handed to each in-process job client; it cycles through them.
JOB_DRAWS = 1000


class Probe:
    """A running `perfbench-probe`; `manifest` is its first line."""

    def __init__(self, cmd, timeout):
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        self.killer = threading.Timer(timeout, self.proc.kill)
        self.killer.start()
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError(f"probe exited {self.proc.returncode} without a manifest")
        self.manifest = json.loads(line)

    def call(self, *words):
        self.proc.stdin.write(" ".join(str(w) for w in words) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"probe closed its output on {words[0]}")
        return json.loads(line)

    def close(self):
        """Reaps the probe; returns its exit code."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        code = self.proc.wait()
        self.killer.cancel()
        self.proc.stdout.close()
        return code


def ratio(num, den):
    return num / den if den else 0.0


def hist_quantile(metric, q):
    """Quantile `q` of a log2 histogram in `MetricsDoc` JSON form,
    interpolated linearly inside the power-of-two bucket that holds it."""
    total = metric.get("count", 0)
    target = q * total
    prev_le, prev_cum = -1.0, 0.0
    for sample in metric["samples"]:
        le = sample["labels"].get("le")
        if le is None or le == "+Inf":
            continue
        le, cum = float(le), sample["value"]
        if cum >= target and cum > prev_cum:
            lo = prev_le + 1.0
            return lo + (le - lo) * (target - prev_cum) / (cum - prev_cum)
        prev_le, prev_cum = le, cum
    return max(prev_le, 0.0)


def by_name(doc):
    return {m["name"]: m for m in doc["metrics"]}


def request_loop(probe, flexminer, classes, seconds, run_dir, tally):
    """Runs rounds over the latency classes for `seconds` (two rounds at
    least: one traced, one untraced). Returns the raw samples."""
    telemetry = ("--metrics-out", os.path.join(run_dir, "count-metrics.json"),
                 "--trace-out", os.path.join(run_dir, "count-trace.json"))
    per_class = lambda: [[] for _ in classes]
    s = {"ingest_us": per_class(), "compile_us": per_class(), "prepare_us": per_class(),
         "mine_us": per_class(), "plain": per_class(), "telemetry": per_class(),
         "plain_traced": per_class(),
         "traced_total": [], "untraced_total": [], "hubs": [None] * len(classes)}
    req, rnd = 0, 0
    start = time.perf_counter()
    while rnd < 2 or time.perf_counter() - start < seconds:
        for j, cls in enumerate(classes):
            req += 1
            traced = rnd % 2 == 0
            r = probe.call("request", j, req, int(traced))
            tally.record(r["ok"], f"in-process {cls['pattern']}@{cls['graph']}")
            if traced:
                layers = ("ingest_us", "compile_us", "prepare_us", "mine_us")
                for name in layers:
                    s[name][j].append(r[name])
                s["traced_total"].append(sum(r[n] for n in layers))
                s["hubs"][j] = (r["hub_rows"], r["hub_bytes"])
            else:
                s["untraced_total"].append(r["total_us"])
            # Alternate which process goes first, so neither side always
            # follows the in-process request.
            order = [("plain", ()), ("telemetry", telemetry)]
            for kind, extra in (order if rnd % 2 == 0 else order[::-1]):
                probe.call("begin", kind, req)
                _, _, ok, detail = drive.cli_request(flexminer, cls, extra)
                tally.record(ok, detail)
                dur = probe.call("end")["dur_us"]
                s[kind][j].append(dur)
                if traced and kind == "plain":
                    s["plain_traced"][j].append(dur)
        rnd += 1
    return s


def job_sequences(manifest, seed):
    """Each client's class draws, from the same decks the serve clients use."""
    return [",".join(str(next(deck)) for _ in range(JOB_DRAWS))
            for _, deck in drive.client_decks(manifest["classes"], seed)]


def layer_metrics(probe, flexminer, manifest, seconds, seed, run_dir, tally):
    """The traced run: every per-layer metric, as {name: (value, unit)}."""
    classes = [c for c in manifest["classes"] if c["latency"]]
    s = request_loop(probe, flexminer, classes, 0.45 * seconds, run_dir, tally)
    fin = probe.call("finish", 0.35 * seconds, *job_sequences(manifest, seed))
    tally.attempted += fin["attempted"]
    tally.failed += fin["failed"]
    k = len(classes)
    mom = drive.mean_of_medians
    mean = lambda values: sum(values) / k

    ingest_ms = mom(s["ingest_us"]) / 1e3
    compile_us = mom(s["compile_us"])
    prepare_ms = mom(s["prepare_us"]) / 1e3
    mine_ms = mom(s["mine_us"]) / 1e3
    graph_bytes = {g["name"]: g["bytes"] for g in manifest["graphs"]}
    mb = mean([graph_bytes[c["graph"]] for c in classes]) / 1e6
    m = {
        "ingest.ms": (ingest_ms, "ms"),
        "ingest.mb_per_s": (ratio(mb, ingest_ms / 1e3), "MB/s"),
        "compile.us": (compile_us, "us"),
        "prepare.ms": (prepare_ms, "ms"),
        "prepare.hub_rows": (mean([h[0] for h in s["hubs"]]), "count"),
        "prepare.hub_kb": (mean([h[1] for h in s["hubs"]]) / 1024.0, "KiB"),
        "mine.ms": (mine_ms, "ms"),
    }
    layers_ms = ingest_ms + compile_us / 1e3 + prepare_ms + mine_ms
    # Against the processes of the traced rounds only: the same rounds
    # the layer medians come from.
    m["cli.residual_ms"] = (mom(s["plain_traced"]) / 1e3 - layers_ms, "ms")
    m["trace.overhead_pct"] = (100.0 * (ratio(statistics.median(s["traced_total"]),
                                              statistics.median(s["untraced_total"])) - 1.0), "%")
    m["telemetry.overhead_pct"] = (100.0 * (ratio(mom(s["telemetry"]), mom(s["plain"])) - 1.0),
                                   "%")

    work = fin["work"]
    w = lambda key: mean([x[key] for x in work])
    tasks = mean(fin["tasks"])
    hits = sum(x["reuse_hits"] for x in work)
    probes = hits + sum(x["reuse_misses"] for x in work)
    m.update({
        "mine.tasks": (tasks, "count"),
        "mine.us_per_task": (ratio(mine_ms * 1e3, tasks), "us"),
        "mine.setop_iters": (w("setop_iterations"), "count"),
        "mine.setop_calls": (w("setop_invocations"), "count"),
        "mine.iters_per_us": (ratio(w("setop_iterations"), mine_ms * 1e3), "1/us"),
        "mine.tier.merge": (w("merge_dispatches"), "count"),
        "mine.tier.gallop": (w("gallop_dispatches"), "count"),
        "mine.tier.probe": (w("probe_dispatches"), "count"),
        "mine.tier.simd": (w("simd_dispatches"), "count"),
        "mine.tier.reuse": (w("reuse_hits"), "count"),
        "mine.reuse_hit_ratio": (ratio(hits, probes), "ratio"),
        "mine.reuse_probes": (probes / k, "count"),
        "mine.prefix_builds": (w("prefix_builds"), "count"),
        # A high-water mark: the largest over the classes.
        "mine.reuse_bytes_hwm": (max(x["reuse_bytes_hwm"] for x in work), "B"),
    })
    for d in range(4):
        depth = [row[d] if d < len(row) else 0 for row in fin["depth_setop_iters"]]
        m[f"mine.depth{d}.setop_iters"] = (mean(depth), "count")

    t1_ms = mom(fin["t1_us"]) / 1e3
    faithful_ms = mom(fin["faithful_us"]) / 1e3
    m["mine.t1_ms"] = (t1_ms, "ms")
    m["mine.scaling_eff"] = (ratio(t1_ms, drive.THREADS * mine_ms), "ratio")
    m["mine.faithful_ms"] = (faithful_ms, "ms")
    m["mine.faithful_setop_iters"] = (mean(fin["faithful_iters"]), "count")
    m["mine.speedup_vs_faithful"] = (ratio(faithful_ms, mine_ms), "ratio")

    jobs = fin["jobs"]
    lat = [x for v in jobs["lat_us"] for x in v]
    doc = by_name(jobs["metrics"])
    m["jobs.e2e_ms_p50"] = (mom(jobs["lat_us"]) / 1e3, "ms")
    m["jobs.e2e_ms_p90"] = (drive.percentile(lat, 0.9) / 1e3, "ms")
    m["jobs.samples"] = (len(lat), "count")
    m["jobs.preemptions"] = (jobs["preempted"], "count")
    m["jobs.stints"] = (ratio(doc["fm_job_stint_us"]["count"], jobs["completed"]), "count")
    m["jobs.queue_wait_ms_p50"] = (hist_quantile(doc["fm_job_queue_wait_us"], 0.5) / 1e3, "ms")

    m.update(serve_layer(flexminer, manifest["classes"], 0.2 * seconds, seed, run_dir, tally))
    return m


def serve_layer(flexminer, classes, seconds, seed, run_dir, tally):
    """The workload's clients through a live server. The server's own
    submit-to-outcome histogram covers the same jobs at the same time,
    so the difference of means is the serve layer's cost per job."""
    server, _ = drive.serve_setup(flexminer, classes, run_dir, "traced", tally)
    try:
        before = server_metrics(server)
        clients = drive.serve_clients(server, classes, seconds, seed, tally)
        after = server_metrics(server)
    finally:
        server.shutdown()
    e2e_before, e2e_after = before["fm_job_e2e_us"], after["fm_job_e2e_us"]
    jobs = e2e_after["count"] - e2e_before["count"]
    server_us = e2e_after["sum"] - e2e_before["sum"]
    client_ms = [x for r in clients.values() for x in r["lat"]]
    submits = [x for r in clients.values() for x in r["submit"]]
    return {
        "serve.submit_ms_p50": (statistics.median(submits), "ms"),
        "serve.overhead_ms": (statistics.fmean(client_ms) - ratio(server_us, jobs) / 1e3, "ms"),
        "journal.fsync_us_p50": (hist_quantile(after["fm_job_journal_fsync_us"], 0.5), "us"),
    }


def server_metrics(server):
    """The server's `metrics` document, by metric name."""
    with server.connect() as c:
        return by_name(c.call({"op": "metrics"})["body"])
