"""Drives the release `flexminer` binary for one benchmark run.

Two transports, each a closed loop: a client sends its next request only
after the previous one has answered.

* CLI workloads spawn `flexminer count <pattern> --graph <file> --threads 2`
  back to back from one client and time spawn to exit.
* The serve workload starts `flexminer serve --socket ... --workers 2
  --max-running 1 --journal ...` and runs one connection per client (an
  interactive one at priority 1 and a batch one at priority 0), timing
  each job from the `submit` line sent to the `wait` reply received.

Every answer is checked against the paper-faithful reference count the
probe computed; a non-zero exit, an error or rejection reply, or a wrong
count is a failed request.
"""

import json
import math
import os
import random
import socket
import statistics
import subprocess
import sys
import threading
import time

THREADS = 2
SERVE_WORKERS = 2
# Generous per-request ceiling; a healthy request takes well under 2 s.
REQUEST_TIMEOUT_S = 60
# Set-up is measured this many times per run and reported as the median.
SETUP_REPS = 9


def percentile(values, q):
    """Nearest-rank percentile `q` (0..1); 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def shuffled_deck(n, seed):
    """Endless draws from range(n), reshuffled every pass, so each class
    is sent equally often."""
    rng = random.Random(seed)
    while True:
        order = list(range(n))
        rng.shuffle(order)
        yield from order


def client_decks(classes, seed):
    """Per client, in order of first appearance: (its class indices, an
    endless shuffled deck of them)."""
    names = []
    for cls in classes:
        if cls["client"] not in names:
            names.append(cls["client"])
    decks = []
    for index, name in enumerate(names):
        ids = [i for i, c in enumerate(classes) if c["client"] == name]
        decks.append((ids, map(ids.__getitem__, shuffled_deck(len(ids), seed * 7919 + index))))
    return decks


def mean_of_medians(groups):
    """Mean over classes of each class's median: a uniformly drawn request."""
    groups = [g for g in groups if g]
    return sum(statistics.median(g) for g in groups) / len(groups) if groups else 0.0


class Tally:
    """Attempted and failed requests, shared by client threads."""

    def __init__(self):
        self.lock = threading.Lock()
        self.attempted = 0
        self.failed = 0

    def record(self, ok, what):
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"perfbench: failed request: {what}", file=sys.stderr)


# ---------------------------------------------------------------- CLI


def cli_request(flexminer, cls, extra=()):
    """One `flexminer count`; returns (seconds, peak RSS KiB, ok, detail)."""
    cmd = [flexminer, "count", cls["pattern"], "--graph", cls["path"], "--threads", str(THREADS)]
    cmd += list(extra)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    killer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
    killer.start()
    out = proc.stdout.read()
    # wait4 rather than Popen.wait: it reports this child's own peak RSS
    # (RUSAGE_CHILDREN would mix in every other child, builds included).
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    killer.cancel()
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    counts = []
    for line in out.decode(errors="replace").splitlines():
        _, _, value = line.partition(": ")
        if value.isdigit():
            counts.append(int(value))
    ok = proc.returncode == 0 and counts == cls["reference"]
    detail = f"{' '.join(cmd)} -> exit {proc.returncode}, counts {counts}"
    return elapsed, usage.ru_maxrss, ok, detail


def cli_loop(flexminer, classes, seconds, tally, seed):
    """Closed loop over a shuffled deck of `classes` for `seconds`.

    Returns per-class latency lists (ms), the loop's wall time (s) and
    the largest peak RSS (KiB) of any invocation."""
    deck = shuffled_deck(len(classes), seed)
    lat = [[] for _ in classes]
    rss = 0
    start = time.perf_counter()
    while True:
        i = next(deck)
        elapsed, maxrss, ok, detail = cli_request(flexminer, classes[i])
        tally.record(ok, detail)
        lat[i].append(elapsed * 1e3)
        rss = max(rss, maxrss)
        if time.perf_counter() - start >= seconds:
            return lat, time.perf_counter() - start, rss


def cli_setup(flexminer, classes, tally):
    """Set-up of a CLI workload: the warm-up invocation the timed loop
    excludes (page cache, dynamic loader), repeated; returns the median
    seconds."""
    times = []
    for _ in range(SETUP_REPS):
        elapsed, _, ok, detail = cli_request(flexminer, classes[0])
        tally.record(ok, detail)
        times.append(elapsed)
    return statistics.median(times)


def cli_e2e(flexminer, classes, seconds, seed, tally):
    setup_s = cli_setup(flexminer, classes, tally)
    lat, wall, rss_kib = cli_loop(flexminer, classes, seconds, tally, seed)
    flat = [x for group in lat for x in group]
    # Every CLI request runs at the default priority 0, so the batch
    # rate is the whole rate.
    rate = len(flat) / wall
    metrics = {
        "e2e_ms_p50": (mean_of_medians(lat), "ms"),
        "e2e_ms_p90": (percentile(flat, 0.9), "ms"),
        "throughput_per_s": (rate, "1/s"),
        "batch_throughput_per_s": (rate, "1/s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, {"latency_samples": len(flat), "latency_ms": lat}


# -------------------------------------------------------------- serve


class Server:
    """A `flexminer serve --socket` child process."""

    def __init__(self, flexminer, run_dir, tag):
        self.sock_path = os.path.join(run_dir, f"s{tag}.sock")
        journal = os.path.join(run_dir, f"journal-{tag}.fmj")
        self.stderr = open(os.path.join(run_dir, f"serve-{tag}.log"), "wb")
        cmd = [flexminer, "serve", "--socket", self.sock_path, "--workers", str(SERVE_WORKERS),
               "--max-running", "1", "--journal", journal]
        self.rusage = None
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.stderr)
        self.ready = threading.Event()
        # Drain stdout continuously: the per-job summary lines printed at
        # exit must never block the server on a full pipe.
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        if not self.ready.wait(REQUEST_TIMEOUT_S):
            self.kill()
            raise RuntimeError("serve never printed its ready line")

    def _read(self):
        for line in self.proc.stdout:
            if b'"event":"ready"' in line:
                self.ready.set()
        self.ready.set()

    def connect(self):
        return Client(self.sock_path)

    def shutdown(self):
        """Asks the server to drain, reaps it, and returns its max RSS KiB."""
        try:
            with self.connect() as c:
                c.call({"op": "shutdown"})
        finally:
            self.wait()
        return self.rusage.ru_maxrss

    def wait(self):
        deadline = time.monotonic() + REQUEST_TIMEOUT_S
        while self.rusage is None:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.rusage = usage
                self.proc.returncode = os.waitstatus_to_exitcode(status)
            elif time.monotonic() > deadline:
                self.kill()
            else:
                time.sleep(0.01)
        self.reader.join(REQUEST_TIMEOUT_S)
        self.stderr.close()

    def kill(self):
        if self.proc.poll() is None and self.rusage is None:
            self.proc.kill()
        if self.rusage is None:
            pid, status, usage = os.wait4(self.proc.pid, 0)
            self.rusage = usage
            self.proc.returncode = os.waitstatus_to_exitcode(status)


class Client:
    """One JSONL connection to the serve socket."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(REQUEST_TIMEOUT_S)
        self.sock.connect(path)
        self.file = self.sock.makefile("rwb")

    def call(self, request):
        self.file.write(json.dumps(request).encode() + b"\n")
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise RuntimeError(f"server closed the connection on {request}")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()
        self.sock.close()


def serve_job(client, cls):
    """Submits one job and waits for it; returns (submit s, total s, ok, detail)."""
    start = time.perf_counter()
    ack = client.call({"op": "submit", "pattern": cls["pattern"], "graph": cls["path"],
                       "threads": THREADS, "priority": cls["priority"]})
    acked = time.perf_counter()
    if not ack.get("ok"):
        return acked - start, acked - start, False, f"submit {cls['pattern']}: {ack}"
    done = client.call({"op": "wait", "id": ack["id"]})
    end = time.perf_counter()
    ok = (done.get("outcome") == "finished" and done.get("status") == "Complete"
          and done.get("counts") == cls["reference"])
    return acked - start, end - start, ok, f"{cls['pattern']}@{cls['graph']}: {done}"


def serve_setup(flexminer, classes, run_dir, tag, tally):
    """Spawn to `ready`, plus one warm-up job per graph so its resident
    copy is loaded. Returns (server, seconds)."""
    server = Server(flexminer, run_dir, tag)
    try:
        warm = {}
        for cls in classes:
            warm.setdefault(cls["graph"], cls)
        with server.connect() as c:
            for cls in warm.values():
                _, _, ok, detail = serve_job(c, cls)
                tally.record(ok, detail)
    except Exception:
        server.kill()
        raise
    return server, time.perf_counter() - server.start


def serve_clients(server, classes, seconds, seed, tally):
    """Runs one closed-loop connection per client for `seconds`.

    Returns {client: {"lat": [ms], "submit": [ms], "done": n, "last": s,
    "priority": p, "per_class": {"pattern@graph": [ms]}}}."""
    results = {}
    errors = []
    start = time.perf_counter()

    def client_loop(ids, deck):
        name = classes[ids[0]]["client"]
        res = {"lat": [], "submit": [], "done": 0, "last": 0.0,
               "priority": classes[ids[0]]["priority"], "per_class": {}}
        try:
            with server.connect() as c:
                while time.perf_counter() - start < seconds:
                    cls = classes[next(deck)]
                    sub, total, ok, detail = serve_job(c, cls)
                    tally.record(ok, detail)
                    res["submit"].append(sub * 1e3)
                    res["lat"].append(total * 1e3)
                    key = f"{cls['pattern']}@{cls['graph']}"
                    res["per_class"].setdefault(key, []).append(total * 1e3)
                    res["done"] += 1
                    res["last"] = time.perf_counter() - start
        except Exception as e:  # reported after the join
            errors.append(f"client {name}: {e}")
        results[name] = res

    threads = [threading.Thread(target=client_loop, args=d) for d in client_decks(classes, seed)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise RuntimeError("; ".join(errors))
    return results


def latency_clients(clients):
    """The clients of the highest priority: whose latency the percentiles report."""
    top = max(r["priority"] for r in clients.values())
    return [r for r in clients.values() if r["priority"] == top]


def serve_e2e(flexminer, classes, seconds, seed, run_dir, tally):
    setups = []
    server = None
    for tag in range(SETUP_REPS):
        server, elapsed = serve_setup(flexminer, classes, run_dir, tag, tally)
        setups.append(elapsed)
        if tag < SETUP_REPS - 1:
            server.shutdown()
    try:
        clients = serve_clients(server, classes, seconds, seed, tally)
    finally:
        rss_kib = server.shutdown()
    top_clients = latency_clients(clients)
    lat = [x for r in top_clients for x in r["lat"]]
    per_class = [v for r in top_clients for v in r["per_class"].values()]
    rate = lambda rs: sum(r["done"] / r["last"] for r in rs if r["last"] > 0)
    metrics = {
        "e2e_ms_p50": (mean_of_medians(per_class), "ms"),
        "e2e_ms_p90": (percentile(lat, 0.9), "ms"),
        "throughput_per_s": (rate(clients.values()), "1/s"),
        "batch_throughput_per_s": (rate([r for r in clients.values() if r["priority"] == 0]), "1/s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    samples = {
        "latency_samples": len(lat),
        "jobs_by_client": {name: r["done"] for name, r in clients.items()},
        "class_ms_p50": {k: statistics.median(v) for r in clients.values()
                         for k, v in r["per_class"].items()},
    }
    return metrics, samples
