//! End-to-end tests of the `flexminer` binary's job-control surface:
//! `--timeout`/`--budget` on `count`, `--watchdog` on `sim`, and the
//! distinct exit codes scripts rely on.

use std::process::{Command, Output};

fn flexminer(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flexminer")).args(args).output().expect("binary should spawn")
}

const GRAPH: &str = "gen:powerlaw,n=400,m=5,closure=0.5,seed=3";

#[test]
fn complete_count_exits_zero_with_counts_on_stdout() {
    let out = flexminer(&["count", "triangle", "--graph", GRAPH]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("triangle: "), "stdout: {stdout}");
}

#[test]
fn zero_timeout_exits_with_deadline_code() {
    let out = flexminer(&["count", "triangle", "--graph", GRAPH, "--timeout", "0"]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    // Counts are still printed (exact over the completed subset) and the
    // truncation is flagged on stderr.
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("triangle: "));
    assert!(String::from_utf8_lossy(&out.stderr).contains("DeadlineExceeded"));
}

#[test]
fn tiny_budget_exits_with_budget_code() {
    let out = flexminer(&["count", "4-cycle", "--graph", GRAPH, "--budget", "50"]);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("BudgetExhausted"));
}

#[test]
fn generous_budget_stays_complete() {
    let out = flexminer(&["count", "triangle", "--graph", GRAPH, "--budget", "1000000000"]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn watchdog_trip_exits_seven_with_fsm_dump() {
    let out = flexminer(&["sim", "4-clique", "--graph", GRAPH, "--pes", "1", "--watchdog", "1"]);
    assert_eq!(out.status.code(), Some(7), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("watchdog tripped"), "stderr: {stderr}");
    assert!(stderr.contains("PE 0:"), "stderr: {stderr}");
}

#[test]
fn generous_watchdog_sim_exits_zero() {
    let out = flexminer(&[
        "sim",
        "triangle",
        "--graph",
        "gen:er,n=60,p=0.1,seed=2",
        "--pes",
        "2",
        "--watchdog",
        "100000000",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn bad_flag_values_exit_one() {
    let out = flexminer(&["count", "triangle", "--graph", GRAPH, "--timeout", "soon"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --timeout"));
}

/// A unique checkpoint path per call, so parallel test binaries and reruns
/// never collide on stale files.
fn temp_ckpt(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fm-cli-ckpt-{}-{tag}-{n}.bin", std::process::id()))
}

/// The durability loop end to end through the binary: a budget-cut run
/// writes a snapshot (exit 4), and `--resume` finishes the job with the
/// exact same stdout as an uninterrupted run (exit 0).
#[test]
fn interrupted_count_resumes_to_the_exact_full_total() {
    let path = temp_ckpt("resume");
    let ckpt = path.to_str().unwrap();
    let full = flexminer(&["count", "4-cycle", "--graph", GRAPH]);
    assert_eq!(full.status.code(), Some(0));

    let cut = flexminer(&[
        "count",
        "4-cycle",
        "--graph",
        GRAPH,
        "--budget",
        "500",
        "--checkpoint",
        ckpt,
        "--checkpoint-interval",
        "1",
    ]);
    assert_eq!(cut.status.code(), Some(4), "stderr: {}", String::from_utf8_lossy(&cut.stderr));
    assert!(path.exists(), "budget-cut run must leave a snapshot behind");

    let resumed = flexminer(&["count", "4-cycle", "--graph", GRAPH, "--resume", ckpt]);
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(resumed.stdout, full.stdout, "resumed totals must be bit-identical");
    let _ = std::fs::remove_file(&path);
}

/// Resuming against a different graph is a structured refusal (exit 1
/// with the fingerprint message), never a silently wrong count.
#[test]
fn resume_against_a_different_graph_exits_one() {
    let path = temp_ckpt("mismatch");
    let ckpt = path.to_str().unwrap();
    let seed = flexminer(&[
        "count",
        "triangle",
        "--graph",
        GRAPH,
        "--checkpoint",
        ckpt,
        "--checkpoint-interval",
        "64",
    ]);
    assert_eq!(seed.status.code(), Some(0));
    let out =
        flexminer(&["count", "triangle", "--graph", "gen:er,n=60,p=0.1,seed=2", "--resume", ckpt]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("different graph"), "stderr: {stderr}");
    let _ = std::fs::remove_file(&path);
}

/// A missing snapshot is an IO refusal, and flag misuse is caught before
/// any mining starts.
#[test]
fn durability_flag_misuse_exits_one() {
    let missing = temp_ckpt("missing");
    let out =
        flexminer(&["count", "triangle", "--graph", GRAPH, "--resume", missing.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("checkpoint io"));

    let out = flexminer(&["count", "triangle", "--graph", GRAPH, "--checkpoint-interval", "8"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires --checkpoint"));

    let out = flexminer(&["count", "triangle", "--graph", GRAPH, "--max-retries", "many"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --max-retries"));
}

/// `--max-retries` parses and a healthy run stays exit 0 (the retry knob
/// only matters when faults fire).
#[test]
fn max_retries_on_a_healthy_run_stays_complete() {
    let out = flexminer(&["count", "triangle", "--graph", GRAPH, "--max-retries", "3"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("triangle: "));
}

/// Naive JSON structural check, good enough to validate trace/heartbeat
/// shape without a parser dependency: balanced braces and the expected
/// markers present.
fn assert_json_object(s: &str, markers: &[&str]) {
    let opens = s.matches('{').count();
    let closes = s.matches('}').count();
    assert_eq!(opens, closes, "unbalanced braces in {s:.200}");
    assert!(opens > 0, "no JSON object in {s:.200}");
    for m in markers {
        assert!(s.contains(m), "missing {m:?} in {s:.200}");
    }
}

/// `[start, end)` in microseconds of the first complete event named
/// `name` in a Chrome trace.
fn span_bounds(trace: &str, name: &str) -> (u64, u64) {
    let at = trace.find(&format!("{{\"name\":\"{name}\"")).unwrap_or_else(|| panic!("no {name}"));
    let event = &trace[at..];
    let field = |key: &str| -> u64 {
        let from = event.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
        event[from..].split(|c: char| !c.is_ascii_digit()).next().unwrap().parse().unwrap()
    };
    (field("ts"), field("ts") + field("dur"))
}

/// `count --metrics-out/--trace-out` writes Prometheus text (by extension)
/// and valid Chrome trace JSON, while stdout stays byte-identical to a
/// plain run (telemetry is observation, never perturbation).
#[test]
fn count_telemetry_exports_and_stays_bit_identical() {
    let prom = temp_ckpt("metrics").with_extension("prom");
    let trace = temp_ckpt("trace").with_extension("json");
    let plain = flexminer(&["count", "4-clique", "--graph", GRAPH, "--threads", "4"]);
    assert_eq!(plain.status.code(), Some(0));
    let observed = flexminer(&[
        "count",
        "4-clique",
        "--graph",
        GRAPH,
        "--threads",
        "4",
        "--metrics-out",
        prom.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(
        observed.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&observed.stderr)
    );
    assert_eq!(observed.stdout, plain.stdout, "telemetry must not change counts");

    let prom_text = std::fs::read_to_string(&prom).unwrap();
    assert!(prom_text.contains("# TYPE fm_pattern_count counter"), "{prom_text:.300}");
    assert!(prom_text.contains("fm_depth_setop_iterations{depth=\"1\"}"), "{prom_text:.300}");
    assert!(prom_text.contains("fm_dispatches{tier="), "{prom_text:.300}");
    assert!(prom_text.contains("fm_task_wall_time_us_bucket"), "{prom_text:.300}");

    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert_json_object(
        &trace_text,
        &["\"traceEvents\"", "\"name\":\"mine\"", "\"name\":\"start-vertex-task\"", "\"ph\":\"X\""],
    );
    // The CLI's own layers share the engine's clock and end before mining.
    let ingest = span_bounds(&trace_text, "ingest");
    let compile = span_bounds(&trace_text, "compile");
    let mine = span_bounds(&trace_text, "mine");
    assert!(ingest.1 <= compile.0, "ingest {ingest:?} overlaps compile {compile:?}");
    assert!(compile.1 <= mine.0, "compile {compile:?} overlaps mine {mine:?}");
    assert!(trace_text.contains("\"name\":\"ingest\",\"cat\":\"cli\""), "{trace_text:.300}");
    let _ = std::fs::remove_file(&prom);
    let _ = std::fs::remove_file(&trace);
}

/// `--progress` emits live lines on stderr and `--heartbeat` appends JSONL
/// snapshots; `--log-level error` silences the advisory footer.
#[test]
fn progress_and_heartbeat_report_live_state() {
    let heartbeat = temp_ckpt("heartbeat").with_extension("jsonl");
    let out = flexminer(&[
        "count",
        "triangle",
        "--graph",
        GRAPH,
        "--progress",
        "64",
        "--heartbeat",
        heartbeat.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[progress]"), "stderr: {stderr}");
    assert!(stderr.contains("status Complete"), "stderr: {stderr}");
    let lines = std::fs::read_to_string(&heartbeat).unwrap();
    let last = lines.lines().last().expect("at least the final heartbeat");
    assert_json_object(last, &["\"done\"", "\"total\"", "\"status\":\"Complete\""]);

    let quiet = flexminer(&["count", "triangle", "--graph", GRAPH, "--log-level", "error"]);
    assert_eq!(quiet.status.code(), Some(0));
    let quiet_err = String::from_utf8_lossy(&quiet.stderr);
    assert!(!quiet_err.contains("threads"), "stderr should be silent: {quiet_err}");
    let _ = std::fs::remove_file(&heartbeat);
}

/// `sim --metrics-out/--trace-out`: per-PE FSM occupancy lands in the
/// metrics document and the machine timeline renders as counter tracks.
#[test]
fn sim_telemetry_exports_occupancy_and_timeline() {
    let prom = temp_ckpt("sim-metrics").with_extension("txt");
    let trace = temp_ckpt("sim-trace").with_extension("json");
    let out = flexminer(&[
        "sim",
        "triangle",
        "--graph",
        GRAPH,
        "--pes",
        "4",
        "--metrics-out",
        prom.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let prom_text = std::fs::read_to_string(&prom).unwrap();
    assert!(
        prom_text.contains("fm_sim_pe_occupancy_cycles{pe=\"0\",state=\"Idle\"}"),
        "{prom_text:.400}"
    );
    assert!(
        prom_text.contains("fm_sim_pe_occupancy_cycles{pe=\"3\",state=\"IteratingEdges\"}"),
        "{prom_text:.400}"
    );
    assert!(prom_text.contains("fm_sim_cycles"), "{prom_text:.400}");
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert_json_object(&trace_text, &["\"traceEvents\"", "\"ph\":\"C\"", "pe_utilization"]);
    let _ = std::fs::remove_file(&prom);
    let _ = std::fs::remove_file(&trace);
}

/// A header declaring more vertices than memory can hold is a clean error
/// (exit 1 with a message), not an allocator abort, under an address-space
/// limit well below the 32 GB the CSR offsets would need.
#[test]
fn impossible_vertex_count_is_an_error_not_an_abort() {
    let path = temp_ckpt("huge-header").with_extension("txt");
    std::fs::write(&path, "# vertices 4000000000\n0 1\n").unwrap();
    let out = Command::new("sh")
        .args(["-c", "ulimit -v 4000000; exec \"$0\" count triangle --graph \"$1\""])
        .arg(env!("CARGO_BIN_EXE_flexminer"))
        .arg(&path)
        .output()
        .expect("sh should spawn");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("cannot allocate 32000000008 bytes"), "stderr: {stderr}");
}

/// Bad telemetry flag values fail fast, before any mining starts.
#[test]
fn bad_telemetry_flags_exit_one() {
    let out = flexminer(&["count", "triangle", "--graph", GRAPH, "--progress", "0"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --progress"));

    let out = flexminer(&["count", "triangle", "--graph", GRAPH, "--log-level", "loud"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --log-level"));
}
