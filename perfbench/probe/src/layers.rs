//! The traced per-layer split, driven line by line from `run.py`.
//!
//! Every timing here is a [`Span`] recorded on one [`TraceClock`] around a
//! call into a layer's public entry point; the spans are written as one
//! Chrome trace at the end, so the benchmark and the trace file share one
//! measurement path. The probe reports raw span durations and counters
//! only: every summary statistic is computed by the Python side.
//!
//! Commands arrive one per line on stdin; each gets one JSON line on
//! stdout. `J` indexes the workload's latency classes, `REQ` is the
//! request number carried as the spans' `req` argument.
//!
//! - `request J REQ 1` — `graphspec::load` → `Miner::plan` →
//!   `fm_engine::prepare` → `fm_engine::mine_prepared`, a span around
//!   each: `{"ok","ingest_us","compile_us","prepare_us","mine_us",
//!   "hub_rows","hub_bytes"}`.
//! - `request J REQ 0` — the same calls with only their end points
//!   timed: `{"ok","total_us"}`.
//! - `begin plain|telemetry REQ` / `end` — a span on the CLI lane around
//!   a `flexminer count` process the caller runs in between; `end`
//!   answers `{"dur_us"}`.
//! - `finish SECONDS SEQ...` — the untimed counter runs, the same mines
//!   at one thread and under `EngineConfig::paper_faithful()`, and the
//!   workload's clients through an in-process `fm_jobs::Supervisor`
//!   (client `i` sends the comma-separated class indices `SEQ[i]`,
//!   cycling); writes the trace and answers with the raw samples.

use crate::workload::Workload;
use crate::{Input, THREADS};
use flexminer::engine::{self, EngineConfig, MiningResult, TelemetryOptions, WorkCounters};
use flexminer::jobs::jsonl::{u64_array, ObjWriter};
use flexminer::jobs::{JobObserver, JobOutcome, JobSpec, Supervisor, SupervisorConfig};
use flexminer::plan::{compile, CompileOptions, ExecutionPlan};
use flexminer::telemetry::{chrome_trace_json, Span, TraceClock};
use flexminer::{graphspec, Miner, Pattern};
use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Chrome-trace lanes of the request loop and of the `flexminer count`
/// processes; job clients use `CLIENT_LANE + i`.
const LOOP_LANE: u32 = 0;
const CLI_LANE: u32 = 1;
const CLIENT_LANE: u32 = 2000;

fn parse_pattern(name: &str) -> Result<Pattern, String> {
    name.parse().map_err(|e| format!("bad pattern {name}: {e}"))
}

/// `[[...],[...]]`: one list per latency class.
fn lists(per_class: &[Vec<u64>]) -> String {
    let body: Vec<String> = per_class.iter().map(|v| u64_array(v)).collect();
    format!("[{}]", body.join(","))
}

/// The probe's state across commands.
pub struct Session<'a> {
    wl: &'a Workload,
    inputs: &'a [Input],
    references: &'a [Vec<u64>],
    /// Class indices of the latency classes (what `J` indexes).
    classes: Vec<usize>,
    cfg: EngineConfig,
    clock: TraceClock,
    spans: Vec<Span>,
    /// Plan and result of each latency class's latest traced request.
    last: Vec<Option<(ExecutionPlan, MiningResult)>>,
    cli_open: Option<(&'static str, u64, u64)>,
    tally: Tally,
}

/// Requests checked against the reference, and how many failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, what: &str, got: Option<Vec<u64>>, want: &[u64]) -> bool {
        self.attempted += 1;
        let ok = got.as_deref() == Some(want);
        if !ok {
            self.failed += 1;
            eprintln!("perfbench-probe: {what}: got {got:?}, reference {want:?}");
        }
        ok
    }
}

impl<'a> Session<'a> {
    pub fn new(wl: &'a Workload, inputs: &'a [Input], references: &'a [Vec<u64>]) -> Session<'a> {
        let classes = wl.latency_classes();
        Session {
            last: classes.iter().map(|_| None).collect(),
            classes,
            wl,
            inputs,
            references,
            cfg: EngineConfig::with_threads(THREADS),
            clock: TraceClock::start(),
            spans: Vec::new(),
            cli_open: None,
            tally: Tally::default(),
        }
    }

    /// Answers commands until `finish`, which writes `trace_out`.
    pub fn serve(
        mut self,
        input: impl BufRead,
        mut output: impl Write,
        trace_out: &Path,
    ) -> Result<(), String> {
        for line in input.lines() {
            let line = line.map_err(|e| format!("read command: {e}"))?;
            let words: Vec<&str> = line.split_whitespace().collect();
            let (reply, done) = match words.as_slice() {
                ["request", j, req, traced] => {
                    (self.request(index(j)?, index(req)? as u64, *traced == "1")?, false)
                }
                ["begin", kind, req] => (self.begin(kind, index(req)? as u64)?, false),
                ["end"] => (self.end()?, false),
                ["finish", seconds, seqs @ ..] => {
                    let seconds: f64 = seconds.parse().map_err(|e| format!("bad seconds: {e}"))?;
                    let seqs = seqs
                        .iter()
                        .map(|s| s.split(',').map(index).collect::<Result<Vec<_>, _>>())
                        .collect::<Result<Vec<_>, _>>()?;
                    (self.finish(seconds, &seqs, trace_out)?, true)
                }
                _ => return Err(format!("unknown command {line:?}")),
            };
            writeln!(output, "{reply}")
                .and_then(|_| output.flush())
                .map_err(|e| format!("write reply: {e}"))?;
            if done {
                return Ok(());
            }
        }
        Err("stdin closed before finish".to_string())
    }

    fn class(&self, j: usize) -> Result<usize, String> {
        self.classes.get(j).copied().ok_or_else(|| format!("no latency class {j}"))
    }

    /// One CLI-shaped request through the layers' public entry points.
    fn request(&mut self, j: usize, req: u64, traced: bool) -> Result<String, String> {
        let ci = self.class(j)?;
        let c = &self.wl.classes[ci];
        let (path, want) = (&self.inputs[c.graph].path, &self.references[ci]);
        let cfg = &self.cfg;
        if !traced {
            let t0 = Instant::now();
            let g = graphspec::load(path)?;
            let plan = Miner::new(&g)
                .pattern(parse_pattern(c.pattern)?)
                .plan()
                .map_err(|e| e.to_string())?;
            let prepared = engine::prepare(&g, &plan, cfg);
            let result = engine::mine_prepared(&prepared, &plan, cfg);
            let total_us = t0.elapsed().as_micros() as u64;
            // The untraced request also stops at its last call: the
            // check comes after the clock.
            let ok = self.tally.check(c.pattern, result.try_unique_counts(&plan), want);
            return Ok(ObjWriter::new().bool("ok", ok).u64("total_us", total_us).finish());
        }
        let (clock, arg) = (self.clock, Some(("req", req)));
        let mut spans = Vec::with_capacity(5);
        let mut close = |name, start| {
            let s = Span::close(&clock, name, "layer", start, LOOP_LANE, arg);
            spans.push(s);
            s.dur_us
        };
        let t0 = clock.now_us();
        let g = graphspec::load(path)?;
        let ingest = close("ingest", t0);
        let t = clock.now_us();
        let plan =
            Miner::new(&g).pattern(parse_pattern(c.pattern)?).plan().map_err(|e| e.to_string())?;
        let compile = close("compile", t);
        let t = clock.now_us();
        let prepared = engine::prepare(&g, &plan, cfg);
        let prepare = close("prepare", t);
        let t = clock.now_us();
        let result = engine::mine_prepared(&prepared, &plan, cfg);
        let mine = close("mine", t);
        close("request", t0);
        self.spans.extend(spans);
        let hubs = prepared.hubs_arc();
        let ok = self.tally.check(c.pattern, result.try_unique_counts(&plan), want);
        self.last[j] = Some((plan, result));
        Ok(ObjWriter::new()
            .bool("ok", ok)
            .u64("ingest_us", ingest)
            .u64("compile_us", compile)
            .u64("prepare_us", prepare)
            .u64("mine_us", mine)
            .u64("hub_rows", hubs.as_ref().map_or(0, |h| h.num_hubs() as u64))
            .u64("hub_bytes", hubs.as_ref().map_or(0, |h| h.bytes() as u64))
            .finish())
    }

    fn begin(&mut self, kind: &str, req: u64) -> Result<String, String> {
        let name = match kind {
            "plain" => "flexminer-count",
            "telemetry" => "flexminer-count-telemetry",
            other => return Err(format!("unknown span kind {other:?}")),
        };
        self.cli_open = Some((name, req, self.clock.now_us()));
        Ok("{}".to_string())
    }

    fn end(&mut self) -> Result<String, String> {
        let (name, req, start) = self.cli_open.take().ok_or("end without begin")?;
        let s = Span::close(&self.clock, name, "cli", start, CLI_LANE, Some(("req", req)));
        self.spans.push(s);
        Ok(ObjWriter::new().u64("dur_us", s.dur_us).finish())
    }

    /// The remaining phases: `seconds` is split 2:2:3 between the
    /// one-thread mine, the paper-faithful mine and the jobs drive.
    fn finish(
        &mut self,
        seconds: f64,
        seqs: &[Vec<usize>],
        trace_out: &Path,
    ) -> Result<String, String> {
        let budget = |share: f64| Duration::from_secs_f64(seconds * share / 7.0);
        let (counters, depth, tasks) = self.counters()?;
        let t1_cfg = EngineConfig::with_threads(1);
        let faithful_cfg = EngineConfig { threads: THREADS, ..EngineConfig::paper_faithful() };
        let (t1_us, _) = self.alt(&t1_cfg, "mine-1-thread", budget(2.0))?;
        let (faithful_us, faithful_iters) =
            self.alt(&faithful_cfg, "mine-paper-faithful", budget(2.0))?;
        let jobs = self.jobs(seqs, budget(3.0))?;
        let trace = chrome_trace_json("perfbench", &self.spans, &[]);
        std::fs::write(trace_out, trace)
            .map_err(|e| format!("write {}: {e}", trace_out.display()))?;
        Ok(ObjWriter::new()
            .u64("attempted", self.tally.attempted)
            .u64("failed", self.tally.failed)
            .raw("work", &format!("[{}]", counters.join(",")))
            .raw("depth_setop_iters", &lists(&depth))
            .raw("tasks", &u64_array(&tasks))
            .raw("t1_us", &lists(&t1_us))
            .raw("faithful_us", &lists(&faithful_us))
            .raw("faithful_iters", &u64_array(&faithful_iters))
            .raw("jobs", &jobs)
            .finish())
    }

    /// Per latency class: the traced request's work counters, and the
    /// per-depth split and task count from one untimed observed run
    /// (telemetry on would perturb the timed mine).
    #[allow(clippy::type_complexity)]
    fn counters(&mut self) -> Result<(Vec<String>, Vec<Vec<u64>>, Vec<u64>), String> {
        let observe = TelemetryOptions { metrics: true, ..TelemetryOptions::default() };
        let (mut counters, mut depth, mut tasks) = (vec![], vec![], vec![]);
        for j in 0..self.classes.len() {
            let ci = self.classes[j];
            let (plan, result) = self.last[j].take().ok_or("a latency class was never traced")?;
            let g = &self.inputs[self.wl.classes[ci].graph].graph;
            let prepared = engine::prepare(g, &plan, &self.cfg);
            let r = engine::mine_prepared_observed(&prepared, &plan, &self.cfg, &observe);
            self.tally.check("observed run", r.try_unique_counts(&plan), &self.references[ci]);
            counters.push(work_json(&result.work));
            let shard = r.telemetry.as_deref();
            depth.push(shard.map_or(vec![], |s| s.depth_setop_iterations.to_vec()));
            tasks.push(shard.map_or(0, |s| s.task_micros.count));
            self.last[j] = Some((plan, result));
        }
        Ok((counters, depth, tasks))
    }

    /// Each latency class's mine under `cfg`, repeated for `budget`:
    /// durations per class, and set-op iterations per class.
    fn alt(
        &mut self,
        cfg: &EngineConfig,
        name: &'static str,
        budget: Duration,
    ) -> Result<(Vec<Vec<u64>>, Vec<u64>), String> {
        let k = self.classes.len();
        let mut times = vec![vec![]; k];
        let mut iters = vec![0; k];
        let end = Instant::now() + budget;
        loop {
            for (j, slot) in times.iter_mut().enumerate() {
                let ci = self.classes[j];
                let (plan, _) = self.last[j].as_ref().ok_or("a latency class was never traced")?;
                let g = &self.inputs[self.wl.classes[ci].graph].graph;
                let prepared = engine::prepare(g, plan, cfg);
                let t = self.clock.now_us();
                let r = engine::mine_prepared(&prepared, plan, cfg);
                let s = Span::close(&self.clock, name, "layer", t, LOOP_LANE, None);
                self.spans.push(s);
                slot.push(s.dur_us);
                iters[j] = r.work.setop_iterations;
                self.tally.check(name, r.try_unique_counts(plan), &self.references[ci]);
            }
            if Instant::now() >= end {
                return Ok((times, iters));
            }
        }
    }

    /// Drives the workload's clients through an in-process supervisor
    /// configured like `flexminer serve --workers 2 --max-running 1`.
    fn jobs(&mut self, seqs: &[Vec<usize>], budget: Duration) -> Result<String, String> {
        let (wl, inputs, references, clock) = (self.wl, self.inputs, self.references, self.clock);
        if let Some(&bad) = seqs.iter().flatten().find(|&&ci| ci >= wl.classes.len()) {
            return Err(format!("no class {bad}"));
        }
        let obs = Arc::new(JobObserver::new(clock, 4096, false));
        let cfg = SupervisorConfig { workers: 2, max_running: 1, ..SupervisorConfig::default() };
        let sup = Supervisor::with_observer(cfg, Some(Arc::clone(&obs)));
        // Graphs stay resident, as in serve.
        let graphs: Vec<Arc<flexminer::CsrGraph>> =
            inputs.iter().map(|i| Arc::new(i.graph.clone())).collect();
        let classes = &self.classes;
        let end = Instant::now() + budget;
        let shared = Mutex::new((vec![Vec::<u64>::new(); classes.len()], 0u64, 0u64, vec![]));
        std::thread::scope(|s| {
            for (i, seq) in seqs.iter().enumerate().filter(|(_, seq)| !seq.is_empty()) {
                let (sup, graphs, shared) = (&sup, &graphs, &shared);
                s.spawn(move || {
                    let lane = CLIENT_LANE + i as u32;
                    let mut lat = vec![vec![]; classes.len()];
                    let (mut attempted, mut failed, mut local) = (0, 0, vec![]);
                    let mut req = 0u64;
                    for &ci in seq.iter().cycle() {
                        if Instant::now() >= end {
                            break;
                        }
                        let c = &wl.classes[ci];
                        req += 1;
                        let arg = Some(("req", req));
                        let t0 = clock.now_us();
                        let pattern = parse_pattern(c.pattern).expect("workload patterns parse");
                        let plan = Arc::new(compile(&pattern, CompileOptions::default()));
                        let spec = JobSpec {
                            priority: c.priority,
                            graph_key: graphspec::fingerprint(&inputs[c.graph].path),
                            ..JobSpec::new(
                                c.pattern,
                                Arc::clone(&graphs[c.graph]),
                                Arc::clone(&plan),
                                EngineConfig::with_threads(THREADS),
                            )
                        };
                        let handle = sup.submit(spec);
                        let submit = Span::close(&clock, "submit", "jobs", t0, lane, arg);
                        let outcome = handle.wait();
                        let t1 = submit.ts_us + submit.dur_us;
                        let wait = Span::close(&clock, "wait", "jobs", t1, lane, arg);
                        local.push(submit);
                        local.push(wait);
                        attempted += 1;
                        let counts = match outcome {
                            JobOutcome::Finished(r) if r.status.is_complete() => {
                                r.try_unique_counts(&plan)
                            }
                            _ => None,
                        };
                        if counts.as_deref() != Some(&references[ci][..]) {
                            failed += 1;
                            eprintln!("perfbench-probe: job {}: {counts:?}", c.pattern);
                        }
                        if let Some(j) = classes.iter().position(|&x| x == ci) {
                            lat[j].push(submit.dur_us + wait.dur_us);
                        }
                    }
                    let mut sh = shared.lock().expect("client tally lock poisoned");
                    for (all, mine) in sh.0.iter_mut().zip(lat) {
                        all.extend(mine);
                    }
                    sh.1 += attempted;
                    sh.2 += failed;
                    sh.3.extend(local);
                });
            }
        });
        let (lat, attempted, failed, client_spans) =
            shared.into_inner().expect("client tally lock poisoned");
        self.tally.attempted += attempted;
        self.tally.failed += failed;
        self.spans.extend(client_spans);
        let stats = sup.stats();
        let mut doc = sup.metrics();
        obs.metrics_into(&mut doc);
        sup.shutdown(None);
        let (sup_spans, _) = obs.take_spans();
        self.spans.extend(sup_spans);
        Ok(ObjWriter::new()
            .raw("lat_us", &lists(&lat))
            .u64("preempted", stats.preempted)
            .u64("completed", stats.completed)
            .raw("metrics", &doc.to_json())
            .finish())
    }
}

fn index(word: &str) -> Result<usize, String> {
    word.parse().map_err(|e| format!("bad number {word:?}: {e}"))
}

/// The work counters the per-layer metrics read.
fn work_json(w: &WorkCounters) -> String {
    ObjWriter::new()
        .u64("setop_iterations", w.setop_iterations)
        .u64("setop_invocations", w.setop_invocations)
        .u64("merge_dispatches", w.merge_dispatches)
        .u64("gallop_dispatches", w.gallop_dispatches)
        .u64("probe_dispatches", w.probe_dispatches)
        .u64("simd_dispatches", w.simd_dispatches)
        .u64("reuse_hits", w.reuse_hits)
        .u64("reuse_misses", w.reuse_misses)
        .u64("prefix_builds", w.prefix_builds)
        .u64("reuse_bytes_hwm", w.reuse_bytes_hwm)
        .finish()
}
