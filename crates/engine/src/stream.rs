//! The task loop: every software mining run, sliced into stints.
//!
//! GPM's parallelism is embarrassing: "the searches starting from different
//! vertices of G are mutually independent tasks and can be done
//! concurrently" (§I). Like the FlexMiner scheduler handing start vertices
//! to idle PEs, a job here is passive state — the pending start vertices
//! behind a lock-free claim cursor, the accumulated [`Checkpoint`]
//! snapshot, and the stop policy — and any thread advances it by running a
//! *stint*: claim a chunk, run each start vertex inside its panic boundary
//! ([`Executor::run_vertex_isolated`]), publish the chunk's contribution
//! to the snapshot, repeat. There is one such loop, with two drivers:
//!
//! * [`mine`] / [`mine_with`] drain one job with `threads` scoped threads,
//!   each running one unbounded stint (the calling thread runs it when
//!   `threads` is 1). The loop also carries the run's per-task hooks:
//!   straggler timing, live progress, per-worker telemetry collectors and
//!   the periodic checkpoint writer.
//! * A multi-job supervisor holds [`JobCore`]s — a job plus the prepared
//!   graph it owns, `'static` and `Arc`-shareable — and hands bounded
//!   stints of many jobs to one worker pool, pausing, resuming, and moving
//!   jobs across processes through their snapshots.
//!
//! Because start-vertex tasks are mutually independent and counts and
//! aggregate [`WorkCounters`](crate::WorkCounters) are schedule-independent,
//! a job run on any number of threads, interleaved with others, paused,
//! resumed, or restarted from a [`Checkpoint`] produces results
//! bit-identical to an uninterrupted single-threaded run.
//!
//! # Preemption invariants
//!
//! * Every claimed task either runs to its boundary (and its contribution
//!   is in the snapshot) or is returned to the scheduler untouched — a
//!   pause can never strand or double-run a start vertex.
//! * Finished tasks reach the snapshot under its lock once per claimed
//!   chunk, and before a stint yields, so the snapshot is always a
//!   consistent {bitmap, counts, work, faults} tuple over whole tasks:
//!   pausing at any instant and resuming (in-process or from the
//!   serialized bytes) loses nothing and repeats nothing. That is the
//!   only lock the loop takes between claims; the other hooks use atomics
//!   or publish once per stint.
//! * Stop conditions (cancel, deadline, iteration budget) are terminal;
//!   pause is not. A paused job resumes with
//!   [`resume_paused`](JobCore::resume_paused) once its active stints have
//!   yielded.

use crate::checkpoint::{Checkpoint, CheckpointConfig, CheckpointError, CheckpointWriter};
use crate::control::{CancelToken, Monitor};
use crate::executor::{payload_string, prepare, prepare_shared, Executor, PreparedGraph};
use crate::result::{detect_stragglers, Fault, MiningResult, RunStatus};
use crate::telemetry::TelemetryOptions;
use crate::{fail_scope, EngineConfig};
use fm_graph::{CsrGraph, VertexId};
use fm_plan::ExecutionPlan;
use fm_telemetry::{Span, SpanRing, TelemetryShard, TraceClock};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Mines `plan` over `graph` with the configured number of worker threads,
/// returning aggregated counts and work counters.
///
/// Graph preparation (k-clique orientation, auxiliary indexes) happens
/// once, up front.
///
/// # Examples
///
/// ```
/// use fm_engine::{mine, EngineConfig};
/// use fm_graph::generators;
/// use fm_pattern::Pattern;
/// use fm_plan::{compile, CompileOptions};
///
/// let g = generators::complete(10);
/// let plan = compile(&Pattern::k_clique(5), CompileOptions::default());
/// let result = mine(&g, &plan, &EngineConfig::with_threads(4));
/// assert_eq!(result.counts, vec![252]); // C(10,5)
/// ```
pub fn mine(graph: &CsrGraph, plan: &ExecutionPlan, cfg: &EngineConfig) -> MiningResult {
    mine_prepared(&prepare(graph, plan, cfg), plan, cfg)
}

/// Everything a [`mine_with`] run can carry beyond the engine config. The
/// default options make it a plain [`mine`].
#[derive(Clone, Debug, Default)]
pub struct MineOptions {
    /// Observed at start-vertex granularity: any clone of the token stops
    /// the run at the next task boundary and the result reports
    /// [`RunStatus::Cancelled`] with exact counts for the start vertices
    /// already finished. The token's scope also scopes fault injection to
    /// this run. A fresh token when `None`.
    pub cancel: Option<CancelToken>,
    /// Continue from a previously written snapshot: its completed start
    /// vertices are skipped and their contribution seeded from the
    /// snapshot, so the final counts are bit-identical to an uninterrupted
    /// run. The snapshot must validate against the same graph, plan, and
    /// count-relevant config (see [`Checkpoint::validate`]). Previously
    /// quarantined vertices are *re-attempted* — a process restart is the
    /// classic cure for environmental faults — with their fault history
    /// carried forward.
    pub resume: Option<Checkpoint>,
    /// Write periodic [`Checkpoint`] snapshots per this cadence, and a
    /// final one at exit (a resumed run keeps checkpointing, so a job can
    /// be interrupted any number of times).
    pub checkpoint: Option<CheckpointConfig>,
    /// Depth/tier metrics, Chrome-trace spans (`prepare`, `mine`,
    /// `start-vertex-task`, `checkpoint-write`), and live progress. Never
    /// changes counts or work counters; it only adds the
    /// [`MiningResult::telemetry`] shard.
    pub telemetry: TelemetryOptions,
}

/// [`mine`] with cancellation, durable recovery, and telemetry per `opts`.
///
/// # Errors
///
/// [`CheckpointError`] if the resume snapshot does not match this job's
/// graph, plan, or count-relevant config — a structured refusal, never a
/// silently wrong count. Periodic *write* failures do not error the run:
/// mining continues and the failures are reported in
/// [`MiningResult::checkpoint_failures`] /
/// [`MiningResult::checkpoint_error`].
pub fn mine_with(
    graph: &CsrGraph,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
    opts: &MineOptions,
) -> Result<MiningResult, CheckpointError> {
    let seed = match &opts.resume {
        Some(snapshot) => {
            snapshot.validate(graph, plan, cfg)?;
            resumed(snapshot.clone())
        }
        None if opts.checkpoint.is_some() => {
            Checkpoint::empty(graph, plan, cfg, plan.patterns.len())
        }
        None => Checkpoint::unfingerprinted(graph.num_vertices(), plan.patterns.len()),
    };
    let trace = opts.telemetry.trace;
    let prepare_start = trace.map(|c| c.now_us());
    let prepared = prepare(graph, plan, cfg);
    let prepare_span = trace
        .map(|clock| Span::close(&clock, "prepare", "engine", prepare_start.unwrap_or(0), 0, None));
    let mut result = drain(&prepared, plan, cfg, seed, opts);
    if let Some(span) = prepare_span {
        result.telemetry.get_or_insert_with(Default::default).absorb_spans(vec![span], 0);
    }
    Ok(result)
}

/// Like [`mine`], but over a graph already prepared with
/// [`prepare`](crate::executor::prepare). Benchmarks use this to exclude
/// the one-time preprocessing (orientation and hub-index construction)
/// from timed regions (the paper: "the preprocessing time is usually less
/// than 1% of the execution time, and once converted, the graph can be
/// used for any k-CL").
pub fn mine_prepared(
    g: &PreparedGraph<'_>,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
) -> MiningResult {
    mine_prepared_observed(g, plan, cfg, &TelemetryOptions::default())
}

/// [`mine_prepared`] with telemetry collection: depth/tier metrics, spans,
/// and/or live progress per `telemetry`. With the default (disabled)
/// options this is exactly [`mine_prepared`] — the overhead-ablation bench
/// compares the two on the same prepared graph.
pub fn mine_prepared_observed(
    g: &PreparedGraph<'_>,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
    telemetry: &TelemetryOptions,
) -> MiningResult {
    let seed = Checkpoint::unfingerprinted(g.num_vertices(), plan.patterns.len());
    drain(g, plan, cfg, seed, &MineOptions { telemetry: telemetry.clone(), ..Default::default() })
}

/// The seed of a resumed job: the snapshot minus its quarantine list,
/// whose vertices are about to be re-attempted (their fault history, which
/// already includes each one's final attempt, carries forward).
fn resumed(snapshot: Checkpoint) -> Checkpoint {
    Checkpoint { quarantined: Vec::new(), ..snapshot }
}

/// Drives one job over `g` to completion on `cfg.threads` threads and
/// returns its finalized result. Worker `w` traces as lane `w + 1`; the
/// driver's own spans (`mine`, `checkpoint-write`) are lane 0.
fn drain(
    g: &PreparedGraph<'_>,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
    seed: Checkpoint,
    opts: &MineOptions,
) -> MiningResult {
    let telemetry = &opts.telemetry;
    let mine_start = telemetry.trace.map(|c| c.now_us());
    let mut job = JobState::new(g, *cfg, seed);
    if let Some(token) = &opts.cancel {
        job.monitor.set_cancel_token(token.clone());
    }
    if cfg.straggler_ratio > 0 {
        job.monitor.enable_timing();
    }
    if let Some(p) = &telemetry.progress {
        let total = job.remaining() as u64;
        job.monitor.enable_progress(total, p);
    }
    if let Some(ckpt) = &opts.checkpoint {
        let writer = CheckpointWriter::new(ckpt.clone(), telemetry.trace);
        job.snap.get_mut().expect("job snapshot lock poisoned").writer = Some(writer);
    }
    job.telemetry = telemetry.clone();
    if cfg.threads <= 1 {
        job.stint(g, plan, u64::MAX, 1);
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (1..=cfg.threads as u32)
                .map(|lane| {
                    let job = &job;
                    scope.spawn(move || job.stint(g, plan, u64::MAX, lane))
                })
                .collect();
            for worker in workers {
                // Per-task panics are isolated inside the loop; a panic
                // escaping it degrades the job instead of aborting it. No
                // start vertex is attributable, so the fault is recorded
                // against the sentinel vid u32::MAX — and quarantined,
                // since nothing retried it.
                if let Err(payload) = worker.join() {
                    let fault =
                        Fault { vid: u32::MAX, attempt: 0, payload: payload_string(&*payload) };
                    let mut snap = job.snap.lock().expect("job snapshot lock poisoned");
                    snap.ckpt.faults.push(fault.clone());
                    snap.ckpt.quarantined.push(fault);
                }
            }
        });
    }
    let mut result = job.result();
    let mut times = job.monitor.take_times();
    result.stragglers = detect_stragglers(&mut times, cfg.straggler_ratio, cfg.straggler_min_task);
    result.telemetry = job.shard.into_inner().expect("job telemetry lock poisoned").map(Box::new);
    let mut driver_spans = Vec::new();
    let snap = job.snap.get_mut().expect("job snapshot lock poisoned");
    if let Some(writer) = &mut snap.writer {
        (result.checkpoint_error, result.checkpoint_failures) = writer.finish(&snap.ckpt);
        driver_spans = writer.take_spans();
    }
    if let Some(clock) = telemetry.trace {
        driver_spans.push(Span::close(&clock, "mine", "engine", mine_start.unwrap_or(0), 0, None));
        result.telemetry.get_or_insert_with(Default::default).absorb_spans(driver_spans, 0);
    }
    job.monitor.finish_progress(result.stragglers.len() as u64, result.status.as_str());
    // Progress reports skipped on emitter contention ride back on the
    // telemetry shard; runs without progress (dropped == 0) attach nothing,
    // keeping telemetry-off results bit-identical.
    let dropped = job.monitor.progress_dropped();
    if dropped > 0 {
        result.telemetry.get_or_insert_with(Default::default).progress_dropped += dropped;
    }
    let heartbeat_errors = job.monitor.heartbeat_errors();
    if heartbeat_errors > 0 {
        result.telemetry.get_or_insert_with(Default::default).heartbeat_errors += heartbeat_errors;
    }
    result
}

/// Lock-free chunk claimer over an indexed task list.
///
/// `claim` hands out disjoint `chunk`-sized index ranges with a
/// check-then-advance CAS loop: once the cursor reaches `len`, claimers
/// exit without pushing it further, so a drained cursor reads exactly
/// `len` — deterministic under any interleaving — instead of overshooting
/// by up to `threads * chunk`.
pub struct TaskCursor {
    cursor: AtomicUsize,
    len: usize,
    chunk: usize,
}

impl TaskCursor {
    /// A cursor over `len` tasks handed out `chunk` at a time (`chunk` is
    /// clamped to at least 1).
    pub fn new(len: usize, chunk: usize) -> TaskCursor {
        TaskCursor { cursor: AtomicUsize::new(0), len, chunk: chunk.max(1) }
    }

    /// Claims the next chunk of task indices, or `None` when the list is
    /// exhausted. Ranges from concurrent claimers are disjoint and their
    /// union covers `0..len` exactly.
    pub fn claim(&self) -> Option<Range<usize>> {
        loop {
            let cur = self.cursor.load(Ordering::Relaxed);
            if cur >= self.len {
                return None;
            }
            match self.cursor.compare_exchange_weak(
                cur,
                cur + self.chunk,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(cur..(cur + self.chunk).min(self.len)),
                Err(_) => continue,
            }
        }
    }

    /// How many task indices have been claimed so far (never exceeds the
    /// task count).
    pub fn claimed(&self) -> usize {
        self.cursor.load(Ordering::Relaxed).min(self.len)
    }

    /// How many task indices remain unclaimed.
    pub fn remaining(&self) -> usize {
        self.len - self.claimed()
    }
}

/// How one call to [`JobCore::run_stint`] ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stint {
    /// The stint ran to its task limit or the queue's end without
    /// interruption. `drained` is true when no pending task remains — the
    /// job is finished once its other active stints (if any) also return.
    Ran {
        /// Start-vertex tasks completed by this stint.
        tasks: u64,
        /// Whether the pending queue is now empty.
        drained: bool,
    },
    /// A pause request preempted the stint at a task boundary; unclaimed
    /// and unrun work was returned to the scheduler.
    Paused {
        /// Start-vertex tasks completed before yielding.
        tasks: u64,
    },
    /// A terminal stop condition (cancel, deadline, or iteration budget)
    /// ended the job. Further stints return this immediately.
    Stopped(RunStatus),
}

/// The scheduler state behind one job: the pending start vertices, the
/// shared claim cursor over them, and vids handed back by preempted stints.
struct Sched {
    pending: Arc<Vec<u32>>,
    cursor: Arc<TaskCursor>,
    /// Claimed-but-unrun vids returned by paused/stopped stints; folded
    /// back into `pending` on the next queue rebuild.
    leftover: Vec<u32>,
}

/// Optional stint tracing, enabled with [`JobCore::set_trace`]. The clock
/// is shared with the supervisor's own spans (one `TraceClock` origin per
/// serve session, so all jobs' spans merge onto one Perfetto timeline).
/// Spans are buffered per stint and flushed into the shared ring under one
/// lock per stint, keeping the per-task hot path lock-free.
struct JobTrace {
    clock: TraceClock,
    ring: Mutex<SpanRing>,
}

/// A job's accumulated progress: the same snapshot type the durable layer
/// writes, plus the periodic writer of a checkpointed run, both under one
/// lock so a written snapshot is always consistent.
struct Snap {
    ckpt: Checkpoint,
    writer: Option<CheckpointWriter>,
}

/// One job's graph-free state: everything the task loop reads and writes
/// except the prepared graph and the plan, which the driver passes to
/// [`stint`](Self::stint) — owned by a [`JobCore`], or borrowed for the
/// length of one [`mine_with`] run, so neither copies the graph.
struct JobState {
    cfg: EngineConfig,
    sched: Mutex<Sched>,
    snap: Mutex<Snap>,
    /// Preemption request; observed at start-vertex boundaries.
    pause: AtomicBool,
    /// The stop policy (cancel over deadline over iteration budget) plus
    /// the optional progress reporter and straggler timing.
    monitor: Monitor,
    /// Terminal stop, once a stop condition has fired (max severity wins).
    stopped: Mutex<Option<RunStatus>>,
    /// Stints currently inside `stint`.
    active: AtomicUsize,
    /// Per-stint collectors (metrics, task spans); off by default.
    telemetry: TelemetryOptions,
    /// Collector shards of finished stints, merged (untraced jobs).
    shard: Mutex<Option<TelemetryShard>>,
    /// Stint spans, off (`None`) by default so untraced jobs pay one null
    /// check per stint. Task spans of a traced job join them here.
    trace: Option<JobTrace>,
}

impl JobState {
    /// A job over the prepared graph `g`, continuing from `snap`: its
    /// completed start vertices are skipped. With several threads the
    /// pending queue is degree-descending: the hub subtrees dominate the
    /// critical path on power-law inputs, so scheduling them first keeps
    /// them off the tail of the dynamic schedule. Ties break by ascending
    /// vid (stable sort), keeping the schedule deterministic.
    fn new(g: &CsrGraph, cfg: EngineConfig, snap: Checkpoint) -> JobState {
        let mut pending: Vec<u32> =
            (0..g.num_vertices() as u32).filter(|&v| !snap.completed.contains(v)).collect();
        if cfg.degree_sched && cfg.threads > 1 {
            pending.sort_by_key(|&v| std::cmp::Reverse(g.degree(VertexId(v))));
        }
        let cursor = Arc::new(TaskCursor::new(pending.len(), cfg.chunk_size));
        JobState {
            cfg,
            sched: Mutex::new(Sched { pending: Arc::new(pending), cursor, leftover: Vec::new() }),
            snap: Mutex::new(Snap { ckpt: snap, writer: None }),
            pause: AtomicBool::new(false),
            monitor: Monitor::new(CancelToken::new(), cfg.budget),
            stopped: Mutex::new(None),
            active: AtomicUsize::new(0),
            telemetry: TelemetryOptions::default(),
            shard: Mutex::new(None),
            trace: None,
        }
    }

    fn stop_status(&self) -> Option<RunStatus> {
        *self.stopped.lock().expect("job stop lock poisoned")
    }

    fn record_stop(&self, status: RunStatus) -> RunStatus {
        let mut s = self.stopped.lock().expect("job stop lock poisoned");
        let merged = s.map_or(status, |prev| prev.max(status));
        *s = Some(merged);
        merged
    }

    /// Pending start vertices not yet claimed by any stint.
    fn remaining(&self) -> usize {
        let s = self.sched.lock().expect("job sched lock poisoned");
        s.cursor.remaining() + s.leftover.len()
    }

    /// Returns claimed-but-unrun vids to the scheduler (pause or stop hit
    /// mid-chunk), so no task is stranded.
    fn stash(&self, vids: &[u32]) {
        if !vids.is_empty() {
            self.sched.lock().expect("job sched lock poisoned").leftover.extend_from_slice(vids);
        }
    }

    /// Runs up to `max_tasks` start-vertex tasks (rounded up to the chunk
    /// grain) of this job over `g` on the calling thread, tracing as
    /// `lane`. Re-entrant: concurrent stints claim disjoint chunks of the
    /// same queue. Pause and stop conditions are observed at every task
    /// boundary; a preempted stint returns its unrun claims to the
    /// scheduler before yielding.
    fn stint(
        &self,
        g: &PreparedGraph<'_>,
        plan: &ExecutionPlan,
        max_tasks: u64,
        lane: u32,
    ) -> Stint {
        let stint_start = self.trace.as_ref().map(|t| t.clock.now_us());
        let mut spans: Vec<Span> = Vec::new();
        let stint = self.run_tasks(g, plan, max_tasks, lane, &mut spans);
        if let (Some(t), Some(start)) = (&self.trace, stint_start) {
            let (name, tasks) = match stint {
                Stint::Ran { tasks, .. } => ("stint", tasks),
                Stint::Paused { tasks } => ("stint-paused", tasks),
                Stint::Stopped(_) => ("stint-stopped", 0),
            };
            spans.push(Span::close(&t.clock, name, "job", start, lane, Some(("tasks", tasks))));
            let mut ring = t.ring.lock().unwrap_or_else(|e| e.into_inner());
            for s in spans {
                ring.push(s);
            }
        }
        stint
    }

    /// The task loop proper. Finished tasks reach the snapshot once per
    /// claimed chunk — the only lock the loop takes between claims; the
    /// stop policy and progress see every task through atomics, task times
    /// and the collector shard are published once at the end of the
    /// stint, and task spans of a traced job are buffered in `spans` for
    /// the caller to flush.
    fn run_tasks(
        &self,
        g: &PreparedGraph<'_>,
        plan: &ExecutionPlan,
        max_tasks: u64,
        lane: u32,
        spans: &mut Vec<Span>,
    ) -> Stint {
        if let Some(status) = self.stop_status() {
            return Stint::Stopped(status);
        }
        if self.pause.load(Ordering::Acquire) {
            return Stint::Paused { tasks: 0 };
        }
        let (pending, cursor) = {
            let s = self.sched.lock().expect("job sched lock poisoned");
            (Arc::clone(&s.pending), Arc::clone(&s.cursor))
        };
        let _active = ActiveGuard::enter(&self.active);
        fail_scope!(self.monitor.cancel_token());
        let mut ex = g.executor(plan, &self.cfg);
        // Whole chunks are claimed while fewer than `max_tasks` ran, so a
        // stint runs up to `max_tasks` rounded up to the chunk grain.
        let chunk = cursor.chunk as u64;
        let most_tasks = max_tasks.div_ceil(chunk).saturating_mul(chunk).max(chunk);
        if let Some(c) = self.telemetry.collector(lane, most_tasks) {
            ex.set_telemetry(c);
        }
        let mut times = self.monitor.timing_enabled().then(Vec::new);
        let timed = times.is_some() || ex.telemetry_times_tasks();
        let clock = ex.telemetry_clock();
        let mut ran = 0u64;
        let mut interrupt = None;
        while interrupt.is_none() && ran < max_tasks {
            let Some(range) = cursor.claim() else { break };
            let mut done = 0;
            for idx in range.clone() {
                interrupt = if self.pause.load(Ordering::Acquire) {
                    Some(Stint::Paused { tasks: 0 })
                } else {
                    self.monitor
                        .should_stop()
                        .map(|kind| Stint::Stopped(self.record_stop(kind.into())))
                };
                if interrupt.is_some() {
                    self.stash(&pending[idx..range.end]);
                    break;
                }
                let v = pending[idx];
                let started = timed.then(Instant::now);
                let span_start = clock.map(|c| c.now_us());
                let iters_before = ex.unpublished_setop_iterations();
                let ok = ex.run_vertex_isolated(VertexId(v));
                if let Some(started) = started {
                    let elapsed = started.elapsed();
                    if let Some(times) = times.as_mut() {
                        times.push((v, elapsed));
                    }
                    ex.telemetry_task_finished(v, span_start, elapsed);
                }
                self.monitor.spend(ex.unpublished_setop_iterations() - iters_before);
                self.monitor.task_finished(ok);
                done += 1;
            }
            self.publish(&mut ex, done);
            ran += done;
        }
        if let Some(times) = times {
            self.monitor.record_times(times);
        }
        if let Some(mut shard) = ex.finish().telemetry {
            if let Some(t) = &self.trace {
                spans.append(&mut shard.spans);
                t.ring.lock().unwrap_or_else(|e| e.into_inner()).dropped += shard.dropped_spans;
            } else {
                let mut merged = self.shard.lock().expect("job telemetry lock poisoned");
                merged.get_or_insert_with(Default::default).merge(&shard);
            }
        }
        match interrupt {
            Some(Stint::Paused { .. }) => Stint::Paused { tasks: ran },
            Some(stopped) => stopped,
            None => Stint::Ran { tasks: ran, drained: self.remaining() == 0 },
        }
    }

    /// Moves the `tasks` whole tasks `ex` ran since its last publish into
    /// the snapshot, under the snapshot's one lock, and lets a periodic
    /// checkpoint writer count them (and write if due).
    fn publish(&self, ex: &mut Executor<'_>, tasks: u64) {
        if tasks == 0 {
            return;
        }
        let mut snap = self.snap.lock().expect("job snapshot lock poisoned");
        let Snap { ckpt, writer } = &mut *snap;
        ex.publish_into(ckpt);
        if let Some(writer) = writer {
            writer.tasks_done(tasks, ckpt);
        }
    }

    /// The job's result over everything run so far: a drained,
    /// quarantine-free job is [`Complete`](RunStatus::Complete) with an
    /// empty completed list; partial and degraded jobs carry their exact
    /// completed set. Fault rosters are sorted by `(vid, attempt)`, so the
    /// report is deterministic regardless of worker interleaving.
    fn result(&self) -> MiningResult {
        let snap = &self.snap.lock().expect("job snapshot lock poisoned").ckpt;
        let mut r = MiningResult {
            counts: snap.counts.clone(),
            work: snap.work,
            faults: snap.faults.clone(),
            quarantined: snap.quarantined.clone(),
            ..MiningResult::default()
        };
        if !r.quarantined.is_empty() {
            r.status = RunStatus::Degraded;
        }
        if let Some(stop) = self.stop_status() {
            r.status = r.status.max(stop);
        }
        if r.status != RunStatus::Complete {
            r.completed = snap.completed.to_vids();
        }
        r.faults.sort_unstable_by_key(|f| (f.vid, f.attempt));
        r.quarantined.sort_unstable_by_key(|f| (f.vid, f.attempt));
        r
    }
}

/// One mining job as preemptible, `Arc`-shareable state: the job plus the
/// prepared graph it owns.
///
/// Construction ([`new`](Self::new) / [`resume`](Self::resume)) does the
/// one-time preparation — orientation for k-clique plans, hub-bitmap and
/// block-summary indexes — with [`prepare`](crate::executor::prepare)'s
/// rules, but owned, so the core has no borrow tying it to a caller's
/// stack. Any number of worker threads then advance the job with
/// [`run_stint`](Self::run_stint); progress accumulates in an in-memory
/// [`Checkpoint`] that [`snapshot`](Self::snapshot) can serialize at any
/// task boundary.
pub struct JobCore {
    /// The input graph as supplied (fingerprinted by the snapshot; resume
    /// re-runs the same preparation).
    input: Arc<CsrGraph>,
    prepared: PreparedGraph<'static>,
    plan: Arc<ExecutionPlan>,
    state: JobState,
}

impl JobCore {
    /// A fresh job mining `plan` over `graph` under `cfg`.
    pub fn new(graph: Arc<CsrGraph>, plan: Arc<ExecutionPlan>, cfg: EngineConfig) -> JobCore {
        let snap = Checkpoint::empty(&graph, &plan, &cfg, plan.patterns.len());
        JobCore::build(graph, plan, cfg, snap)
    }

    /// A job continuing from `snapshot`, with the semantics of
    /// [`MineOptions::resume`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] if the snapshot does not match this job's
    /// graph, plan, or count-relevant config.
    pub fn resume(
        graph: Arc<CsrGraph>,
        plan: Arc<ExecutionPlan>,
        cfg: EngineConfig,
        snapshot: Checkpoint,
    ) -> Result<JobCore, CheckpointError> {
        snapshot.validate(&graph, &plan, &cfg)?;
        Ok(JobCore::build(graph, plan, cfg, resumed(snapshot)))
    }

    fn build(
        input: Arc<CsrGraph>,
        plan: Arc<ExecutionPlan>,
        cfg: EngineConfig,
        snap: Checkpoint,
    ) -> JobCore {
        let prepared = prepare_shared(&input, &plan, &cfg);
        let state = JobState::new(&prepared, cfg, snap);
        JobCore { input, prepared, plan, state }
    }

    /// Makes `token` this job's cancellation token (and so its failpoint
    /// scope), before the core is shared. Instrumented builds only: fault
    /// injection tests use it to arm sites in a supervised job's scope.
    #[cfg(any(test, feature = "failpoints"))]
    pub fn with_cancel(mut self, token: CancelToken) -> JobCore {
        self.state.monitor.set_cancel_token(token);
        self
    }

    /// Turns on stint (and optionally per-task) span tracing on `clock`,
    /// before the core is shared. Pass the serve session's clock so this
    /// job's spans land on the same timeline as the supervisor's.
    pub fn set_trace(&mut self, clock: TraceClock, span_capacity: usize, task_spans: bool) {
        self.state.trace = Some(JobTrace { clock, ring: Mutex::new(SpanRing::new(span_capacity)) });
        if task_spans {
            self.state.telemetry.trace = Some(clock);
            self.state.telemetry.span_capacity = Some(span_capacity);
        }
    }

    /// Drains the collected spans: `(spans, dropped)`. Both reset, so the
    /// supervisor can harvest incrementally (per settle) or once at exit.
    pub fn take_spans(&self) -> (Vec<Span>, u64) {
        let Some(t) = &self.state.trace else { return (Vec::new(), 0) };
        let mut ring = t.ring.lock().unwrap_or_else(|e| e.into_inner());
        let spans = ring.drain();
        let dropped = std::mem::take(&mut ring.dropped);
        (spans, dropped)
    }

    /// The input graph this job mines (as supplied, before orientation).
    pub fn input_graph(&self) -> &Arc<CsrGraph> {
        &self.input
    }

    /// The plan this job executes.
    pub fn plan(&self) -> &Arc<ExecutionPlan> {
        &self.plan
    }

    /// The engine configuration this job runs under.
    pub fn config(&self) -> &EngineConfig {
        &self.state.cfg
    }

    /// A clone of this job's cancellation token; cancelling it stops the
    /// job terminally at the next task boundary.
    pub fn cancel_token(&self) -> CancelToken {
        self.state.monitor.cancel_token().clone()
    }

    /// Requests preemption: every active stint yields at its next task
    /// boundary, returning unrun claims to the scheduler. Idempotent.
    pub fn pause(&self) {
        self.state.pause.store(true, Ordering::Release);
    }

    /// Whether a pause is currently requested.
    pub fn is_paused(&self) -> bool {
        self.state.pause.load(Ordering::Acquire)
    }

    /// Stints currently executing inside [`run_stint`](Self::run_stint).
    pub fn active_stints(&self) -> usize {
        self.state.active.load(Ordering::Acquire)
    }

    /// The terminal stop status, once a stop condition has fired.
    pub fn stop_status(&self) -> Option<RunStatus> {
        self.state.stop_status()
    }

    /// Pending start vertices not yet claimed by any stint.
    pub fn remaining_tasks(&self) -> usize {
        self.state.remaining()
    }

    /// Whether every start vertex has been run (completed or quarantined).
    pub fn is_drained(&self) -> bool {
        self.remaining_tasks() == 0
    }

    /// Completed start vertices so far.
    pub fn completed_tasks(&self) -> usize {
        self.state.snap.lock().expect("job snapshot lock poisoned").ckpt.completed.len()
    }

    /// Clears a pause and rebuilds the pending queue (returned leftovers
    /// plus the unclaimed tail) under a fresh cursor. Returns `false` —
    /// without touching anything — while stints are still active; the
    /// caller retries after they yield.
    pub fn resume_paused(&self) -> bool {
        if self.active_stints() != 0 {
            return false;
        }
        let mut s = self.state.sched.lock().expect("job sched lock poisoned");
        self.rebuild_queue(&mut s, &[]);
        self.state.pause.store(false, Ordering::Release);
        true
    }

    /// Moves every quarantined start vertex back onto the pending queue
    /// for another round of attempts (their fault history stays on the
    /// snapshot), returning how many were re-queued. A supervisor calls
    /// this between backoff-spaced attempts of a degraded job. No-op
    /// (returning 0) while stints are active.
    pub fn reattempt_quarantined(&self) -> usize {
        if self.active_stints() != 0 {
            return 0;
        }
        let vids: Vec<u32> = {
            let mut snap = self.state.snap.lock().expect("job snapshot lock poisoned");
            std::mem::take(&mut snap.ckpt.quarantined).into_iter().map(|f| f.vid).collect()
        };
        if vids.is_empty() {
            return 0;
        }
        let mut s = self.state.sched.lock().expect("job sched lock poisoned");
        self.rebuild_queue(&mut s, &vids);
        vids.len()
    }

    /// Rebuilds `pending` as leftovers + unclaimed tail + `extra`, with a
    /// fresh cursor. Caller holds the sched lock and has verified no stint
    /// is active (so the cursor is stable).
    fn rebuild_queue(&self, s: &mut Sched, extra: &[u32]) {
        let claimed = s.cursor.claimed();
        let mut pending: Vec<u32> = std::mem::take(&mut s.leftover);
        pending.extend_from_slice(&s.pending[claimed..]);
        pending.extend_from_slice(extra);
        s.cursor = Arc::new(TaskCursor::new(pending.len(), self.state.cfg.chunk_size));
        s.pending = Arc::new(pending);
    }

    /// Runs up to `max_tasks` start-vertex tasks (rounded up to the chunk
    /// grain) on the calling thread. Re-entrant: concurrent stints claim
    /// disjoint chunks of the same queue. Pause and stop conditions are
    /// observed at every task boundary; a preempted stint returns its
    /// unrun claims to the scheduler before yielding.
    pub fn run_stint(&self, max_tasks: u64) -> Stint {
        self.run_stint_as(max_tasks, 0)
    }

    /// [`run_stint`](Self::run_stint) on an explicit trace lane: when
    /// tracing is on, the stint span (and per-task spans, if enabled)
    /// carry `lane` as their Chrome `tid`, so a supervisor can give each
    /// worker thread its own timeline row.
    pub fn run_stint_as(&self, max_tasks: u64, lane: u32) -> Stint {
        self.state.stint(&self.prepared, &self.plan, max_tasks, lane)
    }

    /// A serializable snapshot of the job's progress, valid at any task
    /// boundary. Feeding it to [`resume`](Self::resume) — in this process
    /// or after a restart — continues the job bit-identically.
    pub fn snapshot(&self) -> Checkpoint {
        self.state.snap.lock().expect("job snapshot lock poisoned").ckpt.clone()
    }

    /// The job's result over everything run so far, in the shape [`mine`]
    /// reports: a drained, quarantine-free job is
    /// [`Complete`](RunStatus::Complete) with counts and work counters
    /// bit-identical to an uninterrupted [`mine`]; partial and degraded
    /// jobs carry their exact completed set and sorted fault rosters.
    pub fn result(&self) -> MiningResult {
        self.state.result()
    }
}

/// RAII active-stint counter, decremented even when a task panic escapes
/// the executor's isolation (so a wedged pause can't deadlock a resume).
struct ActiveGuard<'a>(&'a AtomicUsize);

impl<'a> ActiveGuard<'a> {
    fn enter(counter: &'a AtomicUsize) -> ActiveGuard<'a> {
        counter.fetch_add(1, Ordering::AcqRel);
        ActiveGuard(counter)
    }
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::Budget;
    use crate::executor::{mine_single_threaded, prepare_graph, Executor};
    use fm_graph::generators;
    use fm_pattern::Pattern;
    use fm_plan::{compile, compile_multi, CompileOptions};

    fn job(seed: u64, cfg: EngineConfig) -> (JobCore, MiningResult) {
        let g = Arc::new(generators::powerlaw_cluster(160, 4, 0.5, seed));
        let plan = Arc::new(compile(&Pattern::cycle(4), CompileOptions::default()));
        let reference = mine(&g, &plan, &EngineConfig::default());
        (JobCore::new(g, plan, cfg), reference)
    }

    fn drain(core: &JobCore, stint: u64) -> u64 {
        let mut stints = 0;
        loop {
            stints += 1;
            match core.run_stint(stint) {
                Stint::Ran { drained: true, .. } => return stints,
                Stint::Ran { .. } => continue,
                other => panic!("unexpected stint outcome {other:?}"),
            }
        }
    }

    #[test]
    fn task_cursor_partitions_exactly_under_contention() {
        let cursor = TaskCursor::new(1000, 7);
        let claimed: Vec<Range<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        while let Some(r) = cursor.claim() {
                            mine.push(r);
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let mut covered = vec![false; 1000];
        for r in claimed {
            for i in r {
                assert!(!covered[i], "index {i} claimed twice");
                covered[i] = true;
            }
        }
        assert!(covered.into_iter().all(|c| c));
        assert_eq!(cursor.claimed(), 1000);
        assert_eq!(cursor.remaining(), 0);
    }

    #[test]
    fn stinted_job_matches_uninterrupted_mine() {
        let (core, reference) = job(11, EngineConfig::default());
        let stints = drain(&core, 7);
        assert!(stints > 1, "test must actually slice the job");
        let r = core.result();
        assert_eq!(r.status, RunStatus::Complete);
        assert_eq!(r.counts, reference.counts);
        assert_eq!(r.work, reference.work);
        assert!(r.completed.is_empty());
    }

    #[test]
    fn concurrent_stints_share_one_job_bit_identically() {
        let (core, reference) = job(23, EngineConfig::default());
        let core = Arc::new(core);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let core = Arc::clone(&core);
                s.spawn(move || loop {
                    match core.run_stint(3) {
                        Stint::Ran { drained: true, .. } => break,
                        Stint::Ran { .. } => continue,
                        other => panic!("unexpected stint outcome {other:?}"),
                    }
                });
            }
        });
        let r = core.result();
        assert_eq!(r.status, RunStatus::Complete);
        assert_eq!(r.counts, reference.counts);
        assert_eq!(r.work, reference.work);
    }

    #[test]
    fn pause_snapshot_resume_is_bit_identical() {
        let (core, reference) = job(37, EngineConfig::default());
        match core.run_stint(20) {
            Stint::Ran { tasks: 20, drained: false } => {}
            other => panic!("unexpected stint outcome {other:?}"),
        }
        core.pause();
        assert_eq!(core.run_stint(20), Stint::Paused { tasks: 0 });
        // Path 1: in-process resume after the pause.
        assert!(core.resume_paused());
        // Path 2: serialize the snapshot and continue in a fresh core, as
        // a drained-and-restarted process would.
        let snapshot = Checkpoint::decode(&core.snapshot().encode()).unwrap();
        let resumed = JobCore::resume(
            Arc::clone(core.input_graph()),
            Arc::clone(core.plan()),
            *core.config(),
            snapshot,
        )
        .unwrap();
        drain(&core, 16);
        drain(&resumed, 16);
        for r in [core.result(), resumed.result()] {
            assert_eq!(r.status, RunStatus::Complete);
            assert_eq!(r.counts, reference.counts);
            assert_eq!(r.work, reference.work);
        }
    }

    #[test]
    fn pause_mid_chunk_strands_nothing() {
        let (core, reference) = job(41, EngineConfig { chunk_size: 32, ..Default::default() });
        // Pause before the stint starts a fresh claim: the stint claims a
        // 32-task chunk but must yield at the first boundary, returning
        // the untouched remainder.
        core.pause();
        assert_eq!(core.run_stint(100), Stint::Paused { tasks: 0 });
        assert!(core.resume_paused());
        let n = core.input_graph().num_vertices();
        assert_eq!(core.remaining_tasks() + core.completed_tasks(), n);
        drain(&core, 100);
        assert_eq!(core.result().counts, reference.counts);
    }

    #[test]
    fn budget_stop_is_terminal_with_exact_partial_counts() {
        let (_, reference) = job(17, EngineConfig::default());
        let budget = Budget::with_max_setop_iterations(reference.work.setop_iterations / 3);
        let (core, _) = job(17, EngineConfig { budget, ..Default::default() });
        let status = loop {
            match core.run_stint(5) {
                Stint::Ran { .. } => continue,
                Stint::Stopped(status) => break status,
                other => panic!("unexpected stint outcome {other:?}"),
            }
        };
        assert_eq!(status, RunStatus::BudgetExhausted);
        assert_eq!(core.run_stint(5), Stint::Stopped(RunStatus::BudgetExhausted));
        let r = core.result();
        assert_eq!(r.status, RunStatus::BudgetExhausted);
        assert!(!r.completed.is_empty());
        // Exactness: a sequential run over the reported completed set
        // reproduces the partial counts bit-for-bit.
        let g = core.input_graph();
        let prepared = prepare_graph(g, core.plan());
        let mut ex = Executor::new(&prepared, core.plan(), &EngineConfig::default());
        for &v in &r.completed {
            ex.run_vertex(VertexId(v));
        }
        assert_eq!(r.counts, ex.finish().counts);
    }

    #[test]
    fn cancel_token_stops_the_job() {
        let (core, _) = job(5, EngineConfig::default());
        core.run_stint(10);
        core.cancel_token().cancel();
        assert_eq!(core.run_stint(10), Stint::Stopped(RunStatus::Cancelled));
        assert_eq!(core.result().status, RunStatus::Cancelled);
    }

    /// ISSUE 10 tentpole: traced stints record stint and per-task spans
    /// on the caller's lane without perturbing counts or work. A stint
    /// size off the chunk grain (7 with chunk 4) runs on to the chunk
    /// end, and the per-task span buffer still holds every task.
    #[test]
    fn traced_stints_emit_spans_and_stay_bit_identical() {
        let (plain, reference) = job(53, EngineConfig::default());
        drain(&plain, 16);
        let off_grain = EngineConfig { chunk_size: 4, ..Default::default() };
        for (stint, cfg) in [(16, EngineConfig::default()), (7, off_grain)] {
            let g = Arc::clone(plain.input_graph());
            let plan = Arc::clone(plain.plan());
            let mut traced = JobCore::new(g, plan, cfg);
            traced.set_trace(TraceClock::start(), 4096, true);
            loop {
                match traced.run_stint_as(stint, 7) {
                    Stint::Ran { drained: true, .. } => break,
                    Stint::Ran { .. } => continue,
                    other => panic!("unexpected stint outcome {other:?}"),
                }
            }
            let r = traced.result();
            assert_eq!(r.counts, reference.counts);
            assert_eq!(r.work, reference.work);
            let (spans, dropped) = traced.take_spans();
            assert_eq!(dropped, 0);
            assert!(spans.iter().any(|s| s.name == "stint" && s.cat == "job" && s.tid == 7));
            assert!(spans.iter().any(|s| s.name == "start-vertex-task" && s.tid == 7));
            // Per-task spans count every completed task exactly once.
            let tasks = spans.iter().filter(|s| s.name == "start-vertex-task").count();
            assert_eq!(tasks, traced.completed_tasks());
            // The ring is drained, not cloned.
            assert!(traced.take_spans().0.is_empty());
        }
    }

    /// ISSUE 10 satellite: two jobs sharing one `TraceClock` origin merge
    /// onto a single monotone timeline — sorting the union leaves every
    /// span's start at or after its predecessor's, which is exactly what
    /// lets one Chrome-trace export show both jobs' lanes aligned.
    #[test]
    fn shared_clock_spans_merge_monotone_across_jobs() {
        let clock = TraceClock::start();
        let mut cores = Vec::new();
        for seed in [61, 67] {
            let g = Arc::new(generators::powerlaw_cluster(120, 4, 0.5, seed));
            let plan = Arc::new(compile(&Pattern::triangle(), CompileOptions::default()));
            let mut core = JobCore::new(g, plan, EngineConfig::default());
            core.set_trace(clock, 4096, false);
            cores.push(core);
        }
        // Interleave stints of the two jobs, as supervisor workers would.
        let mut open = [true, true];
        while open.iter().any(|&o| o) {
            for (i, core) in cores.iter().enumerate() {
                if open[i] {
                    if let Stint::Ran { drained: true, .. } = core.run_stint_as(8, i as u32) {
                        open[i] = false;
                    }
                }
            }
        }
        let mut merged: Vec<Span> = Vec::new();
        for core in &cores {
            merged.extend(core.take_spans().0);
        }
        assert!(merged.len() >= 4, "both jobs must contribute spans");
        merged.sort_unstable();
        for pair in merged.windows(2) {
            assert!(pair[0].ts_us <= pair[1].ts_us, "merged timeline must be monotone");
        }
        // Both lanes survive the merge.
        assert!(merged.iter().any(|s| s.tid == 0));
        assert!(merged.iter().any(|s| s.tid == 1));
    }

    #[test]
    fn parallel_counts_match_sequential() {
        let g = generators::powerlaw_cluster(200, 4, 0.5, 13);
        for pattern in [Pattern::triangle(), Pattern::cycle(4), Pattern::k_clique(4)] {
            let plan = compile(&pattern, CompileOptions::default());
            let seq = mine_single_threaded(&g, &plan, &EngineConfig::default());
            for threads in [2, 4, 7] {
                let par = mine(&g, &plan, &EngineConfig::with_threads(threads));
                assert_eq!(par.counts, seq.counts, "{pattern} with {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_work_counters_aggregate() {
        let g = generators::erdos_renyi(100, 0.15, 4);
        let plan = compile(&Pattern::triangle(), CompileOptions::default());
        let seq = mine_single_threaded(&g, &plan, &EngineConfig::default());
        let par = mine(&g, &plan, &EngineConfig::with_threads(3));
        // Work is partition-independent for fixed plans.
        assert_eq!(par.work.extensions, seq.work.extensions);
        assert_eq!(par.work.setop_iterations, seq.work.setop_iterations);
    }

    #[test]
    fn degree_scheduling_preserves_counts_and_work() {
        let g = generators::powerlaw_cluster(180, 4, 0.5, 3);
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let on = mine(&g, &plan, &EngineConfig { threads: 4, ..Default::default() });
        let off = mine(
            &g,
            &plan,
            &EngineConfig { threads: 4, degree_sched: false, ..Default::default() },
        );
        assert_eq!(on.counts, off.counts);
        assert_eq!(on.work.setop_iterations, off.work.setop_iterations);
        assert_eq!(on.work.extensions, off.work.extensions);
    }

    #[test]
    fn tiny_chunks_are_correct() {
        let g = generators::erdos_renyi(60, 0.2, 8);
        let plan = compile_multi(
            &[Pattern::diamond(), Pattern::tailed_triangle()],
            CompileOptions::default(),
        );
        let seq = mine_single_threaded(&g, &plan, &EngineConfig::default());
        let par =
            mine(&g, &plan, &EngineConfig { threads: 5, chunk_size: 1, ..Default::default() });
        assert_eq!(par.counts, seq.counts);
    }

    #[test]
    fn more_threads_than_vertices_is_fine() {
        let g = generators::complete(4);
        let plan = compile(&Pattern::triangle(), CompileOptions::default());
        let par = mine(&g, &plan, &EngineConfig::with_threads(16));
        assert_eq!(par.counts, vec![4]);
    }

    #[test]
    fn complete_runs_are_tagged_complete_with_empty_completed_list() {
        let g = generators::erdos_renyi(50, 0.2, 1);
        let plan = compile(&Pattern::triangle(), CompileOptions::default());
        for threads in [1, 4] {
            let r = mine(&g, &plan, &EngineConfig::with_threads(threads));
            assert_eq!(r.status, RunStatus::Complete);
            assert!(r.completed.is_empty());
            assert!(r.faults.is_empty());
        }
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_work() {
        let g = generators::erdos_renyi(80, 0.2, 3);
        let plan = compile(&Pattern::triangle(), CompileOptions::default());
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 4] {
            let opts = MineOptions { cancel: Some(token.clone()), ..Default::default() };
            let r = mine_with(&g, &plan, &EngineConfig::with_threads(threads), &opts).unwrap();
            assert_eq!(r.status, RunStatus::Cancelled);
            assert_eq!(r.counts, vec![0]);
            assert!(r.completed.is_empty());
            assert_eq!(r.work.extensions, 0);
        }
    }

    #[test]
    fn zero_deadline_yields_deadline_exceeded_and_no_wrong_total() {
        let g = generators::powerlaw_cluster(120, 4, 0.5, 5);
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        for threads in [1, 4, 7] {
            let cfg = EngineConfig {
                threads,
                budget: Budget::with_timeout(std::time::Duration::ZERO),
                ..Default::default()
            };
            let r = mine(&g, &plan, &cfg);
            assert_eq!(r.status, RunStatus::DeadlineExceeded, "{threads} threads");
            // A zero deadline fires before the first task on every worker.
            assert_eq!(r.counts, vec![0]);
            assert!(r.completed.is_empty());
        }
    }

    #[test]
    fn budget_yields_exact_partial_counts_over_completed_vids() {
        let g = generators::powerlaw_cluster(150, 4, 0.5, 17);
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let full = mine(&g, &plan, &EngineConfig::default());
        for threads in [1, 4] {
            let cfg = EngineConfig {
                threads,
                budget: Budget::with_max_setop_iterations(full.work.setop_iterations / 3),
                ..Default::default()
            };
            let r = mine(&g, &plan, &cfg);
            assert_eq!(r.status, RunStatus::BudgetExhausted, "{threads} threads");
            assert!(r.completed.len() < g.num_vertices());
            // Exactness: a sequential run restricted to the reported
            // completed set reproduces the partial counts bit-for-bit.
            let prepared = prepare_graph(&g, &plan);
            let mut ex = Executor::new(&prepared, &plan, &EngineConfig::default());
            for &v in &r.completed {
                ex.run_vertex(VertexId(v));
            }
            assert_eq!(r.counts, ex.finish().counts, "{threads} threads");
        }
    }

    #[test]
    fn observed_run_is_bit_identical_and_carries_depth_shard() {
        let g = generators::powerlaw_cluster(150, 4, 0.5, 11);
        let plan = compile(&Pattern::k_clique(4), CompileOptions::default());
        let telemetry = TelemetryOptions { metrics: true, ..Default::default() };
        for threads in [1, 4] {
            let cfg = EngineConfig::with_threads(threads);
            let prepared = prepare(&g, &plan, &cfg);
            let plain = mine_prepared(&prepared, &plan, &cfg);
            let observed = mine_prepared_observed(&prepared, &plan, &cfg, &telemetry);
            // Telemetry must not perturb results: counts AND work counters
            // are bit-identical, the only difference is the shard.
            assert_eq!(observed.counts, plain.counts, "{threads} threads");
            assert_eq!(observed.work, plain.work, "{threads} threads");
            assert!(plain.telemetry.is_none());
            let shard = observed.telemetry.as_deref().expect("metrics shard");
            // Every set-op iteration is charged to exactly one depth.
            let charged: u64 = shard.depth_setop_iterations.iter().sum();
            assert_eq!(charged, observed.work.setop_iterations, "{threads} threads");
            let invocations: u64 = shard.depth_setop_invocations.iter().sum();
            assert_eq!(invocations, observed.work.setop_invocations, "{threads} threads");
            assert!(shard.task_micros.count > 0);
        }
    }

    #[test]
    fn traced_run_emits_engine_spans() {
        let g = generators::erdos_renyi(60, 0.2, 5);
        let plan = compile(&Pattern::triangle(), CompileOptions::default());
        let telemetry = TelemetryOptions {
            trace: Some(fm_telemetry::TraceClock::start()),
            ..Default::default()
        };
        let opts = MineOptions { telemetry, ..Default::default() };
        let r = mine_with(&g, &plan, &EngineConfig::with_threads(2), &opts).unwrap();
        let shard = r.telemetry.as_deref().expect("trace shard");
        let names: Vec<&str> = shard.spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"prepare"), "{names:?}");
        assert!(names.contains(&"mine"), "{names:?}");
        assert!(names.contains(&"start-vertex-task"), "{names:?}");
        // Driver spans carry tid 0; worker task spans tids >= 1.
        assert!(shard.spans.iter().any(|s| s.name == "start-vertex-task" && s.tid >= 1));
        // Tracing alone leaves metrics empty.
        assert!(shard.depth_setop_iterations.is_empty());
    }

    // The quarantine-reattempt-and-heal path needs a real injected fault;
    // it lives in tests/failpoints.rs.
}
