//! Plan-driven DFS executor (single worker).
//!
//! This is the software realization of the execution model in Fig. 10 of
//! the paper: a depth-first walk over the subgraph search tree, customized
//! entirely by the execution plan. The same candidate-generation semantics
//! (frontier memoization, c-map queries, merge-based fallback) are
//! implemented cycle-by-cycle in the hardware simulator; the two are
//! cross-checked for identical counts in the integration tests.

use crate::checkpoint::Checkpoint;
use crate::cmap::{ConnectivityMap, HashCmap};
use crate::fail_point;
use crate::result::{Fault, MiningResult, RunStatus, WorkCounters};
use crate::reuse::{ReuseArena, SlotTag, REUSE_MIN_PREFIX};
use crate::setops;
use crate::telemetry::Collector;
use crate::EngineConfig;
use fm_graph::{orient_by_degree, BlockSummaries, CsrGraph, HubBitmaps, VertexId};
use fm_plan::lowering::{lower, LowerOptions, Program, ReuseKind};
use fm_plan::{ExecutionPlan, FrontierHint};
use fm_telemetry::TraceClock;
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Applies the plan's preprocessing directive to the data graph: k-clique
/// plans run on the degree-oriented DAG (§V-C), everything else on the
/// symmetric graph.
///
/// "The preprocessing time is usually less than 1% of the execution time,
/// and once converted, the graph can be used for any k-CL."
pub fn prepare_graph<'g>(graph: &'g CsrGraph, plan: &ExecutionPlan) -> Cow<'g, CsrGraph> {
    if plan.orientation {
        Cow::Owned(orient_by_degree(graph))
    } else {
        Cow::Borrowed(graph)
    }
}

/// A data graph fully preprocessed for mining: the (possibly oriented)
/// graph plus the optional auxiliary indexes built over it — the
/// hub-bitmap index for the probe tier and the per-block adjacency
/// summaries for the SIMD tier's block skipping.
///
/// The indexes are built once here — not per executor — and handed to
/// worker [`Executor`]s behind [`Arc`]s, so parallel workers share one
/// copy. Construction is governed by the config:
/// [`EngineConfig::hub_bitmap_active`] / [`EngineConfig::simd_active`]
/// decide whether each index is built at all, and an index that comes
/// back empty (no vertex reaches the degree threshold, the memory budget
/// is too tight, or the graph has no edges) is dropped so the dispatcher
/// never consults it.
pub struct PreparedGraph<'g> {
    graph: GraphRef<'g>,
    hubs: Option<Arc<HubBitmaps>>,
    blocks: Option<Arc<BlockSummaries>>,
}

/// The graph a [`PreparedGraph`] mines: the caller's input, borrowed
/// ([`prepare`]) or shared ([`JobCore`](crate::JobCore)), or the
/// oriented copy built from it. Never a copy of the input itself.
enum GraphRef<'g> {
    Borrowed(&'g CsrGraph),
    Shared(Arc<CsrGraph>),
}

impl GraphRef<'_> {
    fn get(&self) -> &CsrGraph {
        match self {
            GraphRef::Borrowed(g) => g,
            GraphRef::Shared(g) => g,
        }
    }
}

impl<'g> PreparedGraph<'g> {
    /// The prepared (oriented for k-clique plans) graph.
    pub fn graph(&self) -> &CsrGraph {
        self.graph.get()
    }

    /// A shared handle to the hub index, if one was built and is non-empty.
    pub fn hubs_arc(&self) -> Option<Arc<HubBitmaps>> {
        self.hubs.clone()
    }

    /// A shared handle to the block summaries, if built and non-empty.
    pub fn blocks_arc(&self) -> Option<Arc<BlockSummaries>> {
        self.blocks.clone()
    }

    /// A fresh executor over this graph sharing its indexes.
    pub(crate) fn executor<'a>(&'a self, plan: &ExecutionPlan, cfg: &EngineConfig) -> Executor<'a> {
        Executor::with_shared(self.graph(), plan, cfg, self.hubs_arc(), self.blocks_arc())
    }
}

impl std::ops::Deref for PreparedGraph<'_> {
    type Target = CsrGraph;
    fn deref(&self) -> &CsrGraph {
        self.graph()
    }
}

/// [`prepare_graph`] plus auxiliary-index construction (hub bitmaps,
/// block summaries): the preprocessing step shared by every mining entry
/// point, so single-threaded, parallel, and re-run-the-completed-set
/// executions all see the same indexes and charge identical work.
pub fn prepare<'g>(
    graph: &'g CsrGraph,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
) -> PreparedGraph<'g> {
    prepare_ref(GraphRef::Borrowed(graph), plan, cfg)
}

/// [`prepare`] over a shared graph, for jobs that must own their
/// preparation (a [`JobCore`](crate::JobCore) outlives its caller's stack).
pub(crate) fn prepare_shared(
    graph: &Arc<CsrGraph>,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
) -> PreparedGraph<'static> {
    prepare_ref(GraphRef::Shared(Arc::clone(graph)), plan, cfg)
}

fn prepare_ref<'g>(
    input: GraphRef<'g>,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
) -> PreparedGraph<'g> {
    let oriented = match prepare_graph(input.get(), plan) {
        Cow::Owned(g) => Some(g),
        Cow::Borrowed(_) => None,
    };
    let graph = oriented.map_or(input, |g| GraphRef::Shared(Arc::new(g)));
    let (hubs, blocks) = build_indexes(graph.get(), cfg);
    PreparedGraph { graph, hubs, blocks }
}

/// The auxiliary indexes `cfg` calls for over an already-prepared graph:
/// each is built only when its tier is active and dropped when it comes
/// back empty, so the dispatcher never consults it.
fn build_indexes(
    graph: &CsrGraph,
    cfg: &EngineConfig,
) -> (Option<Arc<HubBitmaps>>, Option<Arc<BlockSummaries>>) {
    let hubs = cfg
        .hub_bitmap_active()
        .then(|| HubBitmaps::build(graph, cfg.hub_degree_threshold, cfg.hub_memory_budget))
        .filter(|idx| !idx.is_empty())
        .map(Arc::new);
    let blocks = cfg
        .simd_active()
        .then(|| BlockSummaries::build(graph))
        .filter(|bl| !bl.is_empty())
        .map(Arc::new);
    (hubs, blocks)
}

/// Convenience entry point: prepares the graph and mines every start vertex
/// on the calling thread.
///
/// # Examples
///
/// ```
/// use fm_engine::{mine_single_threaded, EngineConfig};
/// use fm_graph::generators;
/// use fm_pattern::Pattern;
/// use fm_plan::{compile, CompileOptions};
///
/// let g = generators::cycle(6);
/// let plan = compile(&Pattern::cycle(6), CompileOptions::default());
/// let result = mine_single_threaded(&g, &plan, &EngineConfig::default());
/// assert_eq!(result.counts, vec![1]); // C6 contains itself once
/// ```
pub fn mine_single_threaded(
    graph: &CsrGraph,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
) -> MiningResult {
    let prepared = prepare(graph, plan, cfg);
    let mut ex = prepared.executor(plan, cfg);
    ex.run_range(0, prepared.num_vertices() as u32);
    ex.finish()
}

/// Mutable per-worker state.
struct State {
    emb: Vec<VertexId>,
    /// Materialized core (candidate) lists, one buffer per depth.
    frontiers: Vec<Vec<VertexId>>,
    /// `core_at[d]` = depth index whose buffer holds the core for level d
    /// (differs from `d` for `Reuse` ops).
    core_at: Vec<usize>,
    /// Keys inserted into the c-map per depth, for stack-ordered unwind.
    inserted: Vec<Vec<VertexId>>,
    scratch_a: Vec<VertexId>,
    scratch_b: Vec<VertexId>,
    /// Cached sibling-invariant prefixes (one slot per plan
    /// `ReusePrefix`); empty when the reuse path is inactive.
    arena: ReuseArena,
    /// Per-buffer materialization generation: bumped whenever
    /// `frontiers[i]` is rewritten, so a cached frontier-shaped prefix
    /// can tell whether its source buffer still holds what it captured.
    frontier_gen: Vec<u64>,
    /// Per-level enter epoch: bumped whenever the DFS binds a vertex at
    /// that depth, so a level-shaped prefix can tell whether any
    /// embedding level it reads has been re-bound since it was built.
    level_epoch: Vec<u64>,
    cmap: HashCmap,
    counts: Vec<u64>,
    work: WorkCounters,
    matches: Option<Vec<(usize, Vec<VertexId>)>>,
    /// Start vertices completed via the isolated path (see
    /// [`Executor::run_vertex_isolated`]); untracked fast-path runs leave
    /// this empty.
    completed: Vec<u32>,
    /// Start vertices whose tasks panicked and were rolled back (one
    /// record per attempt).
    faults: Vec<Fault>,
    /// Start vertices abandoned after exhausting the configured retries
    /// (one record per vertex: its final failed attempt).
    quarantined: Vec<Fault>,
    /// Per-worker telemetry collection; `None` (one null check on the
    /// candidate-generation path) unless the run is observed. Depth
    /// metrics charge work as it happens, so a faulted-then-rolled-back
    /// attempt's work stays visible in telemetry even though the result
    /// counters exclude it — telemetry measures work performed, results
    /// report work kept.
    telemetry: Option<Box<Collector>>,
}

impl State {
    fn new(
        depth: usize,
        patterns: usize,
        prefix_slots: usize,
        budget: usize,
        verts: usize,
    ) -> State {
        State {
            emb: Vec::with_capacity(depth),
            frontiers: vec![Vec::new(); depth],
            core_at: vec![0; depth],
            inserted: vec![Vec::new(); depth],
            scratch_a: Vec::new(),
            scratch_b: Vec::new(),
            arena: ReuseArena::new(prefix_slots, budget, verts),
            frontier_gen: vec![0; depth],
            level_epoch: vec![0; depth],
            cmap: HashCmap::new(),
            counts: vec![0; patterns],
            work: WorkCounters::default(),
            matches: None,
            completed: Vec::new(),
            faults: Vec::new(),
            quarantined: Vec::new(),
            telemetry: None,
        }
    }
}

/// Renders a panic payload for [`Fault::payload`].
pub(crate) fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A single-threaded, plan-driven mining executor over a prepared graph.
///
/// Most callers want [`crate::mine`] (which handles graph preparation and
/// threading); `Executor` is the building block exposed for the task
/// driver, the benchmarks and differential tests.
pub struct Executor<'g> {
    graph: &'g CsrGraph,
    hubs: Option<Arc<HubBitmaps>>,
    blocks: Option<Arc<BlockSummaries>>,
    program: Program,
    cfg: EngineConfig,
    state: State,
}

impl<'g> Executor<'g> {
    /// Creates an executor over `graph`, which must already be prepared via
    /// [`prepare_graph`] (oriented for k-clique plans). Builds its own hub
    /// index and block summaries when the config calls for them; parallel
    /// drivers share prebuilt indexes across workers via
    /// [`Executor::with_shared`] instead.
    pub fn new(graph: &'g CsrGraph, plan: &ExecutionPlan, cfg: &EngineConfig) -> Executor<'g> {
        let (hubs, blocks) = build_indexes(graph, cfg);
        Self::with_shared(graph, plan, cfg, hubs, blocks)
    }

    /// Creates an executor sharing a prebuilt hub index (or none). The
    /// index must have been built over this same prepared `graph` — see
    /// [`prepare`]. Block summaries are not supplied on this path, so the
    /// SIMD tier (if active) runs without block skipping — outputs and
    /// charged work are unaffected either way.
    pub fn with_hubs(
        graph: &'g CsrGraph,
        plan: &ExecutionPlan,
        cfg: &EngineConfig,
        hubs: Option<Arc<HubBitmaps>>,
    ) -> Executor<'g> {
        Self::with_shared(graph, plan, cfg, hubs, None)
    }

    /// Creates an executor sharing every prebuilt auxiliary index (either
    /// may be `None`). The indexes must have been built over this same
    /// prepared `graph` — see [`prepare`].
    pub fn with_shared(
        graph: &'g CsrGraph,
        plan: &ExecutionPlan,
        cfg: &EngineConfig,
        hubs: Option<Arc<HubBitmaps>>,
        blocks: Option<Arc<BlockSummaries>>,
    ) -> Executor<'g> {
        cfg.debug_validate();
        debug_assert!(
            hubs.is_none() || cfg.hub_bitmap_active(),
            "a hub index must not reach a config that excludes probes (paper_faithful)"
        );
        debug_assert!(
            blocks.is_none() || cfg.simd_active(),
            "block summaries must not reach a config that excludes the SIMD tier"
        );
        let program = lower(
            plan,
            LowerOptions {
                frontier_memo: cfg.frontier_memo,
                bounded_pushdown: !cfg.paper_faithful,
            },
        );
        let prefix_slots = if cfg.reuse_active() { program.prefixes.len() } else { 0 };
        let state = State::new(
            program.depth,
            plan.patterns.len(),
            prefix_slots,
            cfg.reuse_memory_budget,
            graph.num_vertices(),
        );
        Executor { graph, hubs, blocks, program, cfg: *cfg, state }
    }

    /// Enables recording of complete matches (pattern index + embedding).
    /// Intended for tests and small listings; counting stays exact either
    /// way.
    pub fn collect_matches(&mut self) {
        self.state.matches = Some(Vec::new());
    }

    /// Runs the full search subtree rooted at start vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the graph.
    pub fn run_vertex(&mut self, v: VertexId) {
        fail_point!("start_vertex", v.0 as u64);
        let aux = Aux {
            hubs: self.hubs.as_deref(),
            blocks: self.blocks.as_deref(),
            simd: self.cfg.simd_active(),
            reuse: self.cfg.reuse_active() && !self.program.prefixes.is_empty(),
        };
        if aux.reuse {
            // Task boundary: invalidate every cached prefix, zero the byte
            // gauge (its per-task peak is what `reuse_bytes_hwm` records),
            // and restart the validity clocks — also clears any stray bits
            // a panicked, rolled-back attempt left mid-build.
            self.state.arena.reset_task();
            self.state.frontier_gen.fill(0);
            self.state.level_epoch.fill(0);
        }
        enter(self.graph, aux, &self.cfg, &self.program, &mut self.state, 0, v);
        debug_assert!(self.state.emb.is_empty());
        debug_assert!(
            !self.cfg.use_cmap || self.state.cmap.is_empty(),
            "c-map must be self-cleaning across tasks"
        );
    }

    /// Runs the subtree of `v` inside a panic boundary, retrying up to
    /// [`EngineConfig::max_retries`] times before quarantining, and
    /// recording the outcome instead of unwinding further.
    ///
    /// On success `v` joins the result's `completed` list — including
    /// success on a retry, which leaves the failed attempts in the fault
    /// roster but does *not* degrade the run (transient faults self-heal).
    /// Every panicking attempt rolls back *all* of its effects — counts
    /// and work counters are restored to their pre-task snapshot and the
    /// embedding stack, c-map, and insertion logs are reset — so a
    /// poisoned attempt contributes exactly nothing, and a retry starts
    /// from the same state the first attempt saw; the panic payload is
    /// recorded as a [`Fault`] tagged with the attempt index. A vertex
    /// that exhausts its retries is moved to the quarantine roster, which
    /// is what makes the run [`RunStatus::Degraded`]. This is the
    /// FlexMiner analogue of the c-map's own graceful-degradation
    /// precedent (overflow falls back to SIU/SDU, §IV-C): one bad task
    /// degrades the run, never the job.
    ///
    /// Returns whether the task (eventually) completed.
    pub fn run_vertex_isolated(&mut self, v: VertexId) -> bool {
        for attempt in 0..=self.cfg.max_retries {
            if self.run_vertex_attempt(v, attempt) {
                self.state.completed.push(v.0);
                return true;
            }
        }
        let last = self.state.faults.last().cloned().expect("a failed attempt records a fault");
        self.state.quarantined.push(last);
        false
    }

    /// One isolated attempt: panic boundary plus full rollback.
    fn run_vertex_attempt(&mut self, v: VertexId, attempt: u32) -> bool {
        let counts_snapshot = self.state.counts.clone();
        let work_snapshot = self.state.work;
        let matches_snapshot = self.state.matches.as_ref().map(Vec::len);
        let outcome = catch_unwind(AssertUnwindSafe(|| self.run_vertex(v)));
        match outcome {
            Ok(()) => true,
            Err(payload) => {
                self.state.counts = counts_snapshot;
                self.state.work = work_snapshot;
                if let (Some(matches), Some(len)) = (&mut self.state.matches, matches_snapshot) {
                    matches.truncate(len);
                }
                // The DFS state is mid-subtree garbage: reset everything
                // the next task reads before writing.
                self.state.emb.clear();
                self.state.cmap.clear();
                for ins in &mut self.state.inserted {
                    ins.clear();
                }
                self.state.faults.push(Fault {
                    vid: v.0,
                    attempt,
                    payload: payload_string(&*payload),
                });
                false
            }
        }
    }

    /// Runs start vertices `lo..hi`.
    pub fn run_range(&mut self, lo: u32, hi: u32) {
        for v in lo..hi {
            self.run_vertex(VertexId(v));
        }
    }

    /// Set-op iterations tallied since the last
    /// [`publish_into`](Self::publish_into) (budget accounting).
    pub(crate) fn unpublished_setop_iterations(&self) -> u64 {
        self.state.work.setop_iterations
    }

    /// Moves everything tallied since the last call — counts, work
    /// counters, completed start vertices, fault attempts, quarantines —
    /// into `snap`, leaving the executor's own tallies empty. Called at a
    /// task boundary, it publishes exactly the tasks run since the last
    /// call: the task loop's snapshot update.
    pub(crate) fn publish_into(&mut self, snap: &mut Checkpoint) {
        let st = &mut self.state;
        for (total, c) in snap.counts.iter_mut().zip(&mut st.counts) {
            *total += std::mem::take(c);
        }
        snap.work += std::mem::take(&mut st.work);
        for v in st.completed.drain(..) {
            snap.completed.insert(v);
        }
        snap.faults.append(&mut st.faults);
        snap.quarantined.append(&mut st.quarantined);
    }

    /// Installs this worker's telemetry collector (observed runs only).
    pub(crate) fn set_telemetry(&mut self, collector: Box<Collector>) {
        self.state.telemetry = Some(collector);
    }

    /// The run's trace clock, when span collection is on.
    pub(crate) fn telemetry_clock(&self) -> Option<TraceClock> {
        self.state.telemetry.as_ref().and_then(|t| t.clock)
    }

    /// Whether telemetry wants task boundaries timed (histogram or spans).
    pub(crate) fn telemetry_times_tasks(&self) -> bool {
        self.state.telemetry.is_some()
    }

    /// Records one finished start-vertex task into the collector.
    pub(crate) fn telemetry_task_finished(
        &mut self,
        vid: u32,
        span_start_us: Option<u64>,
        elapsed: std::time::Duration,
    ) {
        if let Some(t) = self.state.telemetry.as_deref_mut() {
            t.record_task(vid, span_start_us, elapsed);
        }
    }

    /// Consumes the executor and returns counts and work counters. The
    /// status is [`RunStatus::Degraded`] if any start vertex exhausted its
    /// retries and was quarantined (a fault that healed on a retry does
    /// not degrade), [`RunStatus::Complete`] otherwise; drivers that
    /// stopped early override it with the stop reason.
    pub fn finish(self) -> MiningResult {
        let status = if self.state.quarantined.is_empty() {
            RunStatus::Complete
        } else {
            RunStatus::Degraded
        };
        MiningResult {
            counts: self.state.counts,
            work: self.state.work,
            status,
            completed: self.state.completed,
            faults: self.state.faults,
            quarantined: self.state.quarantined,
            telemetry: self.state.telemetry.map(|c| Box::new(c.into_shard())),
            ..MiningResult::default()
        }
    }

    /// The matches recorded since [`collect_matches`](Self::collect_matches).
    pub fn matches(&self) -> &[(usize, Vec<VertexId>)] {
        self.state.matches.as_deref().unwrap_or(&[])
    }
}

/// Shared read-only dispatch context threaded through the DFS walk: the
/// optional hub-bitmap index (probe tier), the optional block summaries
/// (SIMD-tier block skipping), and whether the run's configuration
/// activated the SIMD tier at all.
#[derive(Clone, Copy)]
struct Aux<'a> {
    hubs: Option<&'a HubBitmaps>,
    blocks: Option<&'a BlockSummaries>,
    simd: bool,
    /// Whether the reuse path is live for this run: the config activates
    /// it *and* the lowering proved at least one hoistable prefix.
    reuse: bool,
}

impl<'a> Aux<'a> {
    /// SIMD routing state for a dispatch whose subtrahend operand is
    /// `v`'s adjacency list.
    fn simd_for(&self, v: VertexId) -> setops::SimdOpt<'a> {
        setops::SimdOpt { enabled: self.simd, b_blocks: self.blocks.map(|b| b.row(v)) }
    }
}

/// Pushes `w` as the vertex for `node`, handles counting and c-map
/// insertion, recurses into children, and unwinds.
fn enter(
    g: &CsrGraph,
    aux: Aux<'_>,
    cfg: &EngineConfig,
    prog: &Program,
    state: &mut State,
    node_idx: usize,
    w: VertexId,
) {
    let node = &prog.nodes[node_idx];
    let d = node.depth;
    debug_assert_eq!(state.emb.len(), d);
    state.emb.push(w);
    state.level_epoch[d] += 1;
    state.work.extensions += 1;
    if let Some(pi) = node.pattern_index {
        state.counts[pi] += 1;
        if let Some(matches) = &mut state.matches {
            matches.push((pi, state.emb.clone()));
        }
    }
    let mut did_insert = false;
    if cfg.use_cmap && node.cmap_insert && !node.children.is_empty() {
        fail_point!("cmap_insert", state.emb[0].0 as u64);
        did_insert = true;
        let bound = node.cmap_insert_bound.map(|l| state.emb[l]);
        state.inserted[d].clear();
        for &nb in g.neighbors(w) {
            if let Some(b) = bound {
                if nb >= b {
                    break; // adjacency is sorted ascending
                }
            }
            state.cmap.insert(nb, d);
            state.work.cmap_inserts += 1;
            state.inserted[d].push(nb);
        }
    }
    for &child in &node.children {
        step(g, aux, cfg, prog, state, child);
    }
    if did_insert {
        let ins = std::mem::take(&mut state.inserted[d]);
        for &nb in &ins {
            state.cmap.remove(nb, d);
            state.work.cmap_removes += 1;
        }
        state.inserted[d] = ins;
    }
    state.emb.pop();
}

/// Generates the candidates of `node` and recurses into each survivor.
fn step(
    g: &CsrGraph,
    aux: Aux<'_>,
    cfg: &EngineConfig,
    prog: &Program,
    state: &mut State,
    node_idx: usize,
) {
    let node = &prog.nodes[node_idx];
    let d = node.depth;
    let bound: Option<VertexId> = node.upper_bounds.iter().map(|&l| state.emb[l]).min();

    // Count-only leaf fusion: a terminal `Extend` level with no
    // injectivity filter only needs |core ∩ N(v)| — dispatch the counting
    // twin of the adaptive kernel instead of materializing the frontier.
    // Every counter (iterations, comparisons, dispatches,
    // candidates_checked, extensions) is charged exactly as the
    // materialize-then-count path would, so fusion is invisible to work
    // accounting; it only skips the frontier write. Restricted to cases
    // where the materialized core would contain precisely the counted
    // elements: bound pushed down (or absent) and no c-map probe arm.
    if !cfg.paper_faithful
        && state.matches.is_none()
        && node.children.is_empty()
        && node.injectivity.is_empty()
        && node.frontier == FrontierHint::Extend
        && !(cfg.use_cmap && node.probe)
        && (bound.is_none() || node.bounded_build)
    {
        if let Some(pi) = node.pattern_index {
            fail_point!("frontier_alloc", state.emb[0].0 as u64);
            fail_point!("csr_read", state.emb[0].0 as u64);
            let v = state.emb[d - 1];
            let adj = g.neighbors(v);
            let hub = aux.hubs.and_then(|h| h.row(v));
            let src = state.core_at[d - 1];
            let merge_bound = if node.bounded_build { bound } else { None };
            let work_before =
                state.telemetry.as_ref().is_some_and(|t| t.metrics).then_some(state.work);
            let mut served = None;
            if aux.reuse {
                if let Some(p) = node.consume_prefix {
                    // Hub-probe precedence is unchanged: when the probe
                    // tier would win the dispatch, let it.
                    let probe_wins = hub.is_some() && adj.len() >= state.frontiers[src].len();
                    if !probe_wins {
                        served = reuse_serve_frontier(state, p, src, adj, merge_bound, None);
                    }
                    if served.is_none() {
                        state.work.reuse_misses += 1;
                    }
                }
            }
            let found = match served {
                Some(n) => n,
                None => setops::intersect_adaptive_count(
                    &state.frontiers[src],
                    adj,
                    merge_bound,
                    cfg.gallop_ratio,
                    hub,
                    aux.simd_for(v),
                    &mut state.work,
                ),
            };
            if let (Some(t), Some(before)) = (state.telemetry.as_deref_mut(), work_before) {
                t.charge_setops(d, before, state.work);
            }
            state.counts[pi] += found;
            state.work.candidates_checked += found;
            state.work.extensions += found;
            return;
        }
    }

    let work_before = state.telemetry.as_ref().is_some_and(|t| t.metrics).then_some(state.work);
    build_core(g, aux, cfg, prog, state, node_idx, bound);

    let core = state.core_at[d];
    let len = state.frontiers[core].len();

    // Metered runs: charge this level's candidate-generation delta (all
    // build_core arms — merges, gallops, probes, and c-map traffic) to
    // depth `d`, and sample the size of any newly materialized frontier.
    if let (Some(t), Some(before)) = (state.telemetry.as_deref_mut(), work_before) {
        t.charge_setops(d, before, state.work);
        if node.frontier != FrontierHint::Reuse {
            t.record_frontier(len);
        }
    }

    // Leaf fast path: a terminal pattern level only needs its qualifying
    // candidates *counted* — GraphZero's generated code ends in exactly
    // such count loops, and the FlexMiner reducer does the same in
    // hardware. (Disabled while collecting full matches.)
    if let (Some(pi), true, true) =
        (node.pattern_index, node.children.is_empty(), state.matches.is_none())
    {
        let mut found = 0u64;
        for i in 0..len {
            let w = state.frontiers[core][i];
            state.work.candidates_checked += 1;
            if let Some(b) = bound {
                if w >= b {
                    break;
                }
            }
            if node.injectivity.iter().any(|&l| state.emb[l] == w) {
                continue;
            }
            found += 1;
        }
        state.counts[pi] += found;
        state.work.extensions += found;
        return;
    }

    for i in 0..len {
        let w = state.frontiers[core][i];
        state.work.candidates_checked += 1;
        if let Some(b) = bound {
            if w >= b {
                break; // cores are sorted ascending
            }
        }
        if node.injectivity.iter().any(|&l| state.emb[l] == w) {
            continue;
        }
        enter(g, aux, cfg, prog, state, node_idx, w);
    }
}

/// Materializes (or locates) the core candidate list for `node`, leaving
/// its buffer index in `state.core_at[depth]`.
fn build_core(
    g: &CsrGraph,
    aux: Aux<'_>,
    cfg: &EngineConfig,
    prog: &Program,
    state: &mut State,
    node_idx: usize,
    bound: Option<VertexId>,
) {
    let node = &prog.nodes[node_idx];
    let d = node.depth;
    let has_constraints = !(node.connected.is_empty() && node.disconnected.is_empty());
    if node.frontier != FrontierHint::Reuse {
        fail_point!("frontier_alloc", state.emb[0].0 as u64);
    }
    match node.frontier {
        FrontierHint::Reuse => {
            state.core_at[d] = state.core_at[d - 1];
        }
        // Stream-and-probe: with a c-map, a probe-strategy op streams its
        // extender's adjacency and resolves all connectivity constraints
        // with one probe per candidate (§II-C: "the intersection is
        // replaced by querying the c-map"). The lowering enables the
        // strategy only where the probed levels' insertions amortize.
        _ if cfg.use_cmap && node.probe => {
            let ext = node.extender.expect("constrained ops always have an extender");
            fail_point!("csr_read", state.emb[0].0 as u64);
            let src = g.neighbors(state.emb[ext]);
            let mut out = std::mem::take(&mut state.frontiers[d]);
            out.clear();
            for &w in src {
                if node.bounded_build {
                    if let Some(b) = bound {
                        if w >= b {
                            break;
                        }
                    }
                }
                state.work.cmap_queries += 1;
                let bits = state.cmap.query(w);
                if bits != 0 {
                    state.work.cmap_hits += 1;
                }
                let ok = node.connected.iter().all(|&l| (bits >> l) & 1 == 1)
                    && node.disconnected.iter().all(|&l| (bits >> l) & 1 == 0);
                if ok {
                    out.push(w);
                }
            }
            state.frontiers[d] = out;
            state.core_at[d] = d;
            state.frontier_gen[d] += 1;
        }
        FrontierHint::Extend | FrontierHint::ExtendDiff => {
            let want_connected = node.frontier == FrontierHint::Extend;
            let src = state.core_at[d - 1];
            let mut out = std::mem::take(&mut state.frontiers[d]);
            out.clear();
            // Faithful mode: full (unbounded) merges, as in GraphZero's
            // generated code and the SIU of Fig. 9 — candidate sets are
            // materialized in full and vid bounds are applied during
            // iteration (sorted cores break early). Otherwise the bound
            // is pushed into the merge when the lowering proved the
            // truncation invisible, and intersections may dispatch to
            // galloping.
            fail_point!("csr_read", state.emb[0].0 as u64);
            let adj = g.neighbors(state.emb[d - 1]);
            let merge_bound = if cfg.paper_faithful || !node.bounded_build { None } else { bound };
            if cfg.paper_faithful {
                if want_connected {
                    setops::intersect_into(&state.frontiers[src], adj, &mut out, &mut state.work)
                } else {
                    setops::difference_into(&state.frontiers[src], adj, &mut out, &mut state.work)
                }
            } else {
                let v = state.emb[d - 1];
                let hub = aux.hubs.and_then(|h| h.row(v));
                let mut served = false;
                if want_connected && aux.reuse {
                    if let Some(p) = node.consume_prefix {
                        // Hub-probe precedence is unchanged: when the
                        // probe tier would win the dispatch, let it.
                        let probe_wins = hub.is_some() && adj.len() >= state.frontiers[src].len();
                        served = !probe_wins
                            && reuse_serve_frontier(
                                state,
                                p,
                                src,
                                adj,
                                merge_bound,
                                Some(&mut out),
                            )
                            .is_some();
                        if !served {
                            state.work.reuse_misses += 1;
                        }
                    }
                }
                if !served {
                    if want_connected {
                        setops::intersect_adaptive_into(
                            &state.frontiers[src],
                            adj,
                            merge_bound,
                            cfg.gallop_ratio,
                            hub,
                            aux.simd_for(v),
                            &mut out,
                            &mut state.work,
                        )
                    } else {
                        setops::difference_adaptive_into(
                            &state.frontiers[src],
                            adj,
                            merge_bound,
                            hub,
                            aux.simd_for(v),
                            &mut out,
                            &mut state.work,
                        )
                    }
                }
            }
            state.frontiers[d] = out;
            state.core_at[d] = d;
            state.frontier_gen[d] += 1;
        }
        FrontierHint::None => {
            let ext = node.extender.expect("non-root ops always have an extender");
            fail_point!("csr_read", state.emb[0].0 as u64);
            let src = g.neighbors(state.emb[ext]);
            let mut out = std::mem::take(&mut state.frontiers[d]);
            out.clear();
            let merge_bound = if cfg.paper_faithful || !node.bounded_build { None } else { bound };
            if !has_constraints {
                let src = match merge_bound {
                    Some(b) => setops::bounded_prefix(src, b, &mut state.work),
                    None => src,
                };
                out.extend_from_slice(src);
            } else {
                let mut served = false;
                if aux.reuse {
                    if let Some(p) = node.consume_prefix {
                        served = reuse_serve_levels(
                            g,
                            prog,
                            state,
                            node_idx,
                            p,
                            bound,
                            merge_bound,
                            &mut out,
                        );
                        if !served {
                            state.work.reuse_misses += 1;
                        }
                    }
                }
                if served {
                    // Served from the cached prefix — skip the pipeline.
                } else {
                    // Merge pipeline: src ∩ adj(connected…) \ adj(disconnected…),
                    // ping-ponging between two scratch buffers and landing the
                    // final stage in `out`.
                    let mut a = std::mem::take(&mut state.scratch_a);
                    let mut b = std::mem::take(&mut state.scratch_b);
                    let total = node.connected.len() + node.disconnected.len();
                    let stages = node
                        .connected
                        .iter()
                        .map(|&l| (l, true))
                        .chain(node.disconnected.iter().map(|&l| (l, false)));
                    for (i, (l, is_conn)) in stages.enumerate() {
                        let adj = g.neighbors(state.emb[l]);
                        let last = i + 1 == total;
                        let (cur, dst): (&[VertexId], &mut Vec<VertexId>) = if i == 0 {
                            (src, if last { &mut out } else { &mut a })
                        } else if i % 2 == 1 {
                            (&a, if last { &mut out } else { &mut b })
                        } else {
                            (&b, if last { &mut out } else { &mut a })
                        };
                        dst.clear();
                        if cfg.paper_faithful {
                            if is_conn {
                                setops::intersect_into(cur, adj, dst, &mut state.work);
                            } else {
                                setops::difference_into(cur, adj, dst, &mut state.work);
                            }
                        } else {
                            let hub = aux.hubs.and_then(|h| h.row(state.emb[l]));
                            if is_conn {
                                setops::intersect_adaptive_into(
                                    cur,
                                    adj,
                                    merge_bound,
                                    cfg.gallop_ratio,
                                    hub,
                                    aux.simd_for(state.emb[l]),
                                    dst,
                                    &mut state.work,
                                );
                            } else {
                                setops::difference_adaptive_into(
                                    cur,
                                    adj,
                                    merge_bound,
                                    hub,
                                    aux.simd_for(state.emb[l]),
                                    dst,
                                    &mut state.work,
                                );
                            }
                        }
                    }
                    state.scratch_a = a;
                    state.scratch_b = b;
                }
            }
            state.frontiers[d] = out;
            state.core_at[d] = d;
            state.frontier_gen[d] += 1;
        }
    }
}

/// Serves a frontier-shaped (`ReuseKind::Frontier`) prefix consumer: the
/// op `frontiers[src] ∩ N(v)` probes a bitmap of the frontier — built
/// once per materialization of that buffer — with `v`'s adjacency list
/// as the stream. With `out`, materializes into it and returns
/// `Some(0)`; without, returns the count (the fused leaf path). `None`
/// means the reuse tier declined (stale slot failing
/// profitability/budget, or the size gate) and the caller must fall back
/// to the adaptive dispatcher.
fn reuse_serve_frontier(
    state: &mut State,
    p: usize,
    src: usize,
    adj: &[VertexId],
    merge_bound: Option<VertexId>,
    out: Option<&mut Vec<VertexId>>,
) -> Option<u64> {
    let tag = SlotTag::Frontier(src, state.frontier_gen[src]);
    if !state.arena.valid(p, tag) {
        let f_len = state.frontiers[src].len();
        if f_len < REUSE_MIN_PREFIX {
            return None;
        }
        let mut elems = state.arena.begin_build(p, f_len)?;
        elems.extend_from_slice(&state.frontiers[src]);
        state.arena.commit(p, elems, tag, &mut state.work);
    }
    // Apply the vid bound to the streamed side up front (charged exactly
    // like the gallop path's truncation), so the probe runs unbounded —
    // the cached side needs no bound: absent elements simply never probe
    // true.
    let b = match merge_bound {
        Some(bd) => setops::bounded_prefix(adj, bd, &mut state.work),
        None => adj,
    };
    // Size gate on the *bounded* lengths of both operands: the merge
    // this probe replaces would advance at least
    // `min(|prefix ∩ [0,bound)|, |b|)` cursors before a side exhausts,
    // so requiring the truncated prefix to be at least as long as the
    // stream guarantees the probe never charges more iterations than
    // the kernel it replaces.
    let p_eff = match merge_bound {
        Some(bd) => setops::bounded_prefix(state.arena.elems(p), bd, &mut state.work).len(),
        None => state.arena.len(p),
    };
    if p_eff < b.len() {
        return None;
    }
    Some(match out {
        Some(out) => {
            setops::intersect_reuse_into(b, state.arena.words(p), None, out, &mut state.work);
            0
        }
        None => setops::intersect_reuse_count(b, state.arena.words(p), None, &mut state.work),
    })
}

/// Serves a level-shaped (`ReuseKind::Levels`) prefix consumer: the
/// hoisted sub-expression — a single shallower level's adjacency list —
/// is cached once per parent embedding, and each sibling then probes the
/// cached bitmap with its single remaining adjacency list `N(emb[d-1])`.
/// Returns whether the op was served; on `false` the caller runs the
/// full per-sibling pipeline.
///
/// Only the `pos == [l], neg == []` shape is served. Its build is a
/// (bounded) copy — charged exactly like the unconstrained copy arm of
/// `build_core`, i.e. no `setop_iterations` — so every probe is
/// individually covered by the size gate against the one merge it
/// replaces, for any sibling count. Richer hoisted shapes are *not*
/// stage-wise comparable to the faithful pipeline: hoisting a second
/// positive level re-associates the intersection chain, and hoisting a
/// difference runs it on un-intersected operands; for a parent with few
/// siblings the build then has nothing to amortize against and the
/// engine would charge more iterations than the paper-faithful one,
/// breaking the bounded-≤-faithful invariant. Those prefixes stay in
/// the advisory IR but the executor declines them (a `reuse_misses`
/// charge, like any profitability refusal).
#[allow(clippy::too_many_arguments)]
fn reuse_serve_levels(
    g: &CsrGraph,
    prog: &Program,
    state: &mut State,
    node_idx: usize,
    p: usize,
    bound: Option<VertexId>,
    merge_bound: Option<VertexId>,
    out: &mut Vec<VertexId>,
) -> bool {
    let node = &prog.nodes[node_idx];
    let d = node.depth;
    let ReuseKind::Levels { ref pos, ref neg, bounded, newest } = prog.prefixes[p].kind else {
        debug_assert!(false, "a None-hint consumer always has a Levels prefix");
        return false;
    };
    if pos.len() != 1 || !neg.is_empty() {
        return false;
    }
    let tag = SlotTag::Epoch(state.level_epoch[newest]);
    if !state.arena.valid(p, tag) {
        let src0 = g.neighbors(state.emb[pos[0]]);
        if src0.len() < REUSE_MIN_PREFIX {
            return false;
        }
        let Some(mut elems) = state.arena.begin_build(p, src0.len()) else {
            return false;
        };
        // The prefix may only be truncated by a bound that is
        // sibling-invariant (all levels ≤ d-2) — otherwise it is copied
        // in full and the varying bound is applied to the stream below.
        let src0 = match if bounded { bound } else { None } {
            Some(bd) => setops::bounded_prefix(src0, bd, &mut state.work),
            None => src0,
        };
        elems.extend_from_slice(src0);
        state.arena.commit(p, elems, tag, &mut state.work);
    }
    let adj = g.neighbors(state.emb[d - 1]);
    let b = match merge_bound {
        Some(bd) => setops::bounded_prefix(adj, bd, &mut state.work),
        None => adj,
    };
    // Same bounded-length size gate as the frontier shape (see
    // `reuse_serve_frontier`); for a prefix built under a
    // sibling-invariant bound the truncation is a no-op, but a prefix
    // built in full must be compared at its effective length.
    let p_eff = match merge_bound {
        Some(bd) => setops::bounded_prefix(state.arena.elems(p), bd, &mut state.work).len(),
        None => state.arena.len(p),
    };
    if p_eff < b.len() {
        return false;
    }
    setops::intersect_reuse_into(b, state.arena.words(p), None, out, &mut state.work);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_graph::generators;
    use fm_pattern::Pattern;
    use fm_plan::{compile, compile_multi, CompileOptions};

    fn count(g: &CsrGraph, plan: &ExecutionPlan, cfg: &EngineConfig) -> Vec<u64> {
        mine_single_threaded(g, plan, cfg).unique_counts(plan)
    }

    #[test]
    fn triangles_in_complete_graph() {
        let g = generators::complete(7);
        let plan = compile(&Pattern::triangle(), CompileOptions::default());
        // C(7,3) = 35.
        assert_eq!(count(&g, &plan, &EngineConfig::default()), vec![35]);
    }

    #[test]
    fn four_cliques_in_complete_graph() {
        let g = generators::complete(8);
        let plan = compile(&Pattern::k_clique(4), CompileOptions::default());
        // C(8,4) = 70.
        assert_eq!(count(&g, &plan, &EngineConfig::default()), vec![70]);
    }

    #[test]
    fn four_cycles_in_bipartite_graph() {
        // K_{3,4}: C(3,2) * C(4,2) = 3 * 6 = 18 four-cycles.
        let g = generators::complete_bipartite(3, 4);
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        assert_eq!(count(&g, &plan, &EngineConfig::default()), vec![18]);
    }

    #[test]
    fn four_cycles_in_grid() {
        let g = generators::grid(5, 4);
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        assert_eq!(count(&g, &plan, &EngineConfig::default()), vec![4 * 3]);
    }

    #[test]
    fn wedges_in_star() {
        let g = generators::star(6);
        let plan = compile(&Pattern::wedge(), CompileOptions::default());
        // C(6,2) = 15 wedges centered at the hub.
        assert_eq!(count(&g, &plan, &EngineConfig::default()), vec![15]);
    }

    #[test]
    fn diamonds_in_complete_graph() {
        let g = generators::complete(5);
        let plan = compile(&Pattern::diamond(), CompileOptions::default());
        // K5: C(5,4) vertex sets × 6 edge-induced diamonds each (choose the
        // missing edge among the 6).
        assert_eq!(count(&g, &plan, &EngineConfig::default()), vec![30]);
    }

    #[test]
    fn automine_mode_finds_each_match_aut_times() {
        let g = generators::erdos_renyi(40, 0.25, 3);
        let sym = compile(&Pattern::triangle(), CompileOptions::default());
        let auto = compile(&Pattern::triangle(), CompileOptions::automine());
        let s = mine_single_threaded(&g, &sym, &EngineConfig::default());
        let a = mine_single_threaded(&g, &auto, &EngineConfig::default());
        assert_eq!(a.counts[0], 6 * s.counts[0]);
        assert_eq!(a.unique_counts(&auto), s.unique_counts(&sym));
        // The larger search space costs more work.
        assert!(a.work.extensions > s.work.extensions);
    }

    #[test]
    fn bounded_and_adaptive_modes_match_faithful_counts() {
        let g = generators::powerlaw_cluster(200, 5, 0.4, 11);
        for pattern in [
            Pattern::triangle(),
            Pattern::cycle(4),
            Pattern::diamond(),
            Pattern::house(),
            Pattern::k_clique(4),
        ] {
            let plan = compile(&pattern, CompileOptions::default());
            let faithful = mine_single_threaded(&g, &plan, &EngineConfig::paper_faithful());
            let bounded = mine_single_threaded(
                &g,
                &plan,
                &EngineConfig { gallop_ratio: 0, ..Default::default() },
            );
            let adaptive = mine_single_threaded(&g, &plan, &EngineConfig::default());
            assert_eq!(faithful.counts, bounded.counts, "pattern {pattern}");
            assert_eq!(faithful.counts, adaptive.counts, "pattern {pattern}");
            // Pushing the bound into the merges can only remove set-op
            // iterations.
            assert!(
                bounded.work.setop_iterations <= faithful.work.setop_iterations,
                "pattern {pattern}"
            );
        }
        // On a bounded-heavy pattern the reduction is strict.
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let faithful = mine_single_threaded(&g, &plan, &EngineConfig::paper_faithful());
        let bounded = mine_single_threaded(
            &g,
            &plan,
            &EngineConfig { gallop_ratio: 0, ..Default::default() },
        );
        assert!(bounded.work.setop_iterations < faithful.work.setop_iterations);
    }

    #[test]
    fn cmap_mode_matches_setops_mode() {
        let g = generators::powerlaw_cluster(150, 4, 0.5, 7);
        for pattern in [
            Pattern::triangle(),
            Pattern::cycle(4),
            Pattern::diamond(),
            Pattern::tailed_triangle(),
            Pattern::k_clique(4),
            Pattern::house(),
        ] {
            let plan = compile(&pattern, CompileOptions::default());
            let base = count(&g, &plan, &EngineConfig::default());
            let with_cmap =
                count(&g, &plan, &EngineConfig { use_cmap: true, ..Default::default() });
            assert_eq!(base, with_cmap, "pattern {pattern}");
        }
    }

    #[test]
    fn frontier_memo_off_matches_on() {
        let g = generators::powerlaw_cluster(120, 4, 0.4, 9);
        for pattern in [Pattern::k_clique(4), Pattern::diamond(), Pattern::cycle(4)] {
            let plan = compile(&pattern, CompileOptions::default());
            let on = count(&g, &plan, &EngineConfig::default());
            let off =
                count(&g, &plan, &EngineConfig { frontier_memo: false, ..Default::default() });
            let off_cmap = count(
                &g,
                &plan,
                &EngineConfig { frontier_memo: false, use_cmap: true, ..Default::default() },
            );
            assert_eq!(on, off, "pattern {pattern}");
            assert_eq!(on, off_cmap, "pattern {pattern} (cmap)");
        }
    }

    #[test]
    fn induced_motif_counts_on_small_oracle() {
        // A triangle with a pendant vertex: motifs of size 3 are
        // 1 triangle + 2 wedges (1-2-3 center 2 and 0-2-3 center 2).
        let g = fm_graph::GraphBuilder::new()
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .edge(2, 3)
            .build()
            .unwrap();
        let motifs = fm_pattern::motifs::motifs(3);
        let plan = compile_multi(&motifs, CompileOptions::induced());
        let counts = count(&g, &plan, &EngineConfig::default());
        // motifs(3) is [wedge, triangle].
        assert_eq!(counts, vec![2, 1]);
    }

    #[test]
    fn multi_pattern_matches_individual_runs() {
        let g = generators::powerlaw_cluster(100, 4, 0.5, 21);
        let patterns = [Pattern::diamond(), Pattern::tailed_triangle()];
        let multi = compile_multi(&patterns, CompileOptions::default());
        let together = count(&g, &multi, &EngineConfig::default());
        for (i, p) in patterns.iter().enumerate() {
            let single = compile(p, CompileOptions::default());
            assert_eq!(count(&g, &single, &EngineConfig::default())[0], together[i]);
        }
    }

    #[test]
    fn collected_matches_are_valid_embeddings() {
        let g = generators::erdos_renyi(30, 0.3, 5);
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let prepared = prepare_graph(&g, &plan);
        let mut ex = Executor::new(&prepared, &plan, &EngineConfig::default());
        ex.collect_matches();
        ex.run_range(0, prepared.num_vertices() as u32);
        let matches: Vec<_> = ex.matches().to_vec();
        let result = ex.finish();
        assert_eq!(matches.len() as u64, result.counts[0]);
        for (pi, emb) in &matches {
            assert_eq!(*pi, 0);
            assert_eq!(emb.len(), 4);
            // Matching-order adjacency: v1,v2 ∈ N(v0); v3 ∈ N(v1) ∩ N(v2).
            assert!(g.has_edge(emb[0], emb[1]));
            assert!(g.has_edge(emb[0], emb[2]));
            assert!(g.has_edge(emb[3], emb[1]));
            assert!(g.has_edge(emb[3], emb[2]));
            // Symmetry order: v1 < v0, v2 < v1, v3 < v0.
            assert!(emb[1] < emb[0] && emb[2] < emb[1] && emb[3] < emb[0]);
        }
    }

    #[test]
    fn empty_graph_yields_zero() {
        let g = fm_graph::GraphBuilder::new().vertices(5).build().unwrap();
        let plan = compile(&Pattern::triangle(), CompileOptions::default());
        assert_eq!(count(&g, &plan, &EngineConfig::default()), vec![0]);
    }
}
