//! # fm-engine
//!
//! Software GPM engines for the FlexMiner (ISCA 2021) reproduction — the
//! CPU baselines the paper compares against, all driven by the same
//! [`fm_plan::ExecutionPlan`] IR that configures the hardware simulator.
//!
//! Engines provided:
//!
//! * **GraphZero model** — plan with symmetry breaking + frontier-list
//!   memoization, merge-based set intersection/difference
//!   ([`setops`]), recursive DFS ([`executor`]), optionally multithreaded
//!   with one task per start vertex ([`stream`]). This is the paper's CPU
//!   baseline (§VII-A).
//! * **AutoMine model** — the same executor on a plan compiled without
//!   symmetry bounds ([`fm_plan::CompileOptions::automine`]); each
//!   embedding is found |Aut(P)| times, modelling AutoMine's larger search
//!   space.
//! * **Pattern-oblivious model** ([`oblivious`]) — ESU-style enumeration of
//!   all connected k-subgraphs plus explicit isomorphism tests, the search
//!   strategy of Gramer [90] (§III).
//! * **Software c-map** ([`cmap`]) — hash- and vector-backed connectivity
//!   maps implementing the bulk, stack-disciplined insert/delete semantics
//!   of §VI, used for memoization ablations and as the functional model the
//!   hardware c-map is validated against.
//!
//! All engines report [`WorkCounters`] (set-operation iterations,
//! comparisons, c-map traffic) used by the motivation study (Fig. 7 and the
//! branch-misprediction discussion of §III).
//!
//! Every software run of the GraphZero/AutoMine model goes through one
//! task loop in [`stream`]: [`mine`] and [`mine_with`] drain a job with N
//! threads, and a supervisor drives [`JobCore`]s in preemptible stints.
//! [`mine_single_threaded`] is the loop-free sequential reference the
//! tests compare against.
//!
//! # Examples
//!
//! ```
//! use fm_engine::{mine, EngineConfig};
//! use fm_graph::generators;
//! use fm_pattern::Pattern;
//! use fm_plan::{compile, CompileOptions};
//!
//! let g = generators::complete(5);
//! let plan = compile(&Pattern::triangle(), CompileOptions::default());
//! let result = mine(&g, &plan, &EngineConfig::default());
//! assert_eq!(result.counts, vec![10]); // C(5,3) triangles in K5
//! ```

pub mod checkpoint;
pub mod cmap;
pub mod control;
pub mod executor;
#[cfg(any(test, feature = "failpoints"))]
pub mod failpoint;
pub mod oblivious;
pub mod result;
pub(crate) mod reuse;
pub mod setops;
pub mod simd;
pub mod stream;
pub mod telemetry;

/// Reports a named failpoint hit in instrumented builds (`cfg(test)` or
/// the `failpoints` feature); expands to nothing otherwise, so release
/// hot paths carry no trace of the harness.
macro_rules! fail_point {
    ($site:expr, $ctx:expr) => {
        #[cfg(any(test, feature = "failpoints"))]
        crate::failpoint::hit($site, $ctx);
    };
}
pub(crate) use fail_point;

/// Marks the current thread as running tasks of the run that carries
/// `$token` (a [`CancelToken`]) until the end of the enclosing block, so
/// failpoints armed for that run fire here and nowhere else. Expands to
/// nothing in uninstrumented builds.
macro_rules! fail_scope {
    ($token:expr) => {
        #[cfg(any(test, feature = "failpoints"))]
        let _fail_scope = crate::failpoint::enter($token);
    };
}
pub(crate) use fail_scope;

pub use checkpoint::{
    config_fingerprint, plan_fingerprint, Checkpoint, CheckpointConfig, CheckpointError,
    CompletedSet, GraphFingerprint,
};
pub use control::{Budget, CancelToken};
pub use executor::{mine_single_threaded, prepare, Executor, PreparedGraph};
pub use result::{Fault, MiningResult, RunStatus, Straggler, WorkCounters};
pub use stream::{
    mine, mine_prepared, mine_prepared_observed, mine_with, JobCore, MineOptions, Stint, TaskCursor,
};
pub use telemetry::{ProgressOptions, TelemetryOptions};

/// Configuration of the software mining engines.
///
/// # Supported knob matrix
///
/// This is the single normative statement of how the mode knobs compose
/// (structural invariants are asserted by [`EngineConfig::debug_validate`]
/// on every executor construction):
///
/// | knob            | default | `paper_faithful()` | composition |
/// |-----------------|---------|--------------------|-------------|
/// | `use_cmap`      | off     | off                | supported with `frontier_memo` on **or** off — with memoization off the lowering marks every level insertable, so the c-map probes all levels (the cmap-mode tests flip both knobs together) |
/// | `frontier_memo` | on      | on                 | off is a fully supported mode (merge-pipeline candidate generation), not merely an ablation artifact; counts are invariant |
/// | `gallop_ratio`  | 16      | ignored            | any value; `0` is the documented sentinel that disables galloping entirely (every skew dispatches merge/simd) — tests rely on it to force specific tiers |
/// | `hub_bitmap`    | on      | ignored (no probes)| composes with every other knob; inert when no vertex reaches `hub_degree_threshold` or `hub_memory_budget` is too tight |
/// | `simd`          | on      | ignored (scalar merges) | replaces the merge tier with vectorized kernels when compiled in (`simd` cargo feature) and runnable on the host CPU; counts, `setop_iterations`, and `comparisons` are bit-identical to the scalar path — only the dispatch split shifts merge → `simd_dispatches`. With `gallop_ratio == 0` the gallop tier is disabled, so *every* non-probe dispatch lands on the SIMD tier — the split is merge+gallop → simd, not merge → simd |
/// | `reuse`         | on      | ignored (no arena) | consume the plan's `ReusePrefix` IR: cache sibling-invariant prefix intersections in a per-worker `ReuseArena` and probe them instead of re-deriving; counts, `RunStatus`, and non-dispatch counters are identical — merge/gallop/simd dispatches relabel to `reuse_hits`, and `setop_iterations` can only shrink. Inert when `reuse_memory_budget == 0` (the four-tier dispatcher runs bit-identically) or per-op when the prefix misses profitability/budget (`reuse_misses`) |
/// | `degree_sched`  | on      | on                 | only effective with `threads > 1`; counts and aggregate work are order-independent |
/// | `max_retries`   | 0       | same               | count-irrelevant (a retried task contributes exactly once); excluded from the checkpoint config fingerprint, so a resume may change it |
/// | `straggler_*`   | 8 / 10ms| same               | observability only; never perturbs counts, work, or scheduling |
///
/// `paper_faithful` pins candidate generation to unbounded merges and
/// ignores `gallop_ratio` and `hub_bitmap` entirely (no dispatcher runs,
/// so the dispatch counters stay zero), keeping its work counters
/// bit-identical to the recorded figure artifacts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EngineConfig {
    /// Worker threads (1 = run on the calling thread).
    pub threads: usize,
    /// Start vertices handed out per scheduling quantum.
    pub chunk_size: usize,
    /// Serve connectivity constraints from a software c-map
    /// (Sandslash-style memoization [15, 21]) instead of merge-based set
    /// operations. Composes with either state of
    /// [`frontier_memo`](Self::frontier_memo); see the knob matrix in the
    /// type docs.
    pub use_cmap: bool,
    /// Honor the plan's frontier-memoization hints. The paper keeps this
    /// on for fairness with GraphZero; turning it off selects the
    /// merge-pipeline candidate-generation mode (identical counts, more
    /// set-op work) and composes with `use_cmap` — see the knob matrix in
    /// the type docs.
    pub frontier_memo: bool,
    /// Reproduce the paper's exact work-counter semantics: full unbounded
    /// SIU/SDU merges for `Extend`/`ExtendDiff`/merge-pipeline candidate
    /// generation (the merge FSM of Fig. 9 has no bound port), the
    /// conservative bounded-build rule for the stream-and-probe path, and
    /// no galloping. The simulator cross-checks and the Fig. 7/13 binaries
    /// run in this mode so recorded artifacts stay comparable; the default
    /// mode pushes symmetry bounds into candidate generation and may
    /// dispatch to galloping, producing identical counts with less set-op
    /// work.
    pub paper_faithful: bool,
    /// Adaptive set-intersection dispatch: switch from the merge kernel to
    /// galloping (binary search) when `|small| * gallop_ratio <= |large|`.
    /// `0` disables galloping; ignored under
    /// [`paper_faithful`](Self::paper_faithful).
    pub gallop_ratio: usize,
    /// Build a degree-thresholded hub-bitmap index over the prepared graph
    /// and let the adaptive dispatcher answer set ops against hub
    /// adjacency lists with bitmap probes (third tier after merge and
    /// galloping). The index is built once and shared across workers;
    /// ignored under [`paper_faithful`](Self::paper_faithful) — the Fig. 9
    /// merge FSM has no probe port.
    pub hub_bitmap: bool,
    /// Minimum degree for a vertex to be indexed as a hub. See
    /// [`fm_graph::HubBitmaps::build`] for the selection policy.
    pub hub_degree_threshold: usize,
    /// Hard cap, in bytes, on the hub index footprint (rows plus the
    /// per-vertex row map). The index silently shrinks — possibly to
    /// empty — rather than failing when the budget is tight.
    pub hub_memory_budget: usize,
    /// Let the adaptive dispatcher route merge-tier set ops to the
    /// vectorized (SSE2/AVX2) kernels instead of the scalar merge, and
    /// build per-block adjacency summaries in [`prepare`] for operand
    /// block skipping. Effective only when the `simd` cargo feature is
    /// compiled in and the host can run the kernels (see
    /// [`simd_active`](Self::simd_active)); ignored under
    /// [`paper_faithful`](Self::paper_faithful) — the Fig. 9 merge FSM
    /// is strictly scalar. Counts and charged work are bit-identical
    /// either way; only wall-clock and the merge/simd dispatch split
    /// change.
    pub simd: bool,
    /// Consume the plan's `ReusePrefix` IR: materialize each proven
    /// sibling-invariant prefix intersection once per parent embedding
    /// into a per-worker `ReuseArena`, and let deep extensions probe the
    /// cached bitmap instead of re-deriving the set for every sibling
    /// (GraphMini-style pre-shrunk operands). Counts and `RunStatus` are
    /// identical either way; merge/gallop/simd dispatches relabel to
    /// `reuse_hits` and `setop_iterations` can only shrink. Ignored under
    /// [`paper_faithful`](Self::paper_faithful) — the Fig. 9 merge FSM
    /// recomputes every operand — and inert when
    /// [`reuse_memory_budget`](Self::reuse_memory_budget) is `0`.
    pub reuse: bool,
    /// Hard cap, in bytes, on each worker's `ReuseArena` footprint
    /// (cached prefix elements plus their probe bitmaps), accounted per
    /// start-vertex task. An over-budget prefix build is skipped
    /// (`reuse_misses`) and the op falls back to the four-tier adaptive
    /// dispatch; `0` disables the reuse path entirely, degrading
    /// bit-for-bit to the dispatcher-only engine.
    pub reuse_memory_budget: usize,
    /// Hand start vertices to parallel workers in degree-descending order,
    /// so the heavy hub subtrees start first and cannot land at the tail
    /// of the schedule. Counts and aggregate work are order-independent;
    /// only effective with `threads > 1`.
    pub degree_sched: bool,
    /// Wall-clock deadline and set-op iteration cap for the run, polled at
    /// start-vertex granularity. Unlimited by default; see
    /// [`Budget`] and [`MiningResult::status`](result::MiningResult::status)
    /// for the partial-result semantics when a limit fires.
    pub budget: Budget,
    /// How many times a faulted start-vertex task is retried (in the same
    /// worker, immediately) before being quarantined. `0` — the default —
    /// quarantines on the first fault, preserving the PR 2 semantics.
    /// [`RunStatus::Degraded`] now means "non-empty quarantine after
    /// retries": a task that faults but succeeds on a retry does *not*
    /// degrade the run (the fault is still recorded in
    /// [`MiningResult::faults`](result::MiningResult::faults)).
    pub max_retries: u32,
    /// Straggler surfacing: a completed task whose elapsed time is at
    /// least `straggler_ratio ×` the running median (and at least
    /// [`straggler_min_task`](Self::straggler_min_task)) is reported in
    /// [`MiningResult::stragglers`](result::MiningResult::stragglers).
    /// `0` disables tracking entirely (no per-task timing overhead).
    pub straggler_ratio: u32,
    /// Noise floor for straggler detection: tasks faster than this are
    /// never flagged, however small the median — microsecond-scale jitter
    /// on tiny inputs would otherwise flood the report.
    pub straggler_min_task: std::time::Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        // A fine scheduling grain: power-law inputs concentrate work in a
        // few hub start-vertices, and coarse chunks would serialize them.
        EngineConfig {
            threads: 1,
            chunk_size: 4,
            use_cmap: false,
            frontier_memo: true,
            paper_faithful: false,
            gallop_ratio: 16,
            hub_bitmap: true,
            // The dispatcher only probes rows at least as long as the
            // streamed side, so the threshold bounds index size rather
            // than gating profitability: 32 ≈ the smallest row whose
            // merge savings outweigh its bitset's cache residency on our
            // generated inputs; 64 MiB comfortably holds every such row
            // of the bundled datasets.
            hub_degree_threshold: 32,
            hub_memory_budget: 64 << 20,
            simd: true,
            reuse: true,
            // 16 MiB holds every profitable prefix of the bundled
            // datasets with room to spare; the arena accounts per task,
            // so deep power-law subtrees cannot accumulate past it.
            reuse_memory_budget: 16 << 20,
            degree_sched: true,
            budget: Budget::unlimited(),
            max_retries: 0,
            straggler_ratio: 8,
            straggler_min_task: std::time::Duration::from_millis(10),
        }
    }
}

impl EngineConfig {
    /// Convenience: the default configuration with `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        EngineConfig { threads, ..Self::default() }
    }

    /// The configuration reproducing the paper's work-counter semantics
    /// (see [`paper_faithful`](Self::paper_faithful)).
    pub fn paper_faithful() -> Self {
        EngineConfig { paper_faithful: true, ..Self::default() }
    }

    /// Whether this configuration builds and probes a hub-bitmap index:
    /// [`hub_bitmap`](Self::hub_bitmap) requested and not overridden by
    /// [`paper_faithful`](Self::paper_faithful).
    pub fn hub_bitmap_active(&self) -> bool {
        self.hub_bitmap && !self.paper_faithful
    }

    /// Whether this configuration routes merge-tier set ops to the
    /// vectorized kernels: [`simd`](Self::simd) requested, not overridden
    /// by [`paper_faithful`](Self::paper_faithful), and the kernels are
    /// compiled in and runnable on this host
    /// ([`simd::runtime_available`]).
    pub fn simd_active(&self) -> bool {
        self.simd && !self.paper_faithful && simd::runtime_available()
    }

    /// Whether this configuration caches and probes sibling-invariant
    /// prefixes: [`reuse`](Self::reuse) requested, a nonzero
    /// [`reuse_memory_budget`](Self::reuse_memory_budget), and not
    /// overridden by [`paper_faithful`](Self::paper_faithful).
    pub fn reuse_active(&self) -> bool {
        self.reuse && self.reuse_memory_budget > 0 && !self.paper_faithful
    }

    /// Debug-asserts the structural invariants of the supported knob
    /// matrix (see the type docs) — the full matrix, one assertion per
    /// faithful-exclusion row, so a future knob that forgets its
    /// `paper_faithful` override fails loudly here rather than silently
    /// perturbing the pinned figure artifacts. Called on every executor
    /// construction; compiles to nothing in release builds.
    pub fn debug_validate(&self) {
        debug_assert!(self.threads >= 1, "threads must be at least 1");
        debug_assert!(self.chunk_size >= 1, "chunk_size must be at least 1");
        debug_assert!(
            !(self.paper_faithful && self.hub_bitmap_active()),
            "paper_faithful excludes the hub-bitmap probe tier"
        );
        debug_assert!(
            !(self.paper_faithful && self.simd_active()),
            "paper_faithful excludes the SIMD kernel tier"
        );
        debug_assert!(
            !(self.paper_faithful && self.reuse_active()),
            "paper_faithful excludes the reuse tier"
        );
    }
}
