//! Crash-recovery acceptance suite (ISSUE tentpole): a run interrupted at
//! an arbitrary task boundary and resumed from its durable checkpoint
//! yields counts *and* work counters bit-identical to the uninterrupted
//! run, across thread counts and set-op backends; a fingerprint-mismatched
//! resume fails with a structured error, never a silently wrong count.
//!
//! Interruption is induced two ways: a set-operation budget (the engine's
//! machine-independent stop point, polled between whole tasks — exactly
//! the granularity checkpoints are written at) and an injected start-vertex
//! fault that lands in quarantine. The failpoint harness is available here
//! because the root package's dev-dependencies enable `failpoints`.

use fm_engine::failpoint::{self, Trigger};
use fm_engine::{
    mine, mine_with, Budget, CancelToken, Checkpoint, CheckpointConfig, CheckpointError,
    EngineConfig, MineOptions, MiningResult, RunStatus,
};
use fm_graph::{generators, CsrGraph};
use fm_pattern::Pattern;
use fm_plan::{compile, CompileOptions, ExecutionPlan};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique checkpoint path per call; tests clean up best-effort, and the
/// pid+counter suffix keeps reruns from tripping over stale files.
fn temp_ckpt(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fm-ckpt-{}-{tag}-{n}.bin", std::process::id()))
}

/// Per-task checkpoint cadence: every completed start vertex, no wall
/// clock, so the final snapshot always reflects the exact stop point.
fn every_task(path: &Path) -> CheckpointConfig {
    CheckpointConfig { path: path.to_path_buf(), every_tasks: 1, every_wall: None }
}

/// Options for a run that checkpoints every task to `path`.
fn checkpointing(path: &Path) -> MineOptions {
    MineOptions { checkpoint: Some(every_task(path)), ..Default::default() }
}

/// Loads the snapshot at `path` and continues the run from it;
/// `checkpoint` optionally keeps writing fresh snapshots.
fn resume_from(
    g: &CsrGraph,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
    path: &Path,
    checkpoint: Option<CheckpointConfig>,
) -> Result<MiningResult, CheckpointError> {
    let opts =
        MineOptions { resume: Some(Checkpoint::load(path)?), checkpoint, ..Default::default() };
    mine_with(g, plan, cfg, &opts)
}

fn assert_bit_identical(resumed: &MiningResult, full: &MiningResult, ctx: &str) {
    assert_eq!(resumed.status, RunStatus::Complete, "{ctx}");
    assert_eq!(resumed.counts, full.counts, "{ctx}");
    assert_eq!(resumed.work, full.work, "{ctx}");
    assert!(resumed.quarantined.is_empty(), "{ctx}");
}

/// Budget-interrupted run, checkpointed every task, resumed without the
/// budget: counts and work counters must match the uninterrupted
/// reference bit for bit — across threads {1, 4} × c-map on/off ×
/// hub-bitmap on/off (the full set-op dispatch matrix).
#[test]
fn budget_interrupt_then_resume_is_bit_identical_across_backends() {
    let g = generators::powerlaw_cluster(300, 5, 0.5, 21);
    let plan = compile(&Pattern::cycle(4), CompileOptions::default());
    for threads in [1usize, 4] {
        for use_cmap in [false, true] {
            for hub_bitmap in [false, true] {
                let base = EngineConfig { threads, use_cmap, hub_bitmap, ..Default::default() };
                let full = mine(&g, &plan, &base);
                let budget_cfg = EngineConfig {
                    budget: Budget::with_max_setop_iterations(full.work.setop_iterations / 3),
                    ..base
                };
                let path = temp_ckpt("matrix");
                let ctx = format!("threads={threads} cmap={use_cmap} hub={hub_bitmap}");
                let cut = mine_with(&g, &plan, &budget_cfg, &checkpointing(&path)).unwrap();
                assert_eq!(cut.status, RunStatus::BudgetExhausted, "{ctx}");
                assert_eq!(cut.checkpoint_error, None, "{ctx}");
                // The snapshot on disk is mid-run: strictly fewer completed
                // start vertices than the graph has.
                let snap = Checkpoint::load(&path).unwrap();
                assert!(snap.completed.len() < g.num_vertices(), "{ctx}");
                assert_eq!(snap.completed.to_vids(), cut.completed, "{ctx}");
                let resumed = resume_from(&g, &plan, &base, &path, None).unwrap();
                assert_bit_identical(&resumed, &full, &ctx);
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}

/// A start-vertex fault poisons one task mid-job (quarantine, `Degraded`),
/// the final checkpoint records it, and a resume — the fault now cleared,
/// as after a process restart — re-attempts the quarantined vertex and
/// heals to a `Complete` run bit-identical to the uninterrupted reference,
/// with the fault history carried forward. Same backend matrix.
#[test]
fn faulted_run_checkpoints_and_resume_heals_quarantine() {
    let token = CancelToken::new();
    let g = generators::powerlaw_cluster(150, 4, 0.5, 23);
    let plan = compile(&Pattern::triangle(), CompileOptions::default());
    let poisoned = 11u32;
    for threads in [1usize, 4] {
        for use_cmap in [false, true] {
            for hub_bitmap in [false, true] {
                let base = EngineConfig { threads, use_cmap, hub_bitmap, ..Default::default() };
                let full = mine(&g, &plan, &base);
                let path = temp_ckpt("heal");
                let ctx = format!("threads={threads} cmap={use_cmap} hub={hub_bitmap}");
                {
                    let _fp = failpoint::guard(
                        &token,
                        "start_vertex",
                        Trigger::OnContext(poisoned as u64),
                        "transient environmental fault",
                    );
                    let opts = MineOptions { cancel: Some(token.clone()), ..checkpointing(&path) };
                    let cut = mine_with(&g, &plan, &base, &opts).unwrap();
                    assert_eq!(cut.status, RunStatus::Degraded, "{ctx}");
                    assert_eq!(cut.quarantined.len(), 1, "{ctx}");
                    assert_eq!(cut.quarantined[0].vid, poisoned, "{ctx}");
                }
                // Guard dropped: the environment is healthy again. The
                // snapshot must carry the quarantine record.
                let snap = Checkpoint::load(&path).unwrap();
                assert_eq!(snap.quarantined.len(), 1, "{ctx}");
                assert!(!snap.completed.contains(poisoned), "{ctx}");
                let resumed = resume_from(&g, &plan, &base, &path, None).unwrap();
                assert_bit_identical(&resumed, &full, &ctx);
                // The healed run still remembers what happened.
                assert!(resumed.faults.iter().any(|f| f.vid == poisoned), "{ctx}");
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}

/// Interrupted runs chain: cut twice at different budgets, resuming with a
/// *different thread count* each time (threads are excluded from the
/// config fingerprint by design), and the final totals are still
/// bit-identical to one uninterrupted run.
#[test]
fn chained_resumes_across_thread_counts_converge_bit_identically() {
    let g = generators::powerlaw_cluster(250, 5, 0.5, 29);
    let plan = compile(&Pattern::k_clique(4), CompileOptions::default());
    let full = mine(&g, &plan, &EngineConfig::default());
    let path = temp_ckpt("chain");
    let total = full.work.setop_iterations;
    let stage = |threads: usize, budget: Option<u64>, resume: bool| {
        let cfg = EngineConfig {
            threads,
            budget: budget.map(Budget::with_max_setop_iterations).unwrap_or_default(),
            ..Default::default()
        };
        if resume {
            resume_from(&g, &plan, &cfg, &path, Some(every_task(&path))).unwrap()
        } else {
            mine_with(&g, &plan, &cfg, &checkpointing(&path)).unwrap()
        }
    };
    let first = stage(4, Some(total / 4), false);
    assert_eq!(first.status, RunStatus::BudgetExhausted);
    let second = stage(1, Some(total / 2), true);
    assert_eq!(second.status, RunStatus::BudgetExhausted);
    assert!(second.completed.len() >= first.completed.len());
    let last = stage(7, None, true);
    assert_bit_identical(&last, &full, "chained");
    let _ = std::fs::remove_file(&path);
}

/// Structured refusal, never a wrong count: a snapshot replayed against a
/// different graph, plan, or count-relevant config is each rejected with
/// its own fingerprint error, while a threads-only change is accepted.
#[test]
fn fingerprint_mismatches_are_structured_errors() {
    let g = generators::powerlaw_cluster(120, 4, 0.5, 31);
    let plan = compile(&Pattern::triangle(), CompileOptions::default());
    let cfg = EngineConfig::default();
    let path = temp_ckpt("fp");
    mine_with(&g, &plan, &cfg, &checkpointing(&path)).unwrap();

    let other_graph = generators::powerlaw_cluster(121, 4, 0.5, 31);
    let err = resume_from(&other_graph, &plan, &cfg, &path, None).unwrap_err();
    assert!(matches!(err, CheckpointError::GraphMismatch { .. }), "{err}");

    let other_plan = compile(&Pattern::cycle(4), CompileOptions::default());
    let err = resume_from(&g, &other_plan, &cfg, &path, None).unwrap_err();
    assert!(matches!(err, CheckpointError::PlanMismatch { .. }), "{err}");

    let other_cfg = EngineConfig { use_cmap: !cfg.use_cmap, ..cfg };
    let err = resume_from(&g, &plan, &other_cfg, &path, None).unwrap_err();
    assert!(matches!(err, CheckpointError::ConfigMismatch { .. }), "{err}");

    // Scheduling knobs are deliberately outside the fingerprint: a resume
    // may change thread count, chunking, retries, or budgets freely.
    let sched_cfg = EngineConfig { threads: 7, max_retries: 3, ..cfg };
    assert!(resume_from(&g, &plan, &sched_cfg, &path, None).is_ok());
    let _ = std::fs::remove_file(&path);
}

/// IO-level refusals are structured too: a missing file is `Io`, a
/// garbage file is `BadFormat`, and both reach the `Miner` facade as
/// `MineError::Checkpoint` rather than a panic or a zero count.
#[test]
fn unreadable_snapshots_fail_loudly_through_every_layer() {
    let g = generators::erdos_renyi(60, 0.15, 5);
    let plan = compile(&Pattern::triangle(), CompileOptions::default());
    let cfg = EngineConfig::default();
    let missing = temp_ckpt("missing");
    let err = resume_from(&g, &plan, &cfg, &missing, None).unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)), "{err}");

    let garbage = temp_ckpt("garbage");
    std::fs::write(&garbage, b"definitely not a checkpoint").unwrap();
    let err = resume_from(&g, &plan, &cfg, &garbage, None).unwrap_err();
    assert!(matches!(err, CheckpointError::BadFormat(_)), "{err}");

    let outcome =
        flexminer::Miner::new(&g).pattern(Pattern::triangle()).resume_from(&missing).run();
    assert!(matches!(outcome, Err(flexminer::MineError::Checkpoint(CheckpointError::Io(_)))));
    let _ = std::fs::remove_file(&garbage);
}

/// The same interrupt-and-resume loop end to end through the `Miner`
/// facade builders, including quarantine/straggler accessors on the
/// outcome.
#[test]
fn miner_facade_checkpoints_and_resumes() {
    let g = generators::powerlaw_cluster(300, 5, 0.5, 37);
    let path = temp_ckpt("miner");
    let full = flexminer::Miner::new(&g).pattern(Pattern::cycle(4)).run().unwrap();
    let cut = flexminer::Miner::new(&g)
        .pattern(Pattern::cycle(4))
        .threads(4)
        .budget(Budget::with_max_setop_iterations(500))
        .checkpoint_to(&path)
        .checkpoint_interval(Some(1), None)
        .run()
        .unwrap();
    assert_eq!(cut.status(), RunStatus::BudgetExhausted);
    let resumed = flexminer::Miner::new(&g)
        .pattern(Pattern::cycle(4))
        .threads(4)
        .resume_from(&path)
        .run()
        .unwrap();
    assert!(resumed.is_complete());
    assert_eq!(resumed.counts(), full.counts());
    assert!(resumed.quarantined().is_empty());
    assert_eq!(resumed.checkpoint_error(), None);
    let _ = std::fs::remove_file(&path);
}

fn arb_graph(max_v: u32, max_e: usize) -> impl Strategy<Value = CsrGraph> {
    prop::collection::vec((0..max_v, 0..max_v), 0..max_e).prop_map(move |edges| {
        fm_graph::GraphBuilder::new()
            .vertices(max_v as usize)
            .edges(edges)
            .build()
            .expect("simple graph")
    })
}

fn arb_pattern() -> impl Strategy<Value = Pattern> {
    prop::sample::select(vec![
        Pattern::triangle(),
        Pattern::cycle(4),
        Pattern::diamond(),
        Pattern::k_clique(4),
    ])
}

fn resume_reference(g: &CsrGraph, plan: &ExecutionPlan, use_cmap: bool) -> MiningResult {
    mine(g, plan, &EngineConfig { use_cmap, ..Default::default() })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// ISSUE acceptance: for *any* checkpoint point (swept via the set-op
    /// budget) and any thread count in {1, 4, 7}, cutting a run at that
    /// point and resuming from the snapshot — on a different thread count
    /// — reproduces the uninterrupted counts and work counters bit for
    /// bit.
    #[test]
    fn resume_is_bit_identical_for_any_cut_point(
        g in arb_graph(40, 140),
        p in arb_pattern(),
        budget in 1u64..600,
        use_cmap in any::<bool>(),
    ) {
        let plan = compile(&p, CompileOptions::default());
        let full = resume_reference(&g, &plan, use_cmap);
        for threads in [1usize, 4, 7] {
            let cut_cfg = EngineConfig {
                threads,
                use_cmap,
                budget: Budget::with_max_setop_iterations(budget),
                ..Default::default()
            };
            let path = temp_ckpt("prop");
            let cut = mine_with(&g, &plan, &cut_cfg, &checkpointing(&path)).unwrap();
            prop_assert!(cut.checkpoint_error.is_none());
            // Resume on a rotated thread count: the snapshot is
            // schedule-agnostic by construction.
            let resume_cfg = EngineConfig {
                threads: [1usize, 4, 7][(threads + 1) % 3],
                use_cmap,
                ..Default::default()
            };
            let resumed = resume_from(&g, &plan, &resume_cfg, &path, None).unwrap();
            prop_assert_eq!(resumed.status, RunStatus::Complete);
            prop_assert_eq!(&resumed.counts, &full.counts,
                "threads={} cmap={} budget={}", threads, use_cmap, budget);
            prop_assert_eq!(resumed.work, full.work,
                "threads={} cmap={} budget={}", threads, use_cmap, budget);
            let _ = std::fs::remove_file(&path);
        }
    }
}
