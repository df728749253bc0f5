//! Fault-injection suite: every degradation path of the job-control layer
//! is exercised by deterministically firing panics at named executor
//! sites. Compiled only with `--features failpoints` (see CI's dedicated
//! job); the default test run skips this binary entirely. Each test arms
//! its sites in the scope of its own run's `CancelToken`, so the tests run
//! in parallel without seeing each other's faults.
#![cfg(feature = "failpoints")]

use fm_engine::executor::prepare_graph;
use fm_engine::failpoint::{self, Trigger};
use fm_engine::{
    mine, mine_with, CancelToken, EngineConfig, Executor, JobCore, MineOptions, MiningResult,
    RunStatus, Stint,
};
use fm_graph::{generators, CsrGraph, VertexId};
use fm_pattern::Pattern;
use fm_plan::{compile, CompileOptions, ExecutionPlan};
use std::sync::Arc;

/// [`mine`] as the run that carries `token`, and so sees its armed sites.
fn mine_in(
    token: &CancelToken,
    g: &CsrGraph,
    plan: &ExecutionPlan,
    cfg: &EngineConfig,
) -> MiningResult {
    let opts = MineOptions { cancel: Some(token.clone()), ..Default::default() };
    mine_with(g, plan, cfg, &opts).expect("no resume snapshot to reject")
}

/// Sequential reference counts over every start vertex except `skip`.
fn counts_without(g: &CsrGraph, plan: &ExecutionPlan, cfg: &EngineConfig, skip: u32) -> Vec<u64> {
    let prepared = prepare_graph(g, plan);
    let mut ex = Executor::new(&prepared, plan, cfg);
    for v in 0..prepared.num_vertices() as u32 {
        if v != skip {
            ex.run_vertex(VertexId(v));
        }
    }
    ex.finish().counts
}

fn assert_degraded_exactly(r: &MiningResult, poisoned: u32, expected_counts: &[u64]) {
    assert_eq!(r.status, RunStatus::Degraded);
    assert_eq!(r.faults.len(), 1, "faults: {:?}", r.faults);
    assert_eq!(r.faults[0].vid, poisoned);
    // With the default `max_retries = 0`, one failed attempt goes straight
    // to quarantine — and `Degraded` means exactly "quarantine non-empty".
    assert_eq!(r.quarantined.len(), 1);
    assert_eq!(r.quarantined[0].vid, poisoned);
    assert_eq!(r.counts, expected_counts);
    assert!(!r.completed.contains(&poisoned));
}

#[test]
fn poisoned_start_vertex_degrades_with_exact_remaining_counts() {
    let token = CancelToken::new();
    let g = generators::powerlaw_cluster(150, 4, 0.5, 7);
    let plan = compile(&Pattern::cycle(4), CompileOptions::default());
    let poisoned = 3u32;
    for threads in [1, 4, 7] {
        let cfg = EngineConfig { threads, ..Default::default() };
        let _fp = failpoint::guard(
            &token,
            "start_vertex",
            Trigger::OnContext(poisoned as u64),
            "injected task fault",
        );
        let r = mine_in(&token, &g, &plan, &cfg);
        assert_degraded_exactly(&r, poisoned, &counts_without(&g, &plan, &cfg, poisoned));
        assert!(r.faults[0].payload.contains("injected task fault"));
        // Everything except the poisoned root completed.
        assert_eq!(r.completed.len(), g.num_vertices() - 1);
    }
}

#[test]
fn mid_subtree_faults_roll_back_partial_counts() {
    let token = CancelToken::new();
    let g = generators::powerlaw_cluster(120, 4, 0.5, 11);
    // Sites deeper in the DFS fire after the task has already counted
    // some matches; isolation must roll those partial counts back.
    for site in ["frontier_alloc", "csr_read"] {
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let poisoned = 5u32;
        let cfg = EngineConfig { threads: 4, ..Default::default() };
        let _fp =
            failpoint::guard(&token, site, Trigger::OnContext(poisoned as u64), "mid-subtree");
        let r = mine_in(&token, &g, &plan, &cfg);
        assert_degraded_exactly(&r, poisoned, &counts_without(&g, &plan, &cfg, poisoned));
    }
}

#[test]
fn cmap_insert_fault_is_isolated_and_cmap_state_recovers() {
    let token = CancelToken::new();
    let g = generators::powerlaw_cluster(120, 4, 0.5, 13);
    let plan = compile(&Pattern::cycle(4), CompileOptions::default());
    let poisoned = 2u32;
    let cfg = EngineConfig { threads: 2, use_cmap: true, ..Default::default() };
    let _fp =
        failpoint::guard(&token, "cmap_insert", Trigger::OnContext(poisoned as u64), "cmap fault");
    let r = mine_in(&token, &g, &plan, &cfg);
    // The executor that caught the fault keeps mining later vertices with
    // a wiped c-map; counts must still be exact (self-cleaning invariant).
    assert_degraded_exactly(&r, poisoned, &counts_without(&g, &plan, &cfg, poisoned));
}

#[test]
fn nth_hit_trigger_poisons_exactly_one_task_per_run() {
    let token = CancelToken::new();
    let g = generators::erdos_renyi(60, 0.15, 3);
    let plan = compile(&Pattern::triangle(), CompileOptions::default());
    let cfg = EngineConfig { threads: 1, ..Default::default() };
    let _fp = failpoint::guard(&token, "start_vertex", Trigger::OnNthHit(10), "nth fault");
    let r = mine_in(&token, &g, &plan, &cfg);
    assert_eq!(r.status, RunStatus::Degraded);
    assert_eq!(r.faults.len(), 1);
    // Single-threaded ascending schedule: the 10th task is vid 9.
    assert_eq!(r.faults[0].vid, 9);
    assert_eq!(r.counts, counts_without(&g, &plan, &cfg, 9));
}

/// ISSUE: a job core whose quarantined vertices are re-queued between
/// supervisor attempts heals completely once the (transient) fault clears,
/// with counts and work bit-identical to an unfaulted run.
#[test]
fn job_core_reattempts_quarantine_and_heals_bit_identically() {
    let token = CancelToken::new();
    let g = Arc::new(generators::powerlaw_cluster(150, 4, 0.5, 29));
    let plan = Arc::new(compile(&Pattern::cycle(4), CompileOptions::default()));
    let reference = mine(&g, &plan, &EngineConfig::default());
    let core = JobCore::new(Arc::clone(&g), Arc::clone(&plan), EngineConfig::default())
        .with_cancel(token.clone());
    let drain = |core: &JobCore| loop {
        match core.run_stint(9) {
            Stint::Ran { drained: true, .. } => break,
            Stint::Ran { .. } => continue,
            other => panic!("unexpected stint outcome {other:?}"),
        }
    };
    {
        let _fp = failpoint::guard(
            &token,
            "start_vertex",
            Trigger::OnContext(3),
            "injected transient fault",
        );
        drain(&core);
        let r = core.result();
        assert_eq!(r.status, RunStatus::Degraded);
        assert_eq!(r.quarantined.len(), 1);
        assert_eq!(r.quarantined[0].vid, 3);
    }
    // Fault cleared (guard dropped): one backoff-spaced reattempt heals.
    assert_eq!(core.reattempt_quarantined(), 1);
    drain(&core);
    let healed = core.result();
    assert_eq!(healed.status, RunStatus::Complete);
    assert_eq!(healed.counts, reference.counts);
    assert_eq!(healed.work, reference.work);
    // The failed attempt stays on the fault history.
    assert_eq!(healed.faults.len(), 1);
}

#[test]
fn every_start_vertex_faulting_still_terminates() {
    let token = CancelToken::new();
    let g = generators::erdos_renyi(40, 0.2, 5);
    let plan = compile(&Pattern::triangle(), CompileOptions::default());
    let cfg = EngineConfig { threads: 4, ..Default::default() };
    let _fp = failpoint::guard(&token, "start_vertex", Trigger::Always, "total loss");
    let r = mine_in(&token, &g, &plan, &cfg);
    assert_eq!(r.status, RunStatus::Degraded);
    assert_eq!(r.faults.len(), g.num_vertices());
    assert_eq!(r.quarantined.len(), g.num_vertices());
    assert_eq!(r.counts, vec![0]);
    assert!(r.completed.is_empty());
    // Fault report is deterministic: sorted by vid.
    assert!(r.faults.windows(2).all(|w| w[0].vid < w[1].vid));
}
