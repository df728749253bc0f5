//! Retry/quarantine acceptance suite (ISSUE satellite): a transient fault
//! is retried in place and the run finishes `Complete` with the retry on
//! record; a persistent fault exhausts `max_retries`, lands in quarantine,
//! and the run finishes `Degraded` with counts exactly reproducible over
//! the completed start-vertex set. Plus a smoke test of the straggler
//! surfacing that rides on the same per-task monitor.

use fm_engine::executor::prepare_graph;
use fm_engine::failpoint::{self, Trigger};
use fm_engine::{
    mine, mine_with, CancelToken, EngineConfig, Executor, MineOptions, MiningResult, RunStatus,
};
use fm_graph::{generators, CsrGraph, VertexId};
use fm_pattern::Pattern;
use fm_plan::{compile, CompileOptions, ExecutionPlan};
use std::time::Duration;

/// `mine` as the run that carries `token`, and so sees its armed sites.
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

/// An `OnNthHit` fault fires once and never again — the transient-fault
/// model (the hit counter advances past n on the retry). One retry heals
/// it: the run is `Complete`, bit-identical to a clean run, with the
/// failed attempt on record and an empty quarantine.
#[test]
fn transient_fault_is_retried_to_a_complete_run() {
    let token = CancelToken::new();
    let g = generators::erdos_renyi(60, 0.15, 3);
    let plan = compile(&Pattern::triangle(), CompileOptions::default());
    let clean = mine(&g, &plan, &EngineConfig::default());
    let cfg = EngineConfig { threads: 1, max_retries: 1, ..Default::default() };
    let _fp = failpoint::guard(&token, "start_vertex", Trigger::OnNthHit(10), "transient fault");
    let r = mine_in(&token, &g, &plan, &cfg);
    assert_eq!(r.status, RunStatus::Complete);
    assert_eq!(r.counts, clean.counts);
    assert_eq!(r.work, clean.work, "the failed attempt's work must be rolled back");
    assert!(r.quarantined.is_empty());
    // The retry is recorded: exactly one failed attempt, attempt index 0,
    // on the 10th task of the ascending single-threaded schedule (the
    // retry itself is the 11th hit, so vid 9 is attempted twice but later
    // vids see their normal hit numbers shifted by one — the trigger
    // already fired, so none of them fault).
    assert_eq!(r.faults.len(), 1, "faults: {:?}", r.faults);
    assert_eq!(r.faults[0].vid, 9);
    assert_eq!(r.faults[0].attempt, 0);
    assert!(r.faults[0].payload.contains("transient fault"));
}

/// An `OnContext` fault fires on *every* attempt at the poisoned vertex:
/// `max_retries` is exhausted, every attempt is recorded with its index,
/// the vertex lands in quarantine, and the `Degraded` counts are exactly
/// the clean counts minus that vertex — reproducible over the completed
/// set.
#[test]
fn persistent_fault_exhausts_retries_into_quarantine() {
    let token = CancelToken::new();
    let g = generators::powerlaw_cluster(150, 4, 0.5, 17);
    let plan = compile(&Pattern::cycle(4), CompileOptions::default());
    let poisoned = 6u32;
    for threads in [1usize, 4] {
        let cfg = EngineConfig { threads, max_retries: 2, ..Default::default() };
        let _fp = failpoint::guard(
            &token,
            "start_vertex",
            Trigger::OnContext(poisoned as u64),
            "persistent fault",
        );
        let r = mine_in(&token, &g, &plan, &cfg);
        assert_eq!(r.status, RunStatus::Degraded, "threads={threads}");
        // Attempts 0, 1, 2 all recorded, in order, for the same vid.
        assert_eq!(r.faults.len(), 3, "faults: {:?}", r.faults);
        for (i, f) in r.faults.iter().enumerate() {
            assert_eq!((f.vid, f.attempt), (poisoned, i as u32));
        }
        assert_eq!(r.quarantined.len(), 1);
        assert_eq!(r.quarantined[0].vid, poisoned);
        assert_eq!(r.quarantined[0].attempt, 2, "quarantine records the last attempt");
        assert!(!r.completed.contains(&poisoned));
        assert_eq!(r.counts, counts_without(&g, &plan, &cfg, poisoned), "threads={threads}");
        // Reproducibility over the completed set, the partial-result
        // contract quarantine inherits from job control.
        let prepared = prepare_graph(&g, &plan);
        let mut ex = Executor::new(&prepared, &plan, &cfg);
        for &v in &r.completed {
            ex.run_vertex(VertexId(v));
        }
        assert_eq!(r.counts, ex.finish().counts, "threads={threads}");
    }
}

/// `Degraded` now means exactly "non-empty quarantine": a run whose every
/// fault healed on retry is `Complete` (asserted above), and a run where
/// every task faults on every attempt still terminates, quarantines
/// everything, and reports deterministically ordered fault lists.
#[test]
fn total_loss_with_retries_still_terminates_deterministically() {
    let token = CancelToken::new();
    let g = generators::erdos_renyi(40, 0.2, 5);
    let plan = compile(&Pattern::triangle(), CompileOptions::default());
    let cfg = EngineConfig { threads: 4, max_retries: 1, ..Default::default() };
    let _fp = failpoint::guard(&token, "start_vertex", Trigger::Always, "total loss");
    let r = mine_in(&token, &g, &plan, &cfg);
    assert_eq!(r.status, RunStatus::Degraded);
    assert_eq!(r.counts, vec![0]);
    assert!(r.completed.is_empty());
    // Two attempts per vertex, one quarantine entry per vertex, both
    // sorted by (vid, attempt) regardless of worker interleaving.
    assert_eq!(r.faults.len(), 2 * g.num_vertices());
    assert_eq!(r.quarantined.len(), g.num_vertices());
    let key = |f: &fm_engine::Fault| (f.vid, f.attempt);
    assert!(r.faults.windows(2).all(|w| key(&w[0]) < key(&w[1])));
    assert!(r.quarantined.windows(2).all(|w| key(&w[0]) < key(&w[1])));
}

/// `max_retries` is a scheduling knob, not a counting knob: retrying must
/// never double-count. A healed run's counts equal the clean run's even
/// when the fault fires mid-subtree, after partial matches were tallied.
#[test]
fn mid_subtree_retry_does_not_double_count() {
    let token = CancelToken::new();
    let g = generators::powerlaw_cluster(120, 4, 0.5, 11);
    for site in ["frontier_alloc", "csr_read", "cmap_insert"] {
        let plan = compile(&Pattern::cycle(4), CompileOptions::default());
        let clean_cfg = EngineConfig { use_cmap: true, ..Default::default() };
        let clean = mine(&g, &plan, &clean_cfg);
        let cfg = EngineConfig { threads: 4, max_retries: 3, use_cmap: true, ..Default::default() };
        // OnNthHit(1): the first pass through the site faults, leaving
        // partial counts to roll back; every retry then succeeds.
        let _fp = failpoint::guard(&token, site, Trigger::OnNthHit(1), "mid-subtree transient");
        let r = mine_in(&token, &g, &plan, &cfg);
        assert_eq!(r.status, RunStatus::Complete, "site={site}");
        assert_eq!(r.counts, clean.counts, "site={site}");
        assert_eq!(r.faults.len(), 1, "site={site} faults: {:?}", r.faults);
        assert!(r.quarantined.is_empty(), "site={site}");
    }
}

/// Straggler surfacing smoke test: with the threshold floor at zero and a
/// ratio of 1, any task slower than the running median qualifies, so the
/// report is (usually) non-empty — but all we pin is its invariants, which
/// hold on any timing: sorted slowest-first, capped, elapsed above the
/// reported median, vids in range.
#[test]
fn straggler_report_respects_its_invariants() {
    let g = generators::powerlaw_cluster(400, 5, 0.5, 19);
    let plan = compile(&Pattern::cycle(4), CompileOptions::default());
    let cfg = EngineConfig {
        threads: 4,
        straggler_ratio: 1,
        straggler_min_task: Duration::ZERO,
        ..Default::default()
    };
    let r = mine(&g, &plan, &cfg);
    assert_eq!(r.status, RunStatus::Complete);
    assert!(r.stragglers.len() <= 32, "report is capped");
    for s in &r.stragglers {
        assert!((s.vid as usize) < g.num_vertices());
        assert!(s.elapsed >= s.median);
    }
    assert!(r.stragglers.windows(2).all(|w| w[0].elapsed >= w[1].elapsed));
    // Disabling the monitor suppresses the report (and all timestamping).
    let off = mine(&g, &plan, &EngineConfig { straggler_ratio: 0, ..cfg });
    assert!(off.stragglers.is_empty());
}
