//! Fault-injection chaos for the supervisor: transient executor faults
//! quarantine tasks, the supervisor re-queues them under capped backoff,
//! and the healed result is bit-identical to an unfaulted run. Compiled
//! only with `--features failpoints`. Each test arms its sites in the
//! scope of the cancellation token its jobs carry (`JobSpec::cancel`), so
//! no other run in the process sees them.
#![cfg(feature = "failpoints")]

use fm_engine::failpoint::{self, Trigger};
use fm_engine::{mine, mine_with, CancelToken, EngineConfig, MineOptions, RunStatus};
use fm_graph::generators;
use fm_jobs::{BackoffPolicy, JobOutcome, JobSpec, Supervisor, SupervisorConfig};
use fm_pattern::Pattern;
use fm_plan::{compile, CompileOptions};
use std::sync::Arc;
use std::time::Duration;

fn fast_backoff() -> BackoffPolicy {
    BackoffPolicy { base: Duration::from_millis(1), cap: Duration::from_millis(5) }
}

/// A transient fault (fires once, then never again) degrades the first
/// attempt; the supervisor's backoff retry re-runs the quarantined task
/// and the job heals to a result bit-identical with a clean run.
#[test]
fn transient_fault_heals_via_supervisor_backoff_retry() {
    let token = CancelToken::new();
    let g = Arc::new(generators::powerlaw_cluster(150, 4, 0.5, 29));
    let plan = Arc::new(compile(&Pattern::cycle(4), CompileOptions::default()));
    let cfg = EngineConfig { threads: 1, ..Default::default() };
    let reference = mine(&g, &plan, &cfg);
    assert_eq!(reference.status, RunStatus::Complete);

    let sup = Supervisor::new(SupervisorConfig {
        workers: 1,
        max_running: 1,
        stint_tasks: 8,
        max_attempts: 3,
        backoff: fast_backoff(),
        ..Default::default()
    });
    let _fp = failpoint::guard(&token, "start_vertex", Trigger::OnNthHit(3), "transient chaos");
    let spec = JobSpec { cancel: Some(token.clone()), ..JobSpec::new("healing", g, plan, cfg) };
    let handle = sup.submit(spec);
    let r = match handle.wait() {
        JobOutcome::Finished(r) => r,
        other => panic!("expected Finished, got {other:?}"),
    };
    assert_eq!(r.status, RunStatus::Complete, "retry must heal the degradation");
    assert_eq!(r.counts, reference.counts);
    assert_eq!(r.work, reference.work);
    // The failed attempt stays on the fault history.
    assert_eq!(r.faults.len(), 1);
    assert!(sup.stats().retries >= 1, "healing must go through the backoff path");
}

/// A persistent fault exhausts the attempt budget: the job resolves
/// `Finished` with `Degraded` status, the poisoned vertex quarantined,
/// and counts identical to an engine run under the same fault.
#[test]
fn persistent_fault_exhausts_attempts_and_resolves_degraded() {
    let token = CancelToken::new();
    let g = Arc::new(generators::powerlaw_cluster(150, 4, 0.5, 31));
    let plan = Arc::new(compile(&Pattern::cycle(4), CompileOptions::default()));
    let cfg = EngineConfig { threads: 1, ..Default::default() };
    let poisoned = 4u32;
    let _fp = failpoint::guard(
        &token,
        "start_vertex",
        Trigger::OnContext(poisoned as u64),
        "persistent chaos",
    );
    let opts = MineOptions { cancel: Some(token.clone()), ..Default::default() };
    let reference = mine_with(&g, &plan, &cfg, &opts).unwrap();
    assert_eq!(reference.status, RunStatus::Degraded);

    let sup = Supervisor::new(SupervisorConfig {
        workers: 1,
        max_running: 1,
        stint_tasks: 8,
        max_attempts: 2,
        backoff: fast_backoff(),
        ..Default::default()
    });
    let handle =
        sup.submit(JobSpec { cancel: Some(token.clone()), ..JobSpec::new("doomed", g, plan, cfg) });
    let r = match handle.wait() {
        JobOutcome::Finished(r) => r,
        other => panic!("expected Finished, got {other:?}"),
    };
    assert_eq!(r.status, RunStatus::Degraded);
    assert_eq!(r.quarantined.len(), 1);
    assert_eq!(r.quarantined[0].vid, poisoned);
    assert_eq!(r.counts, reference.counts);
    assert_eq!(r.work, reference.work);
    // Attempt 1 degraded, one retry, attempt 2 degraded, budget spent.
    assert_eq!(sup.stats().retries, 1);
    // Both failed attempts are on the fault roster.
    assert_eq!(r.faults.len(), 2);
}

/// Chaos matrix: concurrent jobs with and without injected faults, over
/// mixed engine configs — every job resolves exactly once and healed
/// jobs match their clean references.
#[test]
fn concurrent_faulty_and_clean_jobs_all_resolve_exactly_once() {
    let token = CancelToken::new();
    let plan = Arc::new(compile(&Pattern::cycle(4), CompileOptions::default()));
    let sup = Supervisor::new(SupervisorConfig {
        workers: 4,
        max_running: 4,
        stint_tasks: 5,
        max_attempts: 4,
        backoff: fast_backoff(),
        ..Default::default()
    });
    // Clean references: `mine` runs in its own scope, so it neither trips
    // nor consumes the trigger armed below for the supervisor's jobs.
    let cases: Vec<_> = [1usize, 2, 1, 2]
        .iter()
        .enumerate()
        .map(|(i, &threads)| {
            let cfg = EngineConfig { threads, use_cmap: i % 2 == 0, ..Default::default() };
            let g = Arc::new(generators::powerlaw_cluster(120 + i * 15, 4, 0.5, 40 + i as u64));
            let reference = mine(&g, &plan, &cfg);
            (g, cfg, reference, i)
        })
        .collect();
    // One transient fault somewhere in the interleaving: all four jobs
    // share one token, so whichever job's task eats it will quarantine,
    // retry, and heal.
    let _fp = failpoint::guard(&token, "start_vertex", Trigger::OnNthHit(17), "matrix chaos");
    let mut waits = Vec::new();
    for (g, cfg, reference, i) in cases {
        let spec = JobSpec::new(format!("chaos-{i}"), g, Arc::clone(&plan), cfg);
        let handle = sup.submit(JobSpec { cancel: Some(token.clone()), ..spec });
        waits.push((handle, reference, i));
    }
    for (handle, reference, i) in waits {
        let r = match handle.wait() {
            JobOutcome::Finished(r) => r,
            other => panic!("chaos-{i}: expected Finished, got {other:?}"),
        };
        assert_eq!(r.status, RunStatus::Complete, "chaos-{i} must heal");
        assert_eq!(r.counts, reference.counts, "chaos-{i}: counts diverged");
        assert_eq!(r.work, reference.work, "chaos-{i}: work diverged");
    }
    let s = sup.stats();
    assert_eq!(s.submitted, 4);
    assert_eq!(s.completed, 4);
}
