//! Deterministic fault injection for the mining stack.
//!
//! Compiled only under `cfg(any(test, feature = "failpoints"))`, this is a
//! tiny registry of named sites in the executor hot path at which a test
//! can make the engine panic. Every degradation path of the job-control
//! layer (panic isolation, `RunStatus::Degraded`, exact partial counts) is
//! exercised through these sites instead of being trusted on faith.
//!
//! Sites currently instrumented (all carry the current *start vertex* as
//! their context, so a test can poison one specific search root):
//!
//! | site             | fires in                                           |
//! |------------------|----------------------------------------------------|
//! | `start_vertex`   | [`Executor::run_vertex`] entry                     |
//! | `frontier_alloc` | candidate-core materialization in `build_core`     |
//! | `cmap_insert`    | bulk c-map insertion on embedding push             |
//! | `csr_read`       | adjacency (CSR) reads feeding the merge pipeline   |
//!
//! (IO-level fault injection for graph loading lives next to the reader,
//! in `fm_graph::io`, behind the same feature name.)
//!
//! Sites are armed per *run scope*: the scope of the run's
//! [`CancelToken`]. The task loop marks the worker thread with its run's
//! scope while it runs tasks, and [`hit`] fires only when the armed scope
//! is the current one. A run that does not carry the token — a concurrent
//! unrelated `mine()`, a sequential reference executor — neither fires
//! the site nor advances its [`Trigger::OnNthHit`] counter, so tests that
//! arm sites run in parallel with everything else.
//!
//! ```
//! use fm_engine::failpoint::{self, Trigger};
//! use fm_engine::{mine_with, CancelToken, EngineConfig, MineOptions, RunStatus};
//! use fm_graph::generators;
//! use fm_pattern::Pattern;
//! use fm_plan::{compile, CompileOptions};
//!
//! let g = generators::complete(6);
//! let plan = compile(&Pattern::triangle(), CompileOptions::default());
//! let token = CancelToken::new();
//! let _fp = failpoint::guard(&token, "start_vertex", Trigger::OnContext(2), "boom");
//! let opts = MineOptions { cancel: Some(token), ..Default::default() };
//! let r = mine_with(&g, &plan, &EngineConfig::default(), &opts).unwrap();
//! assert_eq!(r.status, RunStatus::Degraded);
//! // A run in another scope does not see the armed site.
//! let clean = fm_engine::mine(&g, &plan, &EngineConfig::default());
//! assert_eq!(clean.status, RunStatus::Complete);
//! ```
//!
//! [`Executor::run_vertex`]: crate::executor::Executor::run_vertex

use crate::control::CancelToken;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// When an armed site actually fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trigger {
    /// Every hit.
    Always,
    /// Only hits whose context (the current start vertex id) equals this
    /// value — the deterministic "poison exactly vertex v" knob.
    OnContext(u64),
    /// The nth hit of the site within its scope (1-based), regardless of
    /// context.
    OnNthHit(u64),
}

struct Armed {
    trigger: Trigger,
    message: String,
    hits: u64,
}

type Registry = HashMap<(u64, &'static str), Armed>;

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Fast-path gate: `hit` is a single relaxed load while nothing is armed,
/// so instrumented builds pay nothing measurable when idle.
static ANY_ARMED: AtomicBool = AtomicBool::new(false);

/// A run's fault-injection scope: a process-unique id, drawn when its
/// [`CancelToken`] is created and shared by the token's clones.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Scope(u64);

impl Default for Scope {
    fn default() -> Self {
        // Scope 0 is "no run"; ids start at 1.
        static NEXT: AtomicU64 = AtomicU64::new(1);
        Scope(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Scope {
    pub(crate) fn id(self) -> u64 {
        self.0
    }
}

thread_local! {
    /// The run scope of the task this thread is executing; 0 outside any
    /// run (no armed site matches it).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// Arms `site` for runs carrying `token` to panic with `message` when
/// `trigger` matches.
///
/// Re-arming a site in the same scope replaces its previous configuration
/// and resets its hit counter.
pub fn arm(token: &CancelToken, site: &'static str, trigger: Trigger, message: &str) {
    let mut reg = registry().lock().expect("failpoint registry poisoned");
    reg.insert((token.scope(), site), Armed { trigger, message: message.to_string(), hits: 0 });
    ANY_ARMED.store(true, Ordering::Release);
}

/// Disarms `site` in `token`'s scope (no-op if not armed).
pub fn disarm(token: &CancelToken, site: &'static str) {
    let mut reg = registry().lock().expect("failpoint registry poisoned");
    reg.remove(&(token.scope(), site));
    if reg.is_empty() {
        ANY_ARMED.store(false, Ordering::Release);
    }
}

/// Arms `site` in `token`'s scope and returns a guard that disarms it when
/// dropped, keeping tests hermetic even on failure paths.
#[must_use]
pub fn guard(
    token: &CancelToken,
    site: &'static str,
    trigger: Trigger,
    message: &str,
) -> FailpointGuard {
    arm(token, site, trigger, message);
    FailpointGuard { token: token.clone(), site }
}

/// Disarms its site on drop. Created by [`guard`].
pub struct FailpointGuard {
    token: CancelToken,
    site: &'static str,
}

impl Drop for FailpointGuard {
    fn drop(&mut self) {
        disarm(&self.token, self.site);
    }
}

/// Marks the calling thread as running tasks of `token`'s run until the
/// returned guard drops (which restores the previous scope).
pub fn enter(token: &CancelToken) -> ScopeGuard {
    ScopeGuard { previous: CURRENT.with(|c| c.replace(token.scope())) }
}

/// Restores the thread's previous run scope on drop. Created by [`enter`].
pub struct ScopeGuard {
    previous: u64,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.previous));
    }
}

/// Reports a hit of `site` with context `ctx` (the current start vertex),
/// panicking if the site is armed in the thread's current scope and its
/// trigger matches.
///
/// # Panics
///
/// Panics with the armed message — that is the point.
#[inline]
pub fn hit(site: &'static str, ctx: u64) {
    if !ANY_ARMED.load(Ordering::Acquire) {
        return;
    }
    hit_slow(site, ctx);
}

#[cold]
fn hit_slow(site: &'static str, ctx: u64) {
    let scope = CURRENT.with(Cell::get);
    if scope == 0 {
        return;
    }
    let message = {
        let mut reg = registry().lock().expect("failpoint registry poisoned");
        let Some(armed) = reg.get_mut(&(scope, site)) else { return };
        armed.hits += 1;
        let fires = match armed.trigger {
            Trigger::Always => true,
            Trigger::OnContext(want) => ctx == want,
            Trigger::OnNthHit(n) => armed.hits == n,
        };
        if !fires {
            return;
        }
        armed.message.clone()
        // The lock is released before panicking so the registry is never
        // poisoned by an injected fault.
    };
    panic!("failpoint {site} (ctx {ctx}): {message}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn unarmed_sites_are_silent() {
        let token = CancelToken::new();
        let _s = enter(&token);
        hit("unit-silent", 0);
    }

    #[test]
    fn always_trigger_fires_and_guard_disarms() {
        let token = CancelToken::new();
        let _s = enter(&token);
        {
            let _g = guard(&token, "unit-always", Trigger::Always, "boom");
            let err = catch_unwind(AssertUnwindSafe(|| hit("unit-always", 7))).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("string payload");
            assert!(msg.contains("unit-always") && msg.contains("boom"), "{msg}");
        }
        hit("unit-always", 7); // disarmed by guard drop
    }

    #[test]
    fn context_trigger_is_selective() {
        let token = CancelToken::new();
        let _s = enter(&token);
        let _g = guard(&token, "unit-ctx", Trigger::OnContext(3), "ctx");
        hit("unit-ctx", 2);
        assert!(catch_unwind(AssertUnwindSafe(|| hit("unit-ctx", 3))).is_err());
    }

    #[test]
    fn nth_hit_trigger_counts() {
        let token = CancelToken::new();
        let _s = enter(&token);
        let _g = guard(&token, "unit-nth", Trigger::OnNthHit(3), "nth");
        hit("unit-nth", 0);
        hit("unit-nth", 0);
        assert!(catch_unwind(AssertUnwindSafe(|| hit("unit-nth", 0))).is_err());
        // Counter keeps advancing past n; only the exact nth hit fires.
        hit("unit-nth", 0);
    }

    #[test]
    fn armed_sites_are_invisible_outside_their_scope() {
        let token = CancelToken::new();
        let _g = guard(&token, "unit-scoped", Trigger::OnNthHit(1), "scoped");
        // No scope, then a different run's scope: neither fires nor
        // advances the hit counter.
        hit("unit-scoped", 0);
        {
            let other = CancelToken::new();
            let _s = enter(&other);
            hit("unit-scoped", 0);
        }
        // Clones share the scope; the first in-scope hit is hit 1.
        let _s = enter(&token.clone());
        assert!(catch_unwind(AssertUnwindSafe(|| hit("unit-scoped", 0))).is_err());
    }
}
