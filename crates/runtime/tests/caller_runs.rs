//! The caller-runs rule on the wall clock: the thread driving
//! `ExecutionEngine::execute` runs a request's last outstanding blocking
//! leaf itself instead of handing it to the worker pool.
//!
//! The providers are zero-latency `SimulatedProvider`s bound to their own
//! `WallClock` — a foreign clock, so every leaf takes the blocking path —
//! plus closure providers where a test needs to watch a leg start, stall,
//! or panic. `PoolStats::submitted` counts the legs that were handed out.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use qce_runtime::engine::{Budget, Completion, CompletionPolicy, ExecSpec, ExecutionEngine};
use qce_runtime::{
    Clock, EngineOutcome, FnProvider, Invocation, InvokeError, Provider, SimulatedProvider,
    WallClock,
};
use qce_strategy::Strategy;

/// A zero-latency blocking leaf on its own wall clock.
fn instant(id: &str, ok: bool) -> Arc<dyn Provider> {
    SimulatedProvider::builder(id, "cap")
        .latency(Duration::ZERO)
        .reliability(if ok { 1.0 } else { 0.0 })
        .response(id.as_bytes().to_vec())
        .cost(1.0)
        .clock(Arc::new(WallClock::new()))
        .build()
}

/// A closure leaf that logs `"<id>+"` when it starts and `"<id>-"` when it
/// returns, sleeping `stall` in between.
fn logged(
    id: &'static str,
    stall: Duration,
    ok: bool,
    log: &Arc<Mutex<Vec<String>>>,
) -> Arc<dyn Provider> {
    let log = Arc::clone(log);
    FnProvider::new(id, "cap", 1.0, move |_| {
        log.lock().push(format!("{id}+"));
        std::thread::sleep(stall);
        log.lock().push(format!("{id}-"));
        if ok {
            Ok(id.as_bytes().to_vec())
        } else {
            Err(InvokeError::ExecutionFailed {
                reason: "scripted failure".to_string(),
            })
        }
    })
}

fn execute(
    engine: &ExecutionEngine,
    strategy: &str,
    providers: Vec<Arc<dyn Provider>>,
) -> EngineOutcome {
    engine
        .execute(ExecSpec {
            strategy: Strategy::parse(strategy).unwrap(),
            providers,
            request: Invocation::new(1, "cap", vec![]),
            collector: None,
            telemetry: None,
            clock: Arc::new(WallClock::new()) as Arc<dyn Clock>,
            budget: Budget::unlimited(),
            policy: CompletionPolicy::FirstSuccess,
        })
        .unwrap()
}

fn first(outcome: &EngineOutcome) -> (bool, Option<Vec<u8>>) {
    match &outcome.completion {
        Completion::First { success, payload } => (*success, payload.clone()),
        Completion::Agreement { .. } => panic!("first-success run returned agreement"),
    }
}

/// Waits (bounded) for the pool's running count to drop to zero: a job
/// posts its completion just before it returns to the pool.
fn assert_pool_drains(engine: &ExecutionEngine) {
    for _ in 0..1000 {
        if engine.pool_stats().running == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("pool never drained: {:?}", engine.pool_stats());
}

#[test]
fn failover_chain_runs_entirely_on_the_driver() {
    let engine = ExecutionEngine::new(4);
    let outcome = execute(
        &engine,
        "a-b-c",
        vec![instant("a", false), instant("b", false), instant("c", true)],
    );
    assert_eq!(first(&outcome), (true, Some(b"c".to_vec())));
    assert_eq!(outcome.invocations.len(), 3);
    assert_eq!(engine.pool_stats().submitted, 0, "every leg ran inline");
}

#[test]
fn fan_out_hands_out_all_but_its_last_leg() {
    let engine = ExecutionEngine::new(4);
    let outcome = execute(
        &engine,
        "a*b*c",
        vec![instant("a", true), instant("b", true), instant("c", true)],
    );
    assert!(first(&outcome).0);
    assert_eq!(outcome.invocations.len(), 3);
    assert_eq!(outcome.cost, 3.0, "every started leg is charged");
    assert_eq!(engine.pool_stats().submitted, 2);
    assert_pool_drains(&engine);
}

#[test]
fn leg_beside_a_live_sibling_subtree_is_handed_out() {
    // `a` stalls on the pool while `b` fails and `c` follows it: `b` and
    // `c` each start with `a` still out, so neither runs inline — `c`
    // must not wait for `a` to return.
    let engine = ExecutionEngine::new(4);
    let log = Arc::new(Mutex::new(Vec::new()));
    let outcome = execute(
        &engine,
        "a*(b-c)",
        vec![
            logged("a", Duration::from_millis(300), false, &log),
            logged("b", Duration::ZERO, false, &log),
            logged("c", Duration::ZERO, true, &log),
        ],
    );
    assert_eq!(first(&outcome), (true, Some(b"c".to_vec())));
    let log = log.lock().clone();
    let at = |entry: &str| log.iter().position(|e| e == entry).unwrap();
    assert!(
        at("c+") < at("a-"),
        "c started only after a returned: {log:?}"
    );
    assert_eq!(engine.pool_stats().submitted, 3, "nothing ran inline");
}

#[test]
fn fast_pool_sibling_keeps_its_own_first_success_instant() {
    // `a` answers at once on the pool while the driver is busy inside the
    // slow inline `b`: the decision instant is when `a` returned, not when
    // the driver got round to its completion.
    let engine = ExecutionEngine::new(4);
    let log = Arc::new(Mutex::new(Vec::new()));
    let stall = Duration::from_millis(300);
    let outcome = execute(
        &engine,
        "a*b",
        vec![
            logged("a", Duration::ZERO, true, &log),
            logged("b", stall, false, &log),
        ],
    );
    assert_eq!(first(&outcome), (true, Some(b"a".to_vec())));
    assert_eq!(engine.pool_stats().submitted, 1, "b ran inline");
    assert!(
        outcome.latency < stall / 2,
        "first success inflated by the inline sibling: {:?}",
        outcome.latency
    );
    let a = outcome
        .invocations
        .iter()
        .find(|i| i.provider_id == "a")
        .unwrap();
    assert!(a.latency < stall / 2, "a's latency: {:?}", a.latency);
    let b = outcome
        .invocations
        .iter()
        .find(|i| i.provider_id == "b")
        .unwrap();
    assert!(b.latency >= stall, "b's latency: {:?}", b.latency);
}

#[test]
fn panicking_inline_leaf_propagates_and_leaves_the_pool_drained() {
    let engine = ExecutionEngine::new(4);
    let boom: Arc<dyn Provider> =
        FnProvider::new("boom", "cap", 1.0, |_| panic!("inline leg exploded"));
    for strategy in ["a-b", "a*b"] {
        let providers = vec![instant("a", false), Arc::clone(&boom)];
        let panic = catch_unwind(AssertUnwindSafe(|| execute(&engine, strategy, providers)))
            .expect_err("the provider panic must reach the caller");
        let message = panic
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or_default();
        assert!(
            message.contains("inline leg exploded"),
            "{strategy}: {message}"
        );
        assert_pool_drains(&engine);
    }
    // `a-b` ran both legs inline; `a*b` handed out only `a`.
    assert_eq!(engine.pool_stats().submitted, 1);

    // The engine is still serviceable afterwards.
    let outcome = execute(&engine, "a*b", vec![instant("a", true), instant("b", true)]);
    assert!(first(&outcome).0);
}
