//! Integration tests for the asynchronous submission path
//! ([`Gateway::submit_async`]): panic isolation of the event loops and
//! shutdown behaviour when the gateway drops with work in flight.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use qce_runtime::{
    Clock, FnProvider, Gateway, GatewayConfig, InMemoryMarket, Market, MsSpec, Request,
    RuntimeError, ServiceScript, SimulatedProvider, VirtualClock,
};
use qce_strategy::{Qos, Requirements};

/// Blocks providers until the test releases them, counting entries.
struct Gate {
    state: Mutex<(bool, u32)>,
    cond: Condvar,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Gate {
            state: Mutex::new((false, 0)),
            cond: Condvar::new(),
        })
    }

    fn enter(&self) {
        let mut state = self.state.lock().unwrap();
        state.1 += 1;
        self.cond.notify_all();
        while !state.0 {
            state = self.cond.wait(state).unwrap();
        }
    }

    fn await_entered(&self, n: u32) {
        let mut state = self.state.lock().unwrap();
        while state.1 < n {
            state = self.cond.wait(state).unwrap();
        }
    }

    fn open(&self) {
        let mut state = self.state.lock().unwrap();
        state.0 = true;
        self.cond.notify_all();
    }
}

fn script(service: &str, arms: usize) -> ServiceScript {
    ServiceScript::new(
        service,
        (0..arms)
            .map(|i| MsSpec {
                name: format!("m{i}"),
                capability: format!("{service}-cap{i}"),
                prior: Qos::new(50.0, 2.0 + i as f64, 0.9).unwrap(),
            })
            .collect(),
        Requirements::new(1000.0, 1000.0, 0.5).unwrap(),
    )
}

fn market_with(scripts: Vec<ServiceScript>) -> Box<dyn Market> {
    let market = InMemoryMarket::new();
    for script in scripts {
        market.publish(script).unwrap();
    }
    Box::new(market)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A provider panicking inside one arm of the first slot's parallel
    /// default must resume its panic on the thread that collects the
    /// handle — never on the event loop. The loop stays healthy: a
    /// sibling request already in flight and a request submitted *after*
    /// the panic both complete normally.
    #[test]
    fn panicking_par_arm_resumes_on_the_collector_not_the_event_loop(
        arms in 2usize..4,
        bad_seed in any::<u64>(),
    ) {
        let bad = (bad_seed as usize) % arms;
        let clock = Arc::new(VirtualClock::new());
        let gateway = Arc::new(Gateway::with_clock(
            market_with(vec![script("svc", arms), script("ok", 1)]),
            GatewayConfig::default(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        ));
        for i in 0..arms {
            if i == bad {
                // No clock binding: the panicking arm takes the blocking
                // path through the worker pool.
                gateway.registry().register(FnProvider::new(
                    format!("dev{i}"),
                    format!("svc-cap{i}"),
                    10.0,
                    |_| panic!("boom: provider exploded"),
                ));
            } else {
                gateway.registry().register(
                    SimulatedProvider::builder(format!("dev{i}"), format!("svc-cap{i}"))
                        .cost(10.0)
                        .latency(Duration::from_millis(1 + i as u64))
                        .reliability(1.0)
                        .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                        .build(),
                );
            }
        }
        gateway.registry().register(
            SimulatedProvider::builder("dev-ok", "ok-cap0")
                .cost(10.0)
                .latency(Duration::from_millis(1))
                .reliability(1.0)
                .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .build(),
        );

        let sibling = gateway.submit_async(Request::new("ok")).unwrap();
        let doomed = gateway.submit_async(Request::new("svc")).unwrap();
        let panic = catch_unwind(AssertUnwindSafe(|| doomed.wait()))
            .expect_err("the provider panic must resume on the collector");
        let message = panic
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        prop_assert!(message.contains("boom"), "unexpected payload: {message}");

        // The sibling in flight during the panic and a fresh request after
        // it both resolve: the event loop was not poisoned.
        prop_assert!(sibling.wait().unwrap().success);
        let after = gateway.submit_async(Request::new("ok")).unwrap();
        prop_assert!(after.wait().unwrap().success);
    }
}

/// Bugfix regression: dropping the gateway while a blocking leaf is still
/// running on the worker pool used to panic the leaf's pool task
/// (`expect("engine outlives its walk")`). The race must resolve cleanly
/// whichever side wins: the handle resolves (success or `Shutdown`), the
/// drop completes, nothing panics or hangs.
#[test]
fn gateway_drop_races_a_blocking_leaf_without_panicking() {
    for _ in 0..25 {
        let clock = Arc::new(VirtualClock::new());
        let gateway = Arc::new(Gateway::with_clock(
            market_with(vec![script("svc", 1)]),
            GatewayConfig::default(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        ));
        let gate = Gate::new();
        let provider_gate = Arc::clone(&gate);
        gateway
            .registry()
            .register(FnProvider::new("dev0", "svc-cap0", 10.0, move |_| {
                provider_gate.enter();
                Ok(vec![1])
            }));
        let handle = gateway.submit_async(Request::new("svc")).unwrap();
        gate.await_entered(1);
        // The dropper blocks joining the pool until the gate opens, so the
        // leaf is guaranteed to still be running when shutdown begins.
        let dropper = std::thread::spawn(move || drop(gateway));
        gate.open();
        dropper.join().expect("gateway drop must not panic");
        match handle.wait() {
            Ok(response) => assert!(response.success),
            Err(RuntimeError::Shutdown) => {}
            Err(other) => panic!("unexpected error from a shutdown race: {other:?}"),
        }
    }
}

/// Bugfix audit (handle-leak sweep): a `RequestHandle` dropped without
/// `wait()` must not leak engine state. The handle is detached from the
/// request — the event core still drives the request to completion and
/// must then release its frames and clock registrations even though
/// nobody collects the response. 10³ dropped handles later, the core
/// drains to zero and a fresh request still completes.
#[test]
fn dropped_handles_do_not_leak_frames_or_clock_slots() {
    use qce_runtime::WorkerGuard;

    let clock = Arc::new(VirtualClock::new());
    let gateway = Arc::new(Gateway::with_clock(
        market_with(vec![script("svc", 1)]),
        GatewayConfig::default(),
        Arc::clone(&clock) as Arc<dyn Clock>,
    ));
    gateway.registry().register(
        SimulatedProvider::builder("dev0", "svc-cap0")
            .cost(10.0)
            .latency(Duration::from_millis(1))
            .reliability(1.0)
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .build(),
    );

    // Pin virtual time during submission so every request is admitted at
    // t = 0 with the same 1 ms completion deadline; timers then fire in
    // submission order, so the last handle is a drain barrier for all the
    // dropped ones.
    let last = {
        let _pin = WorkerGuard::enter(&*clock);
        for _ in 0..1_000 {
            drop(gateway.submit_async(Request::new("svc")).unwrap());
        }
        gateway.submit_async(Request::new("svc")).unwrap()
    };
    let response = last.wait().unwrap();
    assert!(response.success);

    // Resolving the barrier handle may race the core's cleanup of that
    // final request by a beat; everything *dropped* must already be gone.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = gateway.engine_stats();
        if stats.in_flight == 0 && stats.frames_live == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "engine did not drain after dropped handles: {stats:?}"
        );
        std::thread::yield_now();
    }

    // The loops are still healthy: a request submitted after the flood
    // resolves normally.
    let after = gateway.submit_async(Request::new("svc")).unwrap();
    assert!(after.wait().unwrap().success);
    let stats = gateway.engine_stats();
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.frames_live, 0);
}

/// Runs `body` on its own thread and fails if it does not finish in time,
/// so a hang (a lost wake-up, a stuck drop) fails the test instead of
/// stalling the suite.
fn within_watchdog(body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(()) => runner.join().unwrap(),
        // The body panicked: re-raise its panic here.
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().unwrap_err())
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("the gateway hung: a request or the drop never finished")
        }
    }
}

/// Bugfix regression and multi-loop coverage: with `event_loops` ≥ 2 the
/// loops share one wake signal, and shutdown arms it once. The first loop
/// to idle used to disarm it before seeing the shutdown flag, leaving a
/// peer parked forever and `Gateway::drop` blocked joining it. Concurrent
/// async submitters drive many short-lived gateways at 2 and 4 loops;
/// every handle must resolve, the accounting must balance at quiescence,
/// and every drop must finish.
#[test]
fn multi_loop_gateways_resolve_balance_and_drop() {
    const SUBMITTERS: usize = 4;
    const PER_SUBMITTER: usize = 10;
    const SERVICES: [&str; 2] = ["a", "b"];

    within_watchdog(|| {
        for loops in [2, 4] {
            for _ in 0..50 {
                let clock = Arc::new(VirtualClock::new());
                let config = GatewayConfig::builder()
                    .event_loops(loops)
                    .max_in_flight(4)
                    .admission_queue(SUBMITTERS * PER_SUBMITTER)
                    .build();
                let gateway = Arc::new(Gateway::with_clock(
                    market_with(SERVICES.iter().map(|s| script(s, 2)).collect()),
                    config,
                    Arc::clone(&clock) as Arc<dyn Clock>,
                ));
                for service in SERVICES {
                    for arm in 0..2u64 {
                        gateway.registry().register(
                            SimulatedProvider::builder(
                                format!("{service}-dev{arm}"),
                                format!("{service}-cap{arm}"),
                            )
                            .cost(10.0)
                            .latency(Duration::from_millis(1 + arm))
                            .reliability(1.0)
                            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                            .build(),
                        );
                    }
                }

                let responses: Vec<_> = std::thread::scope(|scope| {
                    let submitters: Vec<_> = (0..SUBMITTERS)
                        .map(|s| {
                            let gateway = Arc::clone(&gateway);
                            scope.spawn(move || {
                                let handles: Vec<_> = (0..PER_SUBMITTER)
                                    .map(|i| {
                                        let service = SERVICES[(s + i) % SERVICES.len()];
                                        gateway.submit_async(Request::new(service)).unwrap()
                                    })
                                    .collect();
                                handles
                                    .into_iter()
                                    .map(|handle| handle.wait().unwrap())
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    submitters
                        .into_iter()
                        .flat_map(|s| s.join().unwrap())
                        .collect()
                });
                assert_eq!(responses.len(), SUBMITTERS * PER_SUBMITTER);
                assert!(responses.iter().all(|r| r.success));

                let snapshot = gateway.telemetry().snapshot();
                let mut completed = 0;
                for service in SERVICES {
                    let svc = snapshot.service(service).unwrap();
                    assert_eq!(svc.requests_shed, 0);
                    assert_eq!(svc.deadline_exceeded, 0);
                    assert_eq!(svc.admission_queue_depth, 0, "{service} queue drained");
                    let class_requests: u64 = svc.classes.iter().map(|c| c.requests).sum();
                    assert_eq!(class_requests, svc.latency_ms.count, "class rows sum");
                    for class in &svc.classes {
                        assert_eq!(class.queue_depth, 0, "{service}/{} drained", class.class);
                    }
                    completed += svc.latency_ms.count;
                }
                assert_eq!(completed, (SUBMITTERS * PER_SUBMITTER) as u64);

                // A resolved handle may beat the core's cleanup of its
                // request by a beat; the core must still drain to zero.
                let deadline = std::time::Instant::now() + Duration::from_secs(10);
                loop {
                    let stats = gateway.engine_stats();
                    if stats.in_flight == 0 && stats.frames_live == 0 {
                        break;
                    }
                    assert!(
                        std::time::Instant::now() < deadline,
                        "engine did not drain: {stats:?}"
                    );
                    std::thread::yield_now();
                }
                drop(gateway);
            }
        }
    });
}
