//! `hot-submit`: a closed loop of blocking `Gateway::submit` on the wall
//! clock — the pure per-request framework cost.
//!
//! Two services alternate: `par3`, pinned to `a*b*c`, and `seq3`, pinned
//! to `a-b-c` with leaf `a` at reliability 0 so every request falls
//! through to `b`. Providers have zero latency and their own clocks, so
//! every leaf leaves the timed fast path and runs on the engine's worker
//! pool. `slot_size` is `u32::MAX`: the market fetch and the slot-0 plan
//! happen in set-up only.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qce_runtime::{
    Clock, Collector, ExecutionEngine, Gateway, GatewayConfig, InMemoryMarket, Market, MsSpec,
    Provider, QosClass, Request, ServiceScript, SimulatedProvider, Telemetry, WallClock,
};
use qce_strategy::{Qos, Requirements};

use crate::trace::{TracedMarket, TracedProvider, Tracer};
use crate::workload::{
    check_accounting, check_drained, check_served, nproc, Counters, Digest, Episode, Latencies,
    Meter, Rng, Tally,
};

/// Requests per episode.
const REQUESTS: usize = 5_000;
/// Every this many traced rounds (one request per service), the engine
/// walk of the round's requests is replayed.
const EXECUTE_EVERY: usize = 4;
const LEAVES: [&str; 3] = ["a", "b", "c"];

/// One pinned service.
struct Service {
    name: &'static str,
    strategy: &'static str,
    /// Capability prefix; each service has its own three providers.
    prefix: &'static str,
    /// The payload a correct response carries: one of these leaves'.
    expected: &'static [&'static str],
}

const SERVICES: [Service; 2] = [
    Service {
        name: "par3",
        strategy: "a*b*c",
        prefix: "p",
        expected: &["p-a", "p-b", "p-c"],
    },
    Service {
        name: "seq3",
        strategy: "a-b-c",
        prefix: "s",
        expected: &["s-b"],
    },
];

/// The seed-derived inputs.
pub struct Inputs {
    /// Provider RNG seeds, in provider-table order.
    provider_seeds: Vec<u64>,
    /// Which service the alternation starts with.
    first: usize,
}

impl Inputs {
    pub fn generate(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        Inputs {
            provider_seeds: (0..SERVICES.len() * LEAVES.len())
                .map(|_| rng.next_u64())
                .collect(),
            first: rng.below(SERVICES.len()),
        }
    }
}

fn requirement() -> Requirements {
    Requirements::new(100.0, 1000.0, 0.5).expect("valid requirement")
}

fn script(service: &Service) -> ServiceScript {
    let mut script = ServiceScript::new(
        service.name,
        LEAVES
            .iter()
            .map(|leaf| MsSpec {
                name: (*leaf).to_string(),
                capability: format!("{}-{leaf}", service.prefix),
                prior: Qos::new(1.0, 1.0, 0.9).expect("valid prior"),
            })
            .collect(),
        requirement(),
    );
    script.default_strategy = Some(service.strategy.to_string());
    script.slot_size = u32::MAX;
    script
}

/// The provider table: three zero-latency providers per service, `seq3`'s
/// leaf `a` never succeeding. Each answers with its own capability name.
fn providers(inputs: &Inputs) -> Vec<Arc<dyn Provider>> {
    let mut table: Vec<Arc<dyn Provider>> = Vec::new();
    for service in &SERVICES {
        for leaf in LEAVES {
            let capability = format!("{}-{leaf}", service.prefix);
            let reliability = if service.prefix == "s" && leaf == "a" {
                0.0
            } else {
                1.0
            };
            table.push(
                SimulatedProvider::builder(format!("dev/{capability}"), capability.clone())
                    .latency(Duration::ZERO)
                    .reliability(reliability)
                    .cost(1.0)
                    .seed(inputs.provider_seeds[table.len()])
                    .response(capability.into_bytes())
                    .build(),
            );
        }
    }
    table
}

pub fn config() -> GatewayConfig {
    GatewayConfig::builder()
        .worker_pool(nproc())
        .event_loops(1)
        .generator_parallelism(1)
        .build()
}

/// Benchmark-owned replicas of the layers the gateway owns internally.
struct Replay {
    collector: Collector,
    telemetry: Arc<Telemetry>,
    engine: ExecutionEngine,
    clock: Arc<dyn Clock>,
    providers: Vec<Arc<dyn Provider>>,
    ids: Vec<String>,
}

pub fn episode(inputs: &Inputs, mut tracer: Option<&mut Tracer>) -> Episode {
    let config = config();
    let t0 = Instant::now();
    let market = InMemoryMarket::new();
    for service in &SERVICES {
        market.publish(script(service)).expect("scripts validate");
    }
    let market: Box<dyn Market> = match tracer.as_deref() {
        Some(tracer) => Box::new(TracedMarket::wrap(Arc::new(market), &tracer.recorder)),
        None => Box::new(market),
    };
    let gateway = Gateway::new(market, config);
    for (index, provider) in providers(inputs).into_iter().enumerate() {
        let provider = match tracer.as_deref() {
            Some(tracer) => TracedProvider::wrap(provider, index, &tracer.recorder),
            None => provider,
        };
        gateway.registry().register(provider);
    }
    let mut violations = Vec::new();
    for service in &SERVICES {
        if let Err(error) = gateway.submit(Request::new(service.name)) {
            violations.push(format!(
                "set-up request to {} failed: {error}",
                service.name
            ));
        }
    }
    let setup = t0.elapsed();

    let replay = tracer.is_some().then(|| {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let providers = providers(inputs);
        Replay {
            collector: Collector::new(config.collector_window),
            telemetry: Telemetry::new(Arc::clone(&clock), config.telemetry_events),
            engine: ExecutionEngine::new(config.worker_pool),
            ids: providers.iter().map(|p| p.id().to_string()).collect(),
            clock,
            providers,
        }
    });
    let requirement = requirement();
    let mut tally = Tally::default();
    let mut latencies = Latencies::with_capacity(REQUESTS);
    let mut digest = Digest::default();
    let mut wrong = 0u64;
    let meter = Meter::start(tracer.as_deref_mut());
    for i in 0..REQUESTS {
        let index = (inputs.first + i) % SERVICES.len();
        let service = &SERVICES[index];
        let request = Request::new(service.name);
        let sent = Instant::now();
        let result = match tracer.as_deref_mut() {
            Some(tracer) => Tracer::client(&mut tracer.samples.submit, || gateway.submit(request)),
            None => gateway.submit(request),
        };
        latencies.push(sent.elapsed());
        tally.attempted += 1;
        tally.record(&result, &requirement);
        digest.word(index as u64);
        match &result {
            Ok(response) => {
                digest.word(u64::from(response.success));
                digest.word(response.cost.to_bits());
                let payload = response.payload.as_deref().unwrap_or_default();
                let right = response.success
                    && response.strategy_text == service.strategy
                    && service.expected.iter().any(|e| e.as_bytes() == payload);
                if !right {
                    wrong += 1;
                    if wrong <= 3 {
                        violations.push(format!(
                            "{}: success {} strategy {:?} payload {:?}",
                            service.name,
                            response.success,
                            response.strategy_text,
                            String::from_utf8_lossy(payload)
                        ));
                    }
                }
            }
            Err(error) => violations.push(format!("{}: {error}", service.name)),
        }
        if let (Some(tracer), Some(replay), Ok(response)) =
            (tracer.as_deref_mut(), replay.as_ref(), &result)
        {
            tracer.drain_leaves(&replay.collector, &replay.telemetry, &replay.ids);
            tracer.replay_request(&replay.telemetry, service.name, response);
            if (i / SERVICES.len()).is_multiple_of(EXECUTE_EVERY) {
                let leaves = &replay.providers[index * LEAVES.len()..][..LEAVES.len()];
                tracer.replay_execute(
                    &replay.engine,
                    &replay.clock,
                    &response.strategy,
                    leaves,
                    QosClass::default(),
                );
            }
        }
    }
    let measured = meter.stop(tracer.as_deref());
    if wrong > 0 {
        violations.push(format!("{wrong} response(s) with a wrong outcome"));
    }

    check_drained(&gateway, "gateway", &mut violations);
    let mut counters = Counters::default();
    counters.add_gateway(&gateway.telemetry().snapshot(), &gateway.pool_stats());
    check_accounting(&tally, &mut violations);
    let warmups = SERVICES.len() as u64;
    check_served(&counters, tally.served() + warmups, &mut violations);
    let (latency_p50_ns, latency_p95_ns, latency_samples) = latencies.summary();
    Episode {
        setup,
        tally,
        work: measured.work,
        cpu: measured.cpu,
        allocs: measured.allocs,
        latency_p50_ns,
        latency_p95_ns,
        latency_samples,
        counters,
        digest: digest.finish(),
        violations,
    }
}
