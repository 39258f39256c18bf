//! `async-burst`: waves of 20k `submit_async` over 40 services on the
//! virtual clock — the asynchronous state-machine path at volume.
//!
//! Each wave is submitted at one pinned virtual instant, cycling the
//! request class through a seed-ordered permutation of the four classes,
//! and then every handle is waited on in submission order. Admission is
//! bounded (32 in flight per service, 512 queued) so every wave queues,
//! yet a correct run sheds nothing. Providers are clock-bound, so every
//! leaf is a timer on the event core and nothing blocks on the pool.
//! Slots close at wave boundaries only, so planning runs once per service
//! per wave.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qce_runtime::{
    Clock, Collector, ExecutionEngine, Gateway, GatewayConfig, InMemoryMarket, Market, MsSpec,
    Planner, Provider, QosClass, Request, RequestHandle, RuntimeError, ServiceResponse,
    ServiceScript, SimulatedProvider, Telemetry, VirtualClock, WallClock, WorkerGuard,
};
use qce_strategy::{Qos, Requirements};

use crate::trace::{TracedMarket, TracedProvider, Tracer};
use crate::workload::{
    check_accounting, check_drained, check_served, gateway_providers, nproc, Counters, Digest,
    Episode, Latencies, Meter, Rng, Tally,
};

const SERVICES: usize = 40;
const CAPABILITIES: usize = 6;
/// Microservices per service.
const ARMS: usize = 3;
/// Requests per wave (500 per service).
const WAVE: usize = 20_000;
const WAVES: usize = 2;
const MAX_IN_FLIGHT: usize = 32;
const ADMISSION_QUEUE: usize = 512;
/// Every this many traced responses, the engine walk is replayed.
const EXECUTE_EVERY: usize = 20;

/// The seed-derived inputs.
pub struct Inputs {
    /// Per capability: (latency ms, cost, RNG seed).
    providers: Vec<(u64, f64, u64)>,
    /// Per service: its capability indices.
    services: Vec<[usize; ARMS]>,
    /// The class cycle of every wave.
    classes: [QosClass; 4],
}

impl Inputs {
    pub fn generate(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let providers = (0..CAPABILITIES)
            .map(|_| {
                (
                    1 + rng.below(3) as u64,
                    1.0 + rng.below(3) as f64,
                    rng.next_u64(),
                )
            })
            .collect();
        let services = (0..SERVICES)
            .map(|_| {
                let mut caps: Vec<usize> = (0..CAPABILITIES).collect();
                rng.shuffle(&mut caps);
                [caps[0], caps[1], caps[2]]
            })
            .collect();
        let mut classes = QosClass::ALL;
        rng.shuffle(&mut classes);
        Inputs {
            providers,
            services,
            classes,
        }
    }
}

fn name(service: usize) -> String {
    format!("burst-{service:02}")
}

/// Two requirement shapes; both are met by every strategy over these
/// providers, even at the back of a wave's queue.
fn requirement(service: usize) -> Requirements {
    if service.is_multiple_of(2) {
        Requirements::new(20.0, 200.0, 0.9)
    } else {
        Requirements::new(15.0, 150.0, 0.95)
    }
    .expect("valid requirement")
}

fn script(inputs: &Inputs, service: usize) -> ServiceScript {
    let mut script = ServiceScript::new(
        name(service),
        inputs.services[service]
            .iter()
            .enumerate()
            .map(|(arm, &cap)| MsSpec {
                name: format!("m{arm}"),
                capability: format!("cap{cap}"),
                prior: Qos::new(inputs.providers[cap].1, 2.0, 0.9).expect("valid prior"),
            })
            .collect(),
        requirement(service),
    );
    script.slot_size = u32::MAX;
    script
}

/// One reliability-1.0 provider per capability, bound to `clock`; with
/// `latency` false, every provider answers at once (the replay replicas).
fn providers(inputs: &Inputs, clock: &Arc<dyn Clock>, latency: bool) -> Vec<Arc<dyn Provider>> {
    inputs
        .providers
        .iter()
        .enumerate()
        .map(|(cap, &(latency_ms, cost, seed))| {
            SimulatedProvider::builder(format!("dev{cap}"), format!("cap{cap}"))
                .latency(Duration::from_millis(if latency { latency_ms } else { 0 }))
                .reliability(1.0)
                .cost(cost)
                .seed(seed)
                .clock(Arc::clone(clock))
                .build() as Arc<dyn Provider>
        })
        .collect()
}

pub fn config() -> GatewayConfig {
    GatewayConfig::builder()
        .worker_pool(nproc())
        .event_loops(1)
        .generator_parallelism(1)
        .max_in_flight(MAX_IN_FLIGHT)
        .admission_queue(ADMISSION_QUEUE)
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
    planners: Vec<Planner>,
    scripts: Vec<ServiceScript>,
}

impl Replay {
    fn service_providers(&self, inputs: &Inputs, service: usize) -> Vec<Arc<dyn Provider>> {
        inputs.services[service]
            .iter()
            .map(|&cap| Arc::clone(&self.providers[cap]))
            .collect()
    }
}

pub fn episode(inputs: &Inputs, mut tracer: Option<&mut Tracer>) -> Episode {
    let config = config();
    let t0 = Instant::now();
    let clock = Arc::new(VirtualClock::new());
    let market = InMemoryMarket::new();
    for service in 0..SERVICES {
        market
            .publish(script(inputs, service))
            .expect("scripts validate");
    }
    let market: Box<dyn Market> = match tracer.as_deref() {
        Some(tracer) => Box::new(TracedMarket::wrap(Arc::new(market), &tracer.recorder)),
        None => Box::new(market),
    };
    let gateway = Arc::new(Gateway::with_clock(
        market,
        config,
        Arc::clone(&clock) as Arc<dyn Clock>,
    ));
    let table = providers(inputs, &(Arc::clone(&clock) as Arc<dyn Clock>), true);
    for (index, provider) in table.iter().enumerate() {
        let provider = match tracer.as_deref() {
            Some(tracer) => TracedProvider::wrap(Arc::clone(provider), index, &tracer.recorder),
            None => Arc::clone(provider),
        };
        gateway.registry().register(provider);
    }
    let names: Vec<String> = (0..SERVICES).map(name).collect();
    let mut violations = Vec::new();
    for service in &names {
        if let Err(error) = gateway.submit(Request::new(service.as_str())) {
            violations.push(format!("set-up request to {service} failed: {error}"));
        }
    }
    let setup = t0.elapsed();

    let replay = tracer.is_some().then(|| {
        let settings = config.synthesis_settings();
        let scripts: Vec<ServiceScript> = (0..SERVICES).map(|s| script(inputs, s)).collect();
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        Replay {
            collector: Collector::new(config.collector_window),
            telemetry: Telemetry::new(Arc::clone(&clock), config.telemetry_events),
            engine: ExecutionEngine::new(config.worker_pool),
            providers: providers(inputs, &clock, false),
            ids: table.iter().map(|p| p.id().to_string()).collect(),
            planners: scripts
                .iter()
                .map(|s| Planner::new(s, &settings).expect("scripts validate"))
                .collect(),
            scripts,
            clock,
        }
    });
    let requirements: Vec<Requirements> = (0..SERVICES).map(requirement).collect();
    let mut tally = Tally::default();
    let mut latencies = Latencies::with_capacity(WAVE * WAVES);
    let mut digest = Digest::default();
    let mut unsuccessful = 0u64;
    let mut cursor = 0usize;
    // Traced responses awaiting their replays.
    let mut responses: Vec<(usize, ServiceResponse)> = Vec::new();
    let meter = Meter::start(tracer.as_deref_mut());
    for wave in 0..WAVES {
        for service in &names {
            gateway.end_slot(service);
        }
        // The re-plan each service runs on its first request of this wave
        // sees the collector as it is now: replay it before the wave.
        let mut planned: Vec<Option<String>> = vec![None; SERVICES];
        if let (Some(tracer), Some(replay)) = (tracer.as_deref_mut(), replay.as_ref()) {
            for (service, slot) in planned.iter_mut().enumerate() {
                let script = &replay.scripts[service];
                let plan = tracer.replay_plan(
                    &replay.planners[service],
                    script,
                    &gateway_providers(&gateway, script),
                    gateway.collector(),
                    wave as u64 + 1,
                );
                *slot = Some(plan.strategy.to_string_with_names(&script.ms_names()));
            }
        }

        let mut handles: Vec<(usize, Instant, Result<RequestHandle, RuntimeError>)> =
            Vec::with_capacity(WAVE);
        {
            let _pin = WorkerGuard::enter(clock.as_ref());
            for _ in 0..WAVE / SERVICES {
                for (service, service_name) in names.iter().enumerate() {
                    let class = inputs.classes[cursor % inputs.classes.len()];
                    cursor += 1;
                    let request = Request::new(service_name.as_str()).class(class);
                    let sent = Instant::now();
                    let handle = match tracer.as_deref_mut() {
                        Some(tracer) => Tracer::client(&mut tracer.samples.submit_async, || {
                            gateway.submit_async(request)
                        }),
                        None => gateway.submit_async(request),
                    };
                    handles.push((service, sent, handle));
                }
            }
        }
        for (service, sent, handle) in handles {
            let result = handle.and_then(|handle| match tracer.as_deref_mut() {
                Some(tracer) => Tracer::client(&mut tracer.samples.wait, || handle.wait()),
                None => handle.wait(),
            });
            latencies.push(sent.elapsed());
            tally.attempted += 1;
            tally.record(&result, &requirements[service]);
            match &result {
                Ok(response) => {
                    digest.word(u64::from(response.success));
                    digest.word(response.latency.as_nanos() as u64);
                    digest.word(response.cost.to_bits());
                    if !response.success {
                        unsuccessful += 1;
                    }
                }
                Err(error) => {
                    if tally.errors <= 3 {
                        violations.push(format!("{}: {error}", names[service]));
                    }
                }
            }
            if let (Some(tracer), Ok(response)) = (tracer.as_deref_mut(), result) {
                if let Some(text) = planned[service].take() {
                    tracer.plan_agreement(text == response.strategy_text);
                }
                responses.push((service, response));
            }
        }
        // Losing Par legs finish after their request resolved; the next
        // wave's plans must see their observations.
        check_drained(&gateway, "gateway", &mut violations);
        // Replays run once the wave has drained, so they never compete
        // with the event loop for the cores.
        if let (Some(tracer), Some(replay)) = (tracer.as_deref_mut(), replay.as_ref()) {
            tracer.drain_leaves(&replay.collector, &replay.telemetry, &replay.ids);
            for (i, (service, response)) in responses.drain(..).enumerate() {
                tracer.replay_request(&replay.telemetry, &names[service], &response);
                if i % EXECUTE_EVERY == 0 {
                    tracer.replay_execute(
                        &replay.engine,
                        &replay.clock,
                        &response.strategy,
                        &replay.service_providers(inputs, service),
                        response.class,
                    );
                }
            }
        }
    }
    let measured = meter.stop(tracer.as_deref());
    if unsuccessful > 0 {
        violations.push(format!("{unsuccessful} request(s) did not succeed"));
    }
    if tally.errors > 0 {
        violations.push(format!("{} request(s) ended in an error", tally.errors));
    }

    let mut counters = Counters::default();
    counters.add_gateway(&gateway.telemetry().snapshot(), &gateway.pool_stats());
    if counters.shed > 0 {
        violations.push(format!("{} request(s) shed", counters.shed));
    }
    check_accounting(&tally, &mut violations);
    check_served(&counters, tally.served() + SERVICES as u64, &mut violations);
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
