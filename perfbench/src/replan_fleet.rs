//! `replan-fleet`: a closed loop of blocking `GatewayFleet::submit` on the
//! virtual clock, where planning dominates.
//!
//! Eight shards share one plan store and front one market through
//! per-shard TTL caches. Forty services of five equivalent microservices
//! (four requirement shapes) re-plan every ten requests (`slot_size` 10).
//! The five providers are seeded, unreliable and clock-bound; their
//! reliabilities rotate every three waves through all five alignments in
//! a seed-chosen order, so the quantized environment cycles and plans go
//! cold → cached (locally or from another shard) → cold. A wave sends ten requests to every service, round-robin in a
//! seed-shuffled order.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qce_runtime::fleet::{FleetConfig, GatewayFleet};
use qce_runtime::{
    Clock, Collector, ExecutionEngine, GatewayConfig, InMemoryMarket, Market, MsSpec, Planner,
    Provider, Request, ServiceScript, SimulatedProvider, Telemetry, VirtualClock, WallClock,
};
use qce_strategy::{PlanCacheConfig, PlanCacheHub, Qos, Requirements};

use crate::trace::{TracedMarket, TracedProvider, Tracer};
use crate::workload::{
    check_accounting, check_drained, check_served, gateway_providers, nproc, Counters, Digest,
    Episode, Latencies, Meter, Rng, Tally,
};

const SERVICES: usize = 40;
/// Equivalent microservices per service, one per provider.
const ARMS: usize = 5;
const SHAPES: usize = 4;
const SHARDS: usize = 8;
const SLOT: u32 = 10;
const WAVES: usize = 30;
const ROTATE_EVERY: usize = 3;
const PLAN_QUANTUM: f64 = 0.05;
const SCRIPT_TTL: Duration = Duration::from_secs(5);
/// Every this many traced requests, the engine walk is replayed.
const EXECUTE_EVERY: usize = 4;

const RELIABILITIES: [f64; ARMS] = [0.97, 0.93, 0.9, 0.85, 0.8];
const LATENCIES_MS: [u64; ARMS] = [2, 3, 4, 6, 8];
const COSTS: [f64; ARMS] = [1.0, 2.0, 3.0, 4.0, 5.0];

/// The seed-derived inputs.
pub struct Inputs {
    /// Provider RNG seeds.
    seeds: [u64; ARMS],
    /// The drift schedule: rotation `r` shifts the reliabilities by
    /// `shifts[r % 5]`, so every cycle visits all five alignments, in a
    /// seed-chosen order.
    shifts: [usize; ARMS],
    /// The round-robin order of services within a wave.
    order: Vec<usize>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let seeds = [(); ARMS].map(|()| rng.next_u64());
        let mut shifts = [0, 1, 2, 3, 4];
        rng.shuffle(&mut shifts);
        let mut order: Vec<usize> = (0..SERVICES).collect();
        rng.shuffle(&mut order);
        Inputs {
            seeds,
            shifts,
            order,
        }
    }

    /// Provider `j`'s reliability during `wave`.
    fn reliability(&self, provider: usize, wave: usize) -> f64 {
        let shift = self.shifts[(wave / ROTATE_EVERY) % ARMS];
        RELIABILITIES[(provider + shift) % ARMS]
    }
}

fn name(service: usize) -> String {
    format!("replan-{service:02}")
}

/// Four requirement shapes: (cost, latency ms, reliability).
fn requirement(service: usize) -> Requirements {
    let (cost, latency, reliability) = match service % SHAPES {
        0 => (12.0, 20.0, 0.99),
        1 => (8.0, 15.0, 0.95),
        2 => (20.0, 12.0, 0.99),
        _ => (6.0, 30.0, 0.9),
    };
    Requirements::new(cost, latency, reliability).expect("valid requirement")
}

fn script(service: usize) -> ServiceScript {
    let mut script = ServiceScript::new(
        name(service),
        (0..ARMS)
            .map(|j| MsSpec {
                name: format!("m{j}"),
                capability: format!("cap{j}"),
                prior: Qos::new(COSTS[j], LATENCIES_MS[j] as f64, 0.9).expect("valid prior"),
            })
            .collect(),
        requirement(service),
    );
    script.slot_size = SLOT;
    script
}

/// The five providers, bound to `clock`; with `latency` false, every
/// provider answers at once (the replay replicas).
fn providers(
    inputs: &Inputs,
    clock: &Arc<dyn Clock>,
    latency: bool,
) -> Vec<Arc<SimulatedProvider>> {
    (0..ARMS)
        .map(|j| {
            SimulatedProvider::builder(format!("dev{j}"), format!("cap{j}"))
                .latency(Duration::from_millis(if latency {
                    LATENCIES_MS[j]
                } else {
                    0
                }))
                .reliability(inputs.reliability(j, 0))
                .cost(COSTS[j])
                .seed(inputs.seeds[j])
                .clock(Arc::clone(clock))
                .build()
        })
        .collect()
}

pub fn config() -> FleetConfig {
    FleetConfig::default()
        .shards(SHARDS)
        .script_ttl(SCRIPT_TTL)
        .gateway(
            GatewayConfig::builder()
                .worker_pool(nproc())
                .event_loops(1)
                .generator_parallelism(1)
                .plan_cache(true)
                .plan_quantize(PLAN_QUANTUM)
                .build(),
        )
}

/// Benchmark-owned replicas of the layers each shard owns internally.
struct Replay {
    collectors: BTreeMap<u32, Collector>,
    telemetry: BTreeMap<u32, Arc<Telemetry>>,
    engine: ExecutionEngine,
    clock: Arc<dyn Clock>,
    providers: Vec<Arc<SimulatedProvider>>,
    /// `providers` as the engine takes them.
    leaves: Vec<Arc<dyn Provider>>,
    ids: Vec<String>,
    /// One plan-store view per shard, as each gateway holds one.
    hub: PlanCacheHub,
    views: BTreeMap<u32, Arc<qce_strategy::PlanCache>>,
    planners: BTreeMap<usize, Planner>,
    scripts: Vec<ServiceScript>,
}

pub fn episode(inputs: &Inputs, mut tracer: Option<&mut Tracer>) -> Episode {
    let config = config();
    let t0 = Instant::now();
    let clock = Arc::new(VirtualClock::new());
    let market = InMemoryMarket::new();
    for service in 0..SERVICES {
        market.publish(script(service)).expect("scripts validate");
    }
    let market: Arc<dyn Market> = match tracer.as_deref() {
        Some(tracer) => Arc::new(TracedMarket::wrap(Arc::new(market), &tracer.recorder)),
        None => Arc::new(market),
    };
    let fleet = GatewayFleet::with_clock(market, config, Arc::clone(&clock) as Arc<dyn Clock>);
    let table = providers(inputs, &(Arc::clone(&clock) as Arc<dyn Clock>), true);
    for (index, provider) in table.iter().enumerate() {
        let provider: Arc<dyn Provider> = match tracer.as_deref() {
            Some(tracer) => TracedProvider::wrap(
                Arc::clone(provider) as Arc<dyn Provider>,
                index,
                &tracer.recorder,
            ),
            None => Arc::clone(provider) as Arc<dyn Provider>,
        };
        fleet.register(provider);
    }
    let names: Vec<String> = (0..SERVICES).map(name).collect();
    let mut violations = Vec::new();
    for service in &names {
        if let Err(error) = fleet.submit(Request::new(service.as_str())) {
            violations.push(format!("set-up request to {service} failed: {error}"));
        }
    }
    let setup = t0.elapsed();

    let mut replay = tracer.is_some().then(|| {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let window = config.gateway.collector_window;
        let events = config.gateway.telemetry_events;
        let replicas = providers(inputs, &clock, false);
        Replay {
            collectors: fleet
                .shard_ids()
                .into_iter()
                .map(|id| (id, Collector::new(window)))
                .collect(),
            telemetry: fleet
                .shard_ids()
                .into_iter()
                .map(|id| (id, Telemetry::new(Arc::clone(&clock), events)))
                .collect(),
            engine: ExecutionEngine::new(config.gateway.worker_pool),
            leaves: replicas
                .iter()
                .map(|p| Arc::clone(p) as Arc<dyn Provider>)
                .collect(),
            providers: replicas,
            ids: table.iter().map(|p| p.id().to_string()).collect(),
            hub: PlanCacheHub::new(PlanCacheConfig {
                capacity: config.plan_capacity,
                quantum: config.gateway.plan_quantize,
            }),
            views: BTreeMap::new(),
            planners: BTreeMap::new(),
            scripts: (0..SERVICES).map(script).collect(),
            clock,
        }
    });
    let settings = config.gateway.synthesis_settings();
    let requirements: Vec<Requirements> = (0..SERVICES).map(requirement).collect();
    // Requests each service has received, the set-up request included.
    let mut sent_to = [1u32; SERVICES];
    let mut tally = Tally::default();
    let mut latencies = Latencies::with_capacity(WAVES * SERVICES * SLOT as usize);
    let mut digest = Digest::default();
    let mut count = 0usize;
    let meter = Meter::start(tracer.as_deref_mut());
    for wave in 0..WAVES {
        if wave > 0 && wave % ROTATE_EVERY == 0 {
            for (j, provider) in table.iter().enumerate() {
                provider.set_reliability(inputs.reliability(j, wave));
            }
            if let Some(replay) = replay.as_ref() {
                for (j, provider) in replay.providers.iter().enumerate() {
                    provider.set_reliability(inputs.reliability(j, wave));
                }
            }
        }
        for _ in 0..SLOT {
            for &service in &inputs.order {
                let service_name = names[service].as_str();
                let mut planned = None;
                let mut shard = None;
                if let (Some(tracer), Some(replay)) = (tracer.as_deref_mut(), replay.as_mut()) {
                    let id =
                        Tracer::client(&mut tracer.samples.route, || fleet.route(service_name))
                            .expect("the fleet has shards");
                    shard = Some(id);
                    // This request crosses a slot boundary: replay the
                    // re-plan against the shard's collector as it is now.
                    if sent_to[service].is_multiple_of(SLOT) {
                        let gateway = fleet
                            .shard(id)
                            .expect("routed shard exists")
                            .gateway()
                            .clone();
                        let view = replay
                            .views
                            .entry(id)
                            .or_insert_with(|| replay.hub.view())
                            .clone();
                        let script = &replay.scripts[service];
                        let planner = replay.planners.entry(service).or_insert_with(|| {
                            Planner::with_cache(script, &settings, view).expect("scripts validate")
                        });
                        let plan = tracer.replay_plan(
                            planner,
                            script,
                            &gateway_providers(&gateway, script),
                            gateway.collector(),
                            u64::from(sent_to[service] / SLOT),
                        );
                        planned = Some(plan.strategy.to_string_with_names(&script.ms_names()));
                    }
                }
                let request = Request::new(service_name);
                let sent = Instant::now();
                let result = match tracer.as_deref_mut() {
                    Some(tracer) => {
                        Tracer::client(&mut tracer.samples.submit, || fleet.submit(request))
                    }
                    None => fleet.submit(request),
                };
                latencies.push(sent.elapsed());
                sent_to[service] += 1;
                tally.attempted += 1;
                tally.record(&result, &requirements[service]);
                match &result {
                    Ok(response) => {
                        digest.word(u64::from(response.success));
                        digest.word(response.latency.as_nanos() as u64);
                        digest.word(response.cost.to_bits());
                    }
                    Err(error) => {
                        if tally.errors <= 3 {
                            violations.push(format!("{service_name}: {error}"));
                        }
                    }
                }
                if let (Some(tracer), Some(replay), Ok(response), Some(id)) =
                    (tracer.as_deref_mut(), replay.as_ref(), &result, shard)
                {
                    if let Some(text) = planned {
                        tracer.plan_agreement(text == response.strategy_text);
                    }
                    tracer.drain_leaves(
                        &replay.collectors[&id],
                        &replay.telemetry[&id],
                        &replay.ids,
                    );
                    tracer.replay_request(&replay.telemetry[&id], service_name, response);
                    if count.is_multiple_of(EXECUTE_EVERY) {
                        tracer.replay_execute(
                            &replay.engine,
                            &replay.clock,
                            &response.strategy,
                            &replay.leaves,
                            response.class,
                        );
                    }
                }
                count += 1;
            }
        }
    }
    let measured = meter.stop(tracer.as_deref());
    if tally.errors > 0 {
        violations.push(format!("{} request(s) ended in an error", tally.errors));
    }

    let mut counters = Counters::default();
    for shard in fleet.shards() {
        let gateway = shard.gateway();
        check_drained(gateway, &format!("shard {}", shard.id()), &mut violations);
        counters.add_gateway(&gateway.telemetry().snapshot(), &gateway.pool_stats());
    }
    let plans = fleet.stats().plan_cache;
    counters.plan_lookups = plans.hits + plans.misses;
    counters.plan_remote_hits = plans.remote_hits;
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
