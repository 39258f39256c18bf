//! What every workload shares: seeded input generation, the measured
//! episode, outcome accounting, and the correctness checks.
//!
//! A run is a sequence of *episodes*. Each episode builds a fresh rig (its
//! set-up is timed on its own), drives a fixed, seed-determined request
//! sequence through it while measuring, checks the outputs, and tears the
//! rig down. Each episode draws its inputs from the run's seed and its own
//! index. Its outcome digest covers only what those inputs determine
//! (latencies only on the virtual clock), so the traced and untraced runs
//! of an episode must end with the same digest.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use qce_runtime::{
    EngineStats, Gateway, MetricsSnapshot, PoolStats, Provider, RuntimeError, ServiceResponse,
    ServiceScript,
};
use qce_strategy::Requirements;

use crate::alloc::allocations;
use crate::procfs::process_cpu;
use crate::stats::percentile_of;
use crate::trace::Tracer;

/// SplitMix64: the benchmark's only source of input randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The input seed of episode `episode` of a run with seed `seed`.
pub fn episode_seed(seed: u64, episode: usize) -> u64 {
    Rng::new(seed ^ (episode as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Program thread knobs sized to the machine: one pool thread per core.
/// The count is taken once, on the first call, so that it stays the
/// machine's after the process pins itself to one CPU.
pub fn nproc() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(2, |n| n.get()))
}

/// Outcome accounting of attempted requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    /// Succeeded within the service's latency and cost requirement.
    pub satisfied: u64,
    /// Served, but failed or missed the requirement.
    pub qos_failed: u64,
    /// Ended in a `RuntimeError` (shed, deadline, plan failure, ...).
    pub errors: u64,
}

impl Tally {
    pub fn served(&self) -> u64 {
        self.satisfied + self.qos_failed
    }

    /// Classifies one resolved request against `requirement`.
    pub fn record(
        &mut self,
        result: &Result<ServiceResponse, RuntimeError>,
        requirement: &Requirements,
    ) {
        match result {
            Ok(response) if satisfies(response, requirement) => self.satisfied += 1,
            Ok(_) => self.qos_failed += 1,
            Err(_) => self.errors += 1,
        }
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.satisfied += other.satisfied;
        self.qos_failed += other.qos_failed;
        self.errors += other.errors;
    }
}

/// Succeeded within the latency and cost requirement, on the gateway clock.
pub fn satisfies(response: &ServiceResponse, requirement: &Requirements) -> bool {
    response.success
        && response.latency.as_secs_f64() * 1e3 <= requirement.latency
        && response.cost <= requirement.cost
}

/// Gateway-side counters summed over every gateway of a rig.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub invocations: u64,
    pub replans: u64,
    pub plans_searched: u64,
    pub plans_cached: u64,
    pub candidates_seen: u64,
    pub events_emitted: u64,
    pub queue_peak: u64,
    pub shed: u64,
    pub pool_submitted: u64,
    pub pool_spilled: u64,
    pub plan_lookups: u64,
    pub plan_remote_hits: u64,
}

impl Counters {
    /// Adds one gateway's telemetry snapshot and pool counters.
    pub fn add_gateway(&mut self, snapshot: &MetricsSnapshot, pool: &PoolStats) {
        for service in &snapshot.services {
            self.invocations += service.invocations;
            self.replans += service.replans;
            self.plans_searched += service.plans_cold + service.plans_warm_start;
            self.plans_cached += service.plans_cached;
            self.candidates_seen += service.candidates_seen;
            self.queue_peak = self.queue_peak.max(service.admission_queue_peak);
            self.shed += service.requests_shed;
        }
        self.events_emitted += snapshot.events.emitted;
        self.pool_submitted += pool.submitted;
        self.pool_spilled += pool.spilled;
    }

    pub fn add(&mut self, other: &Counters) {
        self.invocations += other.invocations;
        self.replans += other.replans;
        self.plans_searched += other.plans_searched;
        self.plans_cached += other.plans_cached;
        self.candidates_seen += other.candidates_seen;
        self.events_emitted += other.events_emitted;
        self.queue_peak = self.queue_peak.max(other.queue_peak);
        self.shed += other.shed;
        self.pool_submitted += other.pool_submitted;
        self.pool_spilled += other.pool_spilled;
        self.plan_lookups += other.plan_lookups;
        self.plan_remote_hits += other.plan_remote_hits;
    }
}

/// Everything one episode measured.
#[derive(Debug, Clone)]
pub struct Episode {
    pub setup: Duration,
    pub tally: Tally,
    /// Wall time of the measured loop, replay time excluded.
    pub work: Duration,
    /// Process CPU time over the measured loop, replay time excluded.
    pub cpu: Duration,
    pub allocs: u64,
    pub latency_p50_ns: u64,
    pub latency_p95_ns: u64,
    pub latency_samples: usize,
    pub counters: Counters,
    /// Fingerprint of the episode's outcome; equal for its traced and
    /// untraced runs.
    pub digest: u64,
    pub violations: Vec<String>,
}

/// Measures an episode's loop: wall time, process CPU, and allocations,
/// minus whatever the tracer spent replaying.
pub struct Meter {
    t0: Instant,
    cpu0: Duration,
    allocs0: u64,
}

/// What a [`Meter`] measured.
pub struct Measured {
    pub work: Duration,
    pub cpu: Duration,
    pub allocs: u64,
}

impl Meter {
    pub fn start(tracer: Option<&mut Tracer>) -> Self {
        if let Some(tracer) = tracer {
            tracer.begin_loop();
        }
        Meter {
            cpu0: process_cpu(),
            allocs0: allocations(),
            t0: Instant::now(),
        }
    }

    pub fn stop(self, tracer: Option<&Tracer>) -> Measured {
        let wall = self.t0.elapsed();
        let allocs = allocations() - self.allocs0;
        let cpu = process_cpu().saturating_sub(self.cpu0);
        let (excluded, excluded_allocs) = tracer.map_or((Duration::ZERO, 0), Tracer::excluded);
        Measured {
            work: wall.saturating_sub(excluded),
            cpu: cpu.saturating_sub(excluded),
            allocs: allocs.saturating_sub(excluded_allocs),
        }
    }
}

/// Client-observed wall latencies of one episode.
#[derive(Debug, Default)]
pub struct Latencies(Vec<u64>);

impl Latencies {
    pub fn with_capacity(n: usize) -> Self {
        Latencies(Vec::with_capacity(n))
    }

    pub fn push(&mut self, latency: Duration) {
        self.0.push(latency.as_nanos() as u64);
    }

    /// `(p50, p95, samples)`.
    pub fn summary(mut self) -> (u64, u64, usize) {
        let p50 = percentile_of(&mut self.0, 50.0);
        let p95 = percentile_of(&mut self.0, 95.0);
        (p50, p95, self.0.len())
    }
}

/// FNV-1a over 64-bit words: the outcome digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Appends a violation unless `attempted = satisfied + qos_failed + errors`.
pub fn check_accounting(tally: &Tally, violations: &mut Vec<String>) {
    let accounted = tally.satisfied + tally.qos_failed + tally.errors;
    if accounted != tally.attempted {
        violations.push(format!(
            "accounting does not balance: attempted {} != satisfied {} + qos-failed {} + errors {}",
            tally.attempted, tally.satisfied, tally.qos_failed, tally.errors
        ));
    }
}

/// Appends a violation unless telemetry, summed over services and
/// gateways, counted exactly the `served` requests the benchmark saw.
pub fn check_served(counters: &Counters, served: u64, violations: &mut Vec<String>) {
    if counters.invocations != served {
        violations.push(format!(
            "telemetry counted {} served requests, the benchmark {served}",
            counters.invocations
        ));
    }
}

/// Waits (bounded) until `gateway`'s event core and worker pool hold no
/// request, frame or running job, and appends a violation if they never
/// drain. Par legs that lost the race may still be finishing when the
/// last response resolves, so a short wait is part of the check.
pub fn check_drained(gateway: &Gateway, label: &str, violations: &mut Vec<String>) {
    let drained = |engine: EngineStats, pool: PoolStats| {
        engine.in_flight == 0 && engine.frames_live == 0 && pool.running == 0
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (engine, pool) = (gateway.engine_stats(), gateway.pool_stats());
        if drained(engine, pool) {
            return;
        }
        if Instant::now() >= deadline {
            violations.push(format!(
                "{label}: not drained at quiescence: {} request(s) and {} frame(s) in the \
                 event core, {} pool job(s) running",
                engine.in_flight, engine.frames_live, pool.running
            ));
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The providers the gateway resolves for `script`'s capabilities, in
/// microservice order.
pub fn gateway_providers(gateway: &Gateway, script: &ServiceScript) -> Vec<Arc<dyn Provider>> {
    script
        .microservices
        .iter()
        .map(|ms| {
            gateway
                .registry()
                .providers_for(&ms.capability)
                .into_iter()
                .next()
                .expect("every capability has a provider")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_accounting_passes() {
        let tally = Tally {
            attempted: 10,
            satisfied: 6,
            qos_failed: 3,
            errors: 1,
        };
        let mut violations = Vec::new();
        check_accounting(&tally, &mut violations);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn a_lost_request_trips_the_accounting_check() {
        let tally = Tally {
            attempted: 10,
            satisfied: 6,
            qos_failed: 3,
            errors: 0,
        };
        let mut violations = Vec::new();
        check_accounting(&tally, &mut violations);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("does not balance"), "{violations:?}");
    }

    #[test]
    fn a_double_count_trips_the_accounting_check() {
        let tally = Tally {
            attempted: 10,
            satisfied: 8,
            qos_failed: 3,
            errors: 0,
        };
        let mut violations = Vec::new();
        check_accounting(&tally, &mut violations);
        assert_eq!(violations.len(), 1);
    }

    #[test]
    fn telemetry_disagreeing_with_the_served_count_trips_the_check() {
        let tally = Tally {
            attempted: 5,
            satisfied: 4,
            qos_failed: 1,
            errors: 0,
        };
        let mut violations = Vec::new();
        let counters = Counters {
            invocations: 5,
            ..Counters::default()
        };
        check_served(&counters, tally.served(), &mut violations);
        assert!(violations.is_empty());
        let counters = Counters {
            invocations: 4,
            ..Counters::default()
        };
        check_served(&counters, tally.served(), &mut violations);
        assert_eq!(violations.len(), 1);
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let a: Vec<u64> = {
            let mut rng = Rng::new(7);
            (0..4).map(|_| rng.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = Rng::new(7);
            (0..4).map(|_| rng.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, {
            let mut rng = Rng::new(8);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        });
    }
}
