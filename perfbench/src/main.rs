//! Wall-clock benchmark of the qce gateway request path.
//!
//! ```text
//! perfbench --workload hot-submit|async-burst|replan-fleet \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the workload for `S` seconds with no tracing and
//! prints the end-to-end metrics, their times scaled to a nominal host
//! (see [`host`]). `--trace 1` runs every episode twice, untraced and then
//! traced, for `S` seconds in all, and prints the per-layer metrics (see
//! `README.md` in this directory). Either way the last line of standard
//! output is one JSON object; the process exits non-zero when a
//! correctness check failed.

mod alloc;
mod async_burst;
mod host;
mod hot_submit;
mod procfs;
mod replan_fleet;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{mean, median, ratio};
use trace::Tracer;
use workload::{Counters, Episode, Tally};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    HotSubmit,
    AsyncBurst,
    ReplanFleet,
}

enum Inputs {
    HotSubmit(hot_submit::Inputs),
    AsyncBurst(async_burst::Inputs),
    ReplanFleet(replan_fleet::Inputs),
}

impl Inputs {
    fn generate(workload: Workload, seed: u64) -> Self {
        match workload {
            Workload::HotSubmit => Inputs::HotSubmit(hot_submit::Inputs::generate(seed)),
            Workload::AsyncBurst => Inputs::AsyncBurst(async_burst::Inputs::generate(seed)),
            Workload::ReplanFleet => Inputs::ReplanFleet(replan_fleet::Inputs::generate(seed)),
        }
    }

    fn episode(&self, tracer: Option<&mut Tracer>) -> Episode {
        match self {
            Inputs::HotSubmit(inputs) => hot_submit::episode(inputs, tracer),
            Inputs::AsyncBurst(inputs) => async_burst::episode(inputs, tracer),
            Inputs::ReplanFleet(inputs) => replan_fleet::episode(inputs, tracer),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value {
                    "hot-submit" => Workload::HotSubmit,
                    "async-burst" => Workload::AsyncBurst,
                    "replan-fleet" => Workload::ReplanFleet,
                    other => return Err(format!("unknown workload {other:?}")),
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The episodes of a run.
struct Run {
    untraced: Vec<Episode>,
    /// Empty unless the run was traced.
    traced: Vec<Episode>,
    /// The reference job's time before each untraced episode, and once
    /// more after the last one (see [`host`]).
    references: Vec<Duration>,
}

impl Run {
    /// Each untraced episode's factor to the nominal host.
    fn scales(&self) -> Vec<f64> {
        self.references
            .windows(2)
            .map(|pair| host::scale(pair[0], pair[1]))
            .collect()
    }
}

/// Runs whole episodes until `seconds` of wall time have passed (at least
/// one episode). Episode `e` runs on the inputs of `(seed, e)`, so a run
/// averages over several input draws. With a tracer, every episode runs
/// twice in a row, untraced and then traced, so both runs see the same
/// inputs and the same drift of the host's speed. The reference job runs
/// between episodes.
fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> std::io::Result<Run> {
    let mut reference = host::Reference::start()?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut run = Run {
        untraced: Vec::new(),
        traced: Vec::new(),
        references: vec![reference.measure()?],
    };
    loop {
        let inputs = Inputs::generate(workload, workload::episode_seed(seed, run.untraced.len()));
        run.untraced.push(inputs.episode(None));
        run.references.push(reference.measure()?);
        if let Some(tracer) = tracer.as_deref_mut() {
            run.traced.push(inputs.episode(Some(tracer)));
        }
        if Instant::now() >= deadline {
            return Ok(run);
        }
    }
}

fn tally(episodes: &[Episode]) -> Tally {
    let mut total = Tally::default();
    for episode in episodes {
        total.add(&episode.tally);
    }
    total
}

fn counters(episodes: &[Episode]) -> Counters {
    let mut total = Counters::default();
    for episode in episodes {
        total.add(&episode.counters);
    }
    total
}

/// `per_episode(e)` summed over all episodes, per served request.
fn per_served(episodes: &[Episode], per_episode: impl Fn(&Episode) -> f64) -> f64 {
    let total: f64 = episodes.iter().map(per_episode).sum();
    ratio(total, tally(episodes).served() as f64)
}

/// Served requests per second of measured wall time, over all episodes,
/// with episode `i`'s time scaled by `scales[i]`.
fn throughput(episodes: &[Episode], scales: &[f64]) -> f64 {
    ratio(
        tally(episodes).served() as f64,
        episodes
            .iter()
            .zip(scales)
            .map(|(e, scale)| e.work.as_secs_f64() * scale)
            .sum(),
    )
}

/// Process CPU per served request, in ns, over all episodes, with episode
/// `i`'s CPU scaled by `scales[i]`. `/proc` counts CPU in 10 ms ticks:
/// only the run's total carries enough digits.
fn cpu_ns_per_req(episodes: &[Episode], scales: &[f64]) -> f64 {
    let total: f64 = episodes
        .iter()
        .zip(scales)
        .map(|(e, scale)| e.cpu.as_nanos() as f64 * scale)
        .sum();
    ratio(total, tally(episodes).served() as f64)
}

/// The median over episodes of `f(episode)`, a time, scaled.
fn scaled_median(episodes: &[Episode], scales: &[f64], f: impl Fn(&Episode) -> f64) -> f64 {
    median(
        &episodes
            .iter()
            .zip(scales)
            .map(|(e, scale)| f(e) * scale)
            .collect::<Vec<_>>(),
    )
}

/// Named metrics with units, in print order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The end-to-end metrics, with episode `i`'s times scaled by `scales[i]`
/// to the nominal host (see [`host`]). Rates and costs are totals over
/// the run. Latency percentiles and set-up time are medians over the
/// episodes, which shrug off the episodes a host scheduling hiccup
/// stretched.
fn end_to_end(episodes: &[Episode], scales: &[f64]) -> Metrics {
    let total = tally(episodes);
    let attempted = total.attempted as f64;
    let mut m = Metrics::default();
    m.put(
        "setup_s",
        scaled_median(episodes, scales, |e| e.setup.as_secs_f64()),
        "s",
    );
    m.put("throughput_rps", throughput(episodes, scales), "1/s");
    m.put(
        "latency_p50_us",
        scaled_median(episodes, scales, |e| e.latency_p50_ns as f64 / 1e3),
        "us",
    );
    m.put(
        "latency_p95_us",
        scaled_median(episodes, scales, |e| e.latency_p95_ns as f64 / 1e3),
        "us",
    );
    m.put(
        "cpu_us_per_req",
        cpu_ns_per_req(episodes, scales) / 1e3,
        "us",
    );
    m.put("peak_rss_mib", procfs::peak_rss_mib(), "MiB");
    m.put(
        "allocs_per_req",
        per_served(episodes, |e| e.allocs as f64),
        "count",
    );
    m.put(
        "ok_rate",
        1.0 - ratio(total.errors as f64, attempted),
        "ratio",
    );
    m.put(
        "qos_satisfaction",
        ratio(total.satisfied as f64, attempted),
        "ratio",
    );
    m
}

/// The per-layer metrics, as measured: untraced and traced runs of an
/// episode follow each other, so they need no scaling to compare.
fn per_layer(run: &Run, tracer: &Tracer) -> Metrics {
    let (untraced, traced) = (&run.untraced[..], &run.traced[..]);
    let unscaled = vec![1.0; untraced.len()];
    let s = &tracer.samples;
    let u = counters(untraced);
    let u_served = tally(untraced).served() as f64;
    let t_served = tally(traced).served() as f64;
    let t_work_ns: f64 = traced.iter().map(|e| e.work.as_nanos() as f64).sum();
    let rigs = traced.len() as f64;
    let leaves_per_req = ratio(s.leaves as f64, t_served);
    let device_calls = (s.invoke.len() + s.timed_invoke.len()) as f64;
    let p50 = |v: &[u64]| stats::percentile_of(&mut v.to_vec(), 50.0) as f64;

    // Per-request CPU the layers account for, against the untraced cost.
    let attributed = ratio(s.plan_all.total_ns() as f64, t_served)
        + s.exec_all.mean_ns()
        + (s.collector_record.mean_ns() + s.telemetry_invocation.mean_ns()) * leaves_per_req
        + s.telemetry_request.mean_ns()
        + ratio(s.loop_fetches.1 as f64, t_served)
        + s.route.mean_ns();
    let cpu_ns = cpu_ns_per_req(untraced, &unscaled);

    let mut m = Metrics::default();
    m.put("gateway.submit_ns_p50", s.submit.p(50.0) as f64, "ns");
    m.put(
        "gateway.submit_async_ns_p50",
        s.submit_async.p(50.0) as f64,
        "ns",
    );
    m.put("gateway.wait_ns_p50", s.wait.p(50.0) as f64, "ns");
    m.put("gateway.admission_queue_peak", u.queue_peak as f64, "count");
    m.put("gateway.residual_ns_per_req", cpu_ns - attributed, "ns");
    m.put(
        "market.fetch_calls",
        (s.setup_fetches.0 + s.loop_fetches.0) as f64 / rigs,
        "count",
    );
    m.put(
        "market.fetch_us_total",
        (s.setup_fetches.1 + s.loop_fetches.1) as f64 / rigs / 1e3,
        "us",
    );
    m.put("fleet.route_ns_p50", s.route.p(50.0) as f64, "ns");
    m.put(
        "fleet.remote_hit_ratio",
        ratio(u.plan_remote_hits as f64, u.plan_lookups as f64),
        "ratio",
    );
    m.put(
        "generator.replans_per_kreq",
        ratio(u.replans as f64 * 1e3, u_served),
        "count",
    );
    m.put(
        "generator.plan_cold_us_p50",
        s.plan_cold.p(50.0) as f64 / 1e3,
        "us",
    );
    m.put(
        "generator.plan_cached_us_p50",
        s.plan_cached.p(50.0) as f64 / 1e3,
        "us",
    );
    m.put(
        "generator.plan_us_p99",
        s.plan_all.p(99.0) as f64 / 1e3,
        "us",
    );
    m.put(
        "generator.candidates_per_plan",
        ratio(u.candidates_seen as f64, u.plans_searched as f64),
        "count",
    );
    m.put(
        "generator.cache_hit_ratio",
        ratio(u.plans_cached as f64, u.replans as f64),
        "ratio",
    );
    m.put(
        "generator.busy_share",
        ratio(s.plan_all.total_ns() as f64, t_work_ns),
        "ratio",
    );
    m.put(
        "generator.plan_allocs_per_call",
        s.plan_all.mean_allocs(),
        "count",
    );
    m.put(
        "generator.replay_agreement",
        ratio(s.plan_agree.0 as f64, s.plan_agree.1 as f64),
        "ratio",
    );
    m.put("engine.execute_ns_p50", s.exec_all.p(50.0) as f64, "ns");
    m.put("engine.execute_par_ns_p50", s.exec_par.p(50.0) as f64, "ns");
    m.put("engine.execute_seq_ns_p50", s.exec_seq.p(50.0) as f64, "ns");
    m.put(
        "engine.execute_leaf_ns_p50",
        s.exec_leaf.p(50.0) as f64,
        "ns",
    );
    m.put(
        "engine.execute_allocs_per_call",
        s.exec_all.mean_allocs(),
        "count",
    );
    m.put(
        "engine.blocking_leaf_share",
        ratio(s.invoke.len() as f64, device_calls),
        "ratio",
    );
    m.put(
        "engine.pool_spill_share",
        ratio(u.pool_spilled as f64, u.pool_submitted as f64),
        "ratio",
    );
    m.put("engine.frames_per_req", mean(&s.frames), "count");
    m.put("device.invoke_ns_p50", p50(&s.invoke), "ns");
    m.put("device.timed_invoke_ns_p50", p50(&s.timed_invoke), "ns");
    m.put(
        "device.calls_per_req",
        ratio(device_calls, s.device_requests as f64),
        "count",
    );
    m.put(
        "collector.record_ns_p50",
        s.collector_record.p(50.0) as f64,
        "ns",
    );
    m.put(
        "collector.stats_ns_p50",
        s.collector_stats.p(50.0) as f64,
        "ns",
    );
    m.put(
        "collector.record_allocs_per_call",
        s.collector_record.mean_allocs(),
        "count",
    );
    m.put(
        "telemetry.record_request_ns_p50",
        s.telemetry_request.p(50.0) as f64,
        "ns",
    );
    m.put(
        "telemetry.record_invocation_ns_p50",
        s.telemetry_invocation.p(50.0) as f64,
        "ns",
    );
    m.put(
        "telemetry.record_request_allocs_per_call",
        s.telemetry_request.mean_allocs(),
        "count",
    );
    m.put(
        "telemetry.record_invocation_allocs_per_call",
        s.telemetry_invocation.mean_allocs(),
        "count",
    );
    m.put(
        "telemetry.events_per_req",
        ratio(u.events_emitted as f64, u_served),
        "count",
    );
    m.put("trace.attributed_share", ratio(attributed, cpu_ns), "ratio");
    m.put(
        "trace.overhead_share",
        1.0 - ratio(
            throughput(traced, &unscaled),
            throughput(untraced, &unscaled),
        ),
        "ratio",
    );
    let references: Vec<f64> = run.references.iter().map(Duration::as_secs_f64).collect();
    m.put("host.reference_us", median(&references) * 1e6, "us");
    m
}

/// Every violation of the run: each episode's own checks, plus — since an
/// episode's digested outcome is a function of its inputs alone, and the
/// wrappers must delegate faithfully — identical outcomes for the
/// untraced and traced runs of each episode.
fn violations(untraced: &[Episode], traced: &[Episode]) -> Vec<String> {
    let mut all = Vec::new();
    for (label, episodes) in [("untraced", untraced), ("traced", traced)] {
        for (i, episode) in episodes.iter().enumerate() {
            for violation in &episode.violations {
                all.push(format!("{label} episode {i}: {violation}"));
            }
        }
    }
    for (i, (u, t)) in untraced.iter().zip(traced).enumerate() {
        if u.digest != t.digest || u.tally != t.tally {
            all.push(format!(
                "episode {i}: traced outcome {:?} (digest {:016x}) differs from untraced \
                 {:?} (digest {:016x})",
                t.tally, t.digest, u.tally, u.digest
            ));
        }
    }
    all
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == [host::SERVE_FLAG] {
        return match host::serve() {
            Ok(()) => ExitCode::SUCCESS,
            Err(error) => {
                eprintln!("perfbench: reference process: {error}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    // Sized to the machine before the process narrows itself to one CPU.
    let cores = workload::nproc();
    let pinned = host::pin_to_one_cpu();
    let mut tracer = args.trace.then(Tracer::new);
    let run = match run(args.workload, args.seed, args.seconds, tracer.as_mut()) {
        Ok(run) => run,
        Err(error) => {
            eprintln!("perfbench: reference job: {error}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = match &tracer {
        Some(tracer) => per_layer(&run, tracer),
        None => end_to_end(&run.untraced, &run.scales()),
    };
    let violations = violations(&run.untraced, &run.traced);
    let unscaled = (!args.trace).then(|| end_to_end(&run.untraced, &vec![1.0; run.untraced.len()]));
    let episodes: Vec<Episode> = run.untraced.into_iter().chain(run.traced).collect();
    let total = tally(&episodes);
    let samples: usize = episodes.iter().map(|e| e.latency_samples).sum();
    eprintln!(
        "perfbench {:?} seed {}: {} episode(s), {} request(s) attempted, {} latency sample(s) \
         ({} per episode), {} core(s), pinned to CPU {}",
        args.workload,
        args.seed,
        episodes.len(),
        total.attempted,
        samples,
        samples / episodes.len(),
        cores,
        pinned.map_or("none".to_string(), |cpu| cpu.to_string()),
    );
    match &unscaled {
        Some(unscaled) => {
            eprintln!("  {:<45} {:>16} {:>16}", "", "nominal host", "as measured");
            for ((name, value, unit), (_, raw, _)) in metrics.0.iter().zip(&unscaled.0) {
                eprintln!("  {name:<45} {value:>16.9} {raw:>16.9} {unit}");
            }
        }
        None => {
            for (name, value, unit) in &metrics.0 {
                eprintln!("  {name:<45} {value:>16.4} {unit}");
            }
        }
    }
    for violation in violations.iter().take(20) {
        eprintln!("VIOLATION {violation}");
    }
    let correct = violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        total.attempted,
        total.errors,
        metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn episode(digest: u64, violations: Vec<String>) -> Episode {
        Episode {
            setup: Duration::from_millis(1),
            tally: Tally {
                attempted: 2,
                satisfied: 2,
                qos_failed: 0,
                errors: 0,
            },
            work: Duration::from_millis(10),
            cpu: Duration::from_millis(10),
            allocs: 4,
            latency_p50_ns: 1,
            latency_p95_ns: 2,
            latency_samples: 2,
            counters: Counters::default(),
            digest,
            violations,
        }
    }

    #[test]
    fn identical_traced_and_untraced_episodes_pass() {
        let untraced = [episode(7, vec![]), episode(9, vec![])];
        let traced = [episode(7, vec![])];
        assert!(violations(&untraced, &traced).is_empty());
        assert!(violations(&untraced, &[]).is_empty());
    }

    #[test]
    fn a_diverging_traced_outcome_or_an_episode_violation_fails_the_run() {
        let untraced = [episode(7, vec![])];
        assert_eq!(violations(&untraced, &[episode(8, vec![])]).len(), 1);
        let broken = [episode(7, vec!["accounting does not balance".to_string()])];
        assert_eq!(violations(&broken, &[]).len(), 1);
        assert_eq!(violations(&untraced, &broken).len(), 1);
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args: Vec<String> = ["--workload", "async-burst", "--seed", "3", "--trace", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let parsed = parse_args(&args).expect("valid arguments");
        assert_eq!(parsed.workload, Workload::AsyncBurst);
        assert_eq!(parsed.seed, 3);
        assert!(parsed.trace);
        for bad in [
            vec!["--workload", "nope"],
            vec!["--workload", "hot-submit", "--trace", "2"],
            vec!["--workload", "hot-submit", "--seconds", "0"],
            vec!["--seed", "1"],
            vec!["--workload"],
        ] {
            let bad: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&bad).is_err(), "{bad:?}");
        }
    }
}
