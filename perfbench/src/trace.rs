//! Tracing owned by the benchmark: spans recorded at the calls into the
//! program's public functions, never inside it.
//!
//! * [`TracedProvider`] and [`TracedMarket`] are trait-object wrappers the
//!   program calls through; each records one span per call, keyed by the
//!   invocation's request id.
//! * [`Tracer`] holds the client-side spans and the layer replays: the
//!   concrete types the gateway owns internally (planner, engine,
//!   collector, telemetry) are called again by the benchmark with the
//!   inputs the workload produced, and every call is timed and its
//!   allocations counted.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qce_runtime::{
    Budget, Clock, Collector, CompletionPolicy, ExecSpec, ExecutionEngine, ExecutionRecord,
    Invocation, InvokeError, Market, Planner, Provider, QosClass, RuntimeError, ServiceResponse,
    ServiceScript, SlotPlan, Telemetry,
};
use qce_strategy::{Node, PlanSource, Strategy};

use crate::alloc::allocations;
use crate::stats::{mean, percentile_of};

/// The layer a wrapper span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Provider::invoke`: a blocking leaf.
    Invoke,
    /// `Provider::try_timed_invoke` that resolved as a scheduled completion.
    TimedInvoke,
    /// `Market::fetch`.
    Fetch,
}

/// One wrapper span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub request_id: u64,
    pub ns: u64,
}

/// One leaf outcome seen by a provider wrapper: the input of the
/// collector and telemetry replays.
#[derive(Debug, Clone, Copy)]
pub struct LeafOutcome {
    /// Index of the provider in the workload's provider table.
    pub provider: usize,
    pub success: bool,
    pub latency: Duration,
    pub cost: f64,
}

/// Spans and leaf outcomes recorded by the wrappers, from any thread.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Mutex<Vec<Span>>,
    outcomes: Mutex<Vec<LeafOutcome>>,
}

impl Recorder {
    fn span(&self, layer: Layer, request_id: u64, ns: u64) {
        self.spans
            .lock()
            .expect("no recorder user panics")
            .push(Span {
                layer,
                request_id,
                ns,
            });
    }

    fn outcome(&self, outcome: LeafOutcome) {
        self.outcomes
            .lock()
            .expect("no recorder user panics")
            .push(outcome);
    }

    /// Takes every span recorded so far.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("no recorder user panics"))
    }

    /// Takes every leaf outcome recorded so far.
    pub fn take_outcomes(&self) -> Vec<LeafOutcome> {
        std::mem::take(&mut *self.outcomes.lock().expect("no recorder user panics"))
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Runs `f`, returning its result, its duration in ns less `timer_ns`, and
/// the allocations it made.
fn measure<R>(timer_ns: u64, f: impl FnOnce() -> R) -> (R, u64, u64) {
    let a0 = allocations();
    let t0 = Instant::now();
    let result = black_box(f());
    let ns = elapsed_ns(t0).saturating_sub(timer_ns);
    (result, ns, allocations() - a0)
}

/// A provider that delegates every call to `inner` and records a span and
/// a leaf outcome per resolved invocation.
pub struct TracedProvider {
    inner: Arc<dyn Provider>,
    index: usize,
    recorder: Arc<Recorder>,
}

impl TracedProvider {
    pub fn wrap(inner: Arc<dyn Provider>, index: usize, recorder: &Arc<Recorder>) -> Arc<Self> {
        Arc::new(TracedProvider {
            inner,
            index,
            recorder: Arc::clone(recorder),
        })
    }
}

impl Provider for TracedProvider {
    fn id(&self) -> &str {
        self.inner.id()
    }

    fn capability(&self) -> &str {
        self.inner.capability()
    }

    fn cost(&self) -> f64 {
        self.inner.cost()
    }

    fn invoke(&self, request: &Invocation) -> Result<Vec<u8>, InvokeError> {
        let t0 = Instant::now();
        let result = self.inner.invoke(request);
        let elapsed = t0.elapsed();
        self.recorder
            .span(Layer::Invoke, request.request_id, elapsed.as_nanos() as u64);
        self.recorder.outcome(LeafOutcome {
            provider: self.index,
            success: result.is_ok(),
            latency: elapsed,
            cost: self.inner.cost(),
        });
        result
    }

    fn try_timed_invoke(
        &self,
        request: &Invocation,
        clock: &dyn Clock,
    ) -> Option<(Duration, Result<Vec<u8>, InvokeError>)> {
        let t0 = Instant::now();
        let timed = self.inner.try_timed_invoke(request, clock);
        let ns = elapsed_ns(t0);
        if let Some((latency, result)) = &timed {
            self.recorder
                .span(Layer::TimedInvoke, request.request_id, ns);
            self.recorder.outcome(LeafOutcome {
                provider: self.index,
                success: result.is_ok(),
                latency: *latency,
                cost: self.inner.cost(),
            });
        }
        timed
    }
}

/// A market that delegates to `inner` and records a span per fetch.
pub struct TracedMarket {
    inner: Arc<dyn Market>,
    recorder: Arc<Recorder>,
}

impl TracedMarket {
    pub fn wrap(inner: Arc<dyn Market>, recorder: &Arc<Recorder>) -> Self {
        TracedMarket {
            inner,
            recorder: Arc::clone(recorder),
        }
    }
}

impl Market for TracedMarket {
    fn fetch(&self, service_id: &str) -> Result<ServiceScript, RuntimeError> {
        let t0 = Instant::now();
        let script = self.inner.fetch(service_id);
        self.recorder.span(Layer::Fetch, 0, elapsed_ns(t0));
        script
    }

    fn service_ids(&self) -> Vec<String> {
        self.inner.service_ids()
    }
}

/// Per-call durations (ns) and allocation counts of one timed layer.
#[derive(Debug, Default)]
pub struct Samples {
    pub ns: Vec<u64>,
    pub allocs: Vec<u64>,
}

impl Samples {
    fn push(&mut self, ns: u64, allocs: u64) {
        self.ns.push(ns);
        self.allocs.push(allocs);
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    pub fn mean_ns(&self) -> f64 {
        mean(&self.ns)
    }

    pub fn p(&self, pct: f64) -> u64 {
        percentile_of(&mut self.ns.clone(), pct)
    }

    pub fn mean_allocs(&self) -> f64 {
        mean(&self.allocs)
    }
}

/// Every per-layer sample of a traced run.
#[derive(Debug, Default)]
pub struct LayerSamples {
    pub submit: Samples,
    pub submit_async: Samples,
    pub wait: Samples,
    pub route: Samples,
    pub invoke: Vec<u64>,
    pub timed_invoke: Vec<u64>,
    /// Distinct request ids among the device spans.
    pub device_requests: u64,
    /// Fetch spans recorded while requests were being measured:
    /// (calls, total ns).
    pub loop_fetches: (u64, u64),
    /// Fetch spans recorded while rigs were set up: (calls, total ns).
    pub setup_fetches: (u64, u64),
    pub plan_cold: Samples,
    pub plan_cached: Samples,
    pub plan_all: Samples,
    pub plan_agree: (u64, u64),
    pub exec_all: Samples,
    pub exec_par: Samples,
    pub exec_seq: Samples,
    pub exec_leaf: Samples,
    pub frames: Vec<u64>,
    pub collector_record: Samples,
    pub collector_stats: Samples,
    pub telemetry_request: Samples,
    pub telemetry_invocation: Samples,
    /// Leaf outcomes replayed, over all traced requests.
    pub leaves: u64,
}

/// The traced half of a run: the wrappers' recorder, the timed layer
/// replays, and the bookkeeping that keeps replay time out of the
/// workload's own measurements.
pub struct Tracer {
    pub recorder: Arc<Recorder>,
    pub samples: LayerSamples,
    /// Median cost of one empty `Instant` span, subtracted from every
    /// timed replay call.
    timer_ns: u64,
    /// Wall time and allocations spent replaying in the current episode.
    excluded: Duration,
    excluded_allocs: u64,
    replays: u64,
}

impl Tracer {
    pub fn new() -> Self {
        let mut empty: Vec<u64> = (0..2001)
            .map(|_| {
                let t0 = Instant::now();
                elapsed_ns(black_box(t0))
            })
            .collect();
        Tracer {
            recorder: Arc::new(Recorder::default()),
            samples: LayerSamples::default(),
            timer_ns: percentile_of(&mut empty, 50.0),
            excluded: Duration::ZERO,
            excluded_allocs: 0,
            replays: 0,
        }
    }

    /// Starts an episode's measured loop: spans recorded so far belong to
    /// the rig's set-up.
    pub fn begin_loop(&mut self) {
        for span in self.recorder.take_spans() {
            if span.layer == Layer::Fetch {
                self.samples.setup_fetches.0 += 1;
                self.samples.setup_fetches.1 += span.ns;
            }
        }
        self.recorder.take_outcomes();
        self.excluded = Duration::ZERO;
        self.excluded_allocs = 0;
    }

    /// Wall time and allocations the current episode spent replaying.
    pub fn excluded(&self) -> (Duration, u64) {
        (self.excluded, self.excluded_allocs)
    }

    /// Times one client-side call into the program.
    pub fn client<R>(layer: &mut Samples, f: impl FnOnce() -> R) -> R {
        let (result, ns, allocs) = measure(0, f);
        layer.push(ns, allocs);
        result
    }

    /// Runs `f` as replay work: its wall time and allocations are kept out
    /// of the episode's measurements.
    fn excluding<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let a0 = allocations();
        let t0 = Instant::now();
        let result = f(self);
        self.excluded += t0.elapsed();
        self.excluded_allocs += allocations() - a0;
        result
    }

    fn timed<R>(timer_ns: u64, samples: &mut Samples, f: impl FnOnce() -> R) -> R {
        let (result, ns, allocs) = measure(timer_ns, f);
        samples.push(ns, allocs);
        result
    }

    /// Moves the wrappers' spans into the samples and replays every leaf
    /// outcome into `collector.record` and `telemetry.record_invocation`.
    /// `provider_ids` maps a wrapper's provider index to its id.
    pub fn drain_leaves(
        &mut self,
        collector: &Collector,
        telemetry: &Telemetry,
        provider_ids: &[String],
    ) {
        self.excluding(|tracer| {
            let mut requests = Vec::new();
            for span in tracer.recorder.take_spans() {
                match span.layer {
                    Layer::Invoke | Layer::TimedInvoke => {
                        requests.push(span.request_id);
                        if span.layer == Layer::Invoke {
                            tracer.samples.invoke.push(span.ns);
                        } else {
                            tracer.samples.timed_invoke.push(span.ns);
                        }
                    }
                    Layer::Fetch => {
                        tracer.samples.loop_fetches.0 += 1;
                        tracer.samples.loop_fetches.1 += span.ns;
                    }
                }
            }
            requests.sort_unstable();
            requests.dedup();
            tracer.samples.device_requests += requests.len() as u64;
            let timer_ns = tracer.timer_ns;
            let samples = &mut tracer.samples;
            for leaf in tracer.recorder.take_outcomes() {
                let id = provider_ids[leaf.provider].as_str();
                let record = ExecutionRecord {
                    success: leaf.success,
                    latency: leaf.latency,
                    cost: leaf.cost,
                };
                Self::timed(timer_ns, &mut samples.collector_record, || {
                    collector.record(id, record)
                });
                Self::timed(timer_ns, &mut samples.telemetry_invocation, || {
                    telemetry.record_invocation(id, leaf.success, leaf.latency, leaf.cost)
                });
                samples.leaves += 1;
            }
        });
    }

    /// Replays `telemetry.record_request` for one response.
    pub fn replay_request(&mut self, telemetry: &Telemetry, service: &str, r: &ServiceResponse) {
        self.excluding(|tracer| {
            Self::timed(
                tracer.timer_ns,
                &mut tracer.samples.telemetry_request,
                || {
                    telemetry.record_request(
                        service,
                        r.class,
                        r.success,
                        r.latency,
                        r.cost,
                        r.advisory.is_some(),
                        r.votes,
                    )
                },
            );
        });
    }

    /// Replays `engine.execute` of `strategy` over `providers`: replicas of
    /// the workload's providers with the same reliabilities, so the
    /// workload's own providers see no extra calls. Virtual-clock
    /// workloads pass zero-latency replicas bound to a wall `clock`, so
    /// the replay times the walk and not virtual-time advancement. Every
    /// eighth replay also counts the request's continuation frames on a
    /// private telemetry hub, untimed.
    pub fn replay_execute(
        &mut self,
        engine: &ExecutionEngine,
        clock: &Arc<dyn Clock>,
        strategy: &Strategy,
        providers: &[Arc<dyn Provider>],
        class: QosClass,
    ) {
        self.excluding(|tracer| {
            let spec = |telemetry: Option<Arc<Telemetry>>| ExecSpec {
                strategy: strategy.clone(),
                providers: providers.to_vec(),
                request: Invocation::new(0, "replay", Vec::new()),
                collector: None,
                telemetry,
                clock: Arc::clone(clock),
                budget: Budget::unlimited().with_class(class),
                policy: CompletionPolicy::FirstSuccess,
            };
            if tracer.replays % 8 == 0 {
                let telemetry = Telemetry::new(Arc::clone(clock), 1);
                engine
                    .execute(spec(Some(Arc::clone(&telemetry))))
                    .expect("replayed strategies validate");
                tracer
                    .samples
                    .frames
                    .push(telemetry.snapshot().engine.frames_peak);
            }
            tracer.replays += 1;
            let (outcome, ns, allocs) = measure(tracer.timer_ns, || engine.execute(spec(None)));
            outcome.expect("replayed strategies validate");
            let shape = match strategy.node() {
                Node::Par(_) => &mut tracer.samples.exec_par,
                Node::Seq(_) => &mut tracer.samples.exec_seq,
                Node::Leaf(_) => &mut tracer.samples.exec_leaf,
            };
            shape.push(ns, allocs);
            tracer.samples.exec_all.push(ns, allocs);
        });
    }

    /// Replays one slot re-plan: `planner.plan_slot_for` against the live
    /// `collector`, plus the `collector.stats` read of each provider the
    /// plan consults. Returns the replayed plan so the caller can check it
    /// against the strategy the gateway chose.
    pub fn replay_plan(
        &mut self,
        planner: &Planner,
        script: &ServiceScript,
        providers: &[Arc<dyn Provider>],
        collector: &Collector,
        slot: u64,
    ) -> SlotPlan {
        self.excluding(|tracer| {
            for provider in providers {
                Self::timed(tracer.timer_ns, &mut tracer.samples.collector_stats, || {
                    collector.stats(provider.id())
                });
            }
            let (plan, ns, allocs) = measure(tracer.timer_ns, || {
                planner.plan_slot_for(
                    script,
                    &script.requirements,
                    providers,
                    collector,
                    slot,
                    None,
                )
            });
            let plan = plan.expect("replayed plans succeed");
            match plan.source {
                Some(PlanSource::Cached) => tracer.samples.plan_cached.push(ns, allocs),
                _ => tracer.samples.plan_cold.push(ns, allocs),
            }
            tracer.samples.plan_all.push(ns, allocs);
            plan
        })
    }

    /// Records whether a replayed plan chose the gateway's strategy.
    pub fn plan_agreement(&mut self, agrees: bool) {
        self.samples.plan_agree.0 += u64::from(agrees);
        self.samples.plan_agree.1 += 1;
    }
}
