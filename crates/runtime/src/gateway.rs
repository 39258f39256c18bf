//! The edge gateway: the centrepiece of the paper's system design
//! (Section IV, Fig. 4).
//!
//! The gateway accepts client service requests by `ServiceID`, fetches and
//! caches the service script from the market, resolves each equivalent
//! microservice to its best provider (Assumption 1), and runs the
//! **feedback loop**: the *collector* records per-provider QoS, the
//! *generator* re-synthesizes the execution strategy at every time-slot
//! boundary, and the *strategy executor* carries it out on real threads.
//! The first slot runs the default strategy to gather observations; each
//! later slot runs the strategy generated from the previous slot's data,
//! so the system self-adapts to dissimilar and drifting environments.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use qce_strategy::{Attribute, EnvQos, PlanCacheHub, Qos, Requirements, Strategy};

use crate::clock::{Clock, WallClock, WorkerGuard};
use crate::collector::Collector;
use crate::device::Provider;
use crate::engine::event::{
    BlockingTask, DoneFn, EventCore, PanicPayload, RequestResult, Shared, TaskFn,
};
use crate::engine::{
    Budget, Completion, CompletionPolicy, EngineOutcome, EngineStats, ExecSpec, ExecutionEngine,
    PoolStats, PruneDetail, PruneReason,
};
use crate::generator::{Planner, SlotPlan, StrategyOrigin, SynthesisSettings};
use crate::market::Market;
use crate::message::{Invocation, RuntimeError};
use crate::registry::Registry;
use crate::request::{QosClass, Request, CLASS_COUNT};
use crate::script::{MsSpec, ServiceScript};
use crate::telemetry::Telemetry;

/// Gateway configuration knobs.
///
/// Construct with [`GatewayConfig::builder`] (the struct is
/// `#[non_exhaustive]`, so literal construction outside the crate does not
/// compile — new knobs must never be a breaking change again).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct GatewayConfig {
    /// Sliding-window size of the QoS collector (observations per
    /// provider).
    pub collector_window: usize,
    /// Exhaustive/approximation threshold `θ` for the generator.
    pub generator_threshold: usize,
    /// Worker threads for the per-slot exhaustive search (`0` = one per
    /// available core).
    pub generator_parallelism: usize,
    /// Branch-and-bound pruning for the per-slot exhaustive search.
    /// Never changes the chosen strategy, only how fast it is found.
    pub generator_pruning: bool,
    /// Warm-start each slot's search with the previous slot's winner as
    /// the initial pruning bar. Never changes the chosen strategy, only
    /// how fast it is found.
    pub generator_warm_start: bool,
    /// Cache winning plans per service, keyed by the search inputs, so a
    /// slot whose environment is unchanged skips the search entirely.
    pub plan_cache: bool,
    /// Plan-cache capacity (entries per service) when `plan_cache` is on.
    pub plan_cache_capacity: usize,
    /// Plan-cache key quantization step. `0.0` (the default) keys on exact
    /// bit patterns, making cache hits provably bit-identical to a fresh
    /// search; positive steps trade that exactness for more hits under
    /// small environment drift.
    pub plan_quantize: f64,
    /// Which search backend plans each slot: a fixed backend
    /// (`Exhaustive` / `Greedy` / `Beam(W)`), the paper's threshold rule
    /// (`Threshold`, the default), or a per-service UCB1 bandit over the
    /// backends (`Auto`).
    pub planner: qce_strategy::BackendChoice,
    /// Re-plan at a slot boundary only when the collector's QoS table has
    /// drifted outside the active plan's quantization band (measured with
    /// [`env_drift`](crate::env_drift) at `plan_quantize` granularity).
    /// `false` (the default) re-plans at every boundary, the paper's
    /// fixed-cadence behavior.
    pub replan_on_drift: bool,
    /// Maximum [`SlotRecord`]s kept per service; older records are evicted
    /// (and counted in telemetry) so long-running services don't leak.
    pub history_limit: usize,
    /// Capacity of the telemetry event ring.
    pub telemetry_events: usize,
    /// Maximum concurrent invocations per service (`0` = unlimited).
    /// Requests beyond the limit wait in the admission queue.
    pub max_in_flight: usize,
    /// Admission-queue capacity per service. When a service is at its
    /// in-flight limit *and* this many requests are already queued, further
    /// requests are shed with [`RuntimeError::Overloaded`].
    pub admission_queue: usize,
    /// Per-request deadline, measured from admission. Legs of the strategy
    /// that have not started when the deadline passes are pruned; legs
    /// already in flight complete and are charged (Assumption 2).
    pub request_deadline: Option<Duration>,
    /// Persistent worker threads in the execution engine's pool (`0` = no
    /// pool; every parallel leg runs on its own one-shot thread).
    pub worker_pool: usize,
    /// Event-loop threads draining asynchronous submissions
    /// ([`Gateway::submit_async`]). Requests are state machines on a shared
    /// event core, so one loop drains every service; extra loops only help
    /// when per-event CPU work (planning, result assembly) saturates a
    /// core. `0` is treated as `1`.
    pub event_loops: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            collector_window: 100,
            generator_threshold: qce_strategy::generate::DEFAULT_THRESHOLD,
            generator_parallelism: 0,
            generator_pruning: true,
            generator_warm_start: false,
            plan_cache: false,
            plan_cache_capacity: 64,
            plan_quantize: 0.0,
            planner: qce_strategy::BackendChoice::Threshold,
            replan_on_drift: false,
            history_limit: 1024,
            telemetry_events: 1024,
            max_in_flight: 0,
            admission_queue: 16,
            request_deadline: None,
            worker_pool: 8,
            event_loops: 1,
        }
    }
}

impl GatewayConfig {
    /// Starts a builder seeded with the default configuration.
    #[must_use]
    pub fn builder() -> GatewayConfigBuilder {
        GatewayConfigBuilder::new()
    }

    /// The synthesis-engine settings implied by this configuration.
    #[must_use]
    pub fn synthesis_settings(&self) -> SynthesisSettings {
        SynthesisSettings {
            threshold: self.generator_threshold,
            parallelism: self.generator_parallelism,
            pruning: self.generator_pruning,
            warm_start: self.generator_warm_start,
            plan_cache: self.plan_cache,
            plan_cache_capacity: self.plan_cache_capacity,
            plan_quantize: self.plan_quantize,
            planner: self.planner,
            replan_on_drift: self.replan_on_drift,
        }
    }
}

/// Builder for [`GatewayConfig`]: every knob starts at its default and is
/// overridden fluently.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use qce_runtime::GatewayConfig;
///
/// let config = GatewayConfig::builder()
///     .max_in_flight(4)
///     .admission_queue(8)
///     .request_deadline(Some(Duration::from_millis(100)))
///     .build();
/// assert_eq!(config.max_in_flight, 4);
/// assert_eq!(config.collector_window, 100, "untouched knobs keep defaults");
/// ```
#[derive(Debug, Clone, Default)]
pub struct GatewayConfigBuilder {
    config: GatewayConfig,
}

macro_rules! config_setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            #[must_use]
            pub fn $field(mut self, $field: $ty) -> Self {
                self.config.$field = $field;
                self
            }
        )*
    };
}

impl GatewayConfigBuilder {
    /// A builder seeded with [`GatewayConfig::default`].
    #[must_use]
    pub fn new() -> Self {
        GatewayConfigBuilder::default()
    }

    config_setters! {
        /// See [`GatewayConfig::collector_window`].
        collector_window: usize,
        /// See [`GatewayConfig::generator_threshold`].
        generator_threshold: usize,
        /// See [`GatewayConfig::generator_parallelism`].
        generator_parallelism: usize,
        /// See [`GatewayConfig::generator_pruning`].
        generator_pruning: bool,
        /// See [`GatewayConfig::generator_warm_start`].
        generator_warm_start: bool,
        /// See [`GatewayConfig::plan_cache`].
        plan_cache: bool,
        /// See [`GatewayConfig::plan_cache_capacity`].
        plan_cache_capacity: usize,
        /// See [`GatewayConfig::plan_quantize`].
        plan_quantize: f64,
        /// See [`GatewayConfig::planner`].
        planner: qce_strategy::BackendChoice,
        /// See [`GatewayConfig::replan_on_drift`].
        replan_on_drift: bool,
        /// See [`GatewayConfig::history_limit`].
        history_limit: usize,
        /// See [`GatewayConfig::telemetry_events`].
        telemetry_events: usize,
        /// See [`GatewayConfig::max_in_flight`].
        max_in_flight: usize,
        /// See [`GatewayConfig::admission_queue`].
        admission_queue: usize,
        /// See [`GatewayConfig::request_deadline`].
        request_deadline: Option<Duration>,
        /// See [`GatewayConfig::worker_pool`].
        worker_pool: usize,
        /// See [`GatewayConfig::event_loops`].
        event_loops: usize,
    }

    /// Finishes the builder.
    #[must_use]
    pub fn build(self) -> GatewayConfig {
        self.config
    }
}

/// The gateway's warning that a generated strategy cannot meet the QoS
/// requirements (Section IV.C: "the gateway reports the estimated
/// unsatisfied QoS to the client, which then determines whether the service
/// request with this expected QoS should be continued").
#[derive(Debug, Clone, PartialEq)]
pub struct QosAdvisory {
    /// The estimated QoS of the best strategy the generator could find.
    pub estimated: Qos,
    /// Which attributes miss their requirements.
    pub violations: Vec<Attribute>,
}

/// A completed service request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceResponse {
    /// Correlates with the client request.
    pub request_id: u64,
    /// The traffic class the request was admitted under, after resolving
    /// the request's explicit class against the service's live override
    /// and the [`QosClass::default`] fallback.
    pub class: QosClass,
    /// Whether any equivalent microservice succeeded.
    pub success: bool,
    /// Payload of the winning microservice, if any.
    pub payload: Option<Vec<u8>>,
    /// Wall-clock latency to the first success (or total failure).
    pub latency: Duration,
    /// Total cost charged (Assumption 2).
    pub cost: f64,
    /// The strategy that served the request.
    pub strategy: Strategy,
    /// The strategy rendered with the script's microservice names.
    pub strategy_text: String,
    /// Zero-based time slot the request fell into.
    pub slot: u64,
    /// How the slot's strategy was chosen.
    pub origin: StrategyOrigin,
    /// Present when the generator expects the QoS requirements to be
    /// missed (the client decides whether to continue).
    pub advisory: Option<QosAdvisory>,
    /// `(votes for the answer, votes cast)` when the script requests quorum
    /// execution (§VII); `None` under first-success semantics.
    pub votes: Option<(usize, usize)>,
    /// Present when the request's budget stopped the walk early: the
    /// deadline passed, or the service was evicted mid-request. Legs that
    /// had not started were skipped; the reported outcome covers only the
    /// legs that ran.
    pub pruned: Option<PruneReason>,
    /// Full attribution of the prune (reason, class, remaining deadline
    /// budget at the prune instant). Always present when
    /// [`ServiceResponse::pruned`] is.
    pub prune_detail: Option<PruneDetail>,
}

/// Record of one time slot's planning decision, kept for diagnostics and
/// for the adaptation experiments (Fig. 8).
#[derive(Debug, Clone, PartialEq)]
pub struct SlotRecord {
    /// Zero-based slot index.
    pub slot: u64,
    /// The strategy chosen for the slot, with script names.
    pub strategy_text: String,
    /// How it was chosen.
    pub origin: StrategyOrigin,
    /// The generator's QoS estimate for the slot's strategy.
    pub estimated: Option<Qos>,
}

struct ActivePlan {
    plan: SlotPlan,
    providers: Vec<Arc<dyn Provider>>,
    /// Names of the microservices the plan was synthesized over, aligned
    /// with the strategy's indices. Usually the script's full name list,
    /// but a subset when providers for some capabilities were missing at
    /// planning time (the slot plans over what it has).
    names: Vec<String>,
    /// The effective requirement the plan was synthesized against, so the
    /// drift trigger never holds a plan across a live requirement change.
    requirement: Requirements,
}

struct ServiceState {
    script: ServiceScript,
    /// Persistent per-service planner: keeps the warm-start incumbent and
    /// the plan cache alive across slot boundaries.
    planner: Planner,
    slot: u64,
    invocations_in_slot: u32,
    active: Option<ActivePlan>,
    history: VecDeque<SlotRecord>,
}

/// Per-service admission control: a bounded in-flight limit plus a
/// bounded, **class-aware** wait queue. Requests beyond both bounds are
/// shed ([`RuntimeError::Overloaded`]) instead of piling up unboundedly.
///
/// The queue is one FIFO per [`QosClass`]. A freed in-flight slot is
/// handed to the next waiter by smooth weighted round-robin over the
/// nonempty class queues ([`pick_class`]), so a backlogged service serves
/// classes in proportion to [`QosClass::weight`] without ever starving a
/// nonempty queue. When every queue slot is taken, an arriving request may
/// *preempt* the newest waiter of the lowest queued class
/// ([`AdmissionGate::preemption_victim`]): Scavenger waiters shed first to
/// any higher class, and Critical arrivals preempt any lower class. The
/// preempted waiter is shed exactly as if it had never been queued.
///
/// Every queued ticket carries a [`WakerFn`], fired exactly once when the
/// ticket leaves the queue, and the gate reports the queue-depth gauges
/// at every entry and exit. The gate never parks a thread: a blocking
/// [`Gateway::submit`] that has to queue parks on its own one-shot
/// ([`HandleShared::wait`]), exactly as [`RequestHandle::wait`] does.
struct AdmissionGate {
    /// In-flight limit (`0` = unlimited).
    limit: usize,
    /// Total queue capacity (across all classes) once the limit is reached.
    max_queue: usize,
    /// The service whose queue-depth gauges this gate reports.
    service_id: String,
    telemetry: Arc<Telemetry>,
    state: StdMutex<GateState>,
}

#[derive(Default)]
struct GateState {
    in_flight: usize,
    /// FIFO of waiter tickets per class, indexed by [`QosClass::index`],
    /// each with the continuation its departure fires.
    waiting: [VecDeque<(u64, WakerFn)>; CLASS_COUNT],
    /// Smooth weighted-round-robin accumulators, one per class.
    wrr: [i64; CLASS_COUNT],
    next_ticket: u64,
}

impl GateState {
    fn queued(&self) -> usize {
        self.waiting.iter().map(VecDeque::len).sum()
    }

    fn shed(&self) -> Shed {
        Shed {
            in_flight: self.in_flight as u64,
            queued: self.queued() as u64,
        }
    }
}

/// Picks which class dequeues next by smooth weighted round-robin (the
/// nginx variant): every nonempty class gains its weight, the largest
/// accumulator wins (ties to the higher-priority class) and pays back the
/// total gained. Admissions interleave proportionally to the weights, and
/// a class whose queue stays nonempty is picked at least once every
/// `total_weight` picks — no nonempty class is ever starved.
fn pick_class(wrr: &mut [i64; CLASS_COUNT], nonempty: [bool; CLASS_COUNT]) -> Option<usize> {
    let mut total = 0i64;
    let mut best: Option<usize> = None;
    for (index, has_waiters) in nonempty.iter().enumerate() {
        if !has_waiters {
            continue;
        }
        let weight = i64::from(QosClass::ALL[index].weight());
        wrr[index] += weight;
        total += weight;
        if best.is_none_or(|b| wrr[index] > wrr[b]) {
            best = Some(index);
        }
    }
    let winner = best?;
    wrr[winner] -= total;
    Some(winner)
}

/// Gate occupancy when a request was shed, for its telemetry and error.
struct Shed {
    in_flight: u64,
    queued: u64,
}

/// How a queued ticket left the queue. Delivered to the ticket's
/// [`WakerFn`] exactly once.
enum AdmitOutcome {
    /// A freed in-flight slot was handed to this ticket (the slot is
    /// already counted; the waiter wraps it in a [`Permit`]).
    Granted,
    /// Preempted out of its queue slot by a higher-class arrival; the
    /// occupancy is read at the preemption instant.
    Preempted(Shed),
    /// The queue-wait deadline expired before a slot freed up.
    Expired,
    /// The gateway is shutting down; no slot will ever be granted.
    Shutdown,
}

/// Continuation of a queued request: an asynchronous request's event-loop
/// task, or the one-shot a queued blocking caller parks on. Always invoked
/// after the gate lock is released; it must never call back into the
/// gate.
type WakerFn = Box<dyn FnOnce(AdmitOutcome) + Send>;

/// Immediate result of [`AdmissionGate::admit`]. The waker factory `W` is
/// called only when the request actually queues; otherwise it comes back
/// unused.
enum Admission<W> {
    /// A slot was free: the request is in flight.
    Admitted(W),
    /// The request waits in its class queue under this ticket; its waker
    /// fires when the ticket leaves the queue.
    Queued(u64),
    /// Queue full and nobody to preempt.
    Shed(Shed, W),
}

impl AdmissionGate {
    fn new(limit: usize, max_queue: usize, service_id: &str, telemetry: Arc<Telemetry>) -> Self {
        AdmissionGate {
            limit,
            max_queue,
            service_id: service_id.to_string(),
            telemetry,
            state: StdMutex::new(GateState::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reports the total and `class`'s queue depth after a ticket entered
    /// or left `class`'s queue.
    fn report_depth(&self, state: &GateState, class: usize) {
        self.telemetry
            .record_admission_queue(&self.service_id, state.queued() as u64);
        self.telemetry.record_class_queue_depth(
            &self.service_id,
            QosClass::ALL[class],
            state.waiting[class].len() as u64,
        );
    }

    /// The class index an arriving request of `class` may preempt a waiter
    /// from: the lowest-priority nonempty queue, and only when that queue
    /// is strictly lower priority than the arrival *and* either the victim
    /// is Scavenger (sheds first, to anyone higher) or the arrival is
    /// Critical (preempts every lower class).
    fn preemption_victim(state: &GateState, class: QosClass) -> Option<usize> {
        let victim = (0..CLASS_COUNT)
            .rev()
            .find(|&i| !state.waiting[i].is_empty())?;
        let lower = victim > class.index();
        let eligible = victim == QosClass::Scavenger.index() || class == QosClass::Critical;
        (lower && eligible).then_some(victim)
    }

    /// Makes room for an arriving `class` request when the queue is full:
    /// evicts the newest waiter of the lowest eligible class and returns
    /// its waker (to fire once the gate lock is released), or `Err` when
    /// nobody is eligible and the arrival itself is shed. The chosen
    /// queue's occupancy is re-checked on every iteration, so an empty pop
    /// falls through to the next candidate instead of panicking.
    fn preempt_for(&self, state: &mut GateState, class: QosClass) -> Result<WakerFn, Shed> {
        loop {
            let Some(victim_class) = Self::preemption_victim(state, class) else {
                return Err(state.shed());
            };
            if let Some((_, waker)) = state.waiting[victim_class].pop_back() {
                self.report_depth(state, victim_class);
                return Ok(waker);
            }
        }
    }

    /// The one admission entry of both front doors: admits immediately
    /// when a slot is free, otherwise queues a ticket carrying the waker
    /// `make_waker` builds — or sheds when the queue is full and nobody
    /// can be preempted. Never blocks.
    fn admit<W: FnOnce() -> WakerFn>(&self, class: QosClass, make_waker: W) -> Admission<W> {
        let mut state = self.lock();
        if self.limit == 0 || state.in_flight < self.limit {
            state.in_flight += 1;
            return Admission::Admitted(make_waker);
        }
        let mut evicted = None;
        if state.queued() >= self.max_queue {
            match self.preempt_for(&mut state, class) {
                Ok(waker) => evicted = Some(waker),
                Err(shed) => return Admission::Shed(shed, make_waker),
            }
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        let index = class.index();
        state.waiting[index].push_back((ticket, make_waker()));
        self.report_depth(&state, index);
        let occupancy = state.shed();
        drop(state);
        if let Some(waker) = evicted {
            waker(AdmitOutcome::Preempted(occupancy));
        }
        Admission::Queued(ticket)
    }

    /// Withdraws a queued ticket, returning its waker if the ticket was
    /// still waiting. `None` means the ticket already left the queue
    /// (granted, preempted, or cancelled) and its waker has fired or is
    /// about to — the caller must then do nothing.
    fn cancel(&self, class: QosClass, ticket: u64) -> Option<WakerFn> {
        let mut state = self.lock();
        let index = class.index();
        let pos = state.waiting[index]
            .iter()
            .position(|(t, _)| *t == ticket)?;
        let (_, waker) = state.waiting[index].remove(pos)?;
        self.report_depth(&state, index);
        Some(waker)
    }

    /// Removes every queued ticket and returns the wakers, so shutdown can
    /// fail them instead of leaving their waiters pending forever.
    fn drain(&self) -> Vec<WakerFn> {
        let mut state = self.lock();
        let mut wakers = Vec::new();
        for class in 0..CLASS_COUNT {
            if !state.waiting[class].is_empty() {
                wakers.extend(state.waiting[class].drain(..).map(|(_, waker)| waker));
                self.report_depth(&state, class);
            }
        }
        wakers
    }

    /// Releases one in-flight slot: hands it to the next queued waiter
    /// (weighted pick across the class queues) or, with nobody waiting,
    /// frees it. As in [`AdmissionGate::preempt_for`], an empty pop
    /// retries the pick instead of panicking.
    fn release_slot(&self) {
        let mut state = self.lock();
        let granted = loop {
            let nonempty = std::array::from_fn(|i| !state.waiting[i].is_empty());
            let Some(class) = pick_class(&mut state.wrr, nonempty) else {
                state.in_flight -= 1;
                return;
            };
            // Hand the slot straight to the chosen waiter instead of
            // freeing it, so a racing new arrival cannot barge past the
            // queue.
            if let Some((_, waker)) = state.waiting[class].pop_front() {
                self.report_depth(&state, class);
                break waker;
            }
        };
        drop(state);
        granted(AdmitOutcome::Granted);
    }
}

/// An admitted request's in-flight slot, owning its service entry so an
/// asynchronous request can carry it through the event loop. Dropping it
/// hands the slot to the next queued waiter (weighted pick across the
/// class queues) or, with nobody waiting, releases it.
struct Permit {
    entry: ServiceCell,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.entry.gate.release_slot();
    }
}

/// Live per-service overrides set through [`GatewayControl`]. Applied to
/// every subsequent request that does not set the field explicitly,
/// without re-planning the slot.
#[derive(Debug, Clone, Copy, Default)]
struct ServiceOverrides {
    class: Option<QosClass>,
    deadline: Option<Duration>,
    requirement: Option<Requirements>,
}

impl ServiceOverrides {
    /// The requirement slot planning must satisfy under these overrides:
    /// the explicit requirement override, else the overridden class's
    /// default requirement derived from the script's, else the script's
    /// own. Mirrors the per-request resolution order (explicit request
    /// fields excluded — plans are per-service, not per-request).
    fn planning_requirement(&self, base: &Requirements) -> Requirements {
        self.requirement.unwrap_or_else(|| {
            self.class
                .map_or(*base, |class| class.default_requirement(base))
        })
    }
}

/// One service's entry in the gateway: its state cell (`None` until the
/// script has been fetched and validated), its admission gate, its live
/// control-plane overrides, and the eviction flag chained into every
/// in-flight request's [`Budget`]. Each service has its own lock so one
/// service's (potentially expensive) slot re-plan never blocks
/// invocations of another.
struct ServiceEntry {
    cell: Mutex<Option<ServiceState>>,
    gate: AdmissionGate,
    overrides: Mutex<ServiceOverrides>,
    evicted: Arc<AtomicBool>,
}

type ServiceCell = Arc<ServiceEntry>;

/// Everything a single request needs from its service's current slot plan,
/// cloned out of the per-service state cell so execution runs outside
/// every lock. Produced by [`Gateway::plan_slot`] for both the blocking
/// ([`Gateway::submit`]) and asynchronous ([`Gateway::submit_async`])
/// paths.
struct Planned {
    strategy: Strategy,
    providers: Vec<Arc<dyn Provider>>,
    names: Vec<String>,
    slot: u64,
    origin: StrategyOrigin,
    estimated: Option<Qos>,
    base_requirements: Requirements,
    quorum: Option<usize>,
}

/// What names a request in its telemetry, errors, and response.
#[derive(Clone)]
struct RequestTag {
    request_id: u64,
    service_id: String,
    class: QosClass,
}

impl RequestTag {
    /// Records a shed — queue full at arrival, or preempted out of the
    /// queue — and returns its error.
    fn shed(&self, telemetry: &Telemetry, shed: Shed) -> RuntimeError {
        telemetry.record_shed(&self.service_id, self.class, shed.in_flight, shed.queued);
        RuntimeError::Overloaded {
            service_id: self.service_id.clone(),
            class: self.class,
            queue_depth: shed.queued,
        }
    }

    /// Records a deadline that expired before execution and returns its
    /// error.
    fn expired(&self, telemetry: &Telemetry) -> RuntimeError {
        telemetry.record_deadline_exceeded(&self.service_id, self.request_id, self.class);
        RuntimeError::DeadlineExceeded {
            service_id: self.service_id.clone(),
            class: self.class,
        }
    }

    /// How a request whose ticket left the admission queue goes on: `Ok`
    /// when it was granted a slot, else its recorded refusal.
    fn admitted(&self, telemetry: &Telemetry, outcome: AdmitOutcome) -> Result<(), RuntimeError> {
        match outcome {
            AdmitOutcome::Granted => Ok(()),
            AdmitOutcome::Preempted(shed) => Err(self.shed(telemetry, shed)),
            AdmitOutcome::Expired => Err(self.expired(telemetry)),
            AdmitOutcome::Shutdown => Err(RuntimeError::Shutdown),
        }
    }
}

/// A request resolved against its service by [`Gateway::accept`].
struct Accepted {
    tag: RequestTag,
    entry: ServiceCell,
    deadline: Option<Duration>,
    /// The explicit requirement, else the service's live override; `None`
    /// falls back to the class default once the slot is planned.
    requirement: Option<Requirements>,
    payload: Vec<u8>,
}

/// Everything [`Reply::respond`] needs besides the engine's outcome.
struct Reply {
    tag: RequestTag,
    advisory: Option<QosAdvisory>,
    strategy: Strategy,
    names: Vec<String>,
    slot: u64,
    origin: StrategyOrigin,
}

impl Reply {
    /// Records the finished request (and a deadline prune) in telemetry
    /// and assembles its response.
    fn respond(self, telemetry: &Telemetry, outcome: EngineOutcome) -> ServiceResponse {
        let tag = &self.tag;
        if outcome.pruned == Some(PruneReason::DeadlineExceeded) {
            telemetry.record_deadline_exceeded(&tag.service_id, tag.request_id, tag.class);
        }
        let (success, payload, votes) = match outcome.completion {
            Completion::First { success, payload } => (success, payload, None),
            Completion::Agreement {
                payload,
                votes,
                votes_cast,
                agreed,
            } => (agreed, payload, Some((votes, votes_cast))),
        };
        telemetry.record_request(
            &tag.service_id,
            tag.class,
            success,
            outcome.latency,
            outcome.cost,
            self.advisory.is_some(),
            votes,
        );
        ServiceResponse {
            request_id: tag.request_id,
            class: tag.class,
            success,
            payload,
            latency: outcome.latency,
            cost: outcome.cost,
            strategy_text: self.strategy.to_string_with_names(&self.names),
            strategy: self.strategy,
            slot: self.slot,
            origin: self.origin,
            advisory: self.advisory,
            votes,
            pruned: outcome.pruned,
            prune_detail: outcome.prune_detail,
        }
    }
}

/// The edge gateway.
///
/// # Examples
///
/// See the crate-level documentation and the `adaptive_temperature`
/// example for end-to-end usage; unit tests below exercise each behaviour.
pub struct Gateway {
    market: Box<dyn Market>,
    registry: Arc<Registry>,
    collector: Arc<Collector>,
    clock: Arc<dyn Clock>,
    config: GatewayConfig,
    telemetry: Arc<Telemetry>,
    engine: ExecutionEngine,
    services: RwLock<HashMap<String, ServiceCell>>,
    next_request: AtomicU64,
    /// Shared event core draining every asynchronous request
    /// ([`Gateway::submit_async`]) as a state machine: leaves complete as
    /// clock events, continuations are heap frames, and
    /// [`GatewayConfig::event_loops`] threads step the whole gateway.
    core: Arc<EventCore<'static>>,
    /// Routes the core's blocking leaves to the engine's worker pool (see
    /// [`ExecutionEngine::spawner`]).
    spawn: Arc<dyn Fn(BlockingTask) + Send + Sync>,
    /// Event-loop threads, spawned lazily on the first `submit_async`,
    /// joined on drop.
    loops: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// When set (by [`Gateway::set_plan_hub`]), this gateway's one view
    /// of the fleet-shared plan store. Every service planner memoizes
    /// into it instead of a private cache, so plans synthesized by other
    /// gateways in the same fleet are served warm here — and because the
    /// whole gateway shares one view, only genuinely cross-gateway reuse
    /// is attributed as *remote*.
    plan_view: RwLock<Option<Arc<qce_strategy::PlanCache>>>,
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("config", &self.config)
            .field("capabilities", &self.registry.capabilities())
            .finish_non_exhaustive()
    }
}

impl Gateway {
    /// Creates a gateway over a market with a fresh registry and collector,
    /// running on real time.
    #[must_use]
    pub fn new(market: Box<dyn Market>, config: GatewayConfig) -> Self {
        Gateway::with_clock(market, config, Arc::new(WallClock::new()))
    }

    /// As [`Gateway::new`], but every latency measurement and execution
    /// runs on `clock`. Pass the same shared
    /// [`VirtualClock`](crate::VirtualClock) as the registered providers
    /// for deterministic virtual-time tests.
    #[must_use]
    pub fn with_clock(
        market: Box<dyn Market>,
        config: GatewayConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let telemetry = Telemetry::new(Arc::clone(&clock), config.telemetry_events);
        let engine = ExecutionEngine::new(config.worker_pool);
        let core = Arc::new(EventCore::new(Shared::Owned(Arc::clone(&clock))));
        let spawn = Arc::new(engine.spawner(&core, Arc::clone(&clock)));
        Gateway {
            market,
            registry: Arc::new(Registry::new()),
            collector: Arc::new(Collector::new(config.collector_window)),
            clock,
            engine,
            config,
            telemetry,
            services: RwLock::new(HashMap::new()),
            next_request: AtomicU64::new(1),
            core,
            spawn,
            loops: Mutex::new(Vec::new()),
            plan_view: RwLock::new(None),
        }
    }

    /// Plugs this gateway into a fleet-shared plan-cache hub: services
    /// initialised *after* this call plan through this gateway's one
    /// [view](PlanCacheHub::view) of the hub's store (when
    /// [`GatewayConfig::plan_cache`] is enabled), so a plan synthesized on
    /// any sharing gateway is a warm hit here — attributed as a *remote*
    /// hit in telemetry. Call before the first request; already-planned
    /// services keep their private caches.
    ///
    /// Invalidation stays view-scoped: a live override on one service
    /// drops every entry this *gateway* stored (conservative — siblings
    /// re-synthesize on their next slot), never other gateways' entries.
    pub fn set_plan_hub(&self, hub: Arc<PlanCacheHub>) {
        *self.plan_view.write() = Some(hub.view());
    }

    /// The device registry (devices register their microservices here).
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The QoS collector.
    #[must_use]
    pub fn collector(&self) -> &Arc<Collector> {
        &self.collector
    }

    /// The clock executions run on.
    #[must_use]
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The gateway's telemetry hub (counters, histograms, and the event
    /// ring — see [`Telemetry`]).
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Submits a typed [`Request`] to its service.
    ///
    /// On the first invocation the script is fetched from the market and
    /// cached. Each slot boundary re-plans the strategy from collector
    /// data. Concurrent invocations of the same service execute in
    /// parallel (planning is serialized per service; execution is not),
    /// bounded by [`GatewayConfig::max_in_flight`] with class-aware
    /// queueing (see [`QosClass`]). The request runs on the calling
    /// thread, which waits in the admission queue when it has to.
    ///
    /// Unset request fields resolve in order: request explicit value →
    /// service live override ([`Gateway::control`]) → gateway
    /// configuration → class default.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownService`] if the market has no such
    /// script, [`RuntimeError::NoProvider`] if a capability has no
    /// registered provider, [`RuntimeError::Overloaded`] if the request
    /// was shed (queue full, or preempted out of its queue slot by a
    /// higher class), or an invalid-script/generation error.
    pub fn submit(&self, request: Request) -> Result<ServiceResponse, RuntimeError> {
        let accepted = self.accept(request)?;
        // Admission first: it bounds everything the request does from here
        // on (planning included). A caller that has to queue parks on a
        // one-shot its waker fills.
        let parked = std::cell::OnceCell::new();
        let admission = accepted.entry.gate.admit(accepted.tag.class, || {
            let shot = Arc::new(HandleShared::new(Arc::clone(&self.clock)));
            let _ = parked.set(Arc::clone(&shot));
            Box::new(move |outcome| shot.finish(outcome))
        });
        match admission {
            Admission::Admitted(_) => {}
            Admission::Queued(_) => {
                let outcome = parked
                    .get()
                    .expect("a queued ticket built its waker")
                    .wait();
                accepted.tag.admitted(&self.telemetry, outcome)?;
            }
            Admission::Shed(shed, _) => return Err(accepted.tag.shed(&self.telemetry, shed)),
        }
        let _permit = Permit {
            entry: Arc::clone(&accepted.entry),
        };
        let (spec, reply) = self.start(accepted, None)?;
        let outcome = self.engine.execute(spec)?;
        Ok(reply.respond(&self.telemetry, outcome))
    }

    /// Submits a typed [`Request`] without blocking on its completion: the
    /// call returns a [`RequestHandle`] as soon as the request is admitted
    /// or queued, and the request itself runs as a state machine on the
    /// gateway's event loops ([`GatewayConfig::event_loops`]). Neither a
    /// queued nor an in-flight request holds a thread, so any number of
    /// concurrent requests cost one heap frame each, not one stack each.
    ///
    /// Field resolution, admission, planning, and response assembly are
    /// the same steps [`Gateway::submit`] runs, with two differences
    /// inherent to the asynchronous shape: the deadline is measured from
    /// submission (a request whose deadline expires while still queued
    /// fails with [`RuntimeError::DeadlineExceeded`] without ever
    /// executing), and errors after admission — shed by preemption,
    /// planning failure, shutdown — are delivered through
    /// [`RequestHandle::wait`] rather than this call.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::DeadlineExceeded`] for a zero effective
    /// deadline and [`RuntimeError::Overloaded`] when the request is shed
    /// at submission. All later failures surface through the handle.
    pub fn submit_async(self: &Arc<Self>, request: Request) -> Result<RequestHandle, RuntimeError> {
        self.ensure_loops();
        let accepted = self.accept(request)?;
        let epoch = self.clock.now();
        let tag = accepted.tag.clone();
        let (request_id, class, deadline) = (tag.request_id, tag.class, accepted.deadline);
        let entry = Arc::clone(&accepted.entry);
        let shared = Arc::new(HandleShared::new(Arc::clone(&self.clock)));

        // The admitted continuation: planning, engine submission, and the
        // response-assembling done-callback, all running on an event-loop
        // thread. If the task is ever dropped unrun (shutdown), the
        // FinishGuard inside fails the handle instead of leaving its
        // waiter parked forever.
        let task: TaskFn<'static> = {
            let gateway = Arc::downgrade(self);
            // The guard is captured (not created inside the body) so a
            // task discarded unrun — e.g. posted to an already shut-down
            // core — still resolves the handle from its drop.
            let finish = FinishGuard::new(Arc::clone(&shared));
            Box::new(move || {
                let permit = Permit {
                    entry: Arc::clone(&accepted.entry),
                };
                let Some(gateway) = gateway.upgrade() else {
                    return;
                };
                let (spec, reply) = match gateway.start(accepted, Some(epoch)) {
                    Ok(started) => started,
                    Err(error) => return finish.finish(Err(error)),
                };
                let telemetry = Arc::clone(&gateway.telemetry);
                let done: DoneFn<'static> = Box::new(move |result| {
                    // The permit outlives the finish call so the freed
                    // admission slot is handed over only after the handle
                    // resolves.
                    let _slot = permit;
                    match result {
                        RequestResult::Finished(outcome) => {
                            finish.finish(Ok(reply.respond(&telemetry, outcome)));
                        }
                        RequestResult::Panicked(panic) => finish.finish_panic(panic),
                        RequestResult::Shutdown => finish.finish(Err(RuntimeError::Shutdown)),
                    }
                });
                gateway
                    .core
                    .submit(spec.into_request(done), &*gateway.spawn);
            })
        };

        // The waker owns the continuation and fires exactly once, however
        // the ticket leaves the queue.
        let waker: WakerFn = {
            let telemetry = Arc::clone(&self.telemetry);
            let core = Arc::clone(&self.core);
            let shared = Arc::clone(&shared);
            let tag = tag.clone();
            Box::new(move |outcome| match tag.admitted(&telemetry, outcome) {
                Ok(()) => core.post_task(task),
                // Dropping the unrun task fires its FinishGuard, whose late
                // Shutdown loses to this result (first wins).
                Err(error) => shared.resolve(Err(error)),
            })
        };

        match entry.gate.admit(class, || waker) {
            // The slot is counted; run the continuation on the event loop
            // exactly like a deferred grant.
            Admission::Admitted(waker) => waker()(AdmitOutcome::Granted),
            Admission::Queued(ticket) => {
                if let Some(deadline) = deadline {
                    let entry = Arc::clone(&entry);
                    self.core.schedule_task(
                        epoch + deadline,
                        Box::new(move || {
                            if let Some(waker) = entry.gate.cancel(class, ticket) {
                                waker(AdmitOutcome::Expired);
                            }
                        }),
                    );
                }
            }
            // The handle is never returned, so the waker (and the
            // continuation inside it) is simply discarded.
            Admission::Shed(shed, _) => return Err(tag.shed(&self.telemetry, shed)),
        }

        Ok(RequestHandle {
            request_id,
            class,
            shared,
        })
    }

    /// The first step of both front doors: assigns the request id, finds
    /// the service entry, and resolves the class and deadline (request →
    /// live override → configuration → class default).
    ///
    /// A zero deadline can never be met: it is rejected here, before
    /// admission, so it neither occupies a queue slot nor enters the
    /// engine (where it would charge the cost of its started leaves before
    /// the first prune check). Counted as exactly one deadline-exceeded
    /// event.
    fn accept(&self, request: Request) -> Result<Accepted, RuntimeError> {
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        let (service_id, explicit_class, explicit_deadline, explicit_requirement, payload) =
            request.into_parts();
        let entry = self.service_entry(&service_id);
        let overrides = *entry.overrides.lock();
        let class = explicit_class.or(overrides.class).unwrap_or_default();
        let deadline = explicit_deadline
            .or(overrides.deadline)
            .or(self.config.request_deadline)
            .or_else(|| class.default_deadline());
        let tag = RequestTag {
            request_id,
            service_id,
            class,
        };
        if deadline == Some(Duration::ZERO) {
            return Err(tag.expired(&self.telemetry));
        }
        Ok(Accepted {
            tag,
            entry,
            deadline,
            requirement: explicit_requirement.or(overrides.requirement),
            payload,
        })
    }

    /// The step after admission, shared by both front doors: plans the
    /// slot, validates the plan, judges the advisory, and sets the budget
    /// and completion policy. Returns the engine inputs and the [`Reply`]
    /// that turns the engine's outcome into the response.
    ///
    /// `epoch` is the instant the deadline counts from: the submission
    /// instant for an asynchronous request — which is rejected here, before
    /// planning, if its deadline passed while it was queued — or `None`
    /// for a blocking one, whose deadline starts now, as it begins
    /// executing.
    fn start(
        &self,
        accepted: Accepted,
        epoch: Option<Duration>,
    ) -> Result<(ExecSpec, Reply), RuntimeError> {
        let Accepted {
            tag,
            entry,
            deadline,
            requirement,
            payload,
        } = accepted;
        // Exactly one of this check and the queue-deadline cancellation
        // fires for a queued request — whichever removes the ticket or
        // runs the continuation first.
        if let (Some(epoch), Some(deadline)) = (epoch, deadline) {
            if self.clock.now() >= epoch + deadline {
                return Err(tag.expired(&self.telemetry));
            }
        }
        let Planned {
            strategy,
            providers,
            names,
            slot,
            origin,
            estimated,
            base_requirements,
            quorum,
        } = self.plan_slot(&tag.service_id, &entry)?;
        crate::engine::validate(&strategy, &providers)?;

        // The advisory judges the slot's estimated QoS against *this
        // request's* effective requirement (explicit → live override →
        // class default over the script's requirements), so a Scavenger
        // probe does not raise alarms calibrated for interactive clients.
        let requirement =
            requirement.unwrap_or_else(|| tag.class.default_requirement(&base_requirements));
        let advisory = estimated.and_then(|estimated| {
            let violations = requirement.violations(&estimated);
            (!violations.is_empty()).then_some(QosAdvisory {
                estimated,
                violations,
            })
        });
        let mut budget = Budget::unlimited()
            .with_class(tag.class)
            .with_parent_flag(Arc::clone(&entry.evicted));
        if let Some(deadline) = deadline {
            budget = budget.with_deadline(epoch.unwrap_or_else(|| self.clock.now()) + deadline);
        }
        let policy = match quorum {
            Some(q) if q > 1 => CompletionPolicy::Quorum { quorum: q },
            _ => CompletionPolicy::FirstSuccess,
        };
        let spec = ExecSpec {
            strategy: strategy.clone(),
            providers,
            request: Invocation::new(tag.request_id, tag.service_id.clone(), payload),
            collector: Some(Arc::clone(&self.collector)),
            telemetry: Some(Arc::clone(&self.telemetry)),
            clock: Arc::clone(&self.clock),
            budget,
            policy,
        };
        let reply = Reply {
            tag,
            advisory,
            strategy,
            names,
            slot,
            origin,
        };
        Ok((spec, reply))
    }

    /// Fetches/validates the script and plans (or reuses) the slot's
    /// strategy under the *per-service* lock only — the global map lock is
    /// held just long enough to find the entry, so one service's
    /// exhaustive re-plan never blocks invocations of other services.
    /// Execution then happens outside every lock.
    fn plan_slot(&self, service_id: &str, entry: &ServiceCell) -> Result<Planned, RuntimeError> {
        let mut guard = entry.cell.lock();
        if guard.is_none() {
            let t0 = self.clock.now();
            let fetched = self.market.fetch(service_id);
            self.telemetry
                .record_market_fetch(self.clock.now().saturating_sub(t0), fetched.is_ok());
            let initialised = fetched.and_then(|script| {
                script.validate()?;
                let settings = self.config.synthesis_settings();
                // A fleet-shared view replaces the private per-service
                // cache (the local `plan_cache` knob still gates caching
                // as a whole).
                let view = self
                    .config
                    .plan_cache
                    .then(|| self.plan_view.read().clone())
                    .flatten();
                let planner = match view {
                    Some(view) => Planner::with_cache(&script, &settings, view)?,
                    None => Planner::new(&script, &settings)?,
                };
                Ok((script, planner))
            });
            match initialised {
                Ok((script, planner)) => {
                    *guard = Some(ServiceState {
                        script,
                        planner,
                        slot: 0,
                        invocations_in_slot: 0,
                        active: None,
                        history: VecDeque::new(),
                    });
                }
                Err(error) => {
                    drop(guard);
                    self.discard_uninitialised(service_id, entry);
                    return Err(error);
                }
            }
        }
        let state = guard.as_mut().expect("initialised above");

        if state.active.is_none() || state.invocations_in_slot >= state.script.slot_size {
            // Plan against the *effective* requirement: a live
            // `set_requirement`/`set_class` override changes what the
            // operator demands, and the synthesized strategy (and its
            // plan-cache key) must track it — not the deployed script.
            let requirement = entry
                .overrides
                .lock()
                .planning_requirement(&state.script.requirements);
            let mut replan = true;
            if state.active.is_some() {
                // With `replan_on_drift`, measure how far the collector's
                // table has moved from the active plan's assumptions
                // before discarding it (`None` = requirement or provider
                // set changed, which always re-plans).
                let drift = self
                    .config
                    .replan_on_drift
                    .then(|| self.boundary_drift(state, &requirement))
                    .flatten();
                state.slot += 1;
                state.invocations_in_slot = 0;
                match drift {
                    Some(drift) if drift <= 0.0 => {
                        // Every quantized cell of the assumed QoS table is
                        // unchanged: a re-plan would see identical search
                        // inputs, so hold the active plan for this slot.
                        self.telemetry.record_drift_hold(service_id);
                        replan = false;
                    }
                    drift => {
                        if let Some(drift) = drift {
                            self.telemetry
                                .record_drift_trigger(service_id, state.slot, drift);
                        }
                        // Clear the previous slot's plan *before*
                        // planning: if plan() fails (e.g. a provider
                        // departed), the stale plan must not keep serving
                        // the new slot — the next invocation retries
                        // planning instead.
                        state.active = None;
                    }
                }
            }
            if replan {
                let active = match self.plan(state, &requirement) {
                    Ok(active) => active,
                    Err(error) => {
                        self.telemetry
                            .record_plan_failure(service_id, state.slot, &error);
                        return Err(error);
                    }
                };
                let strategy_text = active.plan.strategy.to_string_with_names(&active.names);
                self.telemetry.record_replan(
                    service_id,
                    state.slot,
                    &active.plan.origin.to_string(),
                    &strategy_text,
                    active.plan.report.as_ref(),
                    active.plan.source,
                );
                state.history.push_back(SlotRecord {
                    slot: state.slot,
                    strategy_text,
                    origin: active.plan.origin.clone(),
                    estimated: active.plan.estimated,
                });
                let limit = self.config.history_limit.max(1);
                while state.history.len() > limit {
                    state.history.pop_front();
                    self.telemetry.record_history_evicted(service_id, 1);
                }
                state.active = Some(active);
            }
        }

        state.invocations_in_slot += 1;
        let active = state.active.as_ref().expect("planned above");
        Ok(Planned {
            strategy: active.plan.strategy.clone(),
            providers: active.providers.clone(),
            names: active.names.clone(),
            slot: state.slot,
            origin: active.plan.origin.clone(),
            estimated: active.plan.estimated,
            base_requirements: state.script.requirements,
            quorum: state.script.quorum,
        })
    }

    /// The gateway's runtime control plane: retunes a live service's
    /// traffic class, deadline, or requirement without re-planning its
    /// slot. Every applied override is recorded as exactly one
    /// [`EventKind::OverrideApplied`](crate::EventKind::OverrideApplied)
    /// telemetry event and takes effect at the next admission decision.
    #[must_use]
    pub fn control(&self) -> GatewayControl<'_> {
        GatewayControl { gateway: self }
    }

    /// Current occupancy counters of the engine's worker pool (capacity,
    /// live/idle/running threads, spill count).
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        self.engine.pool_stats()
    }

    /// Live occupancy of the event core: requests in flight, resident
    /// continuation frames (live and peak), and the size of one frame —
    /// the per-request memory unit that replaces a per-leg thread stack.
    #[must_use]
    pub fn engine_stats(&self) -> EngineStats {
        let stats = self.core.stats();
        EngineStats {
            in_flight: stats.in_flight,
            frames_live: stats.frames_live,
            frames_peak: stats.frames_peak,
            frame_bytes: EventCore::frame_bytes(),
        }
    }

    /// Spawns the event-loop threads on the first asynchronous submission.
    /// Each loop registers as a clock worker: while it processes events it
    /// pins virtual time, and when it idles it parks in
    /// [`Clock::sleep_until_or`], letting virtual time advance to the next
    /// completion.
    fn ensure_loops(&self) {
        let mut loops = self.loops.lock();
        if !loops.is_empty() {
            return;
        }
        for i in 0..self.config.event_loops.max(1) {
            let core = Arc::clone(&self.core);
            let clock = Arc::clone(&self.clock);
            let spawn = Arc::clone(&self.spawn);
            let handle = std::thread::Builder::new()
                .name(format!("qce-event-loop-{i}"))
                .spawn(move || {
                    let _worker = WorkerGuard::enter(&*clock);
                    core.run_loop(&*spawn);
                })
                .expect("spawn event-loop thread");
            loops.push(handle);
        }
    }

    /// Returns the entry of `service_id`, inserting an uninitialised one if
    /// needed. Holds the global map lock only for the lookup.
    fn service_entry(&self, service_id: &str) -> ServiceCell {
        if let Some(entry) = self.services.read().get(service_id) {
            return Arc::clone(entry);
        }
        let mut services = self.services.write();
        let config = &self.config;
        Arc::clone(services.entry(service_id.to_string()).or_insert_with(|| {
            Arc::new(ServiceEntry {
                cell: Mutex::new(None),
                gate: AdmissionGate::new(
                    config.max_in_flight,
                    config.admission_queue,
                    service_id,
                    Arc::clone(&self.telemetry),
                ),
                overrides: Mutex::new(ServiceOverrides::default()),
                evicted: Arc::new(AtomicBool::new(false)),
            })
        }))
    }

    /// Removes `entry` from the map if it is still the registered,
    /// never-initialised entry for `service_id`, so failed fetches don't
    /// accumulate empty entries. An entry another thread initialised in the
    /// meantime is left alone.
    fn discard_uninitialised(&self, service_id: &str, entry: &ServiceCell) {
        let mut services = self.services.write();
        if let Some(existing) = services.get(service_id) {
            let discard = Arc::ptr_eq(existing, entry) && existing.cell.lock().is_none();
            if discard {
                services.remove(service_id);
            }
        }
    }

    /// Plans the current slot for `state`: resolve providers, then generate
    /// (or default) the strategy.
    fn plan(
        &self,
        state: &ServiceState,
        requirement: &Requirements,
    ) -> Result<ActivePlan, RuntimeError> {
        let utility = qce_strategy::UtilityIndex::new(state.script.penalty_k).map_err(|e| {
            RuntimeError::InvalidScript {
                reason: e.to_string(),
            }
        })?;
        // Resolve each equivalent microservice to its best provider.
        // Capabilities with no live provider (device churn) are dropped
        // from this slot's plan instead of failing the whole service — the
        // gateway plans over what it has, as long as anything survives.
        let mut specs: Vec<MsSpec> = Vec::with_capacity(state.script.microservices.len());
        let mut providers: Vec<Arc<dyn Provider>> =
            Vec::with_capacity(state.script.microservices.len());
        let mut missing: Option<RuntimeError> = None;
        for spec in &state.script.microservices {
            match self.registry.best_provider(
                &spec.capability,
                &spec.prior,
                &self.collector,
                utility,
                requirement,
            ) {
                Ok(provider) => {
                    specs.push(spec.clone());
                    providers.push(provider);
                }
                Err(error @ RuntimeError::NoProvider { .. }) => {
                    if missing.is_none() {
                        missing = Some(error);
                    }
                }
                Err(error) => return Err(error),
            }
        }
        if providers.is_empty() {
            return Err(missing.expect("no providers implies a missing capability"));
        }
        let reduced_script;
        let script = if specs.len() == state.script.microservices.len() {
            &state.script
        } else {
            reduced_script = ServiceScript {
                microservices: specs,
                ..state.script.clone()
            };
            &reduced_script
        };

        let plan = state.planner.plan_slot_for(
            script,
            requirement,
            &providers,
            &self.collector,
            state.slot,
            Some(&self.telemetry),
        )?;

        Ok(ActivePlan {
            names: script.ms_names().iter().map(|s| (*s).to_string()).collect(),
            plan,
            providers,
            requirement: *requirement,
        })
    }

    /// How far the collector's QoS table has drifted from the active
    /// plan's assumed table, at the plan-cache quantization granularity
    /// (see [`env_drift`](crate::env_drift)).
    ///
    /// Returns `None` — forcing a re-plan — when there is no active plan,
    /// the effective requirement changed since the plan was synthesized
    /// (live override), or the plan's microservice set no longer maps onto
    /// the script (provider churn reshaped the service mid-slot).
    fn boundary_drift(&self, state: &ServiceState, requirement: &Requirements) -> Option<f64> {
        let active = state.active.as_ref()?;
        if active.requirement != *requirement {
            return None;
        }
        // Rebuild the QoS table the planner would assume right now over
        // the active plan's own provider set, then compare cell-by-cell.
        let mut current: Vec<qce_strategy::Qos> = Vec::with_capacity(active.providers.len());
        for (name, provider) in active.names.iter().zip(&active.providers) {
            let spec = state
                .script
                .microservices
                .iter()
                .find(|spec| &spec.name == name)?;
            let prior = crate::collector::prior_with_advertised_cost(&spec.prior, provider.cost());
            current.push(self.collector.qos_or_prior(provider.id(), &prior));
        }
        let current: EnvQos = current.into_iter().collect();
        Some(crate::generator::env_drift(
            &active.plan.assumed_env,
            &current,
            self.config.plan_quantize,
        ))
    }

    /// Forces the next invocation of `service_id` to re-plan its strategy,
    /// as if a slot boundary had been reached.
    pub fn end_slot(&self, service_id: &str) {
        let Some(entry) = self.services.read().get(service_id).map(Arc::clone) else {
            return;
        };
        let mut guard = entry.cell.lock();
        if let Some(state) = guard.as_mut() {
            if state.active.is_some() {
                state.slot += 1;
                state.invocations_in_slot = 0;
                state.active = None;
            }
        }
    }

    /// Drops `service_id`'s cached and warm-started plans after a
    /// requirement-affecting override. The memoized winners (and the
    /// incumbent pruning bars) were synthesized for the *pre-override*
    /// requirement; without this, the next slot boundary could serve one
    /// of them and quietly plan against a requirement the operator just
    /// replaced. The active slot keeps serving (overrides never re-plan
    /// mid-slot); the next boundary runs a truly cold search.
    fn invalidate_override_plans(&self, service_id: &str, entry: &ServiceEntry) {
        let guard = entry.cell.lock();
        if let Some(state) = guard.as_ref() {
            state.planner.invalidate_plans();
            if let Some(stats) = state.planner.cache_stats() {
                self.telemetry.record_plan_cache(service_id, &stats);
            }
        }
    }

    /// The per-slot planning history of `service_id` (empty if the service
    /// has not been invoked yet). Bounded by
    /// [`GatewayConfig::history_limit`]; evictions are counted in
    /// telemetry.
    #[must_use]
    pub fn slot_history(&self, service_id: &str) -> Vec<SlotRecord> {
        let Some(entry) = self.services.read().get(service_id).map(Arc::clone) else {
            return Vec::new();
        };
        let guard = entry.cell.lock();
        guard
            .as_ref()
            .map(|state| state.history.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// The strategy currently serving `service_id`, rendered with script
    /// names.
    #[must_use]
    pub fn current_strategy(&self, service_id: &str) -> Option<String> {
        let entry = self.services.read().get(service_id).map(Arc::clone)?;
        let guard = entry.cell.lock();
        let state = guard.as_ref()?;
        let active = state.active.as_ref()?;
        Some(active.plan.strategy.to_string_with_names(&active.names))
    }

    /// Drops the cached script and planning state of `service_id` (e.g.
    /// after publishing an updated script to the market). Any cached plans
    /// were computed for the evicted script, so the planner's cache is
    /// invalidated first and the dropped entries are surfaced as stale in
    /// telemetry.
    ///
    /// Requests in flight at eviction time are cancelled through their
    /// budgets: every strategy leg that has not started is pruned, the
    /// request completes with whatever its started legs produced, and its
    /// response carries [`PruneReason::Cancelled`]. The planning state is
    /// *taken* out of the entry (not merely dropped with it), so the cache
    /// invalidation and its telemetry flush happen exactly once even when
    /// in-flight requests still hold the entry.
    pub fn evict_service(&self, service_id: &str) {
        let entry = self.services.write().remove(service_id);
        if let Some(entry) = entry {
            entry.evicted.store(true, Ordering::SeqCst);
            let state = entry.cell.lock().take();
            if let Some(state) = state {
                state.planner.invalidate();
                if let Some(stats) = state.planner.cache_stats() {
                    self.telemetry.record_plan_cache(service_id, &stats);
                }
            }
        }
    }

    /// Device churn: a provider left the environment mid-run. It is
    /// deregistered and its collector window is reset (stale observations
    /// must not outlive the device — when it later re-joins, its history
    /// starts fresh). Requests already holding the provider keep their
    /// `Arc` and run to completion per Assumption 2; subsequent slots
    /// re-resolve providers and will no longer select it.
    ///
    /// Returns `true` if the provider was registered. Emits an
    /// [`EventKind::ProviderLeft`](crate::EventKind::ProviderLeft) marker
    /// only when something was actually removed, so repeated departures
    /// are not double-counted.
    pub fn provider_left(&self, provider_id: &str) -> bool {
        let removed = self.registry.deregister(provider_id);
        if removed {
            self.collector.reset(provider_id);
            self.telemetry.record_provider_left(provider_id);
        }
        removed
    }

    /// Device churn: a provider joined (or re-joined) the environment. It
    /// becomes eligible at the next provider resolution — in-flight
    /// requests keep the providers their plan resolved. The collector
    /// window is reset so decisions about the re-joined device start from
    /// its advertised prior rather than pre-departure history.
    pub fn provider_joined(&self, provider: Arc<dyn Provider>) {
        let id = provider.id().to_string();
        self.collector.reset(&id);
        self.registry.register(provider);
        self.telemetry.record_provider_rejoined(&id);
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        // Queued admissions first: nobody will ever grant them, so their
        // wakers fail the handles with `Shutdown` instead of leaving
        // waiters parked forever. (Every queued ticket is asynchronous: a
        // blocking submitter borrows the gateway, so it cannot drop.)
        let entries: Vec<ServiceCell> = self.services.read().values().map(Arc::clone).collect();
        for entry in entries {
            for waker in entry.gate.drain() {
                waker(AdmitOutcome::Shutdown);
            }
        }
        // Then the core: in-flight async requests resolve with `Shutdown`,
        // the loop threads observe the flag and exit, and blocking leaves
        // still running on the pool release their orphaned clock slots when
        // they post into the shut-down core.
        self.core.shutdown();
        // A continuation on a loop thread can hold the last reference (it
        // upgrades its weak gateway while it runs); that loop is exiting
        // and must not join itself.
        let current = std::thread::current().id();
        for handle in self.loops.lock().drain(..) {
            if handle.thread().id() != current {
                let _ = handle.join();
            }
        }
    }
}

/// What an asynchronous request resolved to, parked in its handle until
/// the submitter collects it.
enum HandleResult {
    // Boxed: a `ServiceResponse` dwarfs the panic payload, and the slot
    // holds the variant until the submitter collects it.
    Done(Box<Result<ServiceResponse, RuntimeError>>),
    Panicked(PanicPayload),
}

/// A one-shot slot one thread parks on until another fills it: an
/// asynchronous request's [`RequestHandle`] (`T` = [`HandleResult`]), or a
/// blocking caller queued for admission (`T` = [`AdmitOutcome`]). The
/// first `finish` wins; later calls (e.g. a shutdown guard racing a
/// preemption result) are ignored.
struct HandleShared<T> {
    clock: Arc<dyn Clock>,
    slot: StdMutex<Option<T>>,
    done: Condvar,
}

impl<T> HandleShared<T> {
    fn new(clock: Arc<dyn Clock>) -> Self {
        HandleShared {
            clock,
            slot: StdMutex::new(None),
            done: Condvar::new(),
        }
    }

    fn finish(&self, value: T) {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(value);
            drop(slot);
            self.done.notify_all();
        }
    }

    fn take(&self) -> Option<T> {
        self.slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    /// Parks until the slot is filled. The wait is a plain OS condvar, not
    /// a clock sleep: an unregistered caller stays invisible to
    /// [`VirtualClock`](crate::VirtualClock) accounting, and a caller that
    /// **is** a registered clock worker (e.g. a load generator that pins
    /// its client threads to virtual time) is marked passive for the
    /// duration, so its wait never stalls the virtual time the filler
    /// needs.
    fn wait(&self) -> T {
        let registered = self.clock.thread_is_worker();
        if registered {
            self.clock.enter_passive();
        }
        let value = {
            let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(value) = slot.take() {
                    break value;
                }
                slot = self.done.wait(slot).unwrap_or_else(PoisonError::into_inner);
            }
        };
        if registered {
            self.clock.exit_passive();
        }
        value
    }
}

impl HandleShared<HandleResult> {
    fn resolve(&self, result: Result<ServiceResponse, RuntimeError>) {
        self.finish(HandleResult::Done(Box::new(result)));
    }
}

impl<T> std::fmt::Debug for HandleShared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandleShared").finish_non_exhaustive()
    }
}

/// Guards an asynchronous request's handle against being orphaned: drops
/// on any path that forgets to resolve the handle (a continuation discarded
/// by a shutting-down core, a panic between admission and submission) fail
/// it with [`RuntimeError::Shutdown`] so [`RequestHandle::wait`] can never
/// park forever. Explicit finishes consume the guard.
struct FinishGuard {
    shared: Option<Arc<HandleShared<HandleResult>>>,
}

impl FinishGuard {
    fn new(shared: Arc<HandleShared<HandleResult>>) -> Self {
        FinishGuard {
            shared: Some(shared),
        }
    }

    fn finish(mut self, result: Result<ServiceResponse, RuntimeError>) {
        if let Some(shared) = self.shared.take() {
            shared.resolve(result);
        }
    }

    fn finish_panic(mut self, panic: PanicPayload) {
        if let Some(shared) = self.shared.take() {
            shared.finish(HandleResult::Panicked(panic));
        }
    }
}

impl Drop for FinishGuard {
    fn drop(&mut self) {
        if let Some(shared) = self.shared.take() {
            shared.resolve(Err(RuntimeError::Shutdown));
        }
    }
}

/// A pending asynchronous request, returned by [`Gateway::submit_async`].
///
/// The handle is detached from the request's execution: dropping it does
/// not cancel the request (its deadline and admission bounds still
/// apply), and [`RequestHandle::wait`] merely parks until the event loop
/// resolves it.
#[derive(Debug)]
pub struct RequestHandle {
    request_id: u64,
    class: QosClass,
    shared: Arc<HandleShared<HandleResult>>,
}

impl RequestHandle {
    /// The request id the response will carry.
    #[must_use]
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// The traffic class the request was admitted under.
    #[must_use]
    pub fn class(&self) -> QosClass {
        self.class
    }

    /// Returns the resolved response without blocking, or the handle back
    /// if the request is still pending.
    ///
    /// # Errors
    ///
    /// As [`RequestHandle::wait`], once resolved.
    pub fn try_wait(self) -> Result<Result<ServiceResponse, RuntimeError>, Self> {
        match self.shared.take() {
            Some(resolved) => Ok(Self::unpack(resolved)),
            None => Err(self),
        }
    }

    /// Parks until the request resolves and returns its response.
    ///
    /// A caller registered as a worker of the gateway's clock is marked
    /// passive for the duration of the wait (exactly as a blocking submit
    /// queued for admission is), so waiting on a handle never stalls the
    /// virtual time its own request needs to complete.
    ///
    /// If a provider panicked during the request, the panic resumes here,
    /// on the thread that collects the result — the event loop itself is
    /// never poisoned.
    ///
    /// # Errors
    ///
    /// Any error [`Gateway::submit`] can return, plus
    /// [`RuntimeError::Shutdown`] when the gateway was dropped before the
    /// request resolved and [`RuntimeError::DeadlineExceeded`] when the
    /// deadline expired while the request was still queued.
    pub fn wait(self) -> Result<ServiceResponse, RuntimeError> {
        Self::unpack(self.shared.wait())
    }

    fn unpack(resolved: HandleResult) -> Result<ServiceResponse, RuntimeError> {
        match resolved {
            HandleResult::Done(result) => *result,
            HandleResult::Panicked(panic) => std::panic::resume_unwind(panic),
        }
    }
}

/// Handle for live per-service overrides, obtained from
/// [`Gateway::control`].
///
/// Overrides retune a service mid-slot — no re-plan, no re-fetch. They
/// fill request fields that were not set explicitly (see the resolution
/// order on [`Gateway::submit`]) and apply from the next admission
/// decision on; requests already admitted are unaffected. Each setter
/// records exactly one telemetry event, so an operator replaying the
/// event ring can reconstruct the full override history.
///
/// # Examples
///
/// ```no_run
/// use qce_runtime::{Gateway, GatewayConfig, InMemoryMarket, QosClass};
///
/// let gateway = Gateway::new(Box::new(InMemoryMarket::new()), GatewayConfig::default());
/// gateway.control().set_class("temp", QosClass::Critical);
/// ```
#[derive(Debug)]
pub struct GatewayControl<'a> {
    gateway: &'a Gateway,
}

impl GatewayControl<'_> {
    /// Overrides the traffic class of `service_id` for every subsequent
    /// request that does not set one explicitly. The class default
    /// requirement changes what planning must satisfy, so the service's
    /// cached/warm-started plans are invalidated: the next slot boundary
    /// re-plans cold for the new class.
    pub fn set_class(&self, service_id: &str, class: QosClass) {
        let entry = self.gateway.service_entry(service_id);
        entry.overrides.lock().class = Some(class);
        self.gateway.invalidate_override_plans(service_id, &entry);
        self.gateway
            .telemetry
            .record_override(service_id, "class", &class.to_string());
    }

    /// Overrides the per-request deadline of `service_id` (`None` clears a
    /// previous override, falling back to the gateway configuration and
    /// the class default).
    pub fn set_deadline(&self, service_id: &str, deadline: Option<Duration>) {
        let entry = self.gateway.service_entry(service_id);
        entry.overrides.lock().deadline = deadline;
        let value = deadline.map_or_else(|| "none".to_string(), |d| format!("{}ms", d.as_millis()));
        self.gateway
            .telemetry
            .record_override(service_id, "deadline", &value);
    }

    /// Overrides the QoS requirement requests of `service_id` are judged
    /// against (the response advisory reports violations of this
    /// requirement instead of the script's) — and that slot planning must
    /// satisfy from the next boundary on. Plans cached or warm-started
    /// under the old requirement are invalidated so the next re-plan runs
    /// cold against the new one.
    pub fn set_requirement(&self, service_id: &str, requirement: Requirements) {
        let entry = self.gateway.service_entry(service_id);
        entry.overrides.lock().requirement = Some(requirement);
        self.gateway.invalidate_override_plans(service_id, &entry);
        self.gateway
            .telemetry
            .record_override(service_id, "requirement", &requirement.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimulatedProvider;
    use crate::market::InMemoryMarket;
    use crate::script::MsSpec;
    use qce_strategy::Requirements;

    fn market_with(script: ServiceScript) -> Box<dyn Market> {
        let market = InMemoryMarket::new();
        market.publish(script).unwrap();
        Box::new(market)
    }

    fn script(slot_size: u32) -> ServiceScript {
        let mut s = ServiceScript::new(
            "temp",
            vec![
                MsSpec {
                    name: "readTempSensor".into(),
                    capability: "read-temp".into(),
                    prior: Qos::new(50.0, 5.0, 0.7).unwrap(),
                },
                MsSpec {
                    name: "estTemp".into(),
                    capability: "est-temp".into(),
                    prior: Qos::new(50.0, 8.0, 0.7).unwrap(),
                },
                MsSpec {
                    name: "readLocTemp".into(),
                    capability: "loc-temp".into(),
                    prior: Qos::new(50.0, 12.0, 0.7).unwrap(),
                },
            ],
            Requirements::new(100.0, 100.0, 0.97).unwrap(),
        );
        s.slot_size = slot_size;
        s
    }

    fn register_devices(gateway: &Gateway, reliability: f64) {
        for (i, (cap, ms)) in [("read-temp", 2u64), ("est-temp", 3), ("loc-temp", 5)]
            .iter()
            .enumerate()
        {
            gateway.registry().register(
                SimulatedProvider::builder(format!("dev{i}/{cap}"), *cap)
                    .cost(50.0)
                    .latency(Duration::from_millis(*ms))
                    .reliability(reliability)
                    .seed(i as u64)
                    .build(),
            );
        }
    }

    #[test]
    fn unknown_service_is_reported() {
        let gateway = Gateway::new(Box::new(InMemoryMarket::new()), GatewayConfig::default());
        assert!(matches!(
            gateway.submit(Request::new("nope")),
            Err(RuntimeError::UnknownService { .. })
        ));
    }

    #[test]
    fn missing_provider_is_reported() {
        let gateway = Gateway::new(market_with(script(10)), GatewayConfig::default());
        assert!(matches!(
            gateway.submit(Request::new("temp")),
            Err(RuntimeError::NoProvider { .. })
        ));
    }

    #[test]
    fn first_slot_runs_speculative_parallel_default() {
        let gateway = Gateway::new(market_with(script(10)), GatewayConfig::default());
        register_devices(&gateway, 1.0);
        let response = gateway.submit(Request::new("temp")).unwrap();
        assert!(response.success);
        assert_eq!(response.slot, 0);
        assert_eq!(response.origin, StrategyOrigin::Default);
        assert!(response.strategy.is_parallel());
        assert_eq!(response.strategy_text, "readTempSensor*estTemp*readLocTemp");
        assert_eq!(response.cost, 150.0, "parallel default charges everyone");
    }

    #[test]
    fn second_slot_generates_from_observations() {
        let gateway = Gateway::new(market_with(script(5)), GatewayConfig::default());
        register_devices(&gateway, 1.0);
        for _ in 0..5 {
            gateway.submit(Request::new("temp")).unwrap();
        }
        let response = gateway.submit(Request::new("temp")).unwrap();
        assert_eq!(response.slot, 1);
        assert!(matches!(response.origin, StrategyOrigin::Generated(_)));
        // With perfectly reliable observed providers, fail-over on the best
        // one dominates: cost collapses to a single invocation.
        assert_eq!(response.cost, 50.0, "generated strategy avoids redundancy");
        let history = gateway.slot_history("temp");
        assert_eq!(history.len(), 2);
        assert_eq!(history[0].origin, StrategyOrigin::Default);
    }

    #[test]
    fn slot_boundary_respects_slot_size() {
        let gateway = Gateway::new(market_with(script(3)), GatewayConfig::default());
        register_devices(&gateway, 1.0);
        let slots: Vec<u64> = (0..7)
            .map(|_| gateway.submit(Request::new("temp")).unwrap().slot)
            .collect();
        assert_eq!(slots, vec![0, 0, 0, 1, 1, 1, 2]);
    }

    #[test]
    fn end_slot_forces_replan() {
        let gateway = Gateway::new(market_with(script(100)), GatewayConfig::default());
        register_devices(&gateway, 1.0);
        gateway.submit(Request::new("temp")).unwrap();
        assert_eq!(gateway.slot_history("temp").len(), 1);
        gateway.end_slot("temp");
        let response = gateway.submit(Request::new("temp")).unwrap();
        assert_eq!(response.slot, 1);
        assert_eq!(gateway.slot_history("temp").len(), 2);
    }

    #[test]
    fn advisory_reported_when_requirements_unreachable() {
        // Impossible requirements: reliability 99.9% from 50%-reliable
        // microservices costs more than the cost budget allows.
        let mut s = script(5);
        s.requirements = Requirements::new(10.0, 1.0, 0.999).unwrap();
        let gateway = Gateway::new(market_with(s), GatewayConfig::default());
        register_devices(&gateway, 0.5);
        for _ in 0..5 {
            let _ = gateway.submit(Request::new("temp")).unwrap();
        }
        let response = gateway.submit(Request::new("temp")).unwrap();
        let advisory = response.advisory.expect("requirements cannot be met");
        assert!(!advisory.violations.is_empty());
    }

    #[test]
    fn current_strategy_uses_names() {
        let gateway = Gateway::new(market_with(script(10)), GatewayConfig::default());
        register_devices(&gateway, 1.0);
        assert!(gateway.current_strategy("temp").is_none());
        gateway.submit(Request::new("temp")).unwrap();
        let text = gateway.current_strategy("temp").unwrap();
        assert!(text.contains("readTempSensor"), "{text}");
    }

    #[test]
    fn evict_service_forces_refetch() {
        let market = InMemoryMarket::new();
        market.publish(script(10)).unwrap();
        let gateway = Gateway::new(Box::new(market), GatewayConfig::default());
        register_devices(&gateway, 1.0);
        gateway.submit(Request::new("temp")).unwrap();
        gateway.evict_service("temp");
        assert!(gateway.slot_history("temp").is_empty());
        let response = gateway.submit(Request::new("temp")).unwrap();
        assert_eq!(response.slot, 0, "state restarted");
    }

    #[test]
    fn collector_fills_during_first_slot() {
        let gateway = Gateway::new(market_with(script(10)), GatewayConfig::default());
        register_devices(&gateway, 1.0);
        gateway.submit(Request::new("temp")).unwrap();
        // The parallel default invoked every provider once.
        assert_eq!(gateway.collector().provider_ids().len(), 3);
    }

    #[test]
    fn quorum_script_votes_and_costs_double() {
        let mut s = script(10);
        s.quorum = Some(2);
        let gateway = Gateway::new(market_with(s), GatewayConfig::default());
        register_devices(&gateway, 1.0);
        let response = gateway.submit(Request::new("temp")).unwrap();
        assert!(response.success);
        let (votes, cast) = response.votes.expect("quorum execution reports votes");
        assert!(votes >= 2, "votes {votes}");
        assert!(cast >= votes);
    }

    #[test]
    fn failed_request_still_reports() {
        let gateway = Gateway::new(market_with(script(10)), GatewayConfig::default());
        register_devices(&gateway, 0.0);
        let response = gateway.submit(Request::new("temp")).unwrap();
        assert!(!response.success);
        assert!(response.payload.is_none());
        assert_eq!(response.cost, 150.0, "all three tried and failed");
    }

    #[test]
    fn failed_replan_does_not_serve_stale_plan() {
        // Regression: every provider departs right at a slot boundary.
        // plan() fails after the slot counter was bumped; the previous
        // slot's plan must NOT keep serving the new slot once planning
        // becomes possible again.
        let gateway = Gateway::new(market_with(script(2)), GatewayConfig::default());
        register_devices(&gateway, 1.0);
        gateway.submit(Request::new("temp")).unwrap();
        gateway.submit(Request::new("temp")).unwrap(); // slot 0 exhausted

        assert!(gateway.registry().deregister("dev0/read-temp"));
        assert!(gateway.registry().deregister("dev1/est-temp"));
        assert!(gateway.registry().deregister("dev2/loc-temp"));
        let error = gateway.submit(Request::new("temp")).unwrap_err();
        assert!(matches!(error, RuntimeError::NoProvider { .. }));
        gateway.registry().register(
            SimulatedProvider::builder("dev1/est-temp", "est-temp")
                .cost(50.0)
                .latency(Duration::from_millis(3))
                .reliability(1.0)
                .build(),
        );
        gateway.registry().register(
            SimulatedProvider::builder("dev2/loc-temp", "loc-temp")
                .cost(50.0)
                .latency(Duration::from_millis(5))
                .reliability(1.0)
                .build(),
        );

        // The device comes back; the very next invocation must re-plan for
        // slot 1 instead of replaying slot 0's strategy.
        gateway.registry().register(
            SimulatedProvider::builder("dev0/read-temp", "read-temp")
                .cost(50.0)
                .latency(Duration::from_millis(2))
                .reliability(1.0)
                .build(),
        );
        let response = gateway.submit(Request::new("temp")).unwrap();
        assert_eq!(response.slot, 1);
        assert!(
            matches!(response.origin, StrategyOrigin::Generated(_)),
            "slot 1 must be freshly planned, got {:?}",
            response.origin
        );
        let history = gateway.slot_history("temp");
        assert_eq!(history.len(), 2, "one record per planned slot");
        assert_eq!(history[1].slot, 1);

        let snapshot = gateway.telemetry().snapshot();
        let svc = snapshot.service("temp").unwrap();
        assert_eq!(svc.plan_failures, 1);
        assert!(gateway.telemetry().events().iter().any(|e| matches!(
            &e.kind,
            crate::telemetry::EventKind::ProviderResolutionFailed { service, slot, .. }
                if service == "temp" && *slot == 1
        )));
    }

    #[test]
    fn plan_degrades_to_surviving_microservices_when_one_capability_is_gone() {
        // Device churn: losing one capability must not take the whole
        // service down — the next slot plans over what it still has.
        let gateway = Gateway::new(market_with(script(2)), GatewayConfig::default());
        register_devices(&gateway, 1.0);
        gateway.submit(Request::new("temp")).unwrap();
        gateway.submit(Request::new("temp")).unwrap(); // slot 0 exhausted

        assert!(gateway.provider_left("dev0/read-temp"));
        let response = gateway.submit(Request::new("temp")).unwrap();
        assert!(response.success);
        assert_eq!(response.slot, 1);
        assert!(
            !response.strategy_text.contains("readTempSensor"),
            "departed capability must not appear in the plan: {}",
            response.strategy_text
        );
        assert!(
            response.strategy_text.contains("estTemp")
                || response.strategy_text.contains("readLocTemp"),
            "plan must use surviving microservices: {}",
            response.strategy_text
        );

        // The device rejoins; the following slot may use it again.
        gateway.provider_joined(
            SimulatedProvider::builder("dev0/read-temp", "read-temp")
                .cost(50.0)
                .latency(Duration::from_millis(2))
                .reliability(1.0)
                .build(),
        );
        gateway.submit(Request::new("temp")).unwrap(); // slot 1 exhausted
        let response = gateway.submit(Request::new("temp")).unwrap();
        assert!(response.success);
        assert_eq!(response.slot, 2);
        let snapshot = gateway.telemetry().snapshot();
        let provider = snapshot.provider("dev0/read-temp").unwrap();
        assert_eq!(provider.departures, 1);
        assert_eq!(provider.rejoins, 1);
    }

    #[test]
    fn history_is_bounded_and_evictions_are_counted() {
        let config = GatewayConfig::builder().history_limit(3).build();
        let gateway = Gateway::new(market_with(script(1)), config);
        register_devices(&gateway, 1.0);
        for _ in 0..10 {
            gateway.submit(Request::new("temp")).unwrap();
        }
        let history = gateway.slot_history("temp");
        assert_eq!(history.len(), 3, "ring keeps only the newest records");
        let slots: Vec<u64> = history.iter().map(|r| r.slot).collect();
        assert_eq!(slots, vec![7, 8, 9], "oldest slots were evicted first");
        let snapshot = gateway.telemetry().snapshot();
        assert_eq!(snapshot.service("temp").unwrap().history_evicted, 7);
    }

    /// Builds a virtual-clock gateway with three perfectly reliable
    /// providers (bit-reproducible latencies), for the drift-trigger
    /// tests.
    fn drift_gateway(config: GatewayConfig, reliability: f64) -> Gateway {
        use crate::clock::VirtualClock;
        let clock = Arc::new(VirtualClock::new());
        let gateway = Gateway::with_clock(
            market_with(script(1)),
            config,
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        for (i, (cap, ms)) in [("read-temp", 2u64), ("est-temp", 3), ("loc-temp", 5)]
            .iter()
            .enumerate()
        {
            gateway.registry().register(
                SimulatedProvider::builder(format!("dev{i}/{cap}"), *cap)
                    .cost(50.0)
                    .latency(Duration::from_millis(*ms))
                    .reliability(reliability)
                    .seed(i as u64)
                    .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                    .build(),
            );
        }
        gateway
    }

    #[test]
    fn drift_trigger_holds_stable_plans() {
        use crate::telemetry::EventKind;
        // Virtual time: after the priors-vs-observations jump at slot 1,
        // the assumed environment is bit-identical at every boundary, so
        // drift mode plans exactly twice and holds the rest.
        let config = GatewayConfig::builder().replan_on_drift(true).build();
        let gateway = drift_gateway(config, 1.0);
        let slots: Vec<u64> = (0..6)
            .map(|_| gateway.submit(Request::new("temp")).unwrap().slot)
            .collect();
        assert_eq!(slots, vec![0, 1, 2, 3, 4, 5], "slots still advance");
        let snapshot = gateway.telemetry().snapshot();
        let svc = snapshot.service("temp").unwrap();
        assert_eq!(svc.replans, 2, "slot 0 default + the slot-1 drift");
        assert_eq!(svc.drift_replans, 1, "only slot 1 left the band");
        assert_eq!(svc.drift_holds, 4, "slots 2-5 held the generated plan");
        let triggers: Vec<(u64, f64)> = snapshot
            .recent_events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::ReplanTriggered { slot, drift, .. } => Some((*slot, *drift)),
                _ => None,
            })
            .collect();
        assert_eq!(triggers.len(), 1);
        assert_eq!(triggers[0].0, 1);
        assert!(triggers[0].1 > 0.0 && triggers[0].1 <= 1.0);
        // The cadence baseline re-plans at all six boundaries.
        let cadence = drift_gateway(GatewayConfig::default(), 1.0);
        for _ in 0..6 {
            cadence.submit(Request::new("temp")).unwrap();
        }
        let base = cadence.telemetry().snapshot();
        assert_eq!(base.service("temp").unwrap().replans, 6);
    }

    #[test]
    fn drift_trigger_fires_on_unstable_observations() {
        // Flaky providers (seeded, deterministic): the collector's
        // reliability mean moves between boundaries, so drift mode keeps
        // re-planning instead of holding a stale plan.
        let config = GatewayConfig::builder().replan_on_drift(true).build();
        let gateway = drift_gateway(config, 0.5);
        for _ in 0..8 {
            let _ = gateway.submit(Request::new("temp"));
        }
        let snapshot = gateway.telemetry().snapshot();
        let svc = snapshot.service("temp").unwrap();
        assert!(
            svc.drift_replans >= 2,
            "unstable observations must keep tripping the trigger \
             (drift_replans={}, drift_holds={})",
            svc.drift_replans,
            svc.drift_holds
        );
    }

    #[test]
    fn drift_hold_never_survives_a_requirement_override() {
        // A zero-drift boundary must still re-plan when a live override
        // changed the effective requirement: the held plan was synthesized
        // for a demand the operator just replaced.
        let config = GatewayConfig::builder().replan_on_drift(true).build();
        let gateway = drift_gateway(config, 1.0);
        for _ in 0..4 {
            gateway.submit(Request::new("temp")).unwrap();
        }
        let before = gateway.telemetry().snapshot();
        let before_svc = before.service("temp").unwrap();
        assert_eq!(before_svc.replans, 2, "steady state: holding");
        gateway
            .control()
            .set_requirement("temp", Requirements::new(500.0, 500.0, 0.5).unwrap());
        gateway.submit(Request::new("temp")).unwrap();
        let after = gateway.telemetry().snapshot();
        let after_svc = after.service("temp").unwrap();
        assert_eq!(
            after_svc.replans,
            before_svc.replans + 1,
            "the override boundary re-planned despite zero drift"
        );
    }

    #[test]
    fn drift_and_bandit_replay_byte_identical_telemetry() {
        use crate::telemetry::EventKind;
        // Satellite property: the whole adaptive stack — drift trigger +
        // UCB1 backend bandit — is deterministic. Two identical runs must
        // produce byte-identical telemetry event streams once the one
        // wall-clock field (synthesis elapsed) is zeroed.
        let run = || {
            let config = GatewayConfig::builder()
                .replan_on_drift(true)
                .planner(qce_strategy::BackendChoice::Auto)
                .generator_parallelism(1)
                .build();
            let gateway = drift_gateway(config, 0.5);
            for _ in 0..10 {
                let _ = gateway.submit(Request::new("temp"));
            }
            let events: Vec<crate::telemetry::TelemetryEvent> = gateway
                .telemetry()
                .events()
                .iter()
                .cloned()
                .map(|mut e| {
                    if let EventKind::SlotReplanned { elapsed, .. } = &mut e.kind {
                        *elapsed = Duration::ZERO;
                    }
                    e
                })
                .collect();
            serde_json::to_string(&events).unwrap()
        };
        let first = run();
        let second = run();
        assert_eq!(first, second, "replayed telemetry streams diverged");
        // The streams exercise the new adaptive events, not a vacuous
        // equality of empty rings.
        let events: Vec<crate::telemetry::TelemetryEvent> = serde_json::from_str(&first).unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::BackendChosen { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::ReplanTriggered { .. })));
    }

    #[test]
    fn plan_cache_and_warm_start_surface_in_telemetry() {
        use crate::clock::VirtualClock;
        use crate::telemetry::EventKind;
        use qce_strategy::PlanSource;

        // Virtual time makes provider latencies exactly reproducible, so
        // the collector means — and with them the assumed environment —
        // are bit-identical from slot to slot: the plan cache must hit.
        let clock = Arc::new(VirtualClock::new());
        let config = GatewayConfig::builder()
            .generator_warm_start(true)
            .plan_cache(true)
            .build();
        let gateway = Gateway::with_clock(
            market_with(script(1)),
            config,
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        for (i, (cap, ms)) in [("read-temp", 2u64), ("est-temp", 3), ("loc-temp", 5)]
            .iter()
            .enumerate()
        {
            gateway.registry().register(
                SimulatedProvider::builder(format!("dev{i}/{cap}"), *cap)
                    .cost(50.0)
                    .latency(Duration::from_millis(*ms))
                    .reliability(1.0)
                    .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                    .build(),
            );
        }
        for _ in 0..6 {
            assert!(gateway.submit(Request::new("temp")).unwrap().success);
        }
        let snapshot = gateway.telemetry().snapshot();
        let svc = snapshot.service("temp").unwrap();
        assert_eq!(svc.replans, 6, "slot_size 1: one re-plan per invocation");
        assert_eq!(svc.plans_cold, 1, "slot 1 is the first real search");
        assert_eq!(
            svc.plans_cached, 4,
            "slots 2-5 see a bit-identical environment"
        );
        assert_eq!(svc.plan_cache_hits, 4);
        assert_eq!(svc.plan_cache_misses, 1);
        // The replan events carry the provenance (None for slot 0's
        // unsearched default).
        let sources: Vec<Option<PlanSource>> = snapshot
            .recent_events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::SlotReplanned { source, .. } => Some(*source),
                _ => None,
            })
            .collect();
        assert_eq!(sources[0], None);
        assert_eq!(sources[1], Some(PlanSource::Cold));
        assert!(sources[2..].iter().all(|s| *s == Some(PlanSource::Cached)));
        // Eviction invalidates the cache and surfaces the drop as stale.
        gateway.evict_service("temp");
        let snapshot = gateway.telemetry().snapshot();
        let svc = snapshot.service("temp").unwrap();
        assert!(svc.plan_cache_stale >= 1, "evicted entries counted stale");
    }

    /// A gate the tests use to hold a provider open until released, with a
    /// count of how many invocations have entered it.
    struct TestGate {
        state: StdMutex<(bool, u32)>,
        cond: Condvar,
    }

    impl TestGate {
        fn new() -> Arc<Self> {
            Arc::new(TestGate {
                state: StdMutex::new((false, 0)),
                cond: Condvar::new(),
            })
        }

        /// Blocks the calling provider until [`TestGate::open`], counting it
        /// as entered first.
        fn enter(&self) {
            let mut state = self.state.lock().unwrap();
            state.1 += 1;
            self.cond.notify_all();
            while !state.0 {
                state = self.cond.wait(state).unwrap();
            }
        }

        /// Waits until `n` provider invocations are blocked inside the gate.
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

    fn one_ms_script() -> ServiceScript {
        let mut s = ServiceScript::new(
            "svc",
            vec![MsSpec {
                name: "a".into(),
                capability: "cap-a".into(),
                prior: Qos::new(50.0, 5.0, 0.9).unwrap(),
            }],
            Requirements::new(1000.0, 1000.0, 0.5).unwrap(),
        );
        s.slot_size = 100;
        s
    }

    /// Two microservices with the sequential fail-over default `a-b`, so a
    /// budget tripping between the legs has something left to prune.
    fn seq_script() -> ServiceScript {
        let mut s = ServiceScript::new(
            "svc",
            vec![
                MsSpec {
                    name: "a".into(),
                    capability: "cap-a".into(),
                    prior: Qos::new(50.0, 5.0, 0.9).unwrap(),
                },
                MsSpec {
                    name: "b".into(),
                    capability: "cap-b".into(),
                    prior: Qos::new(50.0, 5.0, 0.9).unwrap(),
                },
            ],
            Requirements::new(1000.0, 1000.0, 0.5).unwrap(),
        );
        s.default_strategy = Some("a-b".to_string());
        s.slot_size = 100;
        s
    }

    #[test]
    fn concurrent_invocations_of_one_service_run_in_parallel() {
        use std::sync::Barrier;

        let gateway = Gateway::new(market_with(one_ms_script()), GatewayConfig::default());
        // Both invocations must be inside the provider at the same moment,
        // or the barrier never releases and the test hangs.
        let rendezvous = Arc::new(Barrier::new(2));
        let barrier = Arc::clone(&rendezvous);
        gateway.registry().register(crate::device::FnProvider::new(
            "dev-a",
            "cap-a",
            10.0,
            move |_| {
                barrier.wait();
                Ok(vec![1])
            },
        ));
        std::thread::scope(|scope| {
            let a = scope.spawn(|| gateway.submit(Request::new("svc")).unwrap());
            let b = scope.spawn(|| gateway.submit(Request::new("svc")).unwrap());
            assert!(a.join().unwrap().success);
            assert!(b.join().unwrap().success);
        });
        let snapshot = gateway.telemetry().snapshot();
        assert_eq!(snapshot.service("svc").unwrap().invocations, 2);
    }

    #[test]
    fn admission_sheds_past_the_queue_and_counts_it() {
        let config = GatewayConfig::builder()
            .max_in_flight(1)
            .admission_queue(0)
            .build();
        let gateway = Gateway::new(market_with(one_ms_script()), config);
        let gate = TestGate::new();
        let provider_gate = Arc::clone(&gate);
        gateway.registry().register(crate::device::FnProvider::new(
            "dev-a",
            "cap-a",
            10.0,
            move |_| {
                provider_gate.enter();
                Ok(vec![1])
            },
        ));
        std::thread::scope(|scope| {
            let running = scope.spawn(|| gateway.submit(Request::new("svc")).unwrap());
            gate.await_entered(1);
            // The service is at its limit with no queue: shed immediately.
            let shed = gateway.submit(Request::new("svc"));
            assert!(matches!(shed, Err(RuntimeError::Overloaded { .. })));
            gate.open();
            assert!(running.join().unwrap().success);
        });
        let snapshot = gateway.telemetry().snapshot();
        let svc = snapshot.service("svc").unwrap();
        assert_eq!(svc.requests_shed, 1);
        assert_eq!(svc.invocations, 1, "the shed request never executed");
        assert!(gateway.telemetry().events().iter().any(|e| matches!(
            &e.kind,
            crate::telemetry::EventKind::RequestShed {
                service,
                class,
                in_flight,
                queued,
            } if service == "svc"
                && *class == QosClass::Interactive
                && *in_flight == 1
                && *queued == 0
        )));
    }

    #[test]
    fn queued_request_waits_for_a_slot_and_proceeds() {
        let config = GatewayConfig::builder()
            .max_in_flight(1)
            .admission_queue(4)
            .build();
        let gateway = Gateway::new(market_with(one_ms_script()), config);
        let gate = TestGate::new();
        let provider_gate = Arc::clone(&gate);
        gateway.registry().register(crate::device::FnProvider::new(
            "dev-a",
            "cap-a",
            10.0,
            move |_| {
                provider_gate.enter();
                Ok(vec![1])
            },
        ));
        std::thread::scope(|scope| {
            let first = scope.spawn(|| gateway.submit(Request::new("svc")).unwrap());
            gate.await_entered(1);
            let queued = scope.spawn(|| gateway.submit(Request::new("svc")).unwrap());
            // Wait until the second request is visibly parked in the
            // admission queue before releasing the first.
            while gateway
                .telemetry()
                .snapshot()
                .service("svc")
                .map_or(0, |s| s.admission_queue_peak)
                < 1
            {
                std::thread::yield_now();
            }
            gate.open();
            assert!(first.join().unwrap().success);
            assert!(queued.join().unwrap().success);
        });
        let snapshot = gateway.telemetry().snapshot();
        let svc = snapshot.service("svc").unwrap();
        assert_eq!(svc.requests_shed, 0, "the queue absorbed the burst");
        assert_eq!(svc.admission_queue_peak, 1);
        assert_eq!(svc.admission_queue_depth, 0, "queue drained");
        assert_eq!(svc.invocations, 2);
    }

    /// The asynchronous twin of `queued_request_waits_for_a_slot_and_proceeds`.
    /// Bugfix regression: a ticket granted a slot or preempted out of the
    /// queue used to leave without reporting the new queue depth, so the
    /// service and class gauges stayed stuck above zero at quiescence.
    #[test]
    fn queued_async_request_waits_for_a_slot_and_gauges_drain() {
        use crate::clock::{VirtualClock, WorkerGuard};

        let gateway_with = |admission_queue: usize| {
            let clock = Arc::new(VirtualClock::new());
            let config = GatewayConfig::builder()
                .max_in_flight(1)
                .admission_queue(admission_queue)
                .build();
            let gateway = Arc::new(Gateway::with_clock(
                market_with(one_ms_script()),
                config,
                Arc::clone(&clock) as Arc<dyn Clock>,
            ));
            gateway.registry().register(
                SimulatedProvider::builder("dev/cap-a", "cap-a")
                    .cost(50.0)
                    .latency(Duration::from_millis(5))
                    .reliability(1.0)
                    .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                    .build(),
            );
            (clock, gateway)
        };
        let assert_drained = |gateway: &Gateway, classes: &[QosClass]| {
            let snapshot = gateway.telemetry().snapshot();
            let svc = snapshot.service("svc").unwrap();
            assert_eq!(svc.admission_queue_peak, 1);
            assert_eq!(svc.admission_queue_depth, 0, "service gauge drained");
            for &class in classes {
                let row = svc.class(class).unwrap();
                assert_eq!(row.queue_peak, 1, "{class} queued");
                assert_eq!(row.queue_depth, 0, "{class} gauge drained");
            }
        };

        // A grant: the second request queues behind the first.
        let (clock, gateway) = gateway_with(4);
        let (first, second) = {
            let _pin = WorkerGuard::enter(&*clock);
            let first = gateway.submit_async(Request::new("svc")).unwrap();
            let second = gateway.submit_async(Request::new("svc")).unwrap();
            (first, second)
        };
        assert!(first.wait().unwrap().success);
        assert!(second.wait().unwrap().success);
        assert_eq!(
            gateway
                .telemetry()
                .snapshot()
                .service("svc")
                .unwrap()
                .invocations,
            2
        );
        assert_drained(&gateway, &[QosClass::Interactive]);

        // A preemption: the queued Scavenger gives its slot to a Critical
        // arrival, which is then granted.
        let (clock, gateway) = gateway_with(1);
        let (running, scavenger, critical) = {
            let _pin = WorkerGuard::enter(&*clock);
            let running = gateway.submit_async(Request::new("svc")).unwrap();
            let scavenger = gateway
                .submit_async(Request::new("svc").class(QosClass::Scavenger))
                .unwrap();
            let critical = gateway
                .submit_async(Request::new("svc").class(QosClass::Critical))
                .unwrap();
            (running, scavenger, critical)
        };
        assert!(matches!(
            scavenger.wait(),
            Err(RuntimeError::Overloaded { .. })
        ));
        assert!(running.wait().unwrap().success);
        assert!(critical.wait().unwrap().success);
        assert_drained(&gateway, &[QosClass::Scavenger, QosClass::Critical]);
    }

    /// A caller that is already a registered clock worker (a load
    /// generator that pins its clients to virtual time) must park
    /// *passively* while queued for admission: if its condvar wait counted
    /// as an active worker, virtual time could never advance over the
    /// in-flight request it is waiting on, and the gateway would deadlock.
    #[test]
    fn registered_caller_queues_passively_without_stalling_virtual_time() {
        use crate::clock::{VirtualClock, WorkerGuard};

        let clock = Arc::new(VirtualClock::new());
        let config = GatewayConfig::builder()
            .max_in_flight(1)
            .admission_queue(4)
            .build();
        let gateway = Gateway::with_clock(
            market_with(one_ms_script()),
            config,
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let gate = TestGate::new();
        let provider_gate = Arc::clone(&gate);
        let provider_clock = Arc::clone(&clock);
        gateway.registry().register(crate::device::FnProvider::new(
            "dev-a",
            "cap-a",
            10.0,
            move |_| {
                provider_gate.enter();
                provider_clock.sleep(Duration::from_millis(8));
                Ok(vec![1])
            },
        ));
        std::thread::scope(|scope| {
            let first = scope.spawn(|| {
                let _worker = WorkerGuard::enter(&*clock);
                gateway.submit(Request::new("svc")).unwrap()
            });
            gate.await_entered(1);
            let queued = scope.spawn(|| {
                let _worker = WorkerGuard::enter(&*clock);
                gateway.submit(Request::new("svc")).unwrap()
            });
            // The second caller must be parked in the admission queue
            // before the first is released, or it would be admitted
            // directly and never exercise the passive wait.
            while gateway
                .telemetry()
                .snapshot()
                .service("svc")
                .map_or(0, |s| s.admission_queue_peak)
                < 1
            {
                std::thread::yield_now();
            }
            gate.open();
            assert!(first.join().unwrap().success);
            assert!(queued.join().unwrap().success);
        });
        // Each request slept 8 virtual ms, strictly serialised by the
        // in-flight limit of one.
        assert_eq!(clock.now(), Duration::from_millis(16));
        let snapshot = gateway.telemetry().snapshot();
        let svc = snapshot.service("svc").unwrap();
        assert_eq!(svc.requests_shed, 0);
        assert_eq!(svc.admission_queue_peak, 1);
        assert_eq!(svc.invocations, 2);
    }

    #[test]
    fn deadline_prunes_unstarted_legs_and_is_counted() {
        use crate::clock::VirtualClock;

        let clock = Arc::new(VirtualClock::new());
        let config = GatewayConfig::builder()
            .request_deadline(Some(Duration::from_millis(8)))
            .build();
        let gateway = Gateway::with_clock(
            market_with(seq_script()),
            config,
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        // Leg `a` fails after 16 virtual ms — past the 8 ms deadline — so
        // fail-over leg `b` must be pruned, not started.
        for (cap, reliability, ms) in [("cap-a", 0.0, 16u64), ("cap-b", 1.0, 1)] {
            gateway.registry().register(
                SimulatedProvider::builder(format!("dev/{cap}"), cap)
                    .cost(50.0)
                    .latency(Duration::from_millis(ms))
                    .reliability(reliability)
                    .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                    .build(),
            );
        }
        let response = gateway.submit(Request::new("svc")).unwrap();
        assert!(!response.success);
        assert_eq!(response.pruned, Some(PruneReason::DeadlineExceeded));
        assert_eq!(response.cost, 50.0, "leg b never started, never charged");
        let snapshot = gateway.telemetry().snapshot();
        assert_eq!(snapshot.service("svc").unwrap().deadline_exceeded, 1);
        assert!(gateway.telemetry().events().iter().any(|e| matches!(
            &e.kind,
            crate::telemetry::EventKind::DeadlineExceeded { service, .. } if service == "svc"
        )));
    }

    #[test]
    fn evict_during_in_flight_cancels_the_request_and_flushes_once() {
        use std::sync::atomic::AtomicU32;

        use crate::clock::VirtualClock;

        let clock = Arc::new(VirtualClock::new());
        let gateway = Gateway::with_clock(
            market_with(seq_script()),
            GatewayConfig::default(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let gate = TestGate::new();
        let provider_gate = Arc::clone(&gate);
        gateway.registry().register(crate::device::FnProvider::new(
            "dev-a",
            "cap-a",
            50.0,
            move |_| {
                provider_gate.enter();
                Err(crate::message::InvokeError::ExecutionFailed {
                    reason: "noisy".to_string(),
                })
            },
        ));
        let b_calls = Arc::new(AtomicU32::new(0));
        let b_counter = Arc::clone(&b_calls);
        gateway.registry().register(crate::device::FnProvider::new(
            "dev-b",
            "cap-b",
            50.0,
            move |_| {
                b_counter.fetch_add(1, Ordering::SeqCst);
                Ok(vec![2])
            },
        ));
        std::thread::scope(|scope| {
            let in_flight = scope.spawn(|| gateway.submit(Request::new("svc")).unwrap());
            // The request is mid-leg-`a` when the service is evicted.
            gate.await_entered(1);
            gateway.evict_service("svc");
            assert!(gateway.slot_history("svc").is_empty(), "state dropped");
            // A second eviction finds nothing left to invalidate or flush.
            gateway.evict_service("svc");
            gate.open();
            let response = in_flight.join().unwrap();
            assert!(!response.success);
            assert_eq!(response.pruned, Some(PruneReason::Cancelled));
            assert_eq!(response.cost, 50.0, "only leg a was charged");
        });
        assert_eq!(
            b_calls.load(Ordering::SeqCst),
            0,
            "fail-over leg b was pruned by the eviction"
        );
        // The service restarts cleanly: a fresh invocation re-fetches the
        // script and, with the gate now open, fails over from a to b.
        let response = gateway.submit(Request::new("svc")).unwrap();
        assert!(response.success);
        assert_eq!(response.slot, 0, "fresh state");
        assert_eq!(response.pruned, None);
        assert_eq!(b_calls.load(Ordering::SeqCst), 1);
        let snapshot = gateway.telemetry().snapshot();
        assert_eq!(snapshot.market.fetches, 2, "evicted script re-fetched");
    }

    /// Satellite property test: smooth weighted round-robin never starves
    /// a queue that stays nonempty, whatever the (seeded pseudo-random)
    /// pattern of nonempty classes around it.
    #[test]
    fn weighted_dequeue_never_starves_a_nonempty_class() {
        let total_weight: i64 = QosClass::ALL.iter().map(|c| i64::from(c.weight())).sum();

        // With every queue backlogged, picks match the weights exactly.
        let mut wrr = [0i64; CLASS_COUNT];
        let mut picks = [0usize; CLASS_COUNT];
        for _ in 0..10 * total_weight {
            let picked = pick_class(&mut wrr, [true; CLASS_COUNT]).unwrap();
            picks[picked] += 1;
        }
        assert_eq!(picks, [80, 40, 20, 10], "10 cycles of 8/4/2/1");

        // Seeded LCG → deterministic "random" nonempty patterns.
        let mut seed: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rand = move || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 33) as usize
        };
        let bound = (4 * total_weight) as usize;
        let mut wrr = [0i64; CLASS_COUNT];
        let mut unserved = [0usize; CLASS_COUNT];
        for round in 0..10_000 {
            let mask = (rand() & 0xF).max(1); // nonempty subset of the 4 classes
            let nonempty: [bool; CLASS_COUNT] = std::array::from_fn(|i| mask & (1 << i) != 0);
            let picked = pick_class(&mut wrr, nonempty).expect("subset is nonempty");
            assert!(nonempty[picked], "picked an empty queue in round {round}");
            for (class, gap) in unserved.iter_mut().enumerate() {
                if !nonempty[class] || class == picked {
                    // An empty queue cannot be starved; a served one isn't.
                    *gap = 0;
                } else {
                    *gap += 1;
                    assert!(
                        *gap <= bound,
                        "class {class} went {gap} picks unserved while nonempty (round {round})"
                    );
                }
            }
        }
        assert_eq!(pick_class(&mut wrr, [false; CLASS_COUNT]), None);
    }

    #[test]
    fn preemption_sheds_scavengers_first_and_lets_critical_preempt() {
        let victim = AdmissionGate::preemption_victim;
        let waiter = |ticket: u64| -> (u64, WakerFn) { (ticket, Box::new(|_| {})) };
        let mut state = GateState::default();
        assert_eq!(victim(&state, QosClass::Critical), None, "empty queue");

        state.waiting[QosClass::Scavenger.index()].push_back(waiter(1));
        assert_eq!(
            victim(&state, QosClass::Bulk),
            Some(QosClass::Scavenger.index()),
            "a Scavenger slot sheds to any higher class"
        );
        assert_eq!(victim(&state, QosClass::Scavenger), None, "not to a peer");

        state.waiting[QosClass::Scavenger.index()].clear();
        state.waiting[QosClass::Bulk.index()].push_back(waiter(2));
        assert_eq!(
            victim(&state, QosClass::Interactive),
            None,
            "only Critical preempts non-Scavenger classes"
        );
        assert_eq!(
            victim(&state, QosClass::Critical),
            Some(QosClass::Bulk.index())
        );

        state.waiting[QosClass::Interactive.index()].push_back(waiter(3));
        assert_eq!(
            victim(&state, QosClass::Critical),
            Some(QosClass::Bulk.index()),
            "the lowest queued class is the victim"
        );
        state.waiting[QosClass::Bulk.index()].clear();
        assert_eq!(
            victim(&state, QosClass::Critical),
            Some(QosClass::Interactive.index())
        );

        state.waiting[QosClass::Interactive.index()].clear();
        state.waiting[QosClass::Critical.index()].push_back(waiter(4));
        assert_eq!(
            victim(&state, QosClass::Critical),
            None,
            "Critical never preempts Critical"
        );
    }

    #[test]
    fn critical_preempts_a_queued_scavenger_slot() {
        let config = GatewayConfig::builder()
            .max_in_flight(1)
            .admission_queue(1)
            .build();
        let gateway = Gateway::new(market_with(one_ms_script()), config);
        let gate = TestGate::new();
        let provider_gate = Arc::clone(&gate);
        gateway.registry().register(crate::device::FnProvider::new(
            "dev-a",
            "cap-a",
            10.0,
            move |_| {
                provider_gate.enter();
                Ok(vec![1])
            },
        ));
        std::thread::scope(|scope| {
            let running = scope.spawn(|| gateway.submit(Request::new("svc")).unwrap());
            gate.await_entered(1);
            let scavenger =
                scope.spawn(|| gateway.submit(Request::new("svc").class(QosClass::Scavenger)));
            // The scavenger must be visibly parked in the (single-slot)
            // queue before the Critical arrival.
            while gateway
                .telemetry()
                .snapshot()
                .service("svc")
                .map_or(0, |s| s.admission_queue_peak)
                < 1
            {
                std::thread::yield_now();
            }
            let critical = scope.spawn(|| {
                gateway
                    .submit(Request::new("svc").class(QosClass::Critical))
                    .unwrap()
            });
            match scavenger.join().unwrap() {
                Err(RuntimeError::Overloaded {
                    service_id, class, ..
                }) => {
                    assert_eq!(service_id, "svc");
                    assert_eq!(class, QosClass::Scavenger, "the waiter was preempted");
                }
                other => panic!("scavenger should have been shed, got {other:?}"),
            }
            gate.open();
            assert!(running.join().unwrap().success);
            let response = critical.join().unwrap();
            assert!(response.success);
            assert_eq!(response.class, QosClass::Critical);
        });
        let snapshot = gateway.telemetry().snapshot();
        let svc = snapshot.service("svc").unwrap();
        assert_eq!(svc.requests_shed, 1);
        assert_eq!(svc.class(QosClass::Scavenger).unwrap().shed, 1);
        assert_eq!(svc.class(QosClass::Critical).unwrap().shed, 0);
        assert_eq!(svc.class(QosClass::Critical).unwrap().requests, 1);
    }

    /// Satellite regression test: every `control()` override emits exactly
    /// one telemetry event and applies from the next admission decision.
    #[test]
    fn control_override_emits_one_event_and_applies_to_the_next_request() {
        use crate::telemetry::EventKind;

        let gateway = Gateway::new(market_with(one_ms_script()), GatewayConfig::default());
        gateway.registry().register(crate::device::FnProvider::new(
            "dev-a",
            "cap-a",
            10.0,
            |_| Ok(vec![1]),
        ));
        let before = gateway.submit(Request::new("svc")).unwrap();
        assert_eq!(before.class, QosClass::Interactive, "default class");

        gateway.control().set_class("svc", QosClass::Bulk);
        let override_events = gateway
            .telemetry()
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    &e.kind,
                    EventKind::OverrideApplied { service, field, value }
                        if service == "svc" && field == "class" && value == "bulk"
                )
            })
            .count();
        assert_eq!(override_events, 1, "exactly one event per override");

        let after = gateway.submit(Request::new("svc")).unwrap();
        assert_eq!(
            after.class,
            QosClass::Bulk,
            "override applied to the next admission decision"
        );
        let explicit = gateway
            .submit(Request::new("svc").class(QosClass::Critical))
            .unwrap();
        assert_eq!(
            explicit.class,
            QosClass::Critical,
            "an explicit request class outranks the override"
        );

        let snapshot = gateway.telemetry().snapshot();
        let svc = snapshot.service("svc").unwrap();
        assert_eq!(svc.overrides, 1);
        assert_eq!(svc.class(QosClass::Interactive).unwrap().requests, 1);
        assert_eq!(svc.class(QosClass::Bulk).unwrap().requests, 1);
        assert_eq!(svc.class(QosClass::Critical).unwrap().requests, 1);
    }

    #[test]
    fn requirement_override_retunes_the_advisory_without_replanning() {
        let gateway = Gateway::new(market_with(one_ms_script()), GatewayConfig::default());
        gateway.registry().register(
            SimulatedProvider::builder("dev/cap-a", "cap-a")
                .cost(50.0)
                .latency(Duration::from_millis(1))
                .reliability(1.0)
                .build(),
        );
        gateway.submit(Request::new("svc")).unwrap();
        gateway.end_slot("svc");
        let calm = gateway.submit(Request::new("svc")).unwrap();
        assert_eq!(calm.slot, 1);
        assert!(calm.advisory.is_none(), "requirements are easily met");
        let replans_before = gateway
            .telemetry()
            .snapshot()
            .service("svc")
            .unwrap()
            .replans;

        // An (unmeetable) requirement override flips the advisory on the
        // very next request of the same slot — no re-plan involved.
        gateway
            .control()
            .set_requirement("svc", Requirements::new(0.01, 0.001, 0.9999).unwrap());
        let judged = gateway.submit(Request::new("svc")).unwrap();
        assert_eq!(judged.slot, 1, "same slot");
        assert!(
            judged.advisory.is_some(),
            "estimated QoS violates the overridden requirement"
        );
        let snapshot = gateway.telemetry().snapshot();
        let svc = snapshot.service("svc").unwrap();
        assert_eq!(svc.replans, replans_before, "no re-plan happened");
        assert_eq!(svc.overrides, 1);
    }

    /// Headline regression test (stale plan on live override): a
    /// requirement override mid-slot must invalidate the plans cached or
    /// warm-started under the old requirement — the next slot boundary
    /// must re-plan **cold** against the new requirement, not serve the
    /// pre-override winner. Pre-fix, the boundary re-planned with the
    /// script requirement (same cache key, nothing invalidated) and served
    /// the stale cached plan: `source` came back `Cached` and the response
    /// ran the old strategy, violating the overridden requirement.
    #[test]
    fn requirement_override_invalidates_plans_and_replans_cold() {
        use crate::clock::VirtualClock;
        use crate::telemetry::EventKind;
        use qce_strategy::PlanSource;

        let mut script = ServiceScript::new(
            "svc",
            vec![
                MsSpec {
                    name: "mCheap".into(),
                    capability: "cap-cheap".into(),
                    prior: Qos::new(10.0, 10.0, 0.9).unwrap(),
                },
                MsSpec {
                    name: "mFast".into(),
                    capability: "cap-fast".into(),
                    prior: Qos::new(200.0, 2.0, 0.9).unwrap(),
                },
            ],
            // Lenient: only the cheap microservice fits the cost budget.
            Requirements::new(50.0, 1000.0, 0.5).unwrap(),
        );
        script.slot_size = 1000; // boundaries driven by end_slot() only

        let clock = Arc::new(VirtualClock::new());
        let config = GatewayConfig::builder()
            .generator_warm_start(true)
            .plan_cache(true)
            .build();
        let gateway = Gateway::with_clock(
            market_with(script),
            config,
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        for (id, cap, cost, ms) in [
            ("dev/cheap", "cap-cheap", 10.0, 10u64),
            ("dev/fast", "cap-fast", 200.0, 2),
        ] {
            gateway.registry().register(
                SimulatedProvider::builder(id, cap)
                    .cost(cost)
                    .latency(Duration::from_millis(ms))
                    .reliability(1.0)
                    .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                    .build(),
            );
        }

        // Slot 0 (default parallel) seeds observations for both providers;
        // slot 1 is the first real search under the lenient requirement.
        gateway.submit(Request::new("svc")).unwrap();
        gateway.end_slot("svc");
        let lenient = gateway.submit(Request::new("svc")).unwrap();
        assert_eq!(lenient.slot, 1);
        assert!(lenient.advisory.is_none());
        assert_eq!(
            lenient.latency,
            Duration::from_millis(10),
            "under the lenient requirement the cheap (slow) leg wins"
        );

        // Mid-slot override: the operator now demands 5 ms end-to-end and
        // tolerates the expensive provider. Then cross a slot boundary.
        let strict = Requirements::new(500.0, 5.0, 0.5).unwrap();
        gateway.control().set_requirement("svc", strict);
        gateway.end_slot("svc");
        let judged = gateway.submit(Request::new("svc")).unwrap();
        assert_eq!(judged.slot, 2);
        assert!(
            judged.advisory.is_none(),
            "the new plan must satisfy the overridden requirement, got {:?}",
            judged.advisory
        );
        assert_eq!(
            judged.latency,
            Duration::from_millis(2),
            "the re-plan must switch to the fast leg"
        );

        // And the re-plan must be truly cold: the cached winner and the
        // warm-start incumbent were both won under the old requirement.
        let snapshot = gateway.telemetry().snapshot();
        let slot2_source = snapshot
            .recent_events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::SlotReplanned {
                    slot: 2, source, ..
                } => Some(*source),
                _ => None,
            })
            .next_back()
            .expect("slot 2 re-planned");
        assert_eq!(slot2_source, Some(PlanSource::Cold));
        let svc = snapshot.service("svc").unwrap();
        assert!(svc.plan_cache_stale >= 1, "old-requirement plans dropped");
    }

    #[test]
    fn critical_class_applies_its_default_deadline() {
        use crate::clock::VirtualClock;

        let clock = Arc::new(VirtualClock::new());
        let gateway = Gateway::with_clock(
            market_with(seq_script()),
            GatewayConfig::default(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        // Leg `a` fails after 300 virtual ms — past Critical's 250 ms
        // default — so a Critical request prunes fail-over leg `b`, while
        // an Interactive request (no default deadline) fails over fine.
        for (cap, reliability, ms) in [("cap-a", 0.0, 300u64), ("cap-b", 1.0, 1)] {
            gateway.registry().register(
                SimulatedProvider::builder(format!("dev/{cap}"), cap)
                    .cost(50.0)
                    .latency(Duration::from_millis(ms))
                    .reliability(reliability)
                    .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                    .build(),
            );
        }
        let critical = gateway
            .submit(Request::new("svc").class(QosClass::Critical))
            .unwrap();
        assert!(!critical.success);
        assert_eq!(critical.pruned, Some(PruneReason::DeadlineExceeded));
        let detail = critical.prune_detail.expect("always present when pruned");
        assert_eq!(detail.class, QosClass::Critical);
        assert_eq!(detail.remaining, Some(Duration::ZERO));

        let interactive = gateway.submit(Request::new("svc")).unwrap();
        assert!(interactive.success, "no default deadline: fail-over runs");
        assert_eq!(interactive.pruned, None);

        assert!(gateway.telemetry().events().iter().any(|e| matches!(
            &e.kind,
            crate::telemetry::EventKind::DeadlineExceeded { service, class, .. }
                if service == "svc" && *class == QosClass::Critical
        )));
    }

    #[test]
    fn telemetry_counts_requests_and_replans() {
        let gateway = Gateway::new(market_with(script(3)), GatewayConfig::default());
        register_devices(&gateway, 1.0);
        for _ in 0..7 {
            gateway.submit(Request::new("temp")).unwrap();
        }
        let snapshot = gateway.telemetry().snapshot();
        let svc = snapshot.service("temp").unwrap();
        assert_eq!(svc.invocations, 7);
        assert_eq!(svc.successes, 7);
        assert_eq!(svc.replans, 3, "slots 0, 1 and 2 were each planned once");
        assert_eq!(svc.latency_ms.count, 7);
        assert_eq!(
            snapshot.market.fetches, 1,
            "script fetched once, then cached"
        );
    }

    /// Bugfix regression: a request whose effective deadline is zero used
    /// to enter the engine, reserve workers, and charge the cost of its
    /// started leaves before the first prune check rejected it. It must be
    /// rejected at admission — no queue slot, no invocation, no cost —
    /// and counted as exactly one deadline-exceeded event.
    #[test]
    fn zero_deadline_is_rejected_before_admission_and_counted_once() {
        use crate::clock::VirtualClock;

        let clock = Arc::new(VirtualClock::new());
        let gateway = Gateway::with_clock(
            market_with(one_ms_script()),
            GatewayConfig::default(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        gateway.registry().register(
            SimulatedProvider::builder("dev/cap-a", "cap-a")
                .cost(50.0)
                .latency(Duration::from_millis(1))
                .reliability(1.0)
                .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .build(),
        );
        match gateway.submit(Request::new("svc").deadline(Duration::ZERO)) {
            Err(RuntimeError::DeadlineExceeded { service_id, class }) => {
                assert_eq!(service_id, "svc");
                assert_eq!(class, QosClass::Interactive);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let snapshot = gateway.telemetry().snapshot();
        let svc = snapshot.service("svc").unwrap();
        assert_eq!(svc.deadline_exceeded, 1, "counted exactly once");
        assert_eq!(svc.invocations, 0, "never entered the engine");
        assert_eq!(clock.now(), Duration::ZERO, "no virtual time consumed");

        // The same applies to a dead-on-arrival deadline set through the
        // control plane rather than the request.
        gateway.control().set_deadline("svc", Some(Duration::ZERO));
        assert!(matches!(
            gateway.submit(Request::new("svc")),
            Err(RuntimeError::DeadlineExceeded { .. })
        ));
        let snapshot = gateway.telemetry().snapshot();
        assert_eq!(snapshot.service("svc").unwrap().deadline_exceeded, 2);
        assert_eq!(snapshot.service("svc").unwrap().invocations, 0);

        // An explicit (positive) request deadline outranks the override
        // and the request executes normally.
        let response = gateway
            .submit(Request::new("svc").deadline(Duration::from_millis(100)))
            .unwrap();
        assert!(response.success);
    }

    /// Bugfix regression: handing out a queue slot used to
    /// `expect("victim class has waiters")` / `expect("class is
    /// nonempty")` on a queue snapshot. With asynchronous tickets a queued
    /// waiter can leave through a third door — its queue deadline
    /// cancelling the ticket — so preemption and release now re-check
    /// occupancy and fall through instead of panicking. Race cancellation
    /// against preemption and grant on every side of the gate.
    #[test]
    fn ticket_cancellation_racing_preemption_and_release_never_panics() {
        use std::sync::atomic::AtomicUsize;

        let telemetry = Telemetry::new(Arc::new(WallClock::new()), 16);
        let gate = Arc::new(AdmissionGate::new(1, 2, "svc", telemetry));
        // Occupy the single in-flight slot for the whole race so every
        // arrival goes through the queue paths.
        let unused = || -> WakerFn { unreachable!("an empty gate admits without queueing") };
        assert!(matches!(
            gate.admit(QosClass::Bulk, unused),
            Admission::Admitted(_)
        ));
        let fired = Arc::new(AtomicUsize::new(0));
        let rounds = 200;
        // One side of the race: `class` arrivals queue and cancel their own
        // tickets (the queue-deadline path), `pause` yielding in between.
        let contend = |class: QosClass, pause: bool| {
            let gate = Arc::clone(&gate);
            let fired = Arc::clone(&fired);
            move || {
                for _ in 0..rounds {
                    let fired = Arc::clone(&fired);
                    let waker = move || -> WakerFn {
                        Box::new(move |_| {
                            fired.fetch_add(1, Ordering::SeqCst);
                        })
                    };
                    match gate.admit(class, waker) {
                        Admission::Queued(ticket) => {
                            if pause {
                                std::thread::yield_now();
                            }
                            if let Some(waker) = gate.cancel(class, ticket) {
                                waker(AdmitOutcome::Expired);
                            }
                        }
                        Admission::Admitted(_) => panic!("the slot is held for the whole race"),
                        Admission::Shed(_, waker) => waker()(AdmitOutcome::Shutdown),
                    }
                }
            }
        };
        std::thread::scope(|scope| {
            // Scavengers queue and their tickets are cancelled
            // concurrently; Critical arrivals preempt whatever Scavenger is
            // queued.
            let canceller = scope.spawn(contend(QosClass::Scavenger, true));
            let preemptor = scope.spawn(contend(QosClass::Critical, false));
            canceller.join().unwrap();
            preemptor.join().unwrap();
        });
        // Every ticket's waker fired exactly once (cancelled, preempted,
        // or shed) or is still queued with its ticket; nothing
        // double-fired or vanished.
        let state = gate.lock();
        assert_eq!(state.in_flight, 1, "the held slot is still counted");
        let queued = state.queued();
        drop(state);
        assert_eq!(
            fired.load(Ordering::SeqCst) + queued,
            2 * rounds,
            "each ticket resolved exactly once"
        );
        gate.release_slot();
    }

    /// An asynchronous submission is the same request as a blocking one:
    /// same resolution, admission, planning, execution, and response
    /// assembly — bit-identical responses, over inputs that exercise each
    /// shared step.
    #[test]
    fn submit_async_matches_blocking_submit_bit_for_bit() {
        use crate::clock::{VirtualClock, WorkerGuard};

        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Input {
            Plain,
            Quorum,
            /// Critical class: its default deadline and requirement.
            Critical,
            /// A live requirement override the estimate violates.
            AdvisoryOverride,
            /// A second request (no deadline) queued behind a first one
            /// held in flight by pinned virtual time.
            QueuedBehindPinned,
        }

        let run = |blocking: bool, input: Input| -> Vec<ServiceResponse> {
            let clock = Arc::new(VirtualClock::new());
            let mut script = script(10);
            if input == Input::Quorum {
                script.quorum = Some(2);
            }
            let config = match input {
                Input::QueuedBehindPinned => GatewayConfig::builder()
                    .max_in_flight(1)
                    .admission_queue(4)
                    .build(),
                _ => GatewayConfig::default(),
            };
            let gateway = Arc::new(Gateway::with_clock(
                market_with(script),
                config,
                Arc::clone(&clock) as Arc<dyn Clock>,
            ));
            for (i, (cap, ms)) in [("read-temp", 2u64), ("est-temp", 3), ("loc-temp", 5)]
                .iter()
                .enumerate()
            {
                gateway.registry().register(
                    SimulatedProvider::builder(format!("dev{i}/{cap}"), *cap)
                        .cost(50.0)
                        .latency(Duration::from_millis(*ms))
                        .reliability(0.9)
                        .seed(i as u64)
                        .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                        .build(),
                );
            }
            if input == Input::AdvisoryOverride {
                gateway
                    .control()
                    .set_requirement("temp", Requirements::new(0.01, 0.001, 0.9999).unwrap());
            }
            let request = || match input {
                Input::Critical => Request::new("temp").class(QosClass::Critical),
                _ => Request::new("temp"),
            };
            let queue_peak = || {
                gateway
                    .telemetry()
                    .snapshot()
                    .service("temp")
                    .map_or(0, |s| s.admission_queue_peak)
            };
            match (input, blocking) {
                (Input::QueuedBehindPinned, true) => {
                    let pin = WorkerGuard::enter(&*clock);
                    std::thread::scope(|scope| {
                        let first = scope.spawn(|| gateway.submit(request()).unwrap());
                        // Planning follows admission: once the slot is
                        // planned, the first request holds the only slot.
                        while gateway
                            .telemetry()
                            .snapshot()
                            .service("temp")
                            .map_or(0, |s| s.replans)
                            < 1
                        {
                            std::thread::yield_now();
                        }
                        let second = scope.spawn(|| gateway.submit(request()).unwrap());
                        while queue_peak() < 1 {
                            std::thread::yield_now();
                        }
                        drop(pin);
                        vec![first.join().unwrap(), second.join().unwrap()]
                    })
                }
                (Input::QueuedBehindPinned, false) => {
                    let (first, second) = {
                        let _pin = WorkerGuard::enter(&*clock);
                        let first = gateway.submit_async(request()).unwrap();
                        let second = gateway.submit_async(request()).unwrap();
                        assert_eq!(queue_peak(), 1, "the second request queued");
                        (first, second)
                    };
                    vec![first.wait().unwrap(), second.wait().unwrap()]
                }
                (_, true) => vec![gateway.submit(request()).unwrap()],
                (_, false) => vec![gateway.submit_async(request()).unwrap().wait().unwrap()],
            }
        };
        for input in [
            Input::Plain,
            Input::Quorum,
            Input::Critical,
            Input::AdvisoryOverride,
            Input::QueuedBehindPinned,
        ] {
            let blocking = run(true, input);
            assert_eq!(blocking, run(false, input), "{input:?}");
            let last = blocking.last().unwrap();
            match input {
                Input::Plain => {}
                Input::Quorum => assert!(last.votes.is_some(), "quorum votes"),
                Input::Critical => assert_eq!(last.class, QosClass::Critical),
                Input::AdvisoryOverride => assert!(last.advisory.is_some(), "advisory raised"),
                Input::QueuedBehindPinned => assert_eq!(blocking.len(), 2),
            }
        }
    }

    /// A queued asynchronous request whose deadline expires before a slot
    /// frees up fails with `DeadlineExceeded` without ever executing —
    /// and is counted exactly once even though both the queue-deadline
    /// timer and the continuation's own expiry check could observe it.
    #[test]
    fn queued_async_request_expires_without_executing() {
        use crate::clock::{VirtualClock, WorkerGuard};

        let clock = Arc::new(VirtualClock::new());
        let config = GatewayConfig::builder()
            .max_in_flight(1)
            .admission_queue(4)
            .build();
        let gateway = Arc::new(Gateway::with_clock(
            market_with(one_ms_script()),
            config,
            Arc::clone(&clock) as Arc<dyn Clock>,
        ));
        gateway.registry().register(
            SimulatedProvider::builder("dev/cap-a", "cap-a")
                .cost(50.0)
                .latency(Duration::from_millis(10))
                .reliability(1.0)
                .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .build(),
        );
        let (first, second) = {
            // Pin virtual time while both submissions land, so the second
            // is deterministically queued behind the first.
            let _pin = WorkerGuard::enter(&*clock);
            let first = gateway.submit_async(Request::new("svc")).unwrap();
            let second = gateway
                .submit_async(Request::new("svc").deadline(Duration::from_millis(2)))
                .unwrap();
            (first, second)
        };
        match second.wait() {
            Err(RuntimeError::DeadlineExceeded { service_id, class }) => {
                assert_eq!(service_id, "svc");
                assert_eq!(class, QosClass::Interactive);
            }
            other => panic!("expected queue-deadline expiry, got {other:?}"),
        }
        let first = first.wait().unwrap();
        assert!(first.success);
        assert_eq!(first.latency, Duration::from_millis(10));
        let snapshot = gateway.telemetry().snapshot();
        let svc = snapshot.service("svc").unwrap();
        assert_eq!(svc.deadline_exceeded, 1, "counted exactly once");
        assert_eq!(svc.invocations, 1, "the expired request never executed");
        assert_eq!(svc.latency_ms.count, 1, "only the first became a request");
    }

    /// The preemption contract carries over to asynchronous waiters: a
    /// queued async Scavenger preempted by a Critical arrival resolves its
    /// handle with `Overloaded` and is counted as shed.
    #[test]
    fn critical_arrival_preempts_a_queued_async_scavenger() {
        use crate::clock::{VirtualClock, WorkerGuard};

        let clock = Arc::new(VirtualClock::new());
        let config = GatewayConfig::builder()
            .max_in_flight(1)
            .admission_queue(1)
            .build();
        let gateway = Arc::new(Gateway::with_clock(
            market_with(one_ms_script()),
            config,
            Arc::clone(&clock) as Arc<dyn Clock>,
        ));
        gateway.registry().register(
            SimulatedProvider::builder("dev/cap-a", "cap-a")
                .cost(50.0)
                .latency(Duration::from_millis(5))
                .reliability(1.0)
                .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .build(),
        );
        let (running, scavenger, critical) = {
            let _pin = WorkerGuard::enter(&*clock);
            let running = gateway.submit_async(Request::new("svc")).unwrap();
            let scavenger = gateway
                .submit_async(Request::new("svc").class(QosClass::Scavenger))
                .unwrap();
            let critical = gateway
                .submit_async(Request::new("svc").class(QosClass::Critical))
                .unwrap();
            (running, scavenger, critical)
        };
        match scavenger.wait() {
            Err(RuntimeError::Overloaded {
                service_id, class, ..
            }) => {
                assert_eq!(service_id, "svc");
                assert_eq!(class, QosClass::Scavenger, "the waiter was preempted");
            }
            other => panic!("scavenger should have been shed, got {other:?}"),
        }
        assert!(running.wait().unwrap().success);
        let critical = critical.wait().unwrap();
        assert!(critical.success);
        assert_eq!(critical.class, QosClass::Critical);
        let snapshot = gateway.telemetry().snapshot();
        let svc = snapshot.service("svc").unwrap();
        assert_eq!(svc.requests_shed, 1);
        assert_eq!(svc.class(QosClass::Scavenger).unwrap().shed, 1);
        assert_eq!(svc.class(QosClass::Critical).unwrap().requests, 1);
    }

    /// Bugfix regression: dropping the gateway with requests in flight
    /// used to panic the engine (`pool.upgrade().expect("engine outlives
    /// its walk")`). Now every pending handle resolves with
    /// [`RuntimeError::Shutdown`] — in-flight requests via the core's
    /// shutdown sweep, queued admissions via their drained wakers — and
    /// nothing parks forever.
    #[test]
    fn dropping_the_gateway_resolves_in_flight_and_queued_handles() {
        use crate::clock::{VirtualClock, WorkerGuard};

        let clock = Arc::new(VirtualClock::new());
        let config = GatewayConfig::builder()
            .max_in_flight(1)
            .admission_queue(4)
            .build();
        let gateway = Arc::new(Gateway::with_clock(
            market_with(one_ms_script()),
            config,
            Arc::clone(&clock) as Arc<dyn Clock>,
        ));
        gateway.registry().register(
            SimulatedProvider::builder("dev/cap-a", "cap-a")
                .cost(50.0)
                .latency(Duration::from_millis(5))
                .reliability(1.0)
                .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .build(),
        );
        // Pin virtual time for the gateway's whole lifetime: the leaf's
        // completion event can never fire, so the first request is
        // mid-flight and the second still queued when the gateway drops.
        let _pin = WorkerGuard::enter(&*clock);
        let in_flight = gateway.submit_async(Request::new("svc")).unwrap();
        let queued = gateway.submit_async(Request::new("svc")).unwrap();
        while gateway.engine_stats().in_flight < 1 {
            std::thread::yield_now();
        }
        drop(gateway);
        assert!(matches!(in_flight.wait(), Err(RuntimeError::Shutdown)));
        assert!(matches!(queued.wait(), Err(RuntimeError::Shutdown)));
    }
}
