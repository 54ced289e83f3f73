//! The simulator's event loop, driven from outside through each layer's
//! public API: `EventQueue`, `HostSystem`, `ExecutionEngine` and the
//! `SchedulingPolicy` that `PolicyKind::build` returns.
//!
//! [`replay`] performs exactly the calls `Simulator::run_with` /
//! `run_until_with` perform, in the same order, so its result must be
//! bit-identical to theirs; the traced run checks that on every scenario.
//! A [`Probe`] sees every call: [`Untraced`] compiles to nothing, and
//! [`Tracer`] times the calls of a sample of loop iterations per layer and
//! counts wasted work on every iteration.

use gpreempt::gpu::{
    EngineEvent, EngineStats, ExecutionEngine, KernelCompletion, KernelLaunch, PolicyHook,
};
use gpreempt::host::{
    ArrivalStats, HostEvent, HostSystem, IterationRecord, LaunchRequest, ReleaseRequest,
};
use gpreempt::sched::{ReleaseInfo, SchedulingPolicy};
use gpreempt::sim::{EventQueue, SimRng};
use gpreempt::trace::{BenchmarkTrace, TraceOp, Workload};
use gpreempt::types::{KernelLaunchId, SimError, SimTime};
use gpreempt::{PolicyKind, SimulationRun, SimulatorConfig};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
enum Event {
    Host(HostEvent),
    Engine(EngineEvent),
}

/// The layers a [`Tracer`] times. `Glue` is the loop's own work between
/// layer calls: launch building, release bookkeeping, completion tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Queue,
    Host,
    Engine,
    Policy,
    Glue,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 5;

/// Observes a replay. Every layer call goes through [`span`](Probe::span).
pub trait Probe {
    /// Whether the probe counts waste; the untraced replay skips the extra
    /// reads that counting needs.
    const COUNTS: bool;
    /// A loop iteration (stop checks, one batch pop, its events) starts.
    fn begin_iteration(&mut self);
    /// The iteration popped `events` events with `pending` queued before.
    fn popped(&mut self, pending: usize, events: usize);
    /// The iteration handled its whole batch.
    fn end_iteration(&mut self);
    /// Runs one call into `layer`.
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R;
    /// A `BlockDone` was delivered; `stale` when it retired no block.
    fn block_done(&mut self, stale: bool);
    /// A `QuantumTick` or `DeadlineTick` was delivered; `noop` when the
    /// engine produced no output for it.
    fn tick(&mut self, noop: bool);
    /// The policy was called (a hook or an admission request).
    fn policy_call(&mut self);
}

/// The probe of the untraced replay: every method is empty.
#[derive(Debug, Default)]
pub struct Untraced;

impl Probe for Untraced {
    const COUNTS: bool = false;
    #[inline(always)]
    fn begin_iteration(&mut self) {}
    #[inline(always)]
    fn popped(&mut self, _: usize, _: usize) {}
    #[inline(always)]
    fn end_iteration(&mut self) {}
    #[inline(always)]
    fn span<R>(&mut self, _: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }
    #[inline(always)]
    fn block_done(&mut self, _: bool) {}
    #[inline(always)]
    fn tick(&mut self, _: bool) {}
    #[inline(always)]
    fn policy_call(&mut self) {}
}

/// Times every layer call of one loop iteration in `sample_every`, with the
/// timer's own cost subtracted, and counts waste on every iteration.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    sample_every: u64,
    iteration: u64,
    active: bool,
    /// Subtracted from each timed span: the median reading of an empty span.
    span_cost_ns: f64,
    /// Self time per layer over the sampled iterations, timer cost removed.
    pub layer_ns: [f64; LAYERS],
    /// Events of the sampled iterations.
    pub sampled_events: u64,
    /// Block-retiring `BlockDone`s of the sampled iterations.
    pub sampled_blocks: u64,
    /// Policy calls of the sampled iterations.
    pub sampled_policy_calls: u64,
    /// Events of all iterations.
    pub events: u64,
    /// Batches popped.
    pub batches: u64,
    /// Sum of the queue's length before each batch pop.
    pub pending_sum: u64,
    /// Longest queue seen before a batch pop.
    pub pending_max: u64,
    /// `BlockDone`s delivered.
    pub block_dones: u64,
    /// `BlockDone`s that retired no block.
    pub stale_blocks: u64,
    /// Quantum and deadline ticks delivered.
    pub ticks: u64,
    /// Ticks that left the engine with no output.
    pub noop_ticks: u64,
    /// Policy calls.
    pub policy_calls: u64,
}

impl Tracer {
    /// A tracer timing one iteration in `sample_every`, calibrated against
    /// this machine's timer.
    pub fn new(sample_every: u64) -> Self {
        const N: usize = 20_000;
        // What an empty span reads: the median of many readings.
        let mut readings: Vec<f64> = (0..N)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(());
                t0.elapsed().as_nanos() as f64
            })
            .collect();
        readings.sort_by(f64::total_cmp);
        Tracer {
            sample_every: sample_every.max(1),
            span_cost_ns: readings[N / 2],
            ..Tracer::default()
        }
    }

    /// Nanoseconds an empty span reads (subtracted from every span).
    pub fn span_cost_ns(&self) -> f64 {
        self.span_cost_ns
    }
}

impl Probe for Tracer {
    const COUNTS: bool = true;

    fn begin_iteration(&mut self) {
        self.active = self.iteration.is_multiple_of(self.sample_every);
        self.iteration += 1;
    }

    fn popped(&mut self, pending: usize, events: usize) {
        self.batches += 1;
        self.events += events as u64;
        self.pending_sum += pending as u64;
        self.pending_max = self.pending_max.max(pending as u64);
        if self.active {
            self.sampled_events += events as u64;
        }
    }

    fn end_iteration(&mut self) {
        self.active = false;
    }

    #[inline(always)]
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.active {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.layer_ns[layer as usize] += t0.elapsed().as_nanos() as f64 - self.span_cost_ns;
        r
    }

    fn block_done(&mut self, stale: bool) {
        self.block_dones += 1;
        if stale {
            self.stale_blocks += 1;
        } else if self.active {
            self.sampled_blocks += 1;
        }
    }

    fn tick(&mut self, noop: bool) {
        self.ticks += 1;
        if noop {
            self.noop_ticks += 1;
        }
    }

    fn policy_call(&mut self) {
        self.policy_calls += 1;
        if self.active {
            self.sampled_policy_calls += 1;
        }
    }
}

/// Scratch buffers the drain reuses, as the simulator's drain does.
#[derive(Debug, Default)]
struct Scratch {
    host_events: Vec<(SimTime, HostEvent)>,
    engine_events: Vec<(SimTime, EngineEvent)>,
    launches: Vec<LaunchRequest>,
    iterations: Vec<IterationRecord>,
    hooks: Vec<PolicyHook>,
    releases: Vec<ReleaseRequest>,
    min_service: Vec<SimTime>,
}

/// A replay worker's reusable host, engine, queue and buffers: the first
/// replay builds them and later ones reset them in place, like
/// `SimWorkspace`.
#[derive(Debug, Default)]
pub struct ReplayWorkspace {
    host: Option<HostSystem>,
    engine: Option<ExecutionEngine>,
    queue: EventQueue<Event>,
    scratch: Scratch,
    batch: Vec<Event>,
}

/// The result of a replay: everything `SimulationRun` exposes.
#[derive(Debug, Clone)]
pub struct ReplayRun {
    end_time: SimTime,
    iterations: Vec<Vec<IterationRecord>>,
    kernel_completions: Vec<KernelCompletion>,
    engine_stats: EngineStats,
    events_processed: u64,
    arrival_stats: Vec<ArrivalStats>,
}

impl ReplayRun {
    /// Checks that `run` reports exactly what this replay produced; names
    /// the first field that differs.
    pub fn matches(&self, run: &SimulationRun) -> Result<(), String> {
        let differs = if self.end_time != run.end_time() {
            "end time"
        } else if self.events_processed != run.events_processed() {
            "events processed"
        } else if self.engine_stats != run.engine_stats() {
            "engine stats"
        } else if self.iterations != run.iterations() {
            "iteration records"
        } else if self.kernel_completions != run.kernel_completions() {
            "kernel completions"
        } else if self.arrival_stats != run.arrival_stats() {
            "arrival stats"
        } else {
            return Ok(());
        };
        Err(format!("replay differs from the simulator in {differs}"))
    }
}

/// Replays `workload` under `policy` and `config`, to the replay target or
/// to `deadline`, performing the simulator's calls in the simulator's order.
///
/// # Errors
///
/// Fails where the simulator fails: invalid configuration or workload, an
/// exhausted event budget, or a deadlock.
pub fn replay<P: Probe>(
    config: &SimulatorConfig,
    ws: &mut ReplayWorkspace,
    workload: &Workload,
    policy: PolicyKind,
    deadline: Option<SimTime>,
    probe: &mut P,
) -> Result<ReplayRun, SimError> {
    config.machine.validate()?;
    workload.validate(&config.machine.gpu)?;

    let transfer_policy = config
        .transfer_policy
        .unwrap_or_else(|| policy.transfer_policy());
    let host = match ws.host.as_mut() {
        Some(host) => {
            host.reset(
                workload,
                config.machine.pcie.clone(),
                transfer_policy,
                config.seed,
            );
            host
        }
        None => ws.host.insert(
            HostSystem::new(workload, config.machine.pcie.clone(), transfer_policy)
                .with_seed(config.seed),
        ),
    };
    let mut engine_params = config.engine;
    if engine_params.quantum.is_none() {
        engine_params.quantum = policy.default_quantum();
    }
    let engine = match ws.engine.as_mut() {
        Some(engine) => {
            engine.reset(
                config.machine.gpu.clone(),
                config.machine.preemption,
                engine_params,
                SimRng::new(config.seed),
            );
            engine
        }
        None => ws.engine.insert(ExecutionEngine::new(
            config.machine.gpu.clone(),
            config.machine.preemption,
            engine_params,
            SimRng::new(config.seed),
        )),
    };
    let mut policy_impl: Box<dyn SchedulingPolicy> =
        policy.build(workload, config.machine.gpu.n_sms);
    let queue = &mut ws.queue;
    queue.reset();
    queue.reserve(
        (workload.min_completions() as usize)
            .saturating_mul(workload.len())
            .min(16_384),
    );

    let mut iterations: Vec<Vec<IterationRecord>> = vec![Vec::new(); workload.len()];
    let mut kernel_completions: Vec<KernelCompletion> = Vec::new();
    let mut next_launch_id: u64 = 0;
    let scratch = &mut ws.scratch;
    scratch.min_service.clear();
    scratch.min_service.extend(
        workload
            .processes()
            .iter()
            .map(|spec| min_iteration_service(&spec.benchmark)),
    );
    let target = workload.min_completions();

    host.start(SimTime::ZERO);
    let mut completions_dirty = true;
    let mut loop_state = Loop {
        host,
        engine,
        policy: policy_impl.as_mut(),
        queue,
        workload,
        iterations: &mut iterations,
        kernel_completions: &mut kernel_completions,
        next_launch_id: &mut next_launch_id,
        scratch,
    };
    loop_state.drain(SimTime::ZERO, probe);

    let end_time;
    let batch = &mut ws.batch;
    let mut unhandled_tail = 0u64;
    'run: loop {
        probe.begin_iteration();
        if completions_dirty {
            completions_dirty = false;
            let done = probe.span(Layer::Host, || {
                loop_state.host.all_completed_at_least(target)
            });
            if done {
                end_time = probe.span(Layer::Glue, || {
                    latest_needed_completion(loop_state.iterations, target)
                });
                break;
            }
        }
        if let Some(d) = deadline {
            let next = probe.span(Layer::Queue, || loop_state.queue.peek_time());
            if next.is_none_or(|t| t > d) {
                end_time = d;
                break;
            }
        }
        if loop_state.queue.processed() >= config.max_events {
            return Err(SimError::EventBudgetExceeded {
                processed: loop_state.queue.processed(),
            });
        }
        let popped = probe.span(Layer::Queue, || loop_state.queue.pop_batch_into(batch));
        let Some(now) = popped else {
            return Err(SimError::internal(format!(
                "simulation deadlocked at {} with completions {:?}",
                loop_state.queue.now(),
                loop_state.host.completions()
            )));
        };
        if P::COUNTS {
            probe.popped(loop_state.queue.len() + batch.len(), batch.len());
        }
        let before_batch = loop_state.queue.processed() - batch.len() as u64;
        for (i, &event) in batch.iter().enumerate() {
            if i > 0 {
                if completions_dirty {
                    completions_dirty = false;
                    let done = probe.span(Layer::Host, || {
                        loop_state.host.all_completed_at_least(target)
                    });
                    if done {
                        end_time = probe.span(Layer::Glue, || {
                            latest_needed_completion(loop_state.iterations, target)
                        });
                        unhandled_tail = (batch.len() - i) as u64;
                        break 'run;
                    }
                }
                let processed = before_batch + i as u64;
                if processed >= config.max_events {
                    return Err(SimError::EventBudgetExceeded { processed });
                }
            }
            match event {
                Event::Host(e) => probe.span(Layer::Host, || loop_state.host.handle(now, e)),
                Event::Engine(e) => {
                    if P::COUNTS {
                        let before = loop_state.engine.stats().blocks_completed;
                        probe.span(Layer::Engine, || loop_state.engine.handle(now, e));
                        match e {
                            EngineEvent::BlockDone { .. } => probe
                                .block_done(loop_state.engine.stats().blocks_completed == before),
                            EngineEvent::QuantumTick { .. } | EngineEvent::DeadlineTick { .. } => {
                                probe.tick(!loop_state.engine.has_pending_outputs())
                            }
                            EngineEvent::SetupDone { .. } | EngineEvent::SaveDone { .. } => {}
                        }
                    } else {
                        loop_state.engine.handle(now, e);
                    }
                }
            }
            let pending = probe.span(Layer::Host, || loop_state.host.has_pending_outputs())
                || probe.span(Layer::Engine, || loop_state.engine.has_pending_outputs());
            if pending {
                completions_dirty |= loop_state.drain(now, probe);
            }
        }
        probe.end_iteration();
    }
    probe.end_iteration();

    let mut engine_stats = loop_state.engine.stats();
    engine_stats.events_clamped = loop_state.queue.clamped();
    let events_processed = loop_state.queue.processed() - unhandled_tail;
    let arrival_stats = loop_state.host.arrival_stats(end_time);
    Ok(ReplayRun {
        end_time,
        iterations,
        kernel_completions,
        engine_stats,
        events_processed,
        arrival_stats,
    })
}

/// The borrowed state of one replay's event loop.
struct Loop<'a> {
    host: &'a mut HostSystem,
    engine: &'a mut ExecutionEngine,
    policy: &'a mut dyn SchedulingPolicy,
    queue: &'a mut EventQueue<Event>,
    workload: &'a Workload,
    iterations: &'a mut [Vec<IterationRecord>],
    kernel_completions: &'a mut Vec<KernelCompletion>,
    next_launch_id: &'a mut u64,
    scratch: &'a mut Scratch,
}

impl Loop<'_> {
    /// Moves pending outputs between host, engine and policy until nothing
    /// moves, as the simulator's drain does. Returns whether an iteration
    /// completed.
    fn drain<P: Probe>(&mut self, now: SimTime, probe: &mut P) -> bool {
        let Loop {
            host,
            engine,
            policy,
            queue,
            workload,
            iterations,
            kernel_completions,
            next_launch_id,
            scratch,
        } = self;
        let mut completed_iterations = false;
        loop {
            let mut progressed = false;

            probe.span(Layer::Host, || {
                host.drain_scheduled_into(&mut scratch.host_events)
            });
            probe.span(Layer::Queue, || {
                for (t, e) in scratch.host_events.drain(..) {
                    queue.schedule(t, Event::Host(e));
                }
            });
            probe.span(Layer::Host, || {
                host.drain_iterations_into(&mut scratch.iterations)
            });
            probe.span(Layer::Glue, || {
                for record in scratch.iterations.drain(..) {
                    completed_iterations = true;
                    iterations[record.process.index()].push(record);
                }
            });
            probe.span(Layer::Host, || {
                host.drain_release_requests_into(&mut scratch.releases)
            });
            for i in 0..scratch.releases.len() {
                progressed = true;
                let req = scratch.releases[i];
                let (release, backlog, backlog_cap) = probe.span(Layer::Glue, || {
                    let process = &host.processes()[req.process.index()];
                    let release = ReleaseInfo {
                        released: req.released,
                        deadline: workload.processes()[req.process.index()]
                            .rt
                            .map(|rt| req.released + rt.deadline),
                        min_service: scratch.min_service[req.process.index()],
                    };
                    (release, process.backlog(), process.backlog_cap())
                });
                let decision = probe.span(Layer::Policy, || {
                    policy.on_release_requested(
                        now,
                        req.process,
                        release,
                        backlog,
                        backlog_cap,
                        engine,
                    )
                });
                probe.policy_call();
                probe.span(Layer::Host, || host.resolve_release(now, req, decision));
            }
            scratch.releases.clear();

            probe.span(Layer::Host, || {
                host.drain_launches_into(&mut scratch.launches)
            });
            for i in 0..scratch.launches.len() {
                progressed = true;
                let launch = probe.span(Layer::Glue, || {
                    build_launch(workload, host, &scratch.launches[i], next_launch_id)
                });
                probe.span(Layer::Engine, || engine.submit(launch, now));
            }
            scratch.launches.clear();

            probe.span(Layer::Engine, || {
                engine.drain_scheduled_into(&mut scratch.engine_events)
            });
            probe.span(Layer::Queue, || {
                for (t, e) in scratch.engine_events.drain(..) {
                    queue.schedule(t, Event::Engine(e));
                }
            });
            let first_new = kernel_completions.len();
            probe.span(Layer::Engine, || {
                engine.drain_completions_into(kernel_completions)
            });
            for completion in &kernel_completions[first_new..] {
                progressed = true;
                probe.span(Layer::Host, || {
                    host.kernel_completed(now, completion.command)
                });
            }
            probe.span(Layer::Engine, || {
                engine.drain_hooks_into(&mut scratch.hooks)
            });
            for hook in scratch.hooks.drain(..) {
                progressed = true;
                probe.span(Layer::Policy, || policy.on_hook(now, hook, engine));
                probe.policy_call();
            }

            if !progressed {
                break;
            }
        }
        completed_iterations
    }
}

/// Lower bound on one iteration's service: its CPU phases plus one block
/// wave per launch (the simulator's admission-feasibility bound).
fn min_iteration_service(trace: &BenchmarkTrace) -> SimTime {
    let mut total = SimTime::ZERO;
    for op in trace.ops() {
        match op {
            TraceOp::CpuPhase { duration } => total += *duration,
            TraceOp::Launch { kernel, .. } => total += trace.kernels()[*kernel].mean_block_time(),
            _ => {}
        }
    }
    total
}

/// When the slowest process finished its `target`-th execution.
fn latest_needed_completion(iterations: &[Vec<IterationRecord>], target: u32) -> SimTime {
    iterations
        .iter()
        .filter_map(|records| records.get(target.saturating_sub(1) as usize))
        .map(|r| r.finished)
        .max()
        .unwrap_or(SimTime::ZERO)
}

/// The engine launch for a host launch request, with the process's deadline
/// anchored at the release of the execution it belongs to.
fn build_launch(
    workload: &Workload,
    host: &HostSystem,
    req: &LaunchRequest,
    next_id: &mut u64,
) -> KernelLaunch {
    let process_spec = &workload.processes()[req.process.index()];
    let spec = process_spec.benchmark.kernels()[req.kernel].clone();
    let id = KernelLaunchId::new(*next_id);
    *next_id += 1;
    let launch = KernelLaunch::new(id, req.command, req.process, req.priority, spec);
    match process_spec.rt {
        Some(rt) => {
            let release = host.processes()[req.process.index()].released();
            launch.with_rt(rt, release)
        }
        None => launch,
    }
}
