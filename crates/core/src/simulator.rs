//! The whole-system simulator: host + PCIe + execution engine + policy.

use crate::config::{PolicyKind, SimulatorConfig};
use gpreempt_gpu::{
    EngineEvent, EngineStats, ExecutionEngine, KernelCompletion, KernelLaunch, PolicyHook,
};
use gpreempt_host::{
    ArrivalStats, HostEvent, HostSystem, IterationRecord, LaunchRequest, ReleaseRequest,
};
use gpreempt_metrics::{
    ArrivalCounts, ProcessPerformance, RtMetrics, RtProcessMetrics, SloMetrics, WorkloadMetrics,
};
use gpreempt_sched::{ReleaseInfo, SchedulingPolicy};
use gpreempt_sim::EventQueue;
use gpreempt_trace::TraceOp;
use gpreempt_trace::{BenchmarkTrace, ProcessSpec, Workload};
use gpreempt_types::{KernelLaunchId, ProcessId, SimError, SimTime};

/// One event of the combined simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Host(HostEvent),
    Engine(EngineEvent),
}

/// Scratch buffers the drain loop reuses across every event of a run.
///
/// Each `drain` iteration moves the host's and the engine's pending outputs
/// through these vectors instead of `mem::take`-ing fresh ones; once their
/// capacities plateau (within the first few events), the steady-state event
/// loop performs **zero heap allocations per event** — verified by the
/// counting-allocator integration tests.
#[derive(Debug, Default)]
struct DrainScratch {
    host_events: Vec<(SimTime, HostEvent)>,
    engine_events: Vec<(SimTime, EngineEvent)>,
    launches: Vec<LaunchRequest>,
    iterations: Vec<IterationRecord>,
    hooks: Vec<PolicyHook>,
    releases: Vec<ReleaseRequest>,
    /// Per-process lower bound on one iteration's service, rebuilt at the
    /// start of every run (admission feasibility checks read it per
    /// release).
    min_service: Vec<SimTime>,
}

/// The reusable arena of one simulation worker: host model, execution
/// engine, event queue and drain scratch.
///
/// Construct one workspace per worker (or thread) and pass it to
/// [`Simulator::run_with`] for every scenario of that worker's stream: the
/// first run builds the components and every later run `reset`s them in
/// place, reusing the process models, dispatcher queues, KSRT slab, per-SM
/// state, event heap and scratch vectors the previous scenarios grew.
/// Results are byte-identical to the rebuild-per-run
/// [`Simulator::run`] path; only the allocation behaviour differs.
#[derive(Debug, Default)]
pub struct SimWorkspace {
    host: Option<HostSystem>,
    engine: Option<ExecutionEngine>,
    queue: EventQueue<Event>,
    scratch: DrainScratch,
    /// Same-timestamp cohort popped by `EventQueue::pop_batch_into`; lives
    /// beside (not inside) `DrainScratch` so the batch can be iterated
    /// while drains borrow the scratch.
    batch: Vec<Event>,
}

impl SimWorkspace {
    /// Creates an empty workspace; the first run populates it.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The result of simulating one workload under one policy.
#[derive(Debug, Clone)]
pub struct SimulationRun {
    workload_name: String,
    policy: PolicyKind,
    n_processes: usize,
    end_time: SimTime,
    iterations: Vec<Vec<IterationRecord>>,
    kernel_completions: Vec<KernelCompletion>,
    engine_stats: EngineStats,
    events_processed: u64,
    arrival_stats: Vec<ArrivalStats>,
}

impl SimulationRun {
    /// Name of the workload that was simulated.
    pub fn workload_name(&self) -> &str {
        &self.workload_name
    }

    /// The scheduling policy that was used.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Number of processes in the workload.
    pub fn n_processes(&self) -> usize {
        self.n_processes
    }

    /// The simulated time at which the stop condition (every process reached
    /// its replay target) was met.
    pub fn end_time(&self) -> SimTime {
        self.end_time
    }

    /// Completed executions of each process (indexed by process id).
    pub fn iterations(&self) -> &[Vec<IterationRecord>] {
        &self.iterations
    }

    /// Every kernel completion observed, in completion order.
    pub fn kernel_completions(&self) -> &[KernelCompletion] {
        &self.kernel_completions
    }

    /// Execution-engine counters at the end of the run.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine_stats
    }

    /// Number of simulation events processed.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// End-of-run arrival accounting of each process (indexed by process
    /// id): released / admitted / shed counts and the backlog-depth
    /// integral, all zero-inert for closed-loop processes.
    pub fn arrival_stats(&self) -> &[ArrivalStats] {
        &self.arrival_stats
    }

    /// Condenses the run into service-level-objective metrics: per-request
    /// response-time percentiles (p50/p99/p99.9), shed rates, queue depths
    /// and goodput. Meaningful for open-arrival workloads; for closed-loop
    /// runs the response time equals the turnaround and nothing is ever
    /// shed.
    pub fn slo_metrics(&self) -> SloMetrics {
        let horizon_ns = self.end_time.as_nanos();
        let processes = self
            .arrival_stats
            .iter()
            .zip(&self.iterations)
            .map(|(stats, records)| {
                let mean_depth = if horizon_ns == 0 {
                    0.0
                } else {
                    stats.depth_integral_ns as f64 / horizon_ns as f64
                };
                let counts = ArrivalCounts {
                    released: stats.released,
                    admitted: stats.admitted,
                    shed: stats.shed,
                    mean_queue_depth: mean_depth,
                    max_queue_depth: stats.max_depth,
                };
                let responses: Vec<f64> = records
                    .iter()
                    .map(|r| r.response_time().as_micros_f64())
                    .collect();
                (counts, responses)
            })
            .collect();
        SloMetrics::new(self.end_time, processes)
    }

    /// Average turnaround time of the completed executions of one process.
    /// Zero when the process completed no executions (starvation), which
    /// [`metrics`](Self::metrics) reports as NTT = ∞ / progress = 0.
    pub fn mean_turnaround(&self, process: ProcessId) -> SimTime {
        let records = &self.iterations[process.index()];
        if records.is_empty() {
            return SimTime::ZERO;
        }
        let total: SimTime = records.iter().map(IterationRecord::turnaround).sum();
        total / records.len() as u64
    }

    /// Average turnaround of every process, in process order.
    pub fn mean_turnarounds(&self) -> Vec<SimTime> {
        (0..self.iterations.len())
            .map(|p| self.mean_turnaround(ProcessId::from(p)))
            .collect()
    }

    /// Computes the real-time metrics of this run — per-process response
    /// times, deadline-miss rate and max tardiness — holding each process
    /// to the relative deadline of its [`RtSpec`](gpreempt_types::RtSpec)
    /// in `workload` (processes without a contract contribute response
    /// times but can miss nothing). Responses are measured from the
    /// **release** of each execution, so an open-arrival iteration that
    /// waited in the backlog is charged its queueing delay (for closed
    /// loops release and start coincide).
    ///
    /// `workload` must be the workload this run simulated; each process's
    /// completed executions are matched to its spec by process index.
    pub fn rt_metrics(&self, workload: &gpreempt_trace::Workload) -> RtMetrics {
        debug_assert_eq!(
            workload.len(),
            self.iterations.len(),
            "rt_metrics needs the workload this run simulated"
        );
        let per_process = workload
            .processes()
            .iter()
            .zip(&self.iterations)
            .map(|(spec, records)| {
                RtProcessMetrics::from_executions(
                    spec.rt.map(|rt| rt.deadline),
                    records.iter().map(|r| (r.released, r.finished)),
                )
            })
            .collect();
        RtMetrics::new(per_process)
    }

    /// Computes the Eyerman & Eeckhout metrics of this run given each
    /// process's isolated execution time. Processes with zero completed
    /// executions are reported as starved (NTT = ∞, normalized progress 0,
    /// fairness → 0) instead of producing an error.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidWorkload`] if the lengths differ or any
    /// isolated time is zero.
    pub fn metrics(&self, isolated: &[SimTime]) -> Result<WorkloadMetrics, SimError> {
        if isolated.len() != self.iterations.len() {
            return Err(SimError::invalid_workload(
                "isolated time count does not match the number of processes",
            ));
        }
        let perf: Vec<ProcessPerformance> = isolated
            .iter()
            .enumerate()
            .map(|(p, &iso)| ProcessPerformance::new(iso, self.mean_turnaround(ProcessId::from(p))))
            .collect();
        WorkloadMetrics::new(&perf)
    }
}

/// The top-level simulator. Construct it once (it is cheap) and run as many
/// workloads as needed; every run is independent and deterministic for a
/// given configuration.
///
/// # Example
///
/// ```
/// use gpreempt::{PolicyKind, Simulator, SimulatorConfig};
/// use gpreempt_trace::{parboil, ProcessSpec, Workload};
///
/// let config = SimulatorConfig::default();
/// let sim = Simulator::new(config.clone());
/// let gpu = &config.machine.gpu;
/// let workload = Workload::new(
///     "two-spmv",
///     vec![
///         ProcessSpec::new(parboil::benchmark("spmv", gpu).unwrap()),
///         ProcessSpec::new(parboil::benchmark("spmv", gpu).unwrap()),
///     ],
/// )
/// .with_min_completions(1);
/// let run = sim.run(&workload, PolicyKind::Fcfs).unwrap();
/// assert_eq!(run.iterations().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimulatorConfig,
}

impl Simulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: SimulatorConfig) -> Self {
        Simulator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimulatorConfig {
        &self.config
    }

    /// Simulates `workload` under `policy` until every process has completed
    /// at least [`Workload::min_completions`] executions.
    ///
    /// # Errors
    ///
    /// Returns an error if the workload is invalid for the configured GPU,
    /// or if the event budget is exhausted before the replay target is met
    /// (which indicates starvation or a livelock).
    pub fn run(&self, workload: &Workload, policy: PolicyKind) -> Result<SimulationRun, SimError> {
        let mut ws = SimWorkspace::new();
        self.run_inner(&mut ws, workload, policy, None)
    }

    /// Simulates `workload` under `policy` like [`run`](Self::run), reusing
    /// the caller's [`SimWorkspace`] instead of constructing the host,
    /// engine and event queue from scratch. Drive a worker's whole scenario
    /// stream through one workspace to keep steady-state scenario turnover
    /// allocation-flat; the result is byte-identical to [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// Exactly as [`run`](Self::run).
    pub fn run_with(
        &self,
        ws: &mut SimWorkspace,
        workload: &Workload,
        policy: PolicyKind,
    ) -> Result<SimulationRun, SimError> {
        self.run_inner(ws, workload, policy, None)
    }

    /// Simulates `workload` under `policy` until every process met the
    /// replay target **or** simulated time reaches `deadline`, whichever
    /// comes first. Unlike [`run`](Self::run), the returned
    /// [`SimulationRun`] may contain processes with zero completed
    /// executions (starvation); their mean turnaround is zero and
    /// [`SimulationRun::metrics`] reports them as starved (NTT = ∞,
    /// fairness → 0) rather than erroring.
    ///
    /// # Errors
    ///
    /// Returns an error if the workload is invalid for the configured GPU
    /// or the event budget is exhausted before the deadline.
    pub fn run_until(
        &self,
        workload: &Workload,
        policy: PolicyKind,
        deadline: SimTime,
    ) -> Result<SimulationRun, SimError> {
        let mut ws = SimWorkspace::new();
        self.run_inner(&mut ws, workload, policy, Some(deadline))
    }

    /// Horizon-capped counterpart of [`run_with`](Self::run_with): exactly
    /// [`run_until`](Self::run_until), but reusing the caller's workspace.
    ///
    /// # Errors
    ///
    /// Exactly as [`run_until`](Self::run_until).
    pub fn run_until_with(
        &self,
        ws: &mut SimWorkspace,
        workload: &Workload,
        policy: PolicyKind,
        deadline: SimTime,
    ) -> Result<SimulationRun, SimError> {
        self.run_inner(ws, workload, policy, Some(deadline))
    }

    fn run_inner(
        &self,
        ws: &mut SimWorkspace,
        workload: &Workload,
        policy: PolicyKind,
        deadline: Option<SimTime>,
    ) -> Result<SimulationRun, SimError> {
        self.config.machine.validate()?;
        workload.validate(&self.config.machine.gpu)?;

        let transfer_policy = self
            .config
            .transfer_policy
            .unwrap_or_else(|| policy.transfer_policy());
        // Reinitialise the workspace's host in place when it has one (the
        // reset is observationally identical to a fresh construction but
        // reuses the process models, dispatcher queues and drain buffers);
        // build it on the first run.
        let host = match ws.host.as_mut() {
            Some(host) => {
                host.reset(
                    workload,
                    self.config.machine.pcie.clone(),
                    transfer_policy,
                    self.config.seed,
                );
                host
            }
            None => ws.host.insert(
                HostSystem::new(workload, self.config.machine.pcie.clone(), transfer_policy)
                    .with_seed(self.config.seed),
            ),
        };
        // Time-slicing policies need a quantum; when the configuration does
        // not set one explicitly, arm the policy's default. Every other
        // policy leaves it `None`, so no quantum events exist and legacy
        // runs stay byte-identical.
        let mut engine_params = self.config.engine;
        if engine_params.quantum.is_none() {
            engine_params.quantum = policy.default_quantum();
        }
        let engine = match ws.engine.as_mut() {
            Some(engine) => {
                engine.reset(
                    self.config.machine.gpu.clone(),
                    self.config.machine.preemption,
                    engine_params,
                    gpreempt_sim::SimRng::new(self.config.seed),
                );
                engine
            }
            None => ws.engine.insert(ExecutionEngine::new(
                self.config.machine.gpu.clone(),
                self.config.machine.preemption,
                engine_params,
                gpreempt_sim::SimRng::new(self.config.seed),
            )),
        };
        let mut policy_impl: Box<dyn SchedulingPolicy> =
            policy.build(workload, self.config.machine.gpu.n_sms);
        // Pre-size the event queue from the replay target so steady-state
        // scheduling rarely grows the heap. Horizon-capped runs use a huge
        // replay target as "never finish", so clamp the guess.
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
                .map(|spec| Self::min_iteration_service(&spec.benchmark)),
        );
        let target = workload.min_completions();

        host.start(SimTime::ZERO);
        // `all_completed_at_least` scans every process; completions only move
        // when drain surfaces iteration records, so the loop re-checks the
        // target only after drains that reported one (true here so a
        // zero-target run terminates immediately).
        let mut completions_dirty = true;
        Self::drain(
            host,
            engine,
            policy_impl.as_mut(),
            queue,
            workload,
            &mut iterations,
            &mut kernel_completions,
            &mut next_launch_id,
            scratch,
            SimTime::ZERO,
        );

        let end_time;
        // Events that share one timestamp are popped as a batch and the
        // per-timestamp bookkeeping (deadline peek, queue pop) is paid once
        // per batch. When the run's stop condition fires mid-batch, the
        // already-popped tail is left unhandled — exactly the events a
        // one-pop-at-a-time loop would have left pending — and subtracted
        // from the processed count below.
        let batch = &mut ws.batch;
        let mut unhandled_tail = 0u64;
        'run: loop {
            if completions_dirty {
                completions_dirty = false;
                if host.all_completed_at_least(target) {
                    end_time = Self::latest_needed_completion(&iterations, target);
                    break;
                }
            }
            if let Some(d) = deadline {
                // Stop at the deadline: no further event at or before it.
                if queue.peek_time().is_none_or(|t| t > d) {
                    end_time = d;
                    break;
                }
            }
            if queue.processed() >= self.config.max_events {
                return Err(SimError::EventBudgetExceeded {
                    processed: queue.processed(),
                });
            }
            let Some(now) = queue.pop_batch_into(batch) else {
                return Err(SimError::internal(format!(
                    "simulation deadlocked at {} with completions {:?}",
                    queue.now(),
                    host.completions()
                )));
            };
            let before_batch = queue.processed() - batch.len() as u64;
            for (i, &event) in batch.iter().enumerate() {
                if i > 0 {
                    // Re-check the stop conditions an unbatched loop would
                    // have evaluated between these two pops. The deadline
                    // check is skipped on purpose: the next event of the
                    // batch is pending at `now <= deadline`, so it can
                    // never fire here.
                    if completions_dirty {
                        completions_dirty = false;
                        if host.all_completed_at_least(target) {
                            end_time = Self::latest_needed_completion(&iterations, target);
                            unhandled_tail = (batch.len() - i) as u64;
                            break 'run;
                        }
                    }
                    let processed = before_batch + i as u64;
                    if processed >= self.config.max_events {
                        return Err(SimError::EventBudgetExceeded { processed });
                    }
                }
                match event {
                    Event::Host(e) => host.handle(now, e),
                    Event::Engine(e) => engine.handle(now, e),
                }
                // A drain when neither component produced output is an
                // observable no-op, so batching pays the drain (and the
                // completion-dirty bookkeeping behind it) only for events
                // that actually emitted something.
                if host.has_pending_outputs() || engine.has_pending_outputs() {
                    completions_dirty |= Self::drain(
                        host,
                        engine,
                        policy_impl.as_mut(),
                        queue,
                        workload,
                        &mut iterations,
                        &mut kernel_completions,
                        &mut next_launch_id,
                        scratch,
                        now,
                    );
                }
            }
        }

        // Closed-loop runs have no legal way to schedule into the past; a
        // clamp here means a component broke causality.
        debug_assert!(
            deadline.is_some() || queue.clamped() == 0,
            "closed-loop run clamped {} past-time schedules",
            queue.clamped()
        );
        let mut engine_stats = engine.stats();
        engine_stats.events_clamped = queue.clamped();
        Ok(SimulationRun {
            workload_name: workload.name().to_string(),
            policy,
            n_processes: workload.len(),
            end_time,
            iterations,
            kernel_completions,
            engine_stats,
            events_processed: queue.processed() - unhandled_tail,
            arrival_stats: host.arrival_stats(end_time),
        })
    }

    /// Lower bound on the service one iteration of `trace` needs: every CPU
    /// phase in full, plus at least one thread-block wave per kernel launch
    /// (transfers and queueing are ignored, keeping the bound optimistic).
    /// Feasibility shedding compares a release's absolute deadline against
    /// this bound.
    fn min_iteration_service(trace: &BenchmarkTrace) -> SimTime {
        let mut total = SimTime::ZERO;
        for op in trace.ops() {
            match op {
                TraceOp::CpuPhase { duration } => total += *duration,
                TraceOp::Launch { kernel, .. } => {
                    total += trace.kernels()[*kernel].mean_block_time()
                }
                _ => {}
            }
        }
        total
    }

    /// The single-process FCFS workload an isolated-execution measurement
    /// simulates. Shared by [`Simulator::isolated_time`] and the sweep
    /// harnesses' batched isolated phase
    /// ([`isolated_times_with_cache`](crate::experiments::isolated_times_with_cache)),
    /// so the two paths cannot diverge.
    pub fn isolated_workload(benchmark: &BenchmarkTrace) -> Workload {
        Workload::new(
            format!("isolated-{}", benchmark.name()),
            vec![ProcessSpec::new(benchmark.clone())],
        )
        .with_min_completions(1)
    }

    /// Extracts the isolated execution time — the turnaround of the first
    /// completed iteration — from a finished
    /// [`isolated_workload`](Self::isolated_workload) run.
    pub fn isolated_time_of(run: &SimulationRun) -> SimTime {
        run.iterations()[0][0].turnaround()
    }

    /// Runs one benchmark alone on the machine and returns the execution
    /// time of its first completed iteration — the "isolated execution"
    /// reference the metrics are normalised to.
    ///
    /// # Errors
    ///
    /// Returns an error if the benchmark trace is invalid for the configured
    /// GPU.
    pub fn isolated_time(&self, benchmark: &BenchmarkTrace) -> Result<SimTime, SimError> {
        let workload = Self::isolated_workload(benchmark);
        let run = self.run(&workload, PolicyKind::Fcfs)?;
        Ok(Self::isolated_time_of(&run))
    }

    /// Isolated execution times of every process of a workload, in process
    /// order. Identical benchmarks are simulated only once.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Simulator::isolated_time`].
    pub fn isolated_times(&self, workload: &Workload) -> Result<Vec<SimTime>, SimError> {
        // Keyed by `&str` borrowed from the workload's traces: no per-lookup
        // `String` allocation for repeated benchmarks.
        let mut cache: std::collections::HashMap<&str, SimTime> = std::collections::HashMap::new();
        let mut times = Vec::with_capacity(workload.len());
        for spec in workload.processes() {
            let name = spec.benchmark.name();
            let time = match cache.get(name) {
                Some(&t) => t,
                None => {
                    let t = self.isolated_time(&spec.benchmark)?;
                    cache.insert(name, t);
                    t
                }
            };
            times.push(time);
        }
        Ok(times)
    }

    /// The timestamp of the completion that satisfied the replay target:
    /// the time at which the slowest process finished its `target`-th
    /// execution.
    fn latest_needed_completion(iterations: &[Vec<IterationRecord>], target: u32) -> SimTime {
        iterations
            .iter()
            .filter_map(|records| records.get(target.saturating_sub(1) as usize))
            .map(|r| r.finished)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Moves pending outputs between the host, the engine and the policy
    /// until everything settles.
    ///
    /// All transfers go through the caller-owned [`DrainScratch`] buffers
    /// (and completions land directly in the run's accumulation vector), so
    /// the per-event hot path never allocates once capacities plateau.
    #[allow(clippy::too_many_arguments)]
    fn drain(
        host: &mut HostSystem,
        engine: &mut ExecutionEngine,
        policy: &mut dyn SchedulingPolicy,
        queue: &mut EventQueue<Event>,
        workload: &Workload,
        iterations: &mut [Vec<IterationRecord>],
        kernel_completions: &mut Vec<KernelCompletion>,
        next_launch_id: &mut u64,
        scratch: &mut DrainScratch,
        now: SimTime,
    ) -> bool {
        let mut completed_iterations = false;
        loop {
            let mut progressed = false;

            host.drain_scheduled_into(&mut scratch.host_events);
            for (t, e) in scratch.host_events.drain(..) {
                queue.schedule(t, Event::Host(e));
            }
            host.drain_iterations_into(&mut scratch.iterations);
            for record in scratch.iterations.drain(..) {
                completed_iterations = true;
                iterations[record.process.index()].push(record);
            }
            // Open-arrival releases: the host raises admission requests and
            // the policy answers (admit / shed). Closed-loop
            // workloads never produce any, so this stays out of their hot
            // path.
            host.drain_release_requests_into(&mut scratch.releases);
            for i in 0..scratch.releases.len() {
                progressed = true;
                let req = scratch.releases[i];
                let process = &host.processes()[req.process.index()];
                let release = ReleaseInfo {
                    released: req.released,
                    deadline: workload.processes()[req.process.index()]
                        .rt
                        .map(|rt| req.released + rt.deadline),
                    min_service: scratch.min_service[req.process.index()],
                };
                let decision = policy.on_release_requested(
                    now,
                    req.process,
                    release,
                    process.backlog(),
                    process.backlog_cap(),
                    engine,
                );
                host.resolve_release(now, req, decision);
            }
            scratch.releases.clear();

            host.drain_launches_into(&mut scratch.launches);
            for i in 0..scratch.launches.len() {
                progressed = true;
                let launch =
                    Self::build_launch(workload, host, &scratch.launches[i], next_launch_id);
                engine.submit(launch, now);
            }
            scratch.launches.clear();

            engine.drain_scheduled_into(&mut scratch.engine_events);
            for (t, e) in scratch.engine_events.drain(..) {
                queue.schedule(t, Event::Engine(e));
            }
            // Completions accumulate straight into the run's vector; the new
            // tail is what still needs to be reported to the host.
            let first_new = kernel_completions.len();
            engine.drain_completions_into(kernel_completions);
            for completion in &kernel_completions[first_new..] {
                progressed = true;
                host.kernel_completed(now, completion.command);
            }
            engine.drain_hooks_into(&mut scratch.hooks);
            for hook in scratch.hooks.drain(..) {
                progressed = true;
                policy.on_hook(now, hook, engine);
            }

            if !progressed {
                break;
            }
        }
        completed_iterations
    }

    /// Translates a host launch request into an execution-engine launch
    /// command by looking the kernel up in the workload's traces. Launches
    /// of real-time processes carry the process's [`RtSpec`] and the
    /// absolute deadline of the execution they belong to, resolved against
    /// the host's record of when that execution started.
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
                // Deadlines are anchored at the release of the execution,
                // not its start: a backlogged open-arrival iteration has
                // already burnt queueing time against its deadline.
                let release = host.processes()[req.process.index()].released();
                launch.with_rt(rt, release)
            }
            None => launch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpreempt_trace::parboil;
    use gpreempt_types::GpuConfig;

    fn quick_workload(names: &[&str], min_completions: u32) -> Workload {
        let gpu = GpuConfig::default();
        let processes = names
            .iter()
            .map(|n| ProcessSpec::new(parboil::benchmark(n, &gpu).unwrap()))
            .collect();
        Workload::new(format!("{names:?}"), processes).with_min_completions(min_completions)
    }

    #[test]
    fn isolated_spmv_time_is_close_to_trace_content() {
        let sim = Simulator::new(SimulatorConfig::default());
        let gpu = GpuConfig::default();
        let spmv = parboil::benchmark("spmv", &gpu).unwrap();
        let t = sim.isolated_time(&spmv).unwrap();
        // GPU kernels alone are ~2.1ms; with CPU phases and transfers the
        // whole application lands in the 2.5-4ms range.
        let ms = t.as_millis_f64();
        assert!((2.4..4.5).contains(&ms), "isolated spmv {ms}ms");
    }

    #[test]
    fn two_process_fcfs_run_completes_and_slows_processes_down() {
        let sim = Simulator::new(SimulatorConfig::default());
        let w = quick_workload(&["spmv", "mri-q"], 2);
        let run = sim.run(&w, PolicyKind::Fcfs).unwrap();
        assert_eq!(run.iterations().len(), 2);
        assert!(run.iterations().iter().all(|i| i.len() >= 2));
        assert!(run.end_time() > SimTime::ZERO);
        assert_eq!(run.policy(), PolicyKind::Fcfs);
        assert_eq!(run.n_processes(), 2);
        assert!(run.events_processed() > 0);
        assert!(!run.kernel_completions().is_empty());

        let isolated = sim.isolated_times(&w).unwrap();
        let metrics = run.metrics(&isolated).unwrap();
        // Sharing the GPU can only slow applications down.
        assert!(metrics.antt() >= 1.0);
        assert!(metrics.stp() <= 2.0 + 1e-9);
        assert!(metrics.fairness() > 0.0 && metrics.fairness() <= 1.0);
    }

    #[test]
    fn dss_improves_fairness_over_fcfs_for_asymmetric_pair() {
        // A long application (sgemm) next to a short one (spmv): FCFS makes
        // the short one wait; DSS shares the SMs.
        let sim = Simulator::new(SimulatorConfig::default());
        let w = quick_workload(&["spmv", "sgemm"], 2);
        let isolated = sim.isolated_times(&w).unwrap();
        let fcfs = sim.run(&w, PolicyKind::Fcfs).unwrap();
        let dss = sim.run(&w, PolicyKind::Dss).unwrap();
        let m_fcfs = fcfs.metrics(&isolated).unwrap();
        let m_dss = dss.metrics(&isolated).unwrap();
        assert!(
            m_dss.fairness() >= m_fcfs.fairness() * 0.95,
            "DSS fairness {} should not be below FCFS {}",
            m_dss.fairness(),
            m_fcfs.fairness()
        );
        assert!(dss.engine_stats().preemptions > 0 || m_dss.fairness() >= m_fcfs.fairness());
    }

    #[test]
    fn runs_are_deterministic() {
        let sim = Simulator::new(SimulatorConfig::default().with_seed(99));
        let w = quick_workload(&["spmv", "spmv"], 1);
        let a = sim.run(&w, PolicyKind::Dss).unwrap();
        let b = sim.run(&w, PolicyKind::Dss).unwrap();
        assert_eq!(a.end_time(), b.end_time());
        assert_eq!(a.events_processed(), b.events_processed());
        assert_eq!(a.mean_turnarounds(), b.mean_turnarounds());
    }

    #[test]
    fn metrics_reject_mismatched_isolated_times() {
        let sim = Simulator::new(SimulatorConfig::default());
        let w = quick_workload(&["spmv"], 1);
        let run = sim.run(&w, PolicyKind::Fcfs).unwrap();
        assert!(run.metrics(&[]).is_err());
    }
}
