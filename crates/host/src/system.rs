//! The complete host-side model: processes, driver/dispatcher and DMA engine.

use crate::dispatcher::{Command, CommandDispatcher, CommandKind};
use crate::process::{IterationRecord, ProcessModel, ProcessState};
use crate::transfer::{TransferEngine, TransferPolicy};
use gpreempt_sim::SimRng;
use gpreempt_trace::{TraceOp, Workload};
use gpreempt_types::{
    AdmissionDecision, ArrivalProcess, CommandId, PcieConfig, Priority, ProcessId, SimTime,
    StreamId,
};

/// Events the host model schedules for itself; the simulator owns the event
/// queue and must deliver each back via [`HostSystem::handle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostEvent {
    /// A process finished a CPU phase.
    CpuPhaseDone {
        /// The process whose phase ended.
        process: ProcessId,
    },
    /// The DMA engine finished the in-progress transfer.
    TransferDone {
        /// The transfer command that completed.
        command: CommandId,
    },
    /// An open-arrival release timer fired: the process requests its next
    /// iteration. Firing also schedules the following release, so the timer
    /// chain runs for the whole simulation.
    Release {
        /// The releasing process.
        process: ProcessId,
    },
}

/// A pending open-arrival release awaiting an admission decision. The
/// simulator drains these, consults the scheduling policy and answers via
/// [`HostSystem::resolve_release`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleaseRequest {
    /// The releasing process.
    pub process: ProcessId,
    /// When the request was originally released.
    pub released: SimTime,
}

/// A kernel launch the host wants executed; the simulator forwards it to the
/// execution engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchRequest {
    /// The host command id (the execution engine echoes it on completion).
    pub command: CommandId,
    /// The launching process.
    pub process: ProcessId,
    /// Kernel index within the process's benchmark trace.
    pub kernel: usize,
    /// The software stream the launch was ordered on.
    pub stream: StreamId,
    /// The process's scheduling priority.
    pub priority: Priority,
}

/// The host side of the simulation: every process of the workload, the
/// command dispatcher and the DMA/transfer engine.
#[derive(Debug)]
pub struct HostSystem {
    processes: Vec<ProcessModel>,
    dispatcher: CommandDispatcher,
    transfer: TransferEngine,
    next_command: u64,
    scheduled: Vec<(SimTime, HostEvent)>,
    launches: Vec<LaunchRequest>,
    iterations: Vec<IterationRecord>,
    release_requests: Vec<ReleaseRequest>,
    /// Seed of the per-process arrival streams, derived by
    /// [`start`](Self::start).
    seed: u64,
    /// Per-process RNG streams for stochastic arrival gaps, one per process
    /// from [`start`](Self::start) on. Closed-loop processes never draw
    /// from theirs.
    arrival_rngs: Vec<SimRng>,
}

impl HostSystem {
    /// Builds the host model for a workload. Stochastic arrival gaps draw
    /// from per-process streams derived from `seed = 0`; use
    /// [`with_seed`](Self::with_seed) (before [`start`](Self::start)) to
    /// tie them to the simulation seed.
    pub fn new(workload: &Workload, pcie: PcieConfig, transfer_policy: TransferPolicy) -> Self {
        let processes: Vec<ProcessModel> = workload
            .processes()
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                // Real-time processes derive their priority from the
                // contract's criticality; legacy processes keep their
                // explicitly configured priority.
                ProcessModel::new(
                    ProcessId::from(i),
                    spec.benchmark.clone(),
                    spec.effective_priority(),
                )
                .with_arrival(spec.arrival, spec.backlog_cap)
            })
            .collect();
        HostSystem {
            processes,
            dispatcher: CommandDispatcher::new(),
            transfer: TransferEngine::new(pcie, transfer_policy),
            next_command: 0,
            scheduled: Vec::new(),
            launches: Vec::new(),
            iterations: Vec::new(),
            release_requests: Vec::new(),
            seed: 0,
            arrival_rngs: Vec::new(),
        }
    }

    /// Sets the seed the per-process arrival RNG streams are derived from.
    /// Call before [`start`](Self::start); a no-op for closed-loop
    /// workloads (their streams are never drawn from).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the host with
    /// `HostSystem::new(workload, pcie, transfer_policy).with_seed(seed)`.
    /// The simulator builds its host with `new`; this stays because the
    /// benchmark's replay of the event loop (`perfbench/src/replay.rs`)
    /// calls it.
    pub fn reset(
        &mut self,
        workload: &Workload,
        pcie: PcieConfig,
        transfer_policy: TransferPolicy,
        seed: u64,
    ) {
        *self = Self::new(workload, pcie, transfer_policy).with_seed(seed);
    }

    /// The per-process models (read-only).
    pub fn processes(&self) -> &[ProcessModel] {
        &self.processes
    }

    /// The DMA engine (read-only, for statistics).
    pub fn transfer_engine(&self) -> &TransferEngine {
        &self.transfer
    }

    /// Number of completed executions of each process, indexed by process id.
    pub fn completions(&self) -> Vec<u32> {
        self.processes.iter().map(|p| p.completions()).collect()
    }

    /// Whether every process has completed at least `n` executions.
    pub fn all_completed_at_least(&self, n: u32) -> bool {
        self.processes.iter().all(|p| p.completions() >= n)
    }

    /// Moves the events the host wants scheduled into `out` (drained by the
    /// simulator). Appends to `out` and keeps the internal buffer's
    /// capacity, so a reused scratch vector makes this allocation-free in
    /// steady state. Like every `drain_*_into`, it returns at once when it
    /// has nothing to move.
    pub fn drain_scheduled_into(&mut self, out: &mut Vec<(SimTime, HostEvent)>) {
        if !self.scheduled.is_empty() {
            out.append(&mut self.scheduled);
        }
    }

    /// Moves the kernel launches the host wants forwarded to the execution
    /// engine into `out`. Appends; both buffers keep their capacity.
    pub fn drain_launches_into(&mut self, out: &mut Vec<LaunchRequest>) {
        if !self.launches.is_empty() {
            out.append(&mut self.launches);
        }
    }

    /// Moves the process executions completed since the last drain into
    /// `out`. Appends; both buffers keep their capacity.
    pub fn drain_iterations_into(&mut self, out: &mut Vec<IterationRecord>) {
        if !self.iterations.is_empty() {
            out.append(&mut self.iterations);
        }
    }

    /// Moves the open-arrival releases awaiting an admission decision into
    /// `out`. The simulator consults the policy for each and answers via
    /// [`resolve_release`](Self::resolve_release). Appends; both buffers
    /// keep their capacity.
    pub fn drain_release_requests_into(&mut self, out: &mut Vec<ReleaseRequest>) {
        if !self.release_requests.is_empty() {
            out.append(&mut self.release_requests);
        }
    }

    /// Whether any output (events to schedule, launches, iteration records,
    /// release requests) is waiting to be drained. Batched dispatch uses
    /// this to skip drain passes for events that produced nothing — a drain
    /// with no pending output is an observable no-op.
    pub fn has_pending_outputs(&self) -> bool {
        !self.scheduled.is_empty()
            || !self.launches.is_empty()
            || !self.iterations.is_empty()
            || !self.release_requests.is_empty()
    }

    /// End-of-run arrival accounting for every process, with depth
    /// integrals extended to `horizon`.
    pub fn arrival_stats(&self, horizon: SimTime) -> Vec<crate::process::ArrivalStats> {
        self.processes
            .iter()
            .map(|p| p.arrival_stats(horizon))
            .collect()
    }

    /// Derives the arrival streams from the seed and starts every process
    /// at `now` (usually zero). Open-arrival processes take their first
    /// release immediately (counted and admitted without consulting the
    /// policy — the system is empty) and arm their release timer.
    pub fn start(&mut self, now: SimTime) {
        let root = SimRng::new(self.seed);
        // The salt offset decorrelates arrival draws from the engine's
        // block-jitter streams, which derive directly from process ids.
        self.arrival_rngs = (0..self.processes.len())
            .map(|i| root.derive(0xA221_u64 + i as u64))
            .collect();
        for pid in 0..self.processes.len() {
            if self.processes[pid].arrival().is_open() {
                self.processes[pid].note_release();
                let p = &mut self.processes[pid];
                p.set_released(now);
                // Count the initial admission so released == admitted + shed
                // holds from the first record on.
                p.enqueue_release(now, now);
                let _ = p.pop_queued_release(now);
                self.schedule_next_release(now, ProcessId::from(pid));
            }
            self.advance(now, ProcessId::from(pid));
        }
    }

    /// Draws the gap to the next release of `pid` and schedules the timer.
    /// Gaps are clamped to at least 1 ns so degenerate specs (e.g. a
    /// zero-gap burst tail) cannot wedge simulated time.
    fn schedule_next_release(&mut self, now: SimTime, pid: ProcessId) {
        let arrival = self.processes[pid.index()].arrival();
        let gap = match arrival {
            ArrivalProcess::ClosedLoop => return,
            ArrivalProcess::Periodic { period } => period,
            ArrivalProcess::Sporadic { period, jitter } => {
                let j = if jitter.is_finite() && jitter > 0.0 {
                    jitter
                } else {
                    0.0
                };
                let u = self.arrival_rngs[pid.index()].next_unit();
                period.scale(1.0 + u * j)
            }
            ArrivalProcess::Poisson { mean_gap } => {
                // Inverse-CDF exponential draw; (1 - u) keeps ln's argument
                // in (0, 1].
                let u = self.arrival_rngs[pid.index()].next_unit();
                mean_gap.scale(-(1.0 - u).ln())
            }
            ArrivalProcess::Bursty {
                burst_len,
                burst_gap,
                idle_gap,
            } => {
                if self.processes[pid.index()].next_burst_gap_is_intra(burst_len) {
                    burst_gap
                } else {
                    idle_gap
                }
            }
        };
        let gap = gap.max(SimTime::from_nanos(1));
        self.scheduled
            .push((now + gap, HostEvent::Release { process: pid }));
    }

    /// Applies the policy's admission decision to a drained release
    /// request.
    pub fn resolve_release(
        &mut self,
        now: SimTime,
        req: ReleaseRequest,
        decision: AdmissionDecision,
    ) {
        let pid = req.process;
        match decision {
            AdmissionDecision::Admit => {
                if self.processes[pid.index()].is_idle() {
                    self.processes[pid.index()].begin_release(now, req.released);
                    self.advance(now, pid);
                } else {
                    // Busy: queue behind the running iteration. The model
                    // enforces the backlog cap itself, so a policy cannot
                    // overfill the queue by always admitting.
                    let _ = self.processes[pid.index()].enqueue_release(now, req.released);
                }
            }
            AdmissionDecision::Shed => self.processes[pid.index()].note_shed(),
        }
    }

    /// Delivers a host event back at its scheduled time.
    pub fn handle(&mut self, now: SimTime, event: HostEvent) {
        match event {
            HostEvent::CpuPhaseDone { process } => {
                let p = &mut self.processes[process.index()];
                debug_assert_eq!(p.state(), ProcessState::InCpuPhase);
                p.set_ready();
                p.advance_cursor();
                self.advance(now, process);
            }
            HostEvent::TransferDone { command } => {
                let (done, next) = self.transfer.finish_current(now);
                debug_assert_eq!(done, Some(command));
                if let Some(started) = next {
                    self.scheduled.push((
                        started.finishes_at,
                        HostEvent::TransferDone {
                            command: started.command,
                        },
                    ));
                }
                self.command_completed(now, command);
            }
            HostEvent::Release { process } => {
                self.processes[process.index()].note_release();
                self.release_requests.push(ReleaseRequest {
                    process,
                    released: now,
                });
                self.schedule_next_release(now, process);
            }
        }
    }

    /// Notifies the host that the execution engine finished a kernel launch
    /// command.
    pub fn kernel_completed(&mut self, now: SimTime, command: CommandId) {
        self.command_completed(now, command);
    }

    fn command_completed(&mut self, now: SimTime, command: CommandId) {
        let Some((owner, ready)) = self.dispatcher.complete(command) else {
            return;
        };
        if let Some(ready) = ready {
            self.issue(now, ready);
        }
        let unblocked = {
            let p = &mut self.processes[owner.index()];
            p.note_command_completed();
            p.state() == ProcessState::WaitingSync && p.all_commands_completed()
        };
        if unblocked {
            let p = &mut self.processes[owner.index()];
            p.set_ready();
            p.advance_cursor();
            self.advance(now, owner);
        }
    }

    /// Runs a process forward until it blocks on a CPU phase or a
    /// synchronisation.
    fn advance(&mut self, now: SimTime, pid: ProcessId) {
        loop {
            let op = self.processes[pid.index()].current_op().cloned();
            match op {
                None => {
                    // End of trace: the trailing synchronisation guarantees
                    // no outstanding commands remain, so the iteration is
                    // complete. Closed-loop processes replay immediately;
                    // open-arrival processes start the oldest queued release
                    // or go idle until the next timer.
                    let record = self.processes[pid.index()].complete_iteration(now);
                    self.iterations.push(record);
                    if self.processes[pid.index()].arrival().is_open() {
                        match self.processes[pid.index()].pop_queued_release(now) {
                            Some(released) => {
                                self.processes[pid.index()].set_released(released);
                            }
                            None => {
                                self.processes[pid.index()].enter_idle();
                                return;
                            }
                        }
                    }
                }
                Some(TraceOp::CpuPhase { duration }) => {
                    self.processes[pid.index()].enter_cpu_phase();
                    self.scheduled
                        .push((now + duration, HostEvent::CpuPhaseDone { process: pid }));
                    return;
                }
                Some(TraceOp::Copy {
                    direction,
                    bytes,
                    stream,
                }) => {
                    let id = self.new_command(pid);
                    self.processes[pid.index()].advance_cursor();
                    let ready = self.dispatcher.enqueue(Command {
                        id,
                        process: pid,
                        stream,
                        kind: CommandKind::Copy { direction, bytes },
                    });
                    if let Some(ready) = ready {
                        self.issue(now, ready);
                    }
                }
                Some(TraceOp::Launch { kernel, stream }) => {
                    let id = self.new_command(pid);
                    self.processes[pid.index()].advance_cursor();
                    let ready = self.dispatcher.enqueue(Command {
                        id,
                        process: pid,
                        stream,
                        kind: CommandKind::Launch { kernel },
                    });
                    if let Some(ready) = ready {
                        self.issue(now, ready);
                    }
                }
                Some(TraceOp::Synchronize) => {
                    if self.processes[pid.index()].all_commands_completed() {
                        self.processes[pid.index()].advance_cursor();
                    } else {
                        self.processes[pid.index()].enter_sync_wait();
                        return;
                    }
                }
            }
        }
    }

    fn new_command(&mut self, pid: ProcessId) -> CommandId {
        let id = CommandId::new(self.next_command);
        self.next_command += 1;
        self.processes[pid.index()].note_command_issued();
        id
    }

    /// Issues one dispatcher-ready command to its target engine.
    fn issue(&mut self, now: SimTime, cmd: Command) {
        match cmd.kind {
            CommandKind::Copy { bytes, .. } => {
                let priority = self.processes[cmd.process.index()].priority();
                if let Some(started) =
                    self.transfer
                        .submit(cmd.id, cmd.process, priority, bytes, now)
                {
                    self.scheduled.push((
                        started.finishes_at,
                        HostEvent::TransferDone {
                            command: started.command,
                        },
                    ));
                }
            }
            CommandKind::Launch { kernel } => {
                let priority = self.processes[cmd.process.index()].priority();
                self.launches.push(LaunchRequest {
                    command: cmd.id,
                    process: cmd.process,
                    kernel,
                    stream: cmd.stream,
                    priority,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpreempt_sim::EventQueue;
    use gpreempt_trace::{BenchmarkTrace, KernelSpec, ProcessSpec};
    use gpreempt_types::KernelFootprint;

    fn toy_trace(cpu_us: u64, copies: usize, launches: usize) -> BenchmarkTrace {
        let mut b = BenchmarkTrace::builder("toy").kernel(KernelSpec::new(
            "k",
            KernelFootprint::new(1_024, 0, 128),
            8,
            SimTime::from_micros(10),
        ));
        b = b.cpu(SimTime::from_micros(cpu_us));
        for _ in 0..copies {
            b = b.h2d(64 * 1024);
        }
        for _ in 0..launches {
            b = b.launch(0);
        }
        b.build()
    }

    fn workload(traces: Vec<BenchmarkTrace>) -> Workload {
        Workload::new("test", traces.into_iter().map(ProcessSpec::new).collect())
            .with_min_completions(1)
    }

    /// Drives the host alone, acknowledging kernel launches after a fixed
    /// simulated execution time.
    fn run_host(host: &mut HostSystem, kernel_time: SimTime, until_completions: u32) -> SimTime {
        #[derive(Clone, Copy)]
        enum Ev {
            Host(HostEvent),
            KernelDone(CommandId),
        }
        let mut q: EventQueue<Ev> = EventQueue::new();
        let mut scheduled = Vec::new();
        let mut launches = Vec::new();
        host.start(SimTime::ZERO);
        loop {
            host.drain_scheduled_into(&mut scheduled);
            for (t, e) in scheduled.drain(..) {
                q.schedule(t, Ev::Host(e));
            }
            host.drain_launches_into(&mut launches);
            for l in launches.drain(..) {
                q.schedule_after(kernel_time, Ev::KernelDone(l.command));
            }
            if host.all_completed_at_least(until_completions) {
                return q.now();
            }
            let Some((t, ev)) = q.pop() else {
                panic!("host deadlocked before reaching the completion target");
            };
            match ev {
                Ev::Host(e) => host.handle(t, e),
                Ev::KernelDone(c) => host.kernel_completed(t, c),
            }
        }
    }

    #[test]
    fn single_process_runs_and_replays() {
        let w = workload(vec![toy_trace(100, 1, 2)]);
        let mut host = HostSystem::new(&w, PcieConfig::default(), TransferPolicy::Fcfs);
        let end = run_host(&mut host, SimTime::from_micros(50), 3);
        assert!(host.processes()[0].completions() >= 3);
        let mut iters = Vec::new();
        host.drain_iterations_into(&mut iters);
        assert!(iters.len() >= 3);
        // Iterations are sequential and non-overlapping for one process.
        for pair in iters.windows(2) {
            assert!(pair[1].started >= pair[0].finished);
        }
        assert!(end > SimTime::ZERO);
        // CPU phase + transfer + 2 kernels (serialized on one stream).
        let first = iters[0];
        assert!(first.turnaround() >= SimTime::from_micros(100 + 50 + 50));
    }

    #[test]
    fn stream_serialises_kernels() {
        // Two kernels on the same stream: the second launch request must not
        // appear until the first completes.
        let w = workload(vec![toy_trace(10, 0, 2)]);
        let mut host = HostSystem::new(&w, PcieConfig::default(), TransferPolicy::Fcfs);
        host.start(SimTime::ZERO);
        let mut sched = Vec::new();
        host.drain_scheduled_into(&mut sched);
        assert_eq!(sched.len(), 1); // the CPU phase
        host.handle(
            SimTime::from_micros(10),
            HostEvent::CpuPhaseDone {
                process: ProcessId::new(0),
            },
        );
        let mut launches = Vec::new();
        host.drain_launches_into(&mut launches);
        assert_eq!(launches.len(), 1, "only the first kernel may be issued");
        host.kernel_completed(SimTime::from_micros(60), launches[0].command);
        launches.clear();
        host.drain_launches_into(&mut launches);
        assert_eq!(launches.len(), 1, "second kernel follows the first");
    }

    #[test]
    fn transfers_share_the_single_dma_engine() {
        let w = workload(vec![toy_trace(0, 2, 1), toy_trace(0, 2, 1)]);
        let mut host = HostSystem::new(&w, PcieConfig::default(), TransferPolicy::Fcfs);
        let _ = run_host(&mut host, SimTime::from_micros(20), 1);
        // Each process performs two H2D copies per completed iteration, all
        // through the single shared DMA engine.
        assert!(host.transfer_engine().completed() >= 4);
        assert!(host.transfer_engine().bytes_moved() >= 4 * 64 * 1024);
        assert!(host.transfer_engine().busy_time() > SimTime::ZERO);
    }

    /// Drives an open-arrival host alone until `until` (simulated),
    /// acknowledging launches after `kernel_time` and answering every
    /// release request with the default rule (admit below the cap, shed at
    /// it) — the same behaviour the policy trait defaults to.
    fn run_host_open(host: &mut HostSystem, kernel_time: SimTime, until: SimTime) -> SimTime {
        #[derive(Clone, Copy)]
        enum Ev {
            Host(HostEvent),
            KernelDone(CommandId),
        }
        let mut q: EventQueue<Ev> = EventQueue::new();
        let mut scheduled = Vec::new();
        let mut launches = Vec::new();
        let mut releases = Vec::new();
        host.start(SimTime::ZERO);
        loop {
            loop {
                host.drain_scheduled_into(&mut scheduled);
                for (t, e) in scheduled.drain(..) {
                    q.schedule(t, Ev::Host(e));
                }
                host.drain_launches_into(&mut launches);
                for l in launches.drain(..) {
                    q.schedule_after(kernel_time, Ev::KernelDone(l.command));
                }
                host.drain_release_requests_into(&mut releases);
                if releases.is_empty() {
                    break;
                }
                let now = q.now();
                for req in releases.drain(..) {
                    let p = &host.processes()[req.process.index()];
                    let decision = if p.backlog() >= p.backlog_cap() {
                        AdmissionDecision::Shed
                    } else {
                        AdmissionDecision::Admit
                    };
                    host.resolve_release(now, req, decision);
                }
            }
            match q.peek_time() {
                Some(t) if t <= until => {
                    let (t, ev) = q.pop().unwrap();
                    match ev {
                        Ev::Host(e) => host.handle(t, e),
                        Ev::KernelDone(c) => host.kernel_completed(t, c),
                    }
                }
                _ => return q.now(),
            }
        }
    }

    #[test]
    fn backlog_grows_while_an_iteration_is_still_running() {
        // Service time (~100us CPU + 150us kernel) far exceeds the 100us
        // period: releases queue behind the running iteration, so later
        // iterations carry a release earlier than their start.
        let spec = ProcessSpec::new(toy_trace(100, 0, 1))
            .with_arrival(ArrivalProcess::Periodic {
                period: SimTime::from_micros(100),
            })
            .with_backlog_cap(3);
        let w = Workload::new("open", vec![spec]).with_min_completions(1);
        let mut host = HostSystem::new(&w, PcieConfig::default(), TransferPolicy::Fcfs);
        let end = run_host_open(
            &mut host,
            SimTime::from_micros(150),
            SimTime::from_millis(2),
        );

        let mut iters = Vec::new();
        host.drain_iterations_into(&mut iters);
        assert!(iters.len() >= 3, "several iterations complete");
        assert!(
            iters.iter().any(|r| r.released < r.started),
            "a queued release must predate its start"
        );
        assert!(
            iters.iter().any(|r| r.response_time() > r.turnaround()),
            "queueing delay must show up in the response time"
        );
        // Iterations drain back to back: each next start is the previous
        // finish (no idle gap while the backlog is non-empty).
        for pair in iters.windows(2) {
            assert!(pair[1].started >= pair[0].finished);
        }

        let stats = host.arrival_stats(end)[0];
        assert!(
            stats.released > stats.admitted,
            "overload outruns admission"
        );
        assert!(stats.shed > 0, "the bounded backlog must shed");
        assert_eq!(stats.released, stats.admitted + stats.shed);
        assert!(stats.max_depth <= 3, "the cap bounds the backlog");
        assert!(stats.depth_integral_ns > 0, "the queue was non-empty");
    }

    #[test]
    fn zero_period_degenerates_to_closed_loop() {
        // A zero period cannot be a timer; the spec documents it as
        // closed-loop replay and the host must not schedule any releases.
        let spec = ProcessSpec::new(toy_trace(10, 0, 1)).with_arrival(ArrivalProcess::Periodic {
            period: SimTime::ZERO,
        });
        assert!(spec.arrival.is_closed_loop());
        let w = Workload::new("degenerate", vec![spec]).with_min_completions(1);
        assert!(!w.has_open_arrivals());
        let mut host = HostSystem::new(&w, PcieConfig::default(), TransferPolicy::Fcfs);
        let end = run_host(&mut host, SimTime::from_micros(20), 3);

        let stats = host.arrival_stats(end)[0];
        assert_eq!(stats.released, 0, "closed loops release nothing");
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.max_depth, 0);
        assert_eq!(stats.depth_integral_ns, 0);
        let mut iters = Vec::new();
        host.drain_iterations_into(&mut iters);
        assert!(iters.iter().all(|r| r.released == r.started));
    }

    #[test]
    fn cap_of_one_sheds_everything_that_queues() {
        let spec = ProcessSpec::new(toy_trace(50, 0, 1))
            .with_arrival(ArrivalProcess::Periodic {
                period: SimTime::from_micros(60),
            })
            .with_backlog_cap(1);
        let w = Workload::new("cap1", vec![spec]).with_min_completions(1);
        let mut host = HostSystem::new(&w, PcieConfig::default(), TransferPolicy::Fcfs);
        let end = run_host_open(
            &mut host,
            SimTime::from_micros(200),
            SimTime::from_millis(3),
        );
        let stats = host.arrival_stats(end)[0];
        assert!(stats.shed >= 2, "cap 1 under overload must shed repeatedly");
        assert!(stats.max_depth <= 1);
        assert_eq!(stats.released, stats.admitted + stats.shed);
    }

    #[test]
    fn completions_tracks_every_process() {
        let w = workload(vec![toy_trace(5, 0, 1), toy_trace(500, 0, 1)]);
        let mut host = HostSystem::new(&w, PcieConfig::default(), TransferPolicy::Fcfs);
        let _ = run_host(&mut host, SimTime::from_micros(10), 2);
        let completions = host.completions();
        assert!(completions.iter().all(|&c| c >= 2));
        // The short process replays more often than the long one.
        assert!(completions[0] > completions[1]);
        assert!(host.all_completed_at_least(2));
        assert!(!host.all_completed_at_least(100));
    }
}
