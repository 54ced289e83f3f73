//! Host-side model of one process replaying its application trace.

use gpreempt_trace::{BenchmarkTrace, TraceOp};
use gpreempt_types::{ArrivalProcess, Priority, ProcessId, SimTime};
use std::collections::VecDeque;

/// What a process is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessState {
    /// Executing a CPU phase; the host is blocked until it ends.
    InCpuPhase,
    /// Blocked in a device-wide synchronisation, waiting for outstanding
    /// commands to complete.
    WaitingSync,
    /// Ready to process the next trace operation.
    Ready,
    /// Open-arrival process with no released work: waiting for the next
    /// release timer. Closed-loop processes never enter this state.
    Idle,
}

/// A completed execution (one replay iteration) of a process's application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationRecord {
    /// The process that completed an execution.
    pub process: ProcessId,
    /// Which replay iteration this was (0-based).
    pub iteration: u32,
    /// When the iteration was released (requested). Equal to `started` for
    /// closed-loop processes; earlier than `started` for open-arrival
    /// iterations that waited in the backlog.
    pub released: SimTime,
    /// When the iteration started.
    pub started: SimTime,
    /// When the iteration finished (last command completed).
    pub finished: SimTime,
}

impl IterationRecord {
    /// The turnaround time of this execution (finish − start).
    pub fn turnaround(&self) -> SimTime {
        self.finished.saturating_sub(self.started)
    }

    /// The response time of this execution (finish − release): what a
    /// service client observes. Equal to [`turnaround`](Self::turnaround)
    /// for closed-loop processes.
    pub fn response_time(&self) -> SimTime {
        self.finished.saturating_sub(self.released)
    }
}

/// End-of-run arrival accounting of one process: how many iterations were
/// released / admitted / shed, and the backlog depth over time reduced to a
/// time-weighted integral plus the maximum observed depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArrivalStats {
    /// Release-timer firings (including the initial release at start).
    pub released: u64,
    /// Releases admitted into the backlog (or started immediately).
    pub admitted: u64,
    /// Releases dropped by load shedding (policy decision or backlog cap).
    pub shed: u64,
    /// Integral of backlog depth over time, in depth × nanoseconds; divide
    /// by the observation horizon for the time-weighted mean queue depth.
    pub depth_integral_ns: u128,
    /// Largest backlog depth ever observed.
    pub max_depth: u32,
}

/// The host-side state of one process: its trace cursor, outstanding GPU
/// commands and replay bookkeeping.
#[derive(Debug, Clone)]
pub struct ProcessModel {
    id: ProcessId,
    priority: Priority,
    trace: BenchmarkTrace,
    pc: usize,
    state: ProcessState,
    /// Commands issued to the GPU that have not completed yet.
    outstanding: u32,
    iteration: u32,
    iteration_start: SimTime,
    completions: u32,
    // --- open-arrival state; inert for closed-loop processes ---
    arrival: ArrivalProcess,
    backlog_cap: u32,
    /// Release time of the currently running iteration.
    released: SimTime,
    /// Release times of admitted-but-not-started iterations, oldest first.
    backlog: VecDeque<SimTime>,
    /// Position within the current burst (Bursty arrivals only).
    burst_pos: u32,
    stats: ArrivalStats,
    /// Last time the depth integral was brought up to date.
    depth_updated: SimTime,
}

impl ProcessModel {
    /// Creates the model for process `id` replaying `trace` in the legacy
    /// closed-loop mode.
    pub fn new(id: ProcessId, trace: BenchmarkTrace, priority: Priority) -> Self {
        ProcessModel {
            id,
            priority,
            trace,
            pc: 0,
            state: ProcessState::Ready,
            outstanding: 0,
            iteration: 0,
            iteration_start: SimTime::ZERO,
            completions: 0,
            arrival: ArrivalProcess::ClosedLoop,
            backlog_cap: gpreempt_types::DEFAULT_BACKLOG_CAP,
            released: SimTime::ZERO,
            backlog: VecDeque::new(),
            burst_pos: 0,
            stats: ArrivalStats::default(),
            depth_updated: SimTime::ZERO,
        }
    }

    /// Sets the arrival process and backlog cap (a cap of 0 is raised to 1).
    #[must_use]
    pub fn with_arrival(mut self, arrival: ArrivalProcess, backlog_cap: u32) -> Self {
        self.arrival = arrival;
        self.backlog_cap = backlog_cap.max(1);
        self
    }

    /// The process id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The process priority.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The application trace being replayed.
    pub fn trace(&self) -> &BenchmarkTrace {
        &self.trace
    }

    /// The current state.
    pub fn state(&self) -> ProcessState {
        self.state
    }

    /// Number of completed executions so far.
    pub fn completions(&self) -> u32 {
        self.completions
    }

    /// The current replay iteration (0-based).
    pub fn iteration(&self) -> u32 {
        self.iteration
    }

    /// When the current iteration started.
    pub fn iteration_start(&self) -> SimTime {
        self.iteration_start
    }

    /// When the current iteration was released (equals
    /// [`iteration_start`](Self::iteration_start) for closed-loop
    /// processes).
    pub fn released(&self) -> SimTime {
        self.released
    }

    /// The arrival process driving this model's releases.
    pub fn arrival(&self) -> ArrivalProcess {
        self.arrival
    }

    /// The backlog bound: releases beyond it are shed.
    pub fn backlog_cap(&self) -> u32 {
        self.backlog_cap
    }

    /// Released-but-not-started iterations currently queued.
    pub fn backlog(&self) -> u32 {
        self.backlog.len() as u32
    }

    /// Whether the process is idle, waiting for its next release.
    pub fn is_idle(&self) -> bool {
        self.state == ProcessState::Idle
    }

    /// Arrival accounting with the depth integral extended to `horizon`
    /// (pass the run's end time).
    pub fn arrival_stats(&self, horizon: SimTime) -> ArrivalStats {
        let mut stats = self.stats;
        let dt = horizon.saturating_sub(self.depth_updated);
        stats.depth_integral_ns += self.backlog.len() as u128 * dt.as_nanos() as u128;
        stats
    }

    /// Brings the depth integral up to date at `now`. Must be called before
    /// every backlog mutation: the backlog has been constant since
    /// `depth_updated`, so the integral gains exactly its current
    /// (pre-mutation) depth over that span.
    fn update_depth(&mut self, now: SimTime) {
        let dt = now.saturating_sub(self.depth_updated);
        self.stats.depth_integral_ns += self.backlog.len() as u128 * dt.as_nanos() as u128;
        self.depth_updated = now;
    }

    /// Counts one release-timer firing.
    pub fn note_release(&mut self) {
        self.stats.released += 1;
    }

    /// Counts one shed release.
    pub fn note_shed(&mut self) {
        self.stats.shed += 1;
    }

    /// Admits a release into the backlog. Returns `false` (and counts a
    /// shed) when the backlog is at its cap — the hard bound holds no
    /// matter what the policy answered.
    pub fn enqueue_release(&mut self, now: SimTime, released: SimTime) -> bool {
        if self.backlog.len() as u32 >= self.backlog_cap {
            self.stats.shed += 1;
            return false;
        }
        self.update_depth(now);
        self.backlog.push_back(released);
        self.stats.admitted += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.backlog.len() as u32);
        true
    }

    /// Starts the admitted release on an idle process: the new iteration
    /// begins immediately at `now`.
    pub fn begin_release(&mut self, now: SimTime, released: SimTime) {
        debug_assert_eq!(self.state, ProcessState::Idle);
        self.stats.admitted += 1;
        self.released = released;
        self.iteration_start = now;
        self.state = ProcessState::Ready;
    }

    /// Stamps the release time of the just-started iteration (used when an
    /// open-arrival iteration is started from the backlog, whose release
    /// predates the start).
    pub fn set_released(&mut self, released: SimTime) {
        self.released = released;
    }

    /// Pops the oldest queued release to start the next iteration, updating
    /// the depth integral. Returns its release time.
    pub fn pop_queued_release(&mut self, now: SimTime) -> Option<SimTime> {
        if self.backlog.is_empty() {
            return None;
        }
        self.update_depth(now);
        self.backlog.pop_front()
    }

    /// Parks an open-arrival process that has no released work.
    pub fn enter_idle(&mut self) {
        debug_assert!(self.arrival.is_open());
        self.state = ProcessState::Idle;
    }

    /// Advances the burst cursor for Bursty arrivals and reports whether
    /// the *next* gap is within the current burst.
    pub fn next_burst_gap_is_intra(&mut self, burst_len: u32) -> bool {
        let len = burst_len.max(1);
        self.burst_pos += 1;
        if self.burst_pos < len {
            true
        } else {
            self.burst_pos = 0;
            false
        }
    }

    /// Commands issued to the GPU that have not completed yet.
    pub fn outstanding_commands(&self) -> usize {
        self.outstanding as usize
    }

    /// The trace operation at the cursor, if the trace is not exhausted.
    pub fn current_op(&self) -> Option<&TraceOp> {
        self.trace.ops().get(self.pc)
    }

    /// Whether the trace cursor is past the last operation.
    pub fn at_end_of_trace(&self) -> bool {
        self.pc >= self.trace.ops().len()
    }

    /// Advances the cursor past the current operation.
    pub fn advance_cursor(&mut self) {
        self.pc += 1;
    }

    /// Marks the process as executing a CPU phase.
    pub fn enter_cpu_phase(&mut self) {
        self.state = ProcessState::InCpuPhase;
    }

    /// Marks the process as blocked in a synchronisation.
    pub fn enter_sync_wait(&mut self) {
        self.state = ProcessState::WaitingSync;
    }

    /// Marks the process as ready to continue its trace.
    pub fn set_ready(&mut self) {
        self.state = ProcessState::Ready;
    }

    /// Registers a command issued on behalf of this process.
    pub fn note_command_issued(&mut self) {
        self.outstanding += 1;
    }

    /// Registers the completion of one of this process's outstanding
    /// commands. The dispatcher names each completed command's owner, so
    /// the caller never reports a command this process did not issue.
    pub fn note_command_completed(&mut self) {
        self.outstanding -= 1;
    }

    /// Whether every issued command has completed.
    pub fn all_commands_completed(&self) -> bool {
        self.outstanding == 0
    }

    /// Records the completion of the current iteration at `now` and restarts
    /// the trace for the next replay. Returns the completed iteration's
    /// record.
    pub fn complete_iteration(&mut self, now: SimTime) -> IterationRecord {
        let record = IterationRecord {
            process: self.id,
            iteration: self.iteration,
            released: self.released,
            started: self.iteration_start,
            finished: now,
        };
        self.completions += 1;
        self.iteration += 1;
        self.iteration_start = now;
        self.released = now;
        self.pc = 0;
        self.state = ProcessState::Ready;
        debug_assert!(
            self.outstanding == 0,
            "iteration completed with outstanding commands"
        );
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpreempt_trace::{BenchmarkTrace, KernelSpec};
    use gpreempt_types::KernelFootprint;

    fn trace() -> BenchmarkTrace {
        BenchmarkTrace::builder("toy")
            .kernel(KernelSpec::new(
                "k",
                KernelFootprint::new(1_024, 0, 128),
                8,
                SimTime::from_micros(10),
            ))
            .cpu(SimTime::from_micros(5))
            .launch(0)
            .build()
    }

    #[test]
    fn cursor_walks_the_trace() {
        let mut p = ProcessModel::new(ProcessId::new(0), trace(), Priority::NORMAL);
        assert_eq!(p.state(), ProcessState::Ready);
        assert!(matches!(p.current_op(), Some(TraceOp::CpuPhase { .. })));
        p.advance_cursor();
        assert!(matches!(p.current_op(), Some(TraceOp::Launch { .. })));
        p.advance_cursor();
        assert!(matches!(p.current_op(), Some(TraceOp::Synchronize)));
        p.advance_cursor();
        assert!(p.at_end_of_trace());
    }

    #[test]
    fn outstanding_command_tracking() {
        let mut p = ProcessModel::new(ProcessId::new(1), trace(), Priority::HIGH);
        assert_eq!(p.priority(), Priority::HIGH);
        p.note_command_issued();
        p.note_command_issued();
        assert_eq!(p.outstanding_commands(), 2);
        assert!(!p.all_commands_completed());
        p.note_command_completed();
        assert_eq!(p.outstanding_commands(), 1);
        assert!(!p.all_commands_completed());
        p.note_command_completed();
        assert!(p.all_commands_completed());
    }

    #[test]
    fn iteration_replay_resets_cursor() {
        let mut p = ProcessModel::new(ProcessId::new(0), trace(), Priority::NORMAL);
        p.advance_cursor();
        p.advance_cursor();
        p.advance_cursor();
        assert!(p.at_end_of_trace());
        let rec = p.complete_iteration(SimTime::from_micros(100));
        assert_eq!(rec.iteration, 0);
        assert_eq!(rec.started, SimTime::ZERO);
        assert_eq!(rec.finished, SimTime::from_micros(100));
        assert_eq!(rec.turnaround(), SimTime::from_micros(100));
        assert_eq!(p.completions(), 1);
        assert_eq!(p.iteration(), 1);
        assert_eq!(p.iteration_start(), SimTime::from_micros(100));
        assert!(!p.at_end_of_trace());
        assert_eq!(p.state(), ProcessState::Ready);
    }

    #[test]
    fn state_transitions() {
        let mut p = ProcessModel::new(ProcessId::new(0), trace(), Priority::NORMAL);
        p.enter_cpu_phase();
        assert_eq!(p.state(), ProcessState::InCpuPhase);
        p.enter_sync_wait();
        assert_eq!(p.state(), ProcessState::WaitingSync);
        p.set_ready();
        assert_eq!(p.state(), ProcessState::Ready);
    }
}
