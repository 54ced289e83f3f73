//! Multiprogrammed workloads.
//!
//! A workload co-schedules several benchmark applications (§4.1). Each
//! process replays its application until every process in the workload has
//! completed at least a configurable number of executions; statistics are
//! gathered only for completed executions.

use crate::benchmark::BenchmarkTrace;
use gpreempt_sim::SimRng;
use gpreempt_types::{ArrivalProcess, GpuConfig, Priority, ProcessId, RtSpec, SimError, SimTime};

/// One process in a multiprogrammed workload: a benchmark application plus
/// its scheduling priority and, for real-time workloads, its timing
/// contract.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessSpec {
    /// The application this process runs.
    pub benchmark: BenchmarkTrace,
    /// Scheduling priority (all-equal for the DSS experiments, one
    /// [`Priority::HIGH`] process for the priority-queue experiments).
    pub priority: Priority,
    /// The real-time contract, if this process has one. Legacy workloads
    /// leave this `None` and behave exactly as before the real-time
    /// subsystem existed.
    pub rt: Option<RtSpec>,
    /// When this process releases its iterations. Legacy workloads use
    /// [`ArrivalProcess::ClosedLoop`] and behave exactly as before the
    /// open-arrival subsystem existed.
    pub arrival: ArrivalProcess,
    /// Bound on released-but-not-started iterations for open arrivals;
    /// releases beyond it are shed. Ignored for closed-loop processes.
    pub backlog_cap: u32,
}

impl ProcessSpec {
    /// Creates a process running `benchmark` at [`Priority::NORMAL`] with no
    /// real-time contract.
    pub fn new(benchmark: BenchmarkTrace) -> Self {
        ProcessSpec {
            benchmark,
            priority: Priority::NORMAL,
            rt: None,
            arrival: ArrivalProcess::ClosedLoop,
            backlog_cap: gpreempt_types::DEFAULT_BACKLOG_CAP,
        }
    }

    /// Sets the process priority.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Attaches a real-time contract.
    #[must_use]
    pub fn with_rt(mut self, rt: RtSpec) -> Self {
        self.rt = Some(rt);
        self
    }

    /// Sets the arrival process (how iterations are released).
    #[must_use]
    pub fn with_arrival(mut self, arrival: ArrivalProcess) -> Self {
        self.arrival = arrival;
        self
    }

    /// Open arrival driven by the real-time contract: periodic releases
    /// every `rt.period`. Requires a prior [`with_rt`](Self::with_rt);
    /// without one this is a no-op (stays closed-loop).
    #[must_use]
    pub fn with_periodic_arrival(mut self) -> Self {
        if let Some(rt) = self.rt {
            self.arrival = ArrivalProcess::Periodic { period: rt.period };
        }
        self
    }

    /// Sets the backlog bound for open arrivals.
    #[must_use]
    pub fn with_backlog_cap(mut self, cap: u32) -> Self {
        self.backlog_cap = cap.max(1);
        self
    }

    /// The priority the scheduler should actually use for this process:
    /// derived from the real-time contract's criticality when one is
    /// present, the explicitly configured priority otherwise (the one-line
    /// legacy fallback).
    pub fn effective_priority(&self) -> Priority {
        self.rt.map_or(self.priority, |rt| rt.priority())
    }
}

/// A multiprogrammed workload: the set of co-scheduled processes and the
/// replay policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    name: String,
    processes: Vec<ProcessSpec>,
    min_completions: u32,
}

impl Workload {
    /// Default number of completed executions each process must reach
    /// before the workload ends (the paper uses 3).
    pub const DEFAULT_MIN_COMPLETIONS: u32 = 3;

    /// Creates a workload from a list of processes.
    pub fn new(name: impl Into<String>, processes: Vec<ProcessSpec>) -> Self {
        Workload {
            name: name.into(),
            processes,
            min_completions: Self::DEFAULT_MIN_COMPLETIONS,
        }
    }

    /// Sets how many completed executions every process must reach before
    /// the simulation stops.
    #[must_use]
    pub fn with_min_completions(mut self, n: u32) -> Self {
        self.min_completions = n.max(1);
        self
    }

    /// The workload's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The co-scheduled processes.
    pub fn processes(&self) -> &[ProcessSpec] {
        &self.processes
    }

    /// Number of processes in the workload.
    pub fn len(&self) -> usize {
        self.processes.len()
    }

    /// Whether the workload has no processes.
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }

    /// The replay target: completed executions required of every process.
    pub fn min_completions(&self) -> u32 {
        self.min_completions
    }

    /// Whether any process carries a real-time contract.
    pub fn has_rt(&self) -> bool {
        self.processes.iter().any(|p| p.rt.is_some())
    }

    /// Whether any process releases work on a timer (open arrivals).
    pub fn has_open_arrivals(&self) -> bool {
        self.processes.iter().any(|p| p.arrival.is_open())
    }

    /// The tightest (smallest) relative deadline in the workload, if any
    /// process has one.
    pub fn tightest_deadline(&self) -> Option<SimTime> {
        self.processes
            .iter()
            .filter_map(|p| p.rt.map(|rt| rt.deadline))
            .min()
    }

    /// The [`ProcessId`]s of this workload, in order.
    pub fn process_ids(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.processes.len()).map(ProcessId::from)
    }

    /// The highest-priority process, if exactly one process holds the top
    /// priority.
    pub fn high_priority_process(&self) -> Option<ProcessId> {
        let max = self.processes.iter().map(|p| p.priority).max()?;
        let mut top = (0..self.len()).filter(|&i| self.processes[i].priority == max);
        top.next()
            .filter(|_| top.next().is_none())
            .map(ProcessId::from)
    }

    /// Returns a copy of this workload whose benchmark traces are interned
    /// through `interner`: structurally equal traces across the copies come
    /// out sharing one frozen kernel table and op list. The copy compares
    /// equal to `self` and replays identically — only storage is shared.
    pub fn interned(&self, interner: &mut crate::TraceInterner) -> Workload {
        let mut w = self.clone();
        for p in &mut w.processes {
            p.benchmark = interner.intern(&p.benchmark);
        }
        w
    }

    /// Validates the workload against a GPU configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidWorkload`] if the workload is empty or any
    /// process's trace is invalid.
    pub fn validate(&self, gpu: &GpuConfig) -> Result<(), SimError> {
        if self.processes.is_empty() {
            return Err(SimError::invalid_workload("workload has no processes"));
        }
        for p in &self.processes {
            p.benchmark.validate(gpu)?;
        }
        Ok(())
    }
}

/// Generates the random multiprogrammed workloads used by the evaluation.
///
/// # Example
///
/// ```
/// use gpreempt_sim::SimRng;
/// use gpreempt_trace::{parboil, WorkloadGenerator};
/// use gpreempt_types::GpuConfig;
///
/// let gpu = GpuConfig::default();
/// let mut gen = WorkloadGenerator::new(parboil::suite(&gpu), SimRng::new(42));
/// let w = gen.random_workload(4);
/// assert_eq!(w.len(), 4);
/// ```
#[derive(Debug)]
pub struct WorkloadGenerator {
    suite: Vec<BenchmarkTrace>,
    rng: SimRng,
    counter: u64,
}

impl WorkloadGenerator {
    /// Creates a generator drawing applications from `suite`.
    pub fn new(suite: Vec<BenchmarkTrace>, rng: SimRng) -> Self {
        WorkloadGenerator {
            suite,
            rng,
            counter: 0,
        }
    }

    /// The benchmark pool this generator draws from.
    pub fn suite(&self) -> &[BenchmarkTrace] {
        &self.suite
    }

    /// Draws a workload of `n_processes` applications chosen uniformly at
    /// random (with repetition), all at normal priority.
    pub fn random_workload(&mut self, n_processes: usize) -> Workload {
        assert!(!self.suite.is_empty(), "empty benchmark suite");
        self.counter += 1;
        let mut processes = Vec::with_capacity(n_processes);
        for _ in 0..n_processes {
            let idx = self.rng.next_index(self.suite.len());
            processes.push(ProcessSpec::new(self.suite[idx].clone()));
        }
        Workload::new(format!("rand-{}p-{}", n_processes, self.counter), processes)
    }

    /// Draws a workload of `n_processes` applications in which the process
    /// running `high_priority` (an index into the suite) is marked
    /// [`Priority::HIGH`] and the remaining `n_processes - 1` applications
    /// are chosen at random.
    pub fn prioritized_workload(&mut self, n_processes: usize, high_priority: usize) -> Workload {
        assert!(!self.suite.is_empty(), "empty benchmark suite");
        assert!(
            high_priority < self.suite.len(),
            "benchmark index out of range"
        );
        assert!(n_processes >= 1, "need at least one process");
        self.counter += 1;
        let mut processes =
            vec![ProcessSpec::new(self.suite[high_priority].clone()).with_priority(Priority::HIGH)];
        for _ in 1..n_processes {
            let idx = self.rng.next_index(self.suite.len());
            processes.push(ProcessSpec::new(self.suite[idx].clone()));
        }
        Workload::new(
            format!(
                "prio-{}p-{}-{}",
                n_processes,
                self.suite[high_priority].name(),
                self.counter
            ),
            processes,
        )
    }

    /// Generates the Figure 5/6 workload population for one workload size:
    /// every benchmark of the suite appears as the high-priority process the
    /// same number of times (`reps`).
    pub fn prioritized_population(&mut self, n_processes: usize, reps: usize) -> Vec<Workload> {
        let mut workloads = Vec::with_capacity(self.suite.len() * reps);
        for hp in 0..self.suite.len() {
            for _ in 0..reps {
                workloads.push(self.prioritized_workload(n_processes, hp));
            }
        }
        workloads
    }

    /// Generates the Figure 7/8 workload population for one workload size:
    /// `count` random equal-priority workloads.
    pub fn random_population(&mut self, n_processes: usize, count: usize) -> Vec<Workload> {
        (0..count)
            .map(|_| self.random_workload(n_processes))
            .collect()
    }

    /// Draws a workload of `n_processes` applications chosen uniformly at
    /// random and attaches a real-time contract to each, produced by
    /// `rt_of` from the process index and its benchmark (so deadlines can
    /// scale with per-application execution times).
    ///
    /// The scheduling priority of each process is left at
    /// [`Priority::NORMAL`]; real-time-aware consumers derive the effective
    /// priority from the contract's criticality
    /// ([`ProcessSpec::effective_priority`]).
    pub fn realtime_workload(
        &mut self,
        n_processes: usize,
        mut rt_of: impl FnMut(usize, &BenchmarkTrace) -> RtSpec,
    ) -> Workload {
        assert!(!self.suite.is_empty(), "empty benchmark suite");
        self.counter += 1;
        let mut processes = Vec::with_capacity(n_processes);
        for i in 0..n_processes {
            let idx = self.rng.next_index(self.suite.len());
            let benchmark = self.suite[idx].clone();
            let rt = rt_of(i, &benchmark);
            processes.push(ProcessSpec::new(benchmark).with_rt(rt));
        }
        Workload::new(format!("rt-{}p-{}", n_processes, self.counter), processes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parboil;

    fn gen() -> WorkloadGenerator {
        let gpu = GpuConfig::default();
        WorkloadGenerator::new(parboil::suite(&gpu), SimRng::new(7))
    }

    #[test]
    fn interned_workload_is_equal_and_shares_trace_storage() {
        let gpu = GpuConfig::default();
        let mut interner = crate::TraceInterner::new();
        // Two workloads built independently from fresh trace copies.
        let a = Workload::new(
            "a",
            vec![ProcessSpec::new(parboil::benchmark("spmv", &gpu).unwrap())],
        );
        let b = Workload::new(
            "b",
            vec![ProcessSpec::new(parboil::benchmark("spmv", &gpu).unwrap())],
        );
        assert!(!a.processes()[0]
            .benchmark
            .same_storage(&b.processes()[0].benchmark));
        let ia = a.interned(&mut interner);
        let ib = b.interned(&mut interner);
        assert_eq!(ia, a);
        assert_eq!(ib, b);
        assert_eq!(interner.len(), 1);
        assert!(ia.processes()[0]
            .benchmark
            .same_storage(&ib.processes()[0].benchmark));
    }

    #[test]
    fn random_workload_has_requested_size() {
        let mut g = gen();
        for n in [2, 4, 6, 8] {
            let w = g.random_workload(n);
            assert_eq!(w.len(), n);
            assert!(w.validate(&GpuConfig::default()).is_ok());
            assert!(w.high_priority_process().is_none());
        }
    }

    #[test]
    fn prioritized_workload_marks_one_process() {
        let mut g = gen();
        let w = g.prioritized_workload(4, 3);
        assert_eq!(w.len(), 4);
        assert_eq!(w.processes()[0].priority, Priority::HIGH);
        assert_eq!(w.high_priority_process(), Some(ProcessId::new(0)));
        assert_eq!(w.processes()[0].benchmark.name(), "spmv");
    }

    #[test]
    fn prioritized_population_is_balanced() {
        let mut g = gen();
        let pop = g.prioritized_population(4, 2);
        assert_eq!(pop.len(), 20);
        // Each benchmark is the high-priority process exactly twice.
        for name in parboil::BENCHMARK_NAMES {
            let count = pop
                .iter()
                .filter(|w| w.processes()[0].benchmark.name() == name)
                .count();
            assert_eq!(count, 2, "{name}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = gen();
        let mut b = gen();
        let wa = a.random_workload(6);
        let wb = b.random_workload(6);
        let names_a: Vec<&str> = wa.processes().iter().map(|p| p.benchmark.name()).collect();
        let names_b: Vec<&str> = wb.processes().iter().map(|p| p.benchmark.name()).collect();
        assert_eq!(names_a, names_b);
    }

    #[test]
    fn workload_validation() {
        let empty = Workload::new("empty", vec![]);
        assert!(empty.validate(&GpuConfig::default()).is_err());
        assert!(empty.is_empty());
    }

    #[test]
    fn min_completions_is_clamped() {
        let gpu = GpuConfig::default();
        let w = Workload::new(
            "w",
            vec![ProcessSpec::new(parboil::benchmark("spmv", &gpu).unwrap())],
        )
        .with_min_completions(0);
        assert_eq!(w.min_completions(), 1);
        assert_eq!(
            Workload::new("d", vec![]).min_completions(),
            Workload::DEFAULT_MIN_COMPLETIONS
        );
    }

    #[test]
    fn high_priority_detection_handles_all_equal() {
        let gpu = GpuConfig::default();
        let spec = ProcessSpec::new(parboil::benchmark("spmv", &gpu).unwrap());
        let w = Workload::new("w", vec![spec.clone(), spec.clone()]);
        assert!(w.high_priority_process().is_none());
        // Two HIGH processes share the top priority: neither is the one.
        let high = spec.clone().with_priority(Priority::HIGH);
        let w2 = Workload::new("w2", vec![high.clone(), spec.clone(), high]);
        assert!(w2.high_priority_process().is_none());
        // Single process at normal priority counts as the top process.
        let w1 = Workload::new("w1", vec![spec]);
        assert_eq!(w1.high_priority_process(), Some(ProcessId::new(0)));
    }

    #[test]
    fn process_ids_enumerate_in_order() {
        let mut g = gen();
        let w = g.random_workload(3);
        let ids: Vec<u32> = w.process_ids().map(|p| p.raw()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn random_population_count() {
        let mut g = gen();
        let pop = g.random_population(8, 5);
        assert_eq!(pop.len(), 5);
        assert!(pop.iter().all(|w| w.len() == 8));
    }

    #[test]
    fn rt_spec_drives_the_effective_priority() {
        use gpreempt_types::Criticality;
        let gpu = GpuConfig::default();
        let legacy = ProcessSpec::new(parboil::benchmark("spmv", &gpu).unwrap())
            .with_priority(Priority::HIGH);
        // Legacy fallback: no contract, the explicit priority wins.
        assert_eq!(legacy.effective_priority(), Priority::HIGH);

        let rt = legacy.clone().with_rt(
            RtSpec::implicit(SimTime::from_micros(100)).with_criticality(Criticality::Low),
        );
        // With a contract, the criticality mapping takes over.
        assert_eq!(rt.effective_priority(), Priority::NORMAL);
        assert!(rt.rt.is_some());
    }

    #[test]
    fn realtime_workload_attaches_contracts_deterministically() {
        use gpreempt_types::Criticality;
        let build = || {
            let mut g = gen();
            g.realtime_workload(4, |i, b| {
                let deadline = SimTime::from_micros(100 * (b.launch_count() as u64 + 1));
                let rt = RtSpec::implicit(deadline);
                if i == 0 {
                    rt.with_criticality(Criticality::High)
                } else {
                    rt
                }
            })
        };
        let w = build();
        assert_eq!(w.len(), 4);
        assert!(w.has_rt());
        assert!(w.tightest_deadline().is_some());
        assert_eq!(
            w.processes()[0].effective_priority(),
            Criticality::High.priority()
        );
        // Deadlines scale with the drawn benchmark, and generation stays
        // deterministic for a fixed generator seed.
        let again = build();
        assert_eq!(w, again);

        let legacy = Workload::new("legacy", vec![]);
        assert!(!legacy.has_rt());
        assert_eq!(legacy.tightest_deadline(), None);
    }
}
