//! Parallel, deterministic execution of a [`SweepPlan`].

use crate::report::TextTable;
use crate::simulator::{SimWorkspace, SimulationRun, Simulator};
use crate::sweep::{FoldedScenario, Scenario, SweepPlan};
use gpreempt_sim::thread_allocations;
use gpreempt_trace::TraceInterner;
use gpreempt_types::SimError;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A per-scenario fold: receives the scenario and its finished simulation,
/// returns whatever the experiment wants to keep. The run is consumed — and
/// dropped — on the worker thread, so a streaming sweep holds at most one
/// [`SimulationRun`] per worker in memory at any time.
pub type ScenarioFold<'a, T> = dyn Fn(&Scenario, SimulationRun) -> Result<T, SimError> + Sync + 'a;

/// A per-scenario tap: observes each fold output **on the worker that
/// produced it**, in completion order, before the output is queued for
/// id-ordered reassembly. This is the spill point of disk-streaming sweeps:
/// a tap that appends to a [`JsonlSink`](crate::sweep::JsonlSink) gets every
/// record on disk the moment its scenario finishes, regardless of how many
/// scenarios are still pending in memory.
pub type ScenarioTap<'a, T> = dyn Fn(&Scenario, &T) -> Result<(), SimError> + Sync + 'a;

/// Executes the scenarios of a plan across worker threads.
///
/// Scenarios are self-contained values (workload, policy, config overrides,
/// seed), so each simulation depends only on its scenario — never on which
/// worker ran it or in what order. Workers claim chunks of contiguous
/// scenario ids from one shared atomic counter (a single self-scheduling
/// queue: an idle worker "steals" the next unclaimed chunk), and results
/// are reassembled in scenario-id order, which makes the output of
/// `jobs = N` bit-identical to `jobs = 1` — and to the historical
/// hand-rolled sequential harness loops.
///
/// Each worker keeps one [`SimWorkspace`] arena for its whole scenario
/// stream; reset is observationally a fresh construction, so reuse changes
/// allocation traffic and wall clock, never results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRunner {
    jobs: usize,
    affinity: bool,
}

impl SweepRunner {
    /// Creates a runner with the given worker count; `0` means one worker
    /// per available CPU.
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            jobs
        };
        SweepRunner {
            jobs,
            affinity: false,
        }
    }

    /// A single-threaded runner (the historical harness behaviour).
    pub fn sequential() -> Self {
        SweepRunner::new(1)
    }

    /// Pins each spawned worker thread to one CPU core (worker `w` to core
    /// `w mod cpus`), so a worker's arena and intern table stop migrating
    /// across cores mid-stream. Best effort: platforms (or sandboxes)
    /// rejecting the affinity syscall run unpinned. The sequential path
    /// never pins — it would confine the *caller's* thread beyond the
    /// sweep's lifetime.
    #[must_use]
    pub fn with_affinity(mut self, affinity: bool) -> Self {
        self.affinity = affinity;
        self
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Whether worker-thread core pinning is enabled.
    pub fn affinity(&self) -> bool {
        self.affinity
    }

    /// Scenario ids a worker claims per shared-counter increment.
    ///
    /// At bench scale (hundreds of tiny scenarios) single-id claiming makes
    /// every worker bounce the counter's cache line once per scenario;
    /// claiming a short contiguous run amortises that to once per `K`
    /// scenarios. `K` shrinks with the worker count so the tail of a sweep
    /// still load-balances, and degenerates to 1 for small plans — where
    /// the old behaviour falls out unchanged.
    fn chunk_size(len: usize, workers: usize) -> usize {
        (len / (workers * 4)).clamp(1, 32)
    }

    /// Runs every scenario of the plan, folding each finished
    /// [`SimulationRun`] into `fold`'s output **on the worker that ran it**
    /// and dropping the run body immediately, then hands the output to
    /// `tap` on the same worker, in completion order. Outputs are
    /// reassembled in scenario-id order, so the result is bit-identical for
    /// every worker count.
    ///
    /// Memory stays flat: at any moment at most one `SimulationRun` per
    /// worker is alive, so a sweep over `N` scenarios holds `O(N)` folded
    /// records instead of `O(N × completions)` run bodies. The tap is a
    /// side channel (typically a [`JsonlSink`](crate::sweep::JsonlSink)
    /// spilling records to disk); a caller without one passes
    /// `&|_, _| Ok(())`.
    ///
    /// # Errors
    ///
    /// If any scenario fails (simulation, fold or tap), no further
    /// scenarios are started (in-flight ones finish) and the error of the
    /// failing scenario with the smallest id is returned — so the reported
    /// error does not depend on the worker count either.
    pub fn run_fold_tap<T: Send>(
        &self,
        plan: &SweepPlan,
        fold: &ScenarioFold<'_, T>,
        tap: &ScenarioTap<'_, T>,
    ) -> Result<FoldedResults<T>, SimError> {
        let ids: Vec<usize> = (0..plan.len()).collect();
        self.run_fold_tap_subset(plan, &ids, fold, tap)
    }

    /// [`run_fold_tap`](Self::run_fold_tap) restricted to an explicit
    /// scenario-id subset: only the scenarios whose ids appear in `ids` are
    /// executed, in the order given (shards pass their stripe here; a
    /// resumed shard passes the stripe minus its checkpointed ids).
    /// Everything else behaves identically — workers claim contiguous
    /// chunks *of the subset*, outcomes are reassembled in subset order,
    /// and the reported error is the one from the earliest subset position,
    /// independent of the worker count.
    ///
    /// Derived seeds, horizons and every other per-scenario property were
    /// fixed at plan-build time, so running a subset cannot perturb any
    /// scenario's result relative to a full run.
    ///
    /// # Errors
    ///
    /// Fails like [`run_fold_tap`](Self::run_fold_tap); additionally, an id
    /// outside the plan is an internal error (a caller bug).
    pub fn run_fold_tap_subset<T: Send>(
        &self,
        plan: &SweepPlan,
        ids: &[usize],
        fold: &ScenarioFold<'_, T>,
        tap: &ScenarioTap<'_, T>,
    ) -> Result<FoldedResults<T>, SimError> {
        let scenarios = plan.scenarios();
        if let Some(&bad) = ids.iter().find(|&&id| id >= scenarios.len()) {
            return Err(SimError::internal(format!(
                "sweep subset references scenario id {bad}, but the plan has only {} scenarios",
                scenarios.len()
            )));
        }
        let started = Instant::now();
        let mut slots: Vec<Option<Result<FoldedScenario<T>, SimError>>> =
            (0..ids.len()).map(|_| None).collect();

        let workers = self.jobs.min(ids.len()).max(1);
        if workers <= 1 {
            let mut ws = SimWorkspace::new();
            let mut interner = TraceInterner::new();
            for (i, &id) in ids.iter().enumerate() {
                let outcome =
                    Self::execute(plan, &scenarios[id], &mut ws, &mut interner, fold, tap);
                let failed = outcome.is_err();
                slots[i] = Some(outcome);
                if failed {
                    break;
                }
            }
        } else {
            let next = AtomicUsize::new(0);
            let failed = AtomicBool::new(false);
            let chunk = Self::chunk_size(ids.len(), workers);
            let harvested = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let next = &next;
                        let failed = &failed;
                        scope.spawn(move || {
                            // Optional core pinning: worker w sticks to one
                            // core for its whole scenario stream, so the
                            // arena it warms below stays cache-local. Best
                            // effort — a rejected pin runs unpinned.
                            if self.affinity {
                                let cpus = std::thread::available_parallelism()
                                    .map(std::num::NonZeroUsize::get)
                                    .unwrap_or(1);
                                let _ = gpreempt_sim::pin_current_thread(w % cpus);
                            }
                            let mut local = Vec::new();
                            // One arena per worker: every scenario this
                            // worker pulls reuses the same host/engine/queue
                            // allocations. Scenarios are self-contained, so
                            // reuse cannot leak state between them (the
                            // jobs=N ≡ jobs=1 regression pins this). The
                            // intern table is per-worker for the same
                            // reason: repeated applications across the
                            // stream share one frozen trace without any
                            // cross-worker synchronisation.
                            let mut ws = SimWorkspace::new();
                            let mut interner = TraceInterner::new();
                            // Stop claiming new chunks once any worker has
                            // recorded a failure; a claimed chunk always
                            // runs to completion. Chunks are handed out in
                            // subset order, so the executed scenarios form a
                            // prefix of the subset: the earliest failing
                            // position is always among them and the reported
                            // error stays independent of worker count and
                            // chunk size.
                            while !failed.load(Ordering::Relaxed) {
                                let start = next.fetch_add(chunk, Ordering::Relaxed);
                                if start >= ids.len() {
                                    break;
                                }
                                let end = (start + chunk).min(ids.len());
                                for (i, &id) in ids[start..end].iter().enumerate() {
                                    let outcome = Self::execute(
                                        plan,
                                        &scenarios[id],
                                        &mut ws,
                                        &mut interner,
                                        fold,
                                        tap,
                                    );
                                    if outcome.is_err() {
                                        failed.store(true, Ordering::Relaxed);
                                    }
                                    local.push((start + i, outcome));
                                }
                            }
                            local
                        })
                    })
                    .collect();
                let mut harvested = Vec::with_capacity(ids.len());
                for handle in handles {
                    harvested.extend(handle.join().expect("sweep worker panicked"));
                }
                harvested
            });
            for (i, outcome) in harvested {
                slots[i] = Some(outcome);
            }
        }

        let mut outcomes = Vec::with_capacity(ids.len());
        for slot in slots {
            match slot {
                Some(Ok(outcome)) => outcomes.push(outcome),
                Some(Err(e)) => return Err(e),
                // Unexecuted slots form a suffix behind a recorded failure;
                // reaching one without having returned the error first is a
                // runner bug.
                None => {
                    return Err(SimError::internal(
                        "sweep aborted before executing every scenario, but no error was recorded",
                    ))
                }
            }
        }
        Ok(FoldedResults {
            outcomes,
            total_wall: started.elapsed(),
            jobs: workers,
        })
    }

    /// Runs one scenario — the plan's base configuration plus the
    /// scenario's overrides, simulated through the worker's reusable
    /// [`SimWorkspace`] arena — folds the finished run (dropping its body),
    /// and hands the fold output to the tap. Allocation counts are the
    /// worker thread's delta across intern + simulate + fold + tap (zero
    /// unless the process installed [`gpreempt_sim::CountingAlloc`]).
    ///
    /// A panic anywhere in those steps becomes a [`SimError`] naming the
    /// scenario's id, group, label and seed, so it is reported like any
    /// other scenario failure. The panic may have left the workspace half
    /// updated, so the worker continues on a fresh one.
    fn execute<T>(
        plan: &SweepPlan,
        scenario: &Scenario,
        ws: &mut SimWorkspace,
        interner: &mut TraceInterner,
        fold: &ScenarioFold<'_, T>,
        tap: &ScenarioTap<'_, T>,
    ) -> Result<FoldedScenario<T>, SimError> {
        let mut config = plan.config().clone();
        if let Some(selection) = scenario.selection {
            config = config.with_selection(selection);
        }
        if let Some(seed) = scenario.seed {
            config = config.with_seed(seed);
        }
        let seed = config.seed;
        let wall = Instant::now();
        let allocs_before = thread_allocations();
        // Unwind safety: the workspace is replaced below after a panic, and
        // the interner only ever holds whole traces.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<_, SimError> {
            // Intern the scenario's traces through the worker's table: every
            // structurally repeated application across the stream replays
            // one shared kernel table and op list instead of its own copy.
            // The interned workload compares equal to the original, so
            // results are unchanged.
            let workload = scenario.workload.interned(interner);
            let sim = Simulator::new(config);
            let run = match scenario.horizon {
                Some(horizon) => sim.run_until_with(ws, &workload, scenario.policy, horizon)?,
                None => sim.run_with(ws, &workload, scenario.policy)?,
            };
            let events = run.events_processed();
            let value = fold(scenario, run)?;
            tap(scenario, &value)?;
            Ok((value, events))
        }));
        let (value, events) = match outcome {
            Ok(result) => result?,
            Err(payload) => {
                *ws = SimWorkspace::new();
                return Err(SimError::internal(format!(
                    "scenario {} ({} / {}, seed {seed}) panicked: {}",
                    scenario.id,
                    scenario.group,
                    scenario.label,
                    panic_message(payload.as_ref())
                )));
            }
        };
        Ok(FoldedScenario {
            scenario_id: scenario.id,
            value,
            wall: wall.elapsed(),
            events,
            allocs: thread_allocations() - allocs_before,
        })
    }
}

/// The message a panic was raised with: `panic!` carries a `&str` for a
/// literal and a `String` for a formatted message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(no message)")
}

impl Default for SweepRunner {
    /// Defaults to sequential execution, matching the historical harnesses.
    fn default() -> Self {
        SweepRunner::sequential()
    }
}

/// The outcomes of one streamed plan, in scenario-id order: the fold's
/// per-scenario outputs plus timing — the run bodies were dropped on the
/// workers.
#[derive(Debug, Clone)]
pub struct FoldedResults<T> {
    outcomes: Vec<FoldedScenario<T>>,
    total_wall: Duration,
    jobs: usize,
}

impl<T> FoldedResults<T> {
    /// The per-scenario outcomes, in scenario-id order.
    pub fn outcomes(&self) -> &[FoldedScenario<T>] {
        &self.outcomes
    }

    /// Consumes the results, returning just the fold outputs in
    /// scenario-id order.
    pub fn into_values(self) -> Vec<T> {
        self.outcomes.into_iter().map(|o| o.value).collect()
    }

    /// Number of executed scenarios.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the plan was empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Wall-clock time of the whole sweep.
    pub fn total_wall(&self) -> Duration {
        self.total_wall
    }

    /// Number of workers that executed the sweep.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Total simulation events processed across every scenario.
    pub fn events_total(&self) -> u64 {
        self.outcomes.iter().map(|o| o.events).sum()
    }

    /// Per-scenario wall-clock timing, labelled from the plan.
    pub fn timing(&self, plan: &SweepPlan) -> SweepTiming {
        let entries: Vec<TimingEntry> = self
            .outcomes
            .iter()
            .map(|o| {
                let s = &plan.scenarios()[o.scenario_id];
                TimingEntry {
                    group: s.group.clone(),
                    workload: s.workload.name().to_string(),
                    label: s.label.clone(),
                    wall: o.wall,
                    events: o.events,
                    allocs: o.allocs,
                }
            })
            .collect();
        SweepTiming {
            jobs: self.jobs,
            total: self.total_wall,
            events: self.events_total(),
            entries,
        }
    }
}

/// Wall-clock timing of one scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingEntry {
    /// The scenario's experiment group.
    pub group: String,
    /// The scenario's workload name.
    pub workload: String,
    /// The scenario's configuration label.
    pub label: String,
    /// Wall-clock time spent simulating it.
    pub wall: Duration,
    /// Simulation events it processed.
    pub events: u64,
    /// Allocation events charged to it (zero unless the process installed
    /// [`gpreempt_sim::CountingAlloc`] as the global allocator).
    pub allocs: u64,
}

/// Wall-clock summary of an executed sweep (or several merged phases).
///
/// Timing is deliberately kept *outside* [`SweepReport`](crate::sweep::SweepReport):
/// wall-clock numbers differ run to run, while the report must be
/// byte-identical for a given plan seed regardless of worker count.
#[derive(Debug, Clone, Default)]
pub struct SweepTiming {
    /// Workers used.
    pub jobs: usize,
    /// Total wall-clock across the sweep (parallel phases overlap, so this
    /// is less than the sum of entries when `jobs > 1`).
    pub total: Duration,
    /// Total simulation events processed across every scenario — the
    /// numerator of [`events_per_sec`](Self::events_per_sec).
    pub events: u64,
    /// Per-scenario timings, in scenario-id order.
    pub entries: Vec<TimingEntry>,
}

impl SweepTiming {
    /// Folds another phase's timing into this one (totals add; entries
    /// append).
    #[must_use]
    pub fn merged(mut self, other: SweepTiming) -> SweepTiming {
        self.total += other.total;
        self.jobs = self.jobs.max(other.jobs);
        self.events += other.events;
        self.entries.extend(other.entries);
        self
    }

    /// Aggregate simulation throughput of the sweep: events processed per
    /// wall-clock second across all workers (zero for an instant sweep).
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.total.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.events as f64 / secs
        }
    }

    /// Sum of per-scenario wall-clock times (the sequential-equivalent
    /// cost).
    pub fn scenario_wall_sum(&self) -> Duration {
        self.entries.iter().map(|e| e.wall).sum()
    }

    /// The slowest scenario, if any.
    pub fn slowest(&self) -> Option<&TimingEntry> {
        self.entries.iter().max_by_key(|e| e.wall)
    }

    /// One-line summary: scenario count, workers, wall clock, aggregate
    /// simulation time and mean per-scenario cost.
    pub fn summary(&self) -> String {
        let n = self.entries.len();
        let sum = self.scenario_wall_sum();
        let mean = if n == 0 {
            Duration::ZERO
        } else {
            sum / n as u32
        };
        format!(
            "{n} scenarios on {} worker(s): {:.2?} wall ({:.2?} aggregate simulation, {:.2?} mean/scenario, {:.0} events/s)",
            self.jobs, self.total, sum, mean, self.events_per_sec()
        )
    }

    /// Renders the per-scenario wall-clock table, streaming rows straight
    /// from the timing entries.
    pub fn render(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "group".into(),
            "workload".into(),
            "config".into(),
            "wall (ms)".into(),
            "events".into(),
            "allocs".into(),
        ])
        .with_title("Per-scenario wall clock");
        table.extend_rows(self.entries.iter().map(|e| {
            vec![
                e.group.clone(),
                e.workload.clone(),
                e.label.clone(),
                format!("{:.3}", e.wall.as_secs_f64() * 1e3),
                e.events.to_string(),
                e.allocs.to_string(),
            ]
        }));
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PolicyKind, SimulatorConfig};
    use crate::sweep::Scenario;
    use gpreempt_gpu::{MechanismSelection, PreemptionMechanism};
    use gpreempt_trace::{parboil, ProcessSpec, Workload};
    use gpreempt_types::{GpuConfig, SimTime};

    fn tiny_plan(n: usize) -> SweepPlan {
        let gpu = GpuConfig::default();
        let spmv = parboil::benchmark("spmv", &gpu).unwrap();
        let mut plan = SweepPlan::new(SimulatorConfig::default());
        for i in 0..n {
            let workload = Workload::new(
                format!("w{i}"),
                vec![
                    ProcessSpec::new(spmv.clone()),
                    ProcessSpec::new(spmv.clone()),
                ],
            )
            .with_min_completions(1);
            plan.push(
                Scenario::new("test", format!("s{i}"), workload, PolicyKind::Dss).with_selection(
                    MechanismSelection::Fixed(PreemptionMechanism::ContextSwitch),
                ),
            );
        }
        plan
    }

    /// A wider, cheaper plan (one process, one completion per scenario) for
    /// the chunked-claiming tests, which need enough scenarios that
    /// [`SweepRunner::chunk_size`] exceeds one.
    fn lean_plan(n: usize) -> SweepPlan {
        let gpu = GpuConfig::default();
        let spmv = parboil::benchmark("spmv", &gpu).unwrap();
        let mut plan = SweepPlan::new(SimulatorConfig::default());
        for i in 0..n {
            let workload = Workload::new(format!("w{i}"), vec![ProcessSpec::new(spmv.clone())])
                .with_min_completions(1);
            plan.push(Scenario::new(
                "test",
                format!("s{i}"),
                workload,
                PolicyKind::Fcfs,
            ));
        }
        plan
    }

    /// What the tests compare runs by: `(events_processed, end_time)`.
    type Fingerprint = (u64, SimTime);

    fn fingerprint_of(_: &Scenario, run: SimulationRun) -> Result<Fingerprint, SimError> {
        Ok((run.events_processed(), run.end_time()))
    }

    /// Runs the plan, folding each run to its [`Fingerprint`].
    fn run(runner: SweepRunner, plan: &SweepPlan) -> Result<FoldedResults<Fingerprint>, SimError> {
        runner.run_fold_tap(plan, &fingerprint_of, &|_, _| Ok(()))
    }

    fn fingerprints(results: &FoldedResults<Fingerprint>) -> Vec<(usize, Fingerprint)> {
        results
            .outcomes()
            .iter()
            .map(|o| (o.scenario_id, o.value))
            .collect()
    }

    #[test]
    fn parallel_results_match_sequential() {
        let plan = tiny_plan(6);
        let sequential = run(SweepRunner::sequential(), &plan).unwrap();
        for jobs in [2, 4, 8] {
            let parallel = run(SweepRunner::new(jobs), &plan).unwrap();
            assert_eq!(
                fingerprints(&sequential),
                fingerprints(&parallel),
                "jobs={jobs}"
            );
        }
    }

    /// A plan wide enough that two workers claim multi-scenario chunks
    /// (20 scenarios / 2 workers → chunk size 2): reassembly must still be
    /// bit-identical to the sequential run.
    #[test]
    fn chunked_claiming_matches_sequential() {
        let plan = lean_plan(20);
        assert!(SweepRunner::chunk_size(plan.len(), 2) > 1);
        let sequential = run(SweepRunner::sequential(), &plan).unwrap();
        let chunked = run(SweepRunner::new(2), &plan).unwrap();
        assert_eq!(fingerprints(&sequential), fingerprints(&chunked));
    }

    #[test]
    fn chunk_size_balances_small_plans_and_caps_large_ones() {
        // Small plans degenerate to single-id claiming.
        assert_eq!(SweepRunner::chunk_size(6, 4), 1);
        assert_eq!(SweepRunner::chunk_size(3, 8), 1);
        // Medium plans amortise the counter without starving the tail.
        assert_eq!(SweepRunner::chunk_size(20, 2), 2);
        assert_eq!(SweepRunner::chunk_size(64, 4), 4);
        // Huge plans cap out so late chunks still load-balance.
        assert_eq!(SweepRunner::chunk_size(10_000, 2), 32);
    }

    /// Workspace reuse is observationally a fresh construction: every
    /// scenario of a two-worker sweep, each worker reusing one workspace,
    /// matches the same scenario simulated by `Simulator::run` on a fresh
    /// workspace.
    #[test]
    fn rebuild_results_match_reuse() {
        let plan = tiny_plan(4);
        let reuse = SweepRunner::new(2)
            .run_fold_tap(
                &plan,
                &|_, run| {
                    Ok((
                        run.events_processed(),
                        run.end_time(),
                        run.iterations().to_vec(),
                    ))
                },
                &|_, _| Ok(()),
            )
            .unwrap();
        for (outcome, scenario) in reuse.outcomes().iter().zip(plan.scenarios()) {
            let config = plan
                .config()
                .clone()
                .with_selection(scenario.selection.unwrap());
            let rebuild = Simulator::new(config)
                .run(&scenario.workload, scenario.policy)
                .unwrap();
            let (events, end_time, iterations) = &outcome.value;
            assert_eq!(
                (*events, *end_time),
                (rebuild.events_processed(), rebuild.end_time()),
                "scenario {}",
                scenario.id
            );
            assert_eq!(iterations.as_slice(), rebuild.iterations());
        }
    }

    #[test]
    fn results_are_ordered_by_scenario_id() {
        let plan = tiny_plan(5);
        let results = run(SweepRunner::new(3), &plan).unwrap();
        let ids: Vec<usize> = results.outcomes().iter().map(|o| o.scenario_id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(results.len(), 5);
        assert!(!results.is_empty());
    }

    #[test]
    fn empty_plan_runs_to_empty_results() {
        let plan = SweepPlan::new(SimulatorConfig::default());
        let results = run(SweepRunner::new(4), &plan).unwrap();
        assert!(results.is_empty());
        assert!(results.timing(&plan).entries.is_empty());
    }

    #[test]
    fn auto_jobs_resolves_to_at_least_one_worker() {
        assert!(SweepRunner::new(0).jobs() >= 1);
        assert_eq!(SweepRunner::sequential().jobs(), 1);
        assert_eq!(SweepRunner::default().jobs(), 1);
    }

    #[test]
    fn failing_scenario_reports_the_smallest_failing_id() {
        let gpu = GpuConfig::default();
        let spmv = parboil::benchmark("spmv", &gpu).unwrap();
        let mut plan = SweepPlan::new(SimulatorConfig::default());
        // Scenario 0 is fine; scenarios 1 and 2 are empty workloads that
        // fail validation.
        plan.push(Scenario::new(
            "t",
            "ok",
            Workload::new("ok", vec![ProcessSpec::new(spmv)]).with_min_completions(1),
            PolicyKind::Fcfs,
        ));
        for i in 1..3 {
            plan.push(Scenario::new(
                "t",
                format!("bad{i}"),
                Workload::new(format!("bad{i}"), vec![]),
                PolicyKind::Fcfs,
            ));
        }
        // A trailing healthy scenario: with early abort it is skipped under
        // jobs=1 (leaving an unexecuted suffix slot), and the error must
        // still surface identically at every worker count.
        plan.push(Scenario::new(
            "t",
            "ok-tail",
            Workload::new(
                "ok-tail",
                vec![ProcessSpec::new(parboil::benchmark("spmv", &gpu).unwrap())],
            )
            .with_min_completions(1),
            PolicyKind::Fcfs,
        ));
        for jobs in [1, 4] {
            let err = run(SweepRunner::new(jobs), &plan).unwrap_err();
            assert!(
                err.to_string().contains("no processes"),
                "jobs={jobs}: {err}"
            );
        }
    }

    /// Failure reporting stays deterministic when workers claim
    /// multi-scenario chunks: the smallest failing id's error surfaces no
    /// matter which worker's chunk held it. Two invalid scenarios with
    /// distinguishable messages sit mid-plan; 24 scenarios on 2 workers
    /// gives chunk size 3, so the failing ids land mid-chunk.
    #[test]
    fn chunked_claiming_reports_the_smallest_failing_id() {
        let gpu = GpuConfig::default();
        let spmv = parboil::benchmark("spmv", &gpu).unwrap();
        let mut plan = SweepPlan::new(SimulatorConfig::default());
        for i in 0..24 {
            let workload = if i == 7 || i == 16 {
                // Invalid: launches a kernel index that does not exist. The
                // error message names the benchmark, so the test can tell
                // which scenario's failure was reported.
                let bad = gpreempt_trace::BenchmarkTrace::builder(format!("bad{i}"))
                    .kernel(spmv.kernels()[0].clone())
                    .launch(9)
                    .build();
                Workload::new(format!("w{i}"), vec![ProcessSpec::new(bad)])
            } else {
                Workload::new(format!("w{i}"), vec![ProcessSpec::new(spmv.clone())])
                    .with_min_completions(1)
            };
            plan.push(Scenario::new(
                "test",
                format!("s{i}"),
                workload,
                PolicyKind::Fcfs,
            ));
        }
        assert_eq!(SweepRunner::chunk_size(plan.len(), 2), 3);
        for jobs in [1, 2, 4] {
            let err = run(SweepRunner::new(jobs), &plan).unwrap_err();
            assert!(err.to_string().contains("bad7"), "jobs={jobs}: {err}");
        }
    }

    /// A subset run executes exactly the requested ids, in the requested
    /// order, and each outcome is bit-identical to the same scenario's
    /// outcome in a full run — at every worker count.
    #[test]
    fn subset_runs_match_the_full_run_scenario_for_scenario() {
        let plan = lean_plan(12);
        let full = run(SweepRunner::sequential(), &plan).unwrap();
        let ids: Vec<usize> = (0..plan.len()).filter(|id| id % 3 == 1).collect();
        for jobs in [1, 2, 4] {
            let subset = SweepRunner::new(jobs)
                .run_fold_tap_subset(&plan, &ids, &fingerprint_of, &|_, _| Ok(()))
                .unwrap();
            assert_eq!(subset.len(), ids.len(), "jobs={jobs}");
            for (pos, outcome) in subset.outcomes().iter().enumerate() {
                assert_eq!(outcome.scenario_id, ids[pos], "jobs={jobs}");
                assert_eq!(
                    outcome.value,
                    full.outcomes()[ids[pos]].value,
                    "jobs={jobs} id={}",
                    ids[pos]
                );
            }
            // Timing entries resolve labels through the original plan ids.
            let timing = subset.timing(&plan);
            assert_eq!(timing.entries[0].label, format!("s{}", ids[0]));
        }
    }

    #[test]
    fn subset_with_out_of_range_id_is_an_error() {
        let plan = lean_plan(3);
        let err = SweepRunner::sequential()
            .run_fold_tap_subset(&plan, &[1, 7], &fingerprint_of, &|_, _| Ok(()))
            .unwrap_err();
        assert!(err.to_string().contains("scenario id 7"), "{err}");
    }

    #[test]
    fn empty_subset_runs_to_empty_results() {
        let plan = lean_plan(3);
        let results = SweepRunner::new(4)
            .run_fold_tap_subset(&plan, &[], &fingerprint_of, &|_, _| Ok(()))
            .unwrap();
        assert!(results.is_empty());
    }

    /// A panic inside a scenario surfaces as that scenario's error, naming
    /// its id, group, label and seed, and is reported the same way at every
    /// worker count.
    #[test]
    fn panicking_scenario_is_reported_by_id_label_and_seed() {
        let plan = lean_plan(12);
        for jobs in [1, 2] {
            let err = SweepRunner::new(jobs)
                .run_fold_tap(
                    &plan,
                    &|scenario, run| {
                        if scenario.id == 5 {
                            panic!("fold failed on {}", scenario.label);
                        }
                        Ok(run.events_processed())
                    },
                    &|_, _| Ok(()),
                )
                .unwrap_err();
            let seed = plan.config().seed;
            assert_eq!(
                err.to_string(),
                format!(
                    "internal simulator error: scenario 5 (test / s5, seed {seed}) \
                     panicked: fold failed on s5"
                ),
                "jobs={jobs}"
            );
        }
    }

    /// Core pinning is a pure performance hint: pinned workers produce
    /// bit-identical results (and the builder round-trips).
    #[test]
    fn affinity_does_not_change_results() {
        let plan = tiny_plan(4);
        let runner = SweepRunner::new(2);
        assert!(!runner.affinity());
        let pinned = runner.with_affinity(true);
        assert!(pinned.affinity());
        assert_eq!(
            fingerprints(&run(runner, &plan).unwrap()),
            fingerprints(&run(pinned, &plan).unwrap())
        );
    }

    #[test]
    fn timing_is_labelled_and_summarised() {
        let plan = tiny_plan(3);
        let results = run(SweepRunner::new(2), &plan).unwrap();
        let timing = results.timing(&plan);
        assert_eq!(timing.entries.len(), 3);
        assert_eq!(timing.entries[0].label, "s0");
        assert_eq!(timing.entries[2].workload, "w2");
        assert!(timing.scenario_wall_sum() >= timing.slowest().unwrap().wall);
        assert!(timing.summary().contains("3 scenarios"));
        assert_eq!(timing.render().len(), 3);
        let merged = timing.clone().merged(results.timing(&plan));
        assert_eq!(merged.entries.len(), 6);
    }
}
