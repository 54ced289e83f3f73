//! The real-time scheduling experiment: deadline-aware policies under
//! swept load.
//!
//! Combines the two top follow-up directions on the paper's framework —
//! GCAPS-style context-aware preemptive scheduling (Wang et al. 2024) and
//! preemptive priority-based real-time scheduling evaluated by
//! deadline-miss rate (arXiv:2401.16529) — into one sweep over three axes:
//!
//! * **policy** — PPQ (the paper's preemptive priority scheduler, blind to
//!   deadlines), GCAPS (deadline-aware urgency + preemption-cost gate) and
//!   EDF (deadline-aware, cost-blind);
//! * **latency target** — the engine's preemption-mechanism selection:
//!   pinned context switch, or adaptive selection under a preemption-latency
//!   target (the `MechanismSelection::Adaptive` axis the ROADMAP calls
//!   for);
//! * **utilization** — how tight the deadlines are. Each process's relative
//!   deadline is `isolated_time × n_processes / u`: at `u = 1.0` a process
//!   fair-sharing the GPU with `n − 1` others sits exactly on its deadline,
//!   smaller `u` leaves slack.
//!
//! Every cell is replicated across `N_SEEDS` engine-RNG streams
//! ([`SweepPlan::assign_derived_seeds`]) and reported as mean ± half-width
//! of the 95 % confidence interval.

use crate::config::{PolicyKind, SimulatorConfig};
use crate::experiments::common::{ci95, ExperimentScale};
use crate::experiments::{Experiment, IsolatedPhase};
use crate::report::TextTable;
use crate::simulator::SimulationRun;
use crate::sweep::shard::checkpointed;
use crate::sweep::{Scenario, SweepPlan, SweepRecord, SweepReport, SweepTiming};
use gpreempt_gpu::{MechanismSelection, PreemptionMechanism};
use gpreempt_sim::stats;
use gpreempt_trace::{ProcessSpec, Workload};
use gpreempt_types::{RtSpec, SimError, SimTime};

/// The policies the experiment compares.
pub const REALTIME_POLICIES: [PolicyKind; 3] =
    [PolicyKind::PpqExclusive, PolicyKind::Gcaps, PolicyKind::Edf];

/// The utilization (deadline-tightness) axis.
pub const UTILIZATIONS: [f64; 2] = [0.5, 0.9];

/// The latency-target axis, in microseconds; `None` pins the context-switch
/// mechanism.
pub const LATENCY_TARGETS_US: [Option<u64>; 2] = [None, Some(50)];

/// Engine-RNG replicates per cell.
pub const N_SEEDS: usize = 3;

/// One point of the latency-target axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencyTarget(pub Option<u64>);

impl LatencyTarget {
    /// The engine selection mode this axis point maps onto.
    pub fn selection(self) -> MechanismSelection {
        match self.0 {
            None => MechanismSelection::Fixed(PreemptionMechanism::ContextSwitch),
            Some(us) => MechanismSelection::adaptive_with_target(SimTime::from_micros(us)),
        }
    }

    /// Label used in reports.
    pub fn label(self) -> String {
        match self.0 {
            None => "fixed-cs".to_string(),
            Some(us) => format!("adaptive:{us}us"),
        }
    }
}

/// The identity of one cell of the sweep (everything except the seed).
#[derive(Debug, Clone, PartialEq)]
pub struct RealtimeCellKey {
    /// Workload name.
    pub workload: String,
    /// Number of co-scheduled processes.
    pub size: usize,
    /// The deadline-tightness axis value.
    pub utilization: f64,
    /// The policy under test.
    pub policy: PolicyKind,
    /// The preemption-latency-target axis value.
    pub target: LatencyTarget,
}

checkpointed! {
    /// The outcome of one scenario (one seed of one cell).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct RealtimePoint {
        /// Workload-level deadline-miss rate.
        pub miss_rate: f64,
        /// Mean response time over every completed execution, in µs.
        pub mean_response_us: f64,
        /// Largest overshoot past any deadline, in µs.
        pub max_tardiness_us: f64,
        /// Completed executions.
        pub completed: u64,
        /// Missed executions (including synthetic misses of starved
        /// processes).
        pub missed: u64,
        /// Preemptions the policy requested.
        pub preemptions: u64,
        /// Mean preemption latency, in µs.
        pub mean_preempt_latency_us: f64,
    }
}

/// One cell of the sweep: a [`RealtimeCellKey`] plus statistics over its
/// seed replicates.
#[derive(Debug, Clone, PartialEq)]
pub struct RealtimeCell {
    /// The cell identity.
    pub key: RealtimeCellKey,
    /// Per-seed outcomes, in replicate order.
    pub points: Vec<RealtimePoint>,
}

impl RealtimeCell {
    fn stat(&self, f: impl Fn(&RealtimePoint) -> f64) -> (f64, f64) {
        let values: Vec<f64> = self.points.iter().map(f).collect();
        (stats::mean(&values), ci95(&values))
    }

    /// Mean and 95 % CI half-width of the deadline-miss rate.
    pub fn miss_rate(&self) -> (f64, f64) {
        self.stat(|p| p.miss_rate)
    }

    /// Mean and CI of the mean response time (µs).
    pub fn mean_response_us(&self) -> (f64, f64) {
        self.stat(|p| p.mean_response_us)
    }

    /// The worst tardiness across every replicate (µs).
    pub fn max_tardiness_us(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.max_tardiness_us)
            .fold(0.0, f64::max)
    }

    /// Mean preemption count across replicates.
    pub fn mean_preemptions(&self) -> f64 {
        stats::mean(
            &self
                .points
                .iter()
                .map(|p| p.preemptions as f64)
                .collect::<Vec<_>>(),
        )
    }
}

/// The full real-time experiment.
#[derive(Debug, Clone)]
pub struct RealtimeResults {
    cells: Vec<RealtimeCell>,
    seed: u64,
    timing: SweepTiming,
}

impl Experiment for RealtimeResults {
    const NAME: &'static str = "realtime";
    type Value = RealtimePoint;
    type Context = Vec<RealtimeCellKey>;
    const SCENARIO_RECORD: Option<fn(&Scenario, &RealtimePoint) -> SweepRecord> =
        Some(point_record);

    /// One benchmark mix per size, annotated with deadlines per
    /// utilization, under every policy × latency target × seed replicate.
    /// The context is the cell keys, one per [`N_SEEDS`] scenarios.
    fn enumerate(
        config: &SimulatorConfig,
        scale: &ExperimentScale,
        isolated: &mut IsolatedPhase<'_>,
    ) -> Result<(SweepPlan, Vec<RealtimeCellKey>), SimError> {
        // One benchmark mix per workload size (drawn once, shared by every
        // utilization level so the axes stay orthogonal).
        let mut generator = scale.generator(config);
        let mixes: Vec<(usize, Workload)> = scale
            .workload_sizes
            .iter()
            .map(|&size| (size, generator.random_workload(size)))
            .collect();
        let isolated = isolated.times(mixes.iter().map(|(_, w)| w))?;

        // Deadline-annotated workloads: deadline_i = iso_i * size / u.
        let mut cell_keys: Vec<RealtimeCellKey> = Vec::new();
        let mut plan = SweepPlan::new(config.clone()).with_seed(scale.seed);
        for (size, mix) in &mixes {
            let iso = isolated.times_for(mix)?;
            for &utilization in &UTILIZATIONS {
                let factor = *size as f64 / utilization;
                let processes: Vec<ProcessSpec> = mix
                    .processes()
                    .iter()
                    .zip(&iso)
                    .map(|(spec, &iso_time)| {
                        ProcessSpec::new(spec.benchmark.clone())
                            .with_rt(RtSpec::implicit(iso_time.scale(factor)))
                    })
                    .collect();
                let workload = Workload::new(format!("rt-{size}p-u{utilization:.2}"), processes)
                    .with_min_completions(scale.min_completions.max(3));
                for &policy in &REALTIME_POLICIES {
                    for &target_us in &LATENCY_TARGETS_US {
                        let target = LatencyTarget(target_us);
                        let key = RealtimeCellKey {
                            workload: workload.name().to_string(),
                            size: *size,
                            utilization,
                            policy,
                            target,
                        };
                        for replicate in 0..N_SEEDS {
                            plan.push(
                                Scenario::new(
                                    "realtime",
                                    format!("{} {} s{replicate}", policy.label(), target.label()),
                                    workload.clone(),
                                    policy,
                                )
                                .with_selection(target.selection()),
                            );
                        }
                        cell_keys.push(key);
                    }
                }
            }
        }
        // N-seed replication: every scenario gets its own engine-RNG stream
        // derived from the plan seed and its id.
        plan.assign_derived_seeds();
        Ok((plan, cell_keys))
    }

    fn fold(
        _: &Vec<RealtimeCellKey>,
        scenario: &Scenario,
        run: SimulationRun,
    ) -> Result<RealtimePoint, SimError> {
        let rt = run.rt_metrics(&scenario.workload);
        let stats = run.engine_stats();
        Ok(RealtimePoint {
            miss_rate: rt.miss_rate(),
            mean_response_us: rt.mean_response().as_micros_f64(),
            max_tardiness_us: rt.max_tardiness().as_micros_f64(),
            completed: rt.completed(),
            missed: rt.missed(),
            preemptions: stats.preemptions,
            mean_preempt_latency_us: stats.mean_preemption_latency().as_micros_f64(),
        })
    }

    fn aggregate(
        plan: &SweepPlan,
        cell_keys: Vec<RealtimeCellKey>,
        values: Vec<RealtimePoint>,
        timing: SweepTiming,
    ) -> Self {
        let mut points = values.into_iter();
        let cells = cell_keys
            .into_iter()
            .map(|key| RealtimeCell {
                key,
                points: points.by_ref().take(N_SEEDS).collect(),
            })
            .collect();
        RealtimeResults {
            cells,
            seed: plan.seed(),
            timing,
        }
    }

    /// One record per cell, carrying the mean ± CI of each metric plus the
    /// replicate count.
    fn report(&self) -> SweepReport {
        let mut report = SweepReport::new(self.seed);
        for cell in &self.cells {
            let (miss, miss_ci) = cell.miss_rate();
            let (resp, resp_ci) = cell.mean_response_us();
            report.push(
                SweepRecord::new(
                    "realtime",
                    &cell.key.workload,
                    format!("{} {}", cell.key.policy.label(), cell.key.target.label()),
                    cell.key.size,
                )
                .with_value("utilization", cell.key.utilization)
                .with_value("miss_rate", miss)
                .with_value("miss_rate_ci95", miss_ci)
                .with_value("mean_response_us", resp)
                .with_value("mean_response_us_ci95", resp_ci)
                .with_value("max_tardiness_us", cell.max_tardiness_us())
                .with_value("preemptions", cell.mean_preemptions())
                .with_value("n_seeds", cell.points.len() as f64),
            );
        }
        report
    }

    fn tables(&self) -> Vec<TextTable> {
        vec![self.render()]
    }

    fn timing(&self) -> &SweepTiming {
        &self.timing
    }
}

impl RealtimeResults {
    /// The per-cell results, in enumeration order.
    pub fn cells(&self) -> &[RealtimeCell] {
        &self.cells
    }

    /// The cell for a (size, utilization, policy, target) combination.
    pub fn cell(
        &self,
        size: usize,
        utilization: f64,
        policy: PolicyKind,
        target: LatencyTarget,
    ) -> Option<&RealtimeCell> {
        self.cells.iter().find(|c| {
            c.key.size == size
                && c.key.utilization == utilization
                && c.key.policy == policy
                && c.key.target == target
        })
    }

    /// Whether at least one swept (size, utilization, latency-target)
    /// combination shows GCAPS with a **strictly lower** mean deadline-miss
    /// rate than PPQ — the headline acceptance criterion of the real-time
    /// subsystem.
    pub fn gcaps_beats_ppq_somewhere(&self) -> bool {
        self.cells
            .iter()
            .filter(|c| c.key.policy == PolicyKind::Gcaps)
            .any(|gcaps| {
                self.cell(
                    gcaps.key.size,
                    gcaps.key.utilization,
                    PolicyKind::PpqExclusive,
                    gcaps.key.target,
                )
                .is_some_and(|ppq| gcaps.miss_rate().0 < ppq.miss_rate().0)
            })
    }

    /// Renders the sweep as a table: one row per cell with mean ± CI
    /// columns.
    pub fn render(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "procs".into(),
            "util".into(),
            "policy".into(),
            "latency target".into(),
            "miss rate".into(),
            "mean response (us)".into(),
            "max tardiness (us)".into(),
            "preemptions".into(),
        ])
        .with_title(format!(
            "Real-time sweep: deadline-miss rate by policy x latency target x utilization \
             (mean +/- 95% CI over {N_SEEDS} seeds)"
        ));
        table.extend_rows(self.cells.iter().map(|cell| {
            let (miss, miss_ci) = cell.miss_rate();
            let (resp, resp_ci) = cell.mean_response_us();
            vec![
                cell.key.size.to_string(),
                format!("{:.2}", cell.key.utilization),
                cell.key.policy.label().to_string(),
                cell.key.target.label(),
                format!(
                    "{} +/- {}",
                    stats::fmt_stat(miss, 3),
                    stats::fmt_stat(miss_ci, 3)
                ),
                format!(
                    "{} +/- {}",
                    stats::fmt_stat(resp, 1),
                    stats::fmt_stat(resp_ci, 1)
                ),
                format!("{:.1}", cell.max_tardiness_us()),
                stats::fmt_stat(cell.mean_preemptions(), 1),
            ]
        }));
        table
    }
}

/// The per-scenario record streamed to the JSONL sink: one seed's raw
/// outcome, identified by workload and scenario label.
fn point_record(scenario: &Scenario, point: &RealtimePoint) -> SweepRecord {
    SweepRecord::new(
        "realtime",
        scenario.workload.name(),
        &scenario.label,
        scenario.size(),
    )
    .with_value("miss_rate", point.miss_rate)
    .with_value("mean_response_us", point.mean_response_us)
    .with_value("max_tardiness_us", point.max_tardiness_us)
    .with_value("completed", point.completed as f64)
    .with_value("missed", point.missed as f64)
    .with_value("preemptions", point.preemptions as f64)
    .with_value("mean_preempt_latency_us", point.mean_preempt_latency_us)
}
