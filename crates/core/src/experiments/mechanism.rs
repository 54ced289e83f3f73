//! Mechanism-selection ablation: fixed context switch vs. fixed draining
//! vs. adaptive per-preemption selection.
//!
//! The paper evaluates DSS once per pinned mechanism; this harness adds the
//! adaptive engine mode (the mechanism is chosen at each `preempt_sm` from
//! the estimated drain latency and the context-save cost model) and reports,
//! per workload, the Eyerman & Eeckhout metrics **plus** the mean preemption
//! latency, the adaptive pick split and the remaining-time estimator's mean
//! prediction error.

use crate::config::{PolicyKind, SimulatorConfig};
use crate::experiments::common::{mean_of, ExperimentScale, Population};
use crate::experiments::{Experiment, IsolatedPhase};
use crate::report::TextTable;
use crate::simulator::SimulationRun;
use crate::sweep::shard::checkpointed;
use crate::sweep::{Scenario, SweepPlan, SweepRecord, SweepReport, SweepTiming};
use gpreempt_gpu::{MechanismSelection, PreemptionMechanism};
use gpreempt_sim::stats::fmt_stat;
use gpreempt_types::{SimError, SimTime};
use std::collections::HashMap;

/// One engine configuration evaluated by the mechanism ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MechanismConfig {
    /// Every preemption context-switches (the paper's default).
    FixedContextSwitch,
    /// Every preemption drains.
    FixedDraining,
    /// The engine picks the cheaper mechanism per preemption.
    Adaptive,
}

impl MechanismConfig {
    /// Every configuration, in evaluation order.
    pub const fn all() -> [MechanismConfig; 3] {
        [
            MechanismConfig::FixedContextSwitch,
            MechanismConfig::FixedDraining,
            MechanismConfig::Adaptive,
        ]
    }

    /// Label used in reports.
    pub const fn label(self) -> &'static str {
        match self {
            MechanismConfig::FixedContextSwitch => "Fixed(CS)",
            MechanismConfig::FixedDraining => "Fixed(Drain)",
            MechanismConfig::Adaptive => "Adaptive",
        }
    }

    /// The engine-level selection mode this configuration maps onto.
    pub const fn selection(self) -> MechanismSelection {
        match self {
            MechanismConfig::FixedContextSwitch => {
                MechanismSelection::Fixed(PreemptionMechanism::ContextSwitch)
            }
            MechanismConfig::FixedDraining => {
                MechanismSelection::Fixed(PreemptionMechanism::Draining)
            }
            MechanismConfig::Adaptive => MechanismSelection::adaptive(),
        }
    }
}

impl std::fmt::Display for MechanismConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

checkpointed! {
    /// The outcome of one workload under one mechanism configuration.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MechanismOutcome {
        /// Average normalized turnaround time.
        pub antt: f64,
        /// System throughput.
        pub stp: f64,
        /// Fairness.
        pub fairness: f64,
        /// Preemptions requested by the policy.
        pub preemptions: u64,
        /// Preemptions that ran to completion.
        pub preemptions_completed: u64,
        /// Mean request-to-hand-over preemption latency.
        pub mean_preemption_latency: SimTime,
        /// Adaptive picks that chose draining (0 under fixed selection).
        pub drain_picks: u64,
        /// Adaptive picks that chose context switching (0 under fixed
        /// selection).
        pub cs_picks: u64,
        /// Mean absolute error of the adaptive latency estimates (zero under
        /// fixed selection).
        pub mean_estimate_error: SimTime,
    }
}

/// The results of one workload across every mechanism configuration.
#[derive(Debug, Clone)]
pub struct MechanismRecord {
    /// Workload name.
    pub workload: String,
    /// Number of processes.
    pub size: usize,
    /// Outcome under each configuration.
    pub outcomes: HashMap<MechanismConfig, MechanismOutcome>,
}

impl MechanismRecord {
    /// Whether every configuration actually preempted on this workload, so
    /// latency comparisons are meaningful.
    pub fn all_preempted(&self) -> bool {
        MechanismConfig::all()
            .iter()
            .all(|c| self.outcomes[c].preemptions_completed > 0)
    }

    /// The smaller of the two fixed configurations' mean preemption
    /// latencies.
    pub fn best_fixed_latency(&self) -> SimTime {
        self.outcomes[&MechanismConfig::FixedContextSwitch]
            .mean_preemption_latency
            .min(self.outcomes[&MechanismConfig::FixedDraining].mean_preemption_latency)
    }

    /// Whether the adaptive engine achieved a mean preemption latency no
    /// worse than the better fixed mechanism, within the estimator's own
    /// reported mean error (the acceptance bound of the ablation).
    pub fn adaptive_within_bound(&self) -> bool {
        let adaptive = &self.outcomes[&MechanismConfig::Adaptive];
        let bound = self.best_fixed_latency() + adaptive.mean_estimate_error;
        adaptive.mean_preemption_latency <= bound
    }
}

/// The full mechanism-selection ablation.
#[derive(Debug, Clone)]
pub struct MechanismResults {
    records: Vec<MechanismRecord>,
    sizes: Vec<usize>,
    seed: u64,
    timing: SweepTiming,
}

impl Experiment for MechanismResults {
    const NAME: &'static str = "mechanism";
    type Value = MechanismOutcome;
    type Context = Population;

    /// The spatial experiment's random population, each workload under DSS
    /// (the preemption-heavy policy) with every [`MechanismConfig`].
    fn enumerate(
        config: &SimulatorConfig,
        scale: &ExperimentScale,
        isolated: &mut IsolatedPhase<'_>,
    ) -> Result<(SweepPlan, Population), SimError> {
        let population = Population::generate(config, scale, isolated, |generator, size| {
            generator.random_population(size, scale.random_workloads)
        })?;
        let mut plan = SweepPlan::new(config.clone()).with_seed(scale.seed);
        for (_, workload) in &population.workloads {
            for cfg in MechanismConfig::all() {
                plan.push(
                    Scenario::new("mechanism", cfg.label(), workload.clone(), PolicyKind::Dss)
                        .with_selection(cfg.selection()),
                );
            }
        }
        Ok((plan, population))
    }

    fn fold(
        population: &Population,
        scenario: &Scenario,
        run: SimulationRun,
    ) -> Result<MechanismOutcome, SimError> {
        let isolated = &population.isolated[scenario.id / MechanismConfig::all().len()];
        let metrics = run.metrics(isolated)?;
        let stats = run.engine_stats();
        Ok(MechanismOutcome {
            antt: metrics.antt(),
            stp: metrics.stp(),
            fairness: metrics.fairness(),
            preemptions: stats.preemptions,
            preemptions_completed: stats.preemptions_completed,
            mean_preemption_latency: stats.mean_preemption_latency(),
            drain_picks: stats.adaptive_drain_picks,
            cs_picks: stats.adaptive_cs_picks,
            mean_estimate_error: stats.mean_estimate_error(),
        })
    }

    fn aggregate(
        plan: &SweepPlan,
        population: Population,
        values: Vec<MechanismOutcome>,
        timing: SweepTiming,
    ) -> Self {
        let mut values = values.into_iter();
        let records = population
            .workloads
            .iter()
            .map(|(size, workload)| MechanismRecord {
                workload: workload.name().to_string(),
                size: *size,
                outcomes: MechanismConfig::all()
                    .into_iter()
                    .zip(&mut values)
                    .collect(),
            })
            .collect();
        MechanismResults {
            records,
            sizes: population.sizes,
            seed: plan.seed(),
            timing,
        }
    }

    /// One record per workload × selection mode, with metrics, preemption
    /// counters and the adaptive pick split.
    fn report(&self) -> SweepReport {
        let mut report = SweepReport::new(self.seed);
        for record in &self.records {
            for cfg in MechanismConfig::all() {
                let o = &record.outcomes[&cfg];
                report.push(
                    SweepRecord::new("mechanism", &record.workload, cfg.label(), record.size)
                        .with_value("antt", o.antt)
                        .with_value("stp", o.stp)
                        .with_value("fairness", o.fairness)
                        .with_value("preemptions", o.preemptions as f64)
                        .with_value("preemptions_completed", o.preemptions_completed as f64)
                        .with_value(
                            "mean_preempt_latency_us",
                            o.mean_preemption_latency.as_micros_f64(),
                        )
                        .with_value("drain_picks", o.drain_picks as f64)
                        .with_value("cs_picks", o.cs_picks as f64)
                        .with_value("est_err_us", o.mean_estimate_error.as_micros_f64()),
                );
            }
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

impl MechanismResults {
    /// The per-workload records.
    pub fn records(&self) -> &[MechanismRecord] {
        &self.records
    }

    /// The workload sizes evaluated.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Whether at least one workload mix with preemptions under every
    /// configuration met the adaptive latency bound (mean adaptive latency
    /// ≤ best fixed mean latency + the estimator's reported error).
    pub fn adaptive_meets_latency_bound(&self) -> bool {
        self.records
            .iter()
            .any(|r| r.all_preempted() && r.adaptive_within_bound())
    }

    /// Mean of a per-outcome value across the records of one size.
    fn mean_over(
        &self,
        size: usize,
        config: MechanismConfig,
        f: impl Fn(&MechanismOutcome) -> f64,
    ) -> f64 {
        mean_of(
            self.records
                .iter()
                .filter(|r| r.size == size)
                .map(|r| f(&r.outcomes[&config])),
        )
    }

    /// Renders the ablation as one table: per size and configuration, the
    /// mean ANTT / STP / fairness, the mean preemption latency and the
    /// adaptive decision split.
    pub fn render(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "procs".into(),
            "selection".into(),
            "ANTT".into(),
            "STP".into(),
            "fairness".into(),
            "mean preempt lat (us)".into(),
            "drain/cs picks".into(),
            "est err (us)".into(),
        ])
        .with_title("Mechanism ablation: fixed context switch / fixed draining / adaptive (DSS)");
        for &size in &self.sizes {
            for cfg in MechanismConfig::all() {
                let lat = self.mean_over(size, cfg, |o| o.mean_preemption_latency.as_micros_f64());
                let err = self.mean_over(size, cfg, |o| o.mean_estimate_error.as_micros_f64());
                let drain: u64 = self
                    .records
                    .iter()
                    .filter(|r| r.size == size)
                    .map(|r| r.outcomes[&cfg].drain_picks)
                    .sum();
                let cs: u64 = self
                    .records
                    .iter()
                    .filter(|r| r.size == size)
                    .map(|r| r.outcomes[&cfg].cs_picks)
                    .sum();
                table.add_row(vec![
                    size.to_string(),
                    cfg.label().to_string(),
                    fmt_stat(self.mean_over(size, cfg, |o| o.antt), 2),
                    fmt_stat(self.mean_over(size, cfg, |o| o.stp), 2),
                    fmt_stat(self.mean_over(size, cfg, |o| o.fairness), 2),
                    fmt_stat(lat, 2),
                    format!("{drain}/{cs}"),
                    fmt_stat(err, 2),
                ]);
            }
        }
        table
    }
}
