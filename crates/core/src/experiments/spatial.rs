//! The spatial-sharing experiment behind Figures 7 and 8.
//!
//! Random equal-priority workloads are simulated under the FCFS baseline and
//! under the DSS policy with both preemption mechanisms (§4.4). Figure 7
//! reports per-class turnaround improvements, fairness improvement and STP
//! degradation relative to FCFS; Figure 8 reports the full distribution of
//! ANTT across workloads.

use crate::config::{PolicyKind, SimulatorConfig};
use crate::experiments::common::{mean_of, ExperimentScale, Population};
use crate::experiments::{Experiment, IsolatedPhase};
use crate::report::{times, TextTable};
use crate::simulator::SimulationRun;
use crate::sweep::shard::checkpointed;
use crate::sweep::{Scenario, SweepPlan, SweepRecord, SweepReport, SweepTiming};
use gpreempt_gpu::{MechanismSelection, PreemptionMechanism};
use gpreempt_types::{KernelClass, SimError};
use std::collections::HashMap;

/// One scheduler configuration evaluated by the spatial-sharing experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpatialConfig {
    /// The FCFS baseline.
    Fcfs,
    /// DSS with the context-switch mechanism.
    DssContextSwitch,
    /// DSS with the draining mechanism.
    DssDraining,
}

impl SpatialConfig {
    /// Every configuration, in evaluation order.
    pub const fn all() -> [SpatialConfig; 3] {
        [
            SpatialConfig::Fcfs,
            SpatialConfig::DssContextSwitch,
            SpatialConfig::DssDraining,
        ]
    }

    /// Label used in reports.
    pub const fn label(self) -> &'static str {
        match self {
            SpatialConfig::Fcfs => "FCFS",
            SpatialConfig::DssContextSwitch => "DSS Context Switch",
            SpatialConfig::DssDraining => "DSS Draining",
        }
    }

    /// The policy and preemption mechanism this configuration maps onto.
    pub const fn policy_and_mechanism(self) -> (PolicyKind, PreemptionMechanism) {
        match self {
            SpatialConfig::Fcfs => (PolicyKind::Fcfs, PreemptionMechanism::ContextSwitch),
            SpatialConfig::DssContextSwitch => {
                (PolicyKind::Dss, PreemptionMechanism::ContextSwitch)
            }
            SpatialConfig::DssDraining => (PolicyKind::Dss, PreemptionMechanism::Draining),
        }
    }
}

impl std::fmt::Display for SpatialConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

checkpointed! {
    /// The outcome of one workload under one configuration.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SpatialOutcome {
        /// Per-process normalized turnaround times (∞ for a starved
        /// process).
        pub ntt: Vec<f64>,
        /// Average normalized turnaround time.
        pub antt: f64,
        /// System throughput.
        pub stp: f64,
        /// Fairness.
        pub fairness: f64,
    }
}

/// The results of one workload across every configuration.
#[derive(Debug, Clone)]
pub struct SpatialRecord {
    /// Workload name.
    pub workload: String,
    /// Number of processes.
    pub size: usize,
    /// The application-duration class ("Class 2") of every process.
    pub app_classes: Vec<KernelClass>,
    /// Outcome under each configuration.
    pub outcomes: HashMap<SpatialConfig, SpatialOutcome>,
}

impl SpatialRecord {
    /// Per-process NTT improvement of `config` over FCFS, in process order.
    pub fn ntt_improvements(&self, config: SpatialConfig) -> Vec<f64> {
        let base = &self.outcomes[&SpatialConfig::Fcfs].ntt;
        let new = &self.outcomes[&config].ntt;
        base.iter()
            .zip(new)
            .map(|(&b, &n)| if n <= 0.0 { 0.0 } else { b / n })
            .collect()
    }

    /// Fairness improvement of `config` over FCFS.
    pub fn fairness_improvement(&self, config: SpatialConfig) -> f64 {
        let base = self.outcomes[&SpatialConfig::Fcfs].fairness;
        let new = self.outcomes[&config].fairness;
        if base <= 0.0 {
            0.0
        } else {
            new / base
        }
    }

    /// STP degradation of `config` relative to FCFS.
    pub fn stp_degradation(&self, config: SpatialConfig) -> f64 {
        let base = self.outcomes[&SpatialConfig::Fcfs].stp;
        let new = self.outcomes[&config].stp;
        if new <= 0.0 {
            f64::INFINITY
        } else {
            base / new
        }
    }
}

/// The full spatial-sharing experiment (Figures 7a-c and 8).
#[derive(Debug, Clone)]
pub struct SpatialResults {
    records: Vec<SpatialRecord>,
    sizes: Vec<usize>,
    seed: u64,
    timing: SweepTiming,
}

impl Experiment for SpatialResults {
    const NAME: &'static str = "spatial";
    type Value = SpatialOutcome;
    type Context = Population;

    /// `random_workloads` random equal-priority workloads per size, each
    /// under every [`SpatialConfig`].
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
            for cfg in SpatialConfig::all() {
                let (policy, mechanism) = cfg.policy_and_mechanism();
                plan.push(
                    Scenario::new("spatial", cfg.label(), workload.clone(), policy)
                        .with_selection(MechanismSelection::Fixed(mechanism)),
                );
            }
        }
        Ok((plan, population))
    }

    fn fold(
        population: &Population,
        scenario: &Scenario,
        run: SimulationRun,
    ) -> Result<SpatialOutcome, SimError> {
        let isolated = &population.isolated[scenario.id / SpatialConfig::all().len()];
        let metrics = run.metrics(isolated)?;
        Ok(SpatialOutcome {
            ntt: metrics.ntt().to_vec(),
            antt: metrics.antt(),
            stp: metrics.stp(),
            fairness: metrics.fairness(),
        })
    }

    fn aggregate(
        plan: &SweepPlan,
        population: Population,
        values: Vec<SpatialOutcome>,
        timing: SweepTiming,
    ) -> Self {
        let mut values = values.into_iter();
        let records = population
            .workloads
            .iter()
            .map(|(size, workload)| SpatialRecord {
                workload: workload.name().to_string(),
                size: *size,
                app_classes: workload
                    .processes()
                    .iter()
                    .map(|p| p.benchmark.app_class())
                    .collect(),
                outcomes: SpatialConfig::all().into_iter().zip(&mut values).collect(),
            })
            .collect();
        SpatialResults {
            records,
            sizes: population.sizes,
            seed: plan.seed(),
            timing,
        }
    }

    /// One record per workload × configuration with ANTT / STP / fairness
    /// and the per-process NTTs.
    fn report(&self) -> SweepReport {
        let mut report = SweepReport::new(self.seed);
        for record in &self.records {
            for cfg in SpatialConfig::all() {
                let outcome = &record.outcomes[&cfg];
                let mut r = SweepRecord::new("spatial", &record.workload, cfg.label(), record.size)
                    .with_value("antt", outcome.antt)
                    .with_value("stp", outcome.stp)
                    .with_value("fairness", outcome.fairness);
                for (i, &ntt) in outcome.ntt.iter().enumerate() {
                    r = r.with_value(format!("ntt_{i}"), ntt);
                }
                report.push(r);
            }
        }
        report
    }

    fn tables(&self) -> Vec<TextTable> {
        vec![
            self.render_fig7a(),
            self.render_fig7b(),
            self.render_fig7c(),
            self.render_fig8(),
        ]
    }

    fn timing(&self) -> &SweepTiming {
        &self.timing
    }
}

impl SpatialResults {
    /// The per-workload records.
    pub fn records(&self) -> &[SpatialRecord] {
        &self.records
    }

    /// The workload sizes evaluated.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Figure 7a: mean per-application NTT improvement of DSS over FCFS, for
    /// the given application class (`None` = AVERAGE) and workload size.
    pub fn fig7a_improvement(
        &self,
        class: Option<KernelClass>,
        size: usize,
        config: SpatialConfig,
    ) -> f64 {
        let mut values = Vec::new();
        for record in self.records.iter().filter(|r| r.size == size) {
            let improvements = record.ntt_improvements(config);
            for (process, &value) in improvements.iter().enumerate() {
                if class.is_none_or(|c| record.app_classes[process] == c) {
                    values.push(value);
                }
            }
        }
        mean_of(values)
    }

    /// Figure 7b: mean fairness improvement of DSS over FCFS for one
    /// workload size.
    pub fn fig7b_fairness(&self, size: usize, config: SpatialConfig) -> f64 {
        mean_of(
            self.records
                .iter()
                .filter(|r| r.size == size)
                .map(|r| r.fairness_improvement(config)),
        )
    }

    /// Figure 7c: mean STP degradation of DSS relative to FCFS for one
    /// workload size.
    pub fn fig7c_stp_degradation(&self, size: usize, config: SpatialConfig) -> f64 {
        mean_of(
            self.records
                .iter()
                .filter(|r| r.size == size)
                .map(|r| r.stp_degradation(config)),
        )
    }

    /// Figure 8: the sorted ANTT values of every workload of one size under
    /// one configuration (the paper plots them against the fraction of
    /// workloads).
    pub fn fig8_sorted_antt(&self, size: usize, config: SpatialConfig) -> Vec<f64> {
        let mut antts: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.size == size)
            .map(|r| r.outcomes[&config].antt)
            .collect();
        antts.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        antts
    }

    /// Renders Figure 7a as a table.
    pub fn render_fig7a(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "group".into(),
            "procs".into(),
            "DSS Context Switch".into(),
            "DSS Draining".into(),
        ])
        .with_title("Figure 7a: turnaround-time improvement over FCFS (times)");
        let groups: Vec<(Option<KernelClass>, &str)> = vec![
            (Some(KernelClass::Short), "SHORT"),
            (Some(KernelClass::Medium), "MEDIUM"),
            (Some(KernelClass::Long), "LONG"),
            (None, "AVERAGE"),
        ];
        for (class, label) in groups {
            for &size in &self.sizes {
                table.add_row(vec![
                    label.to_string(),
                    size.to_string(),
                    times(self.fig7a_improvement(class, size, SpatialConfig::DssContextSwitch)),
                    times(self.fig7a_improvement(class, size, SpatialConfig::DssDraining)),
                ]);
            }
        }
        table
    }

    /// Renders Figure 7b as a table.
    pub fn render_fig7b(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "procs".into(),
            "DSS Context Switch".into(),
            "DSS Draining".into(),
        ])
        .with_title("Figure 7b: system fairness improvement over FCFS (times)");
        for &size in &self.sizes {
            table.add_row(vec![
                size.to_string(),
                times(self.fig7b_fairness(size, SpatialConfig::DssContextSwitch)),
                times(self.fig7b_fairness(size, SpatialConfig::DssDraining)),
            ]);
        }
        table
    }

    /// Renders Figure 7c as a table.
    pub fn render_fig7c(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "procs".into(),
            "DSS Context Switch".into(),
            "DSS Draining".into(),
        ])
        .with_title("Figure 7c: system throughput degradation over FCFS (times)");
        for &size in &self.sizes {
            table.add_row(vec![
                size.to_string(),
                times(self.fig7c_stp_degradation(size, SpatialConfig::DssContextSwitch)),
                times(self.fig7c_stp_degradation(size, SpatialConfig::DssDraining)),
            ]);
        }
        table
    }

    /// Renders Figure 8 as a table: one row per workload (sorted by ANTT
    /// within each size), one column per configuration.
    pub fn render_fig8(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "procs".into(),
            "workload %".into(),
            "FCFS".into(),
            "DSS Context Switch".into(),
            "DSS Draining".into(),
        ])
        .with_title("Figure 8: ANTT across all simulated workloads (sorted per configuration)");
        for &size in &self.sizes {
            let fcfs = self.fig8_sorted_antt(size, SpatialConfig::Fcfs);
            let cs = self.fig8_sorted_antt(size, SpatialConfig::DssContextSwitch);
            let drain = self.fig8_sorted_antt(size, SpatialConfig::DssDraining);
            let count = fcfs.len();
            for i in 0..count {
                let pct = if count <= 1 {
                    100.0
                } else {
                    100.0 * i as f64 / (count - 1) as f64
                };
                table.add_row(vec![
                    size.to_string(),
                    format!("{pct:.0}%"),
                    format!("{:.2}", fcfs[i]),
                    format!("{:.2}", cs[i]),
                    format!("{:.2}", drain[i]),
                ]);
            }
        }
        table
    }
}
