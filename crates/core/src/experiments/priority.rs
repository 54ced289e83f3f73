//! The prioritisation experiment behind Figures 5 and 6.
//!
//! Random workloads are generated in which one process is marked
//! high-priority; every benchmark appears as the high-priority process the
//! same number of times (§4.2). Each workload is simulated under the FCFS
//! baseline (the "non-prioritised" reference), the non-preemptive priority
//! scheduler (NPQ) and the preemptive priority scheduler (PPQ) with both
//! preemption mechanisms and both access modes.

use crate::config::{PolicyKind, SimulatorConfig};
use crate::experiments::common::{mean_of, ExperimentScale, Population};
use crate::experiments::{Experiment, IsolatedPhase};
use crate::report::{times, TextTable};
use crate::simulator::SimulationRun;
use crate::sweep::shard::checkpointed;
use crate::sweep::{Scenario, SweepPlan, SweepRecord, SweepReport, SweepTiming};
use gpreempt_gpu::{MechanismSelection, PreemptionMechanism};
use gpreempt_trace::Workload;
use gpreempt_types::{KernelClass, SimError};
use std::collections::HashMap;

/// One scheduler configuration evaluated by the prioritisation experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PriorityConfig {
    /// The FCFS baseline (no prioritisation).
    Fcfs,
    /// Non-preemptive priority queues.
    Npq,
    /// PPQ with the context-switch mechanism, exclusive access.
    PpqContextSwitch,
    /// PPQ with the draining mechanism, exclusive access.
    PpqDraining,
    /// PPQ with the context-switch mechanism, shared access (Figure 6b).
    PpqContextSwitchShared,
    /// PPQ with the draining mechanism, shared access (Figure 6b).
    PpqDrainingShared,
}

impl PriorityConfig {
    /// Every configuration, in evaluation order.
    pub const fn all() -> [PriorityConfig; 6] {
        [
            PriorityConfig::Fcfs,
            PriorityConfig::Npq,
            PriorityConfig::PpqContextSwitch,
            PriorityConfig::PpqDraining,
            PriorityConfig::PpqContextSwitchShared,
            PriorityConfig::PpqDrainingShared,
        ]
    }

    /// Label used in reports.
    pub const fn label(self) -> &'static str {
        match self {
            PriorityConfig::Fcfs => "FCFS",
            PriorityConfig::Npq => "NPQ",
            PriorityConfig::PpqContextSwitch => "PPQ Context Switch",
            PriorityConfig::PpqDraining => "PPQ Draining",
            PriorityConfig::PpqContextSwitchShared => "PPQ Context Switch (shared)",
            PriorityConfig::PpqDrainingShared => "PPQ Draining (shared)",
        }
    }

    /// The policy and preemption mechanism this configuration maps onto.
    pub const fn policy_and_mechanism(self) -> (PolicyKind, PreemptionMechanism) {
        match self {
            PriorityConfig::Fcfs => (PolicyKind::Fcfs, PreemptionMechanism::ContextSwitch),
            PriorityConfig::Npq => (PolicyKind::Npq, PreemptionMechanism::ContextSwitch),
            PriorityConfig::PpqContextSwitch => {
                (PolicyKind::PpqExclusive, PreemptionMechanism::ContextSwitch)
            }
            PriorityConfig::PpqDraining => {
                (PolicyKind::PpqExclusive, PreemptionMechanism::Draining)
            }
            PriorityConfig::PpqContextSwitchShared => {
                (PolicyKind::PpqShared, PreemptionMechanism::ContextSwitch)
            }
            PriorityConfig::PpqDrainingShared => {
                (PolicyKind::PpqShared, PreemptionMechanism::Draining)
            }
        }
    }
}

impl std::fmt::Display for PriorityConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

checkpointed! {
    /// The outcome of one workload under one configuration.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct PriorityOutcome {
        /// Normalized turnaround time of the high-priority process (∞ when
        /// it starved).
        pub ntt_high_priority: f64,
        /// System throughput of the whole workload.
        pub stp: f64,
    }
}

/// The results of one workload across every configuration.
#[derive(Debug, Clone)]
pub struct PriorityRecord {
    /// Workload name.
    pub workload: String,
    /// Number of processes.
    pub size: usize,
    /// Name of the high-priority benchmark.
    pub high_priority_benchmark: String,
    /// The kernel-duration class ("Class 1") of the high-priority benchmark,
    /// used to group Figure 5.
    pub class: KernelClass,
    /// Outcome under each configuration.
    pub outcomes: HashMap<PriorityConfig, PriorityOutcome>,
}

impl PriorityRecord {
    /// NTT improvement of the high-priority process under `config` relative
    /// to its non-prioritised (FCFS) execution.
    pub fn ntt_improvement(&self, config: PriorityConfig) -> f64 {
        let base = self.outcomes[&PriorityConfig::Fcfs].ntt_high_priority;
        let new = self.outcomes[&config].ntt_high_priority;
        if new <= 0.0 {
            0.0
        } else {
            base / new
        }
    }

    /// STP degradation of `config` relative to NPQ (values above 1 mean the
    /// preemptive scheduler sacrifices throughput).
    pub fn stp_degradation_over_npq(&self, config: PriorityConfig) -> f64 {
        let base = self.outcomes[&PriorityConfig::Npq].stp;
        let new = self.outcomes[&config].stp;
        if new <= 0.0 {
            f64::INFINITY
        } else {
            base / new
        }
    }
}

/// The full prioritisation experiment (Figures 5, 6a and 6b).
#[derive(Debug, Clone)]
pub struct PriorityResults {
    records: Vec<PriorityRecord>,
    sizes: Vec<usize>,
    seed: u64,
    timing: SweepTiming,
}

fn high_priority_index(workload: &Workload) -> usize {
    workload
        .high_priority_process()
        .expect("prioritized workloads have a high-priority process")
        .index()
}

impl Experiment for PriorityResults {
    const NAME: &'static str = "priority";
    type Value = PriorityOutcome;
    type Context = Population;

    /// The prioritized population: every benchmark appears as the
    /// high-priority process `reps_per_benchmark` times per size, and each
    /// workload runs under every [`PriorityConfig`].
    fn enumerate(
        config: &SimulatorConfig,
        scale: &ExperimentScale,
        isolated: &mut IsolatedPhase<'_>,
    ) -> Result<(SweepPlan, Population), SimError> {
        let population = Population::generate(config, scale, isolated, |generator, size| {
            generator.prioritized_population(size, scale.reps_per_benchmark)
        })?;
        let mut plan = SweepPlan::new(config.clone()).with_seed(scale.seed);
        for (_, workload) in &population.workloads {
            for cfg in PriorityConfig::all() {
                let (policy, mechanism) = cfg.policy_and_mechanism();
                plan.push(
                    Scenario::new("priority", cfg.label(), workload.clone(), policy)
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
    ) -> Result<PriorityOutcome, SimError> {
        let isolated = &population.isolated[scenario.id / PriorityConfig::all().len()];
        let metrics = run.metrics(isolated)?;
        Ok(PriorityOutcome {
            ntt_high_priority: metrics.ntt()[high_priority_index(&scenario.workload)],
            stp: metrics.stp(),
        })
    }

    fn aggregate(
        plan: &SweepPlan,
        population: Population,
        values: Vec<PriorityOutcome>,
        timing: SweepTiming,
    ) -> Self {
        let mut values = values.into_iter();
        let records = population
            .workloads
            .iter()
            .map(|(size, workload)| {
                let hp_spec = &workload.processes()[high_priority_index(workload)];
                PriorityRecord {
                    workload: workload.name().to_string(),
                    size: *size,
                    high_priority_benchmark: hp_spec.benchmark.name().to_string(),
                    class: hp_spec.benchmark.kernel_class(),
                    outcomes: PriorityConfig::all().into_iter().zip(&mut values).collect(),
                }
            })
            .collect();
        PriorityResults {
            records,
            sizes: population.sizes,
            seed: plan.seed(),
            timing,
        }
    }

    /// One record per workload × configuration, with the high-priority NTT
    /// and the workload STP.
    fn report(&self) -> SweepReport {
        let mut report = SweepReport::new(self.seed);
        for record in &self.records {
            for cfg in PriorityConfig::all() {
                let outcome = &record.outcomes[&cfg];
                report.push(
                    SweepRecord::new("priority", &record.workload, cfg.label(), record.size)
                        .with_value("ntt_high_priority", outcome.ntt_high_priority)
                        .with_value("stp", outcome.stp),
                );
            }
        }
        report
    }

    fn tables(&self) -> Vec<TextTable> {
        vec![
            self.render_fig5(),
            self.render_fig6(false),
            self.render_fig6(true),
        ]
    }

    fn timing(&self) -> &SweepTiming {
        &self.timing
    }
}

impl PriorityResults {
    /// The per-workload records.
    pub fn records(&self) -> &[PriorityRecord] {
        &self.records
    }

    /// The workload sizes evaluated.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Figure 5: mean NTT improvement of the high-priority process over its
    /// non-prioritised execution, for the given benchmark class (or `None`
    /// for the AVERAGE group) and workload size.
    pub fn fig5_improvement(
        &self,
        class: Option<KernelClass>,
        size: usize,
        config: PriorityConfig,
    ) -> f64 {
        mean_of(
            self.records
                .iter()
                .filter(|r| r.size == size && class.is_none_or(|c| r.class == c))
                .map(|r| r.ntt_improvement(config)),
        )
    }

    /// Figure 6: mean STP degradation of the preemptive schedulers over NPQ
    /// for one workload size.
    pub fn fig6_degradation(&self, size: usize, config: PriorityConfig) -> f64 {
        mean_of(
            self.records
                .iter()
                .filter(|r| r.size == size)
                .map(|r| r.stp_degradation_over_npq(config)),
        )
    }

    /// Renders Figure 5 as a table: one row per (class, size), one column
    /// per scheduler.
    pub fn render_fig5(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "group".into(),
            "procs".into(),
            "NPQ".into(),
            "PPQ Context Switch".into(),
            "PPQ Draining".into(),
        ])
        .with_title(
            "Figure 5: turnaround-time improvement of the high-priority process over FCFS (times)",
        );
        let groups: Vec<(Option<KernelClass>, &str)> = vec![
            (Some(KernelClass::Long), "LONG"),
            (Some(KernelClass::Medium), "MEDIUM"),
            (Some(KernelClass::Short), "SHORT"),
            (None, "AVERAGE"),
        ];
        for (class, label) in groups {
            for &size in &self.sizes {
                table.add_row(vec![
                    label.to_string(),
                    size.to_string(),
                    times(self.fig5_improvement(class, size, PriorityConfig::Npq)),
                    times(self.fig5_improvement(class, size, PriorityConfig::PpqContextSwitch)),
                    times(self.fig5_improvement(class, size, PriorityConfig::PpqDraining)),
                ]);
            }
        }
        table
    }

    /// Renders Figure 6a (exclusive access) or 6b (shared access).
    pub fn render_fig6(&self, shared: bool) -> TextTable {
        let (cs, drain, which) = if shared {
            (
                PriorityConfig::PpqContextSwitchShared,
                PriorityConfig::PpqDrainingShared,
                "6b: shared access",
            )
        } else {
            (
                PriorityConfig::PpqContextSwitch,
                PriorityConfig::PpqDraining,
                "6a: exclusive access",
            )
        };
        let mut table = TextTable::new(vec![
            "procs".into(),
            "PPQ Context Switch".into(),
            "PPQ Draining".into(),
        ])
        .with_title(format!("Figure {which}: STP degradation over NPQ (times)"));
        for &size in &self.sizes {
            table.add_row(vec![
                size.to_string(),
                times(self.fig6_degradation(size, cs)),
                times(self.fig6_degradation(size, drain)),
            ]);
        }
        table
    }
}
