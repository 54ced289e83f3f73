//! The Figure 2 scenario: a soft real-time kernel competing with two
//! previously launched low-priority kernels.
//!
//! The paper uses this timeline to motivate preemption: with FCFS the
//! high-priority kernel K3 waits for K1 *and* K2; with a non-preemptive
//! priority scheduler it only waits for K1; with a preemptive scheduler it
//! starts almost immediately.

use crate::config::{PolicyKind, SimulatorConfig};
use crate::experiments::{Experiment, ExperimentScale, IsolatedPhase};
use crate::report::TextTable;
use crate::simulator::SimulationRun;
use crate::sweep::shard::checkpointed;
use crate::sweep::{Scenario, SweepPlan, SweepRecord, SweepReport, SweepTiming};
use gpreempt_gpu::{MechanismSelection, PreemptionMechanism};
use gpreempt_trace::{BenchmarkTrace, KernelSpec, ProcessSpec, Workload};
use gpreempt_types::{KernelFootprint, Priority, ProcessId, SimError, SimTime};

checkpointed! {
    /// Timeline of the three kernels under one scheduler.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Fig2Timeline {
        /// The scheduler that produced this timeline.
        pub policy: PolicyKind,
        /// When the low-priority kernel K1 finished.
        pub k1_finish: SimTime,
        /// When the low-priority kernel K2 finished.
        pub k2_finish: SimTime,
        /// When the high-priority kernel K3 started executing on SMs.
        pub k3_start: SimTime,
        /// When the high-priority kernel K3 finished (its "deadline" latency).
        pub k3_finish: SimTime,
    }
}

/// The Figure 2 experiment: the same three-kernel scenario under FCFS,
/// non-preemptive priority and preemptive priority scheduling.
#[derive(Debug, Clone)]
pub struct Fig2Results {
    /// The three timelines in the order the paper draws them: (a) FCFS,
    /// (b) non-preemptive priority, (c) preemptive priority.
    pub timelines: Vec<Fig2Timeline>,
    plan_seed: u64,
    timing: SweepTiming,
}

impl PartialEq for Fig2Results {
    /// Equality over the simulated timelines only: wall-clock timing varies
    /// run to run even when the simulation output is bit-identical.
    fn eq(&self, other: &Self) -> bool {
        self.timelines == other.timelines && self.plan_seed == other.plan_seed
    }
}

/// The three schedulers of the figure, in the order the paper draws them.
const POLICIES: [PolicyKind; 3] = [PolicyKind::Fcfs, PolicyKind::Npq, PolicyKind::PpqExclusive];

impl Experiment for Fig2Results {
    const NAME: &'static str = "fig2";
    type Value = Fig2Timeline;
    type Context = ();

    /// One scenario per scheduler, all under the fixed context-switch
    /// mechanism; the scale plays no part.
    fn enumerate(
        config: &SimulatorConfig,
        _scale: &ExperimentScale,
        _isolated: &mut IsolatedPhase<'_>,
    ) -> Result<(SweepPlan, ()), SimError> {
        let workload = Self::workload();
        let mut plan = SweepPlan::new(config.clone());
        for policy in POLICIES {
            plan.push(
                Scenario::new("fig2", policy.label(), workload.clone(), policy).with_selection(
                    MechanismSelection::Fixed(PreemptionMechanism::ContextSwitch),
                ),
            );
        }
        Ok((plan, ()))
    }

    fn fold(_: &(), scenario: &Scenario, run: SimulationRun) -> Result<Fig2Timeline, SimError> {
        // Process 0 launches K1 then K2 (different streams); process 1
        // launches the high-priority K3.
        let low_finishes = || {
            run.kernel_completions()
                .iter()
                .filter(|c| c.process == ProcessId::new(0))
                .map(|c| c.finished_at)
        };
        let k3 = run
            .kernel_completions()
            .iter()
            .find(|c| c.process == ProcessId::new(1))
            .expect("K3 completed");
        Ok(Fig2Timeline {
            policy: POLICIES[scenario.id],
            k1_finish: low_finishes().min().expect("K1 completed"),
            k2_finish: low_finishes().max().expect("K2 completed"),
            k3_start: k3.started_at,
            k3_finish: k3.finished_at,
        })
    }

    fn aggregate(
        plan: &SweepPlan,
        _: (),
        timelines: Vec<Fig2Timeline>,
        timing: SweepTiming,
    ) -> Self {
        Fig2Results {
            timelines,
            plan_seed: plan.seed(),
            timing,
        }
    }

    /// One record per scheduler with the four timeline marks in
    /// microseconds.
    fn report(&self) -> SweepReport {
        let mut report = SweepReport::new(self.plan_seed);
        for t in &self.timelines {
            report.push(
                SweepRecord::new("fig2", "figure-2", t.policy.label(), 2)
                    .with_value("k3_start_us", t.k3_start.as_micros_f64())
                    .with_value("k3_finish_us", t.k3_finish.as_micros_f64())
                    .with_value("k1_finish_us", t.k1_finish.as_micros_f64())
                    .with_value("k2_finish_us", t.k2_finish.as_micros_f64()),
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

impl Fig2Results {
    /// The three-kernel workload: K1 and K2 are long, low-priority kernels
    /// from one process; K3 is a short, high-priority kernel from another
    /// process, launched shortly after.
    pub fn workload() -> Workload {
        let long_kernel = |name: &str| {
            KernelSpec::new(
                name,
                KernelFootprint::new(8_192, 0, 256),
                2_080, // 20 full waves of the GPU
                SimTime::from_micros(100),
            )
        };
        // K1 and K2 are issued on different streams so both launch commands
        // reach the execution engine before K3 arrives, exactly as in the
        // paper's timeline (the engine then executes them in FCFS order).
        let low = BenchmarkTrace::builder("low-priority")
            .kernel(long_kernel("K1"))
            .kernel(long_kernel("K2"))
            .on_stream(gpreempt_types::StreamId::new(0))
            .launch(0)
            .on_stream(gpreempt_types::StreamId::new(1))
            .launch(1)
            .build();
        let high = BenchmarkTrace::builder("soft-real-time")
            .kernel(KernelSpec::new(
                "K3",
                KernelFootprint::new(8_192, 0, 256),
                104, // one full wave
                SimTime::from_micros(50),
            ))
            .cpu(SimTime::from_micros(300)) // K3 arrives while K1 is running
            .launch(0)
            .build();
        Workload::new(
            "figure-2",
            vec![
                ProcessSpec::new(low),
                ProcessSpec::new(high).with_priority(Priority::HIGH),
            ],
        )
        .with_min_completions(1)
    }

    /// The timeline produced by one of the three schedulers.
    pub fn timeline(&self, policy: PolicyKind) -> Option<&Fig2Timeline> {
        self.timelines.iter().find(|t| t.policy == policy)
    }

    /// Renders the three timelines.
    pub fn render(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "scheduler".into(),
            "K3 start (us)".into(),
            "K3 finish (us)".into(),
            "K1 finish (us)".into(),
            "K2 finish (us)".into(),
        ])
        .with_title("Figure 2: latency of the soft real-time kernel K3 under different schedulers");
        for t in &self.timelines {
            table.add_row(vec![
                t.policy.label().to_string(),
                format!("{:.1}", t.k3_start.as_micros_f64()),
                format!("{:.1}", t.k3_finish.as_micros_f64()),
                format!("{:.1}", t.k1_finish.as_micros_f64()),
                format!("{:.1}", t.k2_finish.as_micros_f64()),
            ]);
        }
        table
    }
}
