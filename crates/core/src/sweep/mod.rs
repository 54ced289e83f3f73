//! The sweep subsystem: deterministic parallel execution of experiment
//! populations.
//!
//! The paper's evaluation is one big sweep — benchmarks × workload sizes ×
//! policies × mechanism-selection modes — and every harness used to walk it
//! with its own hand-rolled sequential nested loop. This module factors
//! that shape out:
//!
//! * a [`Scenario`] describes **one** simulation (workload × policy ×
//!   config overrides) as a self-contained value;
//! * a [`SweepPlan`] is the ordered enumeration the harnesses *push into*
//!   instead of looping themselves — all stateful workload generation
//!   happens at plan-build time;
//! * a [`SweepRunner`] executes the plan across worker threads
//!   (`--jobs N`), reassembling results in scenario-id order so parallel
//!   output is **bit-identical** to sequential output and to the historical
//!   sequential harnesses. [`SweepRunner::run_fold_tap`] streams: each
//!   finished [`SimulationRun`](crate::SimulationRun) is folded into a
//!   small per-scenario record on the worker that simulated it and dropped,
//!   so a sweep holds at most one run body per worker — memory is
//!   O(scenarios), not O(runs × completions).
//!   [`SweepRunner::run_fold_tap_subset`] runs only the given ids (a
//!   shard's stripe);
//! * a [`SweepReport`] carries the machine-readable results (hand-rolled
//!   JSON — the environment is offline), while [`SweepTiming`] carries the
//!   run-to-run-varying wall-clock numbers separately.
//!
//! ```
//! use gpreempt::sweep::{Scenario, SweepPlan, SweepRunner};
//! use gpreempt::{PolicyKind, SimulatorConfig};
//! use gpreempt_trace::{parboil, ProcessSpec, Workload};
//!
//! let config = SimulatorConfig::default();
//! let gpu = config.machine.gpu.clone();
//! let mut plan = SweepPlan::new(config);
//! for policy in [PolicyKind::Fcfs, PolicyKind::Dss] {
//!     let workload = Workload::new(
//!         "pair",
//!         vec![
//!             ProcessSpec::new(parboil::benchmark("spmv", &gpu).unwrap()),
//!             ProcessSpec::new(parboil::benchmark("sgemm", &gpu).unwrap()),
//!         ],
//!     )
//!     .with_min_completions(1);
//!     plan.push(Scenario::new("demo", policy.label(), workload, policy));
//! }
//! let results = SweepRunner::new(2)
//!     .run_fold_tap(&plan, &|_, run| Ok(run.end_time()), &|_, _| Ok(()))
//!     .unwrap();
//! assert_eq!(results.len(), 2);
//! assert!(results.into_values()[0] > gpreempt_types::SimTime::ZERO);
//! ```

mod plan;
mod report;
mod runner;
mod scenario;
pub mod shard;
mod sink;

pub use plan::SweepPlan;
pub use report::{SweepRecord, SweepReport};
pub use runner::{FoldedResults, ScenarioFold, ScenarioTap, SweepRunner, SweepTiming, TimingEntry};
pub use scenario::{FoldedScenario, Scenario};
pub use shard::{Checkpoint, MergedValues, ShardManifest, ShardSession, ShardSpec, SweepExec};
pub use sink::JsonlSink;
