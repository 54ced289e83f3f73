//! Experiment harnesses that regenerate the paper's tables and figures.
//!
//! | Paper artefact | Harness | What it reports |
//! |---|---|---|
//! | Table 1 | [`Table1`] | per-kernel statistics, with the derived columns recomputed |
//! | Figure 2 | [`Fig2Results`] | latency of a soft real-time kernel under FCFS / NPQ / PPQ |
//! | Figure 5 | [`PriorityResults::render_fig5`] | NTT improvement of the high-priority process |
//! | Figure 6a/6b | [`PriorityResults::render_fig6`] | STP degradation of PPQ over NPQ |
//! | Figure 7a-c | [`SpatialResults`] | DSS turnaround / fairness / throughput vs FCFS |
//! | Figure 8 | [`SpatialResults::render_fig8`] | ANTT distribution across workloads |
//! | (extension) | [`MechanismResults`] | fixed vs adaptive mechanism selection under DSS |
//! | (extension) | [`RealtimeResults`] | deadline-miss rate of PPQ / GCAPS / EDF |
//! | (extension) | [`SaturationResults`] | SLO percentiles of an open-arrival service under swept load |
//!
//! Every sweep harness is an [`Experiment`], implemented by its results
//! type. An experiment enumerates its population into a
//! [`SweepPlan`](crate::sweep::SweepPlan) plus the context its fold needs,
//! folds each finished run into a small per-scenario value, and aggregates
//! those values — in scenario-id order — into its results, report and
//! tables. Each fold value declares its fields once, and its checkpoint
//! codec and schema entry derive from that declaration.
//!
//! The [`Driver`] runs any experiment, so no harness has entry points of
//! its own. It owns the isolated-time phase (probes through a shared
//! [`IsolatedRunCache`], timed as part of the experiment), the
//! [`SweepExec`](crate::sweep::SweepExec) mode — a full run, one shard that
//! checkpoints its fold values, or a merge that decodes them — and the
//! JSONL spill. Results are bit-identical for every worker count and every
//! mode. [`run`] is the one-call full run for tests and examples:
//!
//! ```
//! use gpreempt::experiments::{self, Experiment, ExperimentScale, Fig2Results};
//! use gpreempt::sweep::SweepRunner;
//! use gpreempt::{PolicyKind, SimulatorConfig};
//!
//! let config = SimulatorConfig::default();
//! let fig2: Fig2Results =
//!     experiments::run(&config, &ExperimentScale::quick(), &SweepRunner::new(2)).unwrap();
//! let ppq = fig2.timeline(PolicyKind::PpqExclusive).unwrap();
//! assert!(ppq.k3_start < ppq.k1_finish);
//! assert_eq!(fig2.report().len(), 3);
//! ```
//!
//! [`EXPERIMENTS`] lists the six sweeps in the order `run_sweep
//! --experiment all` runs them; the shard schema fingerprint hashes their
//! schema entries in that order. All harnesses take an [`ExperimentScale`]:
//! `quick()` for smoke runs, `bench()` for the default `cargo bench`
//! harness and `paper()` for the full evaluation population.

pub mod common;
mod driver;
pub mod fig2;
pub mod mechanism;
pub mod priority;
pub mod realtime;
pub mod saturation;
pub mod spatial;
pub mod table1;

pub use common::{
    ci95, config_fingerprint, isolated_times_with_cache, ExperimentScale, IsolatedRunCache,
    IsolatedTimes, Population,
};
pub use driver::{
    run, schema_fingerprint, select, Driver, Experiment, IsolatedPhase, Registered, SweepOutput,
    EXPERIMENTS,
};
pub use fig2::{Fig2Results, Fig2Timeline};
pub use mechanism::{MechanismConfig, MechanismOutcome, MechanismRecord, MechanismResults};
pub use priority::{PriorityConfig, PriorityOutcome, PriorityRecord, PriorityResults};
pub use realtime::{
    LatencyTarget, RealtimeCell, RealtimeCellKey, RealtimePoint, RealtimeResults,
    LATENCY_TARGETS_US, N_SEEDS, REALTIME_POLICIES, UTILIZATIONS,
};
pub use saturation::{
    ArrivalFamily, SaturationCell, SaturationCellKey, SaturationPoint, SaturationResults,
    SATURATION_ARRIVALS, SATURATION_BACKLOG_CAP, SATURATION_MECHANISMS, SATURATION_POLICIES,
    SATURATION_RHOS,
};
pub use spatial::{SpatialConfig, SpatialOutcome, SpatialRecord, SpatialResults};
pub use table1::{Table1, Table1Row};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimulatorConfig;
    use crate::sweep::SweepRunner;
    use gpreempt_types::KernelClass;

    fn run_sequential<E: Experiment>(scale: &ExperimentScale) -> E {
        run(
            &SimulatorConfig::default(),
            scale,
            &SweepRunner::sequential(),
        )
        .unwrap()
    }

    fn tiny_scale() -> ExperimentScale {
        // Keep debug-mode test time low: two small benchmarks, 2-process
        // workloads, a single completed execution per process.
        let mut scale = ExperimentScale::quick().with_benchmarks(["spmv", "sgemm", "mri-q"]);
        scale.workload_sizes = vec![2];
        scale.reps_per_benchmark = 1;
        scale.random_workloads = 2;
        scale
    }

    #[test]
    fn table1_reproduces_published_occupancy() {
        let table = Table1::generate(&SimulatorConfig::default());
        assert_eq!(table.rows().len(), 24);
        assert!(table.blocks_per_sm_mismatches().is_empty());
        // Spot-check the lbm row.
        let lbm = &table.rows()[0];
        assert_eq!(lbm.input.kernel, "StreamCollide");
        assert!((lbm.resource_fraction * 100.0 - 83.26).abs() < 0.2);
        assert!((lbm.save_time.as_micros_f64() - 16.2).abs() < 0.2);
        assert!((lbm.time_per_block_us - 2.42).abs() < 0.05);
        let text = table.render().render();
        assert!(text.contains("StreamCollide"));
        assert!(text.contains("gridding_GPU"));
    }

    #[test]
    fn fig2_orders_the_schedulers_as_the_paper_argues() {
        let results: Fig2Results = run_sequential(&ExperimentScale::quick());
        assert_eq!(results.timelines.len(), 3);
        let fcfs = results.timeline(crate::PolicyKind::Fcfs).unwrap();
        let npq = results.timeline(crate::PolicyKind::Npq).unwrap();
        let ppq = results.timeline(crate::PolicyKind::PpqExclusive).unwrap();
        // K3's latency strictly improves from (a) to (b) to (c).
        assert!(npq.k3_finish < fcfs.k3_finish, "NPQ should beat FCFS");
        assert!(ppq.k3_finish < npq.k3_finish, "PPQ should beat NPQ");
        // With FCFS, K3 waits for both K1 and K2.
        assert!(fcfs.k3_start >= fcfs.k2_finish);
        // With PPQ, K3 starts while K1 is still running.
        assert!(ppq.k3_start < ppq.k1_finish);
        let text = results.render().render();
        assert!(text.contains("FCFS"));
    }

    #[test]
    fn priority_experiment_shows_preemption_benefit() {
        let results: PriorityResults = run_sequential(&tiny_scale());
        assert_eq!(results.records().len(), 3); // one workload per benchmark
        for record in results.records() {
            // Preemptive prioritisation should never be (much) worse than
            // the FCFS baseline for the high-priority process.
            assert!(record.ntt_improvement(PriorityConfig::PpqContextSwitch) > 0.8);
            // NPQ and PPQ outcomes exist for every record.
            assert_eq!(record.outcomes.len(), PriorityConfig::all().len());
        }
        // Averaged over workloads, PPQ improves the high-priority NTT at
        // least as much as NPQ does.
        let npq = results.fig5_improvement(None, 2, PriorityConfig::Npq);
        let ppq = results.fig5_improvement(None, 2, PriorityConfig::PpqContextSwitch);
        assert!(ppq >= npq * 0.9, "ppq {ppq} vs npq {npq}");
        let table = results.render_fig5();
        assert!(!table.is_empty());
        assert!(!results.render_fig6(false).is_empty());
        assert!(!results.render_fig6(true).is_empty());
    }

    #[test]
    fn spatial_experiment_produces_all_views() {
        let results: SpatialResults = run_sequential(&tiny_scale());
        assert_eq!(results.records().len(), 2);
        for record in results.records() {
            assert_eq!(record.outcomes.len(), SpatialConfig::all().len());
            assert_eq!(record.app_classes.len(), record.size);
            // Fairness and STP are well formed under every configuration.
            for outcome in record.outcomes.values() {
                assert!(outcome.fairness > 0.0 && outcome.fairness <= 1.0 + 1e-9);
                assert!(outcome.stp > 0.0 && outcome.stp <= record.size as f64 + 1e-9);
                assert!(outcome.antt >= 1.0 - 1e-9);
            }
        }
        let short =
            results.fig7a_improvement(Some(KernelClass::Short), 2, SpatialConfig::DssContextSwitch);
        assert!(short > 0.0);
        assert!(results.fig7b_fairness(2, SpatialConfig::DssContextSwitch) > 0.0);
        assert!(results.fig7c_stp_degradation(2, SpatialConfig::DssContextSwitch) > 0.0);
        assert_eq!(results.fig8_sorted_antt(2, SpatialConfig::Fcfs).len(), 2);
        assert!(!results.render_fig7a().is_empty());
        assert!(!results.render_fig7b().is_empty());
        assert!(!results.render_fig7c().is_empty());
        assert!(!results.render_fig8().is_empty());
    }

    #[test]
    fn mechanism_ablation_covers_all_selections_and_meets_latency_bound() {
        let results: MechanismResults = run_sequential(&tiny_scale());
        assert_eq!(results.records().len(), 2);
        for record in results.records() {
            assert_eq!(record.outcomes.len(), MechanismConfig::all().len());
            for outcome in record.outcomes.values() {
                assert!(outcome.antt >= 1.0 - 1e-9);
                assert!(outcome.stp > 0.0 && outcome.stp <= record.size as f64 + 1e-9);
                assert!(outcome.fairness > 0.0 && outcome.fairness <= 1.0 + 1e-9);
            }
            // Fixed selections never exercise the adaptive selector.
            for fixed in [
                MechanismConfig::FixedContextSwitch,
                MechanismConfig::FixedDraining,
            ] {
                assert_eq!(record.outcomes[&fixed].drain_picks, 0);
                assert_eq!(record.outcomes[&fixed].cs_picks, 0);
            }
            // Every adaptive preemption was decided by the selector.
            let adaptive = &record.outcomes[&MechanismConfig::Adaptive];
            assert!(
                adaptive.drain_picks + adaptive.cs_picks <= adaptive.preemptions,
                "picks cannot exceed preemption requests"
            );
        }
        // At least one mix preempts under every configuration, and on at
        // least one such mix the adaptive engine's mean preemption latency
        // is within the estimator's reported error of the better fixed
        // mechanism (the headline acceptance criterion).
        assert!(
            results.records().iter().any(MechanismRecord::all_preempted),
            "no workload mix exercised preemption in all three modes"
        );
        assert!(
            results.adaptive_meets_latency_bound(),
            "adaptive latency bound violated on every mix: {}",
            results.render().render()
        );
        assert!(!results.render().is_empty());
    }

    #[test]
    fn realtime_experiment_reports_cells_with_confidence_intervals() {
        let results: RealtimeResults = run_sequential(&tiny_scale());
        // 1 size x 2 utilizations x 3 policies x 2 latency targets.
        assert_eq!(
            results.cells().len(),
            UTILIZATIONS.len() * REALTIME_POLICIES.len() * LATENCY_TARGETS_US.len()
        );
        for cell in results.cells() {
            assert_eq!(cell.points.len(), N_SEEDS, "every cell is replicated");
            let (miss, ci) = cell.miss_rate();
            assert!((0.0..=1.0).contains(&miss), "miss rate {miss}");
            assert!(ci >= 0.0);
            assert!(cell.points.iter().all(|p| p.completed > 0));
            assert_eq!(cell.key.size, 2);
            // PPQ never preempts an all-equal-priority workload; the
            // deadline-aware policies do.
            if cell.key.policy == crate::PolicyKind::PpqExclusive {
                assert_eq!(cell.mean_preemptions(), 0.0);
            }
        }
        // The headline acceptance criterion: in at least one swept
        // scenario GCAPS meets a strictly lower deadline-miss rate than
        // PPQ at equal utilization.
        assert!(
            results.gcaps_beats_ppq_somewhere(),
            "GCAPS never beat PPQ:\n{}",
            results.render().render()
        );
        assert_eq!(results.report().len(), results.cells().len());
        assert!(!results.render().is_empty());
        assert!(results.timing().entries.len() > results.cells().len());
    }

    #[test]
    fn priority_config_metadata() {
        assert_eq!(PriorityConfig::all().len(), 6);
        for cfg in PriorityConfig::all() {
            assert!(!cfg.label().is_empty());
            let (_, _) = cfg.policy_and_mechanism();
        }
        assert_eq!(SpatialConfig::all().len(), 3);
        for cfg in SpatialConfig::all() {
            assert!(!cfg.to_string().is_empty());
        }
    }
}
