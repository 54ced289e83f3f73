//! Qualitative reproduction of the paper's headline claims, at a scale small
//! enough to run in debug mode.
//!
//! These tests do not chase the paper's absolute numbers (our traces are
//! synthetic reconstructions of Table 1); they check that the *shape* of
//! every result holds: who wins, in which direction, and where the
//! mechanisms differ.

use gpreempt::experiments::{
    self, Experiment, ExperimentScale, Fig2Results, PriorityConfig, PriorityResults, SpatialConfig,
    SpatialResults, Table1,
};
use gpreempt::sweep::SweepRunner;
use gpreempt::{PolicyKind, SimulatorConfig};
use gpreempt_types::KernelClass;

/// Runs one experiment sequentially at the quick scale: five mid-sized
/// benchmarks, 2- and 4-process workloads, one completed execution per
/// process — seconds in debug mode.
fn run<E: Experiment>() -> E {
    experiments::run(
        &SimulatorConfig::default(),
        &ExperimentScale::quick(),
        &SweepRunner::sequential(),
    )
    .unwrap()
}

/// §4.2 / Figure 5: preemptive prioritisation improves the turnaround time
/// of the high-priority process more than non-preemptive prioritisation,
/// and the benefit grows with the number of co-scheduled processes.
#[test]
fn preemption_improves_high_priority_turnaround() {
    let results = run::<PriorityResults>();
    let sizes = results.sizes().to_vec();
    let largest = *sizes.last().unwrap();

    let npq = results.fig5_improvement(None, largest, PriorityConfig::Npq);
    let ppq_cs = results.fig5_improvement(None, largest, PriorityConfig::PpqContextSwitch);
    let ppq_drain = results.fig5_improvement(None, largest, PriorityConfig::PpqDraining);

    // The high-priority process benefits from prioritisation at all...
    assert!(
        ppq_cs > 1.0,
        "PPQ-CS improvement {ppq_cs:.2} should exceed 1"
    );
    // ... and preemption beats waiting for kernels to finish.
    assert!(
        ppq_cs >= npq,
        "PPQ-CS ({ppq_cs:.2}) should be at least as good as NPQ ({npq:.2})"
    );
    assert!(
        ppq_drain >= npq * 0.9,
        "PPQ-draining ({ppq_drain:.2}) should be comparable to or better than NPQ ({npq:.2})"
    );

    // The benefit of PPQ grows (or at least does not shrink drastically)
    // with the number of processes.
    let small = *sizes.first().unwrap();
    let ppq_small = results.fig5_improvement(None, small, PriorityConfig::PpqContextSwitch);
    assert!(
        ppq_cs >= ppq_small * 0.8,
        "improvement should not collapse with more processes ({ppq_small:.2} -> {ppq_cs:.2})"
    );
}

/// §4.3 / Figure 6: the preemptive schedulers pay for responsiveness with
/// system throughput, and the shared-access variant (back-to-back
/// scheduling of low-priority kernels) does not help.
#[test]
fn preemption_costs_some_throughput() {
    let results = run::<PriorityResults>();
    for &size in results.sizes() {
        for cfg in [
            PriorityConfig::PpqContextSwitch,
            PriorityConfig::PpqDraining,
            PriorityConfig::PpqContextSwitchShared,
            PriorityConfig::PpqDrainingShared,
        ] {
            let degradation = results.fig6_degradation(size, cfg);
            // Preemption never *improves* aggregate throughput relative to
            // NPQ by more than measurement noise, and the overhead stays
            // bounded (the paper reports up to ~1.4x).
            assert!(
                degradation > 0.85 && degradation < 2.0,
                "{cfg} @ {size} processes: STP degradation {degradation:.2} out of range"
            );
        }
    }
}

/// §4.4 / Figure 7: DSS improves the turnaround time of short applications
/// and overall fairness, at some throughput cost; long applications pay.
#[test]
fn dss_helps_short_applications_and_fairness() {
    let results = run::<SpatialResults>();
    let &size = results.sizes().last().unwrap();

    let short = results.fig7a_improvement(
        Some(KernelClass::Short),
        size,
        SpatialConfig::DssContextSwitch,
    );
    let average = results.fig7a_improvement(None, size, SpatialConfig::DssContextSwitch);
    assert!(
        short >= 1.0,
        "short applications should benefit from spatial sharing: {short:.2}"
    );
    assert!(average > 0.8, "average improvement collapsed: {average:.2}");

    let fairness = results.fig7b_fairness(size, SpatialConfig::DssContextSwitch);
    assert!(
        fairness >= 0.95,
        "DSS should not reduce fairness: {fairness:.2}"
    );

    // At the reduced scale DSS can even improve STP slightly (FCFS leaves
    // the engine under-occupied between kernels of short applications); at
    // paper scale it costs up to ~1.5x. Either way it stays bounded.
    let stp_degradation = results.fig7c_stp_degradation(size, SpatialConfig::DssContextSwitch);
    assert!(
        (0.7..2.0).contains(&stp_degradation),
        "STP degradation {stp_degradation:.2} out of the expected range"
    );
}

/// Figure 8: DSS lowers (or matches) ANTT for most workloads compared to
/// FCFS once several processes share the GPU.
#[test]
fn dss_lowers_antt_distribution() {
    let results = run::<SpatialResults>();
    let &size = results.sizes().last().unwrap();
    let fcfs = results.fig8_sorted_antt(size, SpatialConfig::Fcfs);
    let dss = results.fig8_sorted_antt(size, SpatialConfig::DssContextSwitch);
    assert_eq!(fcfs.len(), dss.len());
    let improved = fcfs
        .iter()
        .zip(&dss)
        .filter(|(&f, &d)| d <= f * 1.05)
        .count();
    assert!(
        improved * 2 >= fcfs.len(),
        "DSS should improve (or match) ANTT for at least half the workloads: {improved}/{}",
        fcfs.len()
    );
}

/// Figure 2: the motivating timeline — each scheduling upgrade strictly
/// reduces the latency of the soft real-time kernel.
#[test]
fn figure2_timeline_shape() {
    let results = run::<Fig2Results>();
    let fcfs = results.timeline(PolicyKind::Fcfs).unwrap();
    let npq = results.timeline(PolicyKind::Npq).unwrap();
    let ppq = results.timeline(PolicyKind::PpqExclusive).unwrap();
    assert!(fcfs.k3_finish > npq.k3_finish);
    assert!(npq.k3_finish > ppq.k3_finish);
    // Preemption buys at least an order of magnitude here, as in the paper's
    // sketch: K3 no longer waits for multi-millisecond kernels.
    assert!(fcfs.k3_finish.ratio(ppq.k3_finish) > 5.0);
}

/// §2.4 / Table 1: the claimed context-switch overhead. The paper argues the
/// worst-case context save is ~16.2us (lbm) and at most ~44us for a fully
/// used SM, far below the "prohibitively expensive" folklore.
#[test]
fn context_save_times_stay_in_the_tens_of_microseconds() {
    let table = Table1::generate(&SimulatorConfig::default());
    let max_save = table
        .rows()
        .iter()
        .map(|r| r.save_time.as_micros_f64())
        .fold(0.0, f64::max);
    assert!(max_save <= 20.0, "max projected save time {max_save:.1}us");
    // The absolute worst case (256KB regs + 48KB smem at 16 GB/s) is ~19us
    // of data movement; the paper quotes 44us assuming peak bandwidth of the
    // whole chip is not available. Either way it is tens of microseconds.
    let lbm = &table.rows()[0];
    assert!((lbm.save_time.as_micros_f64() - 16.2).abs() < 0.3);
}

/// §4.2: the mechanism trade-off. For kernels with long thread blocks the
/// context-switch mechanism preempts much faster than draining; for kernels
/// with tiny thread blocks draining is essentially free.
#[test]
fn mechanism_latency_tradeoff_matches_table1() {
    let table = Table1::generate(&SimulatorConfig::default());
    let row = |kernel: &str| {
        table
            .rows()
            .iter()
            .find(|r| r.input.kernel == kernel)
            .unwrap_or_else(|| panic!("{kernel} missing"))
    };
    // sgemm: 98.56us thread blocks vs 16.1us save -> context switch wins.
    let sgemm = row("mysgemmNT");
    assert!(sgemm.time_per_block_us > sgemm.save_time.as_micros_f64() * 3.0);
    // mri-gridding uniformAdd: 0.24us blocks vs ~4.1us save -> draining wins.
    let uniform = row("uniformAdd");
    assert!(uniform.time_per_block_us < uniform.save_time.as_micros_f64());
}
