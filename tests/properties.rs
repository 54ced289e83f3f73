//! Property-based tests over the core data structures and the execution
//! engine's invariants.

use gpreempt_gpu::{
    ContextSwitchCost, EngineEvent, EngineParams, ExecutionEngine, KernelLaunch,
    MechanismSelection, PreemptionEstimate, PreemptionMechanism, RemainingTimeEstimator, SmState,
};
use gpreempt_metrics::WorkloadMetrics;
use gpreempt_sim::{EventQueue, SimRng};
use gpreempt_trace::KernelSpec;
use gpreempt_types::{
    CommandId, GpuConfig, KernelFootprint, KernelLaunchId, PreemptionConfig, Priority, ProcessId,
    SimTime,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// SimTime
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simtime_subtraction_saturates(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let ta = SimTime::from_nanos(a);
        let tb = SimTime::from_nanos(b);
        let diff = ta - tb;
        prop_assert_eq!(diff.as_nanos(), a.saturating_sub(b));
        // Subtraction never panics and never goes "negative".
        prop_assert!(diff <= ta);
    }

    #[test]
    fn simtime_add_then_sub_round_trips(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let ta = SimTime::from_nanos(a);
        let tb = SimTime::from_nanos(b);
        prop_assert_eq!((ta + tb) - tb, ta);
    }

    #[test]
    fn simtime_ratio_and_scale_are_consistent(a in 1u64..1_000_000_000u64, f in 0.01f64..100.0) {
        let t = SimTime::from_nanos(a);
        let scaled = t.scale(f);
        let ratio = scaled.ratio(t);
        // scale followed by ratio recovers the factor (up to rounding).
        prop_assert!((ratio - f).abs() <= f * 0.01 + 1.0 / a as f64);
    }

    #[test]
    fn simtime_ordering_matches_raw(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(SimTime::from_nanos(a).cmp(&SimTime::from_nanos(b)), a.cmp(&b));
    }
}

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn event_queue_pops_in_nondecreasing_time_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    #[test]
    fn event_queue_is_fifo_for_equal_times(count in 1usize..200) {
        let mut q = EventQueue::new();
        for i in 0..count {
            q.schedule(SimTime::from_nanos(42), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(order, (0..count).collect::<Vec<_>>());
    }
}

// ---------------------------------------------------------------------------
// KernelFootprint / occupancy
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn occupancy_never_exceeds_the_sm(
        regs in 0u32..70_000,
        smem in 0u32..50_000,
        threads in 1u32..1_100,
    ) {
        let gpu = GpuConfig::default();
        let fp = KernelFootprint::new(regs, smem, threads);
        let blocks = fp.max_blocks_per_sm(&gpu);
        prop_assert!(blocks <= gpu.max_blocks_per_sm);
        if blocks > 0 {
            // The resident blocks respect every hardware limit.
            prop_assert!(blocks * regs <= gpu.registers_per_sm || regs == 0);
            prop_assert!(blocks * threads <= gpu.max_threads_per_sm);
            prop_assert!(u64::from(blocks) * u64::from(smem) <= gpu.max_shared_mem.bytes() || smem == 0);
            // On-chip occupancy at full residency stays within the SM.
            prop_assert!(fp.on_chip_occupancy(&gpu, blocks) <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn more_resources_per_block_means_fewer_blocks(
        regs in 1u32..60_000,
        extra in 1u32..10_000,
    ) {
        let gpu = GpuConfig::default();
        let small = KernelFootprint::new(regs, 0, 128);
        let big = KernelFootprint::new(regs.saturating_add(extra), 0, 128);
        prop_assert!(big.max_blocks_per_sm(&gpu) <= small.max_blocks_per_sm(&gpu));
    }

    #[test]
    fn save_time_scales_linearly_with_blocks(
        regs in 1u32..20_000,
        smem in 0u32..8_000,
        blocks in 1u32..16,
    ) {
        let gpu = GpuConfig::default();
        let fp = KernelFootprint::new(regs, smem, 64);
        let one = fp.context_save_time(&gpu, 1).as_nanos() as f64;
        let many = fp.context_save_time(&gpu, blocks).as_nanos() as f64;
        prop_assert!((many - one * blocks as f64).abs() <= blocks as f64 * 2.0);
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn metrics_invariants_hold(
        pairs in prop::collection::vec((1u64..1_000_000u64, 1u64..1_000_000u64), 1..9)
    ) {
        let isolated: Vec<SimTime> = pairs.iter().map(|(i, _)| SimTime::from_micros(*i)).collect();
        let multi: Vec<SimTime> = pairs
            .iter()
            .map(|(i, extra)| SimTime::from_micros(i + extra))
            .collect();
        let m = WorkloadMetrics::from_times(&isolated, &multi).unwrap();
        // Multiprogrammed runs are never faster than isolated ones here.
        prop_assert!(m.antt() >= 1.0 - 1e-12);
        prop_assert!(m.stp() <= pairs.len() as f64 + 1e-9);
        prop_assert!(m.stp() > 0.0);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&m.fairness()));
        prop_assert_eq!(m.ntt().len(), pairs.len());
    }

    #[test]
    fn metrics_are_permutation_invariant(
        pairs in prop::collection::vec((1u64..100_000u64, 1u64..100_000u64), 2..8)
    ) {
        let isolated: Vec<SimTime> = pairs.iter().map(|(i, _)| SimTime::from_micros(*i)).collect();
        let multi: Vec<SimTime> = pairs.iter().map(|(_, m)| SimTime::from_micros(*m)).collect();
        let forward = WorkloadMetrics::from_times(&isolated, &multi).unwrap();
        let rev_iso: Vec<SimTime> = isolated.iter().rev().copied().collect();
        let rev_multi: Vec<SimTime> = multi.iter().rev().copied().collect();
        let reversed = WorkloadMetrics::from_times(&rev_iso, &rev_multi).unwrap();
        prop_assert!((forward.antt() - reversed.antt()).abs() < 1e-9);
        prop_assert!((forward.stp() - reversed.stp()).abs() < 1e-9);
        prop_assert!((forward.fairness() - reversed.fairness()).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Execution engine: every block executes exactly once, whatever the policy
// does with assignments and preemptions.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct RandomKernel {
    blocks: u32,
    block_us: u64,
    regs: u32,
    process: u32,
}

fn random_kernel_strategy() -> impl Strategy<Value = RandomKernel> {
    (1u32..120, 1u64..40, 512u32..20_000, 0u32..4).prop_map(|(blocks, block_us, regs, process)| {
        RandomKernel {
            blocks,
            block_us,
            regs,
            process,
        }
    })
}

/// Drives the engine with a deliberately chaotic "policy": idle SMs are
/// handed to a pseudo-random active kernel and every few block completions a
/// random running SM is preempted in favour of a random kernel. Whatever the
/// schedule, every submitted block must execute exactly once and the engine
/// must end up empty.
///
/// The number of preemptions is capped: an adversary that preempts on almost
/// every event can thrash forever (each context-switch restore adds latency
/// faster than blocks accumulate progress), which is a property of
/// preemption itself, not an engine bug. The cap keeps the run terminating
/// while still exercising hundreds of preemptions.
fn run_chaos(kernels: &[RandomKernel], selection: MechanismSelection, seed: u64) -> (u64, u64) {
    let params = EngineParams {
        block_time_jitter: 0.1,
        ..Default::default()
    };
    let mut engine = ExecutionEngine::new(
        GpuConfig::default(),
        PreemptionConfig {
            selection,
            ..Default::default()
        },
        params,
        SimRng::new(seed),
    );
    let mut queue: EventQueue<EngineEvent> = EventQueue::new();
    let mut chaos = SimRng::new(seed ^ 0xDEAD_BEEF);
    let mut scheduled = Vec::new();
    let mut hooks = Vec::new();
    let mut completions = Vec::new();
    let total_blocks: u64 = kernels.iter().map(|k| k.blocks as u64).sum();

    for (i, k) in kernels.iter().enumerate() {
        let launch = KernelLaunch::new(
            KernelLaunchId::new(i as u64),
            CommandId::new(i as u64),
            ProcessId::new(k.process),
            Priority::NORMAL,
            KernelSpec::new(
                format!("k{i}"),
                KernelFootprint::new(k.regs, 0, 128),
                k.blocks,
                SimTime::from_micros(k.block_us),
            ),
        );
        engine.submit(launch, SimTime::ZERO);
    }

    let mut steps: u64 = 0;
    loop {
        // Simple chaotic policy: give idle SMs to random needy kernels.
        let now = queue.now();
        engine.check_invariants().expect("invariants");
        let needy: Vec<_> = engine
            .active_kernels()
            .filter(|&k| {
                engine
                    .kernel(k)
                    .map(|s| s.has_blocks_to_issue())
                    .unwrap_or(false)
            })
            .collect();
        if !needy.is_empty() {
            for sm in engine.sm_ids() {
                if !engine.sm(sm).is_idle() {
                    continue;
                }
                let target = needy[chaos.next_index(needy.len())];
                engine.assign_sm(now, sm, target);
            }
            // Occasionally preempt a running SM for a random kernel (capped
            // so the run always makes forward progress).
            if engine.stats().preemptions < 150 && chaos.chance(0.25) {
                let running: Vec<_> = engine
                    .sm_ids()
                    .filter(|&sm| engine.sm(sm).state() == SmState::Running)
                    .collect();
                if !running.is_empty() {
                    let victim = running[chaos.next_index(running.len())];
                    let target = needy[chaos.next_index(needy.len())];
                    engine.preempt_sm(now, victim, target);
                }
            }
        }
        engine.drain_scheduled_into(&mut scheduled);
        for (t, ev) in scheduled.drain(..) {
            queue.schedule(t, ev);
        }
        hooks.clear();
        engine.drain_hooks_into(&mut hooks);
        completions.clear();
        engine.drain_completions_into(&mut completions);

        let Some((t, ev)) = queue.pop() else { break };
        engine.handle(t, ev);
        steps += 1;
        assert!(steps < 200_000, "chaos run did not terminate");
    }
    engine.check_invariants().expect("final invariants");
    assert!(engine.is_empty(), "engine should be drained");
    (engine.stats().blocks_completed, total_blocks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chaos_scheduling_never_loses_or_duplicates_blocks_context_switch(
        kernels in prop::collection::vec(random_kernel_strategy(), 1..6),
        seed in 0u64..1_000,
    ) {
        let (completed, expected) =
            run_chaos(&kernels, PreemptionMechanism::ContextSwitch.into(), seed);
        prop_assert_eq!(completed, expected);
    }

    #[test]
    fn chaos_scheduling_never_loses_or_duplicates_blocks_draining(
        kernels in prop::collection::vec(random_kernel_strategy(), 1..6),
        seed in 0u64..1_000,
    ) {
        let (completed, expected) =
            run_chaos(&kernels, PreemptionMechanism::Draining.into(), seed);
        prop_assert_eq!(completed, expected);
    }

    #[test]
    fn chaos_scheduling_never_loses_or_duplicates_blocks_adaptive(
        kernels in prop::collection::vec(random_kernel_strategy(), 1..6),
        seed in 0u64..1_000,
        target_us in 0u64..200,
    ) {
        // target_us == 0 plays the no-target variant.
        let selection = match target_us {
            0 => MechanismSelection::adaptive(),
            us => MechanismSelection::adaptive_with_target(SimTime::from_micros(us)),
        };
        let (completed, expected) = run_chaos(&kernels, selection, seed);
        prop_assert_eq!(completed, expected);
    }
}

// ---------------------------------------------------------------------------
// Adaptive mechanism selection: the chosen mechanism's estimated cost never
// exceeds the worse pure mechanism's cost on the same SM state, and without
// a latency target the selector is exactly the arg-min of the estimates.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn adaptive_selector_never_picks_worse_than_both_pure_mechanisms(
        prior_us in 1u64..500,
        observations in prop::collection::vec(1u64..500, 0..12),
        elapsed in prop::collection::vec(0u64..600, 0..16),
        regs in 256u32..20_000,
        threads in 32u32..1_024,
        target_us in 0u64..400,
    ) {
        let gpu = GpuConfig::default();
        let cfg = PreemptionConfig::default();
        let cost = ContextSwitchCost::new(&gpu, &cfg);
        let footprint = KernelFootprint::new(regs, 0, threads);

        let mut estimator = RemainingTimeEstimator::new(1);
        estimator.reset_slot(0, SimTime::from_micros(prior_us));
        for &obs in &observations {
            estimator.observe(0, SimTime::from_micros(obs));
        }
        let elapsed: Vec<SimTime> = elapsed.into_iter().map(SimTime::from_micros).collect();
        let estimate = PreemptionEstimate::for_resident_blocks(
            &estimator, 0, &elapsed, &cost, &footprint,
        );
        // target_us == 0 plays the no-target variant.
        let target = (target_us > 0).then(|| SimTime::from_micros(target_us));

        let chosen = estimate.select(target);
        let worse_latency = estimate.drain_latency.max(estimate.cs_latency);
        // The chosen mechanism's estimated cost never exceeds the worse
        // pure mechanism's estimated cost on the same SM state.
        prop_assert!(estimate.latency_of(chosen) <= worse_latency);

        // Without a target the selector is the exact latency arg-min.
        let free = estimate.select(None);
        prop_assert_eq!(
            estimate.latency_of(free),
            estimate.drain_latency.min(estimate.cs_latency)
        );

        // With a target: if either mechanism's estimate meets it, the
        // chosen mechanism's estimate meets it too.
        if let Some(t) = target {
            if estimate.drain_latency <= t || estimate.cs_latency <= t {
                prop_assert!(estimate.latency_of(chosen) <= t);
            }
        }

        // Drain estimates are internally consistent: the latency (max) never
        // exceeds the work (sum).
        prop_assert!(estimate.drain_latency <= estimate.drain_work);
    }
}

// ---------------------------------------------------------------------------
// Sweep determinism
// ---------------------------------------------------------------------------

proptest! {
    // Each case runs a full (tiny) experiment population three times, so
    // keep the case count low; the seeds still vary run to run.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The streaming fold path must serialise to exactly the bytes of a
    /// reference that bypasses the runner, at every worker count: folding
    /// a run on the worker (and dropping its body) loses no information a
    /// report needs, and workspace reuse changes nothing.
    #[test]
    fn streamed_fold_reports_match_fresh_simulator_reports_byte_for_byte(seed in 1u64..100_000) {
        use gpreempt::sweep::{Scenario, SweepPlan, SweepRecord, SweepReport, SweepRunner};
        use gpreempt::{PolicyKind, SimulationRun, Simulator, SimulatorConfig};
        use gpreempt_trace::{parboil, ProcessSpec, Workload};

        let gpu = GpuConfig::default();
        let spmv = parboil::benchmark("spmv", &gpu).unwrap();
        let mriq = parboil::benchmark("mri-q", &gpu).unwrap();
        let mut plan = SweepPlan::new(SimulatorConfig::default().with_seed(seed)).with_seed(seed);
        for (i, policy) in [PolicyKind::Fcfs, PolicyKind::Dss].into_iter().enumerate() {
            let workload = Workload::new(
                format!("prop-pair-{i}"),
                vec![ProcessSpec::new(spmv.clone()), ProcessSpec::new(mriq.clone())],
            )
            .with_min_completions(1);
            plan.push(Scenario::new("prop", policy.label(), workload, policy));
        }
        let fold = |scenario: &Scenario, run: &SimulationRun| {
            SweepRecord::new(&scenario.group, run.workload_name(), &scenario.label, run.n_processes())
                .with_value("events", run.events_processed() as f64)
                .with_value("end_time_us", run.end_time().as_micros_f64())
        };

        // Reference: no runner, a fresh workspace per scenario, folded here.
        let sim = Simulator::new(plan.config().clone());
        let mut expected = SweepReport::new(plan.seed());
        for scenario in plan.scenarios() {
            let run = sim.run(&scenario.workload, scenario.policy).unwrap();
            expected.push(fold(scenario, &run));
        }
        let expected = expected.to_json();

        for jobs in [1usize, 2, 8] {
            let folded = SweepRunner::new(jobs)
                .run_fold_tap(&plan, &|s, run| Ok(fold(s, &run)), &|_, _| Ok(()))
                .unwrap();
            let mut report = SweepReport::new(plan.seed());
            for record in folded.into_values() {
                report.push(record);
            }
            prop_assert_eq!(&report.to_json(), &expected, "jobs={}", jobs);
        }
    }

    /// `--jobs 1`, `--jobs 2` and `--jobs 8` must produce byte-identical
    /// `SweepReport` JSON for the same plan seed: scenario enumeration is
    /// sequential, every scenario simulates from its own fresh engine, and
    /// results are reassembled in scenario-id order regardless of which
    /// worker ran them.
    #[test]
    fn sweep_report_json_is_byte_identical_across_worker_counts(seed in 1u64..100_000) {
        use gpreempt::experiments::{self, Experiment, ExperimentScale, SpatialResults};
        use gpreempt::sweep::SweepRunner;
        use gpreempt::SimulatorConfig;

        let config = SimulatorConfig::default();
        let mut scale = ExperimentScale::quick().with_benchmarks(["spmv", "sgemm", "mri-q"]);
        scale.workload_sizes = vec![2];
        scale.random_workloads = 2;
        scale.seed = seed;

        let sequential = experiments::run::<SpatialResults>(&config, &scale, &SweepRunner::new(1))
            .unwrap()
            .report()
            .to_json();
        prop_assert!(!sequential.is_empty());
        for jobs in [2usize, 8] {
            let parallel =
                experiments::run::<SpatialResults>(&config, &scale, &SweepRunner::new(jobs))
                    .unwrap()
                .report()
                .to_json();
            prop_assert_eq!(&sequential, &parallel, "jobs={}", jobs);
        }
    }
}
