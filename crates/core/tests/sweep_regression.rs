//! Regression: the sweep-based harnesses must be bit-identical to the
//! hand-rolled sequential loops they replaced, at every worker count.
//!
//! Each test re-implements the pre-refactor loop verbatim (fresh simulator
//! per configuration, per-workload isolated times from a context-switch
//! simulator, nested size × workload × config iteration) and compares
//! every floating-point outcome with `==` — no tolerance — against the
//! refactored harness run sequentially and in parallel.

use gpreempt::config::{PolicyKind, SimulatorConfig};
use gpreempt::experiments::{
    self, isolated_times_with_cache, Driver, Experiment, ExperimentScale, Fig2Results,
    IsolatedRunCache, MechanismResults, PriorityConfig, PriorityResults, SpatialConfig,
    SpatialResults,
};
use gpreempt::sweep::{Scenario, SweepExec, SweepPlan, SweepRecord, SweepReport, SweepRunner};
use gpreempt::Simulator;
use gpreempt_gpu::PreemptionMechanism;
use gpreempt_trace::{parboil, ProcessSpec, Workload};

/// Per-configuration expectations of one spatial workload:
/// (config, antt, stp, fairness, per-process ntt).
type SpatialExpectation = (SpatialConfig, f64, f64, f64, Vec<f64>);

/// Per-configuration expectations of one prioritised workload:
/// (config, high-priority ntt, stp).
type PriorityExpectation = (PriorityConfig, f64, f64);

/// A simulator pinned to one preemption mechanism; context switch is the
/// mechanism isolated runs execute under.
fn simulator(config: &SimulatorConfig, mechanism: PreemptionMechanism) -> Simulator {
    Simulator::new(config.clone().with_mechanism(mechanism))
}

fn run<E: Experiment>(scale: &ExperimentScale, jobs: usize) -> E {
    experiments::run(&SimulatorConfig::default(), scale, &SweepRunner::new(jobs)).unwrap()
}

fn tiny_scale() -> ExperimentScale {
    let mut scale = ExperimentScale::quick().with_benchmarks(["spmv", "sgemm", "mri-q"]);
    scale.workload_sizes = vec![2];
    scale.reps_per_benchmark = 1;
    scale.random_workloads = 2;
    scale
}

#[test]
fn spatial_results_match_the_pre_sweep_sequential_loop() {
    let config = SimulatorConfig::default();
    let scale = tiny_scale();

    // The pre-refactor loop, verbatim.
    let mut generator = scale.generator(&config);
    let reference_sim = simulator(&config, PreemptionMechanism::ContextSwitch);
    let mut expected: Vec<(String, Vec<SpatialExpectation>)> = Vec::new();
    for &size in &scale.workload_sizes {
        for workload in generator.random_population(size, scale.random_workloads) {
            let workload = scale.finalize(workload);
            let iso = reference_sim.isolated_times(&workload).unwrap();
            let mut per_cfg = Vec::new();
            for cfg in SpatialConfig::all() {
                let (policy, mechanism) = cfg.policy_and_mechanism();
                let sim = simulator(&config, mechanism);
                let run = sim.run(&workload, policy).unwrap();
                let metrics = run.metrics(&iso).unwrap();
                per_cfg.push((
                    cfg,
                    metrics.antt(),
                    metrics.stp(),
                    metrics.fairness(),
                    metrics.ntt().to_vec(),
                ));
            }
            expected.push((workload.name().to_string(), per_cfg));
        }
    }

    for jobs in [1usize, 2, 8] {
        let results: SpatialResults = run(&scale, jobs);
        assert_eq!(results.records().len(), expected.len(), "jobs={jobs}");
        for (record, (name, per_cfg)) in results.records().iter().zip(&expected) {
            assert_eq!(&record.workload, name, "jobs={jobs}");
            for (cfg, antt, stp, fairness, ntt) in per_cfg {
                let outcome = &record.outcomes[cfg];
                assert_eq!(outcome.antt, *antt, "jobs={jobs} {name} {cfg}");
                assert_eq!(outcome.stp, *stp, "jobs={jobs} {name} {cfg}");
                assert_eq!(outcome.fairness, *fairness, "jobs={jobs} {name} {cfg}");
                assert_eq!(&outcome.ntt, ntt, "jobs={jobs} {name} {cfg}");
            }
        }
    }
}

#[test]
fn priority_results_match_the_pre_sweep_sequential_loop() {
    let config = SimulatorConfig::default();
    let scale = tiny_scale();

    let mut generator = scale.generator(&config);
    let reference_sim = simulator(&config, PreemptionMechanism::ContextSwitch);
    let mut expected: Vec<(String, Vec<PriorityExpectation>)> = Vec::new();
    for &size in &scale.workload_sizes {
        for workload in generator.prioritized_population(size, scale.reps_per_benchmark) {
            let workload = scale.finalize(workload);
            let iso = reference_sim.isolated_times(&workload).unwrap();
            let hp = workload.high_priority_process().unwrap();
            let mut per_cfg = Vec::new();
            for cfg in PriorityConfig::all() {
                let (policy, mechanism) = cfg.policy_and_mechanism();
                let sim = simulator(&config, mechanism);
                let run = sim.run(&workload, policy).unwrap();
                let metrics = run.metrics(&iso).unwrap();
                per_cfg.push((cfg, metrics.ntt()[hp.index()], metrics.stp()));
            }
            expected.push((workload.name().to_string(), per_cfg));
        }
    }

    for jobs in [1usize, 4] {
        let results: PriorityResults = run(&scale, jobs);
        assert_eq!(results.records().len(), expected.len(), "jobs={jobs}");
        for (record, (name, per_cfg)) in results.records().iter().zip(&expected) {
            assert_eq!(&record.workload, name, "jobs={jobs}");
            for (cfg, ntt_hp, stp) in per_cfg {
                let outcome = &record.outcomes[cfg];
                assert_eq!(
                    outcome.ntt_high_priority, *ntt_hp,
                    "jobs={jobs} {name} {cfg}"
                );
                assert_eq!(outcome.stp, *stp, "jobs={jobs} {name} {cfg}");
            }
        }
    }
}

#[test]
fn fig2_results_match_the_pre_sweep_sequential_loop() {
    let config = SimulatorConfig::default();

    // Pre-refactor: one fresh context-switch simulator per policy.
    let workload = Fig2Results::workload();
    let mut expected = Vec::new();
    for policy in [PolicyKind::Fcfs, PolicyKind::Npq, PolicyKind::PpqExclusive] {
        let sim = simulator(&config, PreemptionMechanism::ContextSwitch);
        let run = sim.run(&workload, policy).unwrap();
        expected.push((policy, run.end_time(), run.events_processed()));
    }

    let scale = ExperimentScale::quick();
    for jobs in [1usize, 3] {
        let results: Fig2Results = run(&scale, jobs);
        assert_eq!(results.timelines.len(), 3);
        for (timeline, (policy, _, _)) in results.timelines.iter().zip(&expected) {
            assert_eq!(timeline.policy, *policy);
        }
        // The timelines derive deterministically from the same runs.
        let sequential: Fig2Results = run(&scale, 1);
        assert_eq!(results, sequential, "jobs={jobs}");
    }
}

#[test]
fn mechanism_results_are_identical_across_worker_counts() {
    let mut scale = tiny_scale();
    scale.random_workloads = 2;

    let sequential: MechanismResults = run(&scale, 1);
    let parallel: MechanismResults = run(&scale, 4);
    assert_eq!(sequential.records().len(), parallel.records().len());
    for (a, b) in sequential.records().iter().zip(parallel.records()) {
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.outcomes, b.outcomes);
    }
    // The machine-readable reports agree byte for byte.
    assert_eq!(sequential.report().to_json(), parallel.report().to_json());
}

#[test]
fn harness_reports_cover_every_record_and_validate() {
    let scale = tiny_scale();
    let spatial: SpatialResults = run(&scale, 2);
    let report = spatial.report();
    assert_eq!(
        report.len(),
        spatial.records().len() * SpatialConfig::all().len()
    );
    let n = gpreempt::SweepReport::validate_json(&report.to_json()).unwrap();
    assert_eq!(n, report.len());
    // Timing covers the isolated phase plus every main-phase scenario.
    assert!(spatial.timing().entries.len() >= report.len());
    assert!(spatial
        .timing()
        .entries
        .iter()
        .any(|e| e.group == "isolated"));

    let fig2: Fig2Results = run(&scale, 2);
    assert_eq!(fig2.report().len(), 3);
    assert!(gpreempt::SweepReport::validate_json(&fig2.report().to_json()).is_ok());
}

/// The fold the streaming-vs-reference comparison below uses: identity of
/// the run compressed into a [`SweepRecord`].
fn record_of(scenario: &Scenario, run: &gpreempt::SimulationRun) -> SweepRecord {
    SweepRecord::new(
        &scenario.group,
        run.workload_name(),
        &scenario.label,
        run.n_processes(),
    )
    .with_value("events", run.events_processed() as f64)
    .with_value("end_time_us", run.end_time().as_micros_f64())
    .with_value(
        "mean_turnaround_us",
        run.mean_turnarounds()
            .iter()
            .map(|t| t.as_micros_f64())
            .sum::<f64>(),
    )
}

fn streaming_plan() -> SweepPlan {
    let gpu = gpreempt_types::GpuConfig::default();
    let spmv = parboil::benchmark("spmv", &gpu).unwrap();
    let sgemm = parboil::benchmark("sgemm", &gpu).unwrap();
    let mut plan = SweepPlan::new(SimulatorConfig::default()).with_seed(77);
    for (i, policy) in [PolicyKind::Fcfs, PolicyKind::Dss, PolicyKind::PpqShared]
        .into_iter()
        .enumerate()
    {
        for j in 0..2 {
            let workload = Workload::new(
                format!("pair-{i}-{j}"),
                vec![
                    ProcessSpec::new(spmv.clone()),
                    ProcessSpec::new(sgemm.clone()),
                ],
            )
            .with_min_completions(1);
            plan.push(Scenario::new("stream", policy.label(), workload, policy));
        }
    }
    plan
}

/// The streaming fold path (`run_fold_tap`, at most one run per worker in
/// memory, each worker reusing one workspace) must serialise to exactly the
/// bytes of a reference that bypasses the runner: every scenario simulated
/// by `Simulator::run` on a fresh workspace and folded here — at jobs 1, 2
/// and 8.
#[test]
fn folded_reports_are_byte_identical_to_fresh_simulator_reports() {
    let plan = streaming_plan();

    // Reference: no runner, a fresh workspace per scenario, folded here.
    let sim = Simulator::new(plan.config().clone());
    let mut reference_events = 0;
    let mut reference = SweepReport::new(plan.seed());
    for scenario in plan.scenarios() {
        let run = sim.run(&scenario.workload, scenario.policy).unwrap();
        reference_events += run.events_processed();
        reference.push(record_of(scenario, &run));
    }
    let expected = reference.to_json();

    for jobs in [1usize, 2, 8] {
        let folded = SweepRunner::new(jobs)
            .run_fold_tap(
                &plan,
                &|scenario, run| Ok(record_of(scenario, &run)),
                &|_, _| Ok(()),
            )
            .unwrap();
        // Event accounting survives the fold.
        assert_eq!(folded.events_total(), reference_events, "jobs={jobs}");
        let mut report = SweepReport::new(plan.seed());
        for record in folded.into_values() {
            report.push(record);
        }
        assert_eq!(report.to_json(), expected, "jobs={jobs}");
    }
}

/// Sharing one [`IsolatedRunCache`] across experiments must (a) not change
/// a single output byte and (b) run each distinct isolated scenario exactly
/// once: the second and third experiments reuse the first's isolated runs
/// and enumerate zero "isolated" scenarios of their own.
#[test]
fn shared_isolated_cache_runs_each_isolated_scenario_exactly_once() {
    let config = SimulatorConfig::default();
    let scale = tiny_scale();
    let runner = SweepRunner::new(2);

    let cache = IsolatedRunCache::new();
    let driver = Driver {
        config: &config,
        scale: &scale,
        runner: &runner,
        cache: &cache,
        sink: None,
        exec: SweepExec::Full,
    };
    let spatial = driver.run::<SpatialResults>().unwrap().unwrap();
    let simulated_by_first = cache.misses();
    assert!(simulated_by_first > 0, "first experiment fills the cache");
    assert_eq!(cache.len() as u64, simulated_by_first);

    // Mechanism draws the exact same random population as spatial, so its
    // isolated phase is fully served from the cache: zero new simulations,
    // zero enumerated "isolated" scenarios.
    let mechanism = driver.run::<MechanismResults>().unwrap().unwrap();
    assert_eq!(
        cache.misses(),
        simulated_by_first,
        "mechanism must not recompute isolated runs"
    );
    assert!(
        mechanism
            .timing()
            .entries
            .iter()
            .all(|e| e.group != "isolated"),
        "mechanism re-ran isolated scenarios"
    );

    // Priority's population may introduce benchmarks spatial never drew;
    // those (and only those) are simulated. Globally, every distinct
    // benchmark is simulated exactly once: misses == cache entries.
    let priority = driver.run::<PriorityResults>().unwrap().unwrap();
    assert_eq!(
        cache.misses(),
        cache.len() as u64,
        "a cached isolated run was recomputed"
    );
    assert!(cache.hits() > 0, "later experiments hit the cache");

    // Cached isolated times are bit-identical to freshly computed ones, so
    // the reports agree byte for byte with uncached runs.
    let spatial_fresh: SpatialResults = run(&scale, 2);
    let mechanism_fresh: MechanismResults = run(&scale, 2);
    let priority_fresh: PriorityResults = run(&scale, 2);
    assert_eq!(spatial.report().to_json(), spatial_fresh.report().to_json());
    assert_eq!(
        mechanism.report().to_json(),
        mechanism_fresh.report().to_json()
    );
    assert_eq!(
        priority.report().to_json(),
        priority_fresh.report().to_json()
    );
}

/// The batched isolated phase reproduces `Simulator::isolated_times` — the
/// same per-benchmark FCFS runs on a context-switch simulator.
#[test]
fn isolated_sweep_times_match_simulator_isolated_times() {
    let config = SimulatorConfig::default();
    let scale = tiny_scale();
    let mut generator = scale.generator(&config);
    let workload = scale.finalize(generator.random_workload(2));
    let expected = simulator(&config, PreemptionMechanism::ContextSwitch)
        .isolated_times(&workload)
        .unwrap();
    let (times, _) = isolated_times_with_cache(
        &SweepRunner::new(2),
        &config,
        [&workload],
        &IsolatedRunCache::new(),
    )
    .unwrap();
    assert_eq!(times.times_for(&workload).unwrap(), expected);
}
