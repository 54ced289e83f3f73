//! Regression tests pinning closed-loop behaviour across the open-arrival
//! workload-model change, plus release-timing edge cases for the new
//! arrival machinery.
//!
//! The golden fixture under `tests/golden/` was generated from the workspace
//! **before** open arrivals existed: every process was closed-loop (next
//! iteration released the instant the previous one completed). The arrival
//! subsystem must leave that mode byte-identical — legacy workloads carry
//! `ArrivalProcess::ClosedLoop`, the host schedules no release timers for
//! them, and the event stream may not move by a single bit.
//!
//! Regenerate the fixture (only when an *intentional* behaviour change
//! lands) with:
//!
//! ```text
//! GPREEMPT_BLESS=1 cargo test -p gpreempt --test open_arrival
//! ```

use gpreempt::sweep::{Scenario, SweepPlan, SweepRecord, SweepReport, SweepRunner};
use gpreempt::{PolicyKind, SimulationRun, Simulator, SimulatorConfig};
use gpreempt_trace::{parboil, ProcessSpec, Workload};
use gpreempt_types::{ArrivalProcess, GpuConfig, ProcessId, RtSpec, SimTime};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/closed_loop_sweep.json"
);

fn us(v: u64) -> SimTime {
    SimTime::from_micros(v)
}

/// The fixed closed-loop plan the fixture pins: a legacy pair, and a
/// real-time trio whose `RtSpec`s exercise the deadline machinery, each
/// simulated under a spread of policies at two engine seeds.
fn closed_loop_plan() -> SweepPlan {
    let gpu = GpuConfig::default();
    let spmv = parboil::benchmark("spmv", &gpu).expect("spmv");
    let sgemm = parboil::benchmark("sgemm", &gpu).expect("sgemm");
    let mriq = parboil::benchmark("mri-q", &gpu).expect("mri-q");
    let workloads = vec![
        Workload::new(
            "closed-pair",
            vec![ProcessSpec::new(spmv.clone()), ProcessSpec::new(sgemm)],
        )
        .with_min_completions(1),
        Workload::new(
            "closed-rt-trio",
            vec![
                ProcessSpec::new(spmv.clone()).with_rt(RtSpec::implicit(us(4_000))),
                ProcessSpec::new(mriq).with_rt(RtSpec::implicit(us(9_000))),
                ProcessSpec::new(spmv),
            ],
        )
        .with_min_completions(1),
    ];
    let mut plan = SweepPlan::new(SimulatorConfig::default()).with_seed(2014);
    for workload in &workloads {
        for policy in [
            PolicyKind::Fcfs,
            PolicyKind::PpqExclusive,
            PolicyKind::Gcaps,
            PolicyKind::Edf,
        ] {
            for seed in [0x5EEDu64, 7] {
                plan.push(
                    Scenario::new(
                        "closed-loop",
                        format!("{} seed{seed}", policy.label()),
                        workload.clone(),
                        policy,
                    )
                    .with_seed(seed),
                );
            }
        }
    }
    plan
}

/// Folds a run into a record that fingerprints the full event-level outcome:
/// event count, end time, engine preemption counters and every process's
/// mean turnaround in nanoseconds. Any change to closed-loop release timing
/// or scheduling decisions moves at least one of these values.
fn fingerprint(scenario: &Scenario, run: &SimulationRun) -> SweepRecord {
    let stats = run.engine_stats();
    // Closed-loop runs have no legal way to schedule into the past; a
    // clamped schedule would mean a component broke causality and the
    // queue silently rewrote its timestamp.
    assert_eq!(
        stats.events_clamped, 0,
        "closed-loop scenario '{}' clamped past-time schedules",
        scenario.label
    );
    let mut record = SweepRecord::new(
        &scenario.group,
        run.workload_name(),
        &scenario.label,
        run.n_processes(),
    )
    .with_value("events", run.events_processed() as f64)
    .with_value("end_time_ns", run.end_time().as_nanos() as f64)
    .with_value("preemptions", stats.preemptions as f64)
    .with_value("blocks_completed", stats.blocks_completed as f64)
    .with_value("blocks_saved", stats.blocks_saved as f64)
    .with_value("kernels_completed", stats.kernels_completed as f64);
    for p in 0..run.n_processes() {
        record = record.with_value(
            format!("turnaround_ns_{p}"),
            run.mean_turnaround(ProcessId::from(p)).as_nanos() as f64,
        );
    }
    record
}

fn current_json() -> String {
    let plan = closed_loop_plan();
    let folded = SweepRunner::new(2)
        .run_fold_tap(&plan, &|s, run| Ok(fingerprint(s, &run)), &|_, _| Ok(()))
        .expect("closed-loop sweep runs");
    let mut report = SweepReport::new(plan.seed());
    for record in folded.into_values() {
        report.push(record);
    }
    report.to_json()
}

/// A two-process Poisson service workload around an isolated spmv time.
fn poisson_workload(rho: f64, cap: u32) -> (Workload, SimTime) {
    let gpu = GpuConfig::default();
    let spmv = parboil::benchmark("spmv", &gpu).expect("spmv");
    let sim = Simulator::new(SimulatorConfig::default());
    let iso = sim.isolated_time(&spmv).expect("isolated spmv");
    let mean_gap = iso.scale(2.0 / rho);
    let processes = (0..2)
        .map(|_| {
            ProcessSpec::new(spmv.clone())
                .with_arrival(ArrivalProcess::Poisson { mean_gap })
                .with_backlog_cap(cap)
        })
        .collect();
    let workload =
        Workload::new(format!("poisson-rho{rho:.1}"), processes).with_min_completions(u32::MAX);
    (workload, iso)
}

#[test]
fn open_arrival_run_produces_sane_slo_metrics() {
    let (workload, iso) = poisson_workload(0.5, 4);
    let sim = Simulator::new(SimulatorConfig::default());
    let run = sim
        .run_until(&workload, PolicyKind::Fcfs, iso.scale(20.0))
        .expect("open-arrival run");
    let slo = run.slo_metrics();
    assert!(slo.completed() > 0, "an underloaded service completes work");
    assert!(slo.released() >= slo.completed());
    assert_eq!(
        slo.released(),
        run.arrival_stats()
            .iter()
            .map(|s| s.admitted + s.shed)
            .sum::<u64>(),
        "every release is admitted or shed"
    );
    assert!(slo.p50_us().is_finite() && slo.p50_us() > 0.0);
    assert!(slo.p99_us() >= slo.p50_us());
    assert!(slo.throughput_per_sec() > 0.0);
    // At half load nothing sheds and response times stay near the
    // isolated service time.
    assert_eq!(slo.shed(), 0);
    // Response times are measured from release, so queueing shows up:
    // every response covers at least one kernel's worth of work.
    for p in slo.per_process() {
        assert!(p.completed == 0 || p.mean_us > 0.0);
    }
}

#[test]
fn overload_sheds_and_inflates_the_tail() {
    let sim = Simulator::new(SimulatorConfig::default());
    let (light, iso) = poisson_workload(0.4, 3);
    let (heavy, _) = poisson_workload(2.5, 3);
    let horizon = iso.scale(20.0);
    let light_run = sim
        .run_until(&light, PolicyKind::Fcfs, horizon)
        .expect("light run");
    let heavy_run = sim
        .run_until(&heavy, PolicyKind::Fcfs, horizon)
        .expect("heavy run");
    let light_slo = light_run.slo_metrics();
    let heavy_slo = heavy_run.slo_metrics();
    assert_eq!(light_slo.shed(), 0, "no shedding below the knee");
    assert!(
        heavy_slo.shed() > 0,
        "overload against a bounded backlog must shed"
    );
    assert!(
        heavy_slo.p99_us() > light_slo.p99_us(),
        "the tail inflates past the knee: {} vs {}",
        heavy_slo.p99_us(),
        light_slo.p99_us()
    );
    // The backlog was actually used (queueing, not just shedding).
    assert!(heavy_run.arrival_stats().iter().any(|s| s.max_depth > 0));
}

#[test]
fn open_arrival_runs_are_deterministic_and_seed_sensitive() {
    let (workload, iso) = poisson_workload(1.0, 4);
    let horizon = iso.scale(15.0);
    let run = |seed: u64| {
        Simulator::new(SimulatorConfig::default().with_seed(seed))
            .run_until(&workload, PolicyKind::Fcfs, horizon)
            .expect("run")
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a.events_processed(), b.events_processed());
    assert_eq!(a.arrival_stats(), b.arrival_stats());
    assert_eq!(a.slo_metrics().completed(), b.slo_metrics().completed());
    // A different seed draws different Poisson gaps.
    let c = run(43);
    assert!(
        a.events_processed() != c.events_processed() || a.arrival_stats() != c.arrival_stats(),
        "arrival streams must derive from the seed"
    );
}

#[test]
fn closed_loop_sweep_json_is_byte_identical_to_pre_arrival_golden() {
    let json = current_json();
    if std::env::var_os("GPREEMPT_BLESS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap())
            .expect("create golden dir");
        std::fs::write(GOLDEN, &json).expect("write golden fixture");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden fixture missing; run with GPREEMPT_BLESS=1 to create it");
    assert_eq!(
        json, golden,
        "closed-loop sweep output drifted from the pre-open-arrival golden fixture"
    );
}
