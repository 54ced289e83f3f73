//! Regression tests pinning the pre-refactor behaviour of the legacy
//! policies across the real-time scheduling-subsystem refactor.
//!
//! The golden fixture under `tests/golden/` was generated from the workspace
//! **before** the `SchedulingPolicy` trait was widened with the
//! `QuantumExpired` / `DeadlineApproaching` hooks and before `RtSpec`
//! existed. The widened contract must leave FCFS and DSS sweep output
//! byte-identical: legacy workloads carry no real-time annotations and the
//! engine schedules no quantum or deadline ticks for them, so the event
//! stream — and therefore every derived number — may not move by a single
//! bit.
//!
//! Regenerate the fixture (only when an *intentional* behaviour change
//! lands) with:
//!
//! ```text
//! GPREEMPT_BLESS=1 cargo test -p gpreempt --test realtime_refactor
//! ```

use gpreempt::sweep::{Scenario, SweepPlan, SweepRecord, SweepReport, SweepRunner};
use gpreempt::{PolicyKind, SimulationRun, Simulator, SimulatorConfig};
use gpreempt_trace::{parboil, ProcessSpec, Workload};
use gpreempt_types::{GpuConfig, ProcessId};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/fcfs_dss_sweep.json"
);

/// The fixed FCFS/DSS plan the fixture pins: two deterministic workloads,
/// each simulated under both legacy policies, at two engine seeds.
fn legacy_plan() -> SweepPlan {
    let gpu = GpuConfig::default();
    let spmv = parboil::benchmark("spmv", &gpu).expect("spmv");
    let sgemm = parboil::benchmark("sgemm", &gpu).expect("sgemm");
    let mriq = parboil::benchmark("mri-q", &gpu).expect("mri-q");
    let workloads = vec![
        Workload::new(
            "golden-pair",
            vec![ProcessSpec::new(spmv.clone()), ProcessSpec::new(sgemm)],
        )
        .with_min_completions(1),
        Workload::new(
            "golden-trio",
            vec![
                ProcessSpec::new(spmv.clone()),
                ProcessSpec::new(mriq),
                ProcessSpec::new(spmv),
            ],
        )
        .with_min_completions(1),
    ];
    let mut plan = SweepPlan::new(SimulatorConfig::default()).with_seed(2014);
    for workload in &workloads {
        for policy in [PolicyKind::Fcfs, PolicyKind::Dss] {
            for seed in [0x5EEDu64, 99] {
                plan.push(
                    Scenario::new(
                        "golden",
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
/// mean turnaround in nanoseconds. Any change to the scheduling decisions of
/// FCFS or DSS moves at least one of these values.
fn fingerprint(scenario: &Scenario, run: &SimulationRun) -> SweepRecord {
    let stats = run.engine_stats();
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
    let plan = legacy_plan();
    let folded = SweepRunner::new(2)
        .run_fold_tap(&plan, &|s, run| Ok(fingerprint(s, &run)), &|_, _| Ok(()))
        .expect("golden sweep runs");
    let mut report = SweepReport::new(plan.seed());
    for record in folded.into_values() {
        report.push(record);
    }
    report.to_json()
}

/// A full decision-level fingerprint of one run: any divergence in
/// scheduling decisions moves at least one of these numbers.
fn run_fingerprint(
    run: &SimulationRun,
) -> (
    u64,
    gpreempt_types::SimTime,
    Vec<gpreempt_types::SimTime>,
    u64,
    u64,
    u64,
) {
    let stats = run.engine_stats();
    (
        run.events_processed(),
        run.end_time(),
        run.mean_turnarounds(),
        stats.preemptions,
        stats.preemptions_completed,
        stats.blocks_completed,
    )
}

/// GCAPS degenerates to PPQ when no process carries a deadline: the
/// urgency order, the exclusivity gate, the victim choice and the (inert)
/// slack gate all collapse onto PPQ's rules, so the two policies must make
/// **identical decisions** — same event count, same end time, same
/// per-process turnarounds, same preemption counters — on every legacy
/// workload.
#[test]
fn gcaps_without_deadlines_is_decision_identical_to_ppq() {
    let gpu = GpuConfig::default();
    let mixes: Vec<Vec<&str>> = vec![
        vec!["spmv", "sgemm"],
        vec!["mri-q", "spmv", "sgemm"],
        vec!["histo", "cutcp", "spmv", "mri-q"],
    ];
    for (i, mix) in mixes.iter().enumerate() {
        for seed in [1u64, 42, 0x5EED] {
            // One high-priority process so the preemptive path is actually
            // exercised (all-equal priorities never preempt under either
            // policy).
            let processes: Vec<ProcessSpec> = mix
                .iter()
                .enumerate()
                .map(|(p, name)| {
                    let spec = ProcessSpec::new(parboil::benchmark(name, &gpu).expect("benchmark"));
                    if p == 0 {
                        spec.with_priority(gpreempt_types::Priority::HIGH)
                    } else {
                        spec
                    }
                })
                .collect();
            let workload = Workload::new(format!("legacy-{i}"), processes).with_min_completions(2);
            let config = SimulatorConfig::default().with_seed(seed);
            let sim = Simulator::new(config);
            let ppq = sim.run(&workload, PolicyKind::PpqExclusive).expect("ppq");
            let gcaps = sim.run(&workload, PolicyKind::Gcaps).expect("gcaps");
            assert!(
                ppq.engine_stats().preemptions > 0 || i > 0,
                "the two-process mix should preempt at least once"
            );
            assert_eq!(
                run_fingerprint(&ppq),
                run_fingerprint(&gcaps),
                "mix {i} seed {seed}: GCAPS diverged from PPQ on a deadline-free workload"
            );
        }
    }
}

/// The tap observes every fold output in completion order, and a JSONL
/// sink fed by it lands one parseable line per scenario.
#[test]
fn run_fold_tap_streams_every_scenario_to_the_jsonl_sink() {
    use gpreempt::sweep::JsonlSink;

    let plan = legacy_plan();
    let dir = std::env::temp_dir().join(format!("gpreempt-tap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("records.jsonl");
    let sink = JsonlSink::create(&path).unwrap();

    let folded = SweepRunner::new(2)
        .run_fold_tap(&plan, &|s, run| Ok(fingerprint(s, &run)), &|_, record| {
            sink.append(record)
        })
        .expect("tap sweep runs");
    assert_eq!(folded.len(), plan.len());
    assert_eq!(sink.written(), plan.len() as u64);

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), plan.len());
    // Completion order may differ from id order under a parallel runner,
    // but the *set* of records matches the reassembled outputs exactly.
    let mut streamed: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    let mut reassembled: Vec<String> = folded
        .outcomes()
        .iter()
        .map(|o| o.value.to_json())
        .collect();
    streamed.sort();
    reassembled.sort();
    assert_eq!(streamed, reassembled);
    for line in lines {
        let value = gpreempt::json::parse(line).expect("line parses");
        assert!(value.get("workload").is_some());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fcfs_dss_sweep_json_is_byte_identical_to_pre_refactor_golden() {
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
        "FCFS/DSS sweep output drifted from the pre-refactor golden fixture"
    );
}
