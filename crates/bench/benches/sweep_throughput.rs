//! Times `SweepRunner::run_fold_tap` itself — the streaming sweep pipeline —
//! at several worker counts, so the parallel speedup curve is tracked by
//! `cargo bench` (the ROADMAP's criterion-integration item).
//!
//! Two modes:
//!
//! * **criterion** (default): one benchmark per worker count over a fixed
//!   quick-scale plan, with `Throughput::Elements` set to the plan's total
//!   simulation events, so the report reads in events/sec.
//! * **smoke** (`GPREEMPT_SWEEP_SMOKE=1`): runs the plan at one and two
//!   workers, plus a `sharded_3` leg (the population as three sequential
//!   `id % 3` stripe passes — the single-machine cost of `--shard`) and a
//!   core-pinned `jobs2_affinity` leg, best of three each. Writes a
//!   machine-readable `BENCH_sweep.json` artifact — events/sec,
//!   scenarios/sec, wall clock, peak runs-resident bound, `speedup_jobs2`,
//!   `speedup_affinity` — to `GPREEMPT_BENCH_JSON` (default
//!   `BENCH_sweep.json`), and **exits non-zero if jobs=2 is slower than
//!   jobs=1**. The sharding and affinity legs are informational, never
//!   gated. CI runs this mode.

use criterion::{criterion_group, Criterion, Throughput};
use gpreempt::experiments::ExperimentScale;
use gpreempt::json::Value;
use gpreempt::sweep::{Scenario, SweepPlan, SweepRunner};
use gpreempt::types::SimError;
use gpreempt::{PolicyKind, SimulationRun, SimulatorConfig};
use std::time::{Duration, Instant};

/// The timed unit: a quick-scale random population under FCFS and DSS —
/// the same shape as the spatial experiment's main phase.
fn plan() -> SweepPlan {
    let config = SimulatorConfig::default();
    let scale = ExperimentScale::quick();
    let mut generator = scale.generator(&config);
    let mut plan = SweepPlan::new(config).with_seed(scale.seed);
    for &size in &scale.workload_sizes {
        for workload in generator.random_population(size, scale.random_workloads) {
            let workload = scale.finalize(workload);
            for policy in [PolicyKind::Fcfs, PolicyKind::Dss] {
                plan.push(Scenario::new(
                    "throughput",
                    policy.label(),
                    workload.clone(),
                    policy,
                ));
            }
        }
    }
    plan
}

/// The fold every leg streams each run through: its event count.
fn events_of(_: &Scenario, run: SimulationRun) -> Result<u64, SimError> {
    Ok(run.events_processed())
}

/// Streams the plan once, returning (wall clock, total simulation events).
fn run_once(plan: &SweepPlan, jobs: usize) -> (Duration, u64) {
    let started = Instant::now();
    let folded = SweepRunner::new(jobs)
        .run_fold_tap(plan, &events_of, &|_, _| Ok(()))
        .expect("sweep failed");
    (started.elapsed(), folded.events_total())
}

/// One full sweep split into `n` sequential stripe passes (`id % n == k`),
/// the single-machine equivalent of `run_sweep --shard k/n` × n: measures
/// what striping itself costs relative to one unsharded pass.
fn run_sharded(plan: &SweepPlan, n: usize) -> Duration {
    let runner = SweepRunner::sequential();
    let started = Instant::now();
    for k in 0..n {
        let ids: Vec<usize> = (0..plan.len()).filter(|id| id % n == k).collect();
        runner
            .run_fold_tap_subset(plan, &ids, &events_of, &|_, _| Ok(()))
            .expect("sharded sweep failed");
    }
    started.elapsed()
}

/// `--jobs 2` with each worker pinned to a core.
fn run_once_pinned(plan: &SweepPlan) -> Duration {
    let runner = SweepRunner::new(2).with_affinity(true);
    let started = Instant::now();
    runner
        .run_fold_tap(plan, &events_of, &|_, _| Ok(()))
        .expect("pinned sweep failed");
    started.elapsed()
}

fn bench_sweep_throughput(c: &mut Criterion) {
    let plan = plan();
    let (_, events) = run_once(&plan, 1); // warm + count events
    let mut group = c.benchmark_group("sweep/run_fold_tap");
    group.throughput(Throughput::Elements(events));
    for jobs in [1usize, 2, 4] {
        group.bench_function(format!("jobs{jobs}"), |b| b.iter(|| run_once(&plan, jobs)));
    }
    group.finish();
}

criterion_group!(benches, bench_sweep_throughput);

/// Best-of-`n` streaming runs at one worker count.
fn best_of(plan: &SweepPlan, jobs: usize, n: usize) -> (Duration, u64) {
    let mut best = Duration::MAX;
    let mut events = 0;
    for _ in 0..n {
        let (wall, ev) = run_once(plan, jobs);
        if wall < best {
            best = wall;
        }
        events = ev;
    }
    (best, events)
}

fn mode_value(jobs: usize, wall: Duration, events: u64, scenarios: usize) -> Value {
    let secs = wall.as_secs_f64();
    Value::object([
        ("jobs", Value::from(jobs as u64)),
        ("wall_ms", Value::from(secs * 1e3)),
        ("events", Value::from(events)),
        (
            "events_per_sec",
            Value::from(if secs > 0.0 {
                events as f64 / secs
            } else {
                0.0
            }),
        ),
        (
            "scenarios_per_sec",
            Value::from(if secs > 0.0 {
                scenarios as f64 / secs
            } else {
                0.0
            }),
        ),
        // Streaming bound: at most one SimulationRun body per worker is
        // resident at any moment.
        ("peak_runs_resident", Value::from(jobs as u64)),
    ])
}

fn smoke() {
    let plan = plan();
    let scenarios = plan.len();
    let (wall1, events) = best_of(&plan, 1, 3);
    let (wall2, _) = best_of(&plan, 2, 3);
    // Sharding overhead: the same population as three sequential stripe
    // passes. Informational — stripes exist for resumability and
    // multi-node fan-out, not single-pass speed.
    let wall_sharded = {
        let mut best = Duration::MAX;
        for _ in 0..3 {
            best = best.min(run_sharded(&plan, 3));
        }
        best
    };
    // Worker pinning: jobs=2 with and without core affinity. Recorded, not
    // gated — pinning wins on busy multi-socket boxes and is a wash on
    // idle small ones.
    let wall_pinned = {
        let mut best = Duration::MAX;
        for _ in 0..3 {
            best = best.min(run_once_pinned(&plan));
        }
        best
    };
    let report = Value::object([
        ("bench", Value::from("sweep_throughput")),
        ("scale", Value::from("quick")),
        ("scenarios", Value::from(scenarios)),
        ("jobs1", mode_value(1, wall1, events, scenarios)),
        ("jobs2", mode_value(2, wall2, events, scenarios)),
        ("sharded_3", mode_value(1, wall_sharded, events, scenarios)),
        (
            "jobs2_affinity",
            mode_value(2, wall_pinned, events, scenarios),
        ),
        (
            "speedup_jobs2",
            Value::from(wall1.as_secs_f64() / wall2.as_secs_f64().max(1e-9)),
        ),
        (
            "speedup_affinity",
            Value::from(wall2.as_secs_f64() / wall_pinned.as_secs_f64().max(1e-9)),
        ),
    ]);
    let path = std::env::var("GPREEMPT_BENCH_JSON").unwrap_or_else(|_| "BENCH_sweep.json".into());
    std::fs::write(&path, report.to_json()).expect("write bench artifact");
    println!(
        "sweep_throughput smoke: {scenarios} scenarios, jobs1 {:.1?} ({:.1} scenarios/s), \
         jobs2 {:.1?} (pinned {:.1?}), 3-stripe {:.1?} -> {path}",
        wall1,
        scenarios as f64 / wall1.as_secs_f64().max(1e-9),
        wall2,
        wall_pinned,
        wall_sharded,
    );
    // "Slower" with a noise margin: shared CI runners jitter by a few
    // percent, and this gate exists to catch structural regressions, not
    // scheduler weather.
    const TOLERANCE: f64 = 1.15;
    let cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if wall2.as_secs_f64() > wall1.as_secs_f64() * TOLERANCE {
        if cpus < 2 {
            // A second worker cannot win on a single hardware thread; the
            // gate only means something on multi-core machines (CI is).
            eprintln!(
                "WARN: jobs=2 ({wall2:.1?}) slower than jobs=1 ({wall1:.1?}) on a \
                 single-CPU machine; not failing"
            );
            return;
        }
        eprintln!("FAIL: jobs=2 ({wall2:.1?}) is slower than jobs=1 ({wall1:.1?})");
        std::process::exit(1);
    }
}

fn main() {
    if std::env::var("GPREEMPT_SWEEP_SMOKE").is_ok() {
        smoke();
    } else {
        benches();
    }
}
