//! The real-time scheduling sweep: regenerates the deadline-miss-rate
//! comparison (PPQ vs GCAPS vs EDF across latency targets and utilization
//! levels), then times one representative deadline workload under GCAPS as
//! the Criterion unit.

use criterion::{criterion_group, criterion_main, Criterion};
use gpreempt::experiments::{self, Experiment, RealtimeResults};
use gpreempt::{PolicyKind, Simulator, SimulatorConfig};
use gpreempt_bench::{runner_from_env, scale_from_env};
use gpreempt_trace::{parboil, ProcessSpec, Workload};
use gpreempt_types::RtSpec;
use std::hint::black_box;

/// A small deadline workload: two short applications with implicit
/// deadlines loose enough to be met under fair sharing.
fn deadline_workload(config: &SimulatorConfig) -> Workload {
    let gpu = &config.machine.gpu;
    let sim = Simulator::new(config.clone());
    let spmv = parboil::benchmark("spmv", gpu).expect("spmv");
    let sgemm = parboil::benchmark("sgemm", gpu).expect("sgemm");
    let processes = [spmv, sgemm]
        .into_iter()
        .map(|b| {
            let iso = sim.isolated_time(&b).expect("isolated time");
            ProcessSpec::new(b).with_rt(RtSpec::implicit(iso.scale(4.0)))
        })
        .collect();
    Workload::new("rt-representative", processes).with_min_completions(1)
}

fn bench_realtime(c: &mut Criterion) {
    let config = SimulatorConfig::default();
    let scale = scale_from_env();
    let runner = runner_from_env();

    let results: RealtimeResults =
        experiments::run(&config, &scale, &runner).expect("realtime sweep runs");
    println!("{}", results.render().render());
    println!("[{}]", results.timing().summary());
    assert!(
        results.gcaps_beats_ppq_somewhere(),
        "GCAPS should beat PPQ's miss rate in at least one swept scenario"
    );

    let workload = deadline_workload(&config);
    let mut group = c.benchmark_group("experiments/realtime");
    for policy in [PolicyKind::Gcaps, PolicyKind::Edf] {
        group.bench_function(format!("deadline_pair_{}", policy.label()), |b| {
            let sim = Simulator::new(config.clone());
            b.iter(|| {
                let run = sim.run(black_box(&workload), policy).expect("run");
                black_box(run.rt_metrics(&workload).miss_rate())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_realtime);
criterion_main!(benches);
