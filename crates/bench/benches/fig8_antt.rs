//! Regenerates Figure 8: the distribution of average normalized turnaround
//! time (ANTT) across all simulated workloads, for FCFS and DSS with both
//! preemption mechanisms.

use criterion::{criterion_group, criterion_main, Criterion};
use gpreempt::experiments::{self, SpatialResults};
use gpreempt::{PolicyKind, SimulatorConfig};
use gpreempt_bench::{run_representative, runner_from_env, scale_from_env};
use std::hint::black_box;

fn bench_fig8(c: &mut Criterion) {
    let config = SimulatorConfig::default();
    let scale = scale_from_env();
    let results: SpatialResults =
        experiments::run(&config, &scale, &runner_from_env()).expect("figure 8 experiment");
    println!("{}", results.render_fig8().render());

    // Timed unit: the FCFS baseline every Figure 8 curve is compared to.
    c.bench_function("fig8/fcfs_representative", |b| {
        b.iter(|| run_representative(black_box(&config), PolicyKind::Fcfs))
    });
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
