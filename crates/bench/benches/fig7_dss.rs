//! Regenerates Figures 7a, 7b and 7c: the effect of equal-share Dynamic
//! Spatial Sharing on turnaround time (per application class), system
//! fairness and system throughput, relative to the FCFS baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use gpreempt::experiments::{self, SpatialResults};
use gpreempt::{PolicyKind, SimulatorConfig};
use gpreempt_bench::{run_representative, runner_from_env, scale_from_env};
use std::hint::black_box;

fn bench_fig7(c: &mut Criterion) {
    let config = SimulatorConfig::default();
    let scale = scale_from_env();
    let results: SpatialResults =
        experiments::run(&config, &scale, &runner_from_env()).expect("figure 7 experiment");
    println!("{}", results.render_fig7a().render());
    println!("{}", results.render_fig7b().render());
    println!("{}", results.render_fig7c().render());

    // Timed unit: one small workload under DSS with context switching.
    c.bench_function("fig7/dss_context_switch_representative", |b| {
        b.iter(|| run_representative(black_box(&config), PolicyKind::Dss))
    });
}

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
