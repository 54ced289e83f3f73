//! Regenerates the Figure 2 timeline (soft real-time kernel under FCFS /
//! NPQ / PPQ) and times the scenario simulation.

use criterion::{criterion_group, criterion_main, Criterion};
use gpreempt::experiments::{self, ExperimentScale, Fig2Results};
use gpreempt::sweep::SweepRunner;
use gpreempt::SimulatorConfig;
use std::hint::black_box;

fn run_fig2(config: &SimulatorConfig) -> Fig2Results {
    experiments::run(
        config,
        &ExperimentScale::quick(),
        &SweepRunner::sequential(),
    )
    .expect("figure 2 scenario")
}

fn bench_fig2(c: &mut Criterion) {
    let config = SimulatorConfig::default();
    println!("{}", run_fig2(&config).render().render());

    c.bench_function("fig2/three_scheduler_timeline", |b| {
        b.iter(|| run_fig2(black_box(&config)))
    });
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
