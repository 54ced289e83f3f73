//! Regenerates Figures 6a and 6b: system-throughput degradation of the
//! preemptive priority scheduler (both mechanisms) relative to NPQ, with
//! exclusive and shared access to the execution engine.

use criterion::{criterion_group, criterion_main, Criterion};
use gpreempt::experiments::{self, PriorityResults};
use gpreempt::{PolicyKind, SimulatorConfig};
use gpreempt_bench::{run_representative, runner_from_env, scale_from_env};
use std::hint::black_box;

fn bench_fig6(c: &mut Criterion) {
    let config = SimulatorConfig::default();
    let scale = scale_from_env();
    let results: PriorityResults =
        experiments::run(&config, &scale, &runner_from_env()).expect("figure 6 experiment");
    println!("{}", results.render_fig6(false).render());
    println!("{}", results.render_fig6(true).render());

    // Timed unit: the shared-access PPQ configuration of Figure 6b.
    c.bench_function("fig6/ppq_shared_representative", |b| {
        b.iter(|| run_representative(black_box(&config), PolicyKind::PpqShared))
    });
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
