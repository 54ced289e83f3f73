//! Regenerates Figure 5: turnaround-time improvement of the high-priority
//! process under NPQ and PPQ (both mechanisms) over its non-prioritised
//! FCFS execution, grouped by kernel-duration class and workload size.

use criterion::{criterion_group, criterion_main, Criterion};
use gpreempt::experiments::{self, Experiment, PriorityResults};
use gpreempt::{PolicyKind, SimulatorConfig};
use gpreempt_bench::{run_representative, runner_from_env, scale_from_env};
use std::hint::black_box;

fn bench_fig5(c: &mut Criterion) {
    let config = SimulatorConfig::default();
    let scale = scale_from_env();
    let results: PriorityResults =
        experiments::run(&config, &scale, &runner_from_env()).expect("figure 5 experiment");
    println!("{}", results.render_fig5().render());
    println!("{}", results.timing().summary());

    // Timed unit: one small two-process workload under the preemptive
    // priority scheduler (the configuration Figure 5 is about).
    c.bench_function("fig5/ppq_context_switch_representative", |b| {
        b.iter(|| run_representative(black_box(&config), PolicyKind::PpqExclusive))
    });
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
