//! Prioritising one latency-sensitive process in a multiprogrammed workload:
//! the experiment behind Figures 5 and 6, at a reduced scale.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example priority_scheduling
//! ```

use gpreempt::experiments::{self, ExperimentScale, PriorityConfig, PriorityResults};
use gpreempt::sweep::SweepRunner;
use gpreempt::SimulatorConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SimulatorConfig::default();
    // A reduced population (five benchmarks, 2- and 4-process workloads) so
    // the example finishes in seconds; `ExperimentScale::paper()` runs the
    // full evaluation.
    let scale = ExperimentScale::quick();

    println!(
        "running {} prioritised workloads ...",
        scale.workload_sizes.len()
    );
    let results: PriorityResults = experiments::run(&config, &scale, &SweepRunner::sequential())?;

    println!("{}", results.render_fig5().render());
    println!("{}", results.render_fig6(false).render());
    println!("{}", results.render_fig6(true).render());

    // Summarise the headline comparison for the largest workload size.
    let &size = scale.workload_sizes.last().expect("at least one size");
    let npq = results.fig5_improvement(None, size, PriorityConfig::Npq);
    let cs = results.fig5_improvement(None, size, PriorityConfig::PpqContextSwitch);
    let drain = results.fig5_improvement(None, size, PriorityConfig::PpqDraining);
    println!("average high-priority NTT improvement with {size} processes:");
    println!("  NPQ (no preemption)        {npq:.2}x");
    println!("  PPQ with context switch    {cs:.2}x");
    println!("  PPQ with SM draining       {drain:.2}x");
    Ok(())
}
