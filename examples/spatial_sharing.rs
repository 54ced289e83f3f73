//! Dynamic Spatial Sharing of the GPU among equal-priority processes: the
//! experiment behind Figures 7 and 8, at a reduced scale.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example spatial_sharing
//! ```

use gpreempt::experiments::{self, ExperimentScale, SpatialConfig, SpatialResults};
use gpreempt::sweep::SweepRunner;
use gpreempt::SimulatorConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SimulatorConfig::default();
    let scale = ExperimentScale::quick();

    println!(
        "running {} random workloads per size {:?} ...",
        scale.random_workloads, scale.workload_sizes
    );
    let results: SpatialResults = experiments::run(&config, &scale, &SweepRunner::sequential())?;

    println!("{}", results.render_fig7a().render());
    println!("{}", results.render_fig7b().render());
    println!("{}", results.render_fig7c().render());
    println!("{}", results.render_fig8().render());

    let &size = scale.workload_sizes.last().expect("at least one size");
    println!("with {size} processes, DSS (context switch) changes the system as follows:");
    println!(
        "  fairness improvement over FCFS   {:.2}x",
        results.fig7b_fairness(size, SpatialConfig::DssContextSwitch)
    );
    println!(
        "  throughput degradation vs FCFS   {:.2}x",
        results.fig7c_stp_degradation(size, SpatialConfig::DssContextSwitch)
    );
    Ok(())
}
