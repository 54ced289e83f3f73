//! The paper's Figure 2 scenario: a soft real-time kernel (K3) competes with
//! two previously launched low-priority kernels (K1, K2).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example realtime_timeline
//! ```

use gpreempt::experiments::{self, ExperimentScale, Fig2Results};
use gpreempt::sweep::SweepRunner;
use gpreempt::SimulatorConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The scenario is fixed; the scale plays no part in it.
    let results: Fig2Results = experiments::run(
        &SimulatorConfig::default(),
        &ExperimentScale::quick(),
        &SweepRunner::sequential(),
    )?;
    println!("{}", results.render().render());

    let fcfs = results
        .timeline(gpreempt::PolicyKind::Fcfs)
        .expect("fcfs timeline");
    let npq = results
        .timeline(gpreempt::PolicyKind::Npq)
        .expect("npq timeline");
    let ppq = results
        .timeline(gpreempt::PolicyKind::PpqExclusive)
        .expect("ppq timeline");

    println!("latency of the soft real-time kernel K3:");
    println!(
        "  (a) FCFS (current GPUs)          {:>10.1} us",
        fcfs.k3_finish.as_micros_f64()
    );
    println!(
        "  (b) non-preemptive priority      {:>10.1} us",
        npq.k3_finish.as_micros_f64()
    );
    println!(
        "  (c) preemptive priority          {:>10.1} us",
        ppq.k3_finish.as_micros_f64()
    );
    println!();
    println!(
        "preemption cuts K3's latency by {:.1}x compared to FCFS and {:.1}x compared to NPQ",
        fcfs.k3_finish.ratio(ppq.k3_finish),
        npq.k3_finish.ratio(ppq.k3_finish),
    );
    Ok(())
}
