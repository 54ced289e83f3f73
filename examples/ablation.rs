//! Sensitivity of Dynamic Spatial Sharing to three model parameters that
//! the paper does not pin down: the pipeline-drain delay before the
//! context-save trap (§3.2), the jitter of per-block execution times, and
//! the SM driver's setup latency before a kernel's first block issues.
//!
//! Each table sweeps one parameter away from the default configuration and
//! reports the ANTT and preemption count of spmv + sgemm (one completed
//! execution each) under DSS.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example ablation
//! ```

use gpreempt::report::TextTable;
use gpreempt::{PolicyKind, Simulator, SimulatorConfig};
use gpreempt_trace::{parboil, ProcessSpec, Workload};
use gpreempt_types::SimTime;
use std::error::Error;

/// ANTT and preemption count of spmv + sgemm under DSS.
fn run_dss(config: &SimulatorConfig) -> Result<(f64, u64), Box<dyn Error>> {
    let gpu = &config.machine.gpu;
    let workload = Workload::new(
        "representative",
        vec![
            ProcessSpec::new(parboil::benchmark("spmv", gpu).expect("spmv")),
            ProcessSpec::new(parboil::benchmark("sgemm", gpu).expect("sgemm")),
        ],
    )
    .with_min_completions(1);
    let sim = Simulator::new(config.clone());
    let isolated = sim.isolated_times(&workload)?;
    let run = sim.run(&workload, PolicyKind::Dss)?;
    let metrics = run.metrics(&isolated)?;
    Ok((metrics.antt(), run.engine_stats().preemptions))
}

/// One table: a row per setting, each applied to the default configuration.
fn ablation<T: Copy>(
    title: &str,
    column: &str,
    settings: &[T],
    label: impl Fn(T) -> String,
    apply: impl Fn(&mut SimulatorConfig, T),
) -> Result<TextTable, Box<dyn Error>> {
    let mut table =
        TextTable::new(vec![column.into(), "ANTT".into(), "preemptions".into()]).with_title(title);
    for &setting in settings {
        let mut config = SimulatorConfig::default();
        apply(&mut config, setting);
        let (antt, preemptions) = run_dss(&config)?;
        table.add_row(vec![
            label(setting),
            format!("{antt:.3}"),
            preemptions.to_string(),
        ]);
    }
    Ok(table)
}

fn main() -> Result<(), Box<dyn Error>> {
    let drain = ablation(
        "Ablation: context-switch pipeline-drain delay (DSS, representative workload)",
        "pipeline drain (us)",
        &[0u64, 1, 2, 5, 10],
        |us| us.to_string(),
        |config, us| config.machine.preemption.pipeline_drain = SimTime::from_micros(us),
    )?;
    println!("{}", drain.render());

    let jitter = ablation(
        "Ablation: per-thread-block execution-time jitter (DSS, representative workload)",
        "jitter",
        &[0.0f64, 0.05, 0.1, 0.2, 0.4],
        |jitter| format!("{jitter:.2}"),
        |config, jitter| config.engine.block_time_jitter = jitter,
    )?;
    println!("{}", jitter.render());

    let setup = ablation(
        "Ablation: SM driver setup latency (DSS, representative workload)",
        "SM setup (us)",
        &[0u64, 1, 5, 20],
        |us| us.to_string(),
        |config, us| config.engine.sm_setup_time = SimTime::from_micros(us),
    )?;
    println!("{}", setup.render());
    Ok(())
}
