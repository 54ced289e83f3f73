//! Command-line driver: simulate one multiprogrammed workload and print its
//! metrics.
//!
//! ```text
//! cargo run --release -p gpreempt-bench --bin run_workload -- \
//!     --policy dss --mechanism context-switch spmv sgemm lbm histo
//! ```
//!
//! Arguments are benchmark names (repeatable); options:
//!
//! * `--policy fcfs|npq|ppq|ppq-shared|dss|gcaps|edf|rr` (default `dss`;
//!   `rr` arms the policy's default 200us quantum and rotates SMs on it)
//! * `--mechanism context-switch|draining|adaptive[:latency_target_us]`
//!   (default `context-switch`); `adaptive` lets the engine pick the
//!   cheaper mechanism at each preemption, optionally subject to a
//!   preemption-latency target in microseconds (e.g. `adaptive:50`)
//! * `--high-priority <index>` mark the i-th process as high priority
//! * `--deadline-ms <ms>` give every process an implicit-deadline
//!   [`RtSpec`] of that many milliseconds and report deadline-miss
//!   metrics (the deadline-aware policies `gcaps`/`edf` act on it)
//! * `--completions <n>` replay target (default 3)
//! * `--seed <n>` RNG seed

mod cli;

use cli::{number_of, value_of};
use gpreempt::{PolicyKind, Simulator, SimulatorConfig};
use gpreempt_gpu::MechanismSelection;
use gpreempt_trace::{parboil, ProcessSpec, Workload};
use gpreempt_types::{Priority, ProcessId, RtSpec, SimTime};
use std::time::Instant;

/// Parses a `--mechanism` value: a fixed mechanism name, `adaptive`, or
/// `adaptive:<latency target in microseconds>`.
fn parse_mechanism(value: &str) -> Result<MechanismSelection, String> {
    use gpreempt_gpu::PreemptionMechanism;
    match value {
        "context-switch" => Ok(MechanismSelection::Fixed(
            PreemptionMechanism::ContextSwitch,
        )),
        "draining" => Ok(MechanismSelection::Fixed(PreemptionMechanism::Draining)),
        "adaptive" => Ok(MechanismSelection::adaptive()),
        other => match other.strip_prefix("adaptive:") {
            Some(target) => {
                let us: f64 = target
                    .parse()
                    .map_err(|e| format!("bad latency target {target:?}: {e}"))?;
                if !us.is_finite() || us <= 0.0 {
                    return Err(format!("latency target must be positive, got {target:?}"));
                }
                Ok(MechanismSelection::adaptive_with_target(
                    SimTime::from_micros_f64(us),
                ))
            }
            None => Err(format!("unknown mechanism {other:?}")),
        },
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut policy = PolicyKind::Dss;
    let mut mechanism = MechanismSelection::default();
    let mut high_priority: Option<usize> = None;
    let mut deadline: Option<SimTime> = None;
    let mut completions = 3u32;
    let mut seed = 0x5EEDu64;
    let mut names: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--policy" => {
                policy = match value_of(&mut args, "--policy")?.as_str() {
                    "fcfs" => PolicyKind::Fcfs,
                    "npq" => PolicyKind::Npq,
                    "ppq" => PolicyKind::PpqExclusive,
                    "ppq-shared" => PolicyKind::PpqShared,
                    "dss" => PolicyKind::Dss,
                    "gcaps" => PolicyKind::Gcaps,
                    "edf" => PolicyKind::Edf,
                    "rr" => PolicyKind::RoundRobin,
                    other => return Err(format!("unknown policy {other:?}").into()),
                }
            }
            "--mechanism" => mechanism = parse_mechanism(&value_of(&mut args, "--mechanism")?)?,
            "--high-priority" => high_priority = Some(number_of(&mut args, "--high-priority")?),
            "--deadline-ms" => {
                let ms: f64 = number_of(&mut args, "--deadline-ms")?;
                if !ms.is_finite() || ms <= 0.0 {
                    return Err(format!("--deadline-ms must be positive, got {ms}").into());
                }
                deadline = Some(SimTime::from_micros_f64(ms * 1_000.0));
            }
            "--completions" => completions = number_of(&mut args, "--completions")?,
            "--seed" => seed = number_of(&mut args, "--seed")?,
            "--help" | "-h" => {
                println!("usage: run_workload [options] <benchmark> [<benchmark> ...]");
                println!("benchmarks: {}", parboil::BENCHMARK_NAMES.join(", "));
                return Ok(());
            }
            name => names.push(name.to_string()),
        }
    }
    if names.is_empty() {
        names = vec![
            "spmv".into(),
            "sgemm".into(),
            "histo".into(),
            "mri-q".into(),
        ];
    }
    if let Some(index) = high_priority.filter(|&i| i >= names.len()) {
        return Err(format!(
            "--high-priority {index} is out of range: the workload has {} processes",
            names.len()
        )
        .into());
    }

    let config = SimulatorConfig::default()
        .with_selection(mechanism)
        .with_seed(seed);
    let sim = Simulator::new(config.clone());
    let gpu = &config.machine.gpu;

    let processes: Vec<ProcessSpec> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let benchmark = parboil::benchmark(name, gpu).ok_or_else(|| {
                format!(
                    "unknown benchmark {name}; valid names: {}",
                    parboil::BENCHMARK_NAMES.join(", ")
                )
            })?;
            let mut spec = ProcessSpec::new(benchmark);
            if Some(i) == high_priority {
                spec = spec.with_priority(Priority::HIGH);
            }
            if let Some(deadline) = deadline {
                // With a real-time contract the scheduler derives priority
                // from criticality, so --high-priority must map onto a
                // High-criticality contract or it would be silently lost.
                let mut rt = RtSpec::implicit(deadline);
                if Some(i) == high_priority {
                    rt = rt.with_criticality(gpreempt_types::Criticality::High);
                }
                spec = spec.with_rt(rt);
            }
            Ok(spec)
        })
        .collect::<Result<_, String>>()?;
    let workload = Workload::new(names.join("+"), processes).with_min_completions(completions);

    println!(
        "workload: {}  policy: {}  mechanism: {}",
        workload.name(),
        policy,
        mechanism
    );
    let wall = Instant::now();
    let isolated = sim.isolated_times(&workload)?;
    let run = sim.run(&workload, policy)?;
    let metrics = run.metrics(&isolated)?;
    let wall = wall.elapsed();

    println!(
        "simulated time: {}   events: {}   wall clock: {:.2?}",
        run.end_time(),
        run.events_processed(),
        wall
    );
    let stats = run.engine_stats();
    println!(
        "ANTT {:.3}   STP {:.3}   fairness {:.3}   preemptions {}   mean preempt latency {}",
        metrics.antt(),
        metrics.stp(),
        metrics.fairness(),
        stats.preemptions,
        stats.mean_preemption_latency(),
    );
    if mechanism.is_adaptive() {
        println!(
            "adaptive picks: {} drain / {} context-switch   mean estimate error {}",
            stats.adaptive_drain_picks,
            stats.adaptive_cs_picks,
            stats.mean_estimate_error(),
        );
    }
    if workload.has_rt() {
        let rt = run.rt_metrics(&workload);
        println!(
            "deadline miss rate {:.3} ({} of {} executions)   mean response {:.3} ms   max tardiness {:.3} ms",
            rt.miss_rate(),
            rt.missed(),
            rt.completed(),
            rt.mean_response().as_millis_f64(),
            rt.max_tardiness().as_millis_f64(),
        );
    }
    for (i, spec) in workload.processes().iter().enumerate() {
        let p = ProcessId::from(i);
        println!(
            "  {:<14} isolated {:>10.3} ms   turnaround {:>10.3} ms   NTT {:>6.2}   completions {}",
            spec.benchmark.name(),
            isolated[i].as_millis_f64(),
            run.mean_turnaround(p).as_millis_f64(),
            metrics.ntt()[i],
            run.iterations()[i].len(),
        );
    }
    Ok(())
}
