//! The end-to-end path: a workload's plan through
//! `SweepRunner::run_fold_tap`, with a fold that condenses each run to the
//! numbers its experiment reports and a JSONL tap, exactly like the
//! experiment harnesses stream their sweeps.

use crate::workloads::{Context, Setup, Shape};
use gpreempt::sweep::{FoldedResults, JsonlSink, Scenario, SweepRecord, SweepRunner};
use gpreempt::types::SimError;
use gpreempt::SimulationRun;
use std::time::{Duration, Instant};

/// What the fold keeps of one scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// FNV-1a digest of the scenario's simulated results.
    pub digest: u64,
    /// Thread blocks retired.
    pub blocks: u64,
    /// Preemptions requested.
    pub preemptions: u64,
    /// The first failed output check, if any.
    pub problem: Option<String>,
}

/// FNV-1a offset basis: the digest of nothing.
pub const DIGEST_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one 64-bit word into an FNV-1a digest.
pub fn mix(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The per-scenario fold: checks the run from outside, computes the metrics
/// the scenario's experiment reports, and digests them with the run's end
/// time, retired blocks and preemptions.
///
/// # Errors
///
/// Propagates a metrics error (mismatched isolated times).
pub fn fold(
    context: &Context,
    scenario: &Scenario,
    run: SimulationRun,
) -> Result<Outcome, SimError> {
    let stats = run.engine_stats();
    let mut words = vec![
        run.end_time().as_nanos(),
        stats.blocks_completed,
        stats.preemptions,
        stats.kernels_completed,
    ];
    match context.shape {
        Shape::OpenArrival => {
            let slo = run.slo_metrics();
            words.extend([
                slo.released(),
                slo.shed(),
                slo.completed(),
                slo.p50_us().to_bits(),
                slo.p99_us().to_bits(),
                slo.throughput_per_sec().to_bits(),
            ]);
        }
        Shape::Prioritized => {
            let metrics = run.metrics(&context.isolated)?;
            let hp = context.high_priority.unwrap_or(0);
            words.extend([metrics.ntt()[hp].to_bits(), metrics.stp().to_bits()]);
        }
        Shape::Spatial => {
            let metrics = run.metrics(&context.isolated)?;
            words.extend([
                metrics.antt().to_bits(),
                metrics.stp().to_bits(),
                metrics.fairness().to_bits(),
            ]);
        }
        Shape::Realtime => {
            let rt = run.rt_metrics(&scenario.workload);
            words.extend([
                rt.miss_rate().to_bits(),
                rt.completed(),
                rt.missed(),
                rt.mean_response().as_nanos(),
            ]);
        }
    }
    Ok(Outcome {
        digest: words.into_iter().fold(DIGEST_BASIS, mix),
        blocks: stats.blocks_completed,
        preemptions: stats.preemptions,
        problem: check(scenario, &run),
    })
}

/// Conservation checks that need nothing but the public run: every release is
/// admitted or shed, no process completes more than it admitted, and a
/// closed-loop run meets its replay target without clamping an event.
pub fn check(scenario: &Scenario, run: &SimulationRun) -> Option<String> {
    let open = scenario.workload.has_open_arrivals();
    for (p, (arrivals, done)) in run.arrival_stats().iter().zip(run.iterations()).enumerate() {
        if arrivals.released != arrivals.admitted + arrivals.shed {
            return Some(format!(
                "process {p}: released {} != admitted {} + shed {}",
                arrivals.released, arrivals.admitted, arrivals.shed
            ));
        }
        if open && done.len() as u64 > arrivals.admitted {
            return Some(format!(
                "process {p}: completed {} > admitted {}",
                done.len(),
                arrivals.admitted
            ));
        }
        if !open && done.len() < scenario.workload.min_completions() as usize {
            return Some(format!(
                "process {p}: completed {} of {} executions",
                done.len(),
                scenario.workload.min_completions()
            ));
        }
    }
    let clamped = run.engine_stats().events_clamped;
    if !open && clamped != 0 {
        return Some(format!("closed-loop run clamped {clamped} events"));
    }
    None
}

/// The JSONL record the tap spills for one scenario.
pub fn record(scenario: &Scenario, outcome: &Outcome) -> SweepRecord {
    SweepRecord::new(
        scenario.group.as_str(),
        scenario.workload.name(),
        scenario.label.as_str(),
        scenario.size(),
    )
    .with_value("blocks", outcome.blocks as f64)
    .with_value("preemptions", outcome.preemptions as f64)
    .with_value("digest_hi", (outcome.digest >> 32) as f64)
    .with_value("digest_lo", (outcome.digest & 0xffff_ffff) as f64)
}

/// One pass of the plan through the runner with the standard fold and tap.
///
/// # Errors
///
/// Propagates simulation, fold and sink errors.
pub fn pass(setup: &Setup, sink: &JsonlSink) -> Result<FoldedResults<Outcome>, SimError> {
    SweepRunner::sequential().run_fold_tap(
        &setup.plan,
        &|scenario, run| fold(&setup.contexts[scenario.id], scenario, run),
        &|scenario, outcome| sink.append(&record(scenario, outcome)),
    )
}

/// The end-to-end measurement of one workload. Every pass runs the same
/// scenarios, so each scenario's best wall time over the passes, and the best
/// pass, are the estimates least moved by other tenants of the machine.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Each scenario's best wall time over the passes, in ms, by scenario id.
    pub best_scenario_ms: Vec<f64>,
    /// Wall time of the fastest pass.
    pub best_pass: Duration,
    /// Thread blocks one pass retires.
    pub blocks_per_pass: u64,
    /// Wall time of every pass.
    pub pass_walls: Vec<Duration>,
    /// Scenarios whose output check failed, or whose outcome differed from
    /// the same scenario's first pass.
    pub failed: usize,
    /// Digest of the first pass's outcomes, in scenario-id order.
    pub digest: u64,
}

/// Runs whole passes of the plan for about `seconds` (at least one pass),
/// calling `between_passes` (outside the timed passes) before every pass but
/// the first.
///
/// # Errors
///
/// Propagates simulation, fold and sink errors, and those of
/// `between_passes`.
pub fn measure(
    setup: &Setup,
    seconds: f64,
    sink: &JsonlSink,
    between_passes: &mut dyn FnMut() -> Result<(), SimError>,
) -> Result<Measured, SimError> {
    let started = Instant::now();
    let mut measured = Measured {
        best_scenario_ms: vec![f64::INFINITY; setup.plan.len()],
        best_pass: Duration::MAX,
        blocks_per_pass: 0,
        pass_walls: Vec::new(),
        failed: 0,
        digest: DIGEST_BASIS,
    };
    let mut first: Vec<Outcome> = Vec::new();
    loop {
        if !first.is_empty() {
            between_passes()?;
        }
        let pass_started = Instant::now();
        let results = pass(setup, sink)?;
        let wall = pass_started.elapsed();
        for (i, outcome) in results.outcomes().iter().enumerate() {
            let best = &mut measured.best_scenario_ms[i];
            *best = best.min(outcome.wall.as_secs_f64() * 1e3);
            let scenario = &setup.plan.scenarios()[outcome.scenario_id];
            if let Some(problem) = &outcome.value.problem {
                measured.failed += 1;
                eprintln!(
                    "check failed: {} / {} / {}: {problem}",
                    scenario.group,
                    scenario.workload.name(),
                    scenario.label
                );
            } else if !first.is_empty() && first[i] != outcome.value {
                measured.failed += 1;
                eprintln!(
                    "outcome changed between passes: {} / {}",
                    scenario.workload.name(),
                    scenario.label
                );
            }
        }
        if first.is_empty() {
            if let Some(slowest) = results.timing(&setup.plan).slowest() {
                eprintln!(
                    "slowest scenario: {} / {} / {} in {:.1} ms",
                    slowest.group,
                    slowest.workload,
                    slowest.label,
                    slowest.wall.as_secs_f64() * 1e3
                );
            }
            first = results.into_values();
            measured.digest = first.iter().map(|o| o.digest).fold(DIGEST_BASIS, mix);
            measured.blocks_per_pass = first.iter().map(|o| o.blocks).sum();
        }
        measured.best_pass = measured.best_pass.min(wall);
        measured.pass_walls.push(wall);
        // Stop when another pass would end further past the budget than
        // stopping now falls short of it.
        if (started.elapsed() + wall / 2).as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(measured)
}
