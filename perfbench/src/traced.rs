//! The traced run: where a workload's time goes, layer by layer.
//!
//! Two parts share the `--seconds` budget:
//!
//! 1. One pass of the plan through `SweepRunner::run_fold_tap`, with the
//!    fold and the tap timed and each worker thread's CPU and run-queue time
//!    read from `/proc/thread-self/schedstat` inside the fold. This gives the
//!    fold, sink, runner and allocation numbers.
//! 2. Scenario after scenario (in a seeded order that covers the plan
//!    evenly): the scenario through `Simulator`, through the untraced
//!    replay, and through the traced replay. Both replays must reproduce the
//!    simulator's result bit for bit, and the untraced replay's wall time must
//!    stay within [`REPLAY_BOUND`] of the simulator's, or the replay measures
//!    a different program. The traced replay gives the queue, host, engine,
//!    policy and loop numbers.

use crate::replay::{replay, Layer, ReplayRun, ReplayWorkspace, Tracer, Untraced};
use crate::sweep::{self, mix, Outcome, DIGEST_BASIS};
use crate::workloads::Setup;
use crate::{median, Metric};
use gpreempt::sim::SimRng;
use gpreempt::sweep::{JsonlSink, Scenario, SweepRunner};
use gpreempt::trace::{TraceInterner, Workload};
use gpreempt::types::SimError;
use gpreempt::{SimWorkspace, SimulationRun, Simulator, SimulatorConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// The traced replay times one event-loop iteration in this many. A timed
/// iteration costs several times an untimed one (two timer reads per layer
/// call), so sampling keeps `trace.overhead` small.
const SAMPLE_EVERY: u64 = 64;

/// Largest share by which the untraced replay's wall time (median over
/// scenarios of replay ÷ simulator) may differ from the simulator's; the
/// same as the `scenarios_per_s` bound in `BENCHMARK.json`.
pub const REPLAY_BOUND: f64 = 0.25;

/// The traced run's metrics and check counts.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Every per-layer metric except the set-up ones.
    pub metrics: Vec<Metric>,
    /// Scenarios run (pass and replays).
    pub attempted: usize,
    /// Failed checks.
    pub failed: usize,
    /// Digest of the pass's outcomes, in scenario-id order.
    pub digest: u64,
}

/// Runs both parts within `seconds` (each at least once).
///
/// # Errors
///
/// Propagates simulation, fold and sink errors.
pub fn run(setup: &Setup, seconds: f64, sink: &JsonlSink) -> Result<Traced, SimError> {
    let started = Instant::now();
    let pass = runner_pass(setup, sink)?;
    let budget = Duration::from_secs_f64(seconds).saturating_sub(started.elapsed());
    let replays = replays(setup, budget)?;

    let t = &replays.tracer;
    let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
    let layer = |l: Layer| t.layer_ns[l as usize];
    let timed: f64 = t.layer_ns.iter().sum();
    let untraced_ns_per_event = per(replays.untraced.as_nanos() as f64, replays.events);
    eprintln!(
        "traced: {} replays; replay/simulator wall median {:.3}; timer {:.0} ns/span; \
         sampled ns/event queue {:.0} host {:.0} engine {:.0} policy {:.0} glue {:.0}",
        replays.scenarios,
        replays.wall_ratio,
        t.span_cost_ns(),
        per(layer(Layer::Queue), t.sampled_events),
        per(layer(Layer::Host), t.sampled_events),
        per(layer(Layer::Engine), t.sampled_events),
        per(layer(Layer::Policy), t.sampled_events),
        per(layer(Layer::Glue), t.sampled_events),
    );
    let scenarios = replays.scenarios as u64;
    let mut metrics = vec![
        (
            "queue.ns_per_event",
            per(layer(Layer::Queue), t.sampled_events),
            "ns",
        ),
        (
            "queue.pending_mean",
            per(t.pending_sum as f64, t.batches),
            "count",
        ),
        ("queue.pending_max", t.pending_max as f64, "count"),
        (
            "queue.events_per_pop",
            per(t.events as f64, t.batches),
            "count",
        ),
        (
            "engine.ns_per_event",
            per(layer(Layer::Engine), t.sampled_events),
            "ns",
        ),
        (
            "engine.ns_per_block",
            per(layer(Layer::Engine), t.sampled_blocks),
            "ns",
        ),
        (
            "engine.stale_block_share",
            per(t.stale_blocks as f64, t.block_dones),
            "ratio",
        ),
        (
            "engine.noop_tick_share",
            per(t.noop_ticks as f64, t.ticks),
            "ratio",
        ),
        (
            "engine.preemptions_per_scenario",
            per(replays.preemptions as f64, scenarios),
            "count",
        ),
        (
            "host.ns_per_event",
            per(layer(Layer::Host), t.sampled_events),
            "ns",
        ),
        (
            "host.releases_per_scenario",
            per(replays.releases as f64, scenarios),
            "count",
        ),
        (
            "policy.ns_per_hook",
            per(layer(Layer::Policy), t.sampled_policy_calls),
            "ns",
        ),
        (
            "policy.hooks_per_event",
            per(t.policy_calls as f64, t.events),
            "ratio",
        ),
        ("loop.ns_per_event", untraced_ns_per_event, "ns"),
        (
            "loop.glue_ns_per_event",
            per(layer(Layer::Glue), t.sampled_events),
            "ns",
        ),
        (
            "loop.events_per_scenario",
            per(replays.events as f64, scenarios),
            "count",
        ),
        (
            "trace.overhead",
            replays.traced.as_secs_f64() / replays.untraced.as_secs_f64(),
            "ratio",
        ),
        // The layers' self times per sampled event, over what an event costs
        // with no timer in the loop: 1 when the split accounts for all of it.
        (
            "trace.closure",
            per(timed, t.sampled_events) / untraced_ns_per_event,
            "ratio",
        ),
    ];
    metrics.extend(pass.metrics);
    Ok(Traced {
        metrics,
        attempted: pass.scenarios + replays.scenarios,
        failed: pass.failed + replays.failed,
        digest: pass.digest,
    })
}

/// What the instrumented runner pass measured.
struct Pass {
    metrics: Vec<Metric>,
    scenarios: usize,
    failed: usize,
    digest: u64,
}

/// A worker thread's first and last schedstat reading: (time, ns on CPU, ns
/// waiting on a run queue).
type Readings = ((Instant, u64, u64), (Instant, u64, u64));

/// This thread's ns on CPU and ns waiting on a run queue.
fn schedstat() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((fields.next()??, fields.next()??))
}

/// One pass through the runner with the fold and tap timed.
fn runner_pass(setup: &Setup, sink: &JsonlSink) -> Result<Pass, SimError> {
    let threads: Mutex<HashMap<ThreadId, Readings>> = Mutex::new(HashMap::new());
    let tap_ns = AtomicU64::new(0);
    let fold = |scenario: &Scenario, run: SimulationRun| {
        let t0 = Instant::now();
        let outcome = sweep::fold(&setup.contexts[scenario.id], scenario, run);
        let fold_time = t0.elapsed();
        if let Some((cpu, wait)) = schedstat() {
            let reading = (Instant::now(), cpu, wait);
            threads
                .lock()
                .expect("schedstat table poisoned")
                .entry(std::thread::current().id())
                .and_modify(|r| r.1 = reading)
                .or_insert((reading, reading));
        }
        Ok((outcome?, fold_time))
    };
    let tap = |scenario: &Scenario, value: &(Outcome, Duration)| {
        let t0 = Instant::now();
        let written = sink.append(&sweep::record(scenario, &value.0));
        tap_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        written
    };
    let results = SweepRunner::sequential().run_fold_tap(&setup.plan, &fold, &tap)?;

    let n = results.len().max(1) as f64;
    let mut failed = 0;
    let mut digest = DIGEST_BASIS;
    let mut fold_total = Duration::ZERO;
    for outcome in results.outcomes() {
        let (value, fold_time) = &outcome.value;
        fold_total += *fold_time;
        digest = mix(digest, value.digest);
        if let Some(problem) = &value.problem {
            failed += 1;
            eprintln!("check failed: scenario {}: {problem}", outcome.scenario_id);
        }
    }
    let busy: Duration = results.outcomes().iter().map(|o| o.wall).sum();
    let capacity = results.total_wall().as_secs_f64() * results.jobs() as f64;
    let busy_share = busy.as_secs_f64() / capacity;
    let (mut cpu_per_wall, mut wait_share) = (Vec::new(), Vec::new());
    for ((t0, cpu0, wait0), (t1, cpu1, wait1)) in threads
        .into_inner()
        .expect("schedstat table poisoned")
        .into_values()
    {
        let wall = (t1 - t0).as_nanos() as f64;
        if wall > 0.0 {
            cpu_per_wall.push((cpu1 - cpu0) as f64 / wall);
            wait_share.push((wait1 - wait0) as f64 / wall);
        }
    }
    let allocs: u64 = results.outcomes().iter().map(|o| o.allocs).sum();
    let metrics = vec![
        (
            "fold.us_per_scenario",
            fold_total.as_secs_f64() * 1e6 / n,
            "us",
        ),
        (
            "sink.us_per_record",
            tap_ns.load(Ordering::Relaxed) as f64 / 1e3 / n,
            "us",
        ),
        ("runner.overhead_share", 1.0 - busy_share, "ratio"),
        ("runner.busy_share", busy_share, "ratio"),
        ("runner.cpu_per_wall", median(cpu_per_wall), "ratio"),
        ("runner.wait_share", median(wait_share), "ratio"),
        ("allocs_per_scenario", allocs as f64 / n, "count"),
    ];
    Ok(Pass {
        metrics,
        scenarios: results.len(),
        failed,
        digest,
    })
}

/// What the replays measured.
struct Replays {
    tracer: Tracer,
    scenarios: usize,
    failed: usize,
    events: u64,
    preemptions: u64,
    releases: u64,
    untraced: Duration,
    traced: Duration,
    wall_ratio: f64,
}

/// The configuration a runner worker gives `scenario`: the plan's, with the
/// scenario's mechanism selection and seed.
pub fn scenario_config(base: &SimulatorConfig, scenario: &Scenario) -> SimulatorConfig {
    let mut config = base.clone();
    if let Some(selection) = scenario.selection {
        config = config.with_selection(selection);
    }
    if let Some(seed) = scenario.seed {
        config = config.with_seed(seed);
    }
    config
}

/// `scenario` through `Simulator`, as a runner worker runs it.
pub fn simulate(
    config: &SimulatorConfig,
    ws: &mut SimWorkspace,
    workload: &Workload,
    scenario: &Scenario,
) -> Result<SimulationRun, SimError> {
    let sim = Simulator::new(config.clone());
    match scenario.horizon {
        Some(horizon) => sim.run_until_with(ws, workload, scenario.policy, horizon),
        None => sim.run_with(ws, workload, scenario.policy),
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed())
}

/// Replays scenarios until `budget` is spent (at least one).
fn replays(setup: &Setup, budget: Duration) -> Result<Replays, SimError> {
    let plan = &setup.plan;
    let mut order: Vec<usize> = (0..plan.len()).collect();
    SimRng::new(plan.seed()).derive(0x7ace).shuffle(&mut order);
    let mut sim_ws = SimWorkspace::new();
    let mut plain_ws = ReplayWorkspace::default();
    let mut traced_ws = ReplayWorkspace::default();
    let mut interner = TraceInterner::new();
    let mut out = Replays {
        tracer: Tracer::new(SAMPLE_EVERY),
        scenarios: 0,
        failed: 0,
        events: 0,
        preemptions: 0,
        releases: 0,
        untraced: Duration::ZERO,
        traced: Duration::ZERO,
        wall_ratio: 0.0,
    };
    let mut ratios = Vec::new();
    let started = Instant::now();
    for (k, &id) in order.iter().cycle().enumerate() {
        let scenario = &plan.scenarios()[id];
        let config = scenario_config(plan.config(), scenario);
        let workload = scenario.workload.interned(&mut interner);
        let untraced = |ws: &mut ReplayWorkspace| {
            timed(|| {
                replay(
                    &config,
                    ws,
                    &workload,
                    scenario.policy,
                    scenario.horizon,
                    &mut Untraced,
                )
            })
        };
        // Alternate which path runs first, so neither always finds the
        // scenario's data warm.
        let ((run, sim_wall), (plain, plain_wall)) = if k % 2 == 0 {
            let sim = timed(|| simulate(&config, &mut sim_ws, &workload, scenario));
            (sim, untraced(&mut plain_ws))
        } else {
            let plain = untraced(&mut plain_ws);
            (
                timed(|| simulate(&config, &mut sim_ws, &workload, scenario)),
                plain,
            )
        };
        let (traced, traced_wall) = timed(|| {
            replay(
                &config,
                &mut traced_ws,
                &workload,
                scenario.policy,
                scenario.horizon,
                &mut out.tracer,
            )
        });
        let run = run?;
        for (name, result) in [("untraced", plain?), ("traced", traced?)] {
            if let Err(e) = ReplayRun::matches(&result, &run) {
                out.failed += 1;
                eprintln!(
                    "{name} {e}: {} / {} / {}",
                    scenario.group,
                    scenario.workload.name(),
                    scenario.label
                );
            }
        }
        ratios.push(plain_wall.as_secs_f64() / sim_wall.as_secs_f64());
        out.untraced += plain_wall;
        out.traced += traced_wall;
        out.scenarios += 1;
        out.events += run.events_processed();
        out.preemptions += run.engine_stats().preemptions;
        out.releases += run.arrival_stats().iter().map(|a| a.released).sum::<u64>();
        if started.elapsed() >= budget {
            break;
        }
    }
    out.wall_ratio = median(ratios);
    if (out.wall_ratio - 1.0).abs() > REPLAY_BOUND {
        out.failed += 1;
        eprintln!(
            "untraced replay ran at {:.3}x the simulator's wall time, beyond the {REPLAY_BOUND} bound",
            out.wall_ratio
        );
    }
    Ok(out)
}
