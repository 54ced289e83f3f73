//! The four benchmark workloads, built from the public scenario API.
//!
//! Every workload is a [`SweepPlan`] plus, per scenario, the context its fold
//! needs (isolated times, the high-priority process). The benchmark mixes are
//! the ones the quick-scale experiments draw with their own workload seed, so
//! every run times the population the real sweep runs. The `--seed` argument
//! is the plan seed: it gives every scenario its own derived engine seed,
//! which draws the scenario's block-time jitter and arrival gaps. Fixing the
//! mixes keeps a plan's cost from depending on which benchmarks a seed
//! happened to draw; the seed still changes every simulated result.

use gpreempt::experiments::{
    isolated_times_with_cache, ExperimentScale, IsolatedRunCache, LatencyTarget, PriorityConfig,
    SpatialConfig, LATENCY_TARGETS_US, REALTIME_POLICIES, SATURATION_ARRIVALS,
    SATURATION_BACKLOG_CAP, SATURATION_MECHANISMS, SATURATION_POLICIES, SATURATION_RHOS,
    UTILIZATIONS,
};
use gpreempt::gpu::MechanismSelection;
use gpreempt::sweep::{Scenario, SweepPlan, SweepRunner};
use gpreempt::trace::{ProcessSpec, Workload};
use gpreempt::types::{RtSpec, SimError, SimTime};
use gpreempt::SimulatorConfig;
use std::time::{Duration, Instant};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["open-arrival", "closed-preempt", "realtime-deadline"];

/// Open-arrival horizon: `isolated time × factor × processes`. A third of the
/// saturation experiment's 12, so one pass over the whole cell grid stays
/// short; the event mix is the same.
const HORIZON_ISO_FACTOR: f64 = 4.0;

/// Seed replicates per cell of the closed-loop shapes, so every workload runs
/// at least 96 scenarios a pass and ten of them lie beyond its p90.
const CLOSED_PREEMPT_REPLICATES: usize = 2;
const REALTIME_REPLICATES: usize = 4;

/// The scenario family a scenario belongs to; its fold differs per family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Open-arrival service under swept load, folded to SLO numbers.
    OpenArrival,
    /// Prioritized workloads under FCFS/NPQ/PPQ, folded to the high-priority
    /// process's NTT and the STP.
    Prioritized,
    /// Random equal-priority workloads under FCFS/DSS, folded to ANTT/STP.
    Spatial,
    /// Deadline-annotated workloads, folded to RT metrics.
    Realtime,
}

/// What a scenario's fold needs besides the finished run.
#[derive(Debug, Clone)]
pub struct Context {
    /// The scenario family.
    pub shape: Shape,
    /// Isolated time of every process (empty for open-arrival).
    pub isolated: Vec<SimTime>,
    /// Index of the high-priority process of a prioritized workload.
    pub high_priority: Option<usize>,
}

/// A built workload: the plan, the per-scenario fold contexts and where
/// set-up time went.
#[derive(Debug, Clone)]
pub struct Setup {
    /// The plan one pass executes.
    pub plan: SweepPlan,
    /// Fold context of each scenario, indexed by scenario id.
    pub contexts: Vec<Context>,
    /// Time spent in isolated-time probes.
    pub isolated: Duration,
    /// Time spent generating workloads and building the plan.
    pub plan_build: Duration,
}

type Case = (Scenario, Context);

/// Builds workload `name` with plan seed `seed`; `None` for an unknown name.
///
/// # Errors
///
/// Propagates simulation errors from the isolated-time probes.
pub fn build(name: &str, seed: u64) -> Option<Result<Setup, SimError>> {
    let started = Instant::now();
    let mut probes = Probes::new();
    let config = SimulatorConfig::default();
    let cases = match name {
        "open-arrival" => open_arrival(&config, &mut probes),
        "closed-preempt" => closed_preempt(&config, &mut probes),
        "realtime-deadline" => realtime(&config, &mut probes),
        _ => return None,
    };
    Some(cases.map(|cases| {
        let mut plan = SweepPlan::new(config).with_seed(seed);
        let mut contexts = Vec::with_capacity(cases.len());
        for (scenario, context) in cases {
            plan.push(scenario);
            contexts.push(context);
        }
        plan.assign_derived_seeds();
        Setup {
            plan,
            contexts,
            isolated: probes.spent,
            plan_build: started.elapsed().saturating_sub(probes.spent),
        }
    }))
}

/// Isolated-time probes, run the way the experiments run them, with the time
/// they take kept apart from plan building.
struct Probes {
    cache: IsolatedRunCache,
    spent: Duration,
}

impl Probes {
    fn new() -> Self {
        Probes {
            cache: IsolatedRunCache::new(),
            spent: Duration::ZERO,
        }
    }

    /// Isolated time of every process of every workload, per workload.
    fn times<'a>(
        &mut self,
        config: &SimulatorConfig,
        workloads: impl IntoIterator<Item = &'a Workload> + Clone,
    ) -> Result<Vec<Vec<SimTime>>, SimError> {
        let started = Instant::now();
        let (times, _) = isolated_times_with_cache(
            &SweepRunner::sequential(),
            config,
            workloads.clone(),
            &self.cache,
        )?;
        self.spent += started.elapsed();
        workloads.into_iter().map(|w| times.times_for(w)).collect()
    }
}

fn context(shape: Shape, isolated: Vec<SimTime>, high_priority: Option<usize>) -> Context {
    Context {
        shape,
        isolated,
        high_priority,
    }
}

/// The saturation shape: the quick pool's first benchmark as a service of 2
/// and 4 open-arrival processes, over every (ρ, arrival family, policy,
/// mechanism) cell, each run to a fixed simulated horizon.
fn open_arrival(config: &SimulatorConfig, probes: &mut Probes) -> Result<Vec<Case>, SimError> {
    let scale = ExperimentScale::quick();
    let benchmark = scale
        .suite(config)
        .into_iter()
        .next()
        .ok_or_else(|| SimError::invalid_workload("open-arrival needs a benchmark"))?;
    let probe = Workload::new(
        "open-arrival-probe",
        vec![ProcessSpec::new(benchmark.clone())],
    );
    let iso = probes.times(config, [&probe])?[0][0];
    let mut cases = Vec::new();
    for &size in &scale.workload_sizes {
        let horizon = iso.scale(HORIZON_ISO_FACTOR * size as f64);
        for rho in SATURATION_RHOS {
            let mean_gap = iso.scale(size as f64 / rho);
            for arrival in SATURATION_ARRIVALS {
                let processes = (0..size)
                    .map(|_| {
                        ProcessSpec::new(benchmark.clone())
                            .with_arrival(arrival.process(mean_gap))
                            .with_backlog_cap(SATURATION_BACKLOG_CAP)
                    })
                    .collect();
                // The horizon is the only stop condition.
                let workload = Workload::new(
                    format!("oa-{size}p-rho{rho:.2}-{}", arrival.label()),
                    processes,
                )
                .with_min_completions(u32::MAX);
                for policy in SATURATION_POLICIES {
                    for mechanism in SATURATION_MECHANISMS {
                        let scenario = Scenario::new(
                            "open-arrival",
                            format!("{} {mechanism:?}", policy.label()),
                            workload.clone(),
                            policy,
                        )
                        .with_selection(MechanismSelection::Fixed(mechanism))
                        .with_horizon(horizon);
                        cases.push((scenario, context(Shape::OpenArrival, Vec::new(), None)));
                    }
                }
            }
        }
    }
    Ok(cases)
}

/// The paper's Fig. 5–8 shapes at the quick scale: the priority
/// experiment's prioritized population under its six FCFS/NPQ/PPQ
/// configurations, and the spatial experiment's random population under
/// FCFS and DSS with both mechanisms.
fn closed_preempt(config: &SimulatorConfig, probes: &mut Probes) -> Result<Vec<Case>, SimError> {
    let scale = ExperimentScale::quick();
    let mut workloads: Vec<(Shape, Workload)> = Vec::new();
    // Each experiment draws from its own generator, as the harnesses do.
    let mut generator = scale.generator(config);
    for &size in &scale.workload_sizes {
        for workload in generator.prioritized_population(size, scale.reps_per_benchmark) {
            workloads.push((Shape::Prioritized, scale.finalize(workload)));
        }
    }
    let mut generator = scale.generator(config);
    for &size in &scale.workload_sizes {
        for workload in generator.random_population(size, scale.random_workloads) {
            workloads.push((Shape::Spatial, scale.finalize(workload)));
        }
    }
    let isolated = probes.times(config, workloads.iter().map(|(_, w)| w))?;
    let mut cases = Vec::new();
    for ((shape, workload), isolated) in workloads.into_iter().zip(isolated) {
        let configs: Vec<_> = match shape {
            Shape::Prioritized => PriorityConfig::all()
                .into_iter()
                .map(|c| (c.label(), c.policy_and_mechanism()))
                .collect(),
            _ => SpatialConfig::all()
                .into_iter()
                .map(|c| (c.label(), c.policy_and_mechanism()))
                .collect(),
        };
        let high_priority = match shape {
            Shape::Prioritized => workload.high_priority_process().map(|p| p.index()),
            _ => None,
        };
        for (label, (policy, mechanism)) in configs {
            for replicate in 0..CLOSED_PREEMPT_REPLICATES {
                let scenario = Scenario::new(
                    "closed-preempt",
                    format!("{label} s{replicate}"),
                    workload.clone(),
                    policy,
                )
                .with_selection(MechanismSelection::Fixed(mechanism));
                cases.push((scenario, context(shape, isolated.clone(), high_priority)));
            }
        }
    }
    Ok(cases)
}

/// The realtime experiment at the quick scale: one deadline-annotated mix
/// per size under PPQ/GCAPS/EDF × {fixed CS, adaptive 50 µs} × utilization,
/// each cell replicated over derived seeds.
fn realtime(config: &SimulatorConfig, probes: &mut Probes) -> Result<Vec<Case>, SimError> {
    let scale = ExperimentScale::quick();
    let mut generator = scale.generator(config);
    let mixes: Vec<(usize, Workload)> = scale
        .workload_sizes
        .iter()
        .map(|&size| (size, generator.random_workload(size)))
        .collect();
    let isolated = probes.times(config, mixes.iter().map(|(_, w)| w))?;
    let mut cases = Vec::new();
    for ((size, mix), iso) in mixes.iter().zip(&isolated) {
        for utilization in UTILIZATIONS {
            // deadline_i = iso_i × size / u, as the realtime experiment sets it.
            let factor = *size as f64 / utilization;
            let processes = mix
                .processes()
                .iter()
                .zip(iso)
                .map(|(spec, &t)| {
                    ProcessSpec::new(spec.benchmark.clone())
                        .with_rt(RtSpec::implicit(t.scale(factor)))
                })
                .collect();
            let workload = Workload::new(format!("rt-{size}p-u{utilization:.2}"), processes)
                .with_min_completions(scale.min_completions.max(3));
            for policy in REALTIME_POLICIES {
                for target in LATENCY_TARGETS_US.map(LatencyTarget) {
                    for replicate in 0..REALTIME_REPLICATES {
                        let scenario = Scenario::new(
                            "realtime-deadline",
                            format!("{} {} s{replicate}", policy.label(), target.label()),
                            workload.clone(),
                            policy,
                        )
                        .with_selection(target.selection());
                        cases.push((scenario, context(Shape::Realtime, iso.clone(), None)));
                    }
                }
            }
        }
    }
    Ok(cases)
}
