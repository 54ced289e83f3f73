//! The [`Experiment`] trait, the [`Driver`] that runs any experiment, and
//! the [`EXPERIMENTS`] registry.

use crate::config::SimulatorConfig;
use crate::experiments::common::{
    fnv1a, isolated_times_with_cache, ExperimentScale, IsolatedRunCache, IsolatedTimes,
};
use crate::experiments::{
    Fig2Results, MechanismResults, PriorityResults, RealtimeResults, SaturationResults,
    SpatialResults,
};
use crate::report::TextTable;
use crate::simulator::SimulationRun;
use crate::sweep::{
    Checkpoint, JsonlSink, Scenario, SweepExec, SweepPlan, SweepRecord, SweepReport, SweepRunner,
    SweepTiming,
};
use gpreempt_trace::Workload;
use gpreempt_types::SimError;

/// One experiment of the evaluation, implemented by its results type.
///
/// The experiment enumerates its population into a plan plus the context
/// its fold needs, folds each finished run into a small per-scenario
/// [`Value`](Self::Value) on the worker that simulated it, and aggregates
/// the values, always in scenario-id order, into its results.
pub trait Experiment: Sized {
    /// The registry name: the `--experiment` selector and the checkpoint
    /// key.
    const NAME: &'static str;

    /// The per-scenario fold value, which a shard checkpoints.
    type Value: Checkpoint + Send;

    /// What the fold and the aggregation need besides the values.
    type Context: Sync;

    /// The record streamed to the JSONL sink as each scenario completes.
    /// Experiments without one spill their report records once aggregated.
    const SCENARIO_RECORD: Option<fn(&Scenario, &Self::Value) -> SweepRecord> = None;

    /// Enumerates the population into a plan and the fold's context.
    /// Isolated times come from `isolated`, whose probes count towards the
    /// experiment's timing.
    ///
    /// # Errors
    ///
    /// Propagates isolated-probe and workload errors.
    fn enumerate(
        config: &SimulatorConfig,
        scale: &ExperimentScale,
        isolated: &mut IsolatedPhase<'_>,
    ) -> Result<(SweepPlan, Self::Context), SimError>;

    /// Folds one finished run into its value.
    ///
    /// # Errors
    ///
    /// Propagates metric errors.
    fn fold(
        context: &Self::Context,
        scenario: &Scenario,
        run: SimulationRun,
    ) -> Result<Self::Value, SimError>;

    /// Builds the results from every scenario's value, in scenario-id order.
    fn aggregate(
        plan: &SweepPlan,
        context: Self::Context,
        values: Vec<Self::Value>,
        timing: SweepTiming,
    ) -> Self;

    /// The machine-readable report.
    fn report(&self) -> SweepReport;

    /// The rendered tables, in print order.
    fn tables(&self) -> Vec<TextTable>;

    /// Wall-clock timing of the isolated probes and the main sweep.
    fn timing(&self) -> &SweepTiming;
}

/// Runs experiments under one configuration, scale, runner, isolated-run
/// cache, optional JSONL sink and execution mode.
#[derive(Debug, Clone, Copy)]
pub struct Driver<'a> {
    /// The base simulator configuration.
    pub config: &'a SimulatorConfig,
    /// The population scale.
    pub scale: &'a ExperimentScale,
    /// The runner every phase executes on.
    pub runner: &'a SweepRunner,
    /// The isolated-run cache; sharing one across experiments simulates
    /// each distinct isolated run once.
    pub cache: &'a IsolatedRunCache,
    /// Where records are spilled as JSON Lines, if anywhere.
    pub sink: Option<&'a JsonlSink>,
    /// Full, shard or merge execution.
    pub exec: SweepExec<'a>,
}

impl Driver<'_> {
    /// Runs one experiment. The isolated probes run in every mode, since
    /// the plan and the fold depend on them. A full run simulates the
    /// plan; a shard simulates its pending stripe and checkpoints each
    /// value, yielding `None`; a merge simulates nothing and decodes the
    /// checkpointed values in scenario-id order. Per-scenario records reach
    /// the sink in completion order, or in scenario-id order in a merge; a
    /// shard's only output is its checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates simulation, sink and checkpoint errors; a merge names the
    /// experiment and scenario of a missing or undecodable value.
    pub fn run<E: Experiment>(&self) -> Result<Option<E>, SimError> {
        let mut isolated = IsolatedPhase {
            driver: *self,
            timing: SweepTiming::default(),
        };
        let (plan, context) = E::enumerate(self.config, self.scale, &mut isolated)?;
        let fold = |scenario: &Scenario, run: SimulationRun| E::fold(&context, scenario, run);
        let tap = |scenario: &Scenario, value: &E::Value| match (self.sink, E::SCENARIO_RECORD) {
            (Some(sink), Some(record)) => sink.append(&record(scenario, value)),
            _ => Ok(()),
        };
        let (values, timing) = match self.exec {
            SweepExec::Full => {
                let results = self.runner.run_fold_tap(&plan, &fold, &tap)?;
                let timing = results.timing(&plan);
                (results.into_values(), timing)
            }
            SweepExec::Shard(session) => {
                let ids = session.pending_ids(E::NAME, plan.len());
                self.runner
                    .run_fold_tap_subset(&plan, &ids, &fold, &|scenario, value| {
                        session.record(E::NAME, scenario.id, value.encode())
                    })?;
                return Ok(None);
            }
            SweepExec::Merge(merged) => {
                let mut values = Vec::with_capacity(plan.len());
                for scenario in plan.scenarios() {
                    let (name, id) = (E::NAME, scenario.id);
                    let value = E::Value::decode(merged.value(name, id)?).map_err(|e| {
                        SimError::internal(format!("experiment {name} scenario {id}: {e}"))
                    })?;
                    tap(scenario, &value)?;
                    values.push(value);
                }
                (values, SweepTiming::default())
            }
        };
        let timing = isolated.timing.merged(timing);
        Ok(Some(E::aggregate(&plan, context, values, timing)))
    }

    /// Runs `experiments` in order and merges their outputs. Experiments
    /// without per-scenario records spill their report records to the
    /// sink, numbered as in the merged report. `progress` sees each
    /// experiment's name and timing as it completes. A shard aggregates
    /// nothing, so its output is empty.
    ///
    /// # Errors
    ///
    /// Stops at the first failing experiment, like [`run`](Self::run).
    pub fn run_all(
        &self,
        experiments: &[Registered],
        mut progress: impl FnMut(&str, &SweepTiming),
    ) -> Result<SweepOutput, SimError> {
        let mut merged = SweepOutput {
            report: SweepReport::new(self.scale.seed),
            tables: Vec::new(),
            timing: SweepTiming::default(),
        };
        for experiment in experiments {
            let Some(output) = (experiment.run)(self)? else {
                continue;
            };
            progress(experiment.name, &output.timing);
            let first_new = merged.report.len();
            merged.report.merge(output.report);
            if let (Some(sink), false) = (self.sink, experiment.streams) {
                sink.append_all(&merged.report.records()[first_new..])?;
            }
            merged.tables.extend(output.tables);
            merged.timing = std::mem::take(&mut merged.timing).merged(output.timing);
        }
        Ok(merged)
    }
}

/// The isolated-time phase of one [`Driver::run`], handed to
/// [`Experiment::enumerate`]: probes run on the driver's runner through its
/// shared [`IsolatedRunCache`], and their wall-clock timing becomes part of
/// the experiment's.
#[derive(Debug)]
pub struct IsolatedPhase<'a> {
    driver: Driver<'a>,
    timing: SweepTiming,
}

impl IsolatedPhase<'_> {
    /// Isolated times of every benchmark of `workloads`, through
    /// [`isolated_times_with_cache`].
    ///
    /// # Errors
    ///
    /// Propagates any simulation error.
    pub fn times<'w>(
        &mut self,
        workloads: impl IntoIterator<Item = &'w Workload>,
    ) -> Result<IsolatedTimes, SimError> {
        let d = self.driver;
        let (times, timing) = isolated_times_with_cache(d.runner, d.config, workloads, d.cache)?;
        self.timing = std::mem::take(&mut self.timing).merged(timing);
        Ok(times)
    }
}

/// What one or more experiments produced.
#[derive(Debug, Clone)]
pub struct SweepOutput {
    /// The report records, in run order.
    pub report: SweepReport,
    /// The rendered tables, in run order.
    pub tables: Vec<TextTable>,
    /// The merged timing.
    pub timing: SweepTiming,
}

/// An entry of [`EXPERIMENTS`]: one experiment with its types erased.
#[derive(Debug, Clone, Copy)]
pub struct Registered {
    /// The experiment's [`NAME`](Experiment::NAME).
    pub name: &'static str,
    streams: bool,
    schema: fn() -> String,
    run: fn(&Driver<'_>) -> Result<Option<SweepOutput>, SimError>,
}

impl Registered {
    const fn of<E: Experiment>() -> Self {
        Registered {
            name: E::NAME,
            streams: E::SCENARIO_RECORD.is_some(),
            schema: schema_entry::<E>,
            run: output_of::<E>,
        }
    }
}

/// The name, a colon, then the fold value's field keys (e.g.
/// `priority:ntt_high_priority,stp`).
fn schema_entry<E: Experiment>() -> String {
    format!("{}:{}", E::NAME, E::Value::schema())
}

fn output_of<E: Experiment>(driver: &Driver<'_>) -> Result<Option<SweepOutput>, SimError> {
    Ok(driver.run::<E>()?.map(|results| SweepOutput {
        report: results.report(),
        tables: results.tables(),
        timing: results.timing().clone(),
    }))
}

/// Every experiment, in the order `run_sweep --experiment all` runs them
/// and [`schema_fingerprint`] hashes them. Adding an experiment takes one
/// [`Experiment`] impl and one entry here.
pub static EXPERIMENTS: [Registered; 6] = [
    Registered::of::<Fig2Results>(),
    Registered::of::<PriorityResults>(),
    Registered::of::<SpatialResults>(),
    Registered::of::<MechanismResults>(),
    Registered::of::<RealtimeResults>(),
    Registered::of::<SaturationResults>(),
];

/// The experiments an `--experiment` selector names: `all`, or one
/// registered name.
pub fn select(selector: &str) -> Option<&'static [Registered]> {
    if selector == "all" {
        return Some(&EXPERIMENTS);
    }
    EXPERIMENTS
        .iter()
        .find(|e| e.name == selector)
        .map(std::slice::from_ref)
}

/// FNV-1a fingerprint of every schema entry, in registry order. Two
/// checkpoints inter-operate exactly when their binaries agree on every
/// experiment's fold-value layout, so a checkpoint whose values carry
/// different fields refuses to resume or merge instead of decoding garbage.
pub fn schema_fingerprint() -> u64 {
    fnv1a(
        EXPERIMENTS
            .iter()
            .flat_map(|e| (e.schema)().into_bytes().into_iter().chain([b';'])),
    )
}

/// Runs one experiment in full on `runner`, with a fresh isolated-run
/// cache and no sink: the one-call form for tests, benches and examples.
///
/// # Errors
///
/// Propagates any simulation error.
pub fn run<E: Experiment>(
    config: &SimulatorConfig,
    scale: &ExperimentScale,
    runner: &SweepRunner,
) -> Result<E, SimError> {
    let driver = Driver {
        config,
        scale,
        runner,
        cache: &IsolatedRunCache::new(),
        sink: None,
        exec: SweepExec::Full,
    };
    Ok(driver.run::<E>()?.expect("a full run yields results"))
}
