//! Shared infrastructure of the experiment harnesses.

use crate::config::{PolicyKind, SimulatorConfig};
use crate::experiments::IsolatedPhase;
use crate::simulator::Simulator;
use crate::sweep::{Scenario, SweepPlan, SweepRunner, SweepTiming};
use gpreempt_gpu::PreemptionMechanism;
use gpreempt_sim::SimRng;
use gpreempt_trace::{parboil, BenchmarkTrace, Workload, WorkloadGenerator};
use gpreempt_types::{SimError, SimTime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How big an experiment to run.
///
/// The paper simulates workloads of 2, 4, 6 and 8 processes drawn from ten
/// Parboil benchmarks, replaying every application until each has completed
/// at least three executions. Running that full population takes minutes of
/// wall-clock time in release mode, so the harness also offers a `quick`
/// preset (fewer workloads, fewer replays, a subset of benchmarks) that
/// preserves the qualitative shape of every figure and is what the examples
/// and tests use.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentScale {
    /// Workload sizes (number of co-scheduled processes).
    pub workload_sizes: Vec<usize>,
    /// For the prioritisation experiments: how many times each benchmark
    /// appears as the high-priority process per workload size.
    pub reps_per_benchmark: usize,
    /// For the spatial-sharing experiments: how many random workloads per
    /// workload size.
    pub random_workloads: usize,
    /// Replay target: completed executions required of every process.
    pub min_completions: u32,
    /// Seed for workload generation.
    pub seed: u64,
    /// Restrict the benchmark pool to these names (`None` = all ten).
    pub benchmarks: Option<Vec<String>>,
}

impl ExperimentScale {
    /// The evaluation scale of the paper: all ten benchmarks, 2/4/6/8
    /// process workloads, one high-priority appearance per benchmark, 20
    /// random workloads per size, three completed executions per process.
    pub fn paper() -> Self {
        ExperimentScale {
            workload_sizes: vec![2, 4, 6, 8],
            reps_per_benchmark: 1,
            random_workloads: 20,
            min_completions: 3,
            seed: 2014,
            benchmarks: None,
        }
    }

    /// A reduced scale for tests, examples and quick runs: the five
    /// shortest benchmarks, 2- and 4-process workloads, single replays.
    pub fn quick() -> Self {
        ExperimentScale {
            workload_sizes: vec![2, 4],
            reps_per_benchmark: 1,
            random_workloads: 4,
            min_completions: 1,
            seed: 2014,
            benchmarks: Some(
                ["spmv", "sgemm", "mri-q", "histo", "cutcp"]
                    .into_iter()
                    .map(String::from)
                    .collect(),
            ),
        }
    }

    /// A middle ground (`run_sweep --scale bench`): every benchmark and all
    /// four workload sizes, but fewer random workloads and a single
    /// completed execution per process, so the whole sweep runs in minutes
    /// rather than tens of minutes.
    pub fn bench() -> Self {
        ExperimentScale {
            workload_sizes: vec![2, 4, 6, 8],
            reps_per_benchmark: 1,
            random_workloads: 6,
            min_completions: 1,
            seed: 2014,
            benchmarks: None,
        }
    }

    /// Sets the benchmark subset.
    #[must_use]
    pub fn with_benchmarks<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.benchmarks = Some(names.into_iter().map(Into::into).collect());
        self
    }

    /// Sets the workload sizes.
    #[must_use]
    pub fn with_sizes(mut self, sizes: Vec<usize>) -> Self {
        self.workload_sizes = sizes;
        self
    }

    /// The benchmark pool this scale draws from.
    pub fn suite(&self, config: &SimulatorConfig) -> Vec<BenchmarkTrace> {
        let gpu = &config.machine.gpu;
        match &self.benchmarks {
            None => parboil::suite(gpu),
            Some(names) => names
                .iter()
                .map(|n| {
                    parboil::benchmark(n, gpu)
                        .unwrap_or_else(|| panic!("unknown benchmark {n} in experiment scale"))
                })
                .collect(),
        }
    }

    /// A workload generator over this scale's benchmark pool.
    pub fn generator(&self, config: &SimulatorConfig) -> WorkloadGenerator {
        WorkloadGenerator::new(self.suite(config), SimRng::new(self.seed))
    }

    /// Applies the replay target to a generated workload.
    pub fn finalize(&self, workload: Workload) -> Workload {
        workload.with_min_completions(self.min_completions)
    }
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale::bench()
    }
}

/// Two-sided 97.5 % Student-t critical values for 1–10 degrees of freedom;
/// the small replicate counts the sweep harnesses use (3 seeds → df = 2 →
/// 4.303) are far from the normal regime, where z = 1.96 would understate
/// the interval by more than 2×.
const T_975: [f64; 10] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
];

/// Half-width of the 95 % confidence interval of the mean, using the
/// Student-t critical value for the sample's degrees of freedom (normal
/// 1.96 beyond df = 10); zero for fewer than two samples.
pub fn ci95(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let df = values.len() - 1;
    let t = T_975.get(df - 1).copied().unwrap_or(1.96);
    t * gpreempt_sim::stats::stddev(values) / (values.len() as f64).sqrt()
}

/// Isolated execution times (the denominator of every normalized metric),
/// by benchmark name, as one isolated phase computed them.
#[derive(Debug, Default)]
pub struct IsolatedTimes {
    times: HashMap<String, SimTime>,
}

impl IsolatedTimes {
    /// Isolated times of every process of a workload, in process order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidWorkload`] if any benchmark is missing
    /// — the isolated phase did not cover the workload.
    pub fn times_for(&self, workload: &Workload) -> Result<Vec<SimTime>, SimError> {
        workload
            .processes()
            .iter()
            .map(|p| {
                self.times.get(p.benchmark.name()).copied().ok_or_else(|| {
                    SimError::invalid_workload(format!(
                        "no isolated time cached for benchmark {}",
                        p.benchmark.name()
                    ))
                })
            })
            .collect()
    }
}

/// A sweep-level memo of isolated-execution times, shared **across**
/// experiments.
///
/// Entries are keyed by `(benchmark name, configuration fingerprint)`,
/// where the fingerprint covers the machine description, the engine
/// parameters and the RNG seed of the (context-switch-pinned) configuration
/// the isolated run would execute under — everything that can influence the
/// simulated time. Two experiments that share a base configuration
/// therefore share isolated runs: `run_sweep --experiment all` computes
/// each distinct isolated scenario exactly once instead of once per
/// experiment.
///
/// The cache is `Sync` (a mutex around the map, atomic hit/miss counters)
/// so one instance can be threaded through any number of harness runs.
#[derive(Debug, Default)]
pub struct IsolatedRunCache {
    /// Fingerprint → (benchmark name → isolated time). The nesting lets
    /// lookups borrow the benchmark name (`get(benchmark)` on the inner
    /// map) instead of building an owned tuple key per probe.
    entries: Mutex<HashMap<u64, HashMap<String, SimTime>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl IsolatedRunCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached isolated time of `benchmark` under the fingerprinted
    /// configuration, if present. Counts a hit or a miss.
    pub fn lookup(&self, benchmark: &str, fingerprint: u64) -> Option<SimTime> {
        let entries = self.entries.lock().expect("isolated cache poisoned");
        match entries.get(&fingerprint).and_then(|m| m.get(benchmark)) {
            Some(&t) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(t)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a computed isolated time.
    pub fn insert(&self, benchmark: impl Into<String>, fingerprint: u64, time: SimTime) {
        self.entries
            .lock()
            .expect("isolated cache poisoned")
            .entry(fingerprint)
            .or_default()
            .insert(benchmark.into(), time);
    }

    /// Number of cached isolated runs.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("isolated cache poisoned")
            .values()
            .map(HashMap::len)
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that required a simulation so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// A deterministic fingerprint of everything in a configuration that can
/// influence a simulation's outcome (machine, engine parameters, transfer
/// policy, seed, event budget), used as the cache key component of
/// [`IsolatedRunCache`]. FNV-1a over the configuration's debug rendering:
/// stable within a process, which is all a per-invocation cache needs.
pub fn config_fingerprint(config: &SimulatorConfig) -> u64 {
    let text = format!(
        "{:?}|{:?}|{:?}|{}|{}",
        config.machine, config.engine, config.transfer_policy, config.seed, config.max_events
    );
    fnv1a(text.bytes())
}

/// 64-bit FNV-1a over a byte stream.
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325_u64, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// Enumerates one isolated-execution scenario per distinct benchmark of the
/// given workloads (first-appearance order) that `cache` does not already
/// hold for this configuration, runs them on `runner`, and returns the
/// isolated times of every benchmark plus the phase's wall-clock timing.
///
/// Each scenario replicates [`Simulator::isolated_time`] exactly — a
/// single-process FCFS run under the fixed context-switch mechanism — but
/// distinct benchmarks simulate concurrently when the runner has more than
/// one worker. The runs are streamed (folded to a single [`SimTime`] on the
/// worker), so the phase holds no run bodies either.
///
/// # Errors
///
/// Propagates any simulation error.
pub fn isolated_times_with_cache<'a>(
    runner: &SweepRunner,
    config: &SimulatorConfig,
    workloads: impl IntoIterator<Item = &'a Workload>,
    cache: &IsolatedRunCache,
) -> Result<(IsolatedTimes, SweepTiming), SimError> {
    let iso_config = config
        .clone()
        .with_mechanism(PreemptionMechanism::ContextSwitch);
    let fingerprint = config_fingerprint(&iso_config);
    let mut plan = SweepPlan::new(iso_config);
    let mut times = IsolatedTimes::default();
    let mut seen: Vec<String> = Vec::new();
    let mut missing: Vec<String> = Vec::new();
    for workload in workloads {
        for process in workload.processes() {
            let name = process.benchmark.name();
            if seen.iter().any(|n| n == name) {
                continue;
            }
            seen.push(name.to_string());
            if let Some(t) = cache.lookup(name, fingerprint) {
                times.times.insert(name.to_string(), t);
                continue;
            }
            missing.push(name.to_string());
            let isolated = Simulator::isolated_workload(&process.benchmark);
            plan.push(Scenario::new("isolated", name, isolated, PolicyKind::Fcfs));
        }
    }
    let results = runner.run_fold_tap(
        &plan,
        &|_, run| Ok(Simulator::isolated_time_of(&run)),
        &|_, _| Ok(()),
    )?;
    let timing = results.timing(&plan);
    for (name, outcome) in missing.into_iter().zip(results.outcomes()) {
        cache.insert(name.clone(), fingerprint, outcome.value);
        times.times.insert(name, outcome.value);
    }
    Ok((times, timing))
}

/// A closed-loop workload population with every workload's isolated
/// times: the fold context of the priority, spatial and mechanism
/// experiments, whose plans run every workload under every configuration,
/// workload-major.
#[derive(Debug)]
pub struct Population {
    /// `(size, workload)` pairs, in enumeration order.
    pub(crate) workloads: Vec<(usize, Workload)>,
    /// The isolated time of every process, per workload.
    pub(crate) isolated: Vec<Vec<SimTime>>,
    /// The workload sizes evaluated.
    pub(crate) sizes: Vec<usize>,
}

impl Population {
    /// Draws `draw(generator, size)` workloads for every size of `scale`,
    /// applies the replay target and probes their isolated times.
    pub(crate) fn generate(
        config: &SimulatorConfig,
        scale: &ExperimentScale,
        isolated: &mut IsolatedPhase<'_>,
        mut draw: impl FnMut(&mut WorkloadGenerator, usize) -> Vec<Workload>,
    ) -> Result<Self, SimError> {
        let mut generator = scale.generator(config);
        let mut workloads = Vec::new();
        for &size in &scale.workload_sizes {
            for workload in draw(&mut generator, size) {
                workloads.push((size, scale.finalize(workload)));
            }
        }
        let times = isolated.times(workloads.iter().map(|(_, w)| w))?;
        let isolated = workloads
            .iter()
            .map(|(_, w)| times.times_for(w))
            .collect::<Result<_, _>>()?;
        Ok(Population {
            workloads,
            isolated,
            sizes: scale.workload_sizes.clone(),
        })
    }
}

/// Arithmetic mean of an iterator of values; NaN when empty (rendered as
/// `-` in tables and `null` in JSON).
pub fn mean_of<I: IntoIterator<Item = f64>>(values: I) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    gpreempt_sim::stats::mean(&v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpreempt_trace::parboil;
    use gpreempt_types::GpuConfig;

    #[test]
    fn scales_have_expected_shapes() {
        let paper = ExperimentScale::paper();
        assert_eq!(paper.workload_sizes, vec![2, 4, 6, 8]);
        assert_eq!(paper.min_completions, 3);
        assert!(paper.benchmarks.is_none());

        let quick = ExperimentScale::quick();
        assert!(quick.random_workloads < paper.random_workloads);
        assert!(quick.benchmarks.is_some());

        let bench = ExperimentScale::default();
        assert_eq!(bench, ExperimentScale::bench());
    }

    #[test]
    fn suite_respects_benchmark_subset() {
        let config = SimulatorConfig::default();
        let scale = ExperimentScale::quick().with_benchmarks(["spmv", "sgemm"]);
        let suite = scale.suite(&config);
        assert_eq!(suite.len(), 2);
        assert_eq!(suite[0].name(), "spmv");
        let full = ExperimentScale::paper().suite(&config);
        assert_eq!(full.len(), parboil::BENCHMARK_NAMES.len());
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_panics() {
        let config = SimulatorConfig::default();
        let scale = ExperimentScale::quick().with_benchmarks(["nonsense"]);
        let _ = scale.suite(&config);
    }

    #[test]
    fn isolated_cache_deduplicates() {
        let config = SimulatorConfig::default();
        let gpu = GpuConfig::default();
        let spmv = parboil::benchmark("spmv", &gpu).unwrap();
        let workload = Workload::new(
            "spmv-twice",
            vec![
                gpreempt_trace::ProcessSpec::new(spmv.clone()),
                gpreempt_trace::ProcessSpec::new(spmv),
            ],
        );
        let runner = SweepRunner::sequential();
        let cache = IsolatedRunCache::new();
        assert!(cache.is_empty());
        let (first, timing) =
            isolated_times_with_cache(&runner, &config, [&workload], &cache).unwrap();
        assert_eq!(timing.entries.len(), 1, "one probe per distinct benchmark");
        let (second, timing) =
            isolated_times_with_cache(&runner, &config, [&workload], &cache).unwrap();
        assert!(
            timing.entries.is_empty(),
            "the second phase is served from cache"
        );
        assert_eq!(first.times_for(&workload), second.times_for(&workload));
        assert_eq!((cache.len(), cache.misses(), cache.hits()), (1, 1, 1));
    }

    #[test]
    fn sweep_isolated_times_match_the_lazy_cache() {
        let config = SimulatorConfig::default();
        let gpu = GpuConfig::default();
        let spmv = parboil::benchmark("spmv", &gpu).unwrap();
        let sgemm = parboil::benchmark("sgemm", &gpu).unwrap();
        let workload = Workload::new(
            "pair",
            vec![
                gpreempt_trace::ProcessSpec::new(spmv.clone()),
                gpreempt_trace::ProcessSpec::new(sgemm),
                gpreempt_trace::ProcessSpec::new(spmv),
            ],
        );

        // Lazy reference: one isolated probe per process on a
        // context-switch simulator, memoised by benchmark name.
        let reference = Simulator::new(
            config
                .clone()
                .with_mechanism(PreemptionMechanism::ContextSwitch),
        );
        let mut lazy: HashMap<String, SimTime> = HashMap::new();
        let expected: Vec<SimTime> = workload
            .processes()
            .iter()
            .map(|p| {
                *lazy
                    .entry(p.benchmark.name().to_string())
                    .or_insert_with(|| reference.isolated_time(&p.benchmark).unwrap())
            })
            .collect();

        // Sweep path, sequential and parallel.
        for jobs in [1, 4] {
            let (times, timing) = isolated_times_with_cache(
                &SweepRunner::new(jobs),
                &config,
                [&workload],
                &IsolatedRunCache::new(),
            )
            .unwrap();
            assert_eq!(times.times.len(), 2, "two distinct benchmarks");
            assert_eq!(times.times_for(&workload).unwrap(), expected, "jobs={jobs}");
            assert_eq!(timing.entries.len(), 2);
            assert_eq!(timing.entries[0].group, "isolated");
        }
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean_of([1.0, 3.0]), 2.0);
        assert!(mean_of(std::iter::empty()).is_nan());
    }

    #[test]
    fn times_for_reports_missing_benchmarks() {
        let gpu = GpuConfig::default();
        let workload = Workload::new(
            "w",
            vec![gpreempt_trace::ProcessSpec::new(
                parboil::benchmark("spmv", &gpu).unwrap(),
            )],
        );
        let mut cache = IsolatedTimes::default();
        assert!(cache.times_for(&workload).is_err());
        cache.times.insert("spmv".into(), SimTime::from_micros(5));
        assert_eq!(
            cache.times_for(&workload).unwrap(),
            vec![SimTime::from_micros(5)]
        );
    }
}
