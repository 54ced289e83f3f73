//! The saturation sweep: an open-arrival "GPU as a service" under swept
//! offered load, located on the latency–throughput curve.
//!
//! Every process releases independent service requests from an open
//! arrival process instead of replaying back to back. Three load-matched
//! arrival families are swept ([`SATURATION_ARRIVALS`]): memoryless
//! Poisson, jittered sporadic, and on/off bursty — same mean rate, very
//! different short-term variance. The offered load `ρ` fixes the mean
//! inter-arrival gap at `isolated_time × size / ρ`: at `ρ = 1` the
//! workload requests exactly the GPU's aggregate service capacity, below
//! it the system is underloaded, above it no schedule can keep up. Each
//! `(ρ, arrival, policy, mechanism)` cell runs for a fixed simulated
//! horizon (overloaded services never reach a completion target) with
//! [`N_SEEDS`] derived engine-RNG streams, and is condensed into SLO
//! metrics: p50/p99/p99.9 response time, shed rate, queue depth and
//! goodput.
//!
//! The headline result is the **knee**: below a critical ρ the p99 stays
//! finite and flat and nothing is shed; above it the backlog grows until
//! the bounded queue sheds load and the tail latency departs super-linearly
//! ([`SaturationResults::knee_rho`], detected per arrival family — burstier
//! families knee earlier at the same mean load).

use crate::config::{PolicyKind, SimulatorConfig};
use crate::experiments::common::{ci95, ExperimentScale};
use crate::experiments::{Experiment, IsolatedPhase};
use crate::report::TextTable;
use crate::simulator::SimulationRun;
use crate::sweep::shard::checkpointed;
use crate::sweep::{Scenario, SweepPlan, SweepRecord, SweepReport, SweepTiming};
use gpreempt_gpu::{MechanismSelection, PreemptionMechanism};
use gpreempt_sim::stats;
use gpreempt_trace::{ProcessSpec, Workload};
use gpreempt_types::{ArrivalProcess, SimError};

/// The offered-load axis (fraction of aggregate service capacity).
pub const SATURATION_RHOS: [f64; 4] = [0.4, 0.8, 1.3, 2.0];

/// The policies the sweep compares: the FCFS baseline and the
/// quantum-driven round-robin time slicer.
pub const SATURATION_POLICIES: [PolicyKind; 2] = [PolicyKind::Fcfs, PolicyKind::RoundRobin];

/// The preemption-mechanism axis.
pub const SATURATION_MECHANISMS: [PreemptionMechanism; 2] = [
    PreemptionMechanism::ContextSwitch,
    PreemptionMechanism::Draining,
];

/// Engine-RNG replicates per cell (the arrival streams derive from the
/// engine seed, so each replicate draws different Poisson gaps).
pub const N_SEEDS: usize = 3;

/// Backlog bound per process. Deliberately shallow so overload turns into
/// visible shedding within the sweep horizon rather than an ever-deeper
/// queue.
pub const SATURATION_BACKLOG_CAP: u32 = 4;

/// Simulated horizon per run: `isolated_time × HORIZON_ISO_FACTOR × size`.
pub const HORIZON_ISO_FACTOR: f64 = 12.0;

/// The arrival families swept, load-matched to the same mean rate.
pub const SATURATION_ARRIVALS: [ArrivalFamily; 3] = [
    ArrivalFamily::Poisson,
    ArrivalFamily::Sporadic,
    ArrivalFamily::Bursty,
];

/// Releases per on-phase of the bursty family.
const BURST_LEN: u32 = 3;

/// An open-arrival family swept by the saturation experiment. Each family
/// is instantiated load-matched: for a requested mean inter-release gap
/// `g`, every family's long-run mean gap is exactly `g`, so cells at the
/// same ρ offer the same average load and differ only in short-term
/// variance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalFamily {
    /// Memoryless: exponential gaps with mean `g`.
    Poisson,
    /// Jittered periodic: gaps uniform in `[0.8g, 1.2g]` (period `0.8g`,
    /// jitter `0.5`), mean `g` with bounded variance.
    Sporadic,
    /// On/off: `BURST_LEN` releases `g/4` apart, then idle until the
    /// cycle spans `BURST_LEN × g` — the mean rate matches, but the
    /// instantaneous in-burst rate is 4× it.
    Bursty,
}

impl ArrivalFamily {
    /// Short lowercase name used in workload names and tables.
    pub fn label(self) -> &'static str {
        match self {
            ArrivalFamily::Poisson => "poisson",
            ArrivalFamily::Sporadic => "sporadic",
            ArrivalFamily::Bursty => "bursty",
        }
    }

    /// The arrival process with a long-run mean inter-release gap of
    /// `mean_gap`.
    pub fn process(self, mean_gap: gpreempt_types::SimTime) -> ArrivalProcess {
        match self {
            ArrivalFamily::Poisson => ArrivalProcess::Poisson { mean_gap },
            // Uniform stretch in [1, 1.5] over the period averages 1.25×,
            // so a 0.8× period restores the requested mean.
            ArrivalFamily::Sporadic => ArrivalProcess::Sporadic {
                period: mean_gap.scale(0.8),
                jitter: 0.5,
            },
            // Cycle time: (L-1) in-burst gaps of g/4 plus the idle gap,
            // sized so L releases span L×g.
            ArrivalFamily::Bursty => ArrivalProcess::Bursty {
                burst_len: BURST_LEN,
                burst_gap: mean_gap.scale(0.25),
                idle_gap: mean_gap.scale(BURST_LEN as f64 - 0.25 * (BURST_LEN - 1) as f64),
            },
        }
    }
}

/// The identity of one cell of the sweep (everything except the seed).
#[derive(Debug, Clone, PartialEq)]
pub struct SaturationCellKey {
    /// Workload name.
    pub workload: String,
    /// Number of co-scheduled service processes.
    pub size: usize,
    /// Offered load as a fraction of capacity.
    pub rho: f64,
    /// The arrival family generating the load.
    pub arrival: ArrivalFamily,
    /// The policy under test.
    pub policy: PolicyKind,
    /// The pinned preemption mechanism.
    pub mechanism: PreemptionMechanism,
}

checkpointed! {
    /// The outcome of one scenario (one seed of one cell).
    #[derive(Debug, Clone, PartialEq)]
    pub struct SaturationPoint {
        /// Requests released across the workload.
        pub released: u64,
        /// Requests shed at the admission gate.
        pub shed: u64,
        /// Requests completed.
        pub completed: u64,
        /// Workload-level shed rate in `[0, 1]`.
        pub shed_rate: f64,
        /// Pooled median response time (µs); NaN when nothing completed.
        pub p50_us: f64,
        /// Pooled p99 response time (µs).
        pub p99_us: f64,
        /// Pooled p99.9 response time (µs).
        pub p999_us: f64,
        /// Mean over processes of the time-weighted mean backlog depth.
        pub mean_queue_depth: f64,
        /// Deepest backlog any process reached.
        pub max_queue_depth: u32,
        /// Completed requests per second of simulated time.
        pub throughput_per_sec: f64,
        /// Preemptions the policy requested.
        pub preemptions: u64,
    }
}

/// One cell of the sweep: a [`SaturationCellKey`] plus statistics over its
/// seed replicates.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturationCell {
    /// The cell identity.
    pub key: SaturationCellKey,
    /// Per-seed outcomes, in replicate order.
    pub points: Vec<SaturationPoint>,
}

impl SaturationCell {
    fn stat(&self, f: impl Fn(&SaturationPoint) -> f64) -> (f64, f64) {
        let values: Vec<f64> = self.points.iter().map(f).collect();
        (stats::mean(&values), ci95(&values))
    }

    /// Mean and 95 % CI half-width of the p99 response time (µs).
    pub fn p99_us(&self) -> (f64, f64) {
        self.stat(|p| p.p99_us)
    }

    /// Mean and CI of the median response time (µs).
    pub fn p50_us(&self) -> (f64, f64) {
        self.stat(|p| p.p50_us)
    }

    /// Mean and CI of the shed rate.
    pub fn shed_rate(&self) -> (f64, f64) {
        self.stat(|p| p.shed_rate)
    }

    /// Mean and CI of the goodput (completions per second).
    pub fn throughput(&self) -> (f64, f64) {
        self.stat(|p| p.throughput_per_sec)
    }

    /// Mean time-weighted queue depth across replicates.
    pub fn mean_queue_depth(&self) -> f64 {
        self.stat(|p| p.mean_queue_depth).0
    }
}

/// The full saturation experiment.
#[derive(Debug, Clone)]
pub struct SaturationResults {
    cells: Vec<SaturationCell>,
    seed: u64,
    timing: SweepTiming,
}

impl Experiment for SaturationResults {
    const NAME: &'static str = "saturation";
    type Value = SaturationPoint;
    type Context = Vec<SaturationCellKey>;
    const SCENARIO_RECORD: Option<fn(&Scenario, &SaturationPoint) -> SweepRecord> =
        Some(point_record);

    /// The scale pool's first benchmark as a service of every size, under
    /// every ρ × arrival family × policy × mechanism × seed replicate, each
    /// run to a fixed horizon. The context is the cell keys, one per
    /// [`N_SEEDS`] scenarios.
    fn enumerate(
        config: &SimulatorConfig,
        scale: &ExperimentScale,
        isolated: &mut IsolatedPhase<'_>,
    ) -> Result<(SweepPlan, Vec<SaturationCellKey>), SimError> {
        // One service benchmark, replicated per process: the first of the
        // scale's pool (deterministic order). The arrival gaps are derived
        // from its isolated time, so measure that first.
        let suite = scale.suite(config);
        let benchmark = suite
            .first()
            .ok_or_else(|| SimError::invalid_workload("saturation sweep needs a benchmark"))?;
        let probe = Workload::new(
            "saturation-probe",
            vec![ProcessSpec::new(benchmark.clone())],
        );
        let iso = isolated.times([&probe])?.times_for(&probe)?[0];

        let mut cell_keys: Vec<SaturationCellKey> = Vec::new();
        let mut plan = SweepPlan::new(config.clone()).with_seed(scale.seed);
        for &size in &scale.workload_sizes {
            let horizon = iso.scale(HORIZON_ISO_FACTOR * size as f64);
            for &rho in &SATURATION_RHOS {
                // Aggregate offered rate = size / gap; capacity ≈ 1 / iso.
                let mean_gap = iso.scale(size as f64 / rho);
                for &arrival in &SATURATION_ARRIVALS {
                    let processes: Vec<ProcessSpec> = (0..size)
                        .map(|_| {
                            ProcessSpec::new(benchmark.clone())
                                .with_arrival(arrival.process(mean_gap))
                                .with_backlog_cap(SATURATION_BACKLOG_CAP)
                        })
                        .collect();
                    // The replay target is unreachable on purpose: the
                    // horizon is the only stop condition.
                    let workload = Workload::new(
                        format!("sat-{size}p-rho{rho:.2}-{}", arrival.label()),
                        processes,
                    )
                    .with_min_completions(u32::MAX);
                    for &policy in &SATURATION_POLICIES {
                        for &mechanism in &SATURATION_MECHANISMS {
                            let key = SaturationCellKey {
                                workload: workload.name().to_string(),
                                size,
                                rho,
                                arrival,
                                policy,
                                mechanism,
                            };
                            for replicate in 0..N_SEEDS {
                                plan.push(
                                    Scenario::new(
                                        "saturation",
                                        format!("{} {mechanism:?} s{replicate}", policy.label()),
                                        workload.clone(),
                                        policy,
                                    )
                                    .with_selection(MechanismSelection::Fixed(mechanism))
                                    .with_horizon(horizon),
                                );
                            }
                            cell_keys.push(key);
                        }
                    }
                }
            }
        }
        // Independent arrival + jitter streams per replicate.
        plan.assign_derived_seeds();
        Ok((plan, cell_keys))
    }

    fn fold(
        _: &Vec<SaturationCellKey>,
        _: &Scenario,
        run: SimulationRun,
    ) -> Result<SaturationPoint, SimError> {
        let slo = run.slo_metrics();
        let per = slo.per_process();
        let mean_queue_depth = stats::mean(
            &per.iter()
                .map(|p| p.counts.mean_queue_depth)
                .collect::<Vec<_>>(),
        );
        let max_queue_depth = per
            .iter()
            .map(|p| p.counts.max_queue_depth)
            .max()
            .unwrap_or(0);
        Ok(SaturationPoint {
            released: slo.released(),
            shed: slo.shed(),
            completed: slo.completed(),
            shed_rate: slo.shed_rate(),
            p50_us: slo.p50_us(),
            p99_us: slo.p99_us(),
            p999_us: slo.p999_us(),
            mean_queue_depth,
            max_queue_depth,
            throughput_per_sec: slo.throughput_per_sec(),
            preemptions: run.engine_stats().preemptions,
        })
    }

    fn aggregate(
        plan: &SweepPlan,
        cell_keys: Vec<SaturationCellKey>,
        values: Vec<SaturationPoint>,
        timing: SweepTiming,
    ) -> Self {
        let mut points = values.into_iter();
        let cells = cell_keys
            .into_iter()
            .map(|key| SaturationCell {
                key,
                points: points.by_ref().take(N_SEEDS).collect(),
            })
            .collect();
        SaturationResults {
            cells,
            seed: plan.seed(),
            timing,
        }
    }

    /// One record per cell, carrying mean ± CI of each SLO metric plus the
    /// replicate count.
    fn report(&self) -> SweepReport {
        let mut report = SweepReport::new(self.seed);
        for cell in &self.cells {
            let (p50, p50_ci) = cell.p50_us();
            let (p99, p99_ci) = cell.p99_us();
            let (shed, shed_ci) = cell.shed_rate();
            let (thru, thru_ci) = cell.throughput();
            report.push(
                SweepRecord::new(
                    "saturation",
                    &cell.key.workload,
                    format!("{} {:?}", cell.key.policy.label(), cell.key.mechanism),
                    cell.key.size,
                )
                .with_value("rho", cell.key.rho)
                .with_value("p50_us", p50)
                .with_value("p50_us_ci95", p50_ci)
                .with_value("p99_us", p99)
                .with_value("p99_us_ci95", p99_ci)
                .with_value("shed_rate", shed)
                .with_value("shed_rate_ci95", shed_ci)
                .with_value("throughput_per_sec", thru)
                .with_value("throughput_per_sec_ci95", thru_ci)
                .with_value("mean_queue_depth", cell.mean_queue_depth())
                .with_value("n_seeds", cell.points.len() as f64),
            );
        }
        report
    }

    fn tables(&self) -> Vec<TextTable> {
        vec![self.render()]
    }

    fn timing(&self) -> &SweepTiming {
        &self.timing
    }
}

impl SaturationResults {
    /// The per-cell results, in enumeration order.
    pub fn cells(&self) -> &[SaturationCell] {
        &self.cells
    }

    /// The cells of one `(size, arrival, policy, mechanism)` combination,
    /// in ascending-ρ order (the enumeration order).
    pub fn curve(
        &self,
        size: usize,
        arrival: ArrivalFamily,
        policy: PolicyKind,
        mechanism: PreemptionMechanism,
    ) -> Vec<&SaturationCell> {
        self.cells
            .iter()
            .filter(|c| {
                c.key.size == size
                    && c.key.arrival == arrival
                    && c.key.policy == policy
                    && c.key.mechanism == mechanism
            })
            .collect()
    }

    /// The smallest swept ρ at which one `(size, arrival, policy,
    /// mechanism)` curve saturates: mean shed rate above 2 %, or mean p99
    /// more than 3× the p99 of the lowest-ρ cell. `None` when the curve
    /// never saturates within the sweep (or has no finite baseline).
    pub fn knee_rho(
        &self,
        size: usize,
        arrival: ArrivalFamily,
        policy: PolicyKind,
        mechanism: PreemptionMechanism,
    ) -> Option<f64> {
        let curve = self.curve(size, arrival, policy, mechanism);
        let base_p99 = curve.iter().map(|c| c.p99_us().0).find(|p| p.is_finite())?;
        curve
            .iter()
            .find(|c| c.shed_rate().0 > 0.02 || c.p99_us().0 > 3.0 * base_p99)
            .map(|c| c.key.rho)
    }

    /// Whether every swept `(size, arrival, policy, mechanism)` curve
    /// exhibits the latency–throughput knee: the lowest swept load stays
    /// healthier than some higher swept ρ that saturates. Burstier arrival
    /// families may shed a little even at low mean load (a burst can
    /// transiently exceed the backlog cap), so "healthy" bounds the
    /// low-load shed rate per family instead of demanding zero.
    pub fn every_curve_has_knee(&self) -> bool {
        let mut combos: Vec<(usize, ArrivalFamily, PolicyKind, PreemptionMechanism)> = self
            .cells
            .iter()
            .map(|c| (c.key.size, c.key.arrival, c.key.policy, c.key.mechanism))
            .collect();
        combos.dedup();
        !combos.is_empty()
            && combos
                .into_iter()
                .all(|(size, arrival, policy, mechanism)| {
                    let curve = self.curve(size, arrival, policy, mechanism);
                    let Some(first) = curve.first() else {
                        return false;
                    };
                    let shed_bound = match arrival {
                        ArrivalFamily::Poisson | ArrivalFamily::Sporadic => 0.01,
                        ArrivalFamily::Bursty => 0.10,
                    };
                    let healthy_below =
                        first.p99_us().0.is_finite() && first.shed_rate().0 < shed_bound;
                    let knee = self.knee_rho(size, arrival, policy, mechanism);
                    healthy_below && knee.is_some_and(|rho| rho > first.key.rho)
                })
    }

    /// Renders the sweep as a table: one row per cell. Latency columns of
    /// cells that completed nothing render as `-` (NaN sentinel), never a
    /// fake zero.
    pub fn render(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "procs".into(),
            "rho".into(),
            "arrival".into(),
            "policy".into(),
            "mechanism".into(),
            "p50 (us)".into(),
            "p99 (us)".into(),
            "shed rate".into(),
            "goodput (req/s)".into(),
            "queue depth".into(),
        ])
        .with_title(format!(
            "Saturation sweep: SLO percentiles by offered load x policy x mechanism \
             (mean +/- 95% CI over {N_SEEDS} seeds)"
        ));
        table.extend_rows(self.cells.iter().map(|cell| {
            let (p50, p50_ci) = cell.p50_us();
            let (p99, p99_ci) = cell.p99_us();
            let (shed, shed_ci) = cell.shed_rate();
            let (thru, _) = cell.throughput();
            vec![
                cell.key.size.to_string(),
                format!("{:.2}", cell.key.rho),
                cell.key.arrival.label().to_string(),
                cell.key.policy.label().to_string(),
                format!("{:?}", cell.key.mechanism),
                format!(
                    "{} +/- {}",
                    stats::fmt_stat(p50, 1),
                    stats::fmt_stat(p50_ci, 1)
                ),
                format!(
                    "{} +/- {}",
                    stats::fmt_stat(p99, 1),
                    stats::fmt_stat(p99_ci, 1)
                ),
                format!(
                    "{} +/- {}",
                    stats::fmt_stat(shed, 3),
                    stats::fmt_stat(shed_ci, 3)
                ),
                stats::fmt_stat(thru, 1),
                stats::fmt_stat(cell.mean_queue_depth(), 2),
            ]
        }));
        table
    }
}

/// The per-scenario record streamed to the JSONL sink: one seed's raw
/// outcome, identified by workload and scenario label.
fn point_record(scenario: &Scenario, point: &SaturationPoint) -> SweepRecord {
    SweepRecord::new(
        "saturation",
        scenario.workload.name(),
        &scenario.label,
        scenario.size(),
    )
    .with_value("released", point.released as f64)
    .with_value("shed", point.shed as f64)
    .with_value("completed", point.completed as f64)
    .with_value("shed_rate", point.shed_rate)
    .with_value("p50_us", point.p50_us)
    .with_value("p99_us", point.p99_us)
    .with_value("p999_us", point.p999_us)
    .with_value("mean_queue_depth", point.mean_queue_depth)
    .with_value("max_queue_depth", point.max_queue_depth as f64)
    .with_value("throughput_per_sec", point.throughput_per_sec)
    .with_value("preemptions", point.preemptions as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepRunner;

    #[test]
    fn quick_sweep_locates_the_latency_throughput_knee() {
        let config = SimulatorConfig::default();
        let scale = ExperimentScale::quick().with_sizes(vec![2]);
        let results: SaturationResults =
            crate::experiments::run(&config, &scale, &SweepRunner::sequential()).unwrap();
        assert_eq!(
            results.cells().len(),
            SATURATION_RHOS.len()
                * SATURATION_ARRIVALS.len()
                * SATURATION_POLICIES.len()
                * SATURATION_MECHANISMS.len()
        );

        for &arrival in &SATURATION_ARRIVALS {
            for &policy in &SATURATION_POLICIES {
                for &mechanism in &SATURATION_MECHANISMS {
                    let curve = results.curve(2, arrival, policy, mechanism);
                    assert_eq!(curve.len(), SATURATION_RHOS.len());
                    let low = curve.first().unwrap();
                    let high = curve.last().unwrap();
                    // Sub-critical load: finite tail, (almost) nothing
                    // shed — a burst may transiently overrun the shallow
                    // backlog cap even at low mean load.
                    assert!(
                        low.p99_us().0.is_finite(),
                        "{arrival:?}/{policy:?}/{mechanism:?} low-load p99 must be finite"
                    );
                    let low_shed_bound = match arrival {
                        ArrivalFamily::Bursty => 0.10,
                        _ => 0.0,
                    };
                    assert!(
                        low.shed_rate().0 <= low_shed_bound,
                        "{arrival:?}/{policy:?}/{mechanism:?} shed {} at rho {}",
                        low.shed_rate().0,
                        low.key.rho
                    );
                    // Overload: the bounded backlog sheds, or the tail
                    // departs.
                    assert!(
                        high.shed_rate().0 > 0.0 || high.p99_us().0 > 3.0 * low.p99_us().0,
                        "{arrival:?}/{policy:?}/{mechanism:?} must saturate at rho {}",
                        high.key.rho
                    );
                }
            }
        }
        assert!(results.every_curve_has_knee());

        // Every row of the rendered table must be well-formed even if some
        // cell completed nothing (NaN -> "-", not a panic or a fake 0).
        let table = results.render();
        assert!(table.render().contains("rho"));
        assert_eq!(results.report().records().len(), results.cells().len());
    }
}
