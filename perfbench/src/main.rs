//! The repository's benchmark: three workloads of the real experiment mix,
//! run end to end through `SweepRunner`, or replayed layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload open-arrival --seed 2014 --seconds 25 --trace 0
//! ```
//!
//! * `--workload` one of `open-arrival`, `closed-preempt`,
//!   `realtime-deadline` (see `workloads.rs`).
//! * `--seed` drives every generated input; the same seed gives the same
//!   inputs and the same outputs.
//! * `--seconds` how long to measure: whole passes of the plan run for
//!   about this long. Throughput is that of the fastest pass, and each
//!   scenario's time is its best over the passes, so a spell of load from
//!   other tenants moves the figures as little as possible.
//! * `--trace 0` prints the end-to-end metrics; `--trace 1` replays the
//!   event loop through each layer's public API and prints the per-layer
//!   metrics instead.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The command exits
//! non-zero when any output check fails.

mod replay;
mod sweep;
#[cfg(test)]
mod tests;
mod traced;
mod workloads;

use gpreempt::sweep::JsonlSink;
use std::process::ExitCode;
use std::time::Duration;

// Installed like `run_sweep` installs it, so both time the same allocator;
// the traced run reads the per-scenario allocation counts it keeps.
#[global_allocator]
static ALLOC: gpreempt::sim::CountingAlloc = gpreempt::sim::CountingAlloc::new();

/// Seed whose workload digests `expected.json` records.
const DEFAULT_SEED: u64 = 2014;

/// Set-ups before the first pass. The traced run reports the median split
/// of these; the end-to-end run adds one set-up between passes and reports
/// the best.
const SETUP_REPEATS: usize = 5;

/// Digests of every workload's first pass at [`DEFAULT_SEED`].
const EXPECTED: &str = include_str!("../expected.json");

/// One printed metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The metrics `--trace 0` prints, with their units, in order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("scenarios_per_s", "1/s"),
    ("blocks_per_s", "1/s"),
    ("scenario_ms_p50", "ms"),
    ("scenario_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The metrics `--trace 1` prints, with their units, in order.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("queue.ns_per_event", "ns"),
    ("queue.pending_mean", "count"),
    ("queue.pending_max", "count"),
    ("queue.events_per_pop", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.ns_per_block", "ns"),
    ("engine.stale_block_share", "ratio"),
    ("engine.noop_tick_share", "ratio"),
    ("engine.preemptions_per_scenario", "count"),
    ("host.ns_per_event", "ns"),
    ("host.releases_per_scenario", "count"),
    ("policy.ns_per_hook", "ns"),
    ("policy.hooks_per_event", "ratio"),
    ("loop.ns_per_event", "ns"),
    ("loop.glue_ns_per_event", "ns"),
    ("loop.events_per_scenario", "count"),
    ("trace.overhead", "ratio"),
    ("trace.closure", "ratio"),
    ("fold.us_per_scenario", "us"),
    ("sink.us_per_record", "us"),
    ("runner.overhead_share", "ratio"),
    ("runner.busy_share", "ratio"),
    ("runner.cpu_per_wall", "ratio"),
    ("runner.wait_share", "ratio"),
    ("allocs_per_scenario", "count"),
    ("setup.plan_ms", "ms"),
    ("setup.isolated_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::WORKLOADS.join(", ")
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be a positive number".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(correct) => {
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one invocation; returns whether every output check passed.
fn run(args: &Args) -> Result<bool, String> {
    // Set-up: workload generation, isolated-time probes and plan build,
    // repeated so its time is not one sample.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let started = std::time::Instant::now();
        let setup = workloads::build(&args.workload, args.seed)
            .expect("workload name was validated")
            .map_err(|e| format!("set-up failed: {e}"))?;
        setups.push((started.elapsed(), setup));
    }
    let setups_s: Vec<f64> = setups.iter().map(|(t, _)| t.as_secs_f64()).collect();
    let setup_plan_ms = median(setups.iter().map(|(_, s)| ms(s.plan_build)).collect());
    let setup_isolated_ms = median(setups.iter().map(|(_, s)| ms(s.isolated)).collect());
    let setup = setups.pop().expect("at least one set-up").1;

    let sink = open_sink(&args.workload, args.trace)?;
    let (metrics, attempted, mut failed, digest) = if args.trace {
        let mut traced = traced::run(&setup, args.seconds, &sink).map_err(|e| e.to_string())?;
        traced.metrics.push(("setup.plan_ms", setup_plan_ms, "ms"));
        traced
            .metrics
            .push(("setup.isolated_ms", setup_isolated_ms, "ms"));
        (
            traced.metrics,
            traced.attempted,
            traced.failed,
            traced.digest,
        )
    } else {
        // More set-ups between the passes, so set-up time is sampled across
        // the run like the passes are, and reported as the best sample.
        let mut setup_times: Vec<f64> = setups_s;
        let m = sweep::measure(&setup, args.seconds, &sink, &mut || {
            let started = std::time::Instant::now();
            let rebuilt = workloads::build(&args.workload, args.seed);
            setup_times.push(started.elapsed().as_secs_f64());
            rebuilt.expect("workload name was validated").map(drop)
        })
        .map_err(|e| e.to_string())?;
        let setup_s = setup_times.iter().copied().fold(f64::INFINITY, f64::min);
        let best = m.best_pass.as_secs_f64();
        let mut walls = m.best_scenario_ms.clone();
        walls.sort_by(f64::total_cmp);
        let p90 = percentile(&walls, 0.9);
        let beyond_p90 = walls.iter().filter(|&&w| w > p90).count();
        let passes: Vec<String> = m
            .pass_walls
            .iter()
            .map(|w| format!("{:.2}", w.as_secs_f64()))
            .collect();
        eprintln!(
            "{}: {} scenarios x {} passes ({} s); {beyond_p90} beyond p90",
            args.workload,
            walls.len(),
            passes.len(),
            passes.join(" ")
        );
        let metrics = vec![
            ("scenarios_per_s", walls.len() as f64 / best, "1/s"),
            ("blocks_per_s", m.blocks_per_pass as f64 / best, "1/s"),
            ("scenario_ms_p50", percentile(&walls, 0.5), "ms"),
            ("scenario_ms_p90", p90, "ms"),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
            ("setup_s", setup_s, "s"),
        ];
        (metrics, walls.len() * passes.len(), m.failed, m.digest)
    };

    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if !metrics
        .iter()
        .map(|&(n, _, u)| (n, u))
        .eq(declared.iter().copied())
    {
        return Err("the metrics computed differ from the declared list".to_string());
    }
    let digest = format!("{digest:016x}");
    match expected_digest(&args.workload, args.seed)? {
        Some(expected) if expected != digest => {
            eprintln!(
                "{}: digest {digest} at seed {} != expected {expected}",
                args.workload, args.seed
            );
            failed += 1;
        }
        Some(_) => eprintln!("{}: digest {digest} matches", args.workload),
        None => eprintln!("{}: digest {digest} (seed {})", args.workload, args.seed),
    }
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    Ok(failed == 0)
}

/// The JSONL tap's file, inside the build directory so a run writes nothing
/// else.
fn open_sink(workload: &str, trace: bool) -> Result<JsonlSink, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let dir = std::path::Path::new(&target).join("perfbench-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-trace{}.jsonl", u8::from(trace)));
    JsonlSink::create(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))
}

/// The digest `expected.json` records for this workload, when `seed` is the
/// default seed.
fn expected_digest(workload: &str, seed: u64) -> Result<Option<String>, String> {
    let expected = gpreempt::json::parse(EXPECTED).map_err(|e| format!("expected.json: {e}"))?;
    if expected.get("seed").and_then(|s| s.as_u64()) != Some(seed) {
        return Ok(None);
    }
    Ok(expected
        .get("digests")
        .and_then(|d| d.get(workload))
        .and_then(|d| d.as_str())
        .map(str::to_string))
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of unsorted values; 0 when empty.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(&values, 0.5)
}

/// Linearly interpolated percentile of sorted values; 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The result line: `correct`, `attempted`, `failed` and every metric with
/// its unit. Values print with every digit Rust's shortest round-trip
/// formatting keeps.
fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
