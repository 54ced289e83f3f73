//! Command-line driver for the experiment sweeps: regenerate the paper's
//! evaluation (or one experiment of it) across worker threads and emit the
//! results as text tables or machine-readable JSON.
//!
//! ```text
//! cargo run --release -p gpreempt-bench --bin run_sweep -- \
//!     --experiment spatial --scale bench --jobs 8 --format json
//! ```
//!
//! Options:
//!
//! * `--experiment fig2|priority|spatial|mechanism|realtime|saturation|all`
//!   (default `all`)
//! * `--scale quick|bench|paper` (default `quick`)
//! * `--jobs N` worker threads; `0` = one per CPU (default `0`). Sweep
//!   results are bit-identical for every worker count, so this only
//!   changes wall-clock time.
//! * `--format table|json` (default `table`). JSON goes to stdout; the
//!   wall-clock summary always goes to stderr so piped JSON stays clean.
//! * `--seed N` overrides the workload-generation seed of the scale.
//! * `--affinity` pins each sweep worker to a core (Linux only; a no-op
//!   elsewhere).
//! * `--depth-trace US` samples every process's queue depth every `US`
//!   microseconds of simulated time; the traces ride along as a `series`
//!   field on saturation JSONL records.
//! * `--timing` with `--format table`: also print the per-scenario
//!   wall-clock table. With either format, each experiment additionally
//!   reports its own events/sec line on stderr as it completes.
//! * `--out FILE` streams sweep records to FILE as JSON Lines. Realtime
//!   and saturation scenarios spill in completion order the moment each
//!   finishes; the other experiments append their report records as each
//!   experiment completes. The file is valid (and tail-able) mid-sweep.
//! * `--validate` reads report JSON from stdin, checks it parses and that
//!   `record_count` matches the records array, and exits non-zero on any
//!   mismatch (used by the CI smoke step).
//!
//! ## Sharding
//!
//! * `--shard K/N` simulates only stripe `K` of the scenario population
//!   (scenario `id % N == K` of every experiment's plan — the partition
//!   is a function of the plan alone, never of `--jobs`), checkpointing
//!   each completed scenario's fold value to a JSON Lines file whose
//!   first line is a manifest (experiment, scale, seed, stripe, schema
//!   fingerprint). Re-running the same command resumes: completed
//!   scenarios are skipped, a torn final line from a kill is discarded.
//!   `--shard-out FILE` names the checkpoint (default
//!   `shard-K-of-N.jsonl`); `--out` is rejected — a shard produces a
//!   checkpoint, not a report.
//! * `run_sweep merge FILE...` cross-validates the shard manifests,
//!   reassembles the checkpointed values in scenario-id order and runs
//!   the unchanged aggregation, emitting a report byte-identical to the
//!   unsharded run. Accepts `--format`, `--out`, `--jobs`, `--timing`.

use gpreempt::experiments::{
    ExperimentScale, Fig2Results, IsolatedRunCache, MechanismResults, PriorityResults,
    RealtimeResults, SaturationResults, SpatialResults,
};
use gpreempt::sweep::{
    JsonlSink, MergedValues, ShardManifest, ShardSession, ShardSpec, SweepExec, SweepReport,
    SweepRunner, SweepTiming,
};
use gpreempt::SimulatorConfig;
use gpreempt_types::SimTime;
use std::io::Read as _;

// Per-scenario allocation accounting for `--timing`: every allocation on a
// worker thread is charged to the scenario it was running. The forwarding
// allocator costs one thread-local increment per allocation — noise next
// to the allocation itself.
#[global_allocator]
static ALLOC: gpreempt::sim::CountingAlloc = gpreempt::sim::CountingAlloc::new();

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Experiment {
    Fig2,
    Priority,
    Spatial,
    Mechanism,
    Realtime,
    Saturation,
    All,
}

impl Experiment {
    fn parse(text: &str) -> Result<Self, String> {
        match text {
            "fig2" => Ok(Experiment::Fig2),
            "priority" => Ok(Experiment::Priority),
            "spatial" => Ok(Experiment::Spatial),
            "mechanism" => Ok(Experiment::Mechanism),
            "realtime" => Ok(Experiment::Realtime),
            "saturation" => Ok(Experiment::Saturation),
            "all" => Ok(Experiment::All),
            other => Err(format!("unknown experiment {other:?}")),
        }
    }

    /// The selector string recorded in shard manifests.
    fn label(self) -> &'static str {
        match self {
            Experiment::Fig2 => "fig2",
            Experiment::Priority => "priority",
            Experiment::Spatial => "spatial",
            Experiment::Mechanism => "mechanism",
            Experiment::Realtime => "realtime",
            Experiment::Saturation => "saturation",
            Experiment::All => "all",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Table,
    Json,
}

fn usage() {
    println!("usage: run_sweep [options]");
    println!("       run_sweep merge SHARD.jsonl... [--format table|json] [--out FILE]");
    println!(
        "  --experiment fig2|priority|spatial|mechanism|realtime|saturation|all (default all)"
    );
    println!("  --scale quick|bench|paper                          (default quick)");
    println!("  --jobs N          worker threads, 0 = one per CPU  (default 0)");
    println!("  --format table|json                                (default table)");
    println!("  --seed N          workload-generation seed override");
    println!("  --affinity        pin each sweep worker to a core (Linux; no-op elsewhere)");
    println!("  --depth-trace US  sample per-process queue depth every US microseconds");
    println!("  --shard K/N       simulate only scenario ids with id % N == K,");
    println!("                    checkpointing fold values; resumes automatically");
    println!("  --shard-out FILE  shard checkpoint path (default shard-K-of-N.jsonl)");
    println!("  --timing          print the per-scenario wall-clock table");
    println!("                    and per-experiment events/sec on stderr");
    println!("  --out FILE        stream sweep records to FILE as JSON Lines");
    println!("  --validate        validate report JSON from stdin and exit");
}

fn validate_stdin() -> Result<(), Box<dyn std::error::Error>> {
    let mut text = String::new();
    std::io::stdin().read_to_string(&mut text)?;
    match SweepReport::validate_json(&text) {
        Ok(0) => Err("report is valid JSON but contains no records".into()),
        Ok(n) => {
            println!("report OK: {n} records");
            Ok(())
        }
        Err(e) => Err(format!("invalid sweep report: {e}").into()),
    }
}

fn scale_by_name(name: &str) -> Result<ExperimentScale, String> {
    match name {
        "quick" => Ok(ExperimentScale::quick()),
        "bench" => Ok(ExperimentScale::bench()),
        "paper" => Ok(ExperimentScale::paper()),
        other => Err(format!("unknown scale {other:?}")),
    }
}

/// Runs the selected experiments under `exec` and collects their report,
/// rendered tables and merged timing. In shard mode the harnesses yield no
/// results (their fold values go to the checkpoint instead), so the report
/// and tables come back empty; in full and merge mode the output is
/// identical by construction.
#[allow(clippy::too_many_arguments)]
fn run_experiments(
    experiment: Experiment,
    config: &SimulatorConfig,
    scale: &ExperimentScale,
    runner: &SweepRunner,
    isolated_cache: &IsolatedRunCache,
    sink: Option<&JsonlSink>,
    exec: &SweepExec<'_>,
    timing_table: bool,
) -> Result<(SweepReport, Vec<String>, SweepTiming), Box<dyn std::error::Error>> {
    let mut report = SweepReport::new(scale.seed);
    let mut timing = SweepTiming::default();
    let mut tables: Vec<String> = Vec::new();
    // Optional disk spill: realtime and saturation scenarios stream as they
    // complete; the other experiments append their report records per
    // experiment.
    let spill =
        |report: &SweepReport, first_new: usize| -> Result<(), Box<dyn std::error::Error>> {
            if let Some(sink) = sink {
                sink.append_all(&report.records()[first_new..])?;
            }
            Ok(())
        };
    // Per-experiment throughput, printed the moment each experiment
    // completes so a long `--scale paper` run shows progress. Stderr, like
    // the final summary, so piped JSON stays clean.
    let note = |name: &str, t: &SweepTiming| {
        if timing_table {
            eprintln!(
                "{name}: {} scenarios, {} events in {:.2?} ({:.0} events/s)",
                t.entries.len(),
                t.events,
                t.total,
                t.events_per_sec(),
            );
        }
    };

    if matches!(experiment, Experiment::Fig2 | Experiment::All) {
        if let Some(results) = Fig2Results::run_exec(config, runner, exec)? {
            note("fig2", results.timing());
            tables.push(results.render().render());
            let first_new = report.len();
            report.merge(results.report());
            spill(&report, first_new)?;
            timing = timing.merged(results.timing().clone());
        }
    }
    if matches!(experiment, Experiment::Priority | Experiment::All) {
        if let Some(results) =
            PriorityResults::run_exec(config, scale, runner, isolated_cache, exec)?
        {
            note("priority", results.timing());
            tables.push(results.render_fig5().render());
            tables.push(results.render_fig6(false).render());
            tables.push(results.render_fig6(true).render());
            let first_new = report.len();
            report.merge(results.report());
            spill(&report, first_new)?;
            timing = timing.merged(results.timing().clone());
        }
    }
    if matches!(experiment, Experiment::Spatial | Experiment::All) {
        if let Some(results) =
            SpatialResults::run_exec(config, scale, runner, isolated_cache, exec)?
        {
            note("spatial", results.timing());
            tables.push(results.render_fig7a().render());
            tables.push(results.render_fig7b().render());
            tables.push(results.render_fig7c().render());
            tables.push(results.render_fig8().render());
            let first_new = report.len();
            report.merge(results.report());
            spill(&report, first_new)?;
            timing = timing.merged(results.timing().clone());
        }
    }
    if matches!(experiment, Experiment::Mechanism | Experiment::All) {
        if let Some(results) =
            MechanismResults::run_exec(config, scale, runner, isolated_cache, exec)?
        {
            note("mechanism", results.timing());
            tables.push(results.render().render());
            let first_new = report.len();
            report.merge(results.report());
            spill(&report, first_new)?;
            timing = timing.merged(results.timing().clone());
        }
    }
    if matches!(experiment, Experiment::Realtime | Experiment::All) {
        // The realtime harness streams its raw per-scenario records through
        // the sink itself (completion order; scenario-id order in a merge);
        // only the aggregated cell records go through the shared report.
        if let Some(results) =
            RealtimeResults::run_exec(config, scale, runner, isolated_cache, sink, exec)?
        {
            note("realtime", results.timing());
            tables.push(results.render().render());
            report.merge(results.report());
            timing = timing.merged(results.timing().clone());
        }
    }
    if matches!(experiment, Experiment::Saturation | Experiment::All) {
        // Like realtime, the saturation harness streams its raw
        // per-scenario points through the sink itself.
        if let Some(results) =
            SaturationResults::run_exec(config, scale, runner, isolated_cache, sink, exec)?
        {
            note("saturation", results.timing());
            tables.push(results.render().render());
            report.merge(results.report());
            timing = timing.merged(results.timing().clone());
        }
    }
    Ok((report, tables, timing))
}

/// The `merge` subcommand: reassemble shard checkpoints into the report an
/// unsharded run would have produced (byte-identical by construction — the
/// aggregation code is the same, fed the same per-scenario values in the
/// same order).
fn merge_main(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut format = Format::Table;
    let mut out_path: Option<String> = None;
    let mut jobs = 0usize;
    let mut timing_table = false;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                format = match it.next().map(String::as_str) {
                    Some("table") => Format::Table,
                    Some("json") => Format::Json,
                    other => return Err(format!("unknown format {other:?}").into()),
                }
            }
            "--out" => out_path = Some(it.next().ok_or("missing output path")?.clone()),
            "--jobs" => jobs = it.next().ok_or("missing job count")?.parse()?,
            "--timing" => timing_table = true,
            "--help" | "-h" => {
                usage();
                return Ok(());
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown merge option {other:?} (see --help)").into())
            }
            path => files.push(path.to_string()),
        }
    }
    if files.is_empty() {
        return Err("merge needs at least one shard checkpoint file".into());
    }

    let merged = MergedValues::load(&files)?;
    let experiment = Experiment::parse(&merged.manifest().experiment)?;
    let mut scale = scale_by_name(&merged.manifest().scale)?;
    scale.seed = merged.manifest().seed;
    if let Some(us) = merged.manifest().depth_trace_us {
        scale = scale.with_depth_trace(Some(SimTime::from_micros(us)));
    }

    let config = SimulatorConfig::default();
    // Only the cheap isolated probes actually simulate during a merge; the
    // sweep bodies are replayed from the checkpoints.
    let runner = SweepRunner::new(jobs);
    let isolated_cache = IsolatedRunCache::new();
    let sink = match &out_path {
        Some(path) => Some(JsonlSink::create(path)?),
        None => None,
    };
    let exec = SweepExec::Merge(&merged);
    let (report, tables, timing) = run_experiments(
        experiment,
        &config,
        &scale,
        &runner,
        &isolated_cache,
        sink.as_ref(),
        &exec,
        timing_table,
    )?;

    match format {
        Format::Table => {
            for table in &tables {
                println!("{table}");
            }
            if timing_table {
                println!("{}", timing.render().render());
            }
        }
        Format::Json => println!("{}", report.to_json()),
    }
    eprintln!(
        "merged {} checkpointed scenarios from {} shard file(s)",
        merged.len(),
        files.len()
    );
    if let (Some(sink), Some(path)) = (&sink, &out_path) {
        eprintln!("streamed {} records to {path}", sink.written());
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cli: Vec<String> = std::env::args().skip(1).collect();
    if cli.first().map(String::as_str) == Some("merge") {
        return merge_main(&cli[1..]);
    }

    let mut experiment = Experiment::All;
    let mut scale_name = "quick".to_string();
    let mut jobs = 0usize;
    let mut format = Format::Table;
    let mut seed: Option<u64> = None;
    let mut affinity = false;
    let mut depth_trace_us: Option<u64> = None;
    let mut timing_table = false;
    let mut out_path: Option<String> = None;
    let mut shard: Option<ShardSpec> = None;
    let mut shard_out: Option<String> = None;

    let mut args = cli.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--experiment" => {
                experiment = Experiment::parse(args.next().as_deref().unwrap_or("(missing)"))?;
            }
            "--scale" => scale_name = args.next().ok_or("missing scale")?,
            "--jobs" => jobs = args.next().ok_or("missing job count")?.parse()?,
            "--out" => out_path = Some(args.next().ok_or("missing output path")?),
            "--format" => {
                format = match args.next().as_deref() {
                    Some("table") => Format::Table,
                    Some("json") => Format::Json,
                    other => return Err(format!("unknown format {other:?}").into()),
                }
            }
            "--seed" => seed = Some(args.next().ok_or("missing seed")?.parse()?),
            "--affinity" => affinity = true,
            "--depth-trace" => {
                depth_trace_us = Some(args.next().ok_or("missing depth-trace interval")?.parse()?);
            }
            "--shard" => {
                shard = Some(ShardSpec::parse(&args.next().ok_or("missing shard spec")?)?);
            }
            "--shard-out" => shard_out = Some(args.next().ok_or("missing shard path")?),
            "--timing" => timing_table = true,
            "--validate" => return validate_stdin(),
            "--help" | "-h" => {
                usage();
                return Ok(());
            }
            other => return Err(format!("unknown option {other:?} (see --help)").into()),
        }
    }

    let mut scale = scale_by_name(&scale_name)?;
    if let Some(seed) = seed {
        scale.seed = seed;
    }
    if let Some(us) = depth_trace_us {
        scale = scale.with_depth_trace(Some(SimTime::from_micros(us)));
    }

    // A shard run writes a checkpoint, not a report; the two outputs are
    // mutually exclusive by design.
    let session = match shard {
        Some(spec) => {
            if out_path.is_some() {
                return Err("--out cannot be combined with --shard: a shard writes a \
                     checkpoint; run `run_sweep merge <shards...> --out FILE` instead"
                    .into());
            }
            let path = shard_out
                .take()
                .unwrap_or_else(|| format!("shard-{}-of-{}.jsonl", spec.index, spec.count));
            let manifest = ShardManifest::new(
                experiment.label(),
                &scale_name,
                scale.seed,
                spec,
                depth_trace_us,
            );
            Some((ShardSession::open(&path, manifest)?, path))
        }
        None => {
            if shard_out.is_some() {
                return Err("--shard-out requires --shard".into());
            }
            None
        }
    };

    let config = SimulatorConfig::default();
    let runner = SweepRunner::new(jobs).with_affinity(affinity);
    // One isolated-run cache for the whole invocation: under
    // `--experiment all` the priority, spatial, mechanism and realtime
    // experiments share the same base configuration, so each distinct
    // isolated scenario simulates exactly once instead of once per
    // experiment.
    let isolated_cache = IsolatedRunCache::new();
    let sink = match &out_path {
        Some(path) => Some(JsonlSink::create(path)?),
        None => None,
    };
    let exec = match &session {
        Some((session, _)) => SweepExec::Shard(session),
        None => SweepExec::Full,
    };

    let (report, tables, timing) = run_experiments(
        experiment,
        &config,
        &scale,
        &runner,
        &isolated_cache,
        sink.as_ref(),
        &exec,
        timing_table,
    )?;

    if let Some((session, path)) = &session {
        // A shard run has no report or tables — its entire output is the
        // checkpoint. Say what happened and stop.
        eprintln!(
            "shard {}: {} scenarios checkpointed this run, {} recovered from a \
             previous run -> {path}",
            session.manifest().shard.label(),
            session.written(),
            session.resumed(),
        );
        return Ok(());
    }

    match format {
        Format::Table => {
            for table in &tables {
                println!("{table}");
            }
            if timing_table {
                println!("{}", timing.render().render());
            }
        }
        Format::Json => println!("{}", report.to_json()),
    }
    // The wall-clock summary is informational and run-to-run varying, so
    // it goes to stderr: `--format json | run_sweep --validate` stays
    // clean.
    eprintln!("{}", timing.summary());
    if let (Some(sink), Some(path)) = (&sink, &out_path) {
        eprintln!("streamed {} records to {path}", sink.written());
    }
    if isolated_cache.hits() > 0 {
        eprintln!(
            "isolated-run cache: {} simulated, {} reused across experiments",
            isolated_cache.misses(),
            isolated_cache.hits()
        );
    }
    if let Some(slowest) = timing.slowest() {
        eprintln!(
            "slowest scenario: {} / {} / {} at {:.2?}",
            slowest.group, slowest.workload, slowest.label, slowest.wall
        );
    }
    Ok(())
}
