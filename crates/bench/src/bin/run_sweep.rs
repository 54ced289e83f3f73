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

mod cli;

use cli::{number_of, value_of};
use gpreempt::experiments::{
    self, Driver, ExperimentScale, IsolatedRunCache, Registered, SweepOutput,
};
use gpreempt::sweep::{
    JsonlSink, MergedValues, ShardManifest, ShardSession, ShardSpec, SweepExec, SweepReport,
    SweepRunner, SweepTiming,
};
use gpreempt::SimulatorConfig;
use std::io::Read as _;

// Per-scenario allocation accounting for `--timing`: every allocation on a
// worker thread is charged to the scenario it was running. The forwarding
// allocator costs one thread-local increment per allocation — noise next
// to the allocation itself.
#[global_allocator]
static ALLOC: gpreempt::sim::CountingAlloc = gpreempt::sim::CountingAlloc::new();

/// The experiments an `--experiment` selector (or a manifest's) names.
fn select(selector: &str) -> Result<&'static [Registered], String> {
    experiments::select(selector).ok_or_else(|| format!("unknown experiment {selector:?}"))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Table,
    Json,
}

fn parse_format(arg: &str) -> Result<Format, String> {
    match arg {
        "table" => Ok(Format::Table),
        "json" => Ok(Format::Json),
        other => Err(format!("unknown format {other:?}")),
    }
}

/// Prints the tables (plus, with `--timing`, the per-scenario wall-clock
/// table) or the JSON report to stdout.
fn print_output(output: &SweepOutput, format: Format, timing_table: bool) {
    match format {
        Format::Table => {
            for table in &output.tables {
                println!("{}", table.render());
            }
            if timing_table {
                println!("{}", output.timing.render().render());
            }
        }
        Format::Json => println!("{}", output.report.to_json()),
    }
}

fn usage() {
    println!("usage: run_sweep [options]");
    println!("       run_sweep merge SHARD.jsonl... [--format table|json] [--out FILE]");
    let names: Vec<&str> = experiments::EXPERIMENTS.iter().map(|e| e.name).collect();
    println!("  --experiment {}|all (default all)", names.join("|"));
    println!("  --scale quick|bench|paper                          (default quick)");
    println!("  --jobs N          worker threads, 0 = one per CPU  (default 0)");
    println!("  --format table|json                                (default table)");
    println!("  --seed N          workload-generation seed override");
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

/// The named scale with a run's seed override, from the command line or a
/// shard manifest.
fn scale_of(name: &str, seed: Option<u64>) -> Result<ExperimentScale, String> {
    let mut scale = match name {
        "quick" => ExperimentScale::quick(),
        "bench" => ExperimentScale::bench(),
        "paper" => ExperimentScale::paper(),
        other => return Err(format!("unknown scale {other:?}")),
    };
    scale.seed = seed.unwrap_or(scale.seed);
    Ok(scale)
}

/// Per-experiment throughput, printed with `--timing` the moment each
/// experiment completes so a long `--scale paper` run shows progress.
/// Stderr, like the final summary, so piped JSON stays clean.
fn progress(timing_table: bool) -> impl FnMut(&str, &SweepTiming) {
    move |name, t| {
        if timing_table {
            eprintln!(
                "{name}: {} scenarios, {} events in {:.2?} ({:.0} events/s)",
                t.entries.len(),
                t.events,
                t.total,
                t.events_per_sec(),
            );
        }
    }
}

/// The `merge` subcommand: reassemble shard checkpoints into the report an
/// unsharded run would have produced (byte-identical by construction — the
/// aggregation code is the same, fed the same per-scenario values in the
/// same order).
fn merge_main(mut args: impl Iterator<Item = String>) -> Result<(), Box<dyn std::error::Error>> {
    let mut format = Format::Table;
    let mut out_path: Option<String> = None;
    let mut jobs = 0usize;
    let mut timing_table = false;
    let mut files: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => format = parse_format(&value_of(&mut args, "--format")?)?,
            "--out" => out_path = Some(value_of(&mut args, "--out")?),
            "--jobs" => jobs = number_of(&mut args, "--jobs")?,
            "--timing" => timing_table = true,
            "--help" | "-h" => {
                usage();
                return Ok(());
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown merge option {other:?} (see --help)").into())
            }
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        return Err("merge needs at least one shard checkpoint file".into());
    }

    let merged = MergedValues::load(&files)?;
    let manifest = merged.manifest();
    let selection = select(&manifest.experiment)?;
    let scale = scale_of(&manifest.scale, Some(manifest.seed))?;

    let config = SimulatorConfig::default();
    // Only the cheap isolated probes actually simulate during a merge; the
    // sweep bodies are replayed from the checkpoints.
    let runner = SweepRunner::new(jobs);
    let sink = out_path.as_ref().map(JsonlSink::create).transpose()?;
    let driver = Driver {
        config: &config,
        scale: &scale,
        runner: &runner,
        cache: &IsolatedRunCache::new(),
        sink: sink.as_ref(),
        exec: SweepExec::Merge(&merged),
    };
    let output = driver.run_all(selection, progress(timing_table))?;
    print_output(&output, format, timing_table);
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
        return merge_main(cli.into_iter().skip(1));
    }

    let mut experiment = "all".to_string();
    let mut scale_name = "quick".to_string();
    let mut jobs = 0usize;
    let mut format = Format::Table;
    let mut seed: Option<u64> = None;
    let mut timing_table = false;
    let mut out_path: Option<String> = None;
    let mut shard: Option<ShardSpec> = None;
    let mut shard_out: Option<String> = None;

    let mut args = cli.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--experiment" => experiment = value_of(&mut args, "--experiment")?,
            "--scale" => scale_name = value_of(&mut args, "--scale")?,
            "--jobs" => jobs = number_of(&mut args, "--jobs")?,
            "--out" => out_path = Some(value_of(&mut args, "--out")?),
            "--format" => format = parse_format(&value_of(&mut args, "--format")?)?,
            "--seed" => seed = Some(number_of(&mut args, "--seed")?),
            "--shard" => shard = Some(ShardSpec::parse(&value_of(&mut args, "--shard")?)?),
            "--shard-out" => shard_out = Some(value_of(&mut args, "--shard-out")?),
            "--timing" => timing_table = true,
            "--validate" => return validate_stdin(),
            "--help" | "-h" => {
                usage();
                return Ok(());
            }
            other => return Err(format!("unknown option {other:?} (see --help)").into()),
        }
    }

    let selection = select(&experiment)?;
    let scale = scale_of(&scale_name, seed)?;

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
            let manifest = ShardManifest::new(&experiment, &scale_name, &scale, spec);
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
    let runner = SweepRunner::new(jobs);
    // One isolated-run cache for the whole invocation: under
    // `--experiment all` the priority, spatial, mechanism and realtime
    // experiments share the same base configuration, so each distinct
    // isolated scenario simulates exactly once instead of once per
    // experiment.
    let isolated_cache = IsolatedRunCache::new();
    let sink = out_path.as_ref().map(JsonlSink::create).transpose()?;
    let driver = Driver {
        config: &config,
        scale: &scale,
        runner: &runner,
        cache: &isolated_cache,
        sink: sink.as_ref(),
        exec: match &session {
            Some((session, _)) => SweepExec::Shard(session),
            None => SweepExec::Full,
        },
    };
    let output = driver.run_all(selection, progress(timing_table))?;

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

    print_output(&output, format, timing_table);
    let timing = &output.timing;
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
