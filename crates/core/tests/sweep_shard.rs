//! Sharded sweep execution: the stripe partition is exact for any plan and
//! shard count, a killed shard resumes from its checkpoint discarding a
//! torn tail, the merged output is byte-identical to an unsharded
//! multi-worker run, and checkpoints written before the fold values' codecs
//! were derived still decode to the same values and merge to the same
//! report.

use gpreempt::experiments::{
    schema_fingerprint, select, Driver, Experiment, ExperimentScale, Fig2Results, Fig2Timeline,
    IsolatedRunCache, MechanismOutcome, PriorityOutcome, RealtimePoint, SaturationPoint,
    SpatialOutcome,
};
use gpreempt::json;
use gpreempt::sweep::{
    Checkpoint, MergedValues, ShardManifest, ShardSession, ShardSpec, SweepExec, SweepRunner,
};
use gpreempt::{PolicyKind, SimulatorConfig};
use gpreempt_types::SimTime;
use proptest::prelude::*;
use std::path::PathBuf;

/// The checkpoint `run_sweep --experiment fig2 --scale quick --shard 0/1`
/// wrote before the codecs were derived from the fold values' fields.
const FIG2_QUICK_SHARD: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/fig2_quick_shard_0_of_1.jsonl"
);

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gpreempt-shard-it-{tag}-{}.jsonl",
        std::process::id()
    ))
}

fn scale(seed: u64) -> ExperimentScale {
    let mut scale = ExperimentScale::quick();
    scale.seed = seed;
    scale
}

fn manifest(shard: ShardSpec) -> ShardManifest {
    ShardManifest::new("fig2", "quick", &scale(42), shard)
}

/// Runs the fig2 experiment on `jobs` workers under `exec`.
fn fig2(jobs: usize, exec: SweepExec<'_>) -> Option<Fig2Results> {
    Driver {
        config: &SimulatorConfig::default(),
        scale: &ExperimentScale::quick(),
        runner: &SweepRunner::new(jobs),
        cache: &IsolatedRunCache::new(),
        sink: None,
        exec,
    }
    .run()
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any plan size and any shard count up to 8, the stripes form an
    /// exact partition of the scenario population: every id is owned by
    /// exactly one shard, so the union of the shards covers the plan and
    /// no scenario is simulated twice.
    #[test]
    fn stripes_partition_any_plan(len in 0u64..200, count in 1u32..9) {
        let shards: Vec<ShardSpec> =
            (0..count).map(|index| ShardSpec { index, count }).collect();
        let mut covered = vec![0u32; len as usize];
        for shard in &shards {
            for (id, hits) in covered.iter_mut().enumerate() {
                if shard.owns(id) {
                    *hits += 1;
                }
            }
        }
        prop_assert!(covered.iter().all(|&hits| hits == 1));
        // The CLI spelling round-trips.
        for shard in &shards {
            prop_assert_eq!(ShardSpec::parse(&shard.label()).unwrap(), *shard);
        }
    }
}

/// Three shard runs (each on a 2-worker runner) merged back together
/// reproduce the unsharded `jobs = 2` run exactly, down to the report
/// bytes.
#[test]
fn merged_shards_match_unsharded_two_worker_run() {
    let full = fig2(2, SweepExec::Full).unwrap();

    let paths: Vec<PathBuf> = (0..3).map(|k| temp_path(&format!("merge-{k}"))).collect();
    for (k, path) in paths.iter().enumerate() {
        let _ = std::fs::remove_file(path);
        let spec = ShardSpec {
            index: k as u32,
            count: 3,
        };
        let session = ShardSession::open(path, manifest(spec)).unwrap();
        let out = fig2(2, SweepExec::Shard(&session));
        assert!(out.is_none(), "a shard run yields no aggregated results");
    }

    let merged = MergedValues::load(&paths).unwrap();
    let replayed = fig2(1, SweepExec::Merge(&merged)).expect("merge yields results");
    assert_eq!(replayed, full);
    assert_eq!(replayed.report().to_json(), full.report().to_json());

    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
}

/// Kill-at-scenario-i: truncating the checkpoint after its first record —
/// with a torn half-written line at the tail, as a `kill -9` mid-write
/// leaves behind — must resume cleanly: the torn tail is discarded, the
/// completed record is kept, and the finished shard file and merged
/// results are identical to the uninterrupted run's.
#[test]
fn killed_shard_resumes_and_matches() {
    let spec = ShardSpec { index: 0, count: 1 };
    let path = temp_path("resume");
    let _ = std::fs::remove_file(&path);

    let session = ShardSession::open(&path, manifest(spec)).unwrap();
    fig2(1, SweepExec::Shard(&session));
    assert_eq!(session.written(), 3);
    drop(session);
    let complete = std::fs::read_to_string(&path).unwrap();

    // Keep the manifest line and the first record, then tear the next
    // record mid-line.
    let mut lines = complete.lines();
    let kept = format!("{}\n{}\n", lines.next().unwrap(), lines.next().unwrap());
    let torn = &lines.next().unwrap()[..20];
    std::fs::write(&path, format!("{kept}{torn}")).unwrap();

    let session = ShardSession::open(&path, manifest(spec)).unwrap();
    assert_eq!(session.resumed(), 1, "torn tail must not count as done");
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        kept,
        "reopening must rewrite the file without the torn tail"
    );
    assert_eq!(session.pending_ids("fig2", 3), vec![1, 2]);
    fig2(1, SweepExec::Shard(&session));
    assert_eq!(session.written(), 2, "only the lost scenarios re-run");
    drop(session);
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        complete,
        "resumed shard file must equal the uninterrupted one"
    );

    let merged = MergedValues::load(&[&path]).unwrap();
    let replayed = fig2(1, SweepExec::Merge(&merged)).unwrap();
    let full = fig2(1, SweepExec::Full).unwrap();
    assert_eq!(replayed, full);

    let _ = std::fs::remove_file(&path);
}

/// A checkpoint written under one configuration must refuse to resume
/// under another: silently mixing seeds would merge incompatible
/// simulations.
#[test]
fn mismatched_manifest_is_rejected() {
    let path = temp_path("mismatch");
    let _ = std::fs::remove_file(&path);
    let spec = ShardSpec { index: 0, count: 1 };
    drop(ShardSession::open(&path, manifest(spec)).unwrap());

    let other = ShardManifest::new("fig2", "quick", &scale(43), spec);
    let err = ShardSession::open(&path, other).unwrap_err().to_string();
    assert!(err.contains("seed"), "error must name the field: {err}");

    let _ = std::fs::remove_file(&path);
}

/// The fingerprint every checkpoint written so far carries: derived from
/// the fold values' declared fields, it must equal the value the
/// hand-kept schema list produced.
#[test]
fn schema_fingerprint_is_unchanged() {
    assert_eq!(schema_fingerprint(), 4222319021691841659);
}

/// One value of every experiment encodes to exactly the line the
/// hand-written codecs wrote for it (first scenario of each experiment in
/// `run_sweep --experiment all --scale quick --shard 0/1`).
#[test]
fn derived_encodings_match_the_hand_written_codecs() {
    fn encoded<T: Checkpoint>(value: &T) -> String {
        value.encode().to_json()
    }
    assert_eq!(
        encoded(&Fig2Timeline {
            policy: PolicyKind::Fcfs,
            k1_finish: SimTime::from_nanos(2027091),
            k2_finish: SimTime::from_nanos(4054366),
            k3_start: SimTime::from_nanos(4054366),
            k3_finish: SimTime::from_nanos(4107807),
        }),
        r#"{"policy":"FCFS","k1_finish_ns":2027091,"k2_finish_ns":4054366,"k3_start_ns":4054366,"k3_finish_ns":4107807}"#
    );
    assert_eq!(
        encoded(&PriorityOutcome {
            ntt_high_priority: 1.724251583316791,
            stp: 1.1394796482741998,
        }),
        r#"{"ntt_high_priority":1.724251583316791,"stp":1.1394796482741998}"#
    );
    assert_eq!(
        encoded(&SpatialOutcome {
            ntt: vec![3.2084275821434485, 1.014428329649593],
            antt: 2.111427955896521,
            stp: 1.2974560418487573,
            fairness: 0.3161761653264075,
        }),
        r#"{"ntt":[3.2084275821434485,1.014428329649593],"antt":2.111427955896521,"stp":1.2974560418487573,"fairness":0.3161761653264075}"#
    );
    assert_eq!(
        encoded(&MechanismOutcome {
            antt: 1.6625764733159136,
            stp: 1.2031427922809663,
            fairness: 0.9751395019345164,
            preemptions: 769,
            preemptions_completed: 769,
            mean_preemption_latency: SimTime::from_nanos(6494),
            drain_picks: 0,
            cs_picks: 0,
            mean_estimate_error: SimTime::ZERO,
        }),
        r#"{"antt":1.6625764733159136,"stp":1.2031427922809663,"fairness":0.9751395019345164,"preemptions":769,"preemptions_completed":769,"mean_preemption_latency_ns":6494,"drain_picks":0,"cs_picks":0,"mean_estimate_error_ns":0}"#
    );
    assert_eq!(
        encoded(&RealtimePoint {
            miss_rate: 0.14285714285714285,
            mean_response_us: 10283.32,
            max_tardiness_us: 3880.295,
            completed: 7,
            missed: 1,
            preemptions: 0,
            mean_preempt_latency_us: 0.0,
        }),
        r#"{"miss_rate":0.14285714285714285,"mean_response_us":10283.32,"max_tardiness_us":3880.295,"completed":7,"missed":1,"preemptions":0,"mean_preempt_latency_us":0}"#
    );
    assert_eq!(
        encoded(&SaturationPoint {
            released: 16,
            shed: 0,
            completed: 12,
            shed_rate: 0.0,
            p50_us: 3163.3555,
            p99_us: 5633.254890000001,
            p999_us: 5652.955989,
            mean_queue_depth: 0.07362186666169344,
            max_queue_depth: 2,
            throughput_per_sec: 158.0471941565527,
            preemptions: 0,
            depth_traces: vec![vec![], vec![]],
        }),
        r#"{"released":16,"shed":0,"completed":12,"shed_rate":0,"p50_us":3163.3555,"p99_us":5633.254890000001,"p999_us":5652.955989,"mean_queue_depth":0.07362186666169344,"max_queue_depth":2,"throughput_per_sec":158.0471941565527,"preemptions":0,"depth_traces":[[],[]]}"#
    );
}

/// Encode → JSON text → decode, returning the decoded value after checking
/// that it re-encodes to the same text.
fn round_trip<T: Checkpoint>(value: &T) -> T {
    let text = value.encode().to_json();
    let back = T::decode(&json::parse(&text).unwrap()).unwrap();
    assert_eq!(back.encode().to_json(), text);
    back
}

/// Values report JSON cannot carry survive a checkpoint bit for bit: a
/// starved process's ∞ NTT, an empty run's NaN percentile, and nested
/// depth traces.
#[test]
fn non_finite_and_nested_values_round_trip_bit_exactly() {
    let starved = PriorityOutcome {
        ntt_high_priority: f64::INFINITY,
        stp: 0.5,
    };
    assert_eq!(round_trip(&starved), starved);

    let spatial = SpatialOutcome {
        ntt: vec![1.25, f64::INFINITY],
        antt: f64::INFINITY,
        stp: 1.0 / 3.0,
        fairness: 0.0,
    };
    assert_eq!(round_trip(&spatial), spatial);

    let idle = SaturationPoint {
        released: 3,
        shed: 3,
        completed: 0,
        shed_rate: 1.0,
        p50_us: f64::NAN,
        p99_us: f64::NAN,
        p999_us: f64::NEG_INFINITY,
        mean_queue_depth: 3.999_999_999_999_999_6,
        max_queue_depth: u32::MAX,
        throughput_per_sec: 0.0,
        preemptions: u64::MAX,
        depth_traces: vec![vec![0, 1, 4, u32::MAX], vec![], vec![2]],
    };
    let back = round_trip(&idle);
    assert_eq!(back.p50_us.to_bits(), f64::NAN.to_bits());
    assert_eq!(back.p99_us.to_bits(), f64::NAN.to_bits());
    assert_eq!(back.p999_us, f64::NEG_INFINITY);
    assert_eq!(
        back.mean_queue_depth.to_bits(),
        idle.mean_queue_depth.to_bits()
    );
    assert_eq!(back.depth_traces, idle.depth_traces);
    assert_eq!(
        (back.max_queue_depth, back.preemptions),
        (u32::MAX, u64::MAX)
    );

    let missed = RealtimePoint {
        miss_rate: 1.0,
        mean_response_us: f64::NAN,
        max_tardiness_us: f64::INFINITY,
        completed: 0,
        missed: 4,
        preemptions: 2,
        mean_preempt_latency_us: 12.5,
    };
    assert!(round_trip(&missed).mean_response_us.is_nan());
}

/// A checkpoint written before the codecs were derived merges, under the
/// derived codecs, to the report a full run emits.
#[test]
fn committed_fig2_checkpoint_merges_to_the_full_report() {
    let merged = MergedValues::load(&[FIG2_QUICK_SHARD]).unwrap();
    assert_eq!(merged.manifest().schema, schema_fingerprint());
    assert_eq!(merged.len(), 3);
    let experiments = select(&merged.manifest().experiment).unwrap();
    let report = |exec| {
        Driver {
            config: &SimulatorConfig::default(),
            scale: &scale(merged.manifest().seed),
            runner: &SweepRunner::sequential(),
            cache: &IsolatedRunCache::new(),
            sink: None,
            exec,
        }
        .run_all(experiments, |_, _| {})
        .unwrap()
        .report
        .to_json()
    };
    assert_eq!(report(SweepExec::Merge(&merged)), report(SweepExec::Full));
    assert_eq!(
        fig2(1, SweepExec::Merge(&merged)),
        fig2(1, SweepExec::Full),
        "the decoded timelines equal the simulated ones"
    );
}
