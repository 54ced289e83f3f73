//! Golden byte-identity fixture for the full experiment sweep.
//!
//! Runs every registered experiment in registry order through one driver
//! over one shared isolated-run cache — the combined report `run_sweep
//! --experiment all --format json` emits — at a trimmed quick scale, and
//! pins its bytes. Workspace reuse, parallel execution, sharding and
//! every future refactor must reproduce this file bit for bit;
//! an *intentional* output change regenerates it with:
//!
//! ```text
//! GPREEMPT_BLESS=1 cargo test -p gpreempt --test sweep_golden
//! ```

use gpreempt::experiments::{Driver, ExperimentScale, IsolatedRunCache, SweepOutput, EXPERIMENTS};
use gpreempt::sweep::{
    MergedValues, ShardManifest, ShardSession, ShardSpec, SweepExec, SweepRunner,
};
use gpreempt::SimulatorConfig;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/all_experiments_sweep.json"
);

fn tiny_scale() -> ExperimentScale {
    let mut scale = ExperimentScale::quick().with_benchmarks(["spmv", "sgemm", "mri-q"]);
    scale.workload_sizes = vec![2];
    scale.reps_per_benchmark = 1;
    scale.random_workloads = 2;
    scale
}

/// `run_sweep --experiment all` in miniature, under `exec`.
fn sweep(jobs: usize, exec: SweepExec<'_>) -> SweepOutput {
    let config = SimulatorConfig::default();
    let scale = tiny_scale();
    let driver = Driver {
        config: &config,
        scale: &scale,
        runner: &SweepRunner::new(jobs),
        cache: &IsolatedRunCache::new(),
        sink: None,
        exec,
    };
    driver.run_all(&EXPERIMENTS, |_, _| {}).unwrap()
}

/// The same sweep as three single-worker `--shard k/3` runs merged back.
fn sharded_json() -> String {
    let paths: Vec<_> = (0..3)
        .map(|k| {
            std::env::temp_dir().join(format!(
                "gpreempt-golden-shard-{k}-{}.jsonl",
                std::process::id()
            ))
        })
        .collect();
    for (index, path) in (0..).zip(&paths) {
        let _ = std::fs::remove_file(path);
        let shard = ShardSpec { index, count: 3 };
        let manifest = ShardManifest::new("all", "quick", &tiny_scale(), shard);
        let session = ShardSession::open(path, manifest).unwrap();
        let output = sweep(1, SweepExec::Shard(&session));
        assert!(output.report.is_empty(), "a shard aggregates nothing");
    }
    let merged = MergedValues::load(&paths).unwrap();
    let json = sweep(1, SweepExec::Merge(&merged)).report.to_json();
    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
    json
}

#[test]
fn all_experiment_sweep_json_is_byte_identical_to_golden() {
    let json = sweep(2, SweepExec::Full).report.to_json();
    if std::env::var("GPREEMPT_BLESS").is_ok() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
            .expect("create golden dir");
        std::fs::write(GOLDEN, &json).expect("write golden fixture");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden fixture missing; run with GPREEMPT_BLESS=1 to create it");
    assert_eq!(
        json, golden,
        "experiment-sweep output drifted from the golden fixture"
    );
    // The fixture is worker-count and execution-mode independent by
    // construction. The second pass keeps that claim honest on one
    // worker, through every experiment's shard checkpoint and merge.
    assert_eq!(
        sharded_json(),
        golden,
        "sequential three-shard sweep merged back diverged from the golden fixture"
    );
}
