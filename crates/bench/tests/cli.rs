//! The command-line drivers fail loudly on bad input: a non-zero exit and
//! an error naming the option at fault, before anything is simulated.

use std::process::Command;

/// Runs `bin` with `args`, asserts it fails, and returns its stderr.
fn failure(bin: &str, args: &[&str]) -> String {
    let output = Command::new(bin)
        .args(args)
        .output()
        .expect("driver binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(
        !output.status.success(),
        "{args:?} succeeded; stderr: {stderr}"
    );
    stderr
}

/// Each case: the arguments, then what stderr must mention — the option,
/// and the bad value when there is one.
fn assert_errors_name_the_option(bin: &str, cases: &[(&[&str], &[&str])]) {
    for &(args, expected) in cases {
        let stderr = failure(bin, args);
        for needle in expected {
            assert!(
                stderr.contains(needle),
                "{args:?}: {needle:?} not in {stderr}"
            );
        }
    }
}

#[test]
fn run_workload_rejects_an_out_of_range_high_priority_index() {
    let stderr = failure(
        env!("CARGO_BIN_EXE_run_workload"),
        &[
            "--high-priority",
            "5",
            "--completions",
            "1",
            "spmv",
            "sgemm",
        ],
    );
    assert!(stderr.contains("--high-priority 5"), "{stderr}");
    assert!(stderr.contains("2 processes"), "{stderr}");
}

#[test]
fn run_workload_errors_name_the_option() {
    assert_errors_name_the_option(
        env!("CARGO_BIN_EXE_run_workload"),
        &[
            (&["--high-priority", "first"], &["--high-priority", "first"]),
            (&["--completions", "-1"], &["--completions", "-1"]),
            (&["--seed", "0x5eed"], &["--seed", "0x5eed"]),
            (&["--deadline-ms", "soon"], &["--deadline-ms", "soon"]),
            (&["--deadline-ms", "0"], &["--deadline-ms"]),
            (&["spmv", "--high-priority"], &["--high-priority"]),
            (&["--policy"], &["--policy"]),
            (&["--mechanism"], &["--mechanism"]),
        ],
    );
}

#[test]
fn run_sweep_errors_name_the_option() {
    assert_errors_name_the_option(
        env!("CARGO_BIN_EXE_run_sweep"),
        &[
            (&["--jobs", "x"], &["--jobs", "x"]),
            (&["--seed", "-3"], &["--seed", "-3"]),
            (&["--depth-trace", "1e3"], &["--depth-trace", "1e3"]),
            (&["merge", "--jobs", "many"], &["--jobs", "many"]),
            (&["--experiment"], &["--experiment"]),
            (&["--scale"], &["--scale"]),
            (&["--format"], &["--format"]),
            (&["--shard"], &["--shard"]),
            (&["--scale", "quick", "--jobs"], &["--jobs"]),
            (&["merge", "--out"], &["--out"]),
        ],
    );
}
