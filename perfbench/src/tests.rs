//! Self-tests of the benchmark: the replay is the simulator's loop, the
//! digest follows the seed, and what the command prints is what
//! `BENCHMARK.json` declares.

use crate::replay::{replay, ReplayRun, ReplayWorkspace, Tracer, Untraced};
use crate::sweep::{fold, mix, DIGEST_BASIS};
use crate::traced::{scenario_config, simulate, REPLAY_BOUND};
use crate::workloads::{build, Setup, Shape};
use crate::{END_TO_END, PER_LAYER};
use gpreempt::json::Value;
use gpreempt::SimWorkspace;

fn setup(name: &str, seed: u64) -> Setup {
    build(name, seed).expect("known workload").expect("set-up")
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    gpreempt::json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one metric list of `BENCHMARK.json`.
fn declared(json: &Value, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// The first scenario of each shape (the cheapest cell of each sweep
/// comes first) through the simulator and both replays.
#[test]
fn replay_matches_the_simulator_on_a_small_scenario_of_each_shape() {
    for (name, shapes) in [
        ("open-arrival", vec![Shape::OpenArrival]),
        ("closed-preempt", vec![Shape::Prioritized, Shape::Spatial]),
        ("realtime-deadline", vec![Shape::Realtime]),
    ] {
        let setup = setup(name, 7);
        for shape in shapes {
            let id = setup
                .contexts
                .iter()
                .position(|c| c.shape == shape)
                .expect("the workload has this shape");
            let scenario = &setup.plan.scenarios()[id];
            let config = scenario_config(setup.plan.config(), scenario);
            let run = simulate(
                &config,
                &mut SimWorkspace::new(),
                &scenario.workload,
                scenario,
            )
            .expect("simulates");
            let mut ws = ReplayWorkspace::default();
            let (policy, horizon) = (scenario.policy, scenario.horizon);
            let plain = replay(
                &config,
                &mut ws,
                &scenario.workload,
                policy,
                horizon,
                &mut Untraced,
            )
            .expect("replays");
            let mut tracer = Tracer::new(1);
            let traced = replay(
                &config,
                &mut ws,
                &scenario.workload,
                policy,
                horizon,
                &mut tracer,
            )
            .expect("replays traced");
            for result in [plain, traced] {
                ReplayRun::matches(&result, &run)
                    .unwrap_or_else(|e| panic!("{name} {shape:?}: {e}"));
            }
            assert!(tracer.events > 0 && tracer.sampled_events == tracer.events);
        }
    }
}

/// Digest of the first few scenarios' outcomes.
fn partial_digest(setup: &Setup, n: usize) -> u64 {
    let mut ws = SimWorkspace::new();
    setup.plan.scenarios()[..n]
        .iter()
        .map(|scenario| {
            let config = scenario_config(setup.plan.config(), scenario);
            let run = simulate(&config, &mut ws, &scenario.workload, scenario).expect("simulates");
            let outcome = fold(&setup.contexts[scenario.id], scenario, run).expect("folds");
            assert_eq!(outcome.problem, None);
            outcome.digest
        })
        .fold(DIGEST_BASIS, mix)
}

#[test]
fn digest_follows_the_seed() {
    let a = partial_digest(&setup("closed-preempt", 1), 6);
    assert_eq!(a, partial_digest(&setup("closed-preempt", 1), 6));
    assert_ne!(a, partial_digest(&setup("closed-preempt", 2), 6));
}

#[test]
fn printed_metrics_are_the_declared_ones() {
    let json = benchmark_json();
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&json, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&json, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, crate::workloads::WORKLOADS);
}

/// The replay's wall-time check uses the bound `BENCHMARK.json` gives
/// `scenarios_per_s`.
#[test]
fn replay_bound_is_the_throughput_bound() {
    let json = benchmark_json();
    let bound = json
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end")
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("scenarios_per_s"))
        .and_then(|m| m.get("bound"))
        .and_then(Value::as_f64)
        .expect("scenarios_per_s bound");
    assert_eq!(bound, REPLAY_BOUND);
}
