//! Counting-allocator checks of what one scenario costs in allocations
//! when a sweep worker streams scenarios through one `SimWorkspace`:
//!
//! * a steady-state scenario allocates at most a fixed bound;
//! * that count does not grow with the scenario's completions;
//! * cloning a `BenchmarkTrace` does not allocate;
//! * the trace interner collapses structurally equal traces onto one
//!   storage.
//!
//! The worker's workspace keeps the event queue and drain scratch from one
//! scenario to the next; each scenario builds its own host model and engine
//! tables, and allocates its result's record vectors.
//!
//! One test per file: the counting global allocator is process-wide. Unlike
//! `alloc_per_event.rs` (which hand-rolls a process-global counter), this
//! installs the library's [`gpreempt_sim::CountingAlloc`], so the runner's
//! per-scenario `allocs` accounting is exercised end to end.

use gpreempt::sweep::{Scenario, SweepPlan, SweepRunner};
use gpreempt::{PolicyKind, SimulatorConfig};
use gpreempt_trace::{parboil, ProcessSpec, Workload};
use gpreempt_types::GpuConfig;

#[global_allocator]
static ALLOC: gpreempt_sim::CountingAlloc = gpreempt_sim::CountingAlloc::new();

fn plan(scenarios: usize, min_completions: u32) -> SweepPlan {
    let gpu = GpuConfig::default();
    let spmv = parboil::benchmark("spmv", &gpu).unwrap();
    let sgemm = parboil::benchmark("sgemm", &gpu).unwrap();
    let mut plan = SweepPlan::new(SimulatorConfig::default());
    for i in 0..scenarios {
        let workload = Workload::new(
            format!("w{i}"),
            vec![
                ProcessSpec::new(spmv.clone()),
                ProcessSpec::new(sgemm.clone()),
            ],
        )
        .with_min_completions(min_completions);
        plan.push(Scenario::new(
            "alloc",
            format!("s{i}"),
            workload,
            PolicyKind::Dss,
        ));
    }
    plan
}

/// Per-scenario allocation counts of a sequential streaming run, whose
/// worker reuses one workspace for the whole stream.
fn allocs_per_scenario(plan: &SweepPlan) -> Vec<u64> {
    SweepRunner::sequential()
        .run_fold_tap(plan, &|_, run| Ok(run.events_processed()), &|_, _| Ok(()))
        .unwrap()
        .outcomes()
        .iter()
        .map(|o| o.allocs)
        .collect()
}

#[test]
fn steady_state_scenarios_allocate_a_small_constant() {
    // Warm lazy statics (benchmark tables) so scenario 0 is not charged for
    // them.
    let _ = allocs_per_scenario(&plan(1, 1));

    let allocs = allocs_per_scenario(&plan(6, 2));

    // Scenario 0 sizes the workspace's queue and scratch; later scenarios
    // allocate their host model, engine tables, run records and fold
    // output. Pinned with wide margin.
    let steady = &allocs[2..];
    for (i, &a) in steady.iter().enumerate() {
        assert!(
            a <= 2_000,
            "scenario {} allocated {a} times in steady state",
            i + 2
        );
    }
    let steady_mean = steady.iter().sum::<u64>() / steady.len() as u64;

    // The bound is O(1) in simulated work too: quintupling the replay
    // target must not proportionally scale steady-state allocations (vector
    // growth amortises to a handful of doublings).
    let longer = allocs_per_scenario(&plan(6, 10));
    let longer_mean = longer[2..].iter().sum::<u64>() / longer[2..].len() as u64;
    assert!(
        longer_mean < steady_mean.max(1) * 3,
        "5x the completions scaled steady-state allocations {steady_mean} -> \
         {longer_mean}; per-scenario cost is not O(1)"
    );

    // The interned-trace saving: a benchmark trace's payloads are frozen
    // behind shared `Arc`s, so cloning one — what the host model does once
    // per process for every scenario — must not allocate at all.
    let gpu = GpuConfig::default();
    let spmv = parboil::benchmark("spmv", &gpu).unwrap();
    let before = gpreempt_sim::thread_allocations();
    for _ in 0..32 {
        std::hint::black_box(spmv.clone());
    }
    assert_eq!(
        gpreempt_sim::thread_allocations(),
        before,
        "BenchmarkTrace::clone allocated; per-scenario trace cloning is no \
         longer interned"
    );

    // And the runner-level consequence: interning structurally equal traces
    // that were built independently collapses them onto one storage.
    let mut interner = gpreempt_trace::TraceInterner::new();
    let a = interner.intern(&parboil::benchmark("spmv", &gpu).unwrap());
    let b = interner.intern(&parboil::benchmark("spmv", &gpu).unwrap());
    assert!(a.same_storage(&b));
    assert_eq!(interner.len(), 1);
}
