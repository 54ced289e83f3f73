//! Property-based tests over the scheduling policies: whatever the workload
//! mix, DSS keeps the SM partition balanced and every policy eventually
//! finishes every kernel.

use crate::dss::DssPolicy;
use crate::fcfs::FcfsPolicy;
use crate::policy::owned_sms;
use crate::priority::PriorityPolicy;
use crate::rr::RoundRobinPolicy;
use crate::testutil::{toy_launch_with_priority, PolicyHarness};
use gpreempt_gpu::PreemptionMechanism;
use gpreempt_types::{Priority, RtSpec, SimTime};
use proptest::prelude::*;

/// A randomly sized kernel for one process.
#[derive(Debug, Clone, Copy)]
struct Job {
    blocks: u32,
    block_us: u64,
    priority_level: u32,
    /// A relative deadline in microseconds when below 20 000, none
    /// otherwise, so about half of the jobs carry one.
    deadline_us: u64,
}

fn job_strategy() -> impl Strategy<Value = Job> {
    (8u32..400, 2u64..60, 0u32..2, 0u64..40_000).prop_map(
        |(blocks, block_us, priority_level, deadline_us)| Job {
            blocks,
            block_us,
            priority_level,
            deadline_us,
        },
    )
}

fn submit_jobs(harness: &mut PolicyHarness, jobs: &[Job], honour_priority: bool) {
    for (i, job) in jobs.iter().enumerate() {
        let priority = if honour_priority && job.priority_level > 0 {
            Priority::HIGH
        } else {
            Priority::NORMAL
        };
        let mut launch =
            toy_launch_with_priority(i as u64, i as u32, job.blocks, job.block_us, priority);
        if job.deadline_us < 20_000 {
            launch = launch.with_rt(
                RtSpec::implicit(SimTime::from_micros(job.deadline_us)),
                SimTime::ZERO,
            );
        }
        harness.submit(launch);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every policy, with either preemption mechanism, finishes every kernel
    /// it is given (no starvation, no lost work) when each kernel belongs to
    /// its own process, with or without a deadline. The harness checks the
    /// engine's invariants after every event.
    #[test]
    fn every_policy_completes_every_kernel(
        jobs in prop::collection::vec(job_strategy(), 1..8),
        drain in any::<bool>(),
    ) {
        let mechanism = if drain {
            PreemptionMechanism::Draining
        } else {
            PreemptionMechanism::ContextSwitch
        };
        let harnesses = vec![
            PolicyHarness::new(FcfsPolicy::new(), mechanism),
            PolicyHarness::new(PriorityPolicy::npq(), mechanism),
            PolicyHarness::new(PriorityPolicy::ppq_exclusive(), mechanism),
            PolicyHarness::new(PriorityPolicy::ppq_shared(), mechanism),
            PolicyHarness::new(DssPolicy::equal_share(13, jobs.len()), mechanism),
            PolicyHarness::new(PriorityPolicy::gcaps(), mechanism),
            PolicyHarness::new(PriorityPolicy::edf(), mechanism),
            PolicyHarness::with_quantum(
                RoundRobinPolicy::new(),
                mechanism,
                SimTime::from_micros(20),
            ),
        ];
        for mut harness in harnesses {
            submit_jobs(&mut harness, &jobs, true);
            harness.run_to_idle();
            prop_assert_eq!(
                harness.completions().len(),
                jobs.len(),
                "{:?} with {} lost kernels", harness, mechanism
            );
            let total_blocks: u64 = jobs.iter().map(|j| j.blocks as u64).sum();
            prop_assert_eq!(harness.engine().stats().blocks_completed, total_blocks);
            prop_assert!(harness.engine().is_empty());
        }
    }

    /// While several long-running kernels are active, DSS keeps the number
    /// of SMs owned by each within one token of its equal share (Algorithm
    /// 1's steady state).
    #[test]
    fn dss_partition_stays_balanced(
        n_kernels in 2usize..6,
        block_us in 40u64..120,
        seed_blocks in 4_000u32..8_000,
    ) {
        let mut harness = PolicyHarness::new(
            DssPolicy::equal_share(13, n_kernels),
            PreemptionMechanism::ContextSwitch,
        );
        for i in 0..n_kernels {
            harness.submit(toy_launch_with_priority(
                i as u64,
                i as u32,
                seed_blocks,
                block_us,
                Priority::NORMAL,
            ));
        }
        // Let the partitioning settle past the preemption transients.
        harness.run_for(SimTime::from_micros(block_us * 6));
        let owned: Vec<u32> = harness
            .engine()
            .active_kernels()
            .map(|k| owned_sms(harness.engine(), k))
            .collect();
        prop_assert_eq!(owned.len(), n_kernels);
        prop_assert_eq!(owned.iter().sum::<u32>(), 13, "all SMs in use: {:?}", owned);
        let max = *owned.iter().max().unwrap();
        let min = *owned.iter().min().unwrap();
        prop_assert!(max - min <= 1, "unbalanced partition {:?}", owned);
    }

    /// Under the preemptive priority scheduler the single high-priority
    /// kernel always finishes no later than every equal-sized low-priority
    /// kernel that was submitted at the same time.
    #[test]
    fn ppq_high_priority_finishes_first(
        n_low in 1usize..5,
        blocks in 52u32..300,
        block_us in 5u64..50,
    ) {
        let mut harness = PolicyHarness::new(
            PriorityPolicy::ppq_exclusive(),
            PreemptionMechanism::ContextSwitch,
        );
        // Low-priority kernels first, then the high-priority one.
        for i in 0..n_low {
            harness.submit(toy_launch_with_priority(
                i as u64,
                i as u32,
                blocks,
                block_us,
                Priority::NORMAL,
            ));
        }
        let hp_id = n_low as u64;
        harness.submit(toy_launch_with_priority(
            hp_id,
            n_low as u32,
            blocks,
            block_us,
            Priority::HIGH,
        ));
        harness.run_to_idle();
        let finish = |id: u64| {
            harness
                .completions()
                .iter()
                .find(|c| c.launch == gpreempt_types::KernelLaunchId::new(id))
                .map(|c| c.finished_at)
                .expect("kernel completed")
        };
        let hp_finish = finish(hp_id);
        for i in 0..n_low {
            prop_assert!(
                hp_finish <= finish(i as u64),
                "high-priority kernel finished after low-priority kernel {}", i
            );
        }
    }
}
