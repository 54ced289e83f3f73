//! The urgency-ordered schedulers: NPQ, PPQ, GCAPS and EDF.
//!
//! All four run one algorithm: serve the active kernels in urgency order,
//! let each take the idle SMs, then preempt running kernels it strictly
//! outranks. What differs between them is data:
//!
//! * **NPQ** and **PPQ** rank by priority alone (§4.2). NPQ waits for SMs to
//!   become free; PPQ uses the engine's preemption mechanism to take SMs
//!   away from lower-priority kernels. PPQ comes in two flavours (§4.3):
//!   *exclusive access*, where lower-priority kernels are kept off the
//!   execution engine while any higher-priority kernel is active, and
//!   *shared access*, where leftover SMs are handed to lower-priority
//!   kernels (back-to-back execution), at the cost of preempting them again
//!   shortly after.
//! * **GCAPS** — GPU Context-Aware Preemptive Scheduling (Wang et al. 2024)
//!   — is exclusive PPQ that ranks by priority, then earliest absolute
//!   deadline, so a kernel may also preempt an equal-priority kernel whose
//!   deadline is strictly later. Such a deadline race goes ahead only when
//!   [`ExecutionEngine::expected_preemption_latency`] (from the online
//!   estimates the adaptive mechanism selector acts on) expects the
//!   hand-over to complete inside the waiter's remaining slack.
//!   Priority preemptions are never slack-gated, so a kernel that has
//!   slipped past its deadline still outranks lower-priority work. With no
//!   deadlines every urgency's deadline part is equal, so GCAPS makes
//!   exactly the decisions of [`PriorityPolicy::ppq_exclusive`] by
//!   construction (regression-tested in the workspace test suite).
//! * **EDF** ranks by earliest absolute deadline alone and preempts
//!   cost-blind: it is the real-time baseline GCAPS is compared against, so
//!   every cycle EDF spends on an unprofitable hand-over shows up as the gap
//!   between the two policies' deadline-miss rates.

use crate::policy::{assign_idle_sms, owned_sms, select_victim, SchedulingPolicy};
use gpreempt_gpu::{ExecutionEngine, KernelState, KsrIndex};
use gpreempt_types::{KernelLaunchId, Priority, SimTime, SmId};
use std::cmp::Reverse;

/// How urgent a kernel is; larger is more urgent. The deadline part is
/// `SimTime::MAX` for kernels without a deadline (and for every kernel when
/// the policy ignores deadlines), so those rank last within their priority.
type Urgency = (Priority, Reverse<SimTime>);

/// Which parts of the urgency a policy ranks by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rank {
    /// Priority only (NPQ, PPQ).
    Priority,
    /// Absolute deadline only (EDF).
    Deadline,
    /// Priority, then absolute deadline (GCAPS).
    Both,
}

impl Rank {
    fn urgency(self, kernel: &KernelState) -> Urgency {
        let deadline = || Reverse(kernel.deadline().unwrap_or(SimTime::MAX));
        match self {
            Rank::Priority => (kernel.launch().priority, Reverse(SimTime::MAX)),
            Rank::Deadline => (Priority::NORMAL, deadline()),
            Rank::Both => (kernel.launch().priority, deadline()),
        }
    }
}

/// When a waiter may take an SM from a running kernel it strictly outranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Preempt {
    /// Never: the waiter only gets SMs that fall idle (NPQ).
    Never,
    /// Always (PPQ, EDF).
    Always,
    /// A priority preemption always; a deadline race only when the expected
    /// hand-over latency fits the waiter's remaining slack (GCAPS).
    WithinSlack,
}

/// An urgency-ordered scheduler: NPQ, PPQ (exclusive or shared access),
/// GCAPS or EDF, depending on the constructor.
#[derive(Debug)]
pub struct PriorityPolicy {
    name: &'static str,
    rank: Rank,
    /// While a kernel of the highest active priority is active, kernels of
    /// lower priority stay off the engine even if SMs are idle.
    exclusive: bool,
    preempt: Preempt,
    /// Scratch for the active kernels in urgency order, each with its
    /// urgency and admission time; reused across hooks.
    order: Vec<(Urgency, SimTime, KsrIndex)>,
}

impl PriorityPolicy {
    fn new(name: &'static str, rank: Rank, exclusive: bool, preempt: Preempt) -> Self {
        PriorityPolicy {
            name,
            rank,
            exclusive,
            preempt,
            order: Vec::new(),
        }
    }

    /// Non-preemptive priority queues: idle SMs always go to the
    /// highest-priority kernel that still has thread blocks to issue;
    /// running kernels are never disturbed.
    pub fn npq() -> Self {
        Self::new("NPQ", Rank::Priority, false, Preempt::Never)
    }

    /// Preemptive priority queues with exclusive access for the
    /// highest-priority process.
    pub fn ppq_exclusive() -> Self {
        Self::new("PPQ-exclusive", Rank::Priority, true, Preempt::Always)
    }

    /// Preemptive priority queues that backfill idle SMs with lower-priority
    /// kernels.
    pub fn ppq_shared() -> Self {
        Self::new("PPQ-shared", Rank::Priority, false, Preempt::Always)
    }

    /// GCAPS: exclusive PPQ refined by earliest deadline, with deadline
    /// races gated on the waiter's slack.
    pub fn gcaps() -> Self {
        Self::new("GCAPS", Rank::Both, true, Preempt::WithinSlack)
    }

    /// Earliest deadline first, work-conserving and cost-blind.
    pub fn edf() -> Self {
        Self::new("EDF", Rank::Deadline, false, Preempt::Always)
    }

    fn schedule(&mut self, now: SimTime, engine: &mut ExecutionEngine) {
        let rank = self.rank;
        // One lookup per kernel yields its sort key and the highest priority
        // among unfinished kernels.
        let mut top = None;
        self.order.clear();
        self.order.extend(engine.active_kernels().map(|k| {
            let kernel = engine.kernel(k).expect("active kernel");
            if !kernel.is_finished() {
                top = top.max(Some(kernel.launch().priority));
            }
            (rank.urgency(kernel), kernel.admitted_at(), k)
        }));
        self.order.sort_unstable_by_key(|&(urgency, admitted, k)| {
            (Reverse(urgency), admitted, k.index())
        });
        let top = match (self.exclusive, top) {
            (false, _) => None,
            (true, Some(top)) => Some(top),
            (true, None) => return,
        };
        // Victims run active kernels, so a waiter no more urgent than the
        // least urgent active kernel has none and skips the victim scan.
        let least = self.order.last().map(|&(urgency, _, _)| urgency);
        for i in 0..self.order.len() {
            if self.preempt == Preempt::Never && engine.idle_sms().next().is_none() {
                break;
            }
            let (waiter, _, ksr) = self.order[i];
            let Some(kernel) = engine.kernel(ksr) else {
                continue;
            };
            if !kernel.has_blocks_to_issue() {
                continue;
            }
            if top.is_some_and(|top| kernel.launch().priority < top) {
                break;
            }
            // First soak up idle SMs.
            assign_idle_sms(now, engine, ksr, None);
            if self.preempt == Preempt::Never || Some(waiter) <= least {
                continue;
            }
            // Then, while the kernel still needs SMs, preempt the least
            // urgent kernels it strictly outranks.
            while let Some(kernel) = engine.kernel(ksr) {
                if kernel.sms_needed() <= owned_sms(engine, ksr) {
                    break;
                }
                let Some((sm, (Reverse(victim), _))) = select_victim(engine, |engine, current| {
                    let state = engine.kernel(current)?;
                    let victim = rank.urgency(state);
                    (victim < waiter).then_some((Reverse(victim), state.admitted_at()))
                }) else {
                    break;
                };
                // An equal-priority victim means a deadline race, and a
                // hand-over that lands after the waiter's deadline cannot
                // win it.
                if self.preempt == Preempt::WithinSlack
                    && victim.0 == waiter.0
                    && kernel
                        .slack(now)
                        .is_some_and(|slack| engine.expected_preemption_latency(now, sm) > slack)
                {
                    break;
                }
                if !engine.preempt_sm(now, sm, ksr) {
                    break;
                }
            }
        }
    }
}

impl SchedulingPolicy for PriorityPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_kernel_admitted(&mut self, now: SimTime, _ksr: KsrIndex, engine: &mut ExecutionEngine) {
        self.schedule(now, engine);
    }

    fn on_sm_idle(&mut self, now: SimTime, _sm: SmId, engine: &mut ExecutionEngine) {
        self.schedule(now, engine);
    }

    fn on_kernel_finished(
        &mut self,
        now: SimTime,
        _ksr: KsrIndex,
        _launch: KernelLaunchId,
        engine: &mut ExecutionEngine,
    ) {
        self.schedule(now, engine);
    }

    fn on_deadline_approaching(
        &mut self,
        now: SimTime,
        _ksr: KsrIndex,
        _deadline: SimTime,
        engine: &mut ExecutionEngine,
    ) {
        // The endangered kernel's slack just crossed the warning margin; a
        // deadline-ranked policy reschedules so it can claim SMs (or
        // preempt) before it is too late.
        if self.rank != Rank::Priority {
            self.schedule(now, engine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{toy_launch, toy_launch_with_priority, PolicyHarness};
    use gpreempt_gpu::{KernelLaunch, PreemptionMechanism};
    use gpreempt_types::{Criticality, RtSpec};

    fn rt_launch(
        id: u64,
        process: u32,
        blocks: u32,
        block_us: u64,
        deadline_us: u64,
    ) -> KernelLaunch {
        toy_launch(id, process, blocks, block_us).with_rt(
            RtSpec::implicit(SimTime::from_micros(deadline_us)),
            SimTime::ZERO,
        )
    }

    /// With NPQ the high-priority kernel waits for resident blocks to finish
    /// naturally; with PPQ (context switch) it starts almost immediately.
    #[test]
    fn ppq_starts_high_priority_sooner_than_npq() {
        let finish_hp = |policy: Box<dyn SchedulingPolicy>| -> SimTime {
            let mut h = PolicyHarness::new_boxed(policy, PreemptionMechanism::ContextSwitch.into());
            // A long low-priority kernel occupies the GPU...
            h.submit(toy_launch(0, 0, 2_000, 400));
            h.run_for(SimTime::from_micros(50));
            // ... then a short high-priority kernel arrives.
            h.submit(toy_launch_with_priority(1, 1, 104, 20, Priority::HIGH));
            h.run_to_idle();
            h.completions()
                .iter()
                .find(|c| c.launch == gpreempt_types::KernelLaunchId::new(1))
                .unwrap()
                .finished_at
        };
        let npq = finish_hp(Box::new(PriorityPolicy::npq()));
        let ppq = finish_hp(Box::new(PriorityPolicy::ppq_exclusive()));
        assert!(
            ppq < npq,
            "PPQ should finish the high-priority kernel earlier: ppq={ppq} npq={npq}"
        );
        // NPQ has to wait ~400us for resident blocks; PPQ preempts within
        // tens of microseconds.
        assert!(ppq < SimTime::from_micros(200), "ppq={ppq}");
        assert!(npq > SimTime::from_micros(400), "npq={npq}");
    }

    #[test]
    fn npq_never_preempts_but_prioritizes_idle_sms() {
        let mut h = PolicyHarness::new(PriorityPolicy::npq(), PreemptionMechanism::ContextSwitch);
        h.submit(toy_launch(0, 0, 300, 50));
        h.run_for(SimTime::from_micros(10));
        h.submit(toy_launch_with_priority(1, 1, 50, 10, Priority::HIGH));
        h.submit(toy_launch(2, 2, 50, 10));
        h.run_to_idle();
        assert_eq!(h.engine().stats().preemptions, 0);
        let done = h.completions();
        let t = |id: u64| {
            done.iter()
                .find(|c| c.launch == gpreempt_types::KernelLaunchId::new(id))
                .unwrap()
                .finished_at
        };
        // The high-priority late arrival still beats the equal-priority one.
        assert!(t(1) <= t(2));
    }

    #[test]
    fn exclusive_ppq_keeps_low_priority_off_the_gpu() {
        let mut h = PolicyHarness::new(
            PriorityPolicy::ppq_exclusive(),
            PreemptionMechanism::ContextSwitch,
        );
        // High-priority kernel that cannot fill the GPU (needs 2 SMs).
        h.submit(toy_launch_with_priority(0, 0, 16, 200, Priority::HIGH));
        // Low-priority kernel that would love the 11 idle SMs.
        h.submit(toy_launch(1, 1, 88, 10));
        h.run_for(SimTime::from_micros(50));
        // While the high-priority kernel is active, the low-priority kernel
        // must not have started.
        let lp_started = h
            .engine()
            .active_kernels()
            .filter_map(|k| h.engine().kernel(k))
            .any(|k| k.launch().process == gpreempt_types::ProcessId::new(1) && k.has_started());
        assert!(!lp_started, "exclusive access violated");
        h.run_to_idle();
        assert_eq!(h.completions().len(), 2);
    }

    #[test]
    fn shared_ppq_backfills_idle_sms() {
        let mut h = PolicyHarness::new(
            PriorityPolicy::ppq_shared(),
            PreemptionMechanism::ContextSwitch,
        );
        h.submit(toy_launch_with_priority(0, 0, 16, 200, Priority::HIGH));
        h.submit(toy_launch(1, 1, 88, 10));
        h.run_to_idle();
        assert_eq!(h.completions().len(), 2);
        let t = |id: u64| {
            h.completions()
                .iter()
                .find(|c| c.launch == gpreempt_types::KernelLaunchId::new(id))
                .unwrap()
                .finished_at
        };
        // With shared access the low-priority kernel runs on the 11 idle SMs
        // and finishes long before the 200us high-priority blocks do.
        assert!(
            t(1) < t(0),
            "low-priority kernel should backfill: {} vs {}",
            t(1),
            t(0)
        );
        assert!(t(1) < SimTime::from_micros(60));
    }

    #[test]
    fn ppq_with_draining_waits_for_thread_blocks() {
        // Same scenario as the NPQ/PPQ comparison but with the draining
        // mechanism: the hand-over happens at a thread-block boundary, so the
        // high-priority kernel starts later than with context switch but
        // earlier than with no preemption at all.
        let finish_hp = |mechanism: PreemptionMechanism| -> SimTime {
            let mut h = PolicyHarness::new(PriorityPolicy::ppq_exclusive(), mechanism);
            h.submit(toy_launch(0, 0, 2_000, 400));
            h.run_for(SimTime::from_micros(50));
            h.submit(toy_launch_with_priority(1, 1, 104, 20, Priority::HIGH));
            h.run_to_idle();
            h.completions()
                .iter()
                .find(|c| c.launch == gpreempt_types::KernelLaunchId::new(1))
                .unwrap()
                .finished_at
        };
        let cs = finish_hp(PreemptionMechanism::ContextSwitch);
        let drain = finish_hp(PreemptionMechanism::Draining);
        assert!(
            cs < drain,
            "context switch should be faster: cs={cs} drain={drain}"
        );
        // Draining still beats waiting for the whole 400us block tail plus
        // the remaining waves of the low-priority kernel.
        assert!(drain < SimTime::from_micros(600), "drain={drain}");
    }

    #[test]
    fn urgency_ordering_rules() {
        let urgency = |priority: Priority, deadline_us: Option<u64>| -> Urgency {
            let deadline = deadline_us.map_or(SimTime::MAX, SimTime::from_micros);
            (priority, Reverse(deadline))
        };
        let outranks = |waiter: Urgency, victim: Urgency| victim < waiter;
        let a = urgency(Priority::HIGH, None);
        let b = urgency(Priority::NORMAL, Some(1));
        assert!(outranks(a, b), "priority dominates deadlines");
        let c = urgency(Priority::NORMAL, Some(5));
        assert!(outranks(b, c), "earlier deadline wins at equal priority");
        let d = urgency(Priority::NORMAL, None);
        assert!(outranks(c, d), "any deadline outranks none");
        assert!(!outranks(d, d), "irreflexive");

        // Each rank reads only its parts of the launch.
        let mut engine = ExecutionEngine::new(
            gpreempt_types::GpuConfig::default(),
            gpreempt_types::PreemptionConfig::default(),
            gpreempt_gpu::EngineParams::default(),
            gpreempt_sim::SimRng::new(1),
        );
        let launch = toy_launch_with_priority(0, 0, 8, 10, Priority::HIGH)
            .with_rt(RtSpec::implicit(SimTime::from_micros(5)), SimTime::ZERO);
        engine.submit(launch, SimTime::ZERO);
        let kernel = engine
            .active_kernels()
            .next()
            .and_then(|k| engine.kernel(k))
            .unwrap();
        assert_eq!(
            Rank::Priority.urgency(kernel),
            urgency(Priority::HIGH, None)
        );
        assert_eq!(
            Rank::Deadline.urgency(kernel),
            urgency(Priority::NORMAL, Some(5))
        );
        assert_eq!(Rank::Both.urgency(kernel), urgency(Priority::HIGH, Some(5)));
    }

    /// At equal priority, GCAPS preempts a later-deadline kernel on behalf
    /// of an earlier-deadline one — the move PPQ never makes.
    #[test]
    fn equal_priority_earlier_deadline_preempts_later_deadline() {
        let mut h = PolicyHarness::new(PriorityPolicy::gcaps(), PreemptionMechanism::ContextSwitch);
        // A long kernel with a loose deadline owns the GPU...
        h.submit(rt_launch(0, 0, 2_000, 400, 1_000_000));
        h.run_for(SimTime::from_micros(50));
        // ... and a tight-deadline kernel of the same priority arrives.
        h.submit(rt_launch(1, 1, 104, 20, 3_000));
        h.run_for(SimTime::from_micros(100));
        assert!(
            h.engine().stats().preemptions > 0,
            "the tight-deadline kernel must preempt"
        );
        h.run_to_idle();
        let t1 = h
            .completions()
            .iter()
            .find(|c| c.launch == gpreempt_types::KernelLaunchId::new(1))
            .unwrap()
            .finished_at;
        assert!(
            t1 < SimTime::from_micros(400),
            "finished before the long tail: {t1}"
        );

        // PPQ, by contrast, never preempts at equal priority.
        let mut p = PolicyHarness::new(
            PriorityPolicy::ppq_exclusive(),
            PreemptionMechanism::ContextSwitch,
        );
        p.submit(toy_launch(0, 0, 2_000, 400));
        p.run_for(SimTime::from_micros(50));
        p.submit(toy_launch(1, 1, 104, 20));
        p.run_to_idle();
        assert_eq!(p.engine().stats().preemptions, 0);
    }

    /// A waiter with *no* remaining slack cannot be saved by preempting, but
    /// a waiter whose slack exceeds the save time can — the slack gate only
    /// blocks pointless preemptions.
    #[test]
    fn slack_gate_blocks_hopeless_preemptions() {
        // Tight deadline: 1us of slack left when the kernel arrives, far
        // below any context-save latency, so GCAPS refuses to preempt the
        // equal-priority (deadline-free) occupant.
        let mut h = PolicyHarness::new(PriorityPolicy::gcaps(), PreemptionMechanism::ContextSwitch);
        h.submit(toy_launch(0, 0, 2_000, 400));
        h.run_for(SimTime::from_micros(50));
        let hopeless = toy_launch(1, 1, 104, 20).with_rt(
            RtSpec::implicit(SimTime::from_micros(h.now().as_micros_f64() as u64 + 1)),
            SimTime::ZERO,
        );
        h.submit(hopeless);
        h.run_for(SimTime::from_micros(30));
        assert_eq!(
            h.engine().stats().preemptions,
            0,
            "1us of slack is hopeless"
        );

        // Same scenario with a comfortable deadline: preemption goes ahead.
        let mut h2 =
            PolicyHarness::new(PriorityPolicy::gcaps(), PreemptionMechanism::ContextSwitch);
        h2.submit(toy_launch(0, 0, 2_000, 400));
        h2.run_for(SimTime::from_micros(50));
        let viable = toy_launch(1, 1, 104, 20).with_rt(
            RtSpec::implicit(SimTime::from_micros(100_000)),
            SimTime::ZERO,
        );
        h2.submit(viable);
        h2.run_for(SimTime::from_micros(30));
        assert!(h2.engine().stats().preemptions > 0);
    }

    /// A *higher-priority* waiter is never slack-gated, even once it is
    /// already past its deadline: priority preemption (what PPQ would do)
    /// must survive a missed deadline, or the late critical kernel would
    /// sit behind best-effort work for the victim's whole residual
    /// runtime.
    #[test]
    fn missed_deadline_does_not_gate_priority_preemption() {
        let mut h = PolicyHarness::new(PriorityPolicy::gcaps(), PreemptionMechanism::ContextSwitch);
        // Best-effort work owns the GPU.
        h.submit(toy_launch(0, 0, 2_000, 400));
        h.run_for(SimTime::from_micros(50));
        // A high-priority kernel arrives with its deadline already in the
        // past (zero slack).
        let late = toy_launch_with_priority(1, 1, 104, 20, Priority::HIGH)
            .with_rt(RtSpec::implicit(SimTime::from_micros(1)), SimTime::ZERO);
        h.submit(late);
        h.run_for(SimTime::from_micros(50));
        assert!(
            h.engine().stats().preemptions > 0,
            "a late high-priority kernel must still preempt best-effort work"
        );
        h.run_to_idle();
        let t1 = h
            .completions()
            .iter()
            .find(|c| c.launch == gpreempt_types::KernelLaunchId::new(1))
            .unwrap()
            .finished_at;
        assert!(
            t1 < SimTime::from_micros(400),
            "tardiness is minimised, not abandoned: {t1}"
        );
    }

    /// Criticality-derived priorities outrank legacy-normal processes end
    /// to end: a high-criticality late arrival takes the GPU.
    #[test]
    fn high_criticality_process_preempts_best_effort_work() {
        let mut h = PolicyHarness::new(PriorityPolicy::gcaps(), PreemptionMechanism::ContextSwitch);
        h.submit(toy_launch(0, 0, 2_000, 400));
        h.run_for(SimTime::from_micros(50));
        let critical = toy_launch_with_priority(1, 1, 104, 20, Criticality::High.priority())
            .with_rt(
                RtSpec::implicit(SimTime::from_micros(1_000_000))
                    .with_criticality(Criticality::High),
                SimTime::ZERO,
            );
        h.submit(critical);
        h.run_to_idle();
        let t = |id: u64| {
            h.completions()
                .iter()
                .find(|c| c.launch == gpreempt_types::KernelLaunchId::new(id))
                .unwrap()
                .finished_at
        };
        assert!(t(1) < t(0), "critical work finishes first");
        assert!(h.engine().stats().preemptions > 0);
    }

    #[test]
    fn earliest_deadline_preempts_latest_deadline() {
        let mut h = PolicyHarness::new(PriorityPolicy::edf(), PreemptionMechanism::ContextSwitch);
        h.submit(rt_launch(0, 0, 2_000, 400, 1_000_000));
        h.run_for(SimTime::from_micros(50));
        h.submit(rt_launch(1, 1, 104, 20, 2_000));
        h.run_for(SimTime::from_micros(100));
        assert!(h.engine().stats().preemptions > 0);
        h.run_to_idle();
        let t = |id: u64| {
            h.completions()
                .iter()
                .find(|c| c.launch == gpreempt_types::KernelLaunchId::new(id))
                .unwrap()
                .finished_at
        };
        assert!(t(1) < t(0));
        assert!(
            t(1) < SimTime::from_micros(400),
            "beat the block tail: {}",
            t(1)
        );
    }

    #[test]
    fn kernels_without_deadlines_are_least_urgent_but_never_starved() {
        let mut h = PolicyHarness::new(PriorityPolicy::edf(), PreemptionMechanism::ContextSwitch);
        // A deadline-free kernel takes the GPU first.
        h.submit(toy_launch(0, 0, 520, 50));
        h.run_for(SimTime::from_micros(10));
        // A deadline kernel arrives and carves SMs out of it.
        h.submit(rt_launch(1, 1, 104, 20, 5_000));
        h.run_to_idle();
        assert_eq!(h.completions().len(), 2, "both finish");
        assert!(h.engine().stats().preemptions > 0);
    }

    #[test]
    fn equal_deadlines_do_not_thrash() {
        let mut h = PolicyHarness::new(PriorityPolicy::edf(), PreemptionMechanism::ContextSwitch);
        h.submit(rt_launch(0, 0, 260, 50, 10_000));
        h.run_for(SimTime::from_micros(10));
        h.submit(rt_launch(1, 1, 260, 50, 10_000));
        h.run_for(SimTime::from_micros(20));
        // A strictly-later deadline is required to preempt, so two kernels
        // with the same deadline never steal from each other.
        assert_eq!(h.engine().stats().preemptions, 0);
        h.run_to_idle();
        assert_eq!(h.completions().len(), 2);
    }
}
