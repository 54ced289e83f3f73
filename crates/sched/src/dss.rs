//! Dynamic Spatial Sharing (DSS) — the paper's token-based policy (§3.4).
//!
//! Every process is given an SM budget expressed in tokens. Assigning an SM
//! to one of the process's kernels consumes a token; an SM being returned
//! (preemption or kernel completion) gives the token back. The partitioning
//! procedure (Algorithm 1) runs when a kernel enters the active queue and
//! when an SM goes idle: idle SMs are handed to the kernel with the highest
//! remaining token count, and if the imbalance between the richest and the
//! poorest kernel exceeds one token, an SM is preempted from the poorest
//! (most over-provisioned) kernel and handed to the richest.
//!
//! To avoid leaving SMs idle when budgets are exhausted, kernels are allowed
//! to go into debt (negative token counts), which keeps the policy
//! work-conserving.

use crate::policy::SchedulingPolicy;
use gpreempt_gpu::{ExecutionEngine, KsrIndex, SmState};
use gpreempt_types::{KernelLaunchId, ProcessId, SimTime, SmId};

/// The Dynamic Spatial Sharing policy.
#[derive(Debug)]
pub struct DssPolicy {
    /// SM budget (in tokens) of each process, indexed by process id.
    budgets: Vec<i32>,
    /// Budget used for processes that were not explicitly configured.
    default_budget: i32,
    /// Per-KSRT-slot owned-SM counts, rebuilt by one SMST pass per
    /// rebalance step (`refresh_scratch`). Policy-held so the hot
    /// rebalance loop allocates nothing.
    scratch_owned: Vec<i32>,
    /// Per-KSRT-slot first preemptible SM (lowest-id running SM assigned to
    /// the slot's kernel), from the same pass.
    scratch_victim: Vec<Option<SmId>>,
}

impl DssPolicy {
    /// Creates a DSS policy with explicit per-process budgets, indexed by
    /// process id. Processes past the end of `budgets` fall back to
    /// `default_budget`.
    pub fn new(budgets: Vec<i32>, default_budget: i32) -> Self {
        DssPolicy {
            budgets,
            default_budget: default_budget.max(0),
            scratch_owned: Vec::new(),
            scratch_victim: Vec::new(),
        }
    }

    /// Creates the equal-sharing configuration of §4.4: every one of the
    /// `n_processes` processes gets `floor(n_sms / n_processes)` tokens and
    /// the remainder goes to the first processes (by id), mirroring "the r
    /// kernels that first reach the active queue".
    pub fn equal_share(n_sms: u32, n_processes: usize) -> Self {
        let n_processes = n_processes.max(1);
        let base = (n_sms as usize / n_processes) as i32;
        let remainder = n_sms as usize % n_processes;
        let budgets = (0..n_processes)
            .map(|p| base + i32::from(p < remainder))
            .collect();
        DssPolicy {
            budgets,
            default_budget: base.max(1),
            scratch_owned: Vec::new(),
            scratch_victim: Vec::new(),
        }
    }

    /// The token budget of a process.
    pub fn budget(&self, process: ProcessId) -> i32 {
        self.budgets
            .get(process.index())
            .copied()
            .unwrap_or(self.default_budget)
    }

    /// Rebuilds the per-slot scratch in one pass over the SM Status Table:
    /// how many SMs each kernel owns (assigned, or reserved for it) and the
    /// first running SM that could be preempted from it. This replaces the
    /// per-kernel SMST rescans (`owned_sms` per candidate per step) that
    /// dominated the rebalance cost.
    fn refresh_scratch(&mut self, engine: &ExecutionEngine) {
        let n = engine.n_sms() as usize;
        self.scratch_owned.clear();
        self.scratch_owned.resize(n, 0);
        self.scratch_victim.clear();
        self.scratch_victim.resize(n, None);
        for sm in engine.sm_ids() {
            let s = engine.sm(sm);
            // Ownership, matching `owned_sms`: a reservation transfers the
            // token to the incoming kernel; otherwise the current kernel
            // holds it.
            let owner = s.next_kernel().or_else(|| s.current_kernel());
            if let Some(k) = owner {
                self.scratch_owned[k.index()] += 1;
            }
            if s.state() == SmState::Running {
                if let Some(k) = s.current_kernel() {
                    let victim = &mut self.scratch_victim[k.index()];
                    if victim.is_none() {
                        *victim = Some(sm);
                    }
                }
            }
        }
    }

    /// The *current* token count of a kernel: its process budget minus the
    /// SMs it currently owns (per the scratch). Kernels holding more SMs
    /// than their budget have a negative count (debt).
    fn token_count(&self, engine: &ExecutionEngine, ksr: KsrIndex) -> i32 {
        let Some(kernel) = engine.kernel(ksr) else {
            return i32::MIN;
        };
        self.budget(kernel.launch().process) - self.scratch_owned[ksr.index()]
    }

    /// The kernel with the highest token count that still has blocks to
    /// issue (the next recipient of an SM).
    fn richest_needy(&self, engine: &ExecutionEngine) -> Option<(KsrIndex, i32)> {
        engine
            .active_kernels()
            .filter(|&k| {
                engine
                    .kernel(k)
                    .map(|s| s.has_blocks_to_issue())
                    .unwrap_or(false)
            })
            .map(|k| (k, self.token_count(engine, k)))
            .max_by_key(|&(k, c)| (c, std::cmp::Reverse(k.index())))
    }

    /// The kernel with the lowest token count that owns a preemptible SM
    /// (the next donor), excluding `exclude`.
    fn poorest_donor(
        &self,
        engine: &ExecutionEngine,
        exclude: KsrIndex,
    ) -> Option<(KsrIndex, i32)> {
        engine
            .active_kernels()
            .filter(|&k| k != exclude)
            .filter(|&k| self.scratch_victim[k.index()].is_some())
            .map(|k| (k, self.token_count(engine, k)))
            .min_by_key(|&(k, c)| (c, k.index()))
    }

    /// Algorithm 1: repartition the SMs among the active kernels.
    fn rebalance(&mut self, now: SimTime, engine: &mut ExecutionEngine) {
        self.rebalance_with(now, engine, |engine, now, sm, ksr| {
            engine.assign_sm(now, sm, ksr)
        });
    }

    /// [`rebalance`](Self::rebalance) with the idle-SM admission step
    /// injectable, so tests can construct the failing-admission case (which
    /// the real engine only produces in rare interleavings).
    fn rebalance_with<F>(&mut self, now: SimTime, engine: &mut ExecutionEngine, mut assign: F)
    where
        F: FnMut(&mut ExecutionEngine, SimTime, SmId, KsrIndex) -> bool,
    {
        // Bound the number of repartitioning steps: each step either assigns
        // an idle SM or triggers one preemption, so n_sms^2 is a generous
        // upper bound that guarantees termination.
        let max_steps = (engine.n_sms() as usize + 1).pow(2);
        for _ in 0..max_steps {
            // Each step either assigns or preempts exactly one SM, so the
            // scratch rebuilt here stays valid for the whole step (a failed
            // admission attempt mutates nothing).
            self.refresh_scratch(engine);
            let Some((rich, rich_count)) = self.richest_needy(engine) else {
                return;
            };
            // Work-conserving: idle SMs always go to the richest needy
            // kernel, even if that pushes it into debt. A failed admission
            // must not abandon the pass: try the remaining idle SMs and, if
            // none admits the kernel, fall through to the donor-preemption
            // branch below instead of returning early.
            // `sm_ids` does not borrow the engine, so the admission closure
            // can mutate it mid-scan; non-idle SMs are skipped up front and
            // `assign` itself rejects SMs that stopped being idle.
            let mut assigned = false;
            for sm in engine.sm_ids() {
                if engine.sm(sm).is_idle() && assign(engine, now, sm, rich) {
                    assigned = true;
                    break;
                }
            }
            if assigned {
                continue;
            }
            // No idle SM took the kernel: steal from the poorest donor if
            // the imbalance is larger than one token.
            let Some((poor, poor_count)) = self.poorest_donor(engine, rich) else {
                return;
            };
            if rich_count <= poor_count + 1 {
                return;
            }
            let Some(victim) = self.scratch_victim[poor.index()] else {
                return;
            };
            if !engine.preempt_sm(now, victim, rich) {
                return;
            }
        }
    }
}

impl SchedulingPolicy for DssPolicy {
    fn name(&self) -> &'static str {
        "DSS"
    }

    fn on_kernel_admitted(&mut self, now: SimTime, _ksr: KsrIndex, engine: &mut ExecutionEngine) {
        self.rebalance(now, engine);
    }

    fn on_sm_idle(&mut self, now: SimTime, _sm: SmId, engine: &mut ExecutionEngine) {
        self.rebalance(now, engine);
    }

    fn on_kernel_finished(
        &mut self,
        now: SimTime,
        _ksr: KsrIndex,
        _launch: KernelLaunchId,
        engine: &mut ExecutionEngine,
    ) {
        self.rebalance(now, engine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{toy_launch, PolicyHarness};
    use gpreempt_gpu::PreemptionMechanism;
    use gpreempt_types::SimTime;

    #[test]
    fn equal_share_budgets_distribute_remainder() {
        let dss = DssPolicy::equal_share(13, 4);
        assert_eq!(dss.budget(ProcessId::new(0)), 4);
        assert_eq!(dss.budget(ProcessId::new(1)), 3);
        assert_eq!(dss.budget(ProcessId::new(2)), 3);
        assert_eq!(dss.budget(ProcessId::new(3)), 3);
        // Unknown processes fall back to the base share.
        assert_eq!(dss.budget(ProcessId::new(9)), 3);
        let total: i32 = (0..4).map(|p| dss.budget(ProcessId::new(p))).sum();
        assert_eq!(total, 13);
    }

    #[test]
    fn equal_share_with_more_processes_than_sms() {
        let dss = DssPolicy::equal_share(4, 8);
        // Budgets of 1 or 0; defaults stay at least 1 so nothing starves.
        let total: i32 = (0..8).map(|p| dss.budget(ProcessId::new(p))).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn single_kernel_gets_the_whole_gpu() {
        let mut h = PolicyHarness::new(
            DssPolicy::equal_share(13, 2),
            PreemptionMechanism::ContextSwitch,
        );
        h.submit(toy_launch(0, 0, 260, 50));
        h.run_for(SimTime::from_micros(5));
        // Work conservation: the only kernel owns every SM despite a budget
        // of 7 (it goes into debt).
        let ksr = h.engine().active_kernels().next().unwrap();
        assert_eq!(crate::policy::owned_sms(h.engine(), ksr), 13);
        h.run_to_idle();
        assert_eq!(h.completions().len(), 1);
    }

    #[test]
    fn second_kernel_receives_its_share_through_preemption() {
        let mut h = PolicyHarness::new(
            DssPolicy::equal_share(13, 2),
            PreemptionMechanism::ContextSwitch,
        );
        // Process 0 hogs the GPU first.
        h.submit(toy_launch(0, 0, 4_000, 100));
        h.run_for(SimTime::from_micros(30));
        // Process 1 arrives; DSS must carve out roughly half the SMs.
        h.submit(toy_launch(1, 1, 4_000, 100));
        h.run_for(SimTime::from_micros(200));
        let counts: Vec<(ProcessId, u32)> = h
            .engine()
            .active_kernels()
            .map(|k| {
                (
                    h.engine().kernel(k).unwrap().launch().process,
                    crate::policy::owned_sms(h.engine(), k),
                )
            })
            .collect();
        let p0 = counts
            .iter()
            .find(|(p, _)| *p == ProcessId::new(0))
            .unwrap()
            .1;
        let p1 = counts
            .iter()
            .find(|(p, _)| *p == ProcessId::new(1))
            .unwrap()
            .1;
        assert_eq!(p0 + p1, 13, "all SMs stay in use");
        assert!(p0.abs_diff(p1) <= 1, "split should be 7/6: got {p0}/{p1}");
        assert!(
            h.engine().stats().preemptions >= 6,
            "preemptions carve the share"
        );
        h.run_to_idle();
        assert_eq!(h.completions().len(), 2);
    }

    #[test]
    fn dss_prevents_monopolisation_with_draining_too() {
        let mut h =
            PolicyHarness::new(DssPolicy::equal_share(13, 2), PreemptionMechanism::Draining);
        h.submit(toy_launch(0, 0, 2_000, 50));
        h.run_for(SimTime::from_micros(20));
        h.submit(toy_launch(1, 1, 2_000, 50));
        // Draining takes up to one block time (50us); give it 200us.
        h.run_for(SimTime::from_micros(200));
        let owned: Vec<u32> = h
            .engine()
            .active_kernels()
            .map(|k| crate::policy::owned_sms(h.engine(), k))
            .collect();
        assert!(
            owned.iter().all(|&c| c >= 6),
            "roughly equal split: {owned:?}"
        );
        h.run_to_idle();
        assert_eq!(h.completions().len(), 2);
        // Draining never saves contexts.
        assert_eq!(h.engine().stats().blocks_saved, 0);
    }

    #[test]
    fn single_process_share_holds_every_token() {
        // Degenerate partition: one process, so its budget is the whole
        // machine and no preemption is ever needed to keep the partition at
        // its target.
        let dss = DssPolicy::equal_share(13, 1);
        assert_eq!(dss.budget(ProcessId::new(0)), 13);

        let mut h = PolicyHarness::new(
            DssPolicy::equal_share(13, 1),
            PreemptionMechanism::ContextSwitch,
        );
        h.submit(toy_launch(0, 0, 1_000, 40));
        h.run_for(SimTime::from_micros(10));
        let ksr = h.engine().active_kernels().next().unwrap();
        assert_eq!(crate::policy::owned_sms(h.engine(), ksr), 13);
        // Exactly on budget: zero tokens left, zero debt, so the rebalancer
        // has nothing to preempt.
        assert_eq!(h.engine().stats().preemptions, 0);
        h.run_to_idle();
        assert_eq!(h.completions().len(), 1);
    }

    #[test]
    fn zero_token_budget_waits_but_never_starves() {
        // Explicit budgets: process 0 owns the machine, process 1 has zero
        // tokens. The zero-token kernel must not steal SMs while the funded
        // kernel needs them — but work conservation must still run it (in
        // debt) once the funded kernel stops issuing, so it finishes.
        let mut h = PolicyHarness::new(
            DssPolicy::new(vec![13, 0], 0),
            PreemptionMechanism::ContextSwitch,
        );
        h.submit(toy_launch(0, 0, 520, 50));
        h.run_for(SimTime::from_micros(10));
        h.submit(toy_launch(1, 1, 130, 50));
        // No SM has gone idle yet (the first blocks finish at ~50us), so the
        // only way the pauper could own an SM this early is preemption —
        // which its zero budget must never trigger.
        h.run_for(SimTime::from_micros(10));
        let owned_by = |h: &PolicyHarness, process: u32| {
            h.engine()
                .active_kernels()
                .find(|&k| {
                    h.engine().kernel(k).unwrap().launch().process == ProcessId::new(process)
                })
                .map(|k| crate::policy::owned_sms(h.engine(), k))
        };
        assert_eq!(owned_by(&h, 0), Some(13));
        assert_eq!(owned_by(&h, 1), Some(0));
        // Once the funded kernel's demand drains, work conservation hands
        // freed SMs to the zero-token kernel (running it in debt) — it must
        // finish without a single preemption ever being spent on it.
        h.run_to_idle();
        assert_eq!(h.completions().len(), 2, "zero-token kernel starved");
        assert_eq!(h.engine().stats().preemptions, 0);
    }

    #[test]
    fn departure_mid_epoch_returns_tokens_to_survivors() {
        // Two funded processes split the machine 7/6; when the short one
        // departs mid-run its SMs must flow back to the survivor, which ends
        // up in debt (13 owned vs a budget of 7) rather than idling SMs.
        let mut h = PolicyHarness::new(
            DssPolicy::equal_share(13, 2),
            PreemptionMechanism::ContextSwitch,
        );
        h.submit(toy_launch(0, 0, 6_000, 60)); // long-lived survivor
        h.submit(toy_launch(1, 1, 120, 60)); // departs early

        // The 7/6 carve-up must spend preemptions while both are resident.
        h.run_for(SimTime::from_micros(100));
        assert!(
            h.engine().stats().preemptions > 0,
            "the second kernel's share is carved out by preemption"
        );

        // Run until the short kernel departs, then let the rebalance settle
        // (freed SMs go idle, on_sm_idle hands them to the survivor). The
        // step must exceed one 60us block wave: run_for's deadline is
        // relative to the last processed event, so a smaller step would
        // never reach the next wave.
        let mut steps = 0;
        while h.completions().is_empty() {
            h.run_for(SimTime::from_micros(100));
            steps += 1;
            assert!(steps < 100, "short kernel never departed");
        }
        h.run_for(SimTime::from_micros(400));
        let kernels: Vec<KsrIndex> = h.engine().active_kernels().collect();
        assert_eq!(kernels.len(), 1, "short kernel should have departed");
        assert_eq!(
            crate::policy::owned_sms(h.engine(), kernels[0]),
            13,
            "survivor must absorb the departed process's share"
        );
        h.run_to_idle();
        assert_eq!(h.completions().len(), 2);
    }

    #[test]
    fn adaptive_selection_shares_the_machine_like_fixed_mechanisms() {
        use gpreempt_gpu::MechanismSelection;

        let mut h = PolicyHarness::with_selection(
            DssPolicy::equal_share(13, 2),
            MechanismSelection::adaptive(),
        );
        h.submit(toy_launch(0, 0, 4_000, 100));
        h.run_for(SimTime::from_micros(30));
        h.submit(toy_launch(1, 1, 4_000, 100));
        h.run_for(SimTime::from_micros(200));
        let owned: Vec<u32> = h
            .engine()
            .active_kernels()
            .map(|k| crate::policy::owned_sms(h.engine(), k))
            .collect();
        assert_eq!(owned.iter().sum::<u32>(), 13, "all SMs stay in use");
        // Every non-instant preemption was decided by the adaptive selector.
        let stats = h.engine().stats();
        assert!(stats.preemptions > 0);
        assert!(stats.adaptive_picks() > 0);
        h.run_to_idle();
        assert_eq!(h.completions().len(), 2);
    }

    #[test]
    fn failed_idle_admission_falls_through_to_the_steal_path() {
        use gpreempt_gpu::EngineParams;
        use gpreempt_sim::SimRng;
        use gpreempt_types::{GpuConfig, PreemptionConfig};

        let mut engine = ExecutionEngine::new(
            GpuConfig::default(),
            PreemptionConfig::default(),
            EngineParams {
                block_time_jitter: 0.0,
                ..Default::default()
            },
            SimRng::new(5),
        );
        let now = SimTime::ZERO;
        engine.submit(toy_launch(0, 0, 1_000, 50), now);
        engine.submit(toy_launch(1, 1, 1_000, 50), now);
        let k0 = engine.active_kernels().next().unwrap();
        // Hand 12 of the 13 SMs to process 0, leaving one SM idle.
        for sm in engine.sm_ids().take(12) {
            assert!(engine.assign_sm(now, sm, k0));
        }

        let mut dss = DssPolicy::equal_share(13, 2);
        // Construct the failing-admission case: the idle SM rejects every
        // assignment. The pass must fall through to the donor-preemption
        // branch and still carve process 1's share out of process 0,
        // instead of abandoning the rebalance (the old early `return`).
        dss.rebalance_with(now, &mut engine, |_, _, _, _| false);
        assert!(
            engine.stats().preemptions >= 5,
            "steal path must carve out the share: {} preemptions",
            engine.stats().preemptions
        );
        engine.check_invariants().expect("invariants hold");
    }

    #[test]
    fn four_processes_share_with_bounded_imbalance() {
        let mut h = PolicyHarness::new(
            DssPolicy::equal_share(13, 4),
            PreemptionMechanism::ContextSwitch,
        );
        for p in 0..4 {
            h.submit(toy_launch(p as u64, p, 2_000, 80));
        }
        h.run_for(SimTime::from_micros(300));
        let owned: Vec<u32> = h
            .engine()
            .active_kernels()
            .map(|k| crate::policy::owned_sms(h.engine(), k))
            .collect();
        assert_eq!(owned.iter().sum::<u32>(), 13);
        let max = *owned.iter().max().unwrap();
        let min = *owned.iter().min().unwrap();
        assert!(
            max - min <= 1,
            "token imbalance must stay within one: {owned:?}"
        );
    }
}
