//! The scheduling-policy interface.

use gpreempt_gpu::{ExecutionEngine, KsrIndex, PolicyHook};
use gpreempt_types::{AdmissionDecision, KernelLaunchId, ProcessId, SimTime, SmId};

/// Context of one open-arrival release request, handed to
/// [`SchedulingPolicy::on_release_requested`].
///
/// The simulator resolves the releasing process's real-time contract into
/// an absolute deadline and pre-computes a lower bound on the service one
/// iteration needs, so a policy can recognise an already-infeasible release
/// without walking the trace itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleaseInfo {
    /// When the request was released.
    pub released: SimTime,
    /// Absolute deadline of the released iteration (release + relative
    /// deadline), if the process carries a real-time contract.
    pub deadline: Option<SimTime>,
    /// Lower bound on the service the iteration still needs: the sum of its
    /// CPU phases plus at least one thread-block wave per launched kernel.
    /// Optimistic by construction — an iteration can never finish faster —
    /// so shedding on it never drops a feasible release.
    pub min_service: SimTime,
}

impl ReleaseInfo {
    /// Whether the release can no longer meet its deadline even if admitted
    /// and serviced at the minimum-service bound starting right `now`.
    pub fn is_infeasible(&self, now: SimTime) -> bool {
        match self.deadline {
            Some(deadline) => now + self.min_service > deadline,
            None => false,
        }
    }
}

/// A scheduling policy plugged into the hardware scheduling framework
/// (§3.3/§3.4 of the paper).
///
/// The execution engine raises [`PolicyHook`]s; the simulator dispatches
/// them to the policy, which reacts by inspecting the engine's KSRT / SMST
/// and calling [`ExecutionEngine::assign_sm`],
/// [`ExecutionEngine::preempt_sm`] or
/// [`ExecutionEngine::retarget_reservation`].
pub trait SchedulingPolicy: std::fmt::Debug {
    /// Short policy name used in reports (e.g. `"FCFS"`, `"DSS"`).
    fn name(&self) -> &'static str;

    /// Called when a kernel is admitted into the KSRT.
    fn on_kernel_admitted(&mut self, now: SimTime, ksr: KsrIndex, engine: &mut ExecutionEngine);

    /// Called when an SM becomes idle.
    fn on_sm_idle(&mut self, now: SimTime, sm: SmId, engine: &mut ExecutionEngine);

    /// Called when a kernel finishes and its KSRT entry is freed.
    fn on_kernel_finished(
        &mut self,
        now: SimTime,
        ksr: KsrIndex,
        launch: KernelLaunchId,
        engine: &mut ExecutionEngine,
    );

    /// Called when the configured scheduling quantum elapses on a running
    /// SM (only raised when
    /// [`EngineParams::quantum`](gpreempt_gpu::EngineParams) is set).
    ///
    /// Default-implemented as a no-op so pre-real-time policies (FCFS, NPQ,
    /// PPQ, DSS) stay source-compatible — and, because legacy runs schedule
    /// no quantum events, bit-identical.
    fn on_quantum_expired(&mut self, now: SimTime, sm: SmId, engine: &mut ExecutionEngine) {
        let _ = (now, sm, engine);
    }

    /// Called when an active kernel's absolute deadline is within the
    /// engine's warning margin (only raised for launches that carry an
    /// [`RtSpec`](gpreempt_types::RtSpec)-derived deadline).
    ///
    /// Default-implemented as a no-op; deadline-aware policies override it
    /// to escalate the kernel.
    fn on_deadline_approaching(
        &mut self,
        now: SimTime,
        ksr: KsrIndex,
        deadline: SimTime,
        engine: &mut ExecutionEngine,
    ) {
        let _ = (now, ksr, deadline, engine);
    }

    /// Called when an open-arrival release requests admission: `backlog` is
    /// the process's current queue of released-but-not-started iterations
    /// and `backlog_cap` its hard bound. The policy admits the release or
    /// sheds it.
    ///
    /// Default-implemented as deadline-aware bounded queueing: a release
    /// whose absolute deadline is already infeasible given the iteration's
    /// minimum remaining service ([`ReleaseInfo::is_infeasible`]) is shed
    /// outright — admitting it could only burn GPU time on a guaranteed
    /// deadline miss — and otherwise the release is admitted while the
    /// backlog is below the cap and shed at it. Processes without a
    /// real-time contract keep the pure bounded-queue behaviour.
    /// Closed-loop workloads never raise this hook. The host enforces
    /// `backlog_cap` regardless of the answer, so an over-eager policy
    /// cannot overfill the queue.
    fn on_release_requested(
        &mut self,
        now: SimTime,
        process: ProcessId,
        release: ReleaseInfo,
        backlog: u32,
        backlog_cap: u32,
        engine: &ExecutionEngine,
    ) -> AdmissionDecision {
        let _ = (process, engine);
        if release.is_infeasible(now) || backlog >= backlog_cap {
            AdmissionDecision::Shed
        } else {
            AdmissionDecision::Admit
        }
    }

    /// Dispatches a raw hook to the specific callbacks. Policies normally do
    /// not override this.
    fn on_hook(&mut self, now: SimTime, hook: PolicyHook, engine: &mut ExecutionEngine) {
        match hook {
            PolicyHook::KernelAdmitted(ksr) => self.on_kernel_admitted(now, ksr, engine),
            PolicyHook::SmIdle(sm) => self.on_sm_idle(now, sm, engine),
            PolicyHook::KernelFinished { ksr, launch } => {
                self.on_kernel_finished(now, ksr, launch, engine)
            }
            PolicyHook::QuantumExpired(sm) => self.on_quantum_expired(now, sm, engine),
            PolicyHook::DeadlineApproaching { ksr, deadline } => {
                self.on_deadline_approaching(now, ksr, deadline, engine)
            }
        }
    }
}

/// Assigns idle SMs to `ksr` until the kernel has enough SMs to hold every
/// unissued block or the GPU runs out of idle SMs. Returns the number of SMs
/// assigned.
///
/// This is the common "give a kernel what it can use" helper shared by every
/// policy implementation.
pub fn assign_idle_sms(
    now: SimTime,
    engine: &mut ExecutionEngine,
    ksr: KsrIndex,
    limit: Option<u32>,
) -> u32 {
    let mut assigned = 0u32;
    while let Some(kernel) = engine.kernel(ksr) {
        if !kernel.has_blocks_to_issue() {
            break;
        }
        // SMs already working for (or reserved for) this kernel will keep
        // pulling blocks; only add SMs that can hold blocks nobody else will
        // take.
        let owned = owned_sms(engine, ksr);
        let needed = kernel.sms_needed().saturating_sub(owned);
        if needed == 0 {
            break;
        }
        if let Some(limit) = limit {
            if assigned >= limit {
                break;
            }
        }
        let Some(sm) = engine.idle_sms().next() else {
            break;
        };
        if !engine.assign_sm(now, sm, ksr) {
            break;
        }
        assigned += 1;
    }
    assigned
}

/// Scans the running SMs and returns the one whose current kernel carries
/// the **greatest** eligibility key, together with that key, or `None` if
/// no kernel is eligible.
///
/// `key_of` maps an active kernel to its victim key — `None` marks it
/// ineligible (e.g. it outranks the waiter). Ties keep the first (lowest-id)
/// SM. This is the "pick the least urgent victim" step of
/// [`PriorityPolicy`](crate::PriorityPolicy), which supplies its urgency
/// as the key.
pub fn select_victim<K: Ord>(
    engine: &ExecutionEngine,
    mut key_of: impl FnMut(&ExecutionEngine, KsrIndex) -> Option<K>,
) -> Option<(SmId, K)> {
    let mut best: Option<(SmId, K)> = None;
    for sm in engine.sm_ids() {
        let status = engine.sm(sm);
        if status.state() != gpreempt_gpu::SmState::Running {
            continue;
        }
        let Some(current) = status.current_kernel() else {
            continue;
        };
        let Some(key) = key_of(engine, current) else {
            continue;
        };
        let better = match &best {
            None => true,
            Some((_, best_key)) => key > *best_key,
        };
        if better {
            best = Some((sm, key));
        }
    }
    best
}

/// Number of SMs currently owned by `ksr`: SMs executing it that are not in
/// the middle of being handed to another kernel, plus SMs reserved for it.
///
/// An SM that is being preempted away from `ksr` no longer counts towards it
/// (the paper returns the token to the preempted kernel at reservation time,
/// §3.4), while an SM reserved *for* `ksr` already does.
pub fn owned_sms(engine: &ExecutionEngine, ksr: KsrIndex) -> u32 {
    engine
        .sm_ids()
        .filter(|&sm| {
            let s = engine.sm(sm);
            match s.next_kernel() {
                Some(next) => next == ksr,
                None => s.current_kernel() == Some(ksr),
            }
        })
        .count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpreempt_gpu::{EngineParams, KernelLaunch};
    use gpreempt_sim::SimRng;
    use gpreempt_trace::KernelSpec;
    use gpreempt_types::{
        CommandId, GpuConfig, KernelFootprint, PreemptionConfig, Priority, ProcessId,
    };

    fn engine() -> ExecutionEngine {
        ExecutionEngine::new(
            GpuConfig::default(),
            PreemptionConfig::default(),
            EngineParams::default(),
            SimRng::new(3),
        )
    }

    fn launch(id: u64, blocks: u32) -> KernelLaunch {
        KernelLaunch::new(
            KernelLaunchId::new(id),
            CommandId::new(id),
            ProcessId::new(0),
            Priority::NORMAL,
            KernelSpec::new(
                "k",
                KernelFootprint::new(8_192, 0, 256), // 8 blocks / SM
                blocks,
                SimTime::from_micros(10),
            ),
        )
    }

    #[test]
    fn assign_idle_sms_respects_need() {
        let mut e = engine();
        // 16 blocks at 8 per SM -> needs exactly 2 SMs.
        e.submit(launch(0, 16), SimTime::ZERO);
        let ksr = e.active_kernels().next().unwrap();
        let n = assign_idle_sms(SimTime::ZERO, &mut e, ksr, None);
        assert_eq!(n, 2);
        assert_eq!(owned_sms(&e, ksr), 2);
        assert_eq!(e.idle_sms().count(), 11);
    }

    #[test]
    fn assign_idle_sms_respects_limit() {
        let mut e = engine();
        e.submit(launch(0, 10_000), SimTime::ZERO);
        let ksr = e.active_kernels().next().unwrap();
        let n = assign_idle_sms(SimTime::ZERO, &mut e, ksr, Some(5));
        assert_eq!(n, 5);
        let n2 = assign_idle_sms(SimTime::ZERO, &mut e, ksr, None);
        assert_eq!(n2, 8, "the rest of the GPU");
        assert!(e.idle_sms().next().is_none());
    }

    #[test]
    fn assign_idle_sms_on_missing_kernel_is_zero() {
        let mut e = engine();
        assert_eq!(
            assign_idle_sms(SimTime::ZERO, &mut e, KsrIndex::new(5), None),
            0
        );
    }

    fn release(deadline: Option<SimTime>, min_service: SimTime) -> ReleaseInfo {
        ReleaseInfo {
            released: SimTime::ZERO,
            deadline,
            min_service,
        }
    }

    #[test]
    fn infeasibility_needs_a_deadline_and_too_little_slack() {
        let now = SimTime::from_micros(100);
        // No real-time contract: never infeasible.
        assert!(!release(None, SimTime::from_micros(1_000)).is_infeasible(now));
        // Deadline still reachable at the minimum-service bound.
        let feasible = release(Some(SimTime::from_micros(150)), SimTime::from_micros(50));
        assert!(!feasible.is_infeasible(now));
        // One nanosecond past reachable: infeasible.
        let late = release(
            Some(SimTime::from_micros(150)),
            SimTime::from_micros(50) + SimTime::from_nanos(1),
        );
        assert!(late.is_infeasible(now));
    }

    #[test]
    fn default_admission_sheds_infeasible_releases() {
        let e = engine();
        let mut policy = crate::FcfsPolicy::new();
        let now = SimTime::from_micros(100);
        let p = ProcessId::new(0);
        // Deadline already blown: shed even with a free backlog slot.
        let blown = release(Some(SimTime::from_micros(120)), SimTime::from_micros(50));
        assert_eq!(
            policy.on_release_requested(now, p, blown, 0, 4, &e),
            AdmissionDecision::Shed
        );
        // Feasible deadline: plain bounded queueing applies.
        let ok = release(Some(SimTime::from_micros(200)), SimTime::from_micros(50));
        assert_eq!(
            policy.on_release_requested(now, p, ok, 0, 4, &e),
            AdmissionDecision::Admit
        );
        assert_eq!(
            policy.on_release_requested(now, p, ok, 4, 4, &e),
            AdmissionDecision::Shed,
            "backlog at cap still sheds"
        );
        // No contract: admitted while below the cap, regardless of service.
        let best_effort = release(None, SimTime::from_micros(1_000_000));
        assert_eq!(
            policy.on_release_requested(now, p, best_effort, 3, 4, &e),
            AdmissionDecision::Admit
        );
    }
}
