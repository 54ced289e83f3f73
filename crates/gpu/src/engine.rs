//! The GPU execution engine.
//!
//! [`ExecutionEngine`] models the shaded part of Figure 1 of the paper: the
//! SM driver, the SMs, and the scheduling-framework state (KSRT, SMST,
//! PTBQs, command buffers). It is a self-contained event machine: external
//! code submits kernel launches, feeds back the [`EngineEvent`]s the engine
//! asked to have scheduled, and dispatches the [`PolicyHook`]s the engine
//! raises to whatever scheduling policy is plugged in.
//!
//! All hot state lives in slab storage sized by the SM count when the
//! engine is built: the KSRT is a generational slab (stale [`KsrIndex`]
//! handles can never alias a reused slot) whose slots pool their PTBQ
//! storage across the kernels they hold, and the SMST holds one typed
//! record per SM whose phase carries exactly the data that phase needs.
//! One engine serves one run; the simulator builds a fresh one per run.
//!
//! Every way an SM leaves its kernel (its kernel runs out of blocks or
//! finishes, a preemption completes, a setup is cut short) goes through
//! one `vacate` and one `hand_over`.

use crate::estimator::{PreemptionEstimate, RemainingTimeEstimator};
use crate::framework::{KernelState, KsrIndex, Phase, PreemptedBlock, Preemption, Sm, SmStatus};
use crate::launch::{KernelCompletion, KernelLaunch};
use crate::preempt::{ContextSwitchCost, MechanismSelection, PreemptionMechanism};
use gpreempt_sim::SimRng;
use gpreempt_types::{GpuConfig, KernelLaunchId, PreemptionConfig, SimTime, SmId, ThreadBlockId};
use std::collections::VecDeque;

/// Tunable parameters of the engine model that are not part of the paper's
/// Table 2 configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineParams {
    /// Latency of the SM driver setting up an SM for a kernel (context id,
    /// page-table base, kernel parameters) before thread blocks are issued.
    pub sm_setup_time: SimTime,
    /// Uniform jitter applied to per-block execution times (0.1 = ±10 %).
    pub block_time_jitter: f64,
    /// Scheduling quantum: when set, the engine raises a
    /// [`PolicyHook::QuantumExpired`] every `quantum` of continuous SM
    /// occupancy, giving time-slicing policies a periodic decision point.
    /// `None` (the default, and the paper's model) schedules no quantum
    /// events at all.
    pub quantum: Option<SimTime>,
    /// How long before a real-time kernel's absolute deadline the engine
    /// raises [`PolicyHook::DeadlineApproaching`]. Only kernels whose launch
    /// carries an [`RtLaunch`](crate::launch::RtLaunch) annotation produce
    /// deadline events; legacy workloads schedule none.
    pub deadline_margin: SimTime,
}

impl Default for EngineParams {
    fn default() -> Self {
        EngineParams {
            sm_setup_time: SimTime::from_micros(1),
            block_time_jitter: 0.05,
            quantum: None,
            deadline_margin: SimTime::from_micros(50),
        }
    }
}

/// Events the engine schedules for itself. External code owns the event
/// queue; it must hand each event back to [`ExecutionEngine::handle`] at the
/// requested time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEvent {
    /// The SM driver finished setting up `sm` for its current kernel.
    SetupDone {
        /// The SM that was being set up.
        sm: SmId,
        /// Epoch guard: stale events (from before a preemption) are ignored.
        epoch: u64,
    },
    /// A thread block finished executing on `sm`.
    BlockDone {
        /// The SM the block ran on.
        sm: SmId,
        /// Epoch guard.
        epoch: u64,
        /// The residency slot the block held on `sm`, which locates it
        /// among the SM's resident blocks without a scan.
        slot: u32,
        /// The block that finished.
        block: ThreadBlockId,
    },
    /// The context-save trap routine on `sm` finished writing the preempted
    /// blocks' state to memory.
    SaveDone {
        /// The SM that finished saving.
        sm: SmId,
        /// Epoch guard.
        epoch: u64,
    },
    /// The scheduling quantum on `sm` elapsed (only scheduled when
    /// [`EngineParams::quantum`] is set).
    QuantumTick {
        /// The SM whose quantum elapsed.
        sm: SmId,
        /// Epoch guard: ticks from a previous assignment are ignored.
        epoch: u64,
    },
    /// A real-time kernel's absolute deadline is [`EngineParams::deadline_margin`]
    /// away (only scheduled for launches carrying a deadline).
    DeadlineTick {
        /// The KSRT slot the kernel was admitted into.
        ksr: KsrIndex,
        /// The launch the tick belongs to; stale ticks (the slot was
        /// reused) are ignored.
        launch: KernelLaunchId,
    },
}

/// Notifications the engine raises for the scheduling policy. The policy is
/// not invoked directly by the engine (that would borrow it mutably twice);
/// instead the simulator drains these hooks and dispatches them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyHook {
    /// A kernel was admitted into the KSRT / active queue.
    KernelAdmitted(KsrIndex),
    /// An SM became idle.
    SmIdle(SmId),
    /// A kernel finished and its KSRT entry was freed.
    KernelFinished {
        /// The table slot that was freed (may be reused immediately).
        ksr: KsrIndex,
        /// The launch that finished, for policy bookkeeping keyed by launch.
        launch: KernelLaunchId,
    },
    /// The configured scheduling quantum elapsed on a running SM. Raised
    /// only when [`EngineParams::quantum`] is set; time-slicing policies can
    /// use it to rotate kernels without waiting for an SM to go idle.
    QuantumExpired(SmId),
    /// An active kernel's absolute deadline is within
    /// [`EngineParams::deadline_margin`]. Raised once per launch, and only
    /// for launches that carry a deadline; deadline-aware policies can react
    /// by escalating the kernel (e.g. preempting on its behalf).
    DeadlineApproaching {
        /// The kernel approaching its deadline.
        ksr: KsrIndex,
        /// Its absolute deadline.
        deadline: SimTime,
    },
}

/// Aggregate counters the engine maintains, used for utilisation analysis
/// and the ablation benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineStats {
    /// Thread blocks that ran to completion.
    pub blocks_completed: u64,
    /// Total SM-busy time accumulated by completed blocks.
    pub busy_time: SimTime,
    /// Number of SM preemptions requested.
    pub preemptions: u64,
    /// Number of preemptions that ran to completion (the SM was handed
    /// over); the denominator of [`mean_preemption_latency`](Self::mean_preemption_latency).
    pub preemptions_completed: u64,
    /// Total latency (request to hand-over) of completed preemptions.
    pub preemption_latency_total: SimTime,
    /// Thread blocks whose context was saved by the context-switch mechanism.
    pub blocks_saved: u64,
    /// Total time SMs spent saving contexts.
    pub save_time: SimTime,
    /// Kernels that finished.
    pub kernels_completed: u64,
    /// Preemptions for which the adaptive selector chose draining.
    pub adaptive_drain_picks: u64,
    /// Preemptions for which the adaptive selector chose context switching.
    pub adaptive_cs_picks: u64,
    /// Sum of the adaptive selector's latency estimates at decision time.
    pub adaptive_estimated_latency: SimTime,
    /// Adaptive preemptions that ran to completion; the denominator of
    /// [`mean_estimate_error`](Self::mean_estimate_error).
    pub adaptive_completed: u64,
    /// Sum of `|estimated − actual|` preemption latency over completed
    /// adaptive preemptions: the estimator's accumulated prediction error.
    pub adaptive_latency_error: SimTime,
    /// Schedules whose requested time lay in the past and was clamped
    /// forward by the event queue. Filled in by the simulator from
    /// `EventQueue::clamped` at the end of a run; a nonzero value means a
    /// component asked for time travel, and closed-loop runs are expected
    /// to keep it at exactly zero.
    pub events_clamped: u64,
}

impl EngineStats {
    /// Mean request-to-hand-over latency over completed preemptions
    /// (zero when none completed).
    pub fn mean_preemption_latency(&self) -> SimTime {
        if self.preemptions_completed == 0 {
            SimTime::ZERO
        } else {
            self.preemption_latency_total / self.preemptions_completed
        }
    }

    /// Number of preemptions decided by the adaptive selector.
    pub fn adaptive_picks(&self) -> u64 {
        self.adaptive_drain_picks + self.adaptive_cs_picks
    }

    /// Mean absolute error of the adaptive selector's latency estimates,
    /// over the adaptive preemptions that ran to completion (zero when none
    /// completed).
    pub fn mean_estimate_error(&self) -> SimTime {
        if self.adaptive_completed == 0 {
            SimTime::ZERO
        } else {
            self.adaptive_latency_error / self.adaptive_completed
        }
    }
}

/// One slab entry of the KSRT. The slot is live exactly when `state` is
/// `Some`; the generation counts occupancies so stale handles miss. The
/// entry also pools the previous occupant's PTBQ storage and caches the
/// per-block restore cost (fixed per launch: it depends only on the GPU,
/// the preemption config and the kernel footprint), keeping it off the
/// block-issue hot path.
#[derive(Debug, Clone)]
struct KsrSlot {
    gen: u32,
    state: Option<KernelState>,
    restore: SimTime,
    spare_ptbq: VecDeque<PreemptedBlock>,
}

impl KsrSlot {
    fn new() -> Self {
        KsrSlot {
            gen: 0,
            state: None,
            restore: SimTime::ZERO,
            spare_ptbq: VecDeque::new(),
        }
    }
}

/// The GPU execution engine model.
#[derive(Debug)]
pub struct ExecutionEngine {
    gpu: GpuConfig,
    preemption_cfg: PreemptionConfig,
    params: EngineParams,
    rng: SimRng,
    sms: Vec<Sm>,
    ksrt: Vec<KsrSlot>,
    estimator: RemainingTimeEstimator,
    waiting_admission: VecDeque<KernelLaunch>,
    scheduled: Vec<(SimTime, EngineEvent)>,
    completions: Vec<KernelCompletion>,
    hooks: Vec<PolicyHook>,
    stats: EngineStats,
}

impl ExecutionEngine {
    /// Creates an execution engine for the given GPU. The preemption
    /// mechanism used when a policy preempts an SM is governed by
    /// `preemption_cfg.selection`: either pinned for the whole run or chosen
    /// per preemption from online cost estimates.
    pub fn new(
        gpu: GpuConfig,
        preemption_cfg: PreemptionConfig,
        params: EngineParams,
        rng: SimRng,
    ) -> Self {
        let n = gpu.n_sms as usize;
        let max_blocks = gpu.max_blocks_per_sm;
        ExecutionEngine {
            gpu,
            preemption_cfg,
            params,
            rng,
            sms: (0..n).map(|_| Sm::new(max_blocks)).collect(),
            ksrt: (0..n).map(|_| KsrSlot::new()).collect(),
            estimator: RemainingTimeEstimator::new(n),
            waiting_admission: VecDeque::new(),
            scheduled: Vec::new(),
            completions: Vec::new(),
            hooks: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    /// Replaces the engine with
    /// `ExecutionEngine::new(gpu, preemption_cfg, params, rng)`. The
    /// simulator builds its engine with `new`; this stays because the
    /// benchmark's replay of the event loop (`perfbench/src/replay.rs`)
    /// calls it.
    pub fn reset(
        &mut self,
        gpu: GpuConfig,
        preemption_cfg: PreemptionConfig,
        params: EngineParams,
        rng: SimRng,
    ) {
        *self = Self::new(gpu, preemption_cfg, params, rng);
    }

    /// The GPU configuration the engine was built with.
    pub fn gpu(&self) -> &GpuConfig {
        &self.gpu
    }

    /// How the engine picks the preemption mechanism.
    pub fn selection(&self) -> MechanismSelection {
        self.preemption_cfg.selection
    }

    /// The online remaining-time estimator feeding adaptive decisions.
    pub fn estimator(&self) -> &RemainingTimeEstimator {
        &self.estimator
    }

    /// Number of SMs.
    pub fn n_sms(&self) -> u32 {
        self.gpu.n_sms
    }

    /// All SM ids.
    pub fn sm_ids(&self) -> impl Iterator<Item = SmId> {
        (0..self.gpu.n_sms).map(SmId::new)
    }

    /// The SM Status Table entry of `sm`.
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range.
    pub fn sm(&self, sm: SmId) -> SmStatus<'_> {
        SmStatus {
            sm: &self.sms[sm.index()],
        }
    }

    /// SMs that are currently idle, in SM-id order. Returns an iterator over
    /// the SM Status Table — no allocation — so policies can scan it on
    /// every hook without heap traffic.
    pub fn idle_sms(&self) -> impl Iterator<Item = SmId> + '_ {
        self.sms
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_idle())
            .map(|(i, _)| SmId::new(i as u32))
    }

    /// The KSRT entry at `ksr`, if that slot is occupied *by the occupancy
    /// the handle refers to*. A handle kept across the slot's reuse resolves
    /// to `None` — its generation no longer matches.
    pub fn kernel(&self, ksr: KsrIndex) -> Option<&KernelState> {
        let slot = self.ksrt.get(ksr.index())?;
        if slot.gen != ksr.generation() {
            return None;
        }
        slot.state.as_ref()
    }

    /// Indices of all occupied KSRT slots (the active queue), in slot order.
    /// Returns an iterator over the table — no allocation.
    pub fn active_kernels(&self) -> impl Iterator<Item = KsrIndex> + '_ {
        self.ksrt.iter().enumerate().filter_map(|(i, s)| {
            s.state
                .as_ref()
                .map(|_| KsrIndex::with_gen(i as u32, s.gen))
        })
    }

    /// Number of kernels waiting in command buffers for a free KSRT slot.
    pub fn waiting_admission(&self) -> usize {
        self.waiting_admission.len()
    }

    /// Whether the execution engine is completely empty (no active kernels,
    /// no waiting kernels, all SMs idle).
    pub fn is_empty(&self) -> bool {
        self.ksrt.iter().all(|s| s.state.is_none())
            && self.waiting_admission.is_empty()
            && self.sms.iter().all(Sm::is_idle)
    }

    /// Aggregate counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Whether any output (events to schedule, completions, policy hooks)
    /// is waiting to be drained. Batched dispatch uses this to skip drain
    /// passes for events that produced nothing — a drain with no pending
    /// output is an observable no-op.
    pub fn has_pending_outputs(&self) -> bool {
        !self.scheduled.is_empty() || !self.completions.is_empty() || !self.hooks.is_empty()
    }

    /// Moves the events the engine wants scheduled into `out`; the caller
    /// must deliver each back via [`handle`](Self::handle) at the given
    /// absolute time.
    ///
    /// Appends to (rather than replaces) `out`. When `out` is empty the two
    /// buffers are swapped instead of copied; either way both keep their
    /// capacity, so a caller that reuses one scratch vector pays no
    /// allocation in steady state — this is the simulator's per-event hot
    /// path.
    pub fn drain_scheduled_into(&mut self, out: &mut Vec<(SimTime, EngineEvent)>) {
        if self.scheduled.is_empty() {
            return;
        }
        if out.is_empty() {
            std::mem::swap(out, &mut self.scheduled);
        } else {
            out.append(&mut self.scheduled);
        }
    }

    /// Moves the kernel completions produced since the last drain into
    /// `out`. Appends; both buffers keep their capacity.
    pub fn drain_completions_into(&mut self, out: &mut Vec<KernelCompletion>) {
        if !self.completions.is_empty() {
            out.append(&mut self.completions);
        }
    }

    /// Moves the policy hooks raised since the last drain into `out`.
    /// Appends; both buffers keep their capacity.
    pub fn drain_hooks_into(&mut self, out: &mut Vec<PolicyHook>) {
        if !self.hooks.is_empty() {
            out.append(&mut self.hooks);
        }
    }

    // ------------------------------------------------------------------
    // Kernel submission / admission
    // ------------------------------------------------------------------

    /// Submits a kernel launch command to the engine (the command dispatcher
    /// issuing from a hardware queue). The kernel is admitted to the KSRT if
    /// a slot is free; otherwise it waits in a command buffer until an
    /// active kernel finishes.
    pub fn submit(&mut self, launch: KernelLaunch, now: SimTime) {
        debug_assert!(
            launch.spec.footprint().max_blocks_per_sm(&self.gpu) > 0,
            "kernel {} cannot fit on an SM; workloads must be validated first",
            launch.spec.name()
        );
        if self.admit(launch, now).is_none() {
            // No free KSRT slot: hold the command until one frees up.
        }
    }

    fn admit(&mut self, launch: KernelLaunch, now: SimTime) -> Option<KsrIndex> {
        let slot = self.ksrt.iter().position(|s| s.state.is_none());
        match slot {
            Some(i) => {
                // Seed the remaining-time estimator with the kernel's
                // declared mean block time; observations refine it online.
                self.estimator.reset_slot(i, launch.spec.mean_block_time());
                // A new occupancy of the slot: bump the generation so any
                // handle to the previous occupant stops resolving. Live
                // slots are therefore always at generation >= 1.
                let gen = self.ksrt[i].gen + 1;
                self.ksrt[i].gen = gen;
                let ksr = KsrIndex::with_gen(i as u32, gen);
                // Real-time launches get a one-shot deadline tick,
                // `deadline_margin` ahead of the absolute deadline (or
                // immediately, if the deadline is closer than that). Legacy
                // launches schedule nothing, keeping their event stream
                // bit-identical to the pre-real-time engine.
                if let Some(deadline) = launch.deadline() {
                    let warn_at = deadline
                        .saturating_sub(self.params.deadline_margin)
                        .max(now);
                    self.scheduled.push((
                        warn_at,
                        EngineEvent::DeadlineTick {
                            ksr,
                            launch: launch.id,
                        },
                    ));
                }
                self.ksrt[i].restore = ContextSwitchCost::new(&self.gpu, &self.preemption_cfg)
                    .restore_time_per_block(&launch.spec.footprint());
                let ptbq = std::mem::take(&mut self.ksrt[i].spare_ptbq);
                self.ksrt[i].state = Some(KernelState::new_pooled(launch, &self.gpu, now, ptbq));
                self.hooks.push(PolicyHook::KernelAdmitted(ksr));
                Some(ksr)
            }
            None => {
                self.waiting_admission.push_back(launch);
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // Policy actions
    // ------------------------------------------------------------------

    /// Assigns an idle SM to a kernel. The SM driver sets the SM up and then
    /// starts issuing thread blocks.
    ///
    /// Returns `false` (and does nothing) if the SM is not idle or the
    /// kernel slot is empty or already finished.
    pub fn assign_sm(&mut self, now: SimTime, sm: SmId, ksr: KsrIndex) -> bool {
        let usable = self
            .kernel(ksr)
            .is_some_and(|k| !k.is_finished() && k.has_blocks_to_issue());
        let s = &mut self.sms[sm.index()];
        if !s.is_idle() || !usable {
            return false;
        }
        s.phase = Phase::SettingUp;
        s.kernel = Some(ksr);
        let epoch = s.epoch;
        if let Some(k) = self.ksrt[ksr.index()].state.as_mut() {
            k.note_assigned();
            k.note_started(now);
        }
        self.scheduled.push((
            now + self.params.sm_setup_time,
            EngineEvent::SetupDone { sm, epoch },
        ));
        // Time-slicing support: the first quantum tick of this assignment.
        // Subsequent ticks re-arm in `on_quantum_tick`; leaving the kernel
        // or a context save bumps the epoch and silences the chain.
        if let Some(quantum) = self.params.quantum {
            self.scheduled
                .push((now + quantum, EngineEvent::QuantumTick { sm, epoch }));
        }
        true
    }

    /// Preempts a running SM on behalf of `next`. The mechanism is chosen
    /// according to the configured [`MechanismSelection`]: pinned, or picked
    /// per preemption from the estimated drain and context-save costs. The
    /// SM is marked reserved; once the preemption completes the SM is set up
    /// for `next` (unless the reservation is retargeted in the meantime).
    ///
    /// Returns `false` (and does nothing) if the SM is not in the running
    /// state.
    pub fn preempt_sm(&mut self, now: SimTime, sm: SmId, next: KsrIndex) -> bool {
        match self.sms[sm.index()].phase {
            Phase::SettingUp => {
                // The SM is still being set up for its current kernel; treat
                // it like an immediate hand-over: cancel the setup and
                // retarget. That is a completed zero-latency preemption that
                // no mechanism had to act on.
                self.stats.preemptions += 1;
                self.stats.preemptions_completed += 1;
                self.vacate(now, sm);
                self.hand_over(now, sm, Some(next));
                return true;
            }
            Phase::Running => {}
            Phase::Idle | Phase::Preempting(_) => return false,
        }
        self.stats.preemptions += 1;
        let (mechanism, estimate) = match self.preemption_cfg.selection {
            MechanismSelection::Fixed(m) => (m, None),
            MechanismSelection::Adaptive { latency_target } => {
                let estimate = self.estimate_preemption(now, sm);
                let chosen = estimate.select(latency_target);
                match chosen {
                    PreemptionMechanism::Draining => self.stats.adaptive_drain_picks += 1,
                    PreemptionMechanism::ContextSwitch => self.stats.adaptive_cs_picks += 1,
                }
                let est_latency = estimate.latency_of(chosen);
                self.stats.adaptive_estimated_latency += est_latency;
                (chosen, Some(est_latency))
            }
        };
        let s = &mut self.sms[sm.index()];
        s.phase = Phase::Preempting(Preemption {
            mechanism,
            next: Some(next),
            requested_at: now,
            estimate,
        });
        match mechanism {
            PreemptionMechanism::Draining => {
                if s.resident.is_empty() {
                    self.complete_preemption(now, sm);
                }
                // Otherwise resident blocks keep their completion events; the
                // preemption finishes when the last one completes.
            }
            PreemptionMechanism::ContextSwitch => {
                // Cancel outstanding block completions and move the resident
                // blocks to the kernel's PTBQ with their remaining time. The
                // resident vector is drained in place so its capacity
                // survives for the next residency (no per-preemption
                // allocation).
                s.epoch += 1;
                let epoch = s.epoch;
                let current = s.kernel.expect("running SM has a kernel");
                let kernel = self.ksrt[current.index()]
                    .state
                    .as_mut()
                    .expect("current kernel exists");
                let footprint = kernel.launch().spec.footprint();
                let n_saved = s.resident.len() as u32;
                let cost = ContextSwitchCost::new(&self.gpu, &self.preemption_cfg);
                let save_time = cost.save_time(&footprint, n_saved);
                for rb in s.resident.drain(..) {
                    let elapsed = now - rb.issued_at;
                    let remaining = rb.duration.saturating_sub(elapsed);
                    kernel.note_block_preempted(PreemptedBlock {
                        block: rb.block,
                        remaining,
                    });
                }
                self.stats.blocks_saved += n_saved as u64;
                self.stats.save_time += save_time;
                self.scheduled
                    .push((now + save_time, EngineEvent::SaveDone { sm, epoch }));
            }
        }
        true
    }

    /// The adaptive selector's cost estimate for preempting `sm` right now:
    /// drain latency/work predicted by the online remaining-time estimator,
    /// context-save latency and deferred restore cost from the footprint
    /// model. Exposed so policies and experiments can inspect the decision
    /// the engine would make. Returns [`PreemptionEstimate::ZERO`] for an SM
    /// with no current kernel.
    pub fn estimate_preemption(&self, now: SimTime, sm: SmId) -> PreemptionEstimate {
        let s = &self.sms[sm.index()];
        let Some(ksr) = s.kernel else {
            return PreemptionEstimate::ZERO;
        };
        let footprint = self.ksrt[ksr.index()]
            .state
            .as_ref()
            .expect("current kernel exists")
            .launch()
            .spec
            .footprint();
        let cost = ContextSwitchCost::new(&self.gpu, &self.preemption_cfg);
        PreemptionEstimate::for_elapsed(
            &self.estimator,
            ksr.index(),
            s.resident.iter().map(|rb| now - rb.issued_at),
            &cost,
            &footprint,
        )
    }

    /// The latency the configured mechanism selection would pay to preempt
    /// `sm` right now: the pinned mechanism's estimated latency under
    /// [`MechanismSelection::Fixed`], or the latency of whichever mechanism
    /// the adaptive selector would pick. Context-aware policies (GCAPS)
    /// weigh it against the urgency of the kernel that wants the SM; it
    /// comes from the same online estimates the engine acts on.
    pub fn expected_preemption_latency(&self, now: SimTime, sm: SmId) -> SimTime {
        let estimate = self.estimate_preemption(now, sm);
        let mechanism = match self.preemption_cfg.selection {
            MechanismSelection::Fixed(m) => m,
            MechanismSelection::Adaptive { latency_target } => estimate.select(latency_target),
        };
        estimate.latency_of(mechanism)
    }

    /// Changes the kernel a reserved SM will be handed to once its
    /// preemption completes (§3.4 allows this to cope with long-latency
    /// preemptions). Returns `false` if the SM is not reserved.
    pub fn retarget_reservation(&mut self, sm: SmId, next: KsrIndex) -> bool {
        let Phase::Preempting(p) = &mut self.sms[sm.index()].phase else {
            return false;
        };
        p.next = Some(next);
        true
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Delivers an engine event back at its scheduled time.
    pub fn handle(&mut self, now: SimTime, event: EngineEvent) {
        match event {
            EngineEvent::SetupDone { sm, epoch } => self.on_setup_done(now, sm, epoch),
            EngineEvent::BlockDone {
                sm,
                epoch,
                slot,
                block,
            } => self.on_block_done(now, sm, epoch, slot, block),
            EngineEvent::SaveDone { sm, epoch } => self.on_save_done(now, sm, epoch),
            EngineEvent::QuantumTick { sm, epoch } => self.on_quantum_tick(now, sm, epoch),
            EngineEvent::DeadlineTick { ksr, launch } => self.on_deadline_tick(ksr, launch),
        }
    }

    fn on_quantum_tick(&mut self, now: SimTime, sm: SmId, epoch: u64) {
        // Quanta only matter while the SM is assigned to its kernel (being
        // set up or running); preempting and idle SMs have nothing for a
        // policy to rotate.
        let s = &self.sms[sm.index()];
        if s.epoch != epoch || !matches!(s.phase, Phase::SettingUp | Phase::Running) {
            return;
        }
        self.hooks.push(PolicyHook::QuantumExpired(sm));
        let quantum = self
            .params
            .quantum
            .expect("quantum ticks are only scheduled with a quantum configured");
        self.scheduled
            .push((now + quantum, EngineEvent::QuantumTick { sm, epoch }));
    }

    fn on_deadline_tick(&mut self, ksr: KsrIndex, launch: KernelLaunchId) {
        let Some(kernel) = self.kernel(ksr) else {
            return;
        };
        // The slot may have been freed and reused since the tick was
        // scheduled; the generation already filters that, and the launch id
        // keeps disambiguating as defence in depth.
        if kernel.launch().id != launch || kernel.is_finished() {
            return;
        }
        let deadline = kernel
            .launch()
            .deadline()
            .expect("deadline ticks are only scheduled for launches with deadlines");
        self.hooks
            .push(PolicyHook::DeadlineApproaching { ksr, deadline });
    }

    fn on_setup_done(&mut self, now: SimTime, sm: SmId, epoch: u64) {
        let s = &mut self.sms[sm.index()];
        if s.epoch != epoch {
            return;
        }
        s.phase = Phase::Running;
        self.issue_blocks(now, sm);
    }

    fn on_block_done(
        &mut self,
        now: SimTime,
        sm: SmId,
        epoch: u64,
        slot: u32,
        block: ThreadBlockId,
    ) {
        let s = &mut self.sms[sm.index()];
        // A preemption that moved the SM's blocks away bumped the epoch, so
        // a current-epoch completion always finds its block in its slot.
        if s.epoch != epoch {
            return;
        }
        let finished = s.retire(slot, block);
        let Some(ksr) = s.kernel else {
            return;
        };
        self.stats.blocks_completed += 1;
        self.stats.busy_time += finished.duration;
        // Feed the online estimator with the observed block duration.
        // Restored residencies are partial executions (remaining + restore),
        // not full block durations, and would bias the estimate downward.
        if !finished.restored {
            self.estimator.observe(ksr.index(), finished.duration);
        }
        let kernel_finished = {
            let k = self.ksrt[ksr.index()]
                .state
                .as_mut()
                .expect("current kernel exists");
            k.note_block_completed();
            k.is_finished()
        };
        if kernel_finished {
            self.finish_kernel(now, ksr);
            return;
        }
        let s = &self.sms[sm.index()];
        match s.phase {
            Phase::Running => self.issue_blocks(now, sm),
            Phase::Preempting(_) if s.resident.is_empty() => self.complete_preemption(now, sm),
            _ => {}
        }
    }

    fn on_save_done(&mut self, now: SimTime, sm: SmId, epoch: u64) {
        if self.sms[sm.index()].epoch == epoch {
            self.complete_preemption(now, sm);
        }
    }

    // ------------------------------------------------------------------
    // SM driver internals
    // ------------------------------------------------------------------

    /// Issues thread blocks of the SM's current kernel until the SM is full
    /// or the kernel has nothing left to issue. Preempted blocks are issued
    /// before fresh ones.
    fn issue_blocks(&mut self, now: SimTime, sm: SmId) {
        let (Phase::Running, Some(ksr)) = (self.sms[sm.index()].phase, self.sms[sm.index()].kernel)
        else {
            return;
        };
        // Blocks arriving from the PTBQ were saved by a context switch, so
        // they pay the restore penalty on re-issue regardless of how future
        // preemptions will be performed (draining never queues blocks). The
        // penalty is fixed per launch and cached in the slot at admission.
        let restore = self.ksrt[ksr.index()].restore;
        let (blocks_per_sm, mean_block_time) = {
            let k = self.ksrt[ksr.index()]
                .state
                .as_ref()
                .expect("current kernel exists");
            (k.blocks_per_sm(), k.launch().spec.mean_block_time())
        };
        let mut filled = true;
        {
            let ExecutionEngine {
                params,
                rng,
                sms,
                ksrt,
                scheduled,
                ..
            } = self;
            let s = &mut sms[sm.index()];
            let kernel = ksrt[ksr.index()]
                .state
                .as_mut()
                .expect("current kernel exists");
            let epoch = s.epoch;
            loop {
                if s.resident.len() as u32 >= blocks_per_sm {
                    break;
                }
                let Some((block, restored_remaining)) = kernel.take_next_block() else {
                    filled = false;
                    break;
                };
                let restored = restored_remaining.is_some();
                let duration = match restored_remaining {
                    Some(remaining) => remaining + restore,
                    None => rng.jittered(mean_block_time, params.block_time_jitter),
                };
                let slot = s.make_resident(block, now, duration, restored);
                scheduled.push((
                    now + duration,
                    EngineEvent::BlockDone {
                        sm,
                        epoch,
                        slot,
                        block,
                    },
                ));
            }
        }
        if filled {
            return;
        }
        // Nothing left to issue: if the SM also has no resident blocks it
        // cannot contribute to this kernel any more and becomes idle.
        if self.sms[sm.index()].resident.is_empty() {
            self.vacate(now, sm);
            self.hand_over(now, sm, None);
        }
    }

    /// Takes `sm` off its kernel; every way an SM leaves a kernel comes
    /// here. Closes the latency accounting of an in-flight preemption
    /// (and, when the adaptive selector made the decision, its estimate
    /// error), unassigns the kernel if its KSRT entry still exists, and
    /// bumps the epoch so every event the SM scheduled for the kernel goes
    /// stale. Returns the kernel the SM was reserved for, if any.
    fn vacate(&mut self, now: SimTime, sm: SmId) -> Option<KsrIndex> {
        let s = &mut self.sms[sm.index()];
        let phase = std::mem::replace(&mut s.phase, Phase::Idle);
        let old = s.kernel.take();
        s.epoch += 1;
        if let Some(k) = old.and_then(|ksr| self.ksrt[ksr.index()].state.as_mut()) {
            k.note_unassigned();
        }
        let Phase::Preempting(preemption) = phase else {
            return None;
        };
        let actual = now - preemption.requested_at;
        self.stats.preemptions_completed += 1;
        self.stats.preemption_latency_total += actual;
        if let Some(estimated) = preemption.estimate {
            self.stats.adaptive_completed += 1;
            self.stats.adaptive_latency_error += estimated.max(actual) - estimated.min(actual);
        }
        preemption.next
    }

    /// Hands a vacated SM to `next`, or raises [`PolicyHook::SmIdle`] when
    /// there is none or it cannot use the SM.
    fn hand_over(&mut self, now: SimTime, sm: SmId, next: Option<KsrIndex>) {
        if !next.is_some_and(|ksr| self.assign_sm(now, sm, ksr)) {
            self.hooks.push(PolicyHook::SmIdle(sm));
        }
    }

    /// Finishes a preemption on `sm`: hands the SM to the reserved kernel
    /// (or back to the idle pool).
    fn complete_preemption(&mut self, now: SimTime, sm: SmId) {
        let next = self.vacate(now, sm);
        self.hand_over(now, sm, next);
    }

    /// Completes a kernel: frees its KSRT slot, releases every SM that was
    /// assigned or reserved for it, notifies the host side, and admits a
    /// waiting kernel into the freed slot.
    fn finish_kernel(&mut self, now: SimTime, ksr: KsrIndex) {
        let state = self.ksrt[ksr.index()]
            .state
            .take()
            .expect("finishing an active kernel");
        debug_assert!(
            state.is_finished(),
            "kernel finished with unexecuted blocks"
        );
        self.stats.kernels_completed += 1;
        let launch_id = state.launch().id;
        self.completions.push(KernelCompletion {
            launch: launch_id,
            command: state.launch().command,
            process: state.launch().process,
            started_at: state.started_at().unwrap_or(now),
            finished_at: now,
        });
        self.hooks.push(PolicyHook::KernelFinished {
            ksr,
            launch: launch_id,
        });
        // Pool the kernel's PTBQ storage for the slot's next occupant.
        self.ksrt[ksr.index()].spare_ptbq = state.into_ptbq();
        // Vacate the SMs that were running this kernel (they have no
        // resident blocks left) or preempting it (the kernel finished on its
        // own, so the reservation resolves now), and drop reservations that
        // point at it: such an SM goes idle when its preemption completes.
        for i in 0..self.sms.len() {
            let s = &mut self.sms[i];
            if s.kernel == Some(ksr) {
                debug_assert!(s.resident.is_empty());
                let sm = SmId::new(i as u32);
                let next = self.vacate(now, sm);
                self.hand_over(now, sm, next);
            } else if let Phase::Preempting(p) = &mut s.phase {
                if p.next == Some(ksr) {
                    p.next = None;
                }
            }
        }
        // Admit a waiting kernel into the freed slot.
        if let Some(waiting) = self.waiting_admission.pop_front() {
            let admitted = self.admit(waiting, now);
            debug_assert!(admitted.is_some(), "a slot was just freed");
        }
    }
}

impl ExecutionEngine {
    /// Checks engine-wide invariants; used by tests and the property suite.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, slot) in self.ksrt.iter().enumerate() {
            if let Some(k) = &slot.state {
                if !k.check_block_accounting() {
                    return Err(format!("KSR{i}: block accounting broken"));
                }
            }
        }
        for (i, s) in self.sms.iter().enumerate() {
            if let Some(ksr) = s.kernel {
                if self.kernel(ksr).is_none() {
                    return Err(format!("SM{i} points at an empty or stale KSRT slot"));
                }
            }
            if s.is_idle() && !s.resident.is_empty() {
                return Err(format!("SM{i} is idle but has resident blocks"));
            }
            if s.is_idle() != s.kernel.is_none() {
                return Err(format!(
                    "SM{i} is {:?} with kernel {:?}: it must be idle exactly when it owns none",
                    s.phase, s.kernel
                ));
            }
            if let Some(k) = s.kernel.and_then(|ksr| self.kernel(ksr)) {
                if s.resident.len() > k.blocks_per_sm() as usize {
                    return Err(format!(
                        "SM{i} holds {} resident blocks, more than its kernel's {} per SM",
                        s.resident.len(),
                        k.blocks_per_sm()
                    ));
                }
            }
            self.check_slot_table(i)?;
        }
        for (i, slot) in self.ksrt.iter().enumerate() {
            if let Some(k) = &slot.state {
                let assigned = self
                    .sms
                    .iter()
                    .filter(|s| s.kernel.map(KsrIndex::index) == Some(i))
                    .count() as u32;
                if assigned != k.assigned_sms() {
                    return Err(format!(
                        "KSR{i}: assigned_sms={} but {} SMs point at it",
                        k.assigned_sms(),
                        assigned
                    ));
                }
            }
        }
        Ok(())
    }

    /// Checks SM `i`'s residency-slot table: it lists each of the
    /// `max_blocks_per_sm` slots exactly once, each resident block's slot
    /// maps back to its index, and so the free stack past the resident
    /// blocks holds no live slot.
    fn check_slot_table(&self, i: usize) -> Result<(), String> {
        let sm = &self.sms[i];
        let n_slots = self.gpu.max_blocks_per_sm as usize;
        if sm.slots.len() != 2 * n_slots {
            return Err(format!(
                "SM{i} has a slot table of {} entries for {n_slots} slots",
                sm.slots.len()
            ));
        }
        if sm.resident.len() > n_slots {
            return Err(format!(
                "SM{i} holds {} resident blocks in {n_slots} slots",
                sm.resident.len()
            ));
        }
        let mut listed = vec![false; n_slots];
        for index in 0..n_slots {
            let slot = sm.slot_at(index);
            if slot as usize >= n_slots || listed[slot as usize] {
                return Err(format!(
                    "SM{i}: slot {slot} at index {index} is out of range or listed twice"
                ));
            }
            listed[slot as usize] = true;
            if sm.index_of(slot) != index {
                return Err(format!(
                    "SM{i}: slot {slot} maps to index {}, but sits at {index}",
                    sm.index_of(slot)
                ));
            }
        }
        Ok(())
    }
}
