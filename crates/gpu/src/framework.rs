//! The hardware scheduling framework (§3.3).
//!
//! The framework tracks the state of active kernels and SMs so that a
//! scheduling policy can decide when and where kernels run:
//!
//! * the **Kernel Status Register Table** (KSRT) — one [`KernelState`] per
//!   active kernel, indexed by the generational [`KsrIndex`],
//! * the **SM Status Table** (SMST) — one typed record per SM, whose phase
//!   (idle, setting up, running, or preempting while reserved for a next
//!   kernel) carries exactly the data that phase needs, read through the
//!   public [`SmStatus`] view,
//! * the **Preempted Thread Block Queues** (PTBQ) — per-kernel queues of
//!   thread blocks that were context-switched out and wait to be re-issued.

use crate::launch::KernelLaunch;
use crate::preempt::PreemptionMechanism;
use gpreempt_types::{GpuConfig, SimTime, ThreadBlockId};
use std::collections::VecDeque;

/// Generational index of an entry in the Kernel Status Register Table.
///
/// The slot part addresses the table; the generation identifies one
/// occupancy of that slot. Slots are reused the moment a kernel finishes,
/// and policies as well as in-flight events hold handles across that reuse
/// — the generation makes such stale handles resolve to `None` instead of
/// silently aliasing the new occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KsrIndex {
    slot: u32,
    gen: u32,
}

impl KsrIndex {
    /// Creates a handle at generation zero (mainly useful in tests). Live
    /// slots are always at generation one or later, so a handle built this
    /// way never resolves to a kernel.
    pub const fn new(raw: u32) -> Self {
        KsrIndex { slot: raw, gen: 0 }
    }

    /// A handle for one specific occupancy of a slot.
    pub(crate) const fn with_gen(slot: u32, gen: u32) -> Self {
        KsrIndex { slot, gen }
    }

    /// The raw table index.
    pub const fn index(self) -> usize {
        self.slot as usize
    }

    /// The occupancy this handle refers to.
    pub(crate) const fn generation(self) -> u32 {
        self.gen
    }
}

impl std::fmt::Display for KsrIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KSR{}", self.slot)
    }
}

/// A thread block that was preempted by the context-switch mechanism and
/// waits in its kernel's PTBQ to be re-issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreemptedBlock {
    /// The block's flat grid index.
    pub block: ThreadBlockId,
    /// Execution time the block still needs once restored.
    pub remaining: SimTime,
}

/// One entry of the KSRT: the status of an active (running or preempted)
/// kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelState {
    launch: KernelLaunch,
    blocks_per_sm: u32,
    admitted_at: SimTime,
    next_block: u32,
    completed: u32,
    running: u32,
    assigned_sms: u32,
    started_at: Option<SimTime>,
    ptbq: VecDeque<PreemptedBlock>,
}

impl KernelState {
    /// Creates the state for a newly admitted kernel.
    #[cfg(test)]
    pub(crate) fn new(launch: KernelLaunch, gpu: &GpuConfig, admitted_at: SimTime) -> Self {
        Self::new_pooled(launch, gpu, admitted_at, VecDeque::new())
    }

    /// Creates the state for a newly admitted kernel, reusing the PTBQ
    /// storage left behind by the slot's previous occupant so successive
    /// launches through one slot allocate nothing.
    pub(crate) fn new_pooled(
        launch: KernelLaunch,
        gpu: &GpuConfig,
        admitted_at: SimTime,
        mut ptbq: VecDeque<PreemptedBlock>,
    ) -> Self {
        ptbq.clear();
        let blocks_per_sm = launch.spec.footprint().max_blocks_per_sm(gpu).max(1);
        KernelState {
            launch,
            blocks_per_sm,
            admitted_at,
            next_block: 0,
            completed: 0,
            running: 0,
            assigned_sms: 0,
            started_at: None,
            ptbq,
        }
    }

    /// Consumes the state, returning its PTBQ storage for pooling.
    pub(crate) fn into_ptbq(mut self) -> VecDeque<PreemptedBlock> {
        self.ptbq.clear();
        self.ptbq
    }

    /// The launch command this entry tracks.
    pub fn launch(&self) -> &KernelLaunch {
        &self.launch
    }

    /// The absolute deadline of the launch's execution, if it has a
    /// real-time contract.
    pub fn deadline(&self) -> Option<SimTime> {
        self.launch.deadline()
    }

    /// Time remaining until the deadline at `now` (zero once past it);
    /// `None` for kernels without a deadline.
    pub fn slack(&self, now: SimTime) -> Option<SimTime> {
        self.launch.deadline().map(|d| d.saturating_sub(now))
    }

    /// Maximum resident thread blocks per SM for this kernel.
    pub fn blocks_per_sm(&self) -> u32 {
        self.blocks_per_sm
    }

    /// When the kernel was admitted to the active queue.
    pub fn admitted_at(&self) -> SimTime {
        self.admitted_at
    }

    /// Total thread blocks in the kernel's grid.
    pub fn total_blocks(&self) -> u32 {
        self.launch.spec.n_blocks()
    }

    /// Thread blocks that have finished execution.
    pub fn completed_blocks(&self) -> u32 {
        self.completed
    }

    /// Thread blocks currently resident on some SM.
    pub fn running_blocks(&self) -> u32 {
        self.running
    }

    /// Number of SMs currently assigned to this kernel (running or being
    /// set up for it).
    pub fn assigned_sms(&self) -> u32 {
        self.assigned_sms
    }

    /// Thread blocks waiting in the PTBQ after a context-switch preemption.
    pub fn preempted_blocks(&self) -> usize {
        self.ptbq.len()
    }

    /// Thread blocks that still need to be issued (fresh ones plus
    /// preempted ones).
    pub fn blocks_to_issue(&self) -> u32 {
        (self.total_blocks() - self.next_block) + self.ptbq.len() as u32
    }

    /// Whether the kernel still has work that an SM could pick up.
    pub fn has_blocks_to_issue(&self) -> bool {
        self.blocks_to_issue() > 0
    }

    /// Whether every block of the kernel has finished.
    pub fn is_finished(&self) -> bool {
        self.completed == self.total_blocks()
    }

    /// Whether the kernel has started executing (has or had SMs / blocks in
    /// flight). Used by the FCFS baseline to decide whether the execution
    /// engine is still occupied by another process.
    pub fn has_started(&self) -> bool {
        self.assigned_sms > 0 || self.next_block > 0 || self.completed > 0
    }

    /// Number of additional SMs that could still do useful work for this
    /// kernel: enough to hold every block that is not yet issued.
    pub fn sms_needed(&self) -> u32 {
        self.blocks_to_issue().div_ceil(self.blocks_per_sm.max(1))
    }

    pub(crate) fn note_assigned(&mut self) {
        self.assigned_sms += 1;
    }

    pub(crate) fn note_started(&mut self, now: SimTime) {
        if self.started_at.is_none() {
            self.started_at = Some(now);
        }
    }

    /// When the kernel was first assigned an SM, if it has started at all.
    pub fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }

    pub(crate) fn note_unassigned(&mut self) {
        debug_assert!(
            self.assigned_sms > 0,
            "unassigning an SM that was never assigned"
        );
        self.assigned_sms = self.assigned_sms.saturating_sub(1);
    }

    /// Takes the next block to issue: preempted blocks first (so the PTBQ
    /// stays small, §3.3), then fresh blocks. Returns the block id, the
    /// remaining execution time if it is a restored block, or `None` if
    /// there is nothing to issue.
    pub(crate) fn take_next_block(&mut self) -> Option<(ThreadBlockId, Option<SimTime>)> {
        if let Some(pb) = self.ptbq.pop_front() {
            self.running += 1;
            return Some((pb.block, Some(pb.remaining)));
        }
        if self.next_block < self.total_blocks() {
            let block = ThreadBlockId::new(self.next_block);
            self.next_block += 1;
            self.running += 1;
            return Some((block, None));
        }
        None
    }

    pub(crate) fn note_block_completed(&mut self) {
        debug_assert!(self.running > 0);
        self.running = self.running.saturating_sub(1);
        self.completed += 1;
    }

    pub(crate) fn note_block_preempted(&mut self, block: PreemptedBlock) {
        debug_assert!(self.running > 0);
        self.running = self.running.saturating_sub(1);
        self.ptbq.push_back(block);
    }

    /// Internal consistency check: every block is either unissued, running,
    /// waiting in the PTBQ, or completed. Equivalently, every block that has
    /// ever been issued is currently running, preempted or done.
    pub fn check_block_accounting(&self) -> bool {
        self.running + self.completed + self.ptbq.len() as u32 == self.next_block
    }
}

/// The state of one SM as recorded in the SM Status Table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SmState {
    /// The SM has no kernel assigned.
    Idle,
    /// The SM is executing thread blocks of its current kernel (or being set
    /// up to do so).
    Running,
    /// The SM has been reserved for another kernel and is being preempted
    /// (context save in progress, or draining).
    Reserved,
}

/// A thread block currently resident on an SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidentBlock {
    /// The block's flat grid index.
    pub block: ThreadBlockId,
    /// When the block started executing on the SM.
    pub issued_at: SimTime,
    /// Its total execution time for this residency.
    pub duration: SimTime,
    /// Whether this residency resumes a context-switched block: its
    /// `duration` is then remaining time plus restore penalty, not a full
    /// block execution, and must not feed the runtime estimator.
    pub restored: bool,
}

/// An in-flight preemption of one SM, from the request to the hand-over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Preemption {
    pub(crate) mechanism: PreemptionMechanism,
    /// The kernel the SM is reserved for; `None` once that kernel finished
    /// elsewhere, so the SM goes idle when the preemption completes.
    pub(crate) next: Option<KsrIndex>,
    /// When the preemption was requested (latency accounting).
    pub(crate) requested_at: SimTime,
    /// The engine's latency estimate, recorded only when the adaptive
    /// selector made the decision.
    pub(crate) estimate: Option<SimTime>,
}

/// What an SM is doing, carrying exactly the data each phase needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// The SM has no kernel.
    Idle,
    /// The SM driver is setting the SM up for its kernel.
    SettingUp,
    /// The SM issues and executes its kernel's thread blocks.
    Running,
    /// The SM is reserved for another kernel while a preemption vacates it.
    Preempting(Preemption),
}

/// One entry of the SM Status Table.
///
/// Each resident block holds one of the SM's `max_blocks_per_sm` residency
/// slots, and its `BlockDone` event carries the slot back, so a completion
/// finds its block without a scan.
#[derive(Debug)]
pub(crate) struct Sm {
    pub(crate) phase: Phase,
    /// The kernel the SM is assigned to: `Some` exactly when it is not idle.
    pub(crate) kernel: Option<KsrIndex>,
    /// Resident blocks, in the order `push` and `swap_remove` leave them.
    /// A context-switch save moves them to the PTBQ in this order, and
    /// that order reaches the results.
    pub(crate) resident: Vec<ResidentBlock>,
    /// The residency-slot table: a sparse set over the slots, in one
    /// allocation sized in `new`. Its first half lists the slots by index:
    /// index `i` holds the slot of `resident[i]`, and the indices from
    /// `resident.len()` on form the free-slot stack, top first. Its second
    /// half maps each slot back to its index. Emptying `resident`
    /// therefore frees every slot.
    pub(crate) slots: Vec<u32>,
    /// Guards the events the SM schedules: it changes exactly when they
    /// must be ignored (the SM leaves its kernel, or a context save
    /// discards its resident blocks).
    pub(crate) epoch: u64,
}

impl Sm {
    /// An idle SM with `max_blocks` residency slots. The resident-block
    /// and slot storage is sized for `max_blocks` blocks up front.
    pub(crate) fn new(max_blocks: u32) -> Self {
        Sm {
            phase: Phase::Idle,
            kernel: None,
            resident: Vec::with_capacity(max_blocks as usize),
            slots: (0..max_blocks).chain(0..max_blocks).collect(),
            epoch: 0,
        }
    }

    pub(crate) fn is_idle(&self) -> bool {
        self.phase == Phase::Idle
    }

    /// Number of residency slots.
    pub(crate) fn n_slots(&self) -> usize {
        self.slots.len() / 2
    }

    /// The slot at `index` of the table's first half: the slot of
    /// `resident[index]`, or a free slot past the resident blocks.
    pub(crate) fn slot_at(&self, index: usize) -> u32 {
        self.slots[..self.n_slots()][index]
    }

    /// The index of `slot` in the table's first half.
    pub(crate) fn index_of(&self, slot: u32) -> usize {
        self.slots[self.n_slots() + slot as usize] as usize
    }

    /// Puts `slot` at `index` of the first half and records that index in
    /// the second.
    fn place(&mut self, index: usize, slot: u32) {
        let n = self.n_slots();
        self.slots[index] = slot;
        self.slots[n + slot as usize] = index as u32;
    }

    /// Makes `block` resident in the slot on top of the free stack and
    /// returns that slot.
    ///
    /// # Panics
    ///
    /// Panics if every slot is taken: the engine never issues more blocks
    /// than a kernel's `blocks_per_sm`, which the GPU's `max_blocks_per_sm`
    /// bounds.
    pub(crate) fn make_resident(
        &mut self,
        block: ThreadBlockId,
        issued_at: SimTime,
        duration: SimTime,
        restored: bool,
    ) -> u32 {
        let slot = self.slot_at(self.resident.len());
        self.resident.push(ResidentBlock {
            block,
            issued_at,
            duration,
            restored,
        });
        slot
    }

    /// Removes the block in `slot` from `resident` with the `swap_remove`
    /// the resident order depends on, and pushes the slot on the free
    /// stack.
    pub(crate) fn retire(&mut self, slot: u32, block: ThreadBlockId) -> ResidentBlock {
        let index = self.index_of(slot);
        debug_assert!(
            self.resident.get(index).is_some_and(|rb| rb.block == block),
            "residency slot {slot} does not hold completing block {block}"
        );
        let finished = self.resident.swap_remove(index);
        // Mirror the `swap_remove`: the last block's slot moves to `index`,
        // and the freed slot becomes the top of the free stack.
        let last = self.resident.len();
        self.place(index, self.slot_at(last));
        self.place(last, slot);
        finished
    }
}

/// One entry of the SM Status Table, as seen by policies and tests: a
/// read-only view of the SM's record.
#[derive(Debug, Clone, Copy)]
pub struct SmStatus<'a> {
    pub(crate) sm: &'a Sm,
}

impl SmStatus<'_> {
    /// The SM's scheduling state.
    pub fn state(&self) -> SmState {
        match self.sm.phase {
            Phase::Idle => SmState::Idle,
            Phase::SettingUp | Phase::Running => SmState::Running,
            Phase::Preempting(_) => SmState::Reserved,
        }
    }

    /// The kernel currently owning the SM, if any.
    pub fn current_kernel(&self) -> Option<KsrIndex> {
        self.sm.kernel
    }

    /// The in-flight preemption, if any.
    fn preemption(&self) -> Option<&Preemption> {
        match &self.sm.phase {
            Phase::Preempting(p) => Some(p),
            _ => None,
        }
    }

    /// The kernel the SM is reserved for, if a preemption is in flight.
    pub fn next_kernel(&self) -> Option<KsrIndex> {
        self.preemption().and_then(|p| p.next)
    }

    /// Number of thread blocks currently resident.
    pub fn resident_blocks(&self) -> usize {
        self.sm.resident.len()
    }

    /// Whether the SM is idle.
    pub fn is_idle(&self) -> bool {
        self.sm.is_idle()
    }

    /// Whether a preemption (of either mechanism) is in progress.
    pub fn is_preempting(&self) -> bool {
        self.preemption().is_some()
    }

    /// The mechanism of the in-flight preemption, if one is in progress.
    /// Under adaptive selection this can differ from SM to SM.
    pub fn preempting_with(&self) -> Option<PreemptionMechanism> {
        self.preemption().map(|p| p.mechanism)
    }

    /// When the in-flight preemption was requested, if one is in progress.
    pub fn preempted_at(&self) -> Option<SimTime> {
        self.preemption().map(|p| p.requested_at)
    }

    /// Whether the SM is being set up for a kernel (context transfer from
    /// the SM driver).
    pub fn is_setting_up(&self) -> bool {
        self.sm.phase == Phase::SettingUp
    }

    /// Whether a context save is in progress.
    pub fn is_saving(&self) -> bool {
        self.preempting_with() == Some(PreemptionMechanism::ContextSwitch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpreempt_trace::KernelSpec;
    use gpreempt_types::{CommandId, KernelFootprint, KernelLaunchId, Priority, ProcessId};

    fn launch(blocks: u32) -> KernelLaunch {
        KernelLaunch::new(
            KernelLaunchId::new(0),
            CommandId::new(0),
            ProcessId::new(0),
            Priority::NORMAL,
            KernelSpec::new(
                "k",
                KernelFootprint::new(4_096, 0, 256),
                blocks,
                SimTime::from_micros(10),
            ),
        )
    }

    #[test]
    fn fresh_kernel_state() {
        let gpu = GpuConfig::default();
        let ks = KernelState::new(launch(100), &gpu, SimTime::from_micros(3));
        assert_eq!(ks.total_blocks(), 100);
        assert_eq!(ks.completed_blocks(), 0);
        assert_eq!(ks.running_blocks(), 0);
        assert_eq!(ks.blocks_to_issue(), 100);
        assert!(ks.has_blocks_to_issue());
        assert!(!ks.is_finished());
        assert_eq!(ks.blocks_per_sm(), 8); // 2048 threads / 256, regs allow 16
        assert_eq!(ks.admitted_at(), SimTime::from_micros(3));
        assert_eq!(ks.preempted_blocks(), 0);
    }

    #[test]
    fn block_lifecycle() {
        let gpu = GpuConfig::default();
        let mut ks = KernelState::new(launch(2), &gpu, SimTime::ZERO);
        let (b0, rem0) = ks.take_next_block().unwrap();
        assert_eq!(b0, ThreadBlockId::new(0));
        assert!(rem0.is_none());
        assert_eq!(ks.running_blocks(), 1);
        ks.note_block_completed();
        assert_eq!(ks.completed_blocks(), 1);
        let (b1, _) = ks.take_next_block().unwrap();
        assert_eq!(b1, ThreadBlockId::new(1));
        assert!(ks.take_next_block().is_none());
        ks.note_block_completed();
        assert!(ks.is_finished());
        assert!(!ks.has_blocks_to_issue());
    }

    #[test]
    fn preempted_blocks_are_reissued_first() {
        let gpu = GpuConfig::default();
        let mut ks = KernelState::new(launch(10), &gpu, SimTime::ZERO);
        let (b0, _) = ks.take_next_block().unwrap();
        ks.note_block_preempted(PreemptedBlock {
            block: b0,
            remaining: SimTime::from_micros(4),
        });
        assert_eq!(ks.preempted_blocks(), 1);
        assert_eq!(ks.blocks_to_issue(), 10);
        let (again, rem) = ks.take_next_block().unwrap();
        assert_eq!(again, b0);
        assert_eq!(rem, Some(SimTime::from_micros(4)));
    }

    #[test]
    fn assignment_counting() {
        let gpu = GpuConfig::default();
        let mut ks = KernelState::new(launch(10), &gpu, SimTime::ZERO);
        ks.note_assigned();
        ks.note_assigned();
        assert_eq!(ks.assigned_sms(), 2);
        ks.note_unassigned();
        assert_eq!(ks.assigned_sms(), 1);
    }

    #[test]
    fn pooled_state_reuses_ptbq_storage() {
        let gpu = GpuConfig::default();
        let mut ks = KernelState::new(launch(10), &gpu, SimTime::ZERO);
        let (b0, _) = ks.take_next_block().unwrap();
        ks.note_block_preempted(PreemptedBlock {
            block: b0,
            remaining: SimTime::from_micros(4),
        });
        let ptbq = ks.into_ptbq();
        assert!(ptbq.is_empty(), "pooled storage comes back cleared");
        assert!(ptbq.capacity() >= 1, "pooled storage keeps its allocation");
        let reused = KernelState::new_pooled(launch(5), &gpu, SimTime::ZERO, ptbq);
        assert_eq!(reused.preempted_blocks(), 0);
        assert_eq!(reused.blocks_to_issue(), 5);
    }

    #[test]
    fn sm_status_defaults() {
        let record = Sm::new(16);
        let sm = SmStatus { sm: &record };
        assert!(sm.is_idle());
        assert!(!sm.is_preempting());
        assert!(!sm.is_setting_up());
        assert!(!sm.is_saving());
        assert_eq!(sm.resident_blocks(), 0);
        assert_eq!(sm.current_kernel(), None);
        assert_eq!(sm.next_kernel(), None);
        assert_eq!(sm.state(), SmState::Idle);
        assert_eq!(sm.preempting_with(), None);
        assert_eq!(sm.preempted_at(), None);
    }

    /// Retiring by slot removes exactly what a `position` scan plus
    /// `swap_remove` would, so the resident order is unchanged; the freed
    /// slot is the next one handed out, and emptying `resident` frees all.
    #[test]
    fn retiring_by_slot_keeps_the_swap_remove_order() {
        let mut sm = Sm::new(4);
        let mut reference = Vec::new();
        let mut slot_of = std::collections::HashMap::new();
        let us = SimTime::from_micros;
        for b in 0..4 {
            let block = ThreadBlockId::new(b);
            slot_of.insert(block, sm.make_resident(block, us(b as u64), us(10), false));
            reference.push(block);
        }
        for (victim, fresh) in [(1, 4), (0, 5), (5, 6), (3, 7)] {
            let victim = ThreadBlockId::new(victim);
            let slot = slot_of[&victim];
            assert_eq!(sm.retire(slot, victim).block, victim);
            let index = reference.iter().position(|&b| b == victim).unwrap();
            reference.swap_remove(index);
            let order: Vec<_> = sm.resident.iter().map(|rb| rb.block).collect();
            assert_eq!(order, reference);
            let fresh = ThreadBlockId::new(fresh);
            let reused = sm.make_resident(fresh, us(9), us(10), true);
            assert_eq!(reused, slot, "the freed slot is reused");
            slot_of.insert(fresh, reused);
            reference.push(fresh);
        }
        for (index, rb) in sm.resident.iter().enumerate() {
            assert_eq!(sm.slot_at(index), slot_of[&rb.block]);
            assert_eq!(sm.index_of(slot_of[&rb.block]), index);
        }
        sm.resident.clear();
        let mut free: Vec<u32> = (0..4).map(|i| sm.slot_at(i)).collect();
        free.sort_unstable();
        assert_eq!(free, [0, 1, 2, 3]);
    }

    #[test]
    fn ksr_index_display() {
        assert_eq!(KsrIndex::new(3).to_string(), "KSR3");
        assert_eq!(KsrIndex::new(3).index(), 3);
    }

    #[test]
    fn generations_disambiguate_slot_reuse() {
        let a = KsrIndex::with_gen(3, 1);
        let b = KsrIndex::with_gen(3, 2);
        assert_ne!(a, b);
        assert_eq!(a.index(), b.index());
        assert_eq!(KsrIndex::new(3).generation(), 0);
        assert_eq!(a.to_string(), "KSR3");
    }
}
