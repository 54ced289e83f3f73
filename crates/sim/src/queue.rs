//! The event queue at the heart of the discrete-event simulator: a binary
//! heap of packed 16-byte keys over a payload slab, so events sharing a
//! timestamp are delivered in the order they were scheduled.

use gpreempt_types::SimTime;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::fmt;

/// Bits of a key holding the payload's slab slot (its lowest bits).
const SLOT_BITS: u32 = 24;
/// Bits of a key holding the insertion sequence number, between the
/// timestamp (high 64 bits) and the slot.
const SEQ_BITS: u32 = 64 - SLOT_BITS;
/// Schedules a queue accepts between resets: 2^40.
const MAX_SCHEDULES: u64 = 1 << SEQ_BITS;
/// Events a queue holds pending at once: 2^24.
const MAX_PENDING: usize = 1 << SLOT_BITS;

/// The timestamp, in nanoseconds, of a packed key.
fn key_nanos(key: u128) -> u64 {
    (key >> 64) as u64
}

/// The slab slot of a packed key.
fn key_slot(key: u128) -> usize {
    (key as usize) & (MAX_PENDING - 1)
}

/// A deterministic time-ordered event queue.
///
/// Events scheduled for the same timestamp are delivered in insertion order,
/// which keeps whole-simulation results reproducible regardless of how the
/// components interleave their scheduling calls.
///
/// The heap holds one packed `u128` key per pending event: the timestamp in
/// the high 64 bits, then a 40-bit insertion sequence number, then the
/// 24-bit slot of the payload in a slab. Sequence numbers are unique, so
/// keys order exactly by `(time, insertion order)`; the payloads stay put
/// in the slab while only the 16-byte keys move through the heap. Freed
/// slots are reused, so the slab grows only to the peak number of pending
/// events.
///
/// # Limits
///
/// The packing bounds a queue to 2^40 schedules between
/// [`reset`](Self::reset)s and 2^24 (about 16.7 million) pending events at
/// once. [`schedule`](Self::schedule) panics rather than wrap past either.
/// A simulation stops at its event budget (5·10^8 by default), far below the
/// first limit, and holds a few hundred events pending, far below the
/// second.
///
/// # Example
///
/// ```
/// use gpreempt_sim::EventQueue;
/// use gpreempt_types::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(10), 'b');
/// q.schedule(SimTime::from_nanos(10), 'c');
/// q.schedule(SimTime::from_nanos(5), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
pub struct EventQueue<E> {
    /// Packed keys of the pending events, earliest first.
    heap: BinaryHeap<Reverse<u128>>,
    /// Payloads by slot; `None` marks a free slot.
    slab: Vec<Option<E>>,
    /// Free slots of `slab`, the most recently freed on top.
    free: Vec<u32>,
    next_seq: u64,
    now: SimTime,
    processed: u64,
    clamped: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue whose backing storage can hold about
    /// `capacity` pending events before reallocating. Hot loops that know a
    /// lower bound on their concurrency pre-size the queue so steady-state
    /// scheduling never grows the backing storage.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            next_seq: 0,
            now: SimTime::ZERO,
            processed: 0,
            clamped: 0,
        }
    }

    /// Total capacity of the backing storage, in events (useful for
    /// allocation tests): how many events the heap, the payload slab and
    /// its free list can all hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.heap
            .capacity()
            .min(self.slab.capacity())
            .min(self.free.capacity())
    }

    /// Grows the backing storage to hold at least `total` pending events.
    /// Reused queues call this after [`reset`](Self::reset) to restore the
    /// pre-sizing a fresh [`with_capacity`](Self::with_capacity) queue
    /// would have; a no-op once the storage has plateaued.
    pub fn reserve(&mut self, total: usize) {
        // `reserve` counts the extra room from the current length, not
        // from the current capacity.
        self.heap.reserve(total.saturating_sub(self.heap.len()));
        self.slab.reserve(total.saturating_sub(self.slab.len()));
        self.free.reserve(total.saturating_sub(self.free.len()));
    }

    /// Clears all pending events and rewinds the clock, sequence counter
    /// and processed/clamped counts to a fresh state while **keeping the
    /// backing allocation**. Harness-internal reruns reset-and-reuse one
    /// queue instead of re-growing an empty, capacity-zero heap.
    pub fn reset(&mut self) {
        self.clear();
        self.next_seq = 0;
        self.now = SimTime::ZERO;
        self.processed = 0;
        self.clamped = 0;
    }

    /// The current simulated time: the timestamp of the last popped event
    /// (zero before any event is popped).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of schedules whose requested time lay strictly in the past
    /// and was clamped forward to the current time. A nonzero count means
    /// some component asked for time travel — a causality bug that the
    /// clamp converts into a zero-delay event. Closed-loop simulations are
    /// expected to keep this at exactly zero.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Number of events still pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// Scheduling in the past is clamped to the current time so the clock
    /// never moves backwards; this turns causality bugs into zero-delay
    /// events rather than time travel, and [`clamped`](Self::clamped)
    /// counts every occurrence so they cannot pass silently.
    ///
    /// # Panics
    ///
    /// Panics on the 2^40-th schedule since the last reset, or when 2^24
    /// events are already pending (see [Limits](Self#limits)).
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let time = if time < self.now {
            self.clamped += 1;
            self.now
        } else {
            time
        };
        let seq = self.next_seq;
        assert!(
            seq < MAX_SCHEDULES,
            "event queue: 2^40 schedules since the last reset"
        );
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slab[slot as usize].is_none(), "free slot in use");
                self.slab[slot as usize] = Some(event);
                slot as usize
            }
            None => {
                let slot = self.slab.len();
                assert!(slot < MAX_PENDING, "event queue: 2^24 events pending");
                self.slab.push(Some(event));
                slot
            }
        };
        let key = (time.as_nanos() as u128) << 64 | (seq as u128) << SLOT_BITS | slot as u128;
        self.heap.push(Reverse(key));
    }

    /// Schedules `event` after a delay relative to the current time.
    pub fn schedule_after(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Moves the payload of a popped key out of the slab and frees its
    /// slot.
    fn take(&mut self, key: u128) -> E {
        let slot = key_slot(key);
        self.free.push(slot as u32);
        self.slab[slot]
            .take()
            .expect("a pending key's slot holds its payload")
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(key) = self.heap.pop()?;
        let time = SimTime::from_nanos(key_nanos(key));
        debug_assert!(time >= self.now, "event queue time went backwards");
        self.now = time;
        self.processed += 1;
        Some((time, self.take(key)))
    }

    /// Pops the next event **and every further event sharing its
    /// timestamp**, in delivery order, into `out` (which is cleared first).
    /// Returns the shared timestamp, or `None` when the queue is empty.
    ///
    /// This is the batched-delivery entry point: one call advances the
    /// clock once and hands back the whole same-time cohort, so the caller
    /// pays its per-timestamp bookkeeping once instead of once per event.
    /// Events scheduled *during* batch processing receive later sequence
    /// numbers and are delivered by a later call, exactly as they would be
    /// by repeated [`pop`](Self::pop)s.
    pub fn pop_batch_into(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        out.clear();
        let (time, first) = self.pop()?;
        out.push(first);
        let nanos = time.as_nanos();
        loop {
            let key = match self.heap.peek_mut() {
                Some(top) if key_nanos(top.0) == nanos => PeekMut::pop(top).0,
                _ => break,
            };
            self.processed += 1;
            out.push(self.take(key));
        }
        Some(time)
    }

    /// Returns the timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap
            .peek()
            .map(|&Reverse(key)| SimTime::from_nanos(key_nanos(key)))
    }

    /// Removes (and drops) all pending events, keeping the clock, the
    /// counters and the backing allocation.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slab.clear();
        self.free.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("processed", &self.processed)
            .field("clamped", &self.clamped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_keep_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_nanos(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_and_counts() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
        assert_eq!(q.processed(), 1);
        assert!(q.pop().is_none());
        // popping from an empty queue does not move the clock
        assert_eq!(q.now(), SimTime::from_nanos(7));
    }

    #[test]
    fn scheduling_in_the_past_is_clamped_and_counted() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), "a");
        q.pop();
        assert_eq!(q.clamped(), 0);
        q.schedule(SimTime::from_nanos(10), "late");
        assert_eq!(q.clamped(), 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(100));
        // Scheduling exactly at `now` is a legal zero-delay event, not
        // a clamp.
        q.schedule(SimTime::from_nanos(100), "now");
        assert_eq!(q.clamped(), 1);
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(50), "first");
        q.pop();
        q.schedule_after(SimTime::from_nanos(10), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(60));
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), 1);
        q.schedule(SimTime::from_nanos(2), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn with_capacity_presizes_the_backend() {
        let q: EventQueue<u32> = EventQueue::with_capacity(64);
        assert!(q.capacity() >= 64);
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn reset_rewinds_the_clock_and_keeps_the_allocation() {
        let mut q = EventQueue::with_capacity(32);
        for i in 0..20u64 {
            q.schedule(SimTime::from_nanos(100 + i), i);
        }
        q.pop();
        let cap = q.capacity();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.processed(), 0);
        assert_eq!(q.clamped(), 0);
        assert!(q.capacity() >= cap, "reset must keep the allocation");
        // The reset queue behaves like a fresh one: earlier times are
        // legal again and FIFO order restarts from sequence zero.
        q.schedule(SimTime::from_nanos(5), 1);
        q.schedule(SimTime::from_nanos(5), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5), 2)));
    }

    /// `reserve(total)` sizes the storage for `total` events in all, not for
    /// `total` beyond the current capacity or length.
    #[test]
    fn reserve_grows_the_storage_to_the_requested_total() {
        let mut q: EventQueue<u64> = EventQueue::with_capacity(100);
        q.schedule(SimTime::from_nanos(1), 0);
        q.reset();
        let cap = q.capacity();
        q.reserve(cap + 50);
        assert!(q.capacity() >= cap + 50, "empty queue: {}", q.capacity());
        // With events pending, the total still counts them.
        for i in 0..10 {
            q.schedule(SimTime::from_nanos(i), i);
        }
        let total = 2 * q.capacity();
        q.reserve(total);
        assert!(q.capacity() >= total, "pending queue: {}", q.capacity());
        // Asking for less than is already there keeps the allocation.
        let cap = q.capacity();
        q.reserve(1);
        assert_eq!(q.capacity(), cap);
    }

    #[test]
    fn pop_batch_collects_the_same_timestamp_cohort() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 'a');
        q.schedule(SimTime::from_nanos(20), 'c');
        q.schedule(SimTime::from_nanos(10), 'b');
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch_into(&mut batch), Some(SimTime::from_nanos(10)));
        assert_eq!(batch, vec!['a', 'b']);
        assert_eq!(q.processed(), 2);
        assert_eq!(q.pop_batch_into(&mut batch), Some(SimTime::from_nanos(20)));
        assert_eq!(batch, vec!['c']);
        assert_eq!(q.pop_batch_into(&mut batch), None);
        assert!(batch.is_empty());
    }

    /// Every scheduled payload leaves the slab exactly once: handed back by
    /// `pop` or `pop_batch_into`, or dropped by `clear`, `reset` or dropping
    /// the queue, across any amount of slot reuse. A payload lost in the
    /// slab or handed out twice would show in the `Rc` count.
    #[test]
    fn the_slab_hands_each_payload_back_exactly_once() {
        let token = Rc::new(());
        let live = |q: &EventQueue<Rc<()>>| 1 + q.len();
        let mut q = EventQueue::new();
        let mut batch = Vec::new();
        for round in 0..6u64 {
            // Clustered times give same-timestamp batches; the pops between
            // the schedules free slots that the next schedules reuse.
            for i in 0..40 {
                q.schedule(SimTime::from_nanos(round * 100 + i % 5), Rc::clone(&token));
                if i % 3 == 0 {
                    let (_, payload) = q.pop().expect("a pending event");
                    assert_eq!(Rc::strong_count(&token), live(&q) + 1);
                    drop(payload);
                }
            }
            assert!(q.pop_batch_into(&mut batch).is_some());
            assert_eq!(Rc::strong_count(&token), live(&q) + batch.len());
            batch.clear();
            assert_eq!(Rc::strong_count(&token), live(&q));
            match round {
                2 => q.clear(),
                4 => q.reset(),
                _ => {}
            }
            assert_eq!(Rc::strong_count(&token), live(&q));
        }
        assert!(!q.is_empty(), "the last rounds leave events pending");
        drop(q);
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn keys_pack_time_over_sequence_over_slot() {
        let mut q = EventQueue::new();
        // Slot 0 is freed and reused by a later schedule at the same time:
        // the sequence number, not the slot, decides the order.
        q.schedule(SimTime::from_nanos(1), 'x');
        q.schedule(SimTime::from_nanos(9), 'a');
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 'x')));
        q.schedule(SimTime::from_nanos(9), 'b');
        q.schedule(SimTime::from_nanos(u64::MAX), 'z');
        q.schedule(SimTime::from_nanos(9), 'c');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'z']);
        assert_eq!(q.now(), SimTime::from_nanos(u64::MAX));
    }
}
