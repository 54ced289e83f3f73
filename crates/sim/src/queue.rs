//! The event queue at the heart of the discrete-event simulator: a binary
//! heap over a packed `(time, insertion-seq)` key, so events sharing a
//! timestamp are delivered in the order they were scheduled.

use gpreempt_types::SimTime;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::fmt;

/// One scheduled entry: ordering key and payload. The key packs the
/// timestamp (high 64 bits) over the insertion sequence number (low 64
/// bits), so ordering comparisons are a single `u128` compare while
/// preserving exactly the (time, insertion-order) delivery discipline.
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    fn time_nanos(&self) -> u64 {
        (self.key >> 64) as u64
    }

    fn time(&self) -> SimTime {
        SimTime::from_nanos(self.time_nanos())
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest time (and, for
        // ties, the earliest insertion) is popped first.
        other.key.cmp(&self.key)
    }
}

/// A deterministic time-ordered event queue.
///
/// Events scheduled for the same timestamp are delivered in insertion order,
/// which keeps whole-simulation results reproducible regardless of how the
/// components interleave their scheduling calls.
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
    heap: BinaryHeap<Entry<E>>,
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
            next_seq: 0,
            now: SimTime::ZERO,
            processed: 0,
            clamped: 0,
        }
    }

    /// Total capacity of the backing storage, in events (useful for
    /// allocation tests).
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Grows the backing storage to hold at least `total` pending events.
    /// Reused queues call this after [`reset`](Self::reset) to restore the
    /// pre-sizing a fresh [`with_capacity`](Self::with_capacity) queue
    /// would have; a no-op once the storage has plateaued.
    pub fn reserve(&mut self, total: usize) {
        // `BinaryHeap::reserve` counts the extra room from the current
        // length, not from the current capacity.
        self.heap.reserve(total.saturating_sub(self.heap.len()));
    }

    /// Clears all pending events and rewinds the clock, sequence counter
    /// and processed/clamped counts to a fresh state while **keeping the
    /// backing allocation**. Harness-internal reruns reset-and-reuse one
    /// queue instead of re-growing an empty, capacity-zero heap.
    pub fn reset(&mut self) {
        self.heap.clear();
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
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let time = if time < self.now {
            self.clamped += 1;
            self.now
        } else {
            time
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = (time.as_nanos() as u128) << 64 | seq as u128;
        self.heap.push(Entry { key, event });
    }

    /// Schedules `event` after a delay relative to the current time.
    pub fn schedule_after(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        let time = entry.time();
        debug_assert!(time >= self.now, "event queue time went backwards");
        self.now = time;
        self.processed += 1;
        Some((time, entry.event))
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
        while let Some(top) = self.heap.peek_mut() {
            if top.time_nanos() != nanos {
                break;
            }
            self.processed += 1;
            out.push(PeekMut::pop(top).event);
        }
        Some(time)
    }

    /// Returns the timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(Entry::time)
    }

    /// Removes all pending events, keeping the clock where it is.
    pub fn clear(&mut self) {
        self.heap.clear();
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
}
