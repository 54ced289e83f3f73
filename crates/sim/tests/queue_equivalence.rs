//! Property-based check of the [`EventQueue`] contract against a reference
//! model.
//!
//! The contract is that delivery order is a pure function of the operation
//! sequence: `(time, insertion-seq)` order, with past times clamped to the
//! clock. These tests drive the queue and a deliberately naive model of
//! that contract through identical random interleavings of `schedule` /
//! `schedule_after` / `pop` / `pop_batch_into` / `clear` / `reset` and
//! require the full observable history (popped times and payloads, batch
//! boundaries, clock, processed and clamped counters, pending length) to
//! match exactly. Whole-simulation determinism rests on this property.

use gpreempt_sim::EventQueue;
use gpreempt_types::SimTime;
use proptest::prelude::*;

/// One step of the interleaving. Times are raw nanosecond values so the
/// strategy can freely generate past, present and future schedules; the
/// queue is expected to clamp (and count) the past ones.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule at an absolute time (may lie in the past → clamp).
    Schedule(u64),
    /// Schedule relative to the current clock.
    ScheduleAfter(u64),
    /// Pop a single event.
    Pop,
    /// Pop a whole same-timestamp batch.
    PopBatch,
    /// Drop every pending event; the clock and counters carry on.
    Clear,
    /// Reset the queue to a fresh state (keeps the allocation).
    Reset,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted choice over op kinds (the vendored proptest has no
    // `prop_oneof!`): clustered absolute times force same-timestamp
    // collisions (FIFO order must hold), the uniform tail spreads events
    // far apart and lands many schedules behind an advanced clock.
    (0u32..17, 0u64..100_000_000).prop_map(|(sel, raw)| match sel {
        0..=3 => Op::Schedule((raw % 50_000) / 500 * 500),
        4..=5 => Op::Schedule(raw),
        6..=8 => Op::ScheduleAfter(raw % 10_000),
        9..=12 => Op::Pop,
        13..=14 => Op::PopBatch,
        15 => Op::Clear,
        _ => Op::Reset,
    })
}

/// Observable history of one run: everything a caller could see.
#[derive(Debug, PartialEq, Eq)]
struct History {
    /// (timestamp nanos, payload) of every popped event; batch pops append
    /// a `u64::MAX` sentinel so batch boundaries must line up too.
    pops: Vec<(u64, u64)>,
    processed: u64,
    clamped: u64,
    now: u64,
    len: usize,
    peek: Option<u64>,
}

/// The operations a run performs and the state it observes, implemented by
/// the real queue and by the reference model.
trait Queue {
    fn schedule(&mut self, time: u64, payload: u64);
    fn schedule_after(&mut self, delay: u64, payload: u64);
    fn pop(&mut self) -> Option<(u64, u64)>;
    /// Pops the next same-timestamp cohort into `out`; returns its time.
    fn pop_batch(&mut self, out: &mut Vec<u64>) -> Option<u64>;
    fn clear(&mut self);
    fn reset(&mut self);
    /// The state a [`History`] records, with no pops.
    fn state(&self) -> History;
}

impl Queue for EventQueue<u64> {
    fn schedule(&mut self, time: u64, payload: u64) {
        EventQueue::schedule(self, SimTime::from_nanos(time), payload);
    }

    fn schedule_after(&mut self, delay: u64, payload: u64) {
        EventQueue::schedule_after(self, SimTime::from_nanos(delay), payload);
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        EventQueue::pop(self).map(|(t, e)| (t.as_nanos(), e))
    }

    fn pop_batch(&mut self, out: &mut Vec<u64>) -> Option<u64> {
        self.pop_batch_into(out).map(SimTime::as_nanos)
    }

    fn clear(&mut self) {
        EventQueue::clear(self);
    }

    fn reset(&mut self) {
        EventQueue::reset(self);
    }

    fn state(&self) -> History {
        History {
            pops: Vec::new(),
            processed: self.processed(),
            clamped: self.clamped(),
            now: self.now().as_nanos(),
            len: self.len(),
            peek: self.peek_time().map(SimTime::as_nanos),
        }
    }
}

/// The queue contract written as plainly as possible: an unordered list of
/// pending `(time, seq, payload)` entries, past times clamped to the clock
/// on schedule, and a linear scan for the smallest `(time, seq)` on pop.
#[derive(Default)]
struct Model {
    pending: Vec<(u64, u64, u64)>,
    next_seq: u64,
    now: u64,
    processed: u64,
    clamped: u64,
}

impl Model {
    fn min_index(&self) -> Option<usize> {
        (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
    }
}

impl Queue for Model {
    fn schedule(&mut self, time: u64, payload: u64) {
        let time = if time < self.now {
            self.clamped += 1;
            self.now
        } else {
            time
        };
        self.pending.push((time, self.next_seq, payload));
        self.next_seq += 1;
    }

    fn schedule_after(&mut self, delay: u64, payload: u64) {
        self.schedule(self.now + delay, payload);
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let (time, _, payload) = self.pending.swap_remove(self.min_index()?);
        self.now = time;
        self.processed += 1;
        Some((time, payload))
    }

    fn pop_batch(&mut self, out: &mut Vec<u64>) -> Option<u64> {
        out.clear();
        let (time, first) = self.pop()?;
        out.push(first);
        while self.min_index().map(|i| self.pending[i].0) == Some(time) {
            out.push(self.pop().expect("a pending event").1);
        }
        Some(time)
    }

    fn clear(&mut self) {
        self.pending.clear();
    }

    fn reset(&mut self) {
        *self = Model::default();
    }

    fn state(&self) -> History {
        History {
            pops: Vec::new(),
            processed: self.processed,
            clamped: self.clamped,
            now: self.now,
            len: self.pending.len(),
            peek: self.min_index().map(|i| self.pending[i].0),
        }
    }
}

fn run(mut q: impl Queue, ops: &[Op]) -> History {
    let mut pops = Vec::new();
    let mut batch = Vec::new();
    let mut payload = 0u64;
    for &op in ops {
        match op {
            Op::Schedule(t) => {
                q.schedule(t, payload);
                payload += 1;
            }
            Op::ScheduleAfter(d) => {
                q.schedule_after(d, payload);
                payload += 1;
            }
            Op::Pop => pops.extend(q.pop()),
            Op::PopBatch => {
                if let Some(t) = q.pop_batch(&mut batch) {
                    pops.extend(batch.iter().map(|&e| (t, e)));
                    pops.push((u64::MAX, u64::MAX));
                }
            }
            Op::Clear => q.clear(),
            Op::Reset => q.reset(),
        }
    }
    History { pops, ..q.state() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings produce the reference model's observable
    /// history.
    #[test]
    fn heap_matches_reference_model(ops in prop::collection::vec(op_strategy(), 0..400)) {
        prop_assert_eq!(run(EventQueue::new(), &ops), run(Model::default(), &ops));
    }

    /// Draining everything after the interleaving yields the model's total
    /// order — i.e. the queue agrees with the model not just on what was
    /// popped during the run but on everything left pending.
    #[test]
    fn heap_matches_reference_on_the_full_drain(
        ops in prop::collection::vec(op_strategy(), 0..200),
    ) {
        let mut drain_ops = ops;
        drain_ops.extend(std::iter::repeat_n(Op::Pop, 300));
        let heap = run(EventQueue::new(), &drain_ops);
        prop_assert_eq!(heap.len, 0);
        prop_assert_eq!(heap, run(Model::default(), &drain_ops));
    }
}
