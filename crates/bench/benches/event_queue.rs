//! Microbenchmarks of the event queue itself: schedule/pop churn at steady
//! pending populations, clustered vs uniform timestamps, and fill-then-drain
//! bursts.
//!
//! The pending population sets the heap's `O(log n)` depth, so the cost per
//! operation should grow from 1k to 100k pending. Clustered times put many
//! events on one timestamp (the same-time cohorts batched delivery drains),
//! uniform times spread them across ~1 ms.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gpreempt_sim::EventQueue;
use gpreempt_types::SimTime;
use std::hint::black_box;

/// Deterministic xorshift64* stream — cheap enough that time generation is
/// noise next to the queue operation under test.
struct Times {
    state: u64,
    clustered: bool,
}

impl Times {
    fn new(seed: u64, clustered: bool) -> Self {
        Times {
            state: seed | 1,
            clustered,
        }
    }

    /// The next schedule offset from the queue's current clock.
    fn next_offset(&mut self) -> SimTime {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let raw = self.state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        let nanos = if self.clustered {
            // A handful of distinct timestamps: many events share one, as
            // quantum-tick storms do.
            (raw % 16) * 4_096
        } else {
            // Spread across ~1ms: timestamps rarely repeat.
            raw % 1_000_000
        };
        SimTime::from_nanos(nanos)
    }
}

/// Pre-fills a queue to `pending` events, then measures steady-state churn:
/// each iteration schedules one event and pops one, holding the population
/// constant — the dominant pattern inside `Simulator::run_inner`.
fn bench_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_churn");
    group.throughput(Throughput::Elements(1));
    for pending in [1_000usize, 100_000] {
        for clustered in [true, false] {
            let dist = if clustered { "clustered" } else { "uniform" };
            let mut queue: EventQueue<u64> = EventQueue::with_capacity(pending);
            let mut times = Times::new(0x9e37_79b9 ^ pending as u64, clustered);
            for i in 0..pending {
                let offset = times.next_offset();
                queue.schedule_after(offset, i as u64);
            }
            group.bench_function(format!("{pending}/{dist}"), |b| {
                b.iter(|| {
                    let offset = times.next_offset();
                    queue.schedule_after(offset, 0);
                    black_box(queue.pop());
                })
            });
        }
    }
    group.finish();
}

/// Fill-then-drain: schedules `pending` events into an empty queue, then
/// pops them all — the open-loop arrival burst shape. Timed per event.
fn bench_fill_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_fill_drain");
    for pending in [1_000usize, 100_000] {
        group.throughput(Throughput::Elements(pending as u64));
        let mut queue: EventQueue<u64> = EventQueue::with_capacity(pending);
        let mut times = Times::new(0xdead_beef, false);
        group.bench_function(format!("{pending}"), |b| {
            b.iter(|| {
                queue.reset();
                for i in 0..pending {
                    let offset = times.next_offset();
                    queue.schedule_after(offset, i as u64);
                }
                while let Some(popped) = queue.pop() {
                    black_box(popped);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_churn, bench_fill_drain);
criterion_main!(benches);
