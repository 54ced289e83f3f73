//! Discrete-event simulation substrate for the `gpreempt` workspace.
//!
//! The paper evaluates its proposals on an in-house trace-driven simulator
//! (§4.1). This crate provides the generic machinery that simulator is built
//! from:
//!
//! * a deterministic [`EventQueue`] keyed by [`SimTime`](gpreempt_types::SimTime)
//!   with stable FIFO ordering of simultaneous events,
//! * a seeded random number generator ([`SimRng`]) so every experiment is
//!   reproducible bit-for-bit,
//! * small statistics helpers ([`stats`]) used when aggregating results.
//!
//! # Example
//!
//! ```
//! use gpreempt_sim::EventQueue;
//! use gpreempt_types::SimTime;
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::from_micros(5), "later");
//! q.schedule(SimTime::from_micros(1), "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t.as_nanos(), ev), (1_000, "sooner"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod affinity;
pub mod alloc_count;
pub mod queue;
pub mod rng;
pub mod stats;

pub use affinity::pin_current_thread;
pub use alloc_count::{thread_allocations, CountingAlloc};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use stats::Summary;
