//! Scheduling policies for the GPU execution engine.
//!
//! The paper separates mechanisms from policies (§3): the execution engine
//! (crate `gpreempt-gpu`) provides preemption and per-SM assignment, and the
//! policies in this crate decide *when* and *where* kernels run:
//!
//! * [`FcfsPolicy`] — the baseline behaviour of current GPUs (§2.3),
//! * [`PriorityPolicy`] — one urgency-ordered scheduler with five
//!   constructors:
//!   * [`npq`](PriorityPolicy::npq) — non-preemptive priority queues,
//!   * [`ppq_exclusive`](PriorityPolicy::ppq_exclusive) and
//!     [`ppq_shared`](PriorityPolicy::ppq_shared) — preemptive priority
//!     queues, in exclusive-access and shared-access variants (§4.2, §4.3),
//!   * [`gcaps`](PriorityPolicy::gcaps) — context-aware preemptive priority
//!     scheduling (Wang et al. 2024): deadline-refined urgency plus a
//!     slack gate fed by the engine's online preemption-cost estimates,
//!   * [`edf`](PriorityPolicy::edf) — the earliest-deadline-first
//!     real-time baseline,
//! * [`DssPolicy`] — Dynamic Spatial Sharing, the token-based dynamic
//!   partitioning policy (§3.4, Algorithm 1),
//! * [`RoundRobinPolicy`] — quantum-driven time slicing: FCFS placement
//!   plus SM rotation toward starved co-runners on every quantum tick.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dss;
pub mod fcfs;
pub mod policy;
pub mod priority;
pub mod rr;
#[cfg(test)]
pub(crate) mod testutil;

pub use dss::DssPolicy;
pub use fcfs::FcfsPolicy;
pub use policy::{assign_idle_sms, owned_sms, ReleaseInfo, SchedulingPolicy};
pub use priority::PriorityPolicy;
pub use rr::RoundRobinPolicy;

#[cfg(test)]
mod proptests;
