//! GPU execution-engine model with preemption support.
//!
//! This crate implements the hardware side of the paper's proposal:
//!
//! * the **execution engine** ([`ExecutionEngine`]) with its SM driver and
//!   per-SM thread-block issue (§2.3),
//! * the **scheduling framework** state — KSRT, SMST, PTBQ, active queue —
//!   that policies inspect and act on (§3.3),
//! * the two **preemption mechanisms**: context switch and SM draining
//!   (§3.2), with the context-save cost model of Table 1.
//!
//! The engine is policy-agnostic: scheduling policies (crate
//! `gpreempt-sched`) receive [`PolicyHook`]s and react by calling
//! [`ExecutionEngine::assign_sm`], [`ExecutionEngine::preempt_sm`] and
//! [`ExecutionEngine::retarget_reservation`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod estimator;
pub mod framework;
pub mod launch;
pub mod preempt;

pub use engine::{EngineEvent, EngineParams, EngineStats, ExecutionEngine, PolicyHook};
pub use estimator::{PreemptionEstimate, RemainingTimeEstimator};
pub use framework::{KernelState, KsrIndex, PreemptedBlock, ResidentBlock, SmState, SmStatus};
pub use launch::{KernelCompletion, KernelLaunch, RtLaunch};
pub use preempt::{ContextSwitchCost, MechanismSelection, PreemptionMechanism};
