//! Shared vocabulary types for the `gpreempt` GPU preemption simulator.
//!
//! This crate defines the identifiers, time representation, configuration
//! (the paper's Table 2 simulation parameters), priorities and error types
//! used across every other crate in the workspace.
//!
//! The reproduced paper is *"Enabling Preemptive Multiprogramming on GPUs"*
//! (Tanasic et al., ISCA 2014). All default configuration values mirror the
//! GK110 (Kepler K20c)-like machine described there.
//!
//! # Example
//!
//! ```
//! use gpreempt_types::{GpuConfig, SimTime};
//!
//! let gpu = GpuConfig::default();
//! assert_eq!(gpu.n_sms, 13);
//! let t = SimTime::from_micros(44);
//! assert_eq!(t.as_nanos(), 44_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrival;
pub mod config;
pub mod error;
pub mod ids;
pub mod kernel;
pub mod preemption;
pub mod priority;
pub mod rt;
pub mod time;

pub use arrival::{AdmissionDecision, ArrivalProcess, DEFAULT_BACKLOG_CAP};
pub use config::{GpuConfig, PcieConfig, PreemptionConfig, SharedMemConfig, SimConfig};
pub use error::{ConfigError, SimError};
pub use ids::{CommandId, KernelLaunchId, ProcessId, SmId, StreamId, ThreadBlockId};
pub use kernel::{KernelClass, KernelFootprint};
pub use preemption::{MechanismSelection, PreemptionMechanism};
pub use priority::Priority;
pub use rt::{Criticality, RtSpec};
pub use time::SimTime;
