//! Real-time task annotations.
//!
//! The paper's scheduling framework (§3.3/§3.4) is policy-agnostic, and the
//! follow-up literature plugs real-time policies into exactly this kind of
//! contract: GCAPS-style context-aware preemptive priority scheduling
//! (Wang et al. 2024) and preemptive priority-based real-time scheduling
//! with deadline-miss-rate evaluation (arXiv:2401.16529). An [`RtSpec`]
//! carries the timing contract of one process: the relative deadline each
//! completed execution must meet, the nominal release period, and a
//! [`Criticality`] level that maps onto a scheduling
//! [`Priority`].
//!
//! Legacy workloads simply carry no `RtSpec`; everything downstream (engine
//! deadline ticks, deadline-aware policies, miss-rate metrics) degrades to
//! the exact pre-real-time behaviour in that case.

use crate::priority::Priority;
use crate::time::SimTime;

/// How important a real-time process is relative to its co-runners.
///
/// Criticality is coarser than [`Priority`]: it is what a system integrator
/// states about a task ("safety-critical", "best effort"), and the scheduler
/// derives a priority level from it via [`Criticality::priority`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Criticality {
    /// Best-effort work: misses are tolerable.
    Low,
    /// Standard soft real-time work.
    #[default]
    Normal,
    /// Safety- or mission-critical work: misses are failures.
    High,
}

impl Criticality {
    /// All levels, lowest first.
    pub const fn all() -> [Criticality; 3] {
        [Criticality::Low, Criticality::Normal, Criticality::High]
    }

    /// Human-readable label.
    pub const fn label(self) -> &'static str {
        match self {
            Criticality::Low => "low",
            Criticality::Normal => "normal",
            Criticality::High => "high",
        }
    }

    /// The scheduling priority this criticality level maps onto. The levels
    /// straddle the legacy constants so that a `High`-criticality process
    /// outranks a legacy [`Priority::NORMAL`] process exactly as a legacy
    /// [`Priority::HIGH`] one does.
    pub const fn priority(self) -> Priority {
        match self {
            Criticality::Low => Priority::NORMAL,
            Criticality::Normal => Priority::new(50),
            Criticality::High => Priority::HIGH,
        }
    }
}

impl std::fmt::Display for Criticality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The real-time contract of one process: every completed execution
/// (replay iteration) should finish within `deadline` of its start.
///
/// The replay model releases the next execution as soon as the previous one
/// completes, so `period` is the *nominal* inter-release time used for
/// utilization accounting ([`RtSpec::utilization`]) rather than an enforced
/// release schedule; implicit-deadline tasks ([`RtSpec::implicit`]) use
/// `period == deadline`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RtSpec {
    /// Relative deadline of each execution, measured from its start.
    pub deadline: SimTime,
    /// Nominal release period (for utilization accounting).
    pub period: SimTime,
    /// Criticality level, which the scheduler maps onto a priority.
    pub criticality: Criticality,
}

impl RtSpec {
    /// Creates a spec with an explicit deadline, period and criticality.
    pub const fn new(deadline: SimTime, period: SimTime, criticality: Criticality) -> Self {
        RtSpec {
            deadline,
            period,
            criticality,
        }
    }

    /// An implicit-deadline task: `period == deadline`, normal criticality.
    pub const fn implicit(deadline: SimTime) -> Self {
        RtSpec {
            deadline,
            period: deadline,
            criticality: Criticality::Normal,
        }
    }

    /// Sets the criticality level.
    #[must_use]
    pub const fn with_criticality(mut self, criticality: Criticality) -> Self {
        self.criticality = criticality;
        self
    }

    /// Sets the nominal period.
    #[must_use]
    pub const fn with_period(mut self, period: SimTime) -> Self {
        self.period = period;
        self
    }

    /// The scheduling priority derived from this spec's criticality.
    pub const fn priority(&self) -> Priority {
        self.criticality.priority()
    }

    /// Nominal utilization of a task with the given per-execution cost:
    /// `cost / period`. Returns ∞ for a zero period with nonzero cost and
    /// 0.0 for `0 / 0` (mirroring [`SimTime::ratio`]).
    pub fn utilization(&self, cost: SimTime) -> f64 {
        cost.ratio(self.period)
    }

    /// The absolute deadline of an execution that started at `release`.
    pub fn absolute_deadline(&self, release: SimTime) -> SimTime {
        release + self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    #[test]
    fn criticality_orders_and_maps_to_priorities() {
        assert!(Criticality::High > Criticality::Normal);
        assert!(Criticality::Normal > Criticality::Low);
        assert_eq!(Criticality::Low.priority(), Priority::NORMAL);
        assert_eq!(Criticality::High.priority(), Priority::HIGH);
        assert!(Criticality::Normal.priority().outranks(Priority::NORMAL));
        assert!(Priority::HIGH.outranks(Criticality::Normal.priority()));
        assert_eq!(Criticality::all().len(), 3);
        assert_eq!(Criticality::High.to_string(), "high");
        assert_eq!(Criticality::default(), Criticality::Normal);
    }

    #[test]
    fn implicit_deadline_spec() {
        let rt = RtSpec::implicit(us(500));
        assert_eq!(rt.deadline, us(500));
        assert_eq!(rt.period, us(500));
        assert_eq!(rt.criticality, Criticality::Normal);
        assert_eq!(rt.absolute_deadline(us(100)), us(600));
    }

    #[test]
    fn builders_override_fields() {
        let rt = RtSpec::implicit(us(100))
            .with_criticality(Criticality::High)
            .with_period(us(250));
        assert_eq!(rt.priority(), Priority::HIGH);
        assert_eq!(rt.period, us(250));
        assert!((rt.utilization(us(50)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn utilization_handles_degenerate_periods() {
        let rt = RtSpec::new(us(10), SimTime::ZERO, Criticality::Low);
        assert_eq!(rt.utilization(us(5)), f64::INFINITY);
        assert_eq!(rt.utilization(SimTime::ZERO), 0.0);
    }
}
