//! Open-arrival workload specifications.
//!
//! The paper's evaluation (§4) replays every process in a closed loop: the
//! next iteration is released the instant the previous one completes, so the
//! system can never be overloaded and `RtSpec::period` is purely nominal.
//! Multi-tenant "GPU-as-a-service" studies — and the periodic/sporadic task
//! models of the real-time follow-up literature (arXiv:2401.16529,
//! arXiv:2406.05221) — need *open* arrivals: requests are released on a
//! timer regardless of whether the previous one has finished, queue up in a
//! bounded per-process backlog, and can be shed under overload.
//!
//! An [`ArrivalProcess`] describes when a process releases work;
//! [`AdmissionDecision`] is what the scheduling policy answers when a
//! release asks to be admitted. Legacy workloads default to
//! [`ArrivalProcess::ClosedLoop`], which downstream machinery treats as the
//! exact pre-open-arrival behaviour (no release timers, no backlog, no
//! shedding).

use crate::time::SimTime;

/// The default backlog bound for open-arrival processes: how many released
/// but not-yet-started iterations may queue before further releases are
/// shed.
pub const DEFAULT_BACKLOG_CAP: u32 = 16;

/// When a process releases its next iteration.
///
/// All stochastic variants draw from the simulator's seeded RNG (one
/// independent stream per process), so runs are reproducible bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ArrivalProcess {
    /// Legacy closed-loop replay: the next iteration is released the
    /// instant the previous one completes. No timers, no backlog.
    #[default]
    ClosedLoop,
    /// Strictly periodic releases every `period` (a release fires even if
    /// the previous iteration is still running). A zero period degenerates
    /// to closed-loop behaviour.
    Periodic {
        /// Inter-release time.
        period: SimTime,
    },
    /// Sporadic releases: `period` is the *minimum* inter-release time and
    /// each gap is stretched by a uniform random factor in
    /// `[1, 1 + jitter]`.
    Sporadic {
        /// Minimum inter-release time.
        period: SimTime,
        /// Maximum fractional stretch of the gap (e.g. `0.5` draws gaps in
        /// `[period, 1.5 * period]`). Non-finite or negative values are
        /// treated as zero.
        jitter: f64,
    },
    /// Poisson arrivals: independent exponentially-distributed gaps with
    /// the given mean. A zero mean degenerates to closed-loop behaviour.
    Poisson {
        /// Mean inter-arrival time (1 / λ).
        mean_gap: SimTime,
    },
    /// Bursty on/off arrivals: during an on-phase of `burst_len` releases,
    /// requests arrive every `burst_gap`; each burst is followed by an
    /// off-phase of `idle_gap` before the next burst begins.
    Bursty {
        /// Releases per burst (at least 1 is assumed; 0 is treated as 1).
        burst_len: u32,
        /// Inter-release time within a burst.
        burst_gap: SimTime,
        /// Quiet time between the last release of one burst and the first
        /// of the next.
        idle_gap: SimTime,
    },
}

impl ArrivalProcess {
    /// Whether this is the legacy closed-loop mode (including timer specs
    /// that degenerate to it, e.g. a zero-period `Periodic`).
    pub fn is_closed_loop(&self) -> bool {
        match *self {
            ArrivalProcess::ClosedLoop => true,
            ArrivalProcess::Periodic { period } => period.is_zero(),
            ArrivalProcess::Sporadic { period, .. } => period.is_zero(),
            ArrivalProcess::Poisson { mean_gap } => mean_gap.is_zero(),
            ArrivalProcess::Bursty {
                burst_gap,
                idle_gap,
                ..
            } => burst_gap.is_zero() && idle_gap.is_zero(),
        }
    }

    /// Whether releases are driven by timers (the negation of
    /// [`is_closed_loop`](Self::is_closed_loop)).
    pub fn is_open(&self) -> bool {
        !self.is_closed_loop()
    }

    /// Human-readable label for reports.
    pub const fn label(&self) -> &'static str {
        match self {
            ArrivalProcess::ClosedLoop => "closed-loop",
            ArrivalProcess::Periodic { .. } => "periodic",
            ArrivalProcess::Sporadic { .. } => "sporadic",
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
        }
    }

    /// The nominal mean inter-release time, used for offered-load
    /// accounting. Returns `None` for closed-loop (arrival rate is defined
    /// by service completion, not by the spec).
    pub fn mean_period(&self) -> Option<SimTime> {
        if self.is_closed_loop() {
            return None;
        }
        match *self {
            ArrivalProcess::ClosedLoop => None,
            ArrivalProcess::Periodic { period } => Some(period),
            ArrivalProcess::Sporadic { period, jitter } => {
                let j = if jitter.is_finite() && jitter > 0.0 {
                    jitter
                } else {
                    0.0
                };
                Some(period.scale(1.0 + j / 2.0))
            }
            ArrivalProcess::Poisson { mean_gap } => Some(mean_gap),
            ArrivalProcess::Bursty {
                burst_len,
                burst_gap,
                idle_gap,
            } => {
                let n = burst_len.max(1) as u64;
                // n releases span (n - 1) intra-burst gaps plus one idle
                // gap before the next burst.
                Some(SimTime::from_nanos(
                    (burst_gap.as_nanos() * (n - 1) + idle_gap.as_nanos()) / n,
                ))
            }
        }
    }
}

/// What the scheduling policy answers when an open-arrival release asks to
/// be admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Enqueue the release into the process's backlog.
    Admit,
    /// Drop the release (load shedding); it is counted but never runs.
    Shed,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    #[test]
    fn closed_loop_detection() {
        assert!(ArrivalProcess::ClosedLoop.is_closed_loop());
        assert!(ArrivalProcess::Periodic {
            period: SimTime::ZERO
        }
        .is_closed_loop());
        assert!(ArrivalProcess::Poisson {
            mean_gap: SimTime::ZERO
        }
        .is_closed_loop());
        assert!(ArrivalProcess::Periodic { period: us(10) }.is_open());
        assert_eq!(ArrivalProcess::default(), ArrivalProcess::ClosedLoop);
    }

    #[test]
    fn labels_and_mean_periods() {
        assert_eq!(ArrivalProcess::ClosedLoop.label(), "closed-loop");
        assert_eq!(ArrivalProcess::ClosedLoop.mean_period(), None);
        assert_eq!(
            ArrivalProcess::Periodic { period: us(10) }.mean_period(),
            Some(us(10))
        );
        assert_eq!(
            ArrivalProcess::Sporadic {
                period: us(10),
                jitter: 1.0
            }
            .mean_period(),
            Some(us(15))
        );
        assert_eq!(
            ArrivalProcess::Poisson { mean_gap: us(7) }.mean_period(),
            Some(us(7))
        );
        // 4 releases per burst: 3 gaps of 10us + 30us idle over 4 releases.
        assert_eq!(
            ArrivalProcess::Bursty {
                burst_len: 4,
                burst_gap: us(10),
                idle_gap: us(30)
            }
            .mean_period(),
            Some(us(15))
        );
    }

    #[test]
    fn zero_defer_is_documented_as_shed() {
        // The enum itself carries no behaviour; this pins the variants'
        // equality semantics used by the host's resolution path.
        assert_ne!(AdmissionDecision::Admit, AdmissionDecision::Shed);
    }
}
