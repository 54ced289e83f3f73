//! Online remaining-time estimation and adaptive mechanism selection.
//!
//! When [`MechanismSelection::Adaptive`](gpreempt_types::MechanismSelection)
//! is configured, the execution engine must predict — at the moment a policy
//! calls `preempt_sm` — how long each candidate mechanism would take:
//!
//! * **draining** completes when the last resident thread block finishes, so
//!   its latency is the *maximum* remaining execution time across the
//!   resident blocks (they run concurrently), and its throughput cost is
//!   their *sum* (the SM stays occupied by the old kernel for that long);
//! * **context switching** completes after the trap routine has written the
//!   resident contexts to memory ([`ContextSwitchCost::save_time`]), plus a
//!   deferred per-block restore penalty paid when the blocks are re-issued.
//!
//! A real GPU cannot see a block's remaining time, so the
//! [`RemainingTimeEstimator`] predicts it structurally, in the spirit of
//! online structural runtime prediction (Sripathi et al.): it keeps one
//! exponentially weighted moving average of observed block durations per
//! KSRT slot, seeded from the kernel's declared mean block time, and
//! estimates a resident block's remaining time as `expected − elapsed`.

use crate::preempt::ContextSwitchCost;
use gpreempt_types::{PreemptionMechanism, SimTime};

/// EWMA smoothing factor: each observation contributes 25 %.
const ALPHA: f64 = 0.25;

/// Per-kernel online estimate of block execution time.
#[derive(Debug, Clone, Copy, Default)]
struct SlotEstimate {
    /// Current EWMA of observed block durations, in nanoseconds.
    mean_ns: f64,
    /// Number of observations folded into the mean.
    samples: u64,
}

/// Online estimator of thread-block remaining execution time, one estimate
/// stream per KSRT slot.
#[derive(Debug, Clone)]
pub struct RemainingTimeEstimator {
    slots: Vec<SlotEstimate>,
}

impl RemainingTimeEstimator {
    /// Creates an estimator for `n_slots` KSRT slots.
    pub fn new(n_slots: usize) -> Self {
        RemainingTimeEstimator {
            slots: vec![SlotEstimate::default(); n_slots],
        }
    }

    /// Re-seeds a slot for a newly admitted kernel: the prior is the
    /// kernel's declared mean block time, with no observations yet.
    pub fn reset_slot(&mut self, slot: usize, prior: SimTime) {
        if let Some(s) = self.slots.get_mut(slot) {
            *s = SlotEstimate {
                mean_ns: prior.as_nanos() as f64,
                samples: 0,
            };
        }
    }

    /// Folds one observed block duration into the slot's estimate.
    pub fn observe(&mut self, slot: usize, duration: SimTime) {
        if let Some(s) = self.slots.get_mut(slot) {
            let d = duration.as_nanos() as f64;
            s.mean_ns = if s.samples == 0 && s.mean_ns == 0.0 {
                d
            } else {
                s.mean_ns + ALPHA * (d - s.mean_ns)
            };
            s.samples += 1;
        }
    }

    /// The current expected block duration for a slot.
    pub fn expected_duration(&self, slot: usize) -> SimTime {
        self.slots
            .get(slot)
            .map(|s| SimTime::from_nanos(s.mean_ns.max(0.0).round() as u64))
            .unwrap_or(SimTime::ZERO)
    }

    /// Number of observations folded into a slot's estimate so far.
    pub fn samples(&self, slot: usize) -> u64 {
        self.slots.get(slot).map(|s| s.samples).unwrap_or(0)
    }

    /// Estimated remaining execution time of a resident block of `slot`'s
    /// kernel that has already run for `elapsed`.
    pub fn remaining(&self, slot: usize, elapsed: SimTime) -> SimTime {
        self.expected_duration(slot).saturating_sub(elapsed)
    }
}

/// The engine's cost estimate for one candidate preemption, covering both
/// mechanisms on the same SM state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreemptionEstimate {
    /// Estimated drain latency: the maximum remaining time across the
    /// resident blocks (they execute concurrently).
    pub drain_latency: SimTime,
    /// Estimated drain throughput cost: the sum of remaining times (SM-time
    /// the old kernel keeps consuming while the preemption is pending).
    pub drain_work: SimTime,
    /// Context-save latency from the footprint cost model
    /// ([`ContextSwitchCost::save_time`]).
    pub cs_latency: SimTime,
    /// Deferred restore cost the context switch will pay later, when the
    /// saved blocks are re-issued.
    pub cs_deferred_restore: SimTime,
}

impl PreemptionEstimate {
    /// An estimate for an SM with no resident blocks and no save cost.
    pub const ZERO: PreemptionEstimate = PreemptionEstimate {
        drain_latency: SimTime::ZERO,
        drain_work: SimTime::ZERO,
        cs_latency: SimTime::ZERO,
        cs_deferred_restore: SimTime::ZERO,
    };

    /// Builds the estimate for an SM whose resident blocks have run for the
    /// given elapsed times, using `estimator`'s prediction for `slot` and
    /// the context-switch cost model for the kernel's footprint.
    pub fn for_resident_blocks(
        estimator: &RemainingTimeEstimator,
        slot: usize,
        elapsed: &[SimTime],
        cost: &ContextSwitchCost<'_>,
        footprint: &gpreempt_types::KernelFootprint,
    ) -> Self {
        Self::for_elapsed(estimator, slot, elapsed.iter().copied(), cost, footprint)
    }

    /// Iterator-based variant of
    /// [`for_resident_blocks`](Self::for_resident_blocks): the engine feeds
    /// the SMST's resident-block list straight through without collecting
    /// the elapsed times into a temporary vector, keeping the adaptive
    /// `preempt_sm` path allocation-free.
    pub fn for_elapsed(
        estimator: &RemainingTimeEstimator,
        slot: usize,
        elapsed: impl Iterator<Item = SimTime>,
        cost: &ContextSwitchCost<'_>,
        footprint: &gpreempt_types::KernelFootprint,
    ) -> Self {
        let mut drain_latency = SimTime::ZERO;
        let mut drain_work = SimTime::ZERO;
        let mut n: u32 = 0;
        for e in elapsed {
            let remaining = estimator.remaining(slot, e);
            drain_latency = drain_latency.max(remaining);
            drain_work += remaining;
            n += 1;
        }
        PreemptionEstimate {
            drain_latency,
            drain_work,
            cs_latency: cost.save_time(footprint, n),
            cs_deferred_restore: cost.restore_time_per_block(footprint) * n as u64,
        }
    }

    /// The estimated preemption latency of one mechanism.
    pub fn latency_of(self, mechanism: PreemptionMechanism) -> SimTime {
        match mechanism {
            PreemptionMechanism::ContextSwitch => self.cs_latency,
            PreemptionMechanism::Draining => self.drain_latency,
        }
    }

    /// Picks the mechanism for this preemption.
    ///
    /// Without a latency target the mechanism with the lower estimated
    /// latency wins; ties go to the context switch because its latency is
    /// predictable. With a target, draining is preferred whenever its
    /// estimate meets the target (it performs no save/restore work); the
    /// context switch is used when only it meets the target; and when
    /// neither does, the lower estimate wins.
    pub fn select(self, latency_target: Option<SimTime>) -> PreemptionMechanism {
        match latency_target {
            Some(target) => {
                if self.drain_latency <= target {
                    PreemptionMechanism::Draining
                } else if self.cs_latency <= target || self.cs_latency <= self.drain_latency {
                    PreemptionMechanism::ContextSwitch
                } else {
                    PreemptionMechanism::Draining
                }
            }
            None => {
                if self.drain_latency < self.cs_latency {
                    PreemptionMechanism::Draining
                } else {
                    PreemptionMechanism::ContextSwitch
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpreempt_types::{GpuConfig, KernelFootprint, PreemptionConfig};

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    #[test]
    fn estimator_seeds_from_prior_and_tracks_observations() {
        let mut est = RemainingTimeEstimator::new(4);
        est.reset_slot(0, us(100));
        assert_eq!(est.expected_duration(0), us(100));
        assert_eq!(est.samples(0), 0);
        // Observations pull the mean towards the observed durations.
        for _ in 0..64 {
            est.observe(0, us(40));
        }
        assert_eq!(est.samples(0), 64);
        let mean = est.expected_duration(0);
        assert!(mean > us(39) && mean < us(45), "mean {mean}");
    }

    #[test]
    fn remaining_saturates_at_zero() {
        let mut est = RemainingTimeEstimator::new(1);
        est.reset_slot(0, us(10));
        assert_eq!(est.remaining(0, us(4)), us(6));
        assert_eq!(est.remaining(0, us(50)), SimTime::ZERO);
    }

    #[test]
    fn out_of_range_slots_are_inert() {
        let mut est = RemainingTimeEstimator::new(1);
        est.reset_slot(9, us(10));
        est.observe(9, us(10));
        assert_eq!(est.expected_duration(9), SimTime::ZERO);
        assert_eq!(est.samples(9), 0);
    }

    #[test]
    fn unseeded_slot_adopts_first_observation() {
        let mut est = RemainingTimeEstimator::new(1);
        est.observe(0, us(30));
        assert_eq!(est.expected_duration(0), us(30));
    }

    #[test]
    fn drain_latency_is_max_and_work_is_sum() {
        let gpu = GpuConfig::default();
        let cfg = PreemptionConfig::default();
        let cost = ContextSwitchCost::new(&gpu, &cfg);
        let fp = KernelFootprint::new(4_096, 0, 256);
        let mut est = RemainingTimeEstimator::new(1);
        est.reset_slot(0, us(100));
        let e =
            PreemptionEstimate::for_resident_blocks(&est, 0, &[us(10), us(60), us(95)], &cost, &fp);
        assert_eq!(e.drain_latency, us(90)); // 100 - 10
        assert_eq!(e.drain_work, us(90 + 40 + 5));
        assert_eq!(e.cs_latency, cost.save_time(&fp, 3));
        assert_eq!(e.cs_deferred_restore, cost.restore_time_per_block(&fp) * 3);
    }

    #[test]
    fn selection_without_target_minimises_latency() {
        let e = PreemptionEstimate {
            drain_latency: us(5),
            drain_work: us(15),
            cs_latency: us(16),
            cs_deferred_restore: us(16),
        };
        assert_eq!(e.select(None), PreemptionMechanism::Draining);
        let e = PreemptionEstimate {
            drain_latency: us(80),
            ..e
        };
        assert_eq!(e.select(None), PreemptionMechanism::ContextSwitch);
        // Ties go to the predictable mechanism.
        let tie = PreemptionEstimate {
            drain_latency: us(16),
            drain_work: us(16),
            cs_latency: us(16),
            cs_deferred_restore: us(16),
        };
        assert_eq!(tie.select(None), PreemptionMechanism::ContextSwitch);
    }

    #[test]
    fn latency_target_prefers_draining_when_it_fits() {
        // Draining meets the target: preferred even though the context
        // switch would be faster (no save/restore work is spent).
        let e = PreemptionEstimate {
            drain_latency: us(40),
            drain_work: us(100),
            cs_latency: us(16),
            cs_deferred_restore: us(16),
        };
        assert_eq!(e.select(Some(us(50))), PreemptionMechanism::Draining);
        // Draining misses the target, the context switch meets it.
        assert_eq!(e.select(Some(us(20))), PreemptionMechanism::ContextSwitch);
        // Neither meets the target: lower estimate wins.
        let slow = PreemptionEstimate {
            drain_latency: us(400),
            drain_work: us(900),
            cs_latency: us(700),
            cs_deferred_restore: us(700),
        };
        assert_eq!(slow.select(Some(us(10))), PreemptionMechanism::Draining);
    }

    #[test]
    fn chosen_latency_never_exceeds_the_worse_mechanism() {
        let e = PreemptionEstimate {
            drain_latency: us(33),
            drain_work: us(70),
            cs_latency: us(21),
            cs_deferred_restore: us(21),
        };
        for target in [None, Some(us(1)), Some(us(25)), Some(us(1_000))] {
            let chosen = e.select(target);
            let worse = e.drain_latency.max(e.cs_latency);
            assert!(e.latency_of(chosen) <= worse);
        }
    }
}
