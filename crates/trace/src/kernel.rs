//! Static description of a GPU kernel as it appears in a trace.

use gpreempt_types::{GpuConfig, KernelClass, KernelFootprint, SimTime};
use std::sync::Arc;

/// A kernel as described by a benchmark trace: its resource footprint, grid
/// size and timing characteristics.
///
/// The timing fields mirror Table 1 of the paper:
///
/// * [`measured_time`](KernelSpec::measured_time) is the kernel execution
///   time observed on the real GPU (the "Avg. Time" column),
/// * [`n_blocks`](KernelSpec::n_blocks) is the grid size (the "Num. TBs"
///   column),
/// * [`mean_block_time`](KernelSpec::mean_block_time) is the execution
///   latency of one resident thread block in the simulator. It is chosen so
///   that a kernel that occupies the whole GPU at full occupancy finishes in
///   `measured_time` (see [`KernelSpec::block_time_for_measured`]).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Interned: cloning a spec (one clone per dynamic kernel launch on the
    /// simulator's hot path) bumps a refcount instead of copying the string.
    name: Arc<str>,
    footprint: KernelFootprint,
    n_blocks: u32,
    mean_block_time: SimTime,
    measured_time: SimTime,
    class: KernelClass,
}

impl KernelSpec {
    /// Creates a kernel spec with an explicit per-block execution time.
    pub fn new(
        name: impl Into<Arc<str>>,
        footprint: KernelFootprint,
        n_blocks: u32,
        mean_block_time: SimTime,
    ) -> Self {
        let mean_block_time = if n_blocks == 0 {
            SimTime::ZERO
        } else {
            mean_block_time
        };
        KernelSpec {
            name: name.into(),
            footprint,
            n_blocks,
            measured_time: SimTime::ZERO,
            mean_block_time,
            class: KernelClass::Short,
        }
    }

    /// Creates a kernel spec from a *measured* kernel execution time, deriving
    /// the per-block time so that the simulated kernel, running alone on
    /// `gpu`, completes in approximately `measured_time`.
    ///
    /// The derivation inverts the throughput equation of the SM model: with
    /// `n_sms` SMs each holding `blocks_per_sm` resident blocks of latency
    /// `L`, the kernel completes its `n_blocks` blocks in
    /// `n_blocks * L / (n_sms * blocks_per_sm)`.
    pub fn from_measured(
        name: impl Into<Arc<str>>,
        footprint: KernelFootprint,
        n_blocks: u32,
        measured_time: SimTime,
        gpu: &GpuConfig,
    ) -> Self {
        let block_time = Self::block_time_for_measured(&footprint, n_blocks, measured_time, gpu);
        KernelSpec {
            name: name.into(),
            footprint,
            n_blocks,
            mean_block_time: block_time,
            measured_time,
            class: KernelClass::Short,
        }
    }

    /// The per-block latency that makes a kernel of `n_blocks` blocks with
    /// this `footprint` finish in `measured_time` when it has the whole GPU.
    pub fn block_time_for_measured(
        footprint: &KernelFootprint,
        n_blocks: u32,
        measured_time: SimTime,
        gpu: &GpuConfig,
    ) -> SimTime {
        if n_blocks == 0 {
            return SimTime::ZERO;
        }
        let per_sm = footprint.max_blocks_per_sm(gpu).max(1);
        let concurrent = (per_sm * gpu.n_sms).min(n_blocks).max(1);
        // measured = n_blocks * L / concurrent  =>  L = measured * concurrent / n_blocks
        measured_time.scale(concurrent as f64 / n_blocks as f64)
    }

    /// Sets the kernel-duration class (the "Class 1" column of Table 1).
    #[must_use]
    pub fn with_class(mut self, class: KernelClass) -> Self {
        self.class = class;
        self
    }

    /// Records the kernel execution time measured on real hardware.
    #[must_use]
    pub fn with_measured_time(mut self, measured: SimTime) -> Self {
        self.measured_time = measured;
        self
    }

    /// The kernel name (e.g. `"StreamCollide"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-thread-block resource footprint.
    pub fn footprint(&self) -> KernelFootprint {
        self.footprint
    }

    /// Number of thread blocks in the grid.
    pub fn n_blocks(&self) -> u32 {
        self.n_blocks
    }

    /// Mean execution latency of one resident thread block.
    pub fn mean_block_time(&self) -> SimTime {
        self.mean_block_time
    }

    /// Kernel execution time measured on the real GPU (zero if synthetic).
    pub fn measured_time(&self) -> SimTime {
        self.measured_time
    }

    /// The kernel-duration class used for grouping results.
    pub fn class(&self) -> KernelClass {
        self.class
    }

    /// Total thread-block work in the grid (`n_blocks * mean_block_time`).
    pub fn total_block_work(&self) -> SimTime {
        self.mean_block_time * self.n_blocks as u64
    }

    /// Estimated execution time of this kernel when it exclusively owns
    /// `n_sms` SMs of the given GPU, at full occupancy and with no
    /// preemption.
    pub fn isolated_time_on(&self, gpu: &GpuConfig, n_sms: u32) -> SimTime {
        if self.n_blocks == 0 || n_sms == 0 {
            return SimTime::ZERO;
        }
        let per_sm = self.footprint.max_blocks_per_sm(gpu).max(1);
        let concurrent = (per_sm * n_sms).min(self.n_blocks).max(1);
        self.mean_block_time
            .scale(self.n_blocks as f64 / concurrent as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> GpuConfig {
        GpuConfig::default()
    }

    #[test]
    fn from_measured_round_trips() {
        // lbm StreamCollide: 18000 TBs, 15 TB/SM, measured 2905.81us.
        let fp = KernelFootprint::new(4_320, 0, 120);
        let spec = KernelSpec::from_measured(
            "StreamCollide",
            fp,
            18_000,
            SimTime::from_micros_f64(2_905.81),
            &gpu(),
        );
        let est = spec.isolated_time_on(&gpu(), 13).as_micros_f64();
        assert!((est - 2_905.81).abs() < 2.0, "estimated {est}");
        // The per-block latency is 13x the Table 1 "Time/TB" column. That
        // column divides the measured time by the 1200 waves of 15 resident
        // blocks one SM alone would run (2905.81us x 15 / 18000); the 13
        // SMs run those waves 13 at a time, so each wave, and so each
        // block, lasts 13x as long.
        let tb = spec.mean_block_time().as_micros_f64();
        assert!((tb - 2.42 * 13.0).abs() < 0.5, "block time {tb}");
    }

    #[test]
    fn small_grid_is_not_limited_by_sm_count() {
        // A 4-block kernel runs all blocks concurrently.
        let fp = KernelFootprint::new(6_144, 0, 512);
        let spec = KernelSpec::from_measured(
            "ComputePhiMag",
            fp,
            4,
            SimTime::from_micros_f64(4.70),
            &gpu(),
        );
        assert_eq!(spec.mean_block_time(), spec.isolated_time_on(&gpu(), 13));
        assert!((spec.mean_block_time().as_micros_f64() - 4.70).abs() < 0.01);
    }

    #[test]
    fn zero_block_kernel_is_degenerate() {
        let spec = KernelSpec::new(
            "empty",
            KernelFootprint::default(),
            0,
            SimTime::from_micros(5),
        );
        assert_eq!(spec.mean_block_time(), SimTime::ZERO);
        assert_eq!(spec.total_block_work(), SimTime::ZERO);
        assert_eq!(spec.isolated_time_on(&gpu(), 13), SimTime::ZERO);
    }

    #[test]
    fn isolated_time_scales_with_sms() {
        let fp = KernelFootprint::new(4_320, 0, 120);
        let spec = KernelSpec::from_measured(
            "StreamCollide",
            fp,
            18_000,
            SimTime::from_micros_f64(2_905.81),
            &gpu(),
        );
        let on_13 = spec.isolated_time_on(&gpu(), 13);
        let on_1 = spec.isolated_time_on(&gpu(), 1);
        // One SM should be ~13x slower.
        let ratio = on_1.ratio(on_13);
        assert!((ratio - 13.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn builder_style_setters() {
        let spec = KernelSpec::new("k", KernelFootprint::default(), 10, SimTime::from_micros(1))
            .with_class(KernelClass::Long)
            .with_measured_time(SimTime::from_micros(99));
        assert_eq!(spec.class(), KernelClass::Long);
        assert_eq!(spec.measured_time(), SimTime::from_micros(99));
        assert_eq!(spec.name(), "k");
        assert_eq!(spec.n_blocks(), 10);
    }
}
