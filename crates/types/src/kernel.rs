//! Static kernel properties.
//!
//! A kernel's *footprint* describes the per-thread-block hardware resources
//! it needs (registers, shared memory, threads). The footprint, combined
//! with the [`GpuConfig`], determines how many thread
//! blocks fit on one SM and how much state the context-switch preemption
//! mechanism must save.

use crate::config::{GpuConfig, SharedMemConfig};
use crate::error::ConfigError;
use crate::time::SimTime;

/// Per-thread-block resource requirements of a kernel.
///
/// The values correspond to the "Sh. M. /TB", "# Regs /TB" and (implicitly)
/// threads-per-block columns of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct KernelFootprint {
    /// Architectural registers used by one thread block (total over all its
    /// threads).
    pub regs_per_block: u32,
    /// Shared (scratch-pad) memory used by one thread block, in bytes.
    pub smem_per_block: u32,
    /// Threads per block.
    pub threads_per_block: u32,
}

impl KernelFootprint {
    /// Creates a footprint.
    pub const fn new(regs_per_block: u32, smem_per_block: u32, threads_per_block: u32) -> Self {
        KernelFootprint {
            regs_per_block,
            smem_per_block,
            threads_per_block,
        }
    }

    /// Bytes of on-chip state one resident thread block occupies
    /// (register file + shared memory). This is the amount of data the
    /// context-switch mechanism must save for that block.
    pub fn state_bytes_per_block(&self) -> u64 {
        self.regs_per_block as u64 * GpuConfig::REGISTER_BYTES + self.smem_per_block as u64
    }

    /// The shared-memory configuration an SM must be set to in order to run
    /// at least one block of this kernel, starting from the GPU default.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if one block needs more shared memory than
    /// the largest configuration provides.
    pub fn required_smem_config(&self, gpu: &GpuConfig) -> Result<SharedMemConfig, ConfigError> {
        let needed = self.smem_per_block as u64;
        if needed <= gpu.shared_mem.bytes() {
            return Ok(gpu.shared_mem);
        }
        SharedMemConfig::smallest_fitting(needed)
            .filter(|c| c.bytes() <= gpu.max_shared_mem.bytes())
            .ok_or_else(|| {
                ConfigError::new(format!(
                    "kernel needs {needed} B of shared memory per block, more than the SM provides"
                ))
            })
    }

    /// Maximum number of blocks of this kernel that can be resident on one
    /// SM, limited by registers, shared memory, thread count and the
    /// architectural block limit (the "TBs /SM" column of Table 1).
    ///
    /// Returns 0 if even a single block does not fit.
    pub fn max_blocks_per_sm(&self, gpu: &GpuConfig) -> u32 {
        let smem_cfg = match self.required_smem_config(gpu) {
            Ok(c) => c,
            Err(_) => return 0,
        };
        let mut limit = gpu.max_blocks_per_sm;
        if let Some(by_regs) = gpu.registers_per_sm.checked_div(self.regs_per_block) {
            limit = limit.min(by_regs);
        }
        if self.smem_per_block > 0 {
            limit = limit.min((smem_cfg.bytes() / self.smem_per_block as u64) as u32);
        }
        if let Some(by_threads) = gpu.max_threads_per_sm.checked_div(self.threads_per_block) {
            limit = limit.min(by_threads);
        }
        limit
    }

    /// Fraction of the SM's on-chip storage (register file + maximum shared
    /// memory) used when `blocks` blocks are resident — the
    /// "Resour. /SM (%)" column of Table 1, as a ratio in `[0, 1]`.
    pub fn on_chip_occupancy(&self, gpu: &GpuConfig, blocks: u32) -> f64 {
        let used = self.state_bytes_per_block() * blocks as u64;
        used as f64 / gpu.on_chip_storage_bytes() as f64
    }

    /// Projected time to save (or restore) the state of `blocks` resident
    /// blocks to off-chip memory, assuming the SM only uses its `1/n_sms`
    /// share of the global memory bandwidth — the "Save Time" column of
    /// Table 1.
    pub fn context_save_time(&self, gpu: &GpuConfig, blocks: u32) -> SimTime {
        let bytes = self.state_bytes_per_block() * blocks as u64;
        let secs = bytes as f64 / gpu.per_sm_bandwidth_bytes_per_sec();
        SimTime::from_secs_f64(secs)
    }
}

/// Coarse classification of kernels / applications by execution time, used
/// to group results the way the paper's figures do (the "Class 1" and
/// "Class 2" columns of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelClass {
    /// Short kernels / applications.
    Short,
    /// Medium kernels / applications.
    Medium,
    /// Long kernels / applications.
    Long,
}

impl KernelClass {
    /// Human-readable upper-case label, as used in the paper's figures.
    pub const fn label(self) -> &'static str {
        match self {
            KernelClass::Short => "SHORT",
            KernelClass::Medium => "MEDIUM",
            KernelClass::Long => "LONG",
        }
    }

    /// All classes in SHORT, MEDIUM, LONG order.
    pub const fn all() -> [KernelClass; 3] {
        [KernelClass::Short, KernelClass::Medium, KernelClass::Long]
    }
}

impl std::fmt::Display for KernelClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> GpuConfig {
        GpuConfig::default()
    }

    #[test]
    fn lbm_streamcollide_matches_table1() {
        // lbm StreamCollide: 0 B smem, 4320 regs/TB, 15 TB/SM, 83.26% resources,
        // 16.20us save time.
        let fp = KernelFootprint::new(4_320, 0, 120);
        assert_eq!(fp.max_blocks_per_sm(&gpu()), 15);
        let occ = fp.on_chip_occupancy(&gpu(), 15) * 100.0;
        assert!((occ - 83.26).abs() < 0.1, "occupancy {occ}");
        let save = fp.context_save_time(&gpu(), 15).as_micros_f64();
        assert!((save - 16.20).abs() < 0.1, "save {save}");
    }

    #[test]
    fn histo_final_matches_table1() {
        // histo final: 0 B smem, 19456 regs/TB, 3 TB/SM, 75.00%, 14.59us.
        let fp = KernelFootprint::new(19_456, 0, 512);
        assert_eq!(fp.max_blocks_per_sm(&gpu()), 3);
        let occ = fp.on_chip_occupancy(&gpu(), 3) * 100.0;
        assert!((occ - 75.00).abs() < 0.1, "occupancy {occ}");
        let save = fp.context_save_time(&gpu(), 3).as_micros_f64();
        assert!((save - 14.59).abs() < 0.1, "save {save}");
    }

    #[test]
    fn tpacf_genhists_needs_smem_reconfiguration() {
        // tpacf genhists: 13312 B smem/TB does not fit the default 16KB twice,
        // and the paper reports 1 TB/SM.
        let fp = KernelFootprint::new(7_680, 13_312, 256);
        let cfg = fp.required_smem_config(&gpu()).unwrap();
        assert_eq!(cfg, SharedMemConfig::Kb16);
        assert_eq!(fp.max_blocks_per_sm(&gpu()), 1);
    }

    #[test]
    fn histo_main_needs_bigger_smem_config() {
        // histo main: 24576 B smem/TB (> 16KB) -> SM reconfigured to 32KB, 1 TB/SM.
        let fp = KernelFootprint::new(16_896, 24_576, 512);
        assert_eq!(
            fp.required_smem_config(&gpu()).unwrap(),
            SharedMemConfig::Kb32
        );
        assert_eq!(fp.max_blocks_per_sm(&gpu()), 1);
    }

    #[test]
    fn impossible_kernel_does_not_fit() {
        let fp = KernelFootprint::new(0, 64 * 1024, 32);
        assert!(fp.required_smem_config(&gpu()).is_err());
        assert_eq!(fp.max_blocks_per_sm(&gpu()), 0);
    }

    #[test]
    fn thread_limit_caps_blocks() {
        // 1024 threads per block -> at most 2 blocks on a 2048-thread SM.
        let fp = KernelFootprint::new(16, 0, 1_024);
        assert_eq!(fp.max_blocks_per_sm(&gpu()), 2);
    }

    #[test]
    fn architectural_limit_caps_blocks() {
        // A tiny kernel is still capped at 16 blocks per SM.
        let fp = KernelFootprint::new(1, 0, 32);
        assert_eq!(fp.max_blocks_per_sm(&gpu()), 16);
    }

    #[test]
    fn zero_footprint_uses_architectural_limit() {
        let fp = KernelFootprint::default();
        assert_eq!(fp.max_blocks_per_sm(&gpu()), 16);
        assert_eq!(fp.state_bytes_per_block(), 0);
        assert_eq!(fp.context_save_time(&gpu(), 16), SimTime::ZERO);
    }

    #[test]
    fn class_labels() {
        assert_eq!(KernelClass::Short.label(), "SHORT");
        assert_eq!(KernelClass::Medium.to_string(), "MEDIUM");
        assert_eq!(KernelClass::all().len(), 3);
    }
}
