//! Simulation configuration.
//!
//! The defaults reproduce the Table 2 values of the paper that the timing
//! model reads: a PCIe 2.0 x16-like bus (500 MHz, 32 lanes, 4 KB bursts)
//! and a GK110 (Kepler K20c)-like GPU with 13 SMs and 208 GB/s of memory
//! bandwidth. Table 2's other values bind nothing here, so they are not
//! parameters: traces carry the duration of every CPU phase and no
//! experiment runs more processes than the 4-core, 2-way SMT CPU has
//! hardware threads; the engine times whole thread blocks, not the GPU's
//! clock or pipelines; and no experiment opens more than 8 of Hyper-Q's 32
//! command queues.

use crate::error::ConfigError;
use crate::preemption::MechanismSelection;
use crate::time::SimTime;

/// Shared memory (scratch-pad) configuration of an SM, in bytes.
///
/// GK110 SMs can be configured with a 16 KB / 32 KB / 48 KB split between
/// shared memory and L1. The paper uses 16 KB by default and bumps the
/// configuration to the first size that satisfies the kernel's per-block
/// shared-memory requirement (Table 2, footnote).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SharedMemConfig {
    /// 16 KB of shared memory per SM (default).
    #[default]
    Kb16,
    /// 32 KB of shared memory per SM.
    Kb32,
    /// 48 KB of shared memory per SM.
    Kb48,
}

impl SharedMemConfig {
    /// The usable shared memory in bytes for this configuration.
    pub const fn bytes(self) -> u64 {
        match self {
            SharedMemConfig::Kb16 => 16 * 1024,
            SharedMemConfig::Kb32 => 32 * 1024,
            SharedMemConfig::Kb48 => 48 * 1024,
        }
    }

    /// Returns the smallest configuration that provides at least
    /// `required_bytes` of shared memory, or `None` if none does.
    pub fn smallest_fitting(required_bytes: u64) -> Option<SharedMemConfig> {
        [
            SharedMemConfig::Kb16,
            SharedMemConfig::Kb32,
            SharedMemConfig::Kb48,
        ]
        .into_iter()
        .find(|c| c.bytes() >= required_bytes)
    }
}

/// GPU (execution engine + memory system) parameters — Table 2, right column.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors (13 on K20c).
    pub n_sms: u32,
    /// Off-chip memory bandwidth in GB/s (208 GB/s on K20c).
    pub mem_bandwidth_gbps: f64,
    /// Architectural registers per SM (65536 x 32-bit on GK110).
    pub registers_per_sm: u32,
    /// Maximum resident thread blocks per SM (16 on GK110).
    pub max_blocks_per_sm: u32,
    /// Maximum resident threads per SM (2048 on GK110).
    pub max_threads_per_sm: u32,
    /// Default shared memory configuration (16 KB in the paper).
    pub shared_mem: SharedMemConfig,
    /// Maximum shared memory configuration available (48 KB on GK110).
    pub max_shared_mem: SharedMemConfig,
}

impl GpuConfig {
    /// Size of one architectural register in bytes.
    pub const REGISTER_BYTES: u64 = 4;

    /// Total register-file capacity of one SM in bytes.
    pub fn register_file_bytes(&self) -> u64 {
        self.registers_per_sm as u64 * Self::REGISTER_BYTES
    }

    /// Total on-chip storage (register file + maximum shared memory) of one
    /// SM in bytes. This is the denominator of the "Resour. /SM (%)" column
    /// of Table 1.
    pub fn on_chip_storage_bytes(&self) -> u64 {
        self.register_file_bytes() + self.max_shared_mem.bytes()
    }

    /// The share of global memory bandwidth available to a single SM, in
    /// bytes per second. The paper's projected context-save times assume an
    /// SM only uses its 1/N share of the memory bandwidth.
    pub fn per_sm_bandwidth_bytes_per_sec(&self) -> f64 {
        (self.mem_bandwidth_gbps * 1e9) / self.n_sms as f64
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any parameter is zero or inconsistent
    /// (e.g. the default shared memory configuration exceeds the maximum).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_sms == 0 {
            return Err(ConfigError::new("GPU must have at least one SM"));
        }
        if self.mem_bandwidth_gbps <= 0.0 || !self.mem_bandwidth_gbps.is_finite() {
            return Err(ConfigError::new("memory bandwidth must be positive"));
        }
        if self.registers_per_sm == 0 {
            return Err(ConfigError::new("register file must be non-empty"));
        }
        if self.max_blocks_per_sm == 0 {
            return Err(ConfigError::new(
                "max thread blocks per SM must be non-zero",
            ));
        }
        if self.max_threads_per_sm == 0 {
            return Err(ConfigError::new("max threads per SM must be non-zero"));
        }
        if self.shared_mem.bytes() > self.max_shared_mem.bytes() {
            return Err(ConfigError::new(
                "default shared memory configuration exceeds the maximum",
            ));
        }
        Ok(())
    }
}

impl Default for GpuConfig {
    /// The GK110 / Tesla K20c configuration from Table 2.
    fn default() -> Self {
        GpuConfig {
            n_sms: 13,
            mem_bandwidth_gbps: 208.0,
            registers_per_sm: 65_536,
            max_blocks_per_sm: 16,
            max_threads_per_sm: 2_048,
            shared_mem: SharedMemConfig::Kb16,
            max_shared_mem: SharedMemConfig::Kb48,
        }
    }
}

/// PCI Express bus parameters — Table 2, bottom-left.
#[derive(Debug, Clone, PartialEq)]
pub struct PcieConfig {
    /// Bus clock in MHz (500 MHz).
    pub clock_mhz: u64,
    /// Number of lanes (32 in Table 2; the effective payload bandwidth is
    /// `lanes * 250 MB/s` for a PCIe 2.0-class link).
    pub lanes: u32,
    /// DMA burst size in bytes (4 KB).
    pub burst_bytes: u64,
    /// Fixed per-transfer initiation latency.
    pub transfer_latency: SimTime,
}

impl PcieConfig {
    /// Effective unidirectional bandwidth in bytes per second.
    ///
    /// Each PCIe 2.0 lane delivers 500 MT/s of 8b/10b-encoded payload,
    /// i.e. 500 MB/s raw or roughly 400 MB/s of usable payload per lane.
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        // clock (MHz) * 1e6 transfers/s * 1 byte/transfer/lane efficiency 0.8
        self.clock_mhz as f64 * 1e6 * self.lanes as f64 * 0.8
    }

    /// Time to move `bytes` over the bus, including the initiation latency
    /// and rounding up to whole bursts.
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        if bytes == 0 {
            return self.transfer_latency;
        }
        let bursts = bytes.div_ceil(self.burst_bytes.max(1));
        let payload = bursts * self.burst_bytes.max(1);
        let secs = payload as f64 / self.bandwidth_bytes_per_sec();
        self.transfer_latency + SimTime::from_secs_f64(secs)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the clock, lane count or burst size is
    /// zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.clock_mhz == 0 {
            return Err(ConfigError::new("PCIe clock must be non-zero"));
        }
        if self.lanes == 0 {
            return Err(ConfigError::new("PCIe must have at least one lane"));
        }
        if self.burst_bytes == 0 {
            return Err(ConfigError::new("PCIe burst size must be non-zero"));
        }
        Ok(())
    }
}

impl Default for PcieConfig {
    fn default() -> Self {
        PcieConfig {
            clock_mhz: 500,
            lanes: 32,
            burst_bytes: 4 * 1024,
            transfer_latency: SimTime::from_micros(8),
        }
    }
}

/// Parameters of the preemption mechanisms themselves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreemptionConfig {
    /// Time to drain the SM pipelines of in-flight instructions before the
    /// context-save trap routine starts (precise-exception requirement,
    /// §3.2). A small constant.
    pub pipeline_drain: SimTime,
    /// Fixed overhead of entering/leaving the microcoded trap routine.
    pub trap_overhead: SimTime,
    /// How the execution engine picks the mechanism for each preemption:
    /// pinned ([`MechanismSelection::Fixed`]) or chosen per preemption from
    /// online cost estimates ([`MechanismSelection::Adaptive`]).
    pub selection: MechanismSelection,
}

impl Default for PreemptionConfig {
    fn default() -> Self {
        PreemptionConfig {
            pipeline_drain: SimTime::from_nanos(500),
            trap_overhead: SimTime::from_nanos(200),
            selection: MechanismSelection::default(),
        }
    }
}

/// The complete simulation configuration (Table 2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimConfig {
    /// PCIe bus parameters.
    pub pcie: PcieConfig,
    /// GPU parameters.
    pub gpu: GpuConfig,
    /// Preemption mechanism parameters.
    pub preemption: PreemptionConfig,
}

impl SimConfig {
    /// Creates the default (paper Table 2) configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Validates every sub-configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found in the PCIe or GPU
    /// configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.pcie.validate()?;
        self.gpu.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let c = SimConfig::default();
        assert_eq!(c.pcie.clock_mhz, 500);
        assert_eq!(c.pcie.lanes, 32);
        assert_eq!(c.pcie.burst_bytes, 4096);
        assert_eq!(c.gpu.n_sms, 13);
        assert!((c.gpu.mem_bandwidth_gbps - 208.0).abs() < 1e-9);
        assert_eq!(c.gpu.registers_per_sm, 65_536);
        assert_eq!(c.gpu.max_blocks_per_sm, 16);
        assert_eq!(c.gpu.max_threads_per_sm, 2_048);
        assert_eq!(c.gpu.shared_mem, SharedMemConfig::Kb16);
        assert_eq!(c.gpu.max_shared_mem, SharedMemConfig::Kb48);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn per_sm_bandwidth_matches_paper_projection() {
        // 208 GB/s over 13 SMs = 16 GB/s per SM; saving 256 KB + 0 B of
        // state should take ~16.2us, the Table 1 value for lbm.
        let gpu = GpuConfig::default();
        let per_sm = gpu.per_sm_bandwidth_bytes_per_sec();
        assert!((per_sm - 16e9).abs() < 1e6);
        let bytes = 4_320u64 * 15 * 4; // lbm StreamCollide: 4320 regs/TB, 15 TB/SM
        let secs = bytes as f64 / per_sm;
        let micros = secs * 1e6;
        assert!((micros - 16.2).abs() < 0.1, "got {micros}");
    }

    #[test]
    fn on_chip_storage_is_regfile_plus_max_smem() {
        let gpu = GpuConfig::default();
        assert_eq!(gpu.on_chip_storage_bytes(), 65_536 * 4 + 48 * 1024);
    }

    #[test]
    fn shared_mem_config_selection() {
        assert_eq!(
            SharedMemConfig::smallest_fitting(0),
            Some(SharedMemConfig::Kb16)
        );
        assert_eq!(
            SharedMemConfig::smallest_fitting(16 * 1024),
            Some(SharedMemConfig::Kb16)
        );
        assert_eq!(
            SharedMemConfig::smallest_fitting(16 * 1024 + 1),
            Some(SharedMemConfig::Kb32)
        );
        assert_eq!(
            SharedMemConfig::smallest_fitting(40 * 1024),
            Some(SharedMemConfig::Kb48)
        );
        assert_eq!(SharedMemConfig::smallest_fitting(64 * 1024), None);
    }

    #[test]
    fn pcie_transfer_time_scales_with_size() {
        let pcie = PcieConfig::default();
        let small = pcie.transfer_time(4 * 1024);
        let big = pcie.transfer_time(4 * 1024 * 1024);
        assert!(big > small);
        // 4 MB at 12.8 GB/s is ~327 us plus latency.
        let expected_us = (4.0 * 1024.0 * 1024.0) / pcie.bandwidth_bytes_per_sec() * 1e6;
        assert!(
            (big.as_micros_f64() - pcie.transfer_latency.as_micros_f64() - expected_us).abs() < 5.0
        );
    }

    #[test]
    fn zero_byte_transfer_costs_only_latency() {
        let pcie = PcieConfig::default();
        assert_eq!(pcie.transfer_time(0), pcie.transfer_latency);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let gpu = GpuConfig {
            n_sms: 0,
            ..Default::default()
        };
        assert!(gpu.validate().is_err());

        let gpu = GpuConfig {
            mem_bandwidth_gbps: -1.0,
            ..Default::default()
        };
        assert!(gpu.validate().is_err());

        let gpu = GpuConfig {
            shared_mem: SharedMemConfig::Kb48,
            max_shared_mem: SharedMemConfig::Kb16,
            ..Default::default()
        };
        assert!(gpu.validate().is_err());

        let pcie = PcieConfig {
            lanes: 0,
            ..Default::default()
        };
        assert!(pcie.validate().is_err());
    }
}
