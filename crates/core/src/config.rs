//! Simulator configuration and policy selection.

use gpreempt_gpu::{EngineParams, MechanismSelection, PreemptionMechanism};
use gpreempt_host::TransferPolicy;
use gpreempt_sched::{DssPolicy, FcfsPolicy, PriorityPolicy, RoundRobinPolicy, SchedulingPolicy};
use gpreempt_trace::Workload;
use gpreempt_types::{SimConfig, SimTime};

/// Which scheduling policy to plug into the execution engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Baseline first-come first-served (today's GPUs).
    Fcfs,
    /// Non-preemptive priority queues.
    Npq,
    /// Preemptive priority queues with exclusive access for the
    /// highest-priority process (the default PPQ of §4.2/§4.3).
    PpqExclusive,
    /// Preemptive priority queues that backfill idle SMs with low-priority
    /// kernels (Figure 6b).
    PpqShared,
    /// Dynamic Spatial Sharing with equal token budgets (§4.4).
    Dss,
    /// Context-aware preemptive priority scheduling (Wang et al. 2024):
    /// PPQ semantics refined with deadline-aware urgency and a
    /// preemption-cost gate fed by the engine's online estimates.
    Gcaps,
    /// Earliest-deadline-first: the cost-blind real-time baseline.
    Edf,
    /// Quantum-driven round-robin time slicing: FCFS placement plus SM
    /// rotation toward starved co-runners at every quantum expiry.
    RoundRobin,
}

impl PolicyKind {
    /// All policy kinds.
    pub const fn all() -> [PolicyKind; 8] {
        [
            PolicyKind::Fcfs,
            PolicyKind::Npq,
            PolicyKind::PpqExclusive,
            PolicyKind::PpqShared,
            PolicyKind::Dss,
            PolicyKind::Gcaps,
            PolicyKind::Edf,
            PolicyKind::RoundRobin,
        ]
    }

    /// Short label used in reports.
    pub const fn label(self) -> &'static str {
        match self {
            PolicyKind::Fcfs => "FCFS",
            PolicyKind::Npq => "NPQ",
            PolicyKind::PpqExclusive => "PPQ",
            PolicyKind::PpqShared => "PPQ-shared",
            PolicyKind::Dss => "DSS",
            PolicyKind::Gcaps => "GCAPS",
            PolicyKind::Edf => "EDF",
            PolicyKind::RoundRobin => "RR",
        }
    }

    /// Whether the policy ever preempts SMs.
    pub const fn is_preemptive(self) -> bool {
        matches!(
            self,
            PolicyKind::PpqExclusive
                | PolicyKind::PpqShared
                | PolicyKind::Dss
                | PolicyKind::Gcaps
                | PolicyKind::Edf
                | PolicyKind::RoundRobin
        )
    }

    /// The scheduling quantum the simulator arms when the configuration
    /// leaves [`EngineParams::quantum`] unset. Only the time-slicing
    /// round-robin policy needs one; every other policy runs quantum-free,
    /// which keeps their event streams byte-identical to earlier releases.
    pub const fn default_quantum(self) -> Option<SimTime> {
        match self {
            PolicyKind::RoundRobin => Some(SimTime::from_micros(200)),
            _ => None,
        }
    }

    /// Whether the policy reads the deadline annotations of real-time
    /// launches.
    pub const fn is_deadline_aware(self) -> bool {
        matches!(self, PolicyKind::Gcaps | PolicyKind::Edf)
    }

    /// Builds the policy instance for a given workload and GPU size.
    pub fn build(self, workload: &Workload, n_sms: u32) -> Box<dyn SchedulingPolicy> {
        match self {
            PolicyKind::Fcfs => Box::new(FcfsPolicy::new()),
            PolicyKind::Npq => Box::new(PriorityPolicy::npq()),
            PolicyKind::PpqExclusive => Box::new(PriorityPolicy::ppq_exclusive()),
            PolicyKind::PpqShared => Box::new(PriorityPolicy::ppq_shared()),
            PolicyKind::Dss => Box::new(DssPolicy::equal_share(n_sms, workload.len())),
            PolicyKind::Gcaps => Box::new(PriorityPolicy::gcaps()),
            PolicyKind::Edf => Box::new(PriorityPolicy::edf()),
            PolicyKind::RoundRobin => Box::new(RoundRobinPolicy::new()),
        }
    }

    /// The data-transfer engine policy the paper pairs with this execution
    /// policy: NPQ for the prioritisation experiments, FCFS otherwise
    /// (§4.2, §4.4). The real-time policies prioritise transfers like the
    /// priority-queue schedulers — an urgent kernel gains nothing from
    /// preempting SMs while its input data waits behind a bulk copy.
    pub const fn transfer_policy(self) -> TransferPolicy {
        match self {
            PolicyKind::Npq
            | PolicyKind::PpqExclusive
            | PolicyKind::PpqShared
            | PolicyKind::Gcaps
            | PolicyKind::Edf => TransferPolicy::Priority,
            PolicyKind::Fcfs | PolicyKind::Dss | PolicyKind::RoundRobin => TransferPolicy::Fcfs,
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything needed to run a simulation: the machine description, engine
/// parameters, preemption-mechanism selection, RNG seed and safety limits.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatorConfig {
    /// Machine parameters (PCIe, GPU — Table 2). The preemption
    /// sub-configuration carries the [`MechanismSelection`] the execution
    /// engine consults at each `preempt_sm`.
    pub machine: SimConfig,
    /// Engine model parameters (setup latency, block-time jitter).
    pub engine: EngineParams,
    /// Transfer-engine queue policy; `None` derives it from the execution
    /// policy the way the paper does.
    pub transfer_policy: Option<TransferPolicy>,
    /// Seed for every stochastic choice (block-time jitter).
    pub seed: u64,
    /// Upper bound on processed events; exceeded means the workload
    /// livelocked (a starvation guard, not a tuning knob).
    pub max_events: u64,
}

impl SimulatorConfig {
    /// Creates the default configuration (Table 2 machine, fixed
    /// context-switch preemption).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins one preemption mechanism for every preemption of the run
    /// (shorthand for `with_selection(MechanismSelection::Fixed(..))`).
    #[must_use]
    pub fn with_mechanism(mut self, mechanism: PreemptionMechanism) -> Self {
        self.machine.preemption.selection = MechanismSelection::Fixed(mechanism);
        self
    }

    /// Sets how the engine picks the preemption mechanism (fixed or
    /// adaptive per preemption).
    #[must_use]
    pub fn with_selection(mut self, selection: MechanismSelection) -> Self {
        self.machine.preemption.selection = selection;
        self
    }

    /// The configured mechanism selection.
    pub fn selection(&self) -> MechanismSelection {
        self.machine.preemption.selection
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for SimulatorConfig {
    fn default() -> Self {
        SimulatorConfig {
            machine: SimConfig::default(),
            engine: EngineParams::default(),
            transfer_policy: None,
            seed: 0x5EED,
            max_events: 500_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpreempt_trace::{parboil, ProcessSpec};
    use gpreempt_types::GpuConfig;

    #[test]
    fn labels_and_flags() {
        assert_eq!(PolicyKind::Fcfs.label(), "FCFS");
        assert_eq!(PolicyKind::Dss.to_string(), "DSS");
        assert_eq!(PolicyKind::Gcaps.label(), "GCAPS");
        assert_eq!(PolicyKind::Edf.to_string(), "EDF");
        assert!(!PolicyKind::Fcfs.is_preemptive());
        assert!(!PolicyKind::Npq.is_preemptive());
        assert!(PolicyKind::PpqExclusive.is_preemptive());
        assert!(PolicyKind::Dss.is_preemptive());
        assert!(PolicyKind::Gcaps.is_preemptive());
        assert!(PolicyKind::Edf.is_preemptive());
        assert!(PolicyKind::Gcaps.is_deadline_aware());
        assert!(PolicyKind::Edf.is_deadline_aware());
        assert!(!PolicyKind::PpqExclusive.is_deadline_aware());
        assert_eq!(PolicyKind::RoundRobin.label(), "RR");
        assert!(PolicyKind::RoundRobin.is_preemptive());
        assert!(!PolicyKind::RoundRobin.is_deadline_aware());
        assert_eq!(PolicyKind::all().len(), 8);
    }

    #[test]
    fn only_round_robin_arms_a_default_quantum() {
        for kind in PolicyKind::all() {
            if kind == PolicyKind::RoundRobin {
                assert_eq!(kind.default_quantum(), Some(SimTime::from_micros(200)));
            } else {
                assert_eq!(kind.default_quantum(), None);
            }
        }
    }

    #[test]
    fn transfer_policy_matches_paper() {
        assert_eq!(PolicyKind::Npq.transfer_policy(), TransferPolicy::Priority);
        assert_eq!(
            PolicyKind::PpqExclusive.transfer_policy(),
            TransferPolicy::Priority
        );
        assert_eq!(PolicyKind::Fcfs.transfer_policy(), TransferPolicy::Fcfs);
        assert_eq!(PolicyKind::Dss.transfer_policy(), TransferPolicy::Fcfs);
        assert_eq!(
            PolicyKind::Gcaps.transfer_policy(),
            TransferPolicy::Priority
        );
        assert_eq!(PolicyKind::Edf.transfer_policy(), TransferPolicy::Priority);
        assert_eq!(
            PolicyKind::RoundRobin.transfer_policy(),
            TransferPolicy::Fcfs
        );
    }

    #[test]
    fn build_produces_named_policies() {
        let gpu = GpuConfig::default();
        let workload = Workload::new(
            "w",
            vec![ProcessSpec::new(parboil::benchmark("spmv", &gpu).unwrap())],
        );
        for kind in PolicyKind::all() {
            let policy = kind.build(&workload, gpu.n_sms);
            assert!(!policy.name().is_empty());
        }
    }

    #[test]
    fn config_builders() {
        let c = SimulatorConfig::new()
            .with_mechanism(PreemptionMechanism::Draining)
            .with_seed(7);
        assert_eq!(
            c.selection(),
            MechanismSelection::Fixed(PreemptionMechanism::Draining)
        );
        assert_eq!(c.seed, 7);
        assert_eq!(c.machine.gpu.n_sms, 13);

        let adaptive = SimulatorConfig::new().with_selection(MechanismSelection::adaptive());
        assert!(adaptive.selection().is_adaptive());
        assert_eq!(
            SimulatorConfig::default().selection(),
            MechanismSelection::Fixed(PreemptionMechanism::ContextSwitch)
        );
    }
}
