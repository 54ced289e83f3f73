//! The data-transfer (DMA) engine.
//!
//! A single DMA engine moves data between host and device memory over the
//! PCIe bus. Transfers are not preemptible; the engine's queue is ordered
//! either FCFS or by priority (the paper uses a non-preemptive priority
//! queue for the transfer engine in the prioritisation experiments and FCFS
//! for the spatial-sharing experiments).

use gpreempt_types::{CommandId, PcieConfig, Priority, ProcessId, SimTime};
use std::collections::VecDeque;

/// Ordering policy of the transfer engine's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransferPolicy {
    /// First-come first-served.
    #[default]
    Fcfs,
    /// Non-preemptive priority: the highest-priority waiting transfer is
    /// started next; the running transfer always completes.
    Priority,
}

/// A transfer waiting in, or executing on, the DMA engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Transfer {
    command: CommandId,
    process: ProcessId,
    priority: Priority,
    bytes: u64,
    enqueued_at: SimTime,
}

/// The DMA engine model.
#[derive(Debug)]
pub struct TransferEngine {
    pcie: PcieConfig,
    policy: TransferPolicy,
    queue: VecDeque<Transfer>,
    current: Option<Transfer>,
    busy_time: SimTime,
    completed: u64,
    bytes_moved: u64,
}

/// The result of starting a transfer: the command and when it will finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartedTransfer {
    /// The command the DMA engine started working on.
    pub command: CommandId,
    /// Absolute time at which the transfer completes.
    pub finishes_at: SimTime,
}

impl TransferEngine {
    /// Creates a DMA engine over the given PCIe link.
    pub fn new(pcie: PcieConfig, policy: TransferPolicy) -> Self {
        TransferEngine {
            pcie,
            policy,
            queue: VecDeque::new(),
            current: None,
            busy_time: SimTime::ZERO,
            completed: 0,
            bytes_moved: 0,
        }
    }

    /// The queue ordering policy.
    pub fn policy(&self) -> TransferPolicy {
        self.policy
    }

    /// Whether a transfer is currently in progress.
    pub fn is_busy(&self) -> bool {
        self.current.is_some()
    }

    /// Number of transfers waiting in the queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Total time the DMA engine has spent transferring.
    pub fn busy_time(&self) -> SimTime {
        self.busy_time
    }

    /// Number of completed transfers.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Total bytes moved by completed transfers.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Submits a transfer. If the engine is idle the transfer starts
    /// immediately and its completion time is returned.
    pub fn submit(
        &mut self,
        command: CommandId,
        process: ProcessId,
        priority: Priority,
        bytes: u64,
        now: SimTime,
    ) -> Option<StartedTransfer> {
        let t = Transfer {
            command,
            process,
            priority,
            bytes,
            enqueued_at: now,
        };
        if self.current.is_none() {
            Some(self.start(t, now))
        } else {
            self.queue.push_back(t);
            None
        }
    }

    /// Notifies the engine that the in-progress transfer finished at `now`.
    /// Returns the completed command and, if another transfer was waiting,
    /// the newly started one.
    pub fn finish_current(&mut self, now: SimTime) -> (Option<CommandId>, Option<StartedTransfer>) {
        let Some(done) = self.current.take() else {
            return (None, None);
        };
        self.completed += 1;
        self.bytes_moved += done.bytes;
        let next = self.pick_next().map(|t| self.start(t, now));
        (Some(done.command), next)
    }

    fn pick_next(&mut self) -> Option<Transfer> {
        if self.queue.is_empty() {
            return None;
        }
        let idx = match self.policy {
            TransferPolicy::Fcfs => 0,
            TransferPolicy::Priority => {
                let mut best = 0;
                for (i, t) in self.queue.iter().enumerate() {
                    let b = &self.queue[best];
                    if t.priority > b.priority
                        || (t.priority == b.priority && t.enqueued_at < b.enqueued_at)
                    {
                        best = i;
                    }
                }
                best
            }
        };
        self.queue.remove(idx)
    }

    fn start(&mut self, t: Transfer, now: SimTime) -> StartedTransfer {
        let duration = self.pcie.transfer_time(t.bytes);
        self.busy_time += duration;
        let started = StartedTransfer {
            command: t.command,
            finishes_at: now + duration,
        };
        self.current = Some(t);
        started
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(policy: TransferPolicy) -> TransferEngine {
        TransferEngine::new(PcieConfig::default(), policy)
    }

    #[test]
    fn idle_engine_starts_immediately() {
        let mut e = engine(TransferPolicy::Fcfs);
        let started = e
            .submit(
                CommandId::new(1),
                ProcessId::new(0),
                Priority::NORMAL,
                1 << 20,
                SimTime::ZERO,
            )
            .unwrap();
        assert!(started.finishes_at > SimTime::ZERO);
        assert!(e.is_busy());
        assert_eq!(e.queued(), 0);
    }

    #[test]
    fn busy_engine_queues_and_chains() {
        let mut e = engine(TransferPolicy::Fcfs);
        let first = e
            .submit(
                CommandId::new(1),
                ProcessId::new(0),
                Priority::NORMAL,
                4096,
                SimTime::ZERO,
            )
            .unwrap();
        assert!(e
            .submit(
                CommandId::new(2),
                ProcessId::new(1),
                Priority::NORMAL,
                4096,
                SimTime::ZERO
            )
            .is_none());
        assert_eq!(e.queued(), 1);
        let (done, next) = e.finish_current(first.finishes_at);
        assert_eq!(done, Some(CommandId::new(1)));
        let next = next.unwrap();
        assert_eq!(next.command, CommandId::new(2));
        assert!(next.finishes_at > first.finishes_at);
        let (done, next) = e.finish_current(next.finishes_at);
        assert_eq!(done, Some(CommandId::new(2)));
        assert!(next.is_none());
        assert_eq!(e.completed(), 2);
        assert_eq!(e.bytes_moved(), 8192);
        assert!(!e.is_busy());
    }

    #[test]
    fn priority_policy_reorders_queue() {
        let mut e = engine(TransferPolicy::Priority);
        let first = e
            .submit(
                CommandId::new(1),
                ProcessId::new(0),
                Priority::NORMAL,
                4096,
                SimTime::ZERO,
            )
            .unwrap();
        e.submit(
            CommandId::new(2),
            ProcessId::new(1),
            Priority::NORMAL,
            4096,
            SimTime::ZERO,
        );
        e.submit(
            CommandId::new(3),
            ProcessId::new(2),
            Priority::HIGH,
            4096,
            SimTime::ZERO,
        );
        // The running transfer is never preempted, but the high-priority one
        // jumps the queue.
        let (_, next) = e.finish_current(first.finishes_at);
        assert_eq!(next.unwrap().command, CommandId::new(3));
    }

    #[test]
    fn fcfs_keeps_arrival_order() {
        let mut e = engine(TransferPolicy::Fcfs);
        let first = e
            .submit(
                CommandId::new(1),
                ProcessId::new(0),
                Priority::NORMAL,
                4096,
                SimTime::ZERO,
            )
            .unwrap();
        e.submit(
            CommandId::new(2),
            ProcessId::new(1),
            Priority::NORMAL,
            4096,
            SimTime::ZERO,
        );
        e.submit(
            CommandId::new(3),
            ProcessId::new(2),
            Priority::HIGH,
            4096,
            SimTime::ZERO,
        );
        let (_, next) = e.finish_current(first.finishes_at);
        assert_eq!(next.unwrap().command, CommandId::new(2));
    }

    #[test]
    fn finishing_when_idle_is_harmless() {
        let mut e = engine(TransferPolicy::Fcfs);
        let (done, next) = e.finish_current(SimTime::ZERO);
        assert!(done.is_none());
        assert!(next.is_none());
    }
}
