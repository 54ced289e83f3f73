//! The GPU front-end command dispatcher.
//!
//! The device driver maps every software stream onto a hardware command
//! queue (Hyper-Q). The dispatcher inspects the head of each queue and
//! issues it to the target engine; after issuing a command from a queue it
//! stops inspecting that queue until the engine reports the command
//! complete (§2.2). This preserves the in-order semantics of streams while
//! letting independent streams overlap.

use gpreempt_trace::CopyDirection;
use gpreempt_types::{CommandId, ProcessId, StreamId};
use std::collections::{HashMap, VecDeque};

/// What a dispatched command asks an engine to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// A DMA transfer over the PCIe bus.
    Copy {
        /// Transfer direction.
        direction: CopyDirection,
        /// Transfer size in bytes.
        bytes: u64,
    },
    /// A kernel launch; the index refers to the owning process's trace.
    Launch {
        /// Kernel index within the process's benchmark trace.
        kernel: usize,
    },
}

/// A command sitting in (or issued from) a hardware command queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Command {
    /// Globally unique command id.
    pub id: CommandId,
    /// Owning process.
    pub process: ProcessId,
    /// The software stream the command was enqueued on.
    pub stream: StreamId,
    /// The operation to perform.
    pub kind: CommandKind,
}

#[derive(Debug, Default)]
struct QueueState {
    pending: VecDeque<Command>,
    in_flight: Option<CommandId>,
}

/// The command dispatcher: one logical hardware queue per (process, stream)
/// pair, one in-flight command per queue.
#[derive(Debug, Default)]
pub struct CommandDispatcher {
    queues: HashMap<(ProcessId, StreamId), QueueState>,
    in_flight_index: HashMap<CommandId, (ProcessId, StreamId)>,
}

impl CommandDispatcher {
    /// Creates an empty dispatcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a command on its stream's hardware queue and returns the
    /// command that becomes ready to issue as a result (at most one: the
    /// enqueued command itself, if its queue was empty and idle).
    ///
    /// A queue issues at most one command per state change, so the result
    /// is an `Option` rather than a vector — the per-command hot path
    /// performs no allocation.
    pub fn enqueue(&mut self, command: Command) -> Option<Command> {
        let key = (command.process, command.stream);
        let queue = self.queues.entry(key).or_default();
        queue.pending.push_back(command);
        self.issue_from(key)
    }

    /// Notifies the dispatcher that an engine completed `command`; its queue
    /// is re-enabled and the next command (if any) becomes ready to issue.
    /// Returns the process that owned `command` and the newly issued
    /// command, or `None` if `command` was not in flight.
    pub fn complete(&mut self, command: CommandId) -> Option<(ProcessId, Option<Command>)> {
        let key = self.in_flight_index.remove(&command)?;
        if let Some(queue) = self.queues.get_mut(&key) {
            if queue.in_flight == Some(command) {
                queue.in_flight = None;
            }
        }
        Some((key.0, self.issue_from(key)))
    }

    fn issue_from(&mut self, key: (ProcessId, StreamId)) -> Option<Command> {
        let queue = self.queues.get_mut(&key)?;
        if queue.in_flight.is_some() {
            return None;
        }
        let cmd = queue.pending.pop_front()?;
        queue.in_flight = Some(cmd.id);
        self.in_flight_index.insert(cmd.id, key);
        Some(cmd)
    }

    /// Empties every queue and the in-flight index while keeping the
    /// per-queue backing allocations, so a reused dispatcher re-enters
    /// steady state without re-growing its maps.
    pub fn reset(&mut self) {
        for q in self.queues.values_mut() {
            q.pending.clear();
            q.in_flight = None;
        }
        self.in_flight_index.clear();
    }

    /// Number of commands waiting in queues (not yet issued to an engine).
    pub fn pending(&self) -> usize {
        self.queues.values().map(|q| q.pending.len()).sum()
    }

    /// Number of commands currently issued to engines.
    pub fn in_flight(&self) -> usize {
        self.in_flight_index.len()
    }

    /// Whether no commands are pending or in flight.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0 && self.in_flight() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(id: u64, process: u32, stream: u32) -> Command {
        Command {
            id: CommandId::new(id),
            process: ProcessId::new(process),
            stream: StreamId::new(stream),
            kind: CommandKind::Launch { kernel: 0 },
        }
    }

    #[test]
    fn same_stream_commands_are_serialized() {
        let mut d = CommandDispatcher::new();
        let ready = d.enqueue(cmd(1, 0, 0));
        assert!(ready.is_some());
        // Second command on the same stream waits for the first to complete.
        let ready = d.enqueue(cmd(2, 0, 0));
        assert!(ready.is_none());
        assert_eq!(d.pending(), 1);
        assert_eq!(d.in_flight(), 1);
        let (owner, ready) = d.complete(CommandId::new(1)).unwrap();
        assert_eq!(owner, ProcessId::new(0));
        assert_eq!(ready.unwrap().id, CommandId::new(2));
        let (_, ready) = d.complete(CommandId::new(2)).unwrap();
        assert!(ready.is_none());
        assert!(d.is_empty());
    }

    #[test]
    fn different_streams_issue_concurrently() {
        let mut d = CommandDispatcher::new();
        assert!(d.enqueue(cmd(1, 0, 0)).is_some());
        assert!(d.enqueue(cmd(2, 0, 1)).is_some());
        assert!(d.enqueue(cmd(3, 1, 0)).is_some());
        assert_eq!(d.in_flight(), 3);
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn completing_unknown_command_is_harmless() {
        let mut d = CommandDispatcher::new();
        assert!(d.complete(CommandId::new(99)).is_none());
        assert!(d.is_empty());
    }

    #[test]
    fn long_pipeline_drains_in_order() {
        let mut d = CommandDispatcher::new();
        let mut issued = Vec::new();
        issued.extend(d.enqueue(cmd(0, 0, 0)));
        for i in 1..10 {
            assert!(d.enqueue(cmd(i, 0, 0)).is_none());
        }
        let mut next = 0;
        while !d.is_empty() {
            assert_eq!(issued.last().unwrap().id, CommandId::new(next));
            let (_, more) = d.complete(CommandId::new(next)).unwrap();
            issued.extend(more);
            next += 1;
        }
        assert_eq!(next, 10);
    }
}
