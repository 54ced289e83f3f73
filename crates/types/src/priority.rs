//! Process and kernel priorities.

use std::fmt;

/// The scheduling priority of a process / kernel.
///
/// Larger values are more important. The paper's priority-queue schedulers
/// (NPQ/PPQ) always pick the highest-priority runnable kernel; the DSS
/// policy ignores priorities and splits the SMs by per-process token
/// budgets instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Priority(u32);

impl Priority {
    /// The default (lowest) priority.
    pub const NORMAL: Priority = Priority(0);
    /// A convenience "high" priority used by the evaluation workloads
    /// (one prioritised process among normal ones).
    pub const HIGH: Priority = Priority(100);

    /// Creates a priority from a raw level.
    pub const fn new(level: u32) -> Self {
        Priority(level)
    }

    /// Returns the raw level.
    pub const fn level(self) -> u32 {
        self.0
    }

    /// Whether this priority is strictly higher than `other`.
    pub fn outranks(self, other: Priority) -> bool {
        self.0 > other.0
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio{}", self.0)
    }
}

impl From<u32> for Priority {
    fn from(level: u32) -> Self {
        Priority(level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ordering() {
        assert!(Priority::HIGH.outranks(Priority::NORMAL));
        assert!(!Priority::NORMAL.outranks(Priority::NORMAL));
        assert!(Priority::new(5) > Priority::new(4));
        assert_eq!(Priority::from(7u32).level(), 7);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Priority::new(2).to_string(), "prio2");
    }
}
