//! Identifier newtypes.
//!
//! Every entity in the simulated system (processes, streams, kernel
//! launches, SMs, thread blocks, commands) is referred to by a small integer
//! identifier. Each kind gets its own newtype
//! so the type system prevents, e.g., indexing the SM status table with a
//! stream id.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u32);

        impl $name {
            /// Creates an identifier from a raw index.
            #[inline]
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Returns the raw index.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// Returns the raw index as `usize`, for indexing vectors/tables.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u32 {
            fn from(id: $name) -> u32 {
                id.0
            }
        }

        impl From<usize> for $name {
            fn from(raw: usize) -> Self {
                Self(raw as u32)
            }
        }
    };
}

id_type!(
    /// A host process using the GPU. One process owns exactly one GPU context.
    ProcessId,
    "P"
);
id_type!(
    /// A software work queue (CUDA *stream*) within a process.
    StreamId,
    "S"
);
id_type!(
    /// A streaming multiprocessor (SM) in the execution engine.
    SmId,
    "SM"
);

/// A single kernel launch instance (one entry in a process's trace, one
/// dynamic grid).
///
/// Kernel launch ids are unique across the whole simulation, not per process.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct KernelLaunchId(u64);

impl KernelLaunchId {
    /// Creates a kernel launch identifier from a raw value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for KernelLaunchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "K{}", self.0)
    }
}

impl fmt::Display for KernelLaunchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "K{}", self.0)
    }
}

/// A command issued by the host (kernel launch, memory copy, ...).
///
/// Command ids are unique across the whole simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CommandId(u64);

impl CommandId {
    /// Creates a command identifier from a raw value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for CommandId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cmd{}", self.0)
    }
}

impl fmt::Display for CommandId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cmd{}", self.0)
    }
}

/// A thread block within a kernel launch, identified by its flat grid index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadBlockId(u32);

impl ThreadBlockId {
    /// Creates a thread block identifier from its flat grid index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// Returns the flat grid index.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the index as `usize`.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ThreadBlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TB{}", self.0)
    }
}

impl fmt::Display for ThreadBlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TB{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_distinct_types() {
        // This is a compile-time property; here we only exercise the API.
        let p = ProcessId::new(3);
        let s = SmId::new(3);
        assert_eq!(p.raw(), s.raw());
        assert_eq!(p.index(), 3);
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(ProcessId::new(1).to_string(), "P1");
        assert_eq!(SmId::new(12).to_string(), "SM12");
        assert_eq!(StreamId::new(0).to_string(), "S0");
        assert_eq!(KernelLaunchId::new(9).to_string(), "K9");
        assert_eq!(CommandId::new(4).to_string(), "Cmd4");
        assert_eq!(ThreadBlockId::new(8).to_string(), "TB8");
    }

    #[test]
    fn conversions_round_trip() {
        let id = StreamId::from(5u32);
        assert_eq!(u32::from(id), 5);
        let id2 = StreamId::from(6usize);
        assert_eq!(id2.index(), 6);
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(SmId::new(0));
        set.insert(SmId::new(1));
        set.insert(SmId::new(0));
        assert_eq!(set.len(), 2);
        assert!(SmId::new(0) < SmId::new(1));
    }
}
