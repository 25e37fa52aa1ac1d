//! Configuration validation errors.

use std::error::Error;
use std::fmt;

/// Error returned by [`crate::MachineConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The machine has zero nodes.
    NoNodes,
    /// The machine has more nodes than the bit-vector types support.
    TooManyNodes {
        /// Requested node count.
        requested: usize,
        /// Supported maximum ([`crate::MAX_PROCS`]).
        max: usize,
    },
    /// `page_blocks` is zero.
    ZeroPageSize,
    /// `page_blocks * num_nodes`, the address stride between one home's
    /// consecutive pages, overflows `u64`.
    PageStrideOverflow {
        /// Requested blocks per page.
        page_blocks: u64,
        /// Requested node count.
        num_nodes: usize,
    },
    /// The memory access latency `mem_access` is zero.
    ///
    /// It must be non-zero for two reasons: the protocol engine holds a
    /// block busy while its reply leaves the home, and relies on every
    /// such hold ending after the cycle it starts; and
    /// [`crate::MachineConfig::remote_to_local_ratio`] (the analytic
    /// model's `rtl`) divides by it. The network latencies may be zero:
    /// a message then arrives in the cycle it leaves.
    ZeroLatency,
    /// A [`crate::FaultPlan`] violates its structural invariants.
    BadFaultPlan {
        /// What is wrong with the plan.
        reason: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoNodes => write!(f, "machine must have at least one node"),
            ConfigError::TooManyNodes { requested, max } => {
                write!(
                    f,
                    "{requested} nodes requested but at most {max} supported (MAX_PROCS)"
                )
            }
            ConfigError::ZeroPageSize => write!(f, "page size must be at least one block"),
            ConfigError::PageStrideOverflow {
                page_blocks,
                num_nodes,
            } => write!(
                f,
                "{page_blocks} blocks per page over {num_nodes} nodes overflows the 64-bit address space"
            ),
            ConfigError::ZeroLatency => write!(f, "memory access latency must be non-zero"),
            ConfigError::BadFaultPlan { reason } => {
                write!(f, "invalid fault plan: {reason}")
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_concise() {
        let e = ConfigError::TooManyNodes {
            requested: 2000,
            max: crate::MAX_PROCS,
        };
        let msg = e.to_string();
        assert!(msg.contains("2000"));
        assert!(
            msg.contains("1024"),
            "error must name the current limit: {msg}"
        );
        assert!(msg.contains("MAX_PROCS"), "error names the limit constant");
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn implements_error_trait() {
        fn assert_error<E: Error>() {}
        assert_error::<ConfigError>();
    }
}
