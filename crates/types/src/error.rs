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
    /// A critical latency parameter is zero.
    ZeroLatency,
    /// The one-way network latency is zero, which would collapse the
    /// windowed engine's bounded-lag lookahead to nothing.
    ZeroLookahead,
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
            ConfigError::ZeroLatency => {
                write!(f, "memory and network latencies must be non-zero")
            }
            ConfigError::ZeroLookahead => {
                write!(
                    f,
                    "one-way network latency must be non-zero (it is the windowed engine's lookahead)"
                )
            }
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
