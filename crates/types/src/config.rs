//! Machine configuration (paper Table 1).

use crate::addr::BlockAddr;
use crate::error::ConfigError;
use crate::ids::{NodeId, MAX_PROCS};

/// Number of nodes in the paper's simulated machine (Table 1).
pub const PAPER_NODES: usize = 16;

/// Coherence block size in bytes (paper §6: 32-byte coherence blocks).
pub const PAPER_BLOCK_BYTES: usize = 32;

/// All latencies of the simulated machine, in processor cycles.
///
/// The defaults are calibrated against the paper's Table 1: a 104-cycle
/// local memory / remote-cache access, an 80-cycle network hop, and
/// injection/delivery overheads (bus crossing + network-interface
/// processing) chosen so that a clean two-hop remote read miss costs
/// exactly 418 cycles round trip, for a remote-to-local access ratio of
/// roughly 4.
///
/// # Example
///
/// ```
/// use specdsm_types::LatencyConfig;
/// let lat = LatencyConfig::default();
/// assert_eq!(lat.one_way(), 157);
/// assert_eq!(2 * lat.one_way() + lat.mem_access, 418);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Processor cache hit latency.
    pub cache_hit: u64,
    /// Local memory / remote cache access time (Table 1: 104 cycles).
    pub mem_access: u64,
    /// Point-to-point network latency (Table 1: 80 cycles).
    pub net_hop: u64,
    /// Message injection overhead at the sender (bus crossing plus
    /// network-interface processing).
    pub inject: u64,
    /// Message delivery overhead at the receiver.
    pub deliver: u64,
    /// Cycles a message occupies a network interface (contention is
    /// modeled at the network interfaces, paper §6).
    pub ni_occupancy: u64,
    /// Cycles a memory access occupies the memory/bus resource. The
    /// paper's machine uses a 100 MHz *split-transaction* bus
    /// (Table 1), so accesses pipeline: occupancy (one 32-byte block
    /// over the bus, ~24 processor cycles) is much smaller than the
    /// 104-cycle access latency.
    pub mem_occupancy: u64,
    /// Maximum extra cycles a cache controller takes to answer an
    /// invalidation (uniform, deterministic per event). Models the
    /// controller competing with its processor for the cache — the
    /// reason overlapped invalidation acks "arrive in any arbitrary
    /// order" (paper §3) and perturb a general message predictor.
    pub ack_jitter: u64,
}

impl LatencyConfig {
    /// One-way latency of a message between two distinct nodes,
    /// excluding contention: injection + network hop + delivery.
    #[must_use]
    pub fn one_way(&self) -> u64 {
        self.inject + self.net_hop + self.deliver
    }
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            cache_hit: 1,
            mem_access: 104,
            net_hop: 80,
            inject: 38,
            deliver: 39,
            ni_occupancy: 8,
            mem_occupancy: 24,
            ack_jitter: 48,
        }
    }
}

/// Configuration of the simulated CC-NUMA machine.
///
/// [`MachineConfig::paper_machine`] reproduces the paper's Table 1:
/// sixteen nodes, one processor per node, 32-byte coherence blocks,
/// a ~418-cycle remote read round trip and a remote-to-local access
/// ratio of about four.
///
/// # Example
///
/// ```
/// use specdsm_types::MachineConfig;
///
/// let m = MachineConfig::paper_machine();
/// assert_eq!(m.num_nodes, 16);
/// assert_eq!(m.remote_read_round_trip(), 418);
/// assert!((m.remote_to_local_ratio() - 4.0).abs() < 0.1);
/// m.validate().expect("paper machine is valid");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of DSM nodes (= processors; one processor per node).
    pub num_nodes: usize,
    /// Coherence block size in bytes (used only for storage accounting).
    pub block_bytes: usize,
    /// Blocks per page; homes are assigned page-interleaved, so a region
    /// allocator can place data on a chosen home node.
    pub page_blocks: u64,
    /// All latency parameters.
    pub latency: LatencyConfig,
}

impl MachineConfig {
    /// The machine of the paper's Table 1 (16 nodes).
    #[must_use]
    pub fn paper_machine() -> Self {
        MachineConfig {
            num_nodes: PAPER_NODES,
            block_bytes: PAPER_BLOCK_BYTES,
            page_blocks: 128,
            latency: LatencyConfig::default(),
        }
    }

    /// A machine with a different node count but otherwise paper
    /// parameters; useful for scaling sweeps.
    #[must_use]
    pub fn with_nodes(num_nodes: usize) -> Self {
        MachineConfig {
            num_nodes,
            ..Self::paper_machine()
        }
    }

    /// Checks the structural invariants of the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the node count is zero or exceeds
    /// [`MAX_PROCS`], if the page size is zero, if a page per node
    /// overflows the 64-bit block address space, or if any critical
    /// latency is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_nodes == 0 {
            return Err(ConfigError::NoNodes);
        }
        if self.num_nodes > MAX_PROCS {
            return Err(ConfigError::TooManyNodes {
                requested: self.num_nodes,
                max: MAX_PROCS,
            });
        }
        if self.page_blocks == 0 {
            return Err(ConfigError::ZeroPageSize);
        }
        if self
            .page_blocks
            .checked_mul(self.num_nodes as u64)
            .is_none()
        {
            return Err(ConfigError::PageStrideOverflow {
                page_blocks: self.page_blocks,
                num_nodes: self.num_nodes,
            });
        }
        if self.latency.mem_access == 0 {
            return Err(ConfigError::ZeroLatency);
        }
        Ok(())
    }

    /// Home node of a block: pages are interleaved across nodes.
    #[must_use]
    pub fn home_of(&self, block: BlockAddr) -> NodeId {
        NodeId(((block.0 / self.page_blocks) % self.num_nodes as u64) as usize)
    }

    /// First block of the `index`-th page homed on `home`.
    ///
    /// Inverse of [`MachineConfig::home_of`]: the returned address and
    /// the following `page_blocks - 1` addresses all map to `home`.
    #[must_use]
    pub fn page_on(&self, home: NodeId, index: u64) -> BlockAddr {
        let page = index * self.num_nodes as u64 + home.0 as u64;
        BlockAddr(page * self.page_blocks)
    }

    /// Latency of a clean remote read miss (home has the block in state
    /// Idle): request one-way + memory access + reply one-way. With
    /// default latencies this is the paper's 418-cycle round-trip miss
    /// latency.
    #[must_use]
    pub fn remote_read_round_trip(&self) -> u64 {
        2 * self.latency.one_way() + self.latency.mem_access
    }

    /// Remote-to-local access ratio (`rtl` in the analytic model);
    /// about 4 for the default configuration, as in Table 1.
    #[must_use]
    pub fn remote_to_local_ratio(&self) -> f64 {
        self.remote_read_round_trip() as f64 / self.latency.mem_access as f64
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::paper_machine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcId;

    #[test]
    fn paper_round_trip_is_418() {
        let m = MachineConfig::paper_machine();
        assert_eq!(m.remote_read_round_trip(), 418);
    }

    #[test]
    fn paper_rtl_is_about_4() {
        let m = MachineConfig::paper_machine();
        let rtl = m.remote_to_local_ratio();
        assert!((3.9..=4.1).contains(&rtl), "rtl = {rtl}");
    }

    #[test]
    fn home_mapping_is_page_interleaved() {
        let m = MachineConfig::paper_machine();
        // All blocks within one page share a home.
        let base = BlockAddr(0);
        let home = m.home_of(base);
        for i in 0..m.page_blocks {
            assert_eq!(m.home_of(base.offset(i)), home);
        }
        // Consecutive pages rotate across nodes.
        assert_ne!(m.home_of(BlockAddr(0)), m.home_of(BlockAddr(m.page_blocks)));
    }

    #[test]
    fn page_on_inverts_home_of() {
        let m = MachineConfig::paper_machine();
        for node in 0..m.num_nodes {
            for index in 0..4 {
                let addr = m.page_on(NodeId(node), index);
                assert_eq!(m.home_of(addr), NodeId(node));
                assert_eq!(m.home_of(addr.offset(m.page_blocks - 1)), NodeId(node));
            }
        }
    }

    #[test]
    fn page_on_distinct_pages() {
        let m = MachineConfig::paper_machine();
        let a = m.page_on(NodeId(3), 0);
        let b = m.page_on(NodeId(3), 1);
        assert!(b.0 >= a.0 + m.page_blocks);
    }

    #[test]
    fn non_power_of_two_node_counts_validate_and_map_homes() {
        // 24 and 48 nodes exercise the modulo slow path of the home
        // mapping (the power-of-two shift fast path does not apply);
        // the full address ↔ home ↔ page arithmetic must still be a
        // bijection and pass validation.
        for nodes in [24usize, 48] {
            let m = MachineConfig::with_nodes(nodes);
            m.validate()
                .unwrap_or_else(|e| panic!("{nodes} nodes: {e}"));
            for node in 0..nodes {
                for index in 0..3 {
                    let addr = m.page_on(NodeId(node), index);
                    assert_eq!(m.home_of(addr), NodeId(node), "{nodes} nodes");
                    assert_eq!(
                        m.home_of(addr.offset(m.page_blocks - 1)),
                        NodeId(node),
                        "{nodes} nodes: last block of the page"
                    );
                }
            }
            // Consecutive pages rotate through all homes exactly once.
            let homes: Vec<usize> = (0..nodes as u64)
                .map(|p| m.home_of(BlockAddr(p * m.page_blocks)).0)
                .collect();
            assert_eq!(homes, (0..nodes).collect::<Vec<_>>());
        }
    }

    #[test]
    fn validation_accepts_up_to_max_procs() {
        MachineConfig::with_nodes(MAX_PROCS)
            .validate()
            .expect("MAX_PROCS nodes is the supported maximum");
        let err = MachineConfig::with_nodes(MAX_PROCS + 1)
            .validate()
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("1024"),
            "oversized machine error names the new limit: {msg}"
        );
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut m = MachineConfig::paper_machine();
        m.num_nodes = 0;
        assert_eq!(m.validate(), Err(ConfigError::NoNodes));

        let mut m = MachineConfig::paper_machine();
        m.num_nodes = MAX_PROCS + 1;
        assert!(matches!(
            m.validate(),
            Err(ConfigError::TooManyNodes { .. })
        ));

        let mut m = MachineConfig::paper_machine();
        m.page_blocks = 0;
        assert_eq!(m.validate(), Err(ConfigError::ZeroPageSize));

        let mut m = MachineConfig::paper_machine();
        m.page_blocks = 1 << 62;
        assert!(matches!(
            m.validate(),
            Err(ConfigError::PageStrideOverflow { num_nodes: 16, .. })
        ));
        m.page_blocks = 1 << 59;
        assert_eq!(m.validate(), Ok(()), "16 * 2^59 = 2^63 still fits");

        let mut m = MachineConfig::paper_machine();
        m.latency.mem_access = 0;
        assert_eq!(m.validate(), Err(ConfigError::ZeroLatency));
    }

    #[test]
    fn validation_accepts_a_zero_latency_network() {
        // A message may arrive in the cycle it leaves; only the memory
        // latency must stay non-zero.
        let mut m = MachineConfig::paper_machine();
        m.latency.net_hop = 0;
        assert_eq!(m.validate(), Ok(()));
        m.latency.inject = 0;
        m.latency.deliver = 0;
        m.latency.ni_occupancy = 0;
        assert_eq!(m.latency.one_way(), 0);
        assert_eq!(m.validate(), Ok(()));
        m.latency.mem_access = 0;
        assert_eq!(m.validate(), Err(ConfigError::ZeroLatency));
        let msg = ConfigError::ZeroLatency.to_string();
        assert!(msg.contains("memory"), "{msg}");
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn default_is_paper_machine() {
        assert_eq!(MachineConfig::default(), MachineConfig::paper_machine());
    }

    #[test]
    fn all_procs_have_in_range_nodes() {
        let m = MachineConfig::with_nodes(8);
        for p in ProcId::all(8) {
            assert!(p.node().0 < m.num_nodes);
        }
    }
}
