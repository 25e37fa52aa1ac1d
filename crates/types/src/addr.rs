//! Coherence-block addresses.

use std::fmt;

/// Address of one fine-grain coherence block (paper: 32 bytes).
///
/// The simulator works at block granularity throughout: workloads emit
/// reads and writes of whole blocks, the directory tracks sharing state
/// per block, and predictors learn per-block message patterns. The
/// numeric value is a global block index, not a byte address.
///
/// # Example
///
/// ```
/// use specdsm_types::BlockAddr;
/// let b = BlockAddr(0x100);
/// assert_eq!(b.to_string(), "0x100");
/// assert_eq!(b.offset(2), BlockAddr(0x102));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// The block `delta` blocks after this one.
    ///
    /// # Panics
    ///
    /// Panics in debug builds on address overflow.
    #[must_use]
    pub fn offset(self, delta: u64) -> BlockAddr {
        BlockAddr(self.0 + delta)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for BlockAddr {
    fn from(raw: u64) -> Self {
        BlockAddr(raw)
    }
}

impl From<BlockAddr> for u64 {
    fn from(addr: BlockAddr) -> u64 {
        addr.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_advances() {
        assert_eq!(BlockAddr(10).offset(5), BlockAddr(15));
        assert_eq!(BlockAddr(0).offset(0), BlockAddr(0));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(BlockAddr(256).to_string(), "0x100");
        assert_eq!(format!("{:x}", BlockAddr(255)), "ff");
    }

    #[test]
    fn conversions_round_trip() {
        let a = BlockAddr::from(42u64);
        let raw: u64 = a.into();
        assert_eq!(raw, 42);
    }
}
