//! The point-to-point network with NI contention.

use specdsm_sim::{Cycle, FifoResource};
use specdsm_types::{LatencyConfig, NodeId};

/// Constant-latency point-to-point network with per-node network
/// interfaces, owned as a **node range** by one protocol shard.
///
/// The paper assumes "a point-to-point network with a constant latency
/// of 80 cycles but models contention at the network interfaces".
/// Latency and occupancy are separated LogP-style: a message leaves the
/// source `inject` cycles after its NI slot starts, crosses the network
/// in `net_hop` cycles, and is handed to the destination `deliver`
/// cycles after its inbound NI slot starts; each NI serves one message
/// every `ni_occupancy` cycles.
///
/// A send decomposes into two halves, because in the sharded engine the
/// two endpoints may live on different shards:
///
/// * [`Network::depart`] — the *sender-side* half: counts the message,
///   acquires the source's outbound NI, and returns the cycle the
///   message reaches the destination's inbound NI (`at_dst`).
/// * [`Network::arrive`] — the *receiver-side* half: acquires the
///   destination's inbound NI at `at_dst` and returns the handoff
///   cycle.
///
/// When one shard owns both endpoints (the sequential whole-machine
/// shard) it runs both halves back to back; the timing is exactly the
/// pre-shard monolithic network's.
///
/// Messages between a node and itself (processor ↔ local directory)
/// bypass the network entirely.
#[derive(Debug, Clone)]
pub struct Network {
    lat: LatencyConfig,
    /// First owned node.
    lo: usize,
    ni_out: Vec<FifoResource>,
    ni_in: Vec<FifoResource>,
    messages: u64,
}

impl Network {
    /// Creates the network-interface slice for nodes `lo..hi`.
    #[must_use]
    pub fn with_range(lo: usize, hi: usize, lat: LatencyConfig) -> Self {
        Network {
            lat,
            lo,
            ni_out: (lo..hi).map(|_| FifoResource::new()).collect(),
            ni_in: (lo..hi).map(|_| FifoResource::new()).collect(),
            messages: 0,
        }
    }

    /// Sender-side half of a remote send at `now`: outbound-NI
    /// serialization, injection overhead, and the network hop. Returns
    /// the cycle the message arrives at the destination's inbound NI.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not in this range.
    #[inline]
    pub fn depart(&mut self, now: Cycle, src: NodeId) -> Cycle {
        self.messages += 1;
        let out_done = self.ni_out[src.0 - self.lo].acquire(now, self.lat.ni_occupancy);
        let out_start = Cycle(out_done.raw() - self.lat.ni_occupancy);
        out_start + self.lat.inject + self.lat.net_hop
    }

    /// Receiver-side half: inbound-NI serialization at `at_dst` plus
    /// delivery overhead. Returns the cycle the message is handed to
    /// the node.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not in this range.
    #[inline]
    pub fn arrive(&mut self, at_dst: Cycle, dst: NodeId) -> Cycle {
        let in_done = self.ni_in[dst.0 - self.lo].acquire(at_dst, self.lat.ni_occupancy);
        let in_start = Cycle(in_done.raw() - self.lat.ni_occupancy);
        in_start + self.lat.deliver
    }

    /// Remote messages sent from this range so far.
    #[must_use]
    pub fn messages_sent(&self) -> u64 {
        self.messages
    }

    /// Total cycles messages waited for this range's NI slots (a
    /// contention measure).
    #[must_use]
    pub fn ni_wait_cycles(&self) -> u64 {
        self.ni_out
            .iter()
            .chain(&self.ni_in)
            .map(FifoResource::wait_cycles)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::with_range(0, 4, LatencyConfig::default())
    }

    /// One whole send at `now` within `n`'s range, as the sequential
    /// shard performs it: node-local messages skip the network, remote
    /// ones run both halves. Returns the delivery time at `dst`.
    fn send(n: &mut Network, now: Cycle, src: NodeId, dst: NodeId) -> Cycle {
        if src == dst {
            return now;
        }
        let at_dst = n.depart(now, src);
        n.arrive(at_dst, dst)
    }

    #[test]
    fn uncontended_delivery_is_one_way() {
        let mut n = net();
        let lat = LatencyConfig::default();
        let t = send(&mut n, Cycle(1000), NodeId(0), NodeId(1));
        assert_eq!(t, Cycle(1000 + lat.one_way()));
    }

    #[test]
    fn local_delivery_is_immediate() {
        let mut n = net();
        assert_eq!(send(&mut n, Cycle(7), NodeId(2), NodeId(2)), Cycle(7));
        assert_eq!(n.messages_sent(), 0);
    }

    #[test]
    fn bursts_serialize_at_the_source_ni() {
        let mut n = net();
        let lat = LatencyConfig::default();
        let t1 = send(&mut n, Cycle(0), NodeId(0), NodeId(1));
        let t2 = send(&mut n, Cycle(0), NodeId(0), NodeId(2));
        let t3 = send(&mut n, Cycle(0), NodeId(0), NodeId(3));
        assert_eq!(t1, Cycle(lat.one_way()));
        assert_eq!(t2, Cycle(lat.one_way() + lat.ni_occupancy));
        assert_eq!(t3, Cycle(lat.one_way() + 2 * lat.ni_occupancy));
        assert!(n.ni_wait_cycles() > 0);
    }

    #[test]
    fn fan_in_serializes_at_the_destination_ni() {
        let mut n = net();
        let lat = LatencyConfig::default();
        let t1 = send(&mut n, Cycle(0), NodeId(1), NodeId(0));
        let t2 = send(&mut n, Cycle(0), NodeId(2), NodeId(0));
        assert_eq!(t1, Cycle(lat.one_way()));
        assert_eq!(t2, Cycle(lat.one_way() + lat.ni_occupancy));
    }

    #[test]
    fn distinct_pairs_do_not_interfere() {
        let mut n = net();
        let lat = LatencyConfig::default();
        let t1 = send(&mut n, Cycle(0), NodeId(0), NodeId(1));
        let t2 = send(&mut n, Cycle(0), NodeId(2), NodeId(3));
        assert_eq!(t1, Cycle(lat.one_way()));
        assert_eq!(t2, Cycle(lat.one_way()));
    }

    #[test]
    fn split_halves_compose_to_send() {
        // One network does whole sends; a pair of ranges does the same
        // traffic as depart/arrive halves. All timing must agree.
        let lat = LatencyConfig::default();
        let mut whole = Network::with_range(0, 4, lat);
        let mut left = Network::with_range(0, 2, lat);
        let mut right = Network::with_range(2, 4, lat);
        for i in 0..8u64 {
            let now = Cycle(10 * i);
            let direct = send(&mut whole, now, NodeId(1), NodeId(3));
            let at_dst = left.depart(now, NodeId(1));
            let split = right.arrive(at_dst, NodeId(3));
            assert_eq!(direct, split, "message {i}");
        }
        assert_eq!(whole.messages_sent(), left.messages_sent());
        assert_eq!(
            whole.ni_wait_cycles(),
            left.ni_wait_cycles() + right.ni_wait_cycles()
        );
    }

    #[test]
    fn same_pair_messages_preserve_order() {
        // Pairwise FIFO is a correctness requirement the directory
        // relies on (e.g. UpgradeAck before a subsequent Inval).
        let mut n = net();
        let mut last = Cycle(0);
        for i in 0..10 {
            let t = send(&mut n, Cycle(i), NodeId(0), NodeId(1));
            assert!(t > last, "delivery times strictly increase");
            last = t;
        }
    }
}
