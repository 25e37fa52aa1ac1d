//! The point-to-point network with NI contention, and the handlers
//! that send a message, hand it to its destination's NI and dispatch
//! it on delivery.

use specdsm_sim::{Cycle, FifoResource};
use specdsm_types::{BlockAddr, LatencyConfig, NodeId};

use crate::msg::{Msg, MsgKind};
use crate::processor::Grant;
use crate::system::{Event, System};

/// Constant-latency point-to-point network with per-node network
/// interfaces.
///
/// The paper assumes "a point-to-point network with a constant latency
/// of 80 cycles but models contention at the network interfaces".
/// Latency and occupancy are separated LogP-style: a message leaves the
/// source `inject` cycles after its NI slot starts, crosses the network
/// in `net_hop` cycles, and is handed to the destination `deliver`
/// cycles after its inbound NI slot starts; each NI serves one message
/// every `ni_occupancy` cycles.
///
/// A send is two calls, one per NI:
///
/// * [`Network::depart`] counts the message, acquires the source's
///   outbound NI, and returns the cycle the message reaches the
///   destination's inbound NI (`at_dst`);
/// * [`Network::arrive`] acquires the destination's inbound NI at
///   `at_dst` and returns the handoff cycle.
///
/// Messages between a node and itself (processor ↔ local directory)
/// bypass the network entirely.
#[derive(Debug, Clone)]
pub struct Network {
    lat: LatencyConfig,
    ni_out: Vec<FifoResource>,
    ni_in: Vec<FifoResource>,
    messages: u64,
}

impl Network {
    /// Creates the network interfaces of `nodes` nodes.
    #[must_use]
    pub fn new(nodes: usize, lat: LatencyConfig) -> Self {
        Network {
            lat,
            ni_out: (0..nodes).map(|_| FifoResource::new()).collect(),
            ni_in: (0..nodes).map(|_| FifoResource::new()).collect(),
            messages: 0,
        }
    }

    /// The sender's half of a remote send at `now`: outbound-NI
    /// serialization, injection overhead, and the network hop. Returns
    /// the cycle the message arrives at the destination's inbound NI.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not a node of the network.
    #[inline]
    pub fn depart(&mut self, now: Cycle, src: NodeId) -> Cycle {
        self.messages += 1;
        let out_start = self.ni_out[src.0].acquire(now, self.lat.ni_occupancy);
        out_start + self.lat.inject + self.lat.net_hop
    }

    /// The receiver's half: inbound-NI serialization at `at_dst` plus
    /// delivery overhead. Returns the cycle the message is handed to
    /// the node.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not a node of the network.
    #[inline]
    pub fn arrive(&mut self, at_dst: Cycle, dst: NodeId) -> Cycle {
        let in_start = self.ni_in[dst.0].acquire(at_dst, self.lat.ni_occupancy);
        in_start + self.lat.deliver
    }

    /// Remote messages sent so far.
    #[must_use]
    pub fn messages_sent(&self) -> u64 {
        self.messages
    }

    /// Total cycles messages waited for NI slots (a contention
    /// measure).
    #[must_use]
    pub fn ni_wait_cycles(&self) -> u64 {
        self.ni_out
            .iter()
            .chain(&self.ni_in)
            .map(FifoResource::wait_cycles)
            .sum()
    }
}

impl System {
    #[inline]
    pub(crate) fn send(
        &mut self,
        now: Cycle,
        src: NodeId,
        dst: NodeId,
        block: BlockAddr,
        kind: MsgKind,
    ) {
        debug_assert!(now >= self.cur, "messages are never sent in the past");
        let msg = Msg {
            src,
            dst,
            block,
            kind,
        };
        if let Some(audit) = &mut self.audit {
            audit.note_sent(now, &msg);
        }
        if src == dst {
            // Node-local delivery bypasses the network entirely.
            self.sched(now, Event::Deliver(msg));
            return;
        }
        let at_dst = self.net.depart(now, src);
        self.arrive(at_dst, msg);
    }

    /// Hands a message that left its sender's NI at `at_dst` to the
    /// destination's inbound NI and schedules its delivery.
    #[inline]
    pub(crate) fn arrive(&mut self, at_dst: Cycle, msg: Msg) {
        let handoff = self.net.arrive(at_dst, msg.dst);
        self.sched(handoff, Event::Deliver(msg));
    }

    /// Dispatches a delivered message.
    pub(crate) fn deliver(&mut self, now: Cycle, msg: Msg) {
        let Msg {
            src,
            dst,
            block,
            kind,
        } = msg;
        if let MsgKind::Req { proc, seq, .. } = kind {
            if self.suppress_duplicate(dst, proc, seq) {
                return;
            }
        }
        if let Some(audit) = &mut self.audit {
            audit.note_delivered(now, &msg);
        }
        match kind {
            MsgKind::Req { .. } | MsgKind::InvAck { .. } | MsgKind::WritebackData { .. } => {
                self.deliver_dir(now, src, block, kind)
            }
            MsgKind::DataShared { version } => {
                self.proc_grant(now, dst, block, version, Grant::Shared)
            }
            MsgKind::DataExcl { version } => {
                self.proc_grant(now, dst, block, version, Grant::Exclusive)
            }
            MsgKind::UpgradeAck { version } => {
                self.proc_grant(now, dst, block, version, Grant::Upgrade)
            }
            MsgKind::Inval => self.proc_inval(now, dst, block, src),
            MsgKind::InvWriteback => self.proc_inv_writeback(now, dst, block, src),
            MsgKind::SpecData {
                version,
                ticket,
                trigger,
            } => self.proc_spec_data(dst, block, version, ticket, trigger),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(4, LatencyConfig::default())
    }

    /// One whole send at `now`, as the machine performs it: node-local
    /// messages skip the network, remote ones run both halves. Returns
    /// the delivery time at `dst`.
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
