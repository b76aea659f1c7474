//! The virtual multi-queue NIC.
//!
//! Models the pieces of a datacenter NIC the paper's software actually
//! interacts with:
//!
//! * bounded **rx descriptor rings** (one per queue) that engines poll
//!   in batches (§3.1);
//! * **receive-side steering**: exact-match filters first (the unit
//!   detached/attached during transparent upgrades, §4 — while a flow's
//!   filter is detached its packets are dropped, which is the paper's
//!   blackout packet loss), then RSS hashing as the fallback;
//! * **tx descriptor slot accounting**, which drives Pony Express's
//!   just-in-time packet generation ("there is no need for per-packet
//!   queueing in the engine", §3.1);
//! * **queue ownership**: [`VirtNic::claim`] hands queues out in
//!   claim order, each to one owner — a Pony engine takes one, the
//!   kernel stack its RSS range — and records the owner's interrupt
//!   handler per queue, which the fabric raises on delivery ("blocks on
//!   interrupt notification when idle", §2.4). An unclaimed queue
//!   raises nothing.

use std::collections::VecDeque;
use std::ops::Range;
use std::rc::Rc;

use snap_sim::hash::IntMap;
use snap_sim::Sim;

use crate::packet::Packet;

/// A queue owner's interrupt callback: invoked with the simulator and
/// the rx queue id.
pub type IrqHandler = Rc<dyn Fn(&mut Sim, u16)>;

/// Static NIC configuration.
#[derive(Debug, Clone)]
pub struct NicConfig {
    /// Number of rx/tx queue pairs, and the RSS range until an owner
    /// sets another. Claims past it add queues.
    pub num_queues: u16,
    /// Rx descriptor ring depth, in packets, per queue.
    pub rx_queue_depth: usize,
    /// Tx descriptor slots per queue.
    pub tx_queue_depth: usize,
    /// Line rate in Gbps.
    pub gbps: f64,
    /// Maximum transmission unit in bytes (payload capacity).
    pub mtu: u32,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            num_queues: 4,
            rx_queue_depth: 1024,
            tx_queue_depth: 1024,
            gbps: 50.0,
            mtu: 5000,
        }
    }
}

/// Counters exposed by the NIC.
#[derive(Debug, Clone, Default)]
pub struct NicStats {
    /// Packets handed to the fabric.
    pub tx_packets: u64,
    /// Bytes handed to the fabric (wire size).
    pub tx_bytes: u64,
    /// Packets delivered into rx rings.
    pub rx_packets: u64,
    /// Bytes delivered into rx rings.
    pub rx_bytes: u64,
    /// Packets dropped because the target rx ring was full.
    pub rx_overflow_drops: u64,
    /// Packets dropped because their steer key had no attached filter.
    pub rx_filter_drops: u64,
    /// Packets dropped due to CRC verification failure.
    pub rx_crc_drops: u64,
}

/// A virtual multi-queue NIC.
pub struct VirtNic {
    cfg: NicConfig,
    rx_queues: Vec<VecDeque<Packet>>,
    /// Available tx descriptor slots per queue; consumed on transmit,
    /// replenished when serialization completes.
    tx_slots: Vec<usize>,
    /// Exact-match steering filters: steer key -> rx queue.
    filters: IntMap<u64, u16>,
    /// Each queue's owner's interrupt handler; `None` until claimed.
    /// Claims are made in queue order, so the claimed queues are a
    /// prefix.
    irqs: Vec<Option<IrqHandler>>,
    /// The queues RSS spreads unsteered packets over.
    rss: Range<u16>,
    stats: NicStats,
}

impl VirtNic {
    /// Creates a NIC with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero queues or zero-depth rings.
    pub fn new(cfg: NicConfig) -> Self {
        assert!(cfg.num_queues > 0, "NIC needs at least one queue");
        assert!(cfg.rx_queue_depth > 0 && cfg.tx_queue_depth > 0);
        VirtNic {
            rx_queues: (0..cfg.num_queues).map(|_| VecDeque::new()).collect(),
            tx_slots: vec![cfg.tx_queue_depth; cfg.num_queues as usize],
            filters: IntMap::default(),
            irqs: vec![None; cfg.num_queues as usize],
            rss: 0..cfg.num_queues,
            stats: NicStats::default(),
            cfg,
        }
    }

    /// NIC configuration.
    pub fn config(&self) -> &NicConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> &NicStats {
        &self.stats
    }

    /// Hands the next `n` queues, in claim order from queue 0, to one
    /// owner: a delivery into any of them raises `handler` with that
    /// queue. Once the configured queues are all taken, each claim adds
    /// rings, so no two owners ever share a queue.
    pub fn claim(&mut self, n: u16, handler: IrqHandler) -> Range<u16> {
        let start = self.irqs.iter().take_while(|owner| owner.is_some()).count();
        let end = start + n as usize;
        let len = self.irqs.len().max(end);
        self.rx_queues.resize_with(len, VecDeque::new);
        self.tx_slots.resize(len, self.cfg.tx_queue_depth);
        self.irqs.resize(len, None);
        self.irqs[start..end].fill(Some(handler));
        start as u16..end as u16
    }

    /// Makes RSS spread unsteered packets over `queues` — the kernel
    /// stack's, once it has claimed them.
    pub fn set_rss(&mut self, queues: Range<u16>) {
        assert!(!queues.is_empty() && queues.end as usize <= self.irqs.len());
        self.rss = queues;
    }

    /// Attaches an exact-match receive filter steering `key` to `queue`.
    pub fn attach_filter(&mut self, key: u64, queue: u16) {
        assert!((queue as usize) < self.irqs.len(), "filter targets missing queue");
        self.filters.insert(key, queue);
    }

    /// Detaches the filter for `key`; subsequent packets carrying that
    /// steer key are dropped (upgrade blackout loss, §4).
    ///
    /// Returns whether a filter was attached.
    pub fn detach_filter(&mut self, key: u64) -> bool {
        self.filters.remove(&key).is_some()
    }

    /// Currently attached (key, queue) filters, sorted by key.
    pub fn filters(&self) -> Vec<(u64, u16)> {
        let mut v: Vec<_> = self.filters.iter().map(|(&k, &q)| (k, q)).collect();
        v.sort_unstable();
        v
    }

    /// Free tx descriptor slots on a queue; Pony Express generates new
    /// packets only while this is non-zero.
    pub fn tx_slots_available(&self, queue: u16) -> usize {
        self.tx_slots[queue as usize]
    }

    /// Consumes one tx slot; the fabric calls [`VirtNic::complete_tx`]
    /// when the wire is done with the packet.
    ///
    /// Returns false (and consumes nothing) if no slot is free.
    pub fn take_tx_slot(&mut self, queue: u16) -> bool {
        let s = &mut self.tx_slots[queue as usize];
        if *s == 0 {
            return false;
        }
        *s -= 1;
        true
    }

    /// Returns a tx slot after serialization completes and records the
    /// transmit in the stats.
    pub fn complete_tx(&mut self, queue: u16, wire_bytes: u32) {
        let s = &mut self.tx_slots[queue as usize];
        debug_assert!(*s < self.cfg.tx_queue_depth, "tx slot over-return");
        *s += 1;
        self.stats.tx_packets += 1;
        self.stats.tx_bytes += wire_bytes as u64;
    }

    /// Selects the rx queue for a packet: filters first, then RSS.
    ///
    /// Returns `None` if the packet must be dropped (steer key present
    /// but no filter attached).
    fn steer(&self, pkt: &Packet) -> Option<u16> {
        match pkt.steer_key {
            Some(key) => self.filters.get(&key).copied(),
            None => Some(self.rss.start + (pkt.rss_hash % self.rss.len() as u64) as u16),
        }
    }

    /// Delivers a packet from the fabric into an rx ring.
    ///
    /// Returns the queue, if it has an owner to interrupt.
    pub fn deliver(&mut self, pkt: Packet) -> Option<u16> {
        if !pkt.crc_ok() {
            self.stats.rx_crc_drops += 1;
            return None;
        }
        let Some(queue) = self.steer(&pkt) else {
            self.stats.rx_filter_drops += 1;
            return None;
        };
        let ring = &mut self.rx_queues[queue as usize];
        if ring.len() >= self.cfg.rx_queue_depth {
            self.stats.rx_overflow_drops += 1;
            return None;
        }
        self.stats.rx_packets += 1;
        self.stats.rx_bytes += pkt.wire_size as u64;
        ring.push_back(pkt);
        self.irqs[queue as usize].is_some().then_some(queue)
    }

    /// Delivers a burst (packet train) from the fabric into rx rings,
    /// raising at most one interrupt per owned queue for the whole
    /// burst. Every per-packet check — CRC verification, steering,
    /// ring-depth admission — still runs packet by packet, so fault
    /// injection inside a burst behaves exactly as per-packet delivery.
    ///
    /// Leaves in `irqs` (cleared first) each queue that should raise an
    /// interrupt with its owner's handler, deduplicated in first-hit
    /// order, for the fabric to invoke outside any NIC borrow. The
    /// caller owns the buffer so that a delivery allocates nothing.
    pub fn deliver_burst(
        &mut self,
        pkts: impl IntoIterator<Item = Packet>,
        irqs: &mut Vec<(u16, IrqHandler)>,
    ) {
        irqs.clear();
        for pkt in pkts {
            let Some(q) = self.deliver(pkt) else { continue };
            if irqs.iter().all(|&(seen, _)| seen != q) {
                irqs.extend(self.irqs[q as usize].clone().map(|handler| (q, handler)));
            }
        }
    }

    /// Polls up to `max` packets from an rx queue (engine batch poll,
    /// §3.1: "the maximum number of packets processed is configurable").
    pub fn poll_rx(&mut self, queue: u16, max: usize, out: &mut Vec<Packet>) -> usize {
        let ring = &mut self.rx_queues[queue as usize];
        let n = max.min(ring.len());
        out.extend(ring.drain(..n));
        n
    }

    /// Packets waiting in an rx ring.
    pub fn rx_pending(&self, queue: u16) -> usize {
        self.rx_queues[queue as usize].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn nic(queues: u16) -> VirtNic {
        VirtNic::new(NicConfig {
            num_queues: queues,
            rx_queue_depth: 4,
            tx_queue_depth: 2,
            ..NicConfig::default()
        })
    }

    fn pkt(rss: u64) -> Packet {
        Packet::new(1, 2, Bytes::from_static(b"data")).with_rss_hash(rss)
    }

    #[test]
    fn rss_spreads_by_hash() {
        let mut n = nic(4);
        for h in 0..8 {
            assert!(n.deliver(pkt(h)).is_none(), "unclaimed queues raise no irq");
        }
        for q in 0..4 {
            assert_eq!(n.rx_pending(q), 2, "queue {q}");
        }
        assert_eq!(n.stats().rx_packets, 8);
    }

    #[test]
    fn filters_override_rss() {
        let mut n = nic(4);
        n.attach_filter(42, 3);
        let p = pkt(0).with_steer_key(42);
        n.deliver(p);
        assert_eq!(n.rx_pending(3), 1);
        assert_eq!(n.rx_pending(0), 0);
    }

    #[test]
    fn detached_filter_drops() {
        let mut n = nic(2);
        n.attach_filter(7, 1);
        assert!(n.detach_filter(7));
        assert!(!n.detach_filter(7), "double detach");
        n.deliver(pkt(0).with_steer_key(7));
        assert_eq!(n.stats().rx_filter_drops, 1);
        assert_eq!(n.stats().rx_packets, 0);
    }

    #[test]
    fn full_ring_tail_drops() {
        let mut n = nic(1);
        for _ in 0..6 {
            n.deliver(pkt(0));
        }
        assert_eq!(n.rx_pending(0), 4);
        assert_eq!(n.stats().rx_overflow_drops, 2);
    }

    #[test]
    fn corrupted_packet_dropped() {
        let mut n = nic(1);
        let mut p = pkt(0);
        p.corrupt(1, 1);
        n.deliver(p);
        assert_eq!(n.stats().rx_crc_drops, 1);
        assert_eq!(n.stats().rx_packets, 0);
    }

    fn noop() -> IrqHandler {
        Rc::new(|_, _| {})
    }

    #[test]
    fn irq_raised_only_on_claimed_queues() {
        let mut n = nic(2);
        assert_eq!(n.deliver(pkt(1)), None);
        assert_eq!(n.claim(1, noop()), 0..1);
        assert_eq!(n.deliver(pkt(0)), Some(0));
        assert_eq!(n.deliver(pkt(1)), None, "queue 1 has no owner");
    }

    #[test]
    fn claims_hand_out_queues_in_order_and_grow_past_the_config() {
        let mut n = nic(4);
        assert_eq!(n.claim(1, noop()), 0..1);
        assert_eq!(n.claim(4, noop()), 1..5, "one ring added");
        assert_eq!(n.claim(1, noop()), 5..6);
        n.attach_filter(9, 5);
        assert_eq!(n.deliver(pkt(0).with_steer_key(9)), Some(5));
        assert_eq!((n.rx_pending(5), n.tx_slots_available(5)), (1, 2));
        // RSS stays on the configured queues until an owner moves it.
        assert_eq!(n.deliver(pkt(7)), Some(3));
        n.set_rss(1..5);
        assert_eq!(n.deliver(pkt(7)), Some(4));
    }

    #[test]
    fn poll_rx_batches() {
        let mut n = nic(1);
        for _ in 0..4 {
            n.deliver(pkt(0));
        }
        let mut out = Vec::new();
        assert_eq!(n.poll_rx(0, 3, &mut out), 3);
        assert_eq!(n.poll_rx(0, 3, &mut out), 1);
        assert_eq!(n.poll_rx(0, 3, &mut out), 0);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn burst_delivery_coalesces_irqs_but_checks_per_packet() {
        let mut n = nic(2);
        n.claim(2, noop());
        let mut bad = pkt(0);
        bad.corrupt(2, 2);
        // Burst mixing: two to queue 0, one corrupt, one to queue 1.
        let mut irqs = vec![(7, noop())];
        n.deliver_burst(vec![pkt(0), pkt(2), bad, pkt(1)], &mut irqs);
        let queues: Vec<u16> = irqs.iter().map(|&(q, _)| q).collect();
        assert_eq!(queues, vec![0, 1], "one irq per queue per burst");
        assert_eq!(n.stats().rx_crc_drops, 1, "CRC still checked per packet");
        assert_eq!(n.rx_pending(0), 2);
        assert_eq!(n.rx_pending(1), 1);
    }

    #[test]
    fn tx_slot_accounting() {
        let mut n = nic(1);
        assert_eq!(n.tx_slots_available(0), 2);
        assert!(n.take_tx_slot(0));
        assert!(n.take_tx_slot(0));
        assert!(!n.take_tx_slot(0), "slots exhausted");
        n.complete_tx(0, 100);
        assert_eq!(n.tx_slots_available(0), 1);
        assert_eq!(n.stats().tx_packets, 1);
        assert_eq!(n.stats().tx_bytes, 100);
    }

    #[test]
    fn filters_listing_sorted() {
        let mut n = nic(4);
        n.attach_filter(9, 1);
        n.attach_filter(3, 2);
        assert_eq!(n.filters(), vec![(3, 2), (9, 1)]);
    }
}
