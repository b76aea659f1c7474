//! Fault injection: the pipeline every packet runs at its source leaf,
//! and the setters that arm it. A per-link arm lives in that link's
//! `Link` record, a per-host one in its `Host`, topology faults in
//! the fabric's two topology tables.

use snap_sim::trace::Stage;
use snap_sim::Nanos;

use super::{Arms, Fabric, FabricHandle, SwitchId};
use crate::packet::{HostId, Packet, QosClass};

/// Verdict of the source-leaf fault pipeline for one packet.
pub(super) struct IngressPass {
    /// The packet is taking an alternate path around a quarantined
    /// link (cross-rack: a different ECMP spine; in-rack: a relay via
    /// a third host port pair).
    pub(super) rerouted: bool,
    /// Extra delay accumulated at ingress (gray jitter, reroute hops)
    /// — applied at the first serialization point.
    pub(super) extra: Nanos,
}

impl Fabric {
    /// Hosts added to `rack` so far (ids are handed out rack-major) —
    /// the in-rack alternate-path census used by quarantine rerouting.
    fn hosts_in_rack(&self, rack: u32) -> u64 {
        let per_rack = u64::from(self.topo.spec().hosts_per_rack);
        (self.hosts.len() as u64)
            .saturating_sub(u64::from(rack) * per_rack)
            .min(per_rack)
    }

    /// The fault pipeline every packet runs once, at its *source leaf*:
    /// random loss, partition, quarantine shed/reroute, gray loss,
    /// in-flight corruption, gray jitter. Returns `None` when the
    /// packet is dropped, otherwise the reroute verdict plus any extra
    /// delay to fold into the first serialization point. `leaf` is the
    /// source leaf's trace host. The link's arms are read with one
    /// lookup; its record is touched again only to move a counter.
    pub(super) fn ingress_admit(
        &mut self,
        leaf: HostId,
        now: Nanos,
        pkt: &mut Packet,
    ) -> Option<IngressPass> {
        let link = (pkt.src, pkt.dst);
        // Random loss injection.
        if self.cfg.loss_prob > 0.0 && self.rng.chance(self.cfg.loss_prob) {
            self.stats.random_drops += 1;
            self.stamp(pkt, Stage::WireDrop, leaf, now);
            return None;
        }
        let arms = self.links.get(&link).map_or_else(Arms::default, |l| l.arms);
        // Partition: the switch forwards nothing between a symmetric
        // partitioned pair, and nothing in the dead direction of a
        // one-way partition. Drops are counted per directed link so
        // telemetry can tell which direction is black-holing.
        if arms.partitioned || arms.oneway {
            self.stats.partition_drops += 1;
            self.count_fault(pkt.dst, |d| d.partition += 1);
            self.link_stats(link).partition_drops += 1;
            self.stamp(pkt, Stage::WireDrop, leaf, now);
            return None;
        }
        // Quarantine (a health-detector verdict, not a fault): where an
        // alternate path exists, traffic reroutes around the sick link
        // and skips its gray faults. In-rack the alternate is a relay
        // via any third host's ToR port pair (one extra switch hop);
        // cross-rack it is a different equal-cost spine (no extra
        // cost). Best-effort traffic is shed first rather than rerouted
        // (degraded mode sheds the best-effort class, reusing the QoS
        // split). With no alternate — a two-host rack, a single spine —
        // transport traffic soldiers on over the sick link.
        let same_rack = self.topo.same_rack(pkt.src, pkt.dst);
        if arms.quarantined && pkt.qos == QosClass::BestEffort {
            self.stats.quarantine_sheds += 1;
            self.count_fault(pkt.dst, |d| d.quarantined += 1);
            self.link_stats(link).quarantine_sheds += 1;
            self.stamp(pkt, Stage::WireDrop, leaf, now);
            return None;
        }
        let rerouted = arms.quarantined
            && if same_rack {
                self.hosts_in_rack(self.topo.rack_of(pkt.src)) > 2
            } else {
                self.topo.spines() > 1
            };
        if rerouted {
            self.stats.rerouted += 1;
            self.link_stats(link).rerouted += 1;
        }
        // Gray loss: the link silently eats the packet — no CRC
        // evidence ever reaches the receiver, unlike corruption below.
        // Drawn from the dedicated gray RNG stream so healthy links'
        // draw order is untouched.
        if !rerouted && arms.loss > 0.0 && self.gray_rng.chance(arms.loss) {
            self.stats.lossy_drops += 1;
            self.count_fault(pkt.dst, |d| d.lossy += 1);
            self.link_stats(link).lossy_drops += 1;
            self.stamp(pkt, Stage::WireDrop, leaf, now);
            return None;
        }
        // Payload corruption: flip one bit, leave the CRC stale; the
        // packet still travels and burns bandwidth, but the destination
        // NIC rejects it.
        if self.cfg.corrupt_prob > 0.0
            && !pkt.payload.is_empty()
            && self.rng.chance(self.cfg.corrupt_prob)
        {
            let byte = self.rng.below(pkt.payload.len() as u64) as usize;
            let bit = self.rng.below(8) as u8;
            pkt.corrupt(byte, bit);
            self.stats.corrupted += 1;
            self.count_fault(pkt.dst, |d| d.corruption += 1);
            self.link_stats(link).corrupted += 1;
            self.stamp(pkt, Stage::WireCorrupt, leaf, now);
        }
        // Gray jitter: a misbehaving port delays rather than drops.
        // The extra delay is log-normal (median/sigma from the fault),
        // drawn from the gray stream, and attributed per link.
        let mut extra = Nanos::ZERO;
        let (median, sigma) = arms.jitter;
        if !rerouted && !median.is_zero() {
            let d = snap_sim::dist::log_normal(&mut self.gray_rng, median.as_nanos() as f64, sigma)
                as u64;
            extra += Nanos(d);
            let link = self.link_stats(link);
            link.jittered += 1;
            link.jitter_ns += d;
        }
        // An in-rack rerouted packet pays one extra switch traversal +
        // two extra link hops to relay through the alternate port pair.
        // A cross-rack reroute rides a different equal-cost spine: no
        // extra delay here.
        if rerouted && same_rack {
            extra += self.cfg.switch_latency + self.cfg.prop_delay * 2;
        }
        Some(IngressPass { rerouted, extra })
    }
}

impl FabricHandle {
    /// Rewrites the fault arms of the directed link `from -> to`.
    fn arm(&self, from: HostId, to: HostId, set: impl FnOnce(&mut Arms)) {
        let mut fabric = self.inner.borrow_mut();
        set(&mut fabric.links.entry((from, to)).or_default().arms);
    }

    /// Fails the bidirectional trunk between a leaf (rack) and a spine:
    /// ECMP stops hashing flows onto it, and packets already committed
    /// to the spine are dropped there. Idempotent.
    pub fn fail_trunk(&self, leaf: u32, spine: u32) {
        self.inner.borrow_mut().down_trunks.insert((leaf, spine));
    }

    /// Restores a failed trunk. Idempotent.
    pub fn restore_trunk(&self, leaf: u32, spine: u32) {
        self.inner.borrow_mut().down_trunks.remove(&(leaf, spine));
    }

    /// Browns out a leaf switch: every packet transiting rack `rack`'s
    /// leaf is dropped with `drop_prob` and survivors pick up `extra`
    /// latency. `drop_prob == 0` heals the leaf. Draws come from the
    /// gray RNG stream, so healthy racks' modeled outcomes are
    /// untouched.
    pub fn set_leaf_brownout(&self, rack: u32, drop_prob: f64, extra: Nanos) {
        let mut fabric = self.inner.borrow_mut();
        let leaf = SwitchId::Leaf(rack);
        if drop_prob > 0.0 || !extra.is_zero() {
            fabric.brownouts.insert(leaf, (drop_prob.clamp(0.0, 1.0), extra));
        } else {
            fabric.brownouts.remove(&leaf);
        }
    }

    /// Sets the random loss probability (failure injection).
    pub fn set_loss_prob(&self, p: f64) {
        self.inner.borrow_mut().cfg.loss_prob = p.clamp(0.0, 1.0);
    }

    /// Sets the per-packet payload-corruption probability (failure
    /// injection). Corrupted packets carry a stale CRC and are rejected
    /// by the destination NIC's receive path.
    pub fn set_corrupt_prob(&self, p: f64) {
        self.inner.borrow_mut().cfg.corrupt_prob = p.clamp(0.0, 1.0);
    }

    /// Partitions the fabric between `a` and `b`: packets in either
    /// direction are dropped at the switch until [`FabricHandle::heal`].
    /// Idempotent.
    pub fn partition(&self, a: HostId, b: HostId) {
        self.arm(a, b, |arms| arms.partitioned = true);
        self.arm(b, a, |arms| arms.partitioned = true);
    }

    /// Heals a partition between `a` and `b`. Idempotent; harmless if
    /// the pair was never partitioned; leaves a one-way partition on
    /// the pair standing.
    pub fn heal(&self, a: HostId, b: HostId) {
        self.arm(a, b, |arms| arms.partitioned = false);
        self.arm(b, a, |arms| arms.partitioned = false);
    }

    /// Asymmetric partition: drops only packets `from -> to` at the
    /// switch; the reverse direction keeps flowing (a gray failure —
    /// acks arrive, data does not). Idempotent; independent of any
    /// symmetric partition on the same pair.
    pub fn partition_oneway(&self, from: HostId, to: HostId) {
        self.arm(from, to, |arms| arms.oneway = true);
    }

    /// Heals a one-way partition `from -> to`. Idempotent.
    pub fn heal_oneway(&self, from: HostId, to: HostId) {
        self.arm(from, to, |arms| arms.oneway = false);
    }

    /// Returns true if packets `from -> to` are currently dropped by a
    /// one-way partition (does not consider symmetric partitions).
    pub fn is_partitioned_oneway(&self, from: HostId, to: HostId) -> bool {
        let fabric = self.inner.borrow();
        fabric.links.get(&(from, to)).is_some_and(|l| l.arms.oneway)
    }

    /// Sets (or, with `prob == 0`, heals) a *gray* loss fault on the
    /// directed link `from -> to`: packets are silently dropped with
    /// probability `prob`, with no CRC evidence at the receiver.
    pub fn set_link_loss(&self, from: HostId, to: HostId, prob: f64) {
        let loss = if prob > 0.0 { prob.min(1.0) } else { 0.0 };
        self.arm(from, to, |arms| arms.loss = loss);
    }

    /// Sets (or, with a zero `median`, heals) a jitter fault on the
    /// directed link `from -> to`: each packet picks up a log-normal
    /// extra delay with the given median and sigma.
    pub fn set_link_jitter(&self, from: HostId, to: HostId, median: Nanos, sigma: f64) {
        self.arm(from, to, |arms| arms.jitter = (median, sigma.max(0.0)));
    }

    /// Injects a PFC pause storm against `host`: the switch stops
    /// serializing toward it until absolute time `until` (§5.4's
    /// pause-frame pathology). Storms extend, never shorten, an
    /// existing pause.
    pub fn pause_host(&self, host: HostId, until: Nanos) {
        let mut fabric = self.inner.borrow_mut();
        if let Some(host) = fabric.host_mut(host) {
            host.egress.paused_until = host.egress.paused_until.max(until);
        }
        fabric.stats.pauses += 1;
    }

    /// Quarantines the directed link `from -> to` (a health-detector
    /// verdict): transport traffic reroutes via an alternate path when
    /// one exists (any third host), paying one extra switch hop but
    /// dodging the link's gray faults; best-effort traffic is shed.
    /// Idempotent.
    pub fn quarantine_link(&self, from: HostId, to: HostId) {
        self.arm(from, to, |arms| arms.quarantined = true);
    }

    /// Lifts a quarantine on the directed link `from -> to`. Idempotent.
    pub fn clear_quarantine(&self, from: HostId, to: HostId) {
        self.arm(from, to, |arms| arms.quarantined = false);
    }

    /// Stalls a host's tx queue until absolute time `until` (models a
    /// hung DMA channel): packets transmitted on it during the stall
    /// wait for the stall to lift before serialization starts. Ignored
    /// for a host that does not exist.
    pub fn stall_queue_until(&self, host: HostId, queue: u16, until: Nanos) {
        let mut fabric = self.inner.borrow_mut();
        let Some(host) = fabric.host_mut(host) else {
            return;
        };
        match host.tx_stalls.iter_mut().find(|(q, _)| *q == queue) {
            Some((_, lift)) => *lift = (*lift).max(until),
            None => host.tx_stalls.push((queue, until)),
        }
    }
}
