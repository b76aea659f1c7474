//! The simulated datacenter fabric: host uplinks + a switching tier
//! compiled from a [`snap_topo::ClosSpec`].
//!
//! Models exactly the effects the paper's evaluation exercises:
//!
//! * **Serialization delay** at the sender uplink and every switch
//!   egress port on the path (line-rate Gbps from the NIC config /
//!   topology trunk config);
//! * **Propagation + switch forwarding latency** per hop (constants
//!   from [`snap_sim::costs`] for the host tier, trunk parameters from
//!   the topology for the spine tier);
//! * **Bounded egress buffers with tail drop** — congestion loss, which
//!   Pony Express's reliability layer must recover from ("one-sided
//!   operations fall back to relying on congestion control", §3.3);
//! * **Multi-rack routing**: hosts hang off leaf (top-of-rack)
//!   switches; cross-rack packets cross leaf → spine → leaf, each next
//!   hop answered by [`snap_topo::Topology::next_hop`] (deterministic
//!   seeded ECMP — pure hashing, so routing never consumes an RNG
//!   draw);
//! * **Injectable random loss** for failure-injection tests, plus
//!   topology-aware faults: trunk (leaf↔spine link) failures and leaf
//!   brownouts;
//! * **QoS classes**: the transport class may use the full egress
//!   buffer, best-effort only a fraction; per-priority weighted dequeue
//!   is available via [`snap_topo::QosSchedule::Wrr`].
//!
//! There is one datapath. Packets travel as *trains*: a `Vec<Packet>`
//! that shares one simulator event per hop. [`FabricHandle::transmit`]
//! sends a train of one. A train leaves its host in `send_train`, then
//! every switch on the path runs the same `hop`: wait out the link's
//! propagation, `route` each packet to an egress `Port` (the source
//! leaf also runs the ingress fault pipeline), `admit` it to that
//! port's buffer and serializer, and schedule one departure per port.
//! A departure either hops again (trunk port) or ends in
//! `deliver_train` (host port).
//!
//! The fabric owns every [`VirtNic`]; all state advances on the
//! single-threaded [`Sim`] event loop via a cloneable [`FabricHandle`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use snap_sim::costs;
use snap_sim::hash::{IntMap, IntSet};
use snap_sim::time::transmit_time;
use snap_sim::trace::{Stage, TraceRecorder};
use snap_sim::{Nanos, Rng, Sim};
use snap_topo::{Node, PortLanes, Topology};
// Re-exported so fabric consumers (telemetry, testbeds) can name
// switches and topologies without a direct snap-topo dependency.
pub use snap_topo::{ClosSpec, SwitchId};

use crate::nic::{NicConfig, VirtNic};
use crate::packet::{HostId, Packet, QosClass};

/// Priority lane index of a QoS class (order of [`QosClass::ALL`]).
fn prio(qos: QosClass) -> usize {
    match qos {
        QosClass::Transport => 0,
        QosClass::BestEffort => 1,
    }
}

/// Fabric-wide configuration.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Propagation delay per link hop (host↔switch).
    pub prop_delay: Nanos,
    /// Switch forwarding latency.
    pub switch_latency: Nanos,
    /// Egress buffer per switch port, in bytes.
    pub switch_buffer_bytes: u64,
    /// Fraction of the egress buffer available to best-effort traffic.
    pub best_effort_buffer_fraction: f64,
    /// Independent per-packet random loss probability.
    pub loss_prob: f64,
    /// Independent per-packet payload-corruption probability. Corrupted
    /// packets keep their original CRC, so the receiving NIC's
    /// end-to-end check rejects them (§3.4's CRC offload story).
    pub corrupt_prob: f64,
    /// NIC DMA latency per direction.
    pub nic_dma: Nanos,
    /// Seed for the loss-injection RNG.
    pub seed: u64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            prop_delay: Nanos(costs::LINK_PROP_NS),
            switch_latency: Nanos(costs::SWITCH_LATENCY_NS),
            switch_buffer_bytes: 4 * 1024 * 1024,
            best_effort_buffer_fraction: 0.8,
            loss_prob: 0.0,
            corrupt_prob: 0.0,
            nic_dma: Nanos(costs::NIC_DMA_NS),
            seed: 0xF0CA_CC1A,
        }
    }
}

/// Fabric counters.
#[derive(Debug, Clone, Default)]
pub struct FabricStats {
    /// Packets delivered to a destination NIC.
    pub delivered: u64,
    /// Packets dropped at a full switch egress buffer.
    pub switch_drops: u64,
    /// Packets dropped by random loss injection.
    pub random_drops: u64,
    /// Packets dropped at the switch because their src/dst pair was
    /// partitioned.
    pub partition_drops: u64,
    /// Packets whose payload was corrupted in flight (they continue to
    /// the destination, where the CRC check rejects them).
    pub corrupted: u64,
    /// Packets silently dropped by a per-link gray loss fault.
    pub lossy_drops: u64,
    /// PFC pause storms injected against egress ports.
    pub pauses: u64,
    /// Packets rerouted around a quarantined link via an alternate path.
    pub rerouted: u64,
    /// Best-effort packets shed on a quarantined link (degraded mode
    /// sheds the best-effort class first, §2.5).
    pub quarantine_sheds: u64,
    /// Packets dropped by a browned-out leaf switch (topology fault).
    pub brownout_drops: u64,
    /// Cross-rack packets dropped because no spine with live trunks to
    /// both leaves remained (topology fault).
    pub trunk_down_drops: u64,
}

/// Why packets destined to one host were lost — the per-host drop
/// breakdown surfaced through [`FabricHandle::drop_reasons`]. Combines
/// switch-side fault-injection counters with the destination NIC's own
/// receive-path drop counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropReasons {
    /// Packets the NIC rejected because the end-to-end CRC failed.
    pub crc_bad: u64,
    /// Packets dropped at the switch by an active fabric partition.
    pub partition: u64,
    /// Packets whose payload the fabric corrupted in flight.
    pub corruption: u64,
    /// Packets dropped because the target rx ring was full.
    pub no_buffer: u64,
    /// Packets silently dropped by a gray lossy-link fault. No CRC
    /// evidence reaches the receiver — only probing or retransmit
    /// telemetry surfaces these.
    pub lossy: u64,
    /// Best-effort packets shed because their link was quarantined.
    pub quarantined: u64,
    /// Packets dropped by a browned-out leaf switch on the path.
    pub brownout: u64,
    /// Cross-rack packets dropped for want of a live trunk path.
    pub trunk_down: u64,
}

impl DropReasons {
    /// Total drops across all reasons.
    pub fn total(&self) -> u64 {
        self.crc_bad
            + self.partition
            + self.corruption
            + self.no_buffer
            + self.lossy
            + self.quarantined
            + self.brownout
            + self.trunk_down
    }
}

/// Per-directed-link (`src -> dst`) traffic and drop counters, surfaced
/// through [`FabricHandle::link_stats`]. Directed so telemetry can tell
/// which side of an asymmetric partition is black-holing traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Wire bytes delivered `src -> dst` (for utilization gauges).
    pub bytes: u64,
    /// Packets delivered `src -> dst`.
    pub delivered: u64,
    /// Packets `src -> dst` dropped by a partition (symmetric or
    /// one-way) at the switch.
    pub partition_drops: u64,
    /// Packets `src -> dst` corrupted in flight (they still burn
    /// bandwidth; the destination NIC CRC-rejects them).
    pub corrupted: u64,
    /// Packets `src -> dst` silently dropped by a gray lossy-link
    /// fault (no CRC evidence at the receiver).
    pub lossy_drops: u64,
    /// Packets `src -> dst` delayed by an injected jitter fault.
    pub jittered: u64,
    /// Total extra delay (ns) the jitter fault added on this link —
    /// `jitter_ns / jittered` is the mean injected delay.
    pub jitter_ns: u64,
    /// Packets rerouted around this link while it was quarantined.
    pub rerouted: u64,
    /// Best-effort packets shed on this link while quarantined.
    pub quarantine_sheds: u64,
}

/// Per-directed-trunk (`leaf -> spine` or `spine -> leaf`) traffic and
/// drop counters, surfaced through [`FabricHandle::trunks`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrunkStats {
    /// Wire bytes forwarded over the trunk (for utilization gauges).
    pub bytes: u64,
    /// Packets forwarded over the trunk.
    pub forwarded: u64,
    /// Packets tail-dropped at the trunk's egress buffer.
    pub drops: u64,
}

/// Verdict of the source-leaf fault pipeline for one packet.
struct IngressPass {
    /// The packet is taking an alternate path around a quarantined
    /// link (cross-rack: a different ECMP spine; in-rack: a relay via
    /// a third host port pair).
    rerouted: bool,
    /// Extra delay accumulated at ingress (gray jitter, reroute hops)
    /// — applied at the first serialization point.
    extra: Nanos,
}

/// An egress port of the switching tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Port {
    /// The leaf port facing host `h`.
    Host(HostId),
    /// The port of switch `from` on its trunk to switch `to`.
    Trunk(SwitchId, SwitchId),
}

/// Everything the fabric keeps per host, indexed by [`HostId`] (ids
/// are handed out densely from zero).
struct Host {
    nic: VirtNic,
    /// When the host's uplink finishes serializing what it was given.
    uplink_busy: Nanos,
    /// The leaf's egress port facing this host.
    egress: PortLanes,
    /// PFC pause storm: the leaf may not serialize toward this host
    /// before this time.
    paused_until: Nanos,
    /// Fault-injection drops of packets destined to this host. The
    /// receive-path reasons (`crc_bad`, `no_buffer`) stay zero here:
    /// the NIC counts those.
    fault_drops: DropReasons,
}

/// The packets of a train leaving a switch by one port, and when the
/// last of them has finished serializing.
type Group = (Port, Nanos, Vec<Packet>);

/// One directed trunk: the owning switch's egress port plus counters.
#[derive(Default)]
struct Trunk {
    lanes: PortLanes,
    stats: TrunkStats,
}

/// The fabric: NICs, uplinks, and the switching tier (one leaf per
/// rack, optionally joined by spines).
pub struct Fabric {
    cfg: FabricConfig,
    topo: Topology,
    hosts: Vec<Host>,
    /// Directed trunks that have seen a packet, keyed (from, to).
    trunks: IntMap<(SwitchId, SwitchId), Trunk>,
    /// Failed trunks, keyed (leaf/rack, spine); both directions die.
    down_trunks: IntSet<(u32, u32)>,
    /// Browned-out switches: switch -> (drop prob, extra latency).
    brownouts: IntMap<SwitchId, (f64, Nanos)>,
    /// Egress-buffer drops broken down by switch and priority class —
    /// the per-hop attribution of `FabricStats::switch_drops`.
    switch_drops_by: BTreeMap<(SwitchId, QosClass), u64>,
    /// Partitioned host pairs, stored normalized (min, max).
    partitions: IntSet<(HostId, HostId)>,
    /// One-way partitions, stored directed (from, to): only packets
    /// `from -> to` are dropped.
    oneway_partitions: IntSet<(HostId, HostId)>,
    /// Per-directed-link traffic/drop counters, keyed (src, dst).
    links: IntMap<(HostId, HostId), LinkStats>,
    /// Stalled tx queues: (host, queue) -> virtual time the stall lifts.
    queue_stalls: IntMap<(HostId, u16), Nanos>,
    /// Gray lossy links: (src, dst) -> silent per-packet drop prob.
    lossy_links: IntMap<(HostId, HostId), f64>,
    /// Gray jittery links: (src, dst) -> (median extra delay, sigma).
    jitter_links: IntMap<(HostId, HostId), (Nanos, f64)>,
    /// Quarantined directed links (health-detector verdicts): traffic
    /// reroutes via an alternate path when one exists, and best-effort
    /// traffic is shed.
    quarantined_links: IntSet<(HostId, HostId)>,
    rng: Rng,
    /// Dedicated RNG stream for gray-fault draws (per-link loss,
    /// jitter, brownout). Separate from `rng` so attaching a gray fault
    /// to one link never perturbs the draw order — and thus the modeled
    /// outcome — of unrelated traffic, and a healthy run with the gray
    /// machinery present is bit-identical to one without it.
    gray_rng: Rng,
    stats: FabricStats,
    /// Trace recorder for causal op tracing. Observation-only: stamps
    /// stage records against packets that carry a trace context but
    /// never changes timing, RNG draws, or drop decisions.
    recorder: Option<TraceRecorder>,
    /// Scratch for the rx queues a delivered train must interrupt,
    /// kept so a delivery allocates nothing.
    irq_scratch: Vec<u16>,
    /// Emptied train buffers. A train's `Vec` travels with it from
    /// transmit to delivery inside the scheduled events; delivery
    /// hands it back here and the next train (or the next group a
    /// train splits into) takes it, so in steady state a train
    /// allocates no buffer. Holds at most as many as were ever in the
    /// fabric at once.
    spare_trains: Vec<Vec<Packet>>,
}

fn norm_pair(a: HostId, b: HostId) -> (HostId, HostId) {
    (a.min(b), a.max(b))
}

impl Fabric {
    fn new(cfg: FabricConfig, topo: Topology) -> Self {
        let rng = Rng::new(cfg.seed);
        let gray_rng = Rng::new(cfg.seed).stream(0x6a77_e25d);
        Fabric {
            cfg,
            topo,
            hosts: Vec::new(),
            trunks: IntMap::default(),
            down_trunks: IntSet::default(),
            brownouts: IntMap::default(),
            switch_drops_by: BTreeMap::new(),
            partitions: IntSet::default(),
            oneway_partitions: IntSet::default(),
            links: IntMap::default(),
            queue_stalls: IntMap::default(),
            lossy_links: IntMap::default(),
            jitter_links: IntMap::default(),
            quarantined_links: IntSet::default(),
            rng,
            gray_rng,
            stats: FabricStats::default(),
            recorder: None,
            irq_scratch: Vec::new(),
            spare_trains: Vec::new(),
        }
    }

    /// An empty train buffer: a recycled one if any is spare.
    fn empty_train(&mut self) -> Vec<Packet> {
        self.spare_trains.pop().unwrap_or_default()
    }

    fn add_host(&mut self, nic_cfg: NicConfig) -> HostId {
        let id = self.hosts.len() as u64;
        assert!(
            id < self.topo.capacity(),
            "host {id} exceeds topology capacity {}",
            self.topo.capacity()
        );
        self.hosts.push(Host {
            nic: VirtNic::new(nic_cfg),
            uplink_busy: Nanos::ZERO,
            egress: PortLanes::default(),
            paused_until: Nanos::ZERO,
            fault_drops: DropReasons::default(),
        });
        id as HostId
    }

    fn host(&self, id: HostId) -> Option<&Host> {
        self.hosts.get(id as usize)
    }

    fn host_mut(&mut self, id: HostId) -> Option<&mut Host> {
        self.hosts.get_mut(id as usize)
    }

    /// Hosts added to `rack` so far (ids are handed out rack-major) —
    /// the in-rack alternate-path census used by quarantine rerouting.
    fn hosts_in_rack(&self, rack: u32) -> u64 {
        let per_rack = u64::from(self.topo.spec().hosts_per_rack);
        (self.hosts.len() as u64)
            .saturating_sub(u64::from(rack) * per_rack)
            .min(per_rack)
    }

    /// Attributes a fault-injection drop to the host the packet was
    /// for. A destination that is no host has nowhere to count it; the
    /// fabric-wide [`FabricStats`] still do.
    fn count_fault(&mut self, dst: HostId, count: impl FnOnce(&mut DropReasons)) {
        if let Some(host) = self.host_mut(dst) {
            count(&mut host.fault_drops);
        }
    }

    /// The fault pipeline every packet runs once, at its *source leaf*:
    /// random loss, partition, quarantine shed/reroute, gray loss,
    /// in-flight corruption, gray jitter. Returns `None` when the
    /// packet is dropped, otherwise the reroute verdict plus any extra
    /// delay to fold into the first serialization point. `leaf` is the
    /// source leaf's trace host.
    fn ingress_admit(
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
        // Partition: the switch forwards nothing between a symmetric
        // partitioned pair, and nothing in the dead direction of a
        // one-way partition. Drops are counted per directed link so
        // telemetry can tell which direction is black-holing.
        if self.partitions.contains(&norm_pair(pkt.src, pkt.dst))
            || self.oneway_partitions.contains(&link)
        {
            self.stats.partition_drops += 1;
            self.count_fault(pkt.dst, |d| d.partition += 1);
            self.links.entry(link).or_default().partition_drops += 1;
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
        let quarantined = self.quarantined_links.contains(&link);
        if quarantined && pkt.qos == QosClass::BestEffort {
            self.stats.quarantine_sheds += 1;
            self.count_fault(pkt.dst, |d| d.quarantined += 1);
            self.links.entry(link).or_default().quarantine_sheds += 1;
            self.stamp(pkt, Stage::WireDrop, leaf, now);
            return None;
        }
        let rerouted = quarantined
            && if same_rack {
                self.hosts_in_rack(self.topo.rack_of(pkt.src)) > 2
            } else {
                self.topo.spines() > 1
            };
        if rerouted {
            self.stats.rerouted += 1;
            self.links.entry(link).or_default().rerouted += 1;
        }
        // Gray loss: the link silently eats the packet — no CRC
        // evidence ever reaches the receiver, unlike corruption below.
        // Drawn from the dedicated gray RNG stream so healthy links'
        // draw order is untouched.
        if !rerouted {
            if let Some(&prob) = self.lossy_links.get(&link) {
                if self.gray_rng.chance(prob) {
                    self.stats.lossy_drops += 1;
                    self.count_fault(pkt.dst, |d| d.lossy += 1);
                    self.links.entry(link).or_default().lossy_drops += 1;
                    self.stamp(pkt, Stage::WireDrop, leaf, now);
                    return None;
                }
            }
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
            self.links.entry(link).or_default().corrupted += 1;
            self.stamp(pkt, Stage::WireCorrupt, leaf, now);
        }
        // Gray jitter: a misbehaving port delays rather than drops.
        // The extra delay is log-normal (median/sigma from the fault),
        // drawn from the gray stream, and attributed per link.
        let mut extra = Nanos::ZERO;
        if !rerouted {
            if let Some(&(median, sigma)) = self.jitter_links.get(&link) {
                if !median.is_zero() {
                    let d = snap_sim::dist::log_normal(
                        &mut self.gray_rng,
                        median.as_nanos() as f64,
                        sigma,
                    ) as u64;
                    extra += Nanos(d);
                    let link = self.links.entry(link).or_default();
                    link.jittered += 1;
                    link.jitter_ns += d;
                }
            }
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

    /// Decides which egress port of switch `at` the packet leaves by,
    /// or `None` when it dies here: a browned-out switch drops a
    /// fraction of everything transiting it and delays the rest, the
    /// packet's source leaf runs the ingress fault pipeline, and the
    /// topology names the next hop among the live trunks. Returns the
    /// port plus the extra delay to fold into its serialization.
    fn route(&mut self, at: SwitchId, now: Nanos, pkt: &mut Packet) -> Option<(Port, Nanos)> {
        let here = self.topo.trace_host(at);
        self.stamp(pkt, Stage::SwitchArrive, here, now);
        // Brownout draws come from the gray stream so a healthy
        // fabric's draw order is untouched.
        let mut extra = Nanos::ZERO;
        if let Some(&(drop_prob, slow)) = self.brownouts.get(&at) {
            if self.gray_rng.chance(drop_prob) {
                self.stats.brownout_drops += 1;
                self.count_fault(pkt.dst, |d| d.brownout += 1);
                self.stamp(pkt, Stage::WireDrop, here, now);
                return None;
            }
            extra += slow;
        }
        // A reroute verdict re-hashes ECMP with a salt to land on a
        // different equal-cost spine.
        let mut salt = 0;
        if at == self.topo.leaf_of(pkt.src) {
            let pass = self.ingress_admit(here, now, pkt)?;
            extra += pass.extra;
            salt = u64::from(pass.rerouted);
        }
        let down = &self.down_trunks;
        let next = self
            .topo
            .next_hop(at, pkt.src, pkt.dst, pkt.rss_hash, salt, |l, s| down.contains(&(l, s)));
        match next {
            Some(Node::Host(h)) => Some((Port::Host(h), extra)),
            Some(Node::Switch(to)) => Some((Port::Trunk(at, to), extra)),
            None => {
                // No live trunk leads on from here.
                self.stats.trunk_down_drops += 1;
                self.count_fault(pkt.dst, |d| d.trunk_down += 1);
                self.stamp(pkt, Stage::WireDrop, here, now);
                None
            }
        }
    }

    /// Buffer admission + serialization at egress `port` of switch
    /// `at`. Returns the departure time, or `None` on a tail drop (or
    /// at a host port with no host behind it — a black hole). Drops
    /// count into [`FabricStats::switch_drops`], attributed to `at`.
    fn admit(
        &mut self,
        at: SwitchId,
        port: Port,
        now: Nanos,
        pkt: &Packet,
        extra: Nanos,
    ) -> Option<Nanos> {
        let spec = self.topo.spec();
        let (schedule, trunk_gbps, trunk_buffer) =
            (spec.schedule, spec.trunk_gbps, spec.trunk_buffer_bytes);
        let (host_buffer, best_effort, switch_latency) = (
            self.cfg.switch_buffer_bytes,
            self.cfg.best_effort_buffer_fraction,
            self.cfg.switch_latency,
        );
        let wire = u64::from(pkt.wire_size);
        let fits = |lanes: &PortLanes, buffer: u64| {
            let limit = match pkt.qos {
                QosClass::Transport => buffer,
                QosClass::BestEffort => (buffer as f64 * best_effort) as u64,
            };
            lanes.queued_bytes + wire <= limit
        };
        let serialize = |lanes: &mut PortLanes, gbps: f64, not_before: Nanos| {
            lanes.queued_bytes += wire;
            let earliest = (now + switch_latency).max(not_before);
            let ser = transmit_time(wire, gbps) + extra;
            schedule.depart(lanes, prio(pkt.qos), earliest, ser)
        };
        let departure = match port {
            // A PFC pause storm against the destination holds egress
            // serialization until the storm passes; admitted packets
            // keep occupying the buffer meanwhile, so sustained load
            // during a storm spills into buffer-full drops — the §5.4
            // pathology.
            Port::Host(h) => match self.host_mut(h) {
                Some(host) if fits(&host.egress, host_buffer) => {
                    let gbps = host.nic.config().gbps;
                    Some(serialize(&mut host.egress, gbps, host.paused_until))
                }
                _ => None,
            },
            Port::Trunk(from, to) => {
                let trunk = self.trunks.entry((from, to)).or_default();
                if fits(&trunk.lanes, trunk_buffer) {
                    trunk.stats.bytes += wire;
                    trunk.stats.forwarded += 1;
                    Some(serialize(&mut trunk.lanes, trunk_gbps, Nanos::ZERO))
                } else {
                    trunk.stats.drops += 1;
                    None
                }
            }
        };
        let here = self.topo.trace_host(at);
        match departure {
            Some(dep) => self.stamp(pkt, Stage::SwitchDepart, here, dep),
            None => {
                self.stats.switch_drops += 1;
                *self.switch_drops_by.entry((at, pkt.qos)).or_insert(0) += 1;
                self.stamp(pkt, Stage::WireDrop, here, now);
            }
        }
        departure
    }

    /// Routes and admits every packet of a train standing at switch
    /// `at`, in order, and splits the survivors by egress port: each
    /// group leaves when its last packet finishes serializing. Returns
    /// the first survivor's group, which keeps the train's buffer (a
    /// train with one destination allocates nothing), then the other
    /// groups in first-packet order.
    fn forward(
        &mut self,
        at: SwitchId,
        now: Nanos,
        mut train: Vec<Packet>,
    ) -> (Option<Group>, Vec<Group>) {
        let mut lead: Option<(Port, Nanos)> = None;
        let mut rest: Vec<Group> = Vec::new();
        train.retain_mut(|pkt| {
            let Some((port, extra)) = self.route(at, now, pkt) else {
                return false;
            };
            let Some(dep) = self.admit(at, port, now, pkt, extra) else {
                return false;
            };
            match &mut lead {
                None => lead = Some((port, dep)),
                Some((p, last)) if *p == port => *last = (*last).max(dep),
                Some(_) => {
                    match rest.iter_mut().find(|(p, ..)| *p == port) {
                        Some((_, last, group)) => {
                            *last = (*last).max(dep);
                            group.push(pkt.clone());
                        }
                        None => {
                            let mut group = self.empty_train();
                            group.push(pkt.clone());
                            rest.push((port, dep, group));
                        }
                    }
                    return false;
                }
            }
            true
        });
        (lead.map(|(port, dep)| (port, dep, train)), rest)
    }

    /// The serializer state of a port that has admitted a packet.
    fn lanes(&mut self, port: Port) -> &mut PortLanes {
        match port {
            Port::Host(h) => &mut self.hosts[h as usize].egress,
            Port::Trunk(from, to) => {
                let trunk = self.trunks.get_mut(&(from, to));
                &mut trunk.expect("admitting created the trunk").lanes
            }
        }
    }

    /// Stamps one stage record against the packet's trace context, if
    /// both the context and a recorder are present. Pure observation.
    fn stamp(&self, pkt: &Packet, stage: Stage, host: HostId, at: Nanos) {
        if let (Some(ctx), Some(rec)) = (pkt.trace, self.recorder.as_ref()) {
            rec.record(ctx, stage, host, at);
        }
    }
}

/// Cloneable handle to a shared [`Fabric`]; the public API.
#[derive(Clone)]
pub struct FabricHandle {
    inner: Rc<RefCell<Fabric>>,
}

/// Error returned by [`FabricHandle::transmit`] when the source NIC has
/// no free tx descriptor slot; the packet is handed back so the caller
/// can regenerate it later (just-in-time transmission, §3.1).
#[derive(Debug)]
pub struct TxBusy(pub Packet);

impl FabricHandle {
    /// Creates an empty single-switch fabric: the
    /// [`ClosSpec::single_rack`] topology.
    pub fn new(cfg: FabricConfig) -> Self {
        FabricHandle::with_topology(cfg, ClosSpec::single_rack())
    }

    /// Creates an empty fabric over the given Clos topology.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation ([`ClosSpec::compile`]).
    pub fn with_topology(cfg: FabricConfig, spec: ClosSpec) -> Self {
        let topo = spec.compile().expect("invalid topology spec");
        FabricHandle {
            inner: Rc::new(RefCell::new(Fabric::new(cfg, topo))),
        }
    }

    /// The compiled topology this fabric routes through.
    pub fn topology(&self) -> Topology {
        self.inner.borrow().topo.clone()
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

    /// True if the leaf↔spine trunk is currently failed.
    pub fn is_trunk_down(&self, leaf: u32, spine: u32) -> bool {
        self.inner.borrow().down_trunks.contains(&(leaf, spine))
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

    /// Traffic/drop counters for the directed trunk `from -> to`.
    /// Zeroed stats for a trunk that never carried or dropped a packet.
    pub fn trunk_stats(&self, from: SwitchId, to: SwitchId) -> TrunkStats {
        self.inner
            .borrow()
            .trunks
            .get(&(from, to))
            .map(|t| t.stats)
            .unwrap_or_default()
    }

    /// Every directed trunk with any activity, sorted for deterministic
    /// iteration, with its counters.
    pub fn trunks(&self) -> Vec<((SwitchId, SwitchId), TrunkStats)> {
        let fabric = self.inner.borrow();
        let mut out: Vec<_> = fabric.trunks.iter().map(|(&k, t)| (k, t.stats)).collect();
        out.sort_by_key(|&(k, _)| k);
        out
    }

    /// Egress-buffer drops broken down by switch and priority class —
    /// the per-hop attribution of [`FabricStats::switch_drops`]
    /// (entries sum to it). Sorted: leaves first, then spines.
    pub fn switch_drop_breakdown(&self) -> Vec<((SwitchId, QosClass), u64)> {
        self.inner
            .borrow()
            .switch_drops_by
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    /// Adds a host with the given NIC configuration; returns its id.
    pub fn add_host(&self, nic_cfg: NicConfig) -> HostId {
        self.inner.borrow_mut().add_host(nic_cfg)
    }

    /// Number of hosts on the fabric.
    pub fn num_hosts(&self) -> usize {
        self.inner.borrow().hosts.len()
    }

    /// Fabric counters snapshot.
    pub fn stats(&self) -> FabricStats {
        self.inner.borrow().stats.clone()
    }

    /// Installs the trace recorder the fabric stamps stage records
    /// into: NIC tx uplink clear, switch arrival/departure, in-flight
    /// drops and corruption, and final NIC delivery. Stamping is pure
    /// observation — modeled time is identical with or without it.
    pub fn set_recorder(&self, recorder: TraceRecorder) {
        self.inner.borrow_mut().recorder = Some(recorder);
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
        self.inner.borrow_mut().partitions.insert(norm_pair(a, b));
    }

    /// Heals a partition between `a` and `b`. Idempotent; harmless if
    /// the pair was never partitioned.
    pub fn heal(&self, a: HostId, b: HostId) {
        self.inner.borrow_mut().partitions.remove(&norm_pair(a, b));
    }

    /// Returns true if `a` and `b` are currently partitioned.
    pub fn is_partitioned(&self, a: HostId, b: HostId) -> bool {
        self.inner.borrow().partitions.contains(&norm_pair(a, b))
    }

    /// Asymmetric partition: drops only packets `from -> to` at the
    /// switch; the reverse direction keeps flowing (a gray failure —
    /// acks arrive, data does not). Idempotent; independent of any
    /// symmetric partition on the same pair.
    pub fn partition_oneway(&self, from: HostId, to: HostId) {
        self.inner.borrow_mut().oneway_partitions.insert((from, to));
    }

    /// Heals a one-way partition `from -> to`. Idempotent.
    pub fn heal_oneway(&self, from: HostId, to: HostId) {
        self.inner.borrow_mut().oneway_partitions.remove(&(from, to));
    }

    /// Returns true if packets `from -> to` are currently dropped by a
    /// one-way partition (does not consider symmetric partitions).
    pub fn is_partitioned_oneway(&self, from: HostId, to: HostId) -> bool {
        self.inner.borrow().oneway_partitions.contains(&(from, to))
    }

    /// Sets (or, with `prob == 0`, heals) a *gray* loss fault on the
    /// directed link `from -> to`: packets are silently dropped with
    /// probability `prob`, with no CRC evidence at the receiver.
    pub fn set_link_loss(&self, from: HostId, to: HostId, prob: f64) {
        let mut fabric = self.inner.borrow_mut();
        if prob > 0.0 {
            fabric.lossy_links.insert((from, to), prob.clamp(0.0, 1.0));
        } else {
            fabric.lossy_links.remove(&(from, to));
        }
    }

    /// Sets (or, with a zero `median`, heals) a jitter fault on the
    /// directed link `from -> to`: each packet picks up a log-normal
    /// extra delay with the given median and sigma.
    pub fn set_link_jitter(&self, from: HostId, to: HostId, median: Nanos, sigma: f64) {
        let mut fabric = self.inner.borrow_mut();
        if median.is_zero() {
            fabric.jitter_links.remove(&(from, to));
        } else {
            fabric.jitter_links.insert((from, to), (median, sigma.max(0.0)));
        }
    }

    /// Injects a PFC pause storm against `host`: the switch stops
    /// serializing toward it until absolute time `until` (§5.4's
    /// pause-frame pathology). Storms extend, never shorten, an
    /// existing pause.
    pub fn pause_host(&self, host: HostId, until: Nanos) {
        let mut fabric = self.inner.borrow_mut();
        if let Some(host) = fabric.host_mut(host) {
            host.paused_until = host.paused_until.max(until);
        }
        fabric.stats.pauses += 1;
    }

    /// Quarantines the directed link `from -> to` (a health-detector
    /// verdict): transport traffic reroutes via an alternate path when
    /// one exists (any third host), paying one extra switch hop but
    /// dodging the link's gray faults; best-effort traffic is shed.
    /// Idempotent.
    pub fn quarantine_link(&self, from: HostId, to: HostId) {
        self.inner.borrow_mut().quarantined_links.insert((from, to));
    }

    /// Lifts a quarantine on the directed link `from -> to`. Idempotent.
    pub fn clear_quarantine(&self, from: HostId, to: HostId) {
        self.inner.borrow_mut().quarantined_links.remove(&(from, to));
    }

    /// True if the directed link `from -> to` is quarantined.
    pub fn is_quarantined(&self, from: HostId, to: HostId) -> bool {
        self.inner.borrow().quarantined_links.contains(&(from, to))
    }

    /// Traffic/drop counters for the directed link `from -> to`.
    /// Zeroed stats for a link that never carried or dropped a packet.
    pub fn link_stats(&self, from: HostId, to: HostId) -> LinkStats {
        self.inner
            .borrow()
            .links
            .get(&(from, to))
            .copied()
            .unwrap_or_default()
    }

    /// Every directed link with any activity, sorted (src, dst) for
    /// deterministic iteration, with its counters.
    pub fn links(&self) -> Vec<((HostId, HostId), LinkStats)> {
        let fabric = self.inner.borrow();
        let mut out: Vec<_> = fabric.links.iter().map(|(&k, &v)| (k, v)).collect();
        out.sort_by_key(|&(k, _)| k);
        out
    }

    /// Line rate (Gbps) of a host's NIC, if the host exists — the
    /// denominator for link-utilization gauges.
    pub fn host_gbps(&self, host: HostId) -> Option<f64> {
        self.inner.borrow().host(host).map(|h| h.nic.config().gbps)
    }

    /// Stalls a host's tx queue until absolute time `until` (models a
    /// hung DMA channel): packets transmitted on it during the stall
    /// wait for the stall to lift before serialization starts.
    pub fn stall_queue_until(&self, host: HostId, queue: u16, until: Nanos) {
        let mut fabric = self.inner.borrow_mut();
        let entry = fabric.queue_stalls.entry((host, queue)).or_insert(Nanos::ZERO);
        *entry = (*entry).max(until);
    }

    /// The per-host drop breakdown: switch-side fault drops plus the
    /// destination NIC's own receive-path drop counters.
    pub fn drop_reasons(&self, host: HostId) -> DropReasons {
        let fabric = self.inner.borrow();
        let Some(host) = fabric.host(host) else {
            return DropReasons::default();
        };
        DropReasons {
            crc_bad: host.nic.stats().rx_crc_drops,
            no_buffer: host.nic.stats().rx_overflow_drops,
            ..host.fault_drops
        }
    }

    /// Runs `f` with mutable access to a host's NIC.
    ///
    /// # Panics
    ///
    /// Panics if the host does not exist, or if called re-entrantly
    /// from within another fabric borrow.
    pub fn with_nic<R>(&self, host: HostId, f: impl FnOnce(&mut VirtNic) -> R) -> R {
        let mut fabric = self.inner.borrow_mut();
        f(&mut fabric.host_mut(host).expect("unknown host").nic)
    }

    /// Transmits a packet from its `src` host on the given tx queue: a
    /// train of one.
    ///
    /// Fails with [`TxBusy`] when no tx descriptor slot is free. On
    /// success the packet is fully simulated: uplink serialization,
    /// switch queueing (or drop), egress serialization, delivery into
    /// the destination NIC's rx ring, and interrupt delivery if armed.
    ///
    /// # Panics
    ///
    /// Panics if the source host does not exist.
    pub fn transmit(&self, sim: &mut Sim, queue: u16, pkt: Packet) -> Result<(), TxBusy> {
        let took_slot = self.with_nic(pkt.src, |nic| nic.take_tx_slot(queue));
        if !took_slot {
            return Err(TxBusy(pkt));
        }
        let mut train = self.inner.borrow_mut().empty_train();
        train.push(pkt);
        self.send_train(sim, queue, train);
        Ok(())
    }

    /// Transmits a packet train from one host on one tx queue. ONE
    /// scheduled event covers the whole train at each hop (uplink
    /// completion, arrival at each switch, one egress departure per
    /// port the train splits over, and delivery), and the receiving
    /// NIC raises at most one interrupt per rx queue per train.
    /// Everything else is per packet, in train order: tx descriptor
    /// slots, uplink serialization occupancy, random loss, partitions,
    /// corruption and egress buffer admission.
    ///
    /// Packets are accepted until tx slots run out; the accepted count
    /// is returned and unaccepted packets stay in `pkts`
    /// (front-aligned), for the caller to regenerate later.
    ///
    /// The whole train becomes visible at the switch when its *last*
    /// packet finishes uplink serialization (and at the destination
    /// when its sub-train finishes egress serialization), so a packet's
    /// arrival can shift later by at most one train serialization time
    /// relative to sending it alone — bound the train with
    /// [`costs::FABRIC_BURST_MAX`].
    ///
    /// # Panics
    ///
    /// Panics if the packets do not all share the same source host, or
    /// if that host does not exist.
    pub fn transmit_burst(&self, sim: &mut Sim, queue: u16, pkts: &mut Vec<Packet>) -> usize {
        let Some(first) = pkts.first() else { return 0 };
        let src = first.src;
        let taken = self.with_nic(src, |nic| {
            pkts.iter()
                .take_while(|pkt| {
                    assert_eq!(pkt.src, src, "burst mixes source hosts");
                    nic.take_tx_slot(queue)
                })
                .count()
        });
        if taken > 0 {
            let mut train = self.inner.borrow_mut().empty_train();
            train.extend(pkts.drain(..taken));
            self.send_train(sim, queue, train);
        }
        taken
    }

    /// Puts a train, every packet of which holds a tx slot of `queue`,
    /// on its host's uplink. One event retires every tx descriptor and
    /// forwards the train when the last packet clears the uplink.
    fn send_train(&self, sim: &mut Sim, queue: u16, train: Vec<Packet>) {
        let src = train[0].src;
        let (depart, leaf, prop) = {
            let mut fabric = self.inner.borrow_mut();
            // Tx-side DMA: descriptor fetch + payload read from host
            // memory before bits hit the wire.
            let dma_ready = sim.now() + fabric.cfg.nic_dma;
            // A stalled queue holds its packets until the stall lifts,
            // but does not occupy the shared uplink while waiting —
            // other queues' traffic flows around the hung queue.
            let stall = fabric
                .queue_stalls
                .get(&(src, queue))
                .copied()
                .filter(|&until| until > sim.now())
                .unwrap_or(Nanos::ZERO);
            let host = &fabric.hosts[src as usize];
            let (gbps, mut busy) = (host.nic.config().gbps, host.uplink_busy);
            let mut depart = Nanos::ZERO;
            for pkt in &train {
                let ser = transmit_time(pkt.wire_size as u64, gbps);
                busy = busy.max(dma_ready) + ser;
                // Each packet clears the uplink at its own serialization
                // end, even though one event forwards the whole train.
                let cleared = busy.max(stall + ser);
                fabric.stamp(pkt, Stage::NicTx, src, cleared);
                depart = depart.max(cleared);
            }
            fabric.hosts[src as usize].uplink_busy = busy;
            (depart, fabric.topo.leaf_of(src), fabric.cfg.prop_delay)
        };
        let handle = self.clone();
        sim.schedule_at(depart, move |sim| {
            handle.with_nic(src, |nic| {
                for pkt in &train {
                    nic.complete_tx(queue, pkt.wire_size);
                }
            });
            handle.hop(sim, leaf, prop, train);
        });
    }

    /// One switch hop, the same at every tier: the train reaches switch
    /// `at` after the link's `propagation`; every packet is routed to
    /// an egress port and admitted to it (in order, packet by packet);
    /// and one departure event per port releases that port's buffer and
    /// sends its group on — over a trunk to the next switch's `hop`, or
    /// down a host port to [`Self::deliver_train`].
    fn hop(&self, sim: &mut Sim, at: SwitchId, propagation: Nanos, train: Vec<Packet>) {
        let handle = self.clone();
        sim.schedule_at(sim.now() + propagation, move |sim| {
            let (lead, rest) = handle.inner.borrow_mut().forward(at, sim.now(), train);
            for (port, departure, group) in lead.into_iter().chain(rest) {
                let handle = handle.clone();
                sim.schedule_at(departure, move |sim| {
                    let trunk_prop = {
                        let mut fabric = handle.inner.borrow_mut();
                        let bytes: u64 = group.iter().map(|pkt| u64::from(pkt.wire_size)).sum();
                        fabric.lanes(port).queued_bytes -= bytes;
                        fabric.topo.spec().trunk_prop
                    };
                    match port {
                        Port::Host(dst) => handle.deliver_train(sim, dst, group),
                        Port::Trunk(_, next) => handle.hop(sim, next, trunk_prop, group),
                    }
                });
            }
        });
    }

    /// Final hop for a train that left a leaf by `dst`'s port:
    /// propagation + rx DMA, then the whole train into the NIC's rx
    /// rings in one event, with at most one interrupt per armed rx
    /// queue.
    fn deliver_train(&self, sim: &mut Sim, dst: HostId, mut train: Vec<Packet>) {
        let (prop, dma) = {
            let fabric = self.inner.borrow();
            (fabric.cfg.prop_delay, fabric.cfg.nic_dma)
        };
        let handle = self.clone();
        sim.schedule_at(sim.now() + prop + dma, move |sim| {
            let (irqs, handler) = {
                let mut fabric = handle.inner.borrow_mut();
                let now = sim.now();
                for pkt in &train {
                    let link = fabric.links.entry((pkt.src, dst)).or_default();
                    link.bytes += pkt.wire_size as u64;
                    link.delivered += 1;
                    fabric.stamp(pkt, Stage::NicDeliver, dst, now);
                }
                // Counted per packet reaching the NIC; NIC-side drops
                // have their own counters.
                fabric.stats.delivered += train.len() as u64;
                let mut irqs = std::mem::take(&mut fabric.irq_scratch);
                let nic = &mut fabric.hosts[dst as usize].nic;
                nic.deliver_burst(train.drain(..), &mut irqs);
                let handler = nic.irq_handler();
                fabric.spare_trains.push(train);
                (irqs, handler)
            };
            // Invoke interrupts outside the fabric borrow so handlers
            // can freely poll the NIC.
            if let Some(handler) = handler {
                for &queue in &irqs {
                    handler(sim, queue);
                }
            }
            handle.inner.borrow_mut().irq_scratch = irqs;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::cell::Cell;

    fn two_hosts(loss: f64) -> (FabricHandle, HostId, HostId) {
        let fabric = FabricHandle::new(FabricConfig {
            loss_prob: loss,
            ..FabricConfig::default()
        });
        let a = fabric.add_host(NicConfig::default());
        let b = fabric.add_host(NicConfig::default());
        (fabric, a, b)
    }

    fn packet(src: HostId, dst: HostId, len: usize) -> Packet {
        Packet::new(src, dst, Bytes::from(vec![7u8; len]))
    }

    #[test]
    fn end_to_end_delivery() {
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.0);
        fabric.transmit(&mut sim, 0, packet(a, b, 1000)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().delivered, 1);
        assert_eq!(fabric.with_nic(b, |n| n.rx_pending_total()), 1);
        // Sanity on the latency: serialization (~167ns at 50G) + hops.
        let t = sim.now().as_nanos();
        assert!(t > 2_000 && t < 10_000, "delivery took {t}ns");
    }

    #[test]
    fn tx_slots_backpressure_and_recover() {
        let mut sim = Sim::new();
        let fabric = FabricHandle::new(FabricConfig::default());
        let a = fabric.add_host(NicConfig {
            tx_queue_depth: 2,
            ..NicConfig::default()
        });
        let b = fabric.add_host(NicConfig::default());
        fabric.transmit(&mut sim, 0, packet(a, b, 100)).unwrap();
        fabric.transmit(&mut sim, 0, packet(a, b, 100)).unwrap();
        let third = fabric.transmit(&mut sim, 0, packet(a, b, 100));
        assert!(third.is_err(), "slots exhausted");
        sim.run();
        // Slots returned after serialization.
        assert_eq!(fabric.with_nic(a, |n| n.tx_slots_available(0)), 2);
        let TxBusy(pkt) = third.unwrap_err();
        fabric.transmit(&mut sim, 0, pkt).unwrap();
        sim.run();
        assert_eq!(fabric.stats().delivered, 3);
    }

    #[test]
    fn random_loss_drops_packets() {
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(1.0);
        for _ in 0..10 {
            fabric.transmit(&mut sim, 0, packet(a, b, 100)).unwrap();
            sim.run();
        }
        assert_eq!(fabric.stats().random_drops, 10);
        assert_eq!(fabric.stats().delivered, 0);
    }

    #[test]
    fn partial_loss_statistics() {
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.3);
        for _ in 0..1000 {
            fabric.transmit(&mut sim, 0, packet(a, b, 100)).unwrap();
            sim.run();
        }
        let s = fabric.stats();
        assert_eq!(s.delivered + s.random_drops, 1000);
        assert!(
            (250..350).contains(&(s.random_drops as i64)),
            "drops {} not near 30%",
            s.random_drops
        );
    }

    #[test]
    fn switch_buffer_tail_drops_under_burst() {
        let mut sim = Sim::new();
        let fabric = FabricHandle::new(FabricConfig {
            switch_buffer_bytes: 10_000,
            ..FabricConfig::default()
        });
        let a = fabric.add_host(NicConfig {
            tx_queue_depth: 4096,
            gbps: 1000.0, // firehose ingress
            ..NicConfig::default()
        });
        let b = fabric.add_host(NicConfig {
            gbps: 1.0, // slow egress: builds the backlog
            ..NicConfig::default()
        });
        for _ in 0..200 {
            fabric.transmit(&mut sim, 0, packet(a, b, 1000)).unwrap();
        }
        sim.run();
        let s = fabric.stats();
        assert!(s.switch_drops > 0, "no drops despite tiny buffer");
        assert_eq!(s.delivered + s.switch_drops, 200);
    }

    #[test]
    fn interrupt_fires_on_armed_queue() {
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.0);
        let fired = Rc::new(Cell::new(0u32));
        let f2 = fired.clone();
        fabric.with_nic(b, |nic| {
            nic.set_irq_handler(Rc::new(move |_sim, _q| f2.set(f2.get() + 1)));
            nic.arm_irq(0, true);
        });
        let p = packet(a, b, 64).with_rss_hash(0);
        fabric.transmit(&mut sim, 0, p).unwrap();
        sim.run();
        assert_eq!(fired.get(), 1);
    }

    #[test]
    fn serialization_orders_same_link_packets() {
        // Two packets on the same uplink serialize back-to-back; the
        // second arrives strictly later.
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.0);
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let arr = arrivals.clone();
        fabric.with_nic(b, |nic| {
            nic.set_irq_handler(Rc::new(move |sim: &mut Sim, _q| {
                arr.borrow_mut().push(sim.now());
            }));
            nic.arm_irq(0, true);
        });
        let big = packet(a, b, 100_000); // ~16us at 50G
        let small = packet(a, b, 100).with_rss_hash(0);
        fabric.transmit(&mut sim, 0, big.with_rss_hash(0)).unwrap();
        fabric.transmit(&mut sim, 0, small).unwrap();
        sim.run();
        let arrivals = arrivals.borrow();
        assert_eq!(arrivals.len(), 2);
        let gap = (arrivals[1] - arrivals[0]).as_nanos();
        // The small packet waited behind the big one's serialization.
        assert!(gap < 1_000, "FIFO egress should deliver close together, gap {gap}ns");
        assert!(arrivals[0].as_nanos() > 16_000, "big packet serialization time");
    }

    #[test]
    fn partition_drops_until_healed() {
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.0);
        fabric.partition(a, b);
        assert!(fabric.is_partitioned(a, b));
        assert!(fabric.is_partitioned(b, a), "partitions are symmetric");
        fabric.transmit(&mut sim, 0, packet(a, b, 100)).unwrap();
        fabric.transmit(&mut sim, 0, packet(b, a, 100)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().partition_drops, 2);
        assert_eq!(fabric.stats().delivered, 0);
        assert_eq!(fabric.drop_reasons(a).partition, 1);
        assert_eq!(fabric.drop_reasons(b).partition, 1);
        fabric.heal(a, b);
        assert!(!fabric.is_partitioned(a, b));
        fabric.transmit(&mut sim, 0, packet(a, b, 100)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().delivered, 1);
    }

    #[test]
    fn oneway_partition_drops_only_one_direction() {
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.0);
        fabric.partition_oneway(a, b);
        assert!(fabric.is_partitioned_oneway(a, b));
        assert!(!fabric.is_partitioned_oneway(b, a), "one-way is directed");
        assert!(!fabric.is_partitioned(a, b), "not a symmetric partition");
        fabric.transmit(&mut sim, 0, packet(a, b, 100)).unwrap();
        fabric.transmit(&mut sim, 0, packet(b, a, 100)).unwrap();
        sim.run();
        // a -> b dead, b -> a alive.
        assert_eq!(fabric.stats().partition_drops, 1);
        assert_eq!(fabric.stats().delivered, 1);
        assert_eq!(fabric.with_nic(a, |n| n.rx_pending_total()), 1);
        assert_eq!(fabric.with_nic(b, |n| n.rx_pending_total()), 0);
        // The drop is attributed to the directed link a -> b only.
        assert_eq!(fabric.link_stats(a, b).partition_drops, 1);
        assert_eq!(fabric.link_stats(b, a).partition_drops, 0);
        assert_eq!(fabric.link_stats(b, a).delivered, 1);
        fabric.heal_oneway(a, b);
        fabric.transmit(&mut sim, 0, packet(a, b, 100)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().delivered, 2);
        assert_eq!(fabric.link_stats(a, b).delivered, 1);
    }

    #[test]
    fn link_stats_track_directed_traffic() {
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.0);
        for _ in 0..3 {
            fabric.transmit(&mut sim, 0, packet(a, b, 1000)).unwrap();
        }
        fabric.transmit(&mut sim, 0, packet(b, a, 500)).unwrap();
        sim.run();
        let ab = fabric.link_stats(a, b);
        let ba = fabric.link_stats(b, a);
        assert_eq!(ab.delivered, 3);
        assert_eq!(ba.delivered, 1);
        assert!(ab.bytes >= 3000, "wire bytes include headers: {}", ab.bytes);
        assert!(ba.bytes >= 500 && ba.bytes < ab.bytes);
        let links = fabric.links();
        assert_eq!(links.len(), 2);
        assert_eq!(links[0].0, (a, b), "links sorted by (src, dst)");
        assert!(fabric.host_gbps(a).is_some());
        assert!(fabric.host_gbps(999).is_none());
    }

    #[test]
    fn corruption_is_rejected_by_receive_crc() {
        let mut sim = Sim::new();
        let fabric = FabricHandle::new(FabricConfig {
            corrupt_prob: 1.0,
            ..FabricConfig::default()
        });
        let a = fabric.add_host(NicConfig::default());
        let b = fabric.add_host(NicConfig::default());
        for _ in 0..10 {
            fabric.transmit(&mut sim, 0, packet(a, b, 500)).unwrap();
        }
        sim.run();
        assert_eq!(fabric.stats().corrupted, 10);
        // Every corrupted packet reached the NIC and was CRC-rejected.
        assert_eq!(fabric.with_nic(b, |n| n.stats().rx_crc_drops), 10);
        assert_eq!(fabric.with_nic(b, |n| n.rx_pending_total()), 0);
        let reasons = fabric.drop_reasons(b);
        assert_eq!(reasons.crc_bad, 10);
        assert_eq!(reasons.corruption, 10);
        assert_eq!(reasons.total(), 20);
        // Turning corruption off restores clean delivery.
        fabric.set_corrupt_prob(0.0);
        fabric.transmit(&mut sim, 0, packet(a, b, 500)).unwrap();
        sim.run();
        assert_eq!(fabric.with_nic(b, |n| n.rx_pending_total()), 1);
    }

    #[test]
    fn stalled_queue_delays_transmission() {
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.0);
        let stall_until = Nanos::from_micros(500);
        fabric.stall_queue_until(a, 0, stall_until);
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let arr = arrivals.clone();
        fabric.with_nic(b, |nic| {
            nic.set_irq_handler(Rc::new(move |sim: &mut Sim, _q| {
                arr.borrow_mut().push(sim.now());
            }));
            nic.arm_irq(0, true);
            nic.arm_irq(1, true);
        });
        // Queue 0 is stalled; queue 1 is not.
        fabric.transmit(&mut sim, 0, packet(a, b, 100).with_rss_hash(0)).unwrap();
        fabric.transmit(&mut sim, 1, packet(a, b, 100).with_rss_hash(1)).unwrap();
        sim.run();
        let arrivals = arrivals.borrow();
        assert_eq!(arrivals.len(), 2);
        let (fast, slow) = (arrivals[0], arrivals[1]);
        assert!(fast < stall_until, "unstalled queue delivered promptly at {fast}");
        assert!(slow > stall_until, "stalled queue held until {stall_until}, got {slow}");
    }

    #[test]
    fn burst_delivers_with_one_irq() {
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.0);
        let fired = Rc::new(Cell::new(0u32));
        let f2 = fired.clone();
        fabric.with_nic(b, |nic| {
            nic.set_irq_handler(Rc::new(move |_sim, _q| f2.set(f2.get() + 1)));
            nic.arm_irq(0, true);
        });
        let mut train: Vec<Packet> =
            (0..8).map(|_| packet(a, b, 500).with_rss_hash(0)).collect();
        assert_eq!(fabric.transmit_burst(&mut sim, 0, &mut train), 8);
        assert!(train.is_empty());
        sim.run();
        assert_eq!(fabric.stats().delivered, 8);
        assert_eq!(fabric.with_nic(b, |n| n.rx_pending_total()), 8);
        assert_eq!(fired.get(), 1, "one interrupt for the whole train");
    }

    #[test]
    fn burst_respects_tx_slots_and_returns_leftovers() {
        let mut sim = Sim::new();
        let fabric = FabricHandle::new(FabricConfig::default());
        let a = fabric.add_host(NicConfig {
            tx_queue_depth: 4,
            ..NicConfig::default()
        });
        let b = fabric.add_host(NicConfig::default());
        let mut train: Vec<Packet> = (0..6).map(|_| packet(a, b, 100)).collect();
        assert_eq!(fabric.transmit_burst(&mut sim, 0, &mut train), 4);
        assert_eq!(train.len(), 2, "unaccepted packets handed back");
        sim.run();
        assert_eq!(fabric.stats().delivered, 4);
        assert_eq!(fabric.with_nic(a, |n| n.tx_slots_available(0)), 4);
    }

    #[test]
    fn burst_applies_faults_per_packet() {
        // Corruption at probability 1 must hit every packet of a train
        // individually, and each one must be CRC-rejected by the NIC.
        let mut sim = Sim::new();
        let fabric = FabricHandle::new(FabricConfig {
            corrupt_prob: 1.0,
            ..FabricConfig::default()
        });
        let a = fabric.add_host(NicConfig::default());
        let b = fabric.add_host(NicConfig::default());
        let mut train: Vec<Packet> = (0..10).map(|_| packet(a, b, 500)).collect();
        assert_eq!(fabric.transmit_burst(&mut sim, 0, &mut train), 10);
        sim.run();
        assert_eq!(fabric.stats().corrupted, 10);
        assert_eq!(fabric.with_nic(b, |n| n.stats().rx_crc_drops), 10);
        assert_eq!(fabric.with_nic(b, |n| n.rx_pending_total()), 0);
        // Partition mid-experiment: a fresh train is dropped per packet
        // at the switch, not as a unit that might bypass counters.
        fabric.set_corrupt_prob(0.0);
        fabric.partition(a, b);
        let mut train: Vec<Packet> = (0..5).map(|_| packet(a, b, 100)).collect();
        fabric.transmit_burst(&mut sim, 0, &mut train);
        sim.run();
        assert_eq!(fabric.stats().partition_drops, 5);
        assert_eq!(fabric.drop_reasons(b).partition, 5);
    }

    #[test]
    fn burst_splits_per_destination() {
        let mut sim = Sim::new();
        let fabric = FabricHandle::new(FabricConfig::default());
        let a = fabric.add_host(NicConfig::default());
        let b = fabric.add_host(NicConfig::default());
        let c = fabric.add_host(NicConfig::default());
        let mut train = vec![
            packet(a, b, 200),
            packet(a, c, 200),
            packet(a, b, 200),
            packet(a, c, 200),
        ];
        assert_eq!(fabric.transmit_burst(&mut sim, 0, &mut train), 4);
        sim.run();
        assert_eq!(fabric.with_nic(b, |n| n.rx_pending_total()), 2);
        assert_eq!(fabric.with_nic(c, |n| n.rx_pending_total()), 2);
        assert_eq!(fabric.stats().delivered, 4);

        // One train carrying in-rack, cross-rack and doomed packets
        // (one partitioned, one for a host beyond the topology).
        let mut sim = Sim::new();
        let (fabric, h) = two_racks(2);
        fabric.partition(h[0], h[3]);
        let irqs = Rc::new(RefCell::new(Vec::new()));
        for &host in &h {
            let irqs = irqs.clone();
            fabric.with_nic(host, |nic| {
                nic.set_irq_handler(Rc::new(move |_sim: &mut Sim, q| {
                    irqs.borrow_mut().push((host, q));
                }));
                nic.arm_irq(0, true);
                nic.arm_irq(1, true);
            });
        }
        // (destination, rx queue); the payload carries the position.
        let plan = [(h[1], 0), (h[2], 0), (h[3], 0), (h[1], 1), (h[2], 0), (99, 0), (h[1], 0)];
        let mut train: Vec<Packet> = plan
            .iter()
            .enumerate()
            .map(|(i, &(dst, q))| {
                Packet::new(h[0], dst, Bytes::from(vec![i as u8; 200])).with_rss_hash(q)
            })
            .collect();
        assert_eq!(fabric.transmit_burst(&mut sim, 0, &mut train), plan.len());
        sim.run();
        let polled = |host: HostId, queue: u16| {
            let mut out = Vec::new();
            fabric.with_nic(host, |n| n.poll_rx(queue, usize::MAX, &mut out));
            out.iter().map(|p| p.payload[0]).collect::<Vec<u8>>()
        };
        assert_eq!(polled(h[1], 0), vec![0, 6], "in-rack, in train order");
        assert_eq!(polled(h[1], 1), vec![3]);
        assert_eq!(polled(h[2], 0), vec![1, 4], "cross-rack, in train order");
        assert_eq!(polled(h[3], 0), Vec::<u8>::new());
        let mut irqs = irqs.borrow().clone();
        irqs.sort_unstable();
        assert_eq!(irqs, vec![(h[1], 0), (h[1], 1), (h[2], 0)], "one irq per rx queue");
        let s = fabric.stats();
        assert_eq!((s.delivered, s.partition_drops, s.switch_drops), (5, 1, 1));
        assert_eq!(
            fabric.with_nic(h[0], |n| n.stats().tx_packets),
            s.delivered + s.partition_drops + s.switch_drops
        );
    }

    /// Virtual time of the first interrupt `dst` takes on rx queue 0
    /// after `send` has put traffic on the fabric.
    fn first_irq_at(fabric: &FabricHandle, dst: HostId, send: impl FnOnce(&mut Sim)) -> Nanos {
        let mut sim = Sim::new();
        let at = Rc::new(Cell::new(Nanos::ZERO));
        let at2 = at.clone();
        fabric.with_nic(dst, |nic| {
            nic.set_irq_handler(Rc::new(move |sim: &mut Sim, _q| {
                if at2.get().is_zero() {
                    at2.set(sim.now());
                }
            }));
            nic.arm_irq(0, true);
        });
        send(&mut sim);
        sim.run();
        at.get()
    }

    #[test]
    fn in_rack_delivery_time_is_pinned() {
        // 1 042 wire bytes at 50 Gbps serialize in 167 ns: tx DMA 1 300
        // + uplink 167 + link 150 + switch 300 + egress 167 + link 150
        // + rx DMA 1 300. A packet sent alone and a train of one are
        // the same thing.
        for as_train in [false, true] {
            let (fabric, a, b) = two_hosts(0.0);
            let pkt = packet(a, b, 1000).with_rss_hash(0);
            let at = first_irq_at(&fabric, b, |sim| {
                if as_train {
                    assert_eq!(fabric.transmit_burst(sim, 0, &mut vec![pkt]), 1);
                } else {
                    fabric.transmit(sim, 0, pkt).unwrap();
                }
            });
            assert_eq!(at, Nanos(3_534), "as_train {as_train}");
        }
    }

    #[test]
    fn lossy_link_drops_silently_and_attributes() {
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.0);
        fabric.set_link_loss(a, b, 1.0);
        for _ in 0..10 {
            fabric.transmit(&mut sim, 0, packet(a, b, 500)).unwrap();
        }
        // The reverse direction is unaffected: gray loss is directed.
        fabric.transmit(&mut sim, 0, packet(b, a, 500)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().lossy_drops, 10);
        assert_eq!(fabric.stats().delivered, 1);
        assert_eq!(fabric.link_stats(a, b).lossy_drops, 10);
        assert_eq!(fabric.link_stats(b, a).lossy_drops, 0);
        // Silent: no CRC evidence at the receiver, unlike corruption.
        assert_eq!(fabric.with_nic(b, |n| n.stats().rx_crc_drops), 0);
        let dr = fabric.drop_reasons(b);
        assert_eq!(dr.lossy, 10);
        assert!(dr.total() >= 10);
        // Healing restores delivery.
        fabric.set_link_loss(a, b, 0.0);
        fabric.transmit(&mut sim, 0, packet(a, b, 500)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().delivered, 2);
    }

    #[test]
    fn jittery_link_delays_but_delivers() {
        let delivery_at = |jitter: Option<(Nanos, f64)>| {
            let mut sim = Sim::new();
            let (fabric, a, b) = two_hosts(0.0);
            if let Some((median, sigma)) = jitter {
                fabric.set_link_jitter(a, b, median, sigma);
            }
            let at = Rc::new(Cell::new(Nanos::ZERO));
            let at2 = at.clone();
            fabric.with_nic(b, |nic| {
                nic.set_irq_handler(Rc::new(move |sim: &mut Sim, _q| at2.set(sim.now())));
                nic.arm_irq(0, true);
            });
            fabric.transmit(&mut sim, 0, packet(a, b, 1000).with_rss_hash(0)).unwrap();
            sim.run();
            (at.get(), fabric.link_stats(a, b))
        };
        let (clean, clean_link) = delivery_at(None);
        let (jittered, link) = delivery_at(Some((Nanos::from_micros(50), 0.5)));
        assert!(clean > Nanos::ZERO && jittered > clean, "{clean} vs {jittered}");
        assert_eq!(link.jittered, 1);
        assert!(link.jitter_ns > 0);
        assert_eq!(link.delivered, 1, "jitter delays, never drops");
        assert_eq!(clean_link.jittered, 0);
    }

    #[test]
    fn healthy_runs_are_identical_with_gray_machinery_on_other_links() {
        // A gray fault on an unrelated link must not perturb this
        // link's modeled outcome: separate RNG stream, per-link draw.
        let run = |poison_other: bool| {
            let mut sim = Sim::new();
            let fabric = FabricHandle::new(FabricConfig {
                loss_prob: 0.2,
                ..FabricConfig::default()
            });
            let a = fabric.add_host(NicConfig::default());
            let b = fabric.add_host(NicConfig::default());
            let c = fabric.add_host(NicConfig::default());
            if poison_other {
                fabric.set_link_loss(a, c, 0.9);
                fabric.set_link_jitter(c, a, Nanos::from_micros(100), 1.0);
            }
            for _ in 0..200 {
                fabric.transmit(&mut sim, 0, packet(a, b, 400)).unwrap();
                sim.run();
            }
            (fabric.stats().delivered, fabric.stats().random_drops, sim.now())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn pause_storm_holds_egress_then_releases() {
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.0);
        let storm_end = Nanos::from_micros(300);
        fabric.pause_host(b, storm_end);
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let arr = arrivals.clone();
        fabric.with_nic(b, |nic| {
            nic.set_irq_handler(Rc::new(move |sim: &mut Sim, _q| {
                arr.borrow_mut().push(sim.now());
            }));
            nic.arm_irq(0, true);
        });
        fabric.transmit(&mut sim, 0, packet(a, b, 100).with_rss_hash(0)).unwrap();
        sim.run();
        // Held at the switch through the storm, delivered right after.
        let arrivals = arrivals.borrow();
        assert_eq!(arrivals.len(), 1);
        assert!(arrivals[0] > storm_end, "held past the storm: {}", arrivals[0]);
        assert!(
            arrivals[0] < storm_end + Nanos::from_micros(50),
            "released promptly: {}",
            arrivals[0]
        );
        assert_eq!(fabric.stats().pauses, 1);
    }

    #[test]
    fn pause_storm_under_load_spills_into_buffer_drops() {
        let mut sim = Sim::new();
        let fabric = FabricHandle::new(FabricConfig {
            switch_buffer_bytes: 20_000,
            ..FabricConfig::default()
        });
        let a = fabric.add_host(NicConfig {
            tx_queue_depth: 4096,
            ..NicConfig::default()
        });
        let b = fabric.add_host(NicConfig::default());
        fabric.pause_host(b, Nanos::from_millis(5));
        for _ in 0..100 {
            fabric.transmit(&mut sim, 0, packet(a, b, 1000)).unwrap();
        }
        sim.run();
        let s = fabric.stats();
        assert!(s.switch_drops > 0, "storm backlog must spill: {s:?}");
        assert_eq!(s.delivered + s.switch_drops, 100);
    }

    #[test]
    fn quarantined_link_sheds_best_effort_and_reroutes_transport() {
        // Three hosts: an alternate path exists, so transport traffic
        // on the quarantined link reroutes (dodging its gray loss) at
        // the cost of an extra hop; best-effort is shed.
        let mut sim = Sim::new();
        let fabric = FabricHandle::new(FabricConfig::default());
        let a = fabric.add_host(NicConfig::default());
        let b = fabric.add_host(NicConfig::default());
        let _c = fabric.add_host(NicConfig::default());
        fabric.set_link_loss(a, b, 1.0);
        fabric.quarantine_link(a, b);
        assert!(fabric.is_quarantined(a, b));
        for _ in 0..5 {
            let p = packet(a, b, 500).with_qos(QosClass::Transport);
            fabric.transmit(&mut sim, 0, p).unwrap();
        }
        let be = packet(a, b, 500).with_qos(QosClass::BestEffort);
        fabric.transmit(&mut sim, 0, be).unwrap();
        sim.run();
        let s = fabric.stats();
        // Transport rerouted around the 100%-lossy link — delivered.
        assert_eq!(s.delivered, 5, "{s:?}");
        assert_eq!(s.lossy_drops, 0, "reroute dodges the gray fault");
        assert_eq!(s.rerouted, 5);
        assert_eq!(s.quarantine_sheds, 1);
        let link = fabric.link_stats(a, b);
        assert_eq!(link.rerouted, 5);
        assert_eq!(link.quarantine_sheds, 1);
        assert_eq!(fabric.drop_reasons(b).quarantined, 1);
        // Clearing the quarantine re-exposes the lossy link.
        fabric.clear_quarantine(a, b);
        fabric.transmit(&mut sim, 0, packet(a, b, 500)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().lossy_drops, 1);
    }

    #[test]
    fn quarantine_without_alternate_degrades_in_place() {
        // Two hosts: no alternate path. Transport keeps using the sick
        // link (degraded mode); best-effort is still shed.
        let mut sim = Sim::new();
        let (fabric, a, b) = two_hosts(0.0);
        fabric.quarantine_link(a, b);
        let tp = packet(a, b, 500).with_qos(QosClass::Transport);
        fabric.transmit(&mut sim, 0, tp).unwrap();
        let be = packet(a, b, 500).with_qos(QosClass::BestEffort);
        fabric.transmit(&mut sim, 0, be).unwrap();
        sim.run();
        let s = fabric.stats();
        assert_eq!(s.delivered, 1);
        assert_eq!(s.rerouted, 0, "no third host, no alternate path");
        assert_eq!(s.quarantine_sheds, 1);
    }

    #[test]
    fn unknown_destination_is_dropped_not_panicking() {
        let mut sim = Sim::new();
        let fabric = FabricHandle::new(FabricConfig::default());
        let a = fabric.add_host(NicConfig::default());
        fabric.transmit(&mut sim, 0, packet(a, 999, 100)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().switch_drops, 1);
        // Attributed to the (only) leaf, best-effort class.
        assert_eq!(
            fabric.switch_drop_breakdown(),
            vec![((SwitchId::Leaf(0), QosClass::BestEffort), 1)]
        );
    }

    /// Two racks of two hosts joined by `spines` spines; hosts 0,1 in
    /// rack 0 and 2,3 in rack 1.
    fn two_racks(spines: u32) -> (FabricHandle, Vec<HostId>) {
        let fabric = FabricHandle::with_topology(
            FabricConfig::default(),
            ClosSpec::clos(2, 2, spines),
        );
        let hosts = (0..4).map(|_| fabric.add_host(NicConfig::default())).collect();
        (fabric, hosts)
    }

    #[test]
    fn cross_rack_delivery_crosses_trunks() {
        let mut sim = Sim::new();
        let (fabric, h) = two_racks(1);
        fabric.transmit(&mut sim, 0, packet(h[0], h[2], 1000)).unwrap();
        sim.run();
        let cross_at = sim.now();
        assert_eq!(fabric.stats().delivered, 1);
        assert_eq!(fabric.with_nic(h[2], |n| n.rx_pending_total()), 1);
        // Both directed trunks on the path carried the packet.
        let up = fabric.trunk_stats(SwitchId::Leaf(0), SwitchId::Spine(0));
        let down = fabric.trunk_stats(SwitchId::Spine(0), SwitchId::Leaf(1));
        assert_eq!(up.forwarded, 1);
        assert_eq!(down.forwarded, 1);
        assert!(up.bytes >= 1000);
        assert_eq!(fabric.trunks().len(), 2);
        // In-rack traffic is strictly faster: one switch, no trunk hops.
        let mut sim2 = Sim::new();
        let (fabric2, h2) = two_racks(1);
        fabric2.transmit(&mut sim2, 0, packet(h2[0], h2[1], 1000)).unwrap();
        sim2.run();
        assert!(sim2.now() < cross_at, "in-rack {} vs cross-rack {cross_at}", sim2.now());
        assert!(
            fabric2.trunks().is_empty(),
            "in-rack traffic never touches the spine tier"
        );
    }

    #[test]
    fn cross_rack_is_deterministic() {
        let run = || {
            let mut sim = Sim::new();
            let (fabric, h) = two_racks(2);
            for i in 0..20u64 {
                let p = packet(h[0], h[2], 500).with_rss_hash(i);
                fabric.transmit(&mut sim, 0, p).unwrap();
                sim.run();
            }
            (sim.now(), fabric.stats().delivered)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cross_rack_delivery_time_is_pinned() {
        // As in-rack up to the source leaf (1 617), then two 100 Gbps
        // trunk hops of switch 300 + 84 serialization + 500 propagation
        // each, then the destination leaf and host link as in-rack.
        for as_train in [false, true] {
            let (fabric, h) = two_racks(1);
            let pkt = packet(h[0], h[2], 1000).with_rss_hash(0);
            let at = first_irq_at(&fabric, h[2], |sim| {
                if as_train {
                    assert_eq!(fabric.transmit_burst(sim, 0, &mut vec![pkt]), 1);
                } else {
                    fabric.transmit(sim, 0, pkt).unwrap();
                }
            });
            assert_eq!(at, Nanos(5_302), "as_train {as_train}");
        }
    }

    #[test]
    fn trunk_failure_black_holes_until_restored() {
        let mut sim = Sim::new();
        let (fabric, h) = two_racks(1);
        fabric.fail_trunk(0, 0);
        assert!(fabric.is_trunk_down(0, 0));
        fabric.transmit(&mut sim, 0, packet(h[0], h[2], 500)).unwrap();
        // In-rack traffic is unaffected by a dead trunk.
        fabric.transmit(&mut sim, 0, packet(h[0], h[1], 500)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().trunk_down_drops, 1);
        assert_eq!(fabric.stats().delivered, 1);
        assert_eq!(fabric.drop_reasons(h[2]).trunk_down, 1);
        fabric.restore_trunk(0, 0);
        fabric.transmit(&mut sim, 0, packet(h[0], h[2], 500)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().delivered, 2);
    }

    #[test]
    fn trunk_down_drop_is_stamped_where_the_packet_died() {
        let mut sim = Sim::new();
        let (fabric, h) = two_racks(1);
        let topo = fabric.topology();
        let rec = TraceRecorder::new(1, snap_sim::trace::TRACE_SAMPLE_SCALE, 16);
        fabric.set_recorder(rec.clone());
        let send_traced = |sim: &mut Sim| {
            let ctx = rec.begin(sim.now(), h[0]).expect("tracing is on");
            let mut pkt = packet(h[0], h[2], 500);
            pkt.trace = Some(ctx);
            fabric.transmit(sim, 0, pkt).unwrap();
            ctx
        };
        let dropped_at = |sim: &mut Sim, ctx| {
            rec.finalize(ctx, sim.now(), h[0]);
            let trace = rec.get(ctx.trace_id).expect("faulted traces are retained");
            let drop = trace.records.iter().find(|r| r.stage == Stage::WireDrop);
            drop.expect("the packet was dropped").host
        };
        // No live spine: the packet never leaves its source leaf.
        fabric.fail_trunk(0, 0);
        let ctx = send_traced(&mut sim);
        sim.run();
        assert_eq!(dropped_at(&mut sim, ctx), topo.trace_host(SwitchId::Leaf(0)));
        fabric.restore_trunk(0, 0);
        // The far trunk fails once ECMP has committed the packet to
        // the spine: it dies there.
        let ctx = send_traced(&mut sim);
        while fabric.trunk_stats(SwitchId::Leaf(0), SwitchId::Spine(0)).forwarded == 0 {
            assert!(sim.step(), "the packet reaches its leaf");
        }
        fabric.fail_trunk(1, 0);
        sim.run();
        assert_eq!(fabric.stats().trunk_down_drops, 2);
        assert_eq!(dropped_at(&mut sim, ctx), topo.trace_host(SwitchId::Spine(0)));
    }

    #[test]
    fn trunk_failure_reroutes_flows_via_surviving_spine() {
        // With two spines, killing one trunk moves every flow onto the
        // survivor — no losses, ECMP just excludes the dead paths.
        let mut sim = Sim::new();
        let (fabric, h) = two_racks(2);
        fabric.fail_trunk(0, 0);
        for i in 0..10u64 {
            let p = packet(h[0], h[2], 500).with_rss_hash(i);
            fabric.transmit(&mut sim, 0, p).unwrap();
        }
        sim.run();
        assert_eq!(fabric.stats().delivered, 10);
        assert_eq!(fabric.stats().trunk_down_drops, 0);
        assert_eq!(
            fabric.trunk_stats(SwitchId::Leaf(0), SwitchId::Spine(0)).forwarded,
            0,
            "no flow crossed the dead trunk"
        );
        assert_eq!(
            fabric.trunk_stats(SwitchId::Leaf(0), SwitchId::Spine(1)).forwarded,
            10
        );
    }

    #[test]
    fn quarantined_cross_rack_link_reroutes_via_other_spine() {
        // Quarantining a cross-rack host pair with >1 spine reroutes
        // transport around the sick path (salted re-hash) and dodges
        // its gray loss, with no extra-hop penalty.
        let mut sim = Sim::new();
        let (fabric, h) = two_racks(2);
        fabric.set_link_loss(h[0], h[2], 1.0);
        fabric.quarantine_link(h[0], h[2]);
        for _ in 0..5 {
            let p = packet(h[0], h[2], 500).with_qos(QosClass::Transport);
            fabric.transmit(&mut sim, 0, p).unwrap();
        }
        sim.run();
        let s = fabric.stats();
        assert_eq!(s.delivered, 5, "{s:?}");
        assert_eq!(s.lossy_drops, 0, "reroute dodges the gray fault");
        assert_eq!(s.rerouted, 5);
    }

    #[test]
    fn leaf_brownout_drops_and_heals() {
        let mut sim = Sim::new();
        let (fabric, h) = two_racks(1);
        fabric.set_leaf_brownout(1, 1.0, Nanos::ZERO);
        // Cross-rack into the browned-out rack: dropped at the dst leaf.
        fabric.transmit(&mut sim, 0, packet(h[0], h[2], 500)).unwrap();
        // Sourced from the browned-out rack: dropped at the src leaf.
        fabric.transmit(&mut sim, 0, packet(h[2], h[3], 500)).unwrap();
        // Unrelated rack-0 traffic is untouched.
        fabric.transmit(&mut sim, 0, packet(h[0], h[1], 500)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().brownout_drops, 2);
        assert_eq!(fabric.stats().delivered, 1);
        assert_eq!(fabric.drop_reasons(h[2]).brownout, 1);
        assert_eq!(fabric.drop_reasons(h[3]).brownout, 1);
        fabric.set_leaf_brownout(1, 0.0, Nanos::ZERO);
        fabric.transmit(&mut sim, 0, packet(h[0], h[2], 500)).unwrap();
        sim.run();
        assert_eq!(fabric.stats().delivered, 2);
    }

    #[test]
    fn brownout_latency_delays_survivors() {
        let deliver_at = |extra: Nanos| {
            let mut sim = Sim::new();
            let (fabric, h) = two_racks(1);
            fabric.set_leaf_brownout(0, 0.0, extra);
            let at = Rc::new(Cell::new(Nanos::ZERO));
            let at2 = at.clone();
            fabric.with_nic(h[2], |nic| {
                nic.set_irq_handler(Rc::new(move |sim: &mut Sim, _q| at2.set(sim.now())));
                nic.arm_irq(0, true);
            });
            fabric.transmit(&mut sim, 0, packet(h[0], h[2], 500).with_rss_hash(0)).unwrap();
            sim.run();
            at.get()
        };
        let clean = deliver_at(Nanos::ZERO);
        let slow = deliver_at(Nanos::from_micros(100));
        assert!(clean > Nanos::ZERO);
        assert_eq!(slow, clean + Nanos::from_micros(100));
    }

    #[test]
    fn incast_drops_attribute_to_destination_leaf() {
        // N:1 incast into a tiny-buffered dst leaf port: every tail
        // drop lands on Leaf(1) in the per-switch breakdown, and the
        // breakdown sums to switch_drops.
        let mut sim = Sim::new();
        let fabric = FabricHandle::with_topology(
            FabricConfig {
                switch_buffer_bytes: 4_000,
                ..FabricConfig::default()
            },
            ClosSpec::clos(2, 4, 2),
        );
        let hosts: Vec<HostId> = (0..8)
            .map(|_| {
                fabric.add_host(NicConfig {
                    tx_queue_depth: 4096,
                    ..NicConfig::default()
                })
            })
            .collect();
        let sink = hosts[4]; // rack 1
        for &src in &hosts[..4] {
            for _ in 0..50 {
                fabric.transmit(&mut sim, 0, packet(src, sink, 1000)).unwrap();
            }
        }
        sim.run();
        let s = fabric.stats();
        assert!(s.switch_drops > 0, "incast must overflow the egress buffer");
        assert_eq!(s.delivered + s.switch_drops, 200);
        let breakdown = fabric.switch_drop_breakdown();
        let total: u64 = breakdown.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, s.switch_drops, "breakdown sums to switch_drops");
        assert!(
            breakdown
                .iter()
                .all(|&((sw, _), _)| sw == SwitchId::Leaf(1)),
            "incast loss is at the destination leaf: {breakdown:?}"
        );
    }

    #[test]
    fn wrr_schedule_prefers_transport_under_contention() {
        // Saturate a host egress port with best-effort, then race one
        // transport packet against one more best-effort packet sent at
        // the same instant: under WRR the transport packet must win by
        // more than FIFO ordering would allow.
        let gap = |schedule: snap_topo::QosSchedule| {
            let mut sim = Sim::new();
            let spec = ClosSpec {
                schedule,
                ..ClosSpec::single_rack()
            };
            let fabric = FabricHandle::with_topology(FabricConfig::default(), spec);
            let a = fabric.add_host(NicConfig {
                tx_queue_depth: 4096,
                gbps: 400.0,
                ..NicConfig::default()
            });
            let b = fabric.add_host(NicConfig::default());
            let arrivals = Rc::new(RefCell::new(Vec::new()));
            let arr = arrivals.clone();
            fabric.with_nic(b, |nic| {
                nic.set_irq_handler(Rc::new(move |sim: &mut Sim, _q| {
                    arr.borrow_mut().push(sim.now());
                }));
                nic.arm_irq(0, true);
            });
            // A standing best-effort backlog...
            for _ in 0..20 {
                let p = packet(a, b, 8000).with_rss_hash(0);
                fabric.transmit(&mut sim, 0, p).unwrap();
            }
            // ...then one transport packet.
            let p = packet(a, b, 8000).with_rss_hash(0).with_qos(QosClass::Transport);
            fabric.transmit(&mut sim, 0, p).unwrap();
            sim.run();
            sim.now()
        };
        let fifo = gap(snap_topo::QosSchedule::Fifo);
        let wrr = gap(snap_topo::QosSchedule::Wrr { weights: [4, 1] });
        // Both drain the same bytes; WRR conserves the line, so total
        // completion is close, but the disciplines differ measurably.
        assert!(fifo > Nanos::ZERO && wrr > Nanos::ZERO);
        assert_ne!(fifo, wrr, "WRR must change the schedule");
    }

    #[test]
    fn degenerate_topology_is_the_default() {
        let fabric = FabricHandle::new(FabricConfig::default());
        let topo = fabric.topology();
        assert!(topo.is_single_switch());
        assert_eq!(topo.spines(), 0);
        assert!(topo.same_rack(0, 1_000_000));
    }
}
