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
//! State is kept in three records, each the only home of what it
//! holds: a `Host` per host id (NIC, uplink clock, tx-queue stalls,
//! per-host fault drops), a `Link` per directed host pair (its
//! [`LinkStats`] and the fault arms set on that direction) and an
//! `Egress` per switch port, host-facing or trunk (serializer lanes,
//! pause deadline, [`TrunkStats`]).
//!
//! There is one datapath, in this file. Packets travel as *trains*: a
//! `Vec<Packet>` that shares one simulator event per hop.
//! [`FabricHandle::transmit`] sends a train of one. A train leaves its
//! host in `send_train`, then every switch on the path runs the same
//! `hop`: wait out the link's propagation, `route` each packet to an
//! egress `Port` (the source leaf also runs the ingress fault pipeline
//! of `fault.rs`, which holds every fault setter too), `admit` it to
//! that port's buffer and serializer, and schedule one departure per
//! port. A departure either hops again (trunk port) or ends in
//! `deliver_train` (host port). What all of it counts is in `stats.rs`.
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

mod fault;
mod stats;

pub use stats::{DropReasons, FabricStats, LinkStats, TrunkStats};

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

/// An egress port of the switching tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Port {
    /// The leaf port facing host `h`.
    Host(HostId),
    /// The port of switch `from` on its trunk to switch `to`.
    Trunk(SwitchId, SwitchId),
}

/// Everything the fabric keeps per switch egress port, host-facing or
/// trunk.
#[derive(Default)]
struct Egress {
    lanes: PortLanes,
    /// PFC pause storm: the port may not serialize before this time.
    /// Only host-facing ports are ever paused.
    paused_until: Nanos,
    stats: TrunkStats,
}

/// Everything the fabric keeps per host, indexed by [`HostId`] (ids
/// are handed out densely from zero).
struct Host {
    nic: VirtNic,
    /// When the host's uplink finishes serializing what it was given.
    uplink_busy: Nanos,
    /// Stalled tx queues: (queue, virtual time the stall lifts).
    tx_stalls: Vec<(u16, Nanos)>,
    /// The leaf's egress port facing this host.
    egress: Egress,
    /// Fault-injection drops of packets destined to this host. The
    /// receive-path reasons (`crc_bad`, `no_buffer`) stay zero here:
    /// the NIC counts those.
    fault_drops: DropReasons,
}

/// The fault arms set on one directed link; all unset by default.
#[derive(Clone, Copy, Default)]
struct Arms {
    /// Symmetric partition: set on both directions of the pair.
    partitioned: bool,
    /// One-way partition: only this direction is dead.
    oneway: bool,
    /// Quarantined (a health-detector verdict): traffic reroutes via an
    /// alternate path when one exists, and best-effort traffic is shed.
    quarantined: bool,
    /// Gray loss: silent per-packet drop probability, zero for none.
    loss: f64,
    /// Gray jitter: (median extra delay, sigma); a zero median is none.
    jitter: (Nanos, f64),
}

/// Everything the fabric keeps per directed host pair `(src, dst)`,
/// made by the first counter that moves or arm that is set.
#[derive(Default)]
struct Link {
    stats: LinkStats,
    arms: Arms,
}

/// The packets of a train leaving a switch by one port, and when the
/// last of them has finished serializing.
type Group = (Port, Nanos, Vec<Packet>);

/// The fabric: NICs, uplinks, and the switching tier (one leaf per
/// rack, optionally joined by spines).
pub struct Fabric {
    cfg: FabricConfig,
    topo: Topology,
    hosts: Vec<Host>,
    /// Directed links that have counted a packet or been armed, keyed
    /// (src, dst).
    links: IntMap<(HostId, HostId), Link>,
    /// Directed trunk ports that have seen a packet, keyed (from, to).
    trunks: IntMap<(SwitchId, SwitchId), Egress>,
    /// Failed trunks, keyed (leaf/rack, spine); both directions die.
    down_trunks: IntSet<(u32, u32)>,
    /// Browned-out switches: switch -> (drop prob, extra latency).
    brownouts: IntMap<SwitchId, (f64, Nanos)>,
    /// Egress-buffer drops broken down by switch and priority class —
    /// the per-hop attribution of `FabricStats::switch_drops`.
    switch_drops_by: BTreeMap<(SwitchId, QosClass), u64>,
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

impl Fabric {
    fn new(cfg: FabricConfig, topo: Topology) -> Self {
        let rng = Rng::new(cfg.seed);
        let gray_rng = Rng::new(cfg.seed).stream(0x6a77_e25d);
        Fabric {
            cfg,
            topo,
            hosts: Vec::new(),
            links: IntMap::default(),
            trunks: IntMap::default(),
            down_trunks: IntSet::default(),
            brownouts: IntMap::default(),
            switch_drops_by: BTreeMap::new(),
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
            tx_stalls: Vec::new(),
            egress: Egress::default(),
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

    /// The counters of directed link `(src, dst)`, about to move.
    fn link_stats(&mut self, link: (HostId, HostId)) -> &mut LinkStats {
        &mut self.links.entry(link).or_default().stats
    }

    /// The record of egress `port`: a host port's is made with its
    /// host, a trunk port's by the first packet routed to it. `None`
    /// for a host port with no host behind it.
    fn egress(&mut self, port: Port) -> Option<&mut Egress> {
        match port {
            Port::Host(h) => self.host_mut(h).map(|host| &mut host.egress),
            Port::Trunk(from, to) => Some(self.trunks.entry((from, to)).or_default()),
        }
    }

    /// Attributes a fault-injection drop to the host the packet was
    /// for. A destination that is no host has nowhere to count it; the
    /// fabric-wide [`FabricStats`] still do.
    fn count_fault(&mut self, dst: HostId, count: impl FnOnce(&mut DropReasons)) {
        if let Some(host) = self.host_mut(dst) {
            count(&mut host.fault_drops);
        }
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
        let schedule = spec.schedule;
        // A host port with no host behind it has no record either: its
        // rate is never used.
        let (gbps, buffer) = match port {
            Port::Host(h) => (
                self.host(h).map_or(0.0, |host| host.nic.config().gbps),
                self.cfg.switch_buffer_bytes,
            ),
            Port::Trunk(..) => (spec.trunk_gbps, spec.trunk_buffer_bytes),
        };
        let limit = match pkt.qos {
            QosClass::Transport => buffer,
            QosClass::BestEffort => (buffer as f64 * self.cfg.best_effort_buffer_fraction) as u64,
        };
        let wire = u64::from(pkt.wire_size);
        let earliest = now + self.cfg.switch_latency;
        let departure = self.egress(port).and_then(|egress| {
            if egress.lanes.queued_bytes + wire > limit {
                egress.stats.drops += 1;
                return None;
            }
            egress.stats.bytes += wire;
            egress.stats.forwarded += 1;
            egress.lanes.queued_bytes += wire;
            // A PFC pause storm holds serialization until it passes;
            // admitted packets keep occupying the buffer meanwhile, so
            // sustained load during a storm spills into buffer-full
            // drops — the §5.4 pathology.
            let earliest = earliest.max(egress.paused_until);
            let ser = transmit_time(wire, gbps) + extra;
            Some(schedule.depart(&mut egress.lanes, prio(pkt.qos), earliest, ser))
        });
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

    /// Bytes standing in each egress buffer (admitted, not yet
    /// departed) — the queue-depth gauges: host-facing ports by host,
    /// then trunk ports sorted as [`Self::trunks`]. Lists only ports
    /// that have forwarded a packet.
    #[allow(clippy::type_complexity)]
    pub fn egress_queues(&self) -> (Vec<(HostId, u64)>, Vec<((SwitchId, SwitchId), u64)>) {
        let fabric = self.inner.borrow();
        let queued = |e: &Egress| (e.stats.forwarded > 0).then_some(e.lanes.queued_bytes);
        let hosts = (0..).zip(&fabric.hosts);
        let hosts = hosts.filter_map(|(h, host)| Some((h, queued(&host.egress)?)));
        let trunks = fabric.trunks.iter();
        let mut trunks: Vec<_> = trunks.filter_map(|(&k, t)| Some((k, queued(t)?))).collect();
        trunks.sort_by_key(|&(k, _)| k);
        (hosts.collect(), trunks)
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

    /// Every directed link that has counted anything (an armed link
    /// that carried nothing is not listed), sorted (src, dst) for
    /// deterministic iteration, with its counters.
    pub fn links(&self) -> Vec<((HostId, HostId), LinkStats)> {
        let fabric = self.inner.borrow();
        let links = fabric.links.iter().map(|(&k, link)| (k, link.stats));
        let mut out: Vec<_> = links.filter(|&(_, s)| s != LinkStats::default()).collect();
        out.sort_by_key(|&(k, _)| k);
        out
    }

    /// Line rate (Gbps) of a host's NIC, if the host exists — the
    /// denominator for link-utilization gauges.
    pub fn host_gbps(&self, host: HostId) -> Option<f64> {
        self.inner.borrow().host(host).map(|h| h.nic.config().gbps)
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
            let host = &fabric.hosts[src as usize];
            // A stalled queue holds its packets until the stall lifts,
            // but does not occupy the shared uplink while waiting —
            // other queues' traffic flows around the hung queue.
            let stall = host.tx_stalls.iter().find(|&&(q, _)| q == queue);
            let stall = stall
                .map(|&(_, until)| until)
                .filter(|&until| until > sim.now())
                .unwrap_or(Nanos::ZERO);
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
                        let egress = fabric.egress(port).expect("the group was admitted here");
                        egress.lanes.queued_bytes -= bytes;
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
                // One link lookup per run of packets sharing a source.
                for run in train.chunk_by(|a, b| a.src == b.src) {
                    let link = fabric.link_stats((run[0].src, dst));
                    link.bytes += run.iter().map(|pkt| u64::from(pkt.wire_size)).sum::<u64>();
                    link.delivered += run.len() as u64;
                }
                for pkt in &train {
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
mod tests;
