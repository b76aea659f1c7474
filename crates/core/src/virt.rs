//! Network-virtualization engine — the Andromeda-style engine family
//! (§1, §2.1, §3: "packet processing for network virtualization \[19\]",
//! one of the four production Snap engine types alongside shaping,
//! edge switching and Pony Express). It is the one non-Pony engine this
//! crate keeps: the transparent-upgrade tests migrate and roll it back
//! beside Pony, so it proves the [`Engine`] contract holds for an
//! engine whose state is not a transport's.
//!
//! A [`VirtEngine`] gives guest VMs virtual network connectivity:
//!
//! * **Guest tx**: packets leave the guest through its [`GuestRing`]
//!   (the vNIC queue), are matched against a per-tenant **flow table**
//!   mapping virtual destination addresses to physical hosts,
//!   encapsulated with an outer header, and transmitted on the fabric.
//! * **Guest rx**: encapsulated packets arriving from the fabric are
//!   validated (tenant isolation), decapsulated, and delivered to the
//!   destination guest's rx ring.
//! * **Misses** take the slow path: counted and queued for the control
//!   plane, which installs routes between passes
//!   ([`GroupHandle::try_with_engine`](crate::group::GroupHandle::try_with_engine)) — the
//!   Andromeda "Hoverboard"-style split between a fast on-engine path
//!   and centralized control.
//!
//! The flow table serializes for transparent upgrades like any other
//! engine state; a snapshot that does not decode is an error the
//! upgrade factory turns into a rollback, never a panic.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;

use snap_nic::fabric::FabricHandle;
use snap_nic::packet::{HostId, Packet, QosClass};
use snap_sim::codec::{DecodeError, Reader, Writer};
use snap_sim::costs;
use snap_sim::{Nanos, Sim};

use crate::engine::{Engine, RunReport};

/// One direction of a guest's vNIC queue pair.
///
/// Simulator-side stand-in for the shared-memory packet ring mapped
/// between a guest and its engine: bounded, FIFO, drop-on-full. Clones
/// share the ring, which is how an upgrade hands a guest's rings to the
/// successor engine.
#[derive(Clone)]
pub struct GuestRing {
    queue: Rc<RefCell<VecDeque<(Nanos, Packet)>>>,
    capacity: usize,
}

impl GuestRing {
    /// Creates a ring holding up to `capacity` packets.
    pub fn new(capacity: usize) -> Self {
        GuestRing {
            queue: Rc::default(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues a packet stamped `now`; returns `false`, dropping it,
    /// when the ring is full.
    pub fn inject(&self, now: Nanos, pkt: Packet) -> bool {
        let mut q = self.queue.borrow_mut();
        if q.len() >= self.capacity {
            return false;
        }
        q.push_back((now, pkt));
        true
    }

    /// Dequeues up to `max` packets into `out`; returns how many.
    pub fn drain(&self, max: usize, out: &mut Vec<(Nanos, Packet)>) -> usize {
        let mut q = self.queue.borrow_mut();
        let n = max.min(q.len());
        out.extend(q.drain(..n));
        n
    }

    /// Packets waiting.
    pub fn len(&self) -> usize {
        self.queue.borrow().len()
    }

    /// True if no packets wait.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Age of the head packet.
    pub fn oldest_age(&self, now: Nanos) -> Nanos {
        self.queue
            .borrow()
            .front()
            .map(|(t, _)| now.saturating_sub(*t))
            .unwrap_or(Nanos::ZERO)
    }
}

/// A guest's virtual address: (tenant, virtual ip).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VirtAddr {
    /// Tenant (isolation domain).
    pub tenant: u32,
    /// Virtual IP within the tenant's network.
    pub vip: u32,
}

/// A flow-table entry: where a virtual address physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Physical host running the destination guest.
    pub host: HostId,
    /// Steering key of the destination host's virt engine.
    pub engine_key: u64,
}

/// Bytes of encapsulation overhead per packet (outer header).
pub const ENCAP_OVERHEAD: u32 = 36;

/// Virtualization-engine counters.
#[derive(Debug, Clone, Default)]
pub struct VirtStats {
    /// Guest packets encapsulated and transmitted.
    pub encapped: u64,
    /// Fabric packets decapsulated and delivered to guests.
    pub decapped: u64,
    /// Fast-path flow-table hits.
    pub hits: u64,
    /// Flow-table misses (slow path).
    pub misses: u64,
    /// Packets dropped for tenant-isolation violations.
    pub isolation_drops: u64,
    /// Packets dropped because the destination guest ring was full or
    /// the guest is unknown.
    pub delivery_drops: u64,
}

/// One guest attachment: its tx and rx rings (the vNIC queue pair).
pub struct GuestPort {
    /// Guest-visible address.
    pub addr: VirtAddr,
    /// Guest -> engine (guest transmit).
    pub tx: GuestRing,
    /// Engine -> guest (guest receive).
    pub rx: GuestRing,
}

/// The virtualization engine for one host.
pub struct VirtEngine {
    name: String,
    host: HostId,
    engine_key: u64,
    queue: u16,
    fabric: FabricHandle,
    guests: Vec<GuestPort>,
    flows: BTreeMap<VirtAddr, Route>,
    /// Addresses that missed, awaiting control-plane resolution.
    pending_misses: Vec<VirtAddr>,
    stats: VirtStats,
    batch: usize,
    buf: Vec<(Nanos, Packet)>,
    rx_buf: Vec<Packet>,
}

impl VirtEngine {
    /// Creates the engine on NIC rx `queue` — one its caller claimed,
    /// with a handler that wakes the engine — and attaches its receive
    /// filter.
    pub fn new(
        name: impl Into<String>,
        host: HostId,
        engine_key: u64,
        queue: u16,
        fabric: FabricHandle,
    ) -> Self {
        let engine = VirtEngine {
            name: name.into(),
            host,
            engine_key,
            queue,
            fabric,
            guests: Vec::new(),
            flows: BTreeMap::new(),
            pending_misses: Vec::new(),
            stats: VirtStats::default(),
            batch: costs::DEFAULT_POLL_BATCH,
            buf: Vec::new(),
            rx_buf: Vec::new(),
        };
        engine.attach_nic();
        engine
    }

    /// Installs the NIC receive filter, an upsert, so a second call
    /// changes nothing.
    fn attach_nic(&self) {
        let (key, queue) = (self.engine_key, self.queue);
        self.fabric.with_nic(self.host, |nic| nic.attach_filter(key, queue));
    }

    /// Attaches a guest VM; returns its port's ring pair (tx, rx).
    pub fn attach_guest(&mut self, addr: VirtAddr, ring_depth: usize) -> (GuestRing, GuestRing) {
        let tx = GuestRing::new(ring_depth);
        let rx = GuestRing::new(ring_depth);
        self.attach_guest_with_rings(addr, tx.clone(), rx.clone());
        (tx, rx)
    }

    /// Attaches a guest with pre-existing rings — the upgrade path,
    /// where the successor engine re-maps the guest's shared-memory
    /// queues transferred during brownout.
    pub fn attach_guest_with_rings(&mut self, addr: VirtAddr, tx: GuestRing, rx: GuestRing) {
        self.guests.push(GuestPort { addr, tx, rx });
    }

    /// Installs a route (control plane, between passes).
    pub fn install_route(&mut self, addr: VirtAddr, route: Route) {
        self.flows.insert(addr, route);
        self.pending_misses.retain(|a| *a != addr);
    }

    /// Addresses whose flows missed, for the control plane to resolve.
    pub fn take_pending_misses(&mut self) -> Vec<VirtAddr> {
        std::mem::take(&mut self.pending_misses)
    }

    /// Counters.
    pub fn stats(&self) -> &VirtStats {
        &self.stats
    }

    /// Flow-table size.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Encapsulates a guest packet: outer wire header names the source
    /// tenant + virtual endpoints so the remote engine can enforce
    /// isolation and route to the right guest.
    fn encap(&self, src: VirtAddr, dst: VirtAddr, inner: &Packet, route: Route) -> Packet {
        let mut w = Writer::with_capacity(32 + inner.payload.len());
        w.u32(src.tenant)
            .u32(src.vip)
            .u32(dst.tenant)
            .u32(dst.vip)
            .bytes(&inner.payload);
        let mut outer = Packet::new(self.host, route.host, Bytes::from(w.finish()));
        outer.wire_size = inner.wire_size + ENCAP_OVERHEAD;
        outer
            .with_qos(QosClass::BestEffort)
            .with_steer_key(route.engine_key)
            .with_rss_hash(((dst.tenant as u64) << 32) | dst.vip as u64)
    }

    /// Decapsulates a fabric packet; `None` if malformed.
    fn decap(payload: &[u8]) -> Option<(VirtAddr, VirtAddr, Vec<u8>)> {
        let mut r = Reader::new(payload);
        let src = VirtAddr {
            tenant: r.u32().ok()?,
            vip: r.u32().ok()?,
        };
        let dst = VirtAddr {
            tenant: r.u32().ok()?,
            vip: r.u32().ok()?,
        };
        let inner = r.bytes().ok()?.to_vec();
        Some((src, dst, inner))
    }
}

impl Engine for VirtEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&mut self, sim: &mut Sim) -> RunReport {
        let now = sim.now();
        let mut cpu = Nanos(costs::ENGINE_POLL_PASS_NS);
        let mut work = false;

        // 1. Guest tx: encap + transmit.
        for gi in 0..self.guests.len() {
            self.buf.clear();
            let mut staged = std::mem::take(&mut self.buf);
            self.guests[gi].tx.drain(self.batch, &mut staged);
            let src = self.guests[gi].addr;
            for (_, inner) in staged.drain(..) {
                work = true;
                cpu += Nanos(costs::PONY_PER_PACKET_NS);
                // The guest addresses peers by (tenant, vip) packed in
                // the inner packet's rss_hash (its virtual L3 header).
                let dst = VirtAddr {
                    tenant: (inner.rss_hash >> 32) as u32,
                    vip: inner.rss_hash as u32,
                };
                if dst.tenant != src.tenant {
                    // Guests may only address their own tenant network.
                    self.stats.isolation_drops += 1;
                    continue;
                }
                match self.flows.get(&dst).copied() {
                    Some(route) => {
                        self.stats.hits += 1;
                        let outer = self.encap(src, dst, &inner, route);
                        if self.fabric.transmit(sim, self.queue, outer).is_ok() {
                            self.stats.encapped += 1;
                        } else {
                            self.stats.delivery_drops += 1;
                        }
                    }
                    None => {
                        // Slow path: hold for control-plane resolution.
                        self.stats.misses += 1;
                        if !self.pending_misses.contains(&dst) {
                            self.pending_misses.push(dst);
                        }
                    }
                }
            }
            self.buf = staged;
        }

        // 2. Fabric rx: decap + deliver to the destination guest.
        self.rx_buf.clear();
        let mut rx = std::mem::take(&mut self.rx_buf);
        let (host, queue, batch) = (self.host, self.queue, self.batch);
        self.fabric.with_nic(host, |nic| {
            nic.poll_rx(queue, batch, &mut rx);
        });
        for pkt in rx.drain(..) {
            work = true;
            cpu += Nanos(costs::PONY_PER_PACKET_NS)
                + costs::copy_cost(pkt.payload.len() as u64);
            let Some((src, dst, inner)) = Self::decap(&pkt.payload) else {
                self.stats.delivery_drops += 1;
                continue;
            };
            if src.tenant != dst.tenant {
                self.stats.isolation_drops += 1;
                continue;
            }
            let Some(port) = self.guests.iter().find(|g| g.addr == dst) else {
                self.stats.delivery_drops += 1;
                continue;
            };
            let mut delivered = Packet::new(pkt.src, self.host, Bytes::from(inner));
            delivered.rss_hash = ((src.tenant as u64) << 32) | src.vip as u64;
            if port.rx.inject(now, delivered) {
                self.stats.decapped += 1;
            } else {
                self.stats.delivery_drops += 1;
            }
        }
        self.rx_buf = rx;

        let pending = self.pending_work();
        RunReport {
            cpu,
            work_done: work,
            pending,
            next_deadline: None,
        }
    }

    fn pending_work(&self) -> usize {
        let guest_tx: usize = self.guests.iter().map(|g| g.tx.len()).sum();
        let rx = self.fabric.with_nic(self.host, |nic| nic.rx_pending(self.queue));
        guest_tx + rx
    }

    fn oldest_pending_age(&self, now: Nanos) -> Nanos {
        self.guests
            .iter()
            .map(|g| g.tx.oldest_age(now))
            .max()
            .unwrap_or(Nanos::ZERO)
    }

    fn serialize_state(&mut self) -> Vec<u8> {
        // The flow table is the engine's migrable state; guest rings
        // are re-injected by the factory (shared-memory handles travel
        // in brownout, like Pony sessions).
        let mut w = Writer::with_capacity(64 + self.flows.len() * 24);
        w.u32(self.flows.len() as u32);
        for (addr, route) in &self.flows {
            w.u32(addr.tenant)
                .u32(addr.vip)
                .u32(route.host)
                .u64(route.engine_key);
        }
        w.finish()
    }

    fn detach(&mut self, _sim: &mut Sim) {
        self.fabric.with_nic(self.host, |nic| {
            nic.detach_filter(self.engine_key);
        });
    }

    /// Undoes [`Engine::detach`]: a predecessor resumed by an upgrade
    /// rollback receives again. Idempotent, so the successor the
    /// constructor already attached is unaffected.
    fn attach(&mut self, _sim: &mut Sim) {
        self.attach_nic();
    }

    fn container(&self) -> &str {
        "virt"
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

impl VirtEngine {
    /// Restores the flow table from [`Engine::serialize_state`] output
    /// into a freshly constructed engine (the upgrade factory re-calls
    /// [`VirtEngine::attach_guest_with_rings`] with the preserved rings).
    /// A snapshot that does not decode leaves the table untouched.
    pub fn restore_flows(&mut self, state: &[u8]) -> Result<(), DecodeError> {
        let mut r = Reader::new(state);
        let n = r.u32()?;
        let mut flows = BTreeMap::new();
        for _ in 0..n {
            let addr = VirtAddr {
                tenant: r.u32()?,
                vip: r.u32()?,
            };
            let route = Route {
                host: r.u32()?,
                engine_key: r.u64()?,
            };
            flows.insert(addr, route);
        }
        self.flows.extend(flows);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{GroupConfig, GroupHandle, SchedulingMode};
    use snap_nic::fabric::FabricConfig;
    use snap_nic::nic::NicConfig;
    use snap_sched::machine::Machine;
    use snap_shm::account::CpuAccountant;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Two hosts, each with a virt engine in a Snap group, plus the
    /// NIC irq wiring a module would install.
    struct World {
        sim: Sim,
        fabric: FabricHandle,
        groups: Vec<GroupHandle>,
        engines: Vec<crate::engine::EngineId>,
    }

    const KEY0: u64 = 0xA0;
    const KEY1: u64 = 0xA1;

    fn world() -> World {
        let mut sim = Sim::new();
        let fabric = FabricHandle::new(FabricConfig::default());
        let mut groups = Vec::new();
        let mut engines = Vec::new();
        for h in 0..2u32 {
            let host = fabric.add_host(NicConfig::default());
            let machine = Rc::new(RefCell::new(Machine::new(4, h as u64 + 1)));
            let group = GroupHandle::new(
                GroupConfig::new(
                    format!("virt{h}"),
                    SchedulingMode::Dedicated { cores: vec![0] },
                ),
                machine,
                CpuAccountant::new(),
            );
            group.start(&mut sim);
            let key = if h == 0 { KEY0 } else { KEY1 };
            let (id, _) = group.add_engine_on_queue(&fabric, host, |queue| {
                let name = format!("virt-{h}");
                Box::new(VirtEngine::new(name, host, key, queue, fabric.clone()))
            });
            groups.push(group);
            engines.push(id);
        }
        World {
            sim,
            fabric,
            groups,
            engines,
        }
    }

    fn with_virt<R>(w: &World, h: usize, f: impl FnOnce(&mut VirtEngine) -> R) -> R {
        w.groups[h].with_engine(w.engines[h], |e| {
            f(e.as_any().downcast_mut::<VirtEngine>().expect("virt engine"))
        })
    }

    fn guest_packet(to: VirtAddr, len: usize) -> Packet {
        let mut p = Packet::new(0, 0, Bytes::from(vec![0x5Au8; len]));
        p.rss_hash = ((to.tenant as u64) << 32) | to.vip as u64;
        p
    }

    #[test]
    fn guest_to_guest_across_hosts() {
        let mut w = world();
        let g1 = VirtAddr { tenant: 7, vip: 1 };
        let g2 = VirtAddr { tenant: 7, vip: 2 };
        let (g1_tx, _g1_rx) = with_virt(&w, 0, |e| e.attach_guest(g1, 64));
        let (_g2_tx, g2_rx) = with_virt(&w, 1, |e| e.attach_guest(g2, 64));
        // Control plane programs the route on the sending side.
        with_virt(&w, 0, |e| {
            e.install_route(g2, Route { host: 1, engine_key: KEY1 })
        });

        g1_tx.inject(w.sim.now(), guest_packet(g2, 300));
        w.groups[0].wake(&mut w.sim, w.engines[0]);
        w.sim.run_until(Nanos::from_millis(1));

        assert_eq!(g2_rx.len(), 1, "guest 2 received the packet");
        let mut out = Vec::new();
        g2_rx.drain(1, &mut out);
        let (_, pkt) = &out[0];
        assert_eq!(pkt.payload.len(), 300, "inner payload intact");
        assert_eq!(
            pkt.rss_hash,
            ((g1.tenant as u64) << 32) | g1.vip as u64,
            "source virtual address visible to the guest"
        );
        with_virt(&w, 0, |e| {
            assert_eq!(e.stats().encapped, 1);
            assert_eq!(e.stats().hits, 1);
        });
        with_virt(&w, 1, |e| assert_eq!(e.stats().decapped, 1));
    }

    #[test]
    fn flow_miss_takes_slow_path_until_route_installed() {
        let mut w = world();
        let g1 = VirtAddr { tenant: 3, vip: 1 };
        let g2 = VirtAddr { tenant: 3, vip: 2 };
        let (g1_tx, _) = with_virt(&w, 0, |e| e.attach_guest(g1, 64));
        let (_, g2_rx) = with_virt(&w, 1, |e| e.attach_guest(g2, 64));

        g1_tx.inject(w.sim.now(), guest_packet(g2, 100));
        w.groups[0].wake(&mut w.sim, w.engines[0]);
        w.sim.run_until(Nanos::from_millis(1));
        assert_eq!(g2_rx.len(), 0, "no route yet");
        let misses = with_virt(&w, 0, |e| {
            assert_eq!(e.stats().misses, 1);
            e.take_pending_misses()
        });
        assert_eq!(misses, vec![g2]);

        // Control plane resolves and the guest retries.
        with_virt(&w, 0, |e| {
            e.install_route(g2, Route { host: 1, engine_key: KEY1 })
        });
        g1_tx.inject(w.sim.now(), guest_packet(g2, 100));
        w.groups[0].wake(&mut w.sim, w.engines[0]);
        w.sim.run_until(Nanos::from_millis(2));
        assert_eq!(g2_rx.len(), 1, "delivered after route install");
    }

    #[test]
    fn cross_tenant_traffic_is_dropped() {
        let mut w = world();
        let g1 = VirtAddr { tenant: 1, vip: 1 };
        let other_tenant = VirtAddr { tenant: 2, vip: 9 };
        let (g1_tx, _) = with_virt(&w, 0, |e| e.attach_guest(g1, 64));
        // Even with a route present, tenant isolation wins.
        with_virt(&w, 0, |e| {
            e.install_route(other_tenant, Route { host: 1, engine_key: KEY1 })
        });
        g1_tx.inject(w.sim.now(), guest_packet(other_tenant, 50));
        w.groups[0].wake(&mut w.sim, w.engines[0]);
        w.sim.run_until(Nanos::from_millis(1));
        with_virt(&w, 0, |e| {
            assert_eq!(e.stats().isolation_drops, 1);
            assert_eq!(e.stats().encapped, 0);
        });
    }

    #[test]
    fn unknown_destination_guest_counts_delivery_drop() {
        let mut w = world();
        let g1 = VirtAddr { tenant: 5, vip: 1 };
        let ghost = VirtAddr { tenant: 5, vip: 99 };
        let (g1_tx, _) = with_virt(&w, 0, |e| e.attach_guest(g1, 64));
        with_virt(&w, 0, |e| {
            e.install_route(ghost, Route { host: 1, engine_key: KEY1 })
        });
        g1_tx.inject(w.sim.now(), guest_packet(ghost, 50));
        w.groups[0].wake(&mut w.sim, w.engines[0]);
        w.sim.run_until(Nanos::from_millis(1));
        // Encapped at the source, dropped at the destination engine.
        with_virt(&w, 0, |e| assert_eq!(e.stats().encapped, 1));
        with_virt(&w, 1, |e| assert_eq!(e.stats().delivery_drops, 1));
    }

    #[test]
    fn flow_table_survives_upgrade_serialization() {
        let mut w = world();
        let g2 = VirtAddr { tenant: 9, vip: 2 };
        let g3 = VirtAddr { tenant: 9, vip: 3 };
        let snapshot = with_virt(&w, 0, |e| {
            e.install_route(g2, Route { host: 1, engine_key: KEY1 });
            e.install_route(g3, Route { host: 1, engine_key: KEY1 });
            e.serialize_state()
        });
        let mut fresh = VirtEngine::new("virt-v2", 0, 0xB0, 1, w.fabric.clone());
        fresh.restore_flows(&snapshot).expect("snapshot decodes");
        assert_eq!(fresh.flow_count(), 2);
        let _ = &mut w;
    }

    #[test]
    fn corrupt_snapshot_is_an_error_not_a_panic() {
        let fabric = FabricHandle::new(FabricConfig::default());
        fabric.add_host(NicConfig::default());
        let mut engine = VirtEngine::new("v", 0, 1, 0, fabric);
        // Five flows promised, one byte present.
        assert_eq!(engine.restore_flows(&[5, 0, 0, 0, 1]), Err(DecodeError));
        assert_eq!(engine.flow_count(), 0, "nothing half-restored");
    }

    #[test]
    fn full_ring_drops_and_age_tracks_head() {
        let ring = GuestRing::new(2);
        assert!(ring.is_empty());
        let p = guest_packet(VirtAddr { tenant: 1, vip: 2 }, 10);
        assert!(ring.inject(Nanos(100), p.clone()));
        assert!(ring.inject(Nanos(300), p.clone()));
        assert!(!ring.inject(Nanos(300), p), "full ring drops");
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.oldest_age(Nanos(500)), Nanos(400));
    }

    #[test]
    fn encap_decap_roundtrip_preserves_payload() {
        let fabric = FabricHandle::new(FabricConfig::default());
        fabric.add_host(NicConfig::default());
        let engine = VirtEngine::new("v", 0, 1, 0, fabric);
        let src = VirtAddr { tenant: 4, vip: 10 };
        let dst = VirtAddr { tenant: 4, vip: 20 };
        let inner = guest_packet(dst, 123);
        let outer = engine.encap(src, dst, &inner, Route { host: 1, engine_key: 2 });
        assert_eq!(outer.wire_size, inner.wire_size + ENCAP_OVERHEAD);
        let (s, d, payload) = VirtEngine::decap(&outer.payload).expect("well-formed");
        assert_eq!(s, src);
        assert_eq!(d, dst);
        assert_eq!(payload.len(), 123);
        // Garbage does not decap.
        assert!(VirtEngine::decap(b"junk").is_none());
    }
}
