//! The declarative Clos spec and its compiled topology.
//!
//! A [`ClosSpec`] is the experiment-facing description: racks × hosts
//! per rack, a spine count, and per-trunk link parameters. Compiling it
//! (`ClosSpec::compile`) validates the shape and yields a [`Topology`]
//! answering the questions the fabric asks per packet: which leaf does
//! a host hang off, is a pair of hosts rack-local, which spine does a
//! flow's ECMP hash pick (optionally excluding failed trunks), and
//! where a packet standing at a switch goes next.
//!
//! ECMP is **deterministic and seeded**: the spine index is a pure
//! splitmix-style hash of `(src, dst, flow label, seed)` — no RNG
//! stream is consumed, so attaching a topology never perturbs fault
//! draw order, and the same seed always routes the same flow the same
//! way (the real fabric property congestion-control experiments rely
//! on: one flow, one path, reordering only on failure/reroute).

use snap_sim::Nanos;

use crate::qos::QosSchedule;

/// A node of the compiled topology graph: an endpoint host, a leaf
/// (top-of-rack) switch, or a spine switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Node {
    /// An endpoint host (fabric `HostId`).
    Host(u32),
    /// A switch.
    Switch(SwitchId),
}

/// Identifies a switch in the compiled topology. Leaves sort before
/// spines so per-switch breakdowns render racks first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SwitchId {
    /// The top-of-rack switch of rack `r`.
    Leaf(u32),
    /// Spine switch `s`.
    Spine(u32),
}

impl std::fmt::Display for SwitchId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwitchId::Leaf(r) => write!(f, "leaf{r}"),
            SwitchId::Spine(s) => write!(f, "spine{s}"),
        }
    }
}

/// What's wrong with a [`ClosSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Zero racks or zero hosts per rack.
    Empty,
    /// More than one rack but no spine layer to join them.
    NoSpine,
    /// A trunk parameter is non-positive.
    BadTrunk,
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::Empty => write!(f, "topology has no rack or no host slots"),
            TopologyError::NoSpine => write!(f, "multi-rack topology needs at least one spine"),
            TopologyError::BadTrunk => write!(f, "trunk rate must be positive"),
        }
    }
}

/// Declarative spine/leaf Clos fabric description.
///
/// Hosts are numbered rack-major: host `h` lives in rack
/// `h / hosts_per_rack`. Every leaf connects to every spine by one
/// bidirectional trunk (two directed links). Host-facing link
/// parameters (NIC line rate, host↔leaf propagation, host egress
/// buffering) stay in the fabric's own config — this spec adds only the
/// trunk tier the single-switch fabric never had.
#[derive(Debug, Clone)]
pub struct ClosSpec {
    /// Number of racks (leaf switches).
    pub racks: u32,
    /// Host slots per rack.
    pub hosts_per_rack: u32,
    /// Spine switches joining the leaves. May be zero only for a
    /// single-rack topology (which needs no spine layer).
    pub spines: u32,
    /// Line rate of each leaf↔spine trunk, Gbps.
    pub trunk_gbps: f64,
    /// Propagation delay of each leaf↔spine trunk hop.
    pub trunk_prop: Nanos,
    /// Egress buffer per trunk port, bytes.
    pub trunk_buffer_bytes: u64,
    /// Seed for the ECMP flow hash.
    pub ecmp_seed: u64,
    /// Egress dequeue discipline applied at every switch port.
    /// [`QosSchedule::Fifo`] (the default) reproduces the legacy
    /// single-lane model exactly.
    pub schedule: QosSchedule,
}

impl ClosSpec {
    /// The degenerate single-switch topology: one rack with unbounded
    /// host slots and no spine layer — exactly the fabric every earlier
    /// PR simulated.
    pub fn single_rack() -> Self {
        ClosSpec {
            racks: 1,
            hosts_per_rack: u32::MAX,
            spines: 0,
            trunk_gbps: 0.0,
            trunk_prop: Nanos::ZERO,
            trunk_buffer_bytes: 0,
            ecmp_seed: 0,
            schedule: QosSchedule::Fifo,
        }
    }

    /// A multi-rack Clos with sensible trunk defaults: 100G trunks,
    /// 500 ns trunk propagation (cross-rack cabling is longer than
    /// in-rack), 4 MiB trunk egress buffers, FIFO dequeue.
    pub fn clos(racks: u32, hosts_per_rack: u32, spines: u32) -> Self {
        ClosSpec {
            racks,
            hosts_per_rack,
            spines,
            trunk_gbps: 100.0,
            trunk_prop: Nanos(500),
            trunk_buffer_bytes: 4 * 1024 * 1024,
            ecmp_seed: 0xEC3_70B0,
            schedule: QosSchedule::Fifo,
        }
    }

    /// Sets the trunk rate so the rack-level oversubscription ratio —
    /// aggregate host bandwidth over aggregate uplink bandwidth — is
    /// `ratio` given `host_gbps` NICs (builder style). `ratio` 1.0 is a
    /// non-blocking fabric; 4.0 means four hosts' worth of traffic
    /// funnels into one host's worth of uplink, the classic
    /// oversubscribed datacenter tier.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no spines or `ratio` is not positive.
    pub fn with_oversubscription(mut self, ratio: f64, host_gbps: f64) -> Self {
        assert!(self.spines > 0, "oversubscription needs a spine layer");
        assert!(ratio > 0.0, "ratio must be positive");
        self.trunk_gbps = self.hosts_per_rack as f64 * host_gbps / (self.spines as f64 * ratio);
        self
    }

    /// The rack-level oversubscription ratio this spec yields for
    /// `host_gbps` NICs, or `None` for a single-rack topology (which
    /// has no uplink tier to oversubscribe).
    pub fn oversubscription(&self, host_gbps: f64) -> Option<f64> {
        if self.spines == 0 || self.trunk_gbps <= 0.0 {
            return None;
        }
        Some(self.hosts_per_rack as f64 * host_gbps / (self.spines as f64 * self.trunk_gbps))
    }

    /// Total host slots.
    pub fn capacity(&self) -> u64 {
        self.racks as u64 * self.hosts_per_rack as u64
    }

    /// Validates and compiles the spec.
    pub fn compile(self) -> Result<Topology, TopologyError> {
        if self.racks == 0 || self.hosts_per_rack == 0 {
            return Err(TopologyError::Empty);
        }
        if self.racks > 1 {
            if self.spines == 0 {
                return Err(TopologyError::NoSpine);
            }
            if self.trunk_gbps <= 0.0 {
                return Err(TopologyError::BadTrunk);
            }
        }
        Ok(Topology { spec: self })
    }
}

impl Default for ClosSpec {
    fn default() -> Self {
        ClosSpec::single_rack()
    }
}

/// SplitMix64 finalizer — the ECMP mixing function. Pure (consumes no
/// RNG stream) and well-distributed over the low bits.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A compiled, validated topology. Cheap to clone; all methods are pure.
#[derive(Debug, Clone)]
pub struct Topology {
    spec: ClosSpec,
}

impl Topology {
    /// The spec this topology was compiled from.
    pub fn spec(&self) -> &ClosSpec {
        &self.spec
    }

    /// Number of racks (leaf switches).
    pub fn racks(&self) -> u32 {
        self.spec.racks
    }

    /// Number of spine switches.
    pub fn spines(&self) -> u32 {
        self.spec.spines
    }

    /// Total host slots.
    pub fn capacity(&self) -> u64 {
        self.spec.capacity()
    }

    /// The rack a host slot lives in.
    pub fn rack_of(&self, host: u32) -> u32 {
        host / self.spec.hosts_per_rack
    }

    /// The leaf switch a host hangs off.
    pub fn leaf_of(&self, host: u32) -> SwitchId {
        SwitchId::Leaf(self.rack_of(host))
    }

    /// True if both hosts hang off the same leaf.
    pub fn same_rack(&self, a: u32, b: u32) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// The ECMP spine pick for a flow, excluding spines whose trunk to
    /// either end's leaf is reported down by `trunk_down(leaf, spine)`.
    /// `salt` perturbs the hash (reroute-around-quarantine uses salt 1
    /// to land on a different equal-cost path). Returns `None` when the
    /// pair is rack-local (no spine crossing) or every candidate spine
    /// is unreachable.
    ///
    /// Surviving spines keep their *original* hash preference order:
    /// the pick is the hash index into the available set, so one trunk
    /// failure only remaps flows that hashed onto it (plus the modular
    /// shift), never the whole fabric.
    pub fn ecmp_spine(
        &self,
        src: u32,
        dst: u32,
        flow: u64,
        salt: u64,
        mut trunk_down: impl FnMut(u32, u32) -> bool,
    ) -> Option<u32> {
        if self.same_rack(src, dst) || self.spec.spines == 0 {
            return None;
        }
        let (src_rack, dst_rack) = (self.rack_of(src), self.rack_of(dst));
        let available: Vec<u32> = (0..self.spec.spines)
            .filter(|&s| !trunk_down(src_rack, s) && !trunk_down(dst_rack, s))
            .collect();
        if available.is_empty() {
            return None;
        }
        let h = mix(
            self.spec
                .ecmp_seed
                .wrapping_add(mix(u64::from(src) << 32 | u64::from(dst)))
                .wrapping_add(mix(flow))
                .wrapping_add(salt.wrapping_mul(0xA076_1D64_78BD_642F)),
        );
        Some(available[(h % available.len() as u64) as usize])
    }

    /// Where a `src -> dst` packet standing at switch `at` goes next —
    /// the one place that knows the fabric's shape. A leaf hands a
    /// packet for one of its own hosts to that host and sends any other
    /// up to the flow's [`Topology::ecmp_spine`]; a spine sends it down
    /// to the destination's leaf. `None` when no live trunk leads on:
    /// every candidate spine is unreachable, or the spine's trunk to
    /// the destination leaf is down (a failure after ECMP committed the
    /// flow to this spine).
    pub fn next_hop(
        &self,
        at: SwitchId,
        src: u32,
        dst: u32,
        flow: u64,
        salt: u64,
        mut trunk_down: impl FnMut(u32, u32) -> bool,
    ) -> Option<Node> {
        let dst_rack = self.rack_of(dst);
        match at {
            SwitchId::Leaf(rack) if rack == dst_rack => Some(Node::Host(dst)),
            SwitchId::Leaf(_) => self
                .ecmp_spine(src, dst, flow, salt, trunk_down)
                .map(|spine| Node::Switch(SwitchId::Spine(spine))),
            SwitchId::Spine(spine) => {
                (!trunk_down(dst_rack, spine)).then_some(Node::Switch(SwitchId::Leaf(dst_rack)))
            }
        }
    }

    /// The pseudo host id trace records stamped at `sw` carry, so
    /// cross-rack transport time is attributable per switch hop.
    /// Ordinal 0 (the first leaf) maps onto the legacy `FABRIC_HOST`
    /// id, keeping single-rack traces identical to the pre-topology
    /// fabric; later switches count down from it.
    pub fn trace_host(&self, sw: SwitchId) -> u32 {
        let ordinal = match sw {
            SwitchId::Leaf(r) => r,
            SwitchId::Spine(s) => self.spec.racks + s,
        };
        snap_sim::trace::FABRIC_HOST - ordinal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rack_is_degenerate() {
        let topo = ClosSpec::single_rack().compile().unwrap();
        assert_eq!((topo.racks(), topo.spines()), (1, 0));
        assert_eq!(topo.rack_of(0), 0);
        assert_eq!(topo.rack_of(41), 0);
        assert!(topo.same_rack(3, 1_000_000));
        assert_eq!(topo.ecmp_spine(0, 5, 7, 0, |_, _| false), None);
        assert_eq!(
            topo.trace_host(SwitchId::Leaf(0)),
            snap_sim::trace::FABRIC_HOST,
            "degenerate leaf stamps the legacy fabric pseudo-host"
        );
    }

    #[test]
    fn multi_rack_validation() {
        assert_eq!(
            ClosSpec { racks: 0, ..ClosSpec::clos(1, 1, 0) }.compile().unwrap_err(),
            TopologyError::Empty
        );
        assert_eq!(
            ClosSpec { spines: 0, ..ClosSpec::clos(3, 4, 2) }.compile().unwrap_err(),
            TopologyError::NoSpine
        );
        assert_eq!(
            ClosSpec { trunk_gbps: 0.0, ..ClosSpec::clos(3, 4, 2) }
                .compile()
                .unwrap_err(),
            TopologyError::BadTrunk
        );
        let topo = ClosSpec::clos(7, 6, 3).compile().unwrap();
        assert_eq!(topo.capacity(), 42);
        assert_eq!(topo.rack_of(0), 0);
        assert_eq!(topo.rack_of(6), 1);
        assert_eq!(topo.rack_of(41), 6);
        assert!(!topo.same_rack(5, 6));
        assert!(!topo.same_rack(0, 41));
    }

    #[test]
    fn ecmp_is_deterministic_and_flow_stable() {
        let topo = ClosSpec::clos(4, 4, 4).compile().unwrap();
        let up = |_: u32, _: u32| false;
        let a = topo.ecmp_spine(0, 5, 99, 0, up).unwrap();
        let b = topo.ecmp_spine(0, 5, 99, 0, up).unwrap();
        assert_eq!(a, b, "same flow, same path");
        // Different flows spread over spines.
        let picks: std::collections::BTreeSet<u32> = (0..64)
            .filter_map(|f| topo.ecmp_spine(0, 5, f, 0, up))
            .collect();
        assert!(picks.len() > 1, "ECMP must use path diversity: {picks:?}");
        // Salt lands elsewhere for at least some flows.
        assert!(
            (0..64).any(|f| topo.ecmp_spine(0, 5, f, 0, up) != topo.ecmp_spine(0, 5, f, 1, up)),
            "salted rehash must be able to move flows"
        );
    }

    #[test]
    fn ecmp_excludes_down_trunks() {
        let topo = ClosSpec::clos(2, 2, 3).compile().unwrap();
        // Spine 1 is down from rack 0's side.
        let down = |leaf: u32, spine: u32| leaf == 0 && spine == 1;
        for f in 0..64 {
            let s = topo.ecmp_spine(0, 3, f, 0, down).unwrap();
            assert_ne!(s, 1, "flow {f} routed onto a down trunk");
        }
        // All trunks down: no route.
        assert_eq!(topo.ecmp_spine(0, 3, 7, 0, |_, _| true), None);
        // Rack-local traffic never consults the spine layer.
        assert_eq!(topo.ecmp_spine(0, 1, 7, 0, |_, _| true), None);
    }

    #[test]
    fn next_hop_walks_leaf_spine_leaf() {
        let topo = ClosSpec::clos(2, 2, 3).compile().unwrap();
        let up = |_: u32, _: u32| false;
        // In-rack: the leaf hands the packet straight to the host.
        assert_eq!(topo.next_hop(SwitchId::Leaf(0), 0, 1, 7, 0, up), Some(Node::Host(1)));
        // Cross-rack: up to the ECMP spine, down to the far leaf, out.
        let spine = topo.ecmp_spine(0, 3, 7, 0, up).unwrap();
        let at_spine = SwitchId::Spine(spine);
        assert_eq!(topo.next_hop(SwitchId::Leaf(0), 0, 3, 7, 0, up), Some(Node::Switch(at_spine)));
        assert_eq!(topo.next_hop(at_spine, 0, 3, 7, 0, up), Some(Node::Switch(SwitchId::Leaf(1))));
        assert_eq!(topo.next_hop(SwitchId::Leaf(1), 0, 3, 7, 0, up), Some(Node::Host(3)));
        // A trunk that fails after ECMP committed strands the packet at
        // the spine; with every trunk down it never leaves its leaf.
        let far_side_down = |leaf: u32, s: u32| leaf == 1 && s == spine;
        assert_eq!(topo.next_hop(at_spine, 0, 3, 7, 0, far_side_down), None);
        assert_eq!(topo.next_hop(SwitchId::Leaf(0), 0, 3, 7, 0, |_, _| true), None);
        // The one-rack topology has only the first case.
        let one = ClosSpec::single_rack().compile().unwrap();
        assert_eq!(one.next_hop(SwitchId::Leaf(0), 0, 99, 7, 0, up), Some(Node::Host(99)));
    }

    #[test]
    fn oversubscription_math() {
        let spec = ClosSpec::clos(7, 6, 3).with_oversubscription(4.0, 50.0);
        let ratio = spec.oversubscription(50.0).unwrap();
        assert!((ratio - 4.0).abs() < 1e-9, "ratio {ratio}");
        assert!((spec.trunk_gbps - 25.0).abs() < 1e-9, "trunk {}", spec.trunk_gbps);
        let nonblocking = ClosSpec::clos(7, 6, 3).with_oversubscription(1.0, 50.0);
        assert!((nonblocking.trunk_gbps - 100.0).abs() < 1e-9);
        assert!(ClosSpec::single_rack().oversubscription(50.0).is_none());
    }

    #[test]
    fn trace_hosts_are_distinct_per_switch() {
        let topo = ClosSpec::clos(3, 2, 2).compile().unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for r in 0..3 {
            assert!(seen.insert(topo.trace_host(SwitchId::Leaf(r))));
        }
        for s in 0..2 {
            assert!(seen.insert(topo.trace_host(SwitchId::Spine(s))));
        }
    }
}
