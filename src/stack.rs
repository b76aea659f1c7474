//! The rack-wide wiring the §5 drivers put around the one message
//! contract.
//!
//! [`crate::rack`] (§5.2) and [`crate::pair`] (§5.1) each write their
//! workload once, over `snap_apps::transport`: applications send tagged
//! messages of a length on connections and poll for what arrived, each
//! through its own end — a `PonyEnd` over its own engine and client, or
//! a `TcpEnd` on its host's one kernel stack. What is left here is what
//! a driver needs beyond the contract: who dials whom, how a stream
//! maps onto connections, and a host's books. Every kernel-TCP end of a
//! rack reports into one inbox, so the drivers see its deliveries in
//! the order the kernel made them; a delivery names its connection, and
//! the driver's protocol says which end it reached.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use snap_apps::transport::{Backend, PonyEnd, TcpEnd, Transport, TransportEvent};
use snap_core::group::GroupCpu;
use snap_pony::PonyEngineConfig;
use snap_shm::region::RegionId;
use snap_sim::{Nanos, Sim};
use snap_tcp::stack::TcpConfig;

use crate::testbed::Testbed;

/// A polled application thread's period, µs: it spins, as the paper's
/// prober does, and sees a completion within 1 µs of it.
pub(crate) const POLL_US: u64 = 1;
/// Setup (connections, receive-buffer posts) settles for this long
/// before a driver starts its clock, so its CPU is not the window's.
pub(crate) const SETTLE: Nanos = Nanos::from_micros(50);
/// Receive buffers posted at the end where large messages land: one a
/// message, more than any run delivers.
const RECV_BUFFERS: u32 = 1 << 30;

/// An application: `(host, app)`.
pub(crate) type App = (usize, usize);
/// One stream of [`Ends::streams`]: `(conn, tag)`.
pub(crate) type Lane = (u64, u32);

/// One end per application: host `h`'s application `a` is end
/// `h * apps + a`.
enum Kind {
    Pony(Vec<PonyEnd>),
    Tcp(Vec<TcpEnd>),
}

/// The same number of applications on every host of a testbed, one end
/// each, on one stack.
pub(crate) struct Ends {
    apps: usize,
    ends: Kind,
    /// A connection's ends: the one that dialed it, the one that
    /// accepted it.
    sides: BTreeMap<u64, [usize; 2]>,
}

impl Ends {
    /// `apps` applications on every host of `tb`, each on its own Pony
    /// engine built by `engine`.
    pub(crate) fn pony(
        tb: &mut Testbed,
        apps: usize,
        engine: impl Fn(&mut PonyEngineConfig),
    ) -> Self {
        let ends = (0..tb.hosts.len() * apps)
            .map(|i| PonyEnd::new(tb.pony_app(i / apps, &format!("app{}", i % apps), &engine)))
            .collect();
        Ends::new(apps, Kind::Pony(ends))
    }

    /// `apps` applications on every host of `tb`, all on the host's
    /// kernel stack, built by `cfg`, and all reporting into one inbox.
    pub(crate) fn tcp(tb: &mut Testbed, apps: usize, cfg: TcpConfig) -> Self {
        let inbox: Rc<RefCell<Vec<TransportEvent>>> = Rc::default();
        let ends = (0..tb.hosts.len() * apps)
            .map(|i| TcpEnd::new(tb.tcp_host(i / apps, cfg.clone()), inbox.clone()))
            .collect();
        Ends::new(apps, Kind::Tcp(ends))
    }

    fn new(apps: usize, ends: Kind) -> Self {
        let sides = BTreeMap::new();
        Ends { apps, ends, sides }
    }

    fn end(&mut self, end: usize) -> &mut dyn Transport {
        match &mut self.ends {
            Kind::Pony(ends) => &mut ends[end],
            Kind::Tcp(ends) => &mut ends[end],
        }
    }

    /// Connects two applications; the id is valid at both ends. The
    /// dialing end is where a connection's large messages (the rack's
    /// responses) land: Pony posts receive buffers there, once, and
    /// small messages ride credits; the kernel buffers for itself.
    pub(crate) fn connect(&mut self, tb: &mut Testbed, from: App, to: App) -> u64 {
        let backend = match self.ends {
            Kind::Pony(_) => Backend::Pony,
            Kind::Tcp(_) => Backend::Tcp,
        };
        let name = |(_, app): App| format!("app{app}");
        let conn = tb.dial(backend, (from.0, &name(from)), (to.0, &name(to)));
        let sides = [from, to].map(|(host, app)| host * self.apps + app);
        self.sides.insert(conn, sides);
        for end in sides {
            self.end(end).open(conn);
        }
        if let Kind::Pony(ends) = &mut self.ends {
            ends[sides[0]].post_recv_buffers(&mut tb.sim, conn, RECV_BUFFERS);
        }
        conn
    }

    /// The host that accepted `conn`.
    pub(crate) fn accepter(&self, conn: u64) -> usize {
        self.sides[&conn][1] / self.apps
    }

    /// The end of `conn` on `host`: the dialing one, unless that is
    /// elsewhere.
    fn side(&self, host: usize, conn: u64) -> usize {
        let sides = self.sides[&conn];
        sides[usize::from(sides[0] / self.apps != host)]
    }

    /// `n` independent one-way streams `from` → `to`: a stream id each
    /// on one connection where the stack multiplexes them (Pony), a
    /// connection each where it does not (kernel TCP) — as Table 1 has
    /// it.
    pub(crate) fn streams(&mut self, tb: &mut Testbed, from: App, to: App, n: u32) -> Vec<Lane> {
        match self.ends {
            // The receiver dials: its end is where the messages land.
            Kind::Pony(_) => {
                let conn = self.connect(tb, to, from);
                (0..n).map(|stream| (conn, stream)).collect()
            }
            Kind::Tcp(_) => (0..n).map(|_| (self.connect(tb, from, to), 0)).collect(),
        }
    }

    /// Sends a `len`-byte message tagged `tag` on `conn` from its end
    /// on `host`.
    pub(crate) fn send(&mut self, sim: &mut Sim, host: usize, conn: u64, tag: u32, len: u64) {
        let end = self.side(host, conn);
        self.end(end).send(sim, conn, tag, len);
    }

    /// Appends every event since the last call, end by end: what
    /// arrived, and each send's outcome.
    pub(crate) fn drain(&mut self, now: Nanos, out: &mut Vec<TransportEvent>) {
        match &mut self.ends {
            Kind::Pony(ends) => ends.iter_mut().for_each(|end| end.poll(now, out)),
            Kind::Tcp(ends) => ends.iter_mut().for_each(|end| end.poll(now, out)),
        }
    }

    /// `host`'s books so far: the stack's CPU — a Pony group's, or the
    /// kernel's syscalls, copies, softirqs and context switches as
    /// `engine` (it holds no core idle) — and, where the stack counts
    /// them (kernel TCP), the segments sent and their
    /// `TcpHost::stream_seg_sum`.
    pub(crate) fn usage(&self, tb: &mut Testbed, host: usize) -> (GroupCpu, u64, u64) {
        if let Kind::Pony(_) = self.ends {
            return (tb.host_cpu(host), 0, 0);
        }
        let stack = tb.kernel(host);
        let cpu = GroupCpu {
            engine: stack.cpu_busy(),
            ..GroupCpu::default()
        };
        (cpu, stack.stats().segs_sent, stack.stream_seg_sum())
    }

    /// Reads `len` bytes of `region`, the peer application's memory,
    /// over `conn`, one-sided, from its end on `host`; the data arrives
    /// there through `drain`, as a message tagged `tag`.
    ///
    /// # Panics
    ///
    /// Panics on kernel TCP, which has no one-sided operations.
    pub(crate) fn read(
        &mut self,
        sim: &mut Sim,
        host: usize,
        conn: u64,
        region: RegionId,
        tag: u32,
        len: u32,
    ) {
        let end = self.side(host, conn);
        let Kind::Pony(ends) = &mut self.ends else {
            panic!("kernel TCP has no one-sided operations");
        };
        ends[end].read(sim, conn, region.0, len, tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A stream is a connection on kernel TCP, a stream id on one
    /// connection on Pony.
    #[test]
    fn two_hundred_streams_are_200_connections_on_tcp_and_one_on_pony() {
        // Lanes, distinct lanes, distinct connections.
        let count = |lanes: Vec<(u64, u32)>| {
            let conns: BTreeSet<u64> = lanes.iter().map(|lane| lane.0).collect();
            let distinct: BTreeSet<&(u64, u32)> = lanes.iter().collect();
            (lanes.len(), distinct.len(), conns.len())
        };
        let mut tb = Testbed::pair();
        let mut tcp = Ends::tcp(&mut tb, 1, TcpConfig::default());
        assert_eq!(
            count(tcp.streams(&mut tb, (0, 0), (1, 0), 200)),
            (200, 200, 200)
        );
        let mut tb = Testbed::pair();
        let mut pony = Ends::pony(&mut tb, 1, |_| {});
        assert_eq!(
            count(pony.streams(&mut tb, (0, 0), (1, 0), 200)),
            (200, 200, 1)
        );
    }
}
