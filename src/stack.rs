//! The message-level contract the §5 drivers run on, and the two
//! stacks behind it.
//!
//! [`crate::rack`] (§5.2) and [`crate::pair`] (§5.1) each write their
//! workload once, over `MessageStack`: applications that connect, send
//! tagged messages of a length and poll for what arrived. Snap/Pony and
//! the kernel-TCP baseline differ only behind it. (Not the sockets
//! facade's `Transport`: that one spends Pony's stream id on its chunk
//! sequence and cuts at 4 kB, and §5 measures the engine, not the
//! byte-stream facade.)

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use snap_core::group::GroupCpu;
use snap_pony::client::{PonyClient, PonyCommand, PonyCompletion};
use snap_pony::PonyEngineConfig;
use snap_shm::region::{AccessMode, RegionId};
use snap_sim::{Nanos, Sim};
use snap_tcp::stack::{TcpConfig, TcpHost};

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

/// A message an application received: `(host, conn, tag, len)`. The tag
/// travels beside the length: Pony's stream id, the low half of kernel
/// TCP's message id.
pub(crate) type Message = (usize, u64, u32, u64);
/// An application: `(host, app)`.
pub(crate) type App = (usize, usize);

/// What a driver needs of a stack.
pub(crate) trait MessageStack {
    /// Connects two applications; the id is valid at both ends. The
    /// dialing end is where a connection's large messages land (the
    /// rack's responses): receive buffers are posted there, once, and
    /// small messages ride credits. The kernel buffers for itself.
    fn connect(&mut self, tb: &mut Testbed, from: App, to: App) -> u64;
    /// `n` independent one-way streams `from` → `to`, as `(conn, tag)`:
    /// a stream id each on one connection where the stack multiplexes
    /// them (Pony), a connection each where it does not (kernel TCP) —
    /// as Table 1 has it.
    fn streams(&mut self, tb: &mut Testbed, from: App, to: App, n: u32) -> Vec<(u64, u32)>;
    /// Sends a `len`-byte message tagged `tag` on `conn` from its end
    /// on `host`.
    fn send(&mut self, sim: &mut Sim, host: usize, conn: u64, tag: u32, len: u64);
    /// Appends what arrived since the last call.
    fn drain(&mut self, out: &mut Vec<Message>);
    /// `host`'s books so far: the stack's CPU — a Pony group's, or the
    /// kernel's syscalls, copies, softirqs and context switches as
    /// `engine` (it holds no core idle) — and, where the stack counts
    /// them (kernel TCP), the segments sent and their
    /// `TcpHost::stream_seg_sum`.
    fn usage(&mut self, tb: &mut Testbed, host: usize) -> (GroupCpu, u64, u64);
}

/// Snap/Pony: one engine and client per application, message ops.
pub(crate) struct PonyStack {
    /// Applications per host.
    apps: usize,
    /// Host `h`'s application `a` is client `h * apps + a`.
    clients: Vec<PonyClient>,
    /// `(host, conn)` → the client holding that end, and its peer's.
    ends: BTreeMap<(usize, u64), (usize, usize)>,
    /// The memory a client serves to one-sided reads, registered at the
    /// first.
    served: BTreeMap<usize, RegionId>,
    /// Reads in flight: `(client, op)` → `(conn, tag)`.
    reads: BTreeMap<(usize, u64), (u64, u32)>,
}

impl PonyStack {
    /// `apps` applications on every host of `tb`, each engine built by
    /// `configure`.
    pub(crate) fn new(
        tb: &mut Testbed,
        apps: usize,
        configure: impl Fn(&mut PonyEngineConfig),
    ) -> Self {
        let clients = (0..tb.hosts.len() * apps)
            .map(|i| tb.pony_app(i / apps, &format!("app{}", i % apps), &configure))
            .collect();
        PonyStack {
            apps,
            clients,
            ends: BTreeMap::new(),
            served: BTreeMap::new(),
            reads: BTreeMap::new(),
        }
    }

    fn client(&mut self, host: usize, conn: u64) -> &mut PonyClient {
        &mut self.clients[self.ends[&(host, conn)].0]
    }

    /// Reads `len` bytes of the peer application's memory over `conn`,
    /// one-sided, from its end on `host`; the data arrives there
    /// through `drain`, as a message tagged `tag`.
    pub(crate) fn read(&mut self, tb: &mut Testbed, host: usize, conn: u64, tag: u32, len: u32) {
        let (client, server) = self.ends[&(host, conn)];
        let region = *self.served.entry(server).or_insert_with(|| {
            let owner = format!("app{}", server % self.apps);
            let memory = vec![7; len as usize];
            tb.hosts[server / self.apps]
                .regions
                .register_with(&owner, memory, AccessMode::ReadOnly)
        });
        let read = PonyCommand::Read {
            conn,
            region: region.0,
            offset: 0,
            len,
        };
        let op = self.clients[client].submit(&mut tb.sim, read);
        self.reads.insert((client, op), (conn, tag));
    }
}

impl MessageStack for PonyStack {
    fn connect(&mut self, tb: &mut Testbed, from: App, to: App) -> u64 {
        let name = |end: App| format!("app{}", end.1);
        let conn = tb.connect(from.0, &name(from), to.0, &name(to));
        let client = |end: App| end.0 * self.apps + end.1;
        self.ends.insert((from.0, conn), (client(from), client(to)));
        self.ends.insert((to.0, conn), (client(to), client(from)));
        let count = RECV_BUFFERS;
        self.client(from.0, conn)
            .submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count });
        conn
    }

    fn streams(&mut self, tb: &mut Testbed, from: App, to: App, n: u32) -> Vec<(u64, u32)> {
        // The receiver dials: its end is where the messages land.
        let conn = self.connect(tb, to, from);
        (0..n).map(|stream| (conn, stream)).collect()
    }

    fn send(&mut self, sim: &mut Sim, host: usize, conn: u64, stream: u32, len: u64) {
        self.client(host, conn)
            .submit(sim, PonyCommand::Send { conn, stream, len });
    }

    fn drain(&mut self, out: &mut Vec<Message>) {
        for (i, client) in self.clients.iter_mut().enumerate() {
            for c in client.take_completions() {
                match c {
                    PonyCompletion::RecvMsg {
                        conn, stream, len, ..
                    } => out.push((i / self.apps, conn, stream, len)),
                    PonyCompletion::OpDone { op, data, .. } => {
                        if let Some((conn, tag)) = self.reads.remove(&(i, op)) {
                            out.push((i / self.apps, conn, tag, data.len() as u64));
                        }
                    }
                }
            }
        }
    }

    fn usage(&mut self, tb: &mut Testbed, host: usize) -> (GroupCpu, u64, u64) {
        (tb.host_cpu(host), 0, 0)
    }
}

/// Kernel TCP: one stack per host, every application's connections on
/// it; delivered messages land in one inbox the applications poll, each
/// after the wake or the spin (`TcpConfig::busy_poll`) that hands it to
/// its thread.
pub(crate) struct TcpStack {
    hosts: Vec<TcpHost>,
    inbox: Rc<RefCell<Vec<Message>>>,
    /// Message ids must be unique per connection and direction.
    next_msg: u64,
}

impl TcpStack {
    /// A kernel stack configured by `cfg` on every host of `tb`.
    pub(crate) fn new(tb: &mut Testbed, cfg: TcpConfig) -> Self {
        let inbox: Rc<RefCell<Vec<Message>>> = Rc::default();
        let hosts = (0..tb.hosts.len())
            .map(|host| {
                let stack = tb.tcp_host(host, cfg.clone());
                let inbox = inbox.clone();
                stack.on_message(Rc::new(move |_sim, conn, msg, len| {
                    inbox.borrow_mut().push((host, conn, msg as u32, len));
                }));
                stack
            })
            .collect();
        TcpStack {
            hosts,
            inbox,
            next_msg: 0,
        }
    }
}

impl MessageStack for TcpStack {
    fn connect(&mut self, tb: &mut Testbed, from: App, to: App) -> u64 {
        // The passive end materializes on the first packet, and only
        // ever answers.
        self.hosts[from.0].connect(tb.hosts[to.0].id)
    }

    fn streams(&mut self, tb: &mut Testbed, from: App, to: App, n: u32) -> Vec<(u64, u32)> {
        (0..n).map(|_| (self.connect(tb, from, to), 0)).collect()
    }

    fn send(&mut self, sim: &mut Sim, host: usize, conn: u64, tag: u32, len: u64) {
        self.next_msg += 1;
        self.hosts[host].send(sim, conn, self.next_msg << 32 | tag as u64, len);
    }

    fn drain(&mut self, out: &mut Vec<Message>) {
        out.append(&mut self.inbox.borrow_mut());
    }

    fn usage(&mut self, _tb: &mut Testbed, host: usize) -> (GroupCpu, u64, u64) {
        let stack = &self.hosts[host];
        let cpu = GroupCpu {
            engine: stack.cpu_busy(),
            ..GroupCpu::default()
        };
        (cpu, stack.stats().segs_sent, stack.stream_seg_sum())
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
        let mut tcp = TcpStack::new(&mut tb, TcpConfig::default());
        assert_eq!(
            count(tcp.streams(&mut tb, (0, 0), (1, 0), 200)),
            (200, 200, 200)
        );
        let mut tb = Testbed::pair();
        let mut pony = PonyStack::new(&mut tb, 1, |_| {});
        assert_eq!(
            count(pony.streams(&mut tb, (0, 0), (1, 0), 200)),
            (200, 200, 1)
        );
    }
}
