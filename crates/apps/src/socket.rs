//! The POSIX-flavored byte-stream facade.
//!
//! A [`SocketHost`] is one application's socket endpoint on a host,
//! backed by a [`Transport`]. [`SnapSocket`] handles give byte-stream
//! `send` / `try_recv` / `recv_deadline` semantics; [`Listener`]
//! surfaces inbound connections. Connection setup is testbed-mediated
//! (see [`wire`]): the harness dials both stacks, then wires the two
//! facade endpoints together — the client gets its socket immediately
//! and the server's listener queues the peer socket for `accept`.
//!
//! Streams are cut into seq-numbered chunks of at most
//! [`CHUNK_BYTES`]; the receive side reorders by seq and deduplicates,
//! so out-of-order completion (TCP message reassembly) and transport
//! retries surface to the application as an in-order, exactly-once
//! byte stream. All deadlines are **virtual time** ([`Nanos`]) driven
//! through a [`SimPump`] — the facade never reads a wall clock.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use snap_sim::hash::IntMap;
use snap_sim::{Nanos, Sim};

use crate::transport::{Backend, Transport, TransportEvent, CHUNK_BYTES};
use crate::workload::{poll_until, POLL_SLICE_US};
use crate::SimPump;

/// Max chunks a socket keeps in flight before further stream bytes
/// wait in its local queue. Kept under the Pony engine's per-conn
/// shared credit pool so small-message credits self-clock the flow.
const WINDOW_CHUNKS: usize = 32;

/// Backoff before resubmitting a Busy-rejected chunk.
const BUSY_BACKOFF: Nanos = Nanos(20_000);

/// Facade errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketError {
    /// The two endpoints were built on different backends.
    BackendMismatch,
    /// The connection id is not registered on this socket host.
    NotConnected,
    /// A deadline receive ran out of virtual time.
    TimedOut,
    /// The transport reported a terminal failure on this connection.
    TransportFailed,
}

impl std::fmt::Display for SocketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SocketError::BackendMismatch => "backend mismatch between endpoints",
            SocketError::NotConnected => "unknown connection",
            SocketError::TimedOut => "deadline exceeded (virtual time)",
            SocketError::TransportFailed => "transport failure",
        };
        f.write_str(s)
    }
}

impl std::error::Error for SocketError {}

/// Counters for one facade host, used by tests to assert exactly-once
/// chunk delivery under faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocketStats {
    /// Chunks submitted to the transport (excluding Busy retries).
    pub chunks_tx: u64,
    /// Chunks delivered in order to stream buffers.
    pub chunks_rx: u64,
    /// Duplicate deliveries dropped by seq dedup.
    pub dup_chunks: u64,
    /// Busy-rejected submissions that were backed off and retried.
    pub busy_retries: u64,
}

/// Real payload bytes for in-flight chunks by seq, shared between the
/// two endpoints of a connection direction (both stacks model payloads
/// by length only, so actual bytes bypass the wire).
type Ledger = Rc<RefCell<IntMap<u64, Vec<u8>>>>;

/// One connection's end of the stream. A payload byte is in exactly
/// one place at a time — `tx_wait`, a ledger chunk, `rx_pending`,
/// `rx_chunks` — and moves between them a slice or a whole chunk at a
/// time, so each holds no more than what is in flight.
#[derive(Default)]
struct SockState {
    /// Where this socket's outbound payload bytes are parked until the
    /// peer's chunk delivery claims them.
    tx_ledger: Ledger,
    /// Where the peer parks bytes destined for this socket.
    rx_ledger: Ledger,
    /// Stream bytes accepted by `send` but not yet cut into chunks
    /// (facade window full): `tx_wait[tx_cut..]`. The cut prefix is
    /// dropped in `flush`.
    tx_wait: Vec<u8>,
    tx_cut: usize,
    next_tx_seq: u64,
    /// Chunks submitted and not yet acknowledged: seq -> len.
    inflight: BTreeMap<u64, u64>,
    /// Busy-rejected chunks awaiting their backoff: (retry at, seq, len).
    retry: VecDeque<(Nanos, u64, u64)>,
    /// Delivered chunks ahead of the in-order frontier.
    rx_pending: BTreeMap<u64, Vec<u8>>,
    next_rx_seq: u64,
    /// In-order chunks awaiting application `recv`, as they were cut;
    /// the front one has been read up to `rx_read`.
    rx_chunks: VecDeque<Vec<u8>>,
    rx_read: usize,
    broken: Option<SocketError>,
}

impl SockState {
    fn new(tx_ledger: Ledger, rx_ledger: Ledger) -> Self {
        SockState {
            tx_ledger,
            rx_ledger,
            ..SockState::default()
        }
    }

    fn on_delivered(&mut self, seq: u64, stats: &mut SocketStats) {
        // Claiming the payload from the ledger is the dedup point: a
        // duplicate delivery finds nothing to claim.
        let payload = self.rx_ledger.borrow_mut().remove(&seq);
        let Some(bytes) = payload else {
            stats.dup_chunks += 1;
            return;
        };
        if seq < self.next_rx_seq || self.rx_pending.contains_key(&seq) {
            stats.dup_chunks += 1;
            return;
        }
        self.rx_pending.insert(seq, bytes);
        while let Some(bytes) = self.rx_pending.remove(&self.next_rx_seq) {
            self.rx_chunks.push_back(bytes);
            self.next_rx_seq += 1;
            stats.chunks_rx += 1;
        }
    }

    /// Busy retries whose backoff elapsed re-enter under the same seq
    /// (identity preserved — see transport module docs).
    fn retry_due(&mut self, sim: &mut Sim, transport: &mut dyn Transport, conn: u64) {
        let now = sim.now();
        while let Some(&(at, seq, len)) = self.retry.front() {
            if at > now {
                return;
            }
            self.retry.pop_front();
            self.inflight.insert(seq, len);
            transport.send_chunk(sim, conn, seq, len);
        }
    }

    /// Cuts waiting stream bytes into chunks while the window allows.
    fn flush(
        &mut self,
        sim: &mut Sim,
        transport: &mut dyn Transport,
        stats: &mut SocketStats,
        conn: u64,
    ) {
        while self.tx_cut < self.tx_wait.len()
            && self.inflight.len() + self.retry.len() < WINDOW_CHUNKS
        {
            let waiting = &self.tx_wait[self.tx_cut..];
            let bytes = waiting[..waiting.len().min(CHUNK_BYTES)].to_vec();
            self.tx_cut += bytes.len();
            let seq = self.next_tx_seq;
            self.next_tx_seq += 1;
            let len = bytes.len() as u64;
            self.tx_ledger.borrow_mut().insert(seq, bytes);
            self.inflight.insert(seq, len);
            stats.chunks_tx += 1;
            transport.send_chunk(sim, conn, seq, len);
        }
        // Drop the cut prefix once it is at least as long as what still
        // waits: the move is paid for by the bytes already cut, and the
        // buffer stays within twice what waits.
        if self.tx_cut >= self.tx_wait.len() - self.tx_cut {
            self.tx_wait.drain(..self.tx_cut);
            self.tx_cut = 0;
        }
    }

    /// Hands up to `max` in-order bytes to `sink`, a piece of one chunk
    /// at a time; returns how many.
    fn read(&mut self, max: usize, mut sink: impl FnMut(&[u8])) -> usize {
        let mut n = 0;
        while n < max {
            let Some(chunk) = self.rx_chunks.front() else {
                break;
            };
            let unread = &chunk[self.rx_read..];
            let take = unread.len().min(max - n);
            sink(&unread[..take]);
            n += take;
            if take == unread.len() {
                self.rx_chunks.pop_front();
                self.rx_read = 0;
            } else {
                self.rx_read += take;
            }
        }
        n
    }
}

struct HostInner {
    backend: Backend,
    transport: Box<dyn Transport>,
    /// Keyed in ascending connection id: the order `pump` serves them
    /// in, and so the order their chunks reach the transport.
    socks: BTreeMap<u64, SockState>,
    accept_q: VecDeque<u64>,
    stats: SocketStats,
    scratch: Vec<TransportEvent>,
}

impl HostInner {
    /// Drains transport completions, routes them, fires due retries and
    /// flushes waiting stream bytes. The single pump everything else
    /// calls.
    fn pump(&mut self, sim: &mut Sim) {
        let HostInner {
            transport,
            socks,
            stats,
            scratch,
            ..
        } = self;
        let now = sim.now();
        transport.poll(now, scratch);
        for ev in scratch.drain(..) {
            match ev {
                TransportEvent::Delivered { conn, seq } => {
                    if let Some(s) = socks.get_mut(&conn) {
                        s.on_delivered(seq, stats);
                    }
                }
                TransportEvent::SendDone { conn, seq } => {
                    if let Some(s) = socks.get_mut(&conn) {
                        s.inflight.remove(&seq);
                    }
                }
                TransportEvent::SendBusy { conn, seq } => {
                    stats.busy_retries += 1;
                    if let Some(s) = socks.get_mut(&conn) {
                        if let Some(len) = s.inflight.remove(&seq) {
                            s.retry.push_back((now + BUSY_BACKOFF, seq, len));
                        }
                    }
                }
                TransportEvent::SendFailed { conn, .. } => {
                    if let Some(s) = socks.get_mut(&conn) {
                        s.broken = Some(SocketError::TransportFailed);
                    }
                }
            }
        }
        for (&conn, s) in socks.iter_mut() {
            s.retry_due(sim, transport.as_mut(), conn);
            s.flush(sim, transport.as_mut(), stats, conn);
        }
    }

    /// Pumps, then looks `conn` up: how every receive begins.
    fn pumped(&mut self, sim: &mut Sim, conn: u64) -> Result<&mut SockState, SocketError> {
        self.pump(sim);
        self.socks.get_mut(&conn).ok_or(SocketError::NotConnected)
    }
}

/// One application's facade endpoint on a host.
#[derive(Clone)]
pub struct SocketHost {
    inner: Rc<RefCell<HostInner>>,
}

impl SocketHost {
    /// Builds the endpoint over a backend transport. Harness-facing;
    /// applications receive ready-made hosts from the testbed.
    pub fn new(transport: Box<dyn Transport>) -> Self {
        let backend = transport.backend();
        SocketHost {
            inner: Rc::new(RefCell::new(HostInner {
                backend,
                transport,
                socks: BTreeMap::new(),
                accept_q: VecDeque::new(),
                stats: SocketStats::default(),
                scratch: Vec::new(),
            })),
        }
    }

    /// The backend carrying this endpoint's traffic.
    pub fn backend(&self) -> Backend {
        self.inner.borrow().backend
    }

    /// The inbound-connection listener for this endpoint.
    pub fn listener(&self) -> Listener {
        Listener {
            inner: self.inner.clone(),
        }
    }

    /// Drives the endpoint: drains transport completions, fires due
    /// Busy retries, flushes waiting stream bytes.
    pub fn poll(&self, sim: &mut Sim) {
        self.inner.borrow_mut().pump(sim);
    }

    /// Counters snapshot.
    pub fn stats(&self) -> SocketStats {
        self.inner.borrow().stats
    }
}

/// Accepts inbound facade connections on a [`SocketHost`].
pub struct Listener {
    inner: Rc<RefCell<HostInner>>,
}

impl Listener {
    /// Takes the next queued inbound connection, if any. Non-blocking.
    pub fn accept(&self) -> Option<SnapSocket> {
        let conn = self.inner.borrow_mut().accept_q.pop_front()?;
        Some(SnapSocket {
            inner: self.inner.clone(),
            conn,
        })
    }
}

/// A connected byte-stream handle.
#[derive(Clone)]
pub struct SnapSocket {
    inner: Rc<RefCell<HostInner>>,
    conn: u64,
}

impl SnapSocket {
    /// The underlying transport connection id.
    pub fn conn(&self) -> u64 {
        self.conn
    }

    /// The backend carrying this socket.
    pub fn backend(&self) -> Backend {
        self.inner.borrow().backend
    }

    /// Queues `data` on the stream. Never blocks: bytes beyond the
    /// transport window wait locally and drain as acks free it.
    pub fn send(&self, sim: &mut Sim, data: &[u8]) -> Result<(), SocketError> {
        let mut inner = self.inner.borrow_mut();
        let HostInner {
            transport,
            socks,
            stats,
            ..
        } = &mut *inner;
        let s = socks.get_mut(&self.conn).ok_or(SocketError::NotConnected)?;
        if let Some(err) = s.broken {
            return Err(err);
        }
        s.tx_wait.extend_from_slice(data);
        s.flush(sim, transport.as_mut(), stats, self.conn);
        Ok(())
    }

    /// Non-blocking receive: polls the endpoint once and copies up to
    /// `buf.len()` in-order bytes. `Ok(0)` means no data right now.
    pub fn try_recv(&self, sim: &mut Sim, buf: &mut [u8]) -> Result<usize, SocketError> {
        let mut inner = self.inner.borrow_mut();
        let s = inner.pumped(sim, self.conn)?;
        let mut at = 0;
        let n = s.read(buf.len(), |part| {
            buf[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        });
        match s.broken {
            Some(err) if n == 0 => Err(err),
            _ => Ok(n),
        }
    }

    /// Non-blocking receive of everything there is: polls the endpoint
    /// once and lends every in-order byte to `sink`, a piece of one
    /// chunk at a time, without copying it. Fails, after `sink` has
    /// seen the bytes, if the connection is broken. `sink` must not
    /// call back into this socket's host.
    pub(crate) fn recv_all(
        &self,
        sim: &mut Sim,
        sink: impl FnMut(&[u8]),
    ) -> Result<(), SocketError> {
        let mut inner = self.inner.borrow_mut();
        let s = inner.pumped(sim, self.conn)?;
        s.read(usize::MAX, sink);
        s.broken.map_or(Ok(()), Err)
    }

    /// Blocking-style receive with a **virtual-time** deadline: pumps
    /// the simulation until at least one byte is available or `timeout`
    /// of sim-time elapses. Returns the bytes copied.
    pub fn recv_deadline(
        &self,
        pump: &mut dyn SimPump,
        buf: &mut [u8],
        timeout: Nanos,
    ) -> Result<usize, SocketError> {
        poll_until(pump, POLL_SLICE_US, timeout, |sim| {
            let n = self.try_recv(sim, buf)?;
            Ok((n > 0).then_some(n))
        })?
        .ok_or(SocketError::TimedOut)
    }

    /// Receives exactly `buf.len()` bytes or fails with `TimedOut`
    /// when the virtual-time budget runs out first.
    pub fn recv_exact_deadline(
        &self,
        pump: &mut dyn SimPump,
        buf: &mut [u8],
        timeout: Nanos,
    ) -> Result<(), SocketError> {
        // Nothing to wait for, so not even one poll of the endpoint.
        if buf.is_empty() {
            return Ok(());
        }
        let mut filled = 0;
        poll_until(pump, POLL_SLICE_US, timeout, |sim| {
            filled += self.try_recv(sim, &mut buf[filled..])?;
            Ok((filled == buf.len()).then_some(()))
        })?
        .ok_or(SocketError::TimedOut)
    }
}

/// Wires two facade endpoints over an already-dialed transport
/// connection `conn` (valid at both stacks). Returns the client-side
/// socket; the server side lands in `b`'s listener queue. Fails if the
/// endpoints' backends differ.
pub fn wire(a: &SocketHost, b: &SocketHost, conn: u64) -> Result<SnapSocket, SocketError> {
    if a.backend() != b.backend() {
        return Err(SocketError::BackendMismatch);
    }
    let ab = Ledger::default();
    let ba = Ledger::default();
    {
        let mut ia = a.inner.borrow_mut();
        ia.socks
            .insert(conn, SockState::new(ab.clone(), ba.clone()));
        ia.transport.register_conn(conn);
    }
    {
        let mut ib = b.inner.borrow_mut();
        ib.socks.insert(conn, SockState::new(ba, ab));
        ib.transport.register_conn(conn);
        ib.accept_q.push_back(conn);
    }
    Ok(SnapSocket {
        inner: a.inner.clone(),
        conn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One direction between two [`Recording`] transports: the log of
    /// what the sending side was handed, the knobs a test steers it
    /// with, and the deliveries on their way to the receiving side.
    #[derive(Default)]
    struct Wire {
        /// Chunks in the order `send_chunk` saw them: (conn, seq, len).
        handed: Vec<(u64, u64, u64)>,
        /// Acks released to the sender so far.
        acked: usize,
        /// Busy bounces reported to the sender so far: (seq, len).
        busy: Vec<(u64, u64)>,
        /// While set, acks are withheld (the window stays shut).
        hold_acks: bool,
        /// The next this-many submissions bounce with `SendBusy`.
        bounce_next: u64,
        /// While set, each poll hands its deliveries over last first.
        reverse: bool,
        /// Deliveries the receiving side's next poll reports.
        arriving: Vec<TransportEvent>,
    }

    type SharedWire = Rc<RefCell<Wire>>;

    /// A transport that logs every chunk it is handed, delivers it to
    /// the peer's next poll, and acknowledges or bounces it at its own
    /// next poll as its [`Wire`] says.
    struct Recording {
        tx: SharedWire,
        rx: SharedWire,
        unacked: Vec<(u64, u64)>,
        bounced: Vec<(u64, u64, u64)>,
    }

    impl Transport for Recording {
        fn backend(&self) -> Backend {
            Backend::Pony
        }
        fn register_conn(&mut self, _conn: u64) {}
        fn send_chunk(&mut self, _sim: &mut Sim, conn: u64, seq: u64, len: u64) {
            let mut w = self.tx.borrow_mut();
            w.handed.push((conn, seq, len));
            if w.bounce_next > 0 {
                w.bounce_next -= 1;
                self.bounced.push((conn, seq, len));
            } else {
                self.unacked.push((conn, seq));
                w.arriving.push(TransportEvent::Delivered { conn, seq });
            }
        }
        fn poll(&mut self, _now: Nanos, out: &mut Vec<TransportEvent>) {
            let mut w = self.tx.borrow_mut();
            for (conn, seq, len) in self.bounced.drain(..) {
                w.busy.push((seq, len));
                out.push(TransportEvent::SendBusy { conn, seq });
            }
            if !w.hold_acks {
                w.acked += self.unacked.len();
                let acks = self.unacked.drain(..);
                out.extend(acks.map(|(conn, seq)| TransportEvent::SendDone { conn, seq }));
            }
            drop(w);
            let mut r = self.rx.borrow_mut();
            if r.reverse {
                r.arriving.reverse();
            }
            out.append(&mut r.arriving);
        }
    }

    /// A host whose transport sends on `tx` and receives from `rx`.
    fn recording_host(tx: &SharedWire, rx: &SharedWire) -> SocketHost {
        SocketHost::new(Box::new(Recording {
            tx: tx.clone(),
            rx: rx.clone(),
            unacked: Vec::new(),
            bounced: Vec::new(),
        }))
    }

    /// Five connections, dialed in no particular order, each with a
    /// full window and two more chunks waiting behind it; returns what
    /// one pump — which frees every window — hands the transport.
    fn chunks_handed_by_one_pump() -> Vec<(u64, u64, u64)> {
        let mut sim = Sim::new();
        let (ab, ba) = (SharedWire::default(), SharedWire::default());
        let a = recording_host(&ab, &ba);
        let b = recording_host(&ba, &ab);
        let backlog = vec![0u8; (WINDOW_CHUNKS + 2) * CHUNK_BYTES];
        for conn in [907, 13, 512, 64, 7001] {
            let sock = wire(&a, &b, conn).expect("same backend");
            sock.send(&mut sim, &backlog).expect("connected");
        }
        let full = std::mem::take(&mut ab.borrow_mut().handed);
        assert_eq!(full.len(), 5 * WINDOW_CHUNKS, "windows are full");
        a.poll(&mut sim);
        let out = ab.borrow().handed.clone();
        out
    }

    #[test]
    fn pump_serves_connections_in_ascending_id_order() {
        let first = chunks_handed_by_one_pump();
        let conns: Vec<u64> = first.iter().map(|&(conn, ..)| conn).collect();
        assert_eq!(conns, [13, 13, 64, 64, 512, 512, 907, 907, 7001, 7001]);
        // Every build draws a fresh hash key; none may show.
        for _ in 0..7 {
            assert_eq!(chunks_handed_by_one_pump(), first);
        }
    }

    const CONN: u64 = 9;

    /// The modelled chunking, written the obvious way. The stream is
    /// every `send` end to end; whenever fewer than `WINDOW_CHUNKS`
    /// chunks are unacknowledged the next `CHUNK_BYTES` of it (or what
    /// there is) go out under the next seq. A bounced chunk stays
    /// unacknowledged, and goes out again as it was, ahead of anything
    /// new, at the first pump `BUSY_BACKOFF` after the bounce was seen.
    #[derive(Default)]
    struct ChunkModel {
        waiting: usize,
        next_seq: u64,
        unacked: usize,
        acks_seen: usize,
        bounces_seen: usize,
        backoff: VecDeque<(Nanos, u64, u64)>,
        want: Vec<(u64, u64, u64)>,
    }

    impl ChunkModel {
        fn send(&mut self, bytes: usize) {
            self.waiting += bytes;
            self.cut();
        }
        fn pump(&mut self, now: Nanos, wire: &Wire) {
            self.unacked -= wire.acked - self.acks_seen;
            self.acks_seen = wire.acked;
            for &(seq, len) in &wire.busy[self.bounces_seen..] {
                self.backoff.push_back((now + BUSY_BACKOFF, seq, len));
            }
            self.bounces_seen = wire.busy.len();
            while self.backoff.front().is_some_and(|&(at, ..)| at <= now) {
                let (_, seq, len) = self.backoff.pop_front().expect("checked");
                self.want.push((CONN, seq, len));
            }
            self.cut();
        }
        fn cut(&mut self) {
            while self.waiting > 0 && self.unacked < WINDOW_CHUNKS {
                let len = self.waiting.min(CHUNK_BYTES);
                self.want.push((CONN, self.next_seq, len as u64));
                self.waiting -= len;
                self.next_seq += 1;
                self.unacked += 1;
            }
        }
    }

    /// Byte `i` of the test stream: any slip in order or offset shows.
    fn stream_byte(i: usize) -> u8 {
        ((i as u32).wrapping_mul(2_654_435_761) >> 24) as u8
    }

    proptest! {
        /// Whatever the sizes of the `send`s and of the `try_recv`
        /// buffers, and however acks stall, chunks bounce and
        /// deliveries reorder: the bytes that come out are the bytes
        /// that went in, in order, exactly once, and the transport is
        /// handed exactly the chunks of [`ChunkModel`].
        #[test]
        fn stream_is_exact_and_chunking_matches_the_model(
            script in proptest::collection::vec((0u8..16, any::<u64>()), 1..40),
        ) {
            let mut sim = Sim::new();
            let (ab, ba) = (SharedWire::default(), SharedWire::default());
            let a = recording_host(&ab, &ba);
            let b = recording_host(&ba, &ab);
            let tx = wire(&a, &b, CONN).expect("same backend");
            let rx = b.listener().accept().expect("queued by wire");
            let mut model = ChunkModel::default();
            let (mut sent, mut got) = (0usize, Vec::new());
            let mut buf = vec![0u8; 8192];

            let mut recv = |sim: &mut Sim, got: &mut Vec<u8>, cap: usize| {
                let n = rx.try_recv(sim, &mut buf[..cap]).expect("connected");
                got.extend_from_slice(&buf[..n]);
                n
            };
            for (op, arg) in script {
                match op {
                    // Sends of 0-200 KB, half of them under 9 KB so
                    // chunks straddle several of them.
                    0..=3 => {
                        let len = (arg % if op < 2 { 200_001 } else { 9_000 }) as usize;
                        let data: Vec<u8> = (sent..sent + len).map(stream_byte).collect();
                        tx.send(&mut sim, &data).expect("connected");
                        model.send(len);
                        sent += len;
                    }
                    4..=7 => {
                        recv(&mut sim, &mut got, 1 + (arg % 8192) as usize);
                    }
                    8..=10 => {
                        a.poll(&mut sim);
                        model.pump(sim.now(), &ab.borrow());
                    }
                    11 => ab.borrow_mut().hold_acks = arg % 2 == 0,
                    12 => ab.borrow_mut().bounce_next = arg % 6,
                    13 => ab.borrow_mut().reverse = arg % 2 == 0,
                    _ => {
                        let to = sim.now() + Nanos(arg % 30_000);
                        sim.run_until(to);
                    }
                }
            }
            // Let everything through.
            ab.borrow_mut().hold_acks = false;
            ab.borrow_mut().bounce_next = 0;
            for _ in 0..sent / CHUNK_BYTES + 4 {
                let to = sim.now() + BUSY_BACKOFF;
                sim.run_until(to);
                a.poll(&mut sim);
                model.pump(sim.now(), &ab.borrow());
                while recv(&mut sim, &mut got, 8192) > 0 {}
            }

            prop_assert_eq!(got.len(), sent);
            prop_assert!(got.iter().enumerate().all(|(i, &b)| b == stream_byte(i)));
            prop_assert_eq!(&ab.borrow().handed, &model.want);
            prop_assert_eq!(a.stats().chunks_tx, model.next_seq);
            prop_assert_eq!(b.stats().chunks_rx, model.next_seq);
            prop_assert_eq!(b.stats().dup_chunks, 0);
            prop_assert_eq!(a.stats().busy_retries as usize, ab.borrow().busy.len());
        }
    }
}
