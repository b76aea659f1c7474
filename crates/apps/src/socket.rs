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
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use snap_sim::{Nanos, Sim};

use crate::transport::{Backend, Transport, TransportEvent, CHUNK_BYTES};
use crate::SimPump;

/// Max chunks a socket keeps in flight before further stream bytes
/// wait in its local queue. Kept under the Pony engine's per-conn
/// shared credit pool so small-message credits self-clock the flow.
const WINDOW_CHUNKS: usize = 32;

/// Backoff before resubmitting a Busy-rejected chunk.
const BUSY_BACKOFF: Nanos = Nanos(20_000);

/// Virtual-time slice used by deadline receives between polls.
const POLL_SLICE_US: u64 = 5;

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

/// Real payload bytes for in-flight chunks, shared between the two
/// endpoints of a connection direction (both stacks model payloads by
/// length only, so actual bytes bypass the wire).
type Ledger = Rc<RefCell<HashMap<u64, Vec<u8>>>>;

struct SockState {
    /// Where this socket's outbound payload bytes are parked until the
    /// peer's chunk delivery claims them.
    tx_ledger: Ledger,
    /// Where the peer parks bytes destined for this socket.
    rx_ledger: Ledger,
    /// Stream bytes accepted by `send` but not yet cut into chunks
    /// (facade window full).
    tx_wait: VecDeque<u8>,
    next_tx_seq: u64,
    /// Chunks submitted and not yet acknowledged: seq -> len.
    inflight: BTreeMap<u64, u64>,
    /// Busy-rejected chunks awaiting their backoff: (retry at, seq, len).
    retry: VecDeque<(Nanos, u64, u64)>,
    /// Delivered chunks ahead of the in-order frontier.
    rx_pending: BTreeMap<u64, Vec<u8>>,
    next_rx_seq: u64,
    /// In-order bytes awaiting application `recv`.
    rx_buf: VecDeque<u8>,
    broken: Option<SocketError>,
}

impl SockState {
    fn new(tx_ledger: Ledger, rx_ledger: Ledger) -> Self {
        SockState {
            tx_ledger,
            rx_ledger,
            tx_wait: VecDeque::new(),
            next_tx_seq: 0,
            inflight: BTreeMap::new(),
            retry: VecDeque::new(),
            rx_pending: BTreeMap::new(),
            next_rx_seq: 0,
            rx_buf: VecDeque::new(),
            broken: None,
        }
    }
}

struct HostInner {
    backend: Backend,
    transport: Box<dyn Transport>,
    /// Keyed in ascending connection id: the order `pump` serves them
    /// in, and so the order their chunks reach the transport. Boxed
    /// because a B-tree node stores eleven values inline with its
    /// length behind them: among `SockState`s (184 B) every lookup
    /// would touch three far-apart cache lines, which `incast_clos`
    /// measures as 13 % of its packet rate.
    socks: BTreeMap<u64, Box<SockState>>,
    accept_q: VecDeque<u64>,
    stats: SocketStats,
    scratch: Vec<TransportEvent>,
}

impl HostInner {
    /// Drains transport completions, routes them, fires due retries and
    /// flushes waiting stream bytes. The single pump everything else
    /// calls.
    fn pump(&mut self, sim: &mut Sim) {
        let now = sim.now();
        let mut events = std::mem::take(&mut self.scratch);
        events.clear();
        self.transport.poll(now, &mut events);
        for ev in events.drain(..) {
            match ev {
                TransportEvent::Delivered { conn, seq } => self.on_delivered(conn, seq),
                TransportEvent::SendDone { conn, seq } => {
                    if let Some(s) = self.socks.get_mut(&conn) {
                        s.inflight.remove(&seq);
                    }
                }
                TransportEvent::SendBusy { conn, seq } => {
                    self.stats.busy_retries += 1;
                    if let Some(s) = self.socks.get_mut(&conn) {
                        if let Some(len) = s.inflight.remove(&seq) {
                            s.retry.push_back((now + BUSY_BACKOFF, seq, len));
                        }
                    }
                }
                TransportEvent::SendFailed { conn, .. } => {
                    if let Some(s) = self.socks.get_mut(&conn) {
                        s.broken = Some(SocketError::TransportFailed);
                    }
                }
            }
        }
        self.scratch = events;
        // Busy retries whose backoff elapsed re-enter under the same
        // seq (identity preserved — see transport module docs).
        let conns: Vec<u64> = self.socks.keys().copied().collect();
        for conn in conns {
            self.retry_due(sim, conn, now);
            self.flush(sim, conn);
        }
    }

    fn on_delivered(&mut self, conn: u64, seq: u64) {
        let Some(s) = self.socks.get_mut(&conn) else {
            return;
        };
        // Claiming the payload from the ledger is the dedup point: a
        // duplicate delivery finds nothing to claim.
        let payload = s.rx_ledger.borrow_mut().remove(&seq);
        let Some(bytes) = payload else {
            self.stats.dup_chunks += 1;
            return;
        };
        if seq < s.next_rx_seq || s.rx_pending.contains_key(&seq) {
            self.stats.dup_chunks += 1;
            return;
        }
        s.rx_pending.insert(seq, bytes);
        while let Some(bytes) = s.rx_pending.remove(&s.next_rx_seq) {
            s.rx_buf.extend(bytes);
            s.next_rx_seq += 1;
            self.stats.chunks_rx += 1;
        }
    }

    fn retry_due(&mut self, sim: &mut Sim, conn: u64, now: Nanos) {
        loop {
            let Some(s) = self.socks.get_mut(&conn) else {
                return;
            };
            match s.retry.front() {
                Some(&(at, seq, len)) if at <= now => {
                    s.retry.pop_front();
                    s.inflight.insert(seq, len);
                    self.transport.send_chunk(sim, conn, seq, len);
                }
                _ => return,
            }
        }
    }

    /// Cuts waiting stream bytes into chunks while the window allows.
    fn flush(&mut self, sim: &mut Sim, conn: u64) {
        loop {
            let Some(s) = self.socks.get_mut(&conn) else {
                return;
            };
            if s.tx_wait.is_empty() || s.inflight.len() + s.retry.len() >= WINDOW_CHUNKS {
                return;
            }
            let take = s.tx_wait.len().min(CHUNK_BYTES);
            let bytes: Vec<u8> = s.tx_wait.drain(..take).collect();
            let seq = s.next_tx_seq;
            s.next_tx_seq += 1;
            let len = bytes.len() as u64;
            s.tx_ledger.borrow_mut().insert(seq, bytes);
            s.inflight.insert(seq, len);
            self.stats.chunks_tx += 1;
            self.transport.send_chunk(sim, conn, seq, len);
        }
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

    /// Chunks submitted but not yet acknowledged across all
    /// connections (drain check for harnesses).
    pub fn outstanding(&self) -> usize {
        let inner = self.inner.borrow();
        inner
            .socks
            .values()
            .map(|s| s.inflight.len() + s.retry.len() + s.tx_wait.len())
            .sum()
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
        {
            let s = inner
                .socks
                .get_mut(&self.conn)
                .ok_or(SocketError::NotConnected)?;
            if let Some(err) = s.broken {
                return Err(err);
            }
            s.tx_wait.extend(data.iter().copied());
        }
        inner.flush(sim, self.conn);
        Ok(())
    }

    /// Non-blocking receive: polls the endpoint once and copies up to
    /// `buf.len()` in-order bytes. `Ok(0)` means no data right now.
    pub fn try_recv(&self, sim: &mut Sim, buf: &mut [u8]) -> Result<usize, SocketError> {
        let mut inner = self.inner.borrow_mut();
        inner.pump(sim);
        let s = inner
            .socks
            .get_mut(&self.conn)
            .ok_or(SocketError::NotConnected)?;
        if s.rx_buf.is_empty() {
            if let Some(err) = s.broken {
                return Err(err);
            }
            return Ok(0);
        }
        let n = s.rx_buf.len().min(buf.len());
        for b in buf.iter_mut().take(n) {
            if let Some(v) = s.rx_buf.pop_front() {
                *b = v;
            }
        }
        Ok(n)
    }

    /// Bytes available to read without polling.
    pub fn available(&self) -> usize {
        self.inner
            .borrow()
            .socks
            .get(&self.conn)
            .map(|s| s.rx_buf.len())
            .unwrap_or(0)
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
        let deadline = pump.sim_mut().now() + timeout;
        loop {
            let n = self.try_recv(pump.sim_mut(), buf)?;
            if n > 0 {
                return Ok(n);
            }
            if pump.sim_mut().now() >= deadline {
                return Err(SocketError::TimedOut);
            }
            pump.pump_us(POLL_SLICE_US);
        }
    }

    /// Receives exactly `buf.len()` bytes or fails with `TimedOut`
    /// when the virtual-time budget runs out first.
    pub fn recv_exact_deadline(
        &self,
        pump: &mut dyn SimPump,
        buf: &mut [u8],
        timeout: Nanos,
    ) -> Result<(), SocketError> {
        let deadline = pump.sim_mut().now() + timeout;
        let mut filled = 0;
        while filled < buf.len() {
            let n = self.try_recv(pump.sim_mut(), &mut buf[filled..])?;
            filled += n;
            if filled >= buf.len() {
                break;
            }
            if pump.sim_mut().now() >= deadline {
                return Err(SocketError::TimedOut);
            }
            pump.pump_us(POLL_SLICE_US);
        }
        Ok(())
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
    let ab: Ledger = Rc::new(RefCell::new(HashMap::new()));
    let ba: Ledger = Rc::new(RefCell::new(HashMap::new()));
    {
        let mut ia = a.inner.borrow_mut();
        ia.socks
            .insert(conn, Box::new(SockState::new(ab.clone(), ba.clone())));
        ia.transport.register_conn(conn);
    }
    {
        let mut ib = b.inner.borrow_mut();
        ib.socks.insert(conn, Box::new(SockState::new(ba, ab)));
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

    /// Chunks in the order a transport was handed them: (conn, seq).
    type Handed = Rc<RefCell<Vec<(u64, u64)>>>;

    /// A transport that logs every chunk it is handed and acknowledges
    /// each one at the next poll.
    struct Recording {
        handed: Handed,
        unacked: Vec<(u64, u64)>,
    }

    impl Transport for Recording {
        fn backend(&self) -> Backend {
            Backend::Pony
        }
        fn register_conn(&mut self, _conn: u64) {}
        fn send_chunk(&mut self, _sim: &mut Sim, conn: u64, seq: u64, _len: u64) {
            self.handed.borrow_mut().push((conn, seq));
            self.unacked.push((conn, seq));
        }
        fn poll(&mut self, _now: Nanos, out: &mut Vec<TransportEvent>) {
            let acks = self.unacked.drain(..);
            out.extend(acks.map(|(conn, seq)| TransportEvent::SendDone { conn, seq }));
        }
    }

    fn recording_host() -> (SocketHost, Handed) {
        let handed = Handed::default();
        let transport = Recording {
            handed: handed.clone(),
            unacked: Vec::new(),
        };
        (SocketHost::new(Box::new(transport)), handed)
    }

    /// Five connections, dialed in no particular order, each with a
    /// full window and two more chunks waiting behind it; returns what
    /// one pump — which frees every window — hands the transport.
    fn chunks_handed_by_one_pump() -> Vec<(u64, u64)> {
        let mut sim = Sim::new();
        let (a, handed) = recording_host();
        let (b, _) = recording_host();
        let backlog = vec![0u8; (WINDOW_CHUNKS + 2) * CHUNK_BYTES];
        for conn in [907, 13, 512, 64, 7001] {
            let sock = wire(&a, &b, conn).expect("same backend");
            sock.send(&mut sim, &backlog).expect("connected");
        }
        assert_eq!(handed.borrow().len(), 5 * WINDOW_CHUNKS, "windows are full");
        handed.borrow_mut().clear();
        a.poll(&mut sim);
        let out = handed.borrow().clone();
        out
    }

    #[test]
    fn pump_serves_connections_in_ascending_id_order() {
        let first = chunks_handed_by_one_pump();
        let conns: Vec<u64> = first.iter().map(|&(conn, _)| conn).collect();
        assert_eq!(conns, [13, 13, 64, 64, 512, 512, 907, 907, 7001, 7001]);
        // Every build draws a fresh hash key; none may show.
        for _ in 0..7 {
            assert_eq!(chunks_handed_by_one_pump(), first);
        }
    }
}
