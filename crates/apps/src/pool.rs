//! Closed-loop client pool: N clients, one echo server.
//!
//! The open-loop drivers ([`crate::dag`], [`crate::kv`]) inject at a
//! rate regardless of completions — right for measuring tail latency
//! under offered load, wrong for reproducing *incast*: the paper-scale
//! N:1 pattern where many synchronized clients each keep a bounded
//! window of requests outstanding against one destination, so offered
//! load self-throttles but the destination's egress port is the
//! bottleneck. [`ClientPool`] is that driver: every client keeps up to
//! `window` requests in flight, waits `think` after each reply before
//! reusing the slot, and the server answers after a sampled service
//! time — over either facade backend, so kernel-TCP and Pony incast
//! tails compare on identical workloads.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use snap_sim::codec::Reader;
use snap_sim::hash::IntMap;
use snap_sim::stats::Histogram;
use snap_sim::{Nanos, Rng, Sim};

use crate::dag::ServiceTime;
use crate::framing::{begin_frame, FrameBuf};
use crate::socket::SnapSocket;
use crate::workload::{Workload, WorkloadError};

/// Closed-loop pool description.
#[derive(Debug, Clone)]
pub struct PoolSpec {
    /// Request payload bytes (beyond the rid header).
    pub request_bytes: usize,
    /// Reply payload bytes.
    pub reply_bytes: usize,
    /// Outstanding requests per client (the closed-loop window).
    pub window: u32,
    /// Client think time between receiving a reply and reusing its
    /// window slot.
    pub think: Nanos,
    /// Server-side per-request service time.
    pub service: ServiceTime,
    /// Requests each client must complete.
    pub requests_per_client: u64,
}

/// Aggregated pool outcome.
#[derive(Debug, Clone)]
pub struct PoolReport {
    /// Replies received across all clients.
    pub completed: u64,
    /// Median request latency.
    pub p50: Nanos,
    /// 99th-percentile request latency.
    pub p99: Nanos,
    /// Worst request latency.
    pub max: Nanos,
    /// Virtual time from `begin` to the report.
    pub elapsed: Nanos,
}

impl PoolReport {
    /// Goodput over the run, replies per second.
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.completed as f64 / (self.elapsed.as_nanos() as f64 / 1e9)
    }
}

const KIND_REQ: u8 = 0;
const KIND_REP: u8 = 1;

struct ClientState {
    sock: SnapSocket,
    rx: FrameBuf,
    /// Requests sent so far.
    sent: u64,
    /// Replies received so far.
    got: u64,
    /// Window slots currently in flight.
    inflight: u32,
    /// Earliest time a freed slot may send again (think time).
    ready_at: Nanos,
    /// Send timestamps of in-flight requests by rid.
    sent_at: IntMap<u64, Nanos>,
}

/// N closed-loop clients against one echo server, each client on its
/// own wired facade connection (typically one client per source host —
/// the N:1 incast shape).
pub struct ClientPool {
    spec: PoolSpec,
    clients: Vec<ClientState>,
    /// Server end of each client's connection, same index.
    server: Vec<(SnapSocket, FrameBuf)>,
    /// Due server replies: (ready at, client index, rid).
    pending: BinaryHeap<Reverse<(Nanos, usize, u64)>>,
    svc_rng: Rng,
    started: Option<Nanos>,
    latency: Histogram,
}

impl ClientPool {
    /// Builds the pool over wired pairs: for each client,
    /// `(dialing socket, accepted server socket)`.
    pub fn new(spec: PoolSpec, pairs: Vec<(SnapSocket, SnapSocket)>, seed: u64) -> Self {
        let mut clients = Vec::with_capacity(pairs.len());
        let mut server = Vec::with_capacity(pairs.len());
        for (c, s) in pairs {
            clients.push(ClientState {
                sock: c,
                rx: FrameBuf::new(),
                sent: 0,
                got: 0,
                inflight: 0,
                ready_at: Nanos::ZERO,
                sent_at: IntMap::default(),
            });
            server.push((s, FrameBuf::new()));
        }
        ClientPool {
            spec,
            clients,
            server,
            pending: BinaryHeap::new(),
            svc_rng: Rng::new(seed ^ 0x9001_0001),
            started: None,
            latency: Histogram::new(),
        }
    }

    /// Marks the run start (for elapsed-time accounting). Clients send
    /// from the first `tick` after this.
    pub fn begin(&mut self, now: Nanos) {
        self.started = Some(now);
    }

    /// Replies received across all clients so far.
    fn completed(&self) -> u64 {
        self.clients.iter().map(|c| c.got).sum()
    }

    /// Total replies the run must produce.
    pub fn expected(&self) -> u64 {
        self.spec.requests_per_client * self.clients.len() as u64
    }

    /// True once every client got every reply.
    pub fn done(&self) -> bool {
        self.completed() == self.expected()
    }

    /// One cooperative step: fills client windows, schedules and
    /// answers server work, collects replies. Inherent, like `done`
    /// and `expected`, so a harness that times each step itself
    /// (`benchmark/`) needs no trait in scope; [`Workload`] forwards
    /// here.
    pub fn tick(&mut self, sim: &mut Sim) -> Result<(), WorkloadError> {
        let now = sim.now();
        // Clients: keep the window full (the closed loop).
        for (i, c) in self.clients.iter_mut().enumerate() {
            while c.inflight < self.spec.window
                && c.sent < self.spec.requests_per_client
                && now >= c.ready_at
            {
                // rid is per-client; the connection disambiguates.
                let rid = c.sent;
                let request = message(KIND_REQ, i, rid, self.spec.request_bytes);
                c.sock.send(sim, &request)?;
                c.sent_at.insert(rid, now);
                c.sent += 1;
                c.inflight += 1;
            }
        }
        // Server: accept requests, schedule service completions.
        for (i, (sock, rx)) in self.server.iter_mut().enumerate() {
            rx.pull(sim, sock)?;
            while let Some(body) = rx.next_frame() {
                let mut r = Reader::new(&body);
                let (Ok(kind), Ok(rid)) = (r.u8(), r.u64()) else {
                    continue;
                };
                if kind != KIND_REQ {
                    continue;
                }
                let dt = self.spec.service.sample(&mut self.svc_rng);
                self.pending.push(Reverse((now + dt, i, rid)));
            }
        }
        // Server: answer due requests.
        while let Some(&Reverse((at, i, rid))) = self.pending.peek() {
            if at > now {
                break;
            }
            self.pending.pop();
            let reply = message(KIND_REP, i, rid, self.spec.reply_bytes);
            self.server[i].0.send(sim, &reply)?;
        }
        // Clients: collect replies, free window slots.
        for c in &mut self.clients {
            c.rx.pull(sim, &c.sock)?;
            while let Some(body) = c.rx.next_frame() {
                let mut r = Reader::new(&body);
                let (Ok(kind), Ok(rid)) = (r.u8(), r.u64()) else {
                    continue;
                };
                if kind != KIND_REP {
                    continue;
                }
                if let Some(t0) = c.sent_at.remove(&rid) {
                    self.latency.record_nanos(now.saturating_sub(t0));
                    c.got += 1;
                    c.inflight = c.inflight.saturating_sub(1);
                    c.ready_at = now + self.spec.think;
                }
            }
        }
        Ok(())
    }

    /// The report over everything completed so far, `elapsed` measured
    /// to `now`.
    pub fn summary(&self, now: Nanos) -> PoolReport {
        PoolReport {
            completed: self.completed(),
            p50: Nanos(self.latency.median()),
            p99: Nanos(self.latency.p99()),
            max: Nanos(self.latency.max()),
            elapsed: now.saturating_sub(self.started.unwrap_or(now)),
        }
    }
}

impl Workload for ClientPool {
    fn name(&self) -> &'static str {
        "pool"
    }

    fn tick(&mut self, sim: &mut Sim) -> Result<(), WorkloadError> {
        ClientPool::tick(self, sim)
    }

    /// Replies received, of the replies every client must get.
    fn progress(&self) -> (u64, u64) {
        (self.completed(), self.expected())
    }
}

/// The wire frame of client `c`'s request `rid` or of its reply: kind,
/// rid, then `len` length-prefixed bytes of deterministic filler (byte
/// `k` is the low byte of `131 c + rid + k`), built in one buffer.
fn message(kind: u8, c: usize, rid: u64, len: usize) -> Vec<u8> {
    let mut w = begin_frame(1 + 8 + 4 + len);
    w.u8(kind).u64(rid).u32(len as u32);
    let mut out = w.finish();
    let first = (c as u64).wrapping_mul(131).wrapping_add(rid) as u8;
    out.extend((0..len).map(|k| first.wrapping_add(k as u8)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::frame;
    use snap_sim::codec::Writer;

    /// `message` lays down in one buffer what the codec, a filler
    /// `Vec` and `frame` build in three.
    #[test]
    fn message_is_the_framed_codec_encoding() {
        for (c, rid, len) in [
            (0, 0, 0),
            (3, 7, 1),
            (11, 299, 65_536),
            (200, u64::MAX, 300),
        ] {
            let first = (c as u64).wrapping_mul(131).wrapping_add(rid);
            let filler: Vec<u8> = (0..len as u64)
                .map(|k| (first.wrapping_add(k) & 0xff) as u8)
                .collect();
            let mut w = Writer::new();
            w.u8(KIND_REP).u64(rid).bytes(&filler);
            assert_eq!(message(KIND_REP, c, rid, len), frame(w.finish(), 0));
        }
    }
}
