//! Declarative microservice RPC-DAG workloads over the sockets facade.
//!
//! A [`DagSpec`] names services (each pinned to a testbed host, with a
//! service-time distribution and a concurrency limit) and forward
//! fan-out edges between them. Requests arrive at the root service as
//! an open-loop Poisson process; each service queues the request for a
//! concurrency slot, "executes" for a sampled service time, fans out
//! to its children, waits for all replies (fan-in), and replies
//! upward. End-to-end latency decomposes into **queue** (waiting for a
//! slot), **service** (handler execution) and **transport** (wire +
//! stack time) along the critical path — the per-request `(q, s, t)`
//! triple telescopes exactly to the measured latency.
//!
//! Every request carries a [`TraceContext`] when the harness traces:
//! the runtime stamps `AppTransport` / `AppSched` / `AppService`
//! boundaries into the rack's recorder, so DAG requests appear in the
//! same cross-host span trees as the transport ops underneath them.
//!
//! The runtime is backend-agnostic: it only sees [`SnapSocket`]s, so
//! the identical spec runs unmodified over kernel TCP or Pony.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use snap_sim::codec::{Reader, Writer};
use snap_sim::dist::{self, DiurnalLoad};
use snap_sim::hash::IntMap;
use snap_sim::stats::Histogram;
use snap_sim::trace::{Stage, TraceContext, TraceRecorder};
use snap_sim::{Nanos, Rng, Sim};

use crate::framing::{frame, FrameBuf};
use crate::socket::{SnapSocket, SocketError};
use crate::workload::{Workload, WorkloadError};

/// Per-stage service-time distribution, sampled from `snap_sim::dist`.
#[derive(Debug, Clone, Copy)]
pub enum ServiceTime {
    /// Fixed handler time.
    Constant(Nanos),
    /// Exponentially distributed with the given mean.
    Exponential {
        /// Mean handler time, microseconds.
        mean_us: f64,
    },
    /// Log-normal (heavy-tailed) handler time.
    LogNormal {
        /// Median handler time, microseconds.
        median_us: f64,
        /// Log-space sigma (tail weight).
        sigma: f64,
    },
}

impl ServiceTime {
    /// Draws one service time from the distribution.
    pub fn sample(&self, rng: &mut Rng) -> Nanos {
        match *self {
            ServiceTime::Constant(d) => d,
            ServiceTime::Exponential { mean_us } => {
                Nanos((dist::exponential(rng, mean_us) * 1_000.0) as u64)
            }
            ServiceTime::LogNormal { median_us, sigma } => {
                Nanos((dist::log_normal(rng, median_us, sigma) * 1_000.0) as u64)
            }
        }
    }
}

/// One service in the DAG.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Display name.
    pub name: String,
    /// Testbed host index the service runs on.
    pub host: usize,
    /// Handler-time distribution.
    pub time: ServiceTime,
    /// Concurrent requests the service handles; excess queues (the
    /// queue wait is the `q` component of the breakdown).
    pub concurrency: u32,
    /// Child service indices fanned out to after the handler runs.
    /// Must all be greater than this service's own index (forward
    /// edges only, which guarantees acyclicity).
    pub children: Vec<usize>,
}

/// A declarative DAG workload: service 0 is the entry point.
#[derive(Debug, Clone)]
pub struct DagSpec {
    /// The services; index 0 receives the open-loop arrivals.
    pub services: Vec<ServiceSpec>,
    /// Modeled size of a request frame, bytes.
    pub request_bytes: usize,
    /// Modeled size of a reply frame, bytes.
    pub reply_bytes: usize,
}

/// What is wrong with a spec or its wiring ([`DagSpec::validate`],
/// [`DagRuntime::new`]); a run fails with a [`WorkloadError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagError {
    /// The spec has no services.
    Empty,
    /// An edge is out of range or not strictly forward.
    BadEdge {
        /// Parent service index.
        parent: usize,
        /// Offending child index.
        child: usize,
    },
    /// A service allows zero concurrent requests.
    ZeroConcurrency {
        /// Offending service index.
        service: usize,
    },
    /// The wired edges don't match the spec's edge list.
    EdgeMismatch,
}

impl DagSpec {
    /// Validates structure: non-empty, strictly-forward in-range edges
    /// (hence acyclic), positive concurrency everywhere.
    pub fn validate(&self) -> Result<(), DagError> {
        if self.services.is_empty() {
            return Err(DagError::Empty);
        }
        for (i, s) in self.services.iter().enumerate() {
            if s.concurrency == 0 {
                return Err(DagError::ZeroConcurrency { service: i });
            }
            for &c in &s.children {
                if c <= i || c >= self.services.len() {
                    return Err(DagError::BadEdge {
                        parent: i,
                        child: c,
                    });
                }
            }
        }
        Ok(())
    }

    /// Every `(parent, child)` edge in canonical (spec) order.
    pub fn edge_list(&self) -> Vec<(usize, usize)> {
        self.services
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.children.iter().map(move |&c| (i, c)))
            .collect()
    }
}

/// One wired DAG edge: the parent-side (dialing) socket and the
/// child-side (accepted) socket of the same facade connection.
pub struct DagEdge {
    /// Parent service index.
    pub parent: usize,
    /// Child service index.
    pub child: usize,
    /// Socket at the parent, talking to the child.
    pub parent_sock: SnapSocket,
    /// Socket at the child, talking to the parent.
    pub child_sock: SnapSocket,
}

struct EdgeState {
    parent: usize,
    child: usize,
    parent_sock: SnapSocket,
    parent_rx: FrameBuf,
    child_sock: SnapSocket,
    child_rx: FrameBuf,
}

struct Inst {
    service: usize,
    rid: u64,
    trace: Option<TraceContext>,
    /// Edge to reply on (`None` at the root).
    reply_edge: Option<usize>,
    /// The parent's instance id, echoed in the reply.
    reply_inst: u64,
    arrived: Nanos,
    started: Nanos,
    svc_done: Nanos,
    pending: usize,
    fanout_at: Nanos,
    /// Critical (latest) child reply's reported breakdown.
    crit: (Nanos, Nanos, Nanos),
    last_reply_at: Nanos,
}

/// One completed request's end-to-end accounting. The breakdown
/// telescopes: `queue + service + transport == total()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagRequestResult {
    /// Request id (injection order).
    pub rid: u64,
    /// Open-loop arrival time.
    pub injected: Nanos,
    /// Root completion time.
    pub completed: Nanos,
    /// Critical-path time waiting for concurrency slots.
    pub queue: Nanos,
    /// Critical-path handler execution time.
    pub service: Nanos,
    /// Critical-path wire + stack time.
    pub transport: Nanos,
}

impl DagRequestResult {
    /// End-to-end latency.
    pub fn total(&self) -> Nanos {
        self.completed.saturating_sub(self.injected)
    }
}

/// Open-loop Poisson load description.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Arrival rate at the root, requests per second. When `shape` is
    /// set this is ignored in favor of the curve's instantaneous rate.
    pub rate_per_sec: f64,
    /// Total requests to inject.
    pub requests: u64,
    /// Optional time-varying rate: each arrival samples the curve at
    /// its own timestamp, so load swings through the run (diurnal /
    /// hotspot replay, Fig. 8).
    pub shape: Option<DiurnalLoad>,
}

impl OpenLoop {
    /// Constant-rate open-loop load.
    pub fn constant(rate_per_sec: f64, requests: u64) -> Self {
        OpenLoop {
            rate_per_sec,
            requests,
            shape: None,
        }
    }

    /// Load following a [`DiurnalLoad`] curve.
    pub fn diurnal(shape: DiurnalLoad, requests: u64) -> Self {
        OpenLoop {
            rate_per_sec: shape.base_rate,
            requests,
            shape: Some(shape),
        }
    }
}

/// Aggregated run outcome.
#[derive(Debug, Clone)]
pub struct DagReport {
    /// Per-request results in completion order.
    pub results: Vec<DagRequestResult>,
    /// Median end-to-end latency.
    pub p50: Nanos,
    /// 99th-percentile end-to-end latency.
    pub p99: Nanos,
    /// Summed critical-path queue time across requests.
    pub queue: Nanos,
    /// Summed critical-path service time.
    pub service: Nanos,
    /// Summed critical-path transport time.
    pub transport: Nanos,
}

const KIND_REQ: u8 = 0;
const KIND_REP: u8 = 1;

/// Executes a [`DagSpec`] over wired facade sockets.
pub struct DagRuntime {
    spec: DagSpec,
    edges: Vec<EdgeState>,
    /// Service index -> outbound edge indices, in spec order.
    children_of: Vec<Vec<usize>>,
    insts: IntMap<u64, Inst>,
    next_inst: u64,
    queues: Vec<VecDeque<u64>>,
    busy: Vec<u32>,
    timers: BinaryHeap<Reverse<(Nanos, u64)>>,
    rng_arrival: Rng,
    rng_service: Vec<Rng>,
    recorder: Option<TraceRecorder>,
    rate: f64,
    shape: Option<DiurnalLoad>,
    target: u64,
    injected: u64,
    next_arrival: Option<Nanos>,
    results: Vec<DagRequestResult>,
}

impl DagRuntime {
    /// Builds a runtime from a validated spec and its wired edges
    /// (one [`DagEdge`] per [`DagSpec::edge_list`] entry, same order).
    pub fn new(
        spec: DagSpec,
        edges: Vec<DagEdge>,
        seed: u64,
        recorder: Option<TraceRecorder>,
    ) -> Result<Self, DagError> {
        spec.validate()?;
        let want = spec.edge_list();
        if edges.len() != want.len()
            || edges
                .iter()
                .zip(&want)
                .any(|(e, &(p, c))| e.parent != p || e.child != c)
        {
            return Err(DagError::EdgeMismatch);
        }
        let n = spec.services.len();
        let mut children_of = vec![Vec::new(); n];
        let edges: Vec<EdgeState> = edges
            .into_iter()
            .map(|e| EdgeState {
                parent: e.parent,
                child: e.child,
                parent_sock: e.parent_sock,
                parent_rx: FrameBuf::new(),
                child_sock: e.child_sock,
                child_rx: FrameBuf::new(),
            })
            .collect();
        for (i, e) in edges.iter().enumerate() {
            children_of[e.parent].push(i);
        }
        let root = Rng::new(seed ^ 0xda6_0001);
        Ok(DagRuntime {
            children_of,
            insts: IntMap::default(),
            next_inst: 1,
            queues: vec![VecDeque::new(); n],
            busy: vec![0; n],
            timers: BinaryHeap::new(),
            rng_arrival: root.stream(0),
            rng_service: (0..n).map(|i| root.stream(1 + i as u64)).collect(),
            recorder,
            rate: 0.0,
            shape: None,
            target: 0,
            injected: 0,
            next_arrival: None,
            results: Vec::new(),
            spec,
            edges,
        })
    }

    /// Arms the open-loop arrival process starting at `now`.
    pub fn begin(&mut self, now: Nanos, load: OpenLoop) {
        self.rate = load.rate_per_sec;
        self.shape = load.shape;
        self.target = load.requests;
        self.injected = 0;
        self.results.clear();
        let gap = self.arrival_gap(now);
        self.next_arrival = Some(now + gap);
    }

    /// Samples the next inter-arrival gap at time `at`: constant-rate
    /// Poisson, or the shaped curve's instantaneous rate. A trough
    /// clipped to ~zero floors at 1/s rather than stalling the loop.
    fn arrival_gap(&mut self, at: Nanos) -> Nanos {
        let rate = match self.shape {
            Some(shape) => shape.rate_at(at, &mut self.rng_arrival).max(1.0),
            None => self.rate,
        };
        dist::poisson_gap(&mut self.rng_arrival, rate)
    }

    /// The report over every request completed so far.
    pub fn report(&self) -> DagReport {
        let mut hist = Histogram::new();
        let (mut q, mut s, mut t) = (Nanos::ZERO, Nanos::ZERO, Nanos::ZERO);
        for r in &self.results {
            hist.record_nanos(r.total());
            q += r.queue;
            s += r.service;
            t += r.transport;
        }
        DagReport {
            results: self.results.clone(),
            p50: Nanos(hist.median()),
            p99: Nanos(hist.p99()),
            queue: q,
            service: s,
            transport: t,
        }
    }

    fn stamp(&self, ctx: Option<TraceContext>, stage: Stage, host: u32, at: Nanos) {
        if let (Some(rec), Some(ctx)) = (&self.recorder, ctx) {
            rec.record(ctx, stage, host, at);
        }
    }

    fn spawn_root(&mut self, arrived: Nanos) {
        let host = self.spec.services[0].host as u32;
        let trace = self.recorder.as_ref().and_then(|r| r.begin(arrived, host));
        let id = self.next_inst;
        self.next_inst += 1;
        self.insts.insert(
            id,
            Inst {
                service: 0,
                rid: self.injected,
                trace,
                reply_edge: None,
                reply_inst: 0,
                arrived,
                started: Nanos::ZERO,
                svc_done: Nanos::ZERO,
                pending: 0,
                fanout_at: Nanos::ZERO,
                crit: (Nanos::ZERO, Nanos::ZERO, Nanos::ZERO),
                last_reply_at: Nanos::ZERO,
            },
        );
        self.queues[0].push_back(id);
    }

    fn try_start(&mut self, sim: &mut Sim) {
        let now = sim.now();
        for svc in 0..self.spec.services.len() {
            while self.busy[svc] < self.spec.services[svc].concurrency {
                let Some(id) = self.queues[svc].pop_front() else {
                    break;
                };
                self.busy[svc] += 1;
                let host = self.spec.services[svc].host as u32;
                let dt = self.spec.services[svc]
                    .time
                    .sample(&mut self.rng_service[svc]);
                if let Some(inst) = self.insts.get_mut(&id) {
                    inst.started = now;
                    let ctx = inst.trace;
                    self.stamp(ctx, Stage::AppSched, host, now);
                }
                self.timers.push(Reverse((now + dt, id)));
            }
        }
    }

    fn on_service_done(&mut self, sim: &mut Sim, id: u64) -> Result<(), SocketError> {
        let now = sim.now();
        let Some(inst) = self.insts.get_mut(&id) else {
            return Ok(());
        };
        let svc = inst.service;
        inst.svc_done = now;
        let ctx = inst.trace;
        let host = self.spec.services[svc].host as u32;
        self.busy[svc] -= 1;
        self.stamp(ctx, Stage::AppService, host, now);
        let fanout = self.children_of[svc].clone();
        if fanout.is_empty() {
            return self.finish(sim, id);
        }
        let (rid, trace) = {
            let Some(inst) = self.insts.get_mut(&id) else {
                return Ok(());
            };
            inst.pending = fanout.len();
            inst.fanout_at = now;
            (inst.rid, inst.trace)
        };
        let pad = self.spec.request_bytes;
        for e in fanout {
            let mut w = Writer::with_capacity(64);
            w.u8(KIND_REQ).u64(rid).u64(id);
            match trace {
                Some(t) => w.u64(t.trace_id).u32(t.parent_span).bool(t.sampled),
                None => w.u64(0).u32(0).bool(false),
            };
            let f = frame(w.finish(), pad);
            self.edges[e].parent_sock.send(sim, &f)?;
        }
        Ok(())
    }

    fn on_request(&mut self, now: Nanos, edge: usize, r: &mut Reader<'_>) {
        let (Ok(rid), Ok(parent_inst), Ok(trace_id), Ok(parent_span), Ok(sampled)) =
            (r.u64(), r.u64(), r.u64(), r.u32(), r.bool())
        else {
            return;
        };
        let svc = self.edges[edge].child;
        let host = self.spec.services[svc].host as u32;
        let trace = (trace_id != 0).then_some(TraceContext {
            trace_id,
            parent_span,
            sampled,
        });
        self.stamp(trace, Stage::AppTransport, host, now);
        let id = self.next_inst;
        self.next_inst += 1;
        self.insts.insert(
            id,
            Inst {
                service: svc,
                rid,
                trace,
                reply_edge: Some(edge),
                reply_inst: parent_inst,
                arrived: now,
                started: Nanos::ZERO,
                svc_done: Nanos::ZERO,
                pending: 0,
                fanout_at: Nanos::ZERO,
                crit: (Nanos::ZERO, Nanos::ZERO, Nanos::ZERO),
                last_reply_at: Nanos::ZERO,
            },
        );
        self.queues[svc].push_back(id);
    }

    fn on_reply(
        &mut self,
        sim: &mut Sim,
        edge: usize,
        r: &mut Reader<'_>,
    ) -> Result<(), SocketError> {
        let now = sim.now();
        let (Ok(_rid), Ok(parent_inst), Ok(q), Ok(s), Ok(t)) =
            (r.u64(), r.u64(), r.u64(), r.u64(), r.u64())
        else {
            return Ok(());
        };
        let svc = self.edges[edge].parent;
        let host = self.spec.services[svc].host as u32;
        let done = {
            let Some(inst) = self.insts.get_mut(&parent_inst) else {
                return Ok(());
            };
            let ctx = inst.trace;
            inst.crit = (Nanos(q), Nanos(s), Nanos(t));
            inst.last_reply_at = now;
            inst.pending = inst.pending.saturating_sub(1);
            let done = inst.pending == 0;
            (ctx, done)
        };
        self.stamp(done.0, Stage::AppTransport, host, now);
        if done.1 {
            self.finish(sim, parent_inst)?;
        }
        Ok(())
    }

    /// Completes an instance's visit: accounts the critical path,
    /// replies upward or (at the root) records the result.
    fn finish(&mut self, sim: &mut Sim, id: u64) -> Result<(), SocketError> {
        let now = sim.now();
        let Some(inst) = self.insts.remove(&id) else {
            return Ok(());
        };
        let own_q = inst.started.saturating_sub(inst.arrived);
        let own_s = inst.svc_done.saturating_sub(inst.started);
        // Fan-in accounting: the child phase is bounded by the latest
        // reply; its wire share is what the reported child breakdown
        // doesn't explain. Telescoping holds for any reply choice —
        // q + s + t always equals this visit's span.
        let (q, s, t) = if inst.last_reply_at > Nanos::ZERO {
            let child_phase = inst.last_reply_at.saturating_sub(inst.fanout_at);
            let (cq, cs, ct) = inst.crit;
            let wire = child_phase.saturating_sub(cq + cs + ct);
            (own_q + cq, own_s + cs, ct + wire)
        } else {
            (own_q, own_s, Nanos::ZERO)
        };
        match inst.reply_edge {
            Some(e) => {
                let mut w = Writer::with_capacity(64);
                w.u8(KIND_REP)
                    .u64(inst.rid)
                    .u64(inst.reply_inst)
                    .u64(q.as_nanos())
                    .u64(s.as_nanos())
                    .u64(t.as_nanos());
                let f = frame(w.finish(), self.spec.reply_bytes);
                self.edges[e].child_sock.send(sim, &f)?;
            }
            None => {
                if let (Some(rec), Some(ctx)) = (&self.recorder, inst.trace) {
                    rec.finalize(ctx, now, self.spec.services[inst.service].host as u32);
                }
                self.results.push(DagRequestResult {
                    rid: inst.rid,
                    injected: inst.arrived,
                    completed: now,
                    queue: q,
                    service: s,
                    transport: t,
                });
            }
        }
        Ok(())
    }
}

impl Workload for DagRuntime {
    fn name(&self) -> &'static str {
        "dag"
    }

    /// Injects due arrivals, drains edge frames, fires due service
    /// completions, grants queued requests slots.
    fn tick(&mut self, sim: &mut Sim) -> Result<(), WorkloadError> {
        let now = sim.now();
        // Open-loop arrivals (rate never adapts to completion — that's
        // the point of open loop).
        while self.injected < self.target {
            let Some(at) = self.next_arrival else { break };
            if at > now {
                break;
            }
            self.spawn_root(at);
            self.injected += 1;
            let gap = self.arrival_gap(at);
            self.next_arrival = Some(at + gap);
        }
        // Frames: requests land on child sockets, replies on parent
        // sockets. Collected first, processed after, so edge iteration
        // order (not arrival interleaving within a slice) is the only
        // tiebreak — deterministic.
        let mut inbound: Vec<(usize, u8, Vec<u8>)> = Vec::new();
        for (i, e) in self.edges.iter_mut().enumerate() {
            e.child_rx.pull(sim, &e.child_sock)?;
            while let Some(f) = e.child_rx.next_frame() {
                inbound.push((i, KIND_REQ, f));
            }
            e.parent_rx.pull(sim, &e.parent_sock)?;
            while let Some(f) = e.parent_rx.next_frame() {
                inbound.push((i, KIND_REP, f));
            }
        }
        for (edge, side, body) in inbound {
            let mut r = Reader::new(&body);
            let Ok(kind) = r.u8() else { continue };
            if kind != side {
                continue;
            }
            match kind {
                KIND_REQ => self.on_request(now, edge, &mut r),
                KIND_REP => self.on_reply(sim, edge, &mut r)?,
                _ => {}
            }
        }
        // Service completions due by now.
        while let Some(&Reverse((at, inst))) = self.timers.peek() {
            if at > now {
                break;
            }
            self.timers.pop();
            self.on_service_done(sim, inst)?;
        }
        self.try_start(sim);
        Ok(())
    }

    /// Requests completed at the root, of the requests to inject.
    fn progress(&self) -> (u64, u64) {
        (self.results.len() as u64, self.target)
    }
}
