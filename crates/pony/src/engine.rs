//! The Pony Express engine (§3.1).
//!
//! "A Pony Express engine services incoming packets, interacts with
//! applications, runs state machines to advance messaging and one-sided
//! operations, and generates outgoing packets. ... This just-in-time
//! generation of packets based on slot availability ensures we generate
//! packets only when the NIC can transmit them."
//!
//! The engine implements [`snap_core::Engine`]: a bounded pass polls
//! the NIC rx ring (default 16-packet batch), polls application command
//! queues, advances op state machines, and produces packets while NIC
//! tx slots and Timely pacing allow. All state lives inside the engine
//! (single-threaded, no locks); control reaches it through the group
//! mailbox; applications reach it through shared-memory queue pairs.
//!
//! Upgrade support: [`snap_core::Engine::serialize_state`] checkpoints
//! connections, flows (including queued and unacked frames), send/recv
//! message state and pending one-sided ops into the codec format;
//! [`PonyEngine::restore`] rebuilds a new-version engine from that
//! snapshot plus the re-injected runtime handles (fabric, regions,
//! session table) — mirroring how the real Snap transfers fds and
//! shared memory in brownout and state in blackout (§4).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;

use snap_core::engine::{Engine, RunReport};
use snap_isolation::{AdmissionController, PressureState};
use snap_nic::fabric::FabricHandle;
use snap_nic::packet::{HostId, Packet, QosClass};
use snap_shm::queue_pair::EngineEndpoint;
use snap_shm::region::{RegionError, RegionRegistry};
use snap_sim::codec::{DecodeError, Reader, Writer};
use snap_sim::costs;
use snap_sim::hash::IntMap;
use snap_sim::trace::{Stage, TraceContext, TraceRecorder};
use snap_sim::{Nanos, Sim};

use crate::client::{OpStatus, PonyCommand, PonyCommandTuple, PonyCompletion};
use crate::flow::{Accept, AckedChunk, Flow, FlowMapper};
use crate::timely::TimelyConfig;
use crate::wire::{OpFrame, PonyPacket};

/// Messages at or below this size use the shared credit pool instead of
/// posted buffers (§3.3).
pub const SMALL_MSG_BYTES: u64 = 4096;

/// Initial small-message credits per connection.
pub const INITIAL_CREDITS: u32 = 64;

/// Shared table of application sessions (command/completion queue
/// endpoints). Lives outside the engine so transparent upgrades can
/// hand the same sessions to the successor engine — the analogue of
/// transferring fds over the control channel during brownout.
pub type SessionTable =
    Rc<RefCell<IntMap<u64, EngineEndpoint<PonyCommandTuple, PonyCompletion>>>>;

/// Callback that re-schedules an engine pass — used by self-arming
/// pacing/RTO timers.
pub type WakeFn = Rc<dyn Fn(&mut Sim)>;

/// Static engine configuration.
#[derive(Debug, Clone)]
pub struct PonyEngineConfig {
    /// Engine name.
    pub name: String,
    /// Host this engine runs on.
    pub host: HostId,
    /// Unique engine key: NIC receive filters steer on it.
    pub engine_key: u64,
    /// The NIC rx/tx queue this engine owns.
    pub queue: u16,
    /// MTU for chunking messages.
    pub mtu: u32,
    /// NIC rx polling batch (§3.1 default: 16).
    pub poll_batch: usize,
    /// Offload receive copies to the I/OAT engine (Table 1).
    pub use_ioat: bool,
    /// Congestion-control parameters.
    pub cc: TimelyConfig,
    /// Application container charged for this engine's CPU.
    pub container: String,
}

impl PonyEngineConfig {
    /// A reasonable default configuration for `host`/`engine_key`.
    pub fn new(name: impl Into<String>, host: HostId, engine_key: u64) -> Self {
        PonyEngineConfig {
            name: name.into(),
            host,
            engine_key,
            queue: 0,
            mtu: costs::PONY_DEFAULT_MTU,
            poll_batch: costs::DEFAULT_POLL_BATCH,
            use_ioat: false,
            cc: TimelyConfig::default(),
            container: "pony".to_string(),
        }
    }
}

/// Engine counters.
#[derive(Debug, Clone, Default)]
pub struct PonyStats {
    /// Packets received and processed.
    pub rx_packets: u64,
    /// Packets transmitted (incl. retransmits and acks).
    pub tx_packets: u64,
    /// Application commands admitted.
    pub commands: u64,
    /// One-sided operations served for remote initiators.
    pub onesided_served: u64,
    /// Two-sided messages fully delivered to local applications.
    pub msgs_delivered: u64,
    /// Operations completed for local initiators.
    pub ops_completed: u64,
    /// Completions dropped because a session queue was full or gone.
    pub completions_dropped: u64,
    /// Best-effort ops shed under Soft/Hard memory pressure (§2.5).
    pub ops_shed: u64,
    /// Transport-class ops refused with `Busy` under Hard pressure or a
    /// denied per-send quota charge (back-pressure, never silent drop).
    pub busy_rejected: u64,
    /// Hedge duplicates recognized by the per-session op watermark and
    /// absorbed without re-execution (exactly-once).
    pub hedge_dups: u64,
    /// Early retransmits triggered by hedge duplicates (the hedge's
    /// actual recovery action on the wire).
    pub hedge_retransmits: u64,
    /// Retransmissions, summed over this engine's flows.
    pub retransmits: u64,
    /// Duplicate packets suppressed, summed over this engine's flows.
    pub duplicates: u64,
}

impl PonyStats {
    /// Every counter under its name, in declaration order: the one
    /// table a consumer walks (telemetry publishes each row). The
    /// pattern names every field, so a counter added to the struct does
    /// not compile until it has a row here.
    pub fn counters(&self) -> [(&'static str, u64); 13] {
        let PonyStats {
            rx_packets,
            tx_packets,
            commands,
            onesided_served,
            msgs_delivered,
            ops_completed,
            completions_dropped,
            ops_shed,
            busy_rejected,
            hedge_dups,
            hedge_retransmits,
            retransmits,
            duplicates,
        } = *self;
        [
            ("rx_packets", rx_packets),
            ("tx_packets", tx_packets),
            ("commands", commands),
            ("onesided_served", onesided_served),
            ("msgs_delivered", msgs_delivered),
            ("ops_completed", ops_completed),
            ("completions_dropped", completions_dropped),
            ("ops_shed", ops_shed),
            ("busy_rejected", busy_rejected),
            ("hedge_dups", hedge_dups),
            ("hedge_retransmits", hedge_retransmits),
            ("retransmits", retransmits),
            ("duplicates", duplicates),
        ]
    }
}

/// Adds `id` to an ascending, duplicate-free list — a ready set, or
/// the chunk offsets of one message (which mostly arrive in order, so
/// the common insert is a push). Returns whether `id` was absent.
fn insert_sorted(set: &mut Vec<u64>, id: u64) -> bool {
    if set.last().is_none_or(|&last| last < id) {
        set.push(id);
        return true;
    }
    match set.binary_search(&id) {
        Ok(_) => false,
        Err(at) => {
            set.insert(at, id);
            true
        }
    }
}

/// [`PonyEngine::stamp`] over the two fields it reads, for callers that
/// hold another part of the engine borrowed.
fn stamp_on(
    recorder: Option<&TraceRecorder>,
    host: HostId,
    trace: Option<TraceContext>,
    stage: Stage,
    at: Nanos,
) {
    if let (Some(ctx), Some(rec)) = (trace, recorder) {
        rec.record(ctx, stage, host, at);
    }
}

/// A flow and the peer it leads to.
struct PeerFlow {
    flow: Flow,
    remote_host: HostId,
    /// The peer's engine key: what its NIC steers this flow's packets by.
    remote_engine: u64,
}

struct ConnState {
    id: u64,
    flow: u64,
    remote_host: HostId,
    remote_engine: u64,
    /// Local session receiving completions for this connection.
    session: Option<u64>,
    /// Our view of the peer's posted receive buffers (large messages).
    remote_posted: u32,
    /// Buffers the local app has posted.
    local_posted: u32,
    /// Small-message credits available to us as a sender.
    small_credits: u32,
    /// Sends held back by flow control: (op, stream, len, trace).
    /// Trace contexts are in-memory only — they do not survive
    /// checkpoint/restore (a restored op's trace is simply dropped).
    held: VecDeque<(u64, u32, u64, Option<TraceContext>)>,
    /// Streams with admitted sends outstanding, serviced round-robin
    /// so streams do not head-of-line block each other (§3.3).
    stream_queue: VecDeque<u32>,
    /// Per-stream FIFO of admitted message ids (messages within one
    /// stream are ordered, so they proceed strictly in order).
    per_stream: IntMap<u32, VecDeque<u64>>,
    /// Next message id per stream (sender side).
    next_msg: IntMap<u32, u64>,
    /// Next message to deliver per stream (receiver side, in-order).
    next_deliver: IntMap<u32, u64>,
    /// Completed but not yet deliverable messages: (stream, msg) -> len.
    ready: IntMap<(u32, u64), u64>,
}

struct SendMsg {
    op: u64,
    session: Option<u64>,
    total: u64,
    chunks: u32,
    /// Offsets of the chunks the peer has acknowledged, ascending. The
    /// send is done when there are `chunks` of them. Keyed by offset,
    /// not by seq: a chunk re-queued across an upgrade goes out again
    /// under a new seq, and both copies may be acked.
    acked_offsets: Vec<u64>,
    issued_at: Nanos,
    /// Next chunk offset to enqueue; the send scheduler advances this
    /// one chunk at a time, interleaving streams.
    next_offset: u64,
    /// Causal trace context; stamped onto every chunk packet of this
    /// send. In-memory only (dropped across checkpoint/restore).
    trace: Option<TraceContext>,
}

struct RecvMsg {
    total: u64,
    received: u64,
    /// Offsets of the chunks received, ascending; a retransmitted chunk
    /// whose first copy arrived is recognised by its offset.
    offsets: Vec<u64>,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum OpKind {
    Send,
    Read,
    Write,
    IndirectRead,
    ScanRead,
}

struct PendingOp {
    kind: OpKind,
    conn: u64,
    session: Option<u64>,
    issued_at: Nanos,
    /// Causal trace context; stamped onto the request packet and
    /// finalized when the response completes the op. In-memory only.
    trace: Option<TraceContext>,
}

/// The connection an application command targets (every command names
/// one).
fn cmd_conn(cmd: &PonyCommand) -> u64 {
    match cmd {
        PonyCommand::Send { conn, .. }
        | PonyCommand::Read { conn, .. }
        | PonyCommand::Write { conn, .. }
        | PonyCommand::IndirectRead { conn, .. }
        | PonyCommand::ScanRead { conn, .. }
        | PonyCommand::PostRecvBuffers { conn, .. } => *conn,
    }
}

/// The Pony Express engine.
pub struct PonyEngine {
    cfg: PonyEngineConfig,
    fabric: FabricHandle,
    regions: RegionRegistry,
    sessions: SessionTable,
    mapper: FlowMapper,
    flows: IntMap<u64, PeerFlow>,
    conns: IntMap<u64, ConnState>,
    /// The ready sets, ascending by id: flows for which
    /// [`Flow::is_active`] holds and connections whose `stream_queue`
    /// is non-empty. Every per-pass walk (RTO checks, send scheduler,
    /// packet generation, deadlines, pending work) covers these instead
    /// of `flows`/`conns`: an id outside them is inert in all of those
    /// walks, so a pass costs what the ready work costs however many
    /// idle peers the engine has. Ids are added where the state changes
    /// (`mark_ready`) and pruned at the end of the pass; between those
    /// points each set is a superset of the truth, and after the prune
    /// it is exact (checked against a full scan in debug builds).
    ready_flows: Vec<u64>,
    ready_conns: Vec<u64>,
    send_msgs: IntMap<(u64, u32, u64), SendMsg>,
    recv_msgs: IntMap<(u64, u32, u64), RecvMsg>,
    pending_ops: IntMap<u64, PendingOp>,
    /// Sessions bootstrapped against THIS engine; the shared table may
    /// hold other engines' sessions too.
    owned_sessions: Vec<u64>,
    /// Highest op id seen per session. Client op ids are strictly
    /// increasing over the (FIFO) command queue, so a non-fresh id can
    /// only be a hedge resubmit: it is absorbed without re-execution,
    /// preserving exactly-once under hedging. Checkpointed so the
    /// guarantee survives a restart with hedges still in flight.
    session_watermarks: IntMap<u64, u64>,
    stats: PonyStats,
    /// Wake callback for self-arming timers (pacing/RTO); set by the
    /// module after registration.
    wake: Option<WakeFn>,
    timer: Option<(Nanos, snap_sim::EventHandle)>,
    /// Admission controller enforcing this container's memory quota on
    /// the datapath; `None` keeps the quota-free fast path.
    admission: Option<AdmissionController>,
    /// Bytes currently charged to the admission controller for
    /// in-flight sends (held + chunking + unacked). Released as sends
    /// complete, and wholesale on drop (crash/kill path).
    charged_bytes: u64,
    /// Trace recorder for causal op tracing; shared with clients and
    /// the fabric. Observation-only — never affects engine behavior.
    recorder: Option<TraceRecorder>,
    /// Trace contexts of one-sided responses awaiting transmission:
    /// op id -> the request's context, consumed when the response
    /// packet is first generated (a retransmitted response travels
    /// untraced, which only truncates that op's span tree).
    resp_traces: IntMap<u64, TraceContext>,
    rx_buf: Vec<Packet>,
    cmd_buf: Vec<PonyCommandTuple>,
    /// Chunks acknowledged by the packet being received: filled by the
    /// flow, drained by `process_acked`, capacity kept.
    acked_buf: Vec<AckedChunk>,
    /// Reusable wire-encode scratch: frames encode into this buffer
    /// (capacity persists across packets) and CRC32C is computed over
    /// it before the payload is materialized, so the tx path does no
    /// growth reallocations and no second CRC scan per frame.
    tx_scratch: Writer,
    /// Reusable tx staging for burst transmission.
    tx_batch: Vec<Packet>,
    detached: bool,
}

impl PonyEngine {
    /// Creates an engine and attaches its NIC receive filter.
    pub fn new(
        cfg: PonyEngineConfig,
        fabric: FabricHandle,
        regions: RegionRegistry,
        sessions: SessionTable,
    ) -> Self {
        fabric.with_nic(cfg.host, |nic| {
            nic.attach_filter(cfg.engine_key, cfg.queue);
            nic.arm_irq(cfg.queue, true);
        });
        let uid = (cfg.engine_key & 0xFFFF_FFFF) as u32;
        PonyEngine {
            mapper: FlowMapper::new(uid),
            cfg,
            fabric,
            regions,
            sessions,
            flows: IntMap::default(),
            conns: IntMap::default(),
            ready_flows: Vec::new(),
            ready_conns: Vec::new(),
            send_msgs: IntMap::default(),
            recv_msgs: IntMap::default(),
            pending_ops: IntMap::default(),
            owned_sessions: Vec::new(),
            session_watermarks: IntMap::default(),
            stats: PonyStats::default(),
            wake: None,
            timer: None,
            admission: None,
            charged_bytes: 0,
            recorder: None,
            resp_traces: IntMap::default(),
            rx_buf: Vec::new(),
            cmd_buf: Vec::new(),
            acked_buf: Vec::new(),
            tx_scratch: Writer::new(),
            tx_batch: Vec::new(),
            detached: false,
        }
    }

    /// Installs the wake callback used for pacing/RTO timers.
    pub fn set_wake(&mut self, wake: WakeFn) {
        self.wake = Some(wake);
    }

    /// Installs the admission controller that gates this engine's
    /// datapath (per-send quota charges and pressure-based shedding).
    ///
    /// Safe to call on a freshly restored engine: sends already in
    /// flight (held or mid-transfer) are force-charged so usage
    /// accounting stays truthful even if the charge lands over quota —
    /// restored state is never dropped, new admissions pay it back.
    pub fn set_admission(&mut self, admission: AdmissionController) {
        if let Some(old) = self.admission.take() {
            old.release(&self.cfg.container, self.charged_bytes);
        }
        let outstanding: u64 = self
            .send_msgs
            .values()
            .map(|s| s.total)
            .chain(
                self.conns
                    .values()
                    .flat_map(|c| c.held.iter().map(|&(_, _, len, _)| len)),
            )
            .sum();
        admission.ensure_container(&self.cfg.container);
        if outstanding > 0 {
            admission.charge(&self.cfg.container, outstanding);
        }
        self.charged_bytes = outstanding;
        self.admission = Some(admission);
    }

    /// The admission controller gating this engine, if any.
    pub fn admission(&self) -> Option<&AdmissionController> {
        self.admission.as_ref()
    }

    /// Installs the trace recorder this engine stamps stage records
    /// into (engine dequeue, op execution, retransmits, shed/busy
    /// refusals) and finalizes completed ops against.
    pub fn set_recorder(&mut self, recorder: TraceRecorder) {
        self.recorder = Some(recorder);
    }

    /// Stamps one stage record, if the op is traced and a recorder is
    /// installed. Pure observation.
    fn stamp(&self, trace: Option<TraceContext>, stage: Stage, at: Nanos) {
        stamp_on(self.recorder.as_ref(), self.cfg.host, trace, stage, at);
    }

    /// Finalizes a traced op: appends the Complete record and assembles
    /// the span tree. No-op for untraced ops.
    fn finish_trace(&self, trace: Option<TraceContext>, now: Nanos) {
        if let (Some(ctx), Some(rec)) = (trace, self.recorder.as_ref()) {
            rec.finalize(ctx, now, self.cfg.host);
        }
    }

    /// Claims a session: this engine will poll its command queue.
    pub fn add_session(&mut self, sid: u64) {
        if !self.owned_sessions.contains(&sid) {
            self.owned_sessions.push(sid);
        }
    }

    /// Engine counters.
    pub fn stats(&self) -> &PonyStats {
        &self.stats
    }

    /// Sessions this engine owns (polls). A shared engine owns every
    /// session bootstrapped against it; the shared [`SessionTable`] may
    /// hold other engines' sessions too.
    pub fn owned_sessions(&self) -> &[u64] {
        &self.owned_sessions
    }

    /// Pending command-queue depth per owned session: `(session id,
    /// commands waiting)`. The SPSC consumer length, sampled without
    /// draining — the telemetry queue-depth gauge source.
    pub fn session_depths(&self) -> Vec<(u64, usize)> {
        let table = self.sessions.borrow();
        self.owned_sessions
            .iter()
            .map(|sid| {
                (
                    *sid,
                    table.get(sid).map(|ep| ep.commands_pending()).unwrap_or(0),
                )
            })
            .collect()
    }

    /// The flow with the most RTT samples; ties go to the lowest flow
    /// id, so the pick does not depend on hash order.
    fn most_active_flow(&self) -> Option<&Flow> {
        self.flows
            .values()
            .map(|p| &p.flow)
            .max_by_key(|f| (f.cc().samples, std::cmp::Reverse(f.id)))
    }

    /// Debug: (the most active flow's Timely rate B/s, RTT samples over
    /// all flows, packets in flight over all flows).
    pub fn debug_flow_info(&self) -> (f64, u64, usize) {
        let rate = self.most_active_flow().map_or(0.0, |f| f.cc().rate());
        let samples = self.flows.values().map(|p| p.flow.cc().samples).sum();
        let infl = self.flows.values().map(|p| p.flow.inflight()).sum();
        (rate, samples, infl)
    }

    /// Debug: (sent, retransmits, delivered, duplicates) of the most
    /// active flow. [`PonyStats`] carries `retransmits` and
    /// `duplicates` summed over all flows.
    pub fn debug_flow_stats(&self) -> (u64, u64, u64, u64) {
        self.most_active_flow()
            .map(|f| {
                let s = f.stats();
                (s.sent, s.retransmits, s.delivered, s.duplicates)
            })
            .unwrap_or((0, 0, 0, 0))
    }

    /// Establishes a connection created by the control plane (the Pony
    /// module calls this through the engine mailbox on both endpoints).
    pub fn establish_conn(
        &mut self,
        conn: u64,
        remote_host: HostId,
        remote_engine: u64,
        version: u16,
        session: Option<u64>,
    ) {
        let (flow, fresh) = self.mapper.flow_for(remote_host, remote_engine);
        if fresh {
            self.flows.insert(
                flow,
                PeerFlow {
                    flow: Flow::new(flow, version, self.cfg.cc.clone()),
                    remote_host,
                    remote_engine,
                },
            );
        }
        self.conns.insert(
            conn,
            ConnState {
                id: conn,
                flow,
                remote_host,
                remote_engine,
                session,
                remote_posted: 0,
                local_posted: 0,
                small_credits: INITIAL_CREDITS,
                held: VecDeque::new(),
                stream_queue: VecDeque::new(),
                per_stream: IntMap::default(),
                next_msg: IntMap::default(),
                next_deliver: IntMap::default(),
                ready: IntMap::default(),
            },
        );
    }

    fn complete(&mut self, session: Option<u64>, completion: PonyCompletion) {
        let Some(sid) = session else {
            return;
        };
        let sessions = self.sessions.borrow();
        let delivered = sessions
            .get(&sid)
            .map(|endpoint| endpoint.complete(completion).is_ok())
            .unwrap_or(false);
        if !delivered {
            // Completion-queue overflow drops the completion; bounded
            // queues are part of the contract and callers size their
            // outstanding-op windows accordingly. The counter makes
            // sizing mistakes loud.
            self.stats.completions_dropped += 1;
        }
    }

    /// Queues `frame` on a flow and marks the flow ready.
    fn enqueue(&mut self, flow_id: u64, frame: OpFrame, now: Nanos) {
        self.flows
            .get_mut(&flow_id)
            .expect("a connection's or a request's flow exists")
            .flow
            .enqueue(frame, now);
        insert_sorted(&mut self.ready_flows, flow_id);
    }

    /// Admits a Send command, applying the memory quota (§2.5) and then
    /// flow control (§3.3): small messages consume shared credits,
    /// large ones posted buffers.
    #[allow(clippy::too_many_arguments)]
    fn admit_send(
        &mut self,
        now: Nanos,
        op: u64,
        session: Option<u64>,
        conn_id: u64,
        stream: u32,
        len: u64,
        trace: Option<TraceContext>,
    ) {
        if !self.conns.contains_key(&conn_id) {
            self.finish_trace(trace, now);
            self.complete(
                session,
                PonyCompletion::OpDone {
                    op,
                    status: OpStatus::Error,
                    data: vec![],
                    issued_at: now,
                },
            );
            return;
        }
        // Quota charge precedes flow-control admission so a held send
        // is accounted from the moment the engine buffers it. The
        // charge is released when the send fully completes (or on
        // engine drop). Refusal is back-pressure, not loss: nothing
        // was sent, the app retries.
        if let Some(adm) = &self.admission {
            if adm.try_charge(&self.cfg.container, len).is_err() {
                self.stats.busy_rejected += 1;
                self.stamp(trace, Stage::Busy, now);
                self.finish_trace(trace, now);
                self.complete(
                    session,
                    PonyCompletion::OpDone {
                        op,
                        status: OpStatus::Busy,
                        data: vec![],
                        issued_at: now,
                    },
                );
                return;
            }
            self.charged_bytes += len;
        }
        let conn = self.conns.get_mut(&conn_id).expect("checked above");
        let admitted = if len <= SMALL_MSG_BYTES {
            if conn.small_credits > 0 {
                conn.small_credits -= 1;
                true
            } else {
                false
            }
        } else if conn.remote_posted > 0 {
            conn.remote_posted -= 1;
            true
        } else {
            false
        };
        if !admitted {
            conn.held.push_back((op, stream, len, trace));
            return;
        }
        self.start_send(now, op, session, conn_id, stream, len, trace);
    }

    #[allow(clippy::too_many_arguments)]
    fn start_send(
        &mut self,
        now: Nanos,
        op: u64,
        session: Option<u64>,
        conn_id: u64,
        stream: u32,
        len: u64,
        trace: Option<TraceContext>,
    ) {
        let mtu = self.cfg.mtu as u64;
        let conn = self.conns.get_mut(&conn_id).expect("admitted conn exists");
        let msg = *conn
            .next_msg
            .entry(stream)
            .and_modify(|m| *m += 1)
            .or_insert(0);
        let chunks = len.div_ceil(mtu) as u32;
        self.send_msgs.insert(
            (conn_id, stream, msg),
            SendMsg {
                op,
                session,
                total: len,
                chunks,
                acked_offsets: Vec::new(),
                issued_at: now,
                next_offset: 0,
                trace,
            },
        );
        // Chunks are enqueued lazily by the round-robin send scheduler
        // (fill_flows), so a large message cannot monopolize the flow.
        let q = conn.per_stream.entry(stream).or_default();
        q.push_back(msg);
        if q.len() == 1 && !conn.stream_queue.contains(&stream) {
            conn.stream_queue.push_back(stream);
        }
        insert_sorted(&mut self.ready_conns, conn_id);
    }

    /// The send scheduler: tops up each flow's outbound queue from its
    /// connections' pending sends — one chunk per *stream* per round,
    /// FIFO within a stream — so concurrent streams interleave without
    /// head-of-line blocking each other (§3.3).
    fn fill_flows(&mut self, now: Nanos) {
        const OUTQ_TARGET: usize = 64;
        let mtu = self.cfg.mtu as u64;
        // Ascending connection id, so the top-up order (and hence
        // intra-train packet order) is identical across same-seed
        // runs. Nothing in the loop adds to `ready_conns`.
        for i in 0..self.ready_conns.len() {
            let conn_id = self.ready_conns[i];
            // The connection and its flow are resolved once per pass,
            // the stream's FIFO and the send once per chunk.
            let Some(conn) = self.conns.get_mut(&conn_id) else { continue };
            let Some(peer) = self.flows.get_mut(&conn.flow) else { continue };
            let queued_before = peer.flow.pending_tx();
            while peer.flow.pending_tx() < OUTQ_TARGET {
                let Some(stream) = conn.stream_queue.pop_front() else { break };
                let Some(msgs) = conn.per_stream.get_mut(&stream) else { continue };
                let Some(&msg) = msgs.front() else {
                    conn.per_stream.remove(&stream);
                    continue;
                };
                let Some(send) = self.send_msgs.get_mut(&(conn_id, stream, msg)) else {
                    msgs.pop_front();
                    if !msgs.is_empty() {
                        conn.stream_queue.push_back(stream);
                    }
                    continue;
                };
                let offset = send.next_offset;
                let chunk = (send.total - offset).min(mtu) as u32;
                send.next_offset += chunk as u64;
                peer.flow.enqueue(
                    OpFrame::MsgChunk {
                        conn: conn_id,
                        stream,
                        msg,
                        offset,
                        total: send.total,
                        len: chunk,
                    },
                    now,
                );
                if send.next_offset >= send.total {
                    msgs.pop_front();
                }
                if msgs.is_empty() {
                    conn.per_stream.remove(&stream);
                } else {
                    // Back of the round-robin: other streams get a turn.
                    conn.stream_queue.push_back(stream);
                }
            }
            if peer.flow.pending_tx() > queued_before {
                insert_sorted(&mut self.ready_flows, conn.flow);
            }
        }
    }

    /// Retries held sends after flow-control state improved.
    fn retry_held(&mut self, now: Nanos, conn_id: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&conn_id) else { return };
            let Some(&(op, stream, len, trace)) = conn.held.front() else { return };
            let ok = if len <= SMALL_MSG_BYTES {
                if conn.small_credits > 0 {
                    conn.small_credits -= 1;
                    true
                } else {
                    false
                }
            } else if conn.remote_posted > 0 {
                conn.remote_posted -= 1;
                true
            } else {
                false
            };
            if !ok {
                return;
            }
            let session = conn.session;
            conn.held.pop_front();
            self.start_send(now, op, session, conn_id, stream, len, trace);
        }
    }

    /// Handles an application command; returns the CPU charged.
    fn handle_command(
        &mut self,
        now: Nanos,
        op: u64,
        class: QosClass,
        trace: Option<TraceContext>,
        cmd: PonyCommand,
        session: u64,
    ) -> Nanos {
        self.stats.commands += 1;
        // Hedge dedup: op ids are strictly increasing per session, so
        // an id at or below the watermark is a client hedge resubmit of
        // an op this engine already accepted. Exactly-once demands it
        // never re-execute; instead the duplicate carries a signal —
        // the client thinks the op is slow — so nudge its flow into an
        // early retransmit of the oldest unacked frame.
        let wm = self.session_watermarks.entry(session).or_insert(0);
        if op <= *wm {
            self.stats.hedge_dups += 1;
            self.finish_trace(trace, now);
            let flow_id = self.conns.get(&cmd_conn(&cmd)).map(|c| c.flow);
            if let Some(peer) = flow_id.and_then(|fid| self.flows.get_mut(&fid)) {
                self.stats.hedge_retransmits += peer.flow.hedge_retransmit(now) as u64;
            }
            return Nanos(costs::PONY_PER_OP_NS);
        }
        *wm = op;
        let session = Some(session);
        // The gap from the client-enqueue stamp to this one is the op's
        // engine scheduling delay — the quantity §5's modes trade off.
        self.stamp(trace, Stage::EngineDequeue, now);
        // Pressure gate (§2.5): under Soft pressure best-effort work is
        // shed; under Hard pressure transport-class work is refused
        // with Busy (back-pressure — the op never entered the
        // transport, so exactly-once is untouched). PostRecvBuffers is
        // exempt: posting receive buffers *relieves* pressure by
        // letting the peer drain, and refusing it could deadlock both
        // sides of a connection.
        if !matches!(cmd, PonyCommand::PostRecvBuffers { .. }) {
            let pressure = self
                .admission
                .as_ref()
                .map(|adm| adm.pressure(&self.cfg.container))
                .unwrap_or(PressureState::Ok);
            let refusal = match (pressure, class) {
                (PressureState::Ok, _) => None,
                (_, QosClass::BestEffort) => Some(OpStatus::Shed),
                (PressureState::Hard, QosClass::Transport) => Some(OpStatus::Busy),
                (PressureState::Soft, QosClass::Transport) => None,
            };
            if let Some(status) = refusal {
                if status == OpStatus::Shed {
                    self.stats.ops_shed += 1;
                    if let Some(adm) = &self.admission {
                        adm.record_shed(&self.cfg.container);
                    }
                    self.stamp(trace, Stage::Shed, now);
                } else {
                    self.stats.busy_rejected += 1;
                    self.stamp(trace, Stage::Busy, now);
                }
                self.finish_trace(trace, now);
                self.complete(
                    session,
                    PonyCompletion::OpDone {
                        op,
                        status,
                        data: vec![],
                        issued_at: now,
                    },
                );
                return Nanos(costs::PONY_PER_OP_NS);
            }
        }
        match cmd {
            PonyCommand::Send { conn, stream, len } => {
                self.admit_send(now, op, session, conn, stream, len, trace);
            }
            PonyCommand::Read {
                conn,
                region,
                offset,
                len,
            } => {
                self.initiate(now, op, session, conn, OpKind::Read, trace, OpFrame::ReadReq {
                    op,
                    region,
                    offset,
                    len,
                });
            }
            PonyCommand::Write {
                conn,
                region,
                offset,
                data,
            } => {
                self.initiate(now, op, session, conn, OpKind::Write, trace, OpFrame::WriteReq {
                    op,
                    region,
                    offset,
                    // Vec -> Bytes is zero-copy: the command's buffer
                    // becomes the frame's refcounted payload.
                    data: data.into(),
                });
            }
            PonyCommand::IndirectRead {
                conn,
                table,
                indices,
                len,
            } => {
                self.initiate(
                    now,
                    op,
                    session,
                    conn,
                    OpKind::IndirectRead,
                    trace,
                    OpFrame::IndirectReadReq {
                        op,
                        table,
                        indices,
                        len,
                    },
                );
            }
            PonyCommand::ScanRead {
                conn,
                region,
                key,
                len,
            } => {
                self.initiate(now, op, session, conn, OpKind::ScanRead, trace, OpFrame::ScanReadReq {
                    op,
                    region,
                    key,
                    len,
                });
            }
            PonyCommand::PostRecvBuffers { conn, count } => {
                if let Some(c) = self.conns.get_mut(&conn) {
                    c.local_posted += count;
                    let flow_id = c.flow;
                    self.enqueue(flow_id, OpFrame::BufferPost { conn, count }, now);
                }
                // Buffer posts complete immediately.
                self.finish_trace(trace, now);
                self.complete(
                    session,
                    PonyCompletion::OpDone {
                        op,
                        status: OpStatus::Ok,
                        data: vec![],
                        issued_at: now,
                    },
                );
            }
        }
        Nanos(costs::PONY_PER_OP_NS)
    }

    #[allow(clippy::too_many_arguments)]
    fn initiate(
        &mut self,
        now: Nanos,
        op: u64,
        session: Option<u64>,
        conn_id: u64,
        kind: OpKind,
        trace: Option<TraceContext>,
        frame: OpFrame,
    ) {
        let Some(conn) = self.conns.get(&conn_id) else {
            self.finish_trace(trace, now);
            self.complete(
                session,
                PonyCompletion::OpDone {
                    op,
                    status: OpStatus::Error,
                    data: vec![],
                    issued_at: now,
                },
            );
            return;
        };
        let flow_id = conn.flow;
        self.pending_ops.insert(
            op,
            PendingOp {
                kind,
                conn: conn_id,
                session,
                issued_at: now,
                trace,
            },
        );
        self.enqueue(flow_id, frame, now);
    }

    /// Executes a one-sided request against local regions, entirely in
    /// the engine (§3.2: "one-sided operations do not involve any
    /// application code on the destination"). Returns the CPU charged.
    fn serve_onesided(
        &mut self,
        now: Nanos,
        flow_id: u64,
        frame: OpFrame,
        trace: Option<TraceContext>,
    ) -> Nanos {
        let mut cpu = Nanos(costs::PONY_ONESIDED_READ_NS);
        let (op, status, data) = match frame {
            OpFrame::ReadReq {
                op,
                region,
                offset,
                len,
            } => match self.regions.read(snap_shm::region::RegionId(region), offset as usize, len as usize) {
                Ok(d) => (op, 0u8, d),
                Err(_) => (op, 1u8, vec![]),
            },
            OpFrame::WriteReq {
                op,
                region,
                offset,
                data,
            } => {
                let status = match self.regions.write(
                    snap_shm::region::RegionId(region),
                    offset as usize,
                    &data,
                ) {
                    Ok(()) => 0u8,
                    Err(_) => 1u8,
                };
                (op, status, vec![])
            }
            OpFrame::IndirectReadReq {
                op,
                table,
                indices,
                len,
            } => {
                cpu += Nanos(costs::PONY_INDIRECTION_NS) * indices.len() as u64;
                let mut out = Vec::with_capacity(indices.len() * len as usize);
                let mut status = 0u8;
                for idx in &indices {
                    match self.indirect_target(table, *idx) {
                        Ok((region, offset)) => {
                            match self.regions.read(region, offset, len as usize) {
                                Ok(mut d) => out.append(&mut d),
                                Err(_) => {
                                    status = 1;
                                    break;
                                }
                            }
                        }
                        Err(_) => {
                            status = 1;
                            break;
                        }
                    }
                }
                (op, status, if status == 0 { out } else { vec![] })
            }
            OpFrame::ScanReadReq {
                op,
                region,
                key,
                len,
            } => {
                // Scan a small region of 16-byte (key, target) entries.
                let found = self
                    .regions
                    .with_data(snap_shm::region::RegionId(region), |data| {
                        let entries = data.len() / 16;
                        cpu += Nanos(5) * entries as u64;
                        for i in 0..entries {
                            let k = u64::from_le_bytes(
                                data[i * 16..i * 16 + 8].try_into().expect("8 bytes"),
                            );
                            if k == key {
                                let target = u64::from_le_bytes(
                                    data[i * 16 + 8..i * 16 + 16].try_into().expect("8 bytes"),
                                );
                                return Some(target);
                            }
                        }
                        None
                    });
                match found {
                    Ok(Some(target)) => {
                        let region = snap_shm::region::RegionId(target >> 32);
                        let offset = (target & 0xFFFF_FFFF) as usize;
                        match self.regions.read(region, offset, len as usize) {
                            Ok(d) => (op, 0u8, d),
                            Err(_) => (op, 1u8, vec![]),
                        }
                    }
                    Ok(None) => (op, 1u8, vec![]),
                    Err(_) => (op, 1u8, vec![]),
                }
            }
            _ => unreachable!("serve_onesided called with non-request frame"),
        };
        self.stats.onesided_served += 1;
        // The execution stamp closes the remote-dequeue interval; the
        // context is parked for the response packet's return-path
        // stamps.
        self.stamp(trace, Stage::OpExecute, now);
        if let Some(ctx) = trace {
            self.resp_traces.insert(op, ctx);
        }
        self.enqueue(
            flow_id,
            OpFrame::OneSidedResp {
                op,
                status,
                data: data.into(),
            },
            now,
        );
        cpu
    }

    fn indirect_target(&self, table: u64, index: u32) -> Result<(snap_shm::region::RegionId, usize), RegionError> {
        let packed = self
            .regions
            .read_u64(snap_shm::region::RegionId(table), index as usize * 8)?;
        Ok((
            snap_shm::region::RegionId(packed >> 32),
            (packed & 0xFFFF_FFFF) as usize,
        ))
    }

    /// Handles a frame delivered by the flow layer; returns CPU charged.
    /// `trace` is the wire-carried context of the packet that delivered
    /// the frame (present only on v6 flows with tracing enabled).
    fn handle_frame(
        &mut self,
        now: Nanos,
        flow_id: u64,
        frame: OpFrame,
        trace: Option<TraceContext>,
    ) -> Nanos {
        match frame {
            OpFrame::MsgChunk {
                conn,
                stream,
                msg,
                offset,
                total,
                len,
            } => {
                // Receive copy: inline (per-byte) or offloaded (I/OAT).
                let copy = if self.cfg.use_ioat {
                    Nanos(costs::IOAT_SETUP_NS)
                } else {
                    costs::copy_cost(len as u64)
                };
                let entry = self
                    .recv_msgs
                    .entry((conn, stream, msg))
                    .or_insert(RecvMsg {
                        total,
                        received: 0,
                        offsets: Vec::new(),
                    });
                if insert_sorted(&mut entry.offsets, offset) {
                    entry.received += len as u64;
                }
                if entry.received >= entry.total {
                    self.recv_msgs.remove(&(conn, stream, msg));
                    self.msg_complete(conn, stream, msg, total);
                }
                copy
            }
            OpFrame::BufferPost { conn, count } => {
                if let Some(c) = self.conns.get_mut(&conn) {
                    c.remote_posted += count;
                }
                self.retry_held(now, conn);
                Nanos(50)
            }
            OpFrame::OneSidedResp { op, status, data } => {
                let copy = if self.cfg.use_ioat {
                    Nanos(costs::IOAT_SETUP_NS)
                } else {
                    costs::copy_cost(data.len() as u64)
                };
                if let Some(pending) = self.pending_ops.remove(&op) {
                    self.stats.ops_completed += 1;
                    // The op is done: assemble its cross-host span tree.
                    self.finish_trace(pending.trace, now);
                    self.complete(
                        pending.session,
                        PonyCompletion::OpDone {
                            op,
                            status: if status == 0 {
                                OpStatus::Ok
                            } else {
                                OpStatus::RemoteAccessError
                            },
                            // The completion queue models the copy into
                            // app-owned shared memory, so this boundary
                            // copies by design.
                            data: data.to_vec(),
                            issued_at: pending.issued_at,
                        },
                    );
                }
                copy
            }
            req @ (OpFrame::ReadReq { .. }
            | OpFrame::WriteReq { .. }
            | OpFrame::IndirectReadReq { .. }
            | OpFrame::ScanReadReq { .. }) => self.serve_onesided(now, flow_id, req, trace),
            OpFrame::AckOnly => Nanos::ZERO,
        }
    }

    /// A fully reassembled message: deliver in per-stream order.
    fn msg_complete(&mut self, conn_id: u64, stream: u32, msg: u64, total: u64) {
        let Some(conn) = self.conns.get_mut(&conn_id) else { return };
        conn.ready.insert((stream, msg), total);
        let mut deliveries = Vec::new();
        let next = conn.next_deliver.entry(stream).or_insert(0);
        while let Some(len) = conn.ready.remove(&(stream, *next)) {
            deliveries.push((conn_id, stream, *next, len));
            *next += 1;
            if len > SMALL_MSG_BYTES {
                conn.local_posted = conn.local_posted.saturating_sub(1);
            }
        }
        let session = conn.session;
        for (conn, stream, msg, len) in deliveries {
            self.stats.msgs_delivered += 1;
            self.complete(
                session,
                PonyCompletion::RecvMsg {
                    conn,
                    stream,
                    msg,
                    len,
                },
            );
        }
    }

    /// Processes the chunks the peer newly acked (`acked_buf`, as the
    /// flow left them): completes sends whose chunks are all
    /// acknowledged, returning small-message credits.
    fn process_acked(&mut self, now: Nanos) {
        let mut acked = std::mem::take(&mut self.acked_buf);
        for AckedChunk { conn, stream, msg, offset } in acked.drain(..) {
            let Some(send) = self.send_msgs.get_mut(&(conn, stream, msg)) else {
                continue;
            };
            insert_sorted(&mut send.acked_offsets, offset);
            if send.next_offset >= send.total && send.acked_offsets.len() as u32 >= send.chunks {
                let send = self
                    .send_msgs
                    .remove(&(conn, stream, msg))
                    .expect("just looked up");
                self.stats.ops_completed += 1;
                // The send's quota charge is returned now that every
                // chunk is acknowledged and its memory is reclaimable.
                if let Some(adm) = &self.admission {
                    adm.release(&self.cfg.container, send.total);
                    self.charged_bytes = self.charged_bytes.saturating_sub(send.total);
                }
                if send.total <= SMALL_MSG_BYTES {
                    if let Some(c) = self.conns.get_mut(&conn) {
                        c.small_credits += 1;
                    }
                    self.retry_held(send.issued_at, conn);
                }
                // All chunks acked: the send op is done. The trailing
                // interval (last data tx to the ack's arrival) lands in
                // the Complete stage since acks travel untraced.
                self.finish_trace(send.trace, now);
                self.complete(
                    send.session,
                    PonyCompletion::OpDone {
                        op: send.op,
                        status: OpStatus::Ok,
                        data: vec![],
                        issued_at: send.issued_at,
                    },
                );
            }
        }
        self.acked_buf = acked;
    }

    /// Just-in-time packet generation: drain flows while tx descriptor
    /// slots and pacing allow (§3.1), staging a packet train and handing
    /// it to the fabric as ONE burst so fixed per-transmit costs (event
    /// scheduling, doorbell) amortize across the train.
    fn generate_packets(&mut self, sim: &mut Sim) -> (Nanos, usize) {
        let now = sim.now();
        let budget = self.cfg.poll_batch * 2;
        let slots = self
            .fabric
            .with_nic(self.cfg.host, |nic| nic.tx_slots_available(self.cfg.queue));
        let max = budget.min(slots);
        let mut batch = std::mem::take(&mut self.tx_batch);
        batch.clear();
        // Ascending flow id: per-packet positions inside the staged
        // train are observable (per-packet uplink/egress serialization
        // stamps), even though train-level event times only depend on
        // the max. Nothing in the loop adds to `ready_flows`.
        'outer: for i in 0..self.ready_flows.len() {
            let fid = self.ready_flows[i];
            let peer = self.flows.get_mut(&fid).expect("listed");
            loop {
                if batch.len() >= max {
                    break 'outer;
                }
                let rtx_before = peer.flow.stats().retransmits;
                let Some(mut pkt) = peer.flow.produce(now) else { break };
                // A retransmit counter bump during this produce() call
                // means THIS packet is the retransmission.
                let is_rtx = peer.flow.stats().retransmits > rtx_before;
                // Attribute the packet to the op it carries and stamp
                // the context into the wire header (v6 flows only).
                pkt.trace = match &pkt.frame {
                    OpFrame::MsgChunk {
                        conn, stream, msg, ..
                    } => self
                        .send_msgs
                        .get(&(*conn, *stream, *msg))
                        .and_then(|s| s.trace),
                    OpFrame::ReadReq { op, .. }
                    | OpFrame::WriteReq { op, .. }
                    | OpFrame::IndirectReadReq { op, .. }
                    | OpFrame::ScanReadReq { op, .. } => {
                        self.pending_ops.get(op).and_then(|p| p.trace)
                    }
                    // Consumed on first generation; a retransmitted
                    // response travels untraced.
                    OpFrame::OneSidedResp { op, .. } => self.resp_traces.remove(op),
                    OpFrame::BufferPost { .. } | OpFrame::AckOnly => None,
                };
                if is_rtx {
                    self.stats.retransmits += 1;
                    stamp_on(
                        self.recorder.as_ref(),
                        self.cfg.host,
                        pkt.trace,
                        Stage::Retransmit,
                        now,
                    );
                }
                // Encode into the engine scratch (no growth reallocs
                // once warm) and CRC the encoded bytes right here, so
                // Packet construction skips its own CRC pass.
                self.tx_scratch.clear();
                pkt.encode_into(&mut self.tx_scratch);
                let crc = snap_nic::crc::crc32c(self.tx_scratch.as_slice());
                let payload = Bytes::copy_from_slice(self.tx_scratch.as_slice());
                let mut nic_pkt =
                    Packet::with_precomputed_crc(self.cfg.host, peer.remote_host, payload, crc);
                nic_pkt.wire_size = pkt.wire_size() + Packet::HEADER_OVERHEAD;
                // The fabric stamps its hop records against this.
                nic_pkt.trace = pkt.trace;
                // Encoded: the ack list goes back for the next packet.
                peer.flow.reclaim_sacks(pkt.sacks);
                batch.push(
                    nic_pkt
                        .with_qos(QosClass::Transport)
                        .with_steer_key(peer.remote_engine)
                        .with_rss_hash(fid),
                );
            }
        }
        let staged = batch.len();
        // Per-burst fixed cost + per-packet marginal cost (batch of one
        // costs exactly what the unbatched path charged).
        let cpu = costs::pony_batch_cost(staged);
        let sent = if staged > 0 {
            self.fabric.transmit_burst(sim, self.cfg.queue, &mut batch)
        } else {
            0
        };
        // `max` was bounded by the slots available, so the whole train
        // is normally accepted; any leftover (slot raced away) is
        // dropped here and recovered by RTO, exactly like the TxBusy
        // path of single-packet transmit.
        batch.clear();
        self.tx_batch = batch;
        self.stats.tx_packets += sent as u64;
        (cpu, sent)
    }

    /// Closes a pass: prunes the ready sets back to exactly the active
    /// flows and the connections with streams to schedule, and in the
    /// same walk finds the earliest pacing/RTO deadline and the frames
    /// that could leave right now. Returns `(deadline, sendable)`.
    fn settle_ready(&mut self, now: Nanos) -> (Option<Nanos>, usize) {
        let conns = &self.conns;
        self.ready_conns
            .retain(|id| conns.get(id).is_some_and(|c| !c.stream_queue.is_empty()));
        let flows = &self.flows;
        let mut earliest: Option<Nanos> = None;
        let mut sendable = 0;
        self.ready_flows.retain(|fid| {
            let Some(flow) = flows.get(fid).map(|p| &p.flow).filter(|f| f.is_active()) else {
                return false;
            };
            let pacing = flow.next_pacing_deadline(now);
            if pacing.is_some_and(|d| d <= now) {
                sendable += flow.pending_tx();
            }
            for d in pacing.into_iter().chain(flow.next_rto_deadline()) {
                earliest = Some(earliest.map_or(d, |e| e.min(d)));
            }
            true
        });
        debug_assert!(self.ready_sets_match_full_scan());
        (earliest, sendable)
    }

    /// The ready sets the slow way, by scanning every flow and
    /// connection: `(flows, conns)`, ascending.
    fn scan_ready(&self) -> (Vec<u64>, Vec<u64>) {
        let mut flows: Vec<u64> = self
            .flows
            .values()
            .filter(|p| p.flow.is_active())
            .map(|p| p.flow.id)
            .collect();
        flows.sort_unstable();
        let mut conns: Vec<u64> = self
            .conns
            .values()
            .filter(|c| !c.stream_queue.is_empty())
            .map(|c| c.id)
            .collect();
        conns.sort_unstable();
        (flows, conns)
    }

    /// The invariant behind the pass, checked the slow way: after the
    /// end-of-pass prune the ready sets hold exactly the ids a full
    /// scan picks, every flow's O(1) RTO deadline equals the minimum
    /// over its in-flight packets, and the per-flow counters summed
    /// into [`PonyStats`] equal the sums over flows.
    fn ready_sets_match_full_scan(&self) -> bool {
        let (flows, conns) = self.scan_ready();
        let (mut retransmits, mut duplicates) = (0, 0);
        for p in self.flows.values() {
            retransmits += p.flow.stats().retransmits;
            duplicates += p.flow.stats().duplicates;
        }
        flows == self.ready_flows
            && conns == self.ready_conns
            && self
                .flows
                .values()
                .all(|p| p.flow.next_rto_deadline() == p.flow.rto_deadline_by_scan())
            && retransmits == self.stats.retransmits
            && duplicates == self.stats.duplicates
    }

    /// Arms a timer at `deadline`, the earliest pacing/RTO deadline
    /// across flows, unless an earlier-or-equal one is already armed.
    fn arm_timer(&mut self, sim: &mut Sim, deadline: Option<Nanos>) {
        let now = sim.now();
        let Some(deadline) = deadline else { return };
        let deadline = deadline.max(now + Nanos(1));
        if let Some((at, handle)) = &self.timer {
            if *at <= deadline {
                return; // an earlier-or-equal timer is already armed
            }
            handle.cancel();
        }
        let Some(wake) = self.wake.clone() else { return };
        let handle = sim.schedule_cancellable_at(deadline, move |sim| wake(sim));
        self.timer = Some((deadline, handle));
    }
}

impl Drop for PonyEngine {
    /// Crash/kill path: the supervisor drops the engine box, and every
    /// byte this engine had charged is returned to its container so a
    /// crashed engine cannot leak quota (the restarted engine
    /// re-charges its restored in-flight state via `set_admission`).
    fn drop(&mut self) {
        if let Some(adm) = &self.admission {
            adm.release(&self.cfg.container, self.charged_bytes);
        }
    }
}

impl Engine for PonyEngine {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn run(&mut self, sim: &mut Sim) -> RunReport {
        let now = sim.now();
        let mut cpu = Nanos(costs::ENGINE_POLL_PASS_NS);
        let mut work = false;
        if let Some((at, _)) = &self.timer {
            if *at <= now {
                self.timer = None;
            }
        }

        // 1. Poll NIC rx (bounded batch, §3.1).
        self.rx_buf.clear();
        let batch = self.cfg.poll_batch;
        let (host, queue) = (self.cfg.host, self.cfg.queue);
        let mut rx = std::mem::take(&mut self.rx_buf);
        self.fabric.with_nic(host, |nic| {
            nic.poll_rx(queue, batch, &mut rx);
        });
        // Per-burst fixed cost + per-packet marginal cost for the whole
        // rx train (frame handling costs are still charged per frame).
        cpu += costs::pony_batch_cost(rx.len());
        for pkt in rx.drain(..) {
            work = true;
            self.stats.rx_packets += 1;
            // Decode straight out of the refcounted packet payload:
            // data-carrying frames slice it instead of copying.
            let Ok(ppkt) = PonyPacket::decode_bytes(&pkt.payload) else {
                continue;
            };
            let flow_id = ppkt.flow;
            // Remote-initiated flows materialize on first packet. The
            // reverse path steers by the *source* engine key, which the
            // wire protocol encodes in the flow id's high bits
            // (FlowMapper layout).
            let flow = &mut self
                .flows
                .entry(flow_id)
                .or_insert_with(|| PeerFlow {
                    flow: Flow::new(flow_id, ppkt.version, self.cfg.cc.clone()),
                    remote_host: pkt.src,
                    remote_engine: flow_id >> 32,
                })
                .flow;
            let ptrace = ppkt.trace;
            let dups_before = flow.stats().duplicates;
            let accept = flow.on_packet_tracked(&ppkt, now, &mut self.acked_buf);
            self.stats.duplicates += flow.stats().duplicates - dups_before;
            // The packet may have left an ack owed.
            if flow.is_active() {
                insert_sorted(&mut self.ready_flows, flow_id);
            }
            self.process_acked(now);
            if let Accept::Deliver(frame) = accept {
                // A traced packet reached this engine's poll loop: the
                // remote-dequeue stamp (NIC delivery -> engine pickup).
                self.stamp(ptrace, Stage::RemoteDequeue, now);
                cpu += self.handle_frame(now, flow_id, frame, ptrace);
            }
        }
        self.rx_buf = rx;

        // 2. Poll this engine's application command queues (bounded
        // batch). Other engines' sessions live in the same table but
        // are not ours to drain.
        for i in 0..self.owned_sessions.len() {
            let sid = self.owned_sessions[i];
            self.cmd_buf.clear();
            let mut cmds = std::mem::take(&mut self.cmd_buf);
            {
                let sessions = self.sessions.borrow();
                if let Some(ep) = sessions.get(&sid) {
                    ep.poll_commands(&mut cmds, self.cfg.poll_batch);
                }
            }
            for (op, class, trace, cmd) in cmds.drain(..) {
                work = true;
                cpu += self.handle_command(now, op, class, trace, cmd, sid);
            }
            self.cmd_buf = cmds;
        }

        // 3. RTO checks.
        for i in 0..self.ready_flows.len() {
            let peer = self
                .flows
                .get_mut(&self.ready_flows[i])
                .expect("ready flows exist");
            if peer.flow.check_rto(now) > 0 {
                work = true;
            }
        }

        // 4. Send scheduler + just-in-time packet generation.
        self.fill_flows(now);
        let (tx_cpu, sent) = self.generate_packets(sim);
        cpu += tx_cpu;
        work |= sent > 0;

        // 5. Arm pacing/RTO timers for future work.
        let (next_deadline, sendable) = self.settle_ready(now);
        self.arm_timer(sim, next_deadline);

        // Report only *actionable* work: frames held back by pacing or
        // RTO wait on their timers and must not busy-loop the worker
        // (the armed timer wakes us; rx/commands/sendable frames do
        // warrant an immediate next pass).
        let rx = self
            .fabric
            .with_nic(self.cfg.host, |nic| nic.rx_pending(self.cfg.queue));
        let cmds: usize = {
            let table = self.sessions.borrow();
            self.owned_sessions
                .iter()
                .filter_map(|sid| table.get(sid))
                .map(|ep| ep.commands_pending())
                .sum()
        };
        RunReport {
            cpu,
            work_done: work,
            pending: rx + cmds + sendable,
            next_deadline,
        }
    }

    fn pending_work(&self) -> usize {
        let rx = self.fabric.with_nic(self.cfg.host, |nic| nic.rx_pending(self.cfg.queue));
        // Idle flows queue nothing, and a connection with an admitted
        // send has its stream on `stream_queue`.
        let tx: usize = self
            .ready_flows
            .iter()
            .map(|fid| self.flows[fid].flow.pending_tx())
            .sum();
        let sends: usize = self
            .ready_conns
            .iter()
            .flat_map(|id| self.conns[id].per_stream.values())
            .map(|q| q.len())
            .sum();
        let table = self.sessions.borrow();
        let cmds: usize = self
            .owned_sessions
            .iter()
            .filter_map(|sid| table.get(sid))
            .map(|ep| ep.commands_pending())
            .sum();
        rx + tx + sends + cmds
    }

    fn oldest_pending_age(&self, now: Nanos) -> Nanos {
        self.ready_flows
            .iter()
            .map(|fid| self.flows[fid].flow.oldest_pending_age(now))
            .max()
            .unwrap_or(Nanos::ZERO)
    }

    fn serialize_state(&mut self) -> Vec<u8> {
        let mut w = Writer::with_capacity(4096);
        w.string(&self.cfg.name);
        w.u32(self.owned_sessions.len() as u32);
        for sid in &self.owned_sessions {
            w.u64(*sid);
        }
        // Connections.
        w.u32(self.conns.len() as u32);
        let mut conn_ids: Vec<u64> = self.conns.keys().copied().collect();
        conn_ids.sort_unstable();
        for id in conn_ids {
            let c = &self.conns[&id];
            w.u64(c.id)
                .u64(c.flow)
                .u32(c.remote_host)
                .u64(c.remote_engine)
                .bool(c.session.is_some())
                .u64(c.session.unwrap_or(0))
                .u32(c.remote_posted)
                .u32(c.local_posted)
                .u32(c.small_credits);
            w.u32(c.held.len() as u32);
            // Trace contexts are deliberately not checkpointed: a
            // restored op continues untraced.
            for (op, stream, len, _trace) in &c.held {
                w.u64(*op).u32(*stream).u64(*len);
            }
            // Pending sends, flattened as (stream, msg) pairs; restore
            // rebuilds the per-stream FIFOs (msg ids are ordered).
            let pending: Vec<(u32, u64)> = {
                let mut v: Vec<(u32, u64)> = c
                    .per_stream
                    .iter()
                    .flat_map(|(s, q)| q.iter().map(move |m| (*s, *m)))
                    .collect();
                v.sort_unstable();
                v
            };
            w.u32(pending.len() as u32);
            for (stream, msg) in pending {
                w.u32(stream).u64(msg);
            }
            w.u32(c.next_msg.len() as u32);
            let mut streams: Vec<_> = c.next_msg.iter().collect();
            streams.sort();
            for (s, m) in streams {
                w.u32(*s).u64(*m);
            }
            w.u32(c.next_deliver.len() as u32);
            let mut streams: Vec<_> = c.next_deliver.iter().collect();
            streams.sort();
            for (s, m) in streams {
                w.u32(*s).u64(*m);
            }
            w.u32(c.ready.len() as u32);
            let mut ready: Vec<_> = c.ready.iter().collect();
            ready.sort();
            for ((s, m), len) in ready {
                w.u32(*s).u64(*m).u64(*len);
            }
        }
        // Flows and their peers.
        w.u32(self.flows.len() as u32);
        let mut flow_ids: Vec<u64> = self.flows.keys().copied().collect();
        flow_ids.sort_unstable();
        for fid in flow_ids {
            let peer = &self.flows[&fid];
            w.u32(peer.remote_host).u64(peer.remote_engine);
            w.bytes(&peer.flow.serialize());
        }
        // Send-message state.
        w.u32(self.send_msgs.len() as u32);
        let mut keys: Vec<_> = self.send_msgs.keys().copied().collect();
        keys.sort_unstable();
        for (conn, stream, msg) in keys {
            let s = &self.send_msgs[&(conn, stream, msg)];
            w.u64(conn).u32(stream).u64(msg);
            w.u64(s.op)
                .bool(s.session.is_some())
                .u64(s.session.unwrap_or(0))
                .u64(s.total)
                .u32(s.chunks)
                .u64(s.issued_at.as_nanos())
                .u64(s.next_offset);
            w.u32(s.acked_offsets.len() as u32);
            for &o in &s.acked_offsets {
                w.u64(o);
            }
        }
        // Receive reassembly state.
        w.u32(self.recv_msgs.len() as u32);
        let mut keys: Vec<_> = self.recv_msgs.keys().copied().collect();
        keys.sort_unstable();
        for (conn, stream, msg) in keys {
            let r = &self.recv_msgs[&(conn, stream, msg)];
            w.u64(conn).u32(stream).u64(msg).u64(r.total);
            w.u32(r.offsets.len() as u32);
            for &o in &r.offsets {
                w.u64(o);
            }
        }
        // Pending one-sided ops.
        w.u32(self.pending_ops.len() as u32);
        let mut ops: Vec<u64> = self.pending_ops.keys().copied().collect();
        ops.sort_unstable();
        for op in ops {
            let p = &self.pending_ops[&op];
            w.u64(op)
                .u8(match p.kind {
                    OpKind::Send => 0,
                    OpKind::Read => 1,
                    OpKind::Write => 2,
                    OpKind::IndirectRead => 3,
                    OpKind::ScanRead => 4,
                })
                .u64(p.conn)
                .bool(p.session.is_some())
                .u64(p.session.unwrap_or(0))
                .u64(p.issued_at.as_nanos());
        }
        // Per-session hedge-dedup watermarks: without them a hedge
        // duplicate arriving after a restart would re-execute its op.
        w.u32(self.session_watermarks.len() as u32);
        let mut sids: Vec<u64> = self.session_watermarks.keys().copied().collect();
        sids.sort_unstable();
        for sid in sids {
            w.u64(sid).u64(self.session_watermarks[&sid]);
        }
        w.finish()
    }

    fn detach(&mut self, sim: &mut Sim) {
        let _ = sim;
        self.detached = true;
        if let Some((_, h)) = self.timer.take() {
            h.cancel();
        }
        self.fabric.with_nic(self.cfg.host, |nic| {
            nic.detach_filter(self.cfg.engine_key);
        });
    }

    /// Idempotent: re-inserting the filter and re-arming the irq are
    /// upserts, so a freshly constructed successor (already attached by
    /// its constructor) is unaffected, while a rolled-back predecessor
    /// gets its receive path back.
    fn attach(&mut self, sim: &mut Sim) {
        let _ = sim;
        self.detached = false;
        self.fabric.with_nic(self.cfg.host, |nic| {
            nic.attach_filter(self.cfg.engine_key, self.cfg.queue);
            nic.arm_irq(self.cfg.queue, true);
        });
    }

    fn container(&self) -> &str {
        &self.cfg.container
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

impl PonyEngine {
    /// Restores an engine from [`Engine::serialize_state`] output plus
    /// re-injected runtime handles (the new Snap instance's fabric,
    /// regions and sessions — transferred during brownout).
    ///
    /// Returns an error — never panics — on a truncated or corrupt
    /// snapshot; callers (upgrade factories, supervisor restart) map it
    /// into a typed failure that triggers rollback or a fresh start.
    pub fn restore(
        state: &[u8],
        mut cfg: PonyEngineConfig,
        fabric: FabricHandle,
        regions: RegionRegistry,
        sessions: SessionTable,
        now: Nanos,
    ) -> Result<PonyEngine, DecodeError> {
        let mut r = Reader::new(state);
        let name = r.string()?;
        cfg.name = name;
        let mut engine = PonyEngine::new(cfg, fabric, regions, sessions);
        for _ in 0..r.u32()? {
            engine.owned_sessions.push(r.u64()?);
        }
        let nconns = r.u32()?;
        for _ in 0..nconns {
            let id = r.u64()?;
            let flow = r.u64()?;
            let remote_host = r.u32()?;
            let remote_engine = r.u64()?;
            let has_session = r.bool()?;
            let session = r.u64()?;
            let remote_posted = r.u32()?;
            let local_posted = r.u32()?;
            let small_credits = r.u32()?;
            let mut held = VecDeque::new();
            for _ in 0..r.u32()? {
                held.push_back((
                    r.u64()?,
                    r.u32()?,
                    r.u64()?,
                    None,
                ));
            }
            let mut per_stream: IntMap<u32, VecDeque<u64>> = IntMap::default();
            let mut stream_queue = VecDeque::new();
            for _ in 0..r.u32()? {
                let stream = r.u32()?;
                let msg = r.u64()?;
                let q = per_stream.entry(stream).or_default();
                q.push_back(msg);
                if q.len() == 1 {
                    stream_queue.push_back(stream);
                }
            }
            let mut next_msg = IntMap::default();
            for _ in 0..r.u32()? {
                let s = r.u32()?;
                let m = r.u64()?;
                next_msg.insert(s, m);
            }
            let mut next_deliver = IntMap::default();
            for _ in 0..r.u32()? {
                let s = r.u32()?;
                let m = r.u64()?;
                next_deliver.insert(s, m);
            }
            let mut ready = IntMap::default();
            for _ in 0..r.u32()? {
                let s = r.u32()?;
                let m = r.u64()?;
                let len = r.u64()?;
                ready.insert((s, m), len);
            }
            engine.conns.insert(
                id,
                ConnState {
                    id,
                    flow,
                    remote_host,
                    remote_engine,
                    session: has_session.then_some(session),
                    remote_posted,
                    local_posted,
                    small_credits,
                    held,
                    stream_queue,
                    per_stream,
                    next_msg,
                    next_deliver,
                    ready,
                },
            );
        }
        let nflows = r.u32()?;
        for _ in 0..nflows {
            let host = r.u32()?;
            let key = r.u64()?;
            let body = r.bytes()?;
            let flow = Flow::deserialize(body, engine.cfg.cc.clone(), now)?;
            // Rebuild the mapper so future conns reuse these flows.
            engine.mapper.flow_for(host, key);
            engine.flows.insert(
                flow.id,
                PeerFlow {
                    flow,
                    remote_host: host,
                    remote_engine: key,
                },
            );
        }
        let nsend = r.u32()?;
        for _ in 0..nsend {
            let conn = r.u64()?;
            let stream = r.u32()?;
            let msg = r.u64()?;
            let op = r.u64()?;
            let has_session = r.bool()?;
            let session = r.u64()?;
            let total = r.u64()?;
            let chunks = r.u32()?;
            let issued_at = Nanos(r.u64()?);
            let next_offset = r.u64()?;
            let mut acked_offsets = Vec::new();
            for _ in 0..r.u32()? {
                insert_sorted(&mut acked_offsets, r.u64()?);
            }
            engine.send_msgs.insert(
                (conn, stream, msg),
                SendMsg {
                    op,
                    session: has_session.then_some(session),
                    total,
                    chunks,
                    acked_offsets,
                    issued_at,
                    next_offset,
                    trace: None,
                },
            );
        }
        let nrecv = r.u32()?;
        for _ in 0..nrecv {
            let conn = r.u64()?;
            let stream = r.u32()?;
            let msg = r.u64()?;
            let total = r.u64()?;
            let mut offsets = Vec::new();
            let mut received = 0u64;
            for _ in 0..r.u32()? {
                insert_sorted(&mut offsets, r.u64()?);
            }
            // Reconstruct received byte count from offsets and the MTU
            // chunking rule.
            let mtu = engine.cfg.mtu as u64;
            for &o in &offsets {
                received += (total - o).min(mtu);
            }
            engine
                .recv_msgs
                .insert((conn, stream, msg), RecvMsg {
                    total,
                    received,
                    offsets,
                });
        }
        let nops = r.u32()?;
        for _ in 0..nops {
            let op = r.u64()?;
            let kind = match r.u8()? {
                0 => OpKind::Send,
                1 => OpKind::Read,
                2 => OpKind::Write,
                3 => OpKind::IndirectRead,
                _ => OpKind::ScanRead,
            };
            let conn = r.u64()?;
            let has_session = r.bool()?;
            let session = r.u64()?;
            let issued_at = Nanos(r.u64()?);
            engine.pending_ops.insert(
                op,
                PendingOp {
                    kind,
                    conn,
                    session: has_session.then_some(session),
                    issued_at,
                    trace: None,
                },
            );
        }
        let nwm = r.u32()?;
        for _ in 0..nwm {
            let sid = r.u64()?;
            let wm = r.u64()?;
            engine.session_watermarks.insert(sid, wm);
        }
        // Restored flows re-enter with queued frames, restored
        // connections with streams to schedule.
        (engine.ready_flows, engine.ready_conns) = engine.scan_ready();
        Ok(engine)
    }
}
